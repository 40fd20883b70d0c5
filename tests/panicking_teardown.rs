//! A test that panics while it holds a rank with a wedged collective must
//! still end. Its own test binary: the wedged rank's carrier keeps stepping
//! it until the process exits.

use dfccl_repro::collectives::{DataType, DeviceBuffer, ReduceOp};
use dfccl_repro::dfccl::DfcclDomain;
use dfccl_repro::gpu_sim::GpuId;

/// Rank 0 runs an all-reduce that rank 1 never joins, then the test panics:
/// unwinding drops both ranks, and rank 0 can never drain what it owes.
/// The drop must not wait for that.
#[test]
#[should_panic(expected = "the test gave up on a wedged all-reduce")]
fn a_panic_while_a_collective_is_wedged_unwinds_through_teardown() {
    let domain = DfcclDomain::flat_for_testing(2);
    let devices = vec![GpuId(0), GpuId(1)];
    let ranks: Vec<_> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    for rank in &ranks {
        rank.register_all_reduce(1, 8, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    let (send, recv) = (DeviceBuffer::zeroed(32), DeviceBuffer::zeroed(32));
    let _wedged = ranks[0].run_awaitable(1, send, recv).unwrap();
    assert_eq!(ranks[0].outstanding(), 1);
    panic!("the test gave up on a wedged all-reduce");
}
