//! The carrier world's thread budget and teardown, counted from the
//! domain's own ledger of carrier threads started and not joined yet
//! (`/proc/self/task` can still list a thread that was joined).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dfccl_repro::collectives::{DataType, DeviceBuffer, ReduceOp};
use dfccl_repro::dfccl::DfcclDomain;
use dfccl_repro::gpu_sim::GpuId;

#[test]
fn a_four_rank_domain_runs_on_few_carriers_and_destroy_leaves_none() {
    const RANKS: usize = 4;
    const COUNT: usize = 16;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = RANKS.min(parallelism);
    let domain = DfcclDomain::flat_for_testing(RANKS);
    let devices: Vec<GpuId> = (0..RANKS).map(GpuId).collect();
    let ranks: Vec<_> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    for rank in &ranks {
        rank.register_all_reduce(1, COUNT, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }

    // While the domain runs: count between submission and completion.
    let mut peak = 0;
    for _round in 0..20 {
        let handles: Vec<_> = ranks
            .iter()
            .map(|rank| {
                let (send, recv) = (
                    DeviceBuffer::zeroed(COUNT * 4),
                    DeviceBuffer::zeroed(COUNT * 4),
                );
                rank.run_awaitable(1, send, recv).unwrap()
            })
            .collect();
        peak = peak.max(domain.carrier_threads());
        for handle in handles {
            assert!(handle.wait_for_timeout(1, Duration::from_secs(30)));
        }
    }
    assert!(
        (1..=budget).contains(&peak),
        "{peak} dfccl- threads for {RANKS} ranks on {parallelism} CPUs (budget {budget})"
    );

    // `destroy` returns only after the rank's last callback ran: each one
    // dawdles on purpose, so a destroy that did not wait for it returns first.
    let fired: Vec<Arc<AtomicBool>> = (0..RANKS)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    for (rank, fired) in ranks.iter().zip(&fired) {
        let fired = Arc::clone(fired);
        let (send, recv) = (
            DeviceBuffer::zeroed(COUNT * 4),
            DeviceBuffer::zeroed(COUNT * 4),
        );
        rank.run(
            1,
            send,
            recv,
            Box::new(move || {
                std::thread::sleep(Duration::from_millis(20));
                fired.store(true, Ordering::Release);
            }),
        )
        .unwrap();
    }
    for (r, rank) in ranks.iter().enumerate() {
        rank.destroy();
        assert!(
            fired[r].load(Ordering::Acquire),
            "rank {r}'s destroy returned before its last callback ran"
        );
    }
    assert_eq!(
        domain.carrier_threads(),
        0,
        "carrier threads outlived every rank"
    );
}
