//! Criterion micro-benchmarks of the daemon-kernel building blocks whose
//! costs appear in the Sec. 4.5 performance model: SQ submission, task-queue
//! reordering, spin-policy arithmetic, context checkout/checkin and the
//! per-instruction readiness dispatch of the compiled program.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dfccl::sq::SqCursor;
use dfccl::{HostMemCosts, OrderingPolicy, SpinPolicy, Sqe, SubmissionQueue, TaskQueue};
use dfccl_collectives::{
    instr_ready, AlgorithmSelector, CollectiveDescriptor, CompiledProgram, DataType, DeviceBuffer,
    PendingSends,
};
use dfccl_transport::{Communicator, CommunicatorId, LinkModel, Topology};
use gpu_sim::GpuId;
use std::sync::Arc;

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("daemon_components");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(200));

    group.bench_function("sq_push_read", |b| {
        let sq = SubmissionQueue::new(256, 1);
        let mut cursor = SqCursor::default();
        b.iter(|| {
            sq.try_push(Sqe {
                coll_id: 1,
                seq: 0,
                send: DeviceBuffer::zeroed(16),
                recv: DeviceBuffer::zeroed(16),
                exit: false,
            })
            .unwrap();
            sq.read_next(&mut cursor).unwrap()
        });
    });

    group.bench_function("task_queue_reorder_64", |b| {
        let mut q = TaskQueue::new();
        for i in 0..64u64 {
            q.push(i, (i % 7) as i32, 0);
        }
        b.iter(|| {
            q.reorder(OrderingPolicy::PriorityBased);
            q.reorder(OrderingPolicy::Fifo);
            q.len()
        });
    });

    group.bench_function("adaptive_spin_policy", |b| {
        let policy = SpinPolicy::adaptive_default();
        b.iter(|| {
            let mut t = 0u64;
            for pos in 0..32 {
                t = t.wrapping_add(policy.on_success(policy.initial_threshold(pos)));
            }
            t
        });
    });

    group.bench_function("context_checkout_checkin", |b| {
        let store = dfccl::context::ContextStore::new(8, HostMemCosts::free());
        store.enqueue_invocation(
            3,
            dfccl::context::DynamicContext::new(
                0,
                DeviceBuffer::zeroed(16),
                DeviceBuffer::zeroed(16),
            ),
        );
        b.iter(|| {
            let (ctx, _) = store.checkout_current(3).unwrap();
            store.checkin_incomplete(3, ctx)
        });
    });

    group.finish();
}

/// Per-instruction readiness dispatch: index into the flat connector table
/// with pre-resolved instruction indices. The workload is rank 0 of an
/// 8-rank all-to-all striped over 4 channels — the dense-mesh shape
/// (`(n-1) × K` connectors per direction, the MoE-style workload).
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(200));

    let (gpus, channels) = (8, 4);
    let desc =
        CollectiveDescriptor::all_to_all(2 * 1024, DataType::F32, (0..gpus).map(GpuId).collect())
            .with_channels(channels);
    let topo = Topology::flat(gpus);
    let plan = AlgorithmSelector::default()
        .build_plan(&desc, 0, 256, &topo)
        .expect("plan builds");
    let comm = Communicator::new(
        CommunicatorId(0),
        desc.devices.clone(),
        &Arc::new(topo),
        &Arc::new(LinkModel::zero_cost()),
        8,
    )
    .expect("communicator");
    let rank_channels = comm
        .channels(0, plan.send_edges(), plan.recv_edges())
        .expect("channels");
    let program = CompiledProgram::compile(&plan, desc.dtype);
    let table = program.bind(&rank_channels).expect("bind");
    let pending = PendingSends::default();

    group.bench_function("instr_ready_index", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let idx = i % program.len() as u32;
            i += 1;
            black_box(instr_ready(&program, idx, &table, &pending))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_components, bench_dispatch);
criterion_main!(benches);
