//! Criterion micro-benchmark backing Fig. 8: library overhead of one
//! all-reduce on four simulated GPUs through the full DFCCL stack
//! (SQ → daemon kernel → primitives → CQ → callback), with zero-cost links so
//! the measurement isolates the library rather than the modelled wire time —
//! plus the reduce kernels those primitives spend their time in at bandwidth
//! sizes, on their own, so an edit that de-vectorises them shows as a ~5×
//! drop in `reduce_kernels` rather than as a vague end-to-end slowdown.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfccl::DfcclDomain;
use dfccl_collectives::redop::reduce_into;
use dfccl_collectives::{DataType, DeviceBuffer, ReduceOp};
use gpu_sim::GpuId;

fn bench_all_reduce(c: &mut Criterion) {
    let gpus = 4usize;
    let devices: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let mut group = c.benchmark_group("dfccl_all_reduce");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    // Up to 1 Mi elements = 4 MiB, the benchmark's `large_bandwidth` payload.
    for &elems in &[1usize << 10, 1 << 14, 1 << 20] {
        let domain = DfcclDomain::flat_for_testing(gpus);
        let ranks: Vec<Arc<dfccl::RankCtx>> = devices
            .iter()
            .map(|&g| Arc::new(domain.init_rank(g).unwrap()))
            .collect();
        for rank in &ranks {
            rank.register_all_reduce(1, elems, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
                .unwrap();
        }
        // The buffers are the application's memory: allocated (and, at
        // 4 MiB, page-faulted) once, outside the measured closure.
        let bufs: Vec<(DeviceBuffer, DeviceBuffer)> = (0..gpus)
            .map(|_| {
                (
                    DeviceBuffer::zeroed(elems * 4),
                    DeviceBuffer::zeroed(elems * 4),
                )
            })
            .collect();
        group.throughput(Throughput::Bytes((elems * 4) as u64));
        group.bench_with_input(BenchmarkId::new("elems", elems), &elems, |b, _| {
            b.iter(|| {
                let mut handles = Vec::with_capacity(gpus);
                for (rank, (send, recv)) in ranks.iter().zip(&bufs) {
                    handles.push(rank.run_awaitable(1, send.clone(), recv.clone()).unwrap());
                }
                for h in handles {
                    h.wait_for(1);
                }
            });
        });
        for rank in &ranks {
            rank.destroy();
        }
    }
    group.finish();
}

/// One executor chunk (`chunk_elems` 32 Ki × 4 B = 128 KiB) through
/// `reduce_into`, per element type and operator class.
fn bench_reduce_kernels(c: &mut Criterion) {
    let bytes = 128 * 1024;
    let mut group = c.benchmark_group("reduce_kernels");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.throughput(Throughput::Bytes(bytes as u64));
    for dtype in [DataType::F32, DataType::I32] {
        for op in [ReduceOp::Sum, ReduceOp::Max] {
            let mut acc = vec![1u8; bytes];
            let incoming = vec![2u8; bytes];
            group.bench_function(BenchmarkId::new(format!("{dtype}_{op}"), bytes), |b| {
                b.iter(|| reduce_into(black_box(&mut acc), black_box(&incoming), dtype, op));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_all_reduce, bench_reduce_kernels);
criterion_main!(benches);
