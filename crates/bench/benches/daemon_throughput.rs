//! Scheduling throughput of the whole submission → daemon → completion
//! pipeline at 2, 4 and 8 simulated GPUs: every rank submits 16 registered
//! 64-byte all-reduces × 4 rounds over zero-cost links, so the rate is set by
//! the scheduling machinery, not by moving bytes. The repository benchmark
//! (`benchmark/`) stops at 4 ranks; this is the only measurement of how the
//! rate falls towards 8 ranks on a host with fewer cores than daemons. It
//! first prints the primitives one collective executes at each size, summed
//! over its ranks, so colls/s converts to primitives/s, then criterion's
//! table; it gates nothing.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfccl::{CompletionHandle, DfcclConfig, DfcclDomain, DfcclError, SpinPolicy};
use dfccl_collectives::{DataType, DeviceBuffer, ReduceOp};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{GpuId, GpuSpec};

const COLLECTIVES: u64 = 16;
const ROUNDS: u64 = 4;
const COUNT: usize = 16;

/// The repository benchmark's configuration (`benchmark/src/workload.rs`):
/// `default()` with a small fixed spin budget, because on a host with fewer
/// cores than daemons a long spin starves the peer it is waiting for.
fn config() -> DfcclConfig {
    DfcclConfig {
        spin: SpinPolicy::Fixed { threshold: 16 },
        ..DfcclConfig::default()
    }
}

/// One run: a fresh `gpus`-rank domain, one invoker thread per rank, returns
/// when the last completion callback has fired on every rank, with the
/// primitives executed over all ranks.
fn run_once(gpus: usize) -> u64 {
    let domain = DfcclDomain::new(
        Topology::flat(gpus),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config(),
    );
    let devices: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let ranks: Vec<_> = devices
        .iter()
        .map(|&g| domain.init_rank(g).expect("rank init"))
        .collect();
    for rank in &ranks {
        for c in 1..=COLLECTIVES {
            rank.register_all_reduce(c, COUNT, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
                .expect("register");
        }
    }
    let per_rank = COLLECTIVES * ROUNDS;
    // The scope joins every invoker and re-raises a panic from any of them.
    std::thread::scope(|scope| {
        for (g, rank) in ranks.iter().enumerate() {
            scope.spawn(move || {
                let handle = CompletionHandle::new();
                let send = DeviceBuffer::from_f32(&[(g + 1) as f32; COUNT]);
                for c in (0..ROUNDS).flat_map(|_| 1..=COLLECTIVES) {
                    let recv = DeviceBuffer::zeroed(COUNT * 4);
                    // A momentarily full SQ is backpressure, not a failure.
                    loop {
                        match rank.run(c, send.clone(), recv.clone(), handle.completion_callback())
                        {
                            Ok(()) => break,
                            Err(DfcclError::SubmissionQueueFull) => std::thread::yield_now(),
                            Err(e) => panic!("submission failed: {e}"),
                        }
                    }
                }
                assert!(
                    handle.wait_for_timeout(per_rank, Duration::from_secs(120)),
                    "rank {g} timed out: {}/{per_rank} completions",
                    handle.completions(),
                );
            });
        }
    });
    let mut primitives = 0;
    for rank in &ranks {
        assert!(rank.collective_errors().is_empty(), "collective errors");
        primitives += rank.stats().primitives_executed;
        rank.destroy();
    }
    primitives
}

fn bench_daemon_throughput(c: &mut Criterion) {
    for gpus in [2usize, 4, 8] {
        let per_collective = run_once(gpus) as f64 / (COLLECTIVES * ROUNDS) as f64;
        println!("daemon_throughput/{gpus}gpus: {per_collective} primitives per collective");
    }
    let mut group = c.benchmark_group("daemon_throughput");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(300));
    group.throughput(Throughput::Elements(COLLECTIVES * ROUNDS));
    for gpus in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{gpus}gpus")),
            &gpus,
            |b, &gpus| b.iter(|| run_once(gpus)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_daemon_throughput);
criterion_main!(benches);
