//! Scheduling-throughput micro-benchmark for the daemon hot path: domain-wide
//! collectives per second for 2/4/8 simulated GPUs. `perf_hotpath` emits the
//! same panel as `BENCH_hotpath.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dfccl_bench::hotpath::{batched_config, scheduling_throughput, HotpathWorkload};

fn bench_daemon_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("daemon_throughput");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for gpus in [2usize, 4, 8] {
        let workload = HotpathWorkload::standard(gpus);
        group.throughput(Throughput::Elements(workload.total_collectives()));
        group.bench_with_input(
            BenchmarkId::new("batched", format!("{gpus}gpus")),
            &workload,
            |b, &workload| {
                let config = batched_config();
                b.iter(|| scheduling_throughput(workload, config.clone()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_daemon_throughput);
criterion_main!(benches);
