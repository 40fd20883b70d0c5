//! Deadlock prevention demo: the Fig. 1(c)/(d) situations.
//!
//! Two GPUs invoke the same two all-reduces in *opposite* orders, with a
//! `cudaDeviceSynchronize()`-style barrier between them. Under the NCCL-like
//! baseline this deadlocks (detected by the watchdog); under DFCCL the daemon
//! kernel preempts the stuck collective, quits voluntarily so the
//! synchronization drains, and every collective completes.
//!
//! ```text
//! cargo run --example deadlock_prevention
//! ```

use std::sync::Arc;
use std::time::Duration;

use dfccl::DfcclDomain;
use dfccl_baseline::{wait_all_or_deadlock, NcclDomain};
use dfccl_collectives::{CollectiveDescriptor, DataType, DeviceBuffer, ReduceOp};
use gpu_sim::{GpuId, StreamId};

const COUNT: usize = 4096;

fn devices() -> Vec<GpuId> {
    vec![GpuId(0), GpuId(1)]
}

fn baseline_deadlocks() {
    println!("--- NCCL-like baseline: disordered all-reduces with a device synchronization ---");
    let domain = NcclDomain::flat_for_testing(2, 4);
    let mut handles = Vec::new();
    let mut threads = Vec::new();
    for g in 0..2 {
        let domain = Arc::clone(&domain);
        threads.push(std::thread::spawn(move || {
            let rank = domain.init_rank(GpuId(g)).unwrap();
            for coll in [0u64, 1] {
                rank.register(
                    coll,
                    CollectiveDescriptor::all_reduce(
                        COUNT,
                        DataType::F32,
                        ReduceOp::Sum,
                        devices(),
                    ),
                )
                .unwrap();
            }
            // GPU 0 invokes A then B; GPU 1 invokes B then A.
            let order = if g == 0 { [0u64, 1] } else { [1, 0] };
            let first = rank
                .launch_collective(
                    order[0],
                    StreamId(1 + order[0] as usize),
                    DeviceBuffer::from_f32(&vec![1.0; COUNT]),
                    DeviceBuffer::zeroed(COUNT * 4),
                )
                .unwrap();
            // cudaDeviceSynchronize between the two invocations.
            let _ = rank.device_synchronize_timeout(Duration::from_millis(300));
            let second = rank
                .launch_collective(
                    order[1],
                    StreamId(1 + order[1] as usize),
                    DeviceBuffer::from_f32(&vec![1.0; COUNT]),
                    DeviceBuffer::zeroed(COUNT * 4),
                )
                .unwrap();
            vec![first, second]
        }));
    }
    for t in threads {
        handles.extend(t.join().unwrap());
    }
    let outcome = wait_all_or_deadlock(&handles, &domain.engines());
    println!("baseline outcome: {outcome:?}\n");
    assert!(outcome.is_deadlock());
    domain.shutdown();
}

fn dfccl_survives() {
    println!("--- DFCCL: the same disordered invocation pattern ---");
    let domain = DfcclDomain::flat_for_testing(2);
    let ranks: Vec<_> = (0..2)
        .map(|g| Arc::new(domain.init_rank(GpuId(g)).unwrap()))
        .collect();
    for rank in &ranks {
        for coll in [0u64, 1] {
            rank.register_all_reduce(coll, COUNT, DataType::F32, ReduceOp::Sum, devices(), 0)
                .unwrap();
        }
    }
    let mut threads = Vec::new();
    for (g, rank) in ranks.iter().enumerate() {
        let rank = Arc::clone(rank);
        threads.push(std::thread::spawn(move || {
            let order = if g == 0 { [0u64, 1] } else { [1, 0] };
            let h_first = rank
                .run_awaitable(
                    order[0],
                    DeviceBuffer::from_f32(&vec![1.0; COUNT]),
                    DeviceBuffer::zeroed(COUNT * 4),
                )
                .unwrap();
            // The synchronization completes because the daemon kernel quits
            // voluntarily once nothing can progress.
            assert!(rank.device_synchronize(Duration::from_secs(30)));
            let h_second = rank
                .run_awaitable(
                    order[1],
                    DeviceBuffer::from_f32(&vec![1.0; COUNT]),
                    DeviceBuffer::zeroed(COUNT * 4),
                )
                .unwrap();
            assert!(h_first.wait_for_timeout(1, Duration::from_secs(60)));
            assert!(h_second.wait_for_timeout(1, Duration::from_secs(60)));
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    for (g, rank) in ranks.iter().enumerate() {
        let stats = rank.stats();
        println!(
            "GPU {g}: completed {} collectives, {} preemptions, {} voluntary quits, {} daemon starts",
            stats.collectives_completed, stats.preemptions, stats.voluntary_quits, stats.daemon_starts
        );
    }
    for rank in &ranks {
        rank.destroy();
    }
    println!("DFCCL completed every collective — no deadlock.");
}

fn main() {
    baseline_deadlocks();
    dfccl_survives();
}
