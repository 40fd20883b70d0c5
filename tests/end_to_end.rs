//! Cross-crate integration tests: DFCCL vs. the NCCL-like baseline on the
//! paper's deadlock scenarios, correctness of results under heavy preemption,
//! and the deadlock simulator's headline conclusions.

use std::sync::Arc;
use std::time::Duration;

use dfccl_repro::baseline::{wait_all_or_deadlock, NcclDomain};
use dfccl_repro::collectives::{CollectiveDescriptor, DataType, DeviceBuffer, ReduceOp};
use dfccl_repro::deadlock_sim::{
    estimate_deadlock_ratio, DecisionModel, GroupingPolicy, SimConfig,
};
use dfccl_repro::dfccl::{DfcclConfig, DfcclDomain};
use dfccl_repro::gpu_sim::{GpuId, GpuSpec, StreamId};
use dfccl_repro::transport::{LinkModel, Topology};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn gpu_ids(n: usize) -> Vec<GpuId> {
    (0..n).map(GpuId).collect()
}

/// Four GPUs invoke four all-reduces in four different random orders; DFCCL
/// completes all of them with correct results while the NCCL-like baseline,
/// given the same orders on a single stream, deadlocks.
#[test]
fn disordered_collectives_complete_under_dfccl_and_deadlock_under_baseline() {
    let n = 4;
    let count = 512;
    let n_coll = 4u64;
    let orders: Vec<Vec<u64>> = (0..n)
        .map(|g| {
            let mut order: Vec<u64> = (0..n_coll).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(g as u64 + 100);
            order.shuffle(&mut rng);
            order
        })
        .collect();

    // --- DFCCL ---
    let domain = DfcclDomain::new(
        Topology::flat(n),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        DfcclConfig::preemption_stress(), // tiny spin thresholds: preempt constantly
    );
    let ranks: Vec<_> = (0..n)
        .map(|g| Arc::new(domain.init_rank(GpuId(g)).unwrap()))
        .collect();
    for rank in &ranks {
        for c in 0..n_coll {
            rank.register_all_reduce(c, count, DataType::F32, ReduceOp::Sum, gpu_ids(n), 0)
                .unwrap();
        }
    }
    let mut joins = Vec::new();
    for (g, rank) in ranks.iter().enumerate() {
        let rank = Arc::clone(rank);
        let order = orders[g].clone();
        joins.push(std::thread::spawn(move || {
            let mut outs = Vec::new();
            let mut handles = Vec::new();
            for &c in &order {
                let send = DeviceBuffer::from_f32(&vec![(g + 1) as f32; count]);
                let recv = DeviceBuffer::zeroed(count * 4);
                outs.push((c, recv.clone()));
                handles.push(rank.run_awaitable(c, send, recv).unwrap());
            }
            for h in handles {
                assert!(h.wait_for_timeout(1, Duration::from_secs(60)));
            }
            outs
        }));
    }
    let expected = vec![(1 + 2 + 3 + 4) as f32; count];
    for j in joins {
        for (c, out) in j.join().unwrap() {
            assert_eq!(out.to_f32_vec(), expected, "collective {c} result wrong");
        }
    }
    let total_preemptions: u64 = ranks.iter().map(|r| r.stats().preemptions).sum();
    assert!(
        total_preemptions > 0,
        "the stress config must exercise preemption"
    );
    for rank in &ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }

    // --- NCCL-like baseline, single stream per GPU ---
    let ndomain = NcclDomain::flat_for_testing(n, 1);
    let nranks: Vec<_> = (0..n)
        .map(|g| Arc::new(ndomain.init_rank(GpuId(g)).unwrap()))
        .collect();
    for rank in &nranks {
        for c in 0..n_coll {
            rank.register(
                c,
                CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpu_ids(n)),
            )
            .unwrap();
        }
    }
    let mut handles = Vec::new();
    for (g, rank) in nranks.iter().enumerate() {
        for &c in &orders[g] {
            handles.push(
                rank.launch_collective(
                    c,
                    StreamId(1),
                    DeviceBuffer::from_f32(&vec![1.0; count]),
                    DeviceBuffer::zeroed(count * 4),
                )
                .unwrap(),
            );
        }
    }
    let outcome = wait_all_or_deadlock(&handles, &ndomain.engines());
    assert!(
        outcome.is_deadlock(),
        "disordered single-stream baseline must deadlock"
    );
    ndomain.shutdown();
}

/// Device synchronization interleaved with disordered collectives: DFCCL's
/// voluntary quitting lets the synchronization drain and the work complete.
#[test]
fn device_sync_between_disordered_collectives_completes_under_dfccl() {
    let n = 2;
    let count = 1024;
    let domain = DfcclDomain::flat_for_testing(n);
    let ranks: Vec<_> = (0..n)
        .map(|g| Arc::new(domain.init_rank(GpuId(g)).unwrap()))
        .collect();
    for rank in &ranks {
        for c in 0..2u64 {
            rank.register_all_reduce(c, count, DataType::F32, ReduceOp::Sum, gpu_ids(n), 0)
                .unwrap();
        }
    }
    let mut joins = Vec::new();
    for (g, rank) in ranks.iter().enumerate() {
        let rank = Arc::clone(rank);
        joins.push(std::thread::spawn(move || {
            let order = if g == 0 { [0u64, 1] } else { [1, 0] };
            let first = rank
                .run_awaitable(
                    order[0],
                    DeviceBuffer::from_f32(&vec![1.0; count]),
                    DeviceBuffer::zeroed(count * 4),
                )
                .unwrap();
            assert!(
                rank.device_synchronize(Duration::from_secs(30)),
                "synchronization must drain thanks to voluntary quitting"
            );
            let second = rank
                .run_awaitable(
                    order[1],
                    DeviceBuffer::from_f32(&vec![1.0; count]),
                    DeviceBuffer::zeroed(count * 4),
                )
                .unwrap();
            assert!(first.wait_for_timeout(1, Duration::from_secs(60)));
            assert!(second.wait_for_timeout(1, Duration::from_secs(60)));
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // The daemons must quit voluntarily at least once to let the syncs drain.
    // The quit is asynchronous (the daemon counts down its idle budget after
    // the last completion), so poll briefly instead of racing it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let quits: u64 = ranks.iter().map(|r| r.stats().voluntary_quits).sum();
        if quits > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no daemon quit voluntarily within 10s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for rank in &ranks {
        rank.destroy();
    }
}

/// Re-invoking the same registered collective many times reuses its
/// communicator and produces fresh, correct results every time.
#[test]
fn repeated_invocations_of_one_registered_collective_stay_correct() {
    let n = 3;
    let count = 257; // deliberately not a multiple of n
    let domain = DfcclDomain::flat_for_testing(n);
    let ranks: Vec<_> = (0..n)
        .map(|g| Arc::new(domain.init_rank(GpuId(g)).unwrap()))
        .collect();
    for rank in &ranks {
        rank.register_all_reduce(7, count, DataType::F32, ReduceOp::Sum, gpu_ids(n), 0)
            .unwrap();
    }
    for iteration in 0..10 {
        let mut handles = Vec::new();
        let mut outs = Vec::new();
        for (g, rank) in ranks.iter().enumerate() {
            let value = (iteration + g + 1) as f32;
            let recv = DeviceBuffer::zeroed(count * 4);
            outs.push(recv.clone());
            handles.push(
                rank.run_awaitable(7, DeviceBuffer::from_f32(&vec![value; count]), recv)
                    .unwrap(),
            );
        }
        for h in handles {
            assert!(h.wait_for_timeout(1, Duration::from_secs(60)));
        }
        let expected: f32 = (0..n).map(|g| (iteration + g + 1) as f32).sum();
        for out in outs {
            assert!(
                out.to_f32_vec().iter().all(|&v| v == expected),
                "iteration {iteration}"
            );
        }
    }
    for rank in &ranks {
        rank.destroy();
    }
}

/// The benchmark's disorder step (8 collectives of 16 KiB over overlapping
/// groups of a flat 4-GPU node), registered by each rank in its own seeded
/// order: whichever member registers a shape first, every member runs the
/// family the cost model picks, so their plans pair up. On 2 and 4 ranks
/// recursive doubling's log2(n) hops beat the ring's 2(n-1) and the tree's
/// at this size, so every all-reduce runs the pairwise family.
#[test]
fn every_member_of_a_disorder_step_collective_runs_one_family() {
    use dfccl_repro::collectives::AlgorithmKind;

    let n = 4;
    let count = 4096;
    let set = |members: &[usize]| members.iter().map(|&g| GpuId(g)).collect::<Vec<_>>();
    let all_reduce = |members: &[usize]| {
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, set(members))
    };
    let colls: Vec<(u64, CollectiveDescriptor, AlgorithmKind)> = vec![
        (
            1,
            CollectiveDescriptor::all_to_all(count / 4, DataType::F32, set(&[0, 1, 2, 3])),
            AlgorithmKind::Pairwise,
        ),
        (2, all_reduce(&[0, 1, 2, 3]), AlgorithmKind::Pairwise),
        (3, all_reduce(&[0, 1]), AlgorithmKind::Pairwise),
        (4, all_reduce(&[2, 3]), AlgorithmKind::Pairwise),
        (5, all_reduce(&[1, 2]), AlgorithmKind::Pairwise),
        (6, all_reduce(&[0, 3]), AlgorithmKind::Pairwise),
        (
            7,
            CollectiveDescriptor::all_gather(count, DataType::F32, set(&[0, 2])),
            AlgorithmKind::Ring,
        ),
        (
            8,
            CollectiveDescriptor::broadcast(count, DataType::F32, 0, set(&[1, 3])),
            AlgorithmKind::Ring,
        ),
    ];
    let domain = DfcclDomain::new(
        Topology::flat(n),
        LinkModel::table2_testbed(),
        GpuSpec::rtx_3090(),
        DfcclConfig::for_testing(),
    );
    let ranks: Vec<_> = (0..n)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for rank in ranks.iter().rev() {
        let mut mine: Vec<_> = colls
            .iter()
            .filter(|(_, desc, _)| desc.devices.contains(&rank.gpu()))
            .collect();
        mine.shuffle(&mut rng);
        for (id, desc, _) in mine {
            rank.register(*id, desc.clone()).unwrap();
        }
    }
    let selector = domain.config().algorithm_selector();
    for (id, desc, expected) in &colls {
        let chosen = selector.select(desc, domain.topology());
        assert_eq!(chosen, *expected, "coll {id}");
        for gpu in &desc.devices {
            assert_eq!(
                ranks[gpu.0].algorithm_of(*id),
                Some(chosen),
                "coll {id} on {gpu}"
            );
        }
    }
    assert_eq!(domain.cache_stats().misses, colls.len() as u64);
    for rank in ranks {
        rank.destroy();
    }
}

/// Integer Sum is two's-complement wrapping in every build profile: an
/// all-reduce whose inputs overflow completes with the wrapped value instead
/// of panicking the daemon thread (a hang for the caller) under overflow
/// checks.
#[test]
fn overflowing_i32_sum_all_reduce_completes_with_the_wrapped_value() {
    let n = 2;
    let inputs = [[i32::MAX, i32::MIN, 7], [1, -1, -9]];
    let domain = DfcclDomain::flat_for_testing(n);
    let ranks: Vec<_> = (0..n)
        .map(|g| Arc::new(domain.init_rank(GpuId(g)).unwrap()))
        .collect();
    let mut handles = Vec::new();
    let mut outs = Vec::new();
    for (rank, input) in ranks.iter().zip(&inputs) {
        rank.register_all_reduce(3, input.len(), DataType::I32, ReduceOp::Sum, gpu_ids(n), 0)
            .unwrap();
        let recv = DeviceBuffer::zeroed(input.len() * 4);
        outs.push(recv.clone());
        handles.push(
            rank.run_awaitable(3, DeviceBuffer::from_i32(input), recv)
                .unwrap(),
        );
    }
    for h in handles {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(20)),
            "the all-reduce never completed"
        );
    }
    for (rank, out) in ranks.iter().zip(outs) {
        assert_eq!(out.to_i32_vec(), vec![i32::MIN, i32::MAX, -2]);
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}

/// The simulator reproduces the paper's headline conclusion: tiny disorder and
/// synchronization probabilities produce deadlock ratios orders of magnitude
/// larger, and the synchronization probability matters more than disorder.
#[test]
fn deadlock_simulator_reproduces_sensitivity_conclusions() {
    let grouping = GroupingPolicy::free_table1(16, 6, 3, 2, 6, 60, 120);
    let base = SimConfig {
        grouping: grouping.clone(),
        model: DecisionModel::Synchronization,
        disorder_prob: 1e-3,
        sync_prob: 1e-3,
    };
    let rounds = 300;
    let base_ratio = estimate_deadlock_ratio(&base, rounds, 5);
    let more_sync = estimate_deadlock_ratio(
        &SimConfig {
            sync_prob: 1e-2,
            ..base.clone()
        },
        rounds,
        5,
    );
    let more_disorder = estimate_deadlock_ratio(
        &SimConfig {
            disorder_prob: 1e-2,
            ..base.clone()
        },
        rounds,
        5,
    );
    assert!(base_ratio >= 0.0);
    assert!(
        more_sync >= base_ratio,
        "sync sensitivity: {more_sync} vs {base_ratio}"
    );
    assert!(more_disorder >= base_ratio);
    // With both probabilities at 1%, the deadlock ratio far exceeds them
    // (Sec. 2.4.3 conclusion ❶).
    let both_high = estimate_deadlock_ratio(
        &SimConfig {
            disorder_prob: 3e-2,
            sync_prob: 3e-2,
            ..base
        },
        rounds,
        5,
    );
    assert!(
        both_high > 5e-2,
        "ratio {both_high} should exceed the probabilities"
    );
}
