//! Fault-injection suite: scripted link faults against the full DFCCL stack.
//!
//! Three layers of coverage:
//!
//! * A property sweep — a mid-collective slowdown on any single edge, across
//!   every algorithm family × rank counts 2–8 × channel counts 1–3, must
//!   complete bit-exact at connector capacity 1 (a degraded link slows a
//!   collective down, it never corrupts or wedges it).
//! * A dead edge must produce a [`StallReport`] naming exactly that
//!   `(src, dst, channel)` edge and the collective stuck behind it; a member
//!   that never submits must produce a wedge naming that member.
//! * The ISSUE acceptance scenario: a dead inter-node edge on a two-server
//!   cluster yields a link-failure report (and the telemetry snapshot shows
//!   the dead edge), then healing lets the collective finish bit-exact; a
//!   100× slowdown on the same edge completes with zero watchdog false
//!   positives.
//!
//! The sweep widens via `DFCCL_FAULT_SEEDS` (extra seeded edge choices per
//! combination; default 1, so any failure reproduces by seed alone).

use std::collections::HashMap;
use std::time::Duration;

use dfccl_repro::collectives::DeviceBuffer;
use dfccl_repro::collectives::{AlgorithmKind, CollectiveDescriptor, DataType, ReduceOp};
use dfccl_repro::dfccl::{
    watch_for_stall, DfcclConfig, DfcclDomain, RankCtx, RecoveryCoordinator, RecoveryError,
    RetryPolicy, SpinPolicy,
};
use dfccl_repro::gpu_sim::{GpuId, GpuSpec};
use dfccl_repro::transport::{
    ChannelId, EdgeId, FaultSpec, LinkClass, LinkModel, LinkParams, StallKind, Topology,
};

/// Extra seeded edge choices per sweep combination (CI widens this).
fn fault_seeds() -> u64 {
    std::env::var("DFCCL_FAULT_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Mild non-zero link costs: enough modelled time that a 50× slowdown is a
/// real mid-collective perturbation, small enough that sweeps stay fast.
fn mild_links() -> LinkModel {
    let classes = [
        LinkClass::Local,
        LinkClass::IntraPix,
        LinkClass::IntraSys,
        LinkClass::InterNode,
    ];
    let mut params = HashMap::new();
    for class in classes {
        params.insert(
            class,
            LinkParams {
                latency_ns: 1_000.0,
                bandwidth_gbps: f64::INFINITY,
            },
        );
    }
    LinkModel::new(params, Default::default())
}

/// The stress-grade config: minimal connector capacity, tiny chunks, a low
/// fixed spin threshold so preemption is constantly exercised.
fn fault_config() -> DfcclConfig {
    DfcclConfig {
        chunk_elems: 8,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 16 },
        ..DfcclConfig::for_testing()
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One sweep case: build the domain, register the collective, script a 50×
/// slowdown (activating after the first chunk) on a seeded edge of its
/// communicator, run it from every rank, and check the result is exactly
/// what a fault-free run produces.
fn slowdown_round(
    family: AlgorithmKind,
    topology: Topology,
    devices: Vec<GpuId>,
    channels: usize,
    seed: u64,
) {
    let n = devices.len();
    let domain = DfcclDomain::new(topology, mild_links(), GpuSpec::rtx_3090(), fault_config());
    let count = 16 * n; // divisible by every rank count, several chunks deep
    let desc = if family == AlgorithmKind::Pairwise {
        CollectiveDescriptor::all_to_all(count / n, DataType::F32, devices.clone())
    } else {
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices.clone())
    }
    .with_algorithm(family)
    .with_channels(channels);

    let ranks: Vec<RankCtx> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    for rank in &ranks {
        rank.register(1, desc.clone()).unwrap();
        assert_eq!(rank.algorithm_of(1), Some(family));
    }

    // Seeded single-edge choice over the edges the plan actually uses.
    let edges = domain.edge_samples();
    assert!(!edges.is_empty(), "{family} n={n} K={channels}: no edges");
    let victim = edges
        [(splitmix(seed ^ (n as u64) << 8 ^ (channels as u64) << 16) as usize) % edges.len()]
    .edge;
    domain
        .fault_injector()
        .script(victim, FaultSpec::slowdown(50.0).after_chunks(1));

    // Integer-valued inputs: every reduction order yields the same f32 bits.
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| {
            (0..count)
                .map(|i| ((seed as usize + r * 37 + i * 5) % 199) as f32)
                .collect()
        })
        .collect();
    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let send = DeviceBuffer::from_f32(&inputs[r]);
        let recv = DeviceBuffer::zeroed(count * 4);
        recvs.push(recv.clone());
        handles.push(rank.run_awaitable(1, send, recv).unwrap());
    }
    for h in &handles {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(60)),
            "{family} n={n} K={channels} seed={seed}: slowdown on {victim} wedged the collective"
        );
    }
    for (r, recv) in recvs.iter().enumerate() {
        let expected: Vec<f32> = if family == AlgorithmKind::Pairwise {
            let per = count / n;
            (0..n)
                .flat_map(|src| inputs[src][r * per..(r + 1) * per].to_vec())
                .collect()
        } else {
            (0..count)
                .map(|i| (0..n).map(|src| inputs[src][i]).sum())
                .collect()
        };
        assert_eq!(
            recv.to_f32_vec(),
            expected,
            "{family} n={n} K={channels} seed={seed}: rank {r} result corrupted by slowdown on {victim}"
        );
    }
    for rank in ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}

#[test]
fn mid_collective_slowdown_is_bit_exact_for_ring_and_tree() {
    for family in [AlgorithmKind::Ring, AlgorithmKind::DoubleBinaryTree] {
        for n in 2..=8usize {
            for channels in 1..=3usize {
                for seed in 0..fault_seeds() {
                    let devices: Vec<GpuId> = (0..n).map(GpuId).collect();
                    slowdown_round(family, Topology::flat(n), devices, channels, seed);
                }
            }
        }
    }
}

#[test]
fn mid_collective_slowdown_is_bit_exact_for_pairwise() {
    for n in 2..=8usize {
        for channels in 1..=3usize {
            for seed in 0..fault_seeds() {
                let devices: Vec<GpuId> = (0..n).map(GpuId).collect();
                slowdown_round(
                    AlgorithmKind::Pairwise,
                    Topology::flat(n),
                    devices,
                    channels,
                    seed,
                );
            }
        }
    }
}

#[test]
fn mid_collective_slowdown_is_bit_exact_for_hierarchical() {
    // Hierarchical needs a multi-node shape with equal node groups: two
    // nodes of n/2 GPUs each, so n ∈ {4, 6, 8}.
    for n in [4usize, 6, 8] {
        for channels in 1..=3usize {
            for seed in 0..fault_seeds() {
                let devices: Vec<GpuId> = (0..n).map(GpuId).collect();
                slowdown_round(
                    AlgorithmKind::Hierarchical,
                    Topology::uniform_cluster(2, n / 2),
                    devices,
                    channels,
                    seed,
                );
            }
        }
    }
}

#[test]
fn dead_edge_yields_a_stall_report_naming_it_then_healing_completes() {
    let domain = DfcclDomain::new(
        Topology::flat(2),
        mild_links(),
        GpuSpec::rtx_3090(),
        fault_config(),
    );
    let devices = vec![GpuId(0), GpuId(1)];
    let count = 64;
    let ranks: Vec<RankCtx> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    for rank in &ranks {
        rank.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    let victim = EdgeId {
        src: GpuId(0),
        dst: GpuId(1),
        channel: ChannelId(0),
    };
    assert!(
        domain.edge_samples().iter().any(|s| s.edge == victim),
        "the ring plan must use the chosen victim edge"
    );
    let injector = domain.fault_injector();
    injector.script(victim, FaultSpec::dead());

    let handles: Vec<_> = ranks
        .iter()
        .enumerate()
        .map(|(r, rank)| {
            rank.run_awaitable(
                1,
                DeviceBuffer::from_f32(&vec![(r + 1) as f32; count]),
                DeviceBuffer::zeroed(count * 4),
            )
            .unwrap()
        })
        .collect();

    let done = || {
        handles
            .iter()
            .all(|h| h.wait_for_timeout(1, Duration::ZERO))
    };
    let rank_refs: Vec<&RankCtx> = ranks.iter().collect();
    let Some(report) = watch_for_stall(&rank_refs, &done) else {
        panic!("a dead edge must stall the collective");
    };
    assert_eq!(report.kind, StallKind::LinkFailure, "{report}");
    assert!(
        report.failed_edges.iter().any(|s| s.edge == victim),
        "report must name the dead edge: {report}"
    );
    assert_eq!(report.stalled_collectives, vec![1], "{report}");

    // Heal the link: the preempted collective resumes and finishes exact.
    injector.clear();
    for h in &handles {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(60)),
            "healing the edge must un-stall the collective"
        );
    }
    for rank in ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}

/// A member that never submits is a typed wedge, not a link failure: on
/// `flat(4)` at connector capacity 1, a four-rank all-reduce is registered on
/// every rank but invoked on ranks 0–2 only. The supervisor names the missing
/// `(collective, member)` pair and rolls nothing back; once gpu3 submits,
/// the round completes bit-exact on every rank.
#[test]
fn a_member_that_never_submits_is_a_typed_wedge_naming_it() {
    let n = 4;
    let domain = DfcclDomain::new(
        Topology::flat(n),
        mild_links(),
        GpuSpec::rtx_3090(),
        fault_config(),
    );
    let devices: Vec<GpuId> = (0..n).map(GpuId).collect();
    let count = 64;
    let ranks: Vec<RankCtx> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    for rank in &ranks {
        rank.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| (0..count).map(|i| ((r * 23 + i * 3) % 61) as f32).collect())
        .collect();
    let recvs: Vec<DeviceBuffer> = (0..n).map(|_| DeviceBuffer::zeroed(count * 4)).collect();
    let run = |r: usize| {
        ranks[r]
            .run_awaitable(1, DeviceBuffer::from_f32(&inputs[r]), recvs[r].clone())
            .unwrap()
    };
    let mut handles: Vec<_> = (0..n - 1).map(run).collect();

    let done = || {
        handles
            .iter()
            .all(|h| h.wait_for_timeout(1, Duration::ZERO))
    };
    let rank_refs: Vec<&RankCtx> = ranks.iter().collect();
    let outcome = test_recovery().supervise(&rank_refs, &done);
    let Err(RecoveryError::Wedged(report)) = outcome else {
        panic!("a member that never submits must be a typed wedge, got {outcome:?}");
    };
    assert_eq!(report.kind, StallKind::Wedge, "{report}");
    assert_eq!(report.missing, vec![(1, GpuId(3))], "{report}");
    assert_eq!(report.stalled_collectives, vec![1], "{report}");
    for rank in &ranks {
        let snap = rank.telemetry();
        assert_eq!(snap.counters.recoveries_attempted, 0, "{snap}");
    }

    // The missing member submits: the round completes everywhere.
    handles.push(run(n - 1));
    for h in &handles {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(60)),
            "the round must complete once every member submitted"
        );
    }
    let expected: Vec<f32> = (0..count)
        .map(|i| (0..n).map(|r| inputs[r][i]).sum())
        .collect();
    for (r, recv) in recvs.iter().enumerate() {
        assert_eq!(recv.to_f32_vec(), expected, "rank {r}");
    }
    for rank in ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}

/// The acceptance scenario from the issue, phase A: a seeded stress run with
/// an injected dead inter-node edge yields a `StallReport` identifying the
/// failed `(src, dst, channel)` edge and the stalled collectives — and the
/// rank telemetry shows the same edge dead.
#[test]
fn dead_inter_node_edge_is_identified_and_healable_on_two_servers() {
    let devices = vec![GpuId(0), GpuId(1), GpuId(8), GpuId(9)];
    let domain = DfcclDomain::new(
        Topology::two_servers(),
        LinkModel::table2_testbed(),
        GpuSpec::rtx_3090(),
        fault_config(),
    );
    let count = 64;
    let ranks: Vec<RankCtx> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    for rank in &ranks {
        rank.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    // Discover an inter-node edge the plan actually crosses.
    let victim = domain
        .edge_samples()
        .iter()
        .find(|s| s.link == LinkClass::InterNode)
        .expect("a 2×2-rank collective over two servers crosses the fabric")
        .edge;
    let injector = domain.fault_injector();
    injector.script(victim, FaultSpec::dead());

    let inputs: Vec<Vec<f32>> = (0..devices.len())
        .map(|r| (0..count).map(|i| ((r * 31 + i * 7) % 97) as f32).collect())
        .collect();
    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let recv = DeviceBuffer::zeroed(count * 4);
        recvs.push(recv.clone());
        handles.push(
            rank.run_awaitable(1, DeviceBuffer::from_f32(&inputs[r]), recv)
                .unwrap(),
        );
    }

    let done = || {
        handles
            .iter()
            .all(|h| h.wait_for_timeout(1, Duration::ZERO))
    };
    let rank_refs: Vec<&RankCtx> = ranks.iter().collect();
    let Some(report) = watch_for_stall(&rank_refs, &done) else {
        panic!("dead inter-node edge must stall the all-reduce");
    };
    assert_eq!(report.kind, StallKind::LinkFailure, "{report}");
    assert!(
        report.failed_edges.iter().any(|s| s.edge == victim),
        "report must identify the failed inter-node edge: {report}"
    );
    assert_eq!(report.stalled_collectives, vec![1], "{report}");

    // The telemetry snapshot of any rank names the same dead edge and shows
    // the daemon preempting the stuck collective rather than busy-hanging.
    let snap = ranks[0].telemetry();
    assert!(
        snap.dead_edges().any(|s| s.edge == victim),
        "telemetry must show the dead edge:\n{snap}"
    );
    assert!(snap.counters.preemptions > 0, "stuck work must preempt");
    assert_eq!(snap.counters.completions, 0);

    // Heal, drain, verify bit-exactness end to end.
    injector.clear();
    for h in &handles {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(120)),
            "healed inter-node edge must let the all-reduce finish"
        );
    }
    let expected: Vec<f32> = (0..count)
        .map(|i| (0..devices.len()).map(|r| inputs[r][i]).sum())
        .collect();
    for (r, recv) in recvs.iter().enumerate() {
        assert_eq!(recv.to_f32_vec(), expected, "rank {r} result after healing");
    }
    let snap = ranks[0].telemetry();
    assert_eq!(
        snap.counters.completions, 1,
        "telemetry sees the completion"
    );
    for rank in ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}

/// The acceptance scenario, phase B: a 100× slowdown on the same inter-node
/// edge completes with zero watchdog false positives — the supervisor must
/// return `AllCompleted`, never a stall report.
#[test]
fn slow_inter_node_edge_completes_with_zero_watchdog_false_positives() {
    let devices = vec![GpuId(0), GpuId(1), GpuId(8), GpuId(9)];
    let domain = DfcclDomain::new(
        Topology::two_servers(),
        LinkModel::table2_testbed(),
        GpuSpec::rtx_3090(),
        fault_config(),
    );
    let count = 64;
    let ranks: Vec<RankCtx> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    for rank in &ranks {
        rank.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    let victim = domain
        .edge_samples()
        .iter()
        .find(|s| s.link == LinkClass::InterNode)
        .expect("inter-node edge present")
        .edge;
    domain
        .fault_injector()
        .script(victim, FaultSpec::slowdown(100.0));

    let inputs: Vec<Vec<f32>> = (0..devices.len())
        .map(|r| (0..count).map(|i| ((r * 13 + i * 3) % 89) as f32).collect())
        .collect();
    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let recv = DeviceBuffer::zeroed(count * 4);
        recvs.push(recv.clone());
        handles.push(
            rank.run_awaitable(1, DeviceBuffer::from_f32(&inputs[r]), recv)
                .unwrap(),
        );
    }

    // 100× on a 4.5 µs-latency link is ~0.5 ms per chunk. A slow link
    // refuses nothing and every member holds the round, so any verdict is a
    // false positive and fails the test.
    let done = || {
        handles
            .iter()
            .all(|h| h.wait_for_timeout(1, Duration::ZERO))
    };
    let rank_refs: Vec<&RankCtx> = ranks.iter().collect();
    let outcome = watch_for_stall(&rank_refs, &done);
    assert_eq!(
        outcome, None,
        "a slow-but-progressing edge must never be reported as a stall"
    );
    let expected: Vec<f32> = (0..count)
        .map(|i| (0..devices.len()).map(|r| inputs[r][i]).sum())
        .collect();
    for (r, recv) in recvs.iter().enumerate() {
        assert_eq!(recv.to_f32_vec(), expected, "rank {r} under 100× slowdown");
    }
    for (r, rank) in ranks.iter().enumerate() {
        let snap = rank.telemetry();
        assert_eq!(snap.counters.completions, 1, "rank {r}");
        assert_eq!(snap.counters.failures, 0, "rank {r}");
    }
    for rank in ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}

/// A flaky edge (intermittent drops) never corrupts data: every dropped send
/// is retried until it lands, so the result stays bit-exact.
#[test]
fn flaky_edge_retries_to_a_bit_exact_result() {
    for seed in 0..fault_seeds().max(2) {
        let domain = DfcclDomain::new(
            Topology::flat(4),
            mild_links(),
            GpuSpec::rtx_3090(),
            fault_config(),
        );
        let devices: Vec<GpuId> = (0..4).map(GpuId).collect();
        let count = 64;
        let ranks: Vec<RankCtx> = devices
            .iter()
            .map(|&g| domain.init_rank(g).unwrap())
            .collect();
        let desc =
            CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices.clone())
                .with_channels(2);
        for rank in &ranks {
            rank.register(1, desc.clone()).unwrap();
        }
        let injector = domain.fault_injector();
        injector.set_seed(seed);
        // Every edge of the collective drops 30% of send attempts.
        for s in domain.edge_samples() {
            injector.script(s.edge, FaultSpec::flaky(0.3));
        }
        let inputs: Vec<Vec<f32>> = (0..4)
            .map(|r| {
                (0..count)
                    .map(|i| ((seed as usize + r * 11 + i) % 127) as f32)
                    .collect()
            })
            .collect();
        let mut handles = Vec::new();
        let mut recvs = Vec::new();
        for (r, rank) in ranks.iter().enumerate() {
            let recv = DeviceBuffer::zeroed(count * 4);
            recvs.push(recv.clone());
            handles.push(
                rank.run_awaitable(1, DeviceBuffer::from_f32(&inputs[r]), recv)
                    .unwrap(),
            );
        }
        for h in &handles {
            assert!(
                h.wait_for_timeout(1, Duration::from_secs(60)),
                "seed {seed}: flaky edges wedged the collective"
            );
        }
        let expected: Vec<f32> = (0..count)
            .map(|i| (0..4).map(|r| inputs[r][i]).sum())
            .collect();
        for (r, recv) in recvs.iter().enumerate() {
            assert_eq!(
                recv.to_f32_vec(),
                expected,
                "seed {seed}: rank {r} corrupted by flaky drops"
            );
        }
        // The drops actually happened (the fault path was exercised).
        let rejections: u64 = domain
            .edge_samples()
            .iter()
            .map(|s| s.stats.fault_rejections)
            .sum();
        assert!(rejections > 0, "seed {seed}: no drop was ever injected");
        for rank in ranks {
            assert!(rank.collective_errors().is_empty());
            rank.destroy();
        }
    }
}

/// A tight retry policy for recovery tests: a few attempts.
fn test_recovery() -> RecoveryCoordinator {
    RecoveryCoordinator::new(RetryPolicy::default().with_max_attempts(4))
}

/// One auto-recovery sweep case: register the collective, kill a seeded edge
/// of its communicator after the first chunk — and never heal it. The
/// [`RecoveryCoordinator`] must detect the stall, quarantine the edge,
/// reroute around it, roll the stalled invocations back and resubmit them,
/// and the final result must match a fault-free run bit for bit.
fn recovery_round(
    family: AlgorithmKind,
    topology: Topology,
    devices: Vec<GpuId>,
    channels: usize,
    seed: u64,
) {
    let n = devices.len();
    let domain = DfcclDomain::new(topology, mild_links(), GpuSpec::rtx_3090(), fault_config());
    let count = 16 * n;
    let desc = if family == AlgorithmKind::Pairwise {
        CollectiveDescriptor::all_to_all(count / n, DataType::F32, devices.clone())
    } else {
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices.clone())
    }
    .with_algorithm(family)
    .with_channels(channels);

    let ranks: Vec<RankCtx> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    for rank in &ranks {
        rank.register(1, desc.clone()).unwrap();
    }
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| {
            (0..count)
                .map(|i| ((seed as usize + r * 37 + i * 5) % 199) as f32)
                .collect()
        })
        .collect();

    // Warm-up round: a fault-free invocation reveals which edges the plan
    // actually routes chunks over (a mesh edge can stay idle for a given
    // chunk/channel split) and how many chunks each carries per round.
    let warm: Vec<_> = ranks
        .iter()
        .enumerate()
        .map(|(r, rank)| {
            rank.run_awaitable(
                1,
                DeviceBuffer::from_f32(&inputs[r]),
                DeviceBuffer::zeroed(count * 4),
            )
            .unwrap()
        })
        .collect();
    for h in &warm {
        assert!(h.wait_for_timeout(1, Duration::from_secs(60)));
    }
    let busy: Vec<_> = domain
        .edge_samples()
        .into_iter()
        .filter(|s| s.stats.chunks_sent > 0)
        .collect();
    assert!(!busy.is_empty(), "{family} n={n} K={channels}: no traffic");
    let sample =
        &busy[(splitmix(seed ^ (n as u64) << 8 ^ (channels as u64) << 16) as usize) % busy.len()];
    let victim = sample.edge;
    // An edge carrying several chunks per round is killed mid-round-two
    // (one more chunk crosses, then it dies); one carrying a single chunk
    // is dead for the whole second round.
    let spec = if sample.stats.chunks_sent > 1 {
        FaultSpec::dead().after_chunks(sample.stats.chunks_sent + 1)
    } else {
        FaultSpec::dead()
    };
    domain.fault_injector().script(victim, spec);

    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let send = DeviceBuffer::from_f32(&inputs[r]);
        let recv = DeviceBuffer::zeroed(count * 4);
        recvs.push(recv.clone());
        handles.push(rank.run_awaitable(1, send, recv).unwrap());
    }

    let done = || {
        handles
            .iter()
            .all(|h| h.wait_for_timeout(1, Duration::ZERO))
    };
    let rank_refs: Vec<&RankCtx> = ranks.iter().collect();
    let recoveries = test_recovery()
        .supervise(&rank_refs, &done)
        .unwrap_or_else(|e| {
            panic!("{family} n={n} K={channels} seed={seed}: recovery failed: {e}")
        });
    assert!(
        recoveries >= 1,
        "{family} n={n} K={channels} seed={seed}: dead edge {victim} must trigger recovery"
    );
    assert!(
        domain.link_health().dead_edges().contains(&victim),
        "{family} n={n} K={channels} seed={seed}: {victim} must stay quarantined"
    );

    for (r, recv) in recvs.iter().enumerate() {
        let expected: Vec<f32> = if family == AlgorithmKind::Pairwise {
            let per = count / n;
            (0..n)
                .flat_map(|src| inputs[src][r * per..(r + 1) * per].to_vec())
                .collect()
        } else {
            (0..count)
                .map(|i| (0..n).map(|src| inputs[src][i]).sum())
                .collect()
        };
        assert_eq!(
            recv.to_f32_vec(),
            expected,
            "{family} n={n} K={channels} seed={seed}: rank {r} corrupted by recovery from {victim}"
        );
    }
    for rank in &ranks {
        let snap = rank.telemetry();
        assert!(snap.counters.recoveries_attempted >= 1, "{snap}");
        assert!(snap.counters.recoveries_succeeded >= 1, "{snap}");
    }
    for rank in ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}

#[test]
fn kill_edge_auto_recovers_bit_exact_for_ring_and_tree() {
    for family in [AlgorithmKind::Ring, AlgorithmKind::DoubleBinaryTree] {
        for n in 2..=8usize {
            for channels in 1..=3usize {
                for seed in 0..fault_seeds() {
                    let devices: Vec<GpuId> = (0..n).map(GpuId).collect();
                    recovery_round(family, Topology::flat(n), devices, channels, seed);
                }
            }
        }
    }
}

#[test]
fn kill_edge_auto_recovers_bit_exact_for_pairwise() {
    for n in 2..=8usize {
        for channels in 1..=3usize {
            for seed in 0..fault_seeds() {
                let devices: Vec<GpuId> = (0..n).map(GpuId).collect();
                recovery_round(
                    AlgorithmKind::Pairwise,
                    Topology::flat(n),
                    devices,
                    channels,
                    seed,
                );
            }
        }
    }
}

#[test]
fn kill_edge_auto_recovers_bit_exact_for_hierarchical() {
    for n in [4usize, 6, 8] {
        for channels in 1..=3usize {
            for seed in 0..fault_seeds() {
                let devices: Vec<GpuId> = (0..n).map(GpuId).collect();
                recovery_round(
                    AlgorithmKind::Hierarchical,
                    Topology::uniform_cluster(2, n / 2),
                    devices,
                    channels,
                    seed,
                );
            }
        }
    }
}

/// The ISSUE acceptance scenario, self-healing edition: a dead inter-node
/// edge on a two-server cluster is **never healed**. The coordinator's
/// supervise loop must quarantine it, reroute around it, and finish the
/// collective bit-exact against the fault-free oracle — and a collective
/// registered afterwards must be wired without the quarantined edge.
#[test]
fn dead_inter_node_edge_auto_recovers_without_manual_heal() {
    let devices = vec![GpuId(0), GpuId(1), GpuId(8), GpuId(9)];
    let domain = DfcclDomain::new(
        Topology::two_servers(),
        LinkModel::table2_testbed(),
        GpuSpec::rtx_3090(),
        fault_config(),
    );
    let count = 64;
    let ranks: Vec<RankCtx> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    for rank in &ranks {
        rank.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    let victim = domain
        .edge_samples()
        .iter()
        .find(|s| s.link == LinkClass::InterNode)
        .expect("a 2×2-rank collective over two servers crosses the fabric")
        .edge;
    // Killed mid-flight, never cleared: recovery is the only way out.
    domain
        .fault_injector()
        .script(victim, FaultSpec::dead().after_chunks(1));

    let inputs: Vec<Vec<f32>> = (0..devices.len())
        .map(|r| (0..count).map(|i| ((r * 31 + i * 7) % 97) as f32).collect())
        .collect();
    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let recv = DeviceBuffer::zeroed(count * 4);
        recvs.push(recv.clone());
        handles.push(
            rank.run_awaitable(1, DeviceBuffer::from_f32(&inputs[r]), recv)
                .unwrap(),
        );
    }
    let done = || {
        handles
            .iter()
            .all(|h| h.wait_for_timeout(1, Duration::ZERO))
    };
    let rank_refs: Vec<&RankCtx> = ranks.iter().collect();
    let recoveries = test_recovery()
        .supervise(&rank_refs, &done)
        .expect("supervised run must recover, not exhaust");
    assert!(
        recoveries >= 1,
        "the dead fabric edge must force a recovery"
    );

    let expected: Vec<f32> = (0..count)
        .map(|i| (0..devices.len()).map(|r| inputs[r][i]).sum())
        .collect();
    for (r, recv) in recvs.iter().enumerate() {
        assert_eq!(
            recv.to_f32_vec(),
            expected,
            "rank {r} after automatic recovery"
        );
    }
    assert!(
        domain.link_health().dead_edges().contains(&victim),
        "the failed edge must stay quarantined"
    );
    for rank in &ranks {
        let snap = rank.telemetry();
        assert!(snap.counters.recoveries_attempted >= 1, "{snap}");
        assert!(snap.counters.recoveries_succeeded >= 1, "{snap}");
    }

    // The quarantine outlives the incident: a collective registered *after*
    // the failure must be wired without the dead edge.
    for rank in &ranks {
        rank.register_all_reduce(2, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    assert!(
        !domain
            .edge_samples()
            .iter()
            .any(|s| s.coll_id == Some(2) && s.edge == victim),
        "a post-failure collective must not be wired over the quarantined edge"
    );
    let mut handles2 = Vec::new();
    let mut recvs2 = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let recv = DeviceBuffer::zeroed(count * 4);
        recvs2.push(recv.clone());
        handles2.push(
            rank.run_awaitable(2, DeviceBuffer::from_f32(&inputs[r]), recv)
                .unwrap(),
        );
    }
    for h in &handles2 {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(60)),
            "the rerouted collective must complete without recovery"
        );
    }
    for (r, recv) in recvs2.iter().enumerate() {
        assert_eq!(recv.to_f32_vec(), expected, "rank {r} on the rerouted mesh");
    }
    for rank in ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}

/// Selection never reads link health, so members that register on either
/// side of a quarantine still resolve one family. Rank `first` registers a
/// 4 MiB all-reduce on a healthy `flat(4)` (the cost model picks the ring);
/// then the ring edge 1→2 is quarantined, its label killed outright, and the
/// other ranks register. A selector that re-ran its argmin under the health
/// map would hand them a family that avoids 1→2 while `first` keeps the
/// ring, and the invocation would wedge. Instead every rank runs the ring
/// and the invocation completes bit-exact at connector capacity 1 under a
/// [`RecoveryCoordinator`]. Returns the recoveries it took and whether a
/// connector sat on the dead label after registration.
fn register_across_a_quarantine(first: usize) -> (u32, bool) {
    let n = 4;
    let devices: Vec<GpuId> = (0..n).map(GpuId).collect();
    let config = DfcclConfig {
        chunk_elems: 4096,
        ..fault_config()
    };
    let domain = DfcclDomain::new(Topology::flat(n), mild_links(), GpuSpec::rtx_3090(), config);
    let count = 1 << 20; // 4 MiB of f32
    let desc =
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices.clone());
    let ranks: Vec<RankCtx> = devices
        .iter()
        .map(|&g| domain.init_rank(g).unwrap())
        .collect();
    ranks[first].register(1, desc.clone()).unwrap();
    let dead = EdgeId {
        src: GpuId(1),
        dst: GpuId(2),
        channel: ChannelId(0),
    };
    assert!(domain.link_health().quarantine(dead));
    domain.fault_injector().script(dead, FaultSpec::dead());
    for (r, rank) in ranks.iter().enumerate() {
        if r != first {
            rank.register(1, desc.clone()).unwrap();
        }
    }
    let families: Vec<_> = ranks.iter().map(|r| r.algorithm_of(1)).collect();
    assert!(
        families.iter().all(|f| *f == families[0]),
        "members registered across a quarantine disagree on the family: {families:?}"
    );
    assert_eq!(families[0], Some(AlgorithmKind::Ring));
    let on_dead_label = || {
        domain
            .edge_samples()
            .iter()
            .any(|s| s.coll_id == Some(1) && s.edge == dead)
    };
    let wired_dead = on_dead_label();

    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| (0..count).map(|i| ((r * 31 + i * 7) % 97) as f32).collect())
        .collect();
    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let recv = DeviceBuffer::zeroed(count * 4);
        recvs.push(recv.clone());
        handles.push(
            rank.run_awaitable(1, DeviceBuffer::from_f32(&inputs[r]), recv)
                .unwrap(),
        );
    }
    let done = || {
        handles
            .iter()
            .all(|h| h.wait_for_timeout(1, Duration::ZERO))
    };
    let rank_refs: Vec<&RankCtx> = ranks.iter().collect();
    let recoveries = test_recovery()
        .supervise(&rank_refs, &done)
        .unwrap_or_else(|e| panic!("rank {first} first: recovery failed: {e}"));
    assert!(
        !on_dead_label(),
        "rank {first} first: a connector still sits on the quarantined label"
    );
    let expected: Vec<f32> = (0..count)
        .map(|i| (0..n).map(|r| inputs[r][i]).sum())
        .collect();
    for (r, recv) in recvs.iter().enumerate() {
        assert_eq!(recv.to_f32_vec(), expected, "rank {first} first: rank {r}");
    }
    for rank in ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
    (recoveries, wired_dead)
}

/// Rank 0 never wires 1→2, so every connector on it is wired after the
/// quarantine: the mesh puts it on a spare lane and no recovery is needed.
#[test]
fn members_registering_across_a_quarantine_run_one_family() {
    let (recoveries, wired_dead) = register_across_a_quarantine(0);
    assert!(
        !wired_dead,
        "no connector may be wired on the quarantined label"
    );
    assert_eq!(
        recoveries, 0,
        "the rerouted ring must complete without recovery"
    );
}

/// Rank 1, the sender on 1→2, registers first and wires it on the label
/// that later dies. The reroute only reaches connectors wired (or purged and
/// rebound) after the quarantine, so this one stalls until recovery purges
/// it and rebinds every member's ring onto the spare lane.
#[test]
fn a_member_wired_before_the_quarantine_recovers_onto_the_reroute() {
    let (recoveries, wired_dead) = register_across_a_quarantine(1);
    assert!(wired_dead, "rank 1 wired 1→2 before the quarantine");
    assert!(recoveries >= 1, "the dead label must trigger recovery");
}

/// Recovery in the middle of a preemption storm: four collectives over
/// overlapping device groups at connector capacity 1 and a tiny spin
/// threshold, the dense all-reduce invoked twice, and a dead edge injected
/// under all of it. Everything — stalled and innocent alike — must drain
/// bit-exact through the automatic recovery.
#[test]
fn recovery_survives_a_preemption_storm() {
    for seed in 0..fault_seeds() {
        let domain = DfcclDomain::new(
            Topology::flat(4),
            mild_links(),
            GpuSpec::rtx_3090(),
            fault_config(),
        );
        let devices: Vec<GpuId> = (0..4).map(GpuId).collect();
        let a2a_per = 24usize;
        let ar_count = 96usize;
        let pair_count = 64usize;
        let mix: Vec<(u64, CollectiveDescriptor)> = vec![
            (
                1,
                CollectiveDescriptor::all_to_all(a2a_per, DataType::F32, devices.clone()),
            ),
            (
                2,
                CollectiveDescriptor::all_reduce(
                    ar_count,
                    DataType::F32,
                    ReduceOp::Sum,
                    devices.clone(),
                ),
            ),
            (
                3,
                CollectiveDescriptor::all_reduce(
                    pair_count,
                    DataType::F32,
                    ReduceOp::Sum,
                    vec![GpuId(0), GpuId(1)],
                ),
            ),
            (
                4,
                CollectiveDescriptor::all_reduce(
                    pair_count,
                    DataType::F32,
                    ReduceOp::Sum,
                    vec![GpuId(2), GpuId(3)],
                ),
            ),
        ];
        let ranks: Vec<RankCtx> = devices
            .iter()
            .map(|&g| domain.init_rank(g).unwrap())
            .collect();
        for rank in &ranks {
            for (id, desc) in &mix {
                if desc.devices.contains(&rank.gpu()) {
                    rank.register(*id, desc.clone()).unwrap();
                }
            }
        }
        // Kill a seeded edge of the dense all-reduce mid-storm.
        let ar_edges: Vec<_> = domain
            .edge_samples()
            .into_iter()
            .filter(|s| s.coll_id == Some(2))
            .collect();
        let victim = ar_edges[(splitmix(seed ^ 0xdead) as usize) % ar_edges.len()].edge;
        domain
            .fault_injector()
            .script(victim, FaultSpec::dead().after_chunks(2));

        // Integer-valued inputs per (collective, invocation, rank).
        let input = |coll: u64, invocation: usize, r: usize, len: usize| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    ((seed as usize + coll as usize * 53 + invocation * 17 + r * 37 + i * 5) % 199)
                        as f32
                })
                .collect()
        };
        // Each rank submits its collectives in a rotated order, so the storm
        // arrives disordered. Invocations of the *same* collective must keep
        // a consistent per-rank issue order (they gang-match by issue
        // index), so the dense all-reduce's two invocations stay adjacent.
        let mut handles = Vec::new();
        let mut checks: Vec<(usize, Vec<f32>, DeviceBuffer)> = Vec::new();
        for (r, rank) in ranks.iter().enumerate() {
            let mut coll_order: Vec<u64> = vec![1, 2, if r < 2 { 3 } else { 4 }];
            let rot = r % coll_order.len();
            coll_order.rotate_left(rot);
            let order: Vec<(u64, usize)> = coll_order
                .into_iter()
                .flat_map(|id| {
                    if id == 2 {
                        vec![(2, 0), (2, 1)]
                    } else {
                        vec![(id, 0)]
                    }
                })
                .collect();
            for (id, invocation) in order {
                let desc = &mix.iter().find(|(i, _)| *i == id).unwrap().1;
                let rank_idx = desc.devices.iter().position(|&d| d == rank.gpu()).unwrap();
                let send_len = desc.send_bytes(rank_idx) / 4;
                let send = input(id, invocation, r, send_len);
                let recv = DeviceBuffer::zeroed(desc.recv_bytes(rank_idx));
                let expected: Vec<f32> = match id {
                    1 => (0..4)
                        .flat_map(|src| {
                            input(1, invocation, src, 4 * a2a_per)[r * a2a_per..(r + 1) * a2a_per]
                                .to_vec()
                        })
                        .collect(),
                    2 => (0..ar_count)
                        .map(|i| {
                            (0..4)
                                .map(|src| input(2, invocation, src, ar_count)[i])
                                .sum()
                        })
                        .collect(),
                    _ => {
                        let group = if id == 3 { [0usize, 1] } else { [2, 3] };
                        (0..pair_count)
                            .map(|i| {
                                group
                                    .iter()
                                    .map(|&src| input(id, invocation, src, pair_count)[i])
                                    .sum()
                            })
                            .collect()
                    }
                };
                checks.push((r, expected, recv.clone()));
                handles.push(
                    rank.run_awaitable(id, DeviceBuffer::from_f32(&send), recv)
                        .unwrap(),
                );
            }
        }

        let done = || {
            handles
                .iter()
                .all(|h| h.wait_for_timeout(1, Duration::ZERO))
        };
        let rank_refs: Vec<&RankCtx> = ranks.iter().collect();
        let recoveries = test_recovery()
            .supervise(&rank_refs, &done)
            .unwrap_or_else(|e| panic!("seed {seed}: storm recovery failed: {e}"));
        assert!(recoveries >= 1, "seed {seed}: {victim} must force recovery");
        assert!(domain.link_health().dead_edges().contains(&victim));
        for (r, expected, recv) in &checks {
            assert_eq!(
                &recv.to_f32_vec(),
                expected,
                "seed {seed}: rank {r} corrupted in the storm"
            );
        }
        for rank in ranks {
            assert!(rank.collective_errors().is_empty(), "seed {seed}");
            rank.destroy();
        }
    }
}
