//! Whole worlds on one thread: the test holds the domain's carriers
//! (`World::hold`) and steps each rank's seat — the production step: poller
//! drain and callbacks, a daemon launch, one engine step — in an order
//! picked from the seed. No carrier thread runs and nothing reads a clock,
//! so the schedule, and the step count printed, are functions of the seed.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dfccl_collectives::{
    AlgorithmKind, CollectiveDescriptor, CollectiveKind, DataType, DeviceBuffer, ReduceOp,
};
use dfccl_transport::{FaultSpec, LinkModel, StallKind, StallReport, Topology};
use gpu_sim::{
    FnKernel, GpuId, GpuSpec, Kernel, KernelCtx, KernelHandle, KernelOutcome, KernelPoll,
    KernelStatus, StreamId,
};
use parking_lot::Mutex;

use super::tests::resident;
use super::world::{HeldWorld, Wish};
use crate::api::{DfcclDomain, DfcclError, RankCtx};
use crate::config::{CqVariant, DfcclConfig, HostMemCosts, SpinPolicy};
use crate::recovery::{detect_stall, RecoveryCoordinator, RecoveryOutcome, RetryPolicy};
use crate::telemetry::TelemetryEventKind;
use crate::tenant::TenantQuota;

/// SplitMix64: the test's only source of disorder.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }

    /// Small integers: sums stay exact in f32 whatever the reduction order.
    fn small_f32s(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| (self.next() % 17) as f32 - 8.0).collect()
    }
}

fn gpus(ranks: &[usize]) -> Vec<GpuId> {
    ranks.iter().copied().map(GpuId).collect()
}

/// Host oracle: every member's expected recv buffer.
fn oracle(desc: &CollectiveDescriptor, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let (n, count) = (desc.num_ranks(), desc.count);
    match desc.kind {
        CollectiveKind::AllReduce => {
            let mut sum = vec![0.0f32; count];
            for input in inputs {
                sum.iter_mut().zip(input).for_each(|(s, v)| *s += v);
            }
            vec![sum; n]
        }
        CollectiveKind::AllToAll => (0..n)
            .map(|r| {
                (0..n)
                    .flat_map(|p| inputs[p][r * count..(r + 1) * count].iter().copied())
                    .collect()
            })
            .collect(),
        CollectiveKind::AllGather => vec![inputs.concat(); n],
        CollectiveKind::Broadcast => vec![inputs[desc.root.expect("rooted")].clone(); n],
        kind => unreachable!("the mix has no {kind}"),
    }
}

/// GPUs `0..n` of `domain` as ranks. Hold the world first; declared after
/// it, the ranks are dropped first on a failing assert, and their `destroy`
/// only asks while the test thread is still the carrier.
fn init_ranks(domain: &Arc<DfcclDomain>, n: usize) -> Vec<RankCtx> {
    (0..n)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect()
}

/// Step the seat of the rank `pick(step)` names (none: the step is skipped)
/// until `done(step)`, at most `budget` steps. On exhaustion, panic with
/// every seat's last `Wish` — with the seed, the replayable diagnosis —
/// instead of hanging.
fn step_until(
    world: &mut HeldWorld,
    ranks: &[RankCtx],
    budget: usize,
    what: &str,
    mut pick: impl FnMut(usize) -> Option<usize>,
    mut done: impl FnMut(usize) -> bool,
) -> usize {
    let mut last = vec![None::<Wish>; ranks.len()];
    for step in 0..budget {
        if done(step) {
            return step;
        }
        if let Some(r) = pick(step) {
            last[r] = world.step(GpuId(r));
        }
    }
    let owed: Vec<u64> = ranks.iter().map(RankCtx::outstanding).collect();
    panic!("{what}: not drained after {budget} steps; last wish per seat {last:?}, outstanding per rank {owed:?}");
}

/// Preempt the open slice of every rank's running daemon kernel, as its spin
/// threshold would, so a recovery pass finds every context in the store.
fn close_open_slices(world: &mut HeldWorld, ranks: usize) {
    for r in 0..ranks {
        world.with_core(GpuId(r), |core| {
            if core.slice.is_some() {
                core.preempt_slice();
            }
        });
    }
}

/// Destroy every rank (on the test's carrier thread that only asks), then
/// step the seats until each rank has drained what it owes and left.
fn tear_down(world: &mut HeldWorld, ranks: &[RankCtx], what: &str) {
    for rank in ranks {
        rank.destroy();
    }
    let n = ranks.len();
    step_until(
        world,
        ranks,
        10_000,
        what,
        |step| Some(step % n),
        |_| {
            ranks
                .iter()
                .all(|r| r.shared_state().left.load(Ordering::Acquire))
        },
    );
}

/// The benchmark's `disorder_step` shape: eight collectives over overlapping
/// groups of four ranks, including an all-to-all.
fn disorder_mix(n: usize) -> Vec<(u64, CollectiveDescriptor)> {
    let ar = |ranks: &[usize]| {
        CollectiveDescriptor::all_reduce(n, DataType::F32, ReduceOp::Sum, gpus(ranks))
    };
    vec![
        (
            1,
            CollectiveDescriptor::all_to_all(n / 4, DataType::F32, gpus(&[0, 1, 2, 3])),
        ),
        (2, ar(&[0, 1, 2, 3])),
        (3, ar(&[0, 1])),
        (4, ar(&[2, 3])),
        (5, ar(&[1, 2])),
        (6, ar(&[0, 3])),
        (
            7,
            CollectiveDescriptor::all_gather(n, DataType::F32, gpus(&[0, 2])),
        ),
        (
            8,
            CollectiveDescriptor::broadcast(n, DataType::F32, 0, gpus(&[1, 3])),
        ),
    ]
}

/// Four ranks, the disorder mix, each rank submitting in its own seeded
/// order, all four seats stepped from this thread. `skip` never steps one
/// rank (the mutation check: the run must fail, not hang).
fn run_disorder_world(seed: u64, skip: Option<usize>) {
    const RANKS: usize = 4;
    const ROUNDS: usize = 3;
    let config = DfcclConfig {
        chunk_elems: 32,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 3 },
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(RANKS),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let mut world = domain.world().hold();
    let ranks = init_ranks(&domain, RANKS);
    let mix = disorder_mix(256);
    for (id, desc) in &mix {
        for gpu in &desc.devices {
            ranks[gpu.0].register(*id, desc.clone()).unwrap();
        }
    }

    let mut rng = Rng(seed);
    let per_rank: Vec<usize> = (0..RANKS)
        .map(|r| {
            mix.iter()
                .filter(|(_, d)| d.devices.contains(&GpuId(r)))
                .count()
                * ROUNDS
        })
        .collect();
    let fired: Arc<Vec<AtomicUsize>> = Arc::new((0..RANKS).map(|_| AtomicUsize::new(0)).collect());
    // `cqes_written` as read from inside each rank's last callback.
    let cqes_at_last: Arc<Vec<AtomicU64>> =
        Arc::new((0..RANKS).map(|_| AtomicU64::new(u64::MAX)).collect());
    let mut checks = Vec::new();
    for _round in 0..ROUNDS {
        let inputs: Vec<Vec<Vec<f32>>> = mix
            .iter()
            .map(|(_, d)| {
                (0..d.num_ranks())
                    .map(|m| rng.small_f32s(d.send_elems(m)))
                    .collect()
            })
            .collect();
        for (r, rank) in ranks.iter().enumerate() {
            let mut mine: Vec<usize> = (0..mix.len())
                .filter(|&c| mix[c].1.devices.contains(&GpuId(r)))
                .collect();
            rng.shuffle(&mut mine);
            for c in mine {
                let (id, desc) = &mix[c];
                let member = desc.devices.iter().position(|g| g.0 == r).unwrap();
                let recv = DeviceBuffer::zeroed(desc.recv_bytes(member));
                let (fired, cqes_at_last) = (Arc::clone(&fired), Arc::clone(&cqes_at_last));
                let ledger = Arc::clone(&rank.shared_state().telemetry);
                let total = per_rank[r];
                rank.run(
                    *id,
                    DeviceBuffer::from_f32(&inputs[c][member]),
                    recv.clone(),
                    Box::new(move || {
                        if fired[r].fetch_add(1, Ordering::AcqRel) + 1 == total {
                            let cqes = ledger.daemon_stats().cqes_written;
                            cqes_at_last[r].store(cqes, Ordering::Release);
                        }
                    }),
                )
                .unwrap();
                checks.push((c, member, recv, oracle(desc, &inputs[c])[member].clone()));
            }
        }
    }

    let what = format!("disorder world, seed {seed}");
    let start = (seed % RANKS as u64) as usize;
    let round_robin = |step: usize| Some((start + step) % RANKS).filter(|&r| Some(r) != skip);
    // The callbacks run on this thread, in the seat steps that drain them.
    let steps = step_until(&mut world, &ranks, 100_000, &what, round_robin, |_| {
        (0..RANKS).all(|r| fired[r].load(Ordering::Acquire) == per_rank[r])
    });

    for (c, member, recv, expected) in &checks {
        assert_eq!(
            &recv.to_f32_vec(),
            expected,
            "{what}: collective {} member {member}",
            mix[*c].0
        );
    }
    let mut preemptions = 0;
    for (r, rank) in ranks.iter().enumerate() {
        assert!(rank.collective_errors().is_empty(), "{what}: rank {r}");
        assert_eq!(
            cqes_at_last[r].load(Ordering::Acquire),
            per_rank[r] as u64,
            "{what}: rank {r}'s last callback must already see every CQE counted"
        );
        let counters = rank.telemetry().counters;
        assert_eq!(
            counters.preemptions, counters.resumes,
            "{what}: rank {r} left a Preempt without its Resume"
        );
        // One ledger: every view of a fact reads the same count, and every
        // submission completed exactly once.
        let stats = rank.stats();
        let tenants = rank.tenant_stats();
        let per_coll = rank.per_collective_stats();
        let facts = [
            (counters.submits, stats.sqes_fetched, "submits vs fetches"),
            (counters.submits, stats.cqes_written, "submits vs CQEs"),
            (
                counters.preemptions,
                tenants.iter().map(|t| t.preempted).sum(),
                "rank vs tenant preemptions",
            ),
            (
                stats.preemptions,
                per_coll.values().map(|c| c.preemptions).sum(),
                "rank vs per-collective preemptions",
            ),
            (
                stats.collectives_completed,
                tenants.iter().map(|t| t.completed).sum(),
                "rank vs tenant completions",
            ),
            (
                stats.collectives_completed,
                per_rank[r] as u64,
                "CQEs vs invocations",
            ),
        ];
        for (a, b, fact) in facts {
            assert_eq!(a, b, "{what}: rank {r}: {fact}");
        }
        preemptions += stats.preemptions;
    }
    assert!(preemptions > 0, "{what}: the threshold must bind");
    eprintln!("{what}: drained in {steps} steps, {preemptions} preemptions");
    tear_down(&mut world, &ranks, &what);
}

#[test]
fn four_cores_one_thread_drain_a_disorder_mix() {
    for seed in [1, 2, 3, 5, 8, 13] {
        run_disorder_world(seed, None);
    }
}

/// The mutation check of the test above: with rank 3 never stepped the world
/// cannot drain, and the run must say so rather than hang.
#[test]
#[should_panic(expected = "not drained after")]
fn a_skipped_core_fails_the_budget_instead_of_hanging() {
    run_disorder_world(1, Some(3));
}

/// Recovery's ghost replay must not write into the caller's buffer. The
/// chaos suite's failing world — a 4-rank tree all-reduce striped over 3
/// channels — stepped round-robin until the first rank completes; its
/// callback fires and its idle core quits, the others stall (a dead edge, in
/// the chaos suite), and a recovery pass rolls them back and has the
/// completed rank ghost-replay the round. A tree rank accumulates partial
/// sums in its recv buffer, so a ghost replaying into the caller's buffer
/// shows them to a caller whose CQE already fired. The ghost owes no CQE:
/// only the pending context makes the completed rank's seat launch a daemon.
#[test]
fn a_ghost_replay_never_writes_the_completed_ranks_buffer() {
    const RANKS: usize = 4;
    const COUNT: usize = 64;
    let config = DfcclConfig {
        chunk_elems: 4,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 3 },
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(RANKS),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let mut world = domain.world().hold();
    let ranks = init_ranks(&domain, RANKS);
    let desc =
        CollectiveDescriptor::all_reduce(COUNT, DataType::F32, ReduceOp::Sum, gpus(&[0, 1, 2, 3]))
            .with_algorithm(AlgorithmKind::DoubleBinaryTree)
            .with_channels(3);
    for rank in &ranks {
        rank.register(1, desc.clone()).unwrap();
    }

    let mut rng = Rng(7);
    let inputs: Vec<Vec<f32>> = (0..RANKS).map(|_| rng.small_f32s(COUNT)).collect();
    let expected = oracle(&desc, &inputs).remove(0);
    let recvs: Vec<DeviceBuffer> = (0..RANKS)
        .map(|_| DeviceBuffer::zeroed(COUNT * 4))
        .collect();
    // What each rank's callback saw in its recv buffer.
    let seen: Arc<Vec<Mutex<Option<Vec<u8>>>>> =
        Arc::new((0..RANKS).map(|_| Mutex::new(None)).collect());
    for (r, rank) in ranks.iter().enumerate() {
        let (seen, recv) = (Arc::clone(&seen), recvs[r].clone());
        rank.run(
            1,
            DeviceBuffer::from_f32(&inputs[r]),
            recvs[r].clone(),
            Box::new(move || *seen[r].lock() = Some(recv.to_vec())),
        )
        .unwrap();
    }
    let completed = |r: usize| {
        let rounds = ranks[r].shared_state().contexts.rounds();
        rounds.get(&1).map_or(0, |x| x.completed)
    };
    let round_robin = |step: usize| Some(step % RANKS);
    step_until(
        &mut world,
        &ranks,
        100_000,
        "first completion",
        round_robin,
        |_| (0..RANKS).any(|r| completed(r) == 1),
    );
    let ahead = (0..RANKS).find(|&r| completed(r) == 1).unwrap();
    // Only the completed rank's seat steps: its CQE is published, its
    // callback fires, and its idle core quits.
    let ahead_shared = Arc::clone(ranks[ahead].shared_state());
    step_until(
        &mut world,
        &ranks,
        1_000,
        "the completed rank's callback and quit",
        |_| Some(ahead),
        |_| seen[ahead].lock().is_some() && !resident(&ahead_shared),
    );
    let at_callback = seen[ahead].lock().clone().unwrap();
    assert_eq!(
        DeviceBuffer::from_bytes(at_callback.clone()).to_f32_vec(),
        expected
    );

    // Close the stalled ranks' open slices, so recovery finds every context
    // in the store.
    close_open_slices(&mut world, RANKS);
    let report = StallReport {
        kind: StallKind::Wedge,
        failed_edges: Vec::new(),
        stalled_edges: Vec::new(),
        stalled_collectives: vec![1],
        unfinished: Vec::new(),
        missing: Vec::new(),
    };
    let refs: Vec<&RankCtx> = ranks.iter().collect();
    let outcome = RecoveryCoordinator::new(RetryPolicy::default())
        .recover(&refs, &report)
        .unwrap();
    assert_eq!(outcome.ghost_replays, 1, "only rank {ahead} ran ahead");
    // Look at the ghost through the recovery protocol's own drain/reinstall.
    let contexts = &ranks[ahead].shared_state().contexts;
    let queued = contexts.begin_recovery(1);
    let ghost = queued[0].clone();
    contexts.end_recovery(1, queued);
    assert_eq!(ahead_shared.outstanding(), 0, "the ghost owes no CQE");
    assert!(!resident(&ahead_shared), "no daemon holds the ghost yet");
    let starts = ranks[ahead].stats().daemon_starts;
    let drained = |r: &RankCtx| {
        let shared = r.shared_state();
        shared.outstanding() == 0
            && shared.contexts.total_pending() == 0
            && !shared.contexts.in_slice(1)
    };
    let mut first_change = None;
    step_until(
        &mut world,
        &ranks,
        1_000_000,
        "ghost replay",
        round_robin,
        |step| {
            if first_change.is_none() && recvs[ahead].to_vec() != at_callback {
                first_change = Some(step);
            }
            // The ghost re-runs a round its rank already counts: while it
            // runs, nobody is missing a round.
            let verdict = detect_stall(&refs);
            assert!(verdict.is_none(), "step {step}: {verdict:?}");
            ranks.iter().all(drained) && seen.iter().all(|s| s.lock().is_some())
        },
    );
    assert!(
        ranks[ahead].stats().daemon_starts > starts,
        "rank {ahead}'s seat launched a daemon for the ghost"
    );
    assert!(ghost.silent_replay);
    assert!(
        !ghost.recv.same_allocation(&recvs[ahead]),
        "the ghost replays into the caller's recv buffer"
    );
    assert_eq!(
        first_change, None,
        "rank {ahead}'s buffer changed after its callback (at that step)"
    );
    for (r, recv) in recvs.iter().enumerate() {
        assert_eq!(recv.to_f32_vec(), expected, "rank {r}");
    }
    tear_down(&mut world, &ranks, "ghost replay");
}

/// Each rank's telemetry as `(coll_id, kind)` pairs, oldest first.
type EventTrail = Vec<Vec<(u64, TelemetryEventKind)>>;

/// A four-rank ring all-reduce at connector capacity 1 whose seeded edge
/// dies after `after` chunks, on one thread: the seats step in a seeded
/// order and the stall detector runs after every step. A link failure
/// closes the open slices (recovery owns every context) and is recovered on
/// the spot; the world then steps on until every rank holds the oracle's
/// sum. Returns each rank's event trail and the recoveries.
fn run_recovery_world(seed: u64, after: u64) -> (EventTrail, Vec<RecoveryOutcome>) {
    const RANKS: usize = 4;
    const COUNT: usize = 64;
    let config = DfcclConfig {
        chunk_elems: 4,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 3 },
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(RANKS),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let mut world = domain.world().hold();
    let ranks = init_ranks(&domain, RANKS);
    let desc =
        CollectiveDescriptor::all_reduce(COUNT, DataType::F32, ReduceOp::Sum, gpus(&[0, 1, 2, 3]))
            .with_algorithm(AlgorithmKind::Ring);
    for rank in &ranks {
        rank.register(1, desc.clone()).unwrap();
    }
    let mut rng = Rng(seed);
    let edges = domain.edge_samples();
    let victim = edges[(rng.next() % edges.len() as u64) as usize].edge;
    domain
        .fault_injector()
        .script(victim, FaultSpec::dead().after_chunks(after));

    let inputs: Vec<Vec<f32>> = (0..RANKS).map(|_| rng.small_f32s(COUNT)).collect();
    let expected = oracle(&desc, &inputs).remove(0);
    let recvs: Vec<DeviceBuffer> = (0..RANKS)
        .map(|_| DeviceBuffer::zeroed(COUNT * 4))
        .collect();
    let fired = Arc::new(AtomicUsize::new(0));
    for (r, rank) in ranks.iter().enumerate() {
        let fired = Arc::clone(&fired);
        let callback = Box::new(move || {
            fired.fetch_add(1, Ordering::AcqRel);
        });
        let send = DeviceBuffer::from_f32(&inputs[r]);
        rank.run(1, send, recvs[r].clone(), callback).unwrap();
    }

    let what = format!("recovery world, seed {seed}, {victim} dead after {after} chunks");
    let refs: Vec<&RankCtx> = ranks.iter().collect();
    let coordinator = RecoveryCoordinator::new(RetryPolicy::default());
    let mut outcomes = Vec::new();
    let mut steps = 0;
    while fired.load(Ordering::Acquire) < RANKS {
        steps += 1;
        assert!(steps < 1_000_000, "{what}: not drained");
        world.step(GpuId((rng.next() % RANKS as u64) as usize));
        let Some(report) = detect_stall(&refs) else {
            continue;
        };
        assert_eq!(report.kind, StallKind::LinkFailure, "{what}: {report}");
        close_open_slices(&mut world, RANKS);
        outcomes.push(coordinator.recover(&refs, &report).unwrap());
    }
    assert!(
        !outcomes.is_empty(),
        "{what}: the dead edge forced no recovery"
    );
    assert_eq!(domain.link_health().dead_edges(), vec![victim], "{what}");
    for (r, recv) in recvs.iter().enumerate() {
        assert_eq!(recv.to_f32_vec(), expected, "{what}: rank {r}");
    }
    let rolled_back: usize = outcomes.iter().map(|o| o.rolled_back).sum();
    let recovered: u64 = ranks.iter().map(|r| r.telemetry().counters.recovered).sum();
    assert_eq!(recovered, rolled_back as u64, "{what}");
    let trails = ranks
        .iter()
        .map(|r| {
            let events = r.telemetry().events;
            events.iter().map(|e| (e.coll_id, e.kind)).collect()
        })
        .collect();
    tear_down(&mut world, &ranks, &what);
    (trails, outcomes)
}

/// Recovery on a held world is a function of the seed: the detector's
/// verdict needs no clock, so two runs of one seed take the same steps,
/// recover at the same point and leave the same event trail on every rank.
/// Each ring edge carries 24 chunks: an early kill rolls every rank back, a
/// kill before the last chunk lets the other ranks complete first, so they
/// ghost-replay the round while the detector keeps watching.
#[test]
fn a_dead_edge_recovers_identically_on_a_held_world() {
    for (seed, after) in [(1, 1), (2, 5), (3, 12), (4, 23), (5, 23), (6, 23)] {
        let (trails, outcomes) = run_recovery_world(seed, after);
        let (replayed, replayed_outcomes) = run_recovery_world(seed, after);
        let ghosts: usize = outcomes.iter().map(|o| o.ghost_replays).sum();
        eprintln!("recovery world, seed {seed}, dead after {after}: {outcomes:?}");
        assert!(after < 23 || ghosts > 0, "seed {seed}: no rank ran ahead");
        assert_eq!(outcomes, replayed_outcomes, "seed {seed}");
        assert_eq!(trails, replayed, "seed {seed}");
    }
}

/// A compute kernel that finishes in its `.0`-th poll.
struct Compute(u64);

impl Kernel for Compute {
    fn name(&self) -> String {
        "compute".to_string()
    }

    fn poll(&mut self, _ctx: &KernelCtx) -> KernelPoll<'_> {
        self.0 -= 1;
        if self.0 > 0 {
            return KernelPoll::Moved;
        }
        KernelPoll::Ready(KernelOutcome::Completed)
    }
}

/// Submit all-reduce `coll` (every element `r * 10 + coll + 1`) on rank `r`,
/// counting its callback in `fired`; returns the recv buffer.
fn run_all_reduce(
    rank: &RankCtx,
    coll: u64,
    count: usize,
    fired: &Arc<AtomicUsize>,
) -> DeviceBuffer {
    let value = (rank.gpu().0 * 10) as f32 + coll as f32 + 1.0;
    let recv = DeviceBuffer::zeroed(count * 4);
    let fired = Arc::clone(fired);
    let callback = Box::new(move || {
        fired.fetch_add(1, Ordering::AcqRel);
    });
    let send = DeviceBuffer::from_f32(&vec![value; count]);
    rank.run(coll, send, recv.clone(), callback).unwrap();
    recv
}

/// The DFCCL twin of the baseline's Fig. 1(d) deadlock
/// (`nccl_like::tests::fig1d_disorder_with_device_sync_deadlocks_despite_resources`)
/// on one held world. Each GPU runs a compute kernel on a compute stream of
/// its engine; rank 0 submits all-reduce 0, rank 1 all-reduce 1, and once
/// both daemons are resident each rank synchronizes its device. Neither
/// all-reduce can finish before the other rank submits it, after its
/// synchronization: the baseline's kernels hold the barrier forever, while
/// each daemon preempts its stuck collective, idles and quits voluntarily,
/// so both barriers drain. Then each rank submits the other all-reduce and
/// all four complete. Returns each rank's event trail.
fn run_fig1d_world(seed: u64) -> EventTrail {
    const COUNT: usize = 32;
    let config = DfcclConfig {
        chunk_elems: 8,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 3 },
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(2),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let mut world = domain.world().hold();
    let ranks = init_ranks(&domain, 2);
    for rank in &ranks {
        for coll in [0, 1] {
            let (devices, op) = (gpus(&[0, 1]), ReduceOp::Sum);
            rank.register_all_reduce(coll, COUNT, DataType::F32, op, devices, 0)
                .unwrap();
        }
    }
    let what = format!("fig. 1(d) world, seed {seed}");
    let mut rng = Rng(seed);
    let compute: Vec<_> = ranks
        .iter()
        .map(|rank| {
            let polls = 4 + rng.next() % 4;
            let kernel = Box::new(Compute(polls));
            rank.engine().launch(StreamId(1), kernel).unwrap()
        })
        .collect();
    let fired = Arc::new(AtomicUsize::new(0));
    let mut recvs = vec![
        (0, run_all_reduce(&ranks[0], 0, COUNT, &fired)),
        (1, run_all_reduce(&ranks[1], 1, COUNT, &fired)),
    ];
    let mut pick = |_| Some((rng.next() % 2) as usize);
    let resident = |r: &RankCtx| resident(r.shared_state());
    step_until(&mut world, &ranks, 1_000, &what, &mut pick, |_| {
        ranks.iter().all(resident)
    });

    // A kernel launched after a barrier starts once the barrier drained: it
    // reads how many voluntary quits the rank's daemon had made by then.
    let mut after_sync = Vec::new();
    let mut quits_at_drain = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        assert!(
            !rank.device_synchronize(Duration::ZERO),
            "{what}: rank {r}'s daemon holds the barrier"
        );
        let quits = Arc::new(AtomicU64::new(u64::MAX));
        let (seen, ledger) = (
            Arc::clone(&quits),
            Arc::clone(&rank.shared_state().telemetry),
        );
        let marker = FnKernel::new("after-sync", move |_| {
            seen.store(ledger.daemon_stats().voluntary_quits, Ordering::Release);
            KernelOutcome::Completed
        });
        after_sync.push(rank.engine().launch(StreamId(2), Box::new(marker)).unwrap());
        quits_at_drain.push(quits);
    }
    let drained = |h: &KernelHandle| h.status() == KernelStatus::Completed;
    step_until(&mut world, &ranks, 100_000, &what, &mut pick, |_| {
        after_sync.iter().all(drained)
    });
    for r in 0..2 {
        let quits = quits_at_drain[r].load(Ordering::Acquire);
        assert!(
            quits >= 1,
            "{what}: rank {r}'s barrier drained before its daemon quit"
        );
        assert!(drained(&compute[r]), "{what}: rank {r}'s compute kernel");
    }
    assert_eq!(
        fired.load(Ordering::Acquire),
        0,
        "{what}: nothing could complete"
    );

    // After the synchronization each rank submits the other all-reduce.
    recvs.push((1, run_all_reduce(&ranks[0], 1, COUNT, &fired)));
    recvs.push((0, run_all_reduce(&ranks[1], 0, COUNT, &fired)));
    step_until(&mut world, &ranks, 100_000, &what, &mut pick, |_| {
        fired.load(Ordering::Acquire) == 4
    });
    for (coll, recv) in &recvs {
        let sum = (0..2).map(|r| (r * 10) as f32 + *coll as f32 + 1.0).sum();
        assert_eq!(recv.to_f32_vec(), vec![sum; COUNT], "{what}: coll {coll}");
    }
    assert!(ranks.iter().all(|r| r.collective_errors().is_empty()));
    let trails = ranks
        .iter()
        .map(|r| {
            let events = r.telemetry().events;
            events.iter().map(|e| (e.coll_id, e.kind)).collect()
        })
        .collect();
    tear_down(&mut world, &ranks, &what);
    trails
}

#[test]
fn a_wait_on_a_carried_engine_steps_nothing() {
    let domain = DfcclDomain::flat_for_testing(2);
    let mut world = domain.world().hold();
    let ranks = init_ranks(&domain, 2);
    let compute = FnKernel::new("compute", |_| KernelOutcome::Completed);
    let h = ranks[0]
        .engine()
        .launch(StreamId(1), Box::new(compute))
        .unwrap();
    // Only the seat steps the engine: the waiting thread does not.
    assert_eq!(
        h.wait_timeout(Duration::from_millis(50)),
        KernelStatus::Queued
    );
    world.step(GpuId(0));
    assert_eq!(h.status(), KernelStatus::Completed);
    tear_down(&mut world, &ranks, "carried wait");
}

#[test]
fn fig1d_disorder_with_device_sync_completes_on_one_held_world() {
    for seed in 1..=4 {
        assert_eq!(run_fig1d_world(seed), run_fig1d_world(seed), "seed {seed}");
    }
}

/// `tests/tenancy.rs::weighted_tenant_outpaces_light_tenant_under_preemption_storm`'s
/// world — 2 ranks, capacity-1 connectors, `Fixed{4096}`, quantum 1, three
/// tenants — on two held seats. Seed 0 is the symmetric world (both ranks
/// submit alike, seats alternate step by step); any other seed gives each
/// rank its own merge of the three tenants' submission streams (the threaded
/// test's racing submitter threads) and steps one seat for a burst of up to
/// 16 384 steps before switching (OS quanta: the peer is descheduled for
/// longer than a spin threshold, so slices time out and the storm is real).
fn run_storm_world(seed: u64) -> (usize, u64) {
    const STORM: (u64, u64, usize, usize) = (100, 6, 10, 4096);
    const HEAVY: (u64, u64, usize, usize) = (200, 4, 25, 2048);
    const LIGHT: (u64, u64, usize, usize) = (300, 4, 25, 2048);
    let config = DfcclConfig {
        chunk_elems: 64,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 4096 },
        tenant_quantum: 1,
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(2),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let tenants = [
        (domain.tenant(TenantQuota::default().with_weight(1)), STORM),
        (domain.tenant(TenantQuota::default().with_weight(2)), HEAVY),
        (domain.tenant(TenantQuota::default().with_weight(1)), LIGHT),
    ];
    let mut world = domain.world().hold();
    let ranks = init_ranks(&domain, 2);
    for rank in &ranks {
        for (tenant, (base, colls, _, count)) in &tenants {
            for c in 0..*colls {
                let (id, devices) = (base + c, gpus(&[0, 1]));
                rank.register_all_reduce_for(
                    tenant,
                    id,
                    *count,
                    DataType::F32,
                    ReduceOp::Sum,
                    devices,
                    0,
                )
                .unwrap();
            }
        }
    }

    // Each tenant submits invocation-major, as its submitter thread does; a
    // rank's plan is a merge of the three streams.
    let mut rng = Rng(seed);
    let plans: Vec<Vec<(u64, usize)>> = (0..2)
        .map(|_| {
            let mut streams: Vec<_> = tenants
                .iter()
                .map(|&(_, (base, colls, invocations, count))| {
                    (0..invocations)
                        .flat_map(move |_| (0..colls).map(move |c| (base + c, count * 4)))
                })
                .collect();
            let mut plan = Vec::new();
            let mut turn = 0;
            while !streams.is_empty() {
                let pick = if seed == 0 { turn } else { rng.next() as usize } % streams.len();
                match streams[pick].next() {
                    Some(submission) => plan.push(submission),
                    None => drop(streams.remove(pick)),
                }
                turn += 1;
            }
            plan
        })
        .collect();

    let what = format!("storm world, seed {seed}");
    let mut next = [0usize; 2];
    let fired = Arc::new(AtomicUsize::new(0));
    let total = plans[0].len() + plans[1].len();
    let (mut seat, mut burst) = (0, 0u64);
    let pick = |step: usize| {
        if seed == 0 {
            return Some(step % 2);
        }
        if burst == 0 {
            seat = rng.next() as usize % 2;
            burst = 1 << (rng.next() % 15);
        }
        burst -= 1;
        Some(seat)
    };
    let steps = step_until(&mut world, &ranks, 400_000_000, &what, pick, |step| {
        // Top the SQs up every so often; SQ-full is the only backpressure.
        if step % 64 == 0 {
            for (r, rank) in ranks.iter().enumerate() {
                while let Some(&(id, bytes)) = plans[r].get(next[r]) {
                    let (send, recv) = (DeviceBuffer::zeroed(bytes), DeviceBuffer::zeroed(bytes));
                    let fired = Arc::clone(&fired);
                    let callback = Box::new(move || {
                        fired.fetch_add(1, Ordering::AcqRel);
                    });
                    match rank.run(id, send, recv, callback) {
                        Ok(()) => next[r] += 1,
                        Err(DfcclError::SubmissionQueueFull) => break,
                        Err(e) => panic!("unexpected submit error: {e:?}"),
                    }
                }
            }
        }
        fired.load(Ordering::Acquire) == total
    });
    let preemptions = ranks.iter().map(|r| r.stats().preemptions).sum();
    tear_down(&mut world, &ranks, &what);
    (steps, preemptions)
}

/// In lockstep the pipeline's decisions never even preempt: the world
/// drains in ~52k steps. Whatever stalls the threaded test is not here.
#[test]
fn preemption_storm_world_drains_in_lockstep() {
    let (steps, preemptions) = run_storm_world(0);
    eprintln!("storm world, lockstep: drained in {steps} steps, {preemptions} preemptions");
    assert!(steps < 1_000_000, "{steps} steps");
}

/// With the peer descheduled for bursts longer than a spin threshold every
/// seed still drains — but at one capacity-1 hand-off per carrier switch:
/// ~142M steps and ~32k preemptions for the ~52k steps of work above. That
/// ratio, not a wait-for cycle, was the threaded test's 30 s "livelock" when
/// each rank had a daemon thread of its own.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "~142M steps per seed: minutes unoptimised; CI's soak job runs it in release"
)]
fn preemption_storm_world_drains_under_bursty_schedules() {
    for seed in [1, 2] {
        let (steps, preemptions) = run_storm_world(seed);
        eprintln!("storm world, seed {seed}: drained in {steps} steps, {preemptions} preemptions");
        assert!(
            preemptions > 0,
            "seed {seed}: bursts past the threshold must preempt"
        );
    }
}

/// Invocations pushed from several threads at once and not fetched yet. The
/// SQ has a single producer, so submitters must take turns: two pushes racing
/// for one slot lose an SQE (its peer then waits forever) or see a spurious
/// full SQ. And a rank with unread SQEs is not quiescent: were `remove_rank`
/// to drop the registration, the daemon would fail them as unregistered under
/// tenant 0 and their own tenant's `outstanding` would never drain.
#[test]
fn concurrent_unread_submissions_are_delivered_and_block_remove_rank() {
    const THREADS: usize = 4;
    const RUNS: usize = 500;
    const COUNT: usize = 4;
    let config = DfcclConfig {
        sq_capacity: THREADS * RUNS,
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(2),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let tenant = domain.tenant(TenantQuota::default());
    let mut world = domain.world().hold();
    let ranks = init_ranks(&domain, 2);
    for rank in &ranks {
        let (id, devices) = (1, gpus(&[0, 1]));
        rank.register_all_reduce_for(&tenant, id, COUNT, DataType::F32, ReduceOp::Sum, devices, 0)
            .unwrap();
    }
    let fired = Arc::new(AtomicUsize::new(0));
    let run = |rank: &RankCtx| {
        let fired = Arc::clone(&fired);
        let (send, recv) = (
            DeviceBuffer::zeroed(COUNT * 4),
            DeviceBuffer::zeroed(COUNT * 4),
        );
        let callback = Box::new(move || {
            fired.fetch_add(1, Ordering::AcqRel);
        });
        rank.run(1, send, recv, callback).unwrap();
    };
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| (0..RUNS).for_each(|_| run(&ranks[0])));
        }
    });
    (0..THREADS * RUNS).for_each(|_| run(&ranks[1]));
    // No seat has stepped: every SQE is unread.
    let busy = DfcclError::MembershipBusy {
        gpu: GpuId(1),
        coll_id: 1,
    };
    assert_eq!(domain.remove_rank(GpuId(1)), Err(busy));
    let what = "concurrent unread submissions";
    step_until(
        &mut world,
        &ranks,
        1_000_000,
        what,
        |step| Some(step % 2),
        |_| fired.load(Ordering::Acquire) == 2 * THREADS * RUNS,
    );
    for rank in &ranks {
        assert!(rank.collective_errors().is_empty());
        let stats = rank.tenant_stats();
        let row = stats.iter().find(|t| t.tenant == tenant.id()).unwrap();
        let runs = (THREADS * RUNS) as u64;
        assert_eq!((row.outstanding, row.completed, row.failed), (0, runs, 0));
    }
    assert_eq!(domain.remove_rank(GpuId(1)), Ok(2), "quiescent now");
    tear_down(&mut world, &ranks, what);
}

/// `destroy` with a full SQ: the exiting SQE finds no slot and is dropped,
/// but the exit flag `shut_down` sets still lets each seat drain the
/// invocations owed, fire every callback, read the exit and leave its
/// carrier.
#[test]
fn destroy_with_a_full_sq_drains_fires_every_callback_and_leaves() {
    const COUNT: usize = 8;
    let config = DfcclConfig {
        sq_capacity: 2,
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(2),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let mut world = domain.world().hold();
    let ranks = init_ranks(&domain, 2);
    for rank in &ranks {
        rank.register_all_reduce(1, COUNT, DataType::F32, ReduceOp::Sum, gpus(&[0, 1]), 0)
            .unwrap();
    }
    let fired = Arc::new(AtomicUsize::new(0));
    let mut recvs = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        for _ in 0..2 {
            let recv = DeviceBuffer::zeroed(COUNT * 4);
            let fired = Arc::clone(&fired);
            let send = DeviceBuffer::from_f32(&[r as f32 + 1.0; COUNT]);
            let callback = Box::new(move || {
                fired.fetch_add(1, Ordering::AcqRel);
            });
            rank.run(1, send, recv.clone(), callback).unwrap();
            recvs.push(recv);
        }
    }
    let (send, recv) = (
        DeviceBuffer::zeroed(COUNT * 4),
        DeviceBuffer::zeroed(COUNT * 4),
    );
    assert_eq!(
        ranks[0].run(1, send, recv, Box::new(|| {})),
        Err(DfcclError::SubmissionQueueFull),
        "the SQ is full when the rank is destroyed"
    );
    tear_down(&mut world, &ranks, "destroy with a full SQ");
    assert_eq!(fired.load(Ordering::Acquire), 4);
    for recv in &recvs {
        assert_eq!(recv.to_f32_vec(), vec![3.0; COUNT]);
    }
}

/// Under the default cost model the ledger's SQE-read and CQE-write totals
/// are the SQ's and the vanilla ring's formulas summed over the batches the
/// daemon fetched (`admitted` moved) and published (`outstanding` fell) in
/// each step: `(1 + 2n) · 1 000` ns per fetch of n, `(3 + 2n) · 1 200 + 900`
/// per publication of n. Nothing is measured by a clock.
#[test]
fn the_ledger_accrues_the_modelled_sq_and_cq_cost_of_each_batch() {
    const COUNT: usize = 16;
    let config = DfcclConfig {
        host_costs: HostMemCosts::default(),
        cq_variant: CqVariant::VanillaRing,
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(2),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let mut world = domain.world().hold();
    let ranks = init_ranks(&domain, 2);
    for rank in &ranks {
        for coll in 0..3 {
            rank.register_all_reduce(coll, COUNT, DataType::F32, ReduceOp::Sum, gpus(&[0, 1]), 0)
                .unwrap();
        }
    }
    let fired = Arc::new(AtomicUsize::new(0));
    for _ in 0..2 {
        for coll in 0..3 {
            for rank in &ranks {
                run_all_reduce(rank, coll, COUNT, &fired);
            }
        }
    }
    // Per rank: (admitted, outstanding) after its last step, the expected
    // [SQE-read, CQE-write] totals and the largest [fetch, publication].
    let mut seen = [(0, 6); 2];
    let mut expected = [[0u64; 2]; 2];
    let mut largest = [[0u64; 2]; 2];
    let mut step = 0;
    while fired.load(Ordering::Acquire) < 12 {
        assert!(step < 100_000, "not drained after {step} steps");
        let r = step % 2;
        step += 1;
        world.step(GpuId(r));
        let shared = ranks[r].shared_state();
        let now = (
            shared.admitted.load(Ordering::Acquire),
            shared.outstanding(),
        );
        let (fetched, published) = (now.0 - seen[r].0, seen[r].1 - now.1);
        seen[r] = now;
        if fetched > 0 {
            expected[r][0] += (1 + 2 * fetched) * 1_000;
        }
        if published > 0 {
            expected[r][1] += (3 + 2 * published) * 1_200 + 900;
        }
        largest[r] = [largest[r][0].max(fetched), largest[r][1].max(published)];
    }
    for (r, rank) in ranks.iter().enumerate() {
        assert_eq!(seen[r], (6, 0), "rank {r} admitted and published all six");
        assert_eq!(
            rank.shared_state().telemetry.sq_cq_totals_ns(),
            expected[r],
            "rank {r}: batches (largest fetch, publication) {:?}",
            largest[r]
        );
        assert!(
            largest[r][0] > 1 && largest[r][1] > 1,
            "rank {r}: {largest:?}"
        );
    }
    tear_down(&mut world, &ranks, "ledger cost world");
}
