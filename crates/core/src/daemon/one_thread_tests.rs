//! Whole worlds on one thread: every rank's [`DaemonCore`] is claimed by the
//! test and polled round-robin, so the schedule is a function of the seed —
//! no OS scheduling, no waits. (The pollers, which only drain CQs and run
//! callbacks, stay threads.)

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl_collectives::{
    AlgorithmKind, CollectiveDescriptor, CollectiveKind, DataType, DeviceBuffer, ReduceOp,
};
use dfccl_transport::{LinkModel, StallKind, StallReport, Topology};
use gpu_sim::{GpuId, GpuSpec};
use parking_lot::Mutex;

use super::{DaemonCore, Progress};
use crate::api::{DfcclDomain, DfcclError, RankCtx};
use crate::config::{DfcclConfig, SpinPolicy};
use crate::recovery::{RecoveryCoordinator, RetryPolicy};
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

/// Claim every rank's core for the calling thread.
fn claim_all(ranks: &[RankCtx]) -> Vec<DaemonCore> {
    ranks
        .iter()
        .map(|r| r.daemon_controller().try_claim().expect("core unclaimed"))
        .collect()
}

/// Poll the core `pick(step)` names (none: the step is skipped) until
/// `done(step)`, at most `budget` steps. On exhaustion, panic with every
/// core's last `Progress` — with the seed, the replayable diagnosis —
/// instead of hanging.
fn poll_until(
    cores: &mut [DaemonCore],
    budget: usize,
    what: &str,
    mut pick: impl FnMut(usize) -> Option<usize>,
    mut done: impl FnMut(usize) -> bool,
) -> usize {
    let mut last = vec![None::<Progress>; cores.len()];
    for step in 0..budget {
        if done(step) {
            return step;
        }
        if let Some(r) = pick(step) {
            last[r] = Some(cores[r].poll());
        }
    }
    let owed: Vec<u64> = cores.iter().map(|c| c.shared.outstanding()).collect();
    panic!("{what}: not drained after {budget} polls; last progress per core {last:?}, outstanding per rank {owed:?}");
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
/// order, all four cores polled from this thread. `skip` never polls one
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
    let ranks: Vec<RankCtx> = (0..RANKS)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    let mix = disorder_mix(256);
    for (id, desc) in &mix {
        for gpu in &desc.devices {
            ranks[gpu.0].register(*id, desc.clone()).unwrap();
        }
    }
    // Declared after `ranks`, so on a failing assert the cores are released
    // first and `destroy` can finish the work on driver threads.
    let mut cores = claim_all(&ranks);

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
                let stats = Arc::clone(&rank.shared_state().stats);
                let total = per_rank[r];
                rank.run(
                    *id,
                    DeviceBuffer::from_f32(&inputs[c][member]),
                    recv.clone(),
                    Box::new(move || {
                        if fired[r].fetch_add(1, Ordering::AcqRel) + 1 == total {
                            cqes_at_last[r].store(stats.snapshot().cqes_written, Ordering::Release);
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
    let polls = poll_until(&mut cores, 100_000, &what, round_robin, |_| {
        ranks.iter().all(|r| r.shared_state().outstanding() == 0)
    });
    // The daemons are done; the callbacks run on the poller threads.
    let deadline = Instant::now() + Duration::from_secs(20);
    while (0..RANKS).any(|r| fired[r].load(Ordering::Acquire) < per_rank[r]) {
        assert!(Instant::now() < deadline, "{what}: callbacks never fired");
        std::thread::yield_now();
    }

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
        preemptions += rank.stats().preemptions;
    }
    assert!(preemptions > 0, "{what}: the threshold must bind");
    eprintln!("{what}: drained in {polls} polls, {preemptions} preemptions");
}

#[test]
fn four_cores_one_thread_drain_a_disorder_mix() {
    for seed in [1, 2, 3, 5, 8, 13] {
        run_disorder_world(seed, None);
    }
}

/// The mutation check of the test above: with rank 3 never polled the world
/// cannot drain, and the run must say so rather than hang.
#[test]
#[should_panic(expected = "not drained after")]
fn a_skipped_core_fails_the_budget_instead_of_hanging() {
    run_disorder_world(1, Some(3));
}

/// Recovery's ghost replay must not write into the caller's buffer. The
/// chaos suite's failing world — a 4-rank tree all-reduce striped over 3
/// channels — polled round-robin until the first rank completes; its
/// callback fires, the others stall (a dead edge, in the chaos suite), and a
/// recovery pass rolls them back and has the completed rank ghost-replay the
/// round. A tree rank accumulates partial sums in its recv buffer, so a ghost
/// replaying into the caller's buffer shows them to a caller whose CQE
/// already fired.
#[test]
fn a_ghost_replay_never_writes_the_completed_ranks_buffer() {
    const RANKS: usize = 4;
    const COUNT: usize = 64;
    let config = DfcclConfig {
        chunk_elems: 4,
        connector_capacity: 1,
        channels: 3,
        algorithm: Some(AlgorithmKind::DoubleBinaryTree),
        spin: SpinPolicy::Fixed { threshold: 3 },
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(RANKS),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let ranks: Vec<RankCtx> = (0..RANKS)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    let desc =
        CollectiveDescriptor::all_reduce(COUNT, DataType::F32, ReduceOp::Sum, gpus(&[0, 1, 2, 3]));
    for rank in &ranks {
        rank.register(1, desc.clone()).unwrap();
    }
    let mut cores = claim_all(&ranks);

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
    let completed = |r: usize| ranks[r].shared_state().contexts.completed_count(1);
    poll_until(
        &mut cores,
        100_000,
        "first completion",
        |step| Some(step % RANKS),
        |_| (0..RANKS).any(|r| completed(r) == 1),
    );
    let ahead = (0..RANKS).find(|&r| completed(r) == 1).unwrap();
    // Only the completed rank's core runs until its CQE is published and the
    // callback has fired.
    let deadline = Instant::now() + Duration::from_secs(20);
    while seen[ahead].lock().is_none() {
        assert!(
            Instant::now() < deadline,
            "rank {ahead}'s callback never fired"
        );
        cores[ahead].poll();
        std::thread::yield_now();
    }
    let at_callback = seen[ahead].lock().clone().unwrap();
    assert_eq!(
        DeviceBuffer::from_bytes(at_callback.clone()).to_f32_vec(),
        expected
    );

    for core in &mut cores {
        if core.slice.is_some() {
            core.preempt_slice();
        }
    }
    let report = StallReport {
        kind: StallKind::Wedge,
        failed_edges: Vec::new(),
        stalled_edges: Vec::new(),
        stalled_collectives: vec![1],
        unfinished: Vec::new(),
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
    // Drain the world before asserting, so a failure unwinds through a
    // quiet domain instead of leaving `destroy` a half-replayed round.
    let drained = |r: &RankCtx| {
        let shared = r.shared_state();
        shared.outstanding() == 0
            && shared.contexts.total_pending() == 0
            && !shared.contexts.in_slice(1)
    };
    let mut first_change = None;
    poll_until(
        &mut cores,
        1_000_000,
        "ghost replay",
        |step| Some(step % RANKS),
        |step| {
            if first_change.is_none() && recvs[ahead].to_vec() != at_callback {
                first_change = Some(step);
            }
            ranks.iter().all(drained)
        },
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    while (0..RANKS).any(|r| seen[r].lock().is_none()) {
        assert!(Instant::now() < deadline, "callbacks never fired");
        std::thread::yield_now();
    }
    assert!(ghost.silent_replay);
    assert!(
        !ghost.recv.same_allocation(&recvs[ahead]),
        "the ghost replays into the caller's recv buffer"
    );
    assert_eq!(
        first_change, None,
        "rank {ahead}'s buffer changed after its callback (at that poll)"
    );
    for (r, recv) in recvs.iter().enumerate() {
        assert_eq!(recv.to_f32_vec(), expected, "rank {r}");
    }
}

/// `tests/tenancy.rs::weighted_tenant_outpaces_light_tenant_under_preemption_storm`'s
/// world — 2 ranks, capacity-1 connectors, `Fixed{4096}`, quantum 1, three
/// tenants — on two claimed cores. Seed 0 is the symmetric world (both ranks
/// submit alike, cores alternate poll by poll); any other seed gives each
/// rank its own merge of the three tenants' submission streams (the threaded
/// test's racing submitter threads) and polls one core for a burst of up to
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
    let ranks: Vec<RankCtx> = (0..2)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
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
    let mut cores = claim_all(&ranks);

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
    let mut handles = Vec::new();
    let (mut core, mut burst) = (0, 0u64);
    let pick = |step: usize| {
        if seed == 0 {
            return Some(step % 2);
        }
        if burst == 0 {
            core = rng.next() as usize % 2;
            burst = 1 << (rng.next() % 15);
        }
        burst -= 1;
        Some(core)
    };
    let polls = poll_until(&mut cores, 400_000_000, &what, pick, |step| {
        // Top the SQs up every so often; SQ-full is the only backpressure.
        if step % 64 == 0 {
            for (r, rank) in ranks.iter().enumerate() {
                while let Some(&(id, bytes)) = plans[r].get(next[r]) {
                    let (send, recv) = (DeviceBuffer::zeroed(bytes), DeviceBuffer::zeroed(bytes));
                    match rank.run_awaitable(id, send, recv) {
                        Ok(handle) => handles.push(handle),
                        Err(DfcclError::SubmissionQueueFull) => break,
                        Err(e) => panic!("unexpected submit error: {e:?}"),
                    }
                    next[r] += 1;
                }
            }
        }
        (0..2).all(|r| next[r] == plans[r].len() && ranks[r].shared_state().outstanding() == 0)
    });
    for handle in &handles {
        assert!(handle.wait_for_timeout(1, Duration::from_secs(20)));
    }
    (polls, ranks.iter().map(|r| r.stats().preemptions).sum())
}

/// In lockstep the pipeline's decisions never even preempt: the world
/// drains in ~52k polls. Whatever stalls the threaded test is not here.
#[test]
fn preemption_storm_world_drains_in_lockstep() {
    let (polls, preemptions) = run_storm_world(0);
    eprintln!("storm world, lockstep: drained in {polls} polls, {preemptions} preemptions");
    assert!(polls < 1_000_000, "{polls} polls");
}

/// With the peer descheduled for bursts longer than a spin threshold every
/// seed still drains — but at one capacity-1 hand-off per carrier switch:
/// ~142M polls and ~32k preemptions for the ~52k polls of work above. That
/// ratio, not a wait-for cycle, is the threaded test's 30 s "livelock".
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "~142M polls per seed: minutes unoptimised; CI's soak job runs it in release"
)]
fn preemption_storm_world_drains_under_bursty_schedules() {
    for seed in [1, 2] {
        let (polls, preemptions) = run_storm_world(seed);
        eprintln!("storm world, seed {seed}: drained in {polls} polls, {preemptions} preemptions");
        assert!(
            preemptions > 0,
            "seed {seed}: bursts past the threshold must preempt"
        );
    }
}
