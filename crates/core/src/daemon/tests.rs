//! Daemon unit tests. Pipeline decisions are checked on a [`DaemonCore`]
//! the test thread polls a fixed number of times, with no carrier stepping
//! the rank; what tests the carrier (parking, waking, quitting, callbacks)
//! lets one step it, threaded or held.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl_collectives::{AlgorithmKind, DataType, DeviceBuffer, ReduceOp};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{
    DeviceEngine, EdgeWait, GpuDevice, GpuId, GpuSpec, Kernel, KernelCtx, KernelOutcome,
    KernelPoll, KernelStatus, StreamId, WaitSide,
};

use super::world::{HeldWorld, Wish};
use super::*;
use crate::api::{DfcclDomain, RankCtx};
use crate::callback::CompletionHandle;
use crate::config::{CqVariant, SpinPolicy};
use crate::cq::{build_cq, Cqe};
use crate::sq::Sqe;

/// What the engine hands a daemon polled directly: no barrier pending.
const CTX: KernelCtx = KernelCtx {
    device: GpuId(0),
    seq: 0,
    barrier_pending: false,
};

/// A pass that moved nothing and waits on no edge: idle, or a full CQ.
const QUIET: KernelPoll<'static> = KernelPoll::Pending(&[]);

const QUIT: KernelPoll<'static> = KernelPoll::Ready(KernelOutcome::Completed);

/// Whether a poll waited on at least one named edge.
fn waits_on_edges(poll: KernelPoll<'_>) -> bool {
    matches!(poll, KernelPoll::Pending(waits) if !waits.is_empty())
}

/// Whether a daemon kernel holds a residency slot on `shared`'s GPU.
pub(super) fn resident(shared: &DaemonShared) -> bool {
    shared.engine.device().resident_kernels() > 0
}

fn shared_with_config(config: DfcclConfig) -> Arc<DaemonShared> {
    let engine = DeviceEngine::new(GpuDevice::new(GpuId(0), GpuSpec::rtx_3090()));
    let sq = Arc::new(SubmissionQueue::with_costs(
        config.sq_capacity,
        1,
        config.host_costs,
    ));
    let cq = Arc::new(build_cq(
        config.cq_variant,
        config.cq_capacity,
        config.host_costs,
    ));
    let carrier = Carrier::new(0);
    DaemonShared::new(
        GpuId(0),
        engine,
        config,
        sq,
        cq,
        CallbackMap::new(),
        carrier,
    )
}

/// A rank stepped by a carrier of its own, started the way production
/// starts a daemon: an invocation (of an unregistered id, failed at once)
/// is submitted and the bell rung.
fn started(config: DfcclConfig) -> Arc<DaemonShared> {
    let shared = shared_with_config(config);
    shared.attach();
    submit(&shared, 99);
    shared.notify_daemon();
    shared
}

/// Wait until nothing is owed and no daemon is resident, up to `timeout`.
fn wait_idle(shared: &DaemonShared, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while shared.outstanding() > 0 || resident(shared) {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// A rank's shared state, no carrier stepping it, and a core the test
/// thread polls.
fn polled(config: DfcclConfig) -> (Arc<DaemonShared>, DaemonCore) {
    let shared = shared_with_config(config);
    let core = DaemonCore::new(Arc::clone(&shared));
    (shared, core)
}

/// Submit an invocation of (unregistered) `coll_id` the way the API layer
/// does, minus the callback.
fn submit(shared: &DaemonShared, coll_id: u64) {
    shared.outstanding.fetch_add(1, Ordering::Release);
    let sqe = Sqe {
        coll_id,
        seq: 0,
        send: DeviceBuffer::zeroed(4),
        recv: DeviceBuffer::zeroed(4),
        exit: false,
    };
    shared.sq.try_push(sqe).unwrap();
}

fn drain_ids(shared: &DaemonShared) -> Vec<u64> {
    let mut out: Vec<Cqe> = Vec::new();
    shared.cq.drain_into(&mut out);
    out.iter().map(|c| c.coll_id).collect()
}

// ---- the core, polled ----------------------------------------------------

#[test]
fn a_retired_core_stays_retired_and_counts_its_quit() {
    let (shared, mut core) = polled(DfcclConfig::for_testing());
    assert_eq!(core.poll(&CTX), QUIET, "nothing to do");
    assert_eq!(shared.telemetry.daemon_stats().daemon_starts, 1);
    core.retire(true);
    assert_eq!(core.poll(&CTX), QUIT, "a retired core stays retired");
    let snap = shared.telemetry.daemon_stats();
    assert_eq!((snap.daemon_starts, snap.voluntary_quits), (1, 1));
}

#[test]
fn the_daemon_stream_runs_one_incarnation_at_a_time() {
    // Two daemons launched back to back: the second starts only once the
    // first has quit (its idle budget of 2 spent), so no rank ever has two.
    let config = DfcclConfig {
        idle_passes_before_quit: 2,
        ..DfcclConfig::for_testing()
    };
    let shared = shared_with_config(config);
    let launch = || {
        let core = Box::new(DaemonCore::new(Arc::clone(&shared)));
        shared.engine.launch(StreamId(usize::MAX), core).unwrap()
    };
    let (first, second) = (launch(), launch());
    let step = || shared.engine.step();
    assert_eq!(
        (step().started, shared.engine.device().resident_kernels()),
        (1, 1)
    );
    assert_eq!(step().retired, 1, "idle pass 2 of 2: the first quits");
    assert_eq!(first.status(), KernelStatus::Completed);
    assert_eq!(second.status(), KernelStatus::Queued);
    assert_eq!(step().started, 1, "the second starts after it");
    let snap = shared.telemetry.daemon_stats();
    assert_eq!((snap.daemon_starts, snap.voluntary_quits), (2, 1));
    shared.engine.shutdown();
    assert_eq!(second.status(), KernelStatus::Aborted);
}

#[test]
fn core_exits_after_exit_sqe() {
    let (shared, mut core) = polled(DfcclConfig::for_testing());
    shared.sq.try_push(Sqe::exit_marker(0)).unwrap();
    assert_eq!(core.poll(&CTX), KernelPoll::Moved, "the exit SQE is read");
    assert_eq!(core.poll(&CTX), QUIT);
    assert!(shared.final_exit_requested());
    assert_eq!(shared.telemetry.daemon_stats().voluntary_quits, 0);
    // After final exit with nothing owed a new incarnation ends at once.
    let mut next = DaemonCore::new(Arc::clone(&shared));
    assert_eq!(next.poll(&CTX), QUIT);
    assert_eq!(shared.telemetry.daemon_stats().daemon_starts, 1);
}

#[test]
fn unregistered_collective_is_failed_not_hung() {
    let (shared, mut core) = polled(DfcclConfig::for_testing());
    submit(&shared, 99);
    assert_eq!(core.poll(&CTX), KernelPoll::Moved);
    // Its slice cannot open: the invocation is failed and its CQE published
    // by the same step.
    assert_eq!(core.poll(&CTX), QUIET);
    assert_eq!(shared.outstanding(), 0);
    assert!(shared.errors.lock().contains_key(&99));
    assert_eq!(drain_ids(&shared), vec![99]);
    // The failure is counted once, in the default tenant's row for the id,
    // and every total reads that one count.
    assert_eq!(shared.telemetry.counters().failures, 1);
    let tenants = shared.telemetry.tenant_stats(&shared.tenants);
    assert_eq!(tenants.len(), 1);
    assert_eq!(
        (tenants[0].tenant, tenants[0].failed),
        (TenantId::DEFAULT, 1)
    );
    assert_eq!(tenants[0].completed, 1, "a failure still completes");
    assert_eq!(shared.telemetry.per_collective()[&99].failures, 1);
}

#[test]
fn unknown_graph_replay_is_failed_not_hung() {
    let (shared, mut core) = polled(DfcclConfig::for_testing());
    let graph_id = GRAPH_ID_BASE | 1;
    assert!(is_graph_id(graph_id));
    submit(&shared, graph_id);
    assert_eq!(core.poll(&CTX), KernelPoll::Moved);
    assert_eq!(core.poll(&CTX), QUIET);
    assert_eq!(shared.outstanding(), 0, "the failed replay completes once");
    assert!(shared.errors.lock().contains_key(&graph_id));
    assert_eq!(drain_ids(&shared), vec![graph_id]);
}

#[test]
fn completion_batches_flush_within_a_pass() {
    // Fewer completions than the batch threshold must still be published by
    // the step that ends the pass that produced them (no cross-pass latency).
    let (shared, mut core) = polled(DfcclConfig::for_testing());
    for id in 0..5 {
        submit(&shared, id);
    }
    assert_eq!(core.poll(&CTX), KernelPoll::Moved);
    assert_eq!(shared.telemetry.daemon_stats().sqes_fetched, 5);
    core.poll(&CTX);
    assert_eq!(shared.outstanding(), 0);
    assert_eq!(drain_ids(&shared).len(), 5);
    assert_eq!(shared.telemetry.daemon_stats().cqes_written, 5);
}

#[test]
fn full_cq_blocks_the_core_and_retains_the_batch() {
    // A CQ smaller than one completion batch, and nobody draining: the core
    // must report the block instead of spinning inside the pipeline.
    for variant in [
        CqVariant::VanillaRing,
        CqVariant::OptimizedRing,
        CqVariant::OptimizedSlot,
    ] {
        let (shared, mut core) = polled(DfcclConfig {
            cq_variant: variant,
            cq_capacity: 2,
            ..DfcclConfig::for_testing()
        });
        for id in 0..5 {
            submit(&shared, id);
        }
        assert_eq!(core.poll(&CTX), KernelPoll::Moved);
        for _ in 0..4 {
            assert_eq!(core.poll(&CTX), QUIET, "{variant:?}: the CQ is full");
            assert_eq!(shared.cq.len(), 2, "{variant:?}");
            assert_eq!(shared.outstanding(), 3, "only published CQEs are paid off");
        }
        // A blocked core never quits: the idle budget counts idle passes.
        assert_eq!(shared.telemetry.daemon_stats().voluntary_quits, 0);
        // Each drain lets the retained tail through, two CQEs at a time.
        let mut seen = drain_ids(&shared);
        assert_eq!(core.poll(&CTX), QUIET);
        assert_eq!(shared.outstanding(), 1, "{variant:?}");
        seen.extend(drain_ids(&shared));
        assert_eq!(core.poll(&CTX), QUIET, "batch out: the pass can end");
        seen.extend(drain_ids(&shared));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "{variant:?}: one CQE each");
        assert_eq!(shared.outstanding(), 0);
        assert_eq!(shared.telemetry.daemon_stats().cqes_written, 5);
    }
}

/// Step every seat of a held world until each rank's CQ is drained and its
/// callbacks have run. The test polled its own cores and dropped them, so
/// nothing is owed and no seat launches a daemon.
fn run_callbacks(world: &mut HeldWorld, ranks: &[RankCtx]) {
    for rank in ranks {
        assert_eq!(rank.outstanding(), 0);
        world.step(rank.gpu());
    }
}

#[test]
fn registry_cache_sees_collectives_registered_after_daemon_start() {
    // A core that has already stamped its registry cache must pick up a
    // later registration through the generation counter.
    let domain = DfcclDomain::flat_for_testing(2);
    let mut world = domain.world().hold();
    let ranks: Vec<_> = (0..2)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    let mut cores: Vec<DaemonCore> = ranks
        .iter()
        .map(|r| DaemonCore::new(Arc::clone(r.shared_state())))
        .collect();
    // Rank 0 looks id 42 up before anyone registered it.
    let shared0 = Arc::clone(ranks[0].shared_state());
    submit(&shared0, 42);
    cores[0].poll(&CTX);
    cores[0].poll(&CTX);
    assert!(shared0.errors.lock().remove(&42).is_some());
    assert_eq!(cores[0].registry.generation, shared0.registry_generation());
    let stamped = cores[0].registry.generation;

    let devices = vec![GpuId(0), GpuId(1)];
    let mut handles = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        rank.register_all_reduce(42, 8, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
        let input = DeviceBuffer::from_f32(&[r as f32 + 1.0; 8]);
        let out = DeviceBuffer::zeroed(32);
        handles.push((rank.run_awaitable(42, input, out.clone()).unwrap(), out));
    }
    assert!(shared0.registry_generation() > stamped);
    for _ in 0..200 {
        cores.iter_mut().for_each(|c| {
            c.poll(&CTX);
        });
    }
    assert!(cores[0].registry.generation > stamped, "cache re-stamped");
    drop(cores);
    run_callbacks(&mut world, &ranks);
    for (handle, out) in handles {
        assert_eq!(handle.completions(), 1);
        assert_eq!(out.to_f32_vec(), vec![3.0; 8]);
    }
    assert!(ranks[0].collective_errors().is_empty());
}

/// The world, ranks, test-polled cores and runs of [`held_broadcast`].
type HeldBroadcast = (
    HeldWorld,
    Vec<RankCtx>,
    Vec<DaemonCore>,
    Vec<(CompletionHandle, DeviceBuffer)>,
);

/// A held 3-GPU domain under `config` (1-slot connectors, 1-element chunks)
/// whose ranks registered collective 1, a ring broadcast of `count` floats
/// from rank 0 over `channels` channels. The test thread polls a core per
/// rank; each has admitted its rank's invocation and has not opened a slice
/// yet.
fn held_broadcast(config: DfcclConfig, count: usize, channels: usize) -> HeldBroadcast {
    let config = DfcclConfig {
        connector_capacity: 1,
        chunk_elems: 1,
        ..config
    };
    let domain = DfcclDomain::new(
        Topology::flat(3),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let world = domain.world().hold();
    let devices: Vec<GpuId> = (0..3).map(GpuId).collect();
    let input: Vec<f32> = (0..count).map(|i| i as f32 + 1.0).collect();
    let (mut ranks, mut cores, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    for g in 0..3 {
        let rank = domain.init_rank(GpuId(g)).unwrap();
        let desc = CollectiveDescriptor::broadcast(count, DataType::F32, 0, devices.clone())
            .with_algorithm(AlgorithmKind::Ring)
            .with_channels(channels);
        rank.register(1, desc).unwrap();
        let mut core = DaemonCore::new(Arc::clone(rank.shared_state()));
        let out = DeviceBuffer::zeroed(count * 4);
        let send = DeviceBuffer::from_f32(&input);
        runs.push((rank.run_awaitable(1, send, out.clone()).unwrap(), out));
        assert_eq!(core.poll(&CTX), KernelPoll::Moved, "rank {g} admits");
        ranks.push(rank);
        cores.push(core);
    }
    (world, ranks, cores, runs)
}

/// Poll every core until the broadcast is done everywhere, then check each
/// rank received `1..=count`.
fn finish_broadcast(
    world: &mut HeldWorld,
    ranks: &[RankCtx],
    mut cores: Vec<DaemonCore>,
    runs: Vec<(CompletionHandle, DeviceBuffer)>,
) {
    let owed = || ranks.iter().any(|r| r.shared_state().outstanding() > 0);
    for _ in 0..10_000 {
        if !owed() {
            break;
        }
        cores.iter_mut().for_each(|c| {
            c.poll(&CTX);
        });
    }
    drop(cores);
    run_callbacks(world, ranks);
    for (g, (handle, out)) in runs.into_iter().enumerate() {
        assert_eq!(handle.completions(), 1, "rank {g}");
        let expected: Vec<f32> = (0..out.len() / 4).map(|i| i as f32 + 1.0).collect();
        assert_eq!(out.to_f32_vec(), expected, "rank {g}");
    }
    assert!(ranks.iter().all(|r| r.collective_errors().is_empty()));
}

#[test]
fn each_primitive_of_a_pass_raises_the_adaptive_threshold_once() {
    // Rank 0 is the root: each of its 3 lanes copies, then sends, a chunk
    // per pass.
    let spin = SpinPolicy::Adaptive {
        front_threshold: 2,
        min_threshold: 1,
        success_multiplier: 3,
        max_threshold: 100,
    };
    let config = DfcclConfig {
        spin,
        ..DfcclConfig::for_testing()
    };
    let (mut world, ranks, mut cores, runs) = held_broadcast(config, 6, 3);
    let threshold = |core: &DaemonCore| core.slice.as_ref().unwrap().threshold;
    let primitives = |r: &RankCtx| r.stats().primitives_executed;
    assert_eq!(cores[0].poll(&CTX), KernelPoll::Moved);
    assert_eq!(primitives(&ranks[0]), 3, "one per lane");
    assert_eq!(threshold(&cores[0]), 2 * 3 * 3 * 3, "three raises, not one");
    assert_eq!(cores[0].poll(&CTX), KernelPoll::Moved);
    assert_eq!(
        threshold(&cores[0]),
        100,
        "raises saturate at max_threshold"
    );
    assert_eq!(primitives(&ranks[0]), 6, "one per primitive");
    finish_broadcast(&mut world, &ranks, cores, runs);
}

#[test]
fn a_pass_that_only_flushes_a_staged_chunk_does_not_count_toward_preemption() {
    // Rank 1 forwards the root's chunks to rank 2 over 1-slot connectors.
    let config = DfcclConfig {
        spin: SpinPolicy::Fixed { threshold: 2 },
        ..DfcclConfig::for_testing()
    };
    let (mut world, ranks, mut cores, runs) = held_broadcast(config, 3, 1);
    let preemptions = |r: &RankCtx| r.stats().preemptions;
    let primitives = |r: &RankCtx| r.stats().primitives_executed;
    let wait = |peer, side| EdgeWait {
        peer: GpuId(peer),
        channel: 0,
        side,
    };
    let moved = KernelPoll::Moved;
    // The root copies each chunk into its own recv buffer, then sends it.
    assert_eq!(cores[0].poll(&CTX), moved);
    assert_eq!(cores[0].poll(&CTX), moved, "root sends chunk 0");
    assert_eq!(cores[1].poll(&CTX), moved, "chunk 0 forwarded");
    assert_eq!(cores[0].poll(&CTX), moved);
    assert_eq!(cores[0].poll(&CTX), moved, "root sends chunk 1");
    assert_eq!(cores[1].poll(&CTX), moved, "chunk 1 staged");
    let full = [wait(2, WaitSide::Send)];
    assert_eq!(cores[1].poll(&CTX), KernelPoll::Pending(&full));
    assert_eq!(cores[2].poll(&CTX), moved, "rank 2 takes chunk 0");
    // The staged chunk leaves; chunk 2 has not arrived: a flush-only pass.
    let ran = primitives(&ranks[1]);
    assert_eq!(cores[1].poll(&CTX), moved);
    assert_eq!(primitives(&ranks[1]), ran, "it ran no primitive");
    let empty = [wait(0, WaitSide::Recv)];
    assert_eq!(cores[1].poll(&CTX), KernelPoll::Pending(&empty));
    assert!(
        cores[1].slice.is_some(),
        "the flush reset the fruitless count"
    );
    assert_eq!(preemptions(&ranks[1]), 0);
    assert_eq!(cores[1].poll(&CTX), KernelPoll::Pending(&empty));
    assert!(
        cores[1].slice.is_none(),
        "the second fruitless pass in a row preempts"
    );
    assert_eq!(preemptions(&ranks[1]), 1);
    finish_broadcast(&mut world, &ranks, cores, runs);
}

// ---- the carrier, threaded -----------------------------------------------

#[test]
fn daemon_with_no_work_quits_voluntarily() {
    let shared = started(DfcclConfig::for_testing());
    // The seat launches a daemon for the submission; once its CQE is out
    // nothing is owed, and the idle daemon quits.
    assert!(wait_idle(&shared, Duration::from_secs(5)));
    assert_eq!(shared.outstanding(), 0);
    let snap = shared.telemetry.daemon_stats();
    assert_eq!(snap.daemon_starts, 1);
    assert_eq!(snap.voluntary_quits, 1);
    assert!(!resident(&shared));
    shared.shut_down();
}

/// A configuration under which a daemon with no work parks for a long time
/// instead of quitting: any prompt reaction must come from a wake-up signal,
/// not from a poll quantum.
fn parked_config() -> DfcclConfig {
    DfcclConfig {
        idle_passes_before_quit: 1_000_000,
        idle_spin_passes: 2,
        restart_backoff: Duration::from_millis(500),
        ..DfcclConfig::for_testing()
    }
}

#[test]
fn parked_daemon_is_woken_by_new_sqe_within_latency_bound() {
    let shared = started(parked_config());
    // Let the daemon exhaust its spin passes and park.
    std::thread::sleep(Duration::from_millis(60));
    assert!(resident(&shared), "daemon must still be alive (parked)");

    // Submit work the way the API layer does: SQE first, then the signal.
    submit(&shared, 7);
    let submitted = Instant::now();
    shared.notify_daemon();

    // The daemon errors the unregistered collective and publishes a CQE
    // (which the carrier drains at once; `outstanding` falls at publication).
    let woken = loop {
        if shared.outstanding() == 0 {
            break submitted.elapsed();
        }
        assert!(
            submitted.elapsed() < Duration::from_secs(5),
            "daemon never reacted to the SQE"
        );
        std::hint::spin_loop();
    };
    // The park quantum is 500 ms; an event-driven wake-up must beat it by a
    // wide margin even on a loaded CI machine.
    assert!(
        woken < Duration::from_millis(250),
        "wake-up took {woken:?}, within the park quantum — daemon was polling, not signalled"
    );
    shared.request_exit();
    assert!(wait_idle(&shared, Duration::from_secs(5)));
    shared.shut_down();
}

#[test]
fn parked_daemon_exits_promptly_on_an_exit_request() {
    let shared = started(parked_config());
    std::thread::sleep(Duration::from_millis(60));
    assert!(resident(&shared), "daemon must still be alive (parked)");

    // Request exit (rings the bell of the parked carrier) and time the
    // park-wake → drain → exit chain.
    let start = Instant::now();
    shared.request_exit();
    assert!(wait_idle(&shared, Duration::from_secs(5)));
    let elapsed = start.elapsed();
    // The carrier's park (500 ms quantum) must be cut short by the bell.
    assert!(
        elapsed < Duration::from_millis(250),
        "exit took {elapsed:?} — the carrier slept through its park quantum"
    );
    shared.shut_down();
}

#[test]
fn carrier_restarts_and_drains_what_a_retired_core_left_queued() {
    // A core retired mid-slice hands its context back; the next incarnation
    // (launched by the seat while work is owed) finishes the collective.
    let domain = DfcclDomain::flat_for_testing(2);
    let mut world = domain.world().hold();
    let ranks: Vec<_> = (0..2)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    let devices = vec![GpuId(0), GpuId(1)];
    for rank in &ranks {
        rank.register_all_reduce(1, 8, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    let mut core0 = DaemonCore::new(Arc::clone(ranks[0].shared_state()));
    let out0 = DeviceBuffer::zeroed(32);
    let h0: CompletionHandle = ranks[0]
        .run_awaitable(1, DeviceBuffer::from_f32(&[1.0; 8]), out0.clone())
        .unwrap();
    // Admit, then open the slice: the peer has not submitted, so it blocks.
    assert_eq!(core0.poll(&CTX), KernelPoll::Moved);
    while !waits_on_edges(core0.poll(&CTX)) {}
    drop(core0);
    let h1 = ranks[1]
        .run_awaitable(
            1,
            DeviceBuffer::from_f32(&[2.0; 8]),
            DeviceBuffer::zeroed(32),
        )
        .unwrap();
    for step in 0..10_000 {
        if h0.completions() + h1.completions() == 2 {
            break;
        }
        world.step(GpuId(step % 2));
    }
    assert_eq!((h0.completions(), h1.completions()), (1, 1));
    assert_eq!(out0.to_f32_vec(), vec![3.0; 8]);
    assert_eq!(
        ranks[0].stats().daemon_starts,
        2,
        "the test's core, then the seat's"
    );
}

#[test]
fn daemon_quits_when_device_sync_is_pending() {
    // A held world: the seat launches a daemon for an (unregistered, failed
    // at once) invocation; a barrier issued while it is resident makes its
    // second idle pass quit instead of the 16th, and the barrier drains
    // with it.
    let config = DfcclConfig::for_testing();
    assert!(config.idle_passes_before_quit > 2);
    let domain = DfcclDomain::new(
        Topology::flat(2),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let mut world = domain.world().hold();
    let rank = domain.init_rank(GpuId(0)).unwrap();
    let shared = Arc::clone(rank.shared_state());
    submit(&shared, 99);
    let mut steps = 0;
    while !resident(&shared) {
        steps += 1;
        assert!(steps < 100, "the seat never made a daemon resident");
        world.step(GpuId(0));
    }
    assert!(
        !rank.device_synchronize(Duration::ZERO),
        "the daemon holds it"
    );
    let mut wishes = Vec::new();
    while resident(&shared) {
        assert!(
            wishes.len() < 3,
            "no quit within two idle passes: {wishes:?}"
        );
        wishes.push(world.step(GpuId(0)).unwrap());
    }
    // The invocation's failure, then two idle passes: the second quits.
    assert_eq!(wishes, [Wish::Yield, Wish::Poll], "{wishes:?}");
    assert!(
        rank.device_synchronize(Duration::ZERO),
        "the barrier drained"
    );
    let snap = rank.stats();
    assert_eq!((snap.daemon_starts, snap.voluntary_quits), (1, 1));
    assert_eq!(rank.outstanding(), 0);
    assert_eq!(world.step(GpuId(0)), Some(Wish::Park), "nothing is owed");
}

/// Submit rank `r`'s `round`-th invocation with a callback that records the
/// result and submits round `round + 1` from the carrier running it.
fn resubmit_chain(
    rank: Arc<RankCtx>,
    r: usize,
    round: usize,
    rounds: usize,
    results: Arc<Vec<parking_lot::Mutex<Vec<Vec<f32>>>>>,
    done: Arc<CompletionHandle>,
) {
    const COUNT: usize = 16;
    let input: Vec<f32> = (0..COUNT).map(|i| (r * 7 + round * 3 + i) as f32).collect();
    let recv = DeviceBuffer::zeroed(COUNT * 4);
    let out = recv.clone();
    let next = Arc::clone(&rank);
    rank.run(
        1,
        DeviceBuffer::from_f32(&input),
        recv,
        Box::new(move || {
            results[r].lock().push(out.to_f32_vec());
            if round + 1 < rounds {
                resubmit_chain(next, r, round + 1, rounds, results, done);
            } else {
                (done.completion_callback())();
            }
        }),
    )
    .expect("a callback's submission is admitted");
}

#[test]
fn callbacks_resubmit_from_the_carrier_bit_exact_for_100_rounds() {
    // Each rank's callback submits that rank's next invocation from the
    // carrier that runs it: `run` never waits, so the carrier keeps stepping
    // the peers the next round needs.
    const RANKS: usize = 4;
    const ROUNDS: usize = 100;
    let domain = DfcclDomain::flat_for_testing(RANKS);
    let ranks: Vec<Arc<RankCtx>> = (0..RANKS)
        .map(|g| Arc::new(domain.init_rank(GpuId(g)).unwrap()))
        .collect();
    let devices: Vec<GpuId> = (0..RANKS).map(GpuId).collect();
    for rank in &ranks {
        rank.register_all_reduce(1, 16, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    let results: Arc<Vec<parking_lot::Mutex<Vec<Vec<f32>>>>> = Arc::new(
        (0..RANKS)
            .map(|_| parking_lot::Mutex::new(Vec::new()))
            .collect(),
    );
    let done = Arc::new(CompletionHandle::new());
    for (r, rank) in ranks.iter().enumerate() {
        let (results, done) = (Arc::clone(&results), Arc::clone(&done));
        resubmit_chain(Arc::clone(rank), r, 0, ROUNDS, results, done);
    }
    assert!(
        done.wait_for_timeout(RANKS as u64, Duration::from_secs(30)),
        "only {} of {RANKS} chains finished within 30 s",
        done.completions()
    );
    for (r, seen) in results.iter().enumerate() {
        let seen = seen.lock();
        assert_eq!(seen.len(), ROUNDS, "rank {r}");
        for (round, got) in seen.iter().enumerate() {
            let expected: Vec<f32> = (0..16)
                .map(|i| (0..RANKS).map(|p| (p * 7 + round * 3 + i) as f32).sum())
                .collect();
            assert_eq!(got, &expected, "rank {r}, round {round}");
        }
    }
    for rank in &ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}
