//! Scheduling-throughput harness for the daemon hot path.
//!
//! Drives the full submission→execution→completion pipeline — invoker
//! threads pushing SQEs, one daemon kernel per simulated GPU, batched CQ
//! publication, the event-driven poller — over zero-cost links, so the
//! measured rate is dominated by the *scheduling* machinery the paper's
//! Sec. 5 engineers (and this repository's perf trajectory tracks).
//!
//! The same harness backs the `daemon_throughput` criterion benchmark and the
//! `perf_hotpath` binary that emits `BENCH_hotpath.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl::{
    CompletionHandle, CqVariant, DfcclConfig, DfcclDomain, DfcclError, PlanCacheStats,
    RecoveryCoordinator, RetryPolicy, TenantHandle, TenantQuota,
};
use dfccl_collectives::{DataType, DeviceBuffer, ReduceOp};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{GpuId, GpuSpec};

/// Workload shape for one throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct HotpathWorkload {
    /// Simulated GPUs (ranks).
    pub gpus: usize,
    /// Distinct registered collectives.
    pub collectives: u64,
    /// Invocations of each collective.
    pub rounds: u64,
    /// Elements per all-reduce (kept small so scheduling dominates).
    pub count: usize,
}

impl HotpathWorkload {
    /// The default shape: 16 collectives × 4 rounds of tiny all-reduces.
    pub fn standard(gpus: usize) -> Self {
        HotpathWorkload {
            gpus,
            collectives: 16,
            rounds: 4,
            count: 16,
        }
    }

    /// Total collective operations completed per run (domain-wide).
    pub fn total_collectives(&self) -> u64 {
        self.collectives * self.rounds
    }
}

/// Result of one throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Domain-wide collective operations completed per second.
    pub collectives_per_sec: f64,
    /// Wall-clock time of the submission→completion phase.
    pub elapsed: Duration,
    /// Collective operations completed (domain-wide).
    pub completed: u64,
}

/// Factor applied to the modelled host-memory costs in the throughput
/// benchmark (every panel identically, so every ratio between CQ variants
/// is preserved).
///
/// On the paper's hardware the host-memory operations *dominate* the daemon
/// control path (a CQE write alone is 2–6.9 µs while the on-GPU bookkeeping
/// is nanoseconds). In this reproduction the bookkeeping runs as ordinary
/// CPU code — thread scheduling, context switches, a simulated device — and
/// on the small shared machines that run CI it is inflated well past the
/// modelled host costs, which would make the benchmark measure the
/// simulator instead of the protocol. Scaling the modelled costs restores
/// the paper's host-op-dominated regime.
pub const HOST_COST_SCALE: f64 = 5.0;

/// The benchmark configuration of the hot path: the default SQ fetch batch
/// over the optimized ring CQ with the paper-calibrated
/// host-memory costs (scaled by [`HOST_COST_SCALE`], see there).
///
/// Two further knobs diverge from the production defaults so the measurement
/// is meaningful on small shared machines (CI runs this on a single core):
/// a small *fixed* spin threshold — the adaptive policy's 100 k–10 M polls
/// busy-wait the core that the peer daemon needs, so the daemon must preempt
/// and park quickly for ranks to interleave — and a short park quantum so a
/// parked daemon re-checks connector progress promptly.
pub fn batched_config() -> DfcclConfig {
    use dfccl::{HostMemCosts, SpinPolicy};
    DfcclConfig {
        cq_variant: CqVariant::OptimizedRing,
        host_costs: HostMemCosts::default().scaled(HOST_COST_SCALE),
        spin: SpinPolicy::Fixed { threshold: 128 },
        restart_backoff: Duration::from_micros(5),
        connector_capacity: 64,
        ..DfcclConfig::default()
    }
}

/// Run one scheduling-throughput measurement: every rank submits
/// `collectives × rounds` tiny all-reduces (one invoker thread per rank) and
/// the clock stops when the last completion callback has fired on every rank.
pub fn scheduling_throughput(workload: HotpathWorkload, config: DfcclConfig) -> ThroughputResult {
    scheduling_throughput_over(workload, config, Topology::flat(workload.gpus))
}

/// [`scheduling_throughput`] over an explicit topology (e.g. a multi-node
/// cluster so the hierarchical algorithm is selectable).
pub fn scheduling_throughput_over(
    workload: HotpathWorkload,
    config: DfcclConfig,
    topology: Topology,
) -> ThroughputResult {
    assert!(workload.gpus >= 2, "an all-reduce needs at least two ranks");
    assert_eq!(
        topology.gpu_count(),
        workload.gpus,
        "topology/rank mismatch"
    );
    let domain = DfcclDomain::new(
        topology,
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let devices: Vec<GpuId> = (0..workload.gpus).map(GpuId).collect();
    let ranks: Vec<_> = devices
        .iter()
        .map(|&g| Arc::new(domain.init_rank(g).expect("rank init")))
        .collect();
    for rank in &ranks {
        for c in 1..=workload.collectives {
            rank.register_all_reduce(
                c,
                workload.count,
                DataType::F32,
                ReduceOp::Sum,
                devices.clone(),
                0,
            )
            .expect("register");
        }
    }

    let per_rank = workload.total_collectives();
    let start = Instant::now();
    let mut invokers = Vec::new();
    for (g, rank) in ranks.iter().enumerate() {
        let rank = Arc::clone(rank);
        let wl = workload;
        invokers.push(std::thread::spawn(move || {
            let handle = CompletionHandle::new();
            let input = vec![(g + 1) as f32; wl.count];
            for _ in 0..wl.rounds {
                for c in 1..=wl.collectives {
                    let send = DeviceBuffer::from_f32(&input);
                    let recv = DeviceBuffer::zeroed(wl.count * 4);
                    // Retry on a momentarily full SQ: the benchmark must
                    // measure throughput, not fail on backpressure.
                    loop {
                        match rank.run(c, send.clone(), recv.clone(), handle.completion_callback())
                        {
                            Ok(()) => break,
                            Err(DfcclError::SubmissionQueueFull) => std::thread::yield_now(),
                            Err(e) => panic!("submission failed: {e}"),
                        }
                    }
                }
            }
            assert!(
                handle.wait_for_timeout(per_rank, Duration::from_secs(120)),
                "rank {g} timed out: {}/{} completions",
                handle.completions(),
                per_rank,
            );
        }));
    }
    for j in invokers {
        j.join().expect("invoker thread panicked");
    }
    let elapsed = start.elapsed();
    for rank in &ranks {
        assert!(
            rank.collective_errors().is_empty(),
            "collective errors during bench"
        );
        rank.destroy();
    }
    ThroughputResult {
        collectives_per_sec: per_rank as f64 / elapsed.as_secs_f64(),
        elapsed,
        completed: per_rank,
    }
}

/// [`scheduling_throughput`]'s workload executed fault-free, either plain or
/// with a [`RecoveryCoordinator`] supervising the run. Supervision wraps the
/// transport watchdog around the workload — a progress probe over
/// `edge_samples()` plus stall-deadline bookkeeping — so the delta between
/// the two arms is the price of standing recovery coverage on a healthy
/// domain (the recovery panel gates it at ≤ 5%).
///
/// Submission runs on the calling thread (round-robin across ranks, retrying
/// a momentarily full SQ) in **both** arms, so the only difference between
/// them is the supervisor: the supervised arm sits in
/// [`RecoveryCoordinator::supervise`] until every completion has fired, the
/// plain arm in a completion-handle wait.
pub fn recovery_supervised_throughput(
    workload: HotpathWorkload,
    config: DfcclConfig,
    supervised: bool,
) -> ThroughputResult {
    assert!(workload.gpus >= 2, "an all-reduce needs at least two ranks");
    let domain = DfcclDomain::new(
        Topology::flat(workload.gpus),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let devices: Vec<GpuId> = (0..workload.gpus).map(GpuId).collect();
    let ranks: Vec<_> = devices
        .iter()
        .map(|&g| domain.init_rank(g).expect("rank init"))
        .collect();
    for rank in &ranks {
        for c in 1..=workload.collectives {
            rank.register_all_reduce(
                c,
                workload.count,
                DataType::F32,
                ReduceOp::Sum,
                devices.clone(),
                0,
            )
            .expect("register");
        }
    }

    let per_rank = workload.total_collectives();
    let handles: Vec<CompletionHandle> = ranks.iter().map(|_| CompletionHandle::new()).collect();
    let start = Instant::now();
    for _ in 0..workload.rounds {
        for c in 1..=workload.collectives {
            for (g, rank) in ranks.iter().enumerate() {
                let send = DeviceBuffer::from_f32(&vec![(g + 1) as f32; workload.count]);
                let recv = DeviceBuffer::zeroed(workload.count * 4);
                loop {
                    match rank.run(
                        c,
                        send.clone(),
                        recv.clone(),
                        handles[g].completion_callback(),
                    ) {
                        Ok(()) => break,
                        Err(DfcclError::SubmissionQueueFull) => std::thread::yield_now(),
                        Err(e) => panic!("submission failed: {e}"),
                    }
                }
            }
        }
    }
    if supervised {
        let coordinator = RecoveryCoordinator::new(RetryPolicy::default());
        let rank_refs: Vec<&dfccl::RankCtx> = ranks.iter().collect();
        let done = || handles.iter().all(|h| h.completions() >= per_rank);
        let recoveries = coordinator
            .supervise(&rank_refs, &done, Duration::from_secs(1))
            .expect("fault-free supervision");
        assert_eq!(recoveries, 0, "a fault-free run must not trigger recovery");
    } else {
        for (g, handle) in handles.iter().enumerate() {
            assert!(
                handle.wait_for_timeout(per_rank, Duration::from_secs(120)),
                "rank {g} timed out: {}/{} completions",
                handle.completions(),
                per_rank,
            );
        }
    }
    let elapsed = start.elapsed();
    for rank in &ranks {
        assert!(
            rank.collective_errors().is_empty(),
            "collective errors during bench"
        );
        rank.destroy();
    }
    ThroughputResult {
        collectives_per_sec: per_rank as f64 / elapsed.as_secs_f64(),
        elapsed,
        completed: per_rank,
    }
}

/// Best-of wrapper for [`recovery_supervised_throughput`].
pub fn best_recovery_of(
    repeats: usize,
    workload: HotpathWorkload,
    config: &DfcclConfig,
    supervised: bool,
) -> ThroughputResult {
    assert!(repeats > 0);
    (0..repeats)
        .map(|_| recovery_supervised_throughput(workload, config.clone(), supervised))
        .max_by(|a, b| {
            a.collectives_per_sec
                .partial_cmp(&b.collectives_per_sec)
                .expect("throughput is finite")
        })
        .expect("at least one repeat")
}

/// [`scheduling_throughput`]'s workload spread across `tenants` service-mode
/// tenants: collective `c` is registered under tenant `c % tenants` (weights
/// alternating 1 and 2 so weighted-fair arbitration actually engages), and
/// every rank submits the same mixed stream. The completion rate is the
/// domain-wide figure of merit for the multi-tenant arm of the tenancy panel.
pub fn multi_tenant_throughput(
    workload: HotpathWorkload,
    config: DfcclConfig,
    tenants: usize,
) -> ThroughputResult {
    assert!(workload.gpus >= 2 && tenants >= 1);
    let domain = DfcclDomain::new(
        Topology::flat(workload.gpus),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let handles: Vec<TenantHandle> = (0..tenants)
        .map(|t| domain.tenant(TenantQuota::default().with_weight(1 + (t % 2) as u32)))
        .collect();
    let devices: Vec<GpuId> = (0..workload.gpus).map(GpuId).collect();
    let ranks: Vec<_> = devices
        .iter()
        .map(|&g| Arc::new(domain.init_rank(g).expect("rank init")))
        .collect();
    for rank in &ranks {
        for c in 1..=workload.collectives {
            rank.register_all_reduce_for(
                &handles[(c as usize - 1) % tenants],
                c,
                workload.count,
                DataType::F32,
                ReduceOp::Sum,
                devices.clone(),
                0,
            )
            .expect("register");
        }
    }
    let per_rank = workload.total_collectives();
    let start = Instant::now();
    let mut invokers = Vec::new();
    for (g, rank) in ranks.iter().enumerate() {
        let rank = Arc::clone(rank);
        let wl = workload;
        invokers.push(std::thread::spawn(move || {
            let handle = CompletionHandle::new();
            let input = vec![(g + 1) as f32; wl.count];
            for _ in 0..wl.rounds {
                for c in 1..=wl.collectives {
                    let send = DeviceBuffer::from_f32(&input);
                    let recv = DeviceBuffer::zeroed(wl.count * 4);
                    loop {
                        match rank.run(c, send.clone(), recv.clone(), handle.completion_callback())
                        {
                            Ok(()) => break,
                            Err(DfcclError::SubmissionQueueFull) => std::thread::yield_now(),
                            Err(e) => panic!("submission failed: {e}"),
                        }
                    }
                }
            }
            assert!(
                handle.wait_for_timeout(per_rank, Duration::from_secs(120)),
                "rank {g} timed out: {}/{} completions",
                handle.completions(),
                per_rank,
            );
        }));
    }
    for j in invokers {
        j.join().expect("invoker thread panicked");
    }
    let elapsed = start.elapsed();
    for rank in &ranks {
        assert!(
            rank.collective_errors().is_empty(),
            "collective errors during bench"
        );
        rank.destroy();
    }
    ThroughputResult {
        collectives_per_sec: per_rank as f64 / elapsed.as_secs_f64(),
        elapsed,
        completed: per_rank,
    }
}

/// Best-of wrapper for [`multi_tenant_throughput`].
pub fn best_multi_tenant_of(
    repeats: usize,
    workload: HotpathWorkload,
    config: &DfcclConfig,
    tenants: usize,
) -> ThroughputResult {
    assert!(repeats > 0);
    (0..repeats)
        .map(|_| multi_tenant_throughput(workload, config.clone(), tenants))
        .max_by(|a, b| {
            a.collectives_per_sec
                .partial_cmp(&b.collectives_per_sec)
                .expect("throughput is finite")
        })
        .expect("at least one repeat")
}

/// Run `repeats` measurements and keep the best (max throughput): scheduling
/// benchmarks are noise-sensitive on shared CI machines, and the best run is
/// the one closest to the machine-limited rate.
pub fn best_of(
    repeats: usize,
    workload: HotpathWorkload,
    config: &DfcclConfig,
) -> ThroughputResult {
    best_of_over(repeats, workload, config, &Topology::flat(workload.gpus))
}

/// [`best_of`] over an explicit topology.
pub fn best_of_over(
    repeats: usize,
    workload: HotpathWorkload,
    config: &DfcclConfig,
    topology: &Topology,
) -> ThroughputResult {
    assert!(repeats > 0);
    (0..repeats)
        .map(|_| scheduling_throughput_over(workload, config.clone(), topology.clone()))
        .max_by(|a, b| {
            a.collectives_per_sec
                .partial_cmp(&b.collectives_per_sec)
                .expect("throughput is finite")
        })
        .expect("at least one repeat")
}

/// Result of one registration-throughput measurement: registrations/sec with
/// every registration a distinct shape (cold — plan built, validated and
/// compiled each time) vs. every registration the same shape (plan-cache
/// hit — shared `Arc<Plan>`/`Arc<CompiledProgram>`, no plan construction).
#[derive(Debug, Clone, Copy)]
pub struct RegistrationResult {
    /// Registrations/sec when every registration is a new shape.
    pub cold_per_sec: f64,
    /// Registrations/sec when every registration hits the plan cache.
    pub hit_per_sec: f64,
    /// The domain plan cache's counters after both arms, straight from
    /// `DfcclDomain::cache_stats` — surfaced in the registration panel so the
    /// trajectory tracks cache behaviour, not just wall-clock rates.
    pub cache: PlanCacheStats,
}

impl RegistrationResult {
    /// Cache-hit speedup over cold registration.
    pub fn speedup(&self) -> f64 {
        self.hit_per_sec / self.cold_per_sec
    }
}

/// Measure registration throughput on one rank of a `gpus`-wide domain:
/// `registrations` all-reduces registered with distinct counts (every one a
/// plan-cache miss), then `registrations` with one fixed count (every one a
/// hit after the cold pass seeded the shape). A small chunk size keeps the
/// plans at a realistic couple-hundred instructions so the cold arm measures
/// genuine plan construction, not a degenerate two-step schedule.
pub fn registration_throughput(gpus: usize, registrations: u64) -> RegistrationResult {
    assert!(gpus >= 2 && registrations > 0);
    let config = DfcclConfig {
        chunk_elems: 64,
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(gpus),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let devices: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let ctx = domain.init_rank(GpuId(0)).expect("rank init");
    let base_count = 8 * 1024;

    // Cold arm: every count is distinct, so every registration misses.
    let start = Instant::now();
    for i in 0..registrations {
        ctx.register_all_reduce(
            1 + i,
            base_count + i as usize,
            DataType::F32,
            ReduceOp::Sum,
            devices.clone(),
            0,
        )
        .expect("cold register");
    }
    let cold = registrations as f64 / start.elapsed().as_secs_f64();

    // Hit arm: one fixed shape (seeded by cold registration i = 0), distinct
    // collective ids.
    let start = Instant::now();
    for i in 0..registrations {
        ctx.register_all_reduce(
            1_000_000 + i,
            base_count,
            DataType::F32,
            ReduceOp::Sum,
            devices.clone(),
            0,
        )
        .expect("hit register");
    }
    let hit = registrations as f64 / start.elapsed().as_secs_f64();

    assert_eq!(
        domain.plan_cache().hits(),
        registrations,
        "hit arm must be served from the plan cache"
    );
    let cache = domain.cache_stats();
    ctx.destroy();
    RegistrationResult {
        cold_per_sec: cold,
        hit_per_sec: hit,
        cache,
    }
}

/// Domain-wide cache-hit registration rate: every rank of the domain
/// registers the same `registrations` collectives (one warm-up shape seeds
/// the plan cache), and the rate counts *logical* collectives per second —
/// `registrations / elapsed`, with the wall clock covering all `gpus` ranks'
/// work. A collective is only runnable once every rank has registered it, so
/// this is the number a graph replay (whose wall clock likewise covers every
/// rank's submission and completion) is comparable against.
pub fn spmd_hit_registration_throughput(gpus: usize, registrations: u64) -> f64 {
    assert!(gpus >= 2 && registrations > 0);
    let config = DfcclConfig {
        chunk_elems: 64,
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(gpus),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let devices: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let ranks: Vec<_> = devices
        .iter()
        .map(|&g| domain.init_rank(g).expect("rank init"))
        .collect();
    let base_count = 8 * 1024;
    // Seed the shared plan cache so every timed registration hits.
    ranks[0]
        .register_all_reduce(
            1,
            base_count,
            DataType::F32,
            ReduceOp::Sum,
            devices.clone(),
            0,
        )
        .expect("seed register");
    let start = Instant::now();
    for i in 0..registrations {
        for ctx in &ranks {
            ctx.register_all_reduce(
                1_000_000 + i,
                base_count,
                DataType::F32,
                ReduceOp::Sum,
                devices.clone(),
                0,
            )
            .expect("spmd hit register");
        }
    }
    let rate = registrations as f64 / start.elapsed().as_secs_f64();
    for ctx in ranks {
        ctx.destroy();
    }
    rate
}

/// Result of one graph-replay throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct ReplayResult {
    /// Recorded collectives completed per second per rank: every replay
    /// completes the whole captured step, so one replay counts as
    /// `collectives` operations regardless of how many the fusion pass
    /// coalesced into fused nodes.
    pub replayed_per_sec: f64,
    /// Wall-clock time of the replay phase (capture excluded).
    pub elapsed: Duration,
    /// Nodes in each rank's captured graph after the fusion pass.
    pub graph_nodes: usize,
    /// How many of those nodes are fusions of several recorded collectives.
    pub fused_nodes: usize,
}

/// Measure graph-replay throughput: every rank registers `collectives` tiny
/// same-shape all-reduces of `count` f32 elements each, captures one iteration
/// invoking them all, then replays the graph `rounds` times (one invoker
/// thread per rank, each replay a single SQE with a single completion). With
/// `fusion` enabled the capture coalesces the whole step into one fused
/// all-reduce — the DDP-bucketing effect the panel quantifies; with it
/// disabled (`fusion_threshold_bytes = 0`) the graph holds one node per
/// recorded collective at the same total payload, isolating the fusion win
/// from the replay win.
/// How many identical captured graphs each rank keeps in flight (bounded by
/// `rounds`). See the pipelining comment in [`replay_throughput`].
const REPLAY_PIPELINE_DEPTH: usize = 4;

pub fn replay_throughput(
    gpus: usize,
    collectives: u64,
    count: usize,
    rounds: u64,
    fusion: bool,
) -> ReplayResult {
    assert!(gpus >= 2 && collectives > 0 && count > 0 && rounds > 0);
    let config = DfcclConfig {
        fusion_threshold_bytes: if fusion { 64 * 1024 } else { 0 },
        // The panel isolates submission-path overhead (SQE count, expansion,
        // per-collective scheduling), not chunk bandwidth: keep the whole
        // fused payload in one chunk so both arms pay the same execution
        // cost per byte and the difference is pure per-collective overhead.
        chunk_elems: 256 * 1024,
        ..batched_config()
    }
    // The double binary tree halves the all-reduce critical path vs. the
    // ring at 8 ranks (2·log₂ n stages vs. 2(n−1) steps). On the
    // simulator's serialized cores each sequential step costs a thread
    // wake-up, so the shorter critical path is what keeps this panel
    // measuring replay overhead rather than ring latency.
    .with_algorithm(dfccl_collectives::AlgorithmKind::DoubleBinaryTree);
    let domain = DfcclDomain::new(
        Topology::flat(gpus),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let devices: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let ranks: Vec<_> = devices
        .iter()
        .map(|&g| Arc::new(domain.init_rank(g).expect("rank init")))
        .collect();
    for rank in &ranks {
        for c in 1..=collectives {
            rank.register_all_reduce(c, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
                .expect("register");
        }
    }
    // Capture several identical graphs per rank so replays can pipeline: the
    // in-flight guard serializes rounds of ONE graph, but a training loop
    // that double-buffers iterations keeps more than one captured step in
    // flight, and on the latency-bound single-collective path pipelining is
    // what lets the daemons batch work per wake-up (exactly like the
    // multi-collective submission bench). Same-id concurrency is safe: the
    // per-collective invocation queue is FIFO and every rank expands graphs
    // in the same order.
    let depth = REPLAY_PIPELINE_DEPTH.min(rounds as usize).max(1);
    let mut graphs: Vec<Vec<_>> = Vec::new();
    for (g, rank) in ranks.iter().enumerate() {
        let input = vec![(g + 1) as f32; count];
        let mut rank_graphs = Vec::new();
        for _ in 0..depth {
            let mut rec = rank.begin_capture().expect("capture");
            for c in 1..=collectives {
                rec.record(
                    c,
                    DeviceBuffer::from_f32(&input),
                    DeviceBuffer::zeroed(count * 4),
                )
                .expect("record");
            }
            rank_graphs.push(rec.finish().expect("finish capture"));
        }
        graphs.push(rank_graphs);
    }
    let graph_nodes = graphs[0][0].len();
    let fused_nodes = graphs[0][0].fused_nodes();
    if fusion {
        assert_eq!(
            (graph_nodes, fused_nodes),
            (1, 1),
            "the whole step must fuse into one node"
        );
    } else {
        assert_eq!(
            (graph_nodes as u64, fused_nodes),
            (collectives, 0),
            "fusion disabled must keep one node per collective"
        );
    }

    let start = Instant::now();
    let mut invokers = Vec::new();
    for (g, rank) in ranks.iter().enumerate() {
        let rank = Arc::clone(rank);
        let rank_graphs = graphs[g].clone();
        invokers.push(std::thread::spawn(move || {
            // Round-robin over the captured graphs; a slot is only resubmitted
            // once its previous replay completed (the in-flight guard demands
            // it), so at most `depth` replays are in flight per rank. Retry on
            // a momentarily full SQ like the submission bench.
            let handles: Vec<CompletionHandle> = (0..rank_graphs.len())
                .map(|_| CompletionHandle::new())
                .collect();
            let mut submitted = vec![0u64; rank_graphs.len()];
            for r in 0..rounds {
                let s = (r as usize) % rank_graphs.len();
                if submitted[s] > 0 {
                    assert!(
                        handles[s].wait_for_timeout(submitted[s], Duration::from_secs(120)),
                        "rank {g} replay slot {s} timed out"
                    );
                }
                loop {
                    match rank.replay(&rank_graphs[s], handles[s].completion_callback()) {
                        Ok(()) => break,
                        Err(DfcclError::SubmissionQueueFull) => std::thread::yield_now(),
                        Err(e) => panic!("replay failed: {e}"),
                    }
                }
                submitted[s] += 1;
            }
            for (s, handle) in handles.iter().enumerate() {
                assert!(
                    handle.wait_for_timeout(submitted[s], Duration::from_secs(120)),
                    "rank {g} replay slot {s} drain timed out"
                );
            }
        }));
    }
    for j in invokers {
        j.join().expect("replay thread panicked");
    }
    let elapsed = start.elapsed();
    for rank in &ranks {
        assert!(
            rank.collective_errors().is_empty(),
            "collective errors during replay bench"
        );
        rank.destroy();
    }
    ReplayResult {
        replayed_per_sec: (collectives * rounds) as f64 / elapsed.as_secs_f64(),
        elapsed,
        graph_nodes,
        fused_nodes,
    }
}

/// Best-of wrapper for [`replay_throughput`] (same rationale as [`best_of`]).
pub fn best_replay_of(
    repeats: usize,
    gpus: usize,
    collectives: u64,
    count: usize,
    rounds: u64,
    fusion: bool,
) -> ReplayResult {
    assert!(repeats > 0);
    (0..repeats)
        .map(|_| replay_throughput(gpus, collectives, count, rounds, fusion))
        .max_by(|a, b| {
            a.replayed_per_sec
                .partial_cmp(&b.replayed_per_sec)
                .expect("throughput is finite")
        })
        .expect("at least one repeat")
}

/// Near-best modelled cost of a single per-entry CQE publication per CQ
/// variant (the Fig. 7(c) comparison), in microseconds. The cost is a
/// busy-wait, so a sample can only read high (the thread was descheduled
/// inside it); the minimum over `samples` is the estimate a loaded machine
/// cannot invert.
pub fn cq_push_cost_us(variant: CqVariant, samples: u32) -> f64 {
    let cq = dfccl::build_cq(variant, 64, dfccl::HostMemCosts::default());
    let best = (0..samples)
        .map(|i| {
            let start = Instant::now();
            assert!(cq.push(dfccl::Cqe {
                coll_id: (i % 1024) as u64
            }));
            let elapsed = start.elapsed();
            cq.pop();
            elapsed
        })
        .min()
        .expect("at least one sample");
    best.as_secs_f64() * 1e6
}

/// Near-best modelled cost per CQE of a batched publication (`push_n` with
/// batches of `batch`) per CQ variant, in microseconds: the minimum over
/// `samples` batches, as in [`cq_push_cost_us`].
pub fn cq_push_batched_cost_us(variant: CqVariant, batch: usize, samples: u32) -> f64 {
    let cq = dfccl::build_cq(variant, batch.max(1) * 4, dfccl::HostMemCosts::default());
    let entries: Vec<dfccl::Cqe> = (0..batch as u64)
        .map(|i| dfccl::Cqe { coll_id: i })
        .collect();
    let mut drain = Vec::with_capacity(batch);
    let best = (0..samples)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(cq.push_n(&entries), batch);
            let elapsed = start.elapsed();
            drain.clear();
            cq.drain_into(&mut drain);
            elapsed
        })
        .min()
        .expect("at least one sample");
    best.as_secs_f64() * 1e6 / batch as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_harness_completes_a_tiny_workload() {
        let wl = HotpathWorkload {
            gpus: 2,
            collectives: 3,
            rounds: 2,
            count: 8,
        };
        // Cost-free config keeps this unit test fast.
        let result = scheduling_throughput(wl, DfcclConfig::for_testing());
        assert_eq!(result.completed, 6);
        assert!(result.collectives_per_sec > 0.0);
    }

    #[test]
    fn recovery_supervised_harness_completes_both_arms() {
        let wl = HotpathWorkload {
            gpus: 2,
            collectives: 3,
            rounds: 2,
            count: 8,
        };
        let plain = recovery_supervised_throughput(wl, DfcclConfig::for_testing(), false);
        assert_eq!(plain.completed, 6);
        assert!(plain.collectives_per_sec > 0.0);
        // The supervised arm must complete the same workload without a single
        // recovery (asserted inside the harness) — it is fault-free.
        let supervised = recovery_supervised_throughput(wl, DfcclConfig::for_testing(), true);
        assert_eq!(supervised.completed, 6);
        assert!(supervised.collectives_per_sec > 0.0);
    }

    #[test]
    fn replay_throughput_measures_both_fusion_arms() {
        let fused = replay_throughput(2, 6, 16, 2, true);
        assert!(fused.replayed_per_sec > 0.0);
        assert_eq!((fused.graph_nodes, fused.fused_nodes), (1, 1));
        let unfused = replay_throughput(2, 6, 16, 2, false);
        assert!(unfused.replayed_per_sec > 0.0);
        assert_eq!((unfused.graph_nodes, unfused.fused_nodes), (6, 0));
    }

    #[test]
    fn spmd_hit_registration_counts_logical_collectives() {
        // 8 logical collectives registered on both ranks of a 2-GPU domain;
        // the rate must be positive and the call must not wedge or error.
        let rate = spmd_hit_registration_throughput(2, 8);
        assert!(rate > 0.0);
    }

    #[test]
    fn registration_throughput_measures_both_arms() {
        let r = registration_throughput(4, 32);
        assert!(r.cold_per_sec > 0.0 && r.hit_per_sec > 0.0);
        // The cache counters ride along for the panel: 32 hits from the hit
        // arm, 32 distinct shapes built and retained by the cold arm.
        assert_eq!(r.cache.hits, 32);
        assert_eq!(r.cache.misses, 32);
        assert_eq!(r.cache.size, 32);
        // The cache-hit arm skips plan building entirely; even on a noisy
        // machine it must not be slower than cold registration.
        assert!(
            r.speedup() > 1.0,
            "cache hits slower than cold: {:.0}/s vs {:.0}/s",
            r.hit_per_sec,
            r.cold_per_sec
        );
    }

    #[test]
    fn cq_cost_probes_reproduce_fig7c_ordering() {
        let vanilla = cq_push_cost_us(CqVariant::VanillaRing, 50);
        let ring = cq_push_cost_us(CqVariant::OptimizedRing, 50);
        let slot = cq_push_cost_us(CqVariant::OptimizedSlot, 50);
        assert!(vanilla > ring && ring > slot, "{vanilla} / {ring} / {slot}");
        // Batched ring publication beats its own per-entry cost.
        let ring_batched = cq_push_batched_cost_us(CqVariant::OptimizedRing, 16, 20);
        assert!(ring_batched < ring, "batched {ring_batched} vs {ring}");
    }
}
