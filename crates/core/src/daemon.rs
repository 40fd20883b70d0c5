//! The daemon kernel: execution, preemption and scheduling of collectives
//! (Sec. 4, Algorithm 1).
//!
//! One daemon kernel runs per GPU. In this reproduction it is a dedicated
//! thread that:
//!
//! 1. acquires kernel residency on its [`gpu_sim::GpuDevice`] (so it interacts
//!    with device synchronization exactly like a persistent kernel would);
//! 2. fetches SQEs in batches (one cursor-lock acquisition and one SQ head
//!    read per burst), maintains the task queue, and orders it by the
//!    configured policy;
//! 3. executes each scheduled collective's primitives in a *two-phase
//!    blocking* manner: a primitive polls its connector conditions up to the
//!    collective's spin threshold and, if it cannot proceed, the collective is
//!    deemed *stuck* and preempted (its dynamic context saved, the next
//!    collective scheduled);
//! 4. buffers CQEs for completed collectives and publishes them with batched
//!    CQ rounds, amortizing the queue-claim atomics and (on the ring
//!    variants) the fence across the batch;
//! 5. quits voluntarily when idle (releasing the GPU and letting pending
//!    device synchronizations drain) and is restarted event-driven when new
//!    SQEs arrive or completions are still owed.
//!
//! ## The event-driven hot path
//!
//! The control path is signal-driven end to end (see [`crate::park::Parker`]):
//! an invoker pushing an SQE signals the daemon's parker; the daemon
//! publishing a CQE batch signals the poller's parker; the daemon announcing
//! its exit signals the idle parker that [`DaemonController::wait_idle`]
//! waits on. Nothing on the steady-state path sleep-polls. When the daemon
//! runs out of work it first spins for a few cheap passes (sub-microsecond
//! wake-up while a burst is still arriving), then parks on its wake-up
//! signal, and finally quits voluntarily once the configured idle budget is
//! exhausted.
//!
//! Steady-state scheduling also takes no locks for static-context lookups:
//! registered collectives are cached in a daemon-local map stamped with the
//! registry generation, and the `RwLock` registry is only consulted when the
//! generation moves (i.e. someone registered a new collective).
//!
//! ## The service-mode pipeline
//!
//! A scheduling pass is four explicit stages (DESIGN.md §8):
//!
//! * **admission** ([`admission_stage`]) — fetch SQE batches, expand graph
//!   replays, and enqueue invocations on their tenant's scheduling lane
//!   (per-tenant quota checks happen API-side at submit time, where the
//!   typed [`crate::tenant::AdmissionError`] backpressure can be returned);
//! * **schedule** ([`schedule_stage`]) — one weighted-fair / strict-priority
//!   arbitration pass over the per-tenant lanes
//!   ([`crate::task_queue::TenantScheduler`]), preserving FIFO/priority
//!   semantics within each tenant;
//! * **execute** ([`execute_stage`]) — compiled-lane dispatch with
//!   two-phase blocking per slice;
//! * **complete** ([`complete_stage`]) — batched CQE publication with
//!   per-tenant completion routing and accounting.
//!
//! With one tenant (or `DfcclConfig::flat_scheduling`) the pipeline reduces
//! to the pre-service flat schedule.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dfccl_collectives::{
    execute_ready_instr, flush_pending_compiled, instr_ready, CollectiveDescriptor,
    CompiledProgram, GraphOp, Plan, StepOutcome,
};
use dfccl_transport::{Communicator, ConnectorTable};
use gpu_sim::{GpuDevice, GpuId};
use parking_lot::{Mutex, RwLock};

use crate::callback::CallbackMap;
use crate::config::DfcclConfig;
use crate::context::{ContextLoad, ContextStore, DynamicContext, GraphTag};
use crate::cq::{CqKind, Cqe};
use crate::park::Parker;
use crate::sq::{SqCursor, Sqe, SubmissionQueue};
use crate::stats::DaemonStats;
use crate::task_queue::TenantScheduler;
use crate::telemetry::{Telemetry, TelemetryEventKind};
use crate::tenant::{TenantId, TenantState, TenantTable};

/// Static context of a registered collective on one rank: everything that is
/// fixed at registration time (Sec. 4.2).
pub struct RegisteredCollective {
    /// The collective id chosen by the user at registration.
    pub coll_id: u64,
    /// The collective's descriptor.
    pub desc: CollectiveDescriptor,
    /// This GPU's rank within the collective's device set.
    pub rank: usize,
    /// The tenant that registered the collective (service mode); tenant 0
    /// for handle-less registrations.
    pub tenant: TenantId,
    /// The communicator backing the collective.
    pub communicator: Arc<Communicator>,
    /// This rank's schedule in plan-IR form (shared with the plan cache).
    pub plan: Arc<Plan>,
    /// The plan lowered into its flat per-channel program (shared with the
    /// plan cache): dense instructions with pre-resolved connector indices.
    pub program: Arc<CompiledProgram>,
    /// The program's connector indices bound to this registration's actual
    /// connectors — what the compiled hot loop dereferences per poll.
    pub table: ConnectorTable,
}

/// High bit reserved in the SQE collective-id space for graph replays: an SQE
/// whose `coll_id` has this bit set (and is not the exit marker, which is
/// checked first) names a captured graph, and the daemon expands it into the
/// graph's pre-resolved per-node invocations instead of enqueuing a single
/// collective. Graph ids are rank-local (`GRAPH_ID_BASE | counter`); they
/// never cross the wire, so ranks need not agree on them.
pub const GRAPH_ID_BASE: u64 = 1 << 63;

/// Whether an SQE collective id names a graph replay.
pub fn is_graph_id(coll_id: u64) -> bool {
    coll_id & GRAPH_ID_BASE != 0
}

/// One node of a captured graph: the (possibly fused) recorded operation and
/// its registration, resolved at capture time so replay touches neither the
/// registry lock nor the plan cache.
pub struct GraphNode {
    /// The recorded operation (buffers fixed at capture).
    pub op: GraphOp,
    /// The pre-resolved static context the daemon executes the node with.
    pub reg: Arc<RegisteredCollective>,
}

/// An immutable captured iteration graph, ready for replay. Created by
/// `RankCtx::begin_capture` / `GraphRecorder::finish`; submitted whole by
/// `RankCtx::replay` as one SQE carrying the graph id.
pub struct CapturedGraph {
    /// The replay id (`GRAPH_ID_BASE | counter`, unique per rank).
    pub graph_id: u64,
    /// The GPU whose rank context captured this graph (replay is only valid
    /// on the same rank — the nodes hold that rank's connectors).
    pub gpu: GpuId,
    /// The nodes, in recorded submission order, after the fusion pass.
    pub nodes: Vec<GraphNode>,
    /// Guards against overlapping replays of one graph: the staging buffers
    /// and recorded recv buffers are fixed addresses, so a second in-flight
    /// replay would race the first. Set by `replay`, cleared by the daemon
    /// after the final node's completion (and scatter).
    pub(crate) in_flight: AtomicBool,
}

impl CapturedGraph {
    /// Number of collectives one replay executes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// How many of the recorded collectives were coalesced into fused nodes.
    pub fn fused_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, GraphOp::Fused(_)))
            .count()
    }
}

/// Countdown state of one in-flight graph replay: lives in [`DaemonShared`]
/// (not the daemon thread) so it survives voluntary quits and restarts.
struct GraphRun {
    graph: Arc<CapturedGraph>,
    /// Nodes not yet completed or failed. At zero the run is torn down and
    /// the graph's single CQE is published.
    remaining: usize,
}

/// State shared between the API layer, the poller thread and the daemon-kernel
/// thread (and surviving daemon restarts).
pub struct DaemonShared {
    /// The GPU this daemon serves.
    pub gpu: GpuId,
    /// The device model (residency + synchronization interplay).
    pub device: Arc<GpuDevice>,
    /// Runtime configuration.
    pub config: DfcclConfig,
    /// The submission queue.
    pub sq: Arc<SubmissionQueue>,
    /// The completion queue (statically dispatched).
    pub cq: Arc<CqKind>,
    /// Completion callbacks.
    pub callbacks: Arc<CallbackMap>,
    /// Registered collectives (static contexts). The daemon thread reads
    /// these through a generation-stamped local cache; see
    /// [`DaemonShared::registry_generation`].
    pub registered: RwLock<HashMap<u64, Arc<RegisteredCollective>>>,
    /// Bumped after every mutation of `registered`; lets the daemon detect
    /// staleness of its lock-free local cache.
    registry_generation: AtomicU64,
    /// Dynamic contexts of pending invocations (the collective context buffer).
    pub contexts: ContextStore,
    /// Captured graphs available for replay, keyed by graph id.
    pub graphs: RwLock<HashMap<u64, Arc<CapturedGraph>>>,
    /// In-flight graph replays keyed by `(graph_id, run)`; like `contexts`,
    /// this survives daemon restarts mid-replay.
    graph_runs: Mutex<HashMap<(u64, u64), GraphRun>>,
    /// Statistics.
    pub stats: Arc<DaemonStats>,
    /// Structured telemetry: lifecycle event ring + always-on counters
    /// (capacity from [`DfcclConfig::telemetry_events`]).
    pub telemetry: Arc<Telemetry>,
    /// Per-tenant admission counters and lifecycle accounting (service
    /// mode). Tenants without an explicit handle get
    /// [`DfcclConfig::tenant_quota`].
    pub tenants: Arc<TenantTable>,
    /// Collectives that failed with a protocol error, and why.
    pub errors: Mutex<HashMap<u64, String>>,
    /// Whether a daemon thread is currently alive.
    running: AtomicBool,
    /// Set when the exiting SQE has been read (or destroy was requested).
    final_exit: AtomicBool,
    /// SQ read cursor; persists across daemon restarts.
    sq_cursor: Mutex<SqCursor>,
    /// Invocations submitted but not yet completed.
    pub outstanding: AtomicU64,
    /// Bumped by the recovery coordinator after it reinstalls rolled-back
    /// contexts: reinstalled invocations arrive without an SQE, so a running
    /// daemon must re-scan the context store to pick them up (an idle daemon
    /// finds them in its restart rebuild instead).
    rescan: AtomicU64,
    /// Wake-up signal for the daemon thread (new SQE, exit request).
    daemon_wake: Parker,
    /// Wake-up signal for the poller thread (CQE batch published, stop).
    cq_ready: Parker,
    /// Signalled when the daemon thread stops running (for `wait_idle`).
    idle_signal: Parker,
}

impl DaemonShared {
    /// Create the shared state for one rank.
    pub fn new(
        gpu: GpuId,
        device: Arc<GpuDevice>,
        config: DfcclConfig,
        sq: Arc<SubmissionQueue>,
        cq: Arc<CqKind>,
        callbacks: Arc<CallbackMap>,
    ) -> Arc<Self> {
        let contexts = ContextStore::new(
            config.active_context_slots,
            config.context_load_ns,
            config.context_save_ns,
        );
        let telemetry = Telemetry::new(config.telemetry_events);
        let tenants = TenantTable::new(config.tenant_quota);
        Arc::new(DaemonShared {
            gpu,
            device,
            config,
            sq,
            cq,
            callbacks,
            registered: RwLock::new(HashMap::new()),
            registry_generation: AtomicU64::new(1),
            contexts,
            graphs: RwLock::new(HashMap::new()),
            graph_runs: Mutex::new(HashMap::new()),
            stats: Arc::new(DaemonStats::default()),
            telemetry,
            tenants,
            errors: Mutex::new(HashMap::new()),
            running: AtomicBool::new(false),
            final_exit: AtomicBool::new(false),
            sq_cursor: Mutex::new(SqCursor::default()),
            outstanding: AtomicU64::new(0),
            rescan: AtomicU64::new(0),
            daemon_wake: Parker::new(),
            cq_ready: Parker::new(),
            idle_signal: Parker::new(),
        })
    }

    /// Whether the daemon thread is currently alive.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }

    /// Whether the exiting SQE has been consumed (or exit was forced).
    pub fn final_exit_requested(&self) -> bool {
        self.final_exit.load(Ordering::Acquire)
    }

    /// Invocations submitted but not yet completed.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Current registry generation (bumped on every registration).
    pub fn registry_generation(&self) -> u64 {
        self.registry_generation.load(Ordering::Acquire)
    }

    /// Announce a registry mutation (called with the write lock released).
    pub fn bump_registry_generation(&self) {
        self.registry_generation.fetch_add(1, Ordering::Release);
    }

    /// Wake the daemon thread: a new SQE is visible or an exit was requested.
    pub fn notify_daemon(&self) {
        self.daemon_wake.signal();
    }

    /// Ask a running daemon to re-scan the context store for pending
    /// invocations it is not tracking (recovery reinstalls rolled-back
    /// contexts without an SQE). A daemon between incarnations picks them up
    /// through its restart rebuild instead.
    pub fn request_rescan(&self) {
        self.rescan.fetch_add(1, Ordering::Release);
        self.daemon_wake.signal();
    }

    fn rescan_generation(&self) -> u64 {
        self.rescan.load(Ordering::Acquire)
    }

    /// Wake the poller thread: CQEs are visible (or a stop was requested).
    pub fn notify_poller(&self) {
        self.cq_ready.signal();
    }

    /// Mark the daemon thread as no longer running and wake `wait_idle`.
    fn mark_not_running(&self) {
        self.running.store(false, Ordering::Release);
        self.idle_signal.signal();
    }
}

/// Starts, restarts and joins daemon-kernel threads for one rank.
pub struct DaemonController {
    shared: Arc<DaemonShared>,
    join: Mutex<Option<JoinHandle<()>>>,
}

impl DaemonController {
    /// Create a controller over shared state.
    pub fn new(shared: Arc<DaemonShared>) -> Arc<Self> {
        Arc::new(DaemonController {
            shared,
            join: Mutex::new(None),
        })
    }

    /// The shared state.
    pub fn shared(&self) -> &Arc<DaemonShared> {
        &self.shared
    }

    /// Start the daemon kernel if it is not already running (event-driven
    /// starting: called on SQE insertion and by the poller while completions
    /// are owed). A daemon that is alive but parked is woken instead.
    pub fn ensure_running(&self) {
        // Wake a parked incarnation first: if the daemon is alive, this is
        // the whole job; if it is mid-exit, the spawn below takes over.
        self.shared.notify_daemon();
        if self.shared.final_exit_requested() && self.shared.outstanding() == 0 {
            return;
        }
        if self
            .shared
            .running
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("dfccl-daemon-{}", shared.gpu))
            .spawn(move || run_daemon(shared))
            .expect("failed to spawn daemon kernel thread");
        let mut join = self.join.lock();
        // Reap the previous incarnation's handle, if any; it has exited
        // (running was false when we swapped it).
        if let Some(old) = join.take() {
            let _ = old.join();
        }
        *join = Some(handle);
    }

    /// Force the exit flag (used by `dfccl_destroy` alongside the exiting SQE)
    /// and wake the daemon so it observes the request immediately.
    pub fn request_exit(&self) {
        self.shared.final_exit.store(true, Ordering::Release);
        self.shared.notify_daemon();
    }

    /// Wait until the daemon thread is no longer running, up to `timeout`.
    /// Event-driven: the daemon signals its exit, so this returns as soon as
    /// the daemon stops instead of discovering it on a 200 µs polling grid.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let seen = self.shared.idle_signal.generation();
            if !self.shared.is_running() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.shared
                .idle_signal
                .park_if_unchanged(seen, deadline - now);
        }
        if let Some(h) = self.join.lock().take() {
            let _ = h.join();
        }
        true
    }
}

/// Daemon-local, lock-free cache of the registered-collective table, stamped
/// with the registry generation. Steady-state lookups (the overwhelmingly
/// common case) touch no `RwLock`; the table is re-read only when a
/// registration actually happened.
struct RegistryCache {
    map: HashMap<u64, Arc<RegisteredCollective>>,
    generation: u64,
}

impl RegistryCache {
    fn new() -> Self {
        RegistryCache {
            map: HashMap::new(),
            generation: 0,
        }
    }

    fn get(&mut self, shared: &DaemonShared, coll_id: u64) -> Option<Arc<RegisteredCollective>> {
        let generation = shared.registry_generation();
        if generation != self.generation {
            self.map = shared.registered.read().clone();
            self.generation = generation;
        }
        self.map.get(&coll_id).cloned()
    }
}

/// Daemon-local cache of [`TenantState`] handles, so per-slice accounting
/// (preemptions, failures) costs a `HashMap` hit instead of the table's
/// `RwLock`. States are immutable per tenant, so entries never go stale.
struct TenantCache {
    map: HashMap<TenantId, Arc<TenantState>>,
}

impl TenantCache {
    fn new() -> Self {
        TenantCache {
            map: HashMap::new(),
        }
    }

    fn get(&mut self, shared: &DaemonShared, tenant: TenantId) -> Arc<TenantState> {
        Arc::clone(
            self.map
                .entry(tenant)
                .or_insert_with(|| shared.tenants.state(tenant)),
        )
    }
}

/// Completion-batch flush threshold: the daemon buffers CQEs for completed
/// collectives and publishes them with one batched CQ round once this many
/// are pending. The batch also flushes at the end of every scheduling pass,
/// so completions are never delayed across passes.
const CQ_WRITE_BATCH: usize = 16;

/// Pending CQEs with their owning tenants (parallel vectors — the `Cqe` wire
/// format is unchanged; tenant routing is daemon-side bookkeeping).
struct CompletionBatch {
    cqes: Vec<Cqe>,
    tenants: Vec<TenantId>,
}

impl CompletionBatch {
    fn with_capacity(n: usize) -> Self {
        CompletionBatch {
            cqes: Vec::with_capacity(n),
            tenants: Vec::with_capacity(n),
        }
    }
}

/// Append a completion to the pending CQE batch, flushing when the batch
/// threshold is reached. The `Complete` telemetry event means "a CQE was
/// enqueued" — failed collectives produce a `Failed` event *and* a
/// `Complete` (their failure is still delivered through the CQ).
fn enqueue_completion(
    shared: &Arc<DaemonShared>,
    batch: &mut CompletionBatch,
    coll_id: u64,
    tenant: TenantId,
) {
    shared
        .telemetry
        .record(coll_id, TelemetryEventKind::Complete);
    batch.cqes.push(Cqe { coll_id });
    batch.tenants.push(tenant);
    if batch.cqes.len() >= CQ_WRITE_BATCH {
        flush_completions(shared, batch);
    }
}

/// The **complete** stage: publish the pending CQE batch with batched CQ
/// rounds, route each completion to its tenant's accounting, update rank-wide
/// accounting and wake the poller.
fn flush_completions(shared: &Arc<DaemonShared>, batch: &mut CompletionBatch) {
    if batch.cqes.is_empty() {
        return;
    }
    // Per-collective and per-tenant accounting lands before the CQEs become
    // visible: a caller woken by its completion callback then already sees
    // the completion in `stats()` / `tenant_stats()`.
    let flat = shared.config.flat_scheduling;
    for (cqe, tenant) in batch.cqes.iter().zip(batch.tenants.iter()) {
        shared.stats.record_completion(cqe.coll_id);
        if !flat {
            shared.tenants.state(*tenant).on_complete();
        }
    }
    let write_start = Instant::now();
    let mut offset = 0;
    while offset < batch.cqes.len() {
        let pushed = shared.cq.push_n(&batch.cqes[offset..]);
        offset += pushed;
        if pushed == 0 {
            // CQ full: the poller owns previously published entries, so wake
            // it and yield — on a single core the poller needs this CPU to
            // drain before the push can succeed.
            shared.notify_poller();
            std::thread::yield_now();
        }
    }
    let published = batch.cqes.len() as u64;
    shared
        .stats
        .record_cqe_write_batch(write_start.elapsed(), published);
    // `outstanding` moves only after publication: the poller's stop
    // condition and `destroy` read it as "no CQE is still owed".
    let previous = shared.outstanding.fetch_sub(published, Ordering::AcqRel);
    debug_assert!(
        previous >= published,
        "completion without a matching submission"
    );
    batch.cqes.clear();
    batch.tenants.clear();
    shared.notify_poller();
}

/// Enqueue `coll_id` on its tenant's scheduling lane with the configured
/// initial spin threshold for its arrival position (satellite: the threshold
/// comes from [`DfcclConfig::spin`] at push time, not a silent 0).
fn enqueue_task(
    shared: &Arc<DaemonShared>,
    scheduler: &mut TenantScheduler,
    tenant_cache: &mut TenantCache,
    coll_id: u64,
    priority: i32,
    tenant: TenantId,
) {
    let state = tenant_cache.get(shared, tenant);
    let initial_spin = shared.config.spin.initial_threshold(scheduler.len());
    scheduler.push(coll_id, &state, priority, initial_spin);
}

/// Expand a graph-replay SQE (admission): insert the run's countdown state
/// and enqueue one pre-tagged invocation per node, in recorded order, on the
/// registering tenant's lane. The nodes then flow through the ordinary
/// scheduling pass; only their completions are routed differently (see
/// [`complete_graph_node`]).
fn expand_graph(
    shared: &Arc<DaemonShared>,
    scheduler: &mut TenantScheduler,
    tenant_cache: &mut TenantCache,
    completions: &mut CompletionBatch,
    graph_id: u64,
    run: u64,
) {
    let Some(graph) = shared.graphs.read().get(&graph_id).cloned() else {
        // Replay of a graph this rank never captured: fail it like an
        // unregistered collective instead of hanging the submitter.
        shared
            .errors
            .lock()
            .insert(graph_id, "graph not captured on this rank".to_string());
        shared
            .telemetry
            .record(graph_id, TelemetryEventKind::Failed);
        enqueue_completion(shared, completions, graph_id, TenantId::DEFAULT);
        return;
    };
    shared.graph_runs.lock().insert(
        (graph_id, run),
        GraphRun {
            graph: Arc::clone(&graph),
            remaining: graph.nodes.len(),
        },
    );
    for (node, graph_node) in graph.nodes.iter().enumerate() {
        let coll_id = graph_node.op.coll_id();
        let mut ctx = DynamicContext::new(
            run,
            graph_node.op.send_buffer().clone(),
            graph_node.op.recv_buffer().clone(),
        );
        ctx.graph = Some(GraphTag {
            graph_id,
            run,
            node: node as u32,
        });
        shared.contexts.enqueue_invocation(coll_id, ctx);
        if !scheduler.contains(coll_id) {
            enqueue_task(
                shared,
                scheduler,
                tenant_cache,
                coll_id,
                graph_node.reg.desc.priority,
                graph_node.reg.tenant,
            );
        }
        shared
            .stats
            .record_queue_len(coll_id, scheduler.len() as u64);
    }
}

/// Route a graph-tagged invocation's completion (❹): scatter a fused node's
/// result back into its members' recorded recv buffers, count the node down
/// against its run, and — when the run's last node finishes — tear the run
/// down, clear the graph's in-flight guard and publish the graph's single
/// CQE. A failed node records its error under the *graph* id (first failure
/// wins) and still counts down, so the replay's completion always fires.
fn complete_graph_node(
    shared: &Arc<DaemonShared>,
    completions: &mut CompletionBatch,
    tag: GraphTag,
    failed: Option<String>,
) {
    let ok = failed.is_none();
    if let Some(reason) = failed {
        shared.errors.lock().entry(tag.graph_id).or_insert(reason);
    }
    let finished = {
        let mut runs = shared.graph_runs.lock();
        let key = (tag.graph_id, tag.run);
        let Some(state) = runs.get_mut(&key) else {
            debug_assert!(false, "graph node completed without a matching run");
            return;
        };
        if ok {
            if let GraphOp::Fused(fused) = &state.graph.nodes[tag.node as usize].op {
                fused.scatter();
            }
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            Some(runs.remove(&key).expect("run present").graph)
        } else {
            None
        }
    };
    if let Some(graph) = finished {
        graph.in_flight.store(false, Ordering::Release);
        // The replay's single CQE is accounted to the tenant that captured
        // the graph (the first node's registering tenant — capture is
        // rank-local, so all nodes share it in practice).
        let tenant = graph
            .nodes
            .first()
            .map(|n| n.reg.tenant)
            .unwrap_or(TenantId::DEFAULT);
        enqueue_completion(shared, completions, tag.graph_id, tenant);
    }
}

/// Outcome of one scheduling slice (the time a collective holds the daemon
/// between being scheduled and completing, failing or being preempted).
struct SliceRun {
    /// The collective was preempted (spin threshold exhausted mid-plan).
    preempted: bool,
    /// The collective failed with a protocol error.
    failed: Option<String>,
    /// The slice published data or completed primitives (drives the idle
    /// accounting of the pass).
    progressed: bool,
    /// The spin threshold after adaptive raises, to persist in the task
    /// queue for the collective's next slice.
    threshold: u64,
}

/// Execute one slice of `reg` through its compiled program: every pass polls
/// each lane's head instruction (pure index dispatch into the bound
/// connector table — no map lookups) and executes the ready ones, so a
/// stalled channel never head-of-line-blocks a ready one. Two-phase blocking
/// applies to the slice as a whole: a full pass over the lanes with no
/// progress counts as one poll, and the collective is preempted once the
/// spin threshold of fruitless passes is exhausted — with `K = 1` this
/// degenerates to per-primitive polling.
fn run_compiled_slice(
    shared: &Arc<DaemonShared>,
    reg: &RegisteredCollective,
    ctx: &mut DynamicContext,
    spin: crate::config::SpinPolicy,
    mut threshold: u64,
) -> SliceRun {
    let coll_id = reg.coll_id;
    let program = reg.program.as_ref();
    ctx.ensure_lanes(program.lane_count());
    let mut progressed = false;
    let mut polls: u64 = 0;
    loop {
        let mut advanced = false;
        let mut remaining = false;
        for (li, lane) in program.lanes().iter().enumerate() {
            let cur = ctx.lane_cursors[li] as usize;
            if cur >= lane.len() {
                continue;
            }
            remaining = true;
            let idx = lane.instr_ids()[cur];
            // Phase barrier first (cross-phase local-buffer dependencies may
            // cross lanes), then the connector conditions.
            if !program.instr_eligible(idx, &ctx.lane_cursors)
                || !instr_ready(program, idx, &reg.table, &ctx.pending_sends)
            {
                continue;
            }
            let staged_before = ctx.pending_sends.len();
            let exec_start = Instant::now();
            match execute_ready_instr(
                coll_id,
                program,
                idx,
                &reg.table,
                reg.desc.op,
                &ctx.send,
                &ctx.recv,
                &mut ctx.pending_sends,
            ) {
                Ok(StepOutcome::Completed) => {
                    shared.stats.record_primitive(exec_start.elapsed());
                    ctx.lane_cursors[li] += 1;
                    ctx.next_step += 1;
                    ctx.progressed_since_save = true;
                    advanced = true;
                    // Adaptive stickiness: a successful primitive raises the
                    // threshold of its successors (decentralized dynamic
                    // gang-scheduling).
                    threshold = spin.on_success(threshold);
                }
                Ok(StepOutcome::NotReady) => {
                    // The executor may still have flushed staged chunks on
                    // other channels — published data is progress.
                    if ctx.pending_sends.len() < staged_before {
                        advanced = true;
                    }
                }
                Err(e) => {
                    return SliceRun {
                        preempted: false,
                        failed: Some(e.to_string()),
                        progressed,
                        threshold,
                    };
                }
            }
        }
        if !remaining {
            // Every lane is done; the collective completes once the staged
            // chunks (at most one per channel) are on the wire.
            let staged_before = ctx.pending_sends.len();
            match flush_pending_compiled(program, &reg.table, &mut ctx.pending_sends) {
                Ok(true) => {
                    return SliceRun {
                        preempted: false,
                        failed: None,
                        progressed: true,
                        threshold,
                    };
                }
                Ok(false) => {
                    if ctx.pending_sends.len() < staged_before {
                        advanced = true;
                    }
                }
                Err(e) => {
                    return SliceRun {
                        preempted: false,
                        failed: Some(e.to_string()),
                        progressed,
                        threshold,
                    };
                }
            }
        }
        if advanced {
            progressed = true;
            polls = 0;
            continue;
        }
        polls += 1;
        if polls >= threshold {
            return SliceRun {
                preempted: true,
                failed: None,
                progressed,
                threshold,
            };
        }
        std::hint::spin_loop();
    }
}

/// Daemon-local state threaded through the pipeline stages of one
/// incarnation.
struct PipelineState {
    registry: RegistryCache,
    scheduler: TenantScheduler,
    tenant_cache: TenantCache,
    completions: CompletionBatch,
    sqe_batch: Vec<Sqe>,
}

/// The **admission** stage: fetch and parse SQEs, a batch per cursor-lock
/// acquisition; expand graph replays; enqueue each invocation on its
/// tenant's scheduling lane. Returns whether anything was fetched.
fn admission_stage(shared: &Arc<DaemonShared>, st: &mut PipelineState) -> bool {
    let PipelineState {
        registry,
        scheduler,
        tenant_cache,
        completions,
        sqe_batch,
    } = st;
    let sq_fetch_batch = shared.config.sq_fetch_batch.max(1);
    let mut fetched_any = false;
    loop {
        let read_start = Instant::now();
        sqe_batch.clear();
        let fetched = {
            let mut cursor = shared.sq_cursor.lock();
            shared
                .sq
                .fetch_batch(&mut cursor, sq_fetch_batch, sqe_batch)
        };
        if fetched == 0 {
            break;
        }
        shared
            .stats
            .record_sqe_fetch_batch(read_start.elapsed(), fetched as u64);
        fetched_any = true;
        let prep_start = Instant::now();
        for sqe in sqe_batch.drain(..) {
            if sqe.exit {
                shared.final_exit.store(true, Ordering::Release);
                continue;
            }
            shared
                .telemetry
                .record(sqe.coll_id, TelemetryEventKind::Fetch);
            if is_graph_id(sqe.coll_id) {
                expand_graph(
                    shared,
                    scheduler,
                    tenant_cache,
                    completions,
                    sqe.coll_id,
                    sqe.seq,
                );
                continue;
            }
            let (priority, tenant) = registry
                .get(shared, sqe.coll_id)
                .map(|r| (r.desc.priority, r.tenant))
                .unwrap_or((0, TenantId::DEFAULT));
            shared.contexts.enqueue_invocation(
                sqe.coll_id,
                DynamicContext::new(sqe.seq, sqe.send, sqe.recv),
            );
            if !scheduler.contains(sqe.coll_id) {
                enqueue_task(
                    shared,
                    scheduler,
                    tenant_cache,
                    sqe.coll_id,
                    priority,
                    tenant,
                );
            }
            shared
                .stats
                .record_queue_len(sqe.coll_id, scheduler.len() as u64);
        }
        shared.stats.record_preparing(prep_start.elapsed());
    }
    fetched_any
}

/// (Re)build the scheduling lanes from the context store: every collective
/// with pending invocations that the scheduler is not already tracking is
/// enqueued on its tenant's lane. Runs at incarnation start and after a
/// recovery rescan request ([`DaemonShared::request_rescan`]).
fn rebuild_lanes(shared: &Arc<DaemonShared>, st: &mut PipelineState) {
    for coll_id in shared.contexts.incomplete_ids() {
        if st.scheduler.contains(coll_id) {
            continue;
        }
        let (priority, tenant) = st
            .registry
            .get(shared, coll_id)
            .map(|r| (r.desc.priority, r.tenant))
            .unwrap_or((0, TenantId::DEFAULT));
        enqueue_task(
            shared,
            &mut st.scheduler,
            &mut st.tenant_cache,
            coll_id,
            priority,
            tenant,
        );
    }
}

/// The **schedule** stage: one arbitration pass over the per-tenant lanes —
/// reorder each lane by the ordering policy, grant slices by weighted-fair /
/// strict-priority arbitration, assign position-based initial spin
/// thresholds. Returns the collective ids to execute, in order.
fn schedule_stage(shared: &Arc<DaemonShared>, st: &mut PipelineState) -> Vec<u64> {
    st.scheduler.schedule(
        shared.config.ordering,
        shared.config.tenant_arbitration,
        shared.config.tenant_quantum,
        shared.config.spin,
    )
}

/// The **execute** stage: run one two-phase-blocking slice per scheduled
/// collective through its compiled program, with per-tenant
/// preemption/failure accounting. Returns whether any slice
/// progressed.
fn execute_stage(shared: &Arc<DaemonShared>, st: &mut PipelineState, order: &[u64]) -> bool {
    let PipelineState {
        registry,
        scheduler,
        tenant_cache,
        completions,
        ..
    } = st;
    let flat = shared.config.flat_scheduling;
    let spin = shared.config.spin;
    let mut progressed_any = false;
    for &coll_id in order {
        let Some(reg) = registry.get(shared, coll_id) else {
            // Unregistered id: drop the invocation and surface an error.
            if let Some((ctx, _)) = shared.contexts.checkout_current(coll_id) {
                let reason = "collective not registered".to_string();
                shared.errors.lock().insert(coll_id, reason.clone());
                shared.telemetry.record(coll_id, TelemetryEventKind::Failed);
                match ctx.graph {
                    Some(tag) => complete_graph_node(shared, completions, tag, Some(reason)),
                    None => enqueue_completion(shared, completions, coll_id, TenantId::DEFAULT),
                }
            }
            scheduler.remove(coll_id);
            continue;
        };
        let prep_start = Instant::now();
        let Some((mut ctx, load)) = shared.contexts.checkout_current(coll_id) else {
            // Nothing pending for this entry (stale); drop it.
            scheduler.remove(coll_id);
            continue;
        };
        shared.stats.record_context_load();
        if load == ContextLoad::CacheMiss {
            shared.stats.record_preparing(prep_start.elapsed());
        }
        if ctx.preempted {
            shared.telemetry.record(coll_id, TelemetryEventKind::Resume);
        }

        let threshold = scheduler
            .entry_mut(coll_id)
            .map(|e| e.spin_threshold)
            .unwrap_or_else(|| spin.initial_threshold(0));
        let steps_before = ctx.next_step;
        let slice = run_compiled_slice(shared, &reg, &mut ctx, spin, threshold);
        progressed_any |= slice.progressed;
        // One chunk-moved event summarises the slice (not one per
        // primitive) to bound the telemetry cost of a hot slice.
        let moved = (ctx.next_step - steps_before) as u64;
        if moved > 0 {
            shared
                .telemetry
                .record(coll_id, TelemetryEventKind::ChunkMoved(moved));
        }
        // Persist the adaptively raised threshold for the next slice.
        if let Some(entry) = scheduler.entry_mut(coll_id) {
            entry.spin_threshold = slice.threshold;
        }
        let (preempted, failed) = (slice.preempted, slice.failed);

        if let Some(reason) = failed {
            shared.telemetry.record(coll_id, TelemetryEventKind::Failed);
            if !flat {
                tenant_cache.get(shared, reg.tenant).on_failed();
            }
            match ctx.graph {
                Some(tag) => {
                    shared.errors.lock().insert(coll_id, reason.clone());
                    complete_graph_node(shared, completions, tag, Some(reason));
                }
                None => {
                    shared.errors.lock().insert(coll_id, reason);
                    enqueue_completion(shared, completions, coll_id, reg.tenant);
                }
            }
            if !shared.contexts.has_pending(coll_id) {
                scheduler.remove(coll_id);
            }
        } else if preempted {
            shared.stats.record_preemption(coll_id);
            shared
                .telemetry
                .record(coll_id, TelemetryEventKind::Preempt);
            if !flat {
                tenant_cache.get(shared, reg.tenant).on_preempt();
            }
            let saved = shared.contexts.checkin_incomplete(coll_id, ctx);
            shared.stats.record_context_save(!saved);
        } else {
            // Completed: a graph-tagged invocation counts down its
            // replay (the graph publishes one CQE when the last node
            // finishes); an individual invocation buffers its own CQE. A
            // recovery ghost replay already published its CQE before the
            // failure — it only moves data, so it completes silently.
            if !ctx.silent_replay {
                match ctx.graph {
                    Some(tag) => complete_graph_node(shared, completions, tag, None),
                    None => enqueue_completion(shared, completions, coll_id, reg.tenant),
                }
            }
            // The invocation is done with its context: recycle the
            // cursor/staging storage for the collective's next one.
            shared.contexts.recycle(coll_id, ctx);
            if !shared.contexts.has_pending(coll_id) {
                scheduler.remove(coll_id);
            }
            progressed_any = true;
        }
    }
    progressed_any
}

/// The **complete** stage: publish whatever completions the pass produced
/// (per-tenant routing happens in [`flush_completions`]).
fn complete_stage(shared: &Arc<DaemonShared>, st: &mut PipelineState) {
    flush_completions(shared, &mut st.completions);
}

/// Body of one daemon-kernel incarnation (Algorithm 1), staged as
/// admission → schedule → execute → complete per pass.
fn run_daemon(shared: Arc<DaemonShared>) {
    shared.stats.record_daemon_start();

    // Acquire kernel residency; while a device synchronization is pending the
    // device rejects new residents. Park on the wake-up signal between
    // attempts (an exit request cuts the wait short; sync completion is
    // discovered on the next timed attempt).
    let residency = loop {
        if shared.final_exit_requested() && shared.contexts.total_pending() == 0 {
            shared.mark_not_running();
            return;
        }
        let wake_seen = shared.daemon_wake.generation();
        match shared.device.try_acquire_residency(
            shared.config.daemon_blocks,
            shared.config.shared_mem_per_block,
        ) {
            Ok(guard) => break guard,
            Err(_) => {
                shared
                    .daemon_wake
                    .park_if_unchanged(wake_seen, shared.config.restart_backoff);
            }
        }
    };

    let mut st = PipelineState {
        registry: RegistryCache::new(),
        scheduler: TenantScheduler::new(shared.config.flat_scheduling),
        tenant_cache: TenantCache::new(),
        completions: CompletionBatch::with_capacity(CQ_WRITE_BATCH),
        sqe_batch: Vec::with_capacity(shared.config.sq_fetch_batch.max(1)),
    };

    // Rebuild the scheduling lanes from contexts that survived the previous
    // incarnation (preempted or never-started invocations). Sample the
    // rescan generation first, so a recovery reinstall racing the rebuild is
    // re-observed on the first pass instead of lost.
    let mut rescan_seen = shared.rescan_generation();
    rebuild_lanes(&shared, &mut st);

    let mut idle_passes: u32 = 0;
    loop {
        // Sample the wake-up generation *before* scanning for work: a signal
        // racing the scan then prevents the end-of-pass park.
        let wake_seen = shared.daemon_wake.generation();

        // Recovery reinstalled contexts without SQEs: re-scan the context
        // store for collectives the scheduler is not tracking.
        let rescan_now = shared.rescan_generation();
        let rescanned = rescan_now != rescan_seen;
        if rescanned {
            rescan_seen = rescan_now;
            rebuild_lanes(&shared, &mut st);
        }

        // The pipeline: admission → schedule → execute → complete. The
        // completions are published before any idle handling — the poller
        // (and destroy) key off `outstanding`, which only moves at flush
        // time.
        let fetched_any = admission_stage(&shared, &mut st);
        let order = schedule_stage(&shared, &mut st);
        let progressed_any = execute_stage(&shared, &mut st, &order);
        complete_stage(&shared, &mut st);

        // Idle handling: voluntary quitting and final exit.
        if fetched_any || progressed_any || rescanned {
            idle_passes = 0;
            continue;
        }
        idle_passes += 1;

        let sq_has_pending = {
            let cursor = shared.sq_cursor.lock();
            shared.sq.has_pending(&cursor)
        };
        if shared.final_exit_requested() && st.scheduler.is_empty() && !sq_has_pending {
            drop(residency);
            shared.mark_not_running();
            return;
        }
        // Quit early when a device synchronization is blocked on this daemon;
        // otherwise spin briefly, then park until a wake-up signal (or the
        // park quantum) and finally quit once the idle budget is exhausted.
        let sync_blocked = shared.device.sync_pending();
        if (sync_blocked && idle_passes >= 2)
            || idle_passes >= shared.config.idle_passes_before_quit
        {
            shared.stats.record_voluntary_quit();
            drop(residency);
            shared.mark_not_running();
            return;
        }
        if idle_passes <= shared.config.idle_spin_passes {
            std::thread::yield_now();
        } else {
            shared
                .daemon_wake
                .park_if_unchanged(wake_seen, shared.config.restart_backoff);
        }
    }
}

/// The CPU-side poller: drains the CQ in batches, runs the callbacks bound to
/// completed collectives, and restarts the daemon kernel while completions
/// are owed (the second half of DFCCL's event-driven starting rule). Parks on
/// the completion signal instead of sleep-polling.
pub fn run_poller(
    shared: Arc<DaemonShared>,
    controller: Arc<DaemonController>,
    stop: Arc<AtomicBool>,
) {
    let mut batch: Vec<Cqe> = Vec::new();
    loop {
        let ready_seen = shared.cq_ready.generation();
        batch.clear();
        shared.cq.drain_into(&mut batch);
        for cqe in &batch {
            if let Some(cb) = shared.callbacks.take(cqe.coll_id) {
                cb();
            }
        }
        if stop.load(Ordering::Acquire) && shared.cq.is_empty() && shared.outstanding() == 0 {
            return;
        }
        if batch.is_empty() {
            // Completions are owed but no daemon is running: restart it.
            if shared.outstanding() > 0 && !shared.is_running() {
                controller.ensure_running();
            }
            shared
                .cq_ready
                .park_if_unchanged(ready_seen, shared.config.restart_backoff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DfcclConfig;
    use crate::cq::build_cq;
    use gpu_sim::GpuSpec;

    fn shared_with_config(config: DfcclConfig) -> Arc<DaemonShared> {
        let device = GpuDevice::new(GpuId(0), GpuSpec::rtx_3090());
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
        DaemonShared::new(GpuId(0), device, config, sq, cq, CallbackMap::new())
    }

    fn shared_for_test() -> Arc<DaemonShared> {
        shared_with_config(DfcclConfig::for_testing())
    }

    fn data_sqe(coll_id: u64) -> Sqe {
        Sqe {
            coll_id,
            seq: 0,
            send: dfccl_collectives::DeviceBuffer::zeroed(4),
            recv: dfccl_collectives::DeviceBuffer::zeroed(4),
            exit: false,
        }
    }

    #[test]
    fn daemon_with_no_work_quits_voluntarily() {
        let shared = shared_for_test();
        let controller = DaemonController::new(Arc::clone(&shared));
        controller.ensure_running();
        assert!(controller.wait_idle(Duration::from_secs(5)));
        let snap = shared.stats.snapshot();
        assert_eq!(snap.daemon_starts, 1);
        assert_eq!(snap.voluntary_quits, 1);
        assert!(!shared.is_running());
    }

    #[test]
    fn ensure_running_is_idempotent_while_running() {
        let shared = shared_for_test();
        let controller = DaemonController::new(Arc::clone(&shared));
        controller.ensure_running();
        controller.ensure_running();
        controller.ensure_running();
        assert!(controller.wait_idle(Duration::from_secs(5)));
        // Only one incarnation ran even though ensure_running was called thrice
        // before it had a chance to go idle (the extra calls may or may not
        // have landed after the quit, so allow 1..=3 but require monotonicity).
        let starts = shared.stats.snapshot().daemon_starts;
        assert!((1..=3).contains(&starts), "starts = {starts}");
    }

    #[test]
    fn daemon_exits_after_exit_sqe() {
        let shared = shared_for_test();
        let controller = DaemonController::new(Arc::clone(&shared));
        shared.sq.try_push(crate::sq::Sqe::exit_marker(0)).unwrap();
        controller.ensure_running();
        assert!(controller.wait_idle(Duration::from_secs(5)));
        assert!(shared.final_exit_requested());
        // After final exit with nothing outstanding, ensure_running is a no-op.
        controller.ensure_running();
        assert!(!shared.is_running());
    }

    #[test]
    fn unregistered_collective_is_failed_not_hung() {
        let shared = shared_for_test();
        let controller = DaemonController::new(Arc::clone(&shared));
        shared.outstanding.fetch_add(1, Ordering::Release);
        shared.sq.try_push(data_sqe(99)).unwrap();
        controller.ensure_running();
        assert!(controller.wait_idle(Duration::from_secs(5)));
        assert_eq!(shared.outstanding(), 0);
        assert!(shared.errors.lock().contains_key(&99));
        assert_eq!(shared.cq.pop().unwrap().coll_id, 99);
    }

    #[test]
    fn unknown_graph_replay_is_failed_not_hung() {
        let shared = shared_for_test();
        let controller = DaemonController::new(Arc::clone(&shared));
        let graph_id = GRAPH_ID_BASE | 1;
        assert!(is_graph_id(graph_id));
        shared.outstanding.fetch_add(1, Ordering::Release);
        shared.sq.try_push(data_sqe(graph_id)).unwrap();
        controller.ensure_running();
        assert!(controller.wait_idle(Duration::from_secs(5)));
        assert_eq!(shared.outstanding(), 0, "the failed replay completes once");
        assert!(shared.errors.lock().contains_key(&graph_id));
        assert_eq!(shared.cq.pop().unwrap().coll_id, graph_id);
    }

    #[test]
    fn daemon_quits_when_device_sync_is_pending() {
        let shared = shared_for_test();
        let controller = DaemonController::new(Arc::clone(&shared));
        controller.ensure_running();
        // Give the daemon time to acquire residency, then request a sync.
        std::thread::sleep(Duration::from_millis(20));
        let waiter = shared
            .device
            .request_synchronize(gpu_sim::SyncKind::Explicit);
        assert!(
            waiter.wait_timeout(Duration::from_secs(5)),
            "sync must complete once the daemon quits voluntarily"
        );
        controller.wait_idle(Duration::from_secs(5));
    }

    /// A configuration under which a daemon with no work parks for a long
    /// time instead of quitting: any prompt reaction must come from a
    /// wake-up signal, not from a poll quantum.
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
        let shared = shared_with_config(parked_config());
        let controller = DaemonController::new(Arc::clone(&shared));
        controller.ensure_running();
        // Let the daemon exhaust its spin passes and park.
        std::thread::sleep(Duration::from_millis(60));
        assert!(shared.is_running(), "daemon must still be alive (parked)");

        // Submit work the way the API layer does: SQE first, then the signal.
        shared.outstanding.fetch_add(1, Ordering::Release);
        shared.sq.try_push(data_sqe(7)).unwrap();
        let submitted = Instant::now();
        shared.notify_daemon();

        // The daemon errors the unregistered collective and publishes a CQE.
        let woken = loop {
            if !shared.cq.is_empty() {
                break submitted.elapsed();
            }
            assert!(
                submitted.elapsed() < Duration::from_secs(5),
                "daemon never reacted to the SQE"
            );
            std::hint::spin_loop();
        };
        // The park quantum is 500 ms; an event-driven wake-up must beat it by
        // a wide margin even on a loaded CI machine.
        assert!(
            woken < Duration::from_millis(250),
            "wake-up took {woken:?}, within the park quantum — daemon was polling, not signalled"
        );
        controller.request_exit();
        assert!(controller.wait_idle(Duration::from_secs(5)));
    }

    #[test]
    fn wait_idle_returns_promptly_once_the_daemon_exits() {
        let shared = shared_with_config(parked_config());
        let controller = DaemonController::new(Arc::clone(&shared));
        controller.ensure_running();
        std::thread::sleep(Duration::from_millis(60));
        assert!(shared.is_running(), "daemon must still be alive (parked)");

        // Request exit (signals the parked daemon) and time the full
        // park-wake → drain → exit → wait_idle-wake chain.
        let start = Instant::now();
        controller.request_exit();
        assert!(controller.wait_idle(Duration::from_secs(5)));
        let elapsed = start.elapsed();
        // Both the daemon's park (500 ms quantum) and wait_idle itself must
        // be cut short by signals.
        assert!(
            elapsed < Duration::from_millis(250),
            "exit + wait_idle took {elapsed:?} — some stage slept through its quantum"
        );
        assert!(!shared.is_running());
    }

    #[test]
    fn completion_batches_flush_within_a_pass() {
        // Fewer completions than the batch threshold must still be published
        // at the end of the pass that produced them (no cross-pass latency).
        let shared = shared_for_test();
        let controller = DaemonController::new(Arc::clone(&shared));
        for id in 0..5 {
            shared.outstanding.fetch_add(1, Ordering::Release);
            shared.sq.try_push(data_sqe(id)).unwrap();
        }
        controller.ensure_running();
        assert!(controller.wait_idle(Duration::from_secs(5)));
        assert_eq!(shared.outstanding(), 0);
        let mut out = Vec::new();
        assert_eq!(shared.cq.drain_into(&mut out), 5);
        assert_eq!(shared.stats.snapshot().cqes_written, 5);
    }

    #[test]
    fn registry_cache_sees_collectives_registered_after_daemon_start() {
        // A daemon parked with an unregistered invocation must pick up the
        // registration through the generation-stamped cache. (Full-stack
        // coverage of runtime registration lives in the API tests; here we
        // only check the generation plumbing.)
        let shared = shared_for_test();
        assert_eq!(shared.registry_generation(), 1);
        shared.bump_registry_generation();
        assert_eq!(shared.registry_generation(), 2);
        let mut cache = RegistryCache::new();
        assert!(cache.get(&shared, 42).is_none());
        assert_eq!(
            cache.generation, 2,
            "cache must stamp the observed generation"
        );
    }
}
