//! The daemon kernel: execution, preemption and scheduling of collectives
//! (Sec. 4, Algorithm 1).
//!
//! One daemon kernel serves each GPU, a kernel on that GPU's
//! [`gpu_sim::DeviceEngine`] beside whatever compute kernels the caller
//! launches there ([`crate::RankCtx::engine`]). It is split into a kernel
//! that decides and a carrier that waits:
//!
//! * [`DaemonCore`] (`core.rs`) is one incarnation of the kernel, a
//!   [`gpu_sim::Kernel`] whose every poll performs one bounded step — one
//!   pass over the lanes of the collective holding the core, or the step
//!   between two scheduling passes. It contains no sleep, yield, spin or
//!   park: the paper's deadlock-freedom argument is about these decisions,
//!   not about how a host thread waits.
//! * A carrier (`world.rs`) steps the engines. Each domain owns a [`World`]
//!   of C = min(GPUs, available parallelism) carrier threads; a carrier
//!   sweeps the ranks it owns, doing each rank's poller step (`poller.rs`),
//!   launching a daemon kernel when work is owed and none is on the engine,
//!   and stepping the rank's engine once. It then waits as little as its
//!   hottest rank allows:
//!
//! | the daemon's poll returns | from | the rank wants |
//! |---|---|---|
//! | `Moved` | a lane pass that moved, a slice that closed, a between-passes step that fetched or followed progress | to be stepped again; quiet count reset |
//! | `Pending(edges)` | a fruitless lane pass, naming what its lane heads wait on (the `threshold`-th in a row also preempts) | a `spin_loop` |
//! | `Pending(none)` | a between-passes step that found nothing to do, or a CQ that refused part of the batch (retained) | a `yield_now` for `idle_spin_passes` quiet steps, then a park ≤ `restart_backoff` |
//! | `Ready` | the exit SQE read (or exit forced) and nothing left; or a voluntary quit: `idle_passes_before_quit` idle steps, 2 if a barrier on the engine waits for the kernel | to be stepped again: a successor is launched while work is owed |
//!
//! The carrier parks on its bell only when every rank it owns wants to park.
//! The rank's seat on its carrier is the only thing that launches its daemon
//! kernel, on the daemon stream whose FIFO keeps one incarnation at a time;
//! the engine's residency check and barriers decide when it starts.
//! Invokers, recovery and `destroy` only ring the bell. A test holds the
//! carriers on its own thread and steps the seats itself.
//!
//! ## The pipeline, one file per stage
//!
//! * **admission** (`admission.rs`) — fetch SQE batches (one cursor-lock
//!   acquisition and one SQ head read per burst), expand graph replays
//!   (`graph.rs`), queue invocations on their tenant's lane;
//! * **schedule** — one weighted-fair arbitration pass over the per-tenant
//!   lanes ([`crate::task_queue::TenantScheduler`]),
//!   FIFO/priority within a tenant;
//! * **execute** (`slice.rs`) — *two-phase blocking*: a scheduled collective
//!   makes one `LaneRun::pass` (the NCCL-like baseline's pass) per step and,
//!   once its spin threshold of consecutive fruitless passes is spent, is
//!   deemed stuck and preempted (dynamic context saved, next collective
//!   scheduled);
//! * **complete** (`complete.rs`) — accounting, then batched CQE publication
//!   (the queue-claim atomics and, on the ring variants, the fence are paid
//!   once per batch).
//!
//! State that must outlive an incarnation ([`DaemonShared`]: SQ cursor,
//! context store, graph runs, `outstanding`, the leave flags) stays here.
//! The control path is signal-driven end to end (see [`crate::park::Parker`]):
//! an invoker pushing an SQE, a published CQE batch and a retired kernel all
//! ring the carrier's bell, and the carrier dropping a rank signals the
//! `shut_down` waiting for it. A daemon that quit is relaunched by its seat
//! on the next bell that finds work owed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dfccl_collectives::{CollectiveDescriptor, CompiledProgram, Plan};
use dfccl_transport::{Communicator, ConnectorTable};
use gpu_sim::{DeviceEngine, GpuId};
use parking_lot::{Mutex, RwLock};

use crate::callback::CallbackMap;
use crate::config::DfcclConfig;
use crate::context::ContextStore;
use crate::cq::CqKind;
use crate::park::Parker;
use crate::sq::{SqCursor, SubmissionQueue};
use crate::telemetry::Telemetry;
use crate::tenant::{TenantId, TenantQuota, TenantTable};

mod admission;
mod complete;
mod core;
mod graph;
#[cfg(test)]
mod one_thread_tests;
mod poller;
mod slice;
#[cfg(test)]
mod tests;
mod world;

pub use self::core::DaemonCore;
pub use graph::{CapturedGraph, GraphNode};
pub use world::{Carrier, World};

/// Static context of a registered collective on one rank: everything that is
/// fixed at registration time (Sec. 4.2).
#[derive(Clone)]
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

/// Active context slots the daemon keeps in shared memory (direct-mapped).
pub(crate) const ACTIVE_CONTEXT_SLOTS: usize = 8;

/// Capacity of the per-daemon telemetry event ring: the most recent
/// this-many lifecycle events are retained, older ones dropped and counted.
pub(crate) const TELEMETRY_EVENTS: usize = 4096;

/// Whether an SQE collective id names a graph replay.
pub fn is_graph_id(coll_id: u64) -> bool {
    coll_id & GRAPH_ID_BASE != 0
}

/// State shared between the API layer, the rank's carrier and the daemon
/// core (and surviving daemon restarts).
pub struct DaemonShared {
    /// The GPU this daemon serves.
    pub gpu: GpuId,
    /// The GPU's launch engine: the daemon kernel runs on it.
    pub engine: Arc<DeviceEngine>,
    /// Runtime configuration.
    pub config: DfcclConfig,
    /// The submission queue.
    pub sq: Arc<SubmissionQueue>,
    /// The completion queue (statically dispatched).
    pub cq: Arc<CqKind>,
    /// Completion callbacks.
    pub callbacks: Arc<CallbackMap>,
    /// Registered collectives (static contexts). The daemon core reads
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
    graph_runs: Mutex<HashMap<(u64, u64), graph::GraphRun>>,
    /// The rank's one ledger: every lifecycle fact per (tenant, collective),
    /// the daemon's counters and component times, and an event ring
    /// ([`TELEMETRY_EVENTS`] deep).
    pub telemetry: Arc<Telemetry>,
    /// Per-tenant admission state (service mode). Tenants without an
    /// explicit handle get [`TenantQuota::default`] (unlimited).
    pub tenants: Arc<TenantTable>,
    /// Collectives that failed with a protocol error, and why.
    pub errors: Mutex<HashMap<u64, String>>,
    /// Set when the exiting SQE has been read (or destroy was requested).
    final_exit: AtomicBool,
    /// SQ read cursor; persists across daemon restarts.
    sq_cursor: Mutex<SqCursor>,
    /// SQEs whose invocations are in the context store: a gap to
    /// `sq.inserted()` is a submission still on its way there. Bumped with
    /// `Release` after a batch is enqueued; the stall detector loads it with
    /// `Acquire` before it reads the store.
    pub(crate) admitted: AtomicU64,
    /// Invocations submitted but not yet completed.
    pub outstanding: AtomicU64,
    /// Bumped by the recovery coordinator after it reinstalls rolled-back
    /// contexts: reinstalled invocations arrive without an SQE, so a running
    /// daemon must re-scan the context store to pick them up (an idle daemon
    /// finds them in its restart rebuild instead).
    rescan: AtomicU64,
    /// The carrier that steps this rank; its bell is the rank's wake-up
    /// signal.
    carrier: Arc<Carrier>,
    /// Bumped on every CQE-batch publication: the carrier drains the CQ only
    /// when it moved.
    cq_ready: AtomicU64,
    /// Set by `shut_down`: the seat drops the rank once nothing is owed.
    leaving: AtomicBool,
    /// Set, and `left_signal` signalled, once the carrier dropped the rank.
    left: AtomicBool,
    left_signal: Parker,
}

impl DaemonShared {
    /// Create the shared state for one rank, stepped by `carrier`.
    pub fn new(
        gpu: GpuId,
        engine: Arc<DeviceEngine>,
        config: DfcclConfig,
        sq: Arc<SubmissionQueue>,
        cq: Arc<CqKind>,
        callbacks: Arc<CallbackMap>,
        carrier: Arc<Carrier>,
    ) -> Arc<Self> {
        let contexts = ContextStore::new(ACTIVE_CONTEXT_SLOTS, config.host_costs);
        let telemetry = Telemetry::new(TELEMETRY_EVENTS);
        let tenants = TenantTable::new(TenantQuota::default());
        Arc::new(DaemonShared {
            gpu,
            engine,
            config,
            sq,
            cq,
            callbacks,
            registered: RwLock::new(HashMap::new()),
            registry_generation: AtomicU64::new(1),
            contexts,
            graphs: RwLock::new(HashMap::new()),
            graph_runs: Mutex::new(HashMap::new()),
            telemetry,
            tenants,
            errors: Mutex::new(HashMap::new()),
            final_exit: AtomicBool::new(false),
            sq_cursor: Mutex::new(SqCursor::default()),
            admitted: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
            rescan: AtomicU64::new(0),
            carrier,
            cq_ready: AtomicU64::new(0),
            leaving: AtomicBool::new(false),
            left: AtomicBool::new(false),
            left_signal: Parker::new(),
        })
    }

    /// Start stepping the rank on its carrier.
    pub(crate) fn attach(self: &Arc<Self>) {
        self.carrier.attach(Arc::clone(self));
    }

    /// Whether a core has work here — the paper's event-driven starting
    /// rule: invocations owe CQEs, or contexts are pending without one (a
    /// recovery ghost replay owes no CQE).
    pub(crate) fn owes_work(&self) -> bool {
        self.outstanding() > 0 || self.contexts.total_pending() > 0
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

    /// Ring the carrier: a new SQE is visible or an exit was requested.
    pub fn notify_daemon(&self) {
        self.carrier.bell.signal();
    }

    /// Ask a running daemon to re-scan the context store for pending
    /// invocations it is not tracking (recovery reinstalls rolled-back
    /// contexts without an SQE). A daemon between incarnations picks them up
    /// through its restart rebuild instead.
    pub fn request_rescan(&self) {
        self.rescan.fetch_add(1, Ordering::Release);
        self.notify_daemon();
    }

    /// Tell the carrier that CQEs are visible.
    pub fn notify_poller(&self) {
        self.cq_ready.fetch_add(1, Ordering::Release);
        self.notify_daemon();
    }

    /// Force the exit flag (set as well by reading the exiting SQE) and ring
    /// the carrier so the daemon observes it at once.
    pub fn request_exit(&self) {
        self.final_exit.store(true, Ordering::Release);
        self.notify_daemon();
    }

    /// Ask for the final exit without waiting for it.
    pub fn leave(&self) {
        self.leaving.store(true, Ordering::Release);
        self.request_exit();
    }

    /// The final exit (`dfcclDestroy`, after the exiting SQE was pushed):
    /// the seat lets the daemon drain what is owed and read the exit, then
    /// drops the rank once its last callback ran; this waits for that and
    /// joins the carrier thread if the rank was its last. On a carrier
    /// thread (a callback destroying a rank) it cannot wait and only asks.
    pub fn shut_down(&self) {
        self.leave();
        if world::on_carrier() {
            return;
        }
        loop {
            let seen = self.left_signal.generation();
            if self.left.load(Ordering::Acquire) {
                break;
            }
            self.left_signal
                .park_if_unchanged(seen, Duration::from_millis(100));
        }
        self.carrier.reap();
    }

    /// The carrier dropped the rank: release `shut_down`.
    fn mark_left(&self) {
        self.left.store(true, Ordering::Release);
        self.left_signal.signal();
    }
}
