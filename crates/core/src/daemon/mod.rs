//! The daemon kernel: execution, preemption and scheduling of collectives
//! (Sec. 4, Algorithm 1).
//!
//! One daemon kernel serves each GPU. It is split into a **core** that
//! decides and a **driver** that waits:
//!
//! * [`DaemonCore`] (`core.rs`) is one incarnation of the kernel as a
//!   steppable state machine. [`DaemonCore::poll`] performs one bounded step
//!   — one pass over the lanes of the collective holding the core, or the
//!   step between two scheduling passes — and returns a [`Progress`]. It
//!   contains no sleep, yield, spin or park: the paper's deadlock-freedom
//!   argument is about these decisions, not about how a host thread waits.
//! * `drive` (`driver.rs`) is the thread loop over it, the only code that
//!   waits on the daemon's behalf:
//!
//! | `poll` returns | from | the driver |
//! |---|---|---|
//! | `Advanced(n)` | a lane pass that moved, a slice that closed, a between-passes step that fetched or followed progress | polls again, idle count reset |
//! | `Blocked(Connectors)` | a fruitless lane pass (the `threshold`-th in a row also preempts) | `spin_loop`, polls again |
//! | `Blocked(CqSpace)` | complete: the CQ refused part of the batch (retained) | wakes the poller, `yield_now` |
//! | `Blocked(Residency)` | the device refused residency (synchronization pending) | parks on `daemon_wake` ≤ `restart_backoff` |
//! | `Idle` | a between-passes step: nothing fetched, nothing advanced since the last one | `yield_now` for `idle_spin_passes`, then parks; retires the core after `idle_passes_before_quit` (2 if a device synchronization is pending) |
//! | `Exited` | exit SQE read (or exit forced) and nothing left | returns |
//!
//! [`DaemonController::try_claim`] hands out the core (at most one per rank:
//! the `running` flag); [`DaemonController::ensure_running`] is `try_claim`
//! plus a thread running the driver. A test or schedule explorer claims the
//! cores itself and steps several ranks from one thread.
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
//!   polls its connector conditions lane pass by lane pass and, once its
//!   spin threshold of consecutive fruitless passes is spent, is deemed
//!   stuck and preempted (dynamic context saved, next collective scheduled);
//! * **complete** (`complete.rs`) — accounting, then batched CQE publication
//!   (the queue-claim atomics and, on the ring variants, the fence are paid
//!   once per batch).
//!
//! Shared state that must outlive an incarnation ([`DaemonShared`]: SQ
//! cursor, context store, graph runs, `outstanding`) stays here, with the
//! controller. The control path is signal-driven end to end (see
//! [`crate::park::Parker`]): an invoker pushing an SQE signals the daemon's
//! parker; a published CQE batch signals the poller's (`poller.rs`); the core
//! announcing its retirement signals the one [`DaemonController::wait_idle`]
//! waits on. A daemon that quit is restarted event-driven, by the next
//! submission or by the poller while completions are owed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dfccl_collectives::{CollectiveDescriptor, CompiledProgram, Plan};
use dfccl_transport::{Communicator, ConnectorTable};
use gpu_sim::{GpuDevice, GpuId};
use parking_lot::{Mutex, RwLock};

use crate::callback::CallbackMap;
use crate::config::DfcclConfig;
use crate::context::ContextStore;
use crate::cq::CqKind;
use crate::park::Parker;
use crate::sq::{SqCursor, SubmissionQueue};
use crate::stats::DaemonStats;
use crate::telemetry::Telemetry;
use crate::tenant::{TenantId, TenantTable};

mod admission;
mod complete;
mod core;
mod driver;
mod graph;
#[cfg(test)]
mod one_thread_tests;
mod poller;
mod slice;
#[cfg(test)]
mod tests;

pub use self::core::{BlockedOn, DaemonCore, Progress};
pub use graph::{CapturedGraph, GraphNode};
pub use poller::run_poller;

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

/// Active context slots the daemon keeps in shared memory (direct-mapped).
pub(crate) const ACTIVE_CONTEXT_SLOTS: usize = 8;

/// Capacity of the per-daemon telemetry event ring: the most recent
/// this-many lifecycle events are retained, older ones dropped and counted.
pub(crate) const TELEMETRY_EVENTS: usize = 4096;

/// Whether an SQE collective id names a graph replay.
pub fn is_graph_id(coll_id: u64) -> bool {
    coll_id & GRAPH_ID_BASE != 0
}

/// State shared between the API layer, the poller thread and the daemon core
/// (and surviving daemon restarts).
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
    graph_runs: Mutex<HashMap<(u64, u64), graph::GraphRun>>,
    /// Statistics.
    pub stats: Arc<DaemonStats>,
    /// Structured telemetry: lifecycle event ring ([`TELEMETRY_EVENTS`]
    /// deep) + always-on counters.
    pub telemetry: Arc<Telemetry>,
    /// Per-tenant admission counters and lifecycle accounting (service
    /// mode). Tenants without an explicit handle get
    /// [`DfcclConfig::tenant_quota`].
    pub tenants: Arc<TenantTable>,
    /// Collectives that failed with a protocol error, and why.
    pub errors: Mutex<HashMap<u64, String>>,
    /// Whether a daemon core is currently claimed.
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
            ACTIVE_CONTEXT_SLOTS,
            config.context_load_ns,
            config.context_save_ns,
        );
        let telemetry = Telemetry::new(TELEMETRY_EVENTS);
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

    /// Wake the poller thread: CQEs are visible (or a stop was requested).
    pub fn notify_poller(&self) {
        self.cq_ready.signal();
    }

    /// Mark the daemon core as released and wake `wait_idle`.
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

    /// Claim this rank's daemon core, if no incarnation holds it and there
    /// is still something for one to do. The thread path and single-thread
    /// steppers both start here.
    pub fn try_claim(&self) -> Option<DaemonCore> {
        let shared = &self.shared;
        if shared.final_exit_requested() && shared.outstanding() == 0 {
            return None;
        }
        shared
            .running
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .ok()?;
        Some(DaemonCore::new(Arc::clone(shared)))
    }

    /// Start the daemon kernel if it is not already running (event-driven
    /// starting: called on SQE insertion and by the poller while completions
    /// are owed). A daemon that is alive but parked is woken instead.
    pub fn ensure_running(&self) {
        // Wake a parked incarnation first: if the daemon is alive, this is
        // the whole job; if it is mid-exit, the claim below takes over.
        self.shared.notify_daemon();
        let Some(core) = self.try_claim() else {
            return;
        };
        let handle = std::thread::Builder::new()
            .name(format!("dfccl-daemon-{}", self.shared.gpu))
            .spawn(move || driver::drive(core))
            .expect("failed to spawn daemon kernel thread");
        let mut join = self.join.lock();
        // Reap the previous incarnation's handle, if any; it has exited
        // (running was false when we claimed it).
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
