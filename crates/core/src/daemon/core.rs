//! [`DaemonCore`]: one daemon-kernel incarnation as a steppable state
//! machine (Algorithm 1's decision loop, without its waits).
//!
//! [`DaemonCore::poll`] performs one bounded step and reports what happened;
//! it contains no wait of any kind (CI greps this file and the stage files
//! for one). The rank's seat on its carrier (`world.rs`) claims the core,
//! decides when to call it again and releases it; a unit test may claim one
//! to poll it directly.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gpu_sim::ResidencyGuard;

use super::complete::CQ_WRITE_BATCH;
use super::slice::Slice;
use super::{DaemonShared, RegisteredCollective};
use crate::cq::Cqe;
use crate::sq::Sqe;
use crate::task_queue::TenantScheduler;

/// What a [`Progress::Blocked`] core is waiting for. Nothing the core itself
/// can do will clear it; another party has to move first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// No lane of the open slice could move: a peer has to send, or drain,
    /// on one of its connectors.
    Connectors,
    /// The CQ refused part of the completion batch (retained): the poller
    /// has to drain.
    CqSpace,
    /// The device refused kernel residency (a device synchronization is
    /// pending or every slot is taken).
    Residency,
}

/// Outcome of one [`DaemonCore::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// The step moved work: primitives executed by a lane pass, SQEs
    /// admitted by a between-passes step. `Advanced(0)` still means "not
    /// idle" (a lane pass only put staged chunks on the wire, a slice
    /// closed, or the pass just ended had advanced).
    Advanced(usize),
    /// The step could not move; see [`BlockedOn`].
    Blocked(BlockedOn),
    /// A between-passes step fetched nothing and no slice has advanced since
    /// the previous one — including when every scheduled collective was
    /// preempted fruitlessly, so a core can be retired with work queued (the
    /// seat re-claims it while work is owed).
    Idle,
    /// The incarnation is over (final exit, or [`DaemonCore::retire`]).
    Exited,
}

/// Core-local, lock-free cache of the registered-collective table, stamped
/// with the registry generation. Steady-state lookups (the overwhelmingly
/// common case) touch no `RwLock`; the table is re-read only when a
/// registration actually happened.
#[derive(Default)]
pub(super) struct RegistryCache {
    map: HashMap<u64, Arc<RegisteredCollective>>,
    pub(super) generation: u64,
}

impl RegistryCache {
    pub(super) fn get(
        &mut self,
        shared: &DaemonShared,
        coll_id: u64,
    ) -> Option<Arc<RegisteredCollective>> {
        let generation = shared.registry_generation();
        if generation != self.generation {
            self.map = shared.registered.read().clone();
            self.generation = generation;
        }
        self.map.get(&coll_id).cloned()
    }
}

/// One daemon-kernel incarnation. Obtained from `DaemonShared::try_claim`
/// (at most one per rank exists at a time); ends with [`Progress::Exited`],
/// [`DaemonCore::retire`] or drop.
pub struct DaemonCore {
    pub(super) shared: Arc<DaemonShared>,
    /// Kernel residency on the device, held from the first successful poll
    /// until the incarnation ends.
    residency: Option<ResidencyGuard>,
    retired: bool,
    pub(super) registry: RegistryCache,
    pub(super) scheduler: TenantScheduler,
    /// CQEs accounted but not yet published.
    pub(super) completions: Vec<Cqe>,
    pub(super) sqe_batch: Vec<Sqe>,
    rescan_seen: u64,
    /// The current pass: the scheduled collective ids no slice was opened
    /// for yet.
    order: std::vec::IntoIter<u64>,
    pub(super) slice: Option<Slice>,
    /// Whether anything was fetched, rescanned or advanced since the last
    /// between-passes step.
    pub(super) pass_active: bool,
}

impl DaemonCore {
    /// Start an incarnation over `shared`, whose `running` flag the caller
    /// has just won.
    pub(super) fn new(shared: Arc<DaemonShared>) -> Self {
        shared.telemetry.record_daemon_start();
        DaemonCore {
            residency: None,
            retired: false,
            registry: RegistryCache::default(),
            scheduler: TenantScheduler::new(false),
            completions: Vec::with_capacity(CQ_WRITE_BATCH),
            sqe_batch: Vec::with_capacity(shared.config.sq_fetch_batch.max(1)),
            rescan_seen: 0,
            order: Vec::new().into_iter(),
            slice: None,
            pass_active: false,
            shared,
        }
    }

    /// One step: a lane pass of the open slice (opening the next scheduled
    /// one first if none is open) or, when the pass's order is exhausted,
    /// the between-passes step complete → rescan → admission → schedule.
    pub fn poll(&mut self) -> Progress {
        if self.retired {
            return Progress::Exited;
        }
        if self.residency.is_none() {
            if let Err(progress) = self.acquire_residency() {
                return progress;
            }
        }
        while self.slice.is_none() {
            let Some(coll_id) = self.order.next() else {
                return self.between_passes();
            };
            self.open_slice(coll_id);
        }
        self.lane_pass()
    }

    /// Become a resident kernel, then rebuild the scheduling lanes from the
    /// contexts that survived the previous incarnation (preempted or
    /// never-started invocations). While a device synchronization is pending
    /// the device rejects new residents.
    fn acquire_residency(&mut self) -> Result<(), Progress> {
        // SQEs still unread when the exit was forced are owed, not pending.
        if self.shared.final_exit_requested() && !self.shared.owes_work() {
            self.retire(false);
            return Err(Progress::Exited);
        }
        let config = &self.shared.config;
        let guard = self
            .shared
            .device
            .try_acquire_residency(config.daemon_blocks, config.shared_mem_per_block)
            .map_err(|_| Progress::Blocked(BlockedOn::Residency))?;
        self.residency = Some(guard);
        // Sample the rescan generation before the rebuild, so a recovery
        // reinstall racing it is re-observed by the first between-passes
        // step instead of lost.
        self.rescan_seen = self.shared.rescan.load(Ordering::Acquire);
        self.rebuild_lanes();
        // Inherited work makes the first pass active: it runs at once
        // instead of being reported `Idle` before its first slice.
        self.pass_active = !self.scheduler.is_empty();
        Ok(())
    }

    /// The step between two passes. Publishes the ended pass's completions
    /// first — the poller and `destroy` key off `outstanding`, which only
    /// moves at publication — then picks up recovery reinstalls and new
    /// SQEs and schedules the next pass. The idle decision comes last, in
    /// the same step as the SQ scan, so a holder that samples the wake-up
    /// generation before `poll` cannot wait through a submission.
    fn between_passes(&mut self) -> Progress {
        if !self.publish() {
            return Progress::Blocked(BlockedOn::CqSpace);
        }
        // Recovery reinstalled contexts without SQEs: re-scan the context
        // store for collectives the scheduler is not tracking.
        let rescan_now = self.shared.rescan.load(Ordering::Acquire);
        let rescanned = std::mem::replace(&mut self.rescan_seen, rescan_now) != rescan_now;
        if rescanned {
            self.rebuild_lanes();
        }
        let fetched = self.admit();
        let config = &self.shared.config;
        let order = self.scheduler.schedule(
            config.ordering,
            config.tenant_arbitration,
            config.tenant_quantum,
            config.spin,
        );
        self.order = order.into_iter();
        if std::mem::take(&mut self.pass_active) || rescanned || fetched > 0 {
            return Progress::Advanced(fetched);
        }
        let shared = &self.shared;
        if shared.final_exit_requested()
            && self.scheduler.is_empty()
            && !shared.sq.has_pending(&shared.sq_cursor.lock())
        {
            self.retire(false);
            return Progress::Exited;
        }
        Progress::Idle
    }

    /// End the incarnation: return an open slice to the context store,
    /// publish what the CQ will take, release residency (letting pending
    /// device synchronizations drain) and announce that no daemon is
    /// running. `voluntary` marks a quit chosen by the holder (idle budget,
    /// pending synchronization) as opposed to the final exit. Idempotent;
    /// also runs on drop, so a holder that unwinds cannot strand the rank.
    pub fn retire(&mut self, voluntary: bool) {
        if std::mem::replace(&mut self.retired, true) {
            return;
        }
        if self.slice.is_some() {
            self.preempt_slice();
        }
        self.publish();
        if voluntary {
            self.shared.telemetry.record_voluntary_quit();
        }
        self.residency = None;
        self.shared.mark_not_running();
    }
}

impl Drop for DaemonCore {
    fn drop(&mut self) {
        self.retire(false);
    }
}
