//! [`DaemonCore`]: the daemon kernel (Algorithm 1's decision loop, without
//! its waits) as a [`Kernel`] on its GPU's [`gpu_sim::DeviceEngine`].
//!
//! Each poll performs one bounded step: `Moved`, `Pending` with the edges a
//! fruitless lane pass waits on (none when idle or the CQ is full), or
//! `Ready` when the kernel quits. It contains no wait of any kind (CI greps
//! this file and the stage files for one). The rank's seat (`world.rs`)
//! launches it; a unit test may poll a core directly.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gpu_sim::{EdgeWait, Kernel, KernelCtx, KernelOutcome, KernelPoll};

use super::complete::CQ_WRITE_BATCH;
use super::slice::Slice;
use super::{DaemonShared, RegisteredCollective};
use crate::cq::Cqe;
use crate::sq::Sqe;
use crate::task_queue::TenantScheduler;

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

/// One daemon-kernel incarnation, launched by the rank's seat; ends with
/// `Ready` (a voluntary quit or the final exit), `retire` or drop.
pub struct DaemonCore {
    pub(super) shared: Arc<DaemonShared>,
    /// Whether the engine has polled it yet, i.e. made it resident.
    started: bool,
    retired: bool,
    /// Consecutive between-passes steps that found nothing to do.
    idle_passes: u32,
    /// What the last fruitless lane pass waits on.
    pub(super) waits: Vec<EdgeWait>,
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
    /// An incarnation over `shared`, to be launched on its engine.
    pub(super) fn new(shared: Arc<DaemonShared>) -> Self {
        DaemonCore {
            started: false,
            retired: false,
            idle_passes: 0,
            waits: Vec::new(),
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

    /// The first poll, resident at last: rebuild the scheduling lanes from
    /// the contexts the previous incarnation left. `false` when nothing is
    /// left to do and the incarnation ended at once.
    fn start(&mut self) -> bool {
        self.started = true;
        // SQEs still unread when the exit was forced are owed, not pending.
        if self.shared.final_exit_requested() && !self.shared.owes_work() {
            self.retire(false);
            return false;
        }
        self.shared.telemetry.record_daemon_start();
        // Sample the rescan generation before the rebuild, so a recovery
        // reinstall racing it is re-observed by the first between-passes
        // step instead of lost.
        self.rescan_seen = self.shared.rescan.load(Ordering::Acquire);
        self.rebuild_lanes();
        // Inherited work makes the first pass active: it runs at once
        // instead of being reported idle before its first slice.
        self.pass_active = !self.scheduler.is_empty();
        true
    }

    /// The step between two passes. Publishes the ended pass's completions
    /// first — the poller and `destroy` key off `outstanding`, which only
    /// moves at publication — then picks up recovery reinstalls and new
    /// SQEs and schedules the next pass. The idle decision comes last, in
    /// the same step as the SQ scan, so no waiter misses a submission; it
    /// quits after `idle_passes_before_quit`, or two while a barrier waits
    /// for the kernel.
    fn between_passes(&mut self, ctx: &KernelCtx) -> KernelPoll<'_> {
        if !self.publish() {
            // The CQ refused part of the batch: the carrier drains it.
            return KernelPoll::Pending(&[]);
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
            self.idle_passes = 0;
            return KernelPoll::Moved;
        }
        let shared = &self.shared;
        let exit = shared.final_exit_requested()
            && self.scheduler.is_empty()
            && !shared.sq.has_pending(&shared.sq_cursor.lock());
        self.idle_passes += 1;
        let quit = self.idle_passes >= shared.config.idle_passes_before_quit
            || (self.idle_passes >= 2 && ctx.barrier_pending);
        if exit || quit {
            self.retire(!exit);
            return KernelPoll::Ready(KernelOutcome::Completed);
        }
        KernelPoll::Pending(&[])
    }

    /// End the incarnation: return an open slice to the context store,
    /// publish what the CQ will take and ring the carrier, whose seat
    /// launches a successor while work is owed. `voluntary` marks a quit
    /// (idle budget, pending barrier), not the final exit. Idempotent; also
    /// runs on drop, so an engine tearing the kernel down strands nothing.
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
        self.shared.notify_daemon();
    }
}

impl Kernel for DaemonCore {
    fn name(&self) -> String {
        format!("dfccl-daemon-{}", self.shared.gpu)
    }

    fn grid_blocks(&self) -> u32 {
        self.shared.config.daemon_blocks
    }

    fn shared_mem_per_block(&self) -> usize {
        self.shared.config.shared_mem_per_block
    }

    /// One step: a lane pass of the open slice (opening the next scheduled
    /// one first if none is open) or, when the pass's order is exhausted,
    /// the between-passes step complete → rescan → admission → schedule.
    fn poll(&mut self, ctx: &KernelCtx) -> KernelPoll<'_> {
        if self.retired || (!self.started && !self.start()) {
            return KernelPoll::Ready(KernelOutcome::Completed);
        }
        while self.slice.is_none() {
            let Some(coll_id) = self.order.next() else {
                return self.between_passes(ctx);
            };
            self.open_slice(coll_id);
        }
        self.lane_pass()
    }
}

impl Drop for DaemonCore {
    fn drop(&mut self) {
        self.retire(false);
    }
}
