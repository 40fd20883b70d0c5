//! The **execute** stage: a *slice* is the time one collective holds the
//! core between being scheduled and completing, failing or being preempted.
//! [`DaemonCore::open_slice`] checks the collective's dynamic context out and
//! every [`DaemonCore::lane_pass`] makes one pass of its lane run — the same
//! [`LaneRun::pass`](dfccl_collectives::LaneRun::pass) the NCCL-like
//! baseline's kernel makes. What is DFCCL's own is the bookkeeping around it:
//! the adaptive spin threshold, the lazy-saving flag and two-phase blocking,
//! which closes the slice after the threshold's worth of consecutive
//! fruitless passes.

use std::sync::Arc;
use std::time::Instant;

use dfccl_collectives::LanePass;
use gpu_sim::KernelPoll;

use super::core::DaemonCore;
use super::RegisteredCollective;
use crate::context::DynamicContext;
use crate::telemetry::TelemetryEventKind;
use crate::tenant::TenantId;

/// The collective currently holding the core.
pub(super) struct Slice {
    reg: Arc<RegisteredCollective>,
    /// The checked-out dynamic context (returned to the store on close).
    ctx: DynamicContext,
    /// Spin threshold after adaptive raises; persisted in the task queue on
    /// close for the collective's next slice.
    pub(super) threshold: u64,
    /// Consecutive fruitless lane passes.
    polls: u64,
    /// Primitives completed in this slice, for its one `ChunkMoved` event.
    primitives: u64,
}

impl DaemonCore {
    /// Check `coll_id`'s current invocation out of the context store and
    /// make it the open slice. An id that is unregistered (its invocation is
    /// failed) or has nothing pending (stale) is dropped from the scheduler
    /// instead, leaving no slice open.
    pub(super) fn open_slice(&mut self, coll_id: u64) {
        let shared = &self.shared;
        let Some(reg) = self.registry.get(shared, coll_id) else {
            if let Some((ctx, _)) = shared.contexts.checkout_current(coll_id) {
                let reason = "collective not registered".to_string();
                self.finish_invocation(coll_id, TenantId::DEFAULT, ctx.graph, Some(reason));
            }
            self.scheduler.remove(coll_id);
            return;
        };
        let Some((ctx, load)) = shared.contexts.checkout_current(coll_id) else {
            self.scheduler.remove(coll_id);
            return;
        };
        shared.telemetry.record_context_load(load);
        if ctx.preempted {
            shared
                .telemetry
                .record(coll_id, reg.tenant, TelemetryEventKind::Resume);
        }
        let threshold = self
            .scheduler
            .entry_mut(coll_id)
            .map(|e| e.spin_threshold)
            .unwrap_or_else(|| shared.config.spin.initial_threshold(0));
        self.slice = Some(Slice {
            reg,
            ctx,
            threshold,
            polls: 0,
            primitives: 0,
        });
    }

    /// One pass of the open slice's lane run: each lane's head instruction
    /// is polled once and run if ready, so a stalled channel never
    /// head-of-line-blocks a ready one. Each completed primitive raises the
    /// spin threshold; a pass that neither ran one nor put a staged chunk on
    /// the wire is `Pending` on its lane heads' edges, and the `threshold`-th
    /// in a row preempts the collective (context saved, next one scheduled).
    pub(super) fn lane_pass(&mut self) -> KernelPoll<'_> {
        let slice = self.slice.as_mut().expect("lane pass needs an open slice");
        let (reg, ctx) = (&*slice.reg, &mut slice.ctx);
        let start = Instant::now();
        let pass = ctx.run.pass(
            reg.coll_id,
            &reg.program,
            &reg.table,
            reg.desc.op,
            &ctx.send,
            &ctx.recv,
        );
        match pass {
            Ok(LanePass::Moved(ran)) => {
                if ran > 0 {
                    let shared = &self.shared;
                    shared
                        .telemetry
                        .record_primitives(start.elapsed(), ran as u64);
                    ctx.progressed_since_save = true;
                    slice.primitives += ran as u64;
                    // Adaptive stickiness: each successful primitive raises
                    // the threshold of its successors (decentralized dynamic
                    // gang-scheduling).
                    for _ in 0..ran {
                        slice.threshold = shared.config.spin.on_success(slice.threshold);
                    }
                }
                slice.polls = 0;
                self.pass_active = true;
                KernelPoll::Moved
            }
            Ok(LanePass::Stuck) => {
                // A fruitless run moves no cursor: its first pass names it.
                if slice.polls == 0 {
                    let devices = &reg.desc.devices;
                    ctx.run
                        .waits(&reg.program, &reg.table, devices, &mut self.waits);
                }
                slice.polls += 1;
                if slice.polls >= slice.threshold {
                    self.preempt_slice();
                }
                KernelPoll::Pending(&self.waits)
            }
            Ok(LanePass::Done) => {
                self.finish_slice(None);
                KernelPoll::Moved
            }
            Err(e) => {
                self.finish_slice(Some(e.to_string()));
                KernelPoll::Moved
            }
        }
    }

    /// Take the open slice off the core, emitting its one `ChunkMoved` event
    /// (one per slice, not per primitive, to bound the telemetry cost of a
    /// hot slice) and persisting the adaptively raised threshold.
    fn take_slice(&mut self) -> (Arc<RegisteredCollective>, DynamicContext) {
        let slice = self.slice.take().expect("no open slice");
        let (coll_id, tenant) = (slice.reg.coll_id, slice.reg.tenant);
        if slice.primitives > 0 {
            let moved = TelemetryEventKind::ChunkMoved(slice.primitives);
            self.shared.telemetry.record(coll_id, tenant, moved);
        }
        if let Some(entry) = self.scheduler.entry_mut(coll_id) {
            entry.spin_threshold = slice.threshold;
        }
        (slice.reg, slice.ctx)
    }

    /// Preempt the open slice: save its context back at its queue position.
    pub(super) fn preempt_slice(&mut self) {
        let (reg, ctx) = self.take_slice();
        let telemetry = &self.shared.telemetry;
        telemetry.record(reg.coll_id, reg.tenant, TelemetryEventKind::Preempt);
        let saved = self.shared.contexts.checkin_incomplete(reg.coll_id, ctx);
        telemetry.record_context_save(saved);
    }

    /// Close the open slice as failed (with the reason) or completed.
    fn finish_slice(&mut self, failed: Option<String>) {
        let (reg, ctx) = self.take_slice();
        let coll_id = reg.coll_id;
        self.pass_active = true;
        if failed.is_some() {
            self.finish_invocation(coll_id, reg.tenant, ctx.graph, failed);
        } else {
            // A recovery ghost replay already published its CQE before the
            // failure — it only moves data, so it completes silently.
            if !ctx.silent_replay {
                self.finish_invocation(coll_id, reg.tenant, ctx.graph, None);
            }
            // The invocation is done with its context: recycle its lane run
            // for the collective's next one.
            self.shared.contexts.recycle(coll_id, ctx);
        }
        if !self.shared.contexts.has_pending(coll_id) {
            self.scheduler.remove(coll_id);
        }
    }
}
