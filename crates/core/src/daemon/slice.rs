//! The **execute** stage: a *slice* is the time one collective holds the
//! core between being scheduled and completing, failing or being preempted.
//! [`DaemonCore::open_slice`] checks the collective's dynamic context out,
//! every [`DaemonCore::lane_pass`] polls each lane of its compiled program
//! once, and the slice is closed by completion, failure or — two-phase
//! blocking — the spin threshold's worth of consecutive fruitless passes.

use std::sync::Arc;
use std::time::Instant;

use dfccl_collectives::{execute_ready_instr, flush_pending_compiled, instr_ready, StepOutcome};

use super::core::{BlockedOn, DaemonCore, Progress};
use super::RegisteredCollective;
use crate::context::{ContextLoad, DynamicContext};
use crate::telemetry::TelemetryEventKind;
use crate::tenant::TenantId;

/// The collective currently holding the core.
pub(super) struct Slice {
    reg: Arc<RegisteredCollective>,
    /// The checked-out dynamic context (returned to the store on close).
    ctx: DynamicContext,
    /// Spin threshold after adaptive raises; persisted in the task queue on
    /// close for the collective's next slice.
    threshold: u64,
    /// Consecutive fruitless lane passes.
    polls: u64,
    /// `ctx.next_step` at open, for the slice's one `ChunkMoved` event.
    steps_before: usize,
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
        let prep_start = Instant::now();
        let Some((mut ctx, load)) = shared.contexts.checkout_current(coll_id) else {
            self.scheduler.remove(coll_id);
            return;
        };
        shared.telemetry.record_context_load();
        if load == ContextLoad::CacheMiss {
            shared.telemetry.record_preparing(prep_start.elapsed());
        }
        if ctx.preempted {
            shared
                .telemetry
                .record(coll_id, reg.tenant, TelemetryEventKind::Resume);
        }
        ctx.ensure_lanes(reg.program.lane_count());
        let threshold = self
            .scheduler
            .entry_mut(coll_id)
            .map(|e| e.spin_threshold)
            .unwrap_or_else(|| shared.config.spin.initial_threshold(0));
        self.slice = Some(Slice {
            steps_before: ctx.next_step,
            reg,
            ctx,
            threshold,
            polls: 0,
        });
    }

    /// One pass over the open slice's lanes: poll each lane's head
    /// instruction once (pure index dispatch into the bound connector table
    /// — no map lookups) and execute the ready ones, so a stalled channel
    /// never head-of-line-blocks a ready one. With `K = 1` lanes this is
    /// per-primitive polling; the `threshold`-th consecutive fruitless pass
    /// preempts the collective (its context saved, the next one scheduled).
    pub(super) fn lane_pass(&mut self) -> Progress {
        let slice = self.slice.as_mut().expect("lane pass needs an open slice");
        let (reg, ctx) = (&*slice.reg, &mut slice.ctx);
        let program = reg.program.as_ref();
        let mut advanced = 0;
        let mut remaining = false;
        let mut failed = None;
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
                reg.coll_id,
                program,
                idx,
                &reg.table,
                reg.desc.op,
                &ctx.send,
                &ctx.recv,
                &mut ctx.pending_sends,
            ) {
                Ok(StepOutcome::Completed) => {
                    self.shared.telemetry.record_primitive(exec_start.elapsed());
                    ctx.lane_cursors[li] += 1;
                    ctx.next_step += 1;
                    ctx.progressed_since_save = true;
                    advanced += 1;
                    // Adaptive stickiness: a successful primitive raises the
                    // threshold of its successors (decentralized dynamic
                    // gang-scheduling).
                    slice.threshold = self.shared.config.spin.on_success(slice.threshold);
                }
                // The executor may still have flushed staged chunks on other
                // channels — published data is progress.
                Ok(StepOutcome::NotReady) => {
                    advanced += usize::from(ctx.pending_sends.len() < staged_before);
                }
                Err(e) => {
                    failed = Some(e.to_string());
                    break;
                }
            }
        }
        if !remaining {
            // Every lane is done; the collective completes once the staged
            // chunks (at most one per channel) are on the wire.
            let staged_before = ctx.pending_sends.len();
            match flush_pending_compiled(program, &reg.table, &mut ctx.pending_sends) {
                Ok(true) => {
                    self.finish_slice(None);
                    return Progress::Advanced(advanced + 1);
                }
                Ok(false) => advanced += usize::from(ctx.pending_sends.len() < staged_before),
                Err(e) => failed = Some(e.to_string()),
            }
        }
        if failed.is_some() {
            self.finish_slice(failed);
        } else if advanced > 0 {
            slice.polls = 0;
            self.pass_active = true;
        } else {
            slice.polls += 1;
            if slice.polls >= slice.threshold {
                self.preempt_slice();
            }
            return Progress::Blocked(BlockedOn::Connectors);
        }
        Progress::Advanced(advanced)
    }

    /// Take the open slice off the core, emitting its one `ChunkMoved` event
    /// (one per slice, not per primitive, to bound the telemetry cost of a
    /// hot slice) and persisting the adaptively raised threshold.
    fn take_slice(&mut self) -> (Arc<RegisteredCollective>, DynamicContext) {
        let slice = self.slice.take().expect("no open slice");
        let (coll_id, tenant) = (slice.reg.coll_id, slice.reg.tenant);
        let moved = (slice.ctx.next_step - slice.steps_before) as u64;
        if moved > 0 {
            self.shared
                .telemetry
                .record(coll_id, tenant, TelemetryEventKind::ChunkMoved(moved));
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
            // The invocation is done with its context: recycle the
            // cursor/staging storage for the collective's next one.
            self.shared.contexts.recycle(coll_id, ctx);
        }
        if !self.shared.contexts.has_pending(coll_id) {
            self.scheduler.remove(coll_id);
        }
    }
}
