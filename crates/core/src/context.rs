//! Collective contexts: what survives a preemption.
//!
//! The *static context* of a collective (descriptor, rank, primitive plan,
//! connectors) is fixed at registration time. The *dynamic context* changes as
//! the collective executes — its lane run (per-lane cursors and staged chunks)
//! and the buffers of the current invocation — and is what must be saved when the
//! collective is preempted and reloaded when it is rescheduled (Sec. 4.2).
//!
//! The store models the paper's memory hierarchy: a small direct-mapped cache
//! of *active context slots* ("shared memory") in front of the *collective
//! context buffer* ("global memory"). Loading a context that is not in an
//! active slot costs the modelled load; saving costs the modelled save, and
//! the *lazy-saving* optimisation skips the save when the collective made no
//! progress since it was last saved. Both costs are modelled, not executed:
//! the store reports them and the daemon records them in the rank's ledger.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use dfccl_collectives::{DeviceBuffer, LaneRun};
use parking_lot::Mutex;

use crate::config::HostMemCosts;

/// Which graph replay an invocation belongs to, if any. Carried in the
/// dynamic context so the daemon can route the constituent's completion to
/// the graph's single completion accounting instead of emitting a per-node
/// CQE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphTag {
    /// The graph's replay id (`GRAPH_ID_BASE | counter`).
    pub graph_id: u64,
    /// Which replay of the graph (its submission sequence number).
    pub run: u64,
    /// This invocation's node index within the graph.
    pub node: u32,
}

/// Dynamic context of one invocation of a collective.
#[derive(Debug, Clone)]
pub struct DynamicContext {
    /// The compiled program's lane run: the next instruction of every lane
    /// and the chunks staged per channel. Sized by its first pass and kept
    /// across preemptions, so a resumed collective continues every lane
    /// exactly where it stalled.
    pub run: LaneRun,
    /// Submission sequence number of this invocation.
    pub run_seq: u64,
    /// Send buffer of this invocation.
    pub send: DeviceBuffer,
    /// Recv buffer of this invocation.
    pub recv: DeviceBuffer,
    /// Whether the collective progressed since its context was last saved
    /// (drives the lazy-saving optimisation).
    pub progressed_since_save: bool,
    /// Set by [`ContextStore::checkin_incomplete`]: this invocation has been
    /// preempted, so its next checkout is a resume — even when the preemption
    /// came before the first primitive completed.
    pub preempted: bool,
    /// The graph replay this invocation belongs to, if it was expanded from
    /// a graph SQE rather than submitted individually.
    pub graph: Option<GraphTag>,
    /// Recovery-only ghost replay: this invocation re-executes a round that
    /// already completed on this rank (its CQE was published) so that ranks
    /// which had not finished the round can make progress. Completion of a
    /// silent replay publishes no CQE, runs no callback and releases no
    /// outstanding slot — it only moves data.
    pub silent_replay: bool,
}

impl DynamicContext {
    /// Fresh context for a new invocation.
    pub fn new(run_seq: u64, send: DeviceBuffer, recv: DeviceBuffer) -> Self {
        DynamicContext {
            run: LaneRun::default(),
            run_seq,
            send,
            recv,
            progressed_since_save: false,
            preempted: false,
            graph: None,
            silent_replay: false,
        }
    }
}

/// One collective's rounds on one rank, as the stall detector counts them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Rounds {
    /// Invocations completed here (silent replays excluded).
    pub completed: u64,
    /// Invocations pending here, plus the one out in a slice. A silent
    /// replay re-runs a round already counted in `completed`: not held.
    pub held: u64,
}

/// Outcome of a context checkout, reporting whether the modelled active-slot
/// cache hit (nothing to load) or missed, with the modelled load cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextLoad {
    /// The context was already in an active slot.
    CacheHit,
    /// The context was loaded from the context buffer in global memory, at
    /// this modelled cost.
    CacheMiss(Duration),
}

#[derive(Default)]
struct PerCollective {
    /// Pending invocations in FIFO order; the front is the one currently
    /// being executed or next to execute.
    pending: VecDeque<DynamicContext>,
    /// The cleared lane run of the last completed invocation: the next
    /// invocation of this collective refills it instead of allocating (the
    /// shapes recur, so the capacity fits).
    spare: Option<LaneRun>,
    /// The recovery coordinator has quarantined this collective: checkouts
    /// return `None` (the daemon sees an empty queue and drops the task)
    /// until [`ContextStore::end_recovery`] reinstalls the rolled-back
    /// invocations.
    recovering: bool,
    /// The front invocation is currently checked out into an execution
    /// slice. Recovery must wait for this to clear before it owns every
    /// pending context.
    in_slice: bool,
    /// The invocation out in the slice is a silent replay.
    ghost_in_slice: bool,
    /// Invocations of this collective completed on this rank (silent
    /// replays excluded). Ranks compare these counts during recovery to
    /// find who ran ahead.
    completed: u64,
    /// Buffers and identity of the last completed (non-silent) round, kept
    /// so a rank that ran ahead can ghost-replay it for stragglers.
    last_completed: Option<(u64, DeviceBuffer, DeviceBuffer, Option<GraphTag>)>,
}

/// The context store shared between daemon-kernel incarnations. It lives in
/// (modelled) global memory, so voluntary quits and restarts of the daemon do
/// not lose preempted collectives.
pub struct ContextStore {
    per_coll: Mutex<HashMap<u64, PerCollective>>,
    /// Direct-mapped active-slot cache: which collective id occupies each slot.
    active_slots: Mutex<Vec<Option<u64>>>,
    load_cost: Duration,
    save_cost: Duration,
}

impl ContextStore {
    /// Create a store with `active_slots` cache slots whose context loads
    /// and saves are modelled at `costs`.
    pub fn new(active_slots: usize, costs: HostMemCosts) -> Self {
        ContextStore {
            per_coll: Mutex::new(HashMap::new()),
            active_slots: Mutex::new(vec![None; active_slots.max(1)]),
            load_cost: Duration::from_nanos(costs.context_load_ns.max(0.0) as u64),
            save_cost: Duration::from_nanos(costs.context_save_ns.max(0.0) as u64),
        }
    }

    /// Queue a new invocation of `coll_id`. Returns the number of invocations
    /// now pending for that collective (including this one). The new
    /// (fresh) context adopts the lane run recycled from the collective's
    /// last completed invocation, so steady-state invocations allocate no
    /// cursor or staging-slot storage.
    pub fn enqueue_invocation(&self, coll_id: u64, mut ctx: DynamicContext) -> usize {
        let mut map = self.per_coll.lock();
        let entry = map.entry(coll_id).or_default();
        if let Some(run) = entry.spare.take() {
            ctx.run = run;
        }
        entry.pending.push_back(ctx);
        entry.pending.len()
    }

    /// Take the current (front) invocation of `coll_id` for execution,
    /// reporting the load cost unless the collective is in an active slot.
    /// Returns `None` while the collective is under recovery, so the daemon
    /// parks it until the coordinator reinstalls its contexts.
    pub fn checkout_current(&self, coll_id: u64) -> Option<(DynamicContext, ContextLoad)> {
        let ctx = {
            let mut map = self.per_coll.lock();
            let entry = map.get_mut(&coll_id)?;
            if entry.recovering {
                return None;
            }
            let ctx = entry.pending.pop_front()?;
            entry.in_slice = true;
            entry.ghost_in_slice = ctx.silent_replay;
            ctx
        };
        let load = {
            let mut slots = self.active_slots.lock();
            let idx = (coll_id as usize) % slots.len();
            if slots[idx] == Some(coll_id) {
                ContextLoad::CacheHit
            } else {
                slots[idx] = Some(coll_id);
                ContextLoad::CacheMiss(self.load_cost)
            }
        };
        Some((ctx, load))
    }

    /// Put back a preempted, incomplete invocation. It is saved only if the
    /// collective progressed since its last save (lazy saving): returns the
    /// modelled save cost then, `None` when the save was skipped.
    pub fn checkin_incomplete(&self, coll_id: u64, mut ctx: DynamicContext) -> Option<Duration> {
        let saved = ctx.progressed_since_save.then_some(self.save_cost);
        ctx.progressed_since_save = false;
        ctx.preempted = true;
        let mut map = self.per_coll.lock();
        let entry = map.entry(coll_id).or_default();
        entry.pending.push_front(ctx);
        entry.in_slice = false;
        saved
    }

    /// Recycle a completed invocation's context: clear its lane run
    /// (capacity retained) and stash it for the next invocation of `coll_id`
    /// to adopt in [`ContextStore::enqueue_invocation`].
    pub fn recycle(&self, coll_id: u64, mut ctx: DynamicContext) {
        ctx.run.clear();
        let mut map = self.per_coll.lock();
        let entry = map.entry(coll_id).or_default();
        entry.in_slice = false;
        if !ctx.silent_replay {
            entry.completed += 1;
            entry.last_completed =
                Some((ctx.run_seq, ctx.send.clone(), ctx.recv.clone(), ctx.graph));
        }
        entry.spare = Some(ctx.run);
    }

    /// Whether more invocations are pending for `coll_id`.
    pub fn has_pending(&self, coll_id: u64) -> bool {
        self.per_coll
            .lock()
            .get(&coll_id)
            .map(|e| !e.pending.is_empty())
            .unwrap_or(false)
    }

    /// Collective ids that currently have pending invocations, ordered by the
    /// submission sequence of their front invocation (oldest first). Used to
    /// rebuild the task queue when the daemon kernel restarts.
    pub fn incomplete_ids(&self) -> Vec<u64> {
        let map = self.per_coll.lock();
        let mut ids: Vec<(u64, u64)> = map
            .iter()
            .filter_map(|(&id, e)| e.pending.front().map(|c| (c.run_seq, id)))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    /// Every collective's [`Rounds`] on this rank, read under one lock.
    pub(crate) fn rounds(&self) -> HashMap<u64, Rounds> {
        let rounds = |e: &PerCollective| Rounds {
            completed: e.completed,
            held: e.pending.iter().filter(|c| !c.silent_replay).count() as u64
                + u64::from(e.in_slice && !e.ghost_in_slice),
        };
        let map = self.per_coll.lock();
        map.iter().map(|(&id, e)| (id, rounds(e))).collect()
    }

    /// Total pending invocations across all collectives.
    pub fn total_pending(&self) -> usize {
        self.per_coll.lock().values().map(|e| e.pending.len()).sum()
    }

    // --- Recovery protocol -------------------------------------------------
    //
    // The coordinator quarantines a stalled collective (`begin_recovery`),
    // waits for any in-flight execution slice to check its context back in,
    // drains what arrived meanwhile (`take_recovered`), rebuilds fresh
    // contexts (partially-reduced chunks cannot be resumed — they are
    // re-executed from the source buffers), and reinstalls them
    // (`end_recovery`). While `recovering` is set, `checkout_current`
    // returns `None`, so the daemon cannot race the rollback.

    /// Quarantine `coll_id` and drain its pending invocations. Subsequent
    /// checkouts return `None` until [`ContextStore::end_recovery`]. An
    /// invocation currently out in an execution slice is *not* included —
    /// poll [`ContextStore::in_slice`] and then [`ContextStore::take_recovered`]
    /// to collect it once the slice ends.
    pub fn begin_recovery(&self, coll_id: u64) -> Vec<DynamicContext> {
        let mut map = self.per_coll.lock();
        let entry = map.entry(coll_id).or_default();
        entry.recovering = true;
        entry.pending.drain(..).collect()
    }

    /// Whether `coll_id`'s front invocation is currently checked out into an
    /// execution slice (recovery must wait for it to return).
    pub fn in_slice(&self, coll_id: u64) -> bool {
        self.per_coll
            .lock()
            .get(&coll_id)
            .map(|e| e.in_slice)
            .unwrap_or(false)
    }

    /// Second drain during recovery: collects the context a mid-slice
    /// execution checked back in after [`ContextStore::begin_recovery`], plus
    /// any new invocations submitted meanwhile.
    pub fn take_recovered(&self, coll_id: u64) -> Vec<DynamicContext> {
        let mut map = self.per_coll.lock();
        match map.get_mut(&coll_id) {
            Some(entry) => entry.pending.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Reinstall `contexts` (in order: front first) as `coll_id`'s pending
    /// queue and lift the quarantine. Invocations submitted after the last
    /// drain keep their place behind the reinstalled ones.
    pub fn end_recovery(&self, coll_id: u64, contexts: Vec<DynamicContext>) {
        let mut map = self.per_coll.lock();
        let entry = map.entry(coll_id).or_default();
        for ctx in contexts.into_iter().rev() {
            entry.pending.push_front(ctx);
        }
        entry.recovering = false;
    }

    /// Identity and buffers of the last completed (non-silent) round of
    /// `coll_id`, for ghost replay on ranks that ran ahead.
    pub fn last_completed(
        &self,
        coll_id: u64,
    ) -> Option<(u64, DeviceBuffer, DeviceBuffer, Option<GraphTag>)> {
        self.per_coll.lock().get(&coll_id)?.last_completed.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seq: u64) -> DynamicContext {
        DynamicContext::new(seq, DeviceBuffer::zeroed(4), DeviceBuffer::zeroed(4))
    }

    /// A store under the default cost model: a load costs 450 ns, a save 50.
    fn store() -> ContextStore {
        ContextStore::new(4, HostMemCosts::default())
    }

    const MISS: ContextLoad = ContextLoad::CacheMiss(Duration::from_nanos(450));

    #[test]
    fn enqueue_checkout_round_trip() {
        let s = store();
        assert_eq!(s.enqueue_invocation(1, ctx(0)), 1);
        assert_eq!(s.enqueue_invocation(1, ctx(1)), 2);
        let (c, _) = s.checkout_current(1).unwrap();
        assert_eq!(c.run_seq, 0);
        assert!(s.has_pending(1));
        let (c, _) = s.checkout_current(1).unwrap();
        assert_eq!(c.run_seq, 1);
        assert!(!s.has_pending(1));
        assert!(s.checkout_current(1).is_none());
    }

    #[test]
    fn checkin_restores_front_position() {
        let s = store();
        s.enqueue_invocation(1, ctx(0));
        s.enqueue_invocation(1, ctx(1));
        let (mut c, _) = s.checkout_current(1).unwrap();
        c.progressed_since_save = true;
        assert_eq!(s.checkin_incomplete(1, c), Some(Duration::from_nanos(50)));
        let (c, _) = s.checkout_current(1).unwrap();
        assert_eq!(c.run_seq, 0, "preempted invocation stays in front");
        assert!(c.preempted);
        assert!(!c.progressed_since_save, "flag reset after save");
    }

    #[test]
    fn the_next_invocation_adopts_the_recycled_lane_run() {
        let s = store();
        s.enqueue_invocation(1, ctx(0));
        let (c, _) = s.checkout_current(1).unwrap();
        s.recycle(1, c);
        let spare = |s: &ContextStore| s.per_coll.lock()[&1].spare.is_some();
        assert!(spare(&s), "a completed invocation leaves its run behind");
        s.enqueue_invocation(1, ctx(1));
        assert!(!spare(&s), "the next invocation took it");
    }

    #[test]
    fn lazy_saving_skips_unprogressed_contexts() {
        let s = store();
        s.enqueue_invocation(2, ctx(0));
        let (c, _) = s.checkout_current(2).unwrap();
        assert!(!c.preempted);
        assert_eq!(s.checkin_incomplete(2, c), None, "no progress, no save");
        let (c, _) = s.checkout_current(2).unwrap();
        assert!(
            c.preempted,
            "a checked-in context resumes on its next checkout"
        );
    }

    #[test]
    fn cache_hits_after_first_load() {
        let s = store();
        s.enqueue_invocation(3, ctx(0));
        let (c, load) = s.checkout_current(3).unwrap();
        assert_eq!(load, MISS);
        s.checkin_incomplete(3, c);
        let (_, load) = s.checkout_current(3).unwrap();
        assert_eq!(load, ContextLoad::CacheHit);
    }

    #[test]
    fn direct_mapped_slots_conflict_on_collisions() {
        let s = ContextStore::new(2, HostMemCosts::default());
        // Collective ids 0 and 2 both map to slot 0.
        s.enqueue_invocation(0, ctx(0));
        s.enqueue_invocation(2, ctx(0));
        let (c0, l0) = s.checkout_current(0).unwrap();
        assert_eq!(l0, MISS);
        s.checkin_incomplete(0, c0);
        let (c2, l2) = s.checkout_current(2).unwrap();
        assert_eq!(l2, MISS, "conflicting id evicts the slot");
        s.checkin_incomplete(2, c2);
        let (_, l0_again) = s.checkout_current(0).unwrap();
        assert_eq!(l0_again, MISS, "evicted id misses again");
    }

    #[test]
    fn recovery_quarantines_drains_and_reinstalls() {
        let s = store();
        s.enqueue_invocation(1, ctx(0));
        s.enqueue_invocation(1, ctx(1));
        // One invocation is mid-slice when recovery begins.
        let (mid, _) = s.checkout_current(1).unwrap();
        assert!(s.in_slice(1));
        let drained = s.begin_recovery(1);
        assert_eq!(drained.len(), 1, "mid-slice context is not drained");
        assert_eq!(drained[0].run_seq, 1);
        // Quarantined: nothing can be checked out, but check-ins still land.
        assert!(s.checkout_current(1).is_none());
        s.checkin_incomplete(1, mid);
        assert!(!s.in_slice(1));
        let late = s.take_recovered(1);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].run_seq, 0);
        // Reinstall in submission order; quarantine lifts.
        s.end_recovery(1, vec![ctx(0), ctx(1)]);
        let (c, _) = s.checkout_current(1).unwrap();
        assert_eq!(c.run_seq, 0);
        let (c, _) = s.checkout_current(1).unwrap();
        assert_eq!(c.run_seq, 1);
    }

    #[test]
    fn rounds_skip_silent_replays() {
        let s = store();
        let rounds = |s: &ContextStore| {
            let r = s.rounds()[&1];
            (r.completed, r.held)
        };
        s.enqueue_invocation(1, ctx(7));
        let (c, _) = s.checkout_current(1).unwrap();
        assert_eq!(rounds(&s), (0, 1), "the invocation out in its slice");
        s.recycle(1, c);
        assert_eq!(rounds(&s), (1, 0), "(completed, held)");
        let (seq, _, _, graph) = s.last_completed(1).unwrap();
        assert_eq!(seq, 7);
        assert!(graph.is_none());
        // A ghost replay re-runs the counted round: it is never held, and
        // completes without advancing the count.
        let mut ghost = ctx(7);
        ghost.silent_replay = true;
        s.enqueue_invocation(1, ghost);
        assert_eq!(rounds(&s), (1, 0), "pending ghost");
        let (c, _) = s.checkout_current(1).unwrap();
        assert!(c.silent_replay);
        assert_eq!(rounds(&s), (1, 0), "ghost in its slice");
        s.recycle(1, c);
        assert_eq!(rounds(&s), (1, 0), "(completed, held)");
        assert!(!s.in_slice(1));
    }

    #[test]
    fn incomplete_ids_ordered_by_submission() {
        let s = store();
        s.enqueue_invocation(9, ctx(5));
        s.enqueue_invocation(4, ctx(2));
        s.enqueue_invocation(7, ctx(8));
        assert_eq!(s.incomplete_ids(), vec![4, 9, 7]);
        assert_eq!(s.total_pending(), 3);
    }
}
