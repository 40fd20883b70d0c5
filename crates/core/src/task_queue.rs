//! The daemon kernel's task queue (kept in shared memory on real hardware).
//!
//! Fetched SQEs become task entries. Under the FIFO ordering policy new
//! entries go to the back; under the priority-based policy the queue is kept
//! sorted by the user-specified priority (higher first), with arrival order
//! breaking ties. A preempted collective keeps its queue position (Sec. 4.3).
//!
//! In service mode the flat queue becomes a set of per-tenant **lanes**
//! arbitrated by [`TenantScheduler`]: each tenant keeps its own [`TaskQueue`]
//! (so the paper's FIFO-and-priority semantics hold unchanged within a
//! tenant), and a scheduling pass interleaves lanes by weighted fair
//! sharing. With a single active lane the scheduler is a
//! transparent passthrough to the flat queue — the pre-service path.

use std::collections::HashMap;
use std::sync::Arc;

use crate::config::{OrderingPolicy, SpinPolicy, TenantArbitration};
use crate::tenant::{TenantId, TenantState};

/// One entry of the task queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEntry {
    /// The registered collective to execute.
    pub coll_id: u64,
    /// User-specified priority (higher runs earlier under the priority policy).
    pub priority: i32,
    /// Monotonic arrival index (fetch order from the SQ).
    pub arrival: u64,
    /// Current spin threshold assigned to this collective's primitives.
    pub spin_threshold: u64,
}

/// The per-daemon task queue.
#[derive(Debug, Default)]
pub struct TaskQueue {
    entries: Vec<TaskEntry>,
    next_arrival: u64,
}

impl TaskQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        TaskQueue::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `coll_id` is already queued.
    pub fn contains(&self, coll_id: u64) -> bool {
        self.entries.iter().any(|e| e.coll_id == coll_id)
    }

    /// Append a new entry (FIFO position) carrying its configured initial
    /// spin threshold (from [`SpinPolicy::initial_threshold`] at the entry's
    /// queue position — no more silent 0 that a scheduling pass had to
    /// repair). Returns the entry's arrival index.
    pub fn push(&mut self, coll_id: u64, priority: i32, initial_spin: u64) -> u64 {
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        self.entries.push(TaskEntry {
            coll_id,
            priority,
            arrival,
            spin_threshold: initial_spin,
        });
        arrival
    }

    /// Remove the entry for `coll_id` (after its completion).
    pub fn remove(&mut self, coll_id: u64) -> Option<TaskEntry> {
        let idx = self.entries.iter().position(|e| e.coll_id == coll_id)?;
        Some(self.entries.remove(idx))
    }

    /// Re-order the queue according to the policy. FIFO keeps arrival order;
    /// the priority policy sorts by descending priority, then arrival.
    pub fn reorder(&mut self, policy: OrderingPolicy) {
        match policy {
            OrderingPolicy::Fifo => self.entries.sort_by_key(|e| e.arrival),
            OrderingPolicy::PriorityBased => self
                .entries
                .sort_by_key(|e| (std::cmp::Reverse(e.priority), e.arrival)),
        }
    }

    /// Entries in current order.
    pub fn entries(&self) -> &[TaskEntry] {
        &self.entries
    }

    /// Mutable access to an entry by collective id.
    pub fn entry_mut(&mut self, coll_id: u64) -> Option<&mut TaskEntry> {
        self.entries.iter_mut().find(|e| e.coll_id == coll_id)
    }

    /// Collective ids in current order (snapshot, for iteration while the
    /// queue itself is mutated by execution).
    pub fn order(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.coll_id).collect()
    }

    /// Assign initial spin thresholds by queue position using `f(position)`.
    pub fn assign_initial_thresholds(&mut self, f: impl Fn(usize) -> u64) {
        for (pos, e) in self.entries.iter_mut().enumerate() {
            e.spin_threshold = f(pos);
        }
    }
}

/// One tenant's scheduling lane.
#[derive(Debug)]
struct TenantLane {
    /// Lane key (always [`TenantId::DEFAULT`] in flat mode).
    key: TenantId,
    state: Arc<TenantState>,
    queue: TaskQueue,
    /// Rotating selection offset for weighted-fair passes whose slice budget
    /// binds: the next pass resumes where this one stopped, so every queued
    /// collective is polled within ⌈len/budget⌉ passes.
    cursor: usize,
}

/// Per-tenant queue set with weighted-fair arbitration —
/// the **schedule** stage of the service-mode daemon.
///
/// With at most one active lane a pass is byte-for-byte the pre-service
/// schedule: reorder the flat queue, assign position-based spin thresholds,
/// return the full order. Arbitration only engages when tenants contend.
#[derive(Debug)]
pub struct TenantScheduler {
    /// Flat mode collapses every tenant into one lane and skips gauge
    /// accounting. The daemon always passes `false`; the argument stays only
    /// until the repository benchmark's probe stops naming it (ROADMAP item 5).
    flat: bool,
    /// Lanes sorted by tenant id.
    lanes: Vec<TenantLane>,
    /// coll_id → lane key for O(1)-ish entry lookups.
    index: HashMap<u64, TenantId>,
}

impl TenantScheduler {
    /// An empty scheduler. `flat` selects the pre-service single-queue path.
    pub fn new(flat: bool) -> Self {
        TenantScheduler {
            flat,
            lanes: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Total queued collectives across all lanes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no collective is queued.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `coll_id` is queued in any lane.
    pub fn contains(&self, coll_id: u64) -> bool {
        self.index.contains_key(&coll_id)
    }

    fn lane_pos(&mut self, key: TenantId, state: &Arc<TenantState>) -> usize {
        match self.lanes.binary_search_by_key(&key, |l| l.key) {
            Ok(pos) => pos,
            Err(pos) => {
                self.lanes.insert(
                    pos,
                    TenantLane {
                        key,
                        state: Arc::clone(state),
                        queue: TaskQueue::new(),
                        cursor: 0,
                    },
                );
                pos
            }
        }
    }

    fn lane_of(&mut self, coll_id: u64) -> Option<&mut TenantLane> {
        let key = *self.index.get(&coll_id)?;
        let pos = self.lanes.binary_search_by_key(&key, |l| l.key).ok()?;
        Some(&mut self.lanes[pos])
    }

    /// Queue `coll_id` on its tenant's lane with the configured initial spin
    /// threshold for its arrival position.
    pub fn push(
        &mut self,
        coll_id: u64,
        state: &Arc<TenantState>,
        priority: i32,
        initial_spin: u64,
    ) {
        let key = if self.flat {
            TenantId::DEFAULT
        } else {
            state.id()
        };
        let pos = self.lane_pos(key, state);
        self.lanes[pos].queue.push(coll_id, priority, initial_spin);
        self.index.insert(coll_id, key);
    }

    /// Remove `coll_id` from its lane (after completion or failure). Empty
    /// lanes are kept: tenants are few and long-lived, and keeping them
    /// preserves cursor state across bursts.
    pub fn remove(&mut self, coll_id: u64) -> Option<TaskEntry> {
        let entry = self.lane_of(coll_id)?.queue.remove(coll_id);
        self.index.remove(&coll_id);
        entry
    }

    /// Mutable access to a queued entry (spin-threshold persistence).
    pub fn entry_mut(&mut self, coll_id: u64) -> Option<&mut TaskEntry> {
        self.lane_of(coll_id)?.queue.entry_mut(coll_id)
    }

    /// The accounting state of the tenant owning `coll_id`. Meaningless in
    /// flat mode (the daemon skips per-tenant accounting there).
    pub fn tenant_state(&mut self, coll_id: u64) -> Option<Arc<TenantState>> {
        self.lane_of(coll_id).map(|lane| Arc::clone(&lane.state))
    }

    /// Per-lane queue depths in tenant-id order (test/diagnostic hook).
    pub fn lane_depths(&self) -> Vec<(TenantId, usize)> {
        self.lanes
            .iter()
            .map(|lane| (lane.key, lane.queue.len()))
            .collect()
    }

    /// Run one scheduling pass: reorder every lane by the ordering policy,
    /// update per-tenant depth gauges, arbitrate between contending lanes,
    /// and assign position-based initial spin thresholds to the scheduled
    /// entries. Returns the collective ids to execute, in order.
    pub fn schedule(
        &mut self,
        ordering: OrderingPolicy,
        arbitration: TenantArbitration,
        quantum: u32,
        spin: SpinPolicy,
    ) -> Vec<u64> {
        let mut active: Vec<usize> = Vec::new();
        for (pos, lane) in self.lanes.iter_mut().enumerate() {
            if !self.flat {
                lane.state.record_queue_depth(lane.queue.len() as u64);
            }
            if !lane.queue.is_empty() {
                lane.queue.reorder(ordering);
                active.push(pos);
            }
        }

        // Zero or one tenant with work: the pre-service flat schedule.
        if active.len() <= 1 {
            return match active.first() {
                Some(&pos) => {
                    let lane = &mut self.lanes[pos];
                    lane.queue
                        .assign_initial_thresholds(|p| spin.initial_threshold(p));
                    lane.queue.order()
                }
                None => Vec::new(),
            };
        }

        // Deficit round-robin (the only arbitration policy): each lane is
        // granted up to weight × quantum slices this pass, chosen by the
        // rotating cursor over the lane's policy order, then the grants are
        // interleaved weight entries at a time.
        let TenantArbitration::WeightedFair = arbitration;
        let quantum = quantum.max(1) as usize;
        let mut grants: Vec<(usize, Vec<u64>)> = Vec::with_capacity(active.len());
        for &pos in &active {
            let lane = &mut self.lanes[pos];
            let len = lane.queue.len();
            let weight = lane.state.weight() as usize;
            let budget = (weight * quantum).max(1).min(len);
            let full = lane.queue.order();
            if budget == len {
                lane.cursor = 0;
                grants.push((pos, full));
            } else {
                let start = lane.cursor % len;
                let sel = (0..budget).map(|k| full[(start + k) % len]).collect();
                lane.cursor = (start + budget) % len;
                grants.push((pos, sel));
            }
        }
        let total: usize = grants.iter().map(|(_, sel)| sel.len()).sum();
        let mut order = Vec::with_capacity(total);
        let mut taken = vec![0usize; grants.len()];
        while order.len() < total {
            for (g, (pos, sel)) in grants.iter().enumerate() {
                let weight = self.lanes[*pos].state.weight() as usize;
                let take = weight.min(sel.len() - taken[g]);
                order.extend_from_slice(&sel[taken[g]..taken[g] + take]);
                taken[g] += take;
            }
        }

        // Spin thresholds follow the scheduled position across lanes, exactly
        // as they followed queue position before: the pass front gets the
        // largest threshold (Sec. 4.3), regardless of which tenant owns it.
        for (pos, coll_id) in order.iter().enumerate() {
            if let Some(entry) = self.entry_mut(*coll_id) {
                entry.spin_threshold = spin.initial_threshold(pos);
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantQuota, TenantTable};

    #[test]
    fn push_and_remove_preserve_identity() {
        let mut q = TaskQueue::new();
        assert!(q.is_empty());
        q.push(10, 0, 0);
        q.push(11, 0, 0);
        assert_eq!(q.len(), 2);
        assert!(q.contains(10));
        let removed = q.remove(10).unwrap();
        assert_eq!(removed.coll_id, 10);
        assert!(!q.contains(10));
        assert!(q.remove(10).is_none());
    }

    #[test]
    fn push_carries_the_configured_initial_spin_threshold() {
        // Satellite: the initial threshold comes from the config's spin
        // policy at push time, not a silent 0.
        let spin = SpinPolicy::adaptive_default();
        let mut q = TaskQueue::new();
        q.push(1, 0, spin.initial_threshold(q.len()));
        q.push(2, 0, spin.initial_threshold(q.len()));
        let t: Vec<u64> = q.entries().iter().map(|e| e.spin_threshold).collect();
        assert_eq!(t, vec![100_000, 50_000]);
    }

    #[test]
    fn fifo_reorder_keeps_arrival_order() {
        let mut q = TaskQueue::new();
        q.push(3, 5, 0);
        q.push(1, 9, 0);
        q.push(2, 1, 0);
        q.reorder(OrderingPolicy::Fifo);
        assert_eq!(q.order(), vec![3, 1, 2]);
    }

    #[test]
    fn priority_reorder_sorts_by_priority_then_arrival() {
        // Pins the tie-break order: higher priority first; among equal
        // priorities, earlier arrival first.
        let mut q = TaskQueue::new();
        q.push(3, 5, 0);
        q.push(1, 9, 0);
        q.push(2, 9, 0);
        q.push(4, 1, 0);
        q.reorder(OrderingPolicy::PriorityBased);
        assert_eq!(q.order(), vec![1, 2, 3, 4]);
        let arrivals: Vec<u64> = q.entries().iter().map(|e| e.arrival).collect();
        assert_eq!(
            arrivals,
            vec![1, 2, 0, 3],
            "equal priorities keep arrival order"
        );
    }

    #[test]
    fn preempted_entry_keeps_its_position_under_fifo() {
        let mut q = TaskQueue::new();
        q.push(1, 0, 0);
        q.push(2, 0, 0);
        q.push(3, 0, 0);
        // Simulate completing 2 and adding 4; 1 and 3 keep relative order.
        q.remove(2);
        q.push(4, 0, 0);
        q.reorder(OrderingPolicy::Fifo);
        assert_eq!(q.order(), vec![1, 3, 4]);
    }

    #[test]
    fn initial_thresholds_follow_position() {
        let mut q = TaskQueue::new();
        q.push(1, 0, 0);
        q.push(2, 0, 0);
        q.push(3, 0, 0);
        q.assign_initial_thresholds(|pos| 100 >> pos);
        let t: Vec<u64> = q.entries().iter().map(|e| e.spin_threshold).collect();
        assert_eq!(t, vec![100, 50, 25]);
        q.entry_mut(2).unwrap().spin_threshold = 999;
        assert_eq!(q.entries()[1].spin_threshold, 999);
    }

    fn table() -> Arc<TenantTable> {
        TenantTable::new(TenantQuota::default())
    }

    fn sched_pass(s: &mut TenantScheduler, arb: TenantArbitration, quantum: u32) -> Vec<u64> {
        s.schedule(
            OrderingPolicy::Fifo,
            arb,
            quantum,
            SpinPolicy::naive_fixed(),
        )
    }

    #[test]
    fn single_lane_is_the_flat_passthrough() {
        let table = table();
        let spin = SpinPolicy::adaptive_default();
        let state = table.state(TenantId(4));
        let mut s = TenantScheduler::new(false);
        s.push(1, &state, 0, 0);
        s.push(2, &state, 5, 0);
        s.push(3, &state, 0, 0);
        let order = s.schedule(
            OrderingPolicy::PriorityBased,
            TenantArbitration::WeightedFair,
            1,
            spin,
        );
        // Exactly the flat queue's priority order with position thresholds.
        assert_eq!(order, vec![2, 1, 3]);
        assert_eq!(s.entry_mut(2).unwrap().spin_threshold, 100_000);
        assert_eq!(s.entry_mut(1).unwrap().spin_threshold, 50_000);
        assert_eq!(s.entry_mut(3).unwrap().spin_threshold, 25_000);
    }

    #[test]
    fn weighted_fair_grants_slices_by_weight() {
        let table = table();
        let heavy = table.state_for(&crate::tenant::TenantHandle {
            id: TenantId(1),
            quota: TenantQuota::default().with_weight(2),
        });
        let light = table.state(TenantId(2));
        let mut s = TenantScheduler::new(false);
        for id in 10..14 {
            s.push(id, &heavy, 0, 0);
        }
        for id in 20..24 {
            s.push(id, &light, 0, 0);
        }
        let order = sched_pass(&mut s, TenantArbitration::WeightedFair, 1);
        // Heavy budget 2, light budget 1, interleaved 2:1.
        assert_eq!(order, vec![10, 11, 20]);
        // Rotation: the next pass starts where this one stopped, so deferred
        // entries are polled within a bounded number of passes (liveness).
        let order = sched_pass(&mut s, TenantArbitration::WeightedFair, 1);
        assert_eq!(order, vec![12, 13, 21]);
        let order = sched_pass(&mut s, TenantArbitration::WeightedFair, 1);
        assert_eq!(order, vec![10, 11, 22]);
    }

    #[test]
    fn weighted_fair_schedules_everything_when_budgets_do_not_bind() {
        let table = table();
        let a = table.state(TenantId(1));
        let b = table.state(TenantId(2));
        let mut s = TenantScheduler::new(false);
        s.push(1, &a, 0, 0);
        s.push(2, &b, 0, 0);
        let order = sched_pass(&mut s, TenantArbitration::WeightedFair, 4);
        assert_eq!(order.len(), 2);
        assert!(order.contains(&1) && order.contains(&2));
    }

    #[test]
    fn flat_mode_collapses_tenants_into_one_lane() {
        let table = table();
        let a = table.state(TenantId(1));
        let b = table.state(TenantId(2));
        let mut s = TenantScheduler::new(true);
        s.push(1, &a, 0, 0);
        s.push(2, &b, 0, 0);
        s.push(3, &a, 0, 0);
        assert_eq!(s.lane_depths(), vec![(TenantId::DEFAULT, 3)]);
        let order = sched_pass(&mut s, TenantArbitration::WeightedFair, 1);
        assert_eq!(order, vec![1, 2, 3], "single flat queue in arrival order");
    }

    #[test]
    fn within_lane_priority_semantics_survive_arbitration() {
        let table = table();
        let a = table.state(TenantId(1));
        let b = table.state(TenantId(2));
        let mut s = TenantScheduler::new(false);
        s.push(10, &a, 1, 0);
        s.push(11, &a, 9, 0);
        s.push(20, &b, 0, 0);
        let order = s.schedule(
            OrderingPolicy::PriorityBased,
            TenantArbitration::WeightedFair,
            4,
            SpinPolicy::naive_fixed(),
        );
        let pos = |id: u64| order.iter().position(|&c| c == id).unwrap();
        assert!(
            pos(11) < pos(10),
            "priority order preserved within the lane"
        );
    }

    #[test]
    fn remove_updates_index_and_depths() {
        let table = table();
        let a = table.state(TenantId(1));
        let b = table.state(TenantId(2));
        let mut s = TenantScheduler::new(false);
        s.push(1, &a, 0, 7);
        s.push(2, &b, 0, 7);
        assert_eq!(s.len(), 2);
        let removed = s.remove(1).unwrap();
        assert_eq!(removed.spin_threshold, 7);
        assert!(!s.contains(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.lane_depths(), vec![(TenantId(1), 0), (TenantId(2), 1)]);
        assert_eq!(s.tenant_state(2).unwrap().id(), TenantId(2));
        assert!(s.tenant_state(1).is_none());
    }
}
