//! The completion queue (CQ): multi-producer / single-consumer.
//!
//! Blocks of the daemon kernel insert CQEs for completed collectives; a single
//! poller on the CPU (the rank's carrier) consumes them. Because the CQ lives in page-locked
//! host memory, every operation issued from the GPU pays a host-memory access.
//! The paper compares three designs (Sec. 5, Fig. 7(c)):
//!
//! * **vanilla ring buffer** — at least five host-memory operations plus a
//!   memory fence per CQE (6.9 µs measured);
//! * **optimized ring buffer** — packs the tail and the collective id into one
//!   64-bit atomic word, removing the fence (four operations, 4.8 µs);
//! * **optimized slot CQ** — abandons ring semantics; a block publishes a CQE
//!   with a single `atomicCAS_system` into any writable slot (2.0 µs).
//!
//! This module implements all three behind [`CqKind`], an enum whose inherent
//! methods dispatch statically — the runtime hot path pays no vtable
//! indirection per CQE.
//!
//! ## Batched operation
//!
//! On top of the per-entry `push`/`pop` protocol, every variant supports
//! batched draining:
//!
//! * [`CqKind::push_n`] publishes a run of CQEs in one protocol round. The
//!   ring variants claim all `n` slots with a *single* tail CAS, so the
//!   head/tail reads, the claim and (for the vanilla ring) the fence are paid
//!   once per batch instead of once per CQE; only the per-slot payload writes
//!   scale with `n`. The slot CQ cannot amortize — its whole design is that a
//!   publish is already a single `atomicCAS_system` — so its batched cost
//!   stays linear (which is exactly why Fig. 7(c) crowns it for singles).
//! * [`CqKind::drain_into`] consumes every published CQE in one pass, reading
//!   the head once and publishing the new head once. The consumer side runs on
//!   the CPU against local memory, so it has no modelled host cost.
//!
//! The host-memory writes are modelled, not executed: [`CqKind::write_cost`]
//! is each variant's formula over [`HostMemCosts`] for a round that
//! published n entries (a `push` is a round of one), and the daemon records
//! it in the rank's ledger.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::config::{CqVariant, HostMemCosts};

/// One completion-queue entry: "collective `coll_id` completed".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// The completed collective.
    pub coll_id: u64,
}

/// The statically dispatched completion queue used by the runtime: a `match`
/// on a three-variant enum compiles to a jump the branch predictor learns,
/// and the inner calls inline.
pub enum CqKind {
    /// Five host-memory operations plus a fence per CQE.
    VanillaRing(VanillaRingCq),
    /// Four host-memory operations per CQE, no fence.
    OptimizedRing(OptimizedRingCq),
    /// One `atomicCAS_system` per CQE.
    OptimizedSlot(OptimizedSlotCq),
}

macro_rules! cq_dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            CqKind::VanillaRing($inner) => $body,
            CqKind::OptimizedRing($inner) => $body,
            CqKind::OptimizedSlot($inner) => $body,
        }
    };
}

impl CqKind {
    /// Publish a completion. Returns `false` when the queue is full.
    #[inline]
    pub fn push(&self, cqe: Cqe) -> bool {
        cq_dispatch!(self, q => q.push(cqe))
    }

    /// Publish a batch, returning how many entries were accepted.
    #[inline]
    pub fn push_n(&self, cqes: &[Cqe]) -> usize {
        cq_dispatch!(self, q => q.push_n(cqes))
    }

    /// Consume one completion, if any.
    #[inline]
    pub fn pop(&self) -> Option<Cqe> {
        cq_dispatch!(self, q => q.pop())
    }

    /// Drain every published entry into `out`, returning how many were moved.
    #[inline]
    pub fn drain_into(&self, out: &mut Vec<Cqe>) -> usize {
        cq_dispatch!(self, q => q.drain_into(out))
    }

    /// Number of entries currently buffered.
    #[inline]
    pub fn len(&self) -> usize {
        cq_dispatch!(self, q => q.len())
    }

    /// Whether no entries are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The modelled host-memory cost of one publication round that accepted
    /// `n` entries (`push` is a round of one). The rings pay their head and
    /// tail reads and tail CAS once per round: the vanilla ring adds a fence
    /// and two writes (payload, validity) per entry, the optimized ring one
    /// packed write per entry. The slot CQ pays one system CAS per entry.
    pub fn write_cost(&self, n: usize) -> Duration {
        let n = n as f64;
        let ns = match self {
            CqKind::VanillaRing(q) => (3.0 + 2.0 * n) * q.costs.host_op_ns + q.costs.fence_ns,
            CqKind::OptimizedRing(q) => (3.0 + n) * q.costs.host_op_ns,
            CqKind::OptimizedSlot(q) => n * q.costs.cas_system_ns,
        };
        Duration::from_nanos(ns as u64)
    }

    /// Which variant this is.
    pub fn variant(&self) -> CqVariant {
        match self {
            CqKind::VanillaRing(_) => CqVariant::VanillaRing,
            CqKind::OptimizedRing(_) => CqVariant::OptimizedRing,
            CqKind::OptimizedSlot(_) => CqVariant::OptimizedSlot,
        }
    }
}

/// Build the CQ variant selected by the configuration.
pub fn build_cq(variant: CqVariant, capacity: usize, costs: HostMemCosts) -> CqKind {
    match variant {
        CqVariant::VanillaRing => CqKind::VanillaRing(VanillaRingCq::new(capacity, costs)),
        CqVariant::OptimizedRing => CqKind::OptimizedRing(OptimizedRingCq::new(capacity, costs)),
        CqVariant::OptimizedSlot => CqKind::OptimizedSlot(OptimizedSlotCq::new(capacity, costs)),
    }
}

const EMPTY_SLOT: u64 = u64::MAX;

/// The vanilla ring-buffer CQ: head/tail indices, per-slot validity words and
/// an explicit fence between the payload write and the tail update.
pub struct VanillaRingCq {
    slots: Box<[AtomicU64]>,
    head: AtomicU64,
    tail: AtomicU64,
    costs: HostMemCosts,
}

impl VanillaRingCq {
    /// Create a vanilla ring CQ with `capacity` slots.
    pub fn new(capacity: usize, costs: HostMemCosts) -> Self {
        assert!(capacity > 0, "CQ capacity must be positive");
        VanillaRingCq {
            slots: (0..capacity).map(|_| AtomicU64::new(EMPTY_SLOT)).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            costs,
        }
    }

    /// Claim `want` consecutive positions by advancing the tail once. Returns
    /// the first claimed position and how many were claimed (possibly fewer
    /// than `want` when the ring is almost full, zero when full).
    fn claim(&self, want: u64) -> Option<(u64, u64)> {
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            let head = self.head.load(Ordering::Acquire);
            let free = (self.slots.len() as u64).saturating_sub(tail.wrapping_sub(head));
            if free == 0 {
                return None;
            }
            let take = want.min(free);
            if self
                .tail
                .compare_exchange(tail, tail + take, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some((tail, take));
            }
        }
    }
}

impl VanillaRingCq {
    fn push(&self, cqe: Cqe) -> bool {
        // 5 host-memory operations: read head, read tail, claim slot (CAS on
        // tail), write payload, publish validity — plus a fence between the
        // payload write and the tail publication.
        let Some((pos, _)) = self.claim(1) else {
            return false;
        };
        let idx = (pos % self.slots.len() as u64) as usize;
        // The payload write and the validity publication are ordered by the
        // fence. In this reproduction the payload and validity share one word,
        // so a single release store both publishes and stays safe against slot
        // recycling; the model still prices all five operations and the
        // fence (`CqKind::write_cost`).
        std::sync::atomic::fence(Ordering::SeqCst);
        self.slots[idx].store(cqe.coll_id, Ordering::Release);
        true
    }

    fn push_n(&self, cqes: &[Cqe]) -> usize {
        if cqes.is_empty() {
            return 0;
        }
        // Batched protocol round: the head/tail reads, the tail CAS and the
        // fence are paid once for the whole run; only the payload + validity
        // writes (2 ops each) scale with the batch (`CqKind::write_cost`).
        let Some((first, taken)) = self.claim(cqes.len() as u64) else {
            return 0;
        };
        std::sync::atomic::fence(Ordering::SeqCst);
        for (i, cqe) in cqes[..taken as usize].iter().enumerate() {
            let idx = ((first + i as u64) % self.slots.len() as u64) as usize;
            self.slots[idx].store(cqe.coll_id, Ordering::Release);
        }
        taken as usize
    }

    fn pop(&self) -> Option<Cqe> {
        // The pop protocol is decided by slot validity alone. The previous
        // implementation consulted the tail first and only then the slot,
        // which opened a window — between a producer's tail CAS and its
        // payload publication — where the queue reported entries it refused
        // to pop, and cost an extra host-memory read per poll. A slot is
        // consumed only once its payload is visible, so the head never passes
        // an unpublished claim.
        let head = self.head.load(Ordering::Acquire);
        let idx = (head % self.slots.len() as u64) as usize;
        let v = self.slots[idx].load(Ordering::Acquire);
        if v == EMPTY_SLOT {
            return None;
        }
        // Clear the slot before publishing the new head: a producer only
        // reuses the slot after observing the advanced head (its capacity
        // check acquires `head`), which orders this store before any new
        // payload write.
        self.slots[idx].store(EMPTY_SLOT, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
        Some(Cqe { coll_id: v })
    }

    fn drain_into(&self, out: &mut Vec<Cqe>) -> usize {
        // Single consumer: read the head once, walk published slots, publish
        // the advanced head once at the end.
        let head = self.head.load(Ordering::Acquire);
        let mut taken = 0u64;
        loop {
            let idx = ((head + taken) % self.slots.len() as u64) as usize;
            let v = self.slots[idx].load(Ordering::Acquire);
            if v == EMPTY_SLOT || taken >= self.slots.len() as u64 {
                break;
            }
            self.slots[idx].store(EMPTY_SLOT, Ordering::Release);
            out.push(Cqe { coll_id: v });
            taken += 1;
        }
        if taken > 0 {
            self.head.store(head + taken, Ordering::Release);
        }
        taken as usize
    }

    fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.saturating_sub(head) as usize
    }
}

/// The optimized ring-buffer CQ: the tail index and the collective id are
/// packed into a single 64-bit word per slot, so publication is one atomic
/// write and no fence is needed. The poller validates a slot by comparing the
/// packed tail against its own head.
pub struct OptimizedRingCq {
    slots: Box<[AtomicU64]>,
    head: AtomicU64,
    tail: AtomicU64,
    costs: HostMemCosts,
}

/// Marker bits of the id space that must survive the 32-bit packing: bit 63
/// flags a graph completion ([`crate::daemon::GRAPH_ID_BASE`]) and bit 62 a
/// fusion-synthesized collective (`FUSED_COLL_ID_BASE`). They fold into bits
/// 31–30 of the packed id field, which caps the payload part of an id at 30
/// bits — plenty for per-rank registration counters, and checked in debug
/// builds.
const MARKER_SHIFT: u64 = 32;
const MARKER_BITS: u64 = 0xC000_0000;
const PAYLOAD_BITS: u64 = 0x3FFF_FFFF;

fn pack(tail: u64, coll_id: u64) -> u64 {
    debug_assert!(
        coll_id & !((MARKER_BITS << MARKER_SHIFT) | PAYLOAD_BITS) == 0,
        "collective id {coll_id:#x} must be a marker bit (62/63) plus 30 payload bits"
    );
    (tail << 32) | ((coll_id >> MARKER_SHIFT) & MARKER_BITS) | (coll_id & PAYLOAD_BITS)
}

fn unpack(word: u64) -> (u64, u64) {
    let id = word & 0xFFFF_FFFF;
    (
        word >> 32,
        ((id & MARKER_BITS) << MARKER_SHIFT) | (id & PAYLOAD_BITS),
    )
}

impl OptimizedRingCq {
    /// Create an optimized ring CQ with `capacity` slots.
    pub fn new(capacity: usize, costs: HostMemCosts) -> Self {
        assert!(capacity > 0, "CQ capacity must be positive");
        OptimizedRingCq {
            slots: (0..capacity).map(|_| AtomicU64::new(EMPTY_SLOT)).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            costs,
        }
    }

    fn claim(&self, want: u64) -> Option<(u64, u64)> {
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            let head = self.head.load(Ordering::Acquire);
            let free = (self.slots.len() as u64).saturating_sub(tail.wrapping_sub(head));
            if free == 0 {
                return None;
            }
            let take = want.min(free);
            if self
                .tail
                .compare_exchange(tail, tail + take, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some((tail, take));
            }
        }
    }
}

impl OptimizedRingCq {
    fn push(&self, cqe: Cqe) -> bool {
        // 4 host-memory operations, no fence: read head, read/claim tail,
        // single packed payload+validity write.
        let Some((pos, _)) = self.claim(1) else {
            return false;
        };
        let idx = (pos % self.slots.len() as u64) as usize;
        self.slots[idx].store(pack(pos + 1, cqe.coll_id), Ordering::Release);
        true
    }

    fn push_n(&self, cqes: &[Cqe]) -> usize {
        if cqes.is_empty() {
            return 0;
        }
        // One claim for the whole run; a single packed write per entry.
        let Some((first, taken)) = self.claim(cqes.len() as u64) else {
            return 0;
        };
        for (i, cqe) in cqes[..taken as usize].iter().enumerate() {
            let pos = first + i as u64;
            let idx = (pos % self.slots.len() as u64) as usize;
            self.slots[idx].store(pack(pos + 1, cqe.coll_id), Ordering::Release);
        }
        taken as usize
    }

    fn pop(&self) -> Option<Cqe> {
        // Validity comes from the packed tail alone — no tail read, and no
        // head/tail race window (see `VanillaRingCq::pop`).
        let head = self.head.load(Ordering::Acquire);
        let idx = (head % self.slots.len() as u64) as usize;
        let word = self.slots[idx].load(Ordering::Acquire);
        if word == EMPTY_SLOT {
            return None;
        }
        let (packed_tail, coll_id) = unpack(word);
        // Validate the CQE: the packed tail must correspond to this head.
        if packed_tail != head + 1 {
            return None;
        }
        self.slots[idx].store(EMPTY_SLOT, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
        Some(Cqe { coll_id })
    }

    fn drain_into(&self, out: &mut Vec<Cqe>) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let mut taken = 0u64;
        loop {
            let pos = head + taken;
            let idx = (pos % self.slots.len() as u64) as usize;
            let word = self.slots[idx].load(Ordering::Acquire);
            if word == EMPTY_SLOT || taken >= self.slots.len() as u64 {
                break;
            }
            let (packed_tail, coll_id) = unpack(word);
            if packed_tail != pos + 1 {
                break;
            }
            self.slots[idx].store(EMPTY_SLOT, Ordering::Release);
            out.push(Cqe { coll_id });
            taken += 1;
        }
        if taken > 0 {
            self.head.store(head + taken, Ordering::Release);
        }
        taken as usize
    }

    fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.saturating_sub(head) as usize
    }
}

/// The fully optimized CQ: a slot array without ring semantics. A producer
/// publishes a CQE with a single `atomicCAS_system` into any writable slot;
/// the poller scans the array, reads valid ids and marks the slots writable.
pub struct OptimizedSlotCq {
    slots: Box<[AtomicU64]>,
    costs: HostMemCosts,
}

impl OptimizedSlotCq {
    /// Create a slot CQ with `capacity` slots.
    pub fn new(capacity: usize, costs: HostMemCosts) -> Self {
        assert!(capacity > 0, "CQ capacity must be positive");
        OptimizedSlotCq {
            slots: (0..capacity).map(|_| AtomicU64::new(EMPTY_SLOT)).collect(),
            costs,
        }
    }
}

impl OptimizedSlotCq {
    fn push(&self, cqe: Cqe) -> bool {
        debug_assert_ne!(
            cqe.coll_id, EMPTY_SLOT,
            "collective id collides with the empty marker"
        );
        for slot in self.slots.iter() {
            // A single CAS publishes the id; failure means the slot is taken.
            if slot
                .compare_exchange(EMPTY_SLOT, cqe.coll_id, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
        false
    }

    fn push_n(&self, cqes: &[Cqe]) -> usize {
        // The slot design's publish is already a single host-memory CAS, so a
        // batch still pays one CAS per entry; batching only saves the repeated
        // scan from slot zero by resuming where the previous entry landed.
        let mut accepted = 0usize;
        let mut start = 0usize;
        'outer: for &cqe in cqes {
            debug_assert_ne!(
                cqe.coll_id, EMPTY_SLOT,
                "collective id collides with the empty marker"
            );
            while start < self.slots.len() {
                if self.slots[start]
                    .compare_exchange(EMPTY_SLOT, cqe.coll_id, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    accepted += 1;
                    start += 1;
                    continue 'outer;
                }
                start += 1;
            }
            break;
        }
        accepted
    }

    fn pop(&self) -> Option<Cqe> {
        for slot in self.slots.iter() {
            let v = slot.load(Ordering::Acquire);
            if v != EMPTY_SLOT {
                slot.store(EMPTY_SLOT, Ordering::Release);
                return Some(Cqe { coll_id: v });
            }
        }
        None
    }

    fn drain_into(&self, out: &mut Vec<Cqe>) -> usize {
        // One scan recovers every published entry.
        let before = out.len();
        for slot in self.slots.iter() {
            let v = slot.load(Ordering::Acquire);
            if v != EMPTY_SLOT {
                slot.store(EMPTY_SLOT, Ordering::Release);
                out.push(Cqe { coll_id: v });
            }
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != EMPTY_SLOT)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const ALL_VARIANTS: [CqVariant; 3] = [
        CqVariant::VanillaRing,
        CqVariant::OptimizedRing,
        CqVariant::OptimizedSlot,
    ];

    fn all_variants(capacity: usize) -> impl Iterator<Item = CqKind> {
        ALL_VARIANTS
            .into_iter()
            .map(move |v| build_cq(v, capacity, HostMemCosts::free()))
    }

    #[test]
    fn push_then_pop_round_trips_on_every_variant() {
        for cq in all_variants(8) {
            assert!(cq.is_empty());
            assert!(cq.push(Cqe { coll_id: 5 }));
            assert_eq!(cq.len(), 1);
            assert_eq!(cq.pop(), Some(Cqe { coll_id: 5 }));
            assert!(cq.pop().is_none());
        }
    }

    #[test]
    fn ring_variants_preserve_fifo_order() {
        for v in [CqVariant::VanillaRing, CqVariant::OptimizedRing] {
            let cq = build_cq(v, 8, HostMemCosts::free());
            for i in 0..5 {
                cq.push(Cqe { coll_id: i });
            }
            for i in 0..5 {
                assert_eq!(cq.pop().unwrap().coll_id, i);
            }
        }
    }

    #[test]
    fn full_queue_rejects_pushes() {
        for cq in all_variants(2) {
            assert!(cq.push(Cqe { coll_id: 1 }));
            assert!(cq.push(Cqe { coll_id: 2 }));
            assert!(
                !cq.push(Cqe { coll_id: 3 }),
                "{:?} accepted overflow",
                cq.variant()
            );
            cq.pop().unwrap();
            assert!(cq.push(Cqe { coll_id: 3 }));
        }
    }

    #[test]
    fn slot_cq_recovers_all_ids_regardless_of_order() {
        let cq = OptimizedSlotCq::new(16, HostMemCosts::free());
        for i in 0..10 {
            assert!(cq.push(Cqe { coll_id: i }));
        }
        let mut got: Vec<u64> = std::iter::from_fn(|| cq.pop().map(|c| c.coll_id)).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn reserved_marker_ids_round_trip_on_every_variant() {
        // Graph and fused collective ids carry marker bits 63 / 62. The
        // optimized ring packs the id into 32 bits, so the markers must fold
        // into the packed word and unfold on pop — a graph completion dropped
        // or truncated here wedges every replay.
        let ids = [
            crate::daemon::GRAPH_ID_BASE | 1,
            dfccl_collectives::FUSED_COLL_ID_BASE | 7,
            (1 << 30) - 1,
        ];
        for v in ALL_VARIANTS {
            let cq = build_cq(v, 8, HostMemCosts::free());
            for &id in &ids {
                assert!(cq.push(Cqe { coll_id: id }));
                assert_eq!(
                    cq.pop(),
                    Some(Cqe { coll_id: id }),
                    "{v:?} mangled id {id:#x}"
                );
            }
        }
    }

    #[test]
    fn build_cq_returns_requested_variant() {
        for v in ALL_VARIANTS {
            let cq = build_cq(v, 4, HostMemCosts::free());
            assert_eq!(cq.variant(), v);
        }
    }

    #[test]
    fn push_n_publishes_batches_and_reports_partial_acceptance() {
        for v in ALL_VARIANTS {
            let cq = build_cq(v, 4, HostMemCosts::free());
            let batch: Vec<Cqe> = (0..6).map(|i| Cqe { coll_id: i }).collect();
            let accepted = cq.push_n(&batch);
            assert_eq!(accepted, 4, "{v:?} must accept exactly the free capacity");
            let mut out = Vec::new();
            assert_eq!(cq.drain_into(&mut out), 4);
            let mut ids: Vec<u64> = out.iter().map(|c| c.coll_id).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3], "{v:?} lost a batched entry");
            // The remainder of the batch can be pushed after draining.
            assert_eq!(cq.push_n(&batch[accepted..]), 2);
        }
    }

    #[test]
    fn push_n_on_empty_batch_is_a_no_op() {
        for v in ALL_VARIANTS {
            let cq = build_cq(v, 4, HostMemCosts::free());
            assert_eq!(cq.push_n(&[]), 0);
            assert!(cq.is_empty());
        }
    }

    #[test]
    fn drain_into_preserves_fifo_on_ring_variants() {
        for v in [CqVariant::VanillaRing, CqVariant::OptimizedRing] {
            let cq = build_cq(v, 8, HostMemCosts::free());
            let batch: Vec<Cqe> = (0..5).map(|i| Cqe { coll_id: i }).collect();
            assert_eq!(cq.push_n(&batch), 5);
            let mut out = Vec::new();
            cq.drain_into(&mut out);
            let ids: Vec<u64> = out.iter().map(|c| c.coll_id).collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4], "{v:?} broke FIFO in drain");
        }
    }

    #[test]
    fn mixed_push_and_push_n_interleave_correctly() {
        let cq = build_cq(CqVariant::OptimizedRing, 16, HostMemCosts::free());
        cq.push(Cqe { coll_id: 0 });
        cq.push_n(&[Cqe { coll_id: 1 }, Cqe { coll_id: 2 }]);
        cq.push(Cqe { coll_id: 3 });
        let mut out = Vec::new();
        cq.drain_into(&mut out);
        assert_eq!(
            out.iter().map(|c| c.coll_id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn concurrent_producers_single_consumer_lose_nothing() {
        for variant in ALL_VARIANTS {
            let cq: Arc<CqKind> = Arc::new(build_cq(variant, 32, HostMemCosts::free()));
            let per_producer = 500u64;
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let cq = Arc::clone(&cq);
                    std::thread::spawn(move || {
                        for i in 0..per_producer {
                            let id = p * per_producer + i;
                            while !cq.push(Cqe { coll_id: id }) {
                                std::hint::spin_loop();
                            }
                        }
                    })
                })
                .collect();
            let mut seen = Vec::new();
            while seen.len() < 4 * per_producer as usize {
                if let Some(c) = cq.pop() {
                    seen.push(c.coll_id);
                } else {
                    std::hint::spin_loop();
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            seen.sort_unstable();
            let expected: Vec<u64> = (0..4 * per_producer).collect();
            assert_eq!(seen, expected, "variant {variant:?} lost completions");
        }
    }

    /// The satellite stress test: N producer threads pushing (mixing `push`
    /// and `push_n`) against one popper (mixing `pop` and `drain_into`), on a
    /// deliberately small ring so claimed-but-unpublished windows and slot
    /// recycling are constantly exercised. No CQE may be lost or duplicated.
    #[test]
    fn multi_producer_stress_no_loss_no_duplication() {
        for variant in ALL_VARIANTS {
            let cq: Arc<CqKind> = Arc::new(build_cq(variant, 8, HostMemCosts::free()));
            let producers = 6u64;
            let per_producer = 2_000u64;
            let threads: Vec<_> = (0..producers)
                .map(|p| {
                    let cq = Arc::clone(&cq);
                    std::thread::spawn(move || {
                        let mut next = 0u64;
                        while next < per_producer {
                            let id = |i: u64| p * per_producer + i;
                            if next.is_multiple_of(3) && next + 2 <= per_producer {
                                // Batched publication of two entries.
                                let batch = [
                                    Cqe { coll_id: id(next) },
                                    Cqe {
                                        coll_id: id(next + 1),
                                    },
                                ];
                                let mut done = 0;
                                while done < 2 {
                                    let pushed = cq.push_n(&batch[done..]);
                                    done += pushed;
                                    if pushed == 0 {
                                        // Yield rather than spin: on single-core
                                        // CI machines spinning starves the popper.
                                        std::thread::yield_now();
                                    }
                                }
                                next += 2;
                            } else {
                                while !cq.push(Cqe { coll_id: id(next) }) {
                                    std::thread::yield_now();
                                }
                                next += 1;
                            }
                        }
                    })
                })
                .collect();
            let total = (producers * per_producer) as usize;
            let mut seen: Vec<u64> = Vec::with_capacity(total);
            let mut buf: Vec<Cqe> = Vec::new();
            let mut use_drain = false;
            while seen.len() < total {
                if use_drain {
                    buf.clear();
                    cq.drain_into(&mut buf);
                    seen.extend(buf.iter().map(|c| c.coll_id));
                } else if let Some(c) = cq.pop() {
                    seen.push(c.coll_id);
                }
                use_drain = !use_drain;
            }
            for t in threads {
                t.join().unwrap();
            }
            assert!(cq.is_empty(), "variant {variant:?} left residue");
            seen.sort_unstable();
            let expected: Vec<u64> = (0..producers * per_producer).collect();
            assert_eq!(
                seen, expected,
                "variant {variant:?} lost or duplicated CQEs"
            );
        }
    }

    /// The cost of one round that published `n` entries on `variant`, in
    /// ns, under the default model.
    fn write_ns(variant: CqVariant, n: usize) -> u128 {
        build_cq(variant, 64, HostMemCosts::default())
            .write_cost(n)
            .as_nanos()
    }

    #[test]
    fn modelled_costs_order_the_variants() {
        // One CQE costs the paper's Fig. 7(c) times exactly: slowest on the
        // vanilla ring, fastest on the slot CQ.
        assert_eq!(write_ns(CqVariant::VanillaRing, 1), 6_900);
        assert_eq!(write_ns(CqVariant::OptimizedRing, 1), 4_800);
        assert_eq!(write_ns(CqVariant::OptimizedSlot, 1), 2_000);
    }

    #[test]
    fn batched_push_amortizes_modelled_ring_costs() {
        // A 16-CQE round pays the ring variants' claim and fence once; the
        // slot CQ's cost stays linear in the batch size.
        let singles = |v| 16 * write_ns(v, 1);
        assert_eq!(write_ns(CqVariant::VanillaRing, 16), 42_900);
        assert_eq!(singles(CqVariant::VanillaRing), 110_400);
        assert_eq!(write_ns(CqVariant::OptimizedRing, 16), 22_800);
        assert_eq!(singles(CqVariant::OptimizedRing), 76_800);
        for n in [0, 1, 7, 16] {
            assert_eq!(write_ns(CqVariant::OptimizedSlot, n), n as u128 * 2_000);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = OptimizedSlotCq::new(0, HostMemCosts::free());
    }
}
