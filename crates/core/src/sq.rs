//! The submission queue (SQ): a single-producer / multi-consumer ring buffer.
//!
//! One CPU thread (the invoker) writes SQEs; every block of the daemon kernel
//! reads each SQE. A per-slot read counter tracks how many consumers have seen
//! the entry; when the counter reaches the configured consumer count the slot
//! becomes writable again (Sec. 5, "Implementation Details of the Daemon
//! Kernel"). In this reproduction the daemon core usually registers as a
//! single consumer, but the protocol is implemented (and tested) for any
//! consumer count. The daemon's reads over PCIe are modelled, not executed
//! ([`SubmissionQueue::read_cost`]).

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

use dfccl_collectives::DeviceBuffer;
use parking_lot::Mutex;

use crate::config::HostMemCosts;

/// One submission-queue entry: "run collective `coll_id` on these buffers".
#[derive(Debug, Clone)]
pub struct Sqe {
    /// The registered collective to run.
    pub coll_id: u64,
    /// Monotonic per-rank submission sequence number.
    pub seq: u64,
    /// Send buffer for this invocation.
    pub send: DeviceBuffer,
    /// Recv buffer for this invocation.
    pub recv: DeviceBuffer,
    /// When set, this is the *exiting SQE* inserted by `dfccl_destroy`; the
    /// daemon kernel finally exits after reading it.
    pub exit: bool,
}

impl Sqe {
    /// The exiting SQE.
    pub fn exit_marker(seq: u64) -> Self {
        Sqe {
            coll_id: u64::MAX,
            seq,
            send: DeviceBuffer::zeroed(0),
            recv: DeviceBuffer::zeroed(0),
            exit: true,
        }
    }
}

/// Error returned when the SQ has no writable slot.
#[derive(Debug)]
pub struct SqFull(pub Sqe);

const SLOT_EMPTY: u8 = 0;
const SLOT_FULL: u8 = 1;

struct SqSlot {
    state: AtomicU8,
    readers: AtomicU32,
    /// Sequence number of the producer write occupying this slot.
    write_seq: AtomicU64,
    data: Mutex<Option<Sqe>>,
}

impl SqSlot {
    fn new() -> Self {
        SqSlot {
            state: AtomicU8::new(SLOT_EMPTY),
            readers: AtomicU32::new(0),
            write_seq: AtomicU64::new(0),
            data: Mutex::new(None),
        }
    }
}

/// Cursor owned by one consumer (one daemon-kernel block).
#[derive(Debug, Clone, Copy, Default)]
pub struct SqCursor {
    next: u64,
}

/// The single-producer / multi-consumer submission queue.
pub struct SubmissionQueue {
    slots: Box<[SqSlot]>,
    /// Next write position (monotonic; slot = head % capacity).
    head: AtomicU64,
    consumer_count: u32,
    inserted: AtomicU64,
    /// Modelled cost of the daemon's host-memory reads (the SQ lives in
    /// page-locked host memory; the daemon kernel reads it over PCIe), the
    /// input of [`SubmissionQueue::read_cost`].
    costs: HostMemCosts,
}

impl SubmissionQueue {
    /// Create a queue with `capacity` slots read by `consumer_count` consumers
    /// whose modelled reads are free (logic-only use and tests).
    pub fn new(capacity: usize, consumer_count: u32) -> Self {
        Self::with_costs(capacity, consumer_count, HostMemCosts::free())
    }

    /// Create a queue whose reads are modelled at `costs`: see
    /// [`SubmissionQueue::read_cost`].
    pub fn with_costs(capacity: usize, consumer_count: u32, costs: HostMemCosts) -> Self {
        assert!(capacity > 0, "SQ capacity must be positive");
        assert!(consumer_count > 0, "SQ needs at least one consumer");
        SubmissionQueue {
            slots: (0..capacity).map(|_| SqSlot::new()).collect(),
            head: AtomicU64::new(0),
            consumer_count,
            inserted: AtomicU64::new(0),
            costs,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of consumers each SQE must be read by before its slot is reused.
    pub fn consumer_count(&self) -> u32 {
        self.consumer_count
    }

    /// Total SQEs ever inserted.
    pub fn inserted(&self) -> u64 {
        self.inserted.load(Ordering::Acquire)
    }

    /// Insert an SQE. Only one producer thread may call this at a time (the
    /// single-producer contract); concurrent producers must serialise
    /// externally, which the `RankCtx` API does.
    pub fn try_push(&self, sqe: Sqe) -> Result<(), SqFull> {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        if slot.state.load(Ordering::Acquire) != SLOT_EMPTY {
            return Err(SqFull(sqe));
        }
        *slot.data.lock() = Some(sqe);
        slot.readers.store(0, Ordering::Relaxed);
        slot.write_seq.store(head, Ordering::Relaxed);
        slot.state.store(SLOT_FULL, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
        self.inserted.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Read the next SQE for the consumer owning `cursor`, if one is available.
    /// Every consumer sees every SQE exactly once, in insertion order.
    pub fn read_next(&self, cursor: &mut SqCursor) -> Option<Sqe> {
        self.take_next(cursor, self.head.load(Ordering::Acquire))
    }

    /// Read up to `max` SQEs for the consumer owning `cursor` in one protocol
    /// round, appending them to `out`. Returns how many were read.
    ///
    /// The batched fetch reads the producer head **once** and then walks the
    /// published slots, so a daemon pass over a burst of submissions pays one
    /// head load (and, in the daemon, one cursor-lock acquisition) instead of
    /// one per SQE. Entry semantics are identical to repeated
    /// [`SubmissionQueue::read_next`] calls: every consumer sees every SQE
    /// exactly once, in insertion order.
    pub fn fetch_batch(&self, cursor: &mut SqCursor, max: usize, out: &mut Vec<Sqe>) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let mut read = 0usize;
        while read < max {
            let Some(sqe) = self.take_next(cursor, head) else {
                break;
            };
            out.push(sqe);
            read += 1;
        }
        read
    }

    /// Take the SQE at `cursor` if the producer published it below `head`.
    /// A slot that is not (or no longer) published for this position stops
    /// the read; the caller retries later.
    fn take_next(&self, cursor: &mut SqCursor, head: u64) -> Option<Sqe> {
        let pos = cursor.next;
        if pos >= head {
            return None;
        }
        let slot = &self.slots[(pos % self.slots.len() as u64) as usize];
        if slot.state.load(Ordering::Acquire) != SLOT_FULL
            || slot.write_seq.load(Ordering::Relaxed) != pos
        {
            return None;
        }
        let sqe = slot.data.lock().clone()?;
        cursor.next = pos + 1;
        let readers = slot.readers.fetch_add(1, Ordering::AcqRel) + 1;
        if readers == self.consumer_count {
            // Last reader marks the slot writable again.
            *slot.data.lock() = None;
            slot.state.store(SLOT_EMPTY, Ordering::Release);
        }
        Some(sqe)
    }

    /// The modelled host-memory cost of reading `n` SQEs in one fetch: the
    /// head check once, slot state and payload per entry, `(1 + 2n)` reads
    /// (a [`SubmissionQueue::read_next`] is a fetch of one).
    pub fn read_cost(&self, n: usize) -> Duration {
        Duration::from_nanos(((1 + 2 * n) as f64 * self.costs.sq_read_op_ns) as u64)
    }

    /// Whether any SQE is pending for a consumer at `cursor`.
    pub fn has_pending(&self, cursor: &SqCursor) -> bool {
        cursor.next < self.head.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sqe(id: u64) -> Sqe {
        Sqe {
            coll_id: id,
            seq: id,
            send: DeviceBuffer::zeroed(4),
            recv: DeviceBuffer::zeroed(4),
            exit: false,
        }
    }

    #[test]
    fn single_consumer_sees_entries_in_order() {
        let sq = SubmissionQueue::new(4, 1);
        let mut cur = SqCursor::default();
        assert!(sq.read_next(&mut cur).is_none());
        sq.try_push(sqe(1)).unwrap();
        sq.try_push(sqe(2)).unwrap();
        assert!(sq.has_pending(&cur));
        assert_eq!(sq.read_next(&mut cur).unwrap().coll_id, 1);
        assert_eq!(sq.read_next(&mut cur).unwrap().coll_id, 2);
        assert!(sq.read_next(&mut cur).is_none());
        assert_eq!(sq.inserted(), 2);
    }

    #[test]
    fn queue_full_is_reported_and_entry_returned() {
        let sq = SubmissionQueue::new(2, 1);
        sq.try_push(sqe(1)).unwrap();
        sq.try_push(sqe(2)).unwrap();
        let err = sq.try_push(sqe(3)).unwrap_err();
        assert_eq!(err.0.coll_id, 3);
        // Consuming frees a slot.
        let mut cur = SqCursor::default();
        sq.read_next(&mut cur).unwrap();
        sq.try_push(sqe(3)).unwrap();
    }

    #[test]
    fn slot_reusable_only_after_all_consumers_read() {
        let sq = SubmissionQueue::new(1, 2);
        sq.try_push(sqe(1)).unwrap();
        let mut c0 = SqCursor::default();
        let mut c1 = SqCursor::default();
        assert_eq!(sq.read_next(&mut c0).unwrap().coll_id, 1);
        // Only one of two consumers has read: the single slot is still occupied.
        assert!(sq.try_push(sqe(2)).is_err());
        assert_eq!(sq.read_next(&mut c1).unwrap().coll_id, 1);
        sq.try_push(sqe(2)).unwrap();
        assert_eq!(sq.read_next(&mut c0).unwrap().coll_id, 2);
        assert_eq!(sq.read_next(&mut c1).unwrap().coll_id, 2);
    }

    #[test]
    fn every_consumer_sees_every_entry_under_concurrency() {
        let sq = Arc::new(SubmissionQueue::new(8, 3));
        let n = 200u64;
        let mut readers = Vec::new();
        for _ in 0..3 {
            let sq = Arc::clone(&sq);
            readers.push(std::thread::spawn(move || {
                let mut cur = SqCursor::default();
                let mut seen = Vec::new();
                while seen.len() < n as usize {
                    if let Some(e) = sq.read_next(&mut cur) {
                        seen.push(e.coll_id);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                seen
            }));
        }
        let producer = {
            let sq = Arc::clone(&sq);
            std::thread::spawn(move || {
                for i in 0..n {
                    let mut e = sqe(i);
                    loop {
                        match sq.try_push(e) {
                            Ok(()) => break,
                            Err(SqFull(back)) => {
                                e = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            })
        };
        producer.join().unwrap();
        let expected: Vec<u64> = (0..n).collect();
        for r in readers {
            assert_eq!(r.join().unwrap(), expected);
        }
    }

    #[test]
    fn fetch_batch_matches_repeated_read_next() {
        let sq = SubmissionQueue::new(16, 1);
        for i in 0..10 {
            sq.try_push(sqe(i)).unwrap();
        }
        let mut batched = SqCursor::default();
        let mut out = Vec::new();
        assert_eq!(sq.fetch_batch(&mut batched, 4, &mut out), 4);
        assert_eq!(sq.fetch_batch(&mut batched, 100, &mut out), 6);
        assert_eq!(sq.fetch_batch(&mut batched, 100, &mut out), 0);
        let ids: Vec<u64> = out.iter().map(|e| e.coll_id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>());
        // Slots were recycled: the ring accepts a fresh lap.
        for i in 10..20 {
            sq.try_push(sqe(i)).unwrap();
        }
    }

    #[test]
    fn fetch_batch_interoperates_with_multiple_consumers() {
        let sq = SubmissionQueue::new(4, 2);
        for i in 0..3 {
            sq.try_push(sqe(i)).unwrap();
        }
        let mut c0 = SqCursor::default();
        let mut c1 = SqCursor::default();
        let mut out0 = Vec::new();
        assert_eq!(sq.fetch_batch(&mut c0, 8, &mut out0), 3);
        // The second consumer has not read yet, so slots are still occupied.
        sq.try_push(sqe(3)).unwrap();
        assert!(sq.try_push(sqe(4)).is_err());
        let mut out1 = Vec::new();
        assert_eq!(sq.fetch_batch(&mut c1, 8, &mut out1), 4);
        assert_eq!(
            out1.iter().map(|e| e.coll_id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        sq.try_push(sqe(4)).unwrap();
    }

    #[test]
    fn fetch_batch_with_zero_max_reads_nothing() {
        let sq = SubmissionQueue::new(4, 1);
        sq.try_push(sqe(1)).unwrap();
        let mut cur = SqCursor::default();
        let mut out = Vec::new();
        assert_eq!(sq.fetch_batch(&mut cur, 0, &mut out), 0);
        assert!(out.is_empty());
        assert!(sq.has_pending(&cur));
    }

    #[test]
    fn exit_marker_is_flagged() {
        let e = Sqe::exit_marker(7);
        assert!(e.exit);
        assert_eq!(e.seq, 7);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SubmissionQueue::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one consumer")]
    fn zero_consumers_rejected() {
        let _ = SubmissionQueue::new(4, 0);
    }

    #[test]
    fn a_fetch_of_n_costs_one_head_check_and_two_reads_per_entry() {
        let sq = SubmissionQueue::with_costs(4, 1, HostMemCosts::default());
        assert_eq!(sq.read_cost(1), Duration::from_nanos(3_000));
        assert_eq!(sq.read_cost(16), Duration::from_nanos(33_000));
    }
}
