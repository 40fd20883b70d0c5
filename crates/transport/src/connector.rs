//! Send/recv connectors: the lock-free ring buffers GPUs exchange chunks through.
//!
//! A connector is the directed channel between two GPUs inside one
//! communicator (Fig. 5). Primitives *send* by publishing a chunk into the
//! connector and *recv* by consuming one. Two properties matter for DFCCL:
//!
//! * **Non-blocking operations** — `try_send`/`try_recv` never block, so the
//!   daemon kernel can bound the number of polls with a spin threshold and
//!   preempt the collective when the bound is exceeded (Sec. 4.2).
//! * **Persistent visibility** — once a chunk is published it stays visible to
//!   the peer until consumed, even if the sending collective is preempted right
//!   after writing or the receiving side is preempted before reading
//!   (Sec. 4.1). A bounded ring buffer gives exactly this.
//!
//! The ring buffer itself is `crossbeam`'s lock-free `ArrayQueue`; each
//! connector is used single-producer/single-consumer (one sender rank, one
//! receiver rank).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::queue::ArrayQueue;

use crate::fault::{EdgeId, FaultDecision, FaultInjector};
use crate::linkmodel::LinkModel;
use crate::topology::LinkClass;

/// One chunk-sized message travelling between two ranks of a collective.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMsg {
    /// The registered collective this chunk belongs to.
    pub coll_id: u64,
    /// Index of the chunk within the collective's data.
    pub chunk_index: u32,
    /// Ring-algorithm step that produced this chunk (used for debugging and
    /// for asserting that no step is skipped or repeated after preemption).
    pub step: u32,
    /// Raw payload bytes.
    pub data: Vec<u8>,
}

impl ChunkMsg {
    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Error returned when a connector cannot accept a chunk.
#[derive(Debug, PartialEq)]
pub enum SendError {
    /// The ring buffer is full; the message is handed back to the caller.
    Full(ChunkMsg),
    /// The link rejected the chunk — dead or flaky (fault-injected) or
    /// unreachable under the cost model. The message is handed back so the
    /// sender can stage and retry it. Each refusal lengthens the edge's
    /// refusal run ([`crate::EdgeSample::refusal_run`]); a run of
    /// [`crate::fault::FAILED_EDGE_RUN`] declares the edge failed.
    Faulted(ChunkMsg),
}

/// Counters describing connector traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectorStats {
    /// Chunks successfully published.
    pub chunks_sent: u64,
    /// Chunks successfully consumed.
    pub chunks_received: u64,
    /// Payload bytes successfully published.
    pub bytes_sent: u64,
    /// Sender polls that found the ring full: a `send_ready` answering no
    /// because of it, or a `try_send` bounced by it.
    pub full_rejections: u64,
    /// Receiver polls that found the ring empty: a `recv_ready` answering
    /// no, or a `try_recv` returning nothing.
    pub empty_polls: u64,
    /// `try_send` calls bounced by fault injection or an unreachable link.
    pub fault_rejections: u64,
}

/// The counters only the sending rank writes, on a cache line of their own.
#[derive(Default)]
#[repr(align(128))]
struct SenderCounters {
    chunks_sent: AtomicU64,
    bytes_sent: AtomicU64,
    full_rejections: AtomicU64,
    fault_rejections: AtomicU64,
    send_attempts: AtomicU64,
    /// Sends refused in a row by the link (a full ring is not a refusal).
    refusal_run: AtomicU64,
}

/// The counters only the receiving rank writes: a receiver spinning on an
/// empty ring never bounces the sender's line, nor the other way round.
#[derive(Default)]
#[repr(align(128))]
struct ReceiverCounters {
    chunks_received: AtomicU64,
    empty_polls: AtomicU64,
}

/// A directed, bounded, lock-free channel between two GPUs.
pub struct Connector {
    queue: ArrayQueue<ChunkMsg>,
    link: LinkClass,
    model: Arc<LinkModel>,
    /// The physical edge this connector realises, when built by a
    /// communicator (test-built connectors have none).
    edge: Option<EdgeId>,
    /// The domain's fault injector; inert injectors cost one relaxed load.
    injector: Option<Arc<FaultInjector>>,
    /// Whether the cost model can never complete a transfer on this link
    /// class. Cached at construction — the model is immutable — so the
    /// `send_ready` hot poll stays branch-cheap.
    link_unreachable: bool,
    sender: SenderCounters,
    receiver: ReceiverCounters,
}

impl std::fmt::Debug for Connector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connector")
            .field("capacity", &self.queue.capacity())
            .field("len", &self.queue.len())
            .field("link", &self.link)
            .finish()
    }
}

impl Connector {
    /// Create a connector with `capacity` chunk slots over the given link class.
    pub fn new(capacity: usize, link: LinkClass, model: Arc<LinkModel>) -> Arc<Self> {
        Connector::with_edge(capacity, link, model, None, None)
    }

    /// Create a connector bound to a physical edge and a fault injector, so
    /// every send consults the injector's script for that edge. This is the
    /// constructor communicators use; `new` builds an uninstrumented one.
    pub fn with_edge(
        capacity: usize,
        link: LinkClass,
        model: Arc<LinkModel>,
        edge: Option<EdgeId>,
        injector: Option<Arc<FaultInjector>>,
    ) -> Arc<Self> {
        assert!(capacity > 0, "connector capacity must be positive");
        let link_unreachable = model.is_unreachable(link);
        Arc::new(Connector {
            queue: ArrayQueue::new(capacity),
            link,
            model,
            edge,
            injector,
            link_unreachable,
            sender: SenderCounters::default(),
            receiver: ReceiverCounters::default(),
        })
    }

    /// A connector with no transfer cost — for logic-only tests.
    pub fn unmodelled(capacity: usize) -> Arc<Self> {
        Connector::new(capacity, LinkClass::Local, Arc::new(LinkModel::zero_cost()))
    }

    /// The link class this connector crosses.
    pub fn link(&self) -> LinkClass {
        self.link
    }

    /// The physical edge this connector realises, if bound to one.
    pub fn edge(&self) -> Option<EdgeId> {
        self.edge
    }

    /// Whether the link currently cannot deliver: unreachable under the cost
    /// model, or scripted dead by the fault injector.
    pub fn is_dead(&self) -> bool {
        if self.link_unreachable {
            return true;
        }
        match (&self.injector, self.edge) {
            (Some(inj), Some(edge)) => {
                inj.edge_dead(edge, self.sender.chunks_sent.load(Ordering::Relaxed))
            }
            _ => false,
        }
    }

    /// Number of chunk slots.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Number of chunks currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the connector holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.queue.is_full()
    }

    /// Whether a send would currently succeed. This is the condition a send
    /// primitive busy-waits on (bounded by its spin threshold); a full ring
    /// counts a `full_rejections`. A dead link reports not-ready, so the
    /// sender's spin bound trips and the collective is preempted instead of
    /// burning its slice on a link that cannot drain (a refusal).
    pub fn send_ready(&self) -> bool {
        if self.queue.is_full() {
            self.sender.full_rejections.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if self.is_dead() {
            self.sender.refusal_run.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Whether a recv would currently succeed. This is the condition a recv
    /// primitive busy-waits on (bounded by its spin threshold); an empty ring
    /// counts an `empty_polls`.
    pub fn recv_ready(&self) -> bool {
        if self.queue.is_empty() {
            self.receiver.empty_polls.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Publish a chunk. Charges the modelled link transfer time *before* the
    /// chunk becomes visible to the peer, then pushes it into the ring. A
    /// fault-injected or unreachable link returns [`SendError::Faulted`]
    /// without spinning and lengthens the refusal run; the sender stages and
    /// retries the chunk exactly as it would on a full ring.
    pub fn try_send(&self, msg: ChunkMsg) -> Result<(), SendError> {
        let sender = &self.sender;
        if self.queue.is_full() {
            sender.full_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SendError::Full(msg));
        }
        let attempt = sender.send_attempts.fetch_add(1, Ordering::Relaxed);
        let mut factor = 1.0;
        if let (Some(inj), Some(edge)) = (&self.injector, self.edge) {
            match inj.decide(edge, sender.chunks_sent.load(Ordering::Relaxed), attempt) {
                FaultDecision::Allow => {}
                FaultDecision::Slow(f) => factor = f,
                FaultDecision::Reject => return Err(self.refuse(msg)),
            }
        }
        let bytes = msg.data.len();
        if !self.model.try_charge_scaled(self.link, bytes, factor) {
            return Err(self.refuse(msg));
        }
        match self.queue.push(msg) {
            Ok(()) => {
                sender.chunks_sent.fetch_add(1, Ordering::Relaxed);
                sender.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
                // Only the sender writes the run: a plain store ends it.
                sender.refusal_run.store(0, Ordering::Relaxed);
                Ok(())
            }
            Err(msg) => {
                sender.full_rejections.fetch_add(1, Ordering::Relaxed);
                Err(SendError::Full(msg))
            }
        }
    }

    /// Count a send the link refused and hand the chunk back.
    fn refuse(&self, msg: ChunkMsg) -> SendError {
        let sender = &self.sender;
        sender.fault_rejections.fetch_add(1, Ordering::Relaxed);
        sender.refusal_run.fetch_add(1, Ordering::Relaxed);
        SendError::Faulted(msg)
    }

    /// Sends the link refused in a row: refused `try_send`s and `send_ready`
    /// polls that found the link dead, since the last accepted send. A full
    /// ring neither lengthens nor ends the run.
    pub(crate) fn refusal_run(&self) -> u64 {
        self.sender.refusal_run.load(Ordering::Relaxed)
    }

    /// Consume the oldest buffered chunk, if any.
    pub fn try_recv(&self) -> Option<ChunkMsg> {
        match self.queue.pop() {
            Some(msg) => {
                self.receiver
                    .chunks_received
                    .fetch_add(1, Ordering::Relaxed);
                Some(msg)
            }
            None => {
                self.receiver.empty_polls.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Drain and discard everything currently buffered (recovery wipes an
    /// interrupted round's chunks).
    pub fn clear(&self) {
        while self.queue.pop().is_some() {}
    }

    /// Traffic counters.
    pub fn stats(&self) -> ConnectorStats {
        let (sender, receiver) = (&self.sender, &self.receiver);
        ConnectorStats {
            chunks_sent: sender.chunks_sent.load(Ordering::Relaxed),
            chunks_received: receiver.chunks_received.load(Ordering::Relaxed),
            bytes_sent: sender.bytes_sent.load(Ordering::Relaxed),
            full_rejections: sender.full_rejections.load(Ordering::Relaxed),
            empty_polls: receiver.empty_polls.load(Ordering::Relaxed),
            fault_rejections: sender.fault_rejections.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(i: u32) -> ChunkMsg {
        ChunkMsg {
            coll_id: 1,
            chunk_index: i,
            step: 0,
            data: vec![i as u8; 16],
        }
    }

    #[test]
    fn send_then_recv_round_trips() {
        let c = Connector::unmodelled(4);
        c.try_send(msg(7)).unwrap();
        let got = c.try_recv().unwrap();
        assert_eq!(got.chunk_index, 7);
        assert_eq!(got.data, vec![7u8; 16]);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let c = Connector::unmodelled(8);
        for i in 0..5 {
            c.try_send(msg(i)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.try_recv().unwrap().chunk_index, i);
        }
        assert!(c.try_recv().is_none());
    }

    #[test]
    fn full_connector_rejects_and_returns_message() {
        let c = Connector::unmodelled(2);
        c.try_send(msg(0)).unwrap();
        c.try_send(msg(1)).unwrap();
        assert!(c.is_full());
        assert!(!c.send_ready());
        match c.try_send(msg(2)) {
            Err(SendError::Full(m)) => assert_eq!(m.chunk_index, 2),
            other => panic!("expected Full, got {other:?}"),
        }
        // One from the readiness poll, one from the bounced send.
        assert_eq!(c.stats().full_rejections, 2);
    }

    #[test]
    fn empty_connector_returns_none_and_counts_polls() {
        let c = Connector::unmodelled(2);
        assert!(c.try_recv().is_none());
        assert!(c.try_recv().is_none());
        assert_eq!(c.stats().empty_polls, 2);
    }

    #[test]
    fn recv_ready_on_an_empty_ring_counts_an_empty_poll() {
        // The executor asks `recv_ready` first and calls `try_recv` only on
        // a yes, so the readiness poll is where the waiting shows.
        let c = Connector::unmodelled(2);
        assert!(!c.recv_ready());
        assert!(!c.recv_ready());
        assert_eq!(c.stats().empty_polls, 2);
        c.try_send(msg(0)).unwrap();
        assert!(c.recv_ready());
        c.try_recv().unwrap();
        let s = c.stats();
        assert_eq!((s.empty_polls, s.full_rejections), (2, 0));
    }

    #[test]
    fn send_ready_on_a_full_ring_counts_a_full_rejection() {
        let c = Connector::unmodelled(1);
        assert!(c.send_ready());
        c.try_send(msg(0)).unwrap();
        assert!(!c.send_ready());
        assert!(!c.send_ready());
        let s = c.stats();
        assert_eq!((s.full_rejections, s.empty_polls), (2, 0));
        c.try_recv().unwrap();
        assert!(c.send_ready());
        assert_eq!(c.stats().full_rejections, 2);
    }

    #[test]
    fn a_dead_link_is_not_counted_as_a_full_ring() {
        let model = Arc::new(LinkModel::zero_cost());
        let edge = EdgeId {
            src: gpu_sim::GpuId(0),
            dst: gpu_sim::GpuId(1),
            channel: crate::ChannelId(0),
        };
        let inj = FaultInjector::new(1);
        inj.script(edge, crate::fault::FaultSpec::dead());
        let c = Connector::with_edge(2, LinkClass::Local, model, Some(edge), Some(inj));
        assert!(!c.send_ready());
        assert_eq!(c.stats().full_rejections, 0);
    }

    fn dead_edge_connector(capacity: usize) -> (Arc<Connector>, Arc<FaultInjector>, EdgeId) {
        let edge = EdgeId {
            src: gpu_sim::GpuId(0),
            dst: gpu_sim::GpuId(1),
            channel: crate::ChannelId(0),
        };
        let inj = FaultInjector::new(1);
        let c = Connector::with_edge(
            capacity,
            LinkClass::Local,
            Arc::new(LinkModel::zero_cost()),
            Some(edge),
            Some(Arc::clone(&inj)),
        );
        (c, inj, edge)
    }

    #[test]
    fn every_refusal_lengthens_the_run_and_a_full_ring_does_not() {
        let (c, inj, edge) = dead_edge_connector(1);
        c.try_send(msg(0)).unwrap();
        assert!(!c.send_ready(), "full");
        assert!(c.try_send(msg(1)).is_err());
        assert_eq!(
            c.refusal_run(),
            0,
            "a full ring is back-pressure, not a refusal"
        );
        c.try_recv().unwrap();
        inj.script(edge, crate::fault::FaultSpec::dead());
        for expected in 1..=3 {
            assert!(!c.send_ready());
            assert_eq!(c.refusal_run(), expected, "a dead send_ready");
        }
        for expected in 4..=5 {
            assert!(matches!(c.try_send(msg(2)), Err(SendError::Faulted(_))));
            assert_eq!(c.refusal_run(), expected, "a refused try_send");
        }
    }

    #[test]
    fn one_accepted_send_ends_the_run() {
        let (c, inj, edge) = dead_edge_connector(4);
        inj.script(edge, crate::fault::FaultSpec::dead());
        assert!(!c.send_ready());
        assert!(c.try_send(msg(0)).is_err());
        assert_eq!(c.refusal_run(), 2);
        inj.clear();
        c.try_send(msg(0)).unwrap();
        assert_eq!(c.refusal_run(), 0);
    }

    #[test]
    fn a_thirty_percent_flaky_edge_never_reaches_the_failure_run() {
        let (c, inj, edge) = dead_edge_connector(1);
        inj.set_seed(0x5eed);
        inj.script(edge, crate::fault::FaultSpec::flaky(0.3));
        let (mut longest, mut refused) = (0, 0u64);
        for i in 0..100_000u32 {
            match c.try_send(msg(i)) {
                Ok(()) => {
                    c.try_recv().unwrap();
                }
                Err(SendError::Faulted(_)) => refused += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
            longest = longest.max(c.refusal_run());
        }
        assert!(refused > 25_000, "{refused} refusals in 100 000 attempts");
        assert!(
            longest < crate::fault::FAILED_EDGE_RUN,
            "a 30% flaky edge refused {longest} sends in a row"
        );
    }

    #[test]
    fn each_sides_counters_sit_on_their_own_cache_line() {
        let c = Connector::unmodelled(1);
        let sender = &c.sender as *const SenderCounters as usize;
        let receiver = &c.receiver as *const ReceiverCounters as usize;
        assert!(sender.abs_diff(receiver) >= 128);
        assert_eq!(sender % 128, 0);
        assert_eq!(receiver % 128, 0);
    }

    #[test]
    fn published_chunks_persist_until_consumed() {
        // The "persistent visibility" property: data survives in the connector
        // regardless of what the producer does afterwards.
        let c = Connector::unmodelled(4);
        c.try_send(msg(3)).unwrap();
        // Simulate preemption of the sender: nothing else happens for a while.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(c.recv_ready());
        assert_eq!(c.try_recv().unwrap().chunk_index, 3);
    }

    #[test]
    fn stats_track_bytes() {
        let c = Connector::unmodelled(4);
        c.try_send(msg(0)).unwrap();
        c.try_send(msg(1)).unwrap();
        c.try_recv().unwrap();
        let s = c.stats();
        assert_eq!(s.chunks_sent, 2);
        assert_eq!(s.chunks_received, 1);
        assert_eq!(s.bytes_sent, 32);
    }

    #[test]
    fn clear_empties_the_ring() {
        let c = Connector::unmodelled(4);
        c.try_send(msg(0)).unwrap();
        c.try_send(msg(1)).unwrap();
        c.clear();
        assert!(c.is_empty());
        assert!(c.try_recv().is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = Connector::unmodelled(0);
    }

    #[test]
    fn unreachable_link_faults_sends_and_reports_not_ready() {
        // A zero-bandwidth link used to deliver chunks for free; it must now
        // bounce them with Faulted and never report send_ready.
        let mut params = std::collections::HashMap::new();
        params.insert(
            LinkClass::InterNode,
            crate::linkmodel::LinkParams {
                latency_ns: 100.0,
                bandwidth_gbps: 0.0,
            },
        );
        let model = Arc::new(LinkModel::new(params, gpu_sim::TimeScale::default()));
        let c = Connector::new(4, LinkClass::InterNode, model);
        assert!(!c.send_ready());
        match c.try_send(msg(0)) {
            Err(SendError::Faulted(m)) => assert_eq!(m.chunk_index, 0),
            other => panic!("expected Faulted, got {other:?}"),
        }
        assert!(c.is_empty());
        assert_eq!(c.stats().fault_rejections, 1);
        assert_eq!(c.stats().chunks_sent, 0);
    }

    #[test]
    fn dead_scripted_edge_bounces_sends_until_healed() {
        let edge = EdgeId {
            src: gpu_sim::GpuId(0),
            dst: gpu_sim::GpuId(1),
            channel: crate::ChannelId(0),
        };
        let inj = FaultInjector::new(1);
        let c = Connector::with_edge(
            4,
            LinkClass::Local,
            Arc::new(LinkModel::zero_cost()),
            Some(edge),
            Some(Arc::clone(&inj)),
        );
        assert_eq!(c.edge(), Some(edge));
        c.try_send(msg(0)).unwrap();

        inj.script(edge, crate::fault::FaultSpec::dead());
        assert!(!c.send_ready());
        match c.try_send(msg(1)) {
            Err(SendError::Faulted(m)) => assert_eq!(m.chunk_index, 1),
            other => panic!("expected Faulted, got {other:?}"),
        }
        // Already-published chunks stay visible to the receiver.
        assert_eq!(c.try_recv().unwrap().chunk_index, 0);

        inj.clear();
        assert!(c.send_ready());
        c.try_send(msg(1)).unwrap();
        let s = c.stats();
        assert_eq!(s.chunks_sent, 2);
        assert_eq!(s.fault_rejections, 1);
    }

    #[test]
    fn flaky_edge_drops_some_sends_but_retries_get_through() {
        let edge = EdgeId {
            src: gpu_sim::GpuId(0),
            dst: gpu_sim::GpuId(1),
            channel: crate::ChannelId(0),
        };
        let inj = FaultInjector::new(99);
        let c = Connector::with_edge(
            64,
            LinkClass::Local,
            Arc::new(LinkModel::zero_cost()),
            Some(edge),
            Some(inj),
        );
        c.injector
            .as_ref()
            .unwrap()
            .script(edge, crate::fault::FaultSpec::flaky(0.5));
        let mut delivered = 0u32;
        while delivered < 32 {
            match c.try_send(msg(delivered)) {
                Ok(()) => delivered += 1,
                Err(SendError::Faulted(_)) => {} // retry with the next attempt
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let s = c.stats();
        assert_eq!(s.chunks_sent, 32);
        assert!(s.fault_rejections > 0, "a 50% flaky link dropped nothing");
        for i in 0..32 {
            assert_eq!(c.try_recv().unwrap().chunk_index, i);
        }
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing() {
        let c = Connector::unmodelled(8);
        let producer_side = Arc::clone(&c);
        let n = 10_000u32;
        let producer = std::thread::spawn(move || {
            let mut sent = 0u32;
            while sent < n {
                if producer_side.try_send(msg(sent)).is_ok() {
                    sent += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut received = Vec::with_capacity(n as usize);
        while received.len() < n as usize {
            if let Some(m) = c.try_recv() {
                received.push(m.chunk_index);
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        let expected: Vec<u32> = (0..n).collect();
        assert_eq!(received, expected);
    }
}
