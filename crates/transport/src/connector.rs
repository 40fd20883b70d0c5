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
    /// sender can stage and retry it; a permanently dead link then shows up
    /// as a preempted collective the watchdog classifies via the edge's
    /// `fault_rejections` counter.
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
    /// `try_send` calls that found the ring full.
    pub full_rejections: u64,
    /// `try_recv` calls that found the ring empty.
    pub empty_polls: u64,
    /// `try_send` calls bounced by fault injection or an unreachable link.
    pub fault_rejections: u64,
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
    chunks_sent: AtomicU64,
    chunks_received: AtomicU64,
    bytes_sent: AtomicU64,
    full_rejections: AtomicU64,
    empty_polls: AtomicU64,
    fault_rejections: AtomicU64,
    send_attempts: AtomicU64,
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
            chunks_sent: AtomicU64::new(0),
            chunks_received: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            full_rejections: AtomicU64::new(0),
            empty_polls: AtomicU64::new(0),
            fault_rejections: AtomicU64::new(0),
            send_attempts: AtomicU64::new(0),
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
                inj.edge_dead(edge, self.chunks_sent.load(Ordering::Relaxed))
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
    /// primitive busy-waits on (bounded by its spin threshold). A dead link
    /// reports not-ready, so the sender's spin bound trips and the collective
    /// is preempted instead of burning its slice on a link that cannot drain.
    pub fn send_ready(&self) -> bool {
        !self.queue.is_full() && !self.is_dead()
    }

    /// Whether a recv would currently succeed. This is the condition a recv
    /// primitive busy-waits on (bounded by its spin threshold).
    pub fn recv_ready(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Publish a chunk. Charges the modelled link transfer time *before* the
    /// chunk becomes visible to the peer, then pushes it into the ring. A
    /// fault-injected or unreachable link returns [`SendError::Faulted`]
    /// without spinning; the sender stages and retries the chunk exactly as
    /// it would on a full ring.
    pub fn try_send(&self, msg: ChunkMsg) -> Result<(), SendError> {
        if self.queue.is_full() {
            self.full_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SendError::Full(msg));
        }
        let attempt = self.send_attempts.fetch_add(1, Ordering::Relaxed);
        let mut factor = 1.0;
        if let (Some(inj), Some(edge)) = (&self.injector, self.edge) {
            match inj.decide(edge, self.chunks_sent.load(Ordering::Relaxed), attempt) {
                FaultDecision::Allow => {}
                FaultDecision::Slow(f) => factor = f,
                FaultDecision::Reject => {
                    self.fault_rejections.fetch_add(1, Ordering::Relaxed);
                    return Err(SendError::Faulted(msg));
                }
            }
        }
        let bytes = msg.data.len();
        if !self.model.try_charge_scaled(self.link, bytes, factor) {
            self.fault_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(SendError::Faulted(msg));
        }
        match self.queue.push(msg) {
            Ok(()) => {
                self.chunks_sent.fetch_add(1, Ordering::Relaxed);
                self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(msg) => {
                self.full_rejections.fetch_add(1, Ordering::Relaxed);
                Err(SendError::Full(msg))
            }
        }
    }

    /// Consume the oldest buffered chunk, if any.
    pub fn try_recv(&self) -> Option<ChunkMsg> {
        match self.queue.pop() {
            Some(msg) => {
                self.chunks_received.fetch_add(1, Ordering::Relaxed);
                Some(msg)
            }
            None => {
                self.empty_polls.fetch_add(1, Ordering::Relaxed);
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
        ConnectorStats {
            chunks_sent: self.chunks_sent.load(Ordering::Relaxed),
            chunks_received: self.chunks_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            full_rejections: self.full_rejections.load(Ordering::Relaxed),
            empty_polls: self.empty_polls.load(Ordering::Relaxed),
            fault_rejections: self.fault_rejections.load(Ordering::Relaxed),
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
        assert_eq!(c.stats().full_rejections, 1);
    }

    #[test]
    fn empty_connector_returns_none_and_counts_polls() {
        let c = Connector::unmodelled(2);
        assert!(c.try_recv().is_none());
        assert!(c.try_recv().is_none());
        assert!(!c.recv_ready());
        assert_eq!(c.stats().empty_polls, 2);
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
