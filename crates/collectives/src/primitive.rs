//! Primitives: fusions of the basic `send`, `recv`, `reduce`, `copy` actions.
//!
//! Every common collective is a per-rank sequence of these primitives
//! (Sec. 4.1). A primitive that contains a `send` action needs a free slot in
//! the connector towards its send peer; one that contains a `recv` action
//! needs a chunk available in the connector from its recv peer. Those two
//! conditions are what a primitive busy-waits on — indefinitely in NCCL, up
//! to a spin threshold in DFCCL.
//!
//! Peers are explicit: each step names the rank it sends to and the rank it
//! receives from, so the same primitive vocabulary drives ring, tree and
//! hierarchical schedules over a peer-addressed connector mesh.

use serde::{Deserialize, Serialize};

use crate::chunk::ElemRange;
use dfccl_transport::ChannelId;

/// The fused primitive kinds shared by every collective algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrimitiveKind {
    /// Read a chunk from the local source buffer and publish it to the send peer.
    Send,
    /// Consume a chunk from the recv peer and write it to the recv buffer.
    Recv,
    /// Copy a chunk from the local source buffer to the local recv buffer (no transport).
    Copy,
    /// Consume a chunk, write it to the recv buffer, and forward it to the send peer.
    RecvCopySend,
    /// Consume a chunk, reduce it with the local source buffer, and forward the result.
    RecvReduceSend,
    /// Consume a chunk, reduce it with the local source buffer, and write the result
    /// to the recv buffer.
    RecvReduceCopy,
    /// Consume a chunk, reduce it with the local source buffer, write the result to
    /// the recv buffer, and forward it.
    RecvReduceCopySend,
}

impl PrimitiveKind {
    /// Whether the primitive publishes a chunk towards its send peer.
    pub fn has_send(&self) -> bool {
        matches!(
            self,
            PrimitiveKind::Send
                | PrimitiveKind::RecvCopySend
                | PrimitiveKind::RecvReduceSend
                | PrimitiveKind::RecvReduceCopySend
        )
    }

    /// Whether the primitive consumes a chunk from its recv peer.
    pub fn has_recv(&self) -> bool {
        matches!(
            self,
            PrimitiveKind::Recv
                | PrimitiveKind::RecvCopySend
                | PrimitiveKind::RecvReduceSend
                | PrimitiveKind::RecvReduceCopy
                | PrimitiveKind::RecvReduceCopySend
        )
    }

    /// Whether the primitive reduces incoming data with the local source buffer.
    pub fn has_reduce(&self) -> bool {
        matches!(
            self,
            PrimitiveKind::RecvReduceSend
                | PrimitiveKind::RecvReduceCopy
                | PrimitiveKind::RecvReduceCopySend
        )
    }

    /// Whether the primitive writes to the local recv buffer.
    pub fn has_copy(&self) -> bool {
        matches!(
            self,
            PrimitiveKind::Recv
                | PrimitiveKind::Copy
                | PrimitiveKind::RecvCopySend
                | PrimitiveKind::RecvReduceCopy
                | PrimitiveKind::RecvReduceCopySend
        )
    }

    /// All primitive kinds.
    pub const ALL: [PrimitiveKind; 7] = [
        PrimitiveKind::Send,
        PrimitiveKind::Recv,
        PrimitiveKind::Copy,
        PrimitiveKind::RecvCopySend,
        PrimitiveKind::RecvReduceSend,
        PrimitiveKind::RecvReduceCopy,
        PrimitiveKind::RecvReduceCopySend,
    ];
}

/// Which local buffer a primitive reads its local operand (`src`) from.
///
/// Ring schedules only ever read the original contribution from the send
/// buffer. Tree and hierarchical schedules accumulate partial results in the
/// recv buffer across multiple reducing steps, and later forward those
/// partials — which requires reading `src` back out of the recv buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SrcBuf {
    /// The rank's send buffer (its original input).
    Send,
    /// The rank's recv buffer (accumulated partials / final results).
    Recv,
}

/// One primitive of a rank's plan, fully describing what data it touches and
/// which peers it talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrimitiveStep {
    /// What to do.
    pub kind: PrimitiveKind,
    /// Element range read as the local operand (`None` when the primitive
    /// does not read local data).
    pub src: Option<ElemRange>,
    /// Which local buffer `src` refers to.
    pub src_buf: SrcBuf,
    /// Element range written in the local recv buffer (`None` when the
    /// primitive does not produce local output).
    pub dst: Option<ElemRange>,
    /// Rank this primitive sends to (`Some` iff the kind has a send half).
    pub send_to: Option<usize>,
    /// Rank this primitive receives from (`Some` iff the kind has a recv half).
    pub recv_from: Option<usize>,
    /// Index of the chunk within its macro step (used for message matching).
    pub chunk_index: u32,
    /// Macro-step index this primitive belongs to (monotone in the algorithm's
    /// logical order; also the pipelining sort key together with the chunk).
    pub step: u32,
    /// Which of the K parallel connectors per `(src, dst)` edge this
    /// primitive's transfer rides on. Builders assign channels round-robin by
    /// chunk index (`chunk_index % K`), so matched send/recv pairs — which
    /// share the chunk index — always agree on the channel, and each
    /// channel's subsequence stays independently chunk-major.
    pub channel: ChannelId,
    /// Operand order of a reducing kind: `false` computes
    /// `op(local, incoming)`, `true` computes `op(incoming, local)`. Max and
    /// Min break ties (±0) and unordered pairs (NaN) by position, so two
    /// ranks that reduce each other's partials — the pairwise family's
    /// recursive-doubling all-reduce — end bit-identical only if they agree
    /// on which partial goes first; there the upper rank of each pair sets
    /// it. Ignored by non-reducing kinds.
    pub incoming_first: bool,
}

impl PrimitiveStep {
    /// Number of elements this primitive moves.
    pub fn elems(&self) -> usize {
        self.src
            .map(|r| r.len)
            .or_else(|| self.dst.map(|r| r.len))
            .unwrap_or(0)
    }

    /// Whether the peer fields are consistent with the kind and in range for
    /// a communicator of `size` ranks.
    pub fn peers_consistent(&self, size: usize) -> bool {
        let send_ok = match (self.kind.has_send(), self.send_to) {
            (true, Some(p)) => p < size,
            (false, None) => true,
            _ => false,
        };
        let recv_ok = match (self.kind.has_recv(), self.recv_from) {
            (true, Some(p)) => p < size,
            (false, None) => true,
            _ => false,
        };
        send_ok && recv_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_recv_flags_are_consistent() {
        use PrimitiveKind::*;
        assert!(Send.has_send() && !Send.has_recv() && !Send.has_reduce() && !Send.has_copy());
        assert!(!Recv.has_send() && Recv.has_recv() && Recv.has_copy());
        assert!(!Copy.has_send() && !Copy.has_recv() && Copy.has_copy());
        assert!(RecvCopySend.has_send() && RecvCopySend.has_recv() && RecvCopySend.has_copy());
        assert!(RecvReduceSend.has_reduce() && !RecvReduceSend.has_copy());
        assert!(
            RecvReduceCopy.has_reduce() && RecvReduceCopy.has_copy() && !RecvReduceCopy.has_send()
        );
        assert!(RecvReduceCopySend.has_send() && RecvReduceCopySend.has_copy());
    }

    #[test]
    fn every_primitive_sends_or_receives_or_copies() {
        for k in PrimitiveKind::ALL {
            assert!(k.has_send() || k.has_recv() || k.has_copy());
        }
    }

    #[test]
    fn step_elems_prefers_src() {
        let s = PrimitiveStep {
            kind: PrimitiveKind::Send,
            src: Some(ElemRange::new(0, 10)),
            src_buf: SrcBuf::Send,
            dst: None,
            send_to: Some(1),
            recv_from: None,
            chunk_index: 0,
            step: 0,
            channel: ChannelId(0),
            incoming_first: false,
        };
        assert_eq!(s.elems(), 10);
        let r = PrimitiveStep {
            kind: PrimitiveKind::Recv,
            src: None,
            src_buf: SrcBuf::Send,
            dst: Some(ElemRange::new(4, 6)),
            send_to: None,
            recv_from: Some(0),
            chunk_index: 0,
            step: 1,
            channel: ChannelId(0),
            incoming_first: false,
        };
        assert_eq!(r.elems(), 6);
    }

    #[test]
    fn peer_consistency_matches_kind() {
        let mut s = PrimitiveStep {
            kind: PrimitiveKind::Send,
            src: Some(ElemRange::new(0, 1)),
            src_buf: SrcBuf::Send,
            dst: None,
            send_to: Some(1),
            recv_from: None,
            chunk_index: 0,
            step: 0,
            channel: ChannelId(0),
            incoming_first: false,
        };
        assert!(s.peers_consistent(2));
        assert!(!s.peers_consistent(1), "peer out of range");
        s.send_to = None;
        assert!(!s.peers_consistent(2), "send kind without a send peer");
        s.kind = PrimitiveKind::Copy;
        assert!(s.peers_consistent(2));
        s.recv_from = Some(0);
        assert!(!s.peers_consistent(2), "copy must not name a recv peer");
    }
}
