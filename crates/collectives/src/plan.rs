//! The plan IR: a rank's primitive sequence plus the algorithm that shaped it.
//!
//! DFCCL's deadlock-prevention machinery (chunk-granular preemptible
//! primitives, SQ/CQ control path, voluntary quitting) is algorithm-agnostic:
//! any schedule expressed as a sequence of single-chunk, non-blocking
//! primitives over peer-addressed connectors is preemptible at every chunk
//! boundary. This module captures that contract:
//!
//! * [`Plan`] — the per-rank intermediate representation a collective
//!   algorithm compiles to. It carries explicit peer ranks, so the transport
//!   layer can materialise exactly the connectors the plan uses.
//! * [`Algorithm`] — the trait every schedule generator implements (ring,
//!   double binary tree, hierarchical).
//! * [`AlgorithmKind`] — the selectable algorithm families.
//!
//! ## Ordering invariant
//!
//! Within a plan, the steps touching one directed `(peer, channel)` edge must
//! appear in chunk-major order (chunk `c` flows through the pipeline before
//! chunk `c+1`), and matched send/recv pairs must be emitted in the same
//! relative order on both endpoints — connectors are FIFO. The builders
//! guarantee this by sorting on `(chunk_index, step)` within each phase; the
//! step counter is monotone in the algorithm's logical order. Striping
//! assigns channels round-robin by chunk index, so each channel's
//! subsequence of the sorted plan is itself chunk-major and the invariant
//! holds per channel.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::collective::CollectiveDescriptor;
use crate::primitive::PrimitiveStep;
use crate::CollectiveError;
use dfccl_transport::{ChannelId, Topology};

/// The collective algorithm families a plan can be built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgorithmKind {
    /// The classic ring schedule: bandwidth-optimal, O(n) latency.
    Ring,
    /// Double binary tree: latency-optimal (O(log n) hops) for small payloads.
    DoubleBinaryTree,
    /// Two-level schedule for multi-node topologies: intra-node
    /// reduce-scatter, inter-node exchange among the per-slice node leaders,
    /// intra-node all-gather.
    Hierarchical,
    /// Pairwise exchange over the dense connector mesh. Schedules
    /// all-to-all by linear shift (at shift `s`, rank `r` sends to `r+s` and
    /// receives from `r-s`; each shift on its own lane of K channels, so the
    /// `n-1` exchanges run at once), plain point-to-point send/recv, and
    /// all-reduce on a power-of-two group by recursive doubling (at level
    /// `d`, rank `r` exchanges its whole partial with `r ^ d`: `log₂ n`
    /// hops).
    Pairwise,
}

impl AlgorithmKind {
    /// All selectable algorithm kinds.
    pub const ALL: [AlgorithmKind; 4] = [
        AlgorithmKind::Ring,
        AlgorithmKind::DoubleBinaryTree,
        AlgorithmKind::Hierarchical,
        AlgorithmKind::Pairwise,
    ];
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AlgorithmKind::Ring => "ring",
            AlgorithmKind::DoubleBinaryTree => "tree",
            AlgorithmKind::Hierarchical => "hierarchical",
            AlgorithmKind::Pairwise => "pairwise",
        };
        write!(f, "{s}")
    }
}

/// Connectivity derived from a plan's steps, computed once at construction:
/// the peer sets, the directed `(peer, channel)` edge sets (ascending — the
/// canonical connector-table order compiled programs index into) and the
/// channel count. Derived data only; always consistent with `steps` because
/// [`Plan::new`] is the single construction point.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct PlanEdges {
    send_peers: Vec<usize>,
    recv_peers: Vec<usize>,
    send_edges: Vec<(usize, ChannelId)>,
    recv_edges: Vec<(usize, ChannelId)>,
    channel_count: usize,
}

impl PlanEdges {
    fn of(steps: &[PrimitiveStep]) -> Self {
        let mut send_edges: BTreeSet<(usize, ChannelId)> = BTreeSet::new();
        let mut recv_edges: BTreeSet<(usize, ChannelId)> = BTreeSet::new();
        let mut channel_count = 1usize;
        for s in steps {
            if let Some(p) = s.send_to {
                send_edges.insert((p, s.channel));
            }
            if let Some(p) = s.recv_from {
                recv_edges.insert((p, s.channel));
            }
            channel_count = channel_count.max(s.channel.0 as usize + 1);
        }
        // Edge sets iterate in ascending (peer, channel) order, so equal
        // peers are adjacent and a dedup yields the ascending peer list.
        let dedup_peers = |edges: &BTreeSet<(usize, ChannelId)>| {
            let mut peers: Vec<usize> = edges.iter().map(|&(p, _)| p).collect();
            peers.dedup();
            peers
        };
        let send_peers = dedup_peers(&send_edges);
        let recv_peers = dedup_peers(&recv_edges);
        PlanEdges {
            send_peers,
            recv_peers,
            send_edges: send_edges.into_iter().collect(),
            recv_edges: recv_edges.into_iter().collect(),
            channel_count,
        }
    }
}

/// A rank's compiled schedule: the primitive sequence plus provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plan {
    /// The algorithm family that produced this plan.
    pub algorithm: AlgorithmKind,
    /// The rank's primitives, in execution order.
    pub steps: Vec<PrimitiveStep>,
    /// Peer/edge sets derived from `steps` at construction, so the hot
    /// registration path never recomputes them (each used to allocate a
    /// fresh `BTreeSet` per call).
    edges: PlanEdges,
}

impl Plan {
    /// A plan over `steps` attributed to `algorithm`.
    pub fn new(algorithm: AlgorithmKind, steps: Vec<PrimitiveStep>) -> Self {
        let edges = PlanEdges::of(&steps);
        Plan {
            algorithm,
            steps,
            edges,
        }
    }

    /// Number of primitives.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan has no primitives.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The distinct ranks this plan sends to, ascending.
    pub fn send_peers(&self) -> &[usize] {
        &self.edges.send_peers
    }

    /// The distinct ranks this plan receives from, ascending.
    pub fn recv_peers(&self) -> &[usize] {
        &self.edges.recv_peers
    }

    /// The distinct directed `(peer, channel)` edges this plan sends over,
    /// ascending — exactly the connectors the transport must materialise,
    /// and the canonical send-connector-table order compiled programs use.
    pub fn send_edges(&self) -> &[(usize, ChannelId)] {
        &self.edges.send_edges
    }

    /// The distinct directed `(peer, channel)` edges this plan receives over,
    /// ascending.
    pub fn recv_edges(&self) -> &[(usize, ChannelId)] {
        &self.edges.recv_edges
    }

    /// Number of distinct channels this plan stripes across (at least 1).
    pub fn channel_count(&self) -> usize {
        self.edges.channel_count
    }

    /// Check structural consistency: every step's peer fields match its kind
    /// and stay inside a communicator of `size` ranks, and no step addresses
    /// `rank` itself.
    pub fn validate(&self, rank: usize, size: usize) -> Result<(), CollectiveError> {
        for step in &self.steps {
            if !step.peers_consistent(size)
                || step.send_to == Some(rank)
                || step.recv_from == Some(rank)
            {
                return Err(CollectiveError::MalformedPlan {
                    algorithm: self.algorithm,
                    rank,
                });
            }
        }
        Ok(())
    }
}

/// A collective schedule generator. Implementations compile a descriptor into
/// a per-rank [`Plan`] whose primitives stay single-chunk, non-blocking and
/// preemptible at every boundary — the properties the daemon kernel's
/// two-phase blocking relies on, independent of the schedule's shape.
pub trait Algorithm {
    /// Which family this generator belongs to.
    fn kind(&self) -> AlgorithmKind;

    /// Whether this algorithm can schedule `desc` over `topology`.
    fn supports(&self, desc: &CollectiveDescriptor, topology: &Topology) -> bool;

    /// Build the primitive sequence executed by `rank`, chunking transfers at
    /// `max_chunk_elems` elements and striping the chunk stream of every
    /// `(src, dst)` edge round-robin across `channels` parallel connectors.
    /// `channels = 1` is the unstriped schedule.
    fn build_plan_striped(
        &self,
        desc: &CollectiveDescriptor,
        rank: usize,
        max_chunk_elems: usize,
        channels: usize,
        topology: &Topology,
    ) -> Result<Plan, CollectiveError>;

    /// Build the unstriped (single-channel) primitive sequence executed by
    /// `rank`, chunking transfers at `max_chunk_elems` elements.
    fn build_plan(
        &self,
        desc: &CollectiveDescriptor,
        rank: usize,
        max_chunk_elems: usize,
        topology: &Topology,
    ) -> Result<Plan, CollectiveError> {
        self.build_plan_striped(desc, rank, max_chunk_elems, 1, topology)
    }
}

/// The generator for an algorithm kind.
pub fn algorithm(kind: AlgorithmKind) -> &'static dyn Algorithm {
    match kind {
        AlgorithmKind::Ring => &crate::ring::RingAlgorithm,
        AlgorithmKind::DoubleBinaryTree => &crate::tree::DoubleBinaryTreeAlgorithm,
        AlgorithmKind::Hierarchical => &crate::hierarchical::HierarchicalAlgorithm,
        AlgorithmKind::Pairwise => &crate::alltoall::PairwiseAlgorithm,
    }
}

/// Validate shared plan-builder inputs (descriptor, rank bound, chunk size,
/// channel count).
pub(crate) fn check_builder_inputs(
    desc: &CollectiveDescriptor,
    rank: usize,
    max_chunk_elems: usize,
    channels: usize,
) -> Result<(), CollectiveError> {
    desc.validate()?;
    let n = desc.num_ranks();
    if rank >= n {
        return Err(CollectiveError::InvalidRank { rank, size: n });
    }
    if max_chunk_elems == 0 {
        return Err(CollectiveError::InvalidChunkSize(max_chunk_elems));
    }
    if channels == 0 || channels > u32::MAX as usize {
        return Err(CollectiveError::InvalidChannelCount(channels));
    }
    Ok(())
}

/// Shared emission helper: split a macro step into chunk-sized primitives,
/// striping consecutive chunks round-robin over `channels` connectors
/// (`channel = chunk_index % channels`). `src` and `dst`, when both present,
/// are ranges of equal length chunked in lockstep.
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_chunked(
    out: &mut Vec<PrimitiveStep>,
    kind: crate::primitive::PrimitiveKind,
    src_base: Option<crate::chunk::ElemRange>,
    src_buf: crate::primitive::SrcBuf,
    dst_base: Option<crate::chunk::ElemRange>,
    send_to: Option<usize>,
    recv_from: Option<usize>,
    step: u32,
    max_chunk: usize,
    channels: usize,
) {
    use crate::chunk::ElemRange;
    let total = src_base
        .map(|r| r.len)
        .or(dst_base.map(|r| r.len))
        .unwrap_or(0);
    let channels = channels.max(1) as u32;
    // The chunks of `chunk::chunk_ranges(total, max_chunk)`, without
    // allocating them: plans are built on every registration miss.
    for (ci, offset) in (0..total).step_by(max_chunk).enumerate() {
        let len = max_chunk.min(total - offset);
        let src = src_base.map(|r| ElemRange::new(r.offset + offset, len));
        let dst = dst_base.map(|r| ElemRange::new(r.offset + offset, len));
        out.push(PrimitiveStep {
            kind,
            src,
            src_buf,
            dst,
            send_to,
            recv_from,
            chunk_index: ci as u32,
            step,
            channel: ChannelId(ci as u32 % channels),
            incoming_first: false,
        });
    }
}

/// Sort a phase's steps chunk-major: chunk `c` flows through every macro step
/// of the phase before chunk `c+1` starts, keeping the in-flight window per
/// connector O(1) regardless of the collective size (the NCCL loop
/// structure). Matched send/recv pairs shift uniformly (`step → step+1`), so
/// both endpoints' sorted orders stay aligned and connector FIFO order is
/// preserved. Channels are a function of the chunk index, so every channel's
/// subsequence of the sorted order is itself chunk-major — the invariant (and
/// the deadlock-freedom argument it carries) holds channel-wise.
pub(crate) fn sort_chunk_major(steps: &mut [PrimitiveStep]) {
    steps.sort_by_key(|p| (p.chunk_index, p.step));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ElemRange;
    use crate::primitive::{PrimitiveKind, SrcBuf};

    fn step(send_to: Option<usize>, recv_from: Option<usize>) -> PrimitiveStep {
        let kind = match (send_to.is_some(), recv_from.is_some()) {
            (true, true) => PrimitiveKind::RecvCopySend,
            (true, false) => PrimitiveKind::Send,
            (false, true) => PrimitiveKind::Recv,
            (false, false) => PrimitiveKind::Copy,
        };
        PrimitiveStep {
            kind,
            src: Some(ElemRange::new(0, 4)),
            src_buf: SrcBuf::Send,
            dst: Some(ElemRange::new(0, 4)),
            send_to,
            recv_from,
            chunk_index: 0,
            step: 0,
            channel: ChannelId(0),
            incoming_first: false,
        }
    }

    #[test]
    fn edges_carry_channels_and_dedupe() {
        let mut a = step(Some(1), None);
        a.channel = ChannelId(1);
        let plan = Plan::new(
            AlgorithmKind::Ring,
            vec![step(Some(1), Some(2)), a, step(Some(1), Some(2))],
        );
        assert_eq!(
            plan.send_edges(),
            vec![(1, ChannelId(0)), (1, ChannelId(1))]
        );
        assert_eq!(plan.recv_edges(), vec![(2, ChannelId(0))]);
        assert_eq!(plan.channel_count(), 2);
        assert_eq!(Plan::new(AlgorithmKind::Ring, vec![]).channel_count(), 1);
    }

    #[test]
    fn peers_are_collected_sorted_and_deduped() {
        let plan = Plan::new(
            AlgorithmKind::Ring,
            vec![
                step(Some(3), Some(1)),
                step(Some(1), None),
                step(Some(3), Some(2)),
            ],
        );
        assert_eq!(plan.send_peers(), vec![1, 3]);
        assert_eq!(plan.recv_peers(), vec![1, 2]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn validate_rejects_self_loops_and_out_of_range_peers() {
        let plan = Plan::new(AlgorithmKind::Ring, vec![step(Some(0), None)]);
        assert!(matches!(
            plan.validate(0, 4),
            Err(CollectiveError::MalformedPlan { .. })
        ));
        let plan = Plan::new(AlgorithmKind::Ring, vec![step(Some(9), None)]);
        assert!(plan.validate(0, 4).is_err());
        let plan = Plan::new(AlgorithmKind::Ring, vec![step(Some(1), Some(2))]);
        assert!(plan.validate(0, 4).is_ok());
    }

    #[test]
    fn algorithm_kinds_display_and_enumerate() {
        assert_eq!(AlgorithmKind::Ring.to_string(), "ring");
        assert_eq!(AlgorithmKind::DoubleBinaryTree.to_string(), "tree");
        assert_eq!(AlgorithmKind::Hierarchical.to_string(), "hierarchical");
        assert_eq!(AlgorithmKind::Pairwise.to_string(), "pairwise");
        assert_eq!(AlgorithmKind::ALL.len(), 4);
        for kind in AlgorithmKind::ALL {
            assert_eq!(algorithm(kind).kind(), kind);
        }
    }
}
