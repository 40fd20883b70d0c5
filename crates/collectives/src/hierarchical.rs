//! Hierarchical (two-level) all-reduce for multi-node topologies.
//!
//! Flat rings over a multi-node cluster push `2(n-1)/n` of the buffer across
//! the slow inter-node fabric on *every* hop-pair. The hierarchical schedule
//! confines most traffic to the fast intra-node links (the standard NCCL
//! multi-node design point). Over a node's `k` local ranks it has three
//! stages:
//!
//! 1. **Intra-node reduce-scatter** — a ring over the node's local ranks;
//!    afterwards local rank `j` holds the node-wide partial sum of slice `j`
//!    in its recv buffer.
//! 2. **Leader ring** — the ranks holding slice `j` (one per node: the
//!    slice's *node leaders*) ring-all-reduce it across the fabric. Only
//!    `1/k`-th of the buffer crosses the inter-node boundary per leader.
//! 3. **Intra-node all-gather** — the ring again, redistributing the now
//!    globally-reduced slices to every local rank.
//!
//! The stages run **block-pipelined**, not one after another. Each slice is
//! cut into blocks of `nodes × K` chunks, so the leader ring splits a block
//! into `nodes` sub-ranges of at most `K` chunks, one per channel. The
//! reduce-scatter and the all-gather ride the *intra lane* (channels
//! `0..K`), which sends only over intra-node edges; the leader ring rides
//! the *inter lane* (channels `K..2K`), which sends only over inter-node
//! edges. In plan order, iteration `i` holds block `i-1`'s leader ring, then
//! block `i`'s reduce-scatter, then block `i-2`'s all-gather. So while the
//! inter lane reduces block `b` across nodes, the intra lane reduces block
//! `b+1` and gathers block `b-1`, and each GPU's intra-node and inter-node
//! links work at once (GC3's pipelined hierarchical all-reduce, with lanes
//! for thread blocks). With one rank per node only the leader ring is left,
//! on one lane (channels `0..K`).
//!
//! The stages hand blocks over in the recv buffer ([`SrcBuf::Recv`]
//! operands) from one lane to the other. Compilation turns exactly those
//! hand-overs into phase barriers (`program::segment_phases`, derived from
//! the byte ranges), and the cost model waits on the same barriers, so the
//! pipeline needs no mechanism of its own. Deadlock freedom: every step has
//! a position `(iteration, stage, chunk, step)` that plan order sorts by,
//! both ends of every edge emit its messages in that order, a blocked step
//! only waits on a strictly earlier position, and a phase barrier only on
//! earlier steps of its own rank — so the schedule completes even with
//! 1-slot connectors.
//!
//! Slices differ in length by at most one element, so their chunk and block
//! counts can differ by one. A (slice, block) pair that does not exist has
//! an empty range, which emits no step on either end of its edges.
//!
//! The algorithm requires every node group (as classified by
//! [`Topology::machine_of`]) to contribute the same number of ranks, and at
//! least two nodes.

use crate::chunk::{slice_ranges, ElemRange};
use crate::collective::{CollectiveDescriptor, CollectiveKind};
use crate::plan::{
    check_builder_inputs, push_chunked, sort_chunk_major, Algorithm, AlgorithmKind, Plan,
};
use crate::primitive::{PrimitiveKind, PrimitiveStep, SrcBuf};
use crate::CollectiveError;
use dfccl_transport::Topology;

/// The hierarchical schedule generator.
pub struct HierarchicalAlgorithm;

/// Emit one macro step of a ring stage: peers derive from the primitive
/// kind, chunks split at `max_chunk` and stripe over `channels`, and the
/// shared step counter advances.
#[allow(clippy::too_many_arguments)]
fn emit_ring_step(
    out: &mut Vec<PrimitiveStep>,
    kind: PrimitiveKind,
    src: Option<ElemRange>,
    src_buf: SrcBuf,
    dst: Option<ElemRange>,
    (next, prev): (usize, usize),
    step: &mut u32,
    max_chunk: usize,
    channels: usize,
) {
    push_chunked(
        out,
        kind,
        src,
        src_buf,
        dst,
        kind.has_send().then_some(next),
        kind.has_recv().then_some(prev),
        *step,
        max_chunk,
        channels,
    );
    *step += 1;
}

/// Node grouping of a device set: rank indices per machine, in rank order.
fn node_groups(desc: &CollectiveDescriptor, topology: &Topology) -> Option<Vec<Vec<usize>>> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (rank, &gpu) in desc.devices.iter().enumerate() {
        let machine = topology.machine_of(gpu)?;
        match groups.iter_mut().find(|(m, _)| *m == machine) {
            Some((_, g)) => g.push(rank),
            None => groups.push((machine, vec![rank])),
        }
    }
    if groups.len() < 2 {
        return None;
    }
    let k = groups[0].1.len();
    if groups.iter().any(|(_, g)| g.len() != k) {
        return None;
    }
    Some(groups.into_iter().map(|(_, g)| g).collect())
}

impl Algorithm for HierarchicalAlgorithm {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Hierarchical
    }

    fn supports(&self, desc: &CollectiveDescriptor, topology: &Topology) -> bool {
        desc.kind == CollectiveKind::AllReduce && node_groups(desc, topology).is_some()
    }

    fn build_plan_striped(
        &self,
        desc: &CollectiveDescriptor,
        rank: usize,
        max_chunk_elems: usize,
        channels: usize,
        topology: &Topology,
    ) -> Result<Plan, CollectiveError> {
        check_builder_inputs(desc, rank, max_chunk_elems, channels)?;
        if desc.kind != CollectiveKind::AllReduce {
            return Err(CollectiveError::UnsupportedAlgorithm {
                algorithm: AlgorithmKind::Hierarchical,
                kind: desc.kind,
            });
        }
        let Some(groups) = node_groups(desc, topology) else {
            return Err(CollectiveError::UnsupportedTopology(
                "hierarchical all-reduce needs >= 2 nodes with equal-size rank groups".into(),
            ));
        };

        let g = groups
            .iter()
            .position(|grp| grp.contains(&rank))
            .expect("rank is grouped");
        let local = &groups[g];
        let k = local.len();
        let j = local.iter().position(|&r| r == rank).expect("rank local");
        let nodes = groups.len();

        // One slice per local rank; slice `j`'s leaders are the local-index-j
        // ranks of every node.
        let slices = slice_ranges(desc.count, k);
        let slice = |idx: usize| slices[idx % k];
        let mut step = 0u32;

        // The intra lane: ring reduce-scatter, then ring all-gather, over the
        // whole buffer, each chunk-major on its own. Chunk `c` of a slice
        // belongs to block `c / (nodes * K)`.
        let mut reduce_scatter = Vec::new();
        let mut all_gather = Vec::new();
        if k >= 2 {
            let ring = (local[(j + 1) % k], local[(j + k - 1) % k]);
            let out = &mut reduce_scatter;
            let mut emit = |kind, src, src_buf, dst| {
                emit_ring_step(
                    out,
                    kind,
                    src,
                    src_buf,
                    dst,
                    ring,
                    &mut step,
                    max_chunk_elems,
                    channels,
                )
            };
            emit(
                PrimitiveKind::Send,
                Some(slice(j + k - 1)),
                SrcBuf::Send,
                None,
            );
            for t in 1..k - 1 {
                emit(
                    PrimitiveKind::RecvReduceSend,
                    Some(slice(j + k - 1 - t)),
                    SrcBuf::Send,
                    None,
                );
            }
            // The node partial of slice j lands in the recv buffer in place.
            emit(
                PrimitiveKind::RecvReduceCopy,
                Some(slice(j)),
                SrcBuf::Send,
                Some(slice(j)),
            );
            sort_chunk_major(out);

            let out = &mut all_gather;
            let mut emit = |kind, src, src_buf, dst| {
                emit_ring_step(
                    out,
                    kind,
                    src,
                    src_buf,
                    dst,
                    ring,
                    &mut step,
                    max_chunk_elems,
                    channels,
                )
            };
            // Slice j is already in place in this rank's recv buffer.
            emit(PrimitiveKind::Send, Some(slice(j)), SrcBuf::Recv, None);
            for t in 1..k - 1 {
                emit(
                    PrimitiveKind::RecvCopySend,
                    None,
                    SrcBuf::Send,
                    Some(slice(j + k - t)),
                );
            }
            emit(PrimitiveKind::Recv, None, SrcBuf::Send, Some(slice(j + 1)));
            sort_chunk_major(out);
        }

        // The inter lane: per block of slice j, a ring all-reduce among its
        // node leaders, at most K chunks per sub-range. The local operand is
        // the reduce-scatter's partial in the recv buffer (or the original
        // input when the node has a single rank). Chunk indices count on
        // across blocks (block b's chunk c is b·K + c), so the lane is
        // chunk-major as a whole, on the K channels after the intra lane's.
        let leaders: Vec<usize> = groups.iter().map(|grp| grp[j]).collect();
        let ring = (leaders[(g + 1) % nodes], leaders[(g + nodes - 1) % nodes]);
        let operand = if k == 1 { SrcBuf::Send } else { SrcBuf::Recv };
        let first_channel = if k == 1 { 0 } else { channels };
        let block_elems = nodes * channels * max_chunk_elems;
        let mut leader_ring = Vec::new();
        let my_slice = slice(j);
        for (b, start) in (0..my_slice.len).step_by(block_elems).enumerate() {
            let block = ElemRange::new(
                my_slice.offset + start,
                block_elems.min(my_slice.len - start),
            );
            let subs = slice_ranges(block.len, nodes);
            let sub = |idx: usize| subs[idx % nodes].shifted(block.offset);
            let first = leader_ring.len();
            let out = &mut leader_ring;
            let mut emit = |kind, src, src_buf, dst| {
                emit_ring_step(
                    out,
                    kind,
                    src,
                    src_buf,
                    dst,
                    ring,
                    &mut step,
                    max_chunk_elems,
                    channels,
                )
            };
            emit(PrimitiveKind::Send, Some(sub(g)), operand, None);
            for t in 1..nodes - 1 {
                emit(
                    PrimitiveKind::RecvReduceSend,
                    Some(sub(g + nodes - t)),
                    operand,
                    None,
                );
            }
            let owned = sub(g + 1);
            emit(
                PrimitiveKind::RecvReduceCopySend,
                Some(owned),
                operand,
                Some(owned),
            );
            for t in 1..nodes - 1 {
                emit(
                    PrimitiveKind::RecvCopySend,
                    None,
                    SrcBuf::Send,
                    Some(sub(g + nodes - t + 1)),
                );
            }
            emit(PrimitiveKind::Recv, None, SrcBuf::Send, Some(sub(g + 2)));
            for s in &mut leader_ring[first..] {
                s.chunk_index += (b * channels) as u32;
                s.channel.0 += first_channel as u32;
            }
        }
        sort_chunk_major(&mut leader_ring);

        // Merge the stages block-pipelined: iteration `i` takes block
        // `i-1`'s leader ring, block `i`'s reduce-scatter and block `i-2`'s
        // all-gather, each stage's steps in their own order. Leader ring
        // first: the hand-over barriers then cut the plan into phases of one
        // block per stage, which keep both lanes busy (reduce-scatter first
        // cuts uneven phases that leave a lane idle at each barrier).
        let mut stages = [
            (leader_ring.into_iter().peekable(), 1, channels),
            (reduce_scatter.into_iter().peekable(), 0, nodes * channels),
            (all_gather.into_iter().peekable(), 2, nodes * channels),
        ];
        let mut steps = Vec::with_capacity(stages.iter().map(|(s, _, _)| s.len()).sum());
        for iteration in 0.. {
            let mut left = false;
            for (stage, lag, chunks_per_block) in &mut stages {
                while let Some(s) = stage
                    .next_if(|s| s.chunk_index as usize / *chunks_per_block + *lag <= iteration)
                {
                    steps.push(s);
                }
                left |= stage.peek().is_some();
            }
            if !left {
                break;
            }
        }

        Ok(Plan::new(AlgorithmKind::Hierarchical, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::redop::ReduceOp;
    use gpu_sim::GpuId;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    fn desc(n: usize, count: usize) -> CollectiveDescriptor {
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
    }

    #[test]
    fn requires_multi_node_uniform_groups() {
        let a = HierarchicalAlgorithm;
        // Flat single-node topology: unsupported.
        assert!(!a.supports(&desc(4, 16), &Topology::flat(4)));
        // Two uniform nodes of two: supported.
        let topo = Topology::uniform_cluster(2, 2);
        assert!(a.supports(&desc(4, 16), &topo));
        // Non-uniform split (3 ranks over 2x2 cluster -> groups of 2 and 1).
        assert!(!a.supports(&desc(3, 16), &topo));
        assert!(matches!(
            a.build_plan(&desc(3, 16), 0, 8, &topo),
            Err(CollectiveError::UnsupportedTopology(_))
        ));
        // Non-all-reduce collectives are out of scope.
        let bc = CollectiveDescriptor::broadcast(16, DataType::F32, 0, gpus(4));
        assert!(!a.supports(&bc, &topo));
        assert!(matches!(
            a.build_plan(&bc, 0, 8, &topo),
            Err(CollectiveError::UnsupportedAlgorithm { .. })
        ));
    }

    #[test]
    fn two_eight_gpu_servers_group_by_machine() {
        let topo = Topology::two_eight_gpu_servers();
        let d = desc(16, 64);
        let groups = node_groups(&d, &topo).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (0..8).collect::<Vec<_>>());
        assert_eq!(groups[1], (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn inter_node_traffic_stays_on_slice_leaders() {
        // On a 2x4 cluster, rank j only exchanges across nodes with the rank
        // of the same local index on the other node (j +- 4).
        let topo = Topology::uniform_cluster(2, 4);
        let d = desc(8, 64);
        for rank in 0..8 {
            let plan = HierarchicalAlgorithm
                .build_plan(&d, rank, 8, &topo)
                .unwrap();
            plan.validate(rank, 8).unwrap();
            let mirror = (rank + 4) % 8;
            for &peer in plan.send_peers().iter().chain(plan.recv_peers()) {
                let same_node = peer / 4 == rank / 4;
                assert!(
                    same_node || peer == mirror,
                    "rank {rank} talks across nodes to {peer}, expected only {mirror}"
                );
            }
        }
    }

    /// The stages of a hierarchical plan, in the order one block passes
    /// through them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Stage {
        ReduceScatter,
        LeaderRing,
        AllGather,
    }

    /// A step's stage and block, for nodes of at least two ranks striped
    /// over `k` channels: the leader ring rides channels `k..2k` in blocks
    /// of `k` chunks; on the intra lane, the reduce-scatter's steps are the
    /// ones that reduce or send from the send buffer, and both intra stages
    /// run in blocks of `nodes * k` chunks.
    fn stage_and_block(s: &PrimitiveStep, nodes: usize, k: usize) -> (Stage, usize) {
        let chunk = s.chunk_index as usize;
        if s.channel.0 as usize >= k {
            (Stage::LeaderRing, chunk / k)
        } else if s.kind.has_reduce()
            || (s.kind == PrimitiveKind::Send && s.src_buf == SrcBuf::Send)
        {
            (Stage::ReduceScatter, chunk / (nodes * k))
        } else {
            (Stage::AllGather, chunk / (nodes * k))
        }
    }

    /// Every rank's plan of an 8000-element all-reduce at chunk 100 over
    /// multi-node splits with at least two ranks per node, for K in {1, 2,
    /// 3}: `(rank, nodes, K, machine of each rank, plan)`.
    fn pipelined_plans() -> Vec<(usize, usize, usize, Vec<usize>, Plan)> {
        let mut out = Vec::new();
        for (nodes, per_node) in [(2, 2), (2, 3), (3, 2), (2, 4)] {
            let topo = Topology::uniform_cluster(nodes, per_node);
            let n = nodes * per_node;
            let d = desc(n, 8000);
            let machine: Vec<usize> = d
                .devices
                .iter()
                .map(|&gpu| topo.machine_of(gpu).unwrap())
                .collect();
            for k in [1, 2, 3] {
                for rank in 0..n {
                    let plan = HierarchicalAlgorithm
                        .build_plan_striped(&d, rank, 100, k, &topo)
                        .unwrap();
                    plan.validate(rank, n).unwrap();
                    out.push((rank, nodes, k, machine.clone(), plan));
                }
            }
        }
        out
    }

    #[test]
    fn each_lane_runs_each_stage_chunk_major() {
        // On every channel, each stage's steps appear in ascending
        // (chunk, step) order: the per-channel FIFO argument of the ring
        // holds stage by stage, and the stages interleave by block.
        for (rank, nodes, k, _, plan) in pipelined_plans() {
            for channel in 0..2 * k as u32 {
                for stage in [Stage::ReduceScatter, Stage::LeaderRing, Stage::AllGather] {
                    let keys: Vec<(u32, u32)> = plan
                        .steps
                        .iter()
                        .filter(|s| s.channel.0 == channel)
                        .filter(|s| stage_and_block(s, nodes, k).0 == stage)
                        .map(|s| (s.chunk_index, s.step))
                        .collect();
                    assert!(
                        keys.windows(2).all(|w| w[0] < w[1]),
                        "rank {rank} K={k} channel {channel} {stage:?}: not chunk-major"
                    );
                }
            }
        }
    }

    #[test]
    fn a_block_passes_the_stages_in_order() {
        // In plan order, block b's leader ring follows all of its
        // reduce-scatter, and its all-gather follows all of its leader ring;
        // and the stages overlap: block 0's leader ring starts before the
        // last block's reduce-scatter.
        for (rank, nodes, k, _, plan) in pipelined_plans() {
            let mut span: std::collections::BTreeMap<(usize, usize), (usize, usize)> =
                Default::default();
            for (pos, s) in plan.steps.iter().enumerate() {
                let (stage, block) = stage_and_block(s, nodes, k);
                let e = span.entry((block, stage as usize)).or_insert((pos, pos));
                e.1 = pos;
            }
            let blocks = span.keys().map(|&(b, _)| b).max().unwrap() + 1;
            assert!(blocks >= 3, "rank {rank} K={k}: the plan must pipeline");
            for b in 0..blocks {
                let rs = span[&(b, Stage::ReduceScatter as usize)];
                let ag = span[&(b, Stage::AllGather as usize)];
                if let Some(lr) = span.get(&(b, Stage::LeaderRing as usize)) {
                    assert!(rs.1 < lr.0, "rank {rank} K={k} block {b}: ring before RS");
                    assert!(lr.1 < ag.0, "rank {rank} K={k} block {b}: AG before ring");
                }
                assert!(rs.1 < ag.0, "rank {rank} K={k} block {b}: AG before RS");
            }
            let first_ring = span[&(0, Stage::LeaderRing as usize)].0;
            let last_scatter = span[&(blocks - 1, Stage::ReduceScatter as usize)].0;
            assert!(
                first_ring < last_scatter,
                "rank {rank} K={k}: the stages run one after another"
            );
        }
    }

    #[test]
    fn the_intra_lane_stays_inside_the_node_and_the_inter_lane_leaves_it() {
        // Channels 0..K send and receive only within the node, channels
        // K..2K only across nodes — so at K = 1 each link carries one lane.
        for (rank, _, k, machine, plan) in pipelined_plans() {
            for s in &plan.steps {
                let intra = (s.channel.0 as usize) < k;
                for peer in s.send_to.iter().chain(&s.recv_from) {
                    assert_eq!(
                        machine[*peer] == machine[rank],
                        intra,
                        "rank {rank} K={k}: channel {} talks to {peer}",
                        s.channel
                    );
                }
            }
        }
    }

    #[test]
    fn single_rank_nodes_degenerate_to_flat_inter_node_ring() {
        let topo = Topology::uniform_cluster(3, 1);
        let d = desc(3, 12);
        for rank in 0..3 {
            let plan = HierarchicalAlgorithm
                .build_plan(&d, rank, 4, &topo)
                .unwrap();
            // No intra phases: pure ring among the three nodes.
            assert_eq!(plan.send_peers(), vec![(rank + 1) % 3]);
            assert_eq!(plan.recv_peers(), vec![(rank + 2) % 3]);
            // Operands come from the send buffer (no phase-1 partial exists).
            assert!(plan
                .steps
                .iter()
                .filter(|s| s.kind.has_reduce())
                .all(|s| s.src_buf == SrcBuf::Send));
        }
    }
}
