//! Topology- and payload-aware algorithm selection.
//!
//! Mirrors the NCCL design point the GPU-centric-communication survey
//! describes: ring for bandwidth-bound (large) payloads, tree for
//! latency-bound (small) payloads, hierarchical across node boundaries.
//! The choice can be forced per collective (via
//! [`CollectiveDescriptor::algorithm`]) or, for a whole baseline run, by a
//! [`AlgorithmSelector::forced`] selector; a per-collective override always
//! wins and is validated strictly — asking for an algorithm that cannot
//! schedule the descriptor is a registration error, not a silent fallback.
//! Striping is per collective only ([`CollectiveDescriptor::channels`],
//! unstriped by default).

use crate::collective::CollectiveDescriptor;
use crate::plan::{algorithm, AlgorithmKind, Plan};
use crate::CollectiveError;
use dfccl_transport::{LinkHealth, Topology};

/// Payload threshold at or below which latency dominates and the tree
/// schedule is preferred (bytes). Matches the modelled crossover of the
/// Table 2 link parameters (`fig8_bandwidth_latency`'s model columns): the
/// tree's O(log n) hop count wins up to ~16 KiB, the ring's lower byte volume
/// wins beyond it.
pub const DEFAULT_TREE_THRESHOLD_BYTES: usize = 16 * 1024;

/// Picks a collective algorithm from the payload size and the communicator's
/// topology.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlgorithmSelector {
    /// Global override: always use this algorithm when it supports the
    /// descriptor (a per-collective override still wins).
    pub force: Option<AlgorithmKind>,
}

impl AlgorithmSelector {
    /// A selector that always picks `kind` when possible.
    pub fn forced(kind: AlgorithmKind) -> Self {
        AlgorithmSelector { force: Some(kind) }
    }

    /// Choose the algorithm for `desc` over `topology`.
    ///
    /// Precedence: per-collective override (strict — returned even if
    /// unsupported, so the caller surfaces a clear error), then the global
    /// override (skipped when unsupported), then the topology/payload policy,
    /// then ring.
    pub fn select(&self, desc: &CollectiveDescriptor, topology: &Topology) -> AlgorithmKind {
        if let Some(kind) = desc.algorithm {
            return kind;
        }
        if let Some(kind) = self.force {
            if algorithm(kind).supports(desc, topology) {
                return kind;
            }
        }
        // Dense-mesh kinds (all-to-all, send/recv) have exactly one schedule
        // family; no payload/topology policy applies.
        if algorithm(AlgorithmKind::Pairwise).supports(desc, topology) {
            return AlgorithmKind::Pairwise;
        }
        let payload = desc.count * desc.dtype.size_bytes();
        let tree = algorithm(AlgorithmKind::DoubleBinaryTree);
        if payload <= DEFAULT_TREE_THRESHOLD_BYTES && tree.supports(desc, topology) {
            return AlgorithmKind::DoubleBinaryTree;
        }
        let hierarchical = algorithm(AlgorithmKind::Hierarchical);
        if hierarchical.supports(desc, topology) {
            return AlgorithmKind::Hierarchical;
        }
        AlgorithmKind::Ring
    }

    /// [`AlgorithmSelector::select`] constrained by the domain's link-health
    /// map: when a quarantined edge lies inside `desc`'s device set, the
    /// preferred family may have to change. Returns the chosen kind plus a
    /// `degraded` flag (true when the plan had to avoid a dead edge).
    ///
    /// Policy: a healthy device set selects exactly as before (and is the
    /// zero-cost fast path). A degraded ring falls back to the double binary
    /// tree when the kind supports it — the tree's edge set differs from the
    /// ring's, giving re-planning a chance to route around the failure
    /// outright. Any other degraded family keeps its schedule and relies on
    /// the mesh rerouting quarantined lanes onto spares
    /// ([`dfccl_transport::LinkHealth::reroute`]). A strict per-collective
    /// override is never second-guessed.
    pub fn select_with_health(
        &self,
        desc: &CollectiveDescriptor,
        topology: &Topology,
        health: &LinkHealth,
    ) -> (AlgorithmKind, bool) {
        let kind = self.select(desc, topology);
        if !topology.degraded_for(&desc.devices, health) {
            return (kind, false);
        }
        if kind == AlgorithmKind::Ring && desc.algorithm.is_none() {
            let tree = algorithm(AlgorithmKind::DoubleBinaryTree);
            if tree.supports(desc, topology) {
                return (AlgorithmKind::DoubleBinaryTree, true);
            }
        }
        (kind, true)
    }

    /// The channel count in effect for `desc`: the per-collective override
    /// when present, unstriped otherwise. A zero override is passed through
    /// so the plan builders reject it (`CollectiveError::InvalidChannelCount`).
    pub fn channels_for(&self, desc: &CollectiveDescriptor) -> usize {
        desc.channels.unwrap_or(1)
    }

    /// Select an algorithm and compile `rank`'s plan with it, striped across
    /// the channel count in effect ([`AlgorithmSelector::channels_for`]).
    pub fn build_plan(
        &self,
        desc: &CollectiveDescriptor,
        rank: usize,
        max_chunk_elems: usize,
        topology: &Topology,
    ) -> Result<Plan, CollectiveError> {
        let kind = self.select(desc, topology);
        algorithm(kind).build_plan_striped(
            desc,
            rank,
            max_chunk_elems,
            self.channels_for(desc),
            topology,
        )
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

    fn all_reduce(count: usize, n: usize) -> CollectiveDescriptor {
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
    }

    #[test]
    fn small_payloads_pick_tree_large_pick_ring() {
        let sel = AlgorithmSelector::default();
        let topo = Topology::flat(8);
        // 1 KiB all-reduce: latency-bound -> tree.
        assert_eq!(
            sel.select(&all_reduce(256, 8), &topo),
            AlgorithmKind::DoubleBinaryTree
        );
        // 4 MiB all-reduce: bandwidth-bound -> ring.
        assert_eq!(
            sel.select(&all_reduce(1 << 20, 8), &topo),
            AlgorithmKind::Ring
        );
    }

    #[test]
    fn multi_node_large_payloads_pick_hierarchical() {
        let sel = AlgorithmSelector::default();
        let topo = Topology::two_eight_gpu_servers();
        let desc = all_reduce(1 << 20, 16);
        assert_eq!(sel.select(&desc, &topo), AlgorithmKind::Hierarchical);
        // Small payloads still prefer the tree even across nodes.
        assert_eq!(
            sel.select(&all_reduce(256, 16), &topo),
            AlgorithmKind::DoubleBinaryTree
        );
    }

    #[test]
    fn dense_mesh_kinds_always_select_pairwise() {
        let sel = AlgorithmSelector::default();
        let topo = Topology::flat(4);
        // Tiny or huge, flat or multi-node: all-to-all has one family.
        for count in [4usize, 1 << 20] {
            let a2a = CollectiveDescriptor::all_to_all(count, DataType::F32, gpus(4));
            assert_eq!(sel.select(&a2a, &topo), AlgorithmKind::Pairwise);
        }
        let p2p = CollectiveDescriptor::send_recv(64, DataType::F32, GpuId(0), GpuId(1));
        assert_eq!(sel.select(&p2p, &topo), AlgorithmKind::Pairwise);
        // A global ring override cannot apply (ring does not schedule them).
        let forced = AlgorithmSelector::forced(AlgorithmKind::Ring);
        let a2a = CollectiveDescriptor::all_to_all(64, DataType::F32, gpus(4));
        assert_eq!(forced.select(&a2a, &topo), AlgorithmKind::Pairwise);
        // A strict per-collective ring override is a build-time error.
        let bad = CollectiveDescriptor::all_to_all(64, DataType::F32, gpus(4))
            .with_algorithm(AlgorithmKind::Ring);
        assert!(matches!(
            sel.build_plan(&bad, 0, 16, &topo),
            Err(CollectiveError::UnsupportedAlgorithm { .. })
        ));
    }

    #[test]
    fn unsupported_kinds_fall_back_to_ring() {
        let sel = AlgorithmSelector::default();
        let topo = Topology::flat(4);
        // A small all-gather: tree does not schedule it; ring does.
        let ag = CollectiveDescriptor::all_gather(16, DataType::F32, gpus(4));
        assert_eq!(sel.select(&ag, &topo), AlgorithmKind::Ring);
    }

    #[test]
    fn per_collective_override_wins_and_is_strict() {
        let sel = AlgorithmSelector::default();
        let topo = Topology::flat(4);
        let desc = all_reduce(1 << 20, 4).with_algorithm(AlgorithmKind::DoubleBinaryTree);
        assert_eq!(sel.select(&desc, &topo), AlgorithmKind::DoubleBinaryTree);
        // Forcing hierarchical on a single-node topology is an error at
        // build time, not a silent ring fallback.
        let bad = all_reduce(16, 4).with_algorithm(AlgorithmKind::Hierarchical);
        assert!(matches!(
            sel.build_plan(&bad, 0, 16, &topo),
            Err(CollectiveError::UnsupportedTopology(_))
        ));
    }

    #[test]
    fn global_override_applies_when_supported() {
        let topo = Topology::flat(4);
        let sel = AlgorithmSelector::forced(AlgorithmKind::DoubleBinaryTree);
        assert_eq!(
            sel.select(&all_reduce(1 << 20, 4), &topo),
            AlgorithmKind::DoubleBinaryTree
        );
        // Unsupported global override falls through to the policy.
        let ag = CollectiveDescriptor::all_gather(16, DataType::F32, gpus(4));
        assert_eq!(sel.select(&ag, &topo), AlgorithmKind::Ring);
    }

    #[test]
    fn health_fallback_swaps_ring_for_tree_only_when_degraded() {
        use dfccl_transport::{ChannelId, EdgeId, LinkHealth};

        let sel = AlgorithmSelector::default();
        let topo = Topology::flat(8);
        let health = LinkHealth::new();
        let desc = all_reduce(1 << 20, 8); // bandwidth-bound -> ring
        assert_eq!(
            sel.select_with_health(&desc, &topo, &health),
            (AlgorithmKind::Ring, false)
        );
        // Quarantine a ring edge: selection degrades to the tree family.
        health.quarantine(EdgeId {
            src: GpuId(2),
            dst: GpuId(3),
            channel: ChannelId(0),
        });
        assert_eq!(
            sel.select_with_health(&desc, &topo, &health),
            (AlgorithmKind::DoubleBinaryTree, true)
        );
        // A device set avoiding the dead edge is unaffected.
        let small = all_reduce(1 << 20, 2);
        assert_eq!(
            sel.select_with_health(&small, &topo, &health),
            (AlgorithmKind::Ring, false)
        );
        // A strict per-collective override stays put but is flagged degraded
        // (the mesh reroute covers it).
        let forced = all_reduce(1 << 20, 8).with_algorithm(AlgorithmKind::Ring);
        assert_eq!(
            sel.select_with_health(&forced, &topo, &health),
            (AlgorithmKind::Ring, true)
        );
        // A family without a fallback keeps its schedule, flagged degraded.
        let a2a = CollectiveDescriptor::all_to_all(64, DataType::F32, gpus(8));
        assert_eq!(
            sel.select_with_health(&a2a, &topo, &health),
            (AlgorithmKind::Pairwise, true)
        );
    }

    #[test]
    fn channel_count_resolution_prefers_the_descriptor() {
        let sel = AlgorithmSelector::default();
        let topo = Topology::flat(4);
        let overridden = all_reduce(1 << 20, 4).with_channels(4);
        assert_eq!(sel.channels_for(&overridden), 4);
        // The compiled plan actually stripes across the resolved count.
        let plan = sel.build_plan(&overridden, 0, 1024, &topo).unwrap();
        assert_eq!(plan.channel_count(), 4);
        // Without an override the plan stays unstriped.
        assert_eq!(sel.channels_for(&all_reduce(1 << 20, 4)), 1);
        let default = sel
            .build_plan(&all_reduce(1 << 20, 4), 0, 1024, &topo)
            .unwrap();
        assert_eq!(default.channel_count(), 1);
    }

    #[test]
    fn selected_plans_build() {
        let sel = AlgorithmSelector::default();
        let topo = Topology::two_eight_gpu_servers();
        for count in [64, 1 << 18] {
            let desc = all_reduce(count, 16);
            let plan = sel.build_plan(&desc, 3, 1024, &topo).unwrap();
            plan.validate(3, 16).unwrap();
            assert!(!plan.is_empty());
        }
    }
}
