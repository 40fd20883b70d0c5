//! Cost-model algorithm selection.
//!
//! Every collective runs the family the Table 2 cost model rates fastest,
//! as NCCL and GC3 pick theirs by minimising a cost model: for each family
//! that can schedule the descriptor, [`estimate_family_ns`] builds every
//! member's plan at the descriptor's channel count and a chunk size and walks
//! them under [`LinkModel::table2_testbed`]; the lowest modelled completion
//! wins, ties going to the earlier family in [`AlgorithmKind::ALL`]. So the
//! crossovers depend on the rank count as well as the bytes: at 32 Ki-element
//! chunks an all-reduce on 2, 4 or 8 ranks runs the pairwise family's
//! recursive doubling (`log₂ n` hops) up to 128 KiB and the ring from
//! 192 KiB, a 64 B one on 6 ranks runs the ring, and hierarchical wins
//! across nodes wherever it is cheaper — at 4 MiB on two nodes of two by
//! running its intra-node and inter-node lanes at once (508 µs, against
//! 892 µs for its stages in sequence and 1 360 µs for the flat ring). The
//! estimate honours the plans' phase barriers, so a pipelined family is
//! credited only with the overlap its data dependencies allow. The
//! selection is a pure function of the descriptor, the chunk cap, the
//! topology and the selector, with no rank in it, so every member of a
//! collective resolves the same family and chunk. Link health is
//! deliberately not an input: members that register on either side of a
//! quarantine would otherwise resolve different families and wedge each
//! other. A dead lane is avoided by the communicator mesh instead, which
//! reroutes every quarantined label onto a spare lane whatever the family
//! ([`dfccl_transport::LinkHealth::reroute`]).
//!
//! The chunk is chosen with the family, in one argmin over family ×
//! [`CHUNK_LADDER`] rung, capped by the caller's connector-slot size: the
//! model gives a ring no pipelining credit inside a lane, so a large payload
//! pays α once per chunk, and fewer, larger chunks can win (`ddp_replay`'s
//! fused 2 240 KiB ring on 4 ranks reads 366.8 µs at 32 Ki elements and
//! 323.6 µs at 512 Ki). Ties go to the smaller rung. The ladder stops at the
//! first rung that holds the descriptor's largest per-rank buffer — a larger
//! chunk could not change a plan — so a small shape costs one estimate per
//! family. K is an input, not searched: the model gives every channel lane
//! the link's full bandwidth, so an argmin over K would always take the
//! largest K. (Hierarchical plans use 2K channels: K per lane.)
//!
//! The choice can be forced per collective (via
//! [`CollectiveDescriptor::algorithm`]) or, for a whole baseline run, by a
//! [`AlgorithmSelector::forced`] selector; a per-collective override always
//! wins and is validated strictly — asking for an algorithm that cannot
//! schedule the descriptor is a registration error, not a silent fallback.
//! Striping is per collective only ([`CollectiveDescriptor::channels`],
//! unstriped by default).

use crate::collective::CollectiveDescriptor;
use crate::cost::estimate_family_ns;
use crate::plan::{algorithm, AlgorithmKind, Plan};
use crate::ring::DEFAULT_CHUNK_ELEMS;
use crate::CollectiveError;
use dfccl_transport::{LinkModel, Topology};
use std::sync::OnceLock;

/// The chunk sizes, in elements, the selector tries for each family: 32 Ki,
/// 128 Ki and 512 Ki (128 KiB, 512 KiB and 2 MiB of f32). A fixed array, so
/// a selection allocates nothing beyond its estimates.
pub const CHUNK_LADDER: [usize; 3] = [DEFAULT_CHUNK_ELEMS, 128 * 1024, 512 * 1024];

/// Picks each collective's algorithm family by minimising the modelled
/// completion time over the families that can schedule it.
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

    /// Choose the algorithm family for `desc` over `topology` with plans
    /// chunked at [`DEFAULT_CHUNK_ELEMS`], the ladder's first rung (so no
    /// chunk is searched).
    ///
    /// Precedence: per-collective override (strict — returned even if
    /// unsupported, so the caller surfaces a clear error), then the global
    /// override (skipped when unsupported), then the cost-model argmin.
    pub fn select(&self, desc: &CollectiveDescriptor, topology: &Topology) -> AlgorithmKind {
        self.choose(desc, DEFAULT_CHUNK_ELEMS, topology).0
    }

    /// The family and chunk size for `desc` with chunks capped at
    /// `max_chunk_elems`: the argmin of [`estimate_family_ns`] over every
    /// candidate family at every [`CHUNK_LADDER`] rung (each capped at
    /// `max_chunk_elems`), in rung-major order so ties go to the smaller
    /// chunk and then to the earlier family. An override pins the family,
    /// not the chunk. A candidate whose plans fail to build drops out; when
    /// none is left the first candidate is returned at the smallest rung so
    /// building it reports why. This is the one choice registration
    /// ([`crate::PlanCache::get_or_compile`]) and [`Self::build_plan`] make.
    pub fn choose(
        &self,
        desc: &CollectiveDescriptor,
        max_chunk_elems: usize,
        topology: &Topology,
    ) -> (AlgorithmKind, usize) {
        let supported = |kind: &AlgorithmKind| algorithm(*kind).supports(desc, topology);
        let pinned = desc.algorithm.or(self.force.filter(supported));
        let candidates = || {
            AlgorithmKind::ALL
                .into_iter()
                .filter(move |kind| pinned.map_or_else(|| supported(kind), |p| *kind == p))
        };
        // Ring when nothing is a candidate: its build then reports why it
        // cannot schedule the descriptor.
        let first = candidates().next().unwrap_or(AlgorithmKind::Ring);
        let largest = (0..desc.num_ranks())
            .map(|r| desc.send_elems(r).max(desc.recv_elems(r)))
            .max()
            .unwrap_or(0);
        // A rung past the cap is the cap; a chunk that holds every buffer
        // builds the same plans as any larger one.
        let last_rung = |chunk: usize| chunk >= largest || chunk >= max_chunk_elems;
        let smallest = CHUNK_LADDER[0].min(max_chunk_elems);
        // Nothing to compare: one candidate at one rung.
        if last_rung(smallest) && candidates().nth(1).is_none() {
            return (first, smallest);
        }
        // The link model every selection is made under, built once.
        static TABLE2: OnceLock<LinkModel> = OnceLock::new();
        let link = TABLE2.get_or_init(LinkModel::table2_testbed);
        let mut best: Option<(f64, AlgorithmKind, usize)> = None;
        for rung in CHUNK_LADDER {
            let chunk = rung.min(max_chunk_elems);
            for kind in candidates() {
                if let Ok(ns) = estimate_family_ns(desc, kind, chunk, topology, link) {
                    if best.is_none_or(|(b, ..)| ns < b) {
                        best = Some((ns, kind, chunk));
                    }
                }
            }
            if last_rung(chunk) {
                break;
            }
        }
        best.map_or((first, smallest), |(_, kind, chunk)| (kind, chunk))
    }

    /// The channel count in effect for `desc`: the per-collective override
    /// when present, unstriped otherwise. A zero override is passed through
    /// so the plan builders reject it (`CollectiveError::InvalidChannelCount`).
    pub fn channels_for(&self, desc: &CollectiveDescriptor) -> usize {
        desc.channels.unwrap_or(1)
    }

    /// Choose the family and chunk for `desc` under the cap
    /// `max_chunk_elems` ([`AlgorithmSelector::choose`]) and compile `rank`'s
    /// plan with them, striped across the channel count in effect
    /// ([`AlgorithmSelector::channels_for`]).
    pub fn build_plan(
        &self,
        desc: &CollectiveDescriptor,
        rank: usize,
        max_chunk_elems: usize,
        topology: &Topology,
    ) -> Result<Plan, CollectiveError> {
        let (kind, chunk_elems) = self.choose(desc, max_chunk_elems, topology);
        algorithm(kind).build_plan_striped(
            desc,
            rank,
            chunk_elems,
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
    fn the_cost_model_decides_the_family() {
        use AlgorithmKind::{DoubleBinaryTree, Hierarchical, Pairwise, Ring};
        let sel = AlgorithmSelector::default();
        // 64 B on 2^m ranks: recursive doubling's log2(n) hops beat the
        // ring's 2(n-1) and the tree's depth (1.81 / 3.61 / 5.42 us on
        // 2 / 4 / 8 ranks, against the ring's 3.61 / 10.81 / 25.21).
        for n in [2, 4, 8] {
            assert_eq!(sel.select(&all_reduce(16, n), &Topology::flat(n)), Pairwise);
        }
        // Off a power of two the ring's 2(n-1) hops still beat the tree's
        // depth on 6 ranks, narrowly (18.01 vs 18.03 us); on 12 the tree's
        // depth wins.
        assert_eq!(sel.select(&all_reduce(16, 6), &Topology::flat(6)), Ring);
        assert_eq!(
            sel.select(&all_reduce(16, 12), &Topology::flat(12)),
            DoubleBinaryTree
        );
        // From 192 KiB recursive doubling's whole-buffer hops cost more
        // than the ring's slices (42.95 vs 37.61 us on 4 ranks); at 4 MiB
        // on 2 ranks the two tie (438.9 us) and the ring comes first.
        assert_eq!(
            sel.select(&all_reduce(48 << 10, 4), &Topology::flat(4)),
            Ring
        );
        assert_eq!(
            sel.select(&all_reduce(1 << 20, 2), &Topology::flat(2)),
            Ring
        );
        // Across two 8-GPU servers recursive doubling wins small payloads
        // (1 KiB: 11.20 vs hierarchical's 45.65 us) and the hierarchical
        // schedule large ones.
        let servers = Topology::two_eight_gpu_servers();
        assert_eq!(sel.select(&all_reduce(256, 16), &servers), Pairwise);
        assert_eq!(sel.select(&all_reduce(1 << 20, 16), &servers), Hierarchical);
        assert_eq!(
            sel.select(&all_reduce(1 << 20, 4), &Topology::uniform_cluster(2, 2)),
            Hierarchical
        );
    }

    #[test]
    fn the_chosen_family_is_the_modelled_minimum_and_every_member_agrees() {
        // Every kind x 2-8 ranks x 64 B-4 MiB x {flat, two equal nodes, two
        // 8-GPU servers} x K in {1, 2}, chunks capped at the ladder's top:
        // no supported family at any rung the ladder reaches models faster
        // than the chosen (family, chunk), which is never worse than the
        // best family at 32 Ki, and every member's cached plan is the
        // chosen family's plan at the chosen chunk. A cap below the first
        // rung is the one chunk tried.
        use crate::program::PlanCache;
        use crate::CollectiveKind;

        let sel = AlgorithmSelector::default();
        let link = LinkModel::table2_testbed();
        let cap = CHUNK_LADDER[2];
        let small_cap = 8 * 1024;
        let mut above_first_rung = 0;
        let servers = Topology::two_eight_gpu_servers();
        let mut checked = 0;
        for n in 2..=8usize {
            // Half the ranks on each server of the two-server topology.
            let split: Vec<GpuId> = (0..n).map(|i| GpuId(i % 2 * 8 + i / 2)).collect();
            let mut topologies = vec![(Topology::flat(n), gpus(n))];
            if n % 2 == 0 {
                topologies.push((Topology::uniform_cluster(2, n / 2), gpus(n)));
                topologies.push((servers.clone(), split));
            }
            for (topo, devices) in &topologies {
                for kind in CollectiveKind::ALL {
                    if kind == CollectiveKind::SendRecv && n != 2 {
                        continue;
                    }
                    for bytes in [64usize, 4 << 10, 256 << 10, 4 << 20] {
                        for k in [1usize, 2] {
                            let count = bytes / 4;
                            let d = devices.clone();
                            let desc = match kind {
                                CollectiveKind::AllReduce => CollectiveDescriptor::all_reduce(
                                    count,
                                    DataType::F32,
                                    ReduceOp::Sum,
                                    d,
                                ),
                                CollectiveKind::AllGather => {
                                    CollectiveDescriptor::all_gather(count, DataType::F32, d)
                                }
                                CollectiveKind::ReduceScatter => {
                                    CollectiveDescriptor::reduce_scatter(
                                        count,
                                        DataType::F32,
                                        ReduceOp::Sum,
                                        d,
                                    )
                                }
                                CollectiveKind::Reduce => CollectiveDescriptor::reduce(
                                    count,
                                    DataType::F32,
                                    ReduceOp::Sum,
                                    n - 1,
                                    d,
                                ),
                                CollectiveKind::Broadcast => {
                                    CollectiveDescriptor::broadcast(count, DataType::F32, 1, d)
                                }
                                CollectiveKind::AllToAll => {
                                    CollectiveDescriptor::all_to_all(count, DataType::F32, d)
                                }
                                CollectiveKind::SendRecv => CollectiveDescriptor::send_recv(
                                    count,
                                    DataType::F32,
                                    d[0],
                                    d[1],
                                ),
                            }
                            .with_channels(k);
                            let case = format!("{kind} n={n} {bytes} B K={k}");
                            let (chosen, chunk) = sel.choose(&desc, cap, topo);
                            let cost = |family, chunk| {
                                estimate_family_ns(&desc, family, chunk, topo, &link).ok()
                            };
                            let supported = AlgorithmKind::ALL
                                .into_iter()
                                .filter(|f| algorithm(*f).supports(&desc, topo));
                            let best = cost(chosen, chunk).expect("the chosen family builds");
                            // The ladder stops at the first rung that holds
                            // the largest per-rank buffer.
                            let largest = (0..n)
                                .map(|r| desc.send_elems(r).max(desc.recv_elems(r)))
                                .max()
                                .unwrap();
                            let reached = CHUNK_LADDER
                                .iter()
                                .position(|&r| r >= largest)
                                .map_or(CHUNK_LADDER.len(), |i| i + 1);
                            for rung in &CHUNK_LADDER[..reached] {
                                for family in supported.clone() {
                                    // Ties go to the smaller rung.
                                    if let Some(ns) = cost(family, *rung) {
                                        assert!(
                                            best < ns || (best == ns && *rung >= chunk),
                                            "{case}: {chosen}@{chunk} {best} vs {family}@{rung} {ns}"
                                        );
                                    }
                                }
                            }
                            let at_first_rung = supported
                                .clone()
                                .filter_map(|f| cost(f, DEFAULT_CHUNK_ELEMS))
                                .fold(f64::INFINITY, f64::min);
                            assert!(best <= at_first_rung, "{case}: {best} vs {at_first_rung}");
                            above_first_rung += usize::from(chunk > DEFAULT_CHUNK_ELEMS);
                            let (small_family, small_chunk) = sel.choose(&desc, small_cap, topo);
                            assert_eq!(small_chunk, small_cap, "{case}: one rung below 32 Ki");
                            for (cap, family, chunk) in
                                [(cap, chosen, chunk), (small_cap, small_family, small_cap)]
                            {
                                let cache = PlanCache::new();
                                for rank in 0..n {
                                    let plan = cache
                                        .get_or_compile(&sel, &desc, rank, cap, topo)
                                        .unwrap()
                                        .plan;
                                    let want = algorithm(family)
                                        .build_plan_striped(&desc, rank, chunk, k, topo)
                                        .unwrap();
                                    assert_eq!(*plan, want, "{case} cap {cap} rank {rank}");
                                }
                                assert_eq!(cache.misses(), 1, "one selection per shape");
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 500, "{checked} cases");
        assert!(above_first_rung > 0, "no case chose a chunk above 32 Ki");
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
