//! Deterministic plan-cost estimation: the modelled completion time of a set
//! of per-rank plans over a link model.
//!
//! The runtime charges link costs by busy-spinning in the sending rank's
//! thread, so measured wall-clock times need as many cores as ranks to show
//! an algorithm's real shape — on smaller machines every schedule degrades
//! towards the sum of its transfer costs. This module computes the same
//! quantity analytically: an event-driven walk of the plans that advances a
//! per-rank clock, charges `alpha + bytes/beta` per hop on the sender (the
//! [`crate::executor`] charging discipline) and makes each chunk visible to
//! its receiver at the sender's post-charge clock. The result is the modelled
//! critical path — deterministic, independent of host core count, and
//! exactly the quantity the ring/tree crossover of Fig. 8 is about.
//!
//! Connector capacity is not modelled (plans are chunk-major, so the
//! in-flight window is O(1) and capacity shifts all algorithms equally).
//!
//! ## Channels
//!
//! A striped plan's channels are modelled as parallel *lanes*: each rank's
//! plan is split into its per-channel subsequences and every `(rank,
//! channel)` lane advances its own clock, the way NCCL drives each channel
//! from its own thread block (and each channel's connector carries only its
//! own chunks). A single channel cannot saturate a fat link — the per-chunk
//! `alpha + bytes/beta` charge serialises on one lane — so striping across K
//! lanes raises modelled aggregate bandwidth and moves the latency/bandwidth
//! crossover (`striping_raises_modelled_bandwidth_on_large_payloads` below).

use std::collections::{HashMap, VecDeque};

use dfccl_transport::{ChannelId, EdgeId, LinkHealth, LinkModel, Topology, TransportError};
use gpu_sim::GpuId;

use crate::datatype::DataType;
use crate::plan::Plan;
use crate::primitive::PrimitiveStep;
use crate::CollectiveError;

/// Errors from cost estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// A plan step addressed a GPU pair the topology cannot classify.
    Transport(TransportError),
    /// The plans never reach completion (a cyclic schedule): `stalled` ranks
    /// still had steps left when no progress was possible.
    Stalled { stalled: usize },
    /// Plan-level inconsistency.
    Collective(CollectiveError),
}

impl From<TransportError> for CostError {
    fn from(e: TransportError) -> Self {
        CostError::Transport(e)
    }
}

/// Modelled completion time, in (unscaled) nanoseconds, of running `plans`
/// (one per rank, in rank order over `devices`) with `dtype` elements.
/// Channels are independent lanes (see the module docs): a `(rank, channel)`
/// lane advances its own clock, and each directed `(src, dst, channel)` edge
/// carries its own message FIFO.
pub fn estimate_completion_ns(
    plans: &[Plan],
    devices: &[GpuId],
    topology: &Topology,
    link: &LinkModel,
    dtype: DataType,
) -> Result<f64, CostError> {
    estimate_completion_ns_with_health(plans, devices, topology, link, dtype, None)
}

/// [`estimate_completion_ns`] constrained by a link-health map: a send over a
/// quarantined `(src, dst, channel)` edge can never complete, so its lane —
/// and every lane waiting on it — stalls, and the estimate reports
/// [`CostError::Stalled`] instead of a finite time. This is what lets the
/// recovery layer *prove* a candidate re-plan avoids the dead edges before
/// resubmitting it: a plan that estimates finite under the current health map
/// touches no quarantined edge.
pub fn estimate_completion_ns_with_health(
    plans: &[Plan],
    devices: &[GpuId],
    topology: &Topology,
    link: &LinkModel,
    dtype: DataType,
    health: Option<&LinkHealth>,
) -> Result<f64, CostError> {
    let elem = dtype.size_bytes();
    let health = health.filter(|h| !h.is_clean());
    // One lane per (rank, channel): the channel's subsequence of the rank's
    // plan, in plan order.
    let mut lanes: Vec<(usize, Vec<&PrimitiveStep>)> = Vec::new();
    for (r, plan) in plans.iter().enumerate() {
        let mut by_channel: HashMap<ChannelId, Vec<&PrimitiveStep>> = HashMap::new();
        for step in &plan.steps {
            by_channel.entry(step.channel).or_default().push(step);
        }
        let mut channels: Vec<ChannelId> = by_channel.keys().copied().collect();
        channels.sort_unstable();
        for c in channels {
            lanes.push((r, by_channel.remove(&c).expect("channel collected")));
        }
    }

    let mut clock = vec![0.0f64; lanes.len()];
    let mut cursor = vec![0usize; lanes.len()];
    // Per directed (src, dst, channel) edge: FIFO of message-visible times.
    let mut edges: HashMap<(usize, usize, ChannelId), VecDeque<f64>> = HashMap::new();

    loop {
        let mut progressed = false;
        let mut remaining = 0usize;
        for (l, (r, steps)) in lanes.iter().enumerate() {
            let r = *r;
            // Drain as many of this lane's steps as are currently executable.
            while cursor[l] < steps.len() {
                let step = steps[cursor[l]];
                let mut t = clock[l];
                if let Some(src) = step.recv_from {
                    let key = (src, r, step.channel);
                    match edges.get_mut(&key).and_then(|q| q.front().copied()) {
                        Some(avail) => t = t.max(avail),
                        None => break, // input not produced yet
                    }
                    edges.get_mut(&key).unwrap().pop_front();
                }
                if let Some(dst) = step.send_to {
                    if health.is_some_and(|h| {
                        h.is_dead(EdgeId {
                            src: devices[r],
                            dst: devices[dst],
                            channel: step.channel,
                        })
                    }) {
                        break; // the edge can never deliver: the lane stalls
                    }
                    let bytes = step.elems() * elem;
                    let class = topology.link_between(devices[r], devices[dst])?;
                    t += link.params(class).transfer_nanos(bytes);
                    edges
                        .entry((r, dst, step.channel))
                        .or_default()
                        .push_back(t);
                }
                clock[l] = t;
                cursor[l] += 1;
                progressed = true;
            }
            if cursor[l] < steps.len() {
                remaining += 1;
            }
        }
        if remaining == 0 {
            return Ok(clock.iter().copied().fold(0.0, f64::max));
        }
        if !progressed {
            return Err(CostError::Stalled { stalled: remaining });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveDescriptor;
    use crate::plan::{algorithm, AlgorithmKind};
    use crate::redop::ReduceOp;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    fn plans_for(
        desc: &CollectiveDescriptor,
        algo: AlgorithmKind,
        topo: &Topology,
        chunk: usize,
    ) -> Vec<Plan> {
        (0..desc.num_ranks())
            .map(|r| algorithm(algo).build_plan(desc, r, chunk, topo).unwrap())
            .collect()
    }

    #[test]
    fn estimate_scales_with_payload() {
        let n = 4;
        let topo = Topology::flat(n);
        let link = LinkModel::table2_testbed();
        let small = CollectiveDescriptor::all_reduce(64, DataType::F32, ReduceOp::Sum, gpus(n));
        let large =
            CollectiveDescriptor::all_reduce(1 << 20, DataType::F32, ReduceOp::Sum, gpus(n));
        let t_small = estimate_completion_ns(
            &plans_for(&small, AlgorithmKind::Ring, &topo, 8 * 1024),
            &gpus(n),
            &topo,
            &link,
            DataType::F32,
        )
        .unwrap();
        let t_large = estimate_completion_ns(
            &plans_for(&large, AlgorithmKind::Ring, &topo, 8 * 1024),
            &gpus(n),
            &topo,
            &link,
            DataType::F32,
        )
        .unwrap();
        assert!(t_large > 10.0 * t_small, "{t_small} vs {t_large}");
    }

    #[test]
    fn ring_estimate_grows_with_rank_count_at_fixed_payload() {
        // The O(n) latency term the tree schedule removes.
        let link = LinkModel::table2_testbed();
        let t = |n: usize| {
            let topo = Topology::flat(n);
            let desc = CollectiveDescriptor::all_reduce(64, DataType::F32, ReduceOp::Sum, gpus(n));
            estimate_completion_ns(
                &plans_for(&desc, AlgorithmKind::Ring, &topo, 1024),
                &gpus(n),
                &topo,
                &link,
                DataType::F32,
            )
            .unwrap()
        };
        assert!(t(8) > 1.5 * t(4));
    }

    #[test]
    fn pairwise_all_to_all_estimate_scales_with_peer_count_and_payload() {
        // The pairwise all-to-all moves (n-1) * count elements per rank over
        // n(n-1) mesh edges; the modelled completion must grow with both the
        // per-peer payload and the rank count.
        let link = LinkModel::table2_testbed();
        let t = |n: usize, count: usize| {
            let topo = Topology::flat(n);
            let desc = CollectiveDescriptor::all_to_all(count, DataType::F32, gpus(n));
            estimate_completion_ns(
                &plans_for(&desc, AlgorithmKind::Pairwise, &topo, 1024),
                &gpus(n),
                &topo,
                &link,
                DataType::F32,
            )
            .unwrap()
        };
        assert!(t(4, 1 << 16) > 4.0 * t(4, 1 << 12));
        assert!(t(8, 1 << 12) > 1.5 * t(4, 1 << 12));
    }

    #[test]
    fn striping_raises_modelled_bandwidth_on_large_payloads() {
        // Each channel is an independent lane, so a bandwidth-bound ring
        // all-reduce striped over 4 channels must finish well ahead of the
        // single-channel schedule, while K = 1 reproduces the unstriped
        // estimate bit for bit.
        let n = 4;
        let topo = Topology::flat(n);
        let link = LinkModel::table2_testbed();
        let desc = CollectiveDescriptor::all_reduce(1 << 18, DataType::F32, ReduceOp::Sum, gpus(n));
        let t = |k: usize| {
            let plans: Vec<Plan> = (0..n)
                .map(|r| {
                    algorithm(AlgorithmKind::Ring)
                        .build_plan_striped(&desc, r, 4 * 1024, k, &topo)
                        .unwrap()
                })
                .collect();
            estimate_completion_ns(&plans, &gpus(n), &topo, &link, DataType::F32).unwrap()
        };
        let unstriped = estimate_completion_ns(
            &plans_for(&desc, AlgorithmKind::Ring, &topo, 4 * 1024),
            &gpus(n),
            &topo,
            &link,
            DataType::F32,
        )
        .unwrap();
        assert_eq!(t(1), unstriped, "K = 1 must match the unstriped estimate");
        assert!(
            t(4) < 0.5 * t(1),
            "4 lanes must cut the bandwidth-bound completion: {} vs {}",
            t(4),
            t(1)
        );
    }

    #[test]
    fn dead_edges_stall_the_estimate_until_avoided() {
        use dfccl_transport::LinkHealth;

        let n = 4;
        let topo = Topology::flat(n);
        let link = LinkModel::table2_testbed();
        let desc = CollectiveDescriptor::all_reduce(64, DataType::F32, ReduceOp::Sum, gpus(n));
        let ring = plans_for(&desc, AlgorithmKind::Ring, &topo, 1024);
        let health = LinkHealth::new();
        // Clean health reproduces the unconstrained estimate bit for bit.
        let base = estimate_completion_ns(&ring, &gpus(n), &topo, &link, DataType::F32).unwrap();
        let clean = estimate_completion_ns_with_health(
            &ring,
            &gpus(n),
            &topo,
            &link,
            DataType::F32,
            Some(&health),
        )
        .unwrap();
        assert_eq!(base, clean);
        // Quarantine a ring edge: the ring schedule can no longer complete.
        health.quarantine(EdgeId {
            src: GpuId(1),
            dst: GpuId(2),
            channel: ChannelId(0),
        });
        let err = estimate_completion_ns_with_health(
            &ring,
            &gpus(n),
            &topo,
            &link,
            DataType::F32,
            Some(&health),
        )
        .unwrap_err();
        assert!(matches!(err, CostError::Stalled { .. }), "{err:?}");
        // The tree family avoids the quarantined edge and stays finite.
        let tree = plans_for(&desc, AlgorithmKind::DoubleBinaryTree, &topo, 1024);
        estimate_completion_ns_with_health(
            &tree,
            &gpus(n),
            &topo,
            &link,
            DataType::F32,
            Some(&health),
        )
        .unwrap();
    }

    #[test]
    fn stalled_plans_are_reported_not_looped() {
        // A single plan that receives a message nobody sends.
        use crate::chunk::ElemRange;
        use crate::primitive::{PrimitiveKind, PrimitiveStep, SrcBuf};
        let plan = Plan::new(
            AlgorithmKind::Ring,
            vec![PrimitiveStep {
                kind: PrimitiveKind::Recv,
                src: None,
                src_buf: SrcBuf::Send,
                dst: Some(ElemRange::new(0, 1)),
                send_to: None,
                recv_from: Some(1),
                chunk_index: 0,
                step: 0,
                channel: ChannelId(0),
            }],
        );
        let idle = Plan::new(AlgorithmKind::Ring, Vec::new());
        let topo = Topology::flat(2);
        let err = estimate_completion_ns(
            &[plan, idle],
            &gpus(2),
            &topo,
            &LinkModel::zero_cost(),
            DataType::F32,
        )
        .unwrap_err();
        assert_eq!(err, CostError::Stalled { stalled: 1 });
    }
}
