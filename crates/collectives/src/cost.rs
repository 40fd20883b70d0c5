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
//! Neither is link health: a quarantined `(src, dst, channel)` label is
//! rerouted onto a spare lane of the same link by the communicator mesh, so
//! a plan costs the same whichever labels are dead.
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
//! The model is plain about its simplification: K lanes over one link each
//! still get that link's full bandwidth. An all-to-all gives each shift its
//! own K lanes, so its `n-1` exchanges overlap, each on its own `(src, dst)`
//! link; no term limits a sender's total egress.
//!
//! Lanes are independent except for **phase barriers**: a step only starts
//! once every lane of its rank has finished the earlier phases, and no
//! earlier than the last of those steps finished. The phases are the ones
//! the executor gates lanes on, from the same function
//! (`program::segment_phases`), so the walk never starts a step before the
//! data it reads exists — the hierarchical plan's inter lane waits for the
//! partials its intra lane reduced. Ring, tree and pairwise plans are one
//! phase, so their lanes run fully free.

use dfccl_transport::{ChannelId, LinkModel, LinkParams, Topology, TransportError};
use gpu_sim::GpuId;

use crate::collective::CollectiveDescriptor;
use crate::datatype::DataType;
use crate::plan::{algorithm, AlgorithmKind, Plan};
use crate::program::segment_phases;
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
    let n = plans.len();
    let elem = dtype.size_bytes();
    let k = plans
        .iter()
        .flat_map(|p| &p.steps)
        .map(|s| s.channel.0 as usize + 1)
        .max()
        .unwrap_or(0);
    // Channels and ranks are dense small ids, so every table below is a flat
    // vector sized up front: the walk allocates a fixed handful of times,
    // whatever the plans' length.
    //
    // Phase barriers (`segment_phases`, the one definition compiled programs
    // gate their lanes on): `phase_of` holds every step's phase, rank `r`'s
    // from `gates[r].first_step`, and `phase_left` every phase's unfinished
    // steps, rank `r`'s from `gates[r].first_phase`.
    let mut phase_of = vec![0u32; plans.iter().map(Plan::len).sum()];
    let mut gates: Vec<Gate> = Vec::with_capacity(n);
    let (mut first_step, mut first_phase) = (0, 0);
    for plan in plans {
        let phases = segment_phases(&plan.steps, |i, p| phase_of[first_step + i] = p);
        gates.push(Gate {
            first_step,
            first_phase,
            open: 0,
            open_end: 0.0,
            sealed: 0.0,
        });
        first_step += plan.len();
        first_phase += phases as usize;
    }
    let mut phase_left = vec![0usize; first_phase];
    let mut lane_steps = vec![0usize; n * k];
    let mut edge_sends = vec![0usize; n * n * k];
    for (r, plan) in plans.iter().enumerate() {
        let gate = &gates[r];
        for (i, step) in plan.steps.iter().enumerate() {
            let c = step.channel.0 as usize;
            lane_steps[r * k + c] += 1;
            phase_left[gate.first_phase + phase_of[gate.first_step + i] as usize] += 1;
            if let Some(dst) = step.send_to.filter(|&dst| dst < n) {
                edge_sends[(r * n + dst) * k + c] += 1;
            }
        }
    }
    // One lane per (rank, channel) that has steps: the channel's subsequence
    // of the rank's plan, in plan order, with its own clock.
    let mut lanes: Vec<Lane> = (0..n * k)
        .filter(|&i| lane_steps[i] > 0)
        .map(|i| Lane {
            rank: i / k,
            channel: ChannelId((i % k) as u32),
            pos: 0,
            left: lane_steps[i],
            clock: 0.0,
        })
        .collect();
    // Per directed (src, dst, channel) edge, at `(src * n + dst) * k + c`:
    // a FIFO of message-visible times, as a [read, write) window into its own
    // segment of `slots` (one slot per send the plans make on the edge).
    let mut next = 0;
    let mut fifos: Vec<(usize, usize)> = edge_sends
        .iter()
        .map(|&sends| {
            next += sends;
            (next - sends, next - sends)
        })
        .collect();
    let mut slots = vec![0.0f64; next];
    // Per (src, dst) rank pair, at `src * n + dst`: its link's parameters,
    // classified on the pair's first send.
    let mut params: Vec<Option<LinkParams>> = vec![None; n * n];

    loop {
        let mut progressed = false;
        let mut remaining = 0usize;
        for lane in &mut lanes {
            let r = lane.rank;
            let steps = &plans[r].steps;
            // Drain as many of this lane's steps as are currently executable.
            while lane.left > 0 {
                while steps[lane.pos].channel != lane.channel {
                    lane.pos += 1;
                }
                let step = &steps[lane.pos];
                let c = lane.channel.0 as usize;
                let gate = &mut gates[r];
                let phase = phase_of[gate.first_step + lane.pos];
                if phase != gate.open {
                    break; // behind a phase barrier
                }
                let mut t = lane.clock.max(gate.sealed);
                if let Some(src) = step.recv_from {
                    let fifo = (src < n).then(|| &mut fifos[(src * n + r) * k + c]);
                    match fifo.filter(|(read, write)| read < write) {
                        Some((read, _)) => {
                            t = t.max(slots[*read]);
                            *read += 1;
                        }
                        None => break, // input not produced yet
                    }
                }
                if let Some(dst) = step.send_to {
                    let pair = &mut params[r * n + dst];
                    let link_params = match *pair {
                        Some(p) => p,
                        None => *pair
                            .insert(link.params(topology.link_between(devices[r], devices[dst])?)),
                    };
                    t += link_params.transfer_nanos(step.elems() * elem);
                    let (_, write) = &mut fifos[(r * n + dst) * k + c];
                    slots[*write] = t;
                    *write += 1;
                }
                lane.clock = t;
                lane.pos += 1;
                lane.left -= 1;
                progressed = true;
                // The phase's last step opens the next one, which starts no
                // earlier than every step before it has finished.
                gate.open_end = gate.open_end.max(t);
                let left = &mut phase_left[gate.first_phase + phase as usize];
                *left -= 1;
                if *left == 0 {
                    gate.sealed = gate.open_end;
                    gate.open += 1;
                }
            }
            if lane.left > 0 {
                remaining += 1;
            }
        }
        if remaining == 0 {
            return Ok(lanes.iter().map(|l| l.clock).fold(0.0, f64::max));
        }
        if !progressed {
            return Err(CostError::Stalled { stalled: remaining });
        }
    }
}

/// One `(rank, channel)` lane of [`estimate_completion_ns`]'s walk.
struct Lane {
    rank: usize,
    channel: ChannelId,
    /// Index into the rank's plan of the lane's next step (or of an earlier
    /// step on another channel, skipped on the way to it).
    pos: usize,
    /// Steps the lane has left.
    left: usize,
    clock: f64,
}

/// One rank's phase barrier in [`estimate_completion_ns`]'s walk: only
/// steps of the open phase may run.
struct Gate {
    /// Index into `phase_of` of the rank's first step.
    first_step: usize,
    /// Index into `phase_left` of the rank's first phase.
    first_phase: usize,
    /// The phase the rank's lanes are running.
    open: u32,
    /// Latest finish of any step of the open or an earlier phase.
    open_end: f64,
    /// Latest finish of any step of an earlier phase: the open phase's steps
    /// start no earlier.
    sealed: f64,
}

/// Modelled completion time of `desc` under family `kind`: every member's
/// plan, built at `chunk_elems` and the descriptor's channel count, walked
/// under `link` as in [`estimate_completion_ns`]. This is the one quantity
/// the selector minimises ([`crate::AlgorithmSelector::select`]) and the
/// Fig. 8 model columns print.
pub fn estimate_family_ns(
    desc: &CollectiveDescriptor,
    kind: AlgorithmKind,
    chunk_elems: usize,
    topology: &Topology,
    link: &LinkModel,
) -> Result<f64, CostError> {
    let plans = member_plans(desc, kind, chunk_elems, topology).map_err(CostError::Collective)?;
    estimate_completion_ns(&plans, &desc.devices, topology, link, desc.dtype)
}

/// Every member's plan of `desc` under family `kind`, in rank order, built
/// at `chunk_elems` and the descriptor's channel count (unstriped by
/// default).
pub(crate) fn member_plans(
    desc: &CollectiveDescriptor,
    kind: AlgorithmKind,
    chunk_elems: usize,
    topology: &Topology,
) -> Result<Vec<Plan>, CollectiveError> {
    let channels = desc.channels.unwrap_or(1);
    (0..desc.num_ranks())
        .map(|r| algorithm(kind).build_plan_striped(desc, r, chunk_elems, channels, topology))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn pairwise_all_to_all_estimate_grows_with_payload_not_peer_count() {
        // The pairwise all-to-all moves (n-1) * count elements per rank over
        // n(n-1) mesh edges, one shift per lane. The modelled completion
        // grows with the per-peer payload; on a flat node every shift rides
        // its own link at once, so it equals the 2-rank exchange of the same
        // per-peer payload whatever the rank count.
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
        for count in [1 << 4, 1 << 12, 1 << 16] {
            for n in [4, 8] {
                assert_eq!(t(n, count), t(2, count), "n={n} count={count}");
            }
        }
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
    fn a_step_behind_a_phase_barrier_waits_for_the_earlier_phase() {
        // Rank 0 sends 16 elements to rank 1 on channel 0 and receives them
        // back on channel 1. Rank 1 receives them into its recv buffer on
        // channel 0 and forwards that buffer on channel 1: a cross-lane
        // read-after-write, so its forward is a second phase. A walk that
        // ignored the barrier would forward at time 0 and finish after one
        // hop; honouring it takes two.
        use crate::chunk::ElemRange;
        use crate::primitive::{PrimitiveKind, PrimitiveStep, SrcBuf};
        let range = Some(ElemRange::new(0, 16));
        let step = |kind, src_buf, peer, channel| {
            let sends = kind == PrimitiveKind::Send;
            PrimitiveStep {
                kind,
                src: range.filter(|_| sends),
                src_buf,
                dst: range.filter(|_| !sends),
                send_to: Some(peer).filter(|_| sends),
                recv_from: Some(peer).filter(|_| !sends),
                chunk_index: 0,
                step: 0,
                channel: ChannelId(channel),
                incoming_first: false,
            }
        };
        let (send, recv) = (PrimitiveKind::Send, PrimitiveKind::Recv);
        let rank0 = vec![
            step(send, SrcBuf::Send, 1, 0),
            step(recv, SrcBuf::Send, 1, 1),
        ];
        let rank1 = vec![
            step(recv, SrcBuf::Send, 0, 0),
            step(send, SrcBuf::Recv, 0, 1),
        ];
        let plans = [rank0, rank1].map(|steps| Plan::new(AlgorithmKind::Ring, steps));
        let topo = Topology::flat(2);
        let link = LinkModel::table2_testbed();
        let ns = estimate_completion_ns(&plans, &gpus(2), &topo, &link, DataType::F32).unwrap();
        // One 64 B hop over a PIX link: 1.8 us + 64 B / 11 GB/s.
        let hop = 1_800.0 + 64.0 / 11.0;
        assert_eq!(ns, 2.0 * hop);
    }

    #[test]
    fn the_hierarchical_estimate_never_beats_the_inter_node_link() {
        // A 4 MiB all-reduce over two nodes of two: each node leader sends
        // half of its 2 MiB slice across the 5.5 GB/s inter-node link to be
        // reduced and the other half back reduced, 2 MiB in all, so no
        // schedule finishes before that link has been busy for
        // 2 MiB / 5.5 GB/s = 381 us. Each lane alone is busy ~450 us and
        // the stages back to back take 892 us, so staying under 620 us
        // leaves room for the pipeline's fill and drain, not for serial
        // stages.
        let topo = Topology::uniform_cluster(2, 2);
        let desc = CollectiveDescriptor::all_reduce(1 << 20, DataType::F32, ReduceOp::Sum, gpus(4));
        let ns = estimate_family_ns(
            &desc,
            AlgorithmKind::Hierarchical,
            crate::DEFAULT_CHUNK_ELEMS,
            &topo,
            &LinkModel::table2_testbed(),
        )
        .unwrap();
        let inter_busy = (2 << 20) as f64 / 5.5;
        assert!(ns >= inter_busy, "{ns} ns beats the {inter_busy} ns floor");
        assert!(ns < 620_000.0, "{ns} ns: the stages do not overlap");
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
                incoming_first: false,
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
