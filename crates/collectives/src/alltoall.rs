//! Pairwise-exchange schedules: all-to-all, point-to-point send/recv and
//! recursive-doubling all-reduce over the dense connector mesh.
//!
//! All-to-all is the canonical dense-mesh collective — the backbone of MoE
//! expert parallelism — and the one schedule family that uses the *full*
//! directed `(src, dst)` pair space the peer-addressed transport exists for
//! (a ring touches `n` edges, a tree `n-1`; an all-to-all touches `n(n-1)`).
//!
//! The schedule is the classic **linear shift**: at shift `s ∈ 1..n`, rank
//! `r` sends its slice `(r+s) mod n` to rank `(r+s) mod n` and receives slice
//! `(r-s) mod n` from rank `(r-s) mod n`; the rank's own slice is a local
//! copy at shift 0. Every directed edge carries exactly one macro step's
//! worth of data, so per-edge FIFO pairing is trivially consistent.
//!
//! **Per-peer lanes.** The shifts share no data and use distinct links, so
//! each rides its own lane: shift `s`'s sends and receives stripe over
//! channels `(s-1)·K′ .. s·K′`, with `K′ = min(K, chunks per slice)`, and
//! the local copy over `0..K′`. The channel of an exchange depends on the
//! shift alone, which both ends of the edge share, so sender and receiver
//! agree on it. An all-to-all thus compiles to `(n-1)·K′` lanes that run at
//! once (GC3 likewise gives each thread block one send and one recv peer).
//! The shifts write disjoint recv slices, so no phase barrier separates
//! them.
//!
//! **All-reduce on `n = 2^m` ranks** is recursive doubling (Thakur,
//! Rabenseifner & Gropp, 2005): at level `i ∈ 1..=m`, with `d = 2^(i-1)`,
//! rank `r` `Send`s its whole partial to `r ^ d` (step `2i-1`), then
//! `RecvReduceCopy`s that peer's partial into its recv buffer (step `2i`).
//! Level 1 reads the send buffer, later levels the partial the previous
//! level left in the recv buffer. That is `log₂ n` hops of the whole buffer
//! against the ring's `2(n-1)` hops of `1/n` of it, so the cost model picks
//! it for short all-reduces and keeps the ring for long ones. The edge
//! `r → r ^ d` carries exactly level `i`'s chunks, as a shift's edge does.
//!
//! ## Ordering and deadlock freedom
//!
//! Within a shift or level, the send half is emitted at step `2s-1` and the
//! recv half at step `2s`, and the final plan is sorted chunk-major like
//! every other family. With 1-slot connectors this is deadlock-free by the
//! usual lattice argument, applied lane by lane (an all-to-all lane is one
//! shift's permutation exchange, so both ends of its edges sit at the same
//! steps of the same lane): a blocked send at `(chunk k+1, step 2s-1)` waits
//! for its peer to pass `(k, 2s)` (strictly smaller chunk), and a blocked
//! recv at `(k, 2s)` waits for its peer to pass `(k, 2s-1)` (same chunk,
//! smaller step) — every wait-for edge points to a strictly earlier position
//! in the shared `(chunk, step)` order, so no cycle can form. Crucially the
//! send half *precedes* the recv half of the same shift: the reverse order
//! would have every rank waiting for a chunk nobody has published yet. A
//! level's steps touch only their own chunk's range, so the recursive
//! doubling plan is one phase and its lanes run free.
//!
//! ## Operand order
//!
//! The two ends of a pair reduce each other's partials, and under Max and
//! Min the operand order decides ties (`max(+0, -0)`) and which NaN
//! survives. So the upper rank of each pair (`r & d != 0`) sets its reducing
//! steps' [`PrimitiveStep::incoming_first`](crate::PrimitiveStep): both ends
//! compute `op(lower partial, upper partial)` and every rank ends with the
//! same bits.
//!
//! Point-to-point send/recv is the degenerate two-rank case: rank 0 emits
//! chunked `Send` primitives, rank 1 the matching `Recv`s.
//!
//! Like every plan IR schedule, these primitives are single-chunk and
//! non-blocking, so the daemon kernel preempts dense-mesh plans at every
//! chunk boundary without any executor changes — preemption safety is a
//! property of the primitive contract, not of the schedule's shape
//! (asserted end-to-end by the preemption-storm test in
//! `tests/algorithms.rs`).

use crate::chunk::ElemRange;
use crate::collective::{CollectiveDescriptor, CollectiveKind};
use crate::plan::{
    check_builder_inputs, push_chunked, sort_chunk_major, Algorithm, AlgorithmKind, Plan,
};
use crate::primitive::{PrimitiveKind, SrcBuf};
use crate::CollectiveError;
use dfccl_transport::Topology;

/// The pairwise-exchange schedule generator (all-to-all, send/recv, and
/// all-reduce on a power-of-two group).
pub struct PairwiseAlgorithm;

impl Algorithm for PairwiseAlgorithm {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Pairwise
    }

    fn supports(&self, desc: &CollectiveDescriptor, _topology: &Topology) -> bool {
        match desc.kind {
            CollectiveKind::AllToAll | CollectiveKind::SendRecv => true,
            CollectiveKind::AllReduce => desc.num_ranks().is_power_of_two(),
            _ => false,
        }
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
        match desc.kind {
            CollectiveKind::AllToAll => Ok(all_to_all_plan(
                desc.count,
                desc.num_ranks(),
                rank,
                max_chunk_elems,
                channels,
            )),
            CollectiveKind::SendRecv => {
                Ok(send_recv_plan(desc.count, rank, max_chunk_elems, channels))
            }
            CollectiveKind::AllReduce if self.supports(desc, topology) => Ok(all_reduce_plan(
                desc.count,
                desc.num_ranks(),
                rank,
                max_chunk_elems,
                channels,
            )),
            other => Err(CollectiveError::UnsupportedAlgorithm {
                algorithm: AlgorithmKind::Pairwise,
                kind: other,
            }),
        }
    }
}

/// Linear-shift all-to-all: `count` elements per (rank, peer) pair, `n - 1`
/// pairwise exchanges plus the local copy of the rank's own slice. Shift `s`
/// rides its own lane, channels `(s-1)·K′ .. s·K′` with `K′ = min(K, chunks
/// per slice)`, so the shifts run at once (see the module docs).
fn all_to_all_plan(count: usize, n: usize, rank: usize, max_chunk: usize, channels: usize) -> Plan {
    let slice = |idx: usize| ElemRange::new((idx % n) * count, count);
    let k = channels.min(count.div_ceil(max_chunk)).max(1);
    let mut steps = Vec::new();

    // Shift 0: the rank's own slice never crosses the wire.
    push_chunked(
        &mut steps,
        PrimitiveKind::Copy,
        Some(slice(rank)),
        SrcBuf::Send,
        Some(slice(rank)),
        None,
        None,
        0,
        max_chunk,
        k,
    );
    for s in 1..n {
        let to = (rank + s) % n;
        let from = (rank + n - s) % n;
        let first = steps.len();
        // Send before recv within the shift (see the module docs).
        push_chunked(
            &mut steps,
            PrimitiveKind::Send,
            Some(slice(to)),
            SrcBuf::Send,
            None,
            Some(to),
            None,
            (2 * s - 1) as u32,
            max_chunk,
            k,
        );
        push_chunked(
            &mut steps,
            PrimitiveKind::Recv,
            None,
            SrcBuf::Send,
            Some(slice(from)),
            None,
            Some(from),
            (2 * s) as u32,
            max_chunk,
            k,
        );
        for step in &mut steps[first..] {
            step.channel.0 += ((s - 1) * k) as u32;
        }
    }
    sort_chunk_major(&mut steps);
    Plan::new(AlgorithmKind::Pairwise, steps)
}

/// Recursive-doubling all-reduce of `count` elements on `n = 2^m` ranks: at
/// level `i ∈ 1..=m`, with `d = 2^(i-1)`, the rank sends its whole partial to
/// `rank ^ d` and reduces that peer's partial into its recv buffer. Level 1
/// reads the send buffer, later levels the partial in the recv buffer; the
/// upper rank of each pair reduces with the incoming partial first.
fn all_reduce_plan(count: usize, n: usize, rank: usize, max_chunk: usize, channels: usize) -> Plan {
    let whole = ElemRange::new(0, count);
    let mut steps = Vec::new();
    for level in 1..=n.trailing_zeros() {
        let d = 1usize << (level - 1);
        let peer = rank ^ d;
        let src_buf = if level == 1 {
            SrcBuf::Send
        } else {
            SrcBuf::Recv
        };
        // Send before reduce within the level, as in a shift above.
        push_chunked(
            &mut steps,
            PrimitiveKind::Send,
            Some(whole),
            src_buf,
            None,
            Some(peer),
            None,
            2 * level - 1,
            max_chunk,
            channels,
        );
        let first_reduce = steps.len();
        push_chunked(
            &mut steps,
            PrimitiveKind::RecvReduceCopy,
            Some(whole),
            src_buf,
            Some(whole),
            None,
            Some(peer),
            2 * level,
            max_chunk,
            channels,
        );
        // Both ends of the pair compute op(lower partial, upper partial).
        for step in &mut steps[first_reduce..] {
            step.incoming_first = rank & d != 0;
        }
    }
    sort_chunk_major(&mut steps);
    Plan::new(AlgorithmKind::Pairwise, steps)
}

/// Point-to-point transfer of `count` elements from rank 0 to rank 1.
fn send_recv_plan(count: usize, rank: usize, max_chunk: usize, channels: usize) -> Plan {
    let whole = ElemRange::new(0, count);
    let mut steps = Vec::new();
    if rank == 0 {
        push_chunked(
            &mut steps,
            PrimitiveKind::Send,
            Some(whole),
            SrcBuf::Send,
            None,
            Some(1),
            None,
            0,
            max_chunk,
            channels,
        );
    } else {
        push_chunked(
            &mut steps,
            PrimitiveKind::Recv,
            None,
            SrcBuf::Send,
            Some(whole),
            None,
            Some(0),
            0,
            max_chunk,
            channels,
        );
    }
    sort_chunk_major(&mut steps);
    Plan::new(AlgorithmKind::Pairwise, steps)
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

    fn a2a(count: usize, n: usize) -> CollectiveDescriptor {
        CollectiveDescriptor::all_to_all(count, DataType::F32, gpus(n))
    }

    fn all_reduce(count: usize, n: usize) -> CollectiveDescriptor {
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
    }

    #[test]
    fn supports_all_to_all_send_recv_and_power_of_two_all_reduce() {
        let a = PairwiseAlgorithm;
        let topo = Topology::flat(8);
        assert!(a.supports(&a2a(8, 4), &topo));
        let p2p = CollectiveDescriptor::send_recv(8, DataType::F32, GpuId(0), GpuId(1));
        assert!(a.supports(&p2p, &topo));
        for n in [2, 4, 8] {
            assert!(a.supports(&all_reduce(8, n), &topo), "n={n}");
        }
        let ag = CollectiveDescriptor::all_gather(8, DataType::F32, gpus(4));
        for unsupported in [ag, all_reduce(8, 3), all_reduce(8, 6)] {
            assert!(!a.supports(&unsupported, &topo));
            assert!(matches!(
                a.build_plan(&unsupported, 0, 64, &topo),
                Err(CollectiveError::UnsupportedAlgorithm { .. })
            ));
        }
    }

    #[test]
    fn recursive_doubling_exchanges_with_rank_xor_d_at_each_level() {
        let n = 8;
        let topo = Topology::flat(n);
        for rank in 0..n {
            let plan = PairwiseAlgorithm
                .build_plan(&all_reduce(10, n), rank, 4, &topo)
                .unwrap();
            plan.validate(rank, n).unwrap();
            let peers = vec![rank ^ 1, rank ^ 2, rank ^ 4];
            let mut sorted = peers.clone();
            sorted.sort_unstable();
            assert_eq!(plan.send_peers(), sorted, "rank {rank} send peers");
            assert_eq!(plan.recv_peers(), sorted, "rank {rank} recv peers");
            // 10 elements at chunk 4 = 3 chunks x 3 levels x (send, reduce).
            assert_eq!(plan.len(), 18);
            for p in &plan.steps {
                let level = p.step.div_ceil(2) as usize;
                let d = 1 << (level - 1);
                // Level 1 reads the input, later levels the partial.
                let src_buf = if level == 1 {
                    SrcBuf::Send
                } else {
                    SrcBuf::Recv
                };
                assert_eq!(p.src_buf, src_buf, "rank {rank} step {}", p.step);
                if p.step % 2 == 1 {
                    assert_eq!(p.kind, PrimitiveKind::Send);
                    assert_eq!(p.send_to, Some(peers[level - 1]));
                } else {
                    assert_eq!(p.kind, PrimitiveKind::RecvReduceCopy);
                    assert_eq!(p.recv_from, Some(peers[level - 1]));
                    assert_eq!(p.src, p.dst, "reduces the whole range it writes");
                    // Both ends compute op(lower partial, upper partial).
                    assert_eq!(p.incoming_first, rank & d != 0, "rank {rank} level {level}");
                }
            }
            let order: Vec<(u32, u32)> =
                plan.steps.iter().map(|p| (p.chunk_index, p.step)).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "rank {rank} plan is not chunk-major");
        }
    }

    #[test]
    fn all_to_all_addresses_every_peer_in_both_directions() {
        let n = 5;
        let topo = Topology::flat(n);
        for rank in 0..n {
            let plan = PairwiseAlgorithm
                .build_plan(&a2a(6, n), rank, 1024, &topo)
                .unwrap();
            plan.validate(rank, n).unwrap();
            let others: Vec<usize> = (0..n).filter(|&p| p != rank).collect();
            assert_eq!(plan.send_peers(), others, "rank {rank} send peers");
            assert_eq!(plan.recv_peers(), others, "rank {rank} recv peers");
        }
    }

    #[test]
    fn all_to_all_moves_slice_j_to_rank_j() {
        let n = 4;
        let count = 3;
        let topo = Topology::flat(n);
        for rank in 0..n {
            let plan = PairwiseAlgorithm
                .build_plan(&a2a(count, n), rank, 1024, &topo)
                .unwrap();
            for step in &plan.steps {
                if let Some(to) = step.send_to {
                    // The slice sent to peer `to` is read from block `to`.
                    let src = step.src.expect("send reads a slice");
                    assert_eq!(src.offset / count, to, "rank {rank}");
                }
                if let Some(from) = step.recv_from {
                    // The slice received from peer `from` lands in block `from`.
                    let dst = step.dst.expect("recv writes a slice");
                    assert_eq!(dst.offset / count, from, "rank {rank}");
                }
            }
            // The local copy covers the rank's own block.
            let copy = plan
                .steps
                .iter()
                .find(|s| s.kind == PrimitiveKind::Copy)
                .expect("own slice is copied locally");
            assert_eq!(copy.src.unwrap().offset / count, rank);
        }
    }

    #[test]
    fn all_to_all_plans_are_chunk_major_with_send_before_recv_per_shift() {
        let n = 4;
        let topo = Topology::flat(n);
        for rank in 0..n {
            let plan = PairwiseAlgorithm
                .build_plan(&a2a(40, n), rank, 8, &topo)
                .unwrap();
            let order: Vec<(u32, u32)> =
                plan.steps.iter().map(|p| (p.chunk_index, p.step)).collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "rank {rank} plan is not chunk-major");
            // Odd steps send, even non-zero steps receive: the send half of a
            // shift always sorts before its recv half.
            for p in &plan.steps {
                if p.step == 0 {
                    assert_eq!(p.kind, PrimitiveKind::Copy);
                } else if p.step % 2 == 1 {
                    assert_eq!(p.kind, PrimitiveKind::Send);
                } else {
                    assert_eq!(p.kind, PrimitiveKind::Recv);
                }
            }
        }
    }

    #[test]
    fn all_to_all_gives_each_shift_its_own_lane_of_k_channels() {
        let chunk = 4;
        for n in 2..=8usize {
            let topo = Topology::flat(n);
            for k in 1..=3usize {
                // 1, 2 and 5 chunks per slice: fewer and more than K.
                for count in [3usize, 8, 20] {
                    let kk = k.min(count.div_ceil(chunk));
                    let plans: Vec<Plan> = (0..n)
                        .map(|r| {
                            PairwiseAlgorithm
                                .build_plan_striped(&a2a(count, n), r, chunk, k, &topo)
                                .unwrap()
                        })
                        .collect();
                    for (rank, plan) in plans.iter().enumerate() {
                        let ctx = format!("n={n} K={k} count={count} rank={rank}");
                        plan.validate(rank, n).unwrap();
                        assert_eq!(plan.channel_count(), (n - 1) * kk, "{ctx}");
                        // Shift s (shift 0 is the local copy) rides exactly
                        // channels (s-1)K'..sK', every one of them.
                        for s in 0..n {
                            let lane = s.saturating_sub(1) * kk..s.max(1) * kk;
                            let mut used: Vec<usize> = plan
                                .steps
                                .iter()
                                .filter(|p| p.step.div_ceil(2) as usize == s)
                                .map(|p| p.channel.0 as usize)
                                .collect();
                            used.sort_unstable();
                            used.dedup();
                            assert_eq!(used, lane.collect::<Vec<_>>(), "{ctx} shift {s}");
                        }
                        // Each channel's steps are chunk-major.
                        for c in 0..plan.channel_count() as u32 {
                            let order: Vec<(u32, u32)> = plan
                                .steps
                                .iter()
                                .filter(|p| p.channel.0 == c)
                                .map(|p| (p.chunk_index, p.step))
                                .collect();
                            assert!(order.is_sorted(), "{ctx} channel {c}: {order:?}");
                        }
                    }
                    // Both ends of every directed edge use the same channels.
                    for (src, plan) in plans.iter().enumerate() {
                        for dst in (0..n).filter(|&d| d != src) {
                            let sent: Vec<_> = plan
                                .send_edges()
                                .iter()
                                .filter(|e| e.0 == dst)
                                .map(|e| e.1)
                                .collect();
                            let received: Vec<_> = plans[dst]
                                .recv_edges()
                                .iter()
                                .filter(|e| e.0 == src)
                                .map(|e| e.1)
                                .collect();
                            assert!(!sent.is_empty(), "n={n} K={k} count={count} {src}->{dst}");
                            assert_eq!(sent, received, "n={n} K={k} count={count} {src}->{dst}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn send_recv_plan_roles_are_asymmetric() {
        let topo = Topology::flat(2);
        let desc = CollectiveDescriptor::send_recv(10, DataType::F32, GpuId(0), GpuId(1));
        let sender = PairwiseAlgorithm.build_plan(&desc, 0, 4, &topo).unwrap();
        assert!(sender.steps.iter().all(|s| s.kind == PrimitiveKind::Send));
        assert_eq!(sender.send_peers(), vec![1]);
        assert!(sender.recv_peers().is_empty());
        let receiver = PairwiseAlgorithm.build_plan(&desc, 1, 4, &topo).unwrap();
        assert!(receiver.steps.iter().all(|s| s.kind == PrimitiveKind::Recv));
        assert_eq!(receiver.recv_peers(), vec![0]);
        assert!(receiver.send_peers().is_empty());
        // 10 elements at chunk 4 = 3 chunks on each side.
        assert_eq!(sender.len(), 3);
        assert_eq!(receiver.len(), 3);
    }

    #[test]
    fn two_rank_all_to_all_degenerates_to_one_exchange() {
        let topo = Topology::flat(2);
        let plan = PairwiseAlgorithm
            .build_plan(&a2a(4, 2), 0, 1024, &topo)
            .unwrap();
        let kinds: Vec<PrimitiveKind> = plan.steps.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PrimitiveKind::Copy,
                PrimitiveKind::Send,
                PrimitiveKind::Recv
            ]
        );
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let topo = Topology::flat(4);
        assert!(matches!(
            PairwiseAlgorithm.build_plan(&a2a(8, 4), 9, 64, &topo),
            Err(CollectiveError::InvalidRank { rank: 9, size: 4 })
        ));
        assert!(matches!(
            PairwiseAlgorithm.build_plan(&a2a(8, 4), 0, 0, &topo),
            Err(CollectiveError::InvalidChunkSize(0))
        ));
    }
}
