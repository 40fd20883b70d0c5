//! The graph layer's integration contract: capturing an iteration and
//! replaying it as one SQE — including the all-reduce fusion pass —
//! produces results bit-identical to registering and submitting the same
//! sequence individually, across every algorithm family × rank count 2–8 ×
//! channel count K ∈ {1, 2, 3} at connector capacity 1, and the contract
//! survives a preemption storm.

use std::time::Duration;

use dfccl::{DfcclConfig, DfcclDomain, RankCtx};
use dfccl_collectives::{
    AlgorithmKind, CollectiveDescriptor, CollectiveKind, DataType, DeviceBuffer, ReduceOp,
};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{GpuId, GpuSpec};

fn gpus(n: usize) -> Vec<GpuId> {
    (0..n).map(GpuId).collect()
}

/// The recorded step: a short sequence of same-kind collectives. For
/// all-reduce the first three are compatible and cheaper together, so the
/// capture coalesces them into one fused node; the fourth opts out via
/// `no_fuse` and must stay a single node.
fn step_descriptors(kind: CollectiveKind, n: usize) -> Vec<CollectiveDescriptor> {
    let make = |count: usize| -> CollectiveDescriptor {
        match kind {
            CollectiveKind::AllReduce => {
                CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
            }
            CollectiveKind::AllToAll => {
                CollectiveDescriptor::all_to_all(count, DataType::F32, gpus(n))
            }
            CollectiveKind::SendRecv => {
                CollectiveDescriptor::send_recv(count, DataType::F32, GpuId(0), GpuId(1))
            }
            other => panic!("kind {other} not used by the graph property test"),
        }
    };
    let mut descs = vec![make(17), make(5), make(9)];
    let last = make(17);
    descs.push(if kind == CollectiveKind::AllReduce {
        last.with_no_fuse()
    } else {
        last
    });
    descs
}

/// Integer-valued inputs: every reduction association is exact in f32, so
/// individually-submitted and replayed results must be bit-identical.
fn inputs_for(descs: &[CollectiveDescriptor], rank: usize) -> Vec<Vec<f32>> {
    descs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            (0..d.send_elems(rank))
                .map(|j| ((rank * 31 + i * 7 + j) % 101) as f32)
                .collect()
        })
        .collect()
}

fn submit_step_individually(
    ranks: &[RankCtx],
    descs: &[CollectiveDescriptor],
) -> Vec<Vec<Vec<f32>>> {
    let mut handles = Vec::new();
    let mut recvs: Vec<Vec<DeviceBuffer>> = Vec::new();
    for (r, ctx) in ranks.iter().enumerate() {
        let inputs = inputs_for(descs, r);
        let mut rank_recvs = Vec::new();
        for (i, desc) in descs.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&inputs[i]);
            let recv = DeviceBuffer::zeroed(desc.recv_bytes(r).max(4));
            rank_recvs.push(recv.clone());
            handles.push(ctx.run_awaitable(i as u64 + 1, send, recv).unwrap());
        }
        recvs.push(rank_recvs);
    }
    for h in &handles {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(60)),
            "individual submission wedged"
        );
    }
    recvs
        .iter()
        .map(|rr| rr.iter().map(|b| b.to_f32_vec()).collect())
        .collect()
}

/// Capture the same step on every rank, replay it `rounds` times, and return
/// the per-round results. Also asserts the all-reduce arm actually fused.
fn replay_step(
    ranks: &[RankCtx],
    descs: &[CollectiveDescriptor],
    kind: CollectiveKind,
    rounds: usize,
) -> Vec<Vec<Vec<Vec<f32>>>> {
    let mut graphs = Vec::new();
    let mut recvs: Vec<Vec<DeviceBuffer>> = Vec::new();
    for (r, ctx) in ranks.iter().enumerate() {
        let inputs = inputs_for(descs, r);
        let mut rec = ctx.begin_capture().unwrap();
        let mut rank_recvs = Vec::new();
        for (i, desc) in descs.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&inputs[i]);
            let recv = DeviceBuffer::zeroed(desc.recv_bytes(r).max(4));
            rec.record(i as u64 + 1, send, recv.clone()).unwrap();
            rank_recvs.push(recv);
        }
        let graph = rec.finish().unwrap();
        if kind == CollectiveKind::AllReduce {
            assert_eq!(
                (graph.len(), graph.fused_nodes()),
                (2, 1),
                "three fusable all-reduces plus one no_fuse must compile to one fused + one single node"
            );
        } else {
            assert_eq!(graph.fused_nodes(), 0, "only all-reduces fuse");
        }
        graphs.push(graph);
        recvs.push(rank_recvs);
    }
    let mut rounds_out = Vec::new();
    for round in 0..rounds {
        let handles: Vec<_> = ranks
            .iter()
            .zip(&graphs)
            .map(|(ctx, g)| ctx.replay_awaitable(g).unwrap())
            .collect();
        for h in &handles {
            assert!(
                h.wait_for_timeout(1, Duration::from_secs(60)),
                "graph replay round {round} wedged"
            );
        }
        rounds_out.push(
            recvs
                .iter()
                .map(|rr| rr.iter().map(|b| b.to_f32_vec()).collect())
                .collect(),
        );
    }
    rounds_out
}

fn run_job(kind: CollectiveKind, algo: AlgorithmKind, topo: Topology, channels: usize) {
    let n = topo.gpus().len();
    let config = DfcclConfig {
        chunk_elems: 3,
        connector_capacity: 1,
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(topo, LinkModel::zero_cost(), GpuSpec::rtx_3090(), config);
    // Family and K are set on every descriptor; a fused node inherits both.
    let descs: Vec<_> = step_descriptors(kind, n)
        .into_iter()
        .map(|d| d.with_algorithm(algo).with_channels(channels))
        .collect();
    let ranks: Vec<_> = (0..n)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    for ctx in &ranks {
        for (i, desc) in descs.iter().enumerate() {
            ctx.register(i as u64 + 1, desc.clone()).unwrap();
        }
    }
    let oracle = submit_step_individually(&ranks, &descs);
    let replays = replay_step(&ranks, &descs, kind, 2);
    for (round, replay) in replays.iter().enumerate() {
        assert_eq!(
            *replay, oracle,
            "{algo} {kind} n={n} K={channels} round {round}: replay diverges from individual submission"
        );
    }
    for (r, ctx) in ranks.iter().enumerate() {
        assert!(ctx.collective_errors().is_empty());
        // The callback fires when the CQE is published; the daemon's
        // `outstanding` decrement trails it by a few instructions. Give the
        // counter a moment before calling a leak.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ctx.outstanding() != 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(
            ctx.outstanding(),
            0,
            "{algo} {kind} n={n} K={channels} rank {r}: completions leaked"
        );
    }
    for ctx in ranks {
        ctx.destroy();
    }
}

/// The multi-node splits of `n` the hierarchical algorithm can run on.
fn hierarchical_splits(n: usize) -> Vec<Topology> {
    (2..=n)
        .filter(|d| n.is_multiple_of(*d))
        .map(|d| Topology::uniform_cluster(d, n / d))
        .collect()
}

#[test]
fn replay_matches_individual_submission_for_every_family() {
    // The tentpole's property test: for every algorithm family × rank count
    // 2–8 × channel count K ∈ {1, 2, 3}, capturing a step (three fusable
    // small all-reduces + one opted-out, or four same-kind collectives for
    // the non-reducing families) and replaying it as one SQE produces
    // results bit-identical to submitting the same sequence individually.
    // Connector capacity 1 wedges — rather than slows — on any ordering or
    // pairing mistake in graph expansion, and two replay rounds prove the
    // graph is reusable (the in-flight guard resets).
    for n in 2..=8usize {
        for k in [1usize, 2, 3] {
            run_job(
                CollectiveKind::AllReduce,
                AlgorithmKind::Ring,
                Topology::flat(n),
                k,
            );
            run_job(
                CollectiveKind::AllReduce,
                AlgorithmKind::DoubleBinaryTree,
                Topology::flat(n),
                k,
            );
            run_job(
                CollectiveKind::AllToAll,
                AlgorithmKind::Pairwise,
                Topology::flat(n),
                k,
            );
            if n.is_power_of_two() {
                run_job(
                    CollectiveKind::AllReduce,
                    AlgorithmKind::Pairwise,
                    Topology::flat(n),
                    k,
                );
            }
            if n == 2 {
                run_job(
                    CollectiveKind::SendRecv,
                    AlgorithmKind::Pairwise,
                    Topology::flat(2),
                    k,
                );
            }
            for topo in hierarchical_splits(n) {
                run_job(
                    CollectiveKind::AllReduce,
                    AlgorithmKind::Hierarchical,
                    topo,
                    k,
                );
            }
        }
    }
}

#[test]
fn pairwise_all_reduce_in_place_reaches_the_host_sum() {
    // Recursive doubling through the full stack on one buffer per rank and
    // collective (send == recv): every level after the first sends and
    // reduces the partial the previous level wrote into that allocation.
    // Checked against the sum computed on the host, not against another run
    // of the same plans — once submitted individually, once captured and
    // replayed, both in place (so nothing fuses: an in-place member may not
    // share a bucket).
    for n in [2usize, 4, 8] {
        for k in [1usize, 2, 3] {
            let config = DfcclConfig {
                chunk_elems: 3,
                connector_capacity: 1,
                ..DfcclConfig::for_testing()
            };
            let domain = DfcclDomain::new(
                Topology::flat(n),
                LinkModel::zero_cost(),
                GpuSpec::rtx_3090(),
                config,
            );
            let descs: Vec<_> = step_descriptors(CollectiveKind::AllReduce, n)
                .into_iter()
                .map(|d| d.with_algorithm(AlgorithmKind::Pairwise).with_channels(k))
                .collect();
            let ranks: Vec<_> = (0..n)
                .map(|g| domain.init_rank(GpuId(g)).unwrap())
                .collect();
            for ctx in &ranks {
                for (i, desc) in descs.iter().enumerate() {
                    ctx.register(i as u64 + 1, desc.clone()).unwrap();
                }
            }
            let inputs: Vec<_> = (0..n).map(|r| inputs_for(&descs, r)).collect();
            let sums: Vec<Vec<f32>> = descs
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    (0..d.count)
                        .map(|j| inputs.iter().map(|rank| rank[i][j]).sum())
                        .collect()
                })
                .collect();
            let bufs: Vec<Vec<DeviceBuffer>> = inputs
                .iter()
                .map(|rank| rank.iter().map(|v| DeviceBuffer::from_f32(v)).collect())
                .collect();
            let check = |how: &str| {
                for (r, rank_bufs) in bufs.iter().enumerate() {
                    for (i, buf) in rank_bufs.iter().enumerate() {
                        assert_eq!(
                            buf.to_f32_vec(),
                            sums[i],
                            "{how} n={n} K={k} rank {r} collective {i}"
                        );
                    }
                }
            };

            let mut handles = Vec::new();
            for (ctx, rank_bufs) in ranks.iter().zip(&bufs) {
                for (i, buf) in rank_bufs.iter().enumerate() {
                    handles.push(
                        ctx.run_awaitable(i as u64 + 1, buf.clone(), buf.clone())
                            .unwrap(),
                    );
                }
            }
            for h in &handles {
                assert!(
                    h.wait_for_timeout(1, Duration::from_secs(60)),
                    "in place wedged"
                );
            }
            check("individual");

            let mut graphs = Vec::new();
            for ((ctx, rank_bufs), rank_inputs) in ranks.iter().zip(&bufs).zip(&inputs) {
                let mut rec = ctx.begin_capture().unwrap();
                for (i, (buf, input)) in rank_bufs.iter().zip(rank_inputs).enumerate() {
                    buf.replace(input.iter().flat_map(|v| v.to_le_bytes()).collect());
                    rec.record(i as u64 + 1, buf.clone(), buf.clone()).unwrap();
                }
                graphs.push(rec.finish().unwrap());
            }
            let handles: Vec<_> = ranks
                .iter()
                .zip(&graphs)
                .map(|(ctx, g)| ctx.replay_awaitable(g).unwrap())
                .collect();
            for h in &handles {
                assert!(
                    h.wait_for_timeout(1, Duration::from_secs(60)),
                    "replay wedged"
                );
            }
            check("replayed");
            for ctx in ranks {
                assert!(ctx.collective_errors().is_empty());
                ctx.destroy();
            }
        }
    }
}

#[test]
fn replay_matches_individual_submission_under_preemption_storm() {
    // The storm arm: a 4-poll spin threshold over 1-slot connectors preempts
    // replayed graph nodes mid-flight constantly, so expansion state (the
    // per-node dynamic contexts tagged with the graph run) must survive
    // save/restore and daemon restarts. Results must still match individual
    // submission, and the run must actually preempt.
    let n = 4;
    let config = DfcclConfig {
        chunk_elems: 4,
        connector_capacity: 1,
        ..DfcclConfig::preemption_stress()
    };
    let domain = DfcclDomain::new(
        Topology::flat(n),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let kind = CollectiveKind::AllReduce;
    // Bigger payloads than the family sweep so each node spans many chunks
    // and preemption lands mid-plan.
    let descs: Vec<CollectiveDescriptor> = [60usize, 24, 36, 60]
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            let d = CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
                .with_channels(3);
            if i == 3 {
                d.with_no_fuse()
            } else {
                d
            }
        })
        .collect();
    let ranks: Vec<_> = (0..n)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    for ctx in &ranks {
        for (i, desc) in descs.iter().enumerate() {
            ctx.register(i as u64 + 1, desc.clone()).unwrap();
        }
    }
    let oracle = submit_step_individually(&ranks, &descs);
    let replays = replay_step(&ranks, &descs, kind, 3);
    for (round, replay) in replays.iter().enumerate() {
        assert_eq!(
            *replay, oracle,
            "storm round {round}: replay diverges from individual submission"
        );
    }
    let preemptions: u64 = ranks.iter().map(|c| c.stats().preemptions).sum();
    assert!(preemptions > 0, "the storm must actually preempt mid-plan");
    for ctx in ranks {
        assert!(ctx.collective_errors().is_empty());
        ctx.destroy();
    }
}

#[test]
fn a_bucket_holding_a_large_tensor_replays_bit_exact_and_an_in_place_member_stays_single() {
    // A DDP-shaped step at connector capacity 1: one 256 KiB all-reduce,
    // three 4 KiB ones, then a 4 KiB one recorded in place (send == recv).
    // The fused node reads and writes its members' buffers in place, with
    // the plan's ranges crossing the 256 KiB member's end; the in-place
    // member may not join a bucket, so it stays a single node. Replay must
    // equal individual submission bit for bit.
    use dfccl_collectives::GraphOp;
    let counts = [64 * 1024usize, 1024, 1024, 1024, 1024];
    let in_place = counts.len() - 1;
    for algo in [AlgorithmKind::Ring, AlgorithmKind::Pairwise] {
        for n in [2usize, 4] {
            for k in [1usize, 2] {
                let config = DfcclConfig {
                    connector_capacity: 1,
                    ..DfcclConfig::for_testing()
                };
                let domain = DfcclDomain::new(
                    Topology::flat(n),
                    LinkModel::zero_cost(),
                    GpuSpec::rtx_3090(),
                    config,
                );
                let descs: Vec<_> = counts
                    .iter()
                    .map(|&c| {
                        CollectiveDescriptor::all_reduce(c, DataType::F32, ReduceOp::Sum, gpus(n))
                            .with_algorithm(algo)
                            .with_channels(k)
                    })
                    .collect();
                let ranks: Vec<_> = (0..n)
                    .map(|g| domain.init_rank(GpuId(g)).unwrap())
                    .collect();
                for ctx in &ranks {
                    for (i, desc) in descs.iter().enumerate() {
                        ctx.register(i as u64 + 1, desc.clone()).unwrap();
                    }
                }
                let inputs: Vec<_> = (0..n).map(|r| inputs_for(&descs, r)).collect();
                // Per rank and collective: (send, recv), one buffer in place.
                let buffers = || -> Vec<Vec<(DeviceBuffer, DeviceBuffer)>> {
                    inputs
                        .iter()
                        .map(|rank| {
                            rank.iter()
                                .enumerate()
                                .map(|(i, v)| {
                                    let send = DeviceBuffer::from_f32(v);
                                    if i == in_place {
                                        (send.clone(), send)
                                    } else {
                                        (send, DeviceBuffer::zeroed(v.len() * 4))
                                    }
                                })
                                .collect()
                        })
                        .collect()
                };
                let results = |bufs: &[Vec<(DeviceBuffer, DeviceBuffer)>]| -> Vec<Vec<Vec<f32>>> {
                    bufs.iter()
                        .map(|rank| rank.iter().map(|(_, recv)| recv.to_f32_vec()).collect())
                        .collect()
                };
                let wait = |handles: Vec<dfccl::CompletionHandle>, what: &str| {
                    for h in handles {
                        assert!(
                            h.wait_for_timeout(1, Duration::from_secs(60)),
                            "{algo} n={n} K={k}: {what} wedged"
                        );
                    }
                };

                let individual = buffers();
                let mut handles = Vec::new();
                for (ctx, rank) in ranks.iter().zip(&individual) {
                    for (i, (send, recv)) in rank.iter().enumerate() {
                        handles.push(
                            ctx.run_awaitable(i as u64 + 1, send.clone(), recv.clone())
                                .unwrap(),
                        );
                    }
                }
                wait(handles, "individual submission");
                let oracle = results(&individual);

                let recorded = buffers();
                let mut graphs = Vec::new();
                for (ctx, rank) in ranks.iter().zip(&recorded) {
                    let mut rec = ctx.begin_capture().unwrap();
                    for (i, (send, recv)) in rank.iter().enumerate() {
                        rec.record(i as u64 + 1, send.clone(), recv.clone())
                            .unwrap();
                    }
                    let graph = rec.finish().unwrap();
                    let GraphOp::Fused(first) = &graph.nodes[0].op else {
                        panic!("{algo} n={n} K={k}: the 256 KiB member must be fused");
                    };
                    assert_eq!(first.segments[0].byte_len, 256 * 1024);
                    let last = &graph.nodes[graph.len() - 1].op;
                    assert!(
                        matches!(last, GraphOp::Single(r) if r.coll_id == in_place as u64 + 1),
                        "{algo} n={n} K={k}: the in-place member must stay a single node"
                    );
                    graphs.push(graph);
                }
                for round in 0..2 {
                    for (rank, input) in recorded.iter().zip(&inputs) {
                        let bytes = input[in_place].iter().flat_map(|v| v.to_le_bytes());
                        rank[in_place].0.replace(bytes.collect());
                    }
                    let handles = ranks
                        .iter()
                        .zip(&graphs)
                        .map(|(ctx, g)| ctx.replay_awaitable(g).unwrap())
                        .collect();
                    wait(handles, "replay");
                    assert_eq!(
                        results(&recorded),
                        oracle,
                        "{algo} n={n} K={k} round {round}: replay diverges from individual submission"
                    );
                }
                for ctx in ranks {
                    assert!(ctx.collective_errors().is_empty());
                    ctx.destroy();
                }
            }
        }
    }
}
