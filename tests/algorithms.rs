//! Cross-algorithm integration tests: deadlock freedom under minimal
//! connector capacity, bit-identical results across plan shapes, and the
//! latency/bandwidth crossover between ring and tree schedules. Schedules run
//! on the compiled executor, one thread per rank.

mod common;

use common::{
    descriptor_for, family_matrix, gpus, hierarchical_splits, inputs_for, plans_for, run_compiled,
    run_compiled_bytes, run_reference,
};
use dfccl_collectives::{
    AlgorithmKind, CollectiveDescriptor, CollectiveKind, DataType, DeviceBuffer, ReduceOp,
};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::GpuId;

/// Run `desc` with `algo` over `topo` on the compiled executor with
/// `connector_capacity` chunk slots per connector, unstriped.
fn run(
    desc: &CollectiveDescriptor,
    algo: AlgorithmKind,
    topo: &Topology,
    link: &LinkModel,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    connector_capacity: usize,
) -> Vec<Vec<f32>> {
    let plans = plans_for(desc, algo, topo, chunk_elems, 1);
    run_compiled(desc, &plans, topo, link, inputs, connector_capacity)
}

#[test]
fn every_algorithm_is_deadlock_free_with_one_slot_connectors() {
    // The generalization of the chunk-major regression test to the plan IR:
    // every algorithm x collective kind x rank count (including non-powers of
    // two) x chunk size completes with *1-slot* connectors — the minimal
    // capacity, where any ordering mistake wedges immediately — and matches
    // the single-threaded oracle.
    let link = LinkModel::zero_cost();
    let count = 17; // odd: uneven slices, partial chunks
    for n in 2..=8usize {
        for chunk_elems in [1usize, 3, 1024] {
            for (desc, algo, topo) in family_matrix(n, count) {
                let inputs = inputs_for(&desc);
                let plans = plans_for(&desc, algo, &topo, chunk_elems, 1);
                assert_eq!(
                    run_compiled(&desc, &plans, &topo, &link, &inputs, 1),
                    run_reference(&desc, &plans, &inputs),
                    "{algo} {} n={n} chunk={chunk_elems}",
                    desc.kind
                );
            }
        }
    }
}

#[test]
fn striped_channels_complete_at_capacity_one_and_match_the_unstriped_oracle() {
    // Every algorithm family x collective kind x rank count 2-8 x channel
    // count K in {2, 3} completes with 1-slot connectors and produces
    // results bit-identical to the oracle's K = 1 run. The chunk size (3) is
    // far below the per-slice element counts, so every schedule genuinely
    // stripes across all K channels, and capacity 1 means any per-channel
    // ordering or pairing mistake wedges immediately.
    let link = LinkModel::zero_cost();
    let count = 17; // odd: uneven slices, partial chunks
    let chunk_elems = 3;
    for n in 2..=8usize {
        for (desc, algo, topo) in family_matrix(n, count) {
            let inputs = inputs_for(&desc);
            let unstriped = plans_for(&desc, algo, &topo, chunk_elems, 1);
            let oracle = run_reference(&desc, &unstriped, &inputs);
            for k in [2usize, 3] {
                let plans = plans_for(&desc, algo, &topo, chunk_elems, k);
                let striped = run_compiled(&desc, &plans, &topo, &link, &inputs, 1);
                assert_eq!(
                    striped, oracle,
                    "{algo} {} n={n} K={k} diverges from the K=1 oracle",
                    desc.kind
                );
            }
        }
    }
}

#[test]
fn tree_and_hierarchical_all_reduce_match_ring_bit_for_bit() {
    let link = LinkModel::zero_cost();
    for n in [2usize, 4, 6, 8] {
        let count = 41;
        let desc = descriptor_for(CollectiveKind::AllReduce, count, n);
        let inputs = inputs_for(&desc);
        let flat = Topology::flat(n);
        let ring = run(&desc, AlgorithmKind::Ring, &flat, &link, &inputs, 8, 4);
        let tree = run(
            &desc,
            AlgorithmKind::DoubleBinaryTree,
            &flat,
            &link,
            &inputs,
            8,
            4,
        );
        assert_eq!(ring, tree, "tree vs ring mismatch at n={n}");
        for topo in hierarchical_splits(n) {
            let hier = run(
                &desc,
                AlgorithmKind::Hierarchical,
                &topo,
                &link,
                &inputs,
                8,
                4,
            );
            assert_eq!(ring, hier, "hierarchical vs ring mismatch at n={n}");
        }
        // Sanity: the shared result is the actual sum.
        let expected: Vec<f32> = (0..count)
            .map(|i| inputs.iter().map(|inp| inp[i]).sum())
            .collect();
        for out in &ring {
            assert_eq!(out, &expected);
        }
    }
}

/// Whether two little-endian float buffers of `dtype` hold the same
/// values, a NaN matching any NaN: Rust leaves the sign and payload of a NaN
/// produced by arithmetic unspecified, so only NaN-ness is portable.
fn same_floats(a: &[u8], b: &[u8], dtype: DataType) -> bool {
    let w = dtype.size_bytes();
    let is_nan = |e: &[u8]| match dtype {
        DataType::F32 => f32::from_le_bytes(e.try_into().unwrap()).is_nan(),
        _ => f64::from_le_bytes(e.try_into().unwrap()).is_nan(),
    };
    a.len() == b.len()
        && a.chunks_exact(w)
            .zip(b.chunks_exact(w))
            .all(|(x, y)| x == y || (is_nan(x) && is_nan(y)))
}

#[test]
fn every_all_reduce_family_leaves_every_rank_with_the_same_values() {
    // Max and Min break ties (+0 vs -0) and unordered pairs (NaN) by operand
    // position, so a schedule in which two ranks reduce each other's
    // partials — recursive doubling — agrees only if both ends put the same
    // partial first. Every family that schedules the all-reduce
    // (hierarchical on each split) x every operator x {F32, F64} x n in
    // {2, 4, 8}, on inputs drawn from {+0, -0, NaN, -NaN, +1, -1}: every
    // rank must end with rank 0's values. Rank 0's and rank 1's 36 elements
    // pair every special with every other, in both orders.
    let link = LinkModel::zero_cost();
    let count = 36;
    let pick = |rank: usize, i: usize| (i / 6usize.pow(rank as u32 % 2) + rank / 2) % 6;
    for n in [2usize, 4, 8] {
        let jobs: Vec<_> = family_matrix(n, count)
            .into_iter()
            .filter(|(desc, ..)| desc.kind == CollectiveKind::AllReduce)
            .map(|(_, algo, topo)| (algo, topo))
            .collect();
        for dtype in [DataType::F32, DataType::F64] {
            let special = |k: usize| match dtype {
                DataType::F32 => [0.0f32, -0.0, f32::NAN, -f32::NAN, 1.0, -1.0][k]
                    .to_le_bytes()
                    .to_vec(),
                _ => [0.0f64, -0.0, f64::NAN, -f64::NAN, 1.0, -1.0][k]
                    .to_le_bytes()
                    .to_vec(),
            };
            let inputs: Vec<Vec<u8>> = (0..n)
                .map(|r| (0..count).flat_map(|i| special(pick(r, i))).collect())
                .collect();
            for op in ReduceOp::ALL {
                let desc = CollectiveDescriptor::all_reduce(count, dtype, op, gpus(n));
                for (algo, topo) in &jobs {
                    // Chunk 5 leaves a partial chunk; capacity 1.
                    let plans = plans_for(&desc, *algo, topo, 5, 1);
                    let outs = run_compiled_bytes(&desc, &plans, topo, &link, &inputs, 1);
                    for (rank, out) in outs.iter().enumerate() {
                        assert!(
                            same_floats(out, &outs[0], dtype),
                            "{algo} {op} {dtype} n={n} machines={}: rank {rank} disagrees with rank 0",
                            topo.machines().len()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn tree_broadcast_matches_ring_bit_for_bit() {
    let link = LinkModel::zero_cost();
    for n in [3usize, 5, 8] {
        let desc = descriptor_for(CollectiveKind::Broadcast, 29, n);
        let inputs = inputs_for(&desc);
        let flat = Topology::flat(n);
        let ring = run(&desc, AlgorithmKind::Ring, &flat, &link, &inputs, 4, 4);
        let tree = run(
            &desc,
            AlgorithmKind::DoubleBinaryTree,
            &flat,
            &link,
            &inputs,
            4,
            4,
        );
        assert_eq!(ring, tree, "broadcast mismatch at n={n}");
    }
}

/// Modelled completion time of `desc` under `algo` over the Table 2 link
/// costs — deterministic, so the crossover assertions cannot flake on
/// machines with fewer cores than ranks. Shares the bench harness's helper,
/// so the asserted ordering and the published sweep measure the same thing.
fn estimate_us(desc: &CollectiveDescriptor, algo: AlgorithmKind, topo: &Topology) -> f64 {
    dfccl_bench::modelled_completion_us(desc, algo, topo).expect("algorithm supports descriptor")
}

#[test]
fn tree_beats_ring_on_small_payloads_and_ring_wins_large() {
    // The Fig. 8-style crossover on 8 ranks: a small all-reduce is
    // hop-count-bound (tree: O(log n) depth; ring: 2(n-1) pipeline stages),
    // a large one is byte-volume-bound (ring moves 2(n-1)/n of the buffer
    // per rank; the tree re-sends whole halves at every level). Where it
    // falls depends on n, not only on bytes: on 2 or 4 ranks the ring's
    // 2(n-1) hops beat the tree even at 64 B. (The selector, which
    // minimises this same estimate, runs neither on 2, 4 or 8 ranks:
    // recursive doubling's log2(n) hops beat both.)
    let n = 8;
    let flat = Topology::flat(n);

    let small = descriptor_for(CollectiveKind::AllReduce, 64, n);
    let ring_small = estimate_us(&small, AlgorithmKind::Ring, &flat);
    let tree_small = estimate_us(&small, AlgorithmKind::DoubleBinaryTree, &flat);

    let large = descriptor_for(CollectiveKind::AllReduce, 1 << 20, n);
    let ring_large = estimate_us(&large, AlgorithmKind::Ring, &flat);
    let tree_large = estimate_us(&large, AlgorithmKind::DoubleBinaryTree, &flat);

    assert!(
        tree_small < ring_small,
        "tree must win small payloads: tree {tree_small}us vs ring {ring_small}us"
    );
    assert!(
        ring_large < tree_large,
        "ring must win large payloads: ring {ring_large}us vs tree {tree_large}us"
    );
}

/// The sequential oracle for an all-to-all: rank `r` receives everyone's
/// slice `r`, concatenated in source-rank order. Pure data movement, so the
/// mesh schedule must match it bit for bit.
fn alltoall_oracle(inputs: &[Vec<f32>], count: usize, rank: usize) -> Vec<f32> {
    inputs
        .iter()
        .flat_map(|input| input[rank * count..(rank + 1) * count].to_vec())
        .collect()
}

#[test]
fn all_to_all_completes_at_capacity_one_and_matches_the_oracle() {
    // The dense-mesh property test: every rank count (including non-powers of
    // two) x chunk size completes with *1-slot* connectors — n(n-1) directed
    // edges live at once, so any pairing or ordering mistake wedges
    // immediately — and the result is bit-identical to the sequential oracle.
    let link = LinkModel::zero_cost();
    let count = 13; // odd: partial chunks at every sweep size
    for n in 2..=8usize {
        for chunk_elems in [1usize, 3, 1024] {
            let desc = descriptor_for(CollectiveKind::AllToAll, count, n);
            let inputs = inputs_for(&desc);
            let topo = Topology::flat(n);
            let outputs = run(
                &desc,
                AlgorithmKind::Pairwise,
                &topo,
                &link,
                &inputs,
                chunk_elems,
                1,
            );
            for (rank, out) in outputs.iter().enumerate() {
                assert_eq!(
                    out,
                    &alltoall_oracle(&inputs, count, rank),
                    "n={n} chunk={chunk_elems} rank={rank}"
                );
            }
        }
    }
}

#[test]
fn send_recv_completes_at_capacity_one_and_delivers_exactly() {
    let link = LinkModel::zero_cost();
    for chunk_elems in [1usize, 4, 64] {
        let desc = descriptor_for(CollectiveKind::SendRecv, 23, 2);
        let inputs = inputs_for(&desc);
        let topo = Topology::flat(2);
        let outputs = run(
            &desc,
            AlgorithmKind::Pairwise,
            &topo,
            &link,
            &inputs,
            chunk_elems,
            1,
        );
        assert_eq!(outputs[1], inputs[0], "chunk={chunk_elems}");
    }
}

#[test]
fn preemption_storm_suspends_and_resumes_dense_mesh_plans_mid_flight() {
    // The tentpole's contract assertion: the daemon needed *no executor or
    // scheduler changes* for all-to-all, because preemption safety is a
    // property of the single-chunk non-blocking primitive contract, not of
    // the schedule's shape. A tiny fixed spin threshold (4 polls) plus 1-slot
    // connectors forces constant mid-plan suspend/resume of the dense-mesh
    // plans; the transposition must still be exact and preemptions must
    // actually have happened.
    use dfccl::{DfcclConfig, DfcclDomain};
    use dfccl_transport::LinkModel as TLinkModel;
    use gpu_sim::GpuSpec;
    use std::time::Duration as StdDuration;

    let n = 4;
    let count = 64; // per-peer slice; chunk 8 -> 8 chunks per slice
    let config = DfcclConfig {
        chunk_elems: 8,
        connector_capacity: 1,
        ..DfcclConfig::preemption_stress()
    };
    let domain = DfcclDomain::new(
        Topology::flat(n),
        TLinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let ranks: Vec<_> = (0..n)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    for ctx in &ranks {
        ctx.register_all_to_all(1, count, DataType::F32, gpus(n), 0)
            .unwrap();
        assert_eq!(ctx.algorithm_of(1), Some(AlgorithmKind::Pairwise));
    }
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| {
            (0..count * n)
                .map(|i| ((r * 53 + i * 11) % 251) as f32)
                .collect()
        })
        .collect();
    let invocations = 3u64;
    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for _ in 0..invocations {
        for (g, ctx) in ranks.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&inputs[g]);
            let recv = DeviceBuffer::zeroed(count * n * 4);
            recvs.push((g, recv.clone()));
            handles.push(ctx.run_awaitable(1, send, recv).unwrap());
        }
    }
    for h in &handles {
        assert!(
            h.wait_for_timeout(1, StdDuration::from_secs(60)),
            "preemption storm wedged an all-to-all"
        );
    }
    for (rank, recv) in &recvs {
        assert_eq!(
            recv.to_f32_vec(),
            alltoall_oracle(&inputs, count, *rank),
            "rank {rank}"
        );
    }
    let preemptions: u64 = ranks.iter().map(|c| c.stats().preemptions).sum();
    assert!(
        preemptions > 0,
        "the storm configuration must actually preempt mid-plan"
    );
    for ctx in ranks {
        assert!(ctx.collective_errors().is_empty());
        ctx.destroy();
    }
}

#[test]
fn preemption_storm_with_striped_channels_saves_and_restores_every_channel() {
    // The K > 1 preemption contract: a 4-poll spin threshold over 1-slot
    // connectors suspends striped plans mid-flight constantly, so the
    // per-channel staging slots must be saved and restored with the dynamic
    // context across every preemption. Both a dense-mesh all-to-all and a
    // ring all-reduce run striped over 3 channels; results must be exact and
    // preemptions must actually have happened.
    use dfccl::{DfcclConfig, DfcclDomain};
    use dfccl_transport::LinkModel as TLinkModel;
    use gpu_sim::GpuSpec;
    use std::time::Duration as StdDuration;

    let n = 4;
    let count = 60; // per-peer slice; chunk 4 -> 15 chunks striped over 3 channels
    let config = DfcclConfig {
        chunk_elems: 4,
        connector_capacity: 1,
        ..DfcclConfig::preemption_stress()
    };
    let domain = DfcclDomain::new(
        Topology::flat(n),
        TLinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let ranks: Vec<_> = (0..n)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    for ctx in &ranks {
        ctx.register(
            1,
            CollectiveDescriptor::all_to_all(count, DataType::F32, gpus(n)).with_channels(3),
        )
        .unwrap();
        // One lane of 3 channels per shift.
        assert_eq!(
            ctx.channels_of(1),
            Some((n - 1) * 3),
            "all-to-all must stripe"
        );
        ctx.register(
            2,
            CollectiveDescriptor::all_reduce(count * n, DataType::F32, ReduceOp::Sum, gpus(n))
                .with_channels(3),
        )
        .unwrap();
        assert_eq!(ctx.channels_of(2), Some(3), "all-reduce must stripe");
    }
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| {
            (0..count * n)
                .map(|i| ((r * 53 + i * 11) % 251) as f32)
                .collect()
        })
        .collect();
    let invocations = 2u64;
    let mut handles = Vec::new();
    let mut a2a_recvs = Vec::new();
    let mut ar_recvs = Vec::new();
    for _ in 0..invocations {
        for (g, ctx) in ranks.iter().enumerate() {
            let recv = DeviceBuffer::zeroed(count * n * 4);
            a2a_recvs.push((g, recv.clone()));
            handles.push(
                ctx.run_awaitable(1, DeviceBuffer::from_f32(&inputs[g]), recv)
                    .unwrap(),
            );
            let recv = DeviceBuffer::zeroed(count * n * 4);
            ar_recvs.push(recv.clone());
            handles.push(
                ctx.run_awaitable(2, DeviceBuffer::from_f32(&inputs[g]), recv)
                    .unwrap(),
            );
        }
    }
    for h in &handles {
        assert!(
            h.wait_for_timeout(1, StdDuration::from_secs(60)),
            "striped preemption storm wedged a collective"
        );
    }
    for (rank, recv) in &a2a_recvs {
        assert_eq!(
            recv.to_f32_vec(),
            alltoall_oracle(&inputs, count, *rank),
            "all-to-all rank {rank}"
        );
    }
    let expected_sum: Vec<f32> = (0..count * n)
        .map(|i| (0..n).map(|r| inputs[r][i]).sum())
        .collect();
    for recv in &ar_recvs {
        assert_eq!(recv.to_f32_vec(), expected_sum, "striped all-reduce sum");
    }
    let preemptions: u64 = ranks.iter().map(|c| c.stats().preemptions).sum();
    assert!(
        preemptions > 0,
        "the storm configuration must actually preempt mid-plan"
    );
    for ctx in ranks {
        assert!(ctx.collective_errors().is_empty());
        ctx.destroy();
    }
}

#[test]
fn hierarchical_beats_flat_ring_across_nodes_on_large_payloads() {
    // Two eight-GPU servers: the flat ring crosses the slow inter-node fabric
    // with the full 2(n-1)/n volume; the hierarchical schedule confines all
    // but 1/k-th of it to the intra-node links.
    let n = 16;
    let topo = Topology::two_eight_gpu_servers();
    let desc = descriptor_for(CollectiveKind::AllReduce, 1 << 20, n);
    let ring = estimate_us(&desc, AlgorithmKind::Ring, &topo);
    let hier = estimate_us(&desc, AlgorithmKind::Hierarchical, &topo);
    assert!(
        hier < ring,
        "hierarchical must win multi-node large payloads: hier {hier}us vs ring {ring}us"
    );
}
