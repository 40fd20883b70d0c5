//! The compilation layer's integration contract: compiled per-channel
//! programs execute bit-identically to the reference oracle across every
//! algorithm family × collective kind × rank count × channel count, a
//! stalled lane never blocks a ready one, lane cursors survive preemption
//! storms, the plan cache serves repeat registrations end to end, and the
//! benchmark's plan rebuild reproduces every plan its workloads register.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{
    descriptor_for, family_matrix, gpus, inputs_for, plans_for, run_compiled, run_reference,
};
use dfccl_collectives::{
    algorithm, AlgorithmKind, CollectiveDescriptor, CollectiveKind, CompiledProgram, DataType,
    DeviceBuffer, LanePass, LaneRun, ReduceOp,
};
use dfccl_transport::{ChannelId, Communicator, CommunicatorId, LinkModel, Topology};
use gpu_sim::{EdgeWait, GpuId, WaitSide};

#[test]
fn compiled_execution_is_bit_identical_to_interpreted_for_every_family() {
    // Every algorithm family × collective kind × rank count 2–8 × channel
    // count K ∈ {1, 2, 3} completes through the compiled per-channel lanes
    // at connector capacity 1 and produces results bit-identical to the
    // single-threaded oracle interpreting the same plans. The chunk size (3)
    // is far below the per-slice element counts, so every schedule genuinely
    // stripes across all K channels, and capacity 1 means any lane-ordering
    // mistake wedges rather than merely slowing down. Each rank runs
    // lane passes on its own thread, as the NCCL-like baseline kernel does
    // one pass per poll (no preemption).
    // 17 elements: uneven slices, partial chunks. 13: on two local ranks the
    // hierarchical slices are 3 and 2 chunks, so one slice has a block the
    // other lacks, and both ends of every edge must skip it alike.
    let link = LinkModel::zero_cost();
    let chunk_elems = 3;
    for count in [17, 13] {
        for n in 2..=8usize {
            for (desc, algo, topo) in family_matrix(n, count) {
                let inputs = inputs_for(&desc);
                for k in [1usize, 2, 3] {
                    let plans = plans_for(&desc, algo, &topo, chunk_elems, k);
                    let oracle = run_reference(&desc, &plans, &inputs);
                    let compiled = run_compiled(&desc, &plans, &topo, &link, &inputs, 1);
                    assert_eq!(
                        compiled, oracle,
                        "{algo} {} {count} elements n={n} K={k}: compiled diverges from the oracle",
                        desc.kind
                    );
                }
            }
        }
    }
}

#[test]
fn a_stalled_lane_never_blocks_ready_lanes() {
    // Single-threaded lane passes, the loop both stacks run: rank 0's
    // striped sender program over 1-slot connectors, with the peer draining
    // only channels 1 and 2. The channel-0 lane stalls after its first send
    // fills the connector; the other lanes must drain to completion
    // regardless — the head-of-line independence a single global step
    // cursor cannot provide.
    let n = 2;
    let count = 12; // chunk 1 × K=3 → 4 sends per lane
    let desc = descriptor_for(CollectiveKind::SendRecv, count, n);
    let topo = Topology::flat(n);
    let plan = algorithm(AlgorithmKind::Pairwise)
        .build_plan_striped(&desc, 0, 1, 3, &topo)
        .unwrap();
    plan.validate(0, n).unwrap();
    let comm = Communicator::new(
        CommunicatorId(0),
        desc.devices.clone(),
        &Arc::new(topo),
        &Arc::new(LinkModel::zero_cost()),
        1,
    )
    .unwrap();
    let channels0 = comm
        .channels(0, plan.send_edges(), plan.recv_edges())
        .unwrap();
    let program = CompiledProgram::compile(&plan, desc.dtype);
    let table = program.bind(&channels0).unwrap();
    assert_eq!(program.lane_count(), 3, "the sender stripes over 3 lanes");

    let recv_edges: Vec<(usize, ChannelId)> = (0..3).map(|c| (0usize, ChannelId(c))).collect();
    let channels1 = comm.channels(1, &[], &recv_edges).unwrap();

    let send = DeviceBuffer::from_f32(&(0..count).map(|i| i as f32).collect::<Vec<_>>());
    let recv = DeviceBuffer::zeroed(4);
    let mut run = LaneRun::default();
    let mut drained = [0usize; 3];
    let mut last = None;
    for _ in 0..100 {
        last = Some(run.pass(7, &program, &table, None, &send, &recv).unwrap());
        // The peer drains channels 1 and 2 only; channel 0 stays wedged.
        for c in [1u32, 2] {
            while channels1
                .recv_on(0, ChannelId(c))
                .unwrap()
                .try_recv()
                .is_some()
            {
                drained[c as usize] += 1;
            }
        }
    }
    assert_eq!(last, Some(LanePass::Stuck), "the run cannot finish");
    assert_eq!(
        drained[1..],
        [4, 4],
        "lanes 1 and 2 must drain despite the stalled channel-0 lane"
    );
    let ch0 = channels1.recv_on(0, ChannelId(0)).unwrap();
    assert_eq!(ch0.len(), 1, "the stalled lane sent its first chunk only");
    let mut waits = Vec::new();
    run.waits(&program, &table, &desc.devices, &mut waits);
    assert_eq!(
        waits,
        [EdgeWait {
            peer: GpuId(1),
            channel: 0,
            side: WaitSide::Send,
        }],
        "only the channel-0 lane is left, behind its full 1-slot connector"
    );
}

#[test]
fn preemption_storm_restores_lane_cursors_bit_exactly() {
    // The lane-cursor save/restore contract: a 4-poll spin threshold over
    // 1-slot connectors suspends striped collectives mid-flight constantly,
    // so every preemption saves the per-lane cursors (and per-channel staged
    // chunks) and every reschedule resumes them. The results must match a
    // host-computed oracle, and the storm must actually preempt.
    use dfccl::{DfcclConfig, DfcclDomain};
    use gpu_sim::GpuSpec;

    let n = 4;
    let count = 60; // chunk 4 → 15 chunks striped over 3 channels
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| {
            (0..count * n)
                .map(|i| ((r * 53 + i * 11) % 251) as f32)
                .collect()
        })
        .collect();
    // All-to-all transposes slices (rank g ends with everyone's slice g in
    // source order); all-reduce sums element-wise (small integers: exact).
    let transposed = |g: usize| -> Vec<f32> {
        inputs
            .iter()
            .flat_map(|src| src[g * count..(g + 1) * count].to_vec())
            .collect()
    };
    let summed: Vec<f32> = (0..count * n)
        .map(|i| inputs.iter().map(|src| src[i]).sum())
        .collect();

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
    let ranks: Vec<_> = (0..n)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    for ctx in &ranks {
        ctx.register(
            1,
            CollectiveDescriptor::all_to_all(count, DataType::F32, gpus(n)).with_channels(3),
        )
        .unwrap();
        ctx.register(
            2,
            CollectiveDescriptor::all_reduce(count * n, DataType::F32, ReduceOp::Sum, gpus(n))
                .with_channels(3),
        )
        .unwrap();
    }
    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for _ in 0..2 {
        for (g, ctx) in ranks.iter().enumerate() {
            for coll in [1u64, 2] {
                let recv = DeviceBuffer::zeroed(count * n * 4);
                recvs.push((g, coll, recv.clone()));
                handles.push(
                    ctx.run_awaitable(coll, DeviceBuffer::from_f32(&inputs[g]), recv)
                        .unwrap(),
                );
            }
        }
    }
    for h in &handles {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(60)),
            "storm wedged"
        );
    }
    let preemptions: u64 = ranks.iter().map(|c| c.stats().preemptions).sum();
    assert!(preemptions > 0, "the storm must actually preempt mid-plan");
    for ctx in ranks {
        assert!(ctx.collective_errors().is_empty());
        ctx.destroy();
    }
    for (g, coll, recv) in &recvs {
        let expected = if *coll == 1 {
            transposed(*g)
        } else {
            summed.clone()
        };
        assert_eq!(recv.to_f32_vec(), expected, "rank {g} coll {coll}");
    }
}

#[test]
fn plan_cache_serves_repeat_registrations_through_the_full_stack() {
    use dfccl::DfcclDomain;

    let domain = DfcclDomain::flat_for_testing(2);
    let count = 32;
    let ranks: Vec<_> = (0..2)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    // Four registrations of one shape (2 collective ids × 2 ranks): the
    // first builds, the remaining three hit the cache.
    for ctx in &ranks {
        for coll in [1u64, 2] {
            ctx.register_all_reduce(coll, count, DataType::F32, ReduceOp::Sum, gpus(2), 0)
                .unwrap();
        }
    }
    assert_eq!(
        domain.plan_cache().misses(),
        1,
        "one selection and build per shape, for every member"
    );
    assert_eq!(domain.plan_cache().hits(), 3, "repeat shapes are served");

    // Cache-served registrations execute correctly end to end.
    for coll in [1u64, 2] {
        let mut handles = Vec::new();
        let mut recvs = Vec::new();
        for (g, ctx) in ranks.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&vec![(g + 1) as f32; count]);
            let recv = DeviceBuffer::zeroed(count * 4);
            recvs.push(recv.clone());
            handles.push(ctx.run_awaitable(coll, send, recv).unwrap());
        }
        for h in &handles {
            assert!(h.wait_for_timeout(1, Duration::from_secs(20)));
        }
        for recv in &recvs {
            assert_eq!(recv.to_f32_vec(), vec![3.0f32; count], "coll {coll}");
        }
    }
    for ctx in ranks {
        assert!(ctx.collective_errors().is_empty());
        ctx.destroy();
    }
}

#[test]
fn the_benchmark_rebuild_reproduces_every_registered_plan() {
    // Every shape the repository benchmark's five workloads register, at the
    // default config's chunk cap: each member's cached plan (what
    // registration runs) is step for step the plan `build_plan` rebuilds
    // (what `modelled_cost_per_op` estimates), and every member's plan is
    // the one (family, chunk) choice's.
    use dfccl::DfcclConfig;
    use dfccl_collectives::PlanCache;

    let cap = DfcclConfig::default().chunk_elems;
    let sel = DfcclConfig::default().algorithm_selector();
    let ar = |count, members: &[usize]| {
        let devices = members.iter().map(|&m| GpuId(m)).collect();
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices)
    };
    let all = [0, 1, 2, 3];
    let disorder = 4096;
    let shapes: Vec<(&str, CollectiveDescriptor, Topology)> = vec![
        ("small_unloaded 64 B", ar(16, &[0, 1]), Topology::flat(2)),
        ("small_pipelined 64 B", ar(16, &all), Topology::flat(4)),
        (
            "large_bandwidth 4 MiB",
            ar(1 << 20, &all),
            Topology::uniform_cluster(2, 2),
        ),
        (
            "disorder all-to-all",
            CollectiveDescriptor::all_to_all(disorder / 4, DataType::F32, gpus(4)),
            Topology::flat(4),
        ),
        (
            "disorder all-reduce 0-3",
            ar(disorder, &all),
            Topology::flat(4),
        ),
        (
            "disorder all-reduce 0,1",
            ar(disorder, &[0, 1]),
            Topology::flat(4),
        ),
        (
            "disorder all-reduce 2,3",
            ar(disorder, &[2, 3]),
            Topology::flat(4),
        ),
        (
            "disorder all-reduce 1,2",
            ar(disorder, &[1, 2]),
            Topology::flat(4),
        ),
        (
            "disorder all-reduce 0,3",
            ar(disorder, &[0, 3]),
            Topology::flat(4),
        ),
        (
            "disorder all-gather",
            CollectiveDescriptor::all_gather(disorder, DataType::F32, vec![GpuId(0), GpuId(2)]),
            Topology::flat(4),
        ),
        (
            "disorder broadcast",
            CollectiveDescriptor::broadcast(disorder, DataType::F32, 0, vec![GpuId(1), GpuId(3)]),
            Topology::flat(4),
        ),
        ("ddp_replay 256 KiB", ar(64 * 1024, &all), Topology::flat(4)),
        ("ddp_replay 4 KiB", ar(1024, &all), Topology::flat(4)),
        (
            "ddp_replay fused 2 240 KiB",
            ar(560 * 1024, &all),
            Topology::flat(4),
        ),
    ];
    for (name, desc, topo) in &shapes {
        let (kind, chunk) = sel.choose(desc, cap, topo);
        let cache = PlanCache::new();
        for rank in 0..desc.num_ranks() {
            let registered = cache
                .get_or_compile(&sel, desc, rank, cap, topo)
                .unwrap()
                .plan;
            let rebuilt = sel.build_plan(desc, rank, cap, topo).unwrap();
            assert_eq!(*registered, rebuilt, "{name} rank {rank}");
            let chosen = algorithm(kind)
                .build_plan_striped(desc, rank, chunk, 1, topo)
                .unwrap();
            assert_eq!(rebuilt, chosen, "{name} rank {rank}: {kind}@{chunk}");
        }
        assert_eq!(cache.misses(), 1, "{name}: one choice per shape");
    }
    // Where the chunk choice lands: the fused ring sends one 512 Ki chunk
    // per slice, the 4 MiB all-reduce across nodes stays hierarchical at
    // 32 Ki, and a 64 B one fits the first rung.
    let choice = |i: usize| sel.choose(&shapes[i].1, cap, &shapes[i].2);
    assert_eq!(choice(13), (AlgorithmKind::Ring, 512 * 1024));
    assert_eq!(choice(2), (AlgorithmKind::Hierarchical, 32 * 1024));
    assert_eq!(choice(1), (AlgorithmKind::Pairwise, 32 * 1024));
}
