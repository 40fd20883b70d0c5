//! The compilation layer's integration contract: compiled per-channel
//! programs execute bit-identically to the reference oracle across every
//! algorithm family × collective kind × rank count × channel count, a
//! stalled lane never blocks a ready one, lane cursors survive preemption
//! storms, and the plan cache serves repeat registrations end to end.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{
    descriptor_for, family_matrix, gpus, inputs_for, plans_for, run_compiled, run_reference,
};
use dfccl_collectives::{
    algorithm, execute_ready_instr, instr_ready, AlgorithmKind, CollectiveDescriptor,
    CollectiveKind, CompiledProgram, DataType, DeviceBuffer, PendingSends, ReduceOp, StepOutcome,
};
use dfccl_transport::{ChannelId, Communicator, CommunicatorId, LinkModel, Topology};
use gpu_sim::GpuId;

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
    // Single-threaded lane scheduling: rank 0's striped sender program over
    // 1-slot connectors, with the peer draining only channels 1 and 2. The
    // channel-0 lane stalls after its first send fills the connector; the
    // other lanes must drain to completion regardless — the head-of-line
    // independence a single global step cursor cannot provide.
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
    let mut pending = PendingSends::default();
    let mut cursors = vec![0u32; program.lane_count()];
    for _ in 0..100 {
        for (li, lane) in program.lanes().iter().enumerate() {
            let cur = cursors[li] as usize;
            if cur >= lane.len() {
                continue;
            }
            let idx = lane.instr_ids()[cur];
            if !program.instr_eligible(idx, &cursors)
                || !instr_ready(&program, idx, &table, &pending)
            {
                continue;
            }
            let out =
                execute_ready_instr(7, &program, idx, &table, None, &send, &recv, &mut pending)
                    .unwrap();
            if out == StepOutcome::Completed {
                cursors[li] += 1;
            }
        }
        // The peer drains channels 1 and 2 only; channel 0 stays wedged.
        for c in [1u32, 2] {
            while channels1
                .recv_on(0, ChannelId(c))
                .unwrap()
                .try_recv()
                .is_some()
            {}
        }
    }
    for (li, lane) in program.lanes().iter().enumerate() {
        match lane.channel() {
            ChannelId(0) => assert_eq!(
                cursors[li], 1,
                "the stalled lane sits behind its full 1-slot connector"
            ),
            _ => assert_eq!(
                cursors[li] as usize,
                lane.len(),
                "lane {} must drain despite the stalled channel-0 lane",
                lane.channel()
            ),
        }
    }
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
