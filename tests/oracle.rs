//! The reference oracle checked on its own: per-kind results against
//! closed-form values, and the plan errors it reports instead of hanging.
//! The compiled-vs-oracle sweeps run the same plan on both sides, so these
//! closed-form checks are what catch a schedule generator that is wrong on
//! both.

#[allow(dead_code)]
mod common;

use common::oracle::run_oracle;
use common::{family_matrix, gpus, inputs_for, plans_for, run_reference};
use dfccl_collectives::{
    AlgorithmKind, CollectiveDescriptor, DataType, DeviceBuffer, ElemRange, Plan, PrimitiveKind,
    PrimitiveStep, ReduceOp, SrcBuf,
};
use dfccl_transport::{ChannelId, Topology};
use gpu_sim::GpuId;

/// Run `desc` with `algo` through the oracle and return each rank's recv
/// buffer as f32.
fn run_with(
    desc: &CollectiveDescriptor,
    inputs: &[Vec<f32>],
    chunk: usize,
    algo: AlgorithmKind,
) -> Vec<Vec<f32>> {
    let topo = Topology::flat(desc.num_ranks());
    run_reference(desc, &plans_for(desc, algo, &topo, chunk, 1), inputs)
}

fn run(desc: &CollectiveDescriptor, inputs: &[Vec<f32>], chunk: usize) -> Vec<Vec<f32>> {
    run_with(desc, inputs, chunk, AlgorithmKind::Ring)
}

/// `inputs[r][i] = r * count + i` and their element-wise sum.
fn ramp(n: usize, count: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| (0..count).map(|i| (r * count + i) as f32).collect())
        .collect();
    let sum = (0..count)
        .map(|i| inputs.iter().map(|input| input[i]).sum())
        .collect();
    (inputs, sum)
}

#[test]
fn ring_and_tree_all_reduce_produce_the_sum_on_every_rank() {
    for (algo, n) in [
        (AlgorithmKind::Ring, 4),
        (AlgorithmKind::DoubleBinaryTree, 2),
        (AlgorithmKind::DoubleBinaryTree, 3),
        (AlgorithmKind::DoubleBinaryTree, 5),
        (AlgorithmKind::DoubleBinaryTree, 8),
    ] {
        let count = 37; // not divisible by n: uneven slices
        let desc = CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n));
        let (inputs, sum) = ramp(n, count);
        for (rank, out) in run_with(&desc, &inputs, 8, algo).iter().enumerate() {
            assert_eq!(out, &sum, "{algo} n={n} rank {rank}");
        }
    }
}

#[test]
fn all_reduce_max_on_two_ranks() {
    let desc = CollectiveDescriptor::all_reduce(5, DataType::F32, ReduceOp::Max, gpus(2));
    let inputs = [
        vec![1.0, 9.0, -3.0, 4.0, 0.0],
        vec![2.0, 8.0, -1.0, 4.5, -7.0],
    ];
    let outputs = run(&desc, &inputs, 2);
    assert_eq!(outputs[0], vec![2.0, 9.0, -1.0, 4.5, 0.0]);
    assert_eq!(outputs[1], outputs[0]);
}

#[test]
fn all_gather_concatenates_contributions() {
    let desc = CollectiveDescriptor::all_gather(4, DataType::F32, gpus(3));
    let (inputs, _) = ramp(3, 4);
    for out in run(&desc, &inputs, 3) {
        assert_eq!(out, inputs.concat());
    }
}

#[test]
fn reduce_scatter_gives_each_rank_its_slice() {
    let (n, count) = (3, 5);
    let desc = CollectiveDescriptor::reduce_scatter(count, DataType::F32, ReduceOp::Sum, gpus(n));
    let (inputs, sum) = ramp(n, count * n);
    for (rank, out) in run(&desc, &inputs, 2).iter().enumerate() {
        assert_eq!(
            out[..],
            sum[rank * count..(rank + 1) * count],
            "rank {rank}"
        );
    }
}

#[test]
fn reduce_delivers_the_sum_to_the_root() {
    let (n, count, root) = (4, 6, 2);
    let desc = CollectiveDescriptor::reduce(count, DataType::F32, ReduceOp::Sum, root, gpus(n));
    let (inputs, sum) = ramp(n, count);
    assert_eq!(run(&desc, &inputs, 4)[root], sum);
}

#[test]
fn ring_and_tree_broadcast_copy_the_root_data_everywhere() {
    for (algo, n, root) in [
        (AlgorithmKind::Ring, 4, 1),
        (AlgorithmKind::DoubleBinaryTree, 2, 1),
        (AlgorithmKind::DoubleBinaryTree, 4, 3),
        (AlgorithmKind::DoubleBinaryTree, 7, 6),
    ] {
        let count = 21;
        let desc = CollectiveDescriptor::broadcast(count, DataType::F32, root, gpus(n));
        let payload: Vec<f32> = (0..count).map(|i| i as f32 * 3.0).collect();
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| {
                if r == root {
                    payload.clone()
                } else {
                    vec![-1.0; count]
                }
            })
            .collect();
        for (rank, out) in run_with(&desc, &inputs, 4, algo).iter().enumerate() {
            assert_eq!(out, &payload, "{algo} n={n} rank {rank}");
        }
    }
}

#[test]
fn all_to_all_transposes_slices_across_ranks() {
    let (n, count) = (4, 5);
    let desc = CollectiveDescriptor::all_to_all(count, DataType::F32, gpus(n));
    let (inputs, _) = ramp(n, count * n);
    let outputs = run_with(&desc, &inputs, 2, AlgorithmKind::Pairwise);
    for (rank, out) in outputs.iter().enumerate() {
        let expected: Vec<f32> = inputs
            .iter()
            .flat_map(|src| src[rank * count..(rank + 1) * count].to_vec())
            .collect();
        assert_eq!(out, &expected, "rank {rank}");
    }
}

#[test]
fn send_recv_delivers_the_payload_to_the_receiver() {
    let desc = CollectiveDescriptor::send_recv(9, DataType::F32, GpuId(0), GpuId(1));
    let inputs = [(0..9).map(|i| i as f32 * 1.5).collect::<Vec<f32>>(), vec![]];
    let outputs = run_with(&desc, &inputs, 4, AlgorithmKind::Pairwise);
    assert_eq!(outputs[1], inputs[0]);
}

#[test]
fn every_family_runs_with_a_chunk_size_that_does_not_divide_the_slices() {
    for (desc, algo, topo) in family_matrix(3, 7) {
        let plans = plans_for(&desc, algo, &topo, 3, 1);
        run_reference(&desc, &plans, &inputs_for(&desc));
    }
}

fn step(kind: PrimitiveKind, send_to: Option<usize>, recv_from: Option<usize>) -> PrimitiveStep {
    PrimitiveStep {
        kind,
        src: Some(ElemRange::new(0, 1)).filter(|_| kind == PrimitiveKind::Send),
        src_buf: SrcBuf::Send,
        dst: Some(ElemRange::new(0, 1)).filter(|_| kind == PrimitiveKind::Recv),
        send_to,
        recv_from,
        chunk_index: 0,
        step: 0,
        channel: ChannelId(0),
    }
}

/// Hand-built two-rank worlds over one f32, to reach the oracle's errors.
fn run_pair(plans: [Vec<PrimitiveStep>; 2]) -> Result<(), String> {
    let desc = CollectiveDescriptor::all_reduce(1, DataType::F32, ReduceOp::Sum, gpus(2));
    let plans = plans.map(|steps| Plan::new(AlgorithmKind::Ring, steps));
    let bufs = [DeviceBuffer::zeroed(4), DeviceBuffer::zeroed(4)];
    run_oracle(&desc, &plans, &bufs, &bufs)
}

#[test]
fn plans_that_wait_on_each_other_are_reported_not_hung() {
    let recv_then_send = |peer| {
        vec![
            step(PrimitiveKind::Recv, None, Some(peer)),
            step(PrimitiveKind::Send, Some(peer), None),
        ]
    };
    let err = run_pair([recv_then_send(1), recv_then_send(0)]).unwrap_err();
    assert!(err.contains("no rank can move"), "{err}");
}

#[test]
fn a_chunk_nobody_receives_is_reported() {
    let err = run_pair([vec![step(PrimitiveKind::Send, Some(1), None)], vec![]]).unwrap_err();
    assert!(err.contains("never received"), "{err}");
}

#[test]
fn a_malformed_plan_is_rejected_before_it_runs() {
    let err = run_pair([vec![step(PrimitiveKind::Send, None, None)], vec![]]).unwrap_err();
    assert!(err.contains("malformed"), "{err}");
}
