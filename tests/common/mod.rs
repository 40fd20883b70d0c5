//! Shared by the integration tests that run every rank's schedule through
//! the compiled executor and check it against the single-threaded oracle.

pub mod oracle;

use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl_collectives::{
    algorithm, AlgorithmKind, CollectiveDescriptor, CollectiveKind, CompiledProgram, DataType,
    DeviceBuffer, LanePass, LaneRun, Plan, ReduceOp,
};
use dfccl_transport::{Communicator, CommunicatorId, LinkModel, Topology};
use gpu_sim::GpuId;

pub fn gpus(n: usize) -> Vec<GpuId> {
    (0..n).map(GpuId).collect()
}

/// A descriptor of `kind` over `n` ranks (send/recv always has two); rooted
/// kinds use the last rank as root.
pub fn descriptor_for(kind: CollectiveKind, count: usize, n: usize) -> CollectiveDescriptor {
    match kind {
        CollectiveKind::AllReduce => {
            CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
        }
        CollectiveKind::AllGather => {
            CollectiveDescriptor::all_gather(count, DataType::F32, gpus(n))
        }
        CollectiveKind::ReduceScatter => {
            CollectiveDescriptor::reduce_scatter(count, DataType::F32, ReduceOp::Sum, gpus(n))
        }
        CollectiveKind::Reduce => {
            CollectiveDescriptor::reduce(count, DataType::F32, ReduceOp::Sum, n - 1, gpus(n))
        }
        CollectiveKind::Broadcast => {
            CollectiveDescriptor::broadcast(count, DataType::F32, n - 1, gpus(n))
        }
        CollectiveKind::AllToAll => CollectiveDescriptor::all_to_all(count, DataType::F32, gpus(n)),
        CollectiveKind::SendRecv => {
            CollectiveDescriptor::send_recv(count, DataType::F32, GpuId(0), GpuId(1))
        }
    }
}

/// Integer-valued inputs: every reduction association is exact in f32, so
/// results must be bit-identical across plan shapes and execution paths.
pub fn inputs_for(desc: &CollectiveDescriptor) -> Vec<Vec<f32>> {
    (0..desc.num_ranks())
        .map(|r| {
            (0..desc.send_elems(r))
                .map(|i| ((r * 31 + i * 7) % 101) as f32)
                .collect()
        })
        .collect()
}

/// The multi-node splits of `n` the hierarchical algorithm can run on.
pub fn hierarchical_splits(n: usize) -> Vec<Topology> {
    (2..=n)
        .filter(|d| n.is_multiple_of(*d))
        .map(|d| Topology::uniform_cluster(d, n / d))
        .collect()
}

/// Every (descriptor, family, topology) the schedule generators support at
/// `n` ranks: ring for the classic kinds, pairwise for the dense-mesh ones
/// and for all-reduce on a power of two, tree for all-reduce and broadcast,
/// hierarchical for all-reduce over every uniform multi-node split.
pub fn family_matrix(
    n: usize,
    count: usize,
) -> Vec<(CollectiveDescriptor, AlgorithmKind, Topology)> {
    let mut jobs = Vec::new();
    for kind in CollectiveKind::ALL {
        let desc = descriptor_for(kind, count, n);
        let algo = match kind {
            CollectiveKind::AllToAll | CollectiveKind::SendRecv => AlgorithmKind::Pairwise,
            _ => AlgorithmKind::Ring,
        };
        let topo = Topology::flat(desc.num_ranks());
        jobs.push((desc, algo, topo));
    }
    if n.is_power_of_two() {
        jobs.push((
            descriptor_for(CollectiveKind::AllReduce, count, n),
            AlgorithmKind::Pairwise,
            Topology::flat(n),
        ));
    }
    for kind in [CollectiveKind::AllReduce, CollectiveKind::Broadcast] {
        jobs.push((
            descriptor_for(kind, count, n),
            AlgorithmKind::DoubleBinaryTree,
            Topology::flat(n),
        ));
    }
    for topo in hierarchical_splits(n) {
        jobs.push((
            descriptor_for(CollectiveKind::AllReduce, count, n),
            AlgorithmKind::Hierarchical,
            topo,
        ));
    }
    jobs
}

/// Every rank's validated plan for `desc` under `algo`, striped across
/// `channels` connectors per edge.
pub fn plans_for(
    desc: &CollectiveDescriptor,
    algo: AlgorithmKind,
    topo: &Topology,
    chunk_elems: usize,
    channels: usize,
) -> Vec<Plan> {
    (0..desc.num_ranks())
        .map(|rank| {
            let plan = algorithm(algo)
                .build_plan_striped(desc, rank, chunk_elems, channels, topo)
                .unwrap();
            plan.validate(rank, desc.num_ranks()).unwrap();
            plan
        })
        .collect()
}

fn recv_buffers(desc: &CollectiveDescriptor) -> Vec<DeviceBuffer> {
    (0..desc.num_ranks())
        .map(|r| DeviceBuffer::zeroed(desc.recv_bytes(r).max(4)))
        .collect()
}

/// Compile every rank's plan and run it on its own thread over one
/// communicator with `capacity` chunk slots per connector. Panics if any
/// rank fails or the world does not finish within a minute.
pub fn run_compiled(
    desc: &CollectiveDescriptor,
    plans: &[Plan],
    topo: &Topology,
    link: &LinkModel,
    inputs: &[Vec<f32>],
    capacity: usize,
) -> Vec<Vec<f32>> {
    let inputs: Vec<Vec<u8>> = inputs
        .iter()
        .map(|i| i.iter().flat_map(|v| v.to_le_bytes()).collect())
        .collect();
    run_compiled_bytes(desc, plans, topo, link, &inputs, capacity)
        .into_iter()
        .map(|out| DeviceBuffer::from_bytes(out).to_f32_vec())
        .collect()
}

/// [`run_compiled`] over raw little-endian inputs of any element type,
/// returning every rank's recv buffer as bytes.
pub fn run_compiled_bytes(
    desc: &CollectiveDescriptor,
    plans: &[Plan],
    topo: &Topology,
    link: &LinkModel,
    inputs: &[Vec<u8>],
    capacity: usize,
) -> Vec<Vec<u8>> {
    let comm = Communicator::new(
        CommunicatorId(0),
        desc.devices.clone(),
        &Arc::new(topo.clone()),
        &Arc::new(link.clone()),
        capacity,
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let recvs = recv_buffers(desc);
    let joins: Vec<_> = plans
        .iter()
        .enumerate()
        .map(|(rank, plan)| {
            let program = CompiledProgram::compile(plan, desc.dtype);
            let channels = comm
                .channels(rank, plan.send_edges(), plan.recv_edges())
                .unwrap();
            let table = program.bind(&channels).unwrap();
            let (op, send, recv) = (
                desc.op,
                DeviceBuffer::from_bytes(inputs[rank].clone()),
                recvs[rank].clone(),
            );
            // One thread per rank, each making lane passes until its program
            // is done, yielding after a stuck pass so its peers' threads run.
            std::thread::spawn(move || {
                let mut run = LaneRun::default();
                loop {
                    match run.pass(7, &program, &table, op, &send, &recv).unwrap() {
                        LanePass::Done => break,
                        LanePass::Moved(_) => {}
                        LanePass::Stuck => std::thread::yield_now(),
                    }
                    assert!(
                        Instant::now() <= deadline,
                        "rank {rank} hit the deadlock deadline"
                    );
                }
            })
        })
        .collect();
    for join in joins {
        join.join().unwrap();
    }
    recvs.iter().map(DeviceBuffer::to_vec).collect()
}

/// Run every rank's plan through the single-threaded reference oracle.
pub fn run_reference(
    desc: &CollectiveDescriptor,
    plans: &[Plan],
    inputs: &[Vec<f32>],
) -> Vec<Vec<f32>> {
    let sends: Vec<DeviceBuffer> = inputs.iter().map(|i| DeviceBuffer::from_f32(i)).collect();
    let recvs = recv_buffers(desc);
    oracle::run_oracle(desc, plans, &sends, &recvs).unwrap();
    recvs.iter().map(DeviceBuffer::to_f32_vec).collect()
}
