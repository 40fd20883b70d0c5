//! Regenerates **Fig. 8**: algorithm bandwidth and end-to-end latency of
//! collectives, DFCCL vs. the NCCL-like baseline, across buffer sizes.
//!
//! Three sub-experiments, as in the paper:
//!   (a) broadcast, 8 GPUs, single server;
//!   (b) all-reduce, 8 GPUs, single server;
//!   (c) all-reduce, 32 GPUs, four servers (pass `--gpus 32`).
//!
//! The absolute numbers come from the modelled link costs (compressed by
//! `--compression`); what must match the paper is the shape — flat
//! latency-dominated region for small buffers, bandwidth saturation for large
//! ones, and DFCCL tracking NCCL within a few percent (slightly worse latency
//! for small buffers, slightly better for large ones).
//!
//! ```text
//! cargo run --release -p dfccl-bench --bin fig8_bandwidth_latency -- \
//!     [--min-bytes 512] [--max-bytes 1048576] [--gpus 8] [--iters 3] [--compression 100]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl::{DfcclConfig, DfcclDomain};
use dfccl_baseline::NcclDomain;
use dfccl_bench::{
    algo_bandwidth_gbps, arg_num, byte_sweep, fmt_bytes, fmt_us, modelled_completion_us, print_row,
};
use dfccl_collectives::{
    estimate_family_ns, AlgorithmKind, AlgorithmSelector, CollectiveDescriptor, CollectiveKind,
    DataType, DeviceBuffer, ReduceOp,
};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{GpuId, GpuSpec, KernelStatus, StreamId};

fn topology_for(gpus: usize) -> Topology {
    match gpus {
        0..=8 => Topology::single_server(),
        9..=16 => Topology::two_servers(),
        _ => Topology::four_servers(),
    }
}

fn descriptor(kind: CollectiveKind, count: usize, devices: Vec<GpuId>) -> CollectiveDescriptor {
    match kind {
        CollectiveKind::Broadcast => {
            CollectiveDescriptor::broadcast(count, DataType::F32, 0, devices)
        }
        _ => CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices),
    }
}

/// One timed DFCCL collective across all ranks; returns wall time.
fn time_dfccl(
    ranks: &[Arc<dfccl::RankCtx>],
    desc: &CollectiveDescriptor,
    iters: usize,
) -> Duration {
    let coll_id = 1u64;
    let start = Instant::now();
    for _ in 0..iters {
        let mut handles = Vec::new();
        for (i, rank) in ranks.iter().enumerate() {
            let send = DeviceBuffer::zeroed(desc.send_bytes(i));
            let recv = DeviceBuffer::zeroed(desc.recv_bytes(i).max(4));
            handles.push(rank.run_awaitable(coll_id, send, recv).unwrap());
        }
        for h in handles {
            h.wait_for(1);
        }
    }
    start.elapsed() / iters as u32
}

/// One timed baseline collective across all ranks; returns wall time.
fn time_nccl(
    ranks: &[Arc<dfccl_baseline::NcclRank>],
    desc: &CollectiveDescriptor,
    iters: usize,
) -> Duration {
    let coll_id = 1u64;
    let start = Instant::now();
    for _ in 0..iters {
        let mut handles = Vec::new();
        for (i, rank) in ranks.iter().enumerate() {
            let send = DeviceBuffer::zeroed(desc.send_bytes(i));
            let recv = DeviceBuffer::zeroed(desc.recv_bytes(i).max(4));
            handles.push(
                rank.launch_collective(coll_id, StreamId(1), send, recv)
                    .unwrap(),
            );
        }
        for h in handles {
            let status = h.wait_timeout(Duration::from_secs(120));
            assert_eq!(status, KernelStatus::Completed, "baseline {}", desc.kind);
        }
    }
    start.elapsed() / iters as u32
}

fn run_panel(kind: CollectiveKind, gpus: usize, sizes: &[usize], iters: usize, compression: f64) {
    let devices: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let link = LinkModel::table2_compressed(compression);
    let topo = topology_for(gpus);

    println!(
        "\n=== {kind} on {gpus} GPUs ({} machines) ===",
        topo.machines().len()
    );
    let widths = [8, 14, 14, 14, 14];
    print_row(
        &[
            "bytes".into(),
            "NCCL bw GB/s".into(),
            "DFCCL bw GB/s".into(),
            "NCCL lat µs".into(),
            "DFCCL lat µs".into(),
        ],
        &widths,
    );

    for &bytes in sizes {
        let count = (bytes / 4).max(1);
        let desc = descriptor(kind, count, devices.clone());

        // DFCCL side.
        let domain = DfcclDomain::new(
            topo.clone(),
            link.clone(),
            GpuSpec::rtx_3090(),
            DfcclConfig::default(),
        );
        let ranks: Vec<Arc<dfccl::RankCtx>> = devices
            .iter()
            .map(|&g| Arc::new(domain.init_rank(g).unwrap()))
            .collect();
        for rank in &ranks {
            rank.register(1, desc.clone()).unwrap();
        }
        let t_dfccl = time_dfccl(&ranks, &desc, iters);
        for rank in &ranks {
            rank.destroy();
        }

        // NCCL-like side, its ring chunked under the same cap.
        let ndomain = NcclDomain::new(
            topo.clone(),
            link.clone(),
            GpuSpec::rtx_3090(),
            DfcclConfig::default().chunk_elems,
        );
        let nranks: Vec<Arc<dfccl_baseline::NcclRank>> = devices
            .iter()
            .map(|&g| Arc::new(ndomain.init_rank(g).unwrap()))
            .collect();
        for rank in &nranks {
            rank.register(1, desc.clone()).unwrap();
        }
        let t_nccl = time_nccl(&nranks, &desc, iters);
        ndomain.shutdown();

        print_row(
            &[
                fmt_bytes(bytes),
                format!("{:.3}", algo_bandwidth_gbps(bytes, t_nccl)),
                format!("{:.3}", algo_bandwidth_gbps(bytes, t_dfccl)),
                fmt_us(t_nccl),
                fmt_us(t_dfccl),
            ],
            &widths,
        );
    }
}

/// The algorithm-family sweep: modelled completion times of the all-reduce
/// under each family at 32 Ki-element chunks (Table 2 link parameters, no
/// time compression), plus the family and chunk the selector picks under the
/// runtime's default chunk cap, with its modelled time — never above the
/// cheapest column, since it minimises the same estimate over the chunk
/// ladder too; where it is below, a larger chunk won. The estimates are
/// deterministic — they show the algorithmic shape even on hosts with fewer
/// cores than simulated GPUs.
fn run_algorithm_panel(gpus: usize, sizes: &[usize]) {
    let topo = if gpus > 8 {
        Topology::two_eight_gpu_servers()
    } else {
        Topology::single_server()
    };
    let devices: Vec<GpuId> = (0..gpus).map(GpuId).collect();
    let selector = AlgorithmSelector::default();
    let cap = DfcclConfig::default().chunk_elems;
    let link = LinkModel::table2_testbed();
    let columns = [
        (AlgorithmKind::Ring, "ring µs"),
        (AlgorithmKind::DoubleBinaryTree, "tree µs"),
        (AlgorithmKind::Hierarchical, "hier µs"),
        (AlgorithmKind::Pairwise, "pairwise µs"),
    ];

    println!("\n=== all-reduce algorithm sweep on {gpus} GPUs (modelled µs) ===");
    let widths = [8, 12, 12, 12, 12, 22];
    let header = std::iter::once("bytes")
        .chain(columns.iter().map(|&(_, label)| label))
        .chain(std::iter::once("selector"))
        .map(String::from)
        .collect::<Vec<_>>();
    print_row(&header, &widths);
    for &bytes in sizes {
        let count = (bytes / 4).max(1);
        let desc =
            CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices.clone());
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |us| format!("{us:.1}"));
        let row = std::iter::once(fmt_bytes(bytes))
            .chain(
                columns
                    .iter()
                    .map(|&(kind, _)| fmt(modelled_completion_us(&desc, kind, &topo))),
            )
            .chain(std::iter::once({
                let (kind, chunk) = selector.choose(&desc, cap, &topo);
                let ns = estimate_family_ns(&desc, kind, chunk, &topo, &link)
                    .expect("the chosen family builds");
                format!("{kind}@{}K {:.1}", chunk / 1024, ns / 1_000.0)
            }))
            .collect::<Vec<_>>();
        print_row(&row, &widths);
    }
}

fn main() {
    let min_bytes: usize = arg_num("--min-bytes", 512);
    let max_bytes: usize = arg_num("--max-bytes", 1 << 20);
    let gpus: usize = arg_num("--gpus", 8);
    let iters: usize = arg_num("--iters", 3);
    let compression: f64 = arg_num("--compression", 100.0);
    let sizes = byte_sweep(min_bytes, max_bytes);

    println!("Fig. 8 — algorithm bandwidth and end-to-end latency vs. buffer size");
    println!("(link model compressed {compression}x; compare shapes, not absolute values)");

    // (a) broadcast on 8 GPUs, (b) all-reduce on 8 GPUs.
    run_panel(
        CollectiveKind::Broadcast,
        gpus.min(8),
        &sizes,
        iters,
        compression,
    );
    run_panel(
        CollectiveKind::AllReduce,
        gpus.min(8),
        &sizes,
        iters,
        compression,
    );
    // (c) all-reduce at scale (32 GPUs across four machines) when requested.
    if gpus > 8 {
        run_panel(CollectiveKind::AllReduce, gpus, &sizes, iters, compression);
    } else {
        println!("\n(pass --gpus 32 for the Fig. 8(c) four-server panel)");
    }

    // (d) the algorithm sweep: every family's modelled time, with the
    // selection policy's choice per payload size.
    run_algorithm_panel(gpus.min(8), &sizes);
    if gpus > 8 {
        run_algorithm_panel(16, &sizes);
    }
}
