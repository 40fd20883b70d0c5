//! Regenerates **Fig. 7** (workload-independent time overheads) and the
//! **Sec. 6.2** memory-overhead accounting.
//!
//! * Fig. 7(b): mean modelled SQE-read time, preparing overhead and CQE-write
//!   time the daemon accrued while running all-reduces on eight GPUs.
//! * Fig. 7(c): the modelled time to write one CQE to each of the three
//!   completion-queue designs, from each design's own cost formula.
//! * Sec. 6.2: shared/global memory reserved by the daemon kernel.
//!
//! ```text
//! cargo run --release -p dfccl-bench --bin fig7_overheads -- [--iterations 50]
//! ```

use dfccl::{build_cq, CqVariant, DfcclConfig, HostMemCosts};
use dfccl_bench::{arg_num, fmt_us};
use dfccl_collectives::{CollectiveDescriptor, DataType, ReduceOp};
use dfccl_transport::{LinkModel, Topology};
use dfccl_workloads::{BackendKind, Run};
use gpu_sim::{GpuId, StreamId};

const GPUS: usize = 8;

fn main() {
    let iterations: usize = arg_num("--iterations", 50);

    println!(
        "Fig. 7(b) — workload-independent time overheads, modelled (all-reduce on {GPUS} GPUs)\n"
    );
    let devices: Vec<GpuId> = (0..GPUS).map(GpuId).collect();
    let count = 64 * 1024;
    let config = DfcclConfig::default();
    let run = Run {
        backend: BackendKind::Dfccl,
        gpus: &devices,
        topology: Topology::single_server(),
        links: LinkModel::table2_compressed(500.0),
        config: config.clone(),
        collectives: vec![(
            1,
            CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices.clone()),
        )],
        iterations,
    };
    let read = |ranks: &[&dfccl::RankCtx]| (ranks[0].stats(), ranks[0].memory_usage());
    let (_, (stats, usage)) = run
        .drive(|it| it.wait(it.submit(1, StreamId(1))), read)
        .expect("DFCCL never deadlocks");
    println!("  modelled on GPU 0 over {iterations} iterations (paper: 5.3 / 1.2 / 2.0 µs):");
    for (name, mean) in [
        ("read SQE:", stats.mean_sqe_read),
        ("preparing overheads:", stats.mean_preparing),
        ("write CQE:", stats.mean_cqe_write),
    ] {
        let mean = mean.map(fmt_us).unwrap_or_else(|| "-".into());
        println!("    {name:21}{mean} µs");
    }

    println!("\nSec. 6.2 — workload-independent memory overheads");
    println!(
        "    shared memory per block (task queue + active context slots): {} KB",
        config.shared_mem_per_block / 1024
    );
    println!(
        "    global memory (context buffer x {} blocks + shared bookkeeping): {:.1} MB",
        config.daemon_blocks,
        usage.global_allocated as f64 / (1024.0 * 1024.0)
    );

    println!("\nFig. 7(c) — time to write one CQE to the three CQ designs");
    println!("  (modelled host-memory costs; paper: 6.9 / 4.8 / 2.0 µs)");
    for (name, variant) in [
        ("vanilla ring-buffer CQ", CqVariant::VanillaRing),
        ("optimized ring-buffer CQ", CqVariant::OptimizedRing),
        ("optimized CQ", CqVariant::OptimizedSlot),
    ] {
        let cq = build_cq(variant, 1, HostMemCosts::default());
        println!("    {:28} {} µs", name, fmt_us(cq.write_cost(1)));
    }
}
