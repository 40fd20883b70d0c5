//! Regenerates **Fig. 11**: the effect of the adaptive spin-threshold policy.
//!
//! ResNet-50 data-parallel training on four GPUs is run twice with DFCCL:
//! once with the naive fixed spin threshold (10,000 polls, never adjusted) and
//! once with the adaptive stickiness policy (front of queue gets 100,000,
//! twenty-fold raise after a successful primitive). For each run the harness
//! prints, per collective id, the number of context switches (preemptions) and
//! the task-queue length observed when its SQE was fetched, plus the achieved
//! wall-clock throughput and the modelled context load/save time the ranks'
//! ledgers accrued. The paper's observation to reproduce: the naive policy shows
//! spiky context-switch counts / queue lengths and a throughput collapse, the
//! adaptive policy flattens both.
//!
//! ```text
//! cargo run --release -p dfccl-bench --bin fig11_adaptive_scheduling -- [--iterations 10]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl::{DfcclConfig, DfcclDomain, SpinPolicy};
use dfccl_bench::{arg_num, fmt_us, print_row};
use dfccl_collectives::DeviceBuffer;
use dfccl_transport::{LinkModel, Topology};
use dfccl_workloads::{data_parallel_plan, DnnModel};
use gpu_sim::{GpuId, GpuSpec};

const GPUS: usize = 4;

/// One run's wall throughput, the modelled context load/save time its ranks
/// accrued, and GPU 0's per-collective rows.
fn run(
    policy: SpinPolicy,
    iterations: usize,
    batch: usize,
) -> (f64, Duration, Vec<(u64, u64, u64)>) {
    let model = DnnModel::resnet50();
    let devices: Vec<GpuId> = (0..GPUS).map(GpuId).collect();
    let plan = data_parallel_plan(&model, &devices, batch);
    let domain = DfcclDomain::new(
        Topology::single_server(),
        LinkModel::table2_compressed(1_000.0),
        GpuSpec::rtx_3090(),
        DfcclConfig {
            spin: policy,
            ..DfcclConfig::default()
        },
    );
    let ranks: Vec<Arc<dfccl::RankCtx>> = devices
        .iter()
        .map(|&g| Arc::new(domain.init_rank(g).unwrap()))
        .collect();
    for pc in &plan.collectives {
        for rank in &ranks {
            rank.register(pc.coll_id, pc.desc.clone()).unwrap();
        }
    }
    let start = Instant::now();
    let mut joins = Vec::new();
    for (gpu_idx, rank) in ranks.iter().enumerate() {
        let rank = Arc::clone(rank);
        let plan = plan.clone();
        joins.push(std::thread::spawn(move || {
            for iter in 0..iterations {
                let mut handles = Vec::new();
                for (k, &ci) in plan.ready_order[gpu_idx].iter().enumerate() {
                    let pc = &plan.collectives[ci];
                    // GPU 2 lags slightly behind the others, the trigger of the
                    // Fig. 11 spike under the naive policy.
                    if gpu_idx == 2 && k == 0 && iter == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    let send = DeviceBuffer::zeroed(pc.desc.send_bytes(gpu_idx));
                    let recv = DeviceBuffer::zeroed(pc.desc.recv_bytes(gpu_idx));
                    handles.push(rank.run_awaitable(pc.coll_id, send, recv).unwrap());
                }
                for h in handles {
                    h.wait_for(1);
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let elapsed = start.elapsed();
    let samples = batch * GPUS * iterations;
    let throughput = samples as f64 / elapsed.as_secs_f64();

    let per_coll = ranks[0].per_collective_stats();
    let mut rows: Vec<(u64, u64, u64)> = per_coll
        .iter()
        .map(|(&id, s)| (id, s.preemptions, s.queue_len_at_fetch))
        .collect();
    rows.sort_unstable();
    let context_time = ranks.iter().map(|r| r.modelled_context_time()).sum();
    for rank in ranks {
        rank.destroy();
    }
    (throughput, context_time, rows)
}

fn main() {
    let iterations: usize = arg_num("--iterations", 10);
    let batch: usize = arg_num("--batch", 96);

    println!(
        "Fig. 11 — impact of the adaptive spin-threshold policy (ResNet-50 DP, {GPUS} GPUs)\n"
    );
    let naive = run(SpinPolicy::naive_fixed(), iterations, batch);
    let adaptive = run(SpinPolicy::adaptive_default(), iterations, batch);

    println!(
        "throughput: naive fixed threshold = {:.1} samples/s, adaptive = {:.1} samples/s ({:.2}x)",
        naive.0,
        adaptive.0,
        adaptive.0 / naive.0.max(1e-9)
    );
    println!(
        "modelled context load/save time, all GPUs: naive = {} µs, adaptive = {} µs",
        fmt_us(naive.1),
        fmt_us(adaptive.1)
    );
    println!("\nper-collective statistics on GPU 0 (collective id, context switches, task-queue length at fetch):");
    let widths = [14, 22, 22, 22, 22];
    print_row(
        &[
            "collective".into(),
            "naive ctx switches".into(),
            "naive queue len".into(),
            "adaptive ctx switches".into(),
            "adaptive queue len".into(),
        ],
        &widths,
    );
    let adaptive_map: std::collections::HashMap<u64, (u64, u64)> =
        adaptive.2.iter().map(|&(id, p, q)| (id, (p, q))).collect();
    let mut naive_max = 0u64;
    let mut adaptive_max = 0u64;
    for (id, preempt, qlen) in &naive.2 {
        let (ap, aq) = adaptive_map.get(id).copied().unwrap_or((0, 0));
        naive_max = naive_max.max(*preempt);
        adaptive_max = adaptive_max.max(ap);
        print_row(
            &[
                id.to_string(),
                preempt.to_string(),
                qlen.to_string(),
                ap.to_string(),
                aq.to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\npeak context switches per collective: naive = {naive_max}, adaptive = {adaptive_max}"
    );
    println!("Expected shape: the adaptive policy removes the naive policy's spikes and raises throughput.");
}
