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

use std::collections::BTreeMap;
use std::time::Duration;

use dfccl::{DfcclConfig, RankCtx, SpinPolicy};
use dfccl_bench::{arg_num, fmt_us, print_row};
use dfccl_transport::{LinkModel, Topology};
use dfccl_workloads::{data_parallel_plan, BackendKind, DnnModel, Run};
use gpu_sim::{GpuId, StreamId};

const GPUS: usize = 4;

/// GPU 0's context switches and task-queue length at fetch, per collective.
type Rows = BTreeMap<u64, (u64, u64)>;

/// One run's wall throughput, the modelled context load/save time its ranks
/// accrued, and GPU 0's per-collective rows.
fn run(policy: SpinPolicy, iterations: usize, batch: usize) -> (f64, Duration, Rows) {
    let model = DnnModel::resnet50();
    let devices: Vec<GpuId> = (0..GPUS).map(GpuId).collect();
    let plan = data_parallel_plan(&model, &devices, batch);
    let run = Run {
        backend: BackendKind::Dfccl,
        gpus: &devices,
        topology: Topology::single_server(),
        links: LinkModel::table2_compressed(1_000.0),
        config: DfcclConfig {
            spin: policy,
            ..DfcclConfig::default()
        },
        collectives: plan
            .collectives
            .iter()
            .map(|pc| (pc.coll_id, pc.desc.clone()))
            .collect(),
        iterations,
    };
    let read = |ranks: &[&RankCtx]| {
        let stats = ranks[0].per_collective_stats();
        let rows = stats
            .iter()
            .map(|(&id, s)| (id, (s.preemptions, s.queue_len_at_fetch)));
        let context_time = ranks.iter().map(|r| r.modelled_context_time()).sum();
        (context_time, rows.collect())
    };
    let body = |it: &dfccl_workloads::Iteration<'_>| {
        let mut submitted = Vec::new();
        for (k, &ci) in plan.ready_order[it.gpu].iter().enumerate() {
            // GPU 2 lags slightly behind the others, the trigger of the
            // Fig. 11 spike under the naive policy.
            if (it.gpu, k, it.iteration) == (2, 0, 0) {
                std::thread::sleep(Duration::from_millis(2));
            }
            submitted.push(it.submit(plan.collectives[ci].coll_id, StreamId(1)));
        }
        for s in submitted {
            it.wait(s);
        }
    };
    let (times, (context_time, rows)) = run.drive(body, read).expect("DFCCL never deadlocks");
    let elapsed: Duration = times.iter().sum();
    let samples = batch * GPUS * iterations;
    let throughput = samples as f64 / elapsed.as_secs_f64();
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
    let mut naive_max = 0u64;
    let mut adaptive_max = 0u64;
    for (id, (preempt, qlen)) in &naive.2 {
        let (ap, aq) = adaptive.2.get(id).copied().unwrap_or((0, 0));
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
