//! The training workload: runs a [`TrainingPlan`] for N iterations against
//! either DFCCL or the NCCL-like baseline under a CPU orchestration strategy,
//! and reports per-iteration times / throughput (the quantities plotted in
//! Figs. 10, 12 and 13).
//!
//! Each GPU's iteration, on the per-GPU loop of `driver.rs`: simulated
//! compute (proportional to the plan's compute units), then the GPU's
//! collectives, all in flight before the first wait. DFCCL takes them in
//! the order they become ready, jittered per GPU ([`TrainerConfig`]'s
//! `dfccl_disorder_prob`) — DFCCL tolerates the disorder; the baseline
//! launches them as blocking kernels in the orchestration strategy's
//! imposed order, and pays the strategy's per-iteration coordination cost.

use std::time::Duration;

use dfccl::DfcclConfig;
use dfccl_baseline::StrategyKind;
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::StreamId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::driver::{jitter, Iteration, Run};
use crate::parallelism::TrainingPlan;

/// Which communication backend a training run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// DFCCL (this paper).
    Dfccl,
    /// NCCL-like kernels coordinated by a CPU orchestration strategy.
    NcclOrchestrated(StrategyKind),
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Dfccl => write!(f, "DFCCL"),
            BackendKind::NcclOrchestrated(s) => write!(f, "NCCL + {s}"),
        }
    }
}

/// Trainer configuration.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of training iterations.
    pub iterations: usize,
    /// Wall-clock time charged per compute unit of the plan.
    pub compute_time_per_unit: Duration,
    /// The links' cost model.
    pub links: LinkModel,
    /// Chunk size (elements) for collective plans.
    pub chunk_elems: usize,
    /// With DFCCL, randomly swap adjacent ready collectives on each GPU each
    /// iteration with this probability — the natural invocation disorder that
    /// DFCCL tolerates without CPU orchestration.
    pub dfccl_disorder_prob: f64,
    /// RNG seed for the disorder jitter.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            iterations: 200,
            compute_time_per_unit: Duration::from_nanos(40),
            links: LinkModel::table2_compressed(1_000.0),
            chunk_elems: 32 * 1024,
            dfccl_disorder_prob: 0.05,
            seed: 0xD0F,
        }
    }
}

impl TrainerConfig {
    /// A configuration for fast correctness tests (few iterations, free links).
    pub fn fast_test(iterations: usize) -> Self {
        TrainerConfig {
            iterations,
            compute_time_per_unit: Duration::ZERO,
            links: LinkModel::zero_cost(),
            chunk_elems: 8 * 1024,
            dfccl_disorder_prob: 0.2,
            seed: 7,
        }
    }

    /// GPU `gpu`'s DFCCL submission order in each iteration: `ready`, with
    /// adjacent collectives swapped at `dfccl_disorder_prob`, drawn from one
    /// RNG stream per GPU seeded by `seed`.
    fn dfccl_orders(&self, ready: &[u64], gpu: usize) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ ((gpu as u64) << 32));
        (0..self.iterations)
            .map(|_| {
                let mut order = ready.to_vec();
                jitter(&mut order, self.dfccl_disorder_prob, &mut rng);
                order
            })
            .collect()
    }
}

/// Result of one training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Which backend produced it.
    pub backend: String,
    /// Per-iteration wall-clock times (max across GPUs).
    pub iteration_times: Vec<Duration>,
    /// Samples consumed per iteration (global batch).
    pub samples_per_iteration: usize,
}

impl TrainingReport {
    /// Mean per-iteration time.
    pub fn mean_iteration(&self) -> Duration {
        if self.iteration_times.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.iteration_times.iter().sum();
        total / self.iteration_times.len() as u32
    }

    /// Average training throughput in samples per second.
    pub fn throughput(&self) -> f64 {
        let mean = self.mean_iteration().as_secs_f64();
        if mean == 0.0 {
            return 0.0;
        }
        self.samples_per_iteration as f64 / mean
    }

    /// Coefficient of variation of the per-iteration time (Fig. 13 reports
    /// 1.4-4.3%).
    pub fn coefficient_of_variation(&self) -> f64 {
        let n = self.iteration_times.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_iteration().as_secs_f64();
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .iteration_times
            .iter()
            .map(|t| (t.as_secs_f64() - mean).powi(2))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt() / mean
    }

    /// Average throughput from the start up to each iteration — the curve
    /// style used in Fig. 12.
    pub fn cumulative_throughput(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.iteration_times.len());
        let mut total = Duration::ZERO;
        for (i, t) in self.iteration_times.iter().enumerate() {
            total += *t;
            let mean = total.as_secs_f64() / (i + 1) as f64;
            out.push(if mean > 0.0 {
                self.samples_per_iteration as f64 / mean
            } else {
                0.0
            });
        }
        out
    }
}

/// Run `plan` for the configured number of iterations on the chosen backend.
/// `samples_per_iteration` is the global batch size used for throughput.
pub fn train(
    plan: &TrainingPlan,
    backend: BackendKind,
    cfg: &TrainerConfig,
    samples_per_iteration: usize,
) -> TrainingReport {
    let ready: Vec<Vec<u64>> = plan
        .ready_order
        .iter()
        .map(|order| {
            order
                .iter()
                .map(|&ci| plan.collectives[ci].coll_id)
                .collect()
        })
        .collect();
    // Drawn up front: each GPU's RNG stream runs on across iterations.
    let jittered: Vec<Vec<Vec<u64>>> = ready
        .iter()
        .enumerate()
        .map(|(gpu, ready)| cfg.dfccl_orders(ready, gpu))
        .collect();
    let nanos = plan.compute_units * cfg.compute_time_per_unit.as_nanos() as f64;
    let compute = Duration::from_nanos(nanos as u64);
    let run = Run {
        backend,
        gpus: &plan.gpus,
        topology: Topology::flat(plan.gpus.len()),
        links: cfg.links.clone(),
        config: DfcclConfig {
            chunk_elems: cfg.chunk_elems,
            ..DfcclConfig::default()
        },
        collectives: plan
            .collectives
            .iter()
            .map(|pc| (pc.coll_id, pc.desc.clone()))
            .collect(),
        iterations: cfg.iterations,
    };
    let body = |it: &Iteration<'_>| {
        it.compute(compute);
        let order = it.order(&ready[it.gpu], || jittered[it.gpu][it.iteration].clone());
        // Spread collectives over a few streams, as frameworks do.
        let submitted: Vec<_> = order
            .iter()
            .enumerate()
            .map(|(k, &id)| it.submit(id, StreamId(1 + k % 3)))
            .collect();
        for s in submitted {
            it.wait(s);
        }
    };
    let (iteration_times, ()) = run.drive(body, |_| ()).expect("the run deadlocked");
    TrainingReport {
        backend: backend.to_string(),
        iteration_times,
        samples_per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DnnModel;
    use crate::parallelism::{data_parallel_plan, tensor_parallel_plan, three_d_hybrid_plan};
    use gpu_sim::GpuId;

    fn tiny_model() -> DnnModel {
        DnnModel {
            name: "tiny".to_string(),
            parameters: 4_096,
            layers: 4,
            hidden: 32,
            gradient_buckets: 4,
            compute_per_sample: 0.1,
        }
    }

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn dfccl_data_parallel_training_runs_without_deadlock() {
        let plan = data_parallel_plan(&tiny_model(), &gpus(4), 8);
        let report = train(&plan, BackendKind::Dfccl, &TrainerConfig::fast_test(3), 32);
        assert_eq!(report.iteration_times.len(), 3);
        assert!(report.throughput() > 0.0);
        assert!(report.backend.contains("DFCCL"));
    }

    #[test]
    fn nccl_orchestrated_data_parallel_training_completes() {
        let plan = data_parallel_plan(&tiny_model(), &gpus(2), 8);
        for strategy in [
            StrategyKind::OneFlowStaticSort,
            StrategyKind::Horovod,
            StrategyKind::KungFu,
        ] {
            let report = train(
                &plan,
                BackendKind::NcclOrchestrated(strategy),
                &TrainerConfig::fast_test(2),
                16,
            );
            assert_eq!(report.iteration_times.len(), 2, "{strategy:?}");
            assert!(report.mean_iteration() > Duration::ZERO);
        }
    }

    #[test]
    fn dfccl_tensor_parallel_and_hybrid_plans_run() {
        let tp_plan = tensor_parallel_plan(&tiny_model(), &gpus(2), 4);
        let report = train(
            &tp_plan,
            BackendKind::Dfccl,
            &TrainerConfig::fast_test(2),
            4,
        );
        assert_eq!(report.iteration_times.len(), 2);

        let hybrid = three_d_hybrid_plan(&tiny_model(), 2, 2, 1, 4);
        let report = train(&hybrid, BackendKind::Dfccl, &TrainerConfig::fast_test(2), 8);
        assert_eq!(report.iteration_times.len(), 2);
    }

    #[test]
    fn report_statistics_are_consistent() {
        let report = TrainingReport {
            backend: "test".to_string(),
            iteration_times: vec![
                Duration::from_millis(10),
                Duration::from_millis(12),
                Duration::from_millis(8),
            ],
            samples_per_iteration: 100,
        };
        assert_eq!(report.mean_iteration(), Duration::from_millis(10));
        assert!((report.throughput() - 10_000.0).abs() < 1.0);
        assert!(report.coefficient_of_variation() > 0.0);
        let curve = report.cumulative_throughput();
        assert_eq!(curve.len(), 3);
        assert!(curve.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn dfccl_orders_are_seed_stable_and_keep_one_stream_per_gpu() {
        use rand::Rng;
        let cfg = TrainerConfig {
            dfccl_disorder_prob: 0.5,
            ..TrainerConfig::fast_test(6)
        };
        let ready: Vec<u64> = (10..18).collect();
        assert_eq!(cfg.dfccl_orders(&ready, 1), cfg.dfccl_orders(&ready, 1));
        // The orders the trainer drew inline before the driver: one stream
        // per GPU, seeded once, drawn on across iterations.
        for gpu in 0..4 {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((gpu as u64) << 32));
            for order in cfg.dfccl_orders(&ready, gpu) {
                let mut expected = ready.clone();
                for i in 0..expected.len() - 1 {
                    if rng.gen_bool(0.5) {
                        expected.swap(i, i + 1);
                    }
                }
                assert_eq!(order, expected, "gpu {gpu}");
            }
        }
        let orders = cfg.dfccl_orders(&ready, 2);
        assert_eq!(orders.len(), 6);
        assert!(
            orders.iter().any(|o| *o != orders[0]),
            "disorder never produced a different order"
        );
        let ordered = TrainerConfig {
            dfccl_disorder_prob: 0.0,
            ..cfg
        };
        assert_eq!(ordered.dfccl_orders(&ready, 2), vec![ready.clone(); 6]);
    }

    #[test]
    fn empty_report_is_harmless() {
        let report = TrainingReport {
            backend: "empty".to_string(),
            iteration_times: Vec::new(),
            samples_per_iteration: 1,
        };
        assert_eq!(report.mean_iteration(), Duration::ZERO);
        assert_eq!(report.throughput(), 0.0);
        assert_eq!(report.coefficient_of_variation(), 0.0);
        assert!(report.cumulative_throughput().is_empty());
    }
}
