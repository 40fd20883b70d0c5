//! The MoE expert-parallel workload: per MoE layer, a **dispatch all-to-all**
//! routes each rank's tokens to the experts, the expert FFN computes, and a
//! **combine all-to-all** routes the results back — overlapped with
//! data-parallel gradient all-reduces over the *same* devices. Every rank
//! therefore has at least two communicators live at once (the layer's
//! expert-parallel all-to-all and the gradient all-reduce), submitted in
//! whatever order they become ready: the paper's Fig. 1 disorder setting made
//! real on the dense connector mesh.
//!
//! With DFCCL the combines and gradient all-reduces are submitted
//! asynchronously (jittered per GPU) and the daemon's preemption untangles
//! the disorder; with the NCCL-like baseline every kernel is blocking, so the
//! driver imposes the orchestration strategy's consistent launch order — the
//! CPU coordination DFCCL exists to remove. The deliberately *disordered*
//! baseline runs (which wedge) live in `tests/stress.rs`, not here.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dfccl::{DfcclConfig, DfcclDomain};
use dfccl_baseline::orchestration::build_strategy;
use dfccl_baseline::NcclDomain;
use dfccl_collectives::{DataType, DeviceBuffer, ReduceOp};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{busy_spin, GpuId, GpuSpec, StreamId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trainer::{BackendKind, TrainingReport};

/// Collective-id base for the data-parallel gradient all-reduces (dispatch
/// and combine all-to-alls use `2*layer` and `2*layer + 1`).
const DP_ID_BASE: u64 = 1_000;

/// Shape of one MoE expert-parallel training run. Every GPU hosts one expert;
/// the expert-parallel group is the full device set.
#[derive(Debug, Clone)]
pub struct MoeConfig {
    /// Number of MoE layers per iteration (one dispatch + one combine each).
    pub layers: usize,
    /// Elements each rank routes to each expert per layer (the all-to-all's
    /// per-pair slice; buffers hold `slice_elems * n` elements).
    pub slice_elems: usize,
    /// Data-parallel gradient buckets all-reduced each iteration.
    pub grad_buckets: usize,
    /// Elements per gradient bucket.
    pub bucket_elems: usize,
    /// Training iterations.
    pub iterations: usize,
    /// Simulated expert-FFN compute per MoE layer.
    pub expert_compute: Duration,
    /// Chunk size (elements) for collective plans.
    pub chunk_elems: usize,
    /// With DFCCL, probability of swapping adjacent ready collectives in the
    /// backward mix on each GPU — the natural invocation disorder.
    pub disorder_prob: f64,
    /// RNG seed for the disorder jitter (reproducible per run).
    pub seed: u64,
}

impl MoeConfig {
    /// A configuration for fast correctness tests.
    pub fn fast_test(iterations: usize) -> Self {
        MoeConfig {
            layers: 2,
            slice_elems: 64,
            grad_buckets: 3,
            bucket_elems: 256,
            iterations,
            expert_compute: Duration::ZERO,
            chunk_elems: 32,
            disorder_prob: 0.3,
            seed: 11,
        }
    }

    fn dispatch_id(&self, layer: usize) -> u64 {
        2 * layer as u64
    }

    fn combine_id(&self, layer: usize) -> u64 {
        2 * layer as u64 + 1
    }

    fn dp_id(&self, bucket: usize) -> u64 {
        DP_ID_BASE + bucket as u64
    }

    /// The backward-pass ready order of one GPU for one iteration: gradient
    /// buckets in reverse layer order, adjacent-swapped with the configured
    /// disorder probability. Seeded, so a (seed, gpu, iteration) triple always
    /// produces the same order — stress runs are reproducible.
    pub fn backward_order(&self, gpu: usize, iteration: u64) -> Vec<u64> {
        let mut order: Vec<u64> = (0..self.grad_buckets)
            .rev()
            .map(|b| self.dp_id(b))
            .collect();
        if self.disorder_prob > 0.0 {
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ ((gpu as u64) << 32) ^ (iteration << 16));
            for i in 0..order.len().saturating_sub(1) {
                if rng.gen_bool(self.disorder_prob.min(1.0)) {
                    order.swap(i, i + 1);
                }
            }
        }
        order
    }
}

/// Run the MoE workload over `gpus` on the chosen backend.
/// `samples_per_iteration` is the global token batch used for throughput.
pub fn train_moe(
    gpus: &[GpuId],
    backend: BackendKind,
    cfg: &MoeConfig,
    samples_per_iteration: usize,
) -> TrainingReport {
    assert!(
        gpus.len() >= 2,
        "expert parallelism needs at least two GPUs"
    );
    let per_gpu_times = match backend {
        BackendKind::Dfccl => moe_dfccl(gpus, cfg),
        BackendKind::NcclOrchestrated(strategy) => moe_nccl(gpus, strategy, cfg),
    };
    let iterations = per_gpu_times.first().map(Vec::len).unwrap_or(0);
    let mut iteration_times = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let max = per_gpu_times
            .iter()
            .map(|ts| ts[i])
            .max()
            .unwrap_or(Duration::ZERO);
        iteration_times.push(max);
    }
    TrainingReport {
        backend: format!("MoE {backend}"),
        iteration_times,
        samples_per_iteration,
    }
}

fn a2a_buffers(cfg: &MoeConfig, n: usize) -> (DeviceBuffer, DeviceBuffer) {
    let bytes = cfg.slice_elems * n * 4;
    (DeviceBuffer::zeroed(bytes), DeviceBuffer::zeroed(bytes))
}

fn dp_buffers(cfg: &MoeConfig) -> (DeviceBuffer, DeviceBuffer) {
    let bytes = cfg.bucket_elems * 4;
    (DeviceBuffer::zeroed(bytes), DeviceBuffer::zeroed(bytes))
}

fn moe_dfccl(gpus: &[GpuId], cfg: &MoeConfig) -> Vec<Vec<Duration>> {
    let n = gpus.len();
    let domain = DfcclDomain::new(
        Topology::flat(n),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        DfcclConfig {
            chunk_elems: cfg.chunk_elems,
            ..DfcclConfig::for_testing()
        },
    );
    let ranks: Vec<Arc<dfccl::RankCtx>> = gpus
        .iter()
        .map(|&g| Arc::new(domain.init_rank(g).expect("rank init")))
        .collect();
    for rank in &ranks {
        for l in 0..cfg.layers {
            for id in [cfg.dispatch_id(l), cfg.combine_id(l)] {
                rank.register_all_to_all(id, cfg.slice_elems, DataType::F32, gpus.to_vec(), 0)
                    .expect("register all-to-all");
            }
        }
        for b in 0..cfg.grad_buckets {
            rank.register_all_reduce(
                cfg.dp_id(b),
                cfg.bucket_elems,
                DataType::F32,
                ReduceOp::Sum,
                gpus.to_vec(),
                0,
            )
            .expect("register all-reduce");
        }
    }
    let barrier = Arc::new(Barrier::new(n));
    let cfg = Arc::new(cfg.clone());
    let mut joins = Vec::new();
    for (gpu_idx, rank) in ranks.iter().enumerate() {
        let rank = Arc::clone(rank);
        let barrier = Arc::clone(&barrier);
        let cfg = Arc::clone(&cfg);
        joins.push(std::thread::spawn(move || {
            let n = rank.domain().topology().gpu_count();
            let mut times = Vec::with_capacity(cfg.iterations);
            // A wedge names how long the wait ran and how often this rank
            // preempted, so a slow drain reads apart from a true deadlock.
            let waited = |since: Instant| {
                format!(
                    "after {:.1?} ({} preemptions on this rank)",
                    since.elapsed(),
                    rank.stats().preemptions
                )
            };
            for iter in 0..cfg.iterations {
                barrier.wait();
                let start = Instant::now();
                let mut handles = Vec::new();
                for l in 0..cfg.layers {
                    // Dispatch must land before the expert can compute...
                    let (send, recv) = a2a_buffers(&cfg, n);
                    let handle = rank
                        .run_awaitable(cfg.dispatch_id(l), send, recv)
                        .expect("dispatch");
                    let since = Instant::now();
                    assert!(
                        handle.wait_for_timeout(1, Duration::from_secs(60)),
                        "gpu {gpu_idx} iter {iter}: dispatch of layer {l} wedged {}",
                        waited(since)
                    );
                    busy_spin(cfg.expert_compute);
                    // ...but the combine overlaps the next layer's dispatch
                    // and the backward all-reduces — a second live
                    // communicator per rank.
                    let (send, recv) = a2a_buffers(&cfg, n);
                    handles.push(
                        rank.run_awaitable(cfg.combine_id(l), send, recv)
                            .expect("combine"),
                    );
                }
                for id in cfg.backward_order(gpu_idx, iter as u64) {
                    let (send, recv) = dp_buffers(&cfg);
                    handles.push(rank.run_awaitable(id, send, recv).expect("all-reduce"));
                }
                for h in handles {
                    let since = Instant::now();
                    assert!(
                        h.wait_for_timeout(1, Duration::from_secs(60)),
                        "gpu {gpu_idx} iter {iter}: an in-flight collective wedged {}",
                        waited(since)
                    );
                }
                times.push(start.elapsed());
                barrier.wait();
            }
            times
        }));
    }
    let result: Vec<Vec<Duration>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    for rank in &ranks {
        assert!(
            rank.collective_errors().is_empty(),
            "MoE run recorded collective errors"
        );
        rank.destroy();
    }
    result
}

fn moe_nccl(
    gpus: &[GpuId],
    strategy_kind: dfccl_baseline::StrategyKind,
    cfg: &MoeConfig,
) -> Vec<Vec<Duration>> {
    let n = gpus.len();
    let domain = NcclDomain::new(
        Topology::flat(n),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        cfg.chunk_elems,
    );
    let ranks: Vec<Arc<dfccl_baseline::NcclRank>> = gpus
        .iter()
        .map(|&g| Arc::new(domain.init_rank(g).expect("rank init")))
        .collect();
    for rank in &ranks {
        for l in 0..cfg.layers {
            for id in [cfg.dispatch_id(l), cfg.combine_id(l)] {
                rank.register(
                    id,
                    dfccl_collectives::CollectiveDescriptor::all_to_all(
                        cfg.slice_elems,
                        DataType::F32,
                        gpus.to_vec(),
                    ),
                )
                .expect("register all-to-all");
            }
        }
        for b in 0..cfg.grad_buckets {
            rank.register(
                cfg.dp_id(b),
                dfccl_collectives::CollectiveDescriptor::all_reduce(
                    cfg.bucket_elems,
                    DataType::F32,
                    ReduceOp::Sum,
                    gpus.to_vec(),
                ),
            )
            .expect("register all-reduce");
        }
    }
    let barrier = Arc::new(Barrier::new(n));
    let cfg = Arc::new(cfg.clone());
    let mut joins = Vec::new();
    for rank in &ranks {
        let rank = Arc::clone(rank);
        let barrier = Arc::clone(&barrier);
        let cfg = Arc::clone(&cfg);
        joins.push(std::thread::spawn(move || {
            let strategy = build_strategy(strategy_kind);
            let mut times = Vec::with_capacity(cfg.iterations);
            for iter in 0..cfg.iterations {
                barrier.wait();
                let start = Instant::now();
                let mut handles = Vec::new();
                for l in 0..cfg.layers {
                    let (send, recv) = a2a_buffers(&cfg, n);
                    let dispatch = rank
                        .launch_collective(cfg.dispatch_id(l), StreamId(1), send, recv)
                        .expect("dispatch");
                    assert_eq!(
                        dispatch.wait_timeout(Duration::from_secs(60)),
                        gpu_sim::KernelStatus::Completed,
                        "baseline dispatch of layer {l} did not complete (iter {iter})"
                    );
                    busy_spin(cfg.expert_compute);
                    let (send, recv) = a2a_buffers(&cfg, n);
                    // Combines stay in flight, but in the same layer order on
                    // every GPU — blocking kernels tolerate no disorder.
                    handles.push(
                        rank.launch_collective(cfg.combine_id(l), StreamId(2 + l % 2), send, recv)
                            .expect("combine"),
                    );
                }
                // The orchestration strategy imposes one consistent gradient
                // order and charges its coordination cost.
                let ready: Vec<u64> = (0..cfg.grad_buckets).rev().map(|b| cfg.dp_id(b)).collect();
                let imposed = strategy.imposed_order(&ready);
                busy_spin(strategy.iteration_overhead(ready.len(), n, iter as u64));
                for (k, id) in imposed.iter().enumerate() {
                    let (send, recv) = dp_buffers(&cfg);
                    handles.push(
                        rank.launch_collective(*id, StreamId(1 + k % 3), send, recv)
                            .expect("all-reduce"),
                    );
                }
                for h in handles {
                    assert_eq!(
                        h.wait_timeout(Duration::from_secs(60)),
                        gpu_sim::KernelStatus::Completed,
                        "a baseline kernel wedged or failed (iter {iter})"
                    );
                }
                times.push(start.elapsed());
                barrier.wait();
            }
            times
        }));
    }
    let result: Vec<Vec<Duration>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    domain.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfccl_baseline::StrategyKind;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn moe_trains_on_dfccl_with_disorder() {
        let cfg = MoeConfig {
            disorder_prob: 0.5,
            ..MoeConfig::fast_test(3)
        };
        let report = train_moe(&gpus(4), BackendKind::Dfccl, &cfg, 64);
        assert_eq!(report.iteration_times.len(), 3);
        assert!(report.throughput() > 0.0);
        assert!(report.backend.contains("MoE"));
        assert!(report.backend.contains("DFCCL"));
    }

    #[test]
    fn moe_trains_on_the_nccl_baseline_under_consistent_order() {
        let report = train_moe(
            &gpus(2),
            BackendKind::NcclOrchestrated(StrategyKind::OneFlowStaticSort),
            &MoeConfig::fast_test(2),
            32,
        );
        assert_eq!(report.iteration_times.len(), 2);
        assert!(report.mean_iteration() > Duration::ZERO);
    }

    #[test]
    fn backward_order_is_seed_stable_and_disorder_varies_it() {
        let cfg = MoeConfig {
            grad_buckets: 8,
            disorder_prob: 0.5,
            ..MoeConfig::fast_test(1)
        };
        assert_eq!(cfg.backward_order(1, 3), cfg.backward_order(1, 3));
        // Across GPUs / iterations the jitter differs somewhere.
        let varied = (0..4)
            .flat_map(|g| (0..4).map(move |i| (g, i)))
            .any(|(g, i)| cfg.backward_order(g, i) != cfg.backward_order(0, 0));
        assert!(varied, "disorder never produced a different order");
        let ordered = MoeConfig {
            disorder_prob: 0.0,
            ..cfg
        };
        let expected: Vec<u64> = (0..8).rev().map(|b| DP_ID_BASE + b as u64).collect();
        assert_eq!(ordered.backward_order(2, 5), expected);
    }

    #[test]
    #[should_panic(expected = "at least two GPUs")]
    fn moe_needs_two_gpus() {
        let _ = train_moe(&gpus(1), BackendKind::Dfccl, &MoeConfig::fast_test(1), 1);
    }
}
