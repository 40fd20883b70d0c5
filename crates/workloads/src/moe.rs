//! The MoE expert-parallel workload: per MoE layer, a **dispatch all-to-all**
//! routes each rank's tokens to the experts, the expert FFN computes, and a
//! **combine all-to-all** routes the results back — overlapped with
//! data-parallel gradient all-reduces over the *same* devices. Every rank
//! therefore has at least two communicators live at once (the layer's
//! expert-parallel all-to-all and the gradient all-reduce), submitted in
//! whatever order they become ready: the paper's Fig. 1 disorder setting made
//! real on the dense connector mesh.
//!
//! It runs on the per-GPU loop of `driver.rs`. With DFCCL the combines and
//! gradient all-reduces are submitted asynchronously (jittered per GPU) and
//! the daemon's preemption untangles the disorder; with the NCCL-like
//! baseline every kernel is blocking, so the gradients go in the
//! orchestration strategy's consistent launch order — the CPU coordination
//! DFCCL exists to remove. The deliberately *disordered* baseline runs
//! (which wedge) live in `tests/stress.rs`, not here.

use std::time::Duration;

use dfccl::DfcclConfig;
use dfccl_collectives::{CollectiveDescriptor, DataType, ReduceOp};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{GpuId, StreamId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::driver::{jitter, Iteration, Run};
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
        let mut order = self.gradients();
        let mut rng = StdRng::seed_from_u64(self.seed ^ ((gpu as u64) << 32) ^ (iteration << 16));
        jitter(&mut order, self.disorder_prob, &mut rng);
        order
    }

    /// The gradient all-reduces in backward ready order: reverse layer order.
    fn gradients(&self) -> Vec<u64> {
        (0..self.grad_buckets)
            .rev()
            .map(|b| self.dp_id(b))
            .collect()
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
    let all_to_all =
        CollectiveDescriptor::all_to_all(cfg.slice_elems, DataType::F32, gpus.to_vec());
    let (count, sum) = (cfg.bucket_elems, ReduceOp::Sum);
    let all_reduce = CollectiveDescriptor::all_reduce(count, DataType::F32, sum, gpus.to_vec());
    let layers = (0..cfg.layers).flat_map(|l| [cfg.dispatch_id(l), cfg.combine_id(l)]);
    let run = Run {
        backend,
        gpus,
        topology: Topology::flat(gpus.len()),
        links: LinkModel::zero_cost(),
        config: DfcclConfig {
            chunk_elems: cfg.chunk_elems,
            ..DfcclConfig::for_testing()
        },
        collectives: layers
            .map(|id| (id, all_to_all.clone()))
            .chain((0..cfg.grad_buckets).map(|b| (cfg.dp_id(b), all_reduce.clone())))
            .collect(),
        iterations: cfg.iterations,
    };
    let gradients = cfg.gradients();
    let body = |it: &Iteration<'_>| {
        let mut in_flight = Vec::new();
        for l in 0..cfg.layers {
            // Dispatch must land before the expert can compute...
            let dispatch = it.submit(cfg.dispatch_id(l), StreamId(1));
            it.wait(dispatch);
            it.compute(cfg.expert_compute);
            // ...but the combine overlaps the next layer's dispatch and the
            // backward all-reduces — a second live communicator per rank.
            // Every GPU submits combines in the same layer order: blocking
            // kernels tolerate no disorder.
            in_flight.push(it.submit(cfg.combine_id(l), StreamId(2 + l % 2)));
        }
        let order = it.order(&gradients, || {
            cfg.backward_order(it.gpu, it.iteration as u64)
        });
        for (k, id) in order.into_iter().enumerate() {
            in_flight.push(it.submit(id, StreamId(1 + k % 3)));
        }
        for s in in_flight {
            it.wait(s);
        }
    };
    let (iteration_times, ()) = run.drive(body, |_| ()).expect("the run deadlocked");
    TrainingReport {
        backend: format!("MoE {backend}"),
        iteration_times,
        samples_per_iteration,
    }
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
