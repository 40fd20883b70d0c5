//! Parallelism strategies and the per-GPU collective schedules they generate.
//!
//! A [`TrainingPlan`] captures one training iteration's communication: which
//! collectives exist (with their device groups and sizes) and in what order
//! each GPU naturally makes them ready. Data parallelism produces one
//! all-reduce per gradient bucket over all GPUs (issued in bursts during the
//! backward pass, in reverse layer order). Tensor parallelism produces
//! per-layer all-reduces within each TP group. 3D-hybrid parallelism combines
//! TP and DP groups per pipeline stage (Fig. 3); pipeline send/recv is modelled
//! as part of the per-stage compute time (it is point-to-point, not a
//! collective, and does not interact with the deadlock mechanisms studied
//! here).

use deadlock_sim::GroupingPolicy;
use dfccl_collectives::{CollectiveDescriptor, DataType, ReduceOp};
use gpu_sim::GpuId;

use crate::model::DnnModel;

/// One collective of the plan.
#[derive(Debug, Clone)]
pub struct PlannedCollective {
    /// Globally unique collective id within the plan.
    pub coll_id: u64,
    /// Descriptor (kind, element count, device group, priority).
    pub desc: CollectiveDescriptor,
}

/// Which parallelism produced the plan (used for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelismKind {
    /// Pure data parallelism.
    DataParallel,
    /// Pure tensor parallelism.
    TensorParallel,
    /// 3D hybrid (TP × DP × PP).
    ThreeDHybrid,
}

impl std::fmt::Display for ParallelismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ParallelismKind::DataParallel => "data parallelism",
            ParallelismKind::TensorParallel => "tensor parallelism",
            ParallelismKind::ThreeDHybrid => "3D hybrid parallelism",
        };
        write!(f, "{s}")
    }
}

/// The communication plan of one training iteration.
#[derive(Debug, Clone)]
pub struct TrainingPlan {
    /// The model being trained.
    pub model: DnnModel,
    /// Which parallelism generated this plan.
    pub parallelism: ParallelismKind,
    /// All GPUs participating.
    pub gpus: Vec<GpuId>,
    /// Every collective of one iteration.
    pub collectives: Vec<PlannedCollective>,
    /// For each GPU, the order in which its collectives become ready
    /// (indices into `collectives`).
    pub ready_order: Vec<Vec<usize>>,
    /// Per-GPU per-iteration compute cost in arbitrary units (scaled to wall
    /// time by the trainer).
    pub compute_units: f64,
}

impl TrainingPlan {
    /// Collectives a particular GPU participates in, in its ready order.
    pub fn gpu_collectives(&self, gpu_index: usize) -> Vec<&PlannedCollective> {
        self.ready_order[gpu_index]
            .iter()
            .map(|&i| &self.collectives[i])
            .collect()
    }

    /// Total bytes a single GPU contributes to communication per iteration.
    pub fn bytes_per_gpu(&self, gpu_index: usize) -> usize {
        self.gpu_collectives(gpu_index)
            .iter()
            .map(|c| c.desc.wire_bytes_per_rank())
            .sum()
    }
}

fn f32_all_reduce(coll_id: u64, elems: usize, devices: Vec<GpuId>) -> PlannedCollective {
    PlannedCollective {
        coll_id,
        desc: CollectiveDescriptor::all_reduce(elems.max(1), DataType::F32, ReduceOp::Sum, devices),
    }
}

/// Pure data parallelism over `gpus`: one all-reduce per gradient bucket,
/// ready in reverse layer order (the backward pass produces the last layer's
/// gradients first).
pub fn data_parallel_plan(model: &DnnModel, gpus: &[GpuId], per_gpu_batch: usize) -> TrainingPlan {
    assert!(gpus.len() >= 2, "data parallelism needs at least two GPUs");
    let bucket = model.bucket_elems();
    let collectives: Vec<PlannedCollective> = (0..model.gradient_buckets)
        .map(|b| f32_all_reduce(b as u64, bucket, gpus.to_vec()))
        .collect();
    // Backward pass readies buckets in reverse order on every GPU.
    let order: Vec<usize> = (0..collectives.len()).rev().collect();
    TrainingPlan {
        model: model.clone(),
        parallelism: ParallelismKind::DataParallel,
        gpus: gpus.to_vec(),
        ready_order: vec![order; gpus.len()],
        collectives,
        compute_units: model.compute_per_sample * per_gpu_batch as f64,
    }
}

/// Pure tensor parallelism over `gpus`: two all-reduces per layer (forward
/// activation reduction and backward gradient reduction) across the whole
/// group, ready in layer order then reverse layer order.
pub fn tensor_parallel_plan(
    model: &DnnModel,
    gpus: &[GpuId],
    per_gpu_batch: usize,
) -> TrainingPlan {
    assert!(
        gpus.len() >= 2,
        "tensor parallelism needs at least two GPUs"
    );
    // Activation-sized all-reduces: batch * hidden elements.
    let act_elems = (per_gpu_batch * model.hidden.max(1)).max(1);
    let mut collectives = Vec::new();
    for layer in 0..model.layers {
        collectives.push(f32_all_reduce((layer * 2) as u64, act_elems, gpus.to_vec()));
        collectives.push(f32_all_reduce(
            (layer * 2 + 1) as u64,
            act_elems,
            gpus.to_vec(),
        ));
    }
    // Forward all-reduces in layer order, backward ones in reverse.
    let mut order: Vec<usize> = (0..model.layers).map(|l| l * 2).collect();
    order.extend((0..model.layers).rev().map(|l| l * 2 + 1));
    TrainingPlan {
        model: model.clone(),
        parallelism: ParallelismKind::TensorParallel,
        gpus: gpus.to_vec(),
        ready_order: vec![order; gpus.len()],
        collectives,
        // TP splits the per-layer compute across the group.
        compute_units: model.compute_per_sample * per_gpu_batch as f64 / gpus.len() as f64,
    }
}

/// 3D-hybrid parallelism (Fig. 3): `tp * dp * pp` GPUs. Within each pipeline
/// stage there are `dp` TP groups of size `tp`; GPUs holding the same shard
/// across TP groups form DP groups of size `dp`. Per iteration every TP group
/// runs two all-reduces per stage layer, and every DP group runs one gradient
/// all-reduce per bucket of its stage's parameters. The groups, and the GPU
/// layout, are [`GroupingPolicy::ThreeD`]'s (groups of one GPU have no
/// collective).
pub fn three_d_hybrid_plan(
    model: &DnnModel,
    tp: usize,
    dp: usize,
    pp: usize,
    per_gpu_batch: usize,
) -> TrainingPlan {
    assert!(
        tp >= 2 || dp >= 2,
        "a hybrid plan needs at least one group dimension > 1"
    );
    let gpu_count = tp * dp * pp;
    let gpus: Vec<GpuId> = (0..gpu_count).map(GpuId).collect();

    let layers_per_stage = (model.layers / pp.max(1)).max(1);
    let act_elems = (per_gpu_batch * model.hidden.max(1)).max(1);
    let stage_params = model.parameters / pp.max(1) / tp.max(1);
    let dp_buckets = (model.gradient_buckets / pp.max(1)).max(1);
    let bucket_elems = (stage_params / dp_buckets).max(1);

    let policy = GroupingPolicy::ThreeD {
        tp,
        dp,
        pp,
        tp_collectives: 2 * layers_per_stage, // forward + backward per layer
        dp_collectives: dp_buckets,
    };
    // `build_groups` lists the `pp * dp` TP groups first, then the DP groups.
    let tp_groups = pp * dp;
    let mut collectives = Vec::new();
    let mut ready: Vec<Vec<usize>> = vec![Vec::new(); gpu_count];
    for group in policy.build_groups() {
        if group.gpus.len() < 2 {
            continue;
        }
        let elems = if group.id < tp_groups {
            act_elems
        } else {
            bucket_elems
        };
        let devices: Vec<GpuId> = group.gpus.iter().copied().map(GpuId).collect();
        for _ in 0..group.collectives {
            let idx = collectives.len();
            collectives.push(f32_all_reduce(idx as u64, elems, devices.clone()));
            for &g in &group.gpus {
                ready[g].push(idx);
            }
        }
    }
    TrainingPlan {
        model: model.clone(),
        parallelism: ParallelismKind::ThreeDHybrid,
        gpus,
        collectives,
        ready_order: ready,
        // Each GPU computes its stage shard over the microbatch; pipeline
        // bubbles are folded into the constant.
        compute_units: model.compute_per_sample * per_gpu_batch as f64 / (tp * pp) as f64 * 1.25,
    }
}

/// Sanity check that every collective's device set contains each GPU that has
/// it in its ready order (used by tests and the trainer).
pub fn validate_plan(plan: &TrainingPlan) -> bool {
    plan.ready_order.iter().enumerate().all(|(gpu_idx, order)| {
        order.iter().all(|&ci| {
            plan.collectives[ci]
                .desc
                .devices
                .contains(&plan.gpus[gpu_idx])
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn data_parallel_plan_has_one_all_reduce_per_bucket() {
        let model = DnnModel::resnet50();
        let plan = data_parallel_plan(&model, &gpus(8), 48);
        assert_eq!(plan.collectives.len(), model.gradient_buckets);
        assert_eq!(plan.parallelism, ParallelismKind::DataParallel);
        assert!(validate_plan(&plan));
        // Reverse-order readiness: the last bucket is ready first.
        assert_eq!(plan.ready_order[0][0], model.gradient_buckets - 1);
        assert!(plan.bytes_per_gpu(0) > 0);
        assert!(plan.compute_units > 0.0);
    }

    #[test]
    fn tensor_parallel_plan_has_two_all_reduces_per_layer() {
        let model = DnnModel::vit_base();
        let plan = tensor_parallel_plan(&model, &gpus(8), 128);
        assert_eq!(plan.collectives.len(), model.layers * 2);
        assert!(validate_plan(&plan));
        // Every collective spans the whole TP group.
        assert!(plan.collectives.iter().all(|c| c.desc.devices.len() == 8));
    }

    #[test]
    fn three_d_plan_builds_tp_and_dp_groups() {
        let model = DnnModel::vit_base();
        let plan = three_d_hybrid_plan(&model, 2, 2, 4, 16);
        assert_eq!(plan.gpus.len(), 16);
        assert!(validate_plan(&plan));
        // Both group sizes (2) appear; every GPU participates in some of each.
        assert!(plan.collectives.iter().all(|c| c.desc.devices.len() == 2));
        for gpu_idx in 0..16 {
            assert!(
                !plan.ready_order[gpu_idx].is_empty(),
                "gpu {gpu_idx} has no collectives"
            );
        }
        // TP collectives exist (activation-sized) and DP collectives exist
        // (bucket-sized), and they differ in size.
        let sizes: std::collections::HashSet<usize> =
            plan.collectives.iter().map(|c| c.desc.count).collect();
        assert!(sizes.len() >= 2);
    }

    /// The tp = dp = pp = 2 plan of a four-layer model, collective by
    /// collective: id (its index), device set and element count, then each
    /// GPU's ready order.
    #[test]
    fn three_d_plan_matches_its_golden_layout() {
        let model = DnnModel {
            name: "tiny".to_string(),
            parameters: 4_096,
            layers: 4,
            hidden: 32,
            gradient_buckets: 4,
            compute_per_sample: 0.1,
        };
        let plan = three_d_hybrid_plan(&model, 2, 2, 2, 4);
        const GOLDEN: [([usize; 2], usize); 24] = [
            ([0, 1], 128),
            ([0, 1], 128),
            ([0, 1], 128),
            ([0, 1], 128),
            ([2, 3], 128),
            ([2, 3], 128),
            ([2, 3], 128),
            ([2, 3], 128),
            ([4, 5], 128),
            ([4, 5], 128),
            ([4, 5], 128),
            ([4, 5], 128),
            ([6, 7], 128),
            ([6, 7], 128),
            ([6, 7], 128),
            ([6, 7], 128),
            ([0, 2], 512),
            ([0, 2], 512),
            ([1, 3], 512),
            ([1, 3], 512),
            ([4, 6], 512),
            ([4, 6], 512),
            ([5, 7], 512),
            ([5, 7], 512),
        ];
        assert_eq!(plan.collectives.len(), GOLDEN.len());
        for (i, (c, (devices, count))) in plan.collectives.iter().zip(GOLDEN).enumerate() {
            assert_eq!(c.coll_id, i as u64);
            assert_eq!(
                c.desc.devices,
                devices.map(GpuId).to_vec(),
                "collective {i}"
            );
            assert_eq!(c.desc.count, count, "collective {i}");
        }
        let ready: [[usize; 6]; 8] = [
            [0, 1, 2, 3, 16, 17],
            [0, 1, 2, 3, 18, 19],
            [4, 5, 6, 7, 16, 17],
            [4, 5, 6, 7, 18, 19],
            [8, 9, 10, 11, 20, 21],
            [8, 9, 10, 11, 22, 23],
            [12, 13, 14, 15, 20, 21],
            [12, 13, 14, 15, 22, 23],
        ];
        assert_eq!(plan.ready_order, ready.map(|r| r.to_vec()).to_vec());
    }

    #[test]
    fn gpt2_16_gpu_hybrid_plan_is_well_formed() {
        let model = DnnModel::gpt2();
        let plan = three_d_hybrid_plan(&model, 4, 2, 2, 18);
        assert_eq!(plan.gpus.len(), 16);
        assert!(validate_plan(&plan));
        assert_eq!(plan.parallelism, ParallelismKind::ThreeDHybrid);
    }

    #[test]
    #[should_panic(expected = "at least two GPUs")]
    fn data_parallel_needs_two_gpus() {
        let _ = data_parallel_plan(&DnnModel::resnet50(), &gpus(1), 8);
    }
}
