//! # dfccl-workloads — distributed DNN training workloads
//!
//! The paper evaluates DFCCL against CPU-orchestrated NCCL on real training
//! jobs: data-parallel ResNet-50 (Fig. 10), ViT under data, tensor and
//! 3D-hybrid parallelism (Fig. 12), and Megatron-style GPT-2 under 3D-hybrid
//! parallelism (Fig. 13). This crate provides:
//!
//! * [`model`] — the models' communication-relevant shape (parameters, layers,
//!   gradient buckets, relative compute cost);
//! * [`parallelism`] — DP / TP / 3D-hybrid plans: which collectives exist,
//!   over which GPU groups, and in which order each GPU makes them ready;
//! * [`moe`] — the MoE expert-parallel workload: dispatch all-to-all →
//!   expert compute → combine all-to-all per layer, overlapped with
//!   data-parallel gradient all-reduces on the same devices;
//! * [`trainer`] — the training workload: a plan run for N iterations
//!   against DFCCL or against NCCL-like kernels coordinated by one of the
//!   Sec. 2.5 orchestration strategies, reporting per-iteration times,
//!   throughput and its coefficient of variation.
//!
//! Both workloads and the per-GPU figure bins are bodies over one driver
//! ([`Run`]): it builds either stack's domain, runs one thread per GPU with
//! a gate-aligned, timed iteration, decides a stuck run by the stack's own
//! detector rather than a clock, and tears the domain down.

mod driver;
pub mod model;
pub mod moe;
pub mod parallelism;
pub mod trainer;

pub use driver::{Iteration, Run, Submission};
pub use model::DnnModel;
pub use moe::{train_moe, MoeConfig};
pub use parallelism::{
    data_parallel_plan, tensor_parallel_plan, three_d_hybrid_plan, ParallelismKind,
    PlannedCollective, TrainingPlan,
};
pub use trainer::{train, BackendKind, TrainerConfig, TrainingReport};
