//! # DFCCL — a deadlock-free GPU collective communication library
//!
//! This crate is the core contribution of the reproduced paper
//! (*Comprehensive Deadlock Prevention for GPU Collective Communication*,
//! EuroSys 2025): a collective communication library that prevents GPU
//! collective deadlocks by making collectives **preemptible** inside a
//! persistent **daemon kernel**, while keeping NCCL-class performance through
//! on-GPU control logic and adaptive, decentralized gang-scheduling.
//!
//! ## Architecture (Fig. 4 of the paper)
//!
//! * The **invoker** (your thread) registers collectives once
//!   ([`RankCtx::register_all_reduce`] …) and invokes them repeatedly
//!   ([`RankCtx::run`] …). Each invocation pushes an SQE into the
//!   [`sq::SubmissionQueue`] and records a completion callback.
//! * The **daemon kernel** ([`daemon`]) — one per GPU — fetches SQEs, keeps a
//!   task queue, executes each collective's primitive sequence under spin
//!   thresholds, preempts collectives that are stuck, saves/restores their
//!   dynamic context, emits CQEs, and quits voluntarily when idle or when a
//!   device synchronization waits for it. It is a kernel
//!   ([`daemon::DaemonCore`]) on its GPU's launch engine
//!   ([`RankCtx::engine`]), beside the caller's compute kernels.
//! * The **poller** drains the [`cq`] and runs the callbacks.
//! * A domain's few **carrier** threads ([`daemon::World`], min(GPUs,
//!   available parallelism) of them) step every rank's engine and poller,
//!   and do all the waiting.
//!
//! ## Quick start
//!
//! ```
//! use dfccl::{DfcclDomain, DfcclConfig};
//! use dfccl_collectives::{DataType, DeviceBuffer, ReduceOp};
//! use gpu_sim::GpuId;
//!
//! // A 2-GPU domain with zero-cost links (fast, for demonstration).
//! let domain = DfcclDomain::flat_for_testing(2);
//! let devices: Vec<GpuId> = vec![GpuId(0), GpuId(1)];
//!
//! let rank0 = domain.init_rank(GpuId(0)).unwrap();
//! let rank1 = domain.init_rank(GpuId(1)).unwrap();
//! for rank in [&rank0, &rank1] {
//!     rank.register_all_reduce(1, 8, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
//!         .unwrap();
//! }
//!
//! let out0 = DeviceBuffer::zeroed(32);
//! let out1 = DeviceBuffer::zeroed(32);
//! let h0 = rank0.run_awaitable(1, DeviceBuffer::from_f32(&[1.0; 8]), out0.clone()).unwrap();
//! let h1 = rank1.run_awaitable(1, DeviceBuffer::from_f32(&[2.0; 8]), out1.clone()).unwrap();
//! h0.wait_for(1);
//! h1.wait_for(1);
//! assert_eq!(out0.to_f32_vec(), vec![3.0; 8]);
//! assert_eq!(out1.to_f32_vec(), vec![3.0; 8]);
//! # rank0.destroy(); rank1.destroy();
//! ```

pub mod api;
pub mod callback;
pub mod config;
pub mod context;
pub mod cq;
pub mod daemon;
pub mod park;
pub mod recovery;
pub mod sq;
pub mod task_queue;
pub mod telemetry;
pub mod tenant;

pub use api::{
    dfccl_destroy, dfccl_init, dfccl_register_all_reduce, dfccl_run_all_reduce, DfcclDomain,
    DfcclError, GraphRecorder, PlanCacheStats, RankCtx,
};
pub use callback::{Callback, CallbackMap, CompletionHandle};
pub use config::{
    CqVariant, DfcclConfig, HostMemCosts, OrderingPolicy, SpinPolicy, TenantArbitration,
};
pub use cq::{build_cq, CqKind, Cqe};
pub use daemon::{
    is_graph_id, CapturedGraph, DaemonShared, GraphNode, RegisteredCollective, GRAPH_ID_BASE,
};
pub use park::Parker;
pub use recovery::{
    detect_stall, watch_for_stall, RecoveryCoordinator, RecoveryError, RecoveryOutcome, RetryPolicy,
};
pub use sq::{Sqe, SubmissionQueue};
pub use task_queue::{TaskEntry, TaskQueue, TenantScheduler};
pub use telemetry::{
    CollectiveStats, DaemonStatsSnapshot, Telemetry, TelemetryCounters, TelemetryEvent,
    TelemetryEventKind, TelemetrySnapshot, TenantStats,
};
pub use tenant::{AdmissionError, TenantHandle, TenantId, TenantQuota};
