//! # dfccl-baseline — what DFCCL is compared against
//!
//! Three families of baselines from the paper's evaluation:
//!
//! * [`nccl_like`] — an NCCL-style executor: each collective is one
//!   non-preemptive kernel launched on a CUDA-like stream of the
//!   [`gpu_sim::DeviceEngine`], holding its slot until its peers let it
//!   finish. It faithfully reproduces the three basic deadlock situations of
//!   Fig. 1 (single queue, resource depletion, GPU synchronization) — and
//!   deadlocks with 100% probability in the Sec. 6.1 testing programs.
//! * [`watchdog`] — steps the engines until the supervised kernels finish or
//!   a sweep moves nothing, which decides a deadlock without a deadline; it
//!   names what each unfinished kernel waits on and tears the round down, so
//!   tests and benchmarks terminate. Only sends refused by a faulted link
//!   get a stall deadline.
//! * [`orchestration`] — the CPU-side coordination strategies that existing
//!   systems use to keep NCCL deadlock-free (Sec. 2.5): a Horovod-style
//!   central coordinator, KungFu-style negotiated ordering, OneFlow-style
//!   static sorting and Megatron-style manual hardcoding, each with its
//!   coordination cost model.
//! * [`mpi_like`] — a CPU-staged collective used for the Sec. 2.1 comparison
//!   (NCCL throughput vs. CUDA-aware MPI).

pub mod mpi_like;
pub mod nccl_like;
pub mod orchestration;
pub mod watchdog;

pub use nccl_like::{NcclDomain, NcclRank};
pub use orchestration::{
    HorovodCoordinator, KungFuOrdering, MegatronManual, OneFlowStaticSort, OrchestrationStrategy,
    StrategyKind,
};
pub use watchdog::{wait_all_or_deadlock, wait_all_or_stall, DeadlockOutcome, StallOutcome};
