//! # gpu-sim — a software model of a CUDA-like GPU
//!
//! This crate is the hardware substrate substitution for the DFCCL reproduction
//! (see `DESIGN.md` at the repository root). It models the pieces of the CUDA
//! execution environment that GPU-collective deadlocks depend on:
//!
//! * [`GpuDevice`] — a device with a bounded number of *resident kernel* slots
//!   (streaming-multiprocessor resources) and shared/global memory accounting.
//! * [`DeviceEngine`] — a CUDA-style launch engine, one per device and the
//!   only way onto it: per-stream FIFO ordering, cross-stream concurrency
//!   bounded by the device's residency slots, and synchronization barriers
//!   (the device's one synchronization) that prevent later-launched kernels
//!   from starting until all earlier kernels drain. It owns no thread:
//!   waiting threads step it — or, on a carried engine, its owner's threads
//!   (DFCCL's carriers) while waiters sleep — and a sweep in which nothing
//!   can move is a deadlock.
//! * [`Kernel`] — the unit of work launched on a stream, a state machine the
//!   engine polls. The NCCL-like baseline implements collectives as kernels
//!   that hold their slot until their peers let them finish; DFCCL's daemon
//!   is a kernel on the same engine that cooperates with a pending barrier
//!   by *voluntarily quitting* (Sec. 4.4).
//!
//! The model deliberately reproduces the three conditions that make GPU
//! collectives deadlock-prone (Sec. 2.3 of the paper): mutual exclusion of
//! residency slots, hold-and-wait of running kernels, and the absence of
//! preemption at this layer.

pub mod clock;
pub mod device;
pub mod engine;
pub mod kernel;
pub mod stream;

pub use clock::{busy_spin, TimeScale};
pub use device::{GpuDevice, GpuId, GpuSpec, MemoryUsage, ResidencyGuard};
pub use engine::{BlockedOn, DeviceEngine, LaunchError, StepReport};
pub use kernel::{
    EdgeWait, FnKernel, Kernel, KernelCtx, KernelHandle, KernelOutcome, KernelPoll, KernelStatus,
    WaitSide,
};
pub use stream::StreamId;

/// Errors produced by the GPU model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// A global-memory allocation exceeded the device capacity.
    OutOfGlobalMemory { requested: usize, available: usize },
    /// A shared-memory request exceeded the per-block capacity.
    OutOfSharedMemory { requested: usize, available: usize },
    /// Kernel residency could not be acquired (all slots busy).
    ResidencyUnavailable,
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::OutOfGlobalMemory {
                requested,
                available,
            } => write!(
                f,
                "out of global memory: requested {requested} bytes, {available} available"
            ),
            GpuError::OutOfSharedMemory {
                requested,
                available,
            } => write!(
                f,
                "out of shared memory: requested {requested} bytes, {available} available per block"
            ),
            GpuError::ResidencyUnavailable => write!(f, "kernel residency unavailable"),
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GpuError::OutOfGlobalMemory {
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("global memory"));
        let e = GpuError::OutOfSharedMemory {
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("shared memory"));
        assert!(GpuError::ResidencyUnavailable
            .to_string()
            .contains("residency"));
    }
}
