//! Kernels: the unit of work launched on a device through the [`crate::DeviceEngine`].
//!
//! A kernel is a state machine that each [`crate::DeviceEngine::step`] polls
//! once; [`Kernel::poll`] never blocks and says whether the kernel finished,
//! moved, or waits — and on what. A waiting kernel keeps its residency slot
//! (hold-and-wait) until it finishes (no preemption). DFCCL launches no
//! per-collective kernels: its daemons run on their own carriers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::device::GpuId;
use crate::engine::StepGroup;

/// How a kernel ended, as returned by its last poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelOutcome {
    /// The kernel finished its work.
    Completed,
    /// The kernel failed with an error message.
    Failed(String),
}

/// Which side of a connector edge a blocked lane head waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitSide {
    /// Waits for a chunk from the peer.
    Recv,
    /// Waits for the peer to drain a full connector.
    Send,
    /// Its send was refused by a faulted link whose connector has room: it
    /// waits on the link, not on the peer, so the wait is not structural.
    Refused,
}

/// One connector edge a pending kernel's lane head waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeWait {
    /// The GPU on the other end of the edge.
    pub peer: GpuId,
    /// The channel the edge belongs to.
    pub channel: u32,
    /// Which side of the edge the lane head waits on.
    pub side: WaitSide,
}

impl std::fmt::Display for EdgeWait {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let side = match self.side {
            WaitSide::Recv => "recv from",
            WaitSide::Send => "send to",
            WaitSide::Refused => "refused send to",
        };
        write!(f, "{side} {} ch{}", self.peer, self.channel)
    }
}

/// The result of one [`Kernel::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelPoll {
    /// The kernel finished; the engine retires it and frees its slot.
    Ready(KernelOutcome),
    /// The kernel did work this poll and has more to do.
    Moved,
    /// The kernel moved nothing this poll. It waits on these edges (empty
    /// when it waits on nothing the engine can name).
    Pending(Vec<EdgeWait>),
}

/// Externally observable status of a launched kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelStatus {
    /// Queued on a stream, not yet started.
    Queued,
    /// Currently executing on the device.
    Running,
    /// Finished successfully.
    Completed,
    /// Dropped by teardown (`abort_all` or `shutdown`) before finishing.
    Aborted,
    /// Failed with an error message.
    Failed(String),
}

impl KernelStatus {
    /// Whether the kernel has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, KernelStatus::Queued | KernelStatus::Running)
    }
}

/// Execution context handed to a running kernel.
#[derive(Debug, Clone)]
pub struct KernelCtx {
    /// Device the kernel runs on.
    pub device: GpuId,
    /// Launch sequence number on that device's engine.
    pub seq: u64,
}

/// A unit of GPU work.
pub trait Kernel: Send + 'static {
    /// Human-readable name, used in diagnostics.
    fn name(&self) -> String;

    /// Number of blocks in the launch grid.
    fn grid_blocks(&self) -> u32 {
        1
    }

    /// Shared memory requested per block, in bytes.
    fn shared_mem_per_block(&self) -> usize {
        0
    }

    /// Advance the kernel without blocking. The engine polls a started
    /// kernel once per step until it returns [`KernelPoll::Ready`], and
    /// never polls it again after that.
    fn poll(&mut self, ctx: &KernelCtx) -> KernelPoll;
}

/// A kernel built from a closure that runs to completion in its first poll;
/// convenient for tests and simple workloads.
pub struct FnKernel<F> {
    name: String,
    shared_mem: usize,
    f: Option<F>,
}

impl<F> FnKernel<F>
where
    F: FnOnce(&KernelCtx) -> KernelOutcome + Send + 'static,
{
    /// Create a closure-backed kernel with a 1-block grid.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnKernel {
            name: name.into(),
            shared_mem: 0,
            f: Some(f),
        }
    }

    /// Set the per-block shared-memory requirement.
    pub fn with_shared_mem(mut self, bytes: usize) -> Self {
        self.shared_mem = bytes;
        self
    }
}

impl<F> Kernel for FnKernel<F>
where
    F: FnOnce(&KernelCtx) -> KernelOutcome + Send + 'static,
{
    fn name(&self) -> String {
        self.name.clone()
    }

    fn shared_mem_per_block(&self) -> usize {
        self.shared_mem
    }

    fn poll(&mut self, ctx: &KernelCtx) -> KernelPoll {
        let f = self.f.take().expect("a finished kernel is never polled");
        KernelPoll::Ready(f(ctx))
    }
}

pub(crate) struct KernelShared {
    status: Mutex<KernelStatus>,
}

impl KernelShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(KernelShared {
            status: Mutex::new(KernelStatus::Queued),
        })
    }

    pub(crate) fn set_status(&self, status: KernelStatus) {
        *self.status.lock() = status;
    }
}

/// Handle to a launched kernel: observe its status or wait for it.
///
/// Waiting is what drives the device: a waiting thread steps every engine
/// of the kernel's step group until the kernel reaches a terminal state.
#[derive(Clone)]
pub struct KernelHandle {
    pub(crate) shared: Arc<KernelShared>,
    pub(crate) seq: u64,
    pub(crate) name: Arc<str>,
    pub(crate) device: GpuId,
    pub(crate) group: Arc<StepGroup>,
}

impl std::fmt::Debug for KernelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelHandle")
            .field("seq", &self.seq)
            .field("name", &self.name)
            .field("device", &self.device)
            .field("status", &self.status())
            .finish()
    }
}

impl KernelHandle {
    /// Launch sequence number of the kernel on its engine.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The GPU whose engine owns this kernel — lets supervisors scope
    /// teardown to the engines that actually hold unfinished work.
    pub fn device(&self) -> GpuId {
        self.device
    }

    /// Current status. Reading it steps nothing.
    pub fn status(&self) -> KernelStatus {
        self.shared.status.lock().clone()
    }

    /// Step the kernel's engines until it reaches a terminal state. A kernel
    /// that can never finish keeps this call stepping forever, as a wedged
    /// CUDA kernel would.
    pub fn wait(&self) -> KernelStatus {
        self.wait_until(None)
    }

    /// Step the kernel's engines until it reaches a terminal state or
    /// `timeout` elapses; returns the status at that point.
    pub fn wait_timeout(&self, timeout: Duration) -> KernelStatus {
        self.wait_until(Some(Instant::now() + timeout))
    }

    fn wait_until(&self, deadline: Option<Instant>) -> KernelStatus {
        loop {
            let status = self.status();
            if status.is_terminal() || deadline.is_some_and(|d| Instant::now() >= d) {
                return status;
            }
            self.group.step_or_yield();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_kernel_reports_configuration() {
        let k = FnKernel::new("k", |_ctx| KernelOutcome::Completed).with_shared_mem(1024);
        assert_eq!(k.name(), "k");
        assert_eq!(k.grid_blocks(), 1);
        assert_eq!(k.shared_mem_per_block(), 1024);
    }

    #[test]
    fn fn_kernel_runs_closure_in_its_first_poll() {
        let mut k = FnKernel::new("k", |ctx: &KernelCtx| {
            assert_eq!(ctx.device, GpuId(3));
            KernelOutcome::Completed
        });
        let ctx = KernelCtx {
            device: GpuId(3),
            seq: 7,
        };
        assert_eq!(k.poll(&ctx), KernelPoll::Ready(KernelOutcome::Completed));
    }

    #[test]
    fn status_terminality() {
        assert!(!KernelStatus::Queued.is_terminal());
        assert!(!KernelStatus::Running.is_terminal());
        assert!(KernelStatus::Completed.is_terminal());
        assert!(KernelStatus::Aborted.is_terminal());
        assert!(KernelStatus::Failed("x".into()).is_terminal());
    }

    #[test]
    fn edge_waits_name_the_peer_channel_and_side() {
        let wait = EdgeWait {
            peer: GpuId(1),
            channel: 2,
            side: WaitSide::Recv,
        };
        assert_eq!(wait.to_string(), "recv from gpu1 ch2");
    }
}
