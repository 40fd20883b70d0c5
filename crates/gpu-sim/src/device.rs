//! The GPU device model: residency slots and memory accounting.
//!
//! A *resident kernel* occupies one of the device's concurrent-kernel slots
//! (the stand-in for streaming-multiprocessor resources). Residency is the
//! resource that is mutually exclusive and held while a collective busy-waits,
//! which is what makes disordered collectives deadlock (Sec. 2.3 of the paper).
//! The device's [`crate::DeviceEngine`] grants the slots to the kernels it
//! starts and holds its synchronization barriers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::GpuError;

/// Identifier of a GPU in the simulated cluster. Globally unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuId(pub usize);

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Static description of a GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Human-readable model name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Maximum number of kernels that can be resident at the same time.
    /// This is the resource that gets depleted in the "resource depletion"
    /// deadlock situation of Fig. 1(c).
    pub max_resident_kernels: u32,
    /// Shared memory available to one block, in bytes.
    pub shared_mem_per_block: usize,
    /// Total global (device) memory in bytes.
    pub global_mem: usize,
}

impl GpuSpec {
    /// NVIDIA GeForce RTX 3090 (24 GB) — the "3090-server" GPUs of Table 2.
    pub fn rtx_3090() -> Self {
        GpuSpec {
            name: "RTX 3090".to_string(),
            sm_count: 82,
            max_resident_kernels: 4,
            shared_mem_per_block: 100 * 1024,
            global_mem: 24 * 1024 * 1024 * 1024,
        }
    }

    /// A tiny GPU useful for unit tests that exercise resource depletion.
    pub fn tiny(max_resident_kernels: u32) -> Self {
        GpuSpec {
            name: "tiny-test-gpu".to_string(),
            sm_count: 4,
            max_resident_kernels,
            shared_mem_per_block: 48 * 1024,
            global_mem: 64 * 1024 * 1024,
        }
    }
}

/// Snapshot of the device memory accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryUsage {
    /// Bytes of global (device) memory currently allocated.
    pub global_allocated: usize,
    /// Bytes of shared memory currently reserved across resident blocks.
    pub shared_allocated: usize,
    /// High-water mark of global memory.
    pub global_peak: usize,
    /// High-water mark of shared memory.
    pub shared_peak: usize,
}

#[derive(Default)]
struct DeviceState {
    resident: usize,
    resident_shared_bytes: usize,
}

/// A simulated GPU device. Cheap to share via [`Arc`].
pub struct GpuDevice {
    id: GpuId,
    spec: GpuSpec,
    state: Mutex<DeviceState>,
    /// Notified whenever a slot frees or an engine drops queued kernels
    /// ([`GpuDevice::wait_while`]).
    residency_cv: Condvar,
    global_allocated: AtomicUsize,
    global_peak: AtomicUsize,
    shared_peak: AtomicUsize,
}

impl std::fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuDevice")
            .field("id", &self.id)
            .field("spec", &self.spec.name)
            .finish()
    }
}

impl GpuDevice {
    /// Create a new device with the given identifier and specification.
    pub fn new(id: GpuId, spec: GpuSpec) -> Arc<Self> {
        Arc::new(GpuDevice {
            id,
            spec,
            state: Mutex::new(DeviceState::default()),
            residency_cv: Condvar::new(),
            global_allocated: AtomicUsize::new(0),
            global_peak: AtomicUsize::new(0),
            shared_peak: AtomicUsize::new(0),
        })
    }

    /// Device identifier.
    pub fn id(&self) -> GpuId {
        self.id
    }

    /// Device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Try to acquire a kernel-residency slot without blocking.
    ///
    /// Fails if all residency slots are busy or if the requested shared
    /// memory does not fit.
    pub fn try_acquire_residency(
        self: &Arc<Self>,
        blocks: u32,
        shared_mem_per_block: usize,
    ) -> Result<ResidencyGuard, GpuError> {
        if shared_mem_per_block > self.spec.shared_mem_per_block {
            return Err(GpuError::OutOfSharedMemory {
                requested: shared_mem_per_block,
                available: self.spec.shared_mem_per_block,
            });
        }
        let mut st = self.state.lock();
        if st.resident >= self.spec.max_resident_kernels as usize {
            return Err(GpuError::ResidencyUnavailable);
        }
        st.resident += 1;
        let shared_bytes = shared_mem_per_block.saturating_mul(blocks as usize);
        st.resident_shared_bytes += shared_bytes;
        let peak = st.resident_shared_bytes;
        drop(st);
        self.shared_peak.fetch_max(peak, Ordering::Relaxed);
        Ok(ResidencyGuard {
            device: Arc::clone(self),
            shared_bytes,
        })
    }

    /// Number of kernels currently resident.
    pub fn resident_kernels(&self) -> usize {
        self.state.lock().resident
    }

    /// Block while `pending()` holds, until `deadline` (`None`: forever),
    /// waking each time a slot frees or [`GpuDevice::wake_waiters`] runs.
    /// `pending` is read under the device lock, so a condition that a
    /// kernel's retirement clears before its slot frees is never slept
    /// through. Returns whether it still holds.
    pub(crate) fn wait_while(&self, pending: impl Fn() -> bool, deadline: Option<Instant>) -> bool {
        let mut st = self.state.lock();
        while pending() {
            match deadline {
                None => self.residency_cv.wait(&mut st),
                Some(d) => {
                    if self.residency_cv.wait_until(&mut st, d).timed_out() {
                        return pending();
                    }
                }
            }
        }
        false
    }

    /// Wake every [`GpuDevice::wait_while`] to re-read its condition, for a
    /// change that freed no slot (teardown of queued kernels). Under the
    /// device lock, so a waiter between its read and its sleep is not missed.
    pub(crate) fn wake_waiters(&self) {
        let _st = self.state.lock();
        self.residency_cv.notify_all();
    }

    /// Memory usage snapshot.
    pub fn memory_usage(&self) -> MemoryUsage {
        let st = self.state.lock();
        MemoryUsage {
            global_allocated: self.global_allocated.load(Ordering::Relaxed),
            shared_allocated: st.resident_shared_bytes,
            global_peak: self.global_peak.load(Ordering::Relaxed),
            shared_peak: self.shared_peak.load(Ordering::Relaxed),
        }
    }

    /// Allocate `bytes` of global (device) memory. The allocation is released
    /// when the returned guard is dropped.
    pub fn alloc_global(self: &Arc<Self>, bytes: usize) -> Result<GlobalAllocation, GpuError> {
        let mut current = self.global_allocated.load(Ordering::Relaxed);
        loop {
            let new = current + bytes;
            if new > self.spec.global_mem {
                return Err(GpuError::OutOfGlobalMemory {
                    requested: bytes,
                    available: self.spec.global_mem.saturating_sub(current),
                });
            }
            match self.global_allocated.compare_exchange(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.global_peak.fetch_max(new, Ordering::Relaxed);
                    return Ok(GlobalAllocation {
                        device: Arc::clone(self),
                        bytes,
                    });
                }
                Err(actual) => current = actual,
            }
        }
    }

    fn release_residency(&self, shared_bytes: usize) {
        let mut st = self.state.lock();
        st.resident -= 1;
        st.resident_shared_bytes = st.resident_shared_bytes.saturating_sub(shared_bytes);
        drop(st);
        self.residency_cv.notify_all();
    }
}

/// RAII guard representing one resident kernel. Dropping it releases the
/// residency slot.
pub struct ResidencyGuard {
    device: Arc<GpuDevice>,
    shared_bytes: usize,
}

impl std::fmt::Debug for ResidencyGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidencyGuard")
            .field("device", &self.device.id())
            .finish()
    }
}

impl ResidencyGuard {
    /// The device this residency belongs to.
    pub fn device(&self) -> &Arc<GpuDevice> {
        &self.device
    }
}

impl Drop for ResidencyGuard {
    fn drop(&mut self) {
        self.device.release_residency(self.shared_bytes);
    }
}

/// RAII guard for a global-memory allocation.
pub struct GlobalAllocation {
    device: Arc<GpuDevice>,
    bytes: usize,
}

impl GlobalAllocation {
    /// Size of the allocation in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for GlobalAllocation {
    fn drop(&mut self) {
        self.device
            .global_allocated
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_slots_are_bounded() {
        let dev = GpuDevice::new(GpuId(0), GpuSpec::tiny(2));
        let a = dev.try_acquire_residency(1, 0).unwrap();
        let _b = dev.try_acquire_residency(1, 0).unwrap();
        assert!(dev.try_acquire_residency(1, 0).is_err());
        assert_eq!(dev.resident_kernels(), 2);
        drop(a);
        assert!(dev.try_acquire_residency(1, 0).is_ok());
    }

    #[test]
    fn shared_memory_request_is_bounded_per_block() {
        let dev = GpuDevice::new(GpuId(0), GpuSpec::tiny(2));
        let too_big = dev.spec().shared_mem_per_block + 1;
        assert!(matches!(
            dev.try_acquire_residency(1, too_big),
            Err(GpuError::OutOfSharedMemory { .. })
        ));
    }

    #[test]
    fn global_memory_accounting() {
        let dev = GpuDevice::new(GpuId(0), GpuSpec::tiny(1));
        let total = dev.spec().global_mem;
        let a = dev.alloc_global(total / 2).unwrap();
        assert_eq!(dev.memory_usage().global_allocated, total / 2);
        assert!(dev.alloc_global(total).is_err());
        drop(a);
        assert_eq!(dev.memory_usage().global_allocated, 0);
        assert_eq!(dev.memory_usage().global_peak, total / 2);
    }

    #[test]
    fn shared_memory_accounting_tracks_blocks() {
        let dev = GpuDevice::new(GpuId(0), GpuSpec::tiny(4));
        let g = dev.try_acquire_residency(4, 1024).unwrap();
        assert_eq!(dev.memory_usage().shared_allocated, 4096);
        drop(g);
        assert_eq!(dev.memory_usage().shared_allocated, 0);
        assert_eq!(dev.memory_usage().shared_peak, 4096);
    }
}
