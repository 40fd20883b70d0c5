//! The GPU device model: residency slots, memory accounting and device-wide
//! synchronization.
//!
//! A *resident kernel* occupies one of the device's concurrent-kernel slots
//! (the stand-in for streaming-multiprocessor resources). Residency is the
//! resource that is mutually exclusive and held while a collective busy-waits,
//! which is what makes disordered collectives deadlock (Sec. 2.3 of the paper).
//!
//! Device-wide synchronization ([`GpuDevice::request_synchronize`]) models
//! `cudaDeviceSynchronize()` and the implicit synchronization operations
//! (page-locked host memory allocation, CPU-initiated GPU memory operations):
//! the synchronization completes only when every currently-resident kernel has
//! released its residency, and **no new residency can be acquired while a
//! synchronization is pending**. DFCCL's daemon kernel observes
//! [`GpuDevice::sync_pending`] and voluntarily quits so the synchronization can
//! drain (Sec. 4.4).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::sync::{SyncKind, SyncShared, SyncWaiter};
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

/// Counters describing scheduling activity on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceCounters {
    /// Number of residencies acquired over the device lifetime.
    pub residencies_acquired: u64,
    /// Number of synchronization operations requested.
    pub syncs_requested: u64,
    /// Number of synchronization operations that have completed.
    pub syncs_completed: u64,
    /// Number of failed residency acquisitions (slot exhaustion or pending sync).
    pub residency_rejections: u64,
}

struct PendingSync {
    waits_for: HashSet<u64>,
    shared: Arc<SyncShared>,
}

struct DeviceState {
    next_residency: u64,
    resident: HashSet<u64>,
    resident_shared_bytes: usize,
    pending_syncs: Vec<PendingSync>,
    counters: DeviceCounters,
}

/// A simulated GPU device. Cheap to share via [`Arc`].
pub struct GpuDevice {
    id: GpuId,
    spec: GpuSpec,
    state: Mutex<DeviceState>,
    /// Notified whenever a slot frees. Nothing waits on it any more, but
    /// dropping it shrinks every `GpuDevice` allocation, which was measured
    /// to change how often the benchmark's `large_bandwidth` set-up re-faults
    /// its buffers (glibc heap trimming at domain teardown; ROADMAP item 11).
    residency_cv: Condvar,
    global_allocated: AtomicUsize,
    global_peak: AtomicUsize,
    shared_peak: AtomicUsize,
    syncs_completed: AtomicU64,
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
            state: Mutex::new(DeviceState {
                next_residency: 0,
                resident: HashSet::new(),
                resident_shared_bytes: 0,
                pending_syncs: Vec::new(),
                counters: DeviceCounters::default(),
            }),
            residency_cv: Condvar::new(),
            global_allocated: AtomicUsize::new(0),
            global_peak: AtomicUsize::new(0),
            shared_peak: AtomicUsize::new(0),
            syncs_completed: AtomicU64::new(0),
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
    /// Fails if all residency slots are busy, if the requested shared memory
    /// does not fit, or if a device synchronization is pending (new work may
    /// not start until the synchronization drains).
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
        if !st.pending_syncs.is_empty()
            || st.resident.len() >= self.spec.max_resident_kernels as usize
        {
            st.counters.residency_rejections += 1;
            return Err(GpuError::ResidencyUnavailable);
        }
        let id = st.next_residency;
        st.next_residency += 1;
        st.resident.insert(id);
        let shared_bytes = shared_mem_per_block.saturating_mul(blocks as usize);
        st.resident_shared_bytes += shared_bytes;
        let peak = st.resident_shared_bytes;
        st.counters.residencies_acquired += 1;
        drop(st);
        self.shared_peak.fetch_max(peak, Ordering::Relaxed);
        Ok(ResidencyGuard {
            device: Arc::clone(self),
            id,
            shared_bytes,
        })
    }

    /// Number of kernels currently resident.
    pub fn resident_kernels(&self) -> usize {
        self.state.lock().resident.len()
    }

    /// Whether a device synchronization is pending (some earlier kernels have
    /// not yet drained). The DFCCL daemon kernel polls this to decide when to
    /// quit voluntarily.
    pub fn sync_pending(&self) -> bool {
        !self.state.lock().pending_syncs.is_empty()
    }

    /// Request a device-wide synchronization of the given kind.
    ///
    /// The returned waiter completes once every kernel resident at the moment
    /// of the request has released its residency. While any synchronization is
    /// pending, new residency acquisitions are rejected.
    pub fn request_synchronize(&self, kind: SyncKind) -> SyncWaiter {
        let mut st = self.state.lock();
        st.counters.syncs_requested += 1;
        let shared = Arc::new(SyncShared::new(kind));
        if st.resident.is_empty() {
            shared.complete();
            self.syncs_completed.fetch_add(1, Ordering::Relaxed);
            let mut counters = st.counters;
            counters.syncs_completed += 1;
            st.counters = counters;
        } else {
            let waits_for = st.resident.clone();
            st.pending_syncs.push(PendingSync {
                waits_for,
                shared: Arc::clone(&shared),
            });
        }
        SyncWaiter::new(shared)
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

    /// Scheduling counters snapshot.
    pub fn counters(&self) -> DeviceCounters {
        self.state.lock().counters
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

    fn release_residency(&self, id: u64, shared_bytes: usize) {
        let mut st = self.state.lock();
        st.resident.remove(&id);
        st.resident_shared_bytes = st.resident_shared_bytes.saturating_sub(shared_bytes);
        let mut completed = 0u64;
        st.pending_syncs.retain_mut(|sync| {
            sync.waits_for.remove(&id);
            if sync.waits_for.is_empty() {
                sync.shared.complete();
                completed += 1;
            }
            !sync.waits_for.is_empty()
        });
        st.counters.syncs_completed += completed;
        drop(st);
        self.syncs_completed.fetch_add(completed, Ordering::Relaxed);
        self.residency_cv.notify_all();
    }
}

/// RAII guard representing one resident kernel. Dropping it releases the
/// residency slot and may complete pending synchronizations.
pub struct ResidencyGuard {
    device: Arc<GpuDevice>,
    id: u64,
    shared_bytes: usize,
}

impl std::fmt::Debug for ResidencyGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidencyGuard")
            .field("device", &self.device.id())
            .field("id", &self.id)
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
        self.device.release_residency(self.id, self.shared_bytes);
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
    use std::time::Duration;

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
    fn sync_completes_immediately_when_idle() {
        let dev = GpuDevice::new(GpuId(0), GpuSpec::tiny(2));
        let w = dev.request_synchronize(SyncKind::Explicit);
        assert!(w.is_complete());
        assert!(!dev.sync_pending());
    }

    #[test]
    fn sync_waits_for_resident_kernels_and_blocks_new_ones() {
        let dev = GpuDevice::new(GpuId(0), GpuSpec::tiny(4));
        let guard = dev.try_acquire_residency(1, 0).unwrap();
        let w = dev.request_synchronize(SyncKind::Explicit);
        assert!(!w.is_complete());
        assert!(dev.sync_pending());
        // New residency is rejected while the sync is pending.
        assert!(dev.try_acquire_residency(1, 0).is_err());
        drop(guard);
        assert!(w.wait_timeout(Duration::from_secs(1)));
        assert!(!dev.sync_pending());
        assert!(dev.try_acquire_residency(1, 0).is_ok());
    }

    #[test]
    fn sync_only_waits_for_kernels_resident_at_request_time() {
        let dev = GpuDevice::new(GpuId(0), GpuSpec::tiny(4));
        let g1 = dev.try_acquire_residency(1, 0).unwrap();
        let w = dev.request_synchronize(SyncKind::ImplicitPinnedAlloc);
        drop(g1);
        assert!(w.wait_timeout(Duration::from_millis(200)));
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

    #[test]
    fn counters_track_activity() {
        let dev = GpuDevice::new(GpuId(0), GpuSpec::tiny(1));
        let g = dev.try_acquire_residency(1, 0).unwrap();
        let _ = dev.try_acquire_residency(1, 0);
        let w = dev.request_synchronize(SyncKind::Explicit);
        drop(g);
        assert!(w.wait_timeout(Duration::from_secs(1)));
        let c = dev.counters();
        assert_eq!(c.residencies_acquired, 1);
        assert_eq!(c.residency_rejections, 1);
        assert_eq!(c.syncs_requested, 1);
        assert_eq!(c.syncs_completed, 1);
    }
}
