//! GPU synchronization operations.
//!
//! The paper distinguishes *explicit* synchronization (`cudaDeviceSynchronize()`)
//! from *implicit* synchronization (default-stream commands, page-locked host
//! memory allocation, CPU-initiated GPU memory operations). All of them suspend
//! a GPU until every kernel in every stream completes, which is the mechanism
//! behind the synchronization-related deadlock of Fig. 1(d).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// The kind of synchronization operation issued on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// `cudaDeviceSynchronize()`.
    Explicit,
    /// A command issued on the default stream, which synchronizes with all
    /// other streams.
    ImplicitDefaultStream,
    /// Page-locked (pinned) host memory allocation (`cudaMallocHost` and
    /// friends), reported in PyTorch issue #31095 as a deadlock trigger.
    ImplicitPinnedAlloc,
    /// A CPU-initiated GPU memory operation (e.g. IOMMU-related transfers).
    ImplicitMemOp,
}

/// Shared completion state of one synchronization operation.
#[derive(Debug)]
pub struct SyncShared {
    pub(crate) kind: SyncKind,
    done: Mutex<bool>,
    cv: Condvar,
}

impl SyncShared {
    pub(crate) fn new(kind: SyncKind) -> Self {
        SyncShared {
            kind,
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn complete(&self) {
        let mut d = self.done.lock();
        *d = true;
        self.cv.notify_all();
    }
}

/// Handle used to wait for a synchronization operation to complete.
#[derive(Debug, Clone)]
pub struct SyncWaiter {
    shared: Arc<SyncShared>,
}

impl SyncWaiter {
    pub(crate) fn new(shared: Arc<SyncShared>) -> Self {
        SyncWaiter { shared }
    }

    /// The kind of synchronization this waiter corresponds to.
    pub fn kind(&self) -> SyncKind {
        self.shared.kind
    }

    /// Whether the synchronization has completed.
    pub fn is_complete(&self) -> bool {
        *self.shared.done.lock()
    }

    /// Block until the synchronization completes or `timeout` elapses.
    /// Returns `true` if the synchronization completed.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut d = self.shared.done.lock();
        while !*d {
            if self.shared.cv.wait_until(&mut d, deadline).timed_out() {
                return *d;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiter_completes_after_complete_call() {
        let shared = Arc::new(SyncShared::new(SyncKind::Explicit));
        let waiter = SyncWaiter::new(Arc::clone(&shared));
        assert!(!waiter.is_complete());
        assert!(!waiter.wait_timeout(Duration::from_millis(10)));
        shared.complete();
        assert!(waiter.is_complete());
        assert!(waiter.wait_timeout(Duration::from_millis(1)));
        assert_eq!(waiter.kind(), SyncKind::Explicit);
    }

    #[test]
    fn waiter_wakes_a_blocked_thread() {
        let shared = Arc::new(SyncShared::new(SyncKind::ImplicitMemOp));
        let waiter = SyncWaiter::new(Arc::clone(&shared));
        let t = std::thread::spawn(move || waiter.wait_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        shared.complete();
        assert!(t.join().unwrap());
    }
}
