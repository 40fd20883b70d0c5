//! The thread driver: the only place that waits on the daemon's behalf.
//! [`DaemonCore::poll`] decides *what* happens; this loop decides *when* to
//! call it again, and is the only reader of `idle_spin_passes`,
//! `idle_passes_before_quit` and `restart_backoff` in the daemon.

use std::sync::Arc;

use super::core::{BlockedOn, DaemonCore, Progress};

/// Body of one daemon-kernel thread: poll `core` until it exits or its idle
/// budget runs out.
pub(super) fn drive(mut core: DaemonCore) {
    let shared = Arc::clone(&core.shared);
    let config = &shared.config;
    let mut idle_passes: u32 = 0;
    loop {
        // Sample the wake-up generation *before* the poll scans for work: a
        // signal racing the scan then prevents the park below.
        let wake_seen = shared.daemon_wake.generation();
        let park = || {
            shared
                .daemon_wake
                .park_if_unchanged(wake_seen, config.restart_backoff);
        };
        match core.poll() {
            Progress::Advanced(_) => idle_passes = 0,
            // A peer daemon has to move; keep the slice hot.
            Progress::Blocked(BlockedOn::Connectors) => std::hint::spin_loop(),
            // The poller owns the published entries: wake it and give it the
            // CPU — on a single core it needs this one to drain.
            Progress::Blocked(BlockedOn::CqSpace) => {
                shared.notify_poller();
                std::thread::yield_now();
            }
            // An exit request cuts the wait short; the end of the device
            // synchronization is discovered on the next timed attempt.
            Progress::Blocked(BlockedOn::Residency) => park(),
            Progress::Idle => {
                idle_passes += 1;
                // Quit early when a device synchronization is blocked on
                // this daemon; otherwise spin briefly (sub-microsecond
                // reaction while a burst is still arriving), then park until
                // a wake-up signal, and quit once the budget is exhausted.
                let sync_blocked = idle_passes >= 2 && shared.device.sync_pending();
                if sync_blocked || idle_passes >= config.idle_passes_before_quit {
                    core.retire(true);
                    return;
                }
                if idle_passes <= config.idle_spin_passes {
                    std::thread::yield_now();
                } else {
                    park();
                }
            }
            Progress::Exited => return,
        }
    }
}
