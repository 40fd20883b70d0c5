//! The CPU-side poller thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use super::{DaemonController, DaemonShared};
use crate::cq::Cqe;

/// The CPU-side poller: drains the CQ in batches, runs the callbacks bound to
/// completed collectives, and restarts the daemon kernel while completions
/// are owed (the second half of DFCCL's event-driven starting rule). Parks on
/// the completion signal instead of sleep-polling.
pub fn run_poller(
    shared: Arc<DaemonShared>,
    controller: Arc<DaemonController>,
    stop: Arc<AtomicBool>,
) {
    let mut batch: Vec<Cqe> = Vec::new();
    loop {
        let ready_seen = shared.cq_ready.generation();
        batch.clear();
        shared.cq.drain_into(&mut batch);
        for cqe in &batch {
            if let Some(cb) = shared.callbacks.take(cqe.coll_id) {
                cb();
            }
        }
        if stop.load(Ordering::Acquire) && shared.cq.is_empty() && shared.outstanding() == 0 {
            return;
        }
        if batch.is_empty() {
            // Completions are owed but no daemon is running: restart it.
            if shared.outstanding() > 0 && !shared.is_running() {
                controller.ensure_running();
            }
            shared
                .cq_ready
                .park_if_unchanged(ready_seen, shared.config.restart_backoff);
        }
    }
}
