//! The poller's step: drain a rank's CQ and run the callbacks bound to what
//! completed (steps ❻–❼ of Fig. 4). Its carrier calls it (`world.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use super::DaemonShared;
use crate::cq::Cqe;

/// Drain `shared`'s CQ into `batch` and run the callback bound to each
/// entry. A callback that panics is reported by the panic hook and skipped:
/// it must not take down the carrier and every other rank it steps.
pub(super) fn drain(shared: &DaemonShared, batch: &mut Vec<Cqe>) {
    batch.clear();
    shared.cq.drain_into(batch);
    for cqe in batch.iter() {
        if let Some(callback) = shared.callbacks.take(cqe.coll_id) {
            let _ = catch_unwind(AssertUnwindSafe(callback));
        }
    }
}
