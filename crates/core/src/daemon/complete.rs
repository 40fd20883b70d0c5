//! The **complete** stage: route an invocation's outcome to its CQE (or its
//! graph run), account it, and publish the pending CQE batch without ever
//! waiting for CQ space.

use std::sync::atomic::Ordering;

use super::core::DaemonCore;
use crate::context::GraphTag;
use crate::cq::Cqe;
use crate::telemetry::TelemetryEventKind;
use crate::tenant::TenantId;

/// Completion-batch flush threshold: the core buffers CQEs for completed
/// collectives and publishes them with one batched CQ round once this many
/// are pending. The batch is also published between passes, so completions
/// are never delayed across passes.
pub(super) const CQ_WRITE_BATCH: usize = 16;

impl DaemonCore {
    /// Deliver the outcome of one invocation of `coll_id`: record a failure
    /// (the error map and a `Failed` fact — the failure is still delivered
    /// through the CQ), then count a graph-tagged invocation down against its
    /// replay or buffer an individual invocation's own CQE.
    pub(super) fn finish_invocation(
        &mut self,
        coll_id: u64,
        tenant: TenantId,
        graph: Option<GraphTag>,
        failed: Option<String>,
    ) {
        if let Some(reason) = &failed {
            self.shared.errors.lock().insert(coll_id, reason.clone());
            self.shared
                .telemetry
                .record(coll_id, tenant, TelemetryEventKind::Failed);
        }
        match graph {
            Some(tag) => self.complete_graph_node(tag, failed),
            None => self.enqueue_completion(coll_id, tenant),
        }
    }

    /// Append a CQE to the pending batch, publishing opportunistically at
    /// the batch threshold. The `Complete` fact and the tenant's quota slot
    /// land here, before the CQE can become visible: a caller woken by its
    /// completion callback already sees the completion in `stats()` /
    /// `tenant_stats()`.
    pub(super) fn enqueue_completion(&mut self, coll_id: u64, tenant: TenantId) {
        let shared = &self.shared;
        shared
            .telemetry
            .record(coll_id, tenant, TelemetryEventKind::Complete);
        shared.tenants.state(tenant).release_run();
        self.completions.push(Cqe { coll_id });
        if self.completions.len() >= CQ_WRITE_BATCH {
            self.publish();
        }
    }

    /// Publish the pending CQE batch with one batched CQ round and wake the
    /// poller. Returns `false` when the CQ refused part of the batch: the
    /// unpublished tail is retained (nothing is dropped or duplicated) and
    /// the caller reports `Blocked(CqSpace)`.
    pub(super) fn publish(&mut self) -> bool {
        if self.completions.is_empty() {
            return true;
        }
        let shared = &self.shared;
        let published = shared.cq.push_n(&self.completions);
        if published > 0 {
            let write = shared.cq.write_cost(published);
            shared
                .telemetry
                .record_cqe_write_time(write, published as u64);
            // `outstanding` moves only after publication: the carrier's leave
            // condition and `destroy` read it as "no CQE is still owed".
            let previous = shared
                .outstanding
                .fetch_sub(published as u64, Ordering::AcqRel);
            debug_assert!(
                previous >= published as u64,
                "completion without a matching submission"
            );
            self.completions.drain(..published);
            shared.notify_poller();
        }
        self.completions.is_empty()
    }
}
