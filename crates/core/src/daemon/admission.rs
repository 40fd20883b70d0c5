//! The **admission** stage: fetch SQE batches, expand graph replays and
//! queue every invocation on its tenant's scheduling lane. (The *quota* half
//! of admission runs API-side at submit time, where the typed
//! [`crate::tenant::AdmissionError`] backpressure can be returned.)

use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::core::DaemonCore;
use super::{is_graph_id, RegisteredCollective};
use crate::context::DynamicContext;
use crate::telemetry::TelemetryEventKind;
use crate::tenant::TenantId;

impl DaemonCore {
    /// Start tracking `coll_id` unless the scheduler already does: queue it
    /// on its tenant's lane with the configured initial spin threshold for
    /// its arrival position. `reg` is its registration if the caller holds
    /// it (graph nodes), else the registry is consulted; an unregistered id
    /// queues under tenant 0 and is failed when its slice opens. Returns the
    /// tenant it is accounted to.
    pub(super) fn track(
        &mut self,
        coll_id: u64,
        reg: Option<&Arc<RegisteredCollective>>,
    ) -> TenantId {
        let shared = &self.shared;
        let (priority, tenant) = reg
            .cloned()
            .or_else(|| self.registry.get(shared, coll_id))
            .map_or((0, TenantId::DEFAULT), |r| (r.desc.priority, r.tenant));
        if !self.scheduler.contains(coll_id) {
            let state = shared.tenants.state(tenant);
            let initial_spin = shared.config.spin.initial_threshold(self.scheduler.len());
            self.scheduler.push(coll_id, &state, priority, initial_spin);
        }
        tenant
    }

    /// Fetch and parse SQEs, a batch per cursor-lock acquisition, until the
    /// SQ is empty. Returns how many were fetched.
    pub(super) fn admit(&mut self) -> usize {
        let sq_fetch_batch = self.shared.config.sq_fetch_batch.max(1);
        let mut fetched_total = 0;
        // Out of `self` while SQEs are processed (graph expansion needs the
        // whole core); the allocation is put back for the next step.
        let mut batch = std::mem::take(&mut self.sqe_batch);
        loop {
            batch.clear();
            let fetched = {
                let mut cursor = self.shared.sq_cursor.lock();
                self.shared
                    .sq
                    .fetch_batch(&mut cursor, sq_fetch_batch, &mut batch)
            };
            if fetched == 0 {
                break;
            }
            let shared = &self.shared;
            let read = shared.sq.read_cost(fetched);
            shared.telemetry.record_sqe_read(read, fetched as u64);
            fetched_total += fetched;
            for sqe in batch.drain(..) {
                if sqe.exit {
                    self.shared.final_exit.store(true, Ordering::Release);
                    continue;
                }
                if is_graph_id(sqe.coll_id) {
                    self.expand_graph(sqe.coll_id, sqe.seq);
                    continue;
                }
                self.shared.contexts.enqueue_invocation(
                    sqe.coll_id,
                    DynamicContext::new(sqe.seq, sqe.send, sqe.recv),
                );
                let tenant = self.track(sqe.coll_id, None);
                let telemetry = &self.shared.telemetry;
                telemetry.record(sqe.coll_id, tenant, TelemetryEventKind::Fetch);
                telemetry.record_queue_len(sqe.coll_id, tenant, self.scheduler.len() as u64);
            }
            self.shared
                .admitted
                .fetch_add(fetched as u64, Ordering::Release);
        }
        self.sqe_batch = batch;
        fetched_total
    }

    /// (Re)build the scheduling lanes from the context store: every
    /// collective with pending invocations starts being tracked. Runs when
    /// the incarnation becomes resident and after a recovery rescan request
    /// ([`super::DaemonShared::request_rescan`]).
    pub(super) fn rebuild_lanes(&mut self) {
        for coll_id in self.shared.contexts.incomplete_ids() {
            self.track(coll_id, None);
        }
    }
}
