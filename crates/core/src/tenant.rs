//! Multi-tenant service mode: tenant identity, quotas and per-rank admission
//! accounting.
//!
//! The paper's daemon-kernel design assumes one job owns the domain; service
//! mode turns [`crate::DfcclDomain`] into shared infrastructure. A **tenant**
//! is a job sharing the domain: it registers collectives under a
//! [`TenantHandle`] (minted by `DfcclDomain::tenant`), is admitted against a
//! [`TenantQuota`] (max outstanding invocations, residency budget of
//! registered collectives, scheduling weight), and is scheduled from its own
//! task-queue lane by the weighted-fair arbiter
//! ([`crate::task_queue::TenantScheduler`]).
//!
//! Admission failures are **typed backpressure**, not wedges: a tenant at its
//! quota gets [`AdmissionError::AtQuota`] (retryable — resubmit after a
//! completion) while other tenants keep progressing. The per-rank
//! [`TenantTable`] holds the admission counters; the tenant's lifecycle
//! counts are sums over its rows in the rank's ledger
//! ([`crate::telemetry::Telemetry::tenant_stats`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::telemetry::{CollectiveStats, TenantStats};

/// First-class tenant identity. `TenantId::DEFAULT` (id 0) is the implicit
/// tenant of every registration made without a handle — single-job use of the
/// API is tenant 0 throughout and behaves exactly as before service mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit tenant of handle-less registrations.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Per-tenant quotas and scheduling weight.
///
/// * `max_outstanding` caps invocations submitted-but-not-completed per rank
///   (admission backpressure at `run` time).
/// * `residency_budget` caps registered collectives per rank — registrations
///   consume context-buffer residency and communicator state, so a tenant
///   cannot squat the device with unbounded registrations.
/// * `weight` is the tenant's share under weighted-fair arbitration: per
///   scheduling pass a tenant receives scheduling slices proportional to its
///   weight when lanes contend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum invocations in flight per rank (`u64::MAX` = unlimited).
    pub max_outstanding: u64,
    /// Maximum registered collectives per rank (`u64::MAX` = unlimited).
    pub residency_budget: u64,
    /// Scheduling weight (minimum effective weight is 1).
    pub weight: u32,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_outstanding: u64::MAX,
            residency_budget: u64::MAX,
            weight: 1,
        }
    }
}

impl TenantQuota {
    /// Cap invocations in flight per rank.
    pub fn with_max_outstanding(mut self, max: u64) -> Self {
        self.max_outstanding = max;
        self
    }

    /// Cap registered collectives per rank.
    pub fn with_residency_budget(mut self, budget: u64) -> Self {
        self.residency_budget = budget;
        self
    }

    /// Set the scheduling weight (values below 1 are treated as 1).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// The effective arbitration weight (never 0).
    pub fn effective_weight(&self) -> u32 {
        self.weight.max(1)
    }
}

/// Typed admission backpressure: why a submission or registration was not
/// admitted. Distinct from [`crate::DfcclError::SubmissionQueueFull`] (the
/// rank-wide SQ backpressure signal, which remains its own variant): admission
/// errors are *per-tenant* and carry the quota that tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant is at `max_outstanding`; retry after a completion frees a
    /// slot. This is the backpressure-not-a-wedge guarantee: other tenants
    /// keep progressing while this one waits.
    AtQuota {
        /// The tenant that was refused.
        tenant: TenantId,
        /// Invocations currently in flight for the tenant on this rank.
        outstanding: u64,
        /// The tenant's cap.
        max_outstanding: u64,
    },
    /// The tenant is at its residency budget of registered collectives; not
    /// retryable without raising the budget (there is no unregister).
    ResidencyExhausted {
        /// The tenant that was refused.
        tenant: TenantId,
        /// Collectives currently registered for the tenant on this rank.
        registered: u64,
        /// The tenant's budget.
        residency_budget: u64,
    },
    /// The handle does not belong to this rank's domain.
    UnknownTenant(TenantId),
}

impl AdmissionError {
    /// Whether retrying the same call later can succeed without
    /// reconfiguration (the retry signal: `AtQuota` clears as completions
    /// drain; the other variants need operator action).
    pub fn is_retryable(&self) -> bool {
        matches!(self, AdmissionError::AtQuota { .. })
    }

    /// The tenant the error is about.
    pub fn tenant(&self) -> TenantId {
        match *self {
            AdmissionError::AtQuota { tenant, .. } => tenant,
            AdmissionError::ResidencyExhausted { tenant, .. } => tenant,
            AdmissionError::UnknownTenant(tenant) => tenant,
        }
    }
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AdmissionError::AtQuota {
                tenant,
                outstanding,
                max_outstanding,
            } => write!(
                f,
                "{tenant} is at its outstanding quota ({outstanding}/{max_outstanding}); \
                 retry after a completion"
            ),
            AdmissionError::ResidencyExhausted {
                tenant,
                registered,
                residency_budget,
            } => write!(
                f,
                "{tenant} exhausted its residency budget ({registered}/{residency_budget} \
                 registered collectives)"
            ),
            AdmissionError::UnknownTenant(tenant) => {
                write!(f, "{tenant} is not registered with this domain")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A tenant handle minted by `DfcclDomain::tenant`: the capability a job
/// passes to `RankCtx::register_for` to register collectives under its
/// identity and quota. Handles are domain-scoped — a handle from another
/// domain is rejected at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantHandle {
    pub(crate) id: TenantId,
    pub(crate) quota: TenantQuota,
}

impl TenantHandle {
    /// The tenant's identity.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant's quota.
    pub fn quota(&self) -> TenantQuota {
        self.quota
    }
}

/// Per-rank, per-tenant admission state: the counters quotas are checked
/// against (outstanding, registered) and the scheduling-lane depth gauge
/// maintained by the daemon. The tenant's lifecycle counts live in the
/// rank's ledger ([`crate::telemetry::Telemetry`]). All fields are relaxed
/// atomics — reads are snapshots.
#[derive(Debug)]
pub struct TenantState {
    id: TenantId,
    quota: TenantQuota,
    outstanding: AtomicU64,
    registered: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl TenantState {
    fn new(id: TenantId, quota: TenantQuota) -> Arc<Self> {
        Arc::new(TenantState {
            id,
            quota,
            outstanding: AtomicU64::new(0),
            registered: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        })
    }

    /// The tenant this state belongs to.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The quota admission checks against.
    pub fn quota(&self) -> TenantQuota {
        self.quota
    }

    /// The effective arbitration weight.
    pub fn weight(&self) -> u32 {
        self.quota.effective_weight()
    }

    /// Invocations in flight for the tenant on this rank.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Admit one invocation against `max_outstanding` (CAS loop so concurrent
    /// submitters cannot jointly overshoot the quota).
    pub fn try_admit_run(&self) -> Result<(), AdmissionError> {
        let mut current = self.outstanding.load(Ordering::Acquire);
        loop {
            if current >= self.quota.max_outstanding {
                return Err(AdmissionError::AtQuota {
                    tenant: self.id,
                    outstanding: current,
                    max_outstanding: self.quota.max_outstanding,
                });
            }
            match self.outstanding.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(observed) => current = observed,
            }
        }
    }

    /// Give an admitted invocation's quota slot back: its CQE was enqueued,
    /// or its SQE never became visible (SQ full). Saturating, so completions
    /// synthesized for never-admitted ids (e.g. raw SQEs injected in daemon
    /// tests) cannot underflow.
    pub fn release_run(&self) {
        let _ = self
            .outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Admit one registration against `residency_budget`.
    pub fn try_admit_register(&self) -> Result<(), AdmissionError> {
        let mut current = self.registered.load(Ordering::Acquire);
        loop {
            if current >= self.quota.residency_budget {
                return Err(AdmissionError::ResidencyExhausted {
                    tenant: self.id,
                    registered: current,
                    residency_budget: self.quota.residency_budget,
                });
            }
            match self.registered.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(observed) => current = observed,
            }
        }
    }

    /// A registration was removed (elastic membership shrink). Saturating so
    /// removals synthesized for never-admitted registrations cannot
    /// underflow.
    pub fn on_unregister(&self) {
        let _ = self
            .registered
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Update the scheduling-lane depth gauge (daemon, once per pass).
    pub fn record_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Point-in-time copy of the admission state, completed with `life`:
    /// the sums of the tenant's rows in the rank's ledger.
    pub fn stats(&self, life: &CollectiveStats) -> TenantStats {
        TenantStats {
            tenant: self.id,
            weight: self.weight(),
            outstanding: self.outstanding.load(Ordering::Acquire),
            registered: self.registered.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            submitted: life.submits,
            completed: life.completions,
            failed: life.failures,
            preempted: life.preemptions,
            recovered: life.recovered,
        }
    }
}

/// The per-rank tenant table: lazily materializes a [`TenantState`] per
/// tenant seen on this rank. The default tenant gets the configured default
/// quota; handle-registered tenants get the handle's quota.
#[derive(Debug)]
pub struct TenantTable {
    default_quota: TenantQuota,
    states: RwLock<HashMap<TenantId, Arc<TenantState>>>,
}

impl TenantTable {
    /// An empty table whose implicitly created tenants use `default_quota`.
    pub fn new(default_quota: TenantQuota) -> Arc<Self> {
        Arc::new(TenantTable {
            default_quota,
            states: RwLock::new(HashMap::new()),
        })
    }

    /// The state for `tenant`, created with the default quota if this rank
    /// has not seen the tenant yet. Never fails: daemon-side lookups for ids
    /// the API layer never admitted (injected SQEs) fall back to a
    /// default-quota state.
    pub fn state(&self, tenant: TenantId) -> Arc<TenantState> {
        if let Some(state) = self.states.read().get(&tenant) {
            return Arc::clone(state);
        }
        let mut states = self.states.write();
        Arc::clone(
            states
                .entry(tenant)
                .or_insert_with(|| TenantState::new(tenant, self.default_quota)),
        )
    }

    /// The state for a handle-registered tenant, created with the handle's
    /// quota on first sight. The quota a rank first sees for a tenant wins
    /// (handles of one tenant are expected to be identical across ranks).
    pub fn state_for(&self, handle: &TenantHandle) -> Arc<TenantState> {
        if let Some(state) = self.states.read().get(&handle.id) {
            return Arc::clone(state);
        }
        let mut states = self.states.write();
        Arc::clone(
            states
                .entry(handle.id)
                .or_insert_with(|| TenantState::new(handle.id, handle.quota)),
        )
    }

    /// Every tenant this rank has seen, sorted by tenant id.
    pub fn states(&self) -> Vec<Arc<TenantState>> {
        let mut all: Vec<Arc<TenantState>> = self.states.read().values().cloned().collect();
        all.sort_by_key(|state| state.id);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_quota_is_unlimited_weight_one() {
        let q = TenantQuota::default();
        assert_eq!(q.max_outstanding, u64::MAX);
        assert_eq!(q.residency_budget, u64::MAX);
        assert_eq!(q.effective_weight(), 1);
        assert_eq!(TenantQuota::default().with_weight(0).effective_weight(), 1);
    }

    #[test]
    fn at_quota_is_retryable_backpressure() {
        let table = TenantTable::new(TenantQuota::default());
        let handle = TenantHandle {
            id: TenantId(3),
            quota: TenantQuota::default().with_max_outstanding(2),
        };
        let state = table.state_for(&handle);
        state.try_admit_run().unwrap();
        state.try_admit_run().unwrap();
        let err = state.try_admit_run().unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(err.tenant(), TenantId(3));
        assert!(err.to_string().contains("2/2"), "{err}");
        // A completion frees the slot; retry succeeds.
        state.release_run();
        state.try_admit_run().unwrap();
        assert_eq!(state.outstanding(), 2);
    }

    #[test]
    fn residency_budget_caps_registrations() {
        let table = TenantTable::new(TenantQuota::default());
        let handle = TenantHandle {
            id: TenantId(7),
            quota: TenantQuota::default().with_residency_budget(1),
        };
        let state = table.state_for(&handle);
        state.try_admit_register().unwrap();
        let err = state.try_admit_register().unwrap_err();
        assert!(!err.is_retryable(), "residency exhaustion is not retryable");
        assert!(matches!(err, AdmissionError::ResidencyExhausted { .. }));
    }

    #[test]
    fn release_never_underflows() {
        let table = TenantTable::new(TenantQuota::default().with_max_outstanding(8));
        let state = table.state(TenantId::DEFAULT);
        state.try_admit_run().unwrap();
        state.release_run();
        assert_eq!(state.outstanding(), 0);
        state.release_run(); // completion without admission (injected SQE)
        assert_eq!(state.outstanding(), 0);
    }

    #[test]
    fn states_sort_by_tenant_and_track_gauges() {
        let table = TenantTable::new(TenantQuota::default());
        table.state(TenantId(2)).record_queue_depth(5);
        table.state(TenantId(2)).record_queue_depth(1);
        table.state(TenantId(0));
        let states = table.states();
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].id(), TenantId(0));
        let snap = states[1].stats(&CollectiveStats::default());
        assert_eq!(snap.tenant, TenantId(2));
        assert_eq!(snap.queue_depth, 1, "gauge holds the latest depth");
        assert_eq!(snap.max_queue_depth, 5, "high-water mark persists");
    }
}
