//! Self-healing collectives: the recovery coordinator that closes the loop
//! from a watchdog [`StallReport`] back to forward progress.
//!
//! The state machine is **detect → quarantine → re-plan → resubmit**
//! (DESIGN.md §7):
//!
//! 1. **Detect** — [`RecoveryCoordinator::supervise`] wraps the transport
//!    watchdog ([`dfccl_transport::supervise_with_probe`]) around a running
//!    workload; a stall deadline expiring with zero progress yields a
//!    [`StallReport`] naming the guilty edges and collectives.
//! 2. **Quarantine** — the report's failed edges are marked dead in the
//!    domain's [`dfccl_transport::LinkHealth`] map. Every downstream consumer
//!    observes the quarantine: the plan cache misses (the health generation
//!    is part of the key), the selector re-plans around the edge, the cost
//!    model refuses schedules that cross it, and the communicator mesh
//!    relabels new connectors onto rerouted physical channels.
//! 3. **Re-plan** — each stalled collective is re-registered through the
//!    plan cache on every rank. Degraded mode either swaps ring for a
//!    double-binary tree or keeps the algorithm and reroutes the striped
//!    channel around the dead edge; either way the schedule is a capacity-1
//!    per-collective structure of the same family, so the paper's
//!    deadlock-freedom argument applies unchanged.
//! 4. **Resubmit** — partially-executed invocations are rolled back and
//!    **re-executed from their source buffers** (chunks already reduced into
//!    the receive buffer cannot be resumed — re-running the full reduction
//!    from the unmodified send buffers is the only bit-exact option). The
//!    rolled-back contexts keep their submission sequence and bound
//!    callbacks, so completion publishes the original CQE and the caller
//!    never observes the failure. Ranks that already completed a round their
//!    peers did not re-execute it as a *silent ghost replay* (no CQE, no
//!    callback, a private recv buffer) so the collective's rounds stay
//!    aligned across ranks. The ghost still reads the caller's send buffer,
//!    so an in-place invocation, or a send buffer reused after its callback,
//!    feeds the replay the wrong operand.
//!
//! A typed [`RetryPolicy`] (bounded attempts, decorrelated-jitter backoff)
//! governs both the coordinator's resubmission loop and the API-level
//! retryable-admission path ([`crate::RankCtx::run_with_retry`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl_collectives::DeviceBuffer;
use dfccl_transport::{supervise_with_probe, EdgeId, StallReport, SuperviseOutcome};

use crate::api::{DfcclError, RankCtx};
use crate::context::DynamicContext;

/// Bounded-retry policy with decorrelated-jitter backoff, shared by the
/// recovery coordinator's resubmission loop and
/// [`crate::RankCtx::run_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts before giving up (minimum 1).
    pub max_attempts: u32,
    /// Lower bound of every backoff draw.
    pub base_backoff: Duration,
    /// Upper clamp of every backoff draw.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream (tests pin it).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(50),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Set the total attempt budget.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Set the backoff bounds.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// Set the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A fresh backoff state for one retry sequence.
    pub fn backoff(&self) -> Backoff {
        Backoff {
            policy: *self,
            prev: self.base_backoff,
            rng: self.seed | 1,
        }
    }

    /// Run `op` until it succeeds, fails non-retryably, or the attempt
    /// budget is spent (the last error is returned). Sleeps a
    /// decorrelated-jitter backoff between attempts.
    pub fn run<T, E>(
        &self,
        mut op: impl FnMut() -> Result<T, E>,
        retryable: impl Fn(&E) -> bool,
    ) -> Result<T, E> {
        let budget = self.max_attempts.max(1);
        let mut backoff = self.backoff();
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if attempt >= budget || !retryable(&e) {
                        return Err(e);
                    }
                    std::thread::sleep(backoff.next());
                }
            }
        }
    }
}

/// Decorrelated-jitter backoff state: each delay is drawn uniformly from
/// `[base, 3 * previous]` and clamped to `max` ("decorrelated jitter" —
/// successive delays grow but never synchronize across retriers).
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    prev: Duration,
    rng: u64,
}

impl Backoff {
    /// The next delay to sleep. Not an `Iterator`: the stream is infinite
    /// and every draw succeeds, so an `Option` wrapper would only obscure
    /// the call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Duration {
        // splitmix64 step for the jitter draw.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;

        let lo = self.policy.base_backoff.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64).saturating_mul(3).max(lo);
        let span = hi - lo;
        let drawn = if span == 0 { lo } else { lo + z % (span + 1) };
        let capped = drawn.min(self.policy.max_backoff.as_nanos() as u64);
        self.prev = Duration::from_nanos(capped);
        self.prev
    }
}

/// What one successful [`RecoveryCoordinator::recover`] pass did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOutcome {
    /// Edges newly quarantined in the domain's link-health map.
    pub quarantined: Vec<EdgeId>,
    /// Collectives that were rolled back and re-planned.
    pub collectives: Vec<u64>,
    /// Invocations rolled back and resubmitted (across all ranks).
    pub rolled_back: usize,
    /// Silent ghost replays injected to re-align rank round counts.
    pub ghost_replays: usize,
    /// Ranks whose re-planned schedule is degraded (avoids a quarantined
    /// edge).
    pub degraded_plans: usize,
}

/// Why a recovery attempt (or a whole supervised run) failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The retry budget was exhausted; the last stall report is attached.
    Exhausted {
        /// Recovery attempts made.
        attempts: u32,
        /// Human-readable summary of the final stall.
        last_report: String,
    },
    /// A collective's in-flight execution slice did not check its context
    /// back in within the quiesce deadline.
    QuiesceTimeout {
        /// The collective that would not quiesce.
        coll_id: u64,
    },
    /// Re-registration of a rolled-back collective failed.
    Api(DfcclError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Exhausted {
                attempts,
                last_report,
            } => {
                write!(
                    f,
                    "recovery exhausted after {attempts} attempts: {last_report}"
                )
            }
            RecoveryError::QuiesceTimeout { coll_id } => {
                write!(f, "collective {coll_id} did not quiesce for recovery")
            }
            RecoveryError::Api(e) => write!(f, "recovery re-registration failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<DfcclError> for RecoveryError {
    fn from(e: DfcclError) -> Self {
        RecoveryError::Api(e)
    }
}

/// Drives stall recovery for a set of rank contexts of one domain.
pub struct RecoveryCoordinator {
    policy: RetryPolicy,
    /// How long to wait for an in-flight execution slice to check its
    /// context back in before declaring the collective unquiesceable.
    quiesce_deadline: Duration,
}

impl RecoveryCoordinator {
    /// A coordinator with the given retry policy.
    pub fn new(policy: RetryPolicy) -> Self {
        RecoveryCoordinator {
            policy,
            quiesce_deadline: Duration::from_secs(2),
        }
    }

    /// Override the quiesce deadline (tests shorten it).
    pub fn with_quiesce_deadline(mut self, deadline: Duration) -> Self {
        self.quiesce_deadline = deadline;
        self
    }

    /// The retry policy in effect.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Supervise `done` over the domain of `ranks`: run the transport
    /// watchdog and, on every detected stall, [`RecoveryCoordinator::recover`]
    /// automatically — up to the policy's attempt budget. Returns the number
    /// of recoveries performed (0 for a fault-free run).
    pub fn supervise(
        &self,
        ranks: &[&RankCtx],
        done: &dyn Fn() -> bool,
        stall_deadline: Duration,
    ) -> Result<u32, RecoveryError> {
        let Some(first) = ranks.first() else {
            return Ok(0);
        };
        let domain = Arc::clone(first.domain());
        let probe = move || domain.edge_samples();
        let mut attempts: u32 = 0;
        let mut backoff = self.policy.backoff();
        loop {
            match supervise_with_probe(done, stall_deadline, &probe) {
                SuperviseOutcome::AllCompleted => return Ok(attempts),
                SuperviseOutcome::Stalled(report) => {
                    attempts += 1;
                    if attempts > self.policy.max_attempts.max(1) {
                        return Err(RecoveryError::Exhausted {
                            attempts,
                            last_report: report.to_string(),
                        });
                    }
                    self.recover(ranks, &report)?;
                    std::thread::sleep(backoff.next());
                }
            }
        }
    }

    /// One recovery pass over `ranks` for the stall described by `report`:
    /// quarantine the failed edges, roll back the stalled collectives,
    /// re-plan them around the quarantine, and resubmit the rolled-back
    /// invocations under their original submission sequence (the CQE a
    /// caller eventually sees is the one it was promised at `run` time).
    pub fn recover(
        &self,
        ranks: &[&RankCtx],
        report: &StallReport,
    ) -> Result<RecoveryOutcome, RecoveryError> {
        let Some(first) = ranks.first() else {
            return Ok(RecoveryOutcome::default());
        };
        let mut outcome = RecoveryOutcome::default();

        // 1. Quarantine: mark the guilty edges dead in the domain health
        // map. This bumps the health generation, so every later plan-cache
        // lookup re-plans, and new connectors for those physical labels are
        // rerouted.
        let health = first.domain().link_health();
        for sample in &report.failed_edges {
            if health.quarantine(sample.edge) {
                outcome.quarantined.push(sample.edge);
            }
        }

        // Which collectives to roll back: the report's attribution, falling
        // back to every collective with pending work (a wedge report may
        // carry no attribution).
        let mut colls: BTreeSet<u64> = report.stalled_collectives.iter().copied().collect();
        if colls.is_empty() {
            for ctx in ranks {
                colls.extend(ctx.shared_state().contexts.incomplete_ids());
            }
        }

        // 2. Roll back: drain each stalled collective's pending invocations
        // on every rank and wait for in-flight slices to finish. Drained
        // contexts are keyed by (rank index, coll) for the rebuild below.
        let mut drained: BTreeMap<(usize, u64), Vec<DynamicContext>> = BTreeMap::new();
        for (r, ctx) in ranks.iter().enumerate() {
            let shared = ctx.shared_state();
            for &coll in &colls {
                if !shared.registered.read().contains_key(&coll) {
                    continue;
                }
                shared.telemetry.record_recovery_attempt();
                drained.insert((r, coll), shared.contexts.begin_recovery(coll));
            }
        }
        let quiesce_end = Instant::now() + self.quiesce_deadline;
        for (&(r, coll), bucket) in drained.iter_mut() {
            let shared = ranks[r].shared_state();
            while shared.contexts.in_slice(coll) {
                if Instant::now() >= quiesce_end {
                    return Err(RecoveryError::QuiesceTimeout { coll_id: coll });
                }
                std::thread::yield_now();
            }
            bucket.extend(shared.contexts.take_recovered(coll));
        }

        // 3. Reset transport state: wipe the interrupted round's in-flight
        // chunks and drop connectors labeled with quarantined edges, so the
        // rebind below recreates them on rerouted channels.
        for &coll in &colls {
            let comm = ranks.iter().find_map(|ctx| {
                ctx.shared_state()
                    .registered
                    .read()
                    .get(&coll)
                    .map(|reg| Arc::clone(&reg.communicator))
            });
            if let Some(comm) = comm {
                comm.clear();
                comm.purge_dead();
            }
        }

        // 4. Re-plan: re-register each stalled collective through the plan
        // cache under the new health generation (same id, same tenant, no
        // residency re-charge).
        for ctx in ranks {
            for &coll in &colls {
                if !ctx.shared_state().registered.read().contains_key(&coll) {
                    continue;
                }
                if ctx.reregister_for_recovery(coll)? {
                    outcome.degraded_plans += 1;
                }
            }
        }

        // 5. Resubmit: rebuild each drained invocation as a fresh context
        // (same run_seq and buffers — re-execute, don't resume), prefixed by
        // a silent ghost replay on ranks that completed a round their peers
        // did not.
        for &coll in &colls {
            let participants: Vec<usize> = (0..ranks.len())
                .filter(|&r| drained.contains_key(&(r, coll)))
                .collect();
            let min_done = participants
                .iter()
                .map(|&r| ranks[r].shared_state().contexts.completed_count(coll))
                .min()
                .unwrap_or(0);
            for &r in &participants {
                let shared = ranks[r].shared_state();
                let mut rebuilt = Vec::new();
                if shared.contexts.completed_count(coll) > min_done {
                    if let Some((run_seq, send, recv, _)) = shared.contexts.last_completed(coll) {
                        // The round's CQE has fired: `recv` is the caller's
                        // again. The ghost only has to feed its peers, so it
                        // accumulates into a private buffer.
                        let scratch = DeviceBuffer::zeroed(recv.len());
                        let mut ghost = DynamicContext::new(run_seq, send, scratch);
                        ghost.silent_replay = true;
                        rebuilt.push(ghost);
                        outcome.ghost_replays += 1;
                    }
                }
                let mut bucket = drained.remove(&(r, coll)).unwrap_or_default();
                bucket.sort_by_key(|c| c.run_seq);
                let tenant = shared.registered.read().get(&coll).map(|reg| reg.tenant);
                for old in bucket {
                    let mut fresh = DynamicContext::new(old.run_seq, old.send, old.recv);
                    fresh.graph = old.graph;
                    fresh.silent_replay = old.silent_replay;
                    if !fresh.silent_replay {
                        outcome.rolled_back += 1;
                        if let Some(tenant) = tenant {
                            shared.tenants.state(tenant).on_recovered();
                        }
                    }
                    rebuilt.push(fresh);
                }
                shared.contexts.end_recovery(coll, rebuilt);
                shared.telemetry.record_recovery_success();
            }
            outcome.collectives.push(coll);
        }

        // 6. Wake every rank: a running daemon re-scans the context store; an
        // idle one is restarted and finds the contexts in its rebuild.
        for ctx in ranks {
            ctx.shared_state().request_rescan();
            ctx.daemon_controller().ensure_running();
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_draws_stay_within_bounds_and_are_deterministic() {
        let policy = RetryPolicy::default()
            .with_backoff(Duration::from_micros(100), Duration::from_millis(10))
            .with_seed(42);
        let mut a = policy.backoff();
        let mut b = policy.backoff();
        let mut prev = policy.base_backoff;
        for _ in 0..50 {
            let d = a.next();
            assert_eq!(d, b.next(), "same seed, same stream");
            assert!(d >= policy.base_backoff, "below base: {d:?}");
            assert!(d <= policy.max_backoff, "above clamp: {d:?}");
            // Decorrelated jitter: bounded by 3x the previous draw.
            let cap = Duration::from_nanos(
                (prev.as_nanos() as u64)
                    .saturating_mul(3)
                    .max(policy.base_backoff.as_nanos() as u64)
                    .min(policy.max_backoff.as_nanos() as u64),
            );
            assert!(d <= cap, "{d:?} exceeds decorrelated cap {cap:?}");
            prev = d;
        }
    }

    #[test]
    fn retry_run_respects_budget_and_retryability() {
        let policy = RetryPolicy::default()
            .with_max_attempts(3)
            .with_backoff(Duration::ZERO, Duration::ZERO);
        // Retryable errors are retried up to the budget.
        let mut calls = 0;
        let out: Result<(), &str> = policy.run(
            || {
                calls += 1;
                Err("again")
            },
            |_| true,
        );
        assert!(out.is_err());
        assert_eq!(calls, 3, "budget is total attempts");
        // Non-retryable errors fail fast.
        let mut calls = 0;
        let out: Result<(), &str> = policy.run(
            || {
                calls += 1;
                Err("fatal")
            },
            |_| false,
        );
        assert!(out.is_err());
        assert_eq!(calls, 1);
        // Success on a later attempt stops the loop.
        let mut calls = 0;
        let out: Result<u32, &str> = policy.run(
            || {
                calls += 1;
                if calls < 3 {
                    Err("again")
                } else {
                    Ok(calls)
                }
            },
            |_| true,
        );
        assert_eq!(out.unwrap(), 3);
    }

    #[test]
    fn recover_with_no_ranks_is_a_no_op() {
        let coordinator = RecoveryCoordinator::new(RetryPolicy::default());
        let report = StallReport {
            kind: dfccl_transport::StallKind::Wedge,
            failed_edges: Vec::new(),
            stalled_edges: Vec::new(),
            stalled_collectives: vec![1],
            unfinished: Vec::new(),
        };
        let outcome = coordinator.recover(&[], &report).unwrap();
        assert!(outcome.collectives.is_empty());
        assert_eq!(outcome.rolled_back, 0);
    }
}
