//! Self-healing collectives: the stall detector and the recovery
//! coordinator that closes the loop from a [`StallReport`] back to forward
//! progress.
//!
//! The state machine is **detect → quarantine → rebind → resubmit**
//! (DESIGN.md §9):
//!
//! 1. **Detect** — [`detect_stall`] decides without a clock: preemption
//!    completes every collective whose members all hold a round of it, so
//!    the domain is stuck only behind a failed edge (a link failure, which
//!    [`RecoveryCoordinator::supervise`] recovers from) or a member missing
//!    a round (a wedge, returned as [`RecoveryError::Wedged`]).
//! 2. **Quarantine** — the report's failed edges are marked dead in the
//!    domain's [`dfccl_transport::LinkHealth`] map, and the stalled
//!    collectives' meshes drop the connectors on those labels. The mesh is
//!    the map's only reader: a connector wired on a quarantined label is
//!    relabelled onto a spare lane of the same link
//!    ([`dfccl_transport::LinkHealth::reroute`]).
//! 3. **Rebind** — each stalled collective's own plan is bound again to its
//!    purged mesh on every rank, so its connectors come back rerouted. The
//!    plan, its family and the plan cache are untouched: every member keeps
//!    running the schedule all members agreed on at registration, and the
//!    paper's deadlock-freedom argument applies unchanged.
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
//! A typed [`RetryPolicy`] bounds the coordinator's attempts.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl_collectives::DeviceBuffer;
use dfccl_transport::{classify_stall, EdgeId, StallKind, StallReport};
use gpu_sim::GpuId;

use crate::api::{DfcclError, RankCtx};
use crate::context::DynamicContext;
use crate::telemetry::TelemetryEventKind;

/// The recovery coordinator's attempt budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts before giving up (minimum 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// Set the total attempt budget.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }
}

/// What one successful [`RecoveryCoordinator::recover`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Edges newly quarantined in the domain's link-health map.
    pub quarantined: Vec<EdgeId>,
    /// Collectives that were rolled back and rebound.
    pub collectives: Vec<u64>,
    /// Invocations rolled back and resubmitted (across all ranks).
    pub rolled_back: usize,
    /// Silent ghost replays injected to re-align rank round counts.
    pub ghost_replays: usize,
}

/// Why a recovery attempt (or a whole supervised run) failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// The retry budget was exhausted; the last stall report is attached.
    Exhausted {
        /// Recovery attempts made.
        attempts: u32,
        /// The stall the last attempt would have recovered from.
        last_report: Box<StallReport>,
    },
    /// The domain is wedged: no pending collective can run, and the
    /// report's `missing` names the members that have not submitted the
    /// rounds their peers wait on. Nothing was rolled back.
    Wedged(Box<StallReport>),
    /// A collective's in-flight execution slice did not check its context
    /// back in within the quiesce deadline.
    QuiesceTimeout {
        /// The collective that would not quiesce.
        coll_id: u64,
    },
    /// Rebinding a rolled-back collective failed.
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
            RecoveryError::Wedged(report) => write!(f, "domain wedged: {report}"),
            RecoveryError::QuiesceTimeout { coll_id } => {
                write!(f, "collective {coll_id} did not quiesce for recovery")
            }
            RecoveryError::Api(e) => write!(f, "recovery rebind failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<DfcclError> for RecoveryError {
    fn from(e: DfcclError) -> Self {
        RecoveryError::Api(e)
    }
}

/// How long [`watch_for_stall`] waits between two checks. It sets how soon
/// a verdict is seen, never which verdict.
const STALL_POLL: Duration = Duration::from_millis(1);

/// How long recovery waits for an in-flight execution slice to check its
/// context back in before declaring the collective unquiesceable.
const QUIESCE_DEADLINE: Duration = Duration::from_secs(2);

/// Decide from what every rank holds whether the domain of `ranks` (every
/// member of the collectives pending there) is stuck. No verdict while a
/// submission is on its way into a context store or a pending collective
/// can run; else a [`StallKind::LinkFailure`] if an edge of a pending
/// collective failed, or a [`StallKind::Wedge`] whose `missing` names each
/// member with fewer rounds (completed plus held) than the lowest round
/// pending on any member. Reads no clock: a held world calls it per step.
pub fn detect_stall(ranks: &[&RankCtx]) -> Option<StallReport> {
    let mut rounds = HashMap::new();
    for ctx in ranks {
        let shared = ctx.shared_state();
        let admitted = shared.admitted.load(Ordering::Acquire);
        rounds.insert(ctx.gpu(), shared.contexts.rounds());
        if shared.sq.inserted() > admitted {
            return None;
        }
    }
    let pending: BTreeSet<u64> = rounds
        .values()
        .flatten()
        .filter(|(_, r)| r.held > 0)
        .map(|(&id, _)| id)
        .collect();
    if pending.is_empty() {
        return None;
    }
    let mut samples = ranks[0].domain().edge_samples();
    samples.retain(|s| s.coll_id.is_some_and(|c| pending.contains(&c)));
    let mut report = classify_stall(&samples);
    if report.kind == StallKind::LinkFailure {
        return Some(report);
    }
    for &coll in &pending {
        // Unregistered, it fails when its slice opens: it can run.
        let members = ranks.iter().find_map(|ctx| {
            let registered = ctx.shared_state().registered.read();
            registered.get(&coll).map(|reg| reg.desc.devices.clone())
        })?;
        let of = |g: &GpuId| {
            let held = rounds.get(g).and_then(|held| held.get(&coll));
            held.copied().unwrap_or_default()
        };
        let lowest = members
            .iter()
            .map(of)
            .filter(|r| r.held > 0)
            .map(|r| r.completed + 1)
            .min()?;
        let missing: Vec<_> = members
            .iter()
            .filter(|&g| of(g).completed + of(g).held < lowest)
            .map(|&g| (coll, g))
            .collect();
        if missing.is_empty() {
            return None;
        }
        report.missing.extend(missing);
    }
    report.stalled_collectives = pending.into_iter().collect();
    Some(report)
}

/// Run [`detect_stall`] over `ranks` every [`STALL_POLL`] until `done`
/// (`None`) or a verdict.
pub fn watch_for_stall(ranks: &[&RankCtx], done: &dyn Fn() -> bool) -> Option<StallReport> {
    loop {
        if done() {
            return None;
        }
        if let Some(report) = detect_stall(ranks) {
            return Some(report);
        }
        std::thread::sleep(STALL_POLL);
    }
}

/// Drives stall recovery for a set of rank contexts of one domain.
pub struct RecoveryCoordinator {
    policy: RetryPolicy,
}

impl RecoveryCoordinator {
    /// A coordinator with the given retry policy.
    pub fn new(policy: RetryPolicy) -> Self {
        RecoveryCoordinator { policy }
    }

    /// Supervise `done` over the domain of `ranks` ([`watch_for_stall`]):
    /// recover from every link failure at once, up to the policy's attempt
    /// budget, and return a wedge as [`RecoveryError::Wedged`] untouched.
    /// Returns the number of recoveries performed (0 for a fault-free run).
    /// `done` should wait on work already submitted: a member that submits
    /// its round later (from a callback, say) is missing until it does.
    pub fn supervise(
        &self,
        ranks: &[&RankCtx],
        done: &dyn Fn() -> bool,
    ) -> Result<u32, RecoveryError> {
        let mut attempts: u32 = 0;
        while let Some(report) = watch_for_stall(ranks, done) {
            if report.kind == StallKind::Wedge {
                return Err(RecoveryError::Wedged(Box::new(report)));
            }
            attempts += 1;
            if attempts > self.policy.max_attempts.max(1) {
                return Err(RecoveryError::Exhausted {
                    attempts,
                    last_report: Box::new(report),
                });
            }
            self.recover(ranks, &report)?;
        }
        Ok(attempts)
    }

    /// One recovery pass over `ranks` for the stall described by `report`:
    /// quarantine the failed edges, roll back the stalled collectives,
    /// rebind them to their rerouted meshes, and resubmit the rolled-back
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
        // map. Connectors wired on those labels from now on are rerouted.
        let health = first.domain().link_health();
        for sample in &report.failed_edges {
            if health.quarantine(sample.edge) {
                outcome.quarantined.push(sample.edge);
            }
        }

        let colls: BTreeSet<u64> = report.stalled_collectives.iter().copied().collect();

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
        let quiesce_end = Instant::now() + QUIESCE_DEADLINE;
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

        // 4. Rebind: bind each stalled collective's own plan to its purged
        // mesh (same id, tenant and plan, no residency re-charge).
        for ctx in ranks {
            for &coll in &colls {
                if !ctx.shared_state().registered.read().contains_key(&coll) {
                    continue;
                }
                ctx.rebind_for_recovery(coll)?;
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
            let completed = |r: usize| {
                let rounds = ranks[r].shared_state().contexts.rounds();
                rounds.get(&coll).map_or(0, |x| x.completed)
            };
            let min_done = participants
                .iter()
                .map(|&r| completed(r))
                .min()
                .unwrap_or(0);
            for &r in &participants {
                let shared = ranks[r].shared_state();
                let mut rebuilt = Vec::new();
                if completed(r) > min_done {
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
                            shared
                                .telemetry
                                .record(coll, tenant, TelemetryEventKind::Recovered);
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
        // idle one is restarted by its seat and finds the contexts in its
        // rebuild.
        for ctx in ranks {
            ctx.shared_state().request_rescan();
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recover_with_no_ranks_is_a_no_op() {
        let coordinator = RecoveryCoordinator::new(RetryPolicy::default());
        let report = StallReport {
            kind: dfccl_transport::StallKind::Wedge,
            failed_edges: Vec::new(),
            stalled_edges: Vec::new(),
            stalled_collectives: vec![1],
            unfinished: Vec::new(),
            missing: Vec::new(),
        };
        let outcome = coordinator.recover(&[], &report).unwrap();
        assert!(outcome.collectives.is_empty());
        assert_eq!(outcome.rolled_back, 0);
    }
}
