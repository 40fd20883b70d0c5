//! The rank's one ledger, exported as [`TelemetrySnapshot`],
//! [`DaemonStatsSnapshot`], [`TenantStats`] and [`CollectiveStats`].
//!
//! Each **lifecycle fact** — submit, fetch, preempt, resume, complete, fail,
//! chunk-moved, recovered — is recorded once, by [`Telemetry::record`], as
//! one field of the row of its `(tenant, collective)`, plus one timestamped
//! event in a bounded ring (one chunk-moved event per scheduling slice, not
//! per primitive; a zero-capacity ring records none). Rows and ring share
//! one mutex. Every total — per collective (Fig. 11), per tenant, rank-wide —
//! is a sum over rows: within one [`TelemetrySnapshot`] (read under one lock)
//! the totals always agree, and separate reads agree once the rank is
//! quiescent. **Daemon mechanics** that belong to no invocation (context
//! loads and saves, daemon starts and quits, the Fig. 7 component times,
//! recovery passes) are relaxed atomics beside the rows. Of the component
//! times only the primitive time is a clock's: the others accrue the
//! modelled costs the SQ, the CQ and the context store report.
//!
//! A snapshot joins the ledger with the transport's per-edge progress
//! samples ([`dfccl_transport::EdgeSample`]), so a stress test can assert
//! *why* a run stalled ("rank 3's inter-node channel 1 stopped moving
//! chunks"), not just that it did.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl_transport::EdgeSample;
use parking_lot::Mutex;

use crate::context::ContextLoad;
use crate::tenant::{TenantId, TenantState, TenantTable};

/// What happened to a collective at one point of its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEventKind {
    /// The invoker pushed an SQE for the collective.
    Submit,
    /// The daemon fetched the SQE into its task queue.
    Fetch,
    /// A spin threshold tripped and the collective was preempted
    /// (context saved, moved to the back of the queue).
    Preempt,
    /// A previously preempted collective was checked out again.
    Resume,
    /// The collective finished and its CQE was enqueued.
    Complete,
    /// The collective failed (the error itself lives in the error map).
    Failed,
    /// A scheduling slice moved this many chunks for the collective.
    ChunkMoved(u64),
    /// The recovery coordinator rolled an invocation back for re-execution
    /// after a link failure.
    Recovered,
}

impl TelemetryEventKind {
    fn label(&self) -> &'static str {
        match self {
            TelemetryEventKind::Submit => "submit",
            TelemetryEventKind::Fetch => "fetch",
            TelemetryEventKind::Preempt => "preempt",
            TelemetryEventKind::Resume => "resume",
            TelemetryEventKind::Complete => "complete",
            TelemetryEventKind::Failed => "failed",
            TelemetryEventKind::ChunkMoved(_) => "chunk-moved",
            TelemetryEventKind::Recovered => "recovered",
        }
    }
}

/// One recorded event. `at` is the wall-clock offset from telemetry
/// creation; the modelled host-memory costs are not in it (they accrue in
/// the ledger's component times instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Monotone sequence number across the daemon (gaps mean dropped events).
    pub seq: u64,
    /// Offset from the telemetry epoch.
    pub at: Duration,
    /// The collective the event belongs to.
    pub coll_id: u64,
    /// What happened.
    pub kind: TelemetryEventKind,
}

impl std::fmt::Display for TelemetryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>10.3?}] coll {} {}",
            self.at,
            self.coll_id,
            self.kind.label()
        )?;
        if let TelemetryEventKind::ChunkMoved(n) = self.kind {
            write!(f, " x{n}")?;
        }
        Ok(())
    }
}

/// One row of the ledger: the lifecycle facts of one collective (Fig. 11
/// plots these per collective id). Summed over a tenant's rows it is that
/// tenant's lifecycle, summed over all rows the rank's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectiveStats {
    /// Invocations whose SQE became visible.
    pub submits: u64,
    /// SQEs the daemon fetched (a graph replay's SQE counts under its graph
    /// id; the exiting SQE under none).
    pub fetches: u64,
    /// Times the collective was preempted before completing.
    pub preemptions: u64,
    /// Check-outs of a previously preempted invocation.
    pub resumes: u64,
    /// Times the collective completed (it can be re-invoked repeatedly); one
    /// CQE each.
    pub completions: u64,
    /// Invocations that failed (each still completes through its CQE).
    pub failures: u64,
    /// Chunks moved across all scheduling slices.
    pub chunks_moved: u64,
    /// Invocations rolled back and re-executed by the recovery coordinator.
    pub recovered: u64,
    /// Task-queue length observed right after this collective's SQE was fetched.
    pub queue_len_at_fetch: u64,
}

impl CollectiveStats {
    /// Add `row`'s counts to these; the queue-length gauge keeps the larger.
    fn absorb(&mut self, row: &CollectiveStats) {
        self.submits += row.submits;
        self.fetches += row.fetches;
        self.preemptions += row.preemptions;
        self.resumes += row.resumes;
        self.completions += row.completions;
        self.failures += row.failures;
        self.chunks_moved += row.chunks_moved;
        self.recovered += row.recovered;
        self.queue_len_at_fetch = self.queue_len_at_fetch.max(row.queue_len_at_fetch);
    }
}

/// Point-in-time accounting for one tenant on one rank (service mode):
/// admission state (outstanding, registered), the scheduling-lane depth
/// gauge, and the lifecycle counters summed over the tenant's ledger rows.
/// Produced by [`Telemetry::tenant_stats`], surfaced through
/// `RankCtx::tenant_stats` and [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant these counters belong to.
    pub tenant: TenantId,
    /// Effective arbitration weight.
    pub weight: u32,
    /// Invocations in flight (admitted, CQE not yet published).
    pub outstanding: u64,
    /// Collectives registered on this rank.
    pub registered: u64,
    /// Task-queue lane depth at the last scheduling pass.
    pub queue_depth: u64,
    /// High-water mark of the lane depth.
    pub max_queue_depth: u64,
    /// Invocations submitted (SQE visible).
    pub submitted: u64,
    /// CQEs enqueued for the tenant (failures included).
    pub completed: u64,
    /// Collectives that failed.
    pub failed: u64,
    /// Preemptions of the tenant's collectives.
    pub preempted: u64,
    /// Invocations of the tenant's collectives re-executed to completion by
    /// the recovery coordinator after a link failure.
    pub recovered: u64,
}

/// The rank-wide lifecycle totals (sums over the ledger's rows) and the
/// recovery coordinator's pass counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryCounters {
    /// SQEs pushed by invokers.
    pub submits: u64,
    /// SQEs fetched into the task queue.
    pub fetches: u64,
    /// Preemptions (spin threshold tripped).
    pub preemptions: u64,
    /// Check-outs of previously preempted collectives.
    pub resumes: u64,
    /// Completions enqueued.
    pub completions: u64,
    /// Failures recorded.
    pub failures: u64,
    /// Chunks moved across all scheduling slices.
    pub chunks_moved: u64,
    /// Invocations rolled back for re-execution by recovery.
    pub recovered: u64,
    /// Recovery passes started for collectives on this rank.
    pub recoveries_attempted: u64,
    /// Recovery passes that rolled back, rebound and resubmitted.
    pub recoveries_succeeded: u64,
}

/// The daemon's rank-wide counters and Fig. 7 component means (the
/// `RankCtx::stats` view of the ledger). `context_switches`, `cqes_written`
/// and `lazy_save_skips` are derived, not counted: every preemption switches
/// the core to the next collective and saves or skips one context, and every
/// completion owes one CQE. `mean_sqe_read` (per SQE), `mean_preparing` (per
/// context load from global memory) and `mean_cqe_write` (per CQE) are means
/// of modelled host-memory costs; `mean_primitive_exec` is wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DaemonStatsSnapshot {
    pub preemptions: u64,
    pub context_switches: u64,
    pub context_loads: u64,
    pub context_saves: u64,
    pub lazy_save_skips: u64,
    pub voluntary_quits: u64,
    pub daemon_starts: u64,
    pub sqes_fetched: u64,
    pub cqes_written: u64,
    pub collectives_completed: u64,
    pub primitives_executed: u64,
    pub max_queue_len: u64,
    pub mean_sqe_read: Option<Duration>,
    pub mean_preparing: Option<Duration>,
    pub mean_cqe_write: Option<Duration>,
    pub mean_primitive_exec: Option<Duration>,
}

impl DaemonStatsSnapshot {
    /// Preemptions divided by `blocks` logical daemon blocks (zero blocks
    /// count as one) — the metric the paper reports for the Sec. 6.1
    /// deadlock-prevention program ("about 18,000 preemptions per block").
    pub fn preemptions_per_block(&self, blocks: u32) -> f64 {
        self.preemptions as f64 / blocks.max(1) as f64
    }
}

/// A mean accumulated from a sum and a count, stored in nanoseconds.
#[derive(Debug, Default)]
struct NanoMean {
    total_ns: AtomicU64,
    samples: AtomicU64,
}

impl NanoMean {
    /// Fold a batch of `n` operations that together took `d` into the mean,
    /// as `n` samples of `d / n` each.
    fn record(&self, d: Duration, n: u64) {
        if n == 0 {
            return;
        }
        self.total_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.samples.fetch_add(n, Ordering::Relaxed);
    }

    fn mean(&self) -> Option<Duration> {
        let n = self.samples.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        Some(Duration::from_nanos(
            self.total_ns.load(Ordering::Relaxed) / n,
        ))
    }

    fn count(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns.load(Ordering::Relaxed))
    }
}

/// What the ledger's mutex guards: the rows, the queue-length high-water
/// mark and the event ring.
#[derive(Debug, Default)]
struct Ledger {
    rows: HashMap<(TenantId, u64), CollectiveStats>,
    max_queue_len: u64,
    events: VecDeque<TelemetryEvent>,
    next_seq: u64,
    dropped: u64,
}

impl Ledger {
    /// The sum of every row.
    fn total(&self) -> CollectiveStats {
        let mut total = CollectiveStats::default();
        for row in self.rows.values() {
            total.absorb(row);
        }
        total
    }

    /// Each of `states`' admission state with its rows' lifecycle sums.
    fn tenant_stats(&self, states: &[Arc<TenantState>]) -> Vec<TenantStats> {
        let mut sums: HashMap<TenantId, CollectiveStats> = HashMap::new();
        for (&(tenant, _), row) in &self.rows {
            sums.entry(tenant).or_default().absorb(row);
        }
        states
            .iter()
            .map(|state| state.stats(&sums.remove(&state.id()).unwrap_or_default()))
            .collect()
    }
}

/// One rank's ledger. See the module docs.
pub struct Telemetry {
    capacity: usize,
    epoch: Instant,
    ledger: Mutex<Ledger>,
    context_loads: AtomicU64,
    /// The modelled save time; its sample count is the saves.
    context_save_time: NanoMean,
    voluntary_quits: AtomicU64,
    daemon_starts: AtomicU64,
    sqe_read_time: NanoMean,
    preparing_time: NanoMean,
    cqe_write_time: NanoMean,
    primitive_exec_time: NanoMean,
    recoveries_attempted: AtomicU64,
    recoveries_succeeded: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ledger = self.ledger.lock();
        f.debug_struct("Telemetry")
            .field("capacity", &self.capacity)
            .field("rows", &ledger.rows.len())
            .field("events", &ledger.events.len())
            .field("dropped", &ledger.dropped)
            .finish()
    }
}

impl Telemetry {
    /// A ledger with an event ring of `capacity` (0 disables the ring; the
    /// counters stay on).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Telemetry {
            capacity,
            epoch: Instant::now(),
            ledger: Mutex::new(Ledger {
                events: VecDeque::with_capacity(capacity.min(4096)),
                ..Ledger::default()
            }),
            context_loads: AtomicU64::new(0),
            context_save_time: NanoMean::default(),
            voluntary_quits: AtomicU64::new(0),
            daemon_starts: AtomicU64::new(0),
            sqe_read_time: NanoMean::default(),
            preparing_time: NanoMean::default(),
            cqe_write_time: NanoMean::default(),
            primitive_exec_time: NanoMean::default(),
            recoveries_attempted: AtomicU64::new(0),
            recoveries_succeeded: AtomicU64::new(0),
        })
    }

    /// Whether the event ring is recording.
    pub fn events_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Record one lifecycle fact of `coll_id`, registered under `tenant`:
    /// bump its row (always) and append to the ring (when enabled), dropping
    /// the oldest event once full.
    pub fn record(&self, coll_id: u64, tenant: TenantId, kind: TelemetryEventKind) {
        self.count(&mut self.ledger.lock(), coll_id, tenant, kind);
    }

    /// Record `Submit` for the SQE `push` makes visible, and nothing if the
    /// push fails. The push runs under the ledger lock, so everything the
    /// daemon records about the invocation is counted after its submission.
    pub fn record_submit<E>(
        &self,
        coll_id: u64,
        tenant: TenantId,
        push: impl FnOnce() -> Result<(), E>,
    ) -> Result<(), E> {
        let mut ledger = self.ledger.lock();
        push()?;
        self.count(&mut ledger, coll_id, tenant, TelemetryEventKind::Submit);
        Ok(())
    }

    fn count(&self, ledger: &mut Ledger, coll_id: u64, tenant: TenantId, kind: TelemetryEventKind) {
        let row = ledger.rows.entry((tenant, coll_id)).or_default();
        match kind {
            TelemetryEventKind::Submit => row.submits += 1,
            TelemetryEventKind::Fetch => row.fetches += 1,
            TelemetryEventKind::Preempt => row.preemptions += 1,
            TelemetryEventKind::Resume => row.resumes += 1,
            TelemetryEventKind::Complete => row.completions += 1,
            TelemetryEventKind::Failed => row.failures += 1,
            TelemetryEventKind::ChunkMoved(n) => row.chunks_moved += n,
            TelemetryEventKind::Recovered => row.recovered += 1,
        }
        if self.capacity == 0 {
            return;
        }
        let event = TelemetryEvent {
            seq: ledger.next_seq,
            at: self.epoch.elapsed(),
            coll_id,
            kind,
        };
        ledger.next_seq += 1;
        if ledger.events.len() == self.capacity {
            ledger.events.pop_front();
            ledger.dropped += 1;
        }
        ledger.events.push_back(event);
    }

    /// Record the task-queue length right after fetching `coll_id`'s SQE.
    pub fn record_queue_len(&self, coll_id: u64, tenant: TenantId, len: u64) {
        let mut ledger = self.ledger.lock();
        ledger.max_queue_len = ledger.max_queue_len.max(len);
        ledger
            .rows
            .entry((tenant, coll_id))
            .or_default()
            .queue_len_at_fetch = len;
    }

    /// Record a context checkout; a cache miss's modelled load cost is the
    /// "preparing" component of Fig. 7.
    pub fn record_context_load(&self, load: ContextLoad) {
        self.context_loads.fetch_add(1, Ordering::Relaxed);
        if let ContextLoad::CacheMiss(cost) = load {
            self.preparing_time.record(cost, 1);
        }
    }

    /// Record the context save of a preemption at its modelled cost; `None`
    /// when the lazy-saving optimisation skipped it (no progress since the
    /// last save).
    pub fn record_context_save(&self, saved: Option<Duration>) {
        if let Some(cost) = saved {
            self.context_save_time.record(cost, 1);
        }
    }

    /// Record a voluntary quit of the daemon kernel.
    pub fn record_voluntary_quit(&self) {
        self.voluntary_quits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a (re)start of the daemon kernel.
    pub fn record_daemon_start(&self) {
        self.daemon_starts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the modelled cost `d` of reading a batch of `n` SQEs (the
    /// mean is per SQE).
    pub fn record_sqe_read(&self, d: Duration, n: u64) {
        self.sqe_read_time.record(d, n);
    }

    /// Record the modelled cost `d` of publishing a batch of `n` CQEs (the
    /// mean is per CQE; the CQEs themselves are counted by their `Complete`).
    pub fn record_cqe_write_time(&self, d: Duration, n: u64) {
        self.cqe_write_time.record(d, n);
    }

    /// Record that a lane pass which completed `n` primitives took `d` (the
    /// mean is per primitive).
    pub fn record_primitives(&self, d: Duration, n: u64) {
        self.primitive_exec_time.record(d, n);
    }

    /// Count a recovery pass starting on a collective of this rank.
    pub fn record_recovery_attempt(&self) {
        self.recoveries_attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a recovery pass that rebound and resubmitted successfully.
    pub fn record_recovery_success(&self) {
        self.recoveries_succeeded.fetch_add(1, Ordering::Relaxed);
    }

    /// The modelled context load and save time accrued so far (Fig. 11).
    pub fn modelled_context_time(&self) -> Duration {
        self.preparing_time.total() + self.context_save_time.total()
    }

    /// Per-collective rows, keyed by collective id (summed over tenants).
    pub fn per_collective(&self) -> HashMap<u64, CollectiveStats> {
        let mut out: HashMap<u64, CollectiveStats> = HashMap::new();
        for (&(_, coll_id), row) in &self.ledger.lock().rows {
            out.entry(coll_id).or_default().absorb(row);
        }
        out
    }

    /// Per-tenant accounting, sorted by tenant id: the admission state of
    /// every tenant `table` has seen, with its rows' lifecycle sums.
    pub fn tenant_stats(&self, table: &TenantTable) -> Vec<TenantStats> {
        let states = table.states();
        self.ledger.lock().tenant_stats(&states)
    }

    /// The rank-wide lifecycle totals and the recovery pass counters.
    pub fn counters(&self) -> TelemetryCounters {
        self.counters_of(self.ledger.lock().total())
    }

    /// [`Self::counters`] for the lifecycle totals `t`.
    fn counters_of(&self, t: CollectiveStats) -> TelemetryCounters {
        TelemetryCounters {
            submits: t.submits,
            fetches: t.fetches,
            preemptions: t.preemptions,
            resumes: t.resumes,
            completions: t.completions,
            failures: t.failures,
            chunks_moved: t.chunks_moved,
            recovered: t.recovered,
            recoveries_attempted: self.recoveries_attempted.load(Ordering::Relaxed),
            recoveries_succeeded: self.recoveries_succeeded.load(Ordering::Relaxed),
        }
    }

    /// The daemon's rank-wide counters and component means.
    pub fn daemon_stats(&self) -> DaemonStatsSnapshot {
        let (t, max_queue_len) = {
            let ledger = self.ledger.lock();
            (ledger.total(), ledger.max_queue_len)
        };
        let context_saves = self.context_save_time.count();
        DaemonStatsSnapshot {
            preemptions: t.preemptions,
            context_switches: t.preemptions,
            context_loads: self.context_loads.load(Ordering::Relaxed),
            context_saves,
            lazy_save_skips: t.preemptions.saturating_sub(context_saves),
            voluntary_quits: self.voluntary_quits.load(Ordering::Relaxed),
            daemon_starts: self.daemon_starts.load(Ordering::Relaxed),
            sqes_fetched: t.fetches,
            cqes_written: t.completions,
            collectives_completed: t.completions,
            primitives_executed: self.primitive_exec_time.count(),
            max_queue_len,
            mean_sqe_read: self.sqe_read_time.mean(),
            mean_preparing: self.preparing_time.mean(),
            mean_cqe_write: self.cqe_write_time.mean(),
            mean_primitive_exec: self.primitive_exec_time.mean(),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.ledger.lock().events.iter().copied().collect()
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.ledger.lock().dropped
    }

    /// Export counters, events and the per-tenant accounting of every tenant
    /// `table` has seen — all read under one ledger lock, so the rank totals
    /// and the tenant rows agree — joined with the caller's per-edge samples.
    pub fn snapshot(&self, edges: Vec<EdgeSample>, table: &TenantTable) -> TelemetrySnapshot {
        let states = table.states();
        let ledger = self.ledger.lock();
        TelemetrySnapshot {
            counters: self.counters_of(ledger.total()),
            events: ledger.events.iter().copied().collect(),
            dropped: ledger.dropped,
            edges,
            tenants: ledger.tenant_stats(&states),
        }
    }
}

/// Everything the telemetry layer knows, exported at once: lifecycle
/// counters, the retained event stream, and per-edge link samples.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-kind lifecycle counters.
    pub counters: TelemetryCounters,
    /// Retained events, oldest first.
    pub events: Vec<TelemetryEvent>,
    /// Events evicted because the ring was full.
    pub dropped: u64,
    /// Per-edge progress samples (queued chunks, dead flags, traffic and
    /// rejection counters), stamped with collective ids.
    pub edges: Vec<EdgeSample>,
    /// Per-tenant accounting (service mode), sorted by tenant id. Contains
    /// only tenant 0 for single-job use.
    pub tenants: Vec<TenantStats>,
}

impl TelemetrySnapshot {
    /// The edges currently marked dead (scripted or unreachable).
    pub fn dead_edges(&self) -> impl Iterator<Item = &EdgeSample> {
        self.edges.iter().filter(|e| e.dead)
    }
}

impl std::fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.counters;
        writeln!(
            f,
            "telemetry: {} submits, {} fetches, {} preemptions, {} resumes, \
             {} completions, {} failures, {} chunks moved",
            c.submits,
            c.fetches,
            c.preemptions,
            c.resumes,
            c.completions,
            c.failures,
            c.chunks_moved
        )?;
        writeln!(
            f,
            "recovery: {} attempted, {} succeeded, {} re-executed",
            c.recoveries_attempted, c.recoveries_succeeded, c.recovered
        )?;
        writeln!(
            f,
            "events: {} retained, {} dropped",
            self.events.len(),
            self.dropped
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "{} (w{}): queue {} (max {}), outstanding {}, {} submitted, \
                 {} completed, {} failed, {} preempted",
                t.tenant,
                t.weight,
                t.queue_depth,
                t.max_queue_depth,
                t.outstanding,
                t.submitted,
                t.completed,
                t.failed,
                t.preempted
            )?;
            if t.recovered > 0 {
                writeln!(f, "  {} recovered", t.recovered)?;
            }
        }
        for e in &self.edges {
            write!(
                f,
                "edge {} [{:?}] sent {} recv {} queued {}",
                e.edge, e.link, e.stats.chunks_sent, e.stats.chunks_received, e.queued
            )?;
            if e.stats.fault_rejections > 0 {
                write!(f, " faulted {}", e.stats.fault_rejections)?;
            }
            if e.dead {
                write!(f, " DEAD")?;
            }
            if let Some(id) = e.coll_id {
                write!(f, " (coll {id})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
impl Telemetry {
    /// The accrued SQE-read and CQE-write time, in ns.
    pub(crate) fn sq_cq_totals_ns(&self) -> [u64; 2] {
        [&self.sqe_read_time, &self.cqe_write_time].map(|t| t.total().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantHandle, TenantQuota};

    const T0: TenantId = TenantId::DEFAULT;

    #[test]
    fn counters_track_every_kind() {
        let t = Telemetry::new(16);
        t.record(1, T0, TelemetryEventKind::Submit);
        t.record(1, T0, TelemetryEventKind::Fetch);
        t.record(1, T0, TelemetryEventKind::Preempt);
        t.record(1, T0, TelemetryEventKind::Resume);
        t.record(1, T0, TelemetryEventKind::ChunkMoved(7));
        t.record(1, T0, TelemetryEventKind::Complete);
        t.record(2, T0, TelemetryEventKind::Failed);
        t.record(2, T0, TelemetryEventKind::Recovered);
        let c = t.counters();
        assert_eq!(c.submits, 1);
        assert_eq!(c.fetches, 1);
        assert_eq!(c.preemptions, 1);
        assert_eq!(c.resumes, 1);
        assert_eq!(c.completions, 1);
        assert_eq!(c.failures, 1);
        assert_eq!(c.chunks_moved, 7);
        assert_eq!(c.recovered, 1);
        assert_eq!(t.events().len(), 8);
    }

    #[test]
    fn every_total_is_a_sum_of_the_rows() {
        let t = Telemetry::new(0);
        let table = TenantTable::new(TenantQuota::default());
        let heavy = TenantId(3);
        table.state(T0);
        table.state_for(&TenantHandle {
            id: heavy,
            quota: TenantQuota::default().with_weight(2),
        });
        for (coll, tenant, preempts) in [(1, T0, 2), (2, heavy, 1), (1, heavy, 4)] {
            t.record(coll, tenant, TelemetryEventKind::Submit);
            for _ in 0..preempts {
                t.record(coll, tenant, TelemetryEventKind::Preempt);
            }
            t.record(coll, tenant, TelemetryEventKind::Complete);
        }
        t.record_queue_len(1, T0, 7);
        t.record_queue_len(1, heavy, 3);

        let per = t.per_collective();
        assert_eq!((per[&1].preemptions, per[&1].completions), (6, 2));
        assert_eq!(per[&1].queue_len_at_fetch, 7, "the gauge keeps the larger");
        assert_eq!((per[&2].preemptions, per[&2].completions), (1, 1));

        let tenants = t.tenant_stats(&table);
        assert_eq!(tenants.len(), 2);
        assert_eq!((tenants[0].tenant, tenants[0].preempted), (T0, 2));
        assert_eq!((tenants[1].tenant, tenants[1].weight), (heavy, 2));
        assert_eq!((tenants[1].submitted, tenants[1].completed), (2, 2));
        assert_eq!(tenants[1].preempted, 5);

        let rank = t.daemon_stats();
        assert_eq!(rank.preemptions, 7);
        assert_eq!(rank.preemptions, tenants.iter().map(|s| s.preempted).sum());
        assert_eq!(rank.collectives_completed, 3);
        assert_eq!(rank.max_queue_len, 7);
        assert_eq!(t.counters().submits, 3);

        let snap = t.snapshot(Vec::new(), &table);
        assert_eq!(snap.tenants, tenants);
        assert_eq!(
            snap.counters.preemptions,
            snap.tenants.iter().map(|s| s.preempted).sum()
        );
    }

    #[test]
    fn preemptions_per_block_divides() {
        let s = DaemonStatsSnapshot {
            preemptions: 100,
            ..DaemonStatsSnapshot::default()
        };
        assert_eq!(s.preemptions_per_block(4), 25.0);
        assert_eq!(
            s.preemptions_per_block(0),
            100.0,
            "zero blocks count as one"
        );
    }

    #[test]
    fn derived_daemon_counters_follow_their_facts() {
        let t = Telemetry::new(0);
        let save = Some(Duration::from_nanos(50));
        for saved in [save, None, save] {
            t.record(4, T0, TelemetryEventKind::Preempt);
            t.record_context_save(saved);
        }
        t.record(4, T0, TelemetryEventKind::Complete);
        t.record_primitives(Duration::from_micros(30), 2);
        t.record_primitives(Duration::from_micros(5), 0); // no-op
        let s = t.daemon_stats();
        assert_eq!((s.preemptions, s.context_switches), (3, 3));
        assert_eq!((s.context_saves, s.lazy_save_skips), (2, 1));
        assert_eq!(t.modelled_context_time(), Duration::from_nanos(100));
        assert_eq!((s.collectives_completed, s.cqes_written), (1, 1));
        assert_eq!(s.primitives_executed, 2);
        assert_eq!(s.mean_primitive_exec, Some(Duration::from_micros(15)));
    }

    #[test]
    fn means_are_per_operation_and_timing_counts_no_fact() {
        let t = Telemetry::new(0);
        assert!(t.daemon_stats().mean_cqe_write.is_none());
        t.record_cqe_write_time(Duration::from_micros(8), 4);
        t.record_cqe_write_time(Duration::from_micros(1), 0); // no-op
        t.record_sqe_read(Duration::from_micros(6), 3);
        t.record_context_load(ContextLoad::CacheMiss(Duration::from_micros(1)));
        t.record_context_load(ContextLoad::CacheHit);
        let s = t.daemon_stats();
        assert_eq!(s.mean_cqe_write, Some(Duration::from_micros(2)));
        assert_eq!(s.mean_sqe_read, Some(Duration::from_micros(2)));
        // Preparing is the load of a miss; a hit loads nothing.
        assert_eq!(s.mean_preparing, Some(Duration::from_micros(1)));
        assert_eq!(s.context_loads, 2);
        assert_eq!(t.modelled_context_time(), Duration::from_micros(1));
        assert_eq!((s.cqes_written, s.sqes_fetched), (0, 0));
    }

    #[test]
    fn a_refused_submission_is_not_counted() {
        let t = Telemetry::new(4);
        assert_eq!(t.record_submit(1, T0, || Err("full")), Err("full"));
        assert_eq!(t.counters().submits, 0);
        assert!(t.events().is_empty());
        assert_eq!(t.record_submit(1, T0, || Ok::<(), ()>(())), Ok(()));
        assert_eq!(t.counters().submits, 1);
        assert_eq!(t.events()[0].kind, TelemetryEventKind::Submit);
    }

    #[test]
    fn recovery_counters_accumulate_and_render() {
        let t = Telemetry::new(4);
        t.record_recovery_attempt();
        t.record_recovery_attempt();
        t.record_recovery_success();
        let c = t.counters();
        assert_eq!(c.recoveries_attempted, 2);
        assert_eq!(c.recoveries_succeeded, 1);
        let snap = t.snapshot(Vec::new(), &TenantTable::new(TenantQuota::default()));
        let s = snap.to_string();
        assert!(s.contains("2 attempted"), "{s}");
        assert!(s.contains("1 succeeded"), "{s}");
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let t = Telemetry::new(3);
        for i in 0..5 {
            t.record(i, T0, TelemetryEventKind::Submit);
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(t.dropped(), 2);
        // Oldest two were evicted; retained events are 2, 3, 4 in order.
        assert_eq!(
            events.iter().map(|e| e.coll_id).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(t.counters().submits, 5, "eviction drops events, not counts");
    }

    #[test]
    fn zero_capacity_disables_events_but_not_counters() {
        let t = Telemetry::new(0);
        assert!(!t.events_enabled());
        t.record(1, T0, TelemetryEventKind::Submit);
        t.record(1, T0, TelemetryEventKind::ChunkMoved(3));
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.counters().submits, 1);
        assert_eq!(t.counters().chunks_moved, 3);
    }

    #[test]
    fn snapshot_display_mentions_counters_and_dead_edges() {
        use dfccl_transport::{ChannelId, ConnectorStats, EdgeId, LinkClass};
        use gpu_sim::GpuId;

        let t = Telemetry::new(8);
        t.record(4, T0, TelemetryEventKind::Submit);
        let table = TenantTable::new(TenantQuota::default());
        table.state(TenantId(2)).record_queue_depth(3);
        let snap = t.snapshot(
            vec![EdgeSample {
                coll_id: Some(4),
                edge: EdgeId {
                    src: GpuId(0),
                    dst: GpuId(8),
                    channel: ChannelId(1),
                },
                link: LinkClass::InterNode,
                queued: 2,
                dead: true,
                refusal_run: 5,
                stats: ConnectorStats {
                    fault_rejections: 5,
                    ..ConnectorStats::default()
                },
            }],
            &table,
        );
        assert_eq!(snap.dead_edges().count(), 1);
        assert_eq!(snap.tenants.len(), 1);
        let s = snap.to_string();
        assert!(s.contains("1 submits"), "{s}");
        assert!(s.contains("tenant2 (w1): queue 3"), "{s}");
        assert!(s.contains("gpu0->gpu8/ch1"), "{s}");
        assert!(s.contains("DEAD"), "{s}");
        assert!(s.contains("faulted 5"), "{s}");
        assert!(s.contains("(coll 4)"), "{s}");
    }
}
