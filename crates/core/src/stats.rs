//! Runtime statistics: preemptions, context switches, queue lengths, voluntary
//! quits and the Fig. 7 time components.
//!
//! These counters back the paper's evaluation figures: Fig. 7 (workload-
//! independent time overheads), Fig. 11 (per-collective context switches and
//! task-queue lengths), and the Sec. 6.1 deadlock-prevention counts
//! (preemptions per block, voluntary quits).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::tenant::TenantId;

/// Point-in-time accounting for one tenant on one rank (service mode):
/// admission state (outstanding, registered), the scheduling-lane depth
/// gauge, and lifecycle counters. Produced by
/// [`crate::tenant::TenantTable::snapshot`], surfaced through
/// `RankCtx::tenant_stats` and [`crate::telemetry::TelemetrySnapshot`].
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
    /// Invocations admitted (successful `run`/`replay` submissions).
    pub submitted: u64,
    /// CQEs published for the tenant (failures included).
    pub completed: u64,
    /// Collectives that failed.
    pub failed: u64,
    /// Preemptions of the tenant's collectives.
    pub preempted: u64,
    /// Invocations of the tenant's collectives re-executed to completion by
    /// the recovery coordinator after a link failure.
    pub recovered: u64,
}

/// A mean accumulated from a sum and a count, stored in nanoseconds.
#[derive(Debug, Default)]
struct NanoMean {
    total_ns: AtomicU64,
    samples: AtomicU64,
}

impl NanoMean {
    fn record(&self, d: Duration) {
        self.total_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold a batch of `n` operations that together took `d` into the mean,
    /// as `n` samples of `d / n` each.
    fn record_many(&self, d: Duration, n: u64) {
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
}

/// Per-collective counters (Fig. 11 plots these per collective id).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectiveStats {
    /// Times the collective was preempted before completing.
    pub preemptions: u64,
    /// Times the collective completed (it can be re-invoked repeatedly).
    pub completions: u64,
    /// Task-queue length observed right after this collective's SQE was fetched.
    pub queue_len_at_fetch: u64,
}

/// Statistics collected by one daemon kernel (one GPU).
#[derive(Debug, Default)]
pub struct DaemonStats {
    preemptions: AtomicU64,
    context_loads: AtomicU64,
    context_saves: AtomicU64,
    lazy_save_skips: AtomicU64,
    voluntary_quits: AtomicU64,
    daemon_starts: AtomicU64,
    sqes_fetched: AtomicU64,
    collectives_completed: AtomicU64,
    primitives_executed: AtomicU64,
    max_queue_len: AtomicU64,
    sqe_read_time: NanoMean,
    preparing_time: NanoMean,
    cqe_write_time: NanoMean,
    primitive_exec_time: NanoMean,
    per_collective: Mutex<HashMap<u64, CollectiveStats>>,
}

/// A point-in-time copy of the aggregate counters. `context_switches` and
/// `cqes_written` are derived, not counted: every preemption switches the
/// core to the next collective, and every completion owes one CQE.
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

impl DaemonStats {
    /// Record one preemption of `coll_id`.
    pub fn record_preemption(&self, coll_id: u64) {
        self.preemptions.fetch_add(1, Ordering::Relaxed);
        self.per_collective
            .lock()
            .entry(coll_id)
            .or_default()
            .preemptions += 1;
    }

    /// Record a completed collective and the CQE owed for it. Called before
    /// the CQE is published, so a caller woken by its completion callback
    /// reads a count already including that completion.
    pub fn record_completion(&self, coll_id: u64) {
        self.collectives_completed.fetch_add(1, Ordering::Relaxed);
        self.per_collective
            .lock()
            .entry(coll_id)
            .or_default()
            .completions += 1;
    }

    /// Record the task-queue length right after fetching `coll_id`'s SQE.
    pub fn record_queue_len(&self, coll_id: u64, len: u64) {
        self.max_queue_len.fetch_max(len, Ordering::Relaxed);
        self.per_collective
            .lock()
            .entry(coll_id)
            .or_default()
            .queue_len_at_fetch = len;
    }

    /// Record a context load (and its modelled duration, folded into the
    /// "preparing" component of Fig. 7).
    pub fn record_context_load(&self) {
        self.context_loads.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a context save. `lazy_skip` marks saves avoided by the
    /// lazy-saving optimisation (no progress since the last save).
    pub fn record_context_save(&self, lazy_skip: bool) {
        if lazy_skip {
            self.lazy_save_skips.fetch_add(1, Ordering::Relaxed);
        } else {
            self.context_saves.fetch_add(1, Ordering::Relaxed);
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

    /// Record a batched fetch of `n` SQEs that together took `read_time`
    /// (the mean is per SQE).
    pub fn record_sqe_fetch_batch(&self, read_time: Duration, n: u64) {
        self.sqes_fetched.fetch_add(n, Ordering::Relaxed);
        self.sqe_read_time.record_many(read_time, n);
    }

    /// Record the preparing overhead (SQE parse + context load) of one pass.
    pub fn record_preparing(&self, d: Duration) {
        self.preparing_time.record(d);
    }

    /// Record that publishing a batch of `n` CQEs took `d` (the mean is per
    /// CQE). The CQEs themselves are counted by
    /// [`DaemonStats::record_completion`].
    pub fn record_cqe_write_time(&self, d: Duration, n: u64) {
        self.cqe_write_time.record_many(d, n);
    }

    /// Record the execution of one primitive.
    pub fn record_primitive(&self, d: Duration) {
        self.primitives_executed.fetch_add(1, Ordering::Relaxed);
        self.primitive_exec_time.record(d);
    }

    /// Aggregate snapshot.
    pub fn snapshot(&self) -> DaemonStatsSnapshot {
        let preemptions = self.preemptions.load(Ordering::Relaxed);
        let collectives_completed = self.collectives_completed.load(Ordering::Relaxed);
        DaemonStatsSnapshot {
            preemptions,
            context_switches: preemptions,
            context_loads: self.context_loads.load(Ordering::Relaxed),
            context_saves: self.context_saves.load(Ordering::Relaxed),
            lazy_save_skips: self.lazy_save_skips.load(Ordering::Relaxed),
            voluntary_quits: self.voluntary_quits.load(Ordering::Relaxed),
            daemon_starts: self.daemon_starts.load(Ordering::Relaxed),
            sqes_fetched: self.sqes_fetched.load(Ordering::Relaxed),
            cqes_written: collectives_completed,
            collectives_completed,
            primitives_executed: self.primitives_executed.load(Ordering::Relaxed),
            max_queue_len: self.max_queue_len.load(Ordering::Relaxed),
            mean_sqe_read: self.sqe_read_time.mean(),
            mean_preparing: self.preparing_time.mean(),
            mean_cqe_write: self.cqe_write_time.mean(),
            mean_primitive_exec: self.primitive_exec_time.mean(),
        }
    }

    /// Per-collective counters, keyed by collective id.
    pub fn per_collective(&self) -> HashMap<u64, CollectiveStats> {
        self.per_collective.lock().clone()
    }

    /// Total preemptions divided by the logical block count — the metric the
    /// paper reports for the Sec. 6.1 deadlock-prevention program ("about
    /// 18,000 preemptions per block").
    pub fn preemptions_per_block(&self, blocks: u32) -> f64 {
        self.preemptions.load(Ordering::Relaxed) as f64 / blocks.max(1) as f64
    }

    /// Number of CQE write samples recorded (used by benches to check coverage).
    pub fn cqe_write_samples(&self) -> u64 {
        self.cqe_write_time.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = DaemonStats::default();
        s.record_preemption(3);
        s.record_preemption(3);
        s.record_preemption(5);
        s.record_completion(3);
        s.record_queue_len(3, 7);
        s.record_voluntary_quit();
        s.record_daemon_start();
        let snap = s.snapshot();
        assert_eq!(snap.preemptions, 3);
        assert_eq!(snap.context_switches, 3);
        assert_eq!(snap.voluntary_quits, 1);
        assert_eq!(snap.daemon_starts, 1);
        assert_eq!(snap.collectives_completed, 1);
        assert_eq!(snap.cqes_written, 1, "a completion counts its CQE");
        assert_eq!(snap.max_queue_len, 7);
        let per = s.per_collective();
        assert_eq!(per[&3].preemptions, 2);
        assert_eq!(per[&3].completions, 1);
        assert_eq!(per[&3].queue_len_at_fetch, 7);
        assert_eq!(per[&5].preemptions, 1);
    }

    #[test]
    fn means_are_computed_from_samples() {
        let s = DaemonStats::default();
        assert!(s.snapshot().mean_cqe_write.is_none());
        s.record_cqe_write_time(Duration::from_micros(2), 1);
        s.record_cqe_write_time(Duration::from_micros(4), 1);
        let snap = s.snapshot();
        assert_eq!(snap.cqes_written, 0, "timing a write counts no CQE");
        assert_eq!(snap.mean_cqe_write, Some(Duration::from_micros(3)));
        assert_eq!(s.cqe_write_samples(), 2);
    }

    #[test]
    fn batch_recording_counts_entries_and_averages_time() {
        let s = DaemonStats::default();
        s.record_cqe_write_time(Duration::from_micros(8), 4);
        s.record_sqe_fetch_batch(Duration::from_micros(6), 3);
        s.record_cqe_write_time(Duration::from_micros(1), 0); // no-op
        let snap = s.snapshot();
        assert_eq!(snap.mean_cqe_write, Some(Duration::from_micros(2)));
        assert_eq!(snap.sqes_fetched, 3);
        assert_eq!(snap.mean_sqe_read, Some(Duration::from_micros(2)));
    }

    #[test]
    fn preemptions_per_block_divides() {
        let s = DaemonStats::default();
        for _ in 0..100 {
            s.record_preemption(1);
        }
        assert_eq!(s.preemptions_per_block(4), 25.0);
        assert_eq!(
            s.preemptions_per_block(0),
            100.0,
            "zero blocks treated as one"
        );
    }

    #[test]
    fn sqe_and_preparing_and_primitive_times_recorded() {
        let s = DaemonStats::default();
        s.record_sqe_fetch_batch(Duration::from_micros(5), 1);
        s.record_preparing(Duration::from_micros(1));
        s.record_primitive(Duration::from_micros(10));
        s.record_context_load();
        s.record_context_save(false);
        s.record_context_save(true);
        let snap = s.snapshot();
        assert_eq!(snap.sqes_fetched, 1);
        assert_eq!(snap.mean_sqe_read, Some(Duration::from_micros(5)));
        assert_eq!(snap.mean_preparing, Some(Duration::from_micros(1)));
        assert_eq!(snap.mean_primitive_exec, Some(Duration::from_micros(10)));
        assert_eq!(snap.context_loads, 1);
        assert_eq!(snap.context_saves, 1);
        assert_eq!(snap.lazy_save_skips, 1);
        assert_eq!(snap.primitives_executed, 1);
    }
}
