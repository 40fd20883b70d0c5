//! Structured telemetry: a bounded per-daemon event stream plus always-on
//! counters, exported as one [`TelemetrySnapshot`].
//!
//! The motivation (ROADMAP item 5) is turning "it hung" into "rank 3's
//! inter-node channel 1 stopped moving chunks at step 12": the daemon records
//! lifecycle events (submit / fetch / preempt / resume / complete / failed /
//! chunk-moved) with timestamps into a bounded ring, while cheap per-kind
//! atomic counters stay on even when the ring is disabled. A snapshot joins
//! the event stream with the transport layer's per-edge progress samples
//! ([`dfccl_transport::EdgeSample`]), so a stress test can assert *why* a run
//! stalled, not just that it did.
//!
//! Costs are kept off the hot path: counters are single relaxed atomic
//! increments; events take a short mutex but are recorded per *slice* (one
//! chunk-moved event summarising a scheduling slice, not one per primitive),
//! and a zero-capacity ring records no events at all.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl_transport::EdgeSample;
use parking_lot::Mutex;

use crate::stats::TenantStats;

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
        }
    }
}

/// One recorded event. `at` is the modelled-time offset from telemetry
/// creation (the simulation charges modelled costs by spinning, so wall
/// clock *is* the modelled clock).
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

/// The always-on per-kind counters.
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
    /// Recovery passes started for collectives on this rank.
    pub recoveries_attempted: u64,
    /// Recovery passes that rolled back, re-planned and resubmitted.
    pub recoveries_succeeded: u64,
    /// Registrations served a plan that had to avoid a quarantined edge.
    pub plans_degraded: u64,
}

/// Bounded event ring + counters for one daemon.
pub struct Telemetry {
    capacity: usize,
    epoch: Instant,
    next_seq: AtomicU64,
    events: Mutex<VecDeque<TelemetryEvent>>,
    dropped: AtomicU64,
    submits: AtomicU64,
    fetches: AtomicU64,
    preemptions: AtomicU64,
    resumes: AtomicU64,
    completions: AtomicU64,
    failures: AtomicU64,
    chunks_moved: AtomicU64,
    recoveries_attempted: AtomicU64,
    recoveries_succeeded: AtomicU64,
    plans_degraded: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("capacity", &self.capacity)
            .field("events", &self.events.lock().len())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Telemetry {
    /// Telemetry with an event ring of `capacity` (0 disables the ring; the
    /// counters stay on).
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Telemetry {
            capacity,
            epoch: Instant::now(),
            next_seq: AtomicU64::new(0),
            events: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            dropped: AtomicU64::new(0),
            submits: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            preemptions: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
            completions: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            chunks_moved: AtomicU64::new(0),
            recoveries_attempted: AtomicU64::new(0),
            recoveries_succeeded: AtomicU64::new(0),
            plans_degraded: AtomicU64::new(0),
        })
    }

    /// Count a recovery pass starting on a collective of this rank.
    pub fn record_recovery_attempt(&self) {
        self.recoveries_attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a recovery pass that re-planned and resubmitted successfully.
    pub fn record_recovery_success(&self) {
        self.recoveries_succeeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a registration served a degraded (edge-avoiding) plan.
    pub fn record_plan_degraded(&self) {
        self.plans_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the event ring is recording.
    pub fn events_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Record one event: bump the kind's counter (always) and append to the
    /// ring (when enabled), dropping the oldest event once full.
    pub fn record(&self, coll_id: u64, kind: TelemetryEventKind) {
        match kind {
            TelemetryEventKind::Submit => self.submits.fetch_add(1, Ordering::Relaxed),
            TelemetryEventKind::Fetch => self.fetches.fetch_add(1, Ordering::Relaxed),
            TelemetryEventKind::Preempt => self.preemptions.fetch_add(1, Ordering::Relaxed),
            TelemetryEventKind::Resume => self.resumes.fetch_add(1, Ordering::Relaxed),
            TelemetryEventKind::Complete => self.completions.fetch_add(1, Ordering::Relaxed),
            TelemetryEventKind::Failed => self.failures.fetch_add(1, Ordering::Relaxed),
            TelemetryEventKind::ChunkMoved(n) => self.chunks_moved.fetch_add(n, Ordering::Relaxed),
        };
        if self.capacity == 0 {
            return;
        }
        let event = TelemetryEvent {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            at: self.epoch.elapsed(),
            coll_id,
            kind,
        };
        let mut ring = self.events.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().iter().copied().collect()
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the counters.
    pub fn counters(&self) -> TelemetryCounters {
        TelemetryCounters {
            submits: self.submits.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            preemptions: self.preemptions.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            chunks_moved: self.chunks_moved.load(Ordering::Relaxed),
            recoveries_attempted: self.recoveries_attempted.load(Ordering::Relaxed),
            recoveries_succeeded: self.recoveries_succeeded.load(Ordering::Relaxed),
            plans_degraded: self.plans_degraded.load(Ordering::Relaxed),
        }
    }

    /// Export counters + events joined with the caller's per-edge samples
    /// and per-tenant accounting.
    pub fn snapshot(&self, edges: Vec<EdgeSample>, tenants: Vec<TenantStats>) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters(),
            events: self.events(),
            dropped: self.dropped(),
            edges,
            tenants,
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
    /// only tenant 0 for single-job use; empty under flat scheduling.
    pub tenants: Vec<TenantStats>,
}

impl TelemetrySnapshot {
    /// The edges currently marked dead (scripted or unreachable).
    pub fn dead_edges(&self) -> impl Iterator<Item = &EdgeSample> {
        self.edges.iter().filter(|e| e.dead)
    }

    /// The edges whose sends have been bounced by fault injection.
    pub fn faulted_edges(&self) -> impl Iterator<Item = &EdgeSample> {
        self.edges.iter().filter(|e| e.stats.fault_rejections > 0)
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
            "recovery: {} attempted, {} succeeded, {} degraded plans",
            c.recoveries_attempted, c.recoveries_succeeded, c.plans_degraded
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
mod tests {
    use super::*;

    #[test]
    fn counters_track_every_kind() {
        let t = Telemetry::new(16);
        t.record(1, TelemetryEventKind::Submit);
        t.record(1, TelemetryEventKind::Fetch);
        t.record(1, TelemetryEventKind::Preempt);
        t.record(1, TelemetryEventKind::Resume);
        t.record(1, TelemetryEventKind::ChunkMoved(7));
        t.record(1, TelemetryEventKind::Complete);
        t.record(2, TelemetryEventKind::Failed);
        let c = t.counters();
        assert_eq!(c.submits, 1);
        assert_eq!(c.fetches, 1);
        assert_eq!(c.preemptions, 1);
        assert_eq!(c.resumes, 1);
        assert_eq!(c.completions, 1);
        assert_eq!(c.failures, 1);
        assert_eq!(c.chunks_moved, 7);
        assert_eq!(t.events().len(), 7);
    }

    #[test]
    fn recovery_counters_accumulate_and_render() {
        let t = Telemetry::new(4);
        t.record_recovery_attempt();
        t.record_recovery_attempt();
        t.record_recovery_success();
        t.record_plan_degraded();
        let c = t.counters();
        assert_eq!(c.recoveries_attempted, 2);
        assert_eq!(c.recoveries_succeeded, 1);
        assert_eq!(c.plans_degraded, 1);
        let snap = t.snapshot(Vec::new(), Vec::new());
        let s = snap.to_string();
        assert!(s.contains("2 attempted"), "{s}");
        assert!(s.contains("1 succeeded"), "{s}");
        assert!(s.contains("1 degraded plans"), "{s}");
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let t = Telemetry::new(3);
        for i in 0..5 {
            t.record(i, TelemetryEventKind::Submit);
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
    }

    #[test]
    fn zero_capacity_disables_events_but_not_counters() {
        let t = Telemetry::new(0);
        assert!(!t.events_enabled());
        t.record(1, TelemetryEventKind::Submit);
        t.record(1, TelemetryEventKind::ChunkMoved(3));
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
        t.record(4, TelemetryEventKind::Submit);
        let tenants = {
            let table = crate::tenant::TenantTable::new(crate::tenant::TenantQuota::default());
            table
                .state(crate::tenant::TenantId(2))
                .record_queue_depth(3);
            table.snapshot()
        };
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
                stats: ConnectorStats {
                    fault_rejections: 5,
                    ..ConnectorStats::default()
                },
            }],
            tenants,
        );
        assert_eq!(snap.dead_edges().count(), 1);
        assert_eq!(snap.faulted_edges().count(), 1);
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
