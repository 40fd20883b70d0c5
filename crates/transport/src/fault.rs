//! Link fault injection and stall classification.
//!
//! Production-scale collective traffic sees links die, degrade, and flap;
//! reproducing the paper's robustness story needs a way to *script* those
//! failures deterministically. A [`FaultInjector`] holds per-edge fault
//! specifications keyed by the directed `(src GPU, dst GPU, channel)` edge a
//! [`crate::Connector`] crosses; every send consults the injector, so a
//! scripted edge can go dead, slow down by a factor, or drop chunks
//! intermittently — optionally only after a trigger (elapsed time or chunk
//! count) fires, modelling mid-collective failures.
//!
//! The same module defines the *observability* side: [`EdgeSample`] snapshots
//! of per-edge progress counters, a [`classify_stall`] pass that turns two
//! snapshots into a structured [`StallReport`] distinguishing a wedge (no
//! traffic anywhere, nothing faulted) from a link failure (sends bouncing off
//! a faulted or unreachable edge), and [`supervise_with_probe`] — a generic
//! stall-deadline supervision loop over per-edge probes that only declares a
//! stall when *no* edge in the domain made progress for a full deadline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_sim::GpuId;
use parking_lot::Mutex;

use crate::communicator::ChannelId;
use crate::connector::ConnectorStats;
use crate::topology::LinkClass;

/// A directed physical edge: chunks flowing from one GPU to another over one
/// of the `K` striped channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId {
    /// Sending GPU.
    pub src: GpuId,
    /// Receiving GPU.
    pub dst: GpuId,
    /// The striped channel the edge belongs to.
    pub channel: ChannelId,
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}->gpu{}/{}", self.src.0, self.dst.0, self.channel)
    }
}

/// What a scripted fault does to its edge once triggered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The link is dead: every send is rejected, forever (until the script is
    /// cleared). The edge's `fault_rejections` counter advances so the stall
    /// classifier can name the failed link.
    Dead,
    /// Every transfer costs `factor` times the modelled link time — a link
    /// that suddenly degrades but keeps moving chunks.
    Slowdown(f64),
    /// Each send is dropped (rejected, to be retried by the sender) with the
    /// given probability, decided by a deterministic per-attempt hash of the
    /// injector seed — a flaky link that loses chunks intermittently.
    Flaky {
        /// Probability in `[0, 1]` that one send attempt is dropped.
        drop_rate: f64,
    },
}

/// When a scripted fault activates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// Active from the moment it is scripted.
    Immediately,
    /// Active once the edge has carried at least this many chunks — a
    /// mid-collective failure pinned to transfer progress, not wall time.
    AfterChunks(u64),
    /// Active once this much time has elapsed since the injector was created.
    AfterTime(Duration),
}

/// A fault kind plus its activation trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What happens to the edge.
    pub kind: FaultKind,
    /// When it starts happening.
    pub trigger: FaultTrigger,
}

impl FaultSpec {
    /// A dead link, active immediately.
    pub fn dead() -> Self {
        FaultSpec {
            kind: FaultKind::Dead,
            trigger: FaultTrigger::Immediately,
        }
    }

    /// An `factor`× slowdown, active immediately.
    pub fn slowdown(factor: f64) -> Self {
        FaultSpec {
            kind: FaultKind::Slowdown(factor),
            trigger: FaultTrigger::Immediately,
        }
    }

    /// A flaky link dropping each send with probability `drop_rate`, active
    /// immediately.
    pub fn flaky(drop_rate: f64) -> Self {
        FaultSpec {
            kind: FaultKind::Flaky { drop_rate },
            trigger: FaultTrigger::Immediately,
        }
    }

    /// Delay activation until the edge has carried `chunks` chunks.
    pub fn after_chunks(mut self, chunks: u64) -> Self {
        self.trigger = FaultTrigger::AfterChunks(chunks);
        self
    }

    /// Delay activation until `delay` after injector creation.
    pub fn after_time(mut self, delay: Duration) -> Self {
        self.trigger = FaultTrigger::AfterTime(delay);
        self
    }
}

/// The injector's verdict for one send attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// No active fault: charge the modelled cost and publish.
    Allow,
    /// Charge `factor`× the modelled cost, then publish.
    Slow(f64),
    /// Reject the send; the chunk is handed back to the sender.
    Reject,
}

/// Scriptable per-edge fault injection, shared by every connector of a
/// domain. Inert (a single relaxed atomic load per send) until the first
/// fault is scripted. The `seed` makes [`FaultKind::Flaky`] drop decisions a
/// pure function of `(seed, edge, attempt index)`, so a failing run
/// reproduces by seed alone.
pub struct FaultInjector {
    seed: AtomicU64,
    epoch: Instant,
    active: AtomicBool,
    scripts: Mutex<HashMap<EdgeId, FaultSpec>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("seed", &self.seed.load(Ordering::Relaxed))
            .field("scripts", &self.scripts.lock().len())
            .finish()
    }
}

impl FaultInjector {
    /// An injector with no scripted faults.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(FaultInjector {
            seed: AtomicU64::new(seed),
            epoch: Instant::now(),
            active: AtomicBool::new(false),
            scripts: Mutex::new(HashMap::new()),
        })
    }

    /// Replace the deterministic seed (affects [`FaultKind::Flaky`] rolls).
    pub fn set_seed(&self, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
    }

    /// The current seed.
    pub fn seed(&self) -> u64 {
        self.seed.load(Ordering::Relaxed)
    }

    /// Script `spec` on `edge`, replacing any previous script for that edge.
    pub fn script(&self, edge: EdgeId, spec: FaultSpec) {
        self.scripts.lock().insert(edge, spec);
        self.active.store(true, Ordering::Release);
    }

    /// Remove the script on `edge`, healing the link.
    pub fn unscript(&self, edge: EdgeId) {
        let mut scripts = self.scripts.lock();
        scripts.remove(&edge);
        if scripts.is_empty() {
            self.active.store(false, Ordering::Release);
        }
    }

    /// Heal exactly one edge, leaving every other scripted fault active —
    /// the per-edge counterpart of [`FaultInjector::clear`] recovery tests
    /// use to repair a single link mid-chaos.
    pub fn clear_edge(&self, edge: EdgeId) {
        self.unscript(edge);
    }

    /// Remove every script, healing all links.
    pub fn clear(&self) {
        self.scripts.lock().clear();
        self.active.store(false, Ordering::Release);
    }

    /// Whether any fault is currently scripted.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// The currently scripted faults, sorted by edge.
    pub fn scripted(&self) -> Vec<(EdgeId, FaultSpec)> {
        let mut v: Vec<_> = self.scripts.lock().iter().map(|(&e, &s)| (e, s)).collect();
        v.sort_by_key(|(e, _)| *e);
        v
    }

    fn triggered(&self, trigger: FaultTrigger, chunks_sent: u64) -> bool {
        match trigger {
            FaultTrigger::Immediately => true,
            FaultTrigger::AfterChunks(c) => chunks_sent >= c,
            FaultTrigger::AfterTime(d) => self.epoch.elapsed() >= d,
        }
    }

    /// Decide the fate of send attempt number `attempt` on `edge`, given that
    /// the edge has carried `chunks_sent` chunks so far.
    pub fn decide(&self, edge: EdgeId, chunks_sent: u64, attempt: u64) -> FaultDecision {
        if !self.is_active() {
            return FaultDecision::Allow;
        }
        let Some(spec) = self.scripts.lock().get(&edge).copied() else {
            return FaultDecision::Allow;
        };
        if !self.triggered(spec.trigger, chunks_sent) {
            return FaultDecision::Allow;
        }
        match spec.kind {
            FaultKind::Dead => FaultDecision::Reject,
            FaultKind::Slowdown(f) => FaultDecision::Slow(f),
            FaultKind::Flaky { drop_rate } => {
                if Self::roll(self.seed(), edge, attempt) < drop_rate {
                    FaultDecision::Reject
                } else {
                    FaultDecision::Allow
                }
            }
        }
    }

    /// Whether `edge` is currently dead (a triggered [`FaultKind::Dead`]
    /// script). Senders use this to turn their readiness poll off so the spin
    /// threshold trips and the collective is preempted instead of spinning on
    /// a link that can never drain.
    pub fn edge_dead(&self, edge: EdgeId, chunks_sent: u64) -> bool {
        if !self.is_active() {
            return false;
        }
        match self.scripts.lock().get(&edge) {
            Some(spec) if matches!(spec.kind, FaultKind::Dead) => {
                self.triggered(spec.trigger, chunks_sent)
            }
            _ => false,
        }
    }

    /// A deterministic uniform draw in `[0, 1)` from `(seed, edge, attempt)`
    /// via splitmix64 — no RNG state, so concurrent senders stay reproducible.
    fn roll(seed: u64, edge: EdgeId, attempt: u64) -> f64 {
        let mut x = seed
            ^ (edge.src.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (edge.dst.0 as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ (edge.channel.0 as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
            ^ attempt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One snapshot of one edge's progress counters, as produced by
/// [`crate::Communicator::edge_samples`]. The domain layer stamps `coll_id`
/// with the collective the edge's communicator belongs to, which is what lets
/// a [`StallReport`] name the *collectives* stalled on a failed link.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSample {
    /// The collective whose communicator owns this edge, if the probing layer
    /// knows it (communicators are allocated per registered collective).
    pub coll_id: Option<u64>,
    /// The directed physical edge.
    pub edge: EdgeId,
    /// The link class the edge crosses.
    pub link: LinkClass,
    /// Chunks currently buffered in the connector (published, unconsumed).
    pub queued: usize,
    /// Whether the edge currently cannot deliver — scripted dead by the
    /// injector or unreachable under the cost model. Sampled directly (not
    /// inferred from counters) because a dead edge stops reporting
    /// `send_ready`, so senders stop attempting and its rejection counter
    /// freezes.
    pub dead: bool,
    /// The connector's traffic counters.
    pub stats: ConnectorStats,
}

/// Total chunks moved (published + consumed) across a set of edge samples —
/// the domain-wide monotone progress scalar.
pub fn total_progress(samples: &[EdgeSample]) -> u64 {
    samples
        .iter()
        .map(|s| s.stats.chunks_sent + s.stats.chunks_received)
        .sum()
}

/// What kind of stall a [`StallReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// No progress and no faulted traffic: a scheduling wedge (the deadlock
    /// shapes of Sec. 2 — hold-and-wait on connectors or residency).
    Wedge,
    /// Sends were rejected by a dead/unreachable link during the stall
    /// window: the named edges failed and the named collectives are stuck
    /// behind them.
    LinkFailure,
}

/// A structured description of a detected stall: which edges failed, which
/// edges hold undrained traffic, and which collectives are implicated.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Whether this is a wedge or a link failure.
    pub kind: StallKind,
    /// Edges whose `fault_rejections` advanced during the stall window —
    /// dead or unreachable links actively bouncing traffic.
    pub failed_edges: Vec<EdgeSample>,
    /// Edges with undrained traffic (queued chunks) or sends bouncing off a
    /// full ring during the stall window — where the wedge is knotted.
    pub stalled_edges: Vec<EdgeSample>,
    /// Collectives attributed to the failed/stalled edges, deduplicated.
    pub stalled_collectives: Vec<u64>,
    /// Names of the supervised work items that had not finished (filled by
    /// kernel-level supervisors; empty when probing a daemon domain).
    pub unfinished: Vec<String>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            StallKind::Wedge => write!(f, "wedge")?,
            StallKind::LinkFailure => write!(f, "link failure")?,
        }
        if !self.failed_edges.is_empty() {
            write!(f, "; failed edges:")?;
            for e in &self.failed_edges {
                write!(f, " {}", e.edge)?;
            }
        }
        if !self.stalled_edges.is_empty() {
            write!(f, "; stalled edges:")?;
            for e in &self.stalled_edges {
                write!(f, " {}", e.edge)?;
            }
        }
        if !self.stalled_collectives.is_empty() {
            write!(f, "; collectives: {:?}", self.stalled_collectives)?;
        }
        if !self.unfinished.is_empty() {
            write!(f, "; unfinished: {:?}", self.unfinished)?;
        }
        Ok(())
    }
}

/// Outcome of [`supervise_with_probe`].
#[derive(Debug, Clone, PartialEq)]
pub enum SuperviseOutcome {
    /// The supervised work finished before any stall deadline expired.
    AllCompleted,
    /// A full stall deadline passed with zero progress on every edge.
    Stalled(StallReport),
}

/// Compare the edge samples at the start of the stall window against the
/// current ones and produce a [`StallReport`].
///
/// Classification: an edge that is currently dead, or whose
/// `fault_rejections` advanced during the window, is a **failed link** and
/// the report is a [`StallKind::LinkFailure`] naming those edges and their
/// collectives. Otherwise the stall is a [`StallKind::Wedge`], and the report
/// names the edges where traffic is visibly knotted: queued-but-unconsumed
/// chunks, or sends bouncing off a full ring during the window.
pub fn classify_stall(window_start: &[EdgeSample], current: &[EdgeSample]) -> StallReport {
    let baseline: HashMap<(Option<u64>, EdgeId), &ConnectorStats> = window_start
        .iter()
        .map(|s| ((s.coll_id, s.edge), &s.stats))
        .collect();
    let delta = |s: &EdgeSample, f: fn(&ConnectorStats) -> u64| {
        let before = baseline.get(&(s.coll_id, s.edge)).map_or(0, |b| f(b));
        f(&s.stats).saturating_sub(before)
    };

    let failed: Vec<EdgeSample> = current
        .iter()
        .filter(|s| s.dead || delta(s, |st| st.fault_rejections) > 0)
        .cloned()
        .collect();
    let stalled: Vec<EdgeSample> = current
        .iter()
        .filter(|s| s.queued > 0 || delta(s, |st| st.full_rejections) > 0)
        .cloned()
        .collect();

    let kind = if failed.is_empty() {
        StallKind::Wedge
    } else {
        StallKind::LinkFailure
    };
    let mut colls: Vec<u64> = match kind {
        StallKind::LinkFailure => failed.iter().filter_map(|s| s.coll_id).collect(),
        StallKind::Wedge => stalled.iter().filter_map(|s| s.coll_id).collect(),
    };
    colls.sort_unstable();
    colls.dedup();

    StallReport {
        kind,
        failed_edges: failed,
        stalled_edges: stalled,
        stalled_collectives: colls,
        unfinished: Vec::new(),
    }
}

/// Supervise until `done` returns true, declaring a stall only after
/// `stall_deadline` passes with *zero* progress across every edge `probe`
/// reports. Any advance of any edge's sent/received counters — including
/// fault rejections, which prove the sender is alive and retrying — resets
/// the deadline, so a slow-but-progressing round is never misreported. At
/// expiry the probe is re-sampled once more before declaring the stall
/// (progress during the final sleep must not be aborted as a wedge).
pub fn supervise_with_probe(
    done: &dyn Fn() -> bool,
    stall_deadline: Duration,
    probe: &dyn Fn() -> Vec<EdgeSample>,
) -> SuperviseOutcome {
    // Progress scalar for deadline resets: moved chunks only. Fault
    // rejections do NOT reset the deadline — a dead link being hammered
    // forever must still be declared within one deadline.
    let mut window_start = probe();
    let mut last_progress = total_progress(&window_start);
    let mut end = Instant::now() + stall_deadline;
    loop {
        if done() {
            return SuperviseOutcome::AllCompleted;
        }
        let current = probe();
        let now = total_progress(&current);
        if now != last_progress {
            last_progress = now;
            window_start = current;
            end = Instant::now() + stall_deadline;
        } else if Instant::now() >= end {
            // Deadline expired on a stale sample: re-sample once more before
            // declaring (the TOCTOU guard — progress during the last sleep,
            // or during this very probe, must reset the window instead).
            let fresh = probe();
            let fresh_progress = total_progress(&fresh);
            if fresh_progress != last_progress {
                last_progress = fresh_progress;
                window_start = fresh;
                end = Instant::now() + stall_deadline;
                continue;
            }
            if done() {
                return SuperviseOutcome::AllCompleted;
            }
            return SuperviseOutcome::Stalled(classify_stall(&window_start, &fresh));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: usize, dst: usize, ch: u32) -> EdgeId {
        EdgeId {
            src: GpuId(src),
            dst: GpuId(dst),
            channel: ChannelId(ch),
        }
    }

    fn sample(coll: u64, e: EdgeId, queued: usize, stats: ConnectorStats) -> EdgeSample {
        EdgeSample {
            coll_id: Some(coll),
            edge: e,
            link: LinkClass::IntraPix,
            queued,
            dead: false,
            stats,
        }
    }

    #[test]
    fn inert_injector_allows_everything() {
        let inj = FaultInjector::new(7);
        assert!(!inj.is_active());
        assert_eq!(inj.decide(edge(0, 1, 0), 0, 0), FaultDecision::Allow);
        assert!(!inj.edge_dead(edge(0, 1, 0), 0));
    }

    #[test]
    fn dead_script_rejects_only_its_edge() {
        let inj = FaultInjector::new(7);
        inj.script(edge(0, 1, 0), FaultSpec::dead());
        assert_eq!(inj.decide(edge(0, 1, 0), 0, 0), FaultDecision::Reject);
        assert!(inj.edge_dead(edge(0, 1, 0), 0));
        // Other channels and other pairs are untouched.
        assert_eq!(inj.decide(edge(0, 1, 1), 0, 0), FaultDecision::Allow);
        assert_eq!(inj.decide(edge(1, 0, 0), 0, 0), FaultDecision::Allow);
        inj.clear();
        assert_eq!(inj.decide(edge(0, 1, 0), 0, 0), FaultDecision::Allow);
        assert!(!inj.is_active());
    }

    #[test]
    fn clear_edge_heals_one_edge_and_keeps_other_scripts_active() {
        let inj = FaultInjector::new(7);
        inj.script(edge(0, 1, 0), FaultSpec::dead());
        inj.script(edge(1, 2, 0), FaultSpec::dead());
        inj.script(edge(0, 1, 1), FaultSpec::slowdown(4.0));
        inj.clear_edge(edge(0, 1, 0));
        // The healed edge allows traffic again...
        assert_eq!(inj.decide(edge(0, 1, 0), 0, 0), FaultDecision::Allow);
        assert!(!inj.edge_dead(edge(0, 1, 0), 0));
        // ...while the other scripted faults stay in force.
        assert!(inj.is_active());
        assert_eq!(inj.decide(edge(1, 2, 0), 0, 0), FaultDecision::Reject);
        assert_eq!(inj.decide(edge(0, 1, 1), 0, 0), FaultDecision::Slow(4.0));
        assert_eq!(inj.scripted().len(), 2);
        // Healing the rest deactivates the injector entirely.
        inj.clear_edge(edge(1, 2, 0));
        inj.clear_edge(edge(0, 1, 1));
        assert!(!inj.is_active());
    }

    #[test]
    fn chunk_count_trigger_delays_activation() {
        let inj = FaultInjector::new(7);
        inj.script(edge(0, 1, 0), FaultSpec::dead().after_chunks(3));
        assert_eq!(inj.decide(edge(0, 1, 0), 0, 0), FaultDecision::Allow);
        assert_eq!(inj.decide(edge(0, 1, 0), 2, 1), FaultDecision::Allow);
        assert_eq!(inj.decide(edge(0, 1, 0), 3, 2), FaultDecision::Reject);
        assert!(!inj.edge_dead(edge(0, 1, 0), 2));
        assert!(inj.edge_dead(edge(0, 1, 0), 3));
    }

    #[test]
    fn time_trigger_delays_activation() {
        let inj = FaultInjector::new(7);
        inj.script(
            edge(0, 1, 0),
            FaultSpec::slowdown(10.0).after_time(Duration::from_millis(30)),
        );
        assert_eq!(inj.decide(edge(0, 1, 0), 0, 0), FaultDecision::Allow);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(inj.decide(edge(0, 1, 0), 0, 1), FaultDecision::Slow(10.0));
    }

    #[test]
    fn flaky_rolls_are_seed_deterministic_and_roughly_calibrated() {
        let inj = FaultInjector::new(42);
        inj.script(edge(0, 1, 0), FaultSpec::flaky(0.25));
        let verdicts: Vec<FaultDecision> =
            (0..1000).map(|a| inj.decide(edge(0, 1, 0), 0, a)).collect();
        let replay: Vec<FaultDecision> =
            (0..1000).map(|a| inj.decide(edge(0, 1, 0), 0, a)).collect();
        assert_eq!(verdicts, replay, "same seed must replay identically");
        let drops = verdicts
            .iter()
            .filter(|v| **v == FaultDecision::Reject)
            .count();
        assert!(
            (150..350).contains(&drops),
            "a 25% drop rate produced {drops}/1000 drops"
        );
        // A different seed reshuffles the pattern.
        inj.set_seed(43);
        let other: Vec<FaultDecision> =
            (0..1000).map(|a| inj.decide(edge(0, 1, 0), 0, a)).collect();
        assert_ne!(verdicts, other);
    }

    #[test]
    fn classify_names_failed_edges_and_their_collectives() {
        let e_ok = edge(0, 1, 0);
        let e_bad = edge(1, 2, 0);
        let before = vec![
            sample(1, e_ok, 0, ConnectorStats::default()),
            sample(2, e_bad, 0, ConnectorStats::default()),
        ];
        let after = vec![
            sample(1, e_ok, 0, ConnectorStats::default()),
            sample(
                2,
                e_bad,
                0,
                ConnectorStats {
                    fault_rejections: 9,
                    ..ConnectorStats::default()
                },
            ),
        ];
        let report = classify_stall(&before, &after);
        assert_eq!(report.kind, StallKind::LinkFailure);
        assert_eq!(report.failed_edges.len(), 1);
        assert_eq!(report.failed_edges[0].edge, e_bad);
        assert_eq!(report.stalled_collectives, vec![2]);
        let s = report.to_string();
        assert!(s.contains("link failure"), "{s}");
        assert!(s.contains("gpu1->gpu2/ch0"), "{s}");
    }

    #[test]
    fn classify_names_a_dead_edge_even_with_frozen_counters() {
        // A dead edge stops reporting send_ready, so senders stop attempting
        // and its rejection counter freezes — the dead flag alone must carry
        // the classification.
        let e = edge(2, 3, 1);
        let mut s = sample(7, e, 0, ConnectorStats::default());
        s.dead = true;
        let report = classify_stall(&[s.clone()], &[s]);
        assert_eq!(report.kind, StallKind::LinkFailure);
        assert_eq!(report.failed_edges[0].edge, e);
        assert_eq!(report.stalled_collectives, vec![7]);
    }

    #[test]
    fn classify_reports_a_wedge_when_nothing_faulted() {
        let e = edge(0, 1, 0);
        let before = vec![sample(3, e, 1, ConnectorStats::default())];
        let after = vec![sample(3, e, 1, ConnectorStats::default())];
        let report = classify_stall(&before, &after);
        assert_eq!(report.kind, StallKind::Wedge);
        assert!(report.failed_edges.is_empty());
        assert_eq!(report.stalled_edges.len(), 1);
        assert_eq!(report.stalled_collectives, vec![3]);
    }

    #[test]
    fn supervise_completes_when_done_and_stalls_on_frozen_probe() {
        let done = std::sync::atomic::AtomicBool::new(true);
        let outcome = supervise_with_probe(
            &|| done.load(Ordering::Relaxed),
            Duration::from_millis(50),
            &Vec::new,
        );
        assert_eq!(outcome, SuperviseOutcome::AllCompleted);

        let e = edge(0, 1, 0);
        let frozen = vec![sample(
            1,
            e,
            2,
            ConnectorStats {
                chunks_sent: 5,
                chunks_received: 3,
                ..ConnectorStats::default()
            },
        )];
        let outcome =
            supervise_with_probe(&|| false, Duration::from_millis(40), &|| frozen.clone());
        match outcome {
            SuperviseOutcome::Stalled(report) => {
                assert_eq!(report.kind, StallKind::Wedge);
                assert_eq!(report.stalled_edges.len(), 1);
            }
            other => panic!("expected a stall, got {other:?}"),
        }
    }

    #[test]
    fn supervise_resets_deadline_while_progress_advances() {
        // Progress advances every ~10 ms, well inside the 60 ms deadline; the
        // work finishes after ~150 ms. A fixed deadline would have fired.
        let start = Instant::now();
        let e = edge(0, 1, 0);
        let outcome = supervise_with_probe(
            &|| start.elapsed() > Duration::from_millis(150),
            Duration::from_millis(60),
            &|| {
                vec![sample(
                    1,
                    e,
                    0,
                    ConnectorStats {
                        chunks_sent: start.elapsed().as_millis() as u64 / 10,
                        ..ConnectorStats::default()
                    },
                )]
            },
        );
        assert_eq!(outcome, SuperviseOutcome::AllCompleted);
    }

    #[test]
    fn supervise_resamples_the_probe_before_declaring() {
        // TOCTOU regression: the deadline expires against a sample that went
        // stale while the (expensive) probe ran, although the round advanced
        // meanwhile. Timeline (probe ~30 ms, deadline 40 ms): the last
        // pre-expiry probe reads the counter at ~60 ms (still 0), it advances
        // at ~75 ms, the expiry check runs at ~90 ms and must re-sample
        // instead of declaring; the work finishes at ~110 ms.
        let start = Instant::now();
        let e = edge(0, 1, 0);
        let outcome = supervise_with_probe(
            &|| start.elapsed() > Duration::from_millis(110),
            Duration::from_millis(40),
            &|| {
                let sent = u64::from(start.elapsed() > Duration::from_millis(75));
                std::thread::sleep(Duration::from_millis(30));
                vec![sample(
                    1,
                    e,
                    0,
                    ConnectorStats {
                        chunks_sent: sent,
                        ..ConnectorStats::default()
                    },
                )]
            },
        );
        assert_eq!(
            outcome,
            SuperviseOutcome::AllCompleted,
            "a round that advanced during the final probe was declared stalled"
        );
    }
}
