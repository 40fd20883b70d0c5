//! Link fault injection and stall classification.
//!
//! Production-scale collective traffic sees links die, degrade, and flap;
//! reproducing the paper's robustness story needs a way to *script* those
//! failures deterministically. A [`FaultInjector`] holds per-edge fault
//! specifications keyed by the directed `(src GPU, dst GPU, channel)` edge a
//! [`crate::Connector`] crosses; every send consults the injector, so a
//! scripted edge can go dead, slow down by a factor, or drop chunks
//! intermittently — optionally only after a chunk-count trigger fires,
//! modelling mid-collective failures.
//!
//! The same module defines the *observability* side: [`EdgeSample`]
//! snapshots of per-edge counters, and [`classify_stall`], which turns one
//! snapshot into a structured [`StallReport`]. The rule is structural, not
//! timed: an edge has **failed** once its connector refused
//! [`FAILED_EDGE_RUN`] sends in a row; a stall with no failed edge is a
//! wedge. Nothing here reads a clock, so a verdict depends on what the
//! senders did, never on how fast the host ran them.
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use gpu_sim::GpuId;
use parking_lot::Mutex;

use crate::communicator::ChannelId;
use crate::connector::ConnectorStats;
use crate::topology::LinkClass;

/// Sends an edge must refuse in a row before it is declared failed.
///
/// A dead link refuses every send, and a sender polls it at least once per
/// lane pass, so a dead edge reaches the run within a few slices. A flaky
/// link that drops each attempt independently with probability `p` refuses
/// 32 in a row with probability `p^32` per attempt: `1.9e-17` at `p = 0.3`,
/// so even 10^12 attempts on such an edge reach the run with probability
/// about `2e-5`. The longest run a seeded 30 % edge shows over 100 000
/// attempts is about a third of it (`connector.rs` tests it).
pub const FAILED_EDGE_RUN: u64 = 32;

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

    /// Heal exactly one edge, leaving every other scripted fault active —
    /// the per-edge counterpart of [`FaultInjector::clear`].
    pub fn clear_edge(&self, edge: EdgeId) {
        let mut scripts = self.scripts.lock();
        scripts.remove(&edge);
        if scripts.is_empty() {
            self.active.store(false, Ordering::Release);
        }
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

    fn triggered(trigger: FaultTrigger, chunks_sent: u64) -> bool {
        match trigger {
            FaultTrigger::Immediately => true,
            FaultTrigger::AfterChunks(c) => chunks_sent >= c,
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
        if !Self::triggered(spec.trigger, chunks_sent) {
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
    /// a link that can never drain; each such poll counts as a refused send.
    pub fn edge_dead(&self, edge: EdgeId, chunks_sent: u64) -> bool {
        if !self.is_active() {
            return false;
        }
        match self.scripts.lock().get(&edge) {
            Some(spec) if matches!(spec.kind, FaultKind::Dead) => {
                Self::triggered(spec.trigger, chunks_sent)
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
    /// injector or unreachable under the cost model.
    pub dead: bool,
    /// Sends the link refused in a row since the last accepted one: refused
    /// `try_send`s and `send_ready` polls that found the link dead. At
    /// [`FAILED_EDGE_RUN`] the edge has failed.
    pub refusal_run: u64,
    /// The connector's traffic counters.
    pub stats: ConnectorStats,
}

impl EdgeSample {
    /// Whether the edge has refused [`FAILED_EDGE_RUN`] sends in a row.
    pub fn has_failed(&self) -> bool {
        self.refusal_run >= FAILED_EDGE_RUN
    }
}

/// What kind of stall a [`StallReport`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Nothing can move and no edge failed: a scheduling wedge (the deadlock
    /// shapes of Sec. 2 — hold-and-wait on connectors or residency — or a
    /// member that never submitted a round its peers wait on).
    Wedge,
    /// An edge refused [`FAILED_EDGE_RUN`] sends in a row: the named edges
    /// failed and the named collectives are stuck behind them.
    LinkFailure,
}

/// A structured description of a detected stall: which edges failed, which
/// edges hold undrained traffic, and which collectives are implicated.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Whether this is a wedge or a link failure.
    pub kind: StallKind,
    /// Edges whose refusal run reached [`FAILED_EDGE_RUN`].
    pub failed_edges: Vec<EdgeSample>,
    /// Edges holding undrained traffic (queued chunks) — where a wedge is
    /// knotted.
    pub stalled_edges: Vec<EdgeSample>,
    /// Collectives attributed to the failed/stalled edges, deduplicated.
    pub stalled_collectives: Vec<u64>,
    /// Names of the supervised work items that had not finished (filled by
    /// kernel-level supervisors; empty when probing a daemon domain).
    pub unfinished: Vec<String>,
    /// `(collective, member)` pairs of a wedge: the member has not submitted
    /// a round of the collective that another member has pending.
    pub missing: Vec<(u64, GpuId)>,
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
        if !self.missing.is_empty() {
            write!(f, "; missing:")?;
            for (coll, gpu) in &self.missing {
                write!(f, " coll {coll} on {gpu}")?;
            }
        }
        Ok(())
    }
}

/// Classify a stall from one snapshot of edge samples.
///
/// An edge whose refusal run reached [`FAILED_EDGE_RUN`] is a **failed
/// link**, and the report is a [`StallKind::LinkFailure`] naming those edges
/// and their collectives. Otherwise the stall is a [`StallKind::Wedge`], and
/// the report names the edges where traffic is visibly knotted (queued but
/// unconsumed chunks) and their collectives.
pub fn classify_stall(samples: &[EdgeSample]) -> StallReport {
    let failed: Vec<EdgeSample> = samples.iter().filter(|s| s.has_failed()).cloned().collect();
    let stalled: Vec<EdgeSample> = samples.iter().filter(|s| s.queued > 0).cloned().collect();
    let kind = if failed.is_empty() {
        StallKind::Wedge
    } else {
        StallKind::LinkFailure
    };
    let named = if failed.is_empty() { &stalled } else { &failed };
    let mut colls: Vec<u64> = named.iter().filter_map(|s| s.coll_id).collect();
    colls.sort_unstable();
    colls.dedup();
    StallReport {
        kind,
        failed_edges: failed,
        stalled_edges: stalled,
        stalled_collectives: colls,
        unfinished: Vec::new(),
        missing: Vec::new(),
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

    fn sample(coll: u64, e: EdgeId, queued: usize, refusal_run: u64) -> EdgeSample {
        EdgeSample {
            coll_id: Some(coll),
            edge: e,
            link: LinkClass::IntraPix,
            queued,
            dead: false,
            refusal_run,
            stats: ConnectorStats::default(),
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
        let report = classify_stall(&[sample(1, e_ok, 0, 0), sample(2, e_bad, 0, FAILED_EDGE_RUN)]);
        assert_eq!(report.kind, StallKind::LinkFailure);
        assert_eq!(report.failed_edges.len(), 1);
        assert_eq!(report.failed_edges[0].edge, e_bad);
        assert_eq!(report.stalled_collectives, vec![2]);
        let s = report.to_string();
        assert!(s.contains("link failure"), "{s}");
        assert!(s.contains("gpu1->gpu2/ch0"), "{s}");
    }

    #[test]
    fn a_run_short_of_the_limit_is_not_a_failure() {
        // A flaky edge refuses sends now and then; until its run reaches the
        // limit it is a retrying link, not a failed one.
        let e = edge(2, 3, 1);
        let report = classify_stall(&[sample(7, e, 1, FAILED_EDGE_RUN - 1)]);
        assert_eq!(report.kind, StallKind::Wedge);
        assert!(report.failed_edges.is_empty());
        let report = classify_stall(&[sample(7, e, 1, FAILED_EDGE_RUN)]);
        assert_eq!(report.kind, StallKind::LinkFailure);
        assert_eq!(report.stalled_collectives, vec![7]);
    }

    #[test]
    fn classify_reports_a_wedge_when_nothing_refused() {
        let e = edge(0, 1, 0);
        let report = classify_stall(&[sample(3, e, 1, 0)]);
        assert_eq!(report.kind, StallKind::Wedge);
        assert!(report.failed_edges.is_empty());
        assert_eq!(report.stalled_edges.len(), 1);
        assert_eq!(report.stalled_collectives, vec![3]);
    }

    #[test]
    fn a_wedge_names_its_missing_members() {
        let mut report = classify_stall(&[]);
        report.missing = vec![(1, GpuId(3))];
        assert_eq!(report.to_string(), "wedge; missing: coll 1 on gpu3");
    }
}
