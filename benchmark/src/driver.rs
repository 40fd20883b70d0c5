//! The load generator: one driver thread, closed loop, segments of a fixed
//! number of ops.
//!
//! Completion callbacks run on the library's poller threads and do no locking
//! or allocation: they `fetch_max` a nanosecond stamp into the pre-sized slot
//! of their op, count the op's callbacks down, and unpark the driver when the
//! op is complete on all ranks.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

use dfccl::Callback;

use crate::host::{cpu_seconds, now_ns, steal_seconds};
use crate::rng::Rng;
use crate::stats::Histogram;
use crate::workload::{Live, Spec, Sub, OP_TIMEOUT};

/// Completion state of the segment in flight, shared with the callbacks.
struct SegState {
    driver: Thread,
    subs_per_op: usize,
    traced: AtomicBool,
    /// Callbacks still owed, per op.
    pending: Vec<AtomicU32>,
    /// Latest callback stamp, per op.
    end_ns: Vec<AtomicU64>,
    /// Callback stamp per (op, submission); written in traced passes only.
    sub_end_ns: Vec<AtomicU64>,
    /// Ops complete on all ranks.
    done: AtomicUsize,
}

impl SegState {
    fn callback(self: &Arc<Self>, op: usize, sub: usize) -> Callback {
        let st = Arc::clone(self);
        Box::new(move || {
            let t = now_ns();
            if st.traced.load(Ordering::Relaxed) {
                st.sub_end_ns[op * st.subs_per_op + sub].store(t, Ordering::Relaxed);
            }
            st.end_ns[op].fetch_max(t, Ordering::Relaxed);
            // AcqRel: the driver's Acquire load of `done` must see every
            // rank's stamp of a completed op.
            if st.pending[op].fetch_sub(1, Ordering::AcqRel) == 1 {
                st.done.fetch_add(1, Ordering::Release);
                st.driver.unpark();
            }
        })
    }
}

/// One recorded span of a traced op: `op` itself, or a rank's `submit` /
/// `inflight` child (the op index is the shared identifier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSpan {
    pub kind: SpanKind,
    pub op: u64,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Op,
    Submit,
    Inflight,
}

/// What one pass (a run of segments) measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Ops per second of each segment.
    pub rates: Vec<f64>,
    /// First submit entered → last rank's callback stamp, per op.
    pub latency: Histogram,
    pub attempted: u64,
    pub failed: u64,
    /// Why the pass ended early, if it did (a wedge or a refused submission).
    pub aborted: Option<String>,
    /// Segments whose checked op mismatched or that saw collective errors.
    pub bad_segments: Vec<String>,
    /// Wall seconds the segments took and meanwhile: the CPU seconds the
    /// process used and the vCPU seconds the hypervisor stole from the guest.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
    /// Traced passes only: per-submission call time, per-submission
    /// submit-return → callback time, and callback → driver-resumes time for
    /// ops the driver was parked on.
    pub submit: Histogram,
    pub inflight: Histogram,
    pub wake: Histogram,
}

impl Pass {
    /// Segments measured so far.
    pub fn segments(&self) -> usize {
        self.rates.len()
    }

    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Share of the guest's vCPU time the hypervisor gave to someone else
    /// while the segments ran, in percent.
    pub fn steal_pct(&self) -> f64 {
        let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        self.steal_s / self.wall_s / vcpus * 100.0
    }
}

/// How long one call of [`Driver::run_pass`] runs: segments until `seconds`
/// have passed inside segments, and at least
/// `min_segments`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_segments: usize,
}

pub struct Driver {
    state: Arc<SegState>,
    start_ns: Vec<u64>,
    sub_start_ns: Vec<u64>,
    sub_ret_ns: Vec<u64>,
    sub_rank: Vec<usize>,
    subs: Vec<Sub>,
    /// Seeded streams: disorder permutations and checked-op payloads.
    perms: Rng,
    payload: Rng,
    /// Ops of the current segment whose submission has begun.
    submitted: usize,
    /// Ops of completed segments.
    ops_run: u64,
}

impl Driver {
    pub fn new(spec: &Spec, seed: u64) -> Driver {
        let n = spec.ops_per_segment;
        let s = spec.subs_per_op;
        let atomics = |len: usize| (0..len).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Driver {
            state: Arc::new(SegState {
                driver: std::thread::current(),
                subs_per_op: s,
                traced: AtomicBool::new(false),
                pending: (0..n).map(|_| AtomicU32::new(0)).collect(),
                end_ns: atomics(n),
                sub_end_ns: atomics(n * s),
                done: AtomicUsize::new(0),
            }),
            start_ns: vec![0; n],
            sub_start_ns: vec![0; n * s],
            sub_ret_ns: vec![0; n * s],
            sub_rank: vec![0; n * s],
            subs: Vec::with_capacity(s),
            perms: Rng::new(seed, 2),
            payload: Rng::new(seed, 3),
            submitted: 0,
            ops_run: 0,
        }
    }

    /// Park until `target` ops of the segment are done. Returns whether the
    /// driver had to park, or `Err` if the oldest unfinished op is older
    /// than [`OP_TIMEOUT`].
    fn wait_done(&self, target: usize) -> Result<bool, String> {
        let mut parked = false;
        loop {
            let done = self.state.done.load(Ordering::Acquire);
            if done >= target {
                return Ok(parked);
            }
            // Ops of one workload complete in submission order (per-id FIFO
            // queues), so the oldest unfinished op is op number `done`.
            let age = Duration::from_nanos(now_ns().saturating_sub(self.start_ns[done]));
            if age >= OP_TIMEOUT {
                return Err(format!(
                    "op {done} of the segment did not complete within {} s (deadlock)",
                    OP_TIMEOUT.as_secs()
                ));
            }
            parked = true;
            std::thread::park_timeout((OP_TIMEOUT - age).min(Duration::from_millis(200)));
        }
    }

    /// Submit the segment's ops in a closed loop and wait for the last
    /// completion. `self.submitted` counts the ops whose submission began.
    /// `Err` is a wedge (an op older than [`OP_TIMEOUT`]) or a refused
    /// submission.
    fn drive_segment(&mut self, live: &Live, traced: bool, pass: &mut Pass) -> Result<(), String> {
        let n = live.spec.ops_per_segment;
        let s = live.spec.subs_per_op;
        let window = live.spec.window;
        let st = Arc::clone(&self.state);
        for op in 0..n {
            // Closed loop: at most `window` ops in flight.
            if op >= window && self.wait_done(op + 1 - window)? && traced {
                let end = st.end_ns[op - window].load(Ordering::Relaxed);
                pass.wake.record(now_ns().saturating_sub(end));
            }
            let set = live.plan_op(op, op == n - 1, &mut self.perms, &mut self.subs);
            self.start_ns[op] = now_ns();
            self.submitted = op + 1;
            for (k, &sub) in self.subs.iter().enumerate() {
                let slot = op * s + k;
                if traced {
                    self.sub_rank[slot] = sub.rank(live);
                    self.sub_start_ns[slot] = now_ns();
                }
                live.exec(sub, set, || st.callback(op, k))?;
                if traced {
                    self.sub_ret_ns[slot] = now_ns();
                }
            }
        }
        self.wait_done(n)?;
        Ok(())
    }

    /// Run segments of `live.spec.ops_per_segment` ops on `live` until the
    /// budget is spent, adding what they measure to `pass` (a pass spans the
    /// run's epochs, i.e. several fresh set-ups). The last op of every
    /// segment is checked bit-exact against the host oracle; a mismatch or a
    /// recorded collective error counts the whole segment's ops as failed.
    /// Returns early, with `pass.aborted` set, on a wedge.
    pub fn run_pass(&mut self, live: &mut Live, budget: Budget, traced: bool, pass: &mut Pass) {
        let n = live.spec.ops_per_segment;
        let s = live.spec.subs_per_op;
        let st = Arc::clone(&self.state);
        st.traced.store(traced, Ordering::Relaxed);
        let (first_segment, wall_before) = (pass.segments(), pass.wall_s);

        while pass.segments() - first_segment < budget.min_segments
            || pass.wall_s - wall_before < budget.seconds
        {
            for op in 0..n {
                st.pending[op].store(s as u32, Ordering::Relaxed);
                st.end_ns[op].store(0, Ordering::Relaxed);
            }
            st.done.store(0, Ordering::Release);
            live.prepare_check(n - 1, &mut self.payload);
            self.submitted = 0;

            let (cpu0, steal0) = (cpu_seconds().unwrap_or(0.0), steal_seconds().unwrap_or(0.0));
            let t0 = now_ns();
            let outcome = self.drive_segment(live, traced, pass);
            let t1 = now_ns();
            let (cpu1, steal1) = (cpu_seconds().unwrap_or(0.0), steal_seconds().unwrap_or(0.0));

            pass.attempted += self.submitted as u64;
            if let Err(e) = outcome {
                // Ops still owed callbacks are the failed ones; nothing more
                // can be measured on a wedged domain.
                pass.failed += (self.submitted - st.done.load(Ordering::Acquire)) as u64;
                pass.aborted = Some(e);
                return;
            }
            self.ops_run += n as u64;

            let errors = live.collective_errors();
            if !errors.is_empty() || !live.verify_check(n - 1) {
                pass.failed += n as u64;
                pass.bad_segments.push(if errors.is_empty() {
                    format!("segment {}: checked op is not bit-exact", pass.rates.len())
                } else {
                    format!("segment {}: {}", pass.rates.len(), errors.join("; "))
                });
            }

            let wall = (t1 - t0) as f64 / 1e9;
            pass.wall_s += wall;
            pass.cpu_s += cpu1 - cpu0;
            pass.steal_s += steal1 - steal0;
            pass.rates.push(n as f64 / wall);
            for op in 0..n {
                let end = st.end_ns[op].load(Ordering::Relaxed);
                pass.latency.record(end.saturating_sub(self.start_ns[op]));
            }
            if traced {
                for slot in 0..n * s {
                    let (start, ret) = (self.sub_start_ns[slot], self.sub_ret_ns[slot]);
                    let end = st.sub_end_ns[slot].load(Ordering::Relaxed).max(ret);
                    pass.submit.record(ret - start);
                    pass.inflight.record(end - ret);
                }
            }
        }
    }

    /// The spans of the most recent segment, which must have been a traced
    /// one: per op its `op` span, then each submission's `submit` and
    /// `inflight` children.
    pub fn last_segment_spans(&self, spec: &Spec) -> Vec<OpSpan> {
        let (n, s) = (spec.ops_per_segment, spec.subs_per_op);
        let st = &self.state;
        let first_op = self.ops_run - n as u64;
        let mut spans = Vec::with_capacity(n * (1 + 2 * s));
        for op in 0..n {
            let id = first_op + op as u64;
            spans.push(OpSpan {
                kind: SpanKind::Op,
                op: id,
                rank: 0,
                start_ns: self.start_ns[op],
                end_ns: st.end_ns[op].load(Ordering::Relaxed),
            });
            for slot in op * s..(op + 1) * s {
                let (start, ret) = (self.sub_start_ns[slot], self.sub_ret_ns[slot]);
                let end = st.sub_end_ns[slot].load(Ordering::Relaxed).max(ret);
                let rank = self.sub_rank[slot];
                spans.push(OpSpan {
                    kind: SpanKind::Submit,
                    op: id,
                    rank,
                    start_ns: start,
                    end_ns: ret,
                });
                spans.push(OpSpan {
                    kind: SpanKind::Inflight,
                    op: id,
                    rank,
                    start_ns: ret,
                    end_ns: end,
                });
            }
        }
        spans
    }
}
