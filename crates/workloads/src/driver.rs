//! The one per-GPU host loop: the training workloads and the figure bins
//! that drive GPUs iteration by iteration run on both stacks through it.
//!
//! [`Run::drive`] builds DFCCL's domain or the NCCL-like baseline's (one
//! orchestration strategy per GPU), registers every collective on its
//! device set and runs one thread per GPU: each iteration starts at a gate
//! and runs the body, timed. It keeps each iteration's slowest GPU, checks
//! DFCCL's collective errors, hands the DFCCL ranks to the caller and tears
//! down. A body reaches the stack only through its [`Iteration`]; one that
//! never calls [`Iteration::order`] runs the baseline unorchestrated.
//!
//! No wait has a wall-clock bound. A GPU is *blocked* while it waits on a
//! collective, a device synchronization or the gate, and once it has
//! finished; a wait runs as poll slices. When a slice ends with every GPU
//! blocked and none left a wait meanwhile, its GPU holds the others still
//! and asks the stack's own detector: DFCCL's [`detect_stall`], whose wedge
//! panics naming the GPU, iteration and collective of its first missing
//! member, or the baseline's watchdog ([`wait_or_deadlock`]), which steps
//! the engines alone until some GPU's wait can end and otherwise returns
//! the deadlock from [`Run::drive`]. A panic in a body, or a verdict, stops
//! the run: every other GPU leaves its wait or the gate.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dfccl::{detect_stall, CompletionHandle, DfcclConfig, DfcclDomain, RankCtx};
use dfccl_baseline::orchestration::{build_strategy, OrchestrationStrategy};
use dfccl_baseline::{wait_or_deadlock, DeadlockOutcome, NcclDomain, NcclRank};
use dfccl_collectives::{CollectiveDescriptor, DeviceBuffer};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{busy_spin, GpuId, GpuSpec, KernelHandle, KernelStatus, StreamId};
use rand::Rng;

use crate::trainer::BackendKind;

/// A wait's poll interval: how often a blocked GPU looks whether every GPU
/// is blocked. It sets when a verdict is asked for, never which.
const SLICE: Duration = Duration::from_millis(10);

/// Swap each adjacent pair of `order`, left to right, with probability
/// `prob`: the natural invocation disorder DFCCL tolerates.
pub(crate) fn jitter<T>(order: &mut [T], prob: f64, rng: &mut impl Rng) {
    if prob > 0.0 {
        for i in 0..order.len().saturating_sub(1) {
            if rng.gen_bool(prob.min(1.0)) {
                order.swap(i, i + 1);
            }
        }
    }
}

/// One run, short of its per-iteration body.
pub struct Run<'a> {
    pub backend: BackendKind,
    pub gpus: &'a [GpuId],
    pub topology: Topology,
    pub links: LinkModel,
    /// DFCCL's configuration; the baseline takes its `chunk_elems`.
    pub config: DfcclConfig,
    /// Every collective, registered on each GPU of its device set.
    pub collectives: Vec<(u64, CollectiveDescriptor)>,
    pub iterations: usize,
}

/// One GPU's rank on either stack.
enum Member {
    Dfccl(RankCtx),
    Nccl(NcclRank, Box<dyn OrchestrationStrategy>),
}

/// A submitted collective, waited on once.
pub struct Submission {
    coll_id: u64,
    handle: Handle,
}

enum Handle {
    Dfccl(CompletionHandle),
    Nccl(KernelHandle),
}

/// What the GPU threads of one run share: the members, and the gate's
/// state, which also decides when the run is stuck.
struct Shared {
    gpus: Vec<GpuId>,
    members: Vec<Member>,
    collectives: HashMap<u64, CollectiveDescriptor>,
    iterations: usize,
    /// The baseline's domain; `None` on DFCCL.
    baseline: Option<Arc<NcclDomain>>,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    arrived: usize,
    round: u64,
    /// GPUs waiting on a collective, a synchronization or the gate, or done.
    blocked: usize,
    /// Bumped whenever a GPU leaves a wait.
    generation: u64,
    /// GPUs inside a wait slice.
    slicing: usize,
    /// A GPU is asking the stack for a verdict: blocked GPUs hold still.
    checking: bool,
    /// What each GPU blocked in a wait waits on.
    waits: Vec<Option<Waiting>>,
    /// The baseline's kernels not seen to finish: its watchdog's charge.
    in_flight: Vec<KernelHandle>,
    stopped: Option<Stop>,
}

/// What a GPU blocked in a wait waits on.
#[derive(Clone)]
enum Waiting {
    /// A DFCCL collective.
    Collective(u64),
    /// A baseline collective's kernel.
    Kernel(KernelHandle),
    Synchronize,
}

/// Why a run stopped before its last iteration.
enum Stop {
    /// A body panicked on this GPU first.
    Panicked(usize),
    /// DFCCL wedged: the message naming the missing member.
    Wedged(String),
    /// The baseline deadlocked: what each unfinished kernel waits on.
    Deadlock(Vec<String>),
}

/// Unwinds a blocked GPU out of its body once the run has stopped.
struct Stopped;

/// One GPU's view of one iteration: the only way a body reaches the stack.
pub struct Iteration<'a> {
    /// This GPU's index in the run's `gpus`.
    pub gpu: usize,
    pub iteration: usize,
    run: &'a Shared,
}

impl<'a> Iteration<'a> {
    /// Simulated compute on this GPU.
    pub fn compute(&self, duration: Duration) {
        busy_spin(duration);
    }

    /// The order this GPU submits `ready` in: DFCCL takes `jittered()`; the
    /// baseline takes its strategy's imposed order, the same on every GPU,
    /// and pays the strategy's coordination cost.
    pub fn order(&self, ready: &[u64], jittered: impl FnOnce() -> Vec<u64>) -> Vec<u64> {
        match self.member() {
            Member::Dfccl(_) => jittered(),
            Member::Nccl(_, strategy) => {
                let imposed = strategy.imposed_order(ready);
                let (n, iteration) = (self.run.gpus.len(), self.iteration as u64);
                busy_spin(strategy.iteration_overhead(ready.len(), n, iteration));
                imposed
            }
        }
    }

    /// Submit `coll_id` with zeroed buffers sized for this GPU; the baseline
    /// launches its kernel on `stream`.
    pub fn submit(&self, coll_id: u64, stream: StreamId) -> Submission {
        let desc = &self.run.collectives[&coll_id];
        let gpu = self.run.gpus[self.gpu];
        let rank = desc.devices.iter().position(|&d| d == gpu);
        let rank = rank.expect("a GPU submits only its own collectives");
        let send = DeviceBuffer::zeroed(desc.send_bytes(rank));
        let recv = DeviceBuffer::zeroed(desc.recv_bytes(rank).max(4));
        let handle = match self.member() {
            Member::Dfccl(r) => r
                .run_awaitable(coll_id, send, recv)
                .map(Handle::Dfccl)
                .map_err(|e| e.to_string()),
            Member::Nccl(r, _) => r
                .launch_collective(coll_id, stream, send, recv)
                .map(|h| {
                    let in_flight = &mut self.run.lock().in_flight;
                    in_flight.retain(|h| !h.is_terminal());
                    in_flight.push(h.clone());
                    Handle::Nccl(h)
                })
                .map_err(|e| e.to_string()),
        };
        let handle = handle.unwrap_or_else(|e| self.fail(coll_id, &format!("was refused: {e}")));
        Submission { coll_id, handle }
    }

    /// Wait for `submission`: a collective that fails fails the run.
    pub fn wait(&self, submission: Submission) {
        let coll_id = submission.coll_id;
        match submission.handle {
            Handle::Dfccl(h) => {
                self.block(Waiting::Collective(coll_id), || {
                    h.wait_for_timeout(1, SLICE)
                });
            }
            Handle::Nccl(h) => {
                let slice = || h.wait_timeout(SLICE).is_terminal();
                self.block(Waiting::Kernel(h.clone()), slice);
                match h.status() {
                    KernelStatus::Completed => {}
                    status => self.fail(coll_id, &format!("ended {status:?}")),
                }
            }
        }
    }

    /// A `cudaDeviceSynchronize()` on this GPU: DFCCL's daemon quits so
    /// that it drains; the baseline's waits for every kernel this GPU
    /// launched. A slice that ends undrained issues the barrier again,
    /// behind the same kernels (and any daemon DFCCL relaunched meanwhile).
    pub fn synchronize(&self) {
        match self.member() {
            Member::Dfccl(r) => self.block(Waiting::Synchronize, || r.device_synchronize(SLICE)),
            Member::Nccl(r, _) => {
                self.block(Waiting::Synchronize, || r.device_synchronize_timeout(SLICE))
            }
        }
    }

    fn member(&self) -> &Member {
        &self.run.members[self.gpu]
    }

    /// Block this GPU on `on` until `slice`, one poll interval of the wait,
    /// reports it done. Between slices it asks for a verdict once every GPU
    /// is blocked, and holds still while another GPU asks; once the run has
    /// stopped it unwinds, quietly: [`Run::drive`] reports what stopped it.
    fn block(&self, on: Waiting, slice: impl Fn() -> bool) {
        let run = self.run;
        let mut st = run.lock();
        st.blocked += 1;
        st.waits[self.gpu] = Some(on);
        loop {
            while st.checking && st.stopped.is_none() {
                st = run.park(st);
            }
            if st.stopped.is_some() {
                drop(st);
                std::panic::resume_unwind(Box::new(Stopped));
            }
            st.slicing += 1;
            drop(st);
            let done = slice();
            st = run.lock();
            st.slicing -= 1;
            if st.checking {
                run.cv.notify_all();
            }
            if done {
                st.blocked -= 1;
                st.generation += 1;
                st.waits[self.gpu] = None;
                return;
            }
            if st.blocked == run.gpus.len() && !st.checking && st.stopped.is_none() {
                st = self.check(st);
            }
        }
    }

    /// Every GPU is blocked: once every other slice has ended, with no GPU
    /// leaving its wait, ask the stack whether the run can move. A verdict
    /// stops the run.
    fn check(&self, mut st: MutexGuard<'a, GateState>) -> MutexGuard<'a, GateState> {
        let run = self.run;
        st.checking = true;
        let generation = st.generation;
        while st.slicing > 0 {
            st = run.park(st);
        }
        if st.generation == generation {
            let (waits, in_flight) = (st.waits.clone(), st.in_flight.clone());
            drop(st);
            let verdict = match &run.baseline {
                None => run.wedge(&waits, self.iteration).map(Stop::Wedged),
                Some(domain) => run.deadlock(domain, &waits, &in_flight).map(Stop::Deadlock),
            };
            st = run.lock();
            st.stopped = st.stopped.take().or(verdict);
        }
        st.checking = false;
        run.cv.notify_all();
        st
    }

    fn fail(&self, coll_id: u64, why: &str) -> ! {
        let (gpu, iteration) = (self.gpu, self.iteration);
        panic!("gpu {gpu} iteration {iteration}: collective {coll_id} {why}")
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn park<'g>(&self, st: MutexGuard<'g, GateState>) -> MutexGuard<'g, GateState> {
        self.cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    fn ranks(&self) -> Vec<&RankCtx> {
        let members = self.members.iter();
        members
            .filter_map(|m| match m {
                Member::Dfccl(r) => Some(r),
                Member::Nccl(..) => None,
            })
            .collect()
    }

    /// DFCCL's verdict on a run whose GPUs are all blocked on `waits` in
    /// `iteration` (the gate keeps every GPU in one): [`detect_stall`]'s
    /// wedge, named by its first missing member, unless a GPU waits on a
    /// collective that is not stalled (its completion is on its way) or on
    /// a synchronization (the daemon quits for it).
    fn wedge(&self, waits: &[Option<Waiting>], iteration: usize) -> Option<String> {
        let report = detect_stall(&self.ranks())?;
        let stalled = &report.stalled_collectives;
        let stuck = |w: &Waiting| matches!(w, Waiting::Collective(c) if stalled.contains(c));
        if !waits.iter().flatten().all(stuck) {
            return None;
        }
        let Some(&(coll_id, missing)) = report.missing.first() else {
            return Some(format!("iteration {iteration}: the run stalled ({report})"));
        };
        let gpu = self.gpus.iter().position(|&g| g == missing);
        let gpu = gpu.expect("a missing member is a GPU of the run");
        Some(format!(
            "gpu {gpu} iteration {iteration}: collective {coll_id} never came ({report})"
        ))
    }

    /// The baseline's verdict on a run whose GPUs are all blocked on
    /// `waits`: its watchdog steps the engines, alone, until some GPU's wait
    /// can end, or decides a deadlock and tears the stuck engines down.
    fn deadlock(
        &self,
        domain: &NcclDomain,
        waits: &[Option<Waiting>],
        in_flight: &[KernelHandle],
    ) -> Option<Vec<String>> {
        let can_end = |gpu: GpuId, w: &Waiting| match w {
            Waiting::Kernel(h) => h.is_terminal(),
            // The barrier drains once every kernel launched before it has.
            Waiting::Synchronize => in_flight
                .iter()
                .all(|h| h.device() != gpu || h.is_terminal()),
            Waiting::Collective(_) => false,
        };
        let done = || {
            let mut waiting = self.gpus.iter().zip(waits);
            waiting.any(|(&gpu, w)| w.as_ref().is_some_and(|w| can_end(gpu, w)))
        };
        match wait_or_deadlock(in_flight, &domain.engines(), &done) {
            DeadlockOutcome::AllCompleted => None,
            DeadlockOutcome::Deadlock { unfinished } => Some(unfinished),
        }
    }

    /// Wait until every GPU arrives; `false` once the run has stopped.
    fn gate(&self) -> bool {
        let mut st = self.lock();
        if st.stopped.is_some() {
            return false;
        }
        let round = st.round;
        st.arrived += 1;
        if st.arrived == self.gpus.len() {
            // The GPUs waiting here leave before any of them runs on.
            st.blocked -= st.arrived - 1;
            st.generation += 1;
            st.arrived = 0;
            st.round += 1;
            self.cv.notify_all();
            return true;
        }
        st.blocked += 1;
        while st.round == round && st.stopped.is_none() {
            st = self.park(st);
        }
        st.round != round
    }

    /// GPU `gpu`'s thread: every iteration between two gates, timed.
    fn gpu_loop(&self, gpu: usize, body: &dyn Fn(&Iteration<'_>)) -> Vec<Duration> {
        let _stop = StopOnPanic(self, gpu);
        let mut times = Vec::with_capacity(self.iterations);
        for iteration in 0..self.iterations {
            if !self.gate() {
                break;
            }
            let start = Instant::now();
            body(&Iteration {
                gpu,
                iteration,
                run: self,
            });
            times.push(start.elapsed());
            if !self.gate() {
                break;
            }
        }
        self.lock().blocked += 1;
        times
    }
}

/// Stops the run when its GPU's thread unwinds.
struct StopOnPanic<'a>(&'a Shared, usize);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().stopped.get_or_insert(Stop::Panicked(self.1));
            self.0.cv.notify_all();
        }
    }
}

impl Run<'_> {
    /// Run `body` on every GPU for every iteration, then hand the DFCCL
    /// ranks to `read` before they are torn down (none on the baseline).
    /// Returns each iteration's time on its slowest GPU with what `read`
    /// returned, or the baseline's deadlock: what each unfinished kernel
    /// waits on. A DFCCL wedge panics.
    pub fn drive<R>(
        self,
        body: impl Fn(&Iteration<'_>) + Sync,
        read: impl FnOnce(&[&RankCtx]) -> R,
    ) -> Result<(Vec<Duration>, R), Vec<String>> {
        let (gpus, iterations) = (self.gpus, self.iterations);
        let spec = GpuSpec::rtx_3090();
        let (members, baseline): (Vec<Member>, _) = match self.backend {
            BackendKind::Dfccl => {
                let domain = DfcclDomain::new(self.topology, self.links, spec, self.config);
                let rank = |&g| Member::Dfccl(domain.init_rank(g).expect("rank init"));
                (gpus.iter().map(rank).collect(), None)
            }
            BackendKind::NcclOrchestrated(kind) => {
                let chunk = self.config.chunk_elems;
                let domain = NcclDomain::new(self.topology, self.links, spec, chunk);
                let init = |g| domain.init_rank(g).expect("rank init");
                let rank = |&g| Member::Nccl(init(g), build_strategy(kind));
                (gpus.iter().map(rank).collect(), Some(domain))
            }
        };
        for (coll_id, desc) in &self.collectives {
            for gpu in &desc.devices {
                let at = gpus.iter().position(|g| g == gpu);
                match &members[at.expect("a GPU of the run")] {
                    Member::Dfccl(r) => r.register(*coll_id, desc.clone()).expect("register"),
                    Member::Nccl(r, _) => r.register(*coll_id, desc.clone()).expect("register"),
                }
            }
        }
        let run = Shared {
            gpus: gpus.to_vec(),
            members,
            collectives: self.collectives.into_iter().collect(),
            iterations,
            baseline,
            state: Mutex::new(GateState {
                waits: vec![None; gpus.len()],
                ..GateState::default()
            }),
            cv: Condvar::new(),
        };
        let per_gpu: Vec<_> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..gpus.len())
                .map(|gpu| {
                    let (run, body) = (&run, &body);
                    s.spawn(move || run.gpu_loop(gpu, body))
                })
                .collect();
            threads.into_iter().map(|t| t.join()).collect()
        });
        // Dropping the members while this unwinds only asks their ranks to
        // leave: a wedged collective would keep a `destroy` waiting. The
        // baseline's engines shut down as the run drops.
        let stopped = run.lock().stopped.take();
        let per_gpu: Vec<Vec<Duration>> = match stopped {
            None => per_gpu
                .into_iter()
                .map(|times| times.expect("a GPU that panics stops the run"))
                .collect(),
            Some(Stop::Panicked(gpu)) => {
                let panicked = per_gpu.into_iter().nth(gpu).and_then(Result::err);
                std::panic::resume_unwind(panicked.expect("the GPU that stopped the run panicked"))
            }
            Some(Stop::Wedged(why)) => panic!("{why}"),
            Some(Stop::Deadlock(unfinished)) => return Err(unfinished),
        };
        let ranks = run.ranks();
        for rank in &ranks {
            let (gpu, errors) = (rank.gpu(), rank.collective_errors());
            assert!(
                errors.is_empty(),
                "{gpu} recorded collective errors: {errors:?}"
            );
        }
        let read = read(&ranks);
        for rank in ranks {
            rank.destroy();
        }
        let slowest = |i: usize| per_gpu.iter().map(|t| t[i]).max().unwrap_or_default();
        Ok(((0..iterations).map(slowest).collect(), read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfccl_baseline::StrategyKind;
    use dfccl_collectives::{DataType, ReduceOp};
    use std::panic::AssertUnwindSafe;
    use std::sync::mpsc::RecvTimeoutError;

    const BASELINE: BackendKind = BackendKind::NcclOrchestrated(StrategyKind::OneFlowStaticSort);

    /// Three GPUs running collectives 0 and 1, two all-reduces over all of
    /// them, for `iterations` iterations.
    fn two_all_reduces(backend: BackendKind, gpus: &[GpuId], iterations: usize) -> Run<'_> {
        let desc =
            CollectiveDescriptor::all_reduce(64, DataType::F32, ReduceOp::Sum, gpus.to_vec());
        Run {
            backend,
            gpus,
            topology: Topology::flat(gpus.len()),
            links: LinkModel::zero_cost(),
            config: DfcclConfig::for_testing(),
            collectives: vec![(0, desc.clone()), (1, desc)],
            iterations,
        }
    }

    /// Every GPU submits collectives 0 and 1, but for those `skip(gpu,
    /// iteration, id)` names, then waits for them.
    fn body(it: &Iteration<'_>, skip: impl Fn(usize, usize, u64) -> bool) {
        let submitted: Vec<_> = [0, 1]
            .into_iter()
            .filter(|&id| !skip(it.gpu, it.iteration, id))
            .map(|id| it.submit(id, StreamId(1)))
            .collect();
        for s in submitted {
            it.wait(s);
        }
    }

    /// Run `test` on a helper thread, failing if it does not end: the
    /// harness's hang guard, not a verdict.
    fn guarded(test: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            test();
            tx.send(()).unwrap();
        });
        // A test that fails drops `tx` as it unwinds.
        if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(60)) {
            panic!("the run hung");
        }
        if let Err(failure) = helper.join() {
            std::panic::resume_unwind(failure);
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        let message = payload.downcast_ref::<&str>().map(|s| s.to_string());
        message
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn a_panicking_gpu_fails_the_run_instead_of_hanging_it() {
        for backend in [BackendKind::Dfccl, BASELINE] {
            guarded(move || {
                let gpus: Vec<GpuId> = (0..3).map(GpuId).collect();
                let run = Run {
                    collectives: Vec::new(),
                    ..two_all_reduces(backend, &gpus, 3)
                };
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    run.drive(
                        |it| {
                            if (it.gpu, it.iteration) == (1, 0) {
                                panic!("gpu 1 gives up in iteration 0");
                            }
                        },
                        |_| (),
                    )
                }));
                let message = panic_message(outcome.expect_err("the run must fail"));
                assert_eq!(message, "gpu 1 gives up in iteration 0", "{backend}");
            });
        }
    }

    #[test]
    fn a_gpu_that_skips_a_collective_wedges_dfccl_by_name() {
        guarded(|| {
            let gpus: Vec<GpuId> = (0..3).map(GpuId).collect();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                two_all_reduces(BackendKind::Dfccl, &gpus, 2).drive(
                    |it| body(it, |gpu, iteration, id| (gpu, iteration, id) == (1, 0, 1)),
                    |_| (),
                )
            }));
            let message = panic_message(outcome.expect_err("the run must wedge"));
            assert!(
                message.starts_with("gpu 1 iteration 0: collective 1 never came"),
                "{message}"
            );
            assert!(message.contains("missing: coll 1 on gpu1"), "{message}");
        });
    }

    #[test]
    fn a_gpu_that_skips_a_collective_deadlocks_the_baseline_by_name() {
        guarded(|| {
            let gpus: Vec<GpuId> = (0..3).map(GpuId).collect();
            let outcome = two_all_reduces(BASELINE, &gpus, 2).drive(
                |it| body(it, |gpu, iteration, id| (gpu, iteration, id) == (1, 0, 1)),
                |_| (),
            );
            let mut unfinished = outcome.expect_err("the run must deadlock");
            unfinished.sort();
            // Collective 1's kernels on GPUs 0 and 2 wait on GPU 1.
            assert_eq!(unfinished.len(), 2, "{unfinished:?}");
            for (line, gpu) in unfinished.iter().zip(["gpu0", "gpu2"]) {
                assert!(line.contains(&format!("on {gpu} waits on")), "{line}");
            }
        });
    }

    #[test]
    fn a_late_gpu_is_waited_for_without_a_verdict() {
        for backend in [BackendKind::Dfccl, BASELINE] {
            guarded(move || {
                let gpus: Vec<GpuId> = (0..3).map(GpuId).collect();
                let outcome = two_all_reduces(backend, &gpus, 2).drive(
                    |it| {
                        if (it.gpu, it.iteration) == (1, 0) {
                            std::thread::sleep(Duration::from_millis(200));
                        }
                        body(it, |_, _, _| false);
                    },
                    |ranks| ranks.len(),
                );
                let (times, ranks) = outcome.expect("a late GPU is no deadlock");
                assert_eq!(times.len(), 2);
                assert!(times[0] >= Duration::from_millis(200), "{times:?}");
                let dfccl = backend == BackendKind::Dfccl;
                assert_eq!(ranks, if dfccl { 3 } else { 0 });
            });
        }
    }
}
