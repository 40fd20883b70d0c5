//! The one per-GPU training loop: both workloads run on both stacks
//! through it.
//!
//! [`Run::drive`] builds the domain — DFCCL's, or the NCCL-like baseline's
//! with one orchestration strategy per GPU — registers every collective on
//! each GPU of its device set, and runs one thread per GPU. Each iteration
//! starts at a barrier and runs the workload's body, timed; the run keeps
//! the slowest GPU of each iteration, checks that no DFCCL collective
//! recorded an error, and tears the domain down. A body reaches the stack
//! only through its [`Iteration`], so no workload branches on it. A GPU
//! thread that panics breaks the barrier: the other GPUs stop at it and the
//! run re-raises the first panic instead of hanging.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dfccl::{CompletionHandle, DfcclConfig, DfcclDomain, RankCtx};
use dfccl_baseline::orchestration::{build_strategy, OrchestrationStrategy};
use dfccl_baseline::{NcclDomain, NcclRank};
use dfccl_collectives::{CollectiveDescriptor, DeviceBuffer};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{busy_spin, GpuId, GpuSpec, KernelHandle, KernelStatus, StreamId};
use rand::Rng;

use crate::trainer::BackendKind;

/// How long one wait may take before the run fails as wedged.
const WAIT_BOUND: Duration = Duration::from_secs(60);

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

/// One training run, short of its per-iteration body.
pub(crate) struct Run<'a> {
    pub backend: BackendKind,
    pub gpus: &'a [GpuId],
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
pub(crate) struct Submission {
    coll_id: u64,
    handle: Handle,
}

enum Handle {
    Dfccl(CompletionHandle),
    Nccl(KernelHandle),
}

/// One GPU's view of one iteration: the only way a body reaches the stack.
pub(crate) struct Iteration<'a> {
    /// This GPU's index in the run's `gpus`.
    pub gpu: usize,
    pub iteration: usize,
    member: &'a Member,
    gpus: &'a [GpuId],
    collectives: &'a HashMap<u64, CollectiveDescriptor>,
}

impl Iteration<'_> {
    /// Simulated compute on this GPU.
    pub fn compute(&self, duration: Duration) {
        busy_spin(duration);
    }

    /// The order this GPU submits `ready` in: DFCCL takes `jittered()`; the
    /// baseline takes its strategy's imposed order, the same on every GPU,
    /// and pays the strategy's coordination cost.
    pub fn order(&self, ready: &[u64], jittered: impl FnOnce() -> Vec<u64>) -> Vec<u64> {
        match self.member {
            Member::Dfccl(_) => jittered(),
            Member::Nccl(_, strategy) => {
                let imposed = strategy.imposed_order(ready);
                let (n, iteration) = (self.gpus.len(), self.iteration as u64);
                busy_spin(strategy.iteration_overhead(ready.len(), n, iteration));
                imposed
            }
        }
    }

    /// Submit `coll_id` with zeroed buffers sized for this GPU; the baseline
    /// launches its kernel on `stream`.
    pub fn submit(&self, coll_id: u64, stream: StreamId) -> Submission {
        let desc = &self.collectives[&coll_id];
        let gpu = self.gpus[self.gpu];
        let rank = desc.devices.iter().position(|&d| d == gpu);
        let rank = rank.expect("a GPU submits only its own collectives");
        let send = DeviceBuffer::zeroed(desc.send_bytes(rank));
        let recv = DeviceBuffer::zeroed(desc.recv_bytes(rank).max(4));
        let handle = match self.member {
            Member::Dfccl(r) => r
                .run_awaitable(coll_id, send, recv)
                .map(Handle::Dfccl)
                .map_err(|e| e.to_string()),
            Member::Nccl(r, _) => r
                .launch_collective(coll_id, stream, send, recv)
                .map(Handle::Nccl)
                .map_err(|e| e.to_string()),
        };
        let handle = handle.unwrap_or_else(|e| self.fail(coll_id, &format!("was refused: {e}")));
        Submission { coll_id, handle }
    }

    /// Wait for `submission`, at most [`WAIT_BOUND`]: a collective that
    /// wedges or fails fails the run.
    pub fn wait(&self, submission: Submission) {
        let since = Instant::now();
        let verdict = match &submission.handle {
            Handle::Dfccl(h) if h.wait_for_timeout(1, WAIT_BOUND) => return,
            Handle::Dfccl(_) => "wedged".to_string(),
            Handle::Nccl(h) => match h.wait_timeout(WAIT_BOUND) {
                KernelStatus::Completed => return,
                status => format!("ended {status:?}"),
            },
        };
        // How long the wait ran, and how often the rank preempted, read a
        // slow drain apart from a true deadlock.
        let mut why = format!("{verdict} after {:.1?}", since.elapsed());
        if let Member::Dfccl(rank) = self.member {
            why += &format!(" ({} preemptions on this rank)", rank.stats().preemptions);
        }
        self.fail(submission.coll_id, &why)
    }

    fn fail(&self, coll_id: u64, why: &str) -> ! {
        let (gpu, iteration) = (self.gpu, self.iteration);
        panic!("gpu {gpu} iteration {iteration}: collective {coll_id} {why}")
    }
}

impl Run<'_> {
    /// Run `body` on every GPU for every iteration; returns each
    /// iteration's time on its slowest GPU.
    pub fn drive(self, body: impl Fn(&Iteration<'_>) + Sync) -> Vec<Duration> {
        let (gpus, iterations) = (self.gpus, self.iterations);
        let topology = Topology::flat(gpus.len());
        let spec = GpuSpec::rtx_3090();
        let (members, baseline): (Vec<Member>, _) = match self.backend {
            BackendKind::Dfccl => {
                let domain = DfcclDomain::new(topology, self.links, spec, self.config);
                let rank = |&g| Member::Dfccl(domain.init_rank(g).expect("rank init"));
                (gpus.iter().map(rank).collect(), None)
            }
            BackendKind::NcclOrchestrated(kind) => {
                let chunk = self.config.chunk_elems;
                let domain = NcclDomain::new(topology, self.links, spec, chunk);
                let rank = |&g| {
                    Member::Nccl(
                        domain.init_rank(g).expect("rank init"),
                        build_strategy(kind),
                    )
                };
                (gpus.iter().map(rank).collect(), Some(domain))
            }
        };
        for (coll_id, desc) in &self.collectives {
            for gpu in &desc.devices {
                let at = gpus
                    .iter()
                    .position(|g| g == gpu)
                    .expect("a GPU of the run");
                match &members[at] {
                    Member::Dfccl(r) => r.register(*coll_id, desc.clone()).expect("register"),
                    Member::Nccl(r, _) => r.register(*coll_id, desc.clone()).expect("register"),
                }
            }
        }
        let collectives: HashMap<_, _> = self.collectives.into_iter().collect();
        let gate = Gate::new(gpus.len());
        let per_gpu: Vec<_> = std::thread::scope(|s| {
            let threads: Vec<_> = members
                .iter()
                .enumerate()
                .map(|(gpu, member)| {
                    let (gate, body, collectives) = (&gate, &body, &collectives);
                    s.spawn(move || {
                        let _break = BreakOnPanic(gate, gpu);
                        let mut times = Vec::with_capacity(iterations);
                        for iteration in 0..iterations {
                            if !gate.wait() {
                                break;
                            }
                            let start = Instant::now();
                            body(&Iteration {
                                gpu,
                                iteration,
                                member,
                                gpus,
                                collectives,
                            });
                            times.push(start.elapsed());
                            if !gate.wait() {
                                break;
                            }
                        }
                        times
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join()).collect()
        });
        if let Some(gpu) = gate.lock().broken_by {
            // Dropping the members while this unwinds only asks their ranks
            // to leave: a wedged collective would keep a `destroy` waiting.
            let panicked = per_gpu.into_iter().nth(gpu).and_then(Result::err);
            std::panic::resume_unwind(panicked.expect("the GPU that broke the gate panicked"));
        }
        let per_gpu: Vec<Vec<Duration>> = per_gpu
            .into_iter()
            .map(|times| times.expect("a GPU that panics breaks the gate"))
            .collect();
        for member in &members {
            if let Member::Dfccl(rank) = member {
                let (gpu, errors) = (rank.gpu(), rank.collective_errors());
                assert!(
                    errors.is_empty(),
                    "{gpu} recorded collective errors: {errors:?}"
                );
                rank.destroy();
            }
        }
        if let Some(domain) = baseline {
            domain.shutdown();
        }
        let slowest = |i: usize| per_gpu.iter().map(|t| t[i]).max().unwrap_or_default();
        (0..iterations).map(slowest).collect()
    }
}

/// The driver's barrier, which a panicking GPU breaks so that no other GPU
/// waits for it forever.
struct Gate {
    gpus: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    arrived: usize,
    round: u64,
    /// The GPU whose panic broke the gate first.
    broken_by: Option<usize>,
}

impl Gate {
    fn new(gpus: usize) -> Self {
        Gate {
            gpus,
            state: Mutex::default(),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait until every GPU arrives; `false` once the gate is broken.
    fn wait(&self) -> bool {
        let mut st = self.lock();
        if st.broken_by.is_some() {
            return false;
        }
        let round = st.round;
        st.arrived += 1;
        if st.arrived == self.gpus {
            st.arrived = 0;
            st.round += 1;
            self.cv.notify_all();
            return true;
        }
        while st.round == round && st.broken_by.is_none() {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.round != round
    }
}

/// Breaks the gate when its GPU's thread unwinds.
struct BreakOnPanic<'a>(&'a Gate, usize);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().broken_by.get_or_insert(self.1);
            self.0.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfccl_baseline::StrategyKind;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn a_panicking_gpu_fails_the_run_instead_of_hanging_it() {
        let baseline = BackendKind::NcclOrchestrated(StrategyKind::OneFlowStaticSort);
        for backend in [BackendKind::Dfccl, baseline] {
            let (tx, rx) = std::sync::mpsc::channel();
            let helper = std::thread::spawn(move || {
                let gpus: Vec<GpuId> = (0..3).map(GpuId).collect();
                let run = Run {
                    backend,
                    gpus: &gpus,
                    links: LinkModel::zero_cost(),
                    config: DfcclConfig::for_testing(),
                    collectives: Vec::new(),
                    iterations: 3,
                };
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    run.drive(|it| {
                        if (it.gpu, it.iteration) == (1, 0) {
                            panic!("gpu 1 gives up in iteration 0");
                        }
                    })
                }));
                let payload = outcome.expect_err("the run must fail");
                let message = payload.downcast_ref::<&str>().map(|s| s.to_string());
                tx.send(message).unwrap();
            });
            let message = rx.recv_timeout(Duration::from_secs(30));
            let message = message.unwrap_or_else(|_| panic!("{backend}: the run hung"));
            assert_eq!(message.as_deref(), Some("gpu 1 gives up in iteration 0"));
            helper.join().unwrap();
        }
    }
}
