//! The device launch engine: CUDA-style kernel dispatch, driven by steps.
//!
//! Semantics modelled here (the ones the deadlock analysis of Sec. 2.3 relies on):
//!
//! * **Per-stream FIFO** — a kernel starts only at the head of its stream,
//!   once the stream's previous kernel has finished.
//! * **Bounded concurrency** — a kernel starts only if the device can grant a
//!   residency slot ([`crate::GpuDevice::try_acquire_residency`]); otherwise it
//!   waits while *holding its queue position* (hold-and-wait).
//! * **Synchronization barriers** — a barrier
//!   ([`DeviceEngine::synchronize_timeout`], the device's only
//!   synchronization) completes once every kernel launched before it has
//!   finished, and kernels launched *after* it do not start until then. A
//!   running kernel sees a pending barrier in [`KernelCtx::barrier_pending`];
//!   DFCCL's daemon quits voluntarily on it, the baseline's kernels cannot.
//! * **No preemption** — a started kernel keeps its slot until its poll
//!   returns [`KernelPoll::Ready`]; only teardown drops it, marked `Aborted`.
//!
//! The engine owns no thread: the threads that wait on it step it
//! ([`KernelHandle::wait`], `synchronize_timeout`, a watchdog), each step
//! try-locking the engine so no kernel is polled by two threads at once. On
//! a *carried* engine ([`DeviceEngine::carried`]) only its owner's threads
//! step it (DFCCL's carriers), and a waiter sleeps until its kernel or
//! barrier settles. A step that has nothing queued to start locks only the
//! running kernels, and a fruitless poll allocates nothing. A sweep in
//! which nothing starts, moves or retires and no link refuses a send leaves
//! every engine as it found it; unless a thread launches more work, every
//! later sweep is the same, so it decides a deadlock.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::device::{GpuDevice, GpuId, ResidencyGuard};
use crate::kernel::{
    EdgeWait, Kernel, KernelCtx, KernelHandle, KernelOutcome, KernelPoll, KernelShared,
    KernelStatus, WaitSide,
};
use crate::stream::StreamId;
use crate::GpuError;

/// Errors returned by kernel launches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The engine has been shut down.
    Shutdown,
    /// The kernel's static requirements can never be satisfied on this device.
    Unsatisfiable(GpuError),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Shutdown => write!(f, "device engine has been shut down"),
            LaunchError::Unsatisfiable(e) => write!(f, "launch can never succeed: {e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// What one [`DeviceEngine::step`], or a sweep of several, did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Kernels started, each on a fresh residency slot.
    pub started: usize,
    /// Polls in which a running kernel did work.
    pub moved: usize,
    /// Kernels retired, freeing their slot, stream and barriers.
    pub retired: usize,
    /// Polls in which a kernel waited on a named edge.
    pub waiting: usize,
    /// Polls in which a kernel waited on a link that refused its send.
    pub refused: usize,
    /// Engines skipped because another thread was stepping them.
    pub busy: usize,
}

impl StepReport {
    /// Whether a kernel started, moved or retired.
    pub fn progressed(&self) -> bool {
        self.started + self.moved + self.retired > 0
    }

    /// Whether the step changed nothing and can change nothing by being
    /// repeated: no progress, no refused send, and no engine skipped.
    pub fn is_quiet(&self) -> bool {
        !self.progressed() && self.refused + self.busy == 0
    }
}

impl std::ops::AddAssign for StepReport {
    fn add_assign(&mut self, other: StepReport) {
        self.started += other.started;
        self.moved += other.moved;
        self.retired += other.retired;
        self.waiting += other.waiting;
        self.refused += other.refused;
        self.busy += other.busy;
    }
}

/// What an unfinished kernel waits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockedOn {
    /// Queued behind an earlier kernel of its stream.
    StreamHead,
    /// Launched after a synchronization barrier that has not drained.
    Barrier,
    /// At its stream's head, but the device has no residency slot to give.
    Residency,
    /// Running: its lane heads wait on these edges, as of its last poll.
    Edges(Vec<EdgeWait>),
}

impl std::fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockedOn::StreamHead => write!(f, "its stream head"),
            BlockedOn::Barrier => write!(f, "a synchronization barrier"),
            BlockedOn::Residency => write!(f, "a residency slot"),
            BlockedOn::Edges(edges) if edges.is_empty() => write!(f, "no named edge"),
            BlockedOn::Edges(edges) => {
                let edges: Vec<String> = edges.iter().map(ToString::to_string).collect();
                write!(f, "{}", edges.join(", "))
            }
        }
    }
}

struct QueuedKernel {
    seq: u64,
    kernel: Box<dyn Kernel>,
    shared: Arc<KernelShared>,
}

struct RunningKernel {
    seq: u64,
    stream: StreamId,
    kernel: Box<dyn Kernel>,
    shared: Arc<KernelShared>,
    /// The edges its last poll waited on.
    waits: Vec<EdgeWait>,
    _slot: ResidencyGuard,
}

#[derive(Default)]
struct Queues {
    next_seq: u64,
    streams: BTreeMap<StreamId, VecDeque<QueuedKernel>>,
    /// Streams with a running kernel: the next one starts after it retires.
    busy_streams: BTreeSet<StreamId>,
    /// Launched (queued or running) kernels that have not finished yet.
    incomplete: BTreeSet<u64>,
    /// Sequence numbers of barriers that have not drained.
    barriers: Vec<u64>,
    shutdown: bool,
}

impl Queues {
    /// A barrier with sequence number `barrier` has drained when no
    /// unfinished kernel was launched before it.
    fn barrier_satisfied(&self, barrier: u64) -> bool {
        self.incomplete
            .first()
            .is_none_or(|&oldest| oldest >= barrier)
    }

    /// Whether kernel `seq` may start with respect to the pending barriers.
    fn allowed_by_barriers(&self, seq: u64) -> bool {
        self.barriers
            .iter()
            .all(|&b| b > seq || self.barrier_satisfied(b))
    }

    /// Forget a finished kernel and the barriers that waited only for it.
    /// Returns the oldest barrier still pending, or [`NO_BARRIER`].
    fn retire(&mut self, seq: u64, stream: StreamId) -> u64 {
        self.incomplete.remove(&seq);
        self.busy_streams.remove(&stream);
        let oldest = self.incomplete.first().copied();
        self.barriers.retain(|&b| oldest.is_some_and(|o| o < b));
        self.barriers.first().copied().unwrap_or(NO_BARRIER)
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

/// `EngineCore::oldest_barrier` when no barrier is pending.
const NO_BARRIER: u64 = u64::MAX;

pub(crate) struct EngineCore {
    device: Arc<GpuDevice>,
    queues: Mutex<Queues>,
    /// Kernels launched and not started yet: a step with none skips
    /// `start_eligible` and its lock.
    queued: AtomicUsize,
    /// Mirrors `queues.barriers.first()` ([`NO_BARRIER`] when empty), stored
    /// under the queue lock: barriers drain in issue order, so barrier `b`
    /// has drained once this exceeds `b`. Read without a lock by the step's
    /// `KernelCtx` and by a waiter.
    oldest_barrier: AtomicU64,
    /// The started kernels. Its lock is the step lock: a step try-locks it.
    running: Mutex<Vec<RunningKernel>>,
}

impl EngineCore {
    fn step(&self) -> StepReport {
        let mut report = StepReport::default();
        let Some(mut running) = self.running.try_lock() else {
            report.busy = 1;
            return report;
        };
        if self.queued.load(Ordering::Acquire) > 0 {
            self.start_eligible(&mut running, &mut report);
        }
        let barrier_pending = self.oldest_barrier.load(Ordering::Acquire) != NO_BARRIER;
        running.retain_mut(|k| {
            let ctx = KernelCtx {
                device: self.device.id(),
                seq: k.seq,
                barrier_pending,
            };
            let outcome = match k.kernel.poll(&ctx) {
                KernelPoll::Ready(outcome) => outcome,
                KernelPoll::Moved => {
                    report.moved += 1;
                    return true;
                }
                KernelPoll::Pending(waits) => {
                    if !waits.is_empty() {
                        report.waiting += 1;
                    }
                    if waits.iter().any(|w| w.side == WaitSide::Refused) {
                        report.refused += 1;
                    }
                    k.waits.clear();
                    k.waits.extend_from_slice(waits);
                    return true;
                }
            };
            let mut q = self.queues.lock();
            let oldest = q.retire(k.seq, k.stream);
            // Under the lock, so a barrier issued meanwhile is not lost.
            self.oldest_barrier.store(oldest, Ordering::Release);
            drop(q);
            k.shared.set_status(match outcome {
                KernelOutcome::Completed => KernelStatus::Completed,
                KernelOutcome::Failed(e) => KernelStatus::Failed(e),
            });
            report.retired += 1;
            false
        });
        report
    }

    /// Start every stream head that the FIFO, barrier and residency rules
    /// allow, earliest launch first: CUDA's scheduler dispatches roughly in
    /// issue order as resources free up, which is what makes the
    /// resource-depletion disorder of Fig. 1(c) deadlock.
    fn start_eligible(&self, running: &mut Vec<RunningKernel>, report: &mut StepReport) {
        let mut q = self.queues.lock();
        let mut heads: Vec<(u64, StreamId)> = q
            .streams
            .iter()
            .filter(|(sid, _)| !q.busy_streams.contains(sid))
            .filter_map(|(&sid, queue)| Some((queue.front()?.seq, sid)))
            .filter(|&(seq, _)| q.allowed_by_barriers(seq))
            .collect();
        heads.sort_unstable();
        for (_, sid) in heads {
            let queue = q.streams.get_mut(&sid).expect("an eligible head's stream");
            let head = &queue[0].kernel;
            let Ok(slot) = self
                .device
                .try_acquire_residency(head.grid_blocks(), head.shared_mem_per_block())
            else {
                continue;
            };
            let k = queue.pop_front().expect("an eligible head is queued");
            self.queued.fetch_sub(1, Ordering::AcqRel);
            q.busy_streams.insert(sid);
            k.shared.set_status(KernelStatus::Running);
            running.push(RunningKernel {
                seq: k.seq,
                stream: sid,
                kernel: k.kernel,
                shared: k.shared,
                waits: Vec::new(),
                _slot: slot,
            });
            report.started += 1;
        }
    }

    /// Whether barrier `barrier`, issued here, has drained.
    fn drained(&self, barrier: u64) -> bool {
        self.oldest_barrier.load(Ordering::Acquire) > barrier
    }
}

/// The engines of one [`DeviceEngine::group`] or [`DeviceEngine::carried`]
/// call: a wait on one of them steps them all, unless they are carried.
pub(crate) struct StepGroup {
    engines: Vec<Arc<EngineCore>>,
    /// Threads of the engines' owner step them: a waiter steps nothing.
    carried: bool,
}

impl StepGroup {
    /// Wait until `done()` or `deadline` (`None`: forever); returns whether
    /// `done()` holds. Steps every engine of the group between reads,
    /// yielding when a sweep moved nothing; on carried engines it sleeps
    /// instead, woken on `device` whenever a kernel there retires or is
    /// dropped. `done` must read no engine lock.
    pub(crate) fn wait_until(
        &self,
        device: GpuId,
        done: impl Fn() -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        if self.carried {
            let core = self.engines.iter().find(|e| e.device.id() == device);
            let core = core.expect("a kernel's device is in its step group");
            return !core.device.wait_while(|| !done(), deadline);
        }
        loop {
            if done() {
                return true;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            let mut sweep = StepReport::default();
            for e in &self.engines {
                sweep += e.step();
            }
            if !sweep.progressed() {
                std::thread::yield_now();
            }
        }
    }
}

/// A per-device kernel dispatch engine.
pub struct DeviceEngine {
    core: Arc<EngineCore>,
    group: Arc<StepGroup>,
}

impl DeviceEngine {
    /// An engine for `device`, alone in its step group.
    pub fn new(device: Arc<GpuDevice>) -> Arc<Self> {
        Self::group([device])
            .pop()
            .expect("one device makes one engine")
    }

    /// One engine per device, all in one step group: waiting on any of them
    /// steps them all, in the order given.
    pub fn group(devices: impl IntoIterator<Item = Arc<GpuDevice>>) -> Vec<Arc<Self>> {
        Self::build(devices, false)
    }

    /// One engine per device, stepped by threads the caller runs (DFCCL's
    /// carriers). A [`KernelHandle::wait`] or `synchronize_timeout` on one
    /// steps nothing: it sleeps until the kernel or barrier settles, which
    /// only a step from those threads, or teardown, brings about.
    pub fn carried(devices: impl IntoIterator<Item = Arc<GpuDevice>>) -> Vec<Arc<Self>> {
        Self::build(devices, true)
    }

    fn build(devices: impl IntoIterator<Item = Arc<GpuDevice>>, carried: bool) -> Vec<Arc<Self>> {
        let cores: Vec<Arc<EngineCore>> = devices
            .into_iter()
            .map(|device| {
                Arc::new(EngineCore {
                    device,
                    queues: Mutex::new(Queues::default()),
                    queued: AtomicUsize::new(0),
                    oldest_barrier: AtomicU64::new(NO_BARRIER),
                    running: Mutex::new(Vec::new()),
                })
            })
            .collect();
        let group = Arc::new(StepGroup {
            engines: cores.clone(),
            carried,
        });
        cores
            .into_iter()
            .map(|core| {
                Arc::new(DeviceEngine {
                    core,
                    group: Arc::clone(&group),
                })
            })
            .collect()
    }

    /// The device this engine drives.
    pub fn device(&self) -> &Arc<GpuDevice> {
        &self.core.device
    }

    /// Launch `kernel` on `stream`. Returns a handle for status observation.
    /// The kernel starts in a later step.
    pub fn launch(
        &self,
        stream: StreamId,
        kernel: Box<dyn Kernel>,
    ) -> Result<KernelHandle, LaunchError> {
        let limit = self.core.device.spec().shared_mem_per_block;
        if kernel.shared_mem_per_block() > limit {
            return Err(LaunchError::Unsatisfiable(GpuError::OutOfSharedMemory {
                requested: kernel.shared_mem_per_block(),
                available: limit,
            }));
        }
        let shared = KernelShared::new();
        let name: Arc<str> = Arc::from(kernel.name());
        let mut q = self.core.queues.lock();
        if q.shutdown {
            return Err(LaunchError::Shutdown);
        }
        let seq = q.take_seq();
        q.incomplete.insert(seq);
        self.core.queued.fetch_add(1, Ordering::AcqRel);
        q.streams
            .entry(stream)
            .or_default()
            .push_back(QueuedKernel {
                seq,
                kernel,
                shared: Arc::clone(&shared),
            });
        Ok(KernelHandle {
            shared,
            seq,
            name,
            device: self.core.device.id(),
            group: Arc::clone(&self.group),
        })
    }

    /// Issue a device-wide synchronization barrier and wait until every
    /// kernel launched before it has finished, or until `timeout` elapses
    /// (`None` waits forever): step the group, or, on a carried engine,
    /// sleep. Returns whether it drained. A barrier that times out stays in
    /// force: later kernels still wait for it, as they would behind a real
    /// `cudaDeviceSynchronize()` that never returns. With a zero timeout the
    /// barrier is issued without stepping.
    pub fn synchronize_timeout(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|t| Instant::now() + t);
        let barrier = {
            let mut q = self.core.queues.lock();
            let seq = q.take_seq();
            if !q.barrier_satisfied(seq) {
                q.barriers.push(seq);
                self.core.oldest_barrier.fetch_min(seq, Ordering::AcqRel);
            }
            seq
        };
        let device = self.core.device.id();
        self.group
            .wait_until(device, || self.core.drained(barrier), deadline)
    }

    /// Make one pass over this engine: start the eligible stream heads, then
    /// poll each running kernel once and retire the finished ones. Reports
    /// `busy` without doing anything when another thread is stepping it.
    pub fn step(&self) -> StepReport {
        self.core.step()
    }

    /// What the unfinished kernel `seq` waits on, or `None` when no such
    /// kernel is queued or running here. Blocks while another thread steps
    /// this engine.
    pub fn blocked_on(&self, seq: u64) -> Option<BlockedOn> {
        let running = self.core.running.lock();
        if let Some(k) = running.iter().find(|k| k.seq == seq) {
            return Some(BlockedOn::Edges(k.waits.clone()));
        }
        let q = self.core.queues.lock();
        q.streams.iter().find_map(|(sid, queue)| {
            let pos = queue.iter().position(|k| k.seq == seq)?;
            Some(if pos > 0 || q.busy_streams.contains(sid) {
                BlockedOn::StreamHead
            } else if !q.allowed_by_barriers(seq) {
                BlockedOn::Barrier
            } else {
                BlockedOn::Residency
            })
        })
    }

    /// Run `f` on the running kernel `seq`, between two steps, or return
    /// `None` when no such kernel is running here. Blocks while another
    /// thread steps this engine. A test that steps the engine itself reaches
    /// a kernel's state through it, downcasting the `dyn Kernel` (`Any`).
    pub fn with_running<R>(&self, seq: u64, f: impl FnOnce(&mut dyn Kernel) -> R) -> Option<R> {
        let mut running = self.core.running.lock();
        let k = running.iter_mut().find(|k| k.seq == seq)?;
        Some(f(k.kernel.as_mut()))
    }

    /// Drop every queued and running kernel, marked `Aborted`, releasing
    /// their residency slots and every barrier, and wake whoever sleeps on
    /// them. Used by the deadlock watchdog to tear down deadlocked scenarios.
    pub fn abort_all(&self) {
        let running = std::mem::take(&mut *self.core.running.lock());
        let mut q = self.core.queues.lock();
        self.core.queued.store(0, Ordering::Release);
        self.core
            .oldest_barrier
            .store(NO_BARRIER, Ordering::Release);
        let queued = q.streams.values_mut().flat_map(|queue| queue.drain(..));
        for shared in queued
            .map(|k| k.shared)
            .chain(running.iter().map(|k| Arc::clone(&k.shared)))
        {
            shared.set_status(KernelStatus::Aborted);
        }
        q.incomplete.clear();
        q.busy_streams.clear();
        q.barriers.clear();
        drop(q);
        // A queued kernel frees no slot: nothing else wakes its waiter.
        self.core.device.wake_waiters();
    }

    /// Refuse further launches and drop outstanding work, as
    /// [`DeviceEngine::abort_all`] does.
    pub fn shutdown(&self) {
        self.core.queues.lock().shutdown = true;
        self.abort_all();
    }
}

impl Drop for DeviceEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{GpuId, GpuSpec};
    use crate::kernel::FnKernel;
    use crate::stream::DEFAULT_STREAM;

    fn engine_with_slots(slots: u32) -> Arc<DeviceEngine> {
        DeviceEngine::new(GpuDevice::new(GpuId(0), GpuSpec::tiny(slots)))
    }

    /// An engine whose waiters step nothing: the test steps it.
    fn carried_engine_with_slots(slots: u32) -> Arc<DeviceEngine> {
        let device = GpuDevice::new(GpuId(0), GpuSpec::tiny(slots));
        DeviceEngine::carried([device]).pop().unwrap()
    }

    /// Start and end marks of test kernels, in the order they happened.
    type Log = Arc<Mutex<Vec<(&'static str, bool)>>>;

    /// A kernel that finishes in its `polls`-th poll, logging its first and
    /// last poll.
    struct Busy {
        name: &'static str,
        polls: u32,
        started: bool,
        log: Log,
    }

    fn busy(name: &'static str, polls: u32, log: &Log) -> Box<dyn Kernel> {
        Box::new(Busy {
            name,
            polls,
            started: false,
            log: Arc::clone(log),
        })
    }

    impl Kernel for Busy {
        fn name(&self) -> String {
            self.name.to_string()
        }

        fn poll(&mut self, _ctx: &KernelCtx) -> KernelPoll<'_> {
            if !std::mem::replace(&mut self.started, true) {
                self.log.lock().push((self.name, true));
            }
            self.polls -= 1;
            if self.polls > 0 {
                return KernelPoll::Moved;
            }
            self.log.lock().push((self.name, false));
            KernelPoll::Ready(KernelOutcome::Completed)
        }
    }

    /// A kernel that never finishes: each poll waits on `0`.
    struct Never(Vec<EdgeWait>);

    impl Kernel for Never {
        fn name(&self) -> String {
            "never".to_string()
        }

        fn poll(&mut self, _ctx: &KernelCtx) -> KernelPoll<'_> {
            KernelPoll::Pending(&self.0)
        }
    }

    fn ends(log: &Log) -> Vec<&'static str> {
        log.lock()
            .iter()
            .filter(|(_, start)| !start)
            .map(|(name, _)| *name)
            .collect()
    }

    /// Most kernels running at once, from the start/end marks.
    fn peak(log: &Log) -> usize {
        let mut now = 0usize;
        let mut peak = 0;
        for &(_, start) in log.lock().iter() {
            if start {
                now += 1;
                peak = peak.max(now);
            } else {
                now -= 1;
            }
        }
        peak
    }

    #[test]
    fn kernels_on_one_stream_run_in_fifo_order() {
        // Later kernels need fewer polls: one started early would end early.
        let engine = engine_with_slots(4);
        let log = Log::default();
        let names = ["k0", "k1", "k2", "k3", "k4"];
        let handles: Vec<_> = (0..5)
            .map(|i| {
                let k = busy(names[i], 5 - i as u32, &log);
                engine.launch(DEFAULT_STREAM, k).unwrap()
            })
            .collect();
        for h in handles {
            assert_eq!(h.wait(), KernelStatus::Completed);
        }
        assert_eq!(ends(&log), names);
        assert_eq!(peak(&log), 1);
    }

    #[test]
    fn kernels_on_different_streams_run_concurrently() {
        let engine = engine_with_slots(2);
        let log = Log::default();
        let a = engine.launch(StreamId(1), busy("a", 3, &log)).unwrap();
        let b = engine.launch(StreamId(2), busy("b", 3, &log)).unwrap();
        assert_eq!(a.wait(), KernelStatus::Completed);
        assert_eq!(b.wait(), KernelStatus::Completed);
        assert_eq!(peak(&log), 2);
    }

    #[test]
    fn concurrency_is_bounded_by_residency_slots() {
        let engine = engine_with_slots(1);
        let log = Log::default();
        let handles: Vec<_> = ["a", "b", "c"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let k = busy(name, 3, &log);
                engine.launch(StreamId(i + 1), k).unwrap()
            })
            .collect();
        for h in handles {
            assert_eq!(h.wait(), KernelStatus::Completed);
        }
        assert_eq!(peak(&log), 1);
        assert_eq!(engine.device().resident_kernels(), 0);
    }

    #[test]
    fn synchronize_waits_for_prior_kernels() {
        let engine = engine_with_slots(2);
        let log = Log::default();
        let h = engine.launch(StreamId(1), busy("slow", 5, &log)).unwrap();
        assert!(engine.synchronize_timeout(None));
        assert_eq!(h.status(), KernelStatus::Completed);
    }

    #[test]
    fn kernels_after_barrier_wait_for_kernels_before_it() {
        let engine = engine_with_slots(4);
        let log = Log::default();
        let before = engine.launch(StreamId(1), busy("before", 3, &log)).unwrap();
        // Issue the barrier without stepping.
        assert!(!engine.synchronize_timeout(Some(Duration::ZERO)));
        let after = engine.launch(StreamId(2), busy("after", 1, &log)).unwrap();
        assert_eq!(after.wait(), KernelStatus::Completed);
        assert_eq!(before.status(), KernelStatus::Completed);
        assert_eq!(ends(&log), ["before", "after"]);
    }

    #[test]
    fn launch_rejects_impossible_shared_memory() {
        let engine = engine_with_slots(1);
        let dev_limit = engine.device().spec().shared_mem_per_block;
        let result = engine.launch(
            StreamId(1),
            Box::new(
                FnKernel::new("huge", |_| KernelOutcome::Completed).with_shared_mem(dev_limit + 1),
            ),
        );
        assert!(matches!(result, Err(LaunchError::Unsatisfiable(_))));
    }

    #[test]
    fn launch_after_shutdown_fails() {
        let engine = engine_with_slots(1);
        engine.shutdown();
        let result = engine.launch(
            StreamId(1),
            Box::new(FnKernel::new("late", |_| KernelOutcome::Completed)),
        );
        assert!(matches!(result, Err(LaunchError::Shutdown)));
    }

    #[test]
    fn synchronize_timeout_reports_unfinished_work() {
        let engine = engine_with_slots(1);
        let h = engine
            .launch(StreamId(1), Box::new(Never(Vec::new())))
            .unwrap();
        assert!(!engine.synchronize_timeout(Some(Duration::from_millis(50))));
        assert_eq!(
            h.wait_timeout(Duration::from_millis(10)),
            KernelStatus::Running
        );
        engine.abort_all();
        assert_eq!(h.status(), KernelStatus::Aborted);
    }

    #[test]
    fn abort_all_drops_running_and_queued_kernels() {
        let engine = engine_with_slots(1);
        let running = engine
            .launch(StreamId(1), Box::new(Never(Vec::new())))
            .unwrap();
        let queued = engine
            .launch(
                StreamId(1),
                Box::new(FnKernel::new("queued", |_| KernelOutcome::Completed)),
            )
            .unwrap();
        assert_eq!(engine.step().started, 1);
        assert_eq!(engine.device().resident_kernels(), 1);
        engine.abort_all();
        assert_eq!(running.status(), KernelStatus::Aborted);
        assert_eq!(queued.status(), KernelStatus::Aborted);
        assert_eq!(engine.device().resident_kernels(), 0);
    }

    #[test]
    fn a_quiet_step_leaves_every_kernel_naming_what_it_waits_on() {
        let engine = engine_with_slots(1);
        let edge = EdgeWait {
            peer: GpuId(1),
            channel: 0,
            side: WaitSide::Recv,
        };
        let log = Log::default();
        let holder = engine
            .launch(StreamId(1), Box::new(Never(vec![edge])))
            .unwrap();
        let behind = engine.launch(StreamId(1), busy("behind", 1, &log)).unwrap();
        let starved = engine
            .launch(StreamId(2), busy("starved", 1, &log))
            .unwrap();
        assert!(!engine.synchronize_timeout(Some(Duration::ZERO)));
        let fenced = engine.launch(StreamId(3), busy("fenced", 1, &log)).unwrap();

        let first = engine.step();
        assert_eq!((first.started, first.moved, first.retired), (1, 0, 0));
        assert!(engine.step().is_quiet());
        let blocked = |h: &KernelHandle| engine.blocked_on(h.seq());
        assert_eq!(blocked(&holder), Some(BlockedOn::Edges(vec![edge])));
        assert_eq!(blocked(&behind), Some(BlockedOn::StreamHead));
        assert_eq!(blocked(&starved), Some(BlockedOn::Residency));
        assert_eq!(blocked(&fenced), Some(BlockedOn::Barrier));
        assert!(log.lock().is_empty());
    }

    /// A kernel that finishes at the first poll that sees a pending
    /// barrier, as DFCCL's daemon quits voluntarily; it counts its polls.
    struct QuitsOnBarrier(u32);

    impl Kernel for QuitsOnBarrier {
        fn name(&self) -> String {
            "quits-on-barrier".to_string()
        }

        fn poll(&mut self, ctx: &KernelCtx) -> KernelPoll<'_> {
            self.0 += 1;
            if ctx.barrier_pending {
                return KernelPoll::Ready(KernelOutcome::Completed);
            }
            KernelPoll::Pending(&[])
        }
    }

    #[test]
    fn a_running_kernel_sees_a_barrier_issued_after_it_and_can_release_it() {
        let engine = engine_with_slots(2);
        let h = engine
            .launch(StreamId(1), Box::new(QuitsOnBarrier(0)))
            .unwrap();
        assert_eq!(engine.step().started, 1);
        assert!(engine.step().is_quiet());
        let polls = |e: &DeviceEngine| {
            e.with_running(h.seq(), |k| {
                let any: &mut dyn std::any::Any = k;
                any.downcast_mut::<QuitsOnBarrier>().unwrap().0
            })
        };
        assert_eq!(polls(&engine), Some(2));
        assert!(!engine.synchronize_timeout(Some(Duration::ZERO)));
        assert!(!h.is_terminal());
        assert_eq!(engine.step().retired, 1, "it quits on the barrier");
        assert!(h.is_terminal());
        assert_eq!(h.status(), KernelStatus::Completed);
        assert_eq!(polls(&engine), None, "no longer running");
        // The barrier drained with it: a new one is satisfied at once.
        assert!(engine.synchronize_timeout(Some(Duration::ZERO)));
    }

    #[test]
    fn a_waiter_that_does_not_step_wakes_when_another_thread_drains_the_barrier() {
        let engine = carried_engine_with_slots(2);
        let log = Log::default();
        let h = engine.launch(StreamId(1), busy("slow", 50, &log)).unwrap();
        // Nothing steps a carried engine but its owner: waits time out.
        assert_eq!(
            h.wait_timeout(Duration::from_millis(10)),
            KernelStatus::Queued
        );
        assert!(!engine.synchronize_timeout(Some(Duration::from_millis(10))));
        let stepper = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                while !h.is_terminal() {
                    engine.step();
                }
            })
        };
        assert!(engine.synchronize_timeout(Some(Duration::from_secs(60))));
        stepper.join().unwrap();
        assert_eq!(ends(&log), ["slow"]);
    }

    #[test]
    fn teardown_of_a_queued_kernel_wakes_its_carried_waiter() {
        // A queued kernel frees no slot when it is dropped.
        let engine = carried_engine_with_slots(1);
        let h = engine
            .launch(StreamId(1), Box::new(Never(Vec::new())))
            .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let h = h.clone();
            std::thread::spawn(move || tx.send(h.wait()).unwrap())
        };
        // Let the waiter fall asleep first; a late one sees the status.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(h.status(), KernelStatus::Queued);
        engine.abort_all();
        let woke = rx.recv_timeout(Duration::from_secs(30));
        assert_eq!(woke, Ok(KernelStatus::Aborted));
        waiter.join().unwrap();
    }
}
