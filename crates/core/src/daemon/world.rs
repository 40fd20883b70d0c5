//! The world runner: a few carrier threads step every rank's engine and
//! poller.
//!
//! On a GPU each daemon kernel and each CPU poller runs on hardware of its
//! own. Here they share the host's cores, so a domain does not get two OS
//! threads per rank: it owns one [`World`] of C = min(GPUs in the topology,
//! available parallelism) carriers, and GPU r (its position in
//! `Topology::gpus`, machine-major) belongs to carrier ⌊r·C/N⌋ — contiguous
//! blocks, so intra-node hops stay on one carrier.
//!
//! A carrier sweeps the ranks it owns, each held in a `Seat`, the only
//! launcher of the rank's [`DaemonCore`] kernel. A seat's step drains the CQ
//! if its `cq_ready` generation moved and runs the callbacks (`poller.rs`),
//! launches a daemon kernel on the rank's engine if work is owed and none is
//! there, steps the engine once and maps its `StepReport` to a `Wish`:
//! progress polls again, a wait on named edges spins, quiet steps yield for
//! `idle_spin_passes`, then park. After the sweep the carrier waits as little
//! as its hottest rank allows, parking on its one bell only when every rank
//! wants to park. `carrier_wait` is the only wait in this file; CI greps the
//! rest of it, and the pipeline stage files, for one.
//!
//! A carrier thread starts when its first rank attaches and exits when its
//! last rank leaves, so a domain with no live rank holds no thread. A test
//! may instead hold every carrier on its own thread and step the seats in
//! an order it picks (`World::hold`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_sim::{KernelHandle, StreamId};
use parking_lot::Mutex;

use super::core::DaemonCore;
use super::{poller, DaemonShared};
use crate::cq::Cqe;
use crate::park::Parker;

/// The host's parallelism, read once per process: the standard library
/// re-reads the cgroup limits from procfs on every call (~80 µs on a 2-vCPU
/// cloud VM).
fn host_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

thread_local! {
    /// Set on carrier threads: a wait for a carrier issued from one (a
    /// callback destroying a rank) could be waiting for itself.
    static ON_CARRIER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a carrier (it is running a callback).
pub(super) fn on_carrier() -> bool {
    ON_CARRIER.with(Cell::get)
}

/// A domain's carriers.
pub struct World {
    carriers: Vec<Arc<Carrier>>,
    gpus: usize,
}

impl World {
    /// The world of a domain over `gpus` GPUs. No thread starts until a rank
    /// attaches.
    pub fn new(gpus: usize) -> Self {
        let gpus = gpus.max(1);
        let carriers = gpus.min(host_parallelism());
        World {
            carriers: (0..carriers).map(Carrier::new).collect(),
            gpus,
        }
    }

    /// The carrier of the GPU at position `index` in the topology.
    pub fn carrier(&self, index: usize) -> &Arc<Carrier> {
        &self.carriers[index * self.carriers.len() / self.gpus]
    }

    /// Carrier threads started and not joined yet.
    pub fn threads(&self) -> usize {
        let started = |c: &Arc<Carrier>| c.roster.lock().thread.is_some();
        self.carriers.iter().filter(|c| started(c)).count()
    }
}

/// One carrier thread and the ranks it steps.
pub struct Carrier {
    index: usize,
    /// Rung by every rank the carrier owns: SQE pushes, exit and rescan
    /// requests, CQE publication, a retired daemon.
    pub(super) bell: Parker,
    roster: Mutex<Roster>,
    /// Bumped by every attach, so the thread re-reads the roster only then.
    roster_generation: AtomicU64,
}

#[derive(Default)]
struct Roster {
    ranks: Vec<Arc<DaemonShared>>,
    thread: Option<JoinHandle<()>>,
    /// A thread steps the roster (or a test holds the carrier).
    running: bool,
}

impl Carrier {
    /// A carrier with no ranks and no thread.
    pub fn new(index: usize) -> Arc<Self> {
        Arc::new(Carrier {
            index,
            bell: Parker::new(),
            roster: Mutex::new(Roster::default()),
            roster_generation: AtomicU64::new(0),
        })
    }

    /// Start stepping `rank`, starting the thread if it is not running.
    pub(super) fn attach(self: &Arc<Self>, rank: Arc<DaemonShared>) {
        let exited = {
            let mut roster = self.roster.lock();
            roster.ranks.push(rank);
            self.roster_generation.fetch_add(1, Ordering::Release);
            if roster.running {
                None
            } else {
                roster.running = true;
                let carrier = Arc::clone(self);
                let thread = std::thread::Builder::new()
                    .name(format!("dfccl-carrier-{}", self.index))
                    .spawn(move || carrier.run())
                    .expect("failed to spawn a carrier thread");
                roster.thread.replace(thread)
            }
        };
        // A predecessor that stopped running has returned or is returning.
        if let Some(thread) = exited {
            let _ = thread.join();
        }
    }

    /// Join the thread if it exited (its last rank left).
    pub(super) fn reap(&self) {
        let exited = {
            let mut roster = self.roster.lock();
            if roster.running {
                None
            } else {
                roster.thread.take()
            }
        };
        if let Some(thread) = exited {
            let _ = thread.join();
        }
    }

    /// The thread body: sweep until the last rank leaves.
    fn run(self: Arc<Self>) {
        ON_CARRIER.with(|on| on.set(true));
        let _release = ReleaseOnUnwind(&self);
        let mut seats: Vec<Seat> = Vec::new();
        let mut roster_seen = 0;
        let mut batch: Vec<Cqe> = Vec::new();
        loop {
            // Sampled before the sweep: a ring during it cancels the park.
            let rung = self.bell.generation();
            self.seat_newcomers(&mut roster_seen, &mut seats);
            let mut sweep = Sweep::new(rung);
            let mut leavers = Vec::new();
            seats.retain_mut(|seat| {
                let stays = sweep.visit(seat, &mut batch);
                if !stays {
                    leavers.push(Arc::clone(&seat.shared));
                }
                stays
            });
            if !leavers.is_empty() && !self.release(&leavers) {
                return;
            }
            if !seats.is_empty() {
                sweep.wait(&self.bell);
            }
        }
    }

    /// Give every rank in the roster without a seat one, if an attach moved
    /// the roster since `seen`.
    fn seat_newcomers(&self, seen: &mut u64, seats: &mut Vec<Seat>) {
        let generation = self.roster_generation.load(Ordering::Acquire);
        if generation == *seen {
            return;
        }
        *seen = generation;
        for rank in &self.roster.lock().ranks {
            if !seats.iter().any(|s| Arc::ptr_eq(&s.shared, rank)) {
                seats.push(Seat::new(Arc::clone(rank)));
            }
        }
    }

    /// Drop `leavers` from the roster and tell their `shut_down`s. Returns
    /// `false` when no rank is left: the thread stops running, in the same
    /// critical section an `attach` would start a successor in.
    fn release(&self, leavers: &[Arc<DaemonShared>]) -> bool {
        let mut roster = self.roster.lock();
        roster
            .ranks
            .retain(|r| !leavers.iter().any(|l| Arc::ptr_eq(l, r)));
        for rank in leavers {
            rank.mark_left();
        }
        if roster.ranks.is_empty() {
            roster.running = false;
            return false;
        }
        true
    }
}

/// Releases every rank of a carrier whose thread unwinds, so no `shut_down`
/// waits on a carrier that is gone.
struct ReleaseOnUnwind<'a>(&'a Carrier);

impl Drop for ReleaseOnUnwind<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let mut roster = self.0.roster.lock();
        roster.running = false;
        for rank in roster.ranks.drain(..) {
            rank.mark_left();
        }
    }
}

/// What a rank wants from its carrier after one step, hottest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Wish {
    /// It moved, or has something to do at once.
    Poll,
    /// Idle within `idle_spin_passes`: give the CPU away once.
    Yield,
    /// A peer has to move first: keep the slice hot.
    Spin,
    /// Nothing to do until the bell rings or `restart_backoff` passes: the
    /// rank dozes, and is not stepped, until then.
    Park,
}

/// One sweep over a carrier's ranks: what the hottest one wants, and when
/// the first dozing one wakes.
struct Sweep {
    /// The bell's generation before the sweep.
    rung: u64,
    wish: Wish,
    now: Option<Instant>,
    wake_at: Option<Instant>,
}

impl Sweep {
    fn new(rung: u64) -> Self {
        Sweep {
            rung,
            wish: Wish::Park,
            now: None,
            wake_at: None,
        }
    }

    fn now(&mut self) -> Instant {
        *self.now.get_or_insert_with(Instant::now)
    }

    /// Step `seat` unless it dozes. `false` when it left.
    fn visit(&mut self, seat: &mut Seat, batch: &mut Vec<Cqe>) -> bool {
        if let Some((rung, until)) = seat.doze {
            if rung == self.rung && self.now() < until {
                self.doze_until(until);
                return true;
            }
            seat.doze = None;
        }
        let Some(wish) = seat.step(batch) else {
            return false;
        };
        if wish == Wish::Park {
            let until = self.now() + seat.shared.config.restart_backoff;
            seat.doze = Some((self.rung, until));
            self.doze_until(until);
        }
        self.wish = self.wish.min(wish);
        true
    }

    fn doze_until(&mut self, until: Instant) {
        self.wake_at = Some(self.wake_at.map_or(until, |at| at.min(until)));
    }

    /// Wait as the hottest rank allows: a park (every rank dozes) lasts
    /// until the first one wakes.
    fn wait(&mut self, bell: &Parker) {
        let timeout = self.wake_at.map_or(Duration::ZERO, |at| {
            at.saturating_duration_since(self.now())
        });
        carrier_wait(bell, self.rung, self.wish, timeout);
    }
}

/// The engine stream whose FIFO runs one daemon incarnation at a time.
const DAEMON_STREAM: StreamId = StreamId(usize::MAX);

/// One rank as its carrier holds it: the only launcher of its daemon kernel.
struct Seat {
    shared: Arc<DaemonShared>,
    /// The daemon kernel launched last, until it is seen finished.
    daemon: Option<KernelHandle>,
    /// Steps in a row that made no progress and waited on no edge.
    quiet_steps: u32,
    /// The `cq_ready` generation the last drain saw.
    cq_seen: u64,
    /// Dozing until the bell moves past the first value or the instant
    /// passes.
    doze: Option<(u64, Instant)>,
}

impl Seat {
    fn new(shared: Arc<DaemonShared>) -> Self {
        Seat {
            shared,
            daemon: None,
            quiet_steps: 0,
            cq_seen: 0,
            doze: None,
        }
    }

    /// Drain the CQ if something was published, launch a daemon kernel if
    /// none is on the engine and work is owed, then step the engine once
    /// and say what the rank wants next. `None` when the rank is leaving
    /// and nothing is owed any more.
    fn step(&mut self, batch: &mut Vec<Cqe>) -> Option<Wish> {
        let shared = &self.shared;
        // Draining the slot CQ scans every slot: only when it moved.
        let published = shared.cq_ready.load(Ordering::Acquire);
        if published != self.cq_seen {
            self.cq_seen = published;
            poller::drain(shared, batch);
        }
        if self.daemon.as_ref().is_some_and(KernelHandle::is_terminal) {
            self.daemon = None;
        }
        if self.daemon.is_none() && shared.owes_work() {
            let daemon = Box::new(DaemonCore::new(Arc::clone(shared)));
            self.daemon = shared.engine.launch(DAEMON_STREAM, daemon).ok();
        }
        let step = shared.engine.step();
        // Another thread stepping the engine makes it busy.
        if step.progressed() || step.busy > 0 {
            self.quiet_steps = 0;
            return Some(Wish::Poll);
        }
        if step.waiting > 0 {
            return Some(Wish::Spin);
        }
        if self.daemon.is_none() {
            // `owes_work` first: `outstanding` falls only after the CQE is
            // in the CQ.
            let leaving = shared.leaving.load(Ordering::Acquire);
            if leaving && !shared.owes_work() && shared.cq.is_empty() {
                return None;
            }
            // A submission or a recovery reinstall rings the bell.
            return Some(Wish::Park);
        }
        // Idle, or the CQ is full (its publication rang the bell, so a
        // park returns at once): yield briefly — a burst may still be
        // arriving — then park.
        self.quiet_steps += 1;
        Some(if self.quiet_steps <= shared.config.idle_spin_passes {
            Wish::Yield
        } else {
            Wish::Park
        })
    }
}

/// The carrier's only wait, sized by the hottest rank's [`Wish`]. A park
/// returns at once if the bell rang after `rung` was sampled.
fn carrier_wait(bell: &Parker, rung: u64, wish: Wish, timeout: Duration) {
    match wish {
        Wish::Poll => {}
        Wish::Yield => std::thread::yield_now(),
        Wish::Spin => std::hint::spin_loop(),
        Wish::Park => {
            bell.park_if_unchanged(rung, timeout);
        }
    }
}

#[cfg(test)]
impl World {
    /// Hold every carrier on the calling thread, before any rank attaches:
    /// no carrier thread starts, and the thread steps each rank's seat
    /// itself ([`HeldWorld::step`]), so pollers and callbacks run on it at
    /// the step it picks. It counts as a carrier, so a `destroy` on it only
    /// asks; stepping the rank's seat until it leaves finishes the exit.
    pub(super) fn hold(&self) -> HeldWorld {
        for carrier in &self.carriers {
            let mut roster = carrier.roster.lock();
            assert!(!roster.running, "hold the world before a rank attaches");
            roster.running = true;
        }
        ON_CARRIER.with(|on| on.set(true));
        HeldWorld {
            carriers: self.carriers.clone(),
            roster_seen: vec![0; self.carriers.len()],
            seats: Vec::new(),
            batch: Vec::new(),
        }
    }
}

/// A world whose carriers the test thread holds ([`World::hold`]).
#[cfg(test)]
pub(super) struct HeldWorld {
    carriers: Vec<Arc<Carrier>>,
    roster_seen: Vec<u64>,
    seats: Vec<Seat>,
    batch: Vec<Cqe>,
}

#[cfg(test)]
impl HeldWorld {
    /// One step of `gpu`'s seat, as its carrier would take it (the caller
    /// picks the order, so nothing dozes). `None` once the rank left.
    pub(super) fn step(&mut self, gpu: gpu_sim::GpuId) -> Option<Wish> {
        for (carrier, seen) in self.carriers.iter().zip(&mut self.roster_seen) {
            carrier.seat_newcomers(seen, &mut self.seats);
        }
        let at = self.seats.iter().position(|s| s.shared.gpu == gpu)?;
        let wish = self.seats[at].step(&mut self.batch);
        if wish.is_none() {
            let shared = self.seats.swap_remove(at).shared;
            shared.carrier.release(&[Arc::clone(&shared)]);
            // Still held: a later attach must not start a thread.
            shared.carrier.roster.lock().running = true;
        }
        wish
    }

    /// Run `f` on the daemon kernel running on `gpu`'s engine, if any.
    pub(super) fn with_core<R>(
        &mut self,
        gpu: gpu_sim::GpuId,
        f: impl FnOnce(&mut DaemonCore) -> R,
    ) -> Option<R> {
        let seat = self.seats.iter().find(|s| s.shared.gpu == gpu)?;
        let seq = seat.daemon.as_ref()?.seq();
        seat.shared.engine.with_running(seq, |kernel| {
            let any: &mut dyn std::any::Any = kernel;
            f(any.downcast_mut().expect("the daemon stream runs daemons"))
        })
    }
}

#[cfg(test)]
impl Drop for HeldWorld {
    fn drop(&mut self) {
        ON_CARRIER.with(|on| on.set(false));
    }
}
