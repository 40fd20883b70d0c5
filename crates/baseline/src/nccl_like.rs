//! The NCCL-like baseline: blocking, busy-waiting, non-preemptive collective
//! kernels.
//!
//! Each invocation of a collective launches one kernel on a CUDA-like stream.
//! The kernel holds its residency slot (streaming-multiprocessor resources)
//! while it waits for its peers — the hold-and-wait behaviour that, combined
//! with disordered invocation across GPUs, produces the deadlocks of Fig. 1.
//! There is no preemption: a deadlocked round ends only when the watchdog
//! tears its engines down.
//!
//! The kernel executes the same compiled lane program, through the same
//! executor, as DFCCL's daemon: registration compiles the forced-ring plan
//! and binds it to the collective's connectors, and each poll of the kernel
//! makes one [`LaneRun::pass`]. The baseline builds single-channel plans, so
//! there is one lane and execution is strict program order. What differs
//! from DFCCL is only scheduling: no spin threshold, no preemption.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use dfccl_collectives::{
    validate_buffers, AlgorithmKind, AlgorithmSelector, CollectiveDescriptor, CollectiveError,
    CompiledProgram, DeviceBuffer, LanePass, LaneRun,
};
use dfccl_transport::{
    Communicator, CommunicatorPool, ConnectorTable, LinkModel, Topology, TransportError,
};
use gpu_sim::{
    DeviceEngine, GpuDevice, GpuId, GpuSpec, Kernel, KernelCtx, KernelHandle, KernelOutcome,
    KernelPoll, LaunchError, StreamId,
};
use parking_lot::Mutex;

/// Errors returned by the baseline executor.
#[derive(Debug)]
pub enum NcclError {
    /// The collective id was not registered on this rank.
    NotRegistered(u64),
    /// The collective id was already registered on this rank.
    AlreadyRegistered(u64),
    /// The GPU is not part of the domain topology.
    UnknownGpu(GpuId),
    /// The rank's GPU is not in the collective's device set.
    RankNotInDeviceSet { gpu: GpuId, coll_id: u64 },
    /// Collective-level validation failed.
    Collective(CollectiveError),
    /// Transport-level failure.
    Transport(TransportError),
    /// Kernel launch failed.
    Launch(LaunchError),
}

impl std::fmt::Display for NcclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NcclError::NotRegistered(id) => write!(f, "collective {id} is not registered"),
            NcclError::AlreadyRegistered(id) => write!(f, "collective {id} is already registered"),
            NcclError::UnknownGpu(g) => write!(f, "{g} is not part of the topology"),
            NcclError::RankNotInDeviceSet { gpu, coll_id } => {
                write!(f, "{gpu} is not in the device set of collective {coll_id}")
            }
            NcclError::Collective(e) => write!(f, "{e}"),
            NcclError::Transport(e) => write!(f, "{e}"),
            NcclError::Launch(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NcclError {}

impl From<CollectiveError> for NcclError {
    fn from(e: CollectiveError) -> Self {
        NcclError::Collective(e)
    }
}
impl From<TransportError> for NcclError {
    fn from(e: TransportError) -> Self {
        NcclError::Transport(e)
    }
}
impl From<LaunchError> for NcclError {
    fn from(e: LaunchError) -> Self {
        NcclError::Launch(e)
    }
}

struct Registered {
    desc: CollectiveDescriptor,
    rank: usize,
    program: CompiledProgram,
    table: ConnectorTable,
}

/// One collective invocation as a kernel: each poll makes one pass over the
/// lane program. It never gives its slot back before the program finishes.
struct CollectiveKernel {
    coll_id: u64,
    reg: Arc<Registered>,
    send: DeviceBuffer,
    recv: DeviceBuffer,
    run: LaneRun,
}

impl Kernel for CollectiveKernel {
    fn name(&self) -> String {
        format!("nccl-{}-{}", self.reg.desc.kind, self.coll_id)
    }

    fn grid_blocks(&self) -> u32 {
        4
    }

    fn shared_mem_per_block(&self) -> usize {
        13 * 1024
    }

    fn poll(&mut self, _ctx: &KernelCtx) -> KernelPoll {
        let reg = &*self.reg;
        let pass = self.run.pass(
            self.coll_id,
            &reg.program,
            &reg.table,
            reg.desc.op,
            &self.send,
            &self.recv,
        );
        match pass {
            Ok(LanePass::Done) => KernelPoll::Ready(KernelOutcome::Completed),
            Ok(LanePass::Moved) => KernelPoll::Moved,
            Ok(LanePass::Stuck) => {
                KernelPoll::Pending(self.run.waits(&reg.program, &reg.table, &reg.desc.devices))
            }
            Err(e) => KernelPoll::Ready(KernelOutcome::Failed(e.to_string())),
        }
    }
}

/// Cluster-level state for the NCCL-like baseline: topology, link model,
/// communicator pool and one launch engine per GPU, all in one step group.
pub struct NcclDomain {
    pool: Arc<CommunicatorPool>,
    engines: BTreeMap<GpuId, Arc<DeviceEngine>>,
    communicators: Mutex<HashMap<u64, Arc<Communicator>>>,
    chunk_elems: usize,
}

impl NcclDomain {
    /// Build a domain over a topology, link model and GPU specification.
    /// `max_resident_kernels` bounds per-GPU kernel concurrency (the resource
    /// that gets depleted in the resource-depletion deadlock).
    pub fn new(
        topology: Topology,
        link_model: LinkModel,
        gpu_spec: GpuSpec,
        chunk_elems: usize,
    ) -> Arc<Self> {
        let topology = Arc::new(topology);
        let link_model = Arc::new(link_model);
        let pool = CommunicatorPool::new(Arc::clone(&topology), Arc::clone(&link_model), 8);
        let devices = topology
            .gpus()
            .into_iter()
            .map(|g| GpuDevice::new(g, gpu_spec.clone()));
        let engines = DeviceEngine::group(devices)
            .into_iter()
            .map(|e| (e.device().id(), e))
            .collect();
        Arc::new(NcclDomain {
            pool,
            engines,
            communicators: Mutex::new(HashMap::new()),
            chunk_elems,
        })
    }

    /// A flat `n`-GPU domain with zero-cost links and `slots` concurrent-kernel
    /// slots per GPU.
    pub fn flat_for_testing(n: usize, slots: u32) -> Arc<Self> {
        NcclDomain::new(
            Topology::flat(n),
            LinkModel::zero_cost(),
            GpuSpec::tiny(slots),
            4 * 1024,
        )
    }

    /// All engines, by GPU id: what the watchdog steps and tears down.
    pub fn engines(&self) -> Vec<Arc<DeviceEngine>> {
        self.engines.values().cloned().collect()
    }

    /// The domain-wide fault injector (shared by every communicator the pool
    /// hands out): script per-edge link faults through it.
    pub fn fault_injector(&self) -> Arc<dfccl_transport::FaultInjector> {
        Arc::clone(self.pool.fault_injector())
    }

    /// Per-edge progress samples across every registered collective's
    /// communicator, each stamped with its collective id — the probe
    /// [`crate::watchdog::wait_all_or_stall`] consumes to classify a stall
    /// and name the edges/collectives involved.
    pub fn edge_samples(&self) -> Vec<dfccl_transport::EdgeSample> {
        let mut samples = Vec::new();
        for (&coll_id, comm) in self.communicators.lock().iter() {
            for mut s in comm.edge_samples() {
                s.coll_id = Some(coll_id);
                samples.push(s);
            }
        }
        samples.sort_by_key(|s| (s.coll_id, s.edge));
        samples
    }

    /// Create a rank context for `gpu`.
    pub fn init_rank(self: &Arc<Self>, gpu: GpuId) -> Result<NcclRank, NcclError> {
        let engine = self
            .engines
            .get(&gpu)
            .cloned()
            .ok_or(NcclError::UnknownGpu(gpu))?;
        Ok(NcclRank {
            domain: Arc::clone(self),
            gpu,
            engine,
            registered: Mutex::new(HashMap::new()),
        })
    }

    /// Shut every engine down (aborting outstanding kernels).
    pub fn shutdown(&self) {
        for e in self.engines.values() {
            e.shutdown();
        }
    }

    fn communicator_for(
        &self,
        coll_id: u64,
        devices: &[GpuId],
    ) -> Result<Arc<Communicator>, NcclError> {
        let mut comms = self.communicators.lock();
        if let Some(c) = comms.get(&coll_id) {
            return Ok(Arc::clone(c));
        }
        let c = self.pool.allocate(devices)?;
        comms.insert(coll_id, Arc::clone(&c));
        Ok(c)
    }
}

/// Per-GPU rank context of the NCCL-like baseline.
pub struct NcclRank {
    domain: Arc<NcclDomain>,
    gpu: GpuId,
    engine: Arc<DeviceEngine>,
    registered: Mutex<HashMap<u64, Arc<Registered>>>,
}

impl NcclRank {
    /// The GPU this rank runs on.
    pub fn gpu(&self) -> GpuId {
        self.gpu
    }

    /// Register a collective under `coll_id` (NCCL has no registration step;
    /// this mirrors communicator creation + plan construction, and compiles
    /// the plan into its lane program bound to the communicator).
    pub fn register(&self, coll_id: u64, desc: CollectiveDescriptor) -> Result<(), NcclError> {
        desc.validate()?;
        if self.registered.lock().contains_key(&coll_id) {
            return Err(NcclError::AlreadyRegistered(coll_id));
        }
        let rank = desc.devices.iter().position(|&d| d == self.gpu).ok_or(
            NcclError::RankNotInDeviceSet {
                gpu: self.gpu,
                coll_id,
            },
        )?;
        let comm = self.domain.communicator_for(coll_id, &desc.devices)?;
        // The NCCL-like baseline runs the ring schedule wherever a ring
        // exists; dense-mesh kinds (all-to-all, send/recv) fall through to
        // the pairwise family, mirroring NCCL's grouped p2p implementation.
        // Channels cover exactly the edges the plan addresses.
        let plan = AlgorithmSelector::forced(AlgorithmKind::Ring).build_plan(
            &desc,
            rank,
            self.domain.chunk_elems,
            self.domain.pool.topology(),
        )?;
        plan.validate(rank, desc.num_ranks())?;
        let program = CompiledProgram::compile(&plan, desc.dtype);
        let channels = comm.channels(rank, plan.send_edges(), plan.recv_edges())?;
        let table = program.bind(&channels)?;
        self.registered.lock().insert(
            coll_id,
            Arc::new(Registered {
                desc,
                rank,
                program,
                table,
            }),
        );
        Ok(())
    }

    /// Launch the collective as one kernel on `stream`. Once started, the
    /// kernel holds its slot (no spin threshold, no preemption) until every
    /// instruction of the program has executed, or until the watchdog tears
    /// its engine down.
    pub fn launch_collective(
        &self,
        coll_id: u64,
        stream: StreamId,
        send: DeviceBuffer,
        recv: DeviceBuffer,
    ) -> Result<KernelHandle, NcclError> {
        let reg = self
            .registered
            .lock()
            .get(&coll_id)
            .cloned()
            .ok_or(NcclError::NotRegistered(coll_id))?;
        validate_buffers(&reg.desc, reg.rank, &send, &recv)?;
        let run = LaneRun::new(&reg.program);
        let kernel = CollectiveKernel {
            coll_id,
            reg,
            send,
            recv,
            run,
        };
        Ok(self.engine.launch(stream, Box::new(kernel))?)
    }

    /// Issue a device-wide synchronization and wait for it (bounded). With the
    /// NCCL-like baseline this is the operation that turns disordered
    /// collectives into the Fig. 1(d) deadlock. A zero timeout issues the
    /// barrier without waiting; a barrier that times out stays in force.
    pub fn device_synchronize_timeout(&self, timeout: Duration) -> bool {
        self.engine.synchronize_timeout(Some(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::{wait_all_or_deadlock, DeadlockOutcome};
    use dfccl_collectives::{DataType, ReduceOp};
    use gpu_sim::{KernelStatus, StepReport};

    const COUNT: usize = 32;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    fn all_reduce_desc(count: usize, n: usize) -> CollectiveDescriptor {
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
    }

    /// A 2-GPU domain with collectives 0 and 1 (all-reduces of `COUNT`
    /// floats) registered on both ranks.
    fn two_gpu_world(slots: u32) -> (Arc<NcclDomain>, Vec<NcclRank>) {
        let domain = NcclDomain::flat_for_testing(2, slots);
        let ranks: Vec<NcclRank> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for r in &ranks {
            r.register(0, all_reduce_desc(COUNT, 2)).unwrap();
            r.register(1, all_reduce_desc(COUNT, 2)).unwrap();
        }
        (domain, ranks)
    }

    /// Launch `coll` on `rank` on `stream`, every element `rank * 10 + coll + 1`;
    /// returns the handle and the recv buffer.
    fn launch(rank: &NcclRank, coll: u64, stream: usize) -> (KernelHandle, DeviceBuffer) {
        let value = (rank.gpu().0 * 10) as f32 + coll as f32 + 1.0;
        let recv = DeviceBuffer::zeroed(COUNT * 4);
        let h = rank
            .launch_collective(
                coll,
                StreamId(stream),
                DeviceBuffer::from_f32(&[value; COUNT]),
                recv.clone(),
            )
            .unwrap();
        (h, recv)
    }

    /// Step every engine of `domain` from this thread, in an order a seeded
    /// generator shuffles before each sweep, until every handle is terminal
    /// or a sweep is quiet. Returns whether the round deadlocked and how many
    /// engine steps it took.
    fn run_held(domain: &NcclDomain, handles: &[KernelHandle], seed: u64) -> (bool, u64) {
        let mut engines = domain.engines();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut steps = 0u64;
        while !handles.iter().all(|h| h.status().is_terminal()) {
            for i in (1..engines.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                engines.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let mut sweep = StepReport::default();
            for e in &engines {
                sweep += e.step();
                steps += 1;
            }
            if sweep.is_quiet() {
                return (true, steps);
            }
            assert!(
                steps < 1_000_000,
                "seed {seed}: no decision after {steps} steps"
            );
        }
        (false, steps)
    }

    /// Run a scenario held, twice per seed: the two runs must agree on the
    /// outcome and the step count. Returns the first run's outcome, handles
    /// and recv buffers, with the world still standing.
    fn held_twice(
        slots: u32,
        seed: u64,
        scenario: impl Fn(&[NcclRank]) -> Vec<(KernelHandle, DeviceBuffer)>,
    ) -> (bool, Arc<NcclDomain>, Vec<(KernelHandle, DeviceBuffer)>) {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let (domain, ranks) = two_gpu_world(slots);
            let launched = scenario(&ranks);
            let handles: Vec<KernelHandle> = launched.iter().map(|(h, _)| h.clone()).collect();
            let (deadlocked, steps) = run_held(&domain, &handles, seed);
            runs.push((deadlocked, steps, domain, launched));
        }
        let (second, first) = (runs.pop().unwrap(), runs.pop().unwrap());
        assert_eq!(
            (first.0, first.1),
            (second.0, second.1),
            "seed {seed}: two runs disagree"
        );
        second.2.shutdown();
        (first.0, first.2, first.3)
    }

    /// Decide a held round's deadlock through the watchdog and return what
    /// each unfinished kernel waits on, by kernel name.
    fn stuck_waits(domain: &NcclDomain, launched: &[(KernelHandle, DeviceBuffer)]) -> Vec<String> {
        let handles: Vec<KernelHandle> = launched.iter().map(|(h, _)| h.clone()).collect();
        match wait_all_or_deadlock(&handles, &domain.engines()) {
            DeadlockOutcome::Deadlock { unfinished } => unfinished,
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn fig1a_consistent_order_completes_bit_exact_at_one_and_two_slots() {
        // Both GPUs launch A then B, each on its own stream.
        for slots in [1, 2] {
            for seed in 0..24 {
                let (deadlocked, domain, launched) = held_twice(slots, seed, |ranks| {
                    ranks
                        .iter()
                        .flat_map(|r| [launch(r, 0, 1), launch(r, 1, 2)])
                        .collect()
                });
                assert!(!deadlocked, "slots {slots} seed {seed}: flagged");
                for (i, (h, recv)) in launched.iter().enumerate() {
                    assert_eq!(h.status(), KernelStatus::Completed);
                    let coll = (i % 2) as f32;
                    let sum = (coll + 1.0) + (10.0 + coll + 1.0);
                    assert_eq!(
                        recv.to_f32_vec(),
                        vec![sum; COUNT],
                        "slots {slots} seed {seed}"
                    );
                }
                domain.shutdown();
            }
        }
    }

    #[test]
    fn fig1b_disorder_on_a_single_queue_deadlocks() {
        // GPU 0 launches A then B, GPU 1 B then A, on one stream per GPU:
        // plenty of slots, but each GPU's second kernel queues behind a
        // first kernel that waits for it.
        for seed in 0..4 {
            let (deadlocked, domain, launched) = held_twice(4, seed, |ranks| {
                vec![
                    launch(&ranks[0], 0, 1),
                    launch(&ranks[0], 1, 1),
                    launch(&ranks[1], 1, 1),
                    launch(&ranks[1], 0, 1),
                ]
            });
            assert!(deadlocked, "seed {seed}");
            assert_eq!(
                stuck_waits(&domain, &launched),
                [
                    "nccl-all-reduce-0 on gpu0 waits on recv from gpu1 ch0",
                    "nccl-all-reduce-1 on gpu0 waits on its stream head",
                    "nccl-all-reduce-1 on gpu1 waits on recv from gpu0 ch0",
                    "nccl-all-reduce-0 on gpu1 waits on its stream head",
                ]
            );
        }
    }

    #[test]
    fn disorder_with_separate_streams_and_enough_resources_completes() {
        for seed in 0..4 {
            let (deadlocked, domain, launched) = held_twice(2, seed, |ranks| {
                vec![
                    launch(&ranks[0], 0, 1),
                    launch(&ranks[0], 1, 2),
                    launch(&ranks[1], 1, 2),
                    launch(&ranks[1], 0, 1),
                ]
            });
            assert!(!deadlocked, "seed {seed}");
            assert!(launched
                .iter()
                .all(|(h, _)| h.status() == KernelStatus::Completed));
            domain.shutdown();
        }
    }

    #[test]
    fn fig1c_disorder_with_resource_depletion_deadlocks() {
        // Separate streams, but one residency slot per GPU.
        for seed in 0..4 {
            let (deadlocked, domain, launched) = held_twice(1, seed, |ranks| {
                vec![
                    launch(&ranks[0], 0, 1),
                    launch(&ranks[0], 1, 2),
                    launch(&ranks[1], 1, 2),
                    launch(&ranks[1], 0, 1),
                ]
            });
            assert!(deadlocked, "seed {seed}");
            assert_eq!(
                stuck_waits(&domain, &launched),
                [
                    "nccl-all-reduce-0 on gpu0 waits on recv from gpu1 ch0",
                    "nccl-all-reduce-1 on gpu0 waits on a residency slot",
                    "nccl-all-reduce-1 on gpu1 waits on recv from gpu0 ch0",
                    "nccl-all-reduce-0 on gpu1 waits on a residency slot",
                ]
            );
        }
    }

    #[test]
    fn fig1d_disorder_with_device_sync_deadlocks_despite_resources() {
        // Plenty of slots and streams, but each GPU synchronizes between its
        // two disordered launches. A zero timeout issues the barrier without
        // waiting; it stays in force.
        for seed in 0..4 {
            let (deadlocked, domain, launched) = held_twice(4, seed, |ranks| {
                let first = [launch(&ranks[0], 0, 1), launch(&ranks[1], 1, 2)];
                for r in ranks {
                    assert!(!r.device_synchronize_timeout(Duration::ZERO));
                }
                let second = [launch(&ranks[0], 1, 2), launch(&ranks[1], 0, 1)];
                first.into_iter().chain(second).collect()
            });
            assert!(deadlocked, "seed {seed}");
            assert_eq!(
                stuck_waits(&domain, &launched),
                [
                    "nccl-all-reduce-0 on gpu0 waits on recv from gpu1 ch0",
                    "nccl-all-reduce-1 on gpu1 waits on recv from gpu0 ch0",
                    "nccl-all-reduce-1 on gpu0 waits on a synchronization barrier",
                    "nccl-all-reduce-0 on gpu1 waits on a synchronization barrier",
                ]
            );
        }
    }

    #[test]
    fn launch_requires_registration() {
        let domain = NcclDomain::flat_for_testing(2, 2);
        let rank = domain.init_rank(GpuId(0)).unwrap();
        let err = rank
            .launch_collective(
                9,
                StreamId(1),
                DeviceBuffer::zeroed(4),
                DeviceBuffer::zeroed(4),
            )
            .unwrap_err();
        assert!(matches!(err, NcclError::NotRegistered(9)));
        assert!(matches!(
            domain.init_rank(GpuId(42)),
            Err(NcclError::UnknownGpu(_))
        ));
        domain.shutdown();
    }

    #[test]
    fn a_collective_whose_peer_never_launches_is_a_deadlock_not_a_hang() {
        let domain = NcclDomain::flat_for_testing(2, 2);
        let rank = domain.init_rank(GpuId(0)).unwrap();
        rank.register(0, all_reduce_desc(8, 2)).unwrap();
        let err = rank.register(0, all_reduce_desc(8, 2)).unwrap_err();
        assert!(matches!(err, NcclError::AlreadyRegistered(0)));
        let h = rank
            .launch_collective(
                0,
                StreamId(1),
                DeviceBuffer::from_f32(&[1.0; 8]),
                DeviceBuffer::zeroed(32),
            )
            .unwrap();
        let outcome = wait_all_or_deadlock(std::slice::from_ref(&h), &domain.engines());
        assert_eq!(
            outcome,
            DeadlockOutcome::Deadlock {
                unfinished: vec!["nccl-all-reduce-0 on gpu0 waits on recv from gpu1 ch0".into()]
            }
        );
        assert_eq!(h.status(), KernelStatus::Aborted);
        domain.shutdown();
    }
}
