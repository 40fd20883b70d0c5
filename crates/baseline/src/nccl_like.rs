//! The NCCL-like baseline: blocking, busy-waiting, non-preemptive collective
//! kernels.
//!
//! Each invocation of a collective launches one kernel on a CUDA-like stream.
//! The kernel holds its residency slot (streaming-multiprocessor resources)
//! while busy-waiting for its peers — the hold-and-wait behaviour that,
//! combined with disordered invocation across GPUs, produces the deadlocks of
//! Fig. 1. There is no preemption: the only way out of a deadlock is the
//! watchdog's cooperative abort.
//!
//! The kernel executes the same compiled lane program, through the same
//! executor, as DFCCL's daemon: registration compiles the forced-ring plan
//! and binds it to the collective's connectors, and the kernel runs it with
//! [`run_program_blocking`]. The baseline builds single-channel plans, so
//! there is one lane and execution is strict program order. What differs
//! from DFCCL is only scheduling: no spin threshold, no preemption.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dfccl_collectives::{
    run_program_blocking, validate_buffers, AlgorithmKind, AlgorithmSelector, CollectiveDescriptor,
    CollectiveError, CompiledProgram, DeviceBuffer,
};
use dfccl_transport::{
    Communicator, CommunicatorPool, ConnectorTable, LinkModel, Topology, TransportError,
};
use gpu_sim::{
    DeviceEngine, FnKernel, GpuDevice, GpuId, GpuSpec, KernelHandle, KernelOutcome, LaunchError,
    StreamId, SyncKind,
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

/// Cluster-level state for the NCCL-like baseline: topology, link model,
/// communicator pool and one launch engine per GPU.
pub struct NcclDomain {
    pool: Arc<CommunicatorPool>,
    engines: HashMap<GpuId, Arc<DeviceEngine>>,
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
        let engines = topology
            .gpus()
            .into_iter()
            .map(|g| (g, DeviceEngine::new(GpuDevice::new(g, gpu_spec.clone()))))
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

    /// The engine driving `gpu`.
    pub fn engine(&self, gpu: GpuId) -> Option<Arc<DeviceEngine>> {
        self.engines.get(&gpu).cloned()
    }

    /// All engines (for watchdog teardown).
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
        let engine = self.engine(gpu).ok_or(NcclError::UnknownGpu(gpu))?;
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

    /// The launch engine of this rank's GPU.
    pub fn engine(&self) -> &Arc<DeviceEngine> {
        &self.engine
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

    /// Launch the collective as one blocking kernel on `stream`. The kernel
    /// busy-waits (no spin threshold, no preemption) until every instruction
    /// of the program has executed, or until it is aborted by the watchdog.
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
        let name = format!("nccl-{}-{}", reg.desc.kind, coll_id);
        let kernel = FnKernel::new(name, move |ctx: &gpu_sim::KernelCtx| {
            let abort = || ctx.should_abort();
            match run_program_blocking(
                coll_id,
                &reg.program,
                &reg.table,
                reg.desc.op,
                &send,
                &recv,
                &abort,
            ) {
                Ok(true) => KernelOutcome::Completed,
                Ok(false) => KernelOutcome::Aborted,
                Err(e) => KernelOutcome::Failed(e.to_string()),
            }
        })
        .with_blocks(4)
        .with_shared_mem(13 * 1024);
        Ok(self.engine.launch(stream, Box::new(kernel))?)
    }

    /// Issue a device-wide synchronization and wait for it (bounded). With the
    /// NCCL-like baseline this is the operation that turns disordered
    /// collectives into the Fig. 1(d) deadlock.
    pub fn device_synchronize_timeout(&self, timeout: Duration) -> bool {
        self.engine
            .synchronize_timeout(SyncKind::Explicit, Some(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::{wait_all_or_deadlock, DeadlockOutcome};
    use dfccl_collectives::{DataType, ReduceOp};
    use gpu_sim::KernelStatus;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    fn all_reduce_desc(count: usize, n: usize) -> CollectiveDescriptor {
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
    }

    #[test]
    fn consistent_order_completes_and_produces_correct_sums() {
        // Fig. 1(a): both GPUs launch A then B — no deadlock.
        let domain = NcclDomain::flat_for_testing(2, 2);
        let ranks: Vec<NcclRank> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for r in &ranks {
            r.register(0, all_reduce_desc(16, 2)).unwrap();
            r.register(1, all_reduce_desc(16, 2)).unwrap();
        }
        let mut handles = Vec::new();
        let mut recvs = Vec::new();
        for (g, r) in ranks.iter().enumerate() {
            for coll in [0u64, 1u64] {
                let send = DeviceBuffer::from_f32(&[(g + 1) as f32; 16]);
                let recv = DeviceBuffer::zeroed(64);
                recvs.push(recv.clone());
                handles.push(
                    r.launch_collective(coll, StreamId(coll as usize + 1), send, recv)
                        .unwrap(),
                );
            }
        }
        let outcome = wait_all_or_deadlock(&handles, &domain.engines(), Duration::from_secs(20));
        assert_eq!(outcome, DeadlockOutcome::AllCompleted);
        for recv in recvs {
            assert_eq!(recv.to_f32_vec(), vec![3.0f32; 16]);
        }
        domain.shutdown();
    }

    #[test]
    fn disorder_on_a_single_stream_deadlocks() {
        // Fig. 1(c), single queue: GPU 0 launches A then B, GPU 1 launches B
        // then A, all on one stream per GPU.
        let domain = NcclDomain::flat_for_testing(2, 1);
        let ranks: Vec<NcclRank> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for r in &ranks {
            r.register(0, all_reduce_desc(64, 2)).unwrap();
            r.register(1, all_reduce_desc(64, 2)).unwrap();
        }
        let order = [vec![0u64, 1u64], vec![1u64, 0u64]];
        let mut handles = Vec::new();
        for (g, r) in ranks.iter().enumerate() {
            for &coll in &order[g] {
                let send = DeviceBuffer::from_f32(&vec![1.0; 64]);
                let recv = DeviceBuffer::zeroed(256);
                handles.push(r.launch_collective(coll, StreamId(1), send, recv).unwrap());
            }
        }
        let outcome = wait_all_or_deadlock(&handles, &domain.engines(), Duration::from_secs(2));
        assert!(outcome.is_deadlock(), "single-queue disorder must deadlock");
        domain.shutdown();
    }

    #[test]
    fn disorder_with_separate_streams_and_enough_resources_completes() {
        // Fig. 1(b): disorder is fine when both collectives can run concurrently.
        let domain = NcclDomain::flat_for_testing(2, 2);
        let ranks: Vec<NcclRank> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for r in &ranks {
            r.register(0, all_reduce_desc(32, 2)).unwrap();
            r.register(1, all_reduce_desc(32, 2)).unwrap();
        }
        let order = [vec![0u64, 1u64], vec![1u64, 0u64]];
        let mut handles = Vec::new();
        for (g, r) in ranks.iter().enumerate() {
            for &coll in &order[g] {
                let send = DeviceBuffer::from_f32(&[1.0; 32]);
                let recv = DeviceBuffer::zeroed(128);
                handles.push(
                    r.launch_collective(coll, StreamId(coll as usize + 1), send, recv)
                        .unwrap(),
                );
            }
        }
        let outcome = wait_all_or_deadlock(&handles, &domain.engines(), Duration::from_secs(20));
        assert_eq!(outcome, DeadlockOutcome::AllCompleted);
        domain.shutdown();
    }

    #[test]
    fn disorder_with_resource_depletion_deadlocks() {
        // Fig. 1(c), resource depletion: separate streams but only one
        // residency slot per GPU.
        let domain = NcclDomain::flat_for_testing(2, 1);
        let ranks: Vec<NcclRank> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for r in &ranks {
            r.register(0, all_reduce_desc(32, 2)).unwrap();
            r.register(1, all_reduce_desc(32, 2)).unwrap();
        }
        let order = [vec![0u64, 1u64], vec![1u64, 0u64]];
        let mut handles = Vec::new();
        for (g, r) in ranks.iter().enumerate() {
            for &coll in &order[g] {
                let send = DeviceBuffer::from_f32(&[1.0; 32]);
                let recv = DeviceBuffer::zeroed(128);
                handles.push(
                    r.launch_collective(coll, StreamId(coll as usize + 1), send, recv)
                        .unwrap(),
                );
            }
        }
        let outcome = wait_all_or_deadlock(&handles, &domain.engines(), Duration::from_secs(2));
        assert!(outcome.is_deadlock(), "resource depletion must deadlock");
        domain.shutdown();
    }

    #[test]
    fn disorder_with_device_sync_deadlocks_despite_resources() {
        // Fig. 1(d): plenty of resources, but each GPU synchronizes between
        // the two disordered collectives.
        let domain = NcclDomain::flat_for_testing(2, 4);
        let domain2 = Arc::clone(&domain);
        let mut threads = Vec::new();
        for g in 0..2 {
            let domain = Arc::clone(&domain2);
            threads.push(std::thread::spawn(move || {
                let rank = domain.init_rank(GpuId(g)).unwrap();
                rank.register(0, all_reduce_desc(32, 2)).unwrap();
                rank.register(1, all_reduce_desc(32, 2)).unwrap();
                let order = if g == 0 { [0u64, 1u64] } else { [1u64, 0u64] };
                let first = rank
                    .launch_collective(
                        order[0],
                        StreamId(order[0] as usize + 1),
                        DeviceBuffer::from_f32(&[1.0; 32]),
                        DeviceBuffer::zeroed(128),
                    )
                    .unwrap();
                // cudaDeviceSynchronize between the two collectives.
                let synced = rank.device_synchronize_timeout(Duration::from_secs(2));
                let second = rank
                    .launch_collective(
                        order[1],
                        StreamId(order[1] as usize + 1),
                        DeviceBuffer::from_f32(&[1.0; 32]),
                        DeviceBuffer::zeroed(128),
                    )
                    .unwrap();
                (synced, first, second)
            }));
        }
        let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        // The synchronizations cannot complete: each waits for a collective
        // whose peer is stuck behind the other GPU's synchronization.
        assert!(results.iter().any(|(synced, _, _)| !synced));
        let handles: Vec<KernelHandle> = results
            .iter()
            .flat_map(|(_, a, b)| [a.clone(), b.clone()])
            .collect();
        let outcome = wait_all_or_deadlock(&handles, &domain.engines(), Duration::from_secs(2));
        assert!(outcome.is_deadlock(), "sync-related disorder must deadlock");
        domain.shutdown();
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
    fn kernel_status_failed_surfaces_plan_errors() {
        // Registering with mismatched device sets across ranks is the user's
        // bug; the baseline surfaces it as a failed kernel rather than hanging.
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
        // The peer never launches; abort through the watchdog.
        let outcome = wait_all_or_deadlock(
            std::slice::from_ref(&h),
            &domain.engines(),
            Duration::from_millis(200),
        );
        assert!(outcome.is_deadlock());
        assert_eq!(
            h.wait_timeout(Duration::from_secs(5)),
            KernelStatus::Aborted
        );
        domain.shutdown();
    }
}
