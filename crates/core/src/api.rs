//! The user-facing DFCCL API (Listing 1 of the paper).
//!
//! * [`DfcclDomain`] — cluster-level state shared by all ranks in this
//!   process: topology, link model, one launch engine per GPU device model
//!   and the communicator pool. In the real system this state is implicit in
//!   the machine; here it is explicit so tests and benchmarks can build
//!   arbitrary clusters.
//! * [`RankCtx`] — the per-GPU rank context created by [`dfccl_init`]. It owns
//!   that GPU's daemon state ([`DaemonShared`]: the SQ/CQ pair, the callback
//!   map, the context store). Its daemon kernel runs on the GPU's engine
//!   ([`RankCtx::engine`], where compute kernels run too), and one of the
//!   domain's carrier threads ([`crate::daemon::World`]), shared with other
//!   ranks, steps that engine and runs its poller step.
//! * [`dfccl_register_all_reduce`]-style functions register a collective once;
//!   [`dfccl_run_all_reduce`]-style functions invoke it repeatedly, each time
//!   with a callback that the rank's carrier runs when the collective
//!   completes.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use dfccl_collectives::{
    plan_fusion, validate_buffers, AlgorithmKind, CollectiveDescriptor, CollectiveError,
    CompiledProgram, DataType, DeviceBuffer, GraphOp, Plan, PlanCache, RecordedCollective,
    ReduceOp, FUSED_COLL_ID_BASE,
};
use dfccl_transport::{
    Communicator, CommunicatorPool, ConnectorTable, EdgeSample, FaultInjector, LinkHealth,
    LinkModel, Topology, TransportError,
};
use gpu_sim::{DeviceEngine, GpuDevice, GpuId, GpuSpec, MemoryUsage};
use parking_lot::Mutex;

use crate::callback::{Callback, CallbackMap, CompletionHandle};
use crate::config::DfcclConfig;
use crate::cq::{build_cq, CqKind};
use crate::daemon::{
    CapturedGraph, DaemonShared, GraphNode, RegisteredCollective, World, GRAPH_ID_BASE,
};
use crate::sq::{Sqe, SubmissionQueue};
use crate::telemetry::{CollectiveStats, DaemonStatsSnapshot, TelemetrySnapshot, TenantStats};
use crate::tenant::{AdmissionError, TenantHandle, TenantId, TenantQuota};

/// Global memory the daemon kernel reserves per block for the collective
/// context buffer, bytes (Sec. 6.2: 4 MB for 1,000 registered collectives).
pub(crate) const CONTEXT_BUFFER_PER_BLOCK: usize = 4 * 1024 * 1024;

/// Errors returned by the DFCCL API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfcclError {
    /// The collective id was not registered on this rank.
    NotRegistered(u64),
    /// The collective id was already registered on this rank.
    AlreadyRegistered(u64),
    /// The GPU passed to `dfccl_init` is not part of the domain topology.
    UnknownGpu(GpuId),
    /// This rank's GPU is not in the collective's device set.
    RankNotInDeviceSet { gpu: GpuId, coll_id: u64 },
    /// Two ranks registered the same collective id with different device sets.
    DeviceSetMismatch(u64),
    /// The submission queue is full.
    SubmissionQueueFull,
    /// Typed per-tenant admission backpressure (service mode): the tenant is
    /// at a quota. [`AdmissionError::is_retryable`] distinguishes
    /// backpressure that clears as completions drain (`AtQuota`) from states
    /// needing operator action. Distinct from
    /// [`DfcclError::SubmissionQueueFull`], the rank-wide SQ signal.
    Admission(AdmissionError),
    /// The rank context has been destroyed.
    Destroyed,
    /// The collective id has one of the top two bits set — that space is
    /// reserved for graph replay ids and capture-generated fused collectives.
    ReservedCollectiveId(u64),
    /// A graph capture ended with no recorded collectives.
    EmptyGraph,
    /// The graph already has a replay in flight; its recorded buffers are
    /// fixed addresses, so replays of one graph must not overlap.
    GraphReplayInFlight(u64),
    /// The graph was captured on a different rank; its nodes hold that rank's
    /// connectors and cannot be replayed here.
    GraphForeignRank { gpu: GpuId, graph_id: u64 },
    /// A collective-level validation error.
    Collective(CollectiveError),
    /// A transport-level error.
    Transport(TransportError),
    /// The GPU was removed from the domain's elastic membership
    /// ([`DfcclDomain::remove_rank`]); ranks cannot be initialised on it and
    /// device sets cannot include it until [`DfcclDomain::add_rank`].
    NotMember(GpuId),
    /// The GPU is already a member of the domain.
    AlreadyMember(GpuId),
    /// The GPU cannot be removed while `coll_id` (a collective or an
    /// in-flight graph replay touching it) still has work pending; quiesce
    /// the domain between iterations and retry.
    MembershipBusy {
        /// The GPU whose removal was refused.
        gpu: GpuId,
        /// The collective or graph with in-flight work.
        coll_id: u64,
    },
}

impl std::fmt::Display for DfcclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfcclError::NotRegistered(id) => write!(f, "collective {id} is not registered"),
            DfcclError::AlreadyRegistered(id) => write!(f, "collective {id} is already registered"),
            DfcclError::UnknownGpu(gpu) => write!(f, "{gpu} is not part of the domain topology"),
            DfcclError::RankNotInDeviceSet { gpu, coll_id } => {
                write!(f, "{gpu} is not in the device set of collective {coll_id}")
            }
            DfcclError::DeviceSetMismatch(id) => {
                write!(
                    f,
                    "collective {id} was registered with a different device set elsewhere"
                )
            }
            DfcclError::SubmissionQueueFull => write!(f, "submission queue is full"),
            DfcclError::Admission(e) => write!(f, "{e}"),
            DfcclError::Destroyed => write!(f, "rank context has been destroyed"),
            DfcclError::ReservedCollectiveId(id) => {
                write!(f, "collective id {id:#x} lies in the reserved graph space")
            }
            DfcclError::EmptyGraph => write!(f, "graph capture recorded no collectives"),
            DfcclError::GraphReplayInFlight(id) => {
                write!(f, "graph {id:#x} already has a replay in flight")
            }
            DfcclError::GraphForeignRank { gpu, graph_id } => {
                write!(f, "graph {graph_id:#x} was not captured on {gpu}")
            }
            DfcclError::Collective(e) => write!(f, "{e}"),
            DfcclError::Transport(e) => write!(f, "{e}"),
            DfcclError::NotMember(gpu) => {
                write!(f, "{gpu} was removed from the domain membership")
            }
            DfcclError::AlreadyMember(gpu) => {
                write!(f, "{gpu} is already a member of the domain")
            }
            DfcclError::MembershipBusy { gpu, coll_id } => {
                write!(
                    f,
                    "{gpu} cannot be removed: collective {coll_id} has work in flight"
                )
            }
        }
    }
}

impl std::error::Error for DfcclError {}

impl From<CollectiveError> for DfcclError {
    fn from(e: CollectiveError) -> Self {
        DfcclError::Collective(e)
    }
}

impl From<TransportError> for DfcclError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::DeviceSetMismatch(id) => DfcclError::DeviceSetMismatch(id),
            e => DfcclError::Transport(e),
        }
    }
}

impl From<AdmissionError> for DfcclError {
    fn from(e: AdmissionError) -> Self {
        DfcclError::Admission(e)
    }
}

/// Snapshot of the domain plan cache's counters, as reported by
/// [`DfcclDomain::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found an already-compiled plan.
    pub hits: u64,
    /// Lookups that had to build and compile a plan.
    pub misses: u64,
    /// Distinct shapes currently cached, each holding every member's plan.
    pub size: usize,
}

/// Cluster-level state shared by every rank created in this process.
pub struct DfcclDomain {
    topology: Arc<Topology>,
    pool: Arc<CommunicatorPool>,
    /// One launch engine per GPU, all in one step group as the baseline's.
    engines: HashMap<GpuId, Arc<DeviceEngine>>,
    config: DfcclConfig,
    /// Memoized plan building + compilation, keyed by collective shape.
    /// Repeat registrations of an identical shape (per-layer collectives,
    /// re-registration after teardown) share one `Arc<Plan>` and one
    /// `Arc<CompiledProgram>` and skip plan construction entirely. Safe to
    /// scope to the domain because every cache input besides the key —
    /// topology, chunk granularity — is fixed for the domain's lifetime.
    plan_cache: PlanCache,
    /// Tenant handles minted by this domain: id → quota. Consulted when a
    /// handle is presented at registration time, so a handle forged for (or
    /// minted by) another domain is rejected with `UnknownTenant` instead of
    /// silently creating accounting state.
    tenants: Mutex<HashMap<TenantId, TenantQuota>>,
    next_tenant_id: AtomicU64,
    /// Elastic membership: the GPUs ranks may currently be initialised on
    /// and device sets may currently include. Starts as the full topology;
    /// [`DfcclDomain::remove_rank`] / [`DfcclDomain::add_rank`] shrink and
    /// grow it between iterations (the topology itself never changes — a
    /// removed GPU's links stay modelled, they are just not planned over).
    membership: Mutex<HashSet<GpuId>>,
    /// Weak handles to every rank's daemon-shared state, so membership
    /// changes can sweep registrations and captured graphs across live
    /// ranks without the domain keeping dead ranks alive.
    rank_shareds: Mutex<Vec<(GpuId, Weak<DaemonShared>)>>,
    /// The carrier threads that step every rank's engine and poller.
    world: World,
}

impl DfcclDomain {
    /// Build a domain over an arbitrary topology, link model and GPU spec.
    pub fn new(
        topology: Topology,
        link_model: LinkModel,
        gpu_spec: GpuSpec,
        config: DfcclConfig,
    ) -> Arc<Self> {
        let topology = Arc::new(topology);
        let pool = CommunicatorPool::new(
            Arc::clone(&topology),
            Arc::new(link_model),
            config.connector_capacity,
        );
        let gpus = topology.gpus();
        let devices = gpus.iter().map(|&g| GpuDevice::new(g, gpu_spec.clone()));
        // The carriers step the engines: a wait on one steps nothing.
        let engines = gpus
            .iter()
            .copied()
            .zip(DeviceEngine::carried(devices))
            .collect();
        let membership = topology.gpus().into_iter().collect();
        let world = World::new(topology.gpu_count());
        Arc::new(DfcclDomain {
            topology,
            pool,
            engines,
            config,
            plan_cache: PlanCache::new(),
            tenants: Mutex::new(HashMap::new()),
            next_tenant_id: AtomicU64::new(1),
            membership: Mutex::new(membership),
            rank_shareds: Mutex::new(Vec::new()),
            world,
        })
    }

    /// A flat `n`-GPU domain with zero-cost links — the fastest configuration
    /// for correctness tests and examples.
    pub fn flat_for_testing(n: usize) -> Arc<Self> {
        DfcclDomain::new(
            Topology::flat(n),
            LinkModel::zero_cost(),
            GpuSpec::rtx_3090(),
            DfcclConfig::for_testing(),
        )
    }

    /// The Table 2 single eight-GPU server with the modelled link costs.
    pub fn single_server(config: DfcclConfig) -> Arc<Self> {
        DfcclDomain::new(
            Topology::single_server(),
            LinkModel::table2_testbed(),
            GpuSpec::rtx_3090(),
            config,
        )
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DfcclConfig {
        &self.config
    }

    /// The topology of the domain.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The carriers, for tests that hold them ([`World::hold`]).
    #[cfg(test)]
    pub(crate) fn world(&self) -> &World {
        &self.world
    }

    /// Carrier threads started and not joined yet.
    pub fn carrier_threads(&self) -> usize {
        self.world.threads()
    }

    /// The domain's plan cache (hit/miss counters are exposed for tests and
    /// the registration benchmarks).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Hit/miss/size counters of the domain plan cache, in one consistent-ish
    /// snapshot (the counters are independent atomics, so a concurrent
    /// registration may skew them by one — fine for benchmarks and tests).
    pub fn cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.plan_cache.hits(),
            misses: self.plan_cache.misses(),
            size: self.plan_cache.len(),
        }
    }

    /// Mint a tenant handle with `quota`. Collectives registered through
    /// [`RankCtx::register_for`] with this handle are admitted, scheduled and
    /// accounted under it on every rank of the domain. Ids are unique within
    /// the domain; the implicit default tenant (`TenantId::DEFAULT`) carries
    /// the unlimited [`TenantQuota::default`] and is what plain
    /// [`RankCtx::register`] uses.
    pub fn tenant(&self, quota: TenantQuota) -> TenantHandle {
        let id = TenantId(self.next_tenant_id.fetch_add(1, Ordering::Relaxed) as u32);
        self.tenants.lock().insert(id, quota);
        TenantHandle { id, quota }
    }

    fn tenant_quota(&self, id: TenantId) -> Option<TenantQuota> {
        if id == TenantId::DEFAULT {
            return Some(TenantQuota::default());
        }
        self.tenants.lock().get(&id).copied()
    }

    /// The domain's fault injector: every connector of every communicator the
    /// domain allocates consults it, so scripting an edge here affects all
    /// collectives crossing that edge.
    pub fn fault_injector(&self) -> Arc<FaultInjector> {
        Arc::clone(self.pool.fault_injector())
    }

    /// The domain's link-health map: a connector whose label is quarantined
    /// here is rerouted onto a spare lane of the same link when the mesh
    /// wires it, whatever family its plan runs. Plan selection never reads
    /// it. Healthy domains never mutate it, so the fast paths stay
    /// branch-predictable.
    pub fn link_health(&self) -> Arc<LinkHealth> {
        Arc::clone(self.pool.link_health())
    }

    /// The GPUs currently in the elastic membership, sorted.
    pub fn members(&self) -> Vec<GpuId> {
        let mut members: Vec<GpuId> = self.membership.lock().iter().copied().collect();
        members.sort();
        members
    }

    /// Reject device sets that reach outside the current membership.
    fn require_members(&self, devices: &[GpuId]) -> Result<(), DfcclError> {
        let membership = self.membership.lock();
        match devices.iter().find(|d| !membership.contains(d)) {
            Some(&gone) => Err(DfcclError::NotMember(gone)),
            None => Ok(()),
        }
    }

    /// Shrink the elastic membership: remove `gpu` from the domain between
    /// iterations. Refused with [`DfcclError::MembershipBusy`] while any
    /// collective or in-flight graph replay touching the GPU still has work
    /// pending (quiesce first). On success, every registration and captured
    /// graph whose device set includes the GPU is dropped on every live rank
    /// (their tenants' residency is released), intersecting plan-cache
    /// shapes are invalidated, and the communicators touching the GPU are
    /// forgotten. Returns the number of registrations dropped.
    pub fn remove_rank(&self, gpu: GpuId) -> Result<usize, DfcclError> {
        if !self.topology.contains(gpu) {
            return Err(DfcclError::UnknownGpu(gpu));
        }
        if !self.membership.lock().contains(&gpu) {
            return Err(DfcclError::NotMember(gpu));
        }
        let shareds: Vec<Arc<DaemonShared>> = {
            let mut ranks = self.rank_shareds.lock();
            ranks.retain(|(_, weak)| weak.strong_count() > 0);
            ranks
                .iter()
                .filter_map(|(_, weak)| weak.upgrade())
                .collect()
        };
        // Validate quiescence first so a refused removal leaves no partial
        // state behind. An invocation is in flight from `run` until its
        // callback is taken — an SQE the daemon has not fetched yet included
        // — and a recovery ghost replay (which has no callback) while its
        // context is pending.
        for shared in &shareds {
            for (&coll_id, reg) in shared.registered.read().iter() {
                let busy = shared.callbacks.is_bound(coll_id)
                    || shared.contexts.has_pending(coll_id)
                    || shared.contexts.in_slice(coll_id);
                if reg.desc.devices.contains(&gpu) && busy {
                    return Err(DfcclError::MembershipBusy { gpu, coll_id });
                }
            }
            for graph in shared.graphs.read().values() {
                let touches = graph
                    .nodes
                    .iter()
                    .any(|n| n.reg.desc.devices.contains(&gpu));
                if touches && graph.in_flight.load(Ordering::Acquire) {
                    return Err(DfcclError::MembershipBusy {
                        gpu,
                        coll_id: graph.graph_id,
                    });
                }
            }
        }
        let mut removed = 0;
        for shared in &shareds {
            let mut dropped: Vec<TenantId> = Vec::new();
            shared.registered.write().retain(|_, reg| {
                if reg.desc.devices.contains(&gpu) {
                    dropped.push(reg.tenant);
                    false
                } else {
                    true
                }
            });
            if !dropped.is_empty() {
                for tenant in &dropped {
                    shared.tenants.state(*tenant).on_unregister();
                }
                shared.bump_registry_generation();
                removed += dropped.len();
            }
            // Captured graphs whose device sets intersect the change hold
            // pre-resolved registrations; drop them so a later capture
            // rebuilds against the shrunk domain.
            shared
                .graphs
                .write()
                .retain(|_, g| !g.nodes.iter().any(|n| n.reg.desc.devices.contains(&gpu)));
        }
        self.plan_cache.invalidate_device(gpu);
        self.pool.forget_device(gpu);
        self.membership.lock().remove(&gpu);
        Ok(removed)
    }

    /// Grow the elastic membership back: re-admit `gpu` (which must be part
    /// of the topology). Communicator meshes and plans over the restored
    /// GPU are rebuilt lazily at the next registration.
    pub fn add_rank(&self, gpu: GpuId) -> Result<(), DfcclError> {
        if !self.topology.contains(gpu) {
            return Err(DfcclError::UnknownGpu(gpu));
        }
        if !self.membership.lock().insert(gpu) {
            return Err(DfcclError::AlreadyMember(gpu));
        }
        Ok(())
    }

    /// Per-edge progress samples over every communicator the domain has
    /// allocated, stamped with the owning collective id and sorted by
    /// `(coll_id, edge)` — the probe fed to the failure-aware watchdog.
    pub fn edge_samples(&self) -> Vec<EdgeSample> {
        self.pool.edge_samples()
    }

    /// Initialise a rank context for `gpu` (the `dfcclInit` call).
    pub fn init_rank(self: &Arc<Self>, gpu: GpuId) -> Result<RankCtx, DfcclError> {
        let engine = self.engines.get(&gpu).ok_or(DfcclError::UnknownGpu(gpu))?;
        let index = self.topology.gpus().iter().position(|&g| g == gpu);
        let carrier = self
            .world
            .carrier(index.ok_or(DfcclError::UnknownGpu(gpu))?);
        if !self.membership.lock().contains(&gpu) {
            return Err(DfcclError::NotMember(gpu));
        }
        let config = self.config.clone();
        let sq = Arc::new(SubmissionQueue::with_costs(
            config.sq_capacity,
            1,
            config.host_costs,
        ));
        let cq: Arc<CqKind> = Arc::new(build_cq(
            config.cq_variant,
            config.cq_capacity,
            config.host_costs,
        ));
        let shared = DaemonShared::new(
            gpu,
            Arc::clone(engine),
            config.clone(),
            sq,
            cq,
            CallbackMap::new(),
            Arc::clone(carrier),
        );
        // Account for the daemon kernel's global-memory footprint (collective
        // context buffer per block, plus the completion counters and other
        // shared bookkeeping — 11 KB in the paper).
        let context_buffer = engine
            .device()
            .alloc_global(CONTEXT_BUFFER_PER_BLOCK * config.daemon_blocks as usize + 11 * 1024)
            .ok();
        // Track the rank for elastic-membership sweeps (pruning entries
        // whose shared state is gone keeps the registry bounded).
        {
            let mut ranks = self.rank_shareds.lock();
            ranks.retain(|(_, weak)| weak.strong_count() > 0);
            ranks.push((gpu, Arc::downgrade(&shared)));
        }
        shared.attach();
        Ok(RankCtx {
            domain: Arc::clone(self),
            gpu,
            shared,
            next_seq: Mutex::new(0),
            next_graph_id: AtomicU64::new(1),
            destroyed: AtomicBool::new(false),
            _context_buffer: context_buffer,
        })
    }
}

/// The per-GPU rank context (`rankCtx_t` in Listing 1).
pub struct RankCtx {
    domain: Arc<DfcclDomain>,
    gpu: GpuId,
    shared: Arc<DaemonShared>,
    /// Sequence number of the next SQE. Its lock is held across each push:
    /// the SQ has a single producer, and two threads pushing at once could
    /// both claim one slot, losing an SQE or reporting a spurious full SQ.
    next_seq: Mutex<u64>,
    next_graph_id: AtomicU64,
    destroyed: AtomicBool,
    _context_buffer: Option<gpu_sim::device::GlobalAllocation>,
}

impl RankCtx {
    /// The GPU this rank runs on.
    pub fn gpu(&self) -> GpuId {
        self.gpu
    }

    /// The domain this rank belongs to.
    pub fn domain(&self) -> &Arc<DfcclDomain> {
        &self.domain
    }

    /// The launch engine of this rank's GPU, which runs its daemon kernel:
    /// compute kernels launched here share the daemon's slots and barriers.
    /// The domain's carriers step it, so a wait on a kernel launched here
    /// sleeps until a carrier has run it.
    pub fn engine(&self) -> &Arc<DeviceEngine> {
        &self.shared.engine
    }

    fn check_alive(&self) -> Result<(), DfcclError> {
        if self.destroyed.load(Ordering::Acquire) {
            Err(DfcclError::Destroyed)
        } else {
            Ok(())
        }
    }

    /// Register a collective described by `desc` under `coll_id`
    /// (the `dfcclRegister*` family). Registration may also happen during
    /// runtime, after other collectives have already run. Ids with either of
    /// the top two bits set are reserved for graph replays and
    /// capture-generated fused collectives and are rejected here.
    pub fn register(&self, coll_id: u64, desc: CollectiveDescriptor) -> Result<(), DfcclError> {
        if coll_id & (GRAPH_ID_BASE | FUSED_COLL_ID_BASE) != 0 {
            return Err(DfcclError::ReservedCollectiveId(coll_id));
        }
        self.register_resolved(coll_id, desc, TenantId::DEFAULT)
            .map(|_| ())
    }

    /// Register a collective under a tenant minted by
    /// [`DfcclDomain::tenant`]. The collective counts against the tenant's
    /// residency budget now and against its outstanding quota on every
    /// [`RankCtx::run`], and is scheduled in the tenant's own lane by the
    /// service-mode arbiter. A handle not minted by this domain is rejected
    /// with [`AdmissionError::UnknownTenant`].
    pub fn register_for(
        &self,
        tenant: &TenantHandle,
        coll_id: u64,
        desc: CollectiveDescriptor,
    ) -> Result<(), DfcclError> {
        if coll_id & (GRAPH_ID_BASE | FUSED_COLL_ID_BASE) != 0 {
            return Err(DfcclError::ReservedCollectiveId(coll_id));
        }
        match self.domain.tenant_quota(tenant.id()) {
            Some(quota) if quota == tenant.quota() => {}
            _ => {
                return Err(DfcclError::Admission(AdmissionError::UnknownTenant(
                    tenant.id(),
                )))
            }
        }
        // Materialise the rank-side accounting state with the handle's quota
        // before admission, so the first registration is checked against it.
        self.shared.tenants.state_for(tenant);
        self.register_resolved(coll_id, desc, tenant.id())
            .map(|_| ())
    }

    /// The shared registration path: validates, compiles (through the plan
    /// cache), binds connectors and publishes the registration, returning the
    /// resolved [`RegisteredCollective`]. Used by both [`RankCtx::register`]
    /// and the capture path, which registers fused collectives in the
    /// reserved id space.
    fn register_resolved(
        &self,
        coll_id: u64,
        desc: CollectiveDescriptor,
        tenant: TenantId,
    ) -> Result<Arc<RegisteredCollective>, DfcclError> {
        self.check_alive()?;
        desc.validate()?;
        self.domain.require_members(&desc.devices)?;
        if self.shared.registered.read().contains_key(&coll_id) {
            return Err(DfcclError::AlreadyRegistered(coll_id));
        }
        let rank = desc.devices.iter().position(|&d| d == self.gpu).ok_or(
            DfcclError::RankNotInDeviceSet {
                gpu: self.gpu,
                coll_id,
            },
        )?;
        let communicator = self.domain.pool.communicator_for(coll_id, &desc.devices)?;
        let reg = self.plan_and_bind(coll_id, desc, rank, tenant, communicator)?;
        // Admission: the residency check is the last fallible step, so a
        // rejected registration leaves no partial state behind (connectors
        // bound above are shared, communicator allocation is idempotent).
        self.shared.tenants.state(tenant).try_admit_register()?;
        let reg = Arc::new(reg);
        self.shared
            .registered
            .write()
            .insert(coll_id, Arc::clone(&reg));
        // Invalidate the daemon's lock-free registry cache.
        self.shared.bump_registry_generation();
        Ok(reg)
    }

    /// Plan-and-bind for registration: select and compile `desc`'s plan for
    /// `rank` through the domain's plan cache, then bind it to
    /// `communicator`'s mesh ([`bind_table`]). Returns the unpublished
    /// registration.
    fn plan_and_bind(
        &self,
        coll_id: u64,
        desc: CollectiveDescriptor,
        rank: usize,
        tenant: TenantId,
        communicator: Arc<Communicator>,
    ) -> Result<RegisteredCollective, DfcclError> {
        let domain = &self.domain;
        let cached = domain.plan_cache.get_or_compile(
            &domain.config.algorithm_selector(),
            &desc,
            rank,
            domain.config.chunk_elems,
            domain.topology(),
        )?;
        let table = bind_table(&communicator, rank, &cached.plan, &cached.program)?;
        Ok(RegisteredCollective {
            coll_id,
            desc,
            rank,
            tenant,
            communicator,
            plan: cached.plan,
            program: cached.program,
            table,
        })
    }

    /// Resolve (registering on first use) the fused collective a capture
    /// produced. Fused ids are deterministic functions of their first
    /// constituent, so a later capture of the same step finds the id already
    /// registered: reuse it when the descriptor matches, reject the capture
    /// when it does not (same leading collective fused into a different
    /// bucket — replaying both graphs would disagree about the wire format).
    fn resolve_fused(
        &self,
        coll_id: u64,
        desc: &CollectiveDescriptor,
        tenant: TenantId,
    ) -> Result<Arc<RegisteredCollective>, DfcclError> {
        if let Some(existing) = self.shared.registered.read().get(&coll_id) {
            if existing.desc == *desc {
                return Ok(Arc::clone(existing));
            }
            return Err(DfcclError::AlreadyRegistered(coll_id));
        }
        self.register_resolved(coll_id, desc.clone(), tenant)
    }

    /// Register an all-reduce (`dfcclRegisterAllReduce`).
    pub fn register_all_reduce(
        &self,
        coll_id: u64,
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        devices: Vec<GpuId>,
        priority: i32,
    ) -> Result<(), DfcclError> {
        self.register(
            coll_id,
            CollectiveDescriptor::all_reduce(count, dtype, op, devices).with_priority(priority),
        )
    }

    /// Register an all-reduce under a tenant handle (service mode).
    #[allow(clippy::too_many_arguments)]
    pub fn register_all_reduce_for(
        &self,
        tenant: &TenantHandle,
        coll_id: u64,
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        devices: Vec<GpuId>,
        priority: i32,
    ) -> Result<(), DfcclError> {
        self.register_for(
            tenant,
            coll_id,
            CollectiveDescriptor::all_reduce(count, dtype, op, devices).with_priority(priority),
        )
    }

    /// Register an all-to-all (`count` elements per rank pair): the dense-mesh
    /// collective behind MoE expert parallelism.
    pub fn register_all_to_all(
        &self,
        coll_id: u64,
        count: usize,
        dtype: DataType,
        devices: Vec<GpuId>,
        priority: i32,
    ) -> Result<(), DfcclError> {
        self.register(
            coll_id,
            CollectiveDescriptor::all_to_all(count, dtype, devices).with_priority(priority),
        )
    }

    /// Register a point-to-point transfer of `count` elements from `src` to
    /// `dst`. Both endpoints register the same id; the daemon schedules it
    /// like any other collective (preemptible, priority-ordered).
    pub fn register_send_recv(
        &self,
        coll_id: u64,
        count: usize,
        dtype: DataType,
        src: GpuId,
        dst: GpuId,
        priority: i32,
    ) -> Result<(), DfcclError> {
        self.register(
            coll_id,
            CollectiveDescriptor::send_recv(count, dtype, src, dst).with_priority(priority),
        )
    }

    /// Invoke a registered collective (`dfcclRun*`). The callback runs on the
    /// rank's carrier once the collective completes on this rank (see
    /// [`Callback`]: it must not block).
    pub fn run(
        &self,
        coll_id: u64,
        send: DeviceBuffer,
        recv: DeviceBuffer,
        callback: Callback,
    ) -> Result<(), DfcclError> {
        self.check_alive()?;
        let reg = self
            .shared
            .registered
            .read()
            .get(&coll_id)
            .cloned()
            .ok_or(DfcclError::NotRegistered(coll_id))?;
        validate_buffers(&reg.desc, reg.rank, &send, &recv)?;
        self.submit(reg.tenant, coll_id, send, recv, callback)
    }

    /// The submission path of [`RankCtx::run`] and [`RankCtx::replay`]: admit
    /// against `tenant`'s outstanding quota first (typed, retryable
    /// backpressure with nothing bound or queued), then bind the callback,
    /// count the invocation owed and push its SQE, rolling all three back on
    /// a full SQ; the push is recorded as `Submit` if the SQE became visible,
    /// which rings the carrier.
    fn submit(
        &self,
        tenant: TenantId,
        coll_id: u64,
        send: DeviceBuffer,
        recv: DeviceBuffer,
        callback: Callback,
    ) -> Result<(), DfcclError> {
        let admitted = self.shared.tenants.state(tenant);
        admitted.try_admit_run()?;
        let bind_token = self.shared.callbacks.bind(coll_id, callback);
        self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
        let pushed = {
            let mut next_seq = self.next_seq.lock();
            // For a graph replay `seq` doubles as the run number: the daemon
            // keys the run's countdown state by (graph_id, seq).
            let sqe = Sqe {
                coll_id,
                seq: *next_seq,
                send,
                recv,
                exit: false,
            };
            *next_seq += 1;
            self.shared
                .telemetry
                .record_submit(coll_id, tenant, || self.shared.sq.try_push(sqe))
        };
        if pushed.is_err() {
            self.shared.outstanding.fetch_sub(1, Ordering::AcqRel);
            // Drop exactly the callback we just bound so it does not fire
            // spuriously; other in-flight invocations of the same collective
            // (from this or any other thread) keep theirs.
            let _ = self.shared.callbacks.unbind(coll_id, bind_token);
            admitted.release_run();
            return Err(DfcclError::SubmissionQueueFull);
        }
        self.shared.notify_daemon();
        Ok(())
    }

    /// Invoke a registered collective and get a waitable handle back.
    pub fn run_awaitable(
        &self,
        coll_id: u64,
        send: DeviceBuffer,
        recv: DeviceBuffer,
    ) -> Result<CompletionHandle, DfcclError> {
        let handle = CompletionHandle::new();
        self.run(coll_id, send, recv, handle.completion_callback())?;
        Ok(handle)
    }

    /// The rank's daemon-shared state (recovery-coordinator plumbing).
    pub(crate) fn shared_state(&self) -> &Arc<DaemonShared> {
        &self.shared
    }

    /// Recovery's rebind: bind a registered collective's own plan to its
    /// communicator's mesh again and swap the registration in place. The
    /// coordinator purged the connectors on quarantined labels, so the ones
    /// the plan addresses come back rerouted. Same id, tenant, plan and
    /// family; no plan-cache lookup and no residency re-charge — the
    /// caller's handle to the collective is untouched.
    pub(crate) fn rebind_for_recovery(&self, coll_id: u64) -> Result<(), DfcclError> {
        let old = self
            .shared
            .registered
            .read()
            .get(&coll_id)
            .cloned()
            .ok_or(DfcclError::NotRegistered(coll_id))?;
        let reg = RegisteredCollective {
            table: bind_table(&old.communicator, old.rank, &old.plan, &old.program)?,
            ..RegisteredCollective::clone(&old)
        };
        self.shared
            .registered
            .write()
            .insert(coll_id, Arc::new(reg));
        self.shared.bump_registry_generation();
        Ok(())
    }

    /// Start capturing an iteration graph: record the step's collective
    /// invocations once with [`GraphRecorder::record`], then
    /// [`GraphRecorder::finish`] compiles them (including the all-reduce
    /// fusion pass) into an immutable [`CapturedGraph`] that
    /// [`RankCtx::replay`] submits whole.
    pub fn begin_capture(&self) -> Result<GraphRecorder<'_>, DfcclError> {
        self.check_alive()?;
        Ok(GraphRecorder {
            ctx: self,
            records: Vec::new(),
        })
    }

    /// Replay a captured graph: one SQE submission, one completion callback
    /// for the whole iteration. The buffers are the ones recorded at capture
    /// time, so a graph admits at most one replay in flight
    /// ([`DfcclError::GraphReplayInFlight`] otherwise).
    pub fn replay(&self, graph: &Arc<CapturedGraph>, callback: Callback) -> Result<(), DfcclError> {
        self.check_alive()?;
        if graph.gpu != self.gpu {
            return Err(DfcclError::GraphForeignRank {
                gpu: self.gpu,
                graph_id: graph.graph_id,
            });
        }
        if graph
            .in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(DfcclError::GraphReplayInFlight(graph.graph_id));
        }
        let empty = || DeviceBuffer::zeroed(0);
        let submitted = self.submit(graph.tenant(), graph.graph_id, empty(), empty(), callback);
        if submitted.is_err() {
            graph.in_flight.store(false, Ordering::Release);
        }
        submitted
    }

    /// Replay a captured graph and get a waitable handle back. The handle
    /// completes once — when every node of the graph has completed.
    pub fn replay_awaitable(
        &self,
        graph: &Arc<CapturedGraph>,
    ) -> Result<CompletionHandle, DfcclError> {
        let handle = CompletionHandle::new();
        self.replay(graph, handle.completion_callback())?;
        Ok(handle)
    }

    /// A `cudaDeviceSynchronize()`: issue the engine's barrier and wait for
    /// it without stepping (a zero `timeout` only issues it); the carrier
    /// steps, and the daemon quits voluntarily so that it drains.
    pub fn device_synchronize(&self, timeout: Duration) -> bool {
        self.engine().synchronize_timeout(Some(timeout))
    }

    /// The algorithm the selector chose for a registered collective.
    pub fn algorithm_of(&self, coll_id: u64) -> Option<AlgorithmKind> {
        self.shared
            .registered
            .read()
            .get(&coll_id)
            .map(|r| r.plan.algorithm)
    }

    /// The number of parallel channels a registered collective's compiled
    /// plan actually stripes across (at most the configured K, 2K for the
    /// hierarchical family's two lanes, or `(n-1)K` for an all-to-all's
    /// per-peer lanes; fewer when the payload has fewer chunks than
    /// channels).
    pub fn channels_of(&self, coll_id: u64) -> Option<usize> {
        self.shared
            .registered
            .read()
            .get(&coll_id)
            .map(|r| r.plan.channel_count())
    }

    /// Aggregate daemon statistics for this rank (sums over its ledger).
    pub fn stats(&self) -> DaemonStatsSnapshot {
        self.shared.telemetry.daemon_stats()
    }

    /// The modelled context load and save time this rank's ledger accrued
    /// (Fig. 11 data; the time is modelled, so no wall clock carries it).
    pub fn modelled_context_time(&self) -> Duration {
        self.shared.telemetry.modelled_context_time()
    }

    /// Per-collective statistics for this rank (Fig. 11 data).
    pub fn per_collective_stats(&self) -> HashMap<u64, CollectiveStats> {
        self.shared.telemetry.per_collective()
    }

    /// This rank's preemptions per logical daemon block (the Sec. 6.1
    /// metric; see [`DaemonStatsSnapshot::preemptions_per_block`]).
    pub fn preemptions_per_block(&self) -> f64 {
        self.stats()
            .preemptions_per_block(self.domain.config.daemon_blocks)
    }

    /// Memory usage of this rank's GPU (Sec. 6.2 accounting).
    pub fn memory_usage(&self) -> MemoryUsage {
        self.engine().device().memory_usage()
    }

    /// Errors recorded against collectives on this rank (empty in healthy runs).
    pub fn collective_errors(&self) -> HashMap<u64, String> {
        self.shared.errors.lock().clone()
    }

    /// Export this rank's telemetry: lifecycle counters, the retained event
    /// ring, and per-edge link samples of every collective registered on this
    /// rank (stamped with the collective id, sorted by `(coll_id, edge)`).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut edges = Vec::new();
        for (&coll_id, reg) in self.shared.registered.read().iter() {
            for mut s in reg.communicator.edge_samples() {
                s.coll_id = Some(coll_id);
                edges.push(s);
            }
        }
        edges.sort_by_key(|a| (a.coll_id, a.edge));
        self.shared.telemetry.snapshot(edges, &self.shared.tenants)
    }

    /// Per-tenant accounting on this rank — the service-mode analogue of
    /// [`DfcclDomain::cache_stats`]: task-queue depth (current and
    /// high-water), outstanding invocations, registered collectives and
    /// lifecycle counters, sorted by tenant id. Also embedded in
    /// [`RankCtx::telemetry`] snapshots.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        self.shared.telemetry.tenant_stats(&self.shared.tenants)
    }

    /// Number of invocations submitted but not yet completed on this rank.
    pub fn outstanding(&self) -> u64 {
        self.shared.outstanding()
    }

    /// Destroy the rank context (`dfcclDestroy`): inserts the exiting SQE,
    /// waits for the daemon kernel to drain what is owed and exit and for the
    /// rank's last callback, and leaves the carrier (see
    /// [`DaemonShared::shut_down`]).
    pub fn destroy(&self) {
        if self.destroyed.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut next_seq = self.next_seq.lock();
            // A full SQ refuses the marker; `shut_down` sets the same exit flag.
            let _ = self.shared.sq.try_push(Sqe::exit_marker(*next_seq));
            *next_seq += 1;
        }
        self.shared.shut_down();
    }
}

impl Drop for RankCtx {
    /// [`RankCtx::destroy`], but only asks while the thread unwinds: a
    /// wedged collective would keep the rank owing work forever.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.destroy();
        } else if !self.destroyed.swap(true, Ordering::AcqRel) {
            self.shared.leave();
        }
    }
}

/// Records one iteration's collective invocations for graph replay.
///
/// Created by [`RankCtx::begin_capture`]. Each [`GraphRecorder::record`] call
/// is validated exactly like [`RankCtx::run`] (registration + buffer sizes)
/// but submits nothing; [`GraphRecorder::finish`] runs the fusion pass over
/// the recorded sequence, pre-resolves every node's registration and connector
/// table, and publishes the immutable [`CapturedGraph`] to the daemon.
pub struct GraphRecorder<'a> {
    ctx: &'a RankCtx,
    records: Vec<RecordedCollective>,
}

impl GraphRecorder<'_> {
    /// Record one invocation of registered collective `coll_id` with the
    /// buffers every replay of the graph will use.
    pub fn record(
        &mut self,
        coll_id: u64,
        send: DeviceBuffer,
        recv: DeviceBuffer,
    ) -> Result<(), DfcclError> {
        self.ctx.check_alive()?;
        let reg = self
            .ctx
            .shared
            .registered
            .read()
            .get(&coll_id)
            .cloned()
            .ok_or(DfcclError::NotRegistered(coll_id))?;
        validate_buffers(&reg.desc, reg.rank, &send, &recv)?;
        self.records.push(RecordedCollective {
            coll_id,
            desc: reg.desc.clone(),
            send,
            recv,
        });
        Ok(())
    }

    /// Number of collectives recorded so far (before fusion).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Compile the recorded sequence into a replayable graph.
    ///
    /// Runs the fusion pass (consecutive compatible all-reduces fill buckets
    /// of at most `fusion_threshold_bytes` each, see
    /// [`dfccl_collectives::plan_fusion`]), registers each fused collective
    /// under its deterministic reserved id — every rank capturing the same
    /// step derives the same id, so the fused communicators line up across
    /// ranks without coordination — and resolves every node's registration so
    /// replay touches neither the registry write lock nor the plan cache.
    pub fn finish(self) -> Result<Arc<CapturedGraph>, DfcclError> {
        let ctx = self.ctx;
        ctx.check_alive()?;
        if self.records.is_empty() {
            return Err(DfcclError::EmptyGraph);
        }
        let threshold = ctx.domain.config.fusion_threshold_bytes;
        let ops = plan_fusion(self.records, threshold);
        let mut nodes = Vec::with_capacity(ops.len());
        for op in ops {
            let coll_id = op.coll_id();
            let reg = match &op {
                GraphOp::Single(_) => ctx
                    .shared
                    .registered
                    .read()
                    .get(&coll_id)
                    .cloned()
                    .ok_or(DfcclError::NotRegistered(coll_id))?,
                GraphOp::Fused(fused) => {
                    // A fused bucket inherits the tenant of its first member:
                    // fusion only groups consecutive same-shape collectives,
                    // and a tenant's iteration step is captured as one graph.
                    let tenant = fused
                        .segments
                        .first()
                        .and_then(|seg| {
                            ctx.shared
                                .registered
                                .read()
                                .get(&seg.coll_id)
                                .map(|r| r.tenant)
                        })
                        .unwrap_or(TenantId::DEFAULT);
                    ctx.resolve_fused(coll_id, &fused.desc, tenant)?
                }
            };
            nodes.push(GraphNode { op, reg });
        }
        let graph_id = GRAPH_ID_BASE | ctx.next_graph_id.fetch_add(1, Ordering::Relaxed);
        let graph = Arc::new(CapturedGraph {
            graph_id,
            gpu: ctx.gpu,
            nodes,
            in_flight: AtomicBool::new(false),
        });
        ctx.shared
            .graphs
            .write()
            .insert(graph_id, Arc::clone(&graph));
        Ok(graph)
    }
}

/// Bind `rank`'s compiled `program` to exactly the connectors its `plan`
/// addresses in `communicator`'s mesh. The mesh wires a quarantined label
/// onto a spare lane ([`LinkHealth::reroute`]), so this is where a plan is
/// routed around a dead edge, at registration and at recovery's rebind.
fn bind_table(
    communicator: &Communicator,
    rank: usize,
    plan: &Plan,
    program: &CompiledProgram,
) -> Result<ConnectorTable, DfcclError> {
    let channels = communicator.channels(rank, plan.send_edges(), plan.recv_edges())?;
    Ok(program.bind(&channels)?)
}

// ---------------------------------------------------------------------------
// Free functions mirroring Listing 1.
// ---------------------------------------------------------------------------

/// `dfcclInit`: initialise the rank context of a GPU.
pub fn dfccl_init(domain: &Arc<DfcclDomain>, gpu: GpuId) -> Result<RankCtx, DfcclError> {
    domain.init_rank(gpu)
}

/// `dfcclRegisterAllReduce`: register an all-reduce and prepare its data structures.
#[allow(clippy::too_many_arguments)]
pub fn dfccl_register_all_reduce(
    ctx: &RankCtx,
    count: usize,
    dtype: DataType,
    op: ReduceOp,
    coll_id: u64,
    devices: Vec<GpuId>,
    priority: i32,
) -> Result<(), DfcclError> {
    ctx.register_all_reduce(coll_id, count, dtype, op, devices, priority)
}

/// `dfcclRunAllReduce`: invoke a registered all-reduce with a completion callback.
pub fn dfccl_run_all_reduce(
    ctx: &RankCtx,
    send: DeviceBuffer,
    recv: DeviceBuffer,
    coll_id: u64,
    callback: Callback,
) -> Result<(), DfcclError> {
    ctx.run(coll_id, send, recv, callback)
}

/// `dfcclDestroy`: destroy the rank context and release its resources.
pub fn dfccl_destroy(ctx: RankCtx) {
    ctx.destroy();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetryEventKind;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn init_rejects_unknown_gpu() {
        let domain = DfcclDomain::flat_for_testing(2);
        assert!(matches!(
            domain.init_rank(GpuId(9)),
            Err(DfcclError::UnknownGpu(GpuId(9)))
        ));
    }

    #[test]
    fn register_validates_membership_and_duplicates() {
        let domain = DfcclDomain::flat_for_testing(4);
        let ctx = domain.init_rank(GpuId(0)).unwrap();
        ctx.register_all_reduce(1, 16, DataType::F32, ReduceOp::Sum, gpus(4), 0)
            .unwrap();
        assert!(matches!(
            ctx.register_all_reduce(1, 16, DataType::F32, ReduceOp::Sum, gpus(4), 0),
            Err(DfcclError::AlreadyRegistered(1))
        ));
        assert!(matches!(
            ctx.register_all_reduce(
                2,
                16,
                DataType::F32,
                ReduceOp::Sum,
                vec![GpuId(1), GpuId(2)],
                0
            ),
            Err(DfcclError::RankNotInDeviceSet { .. })
        ));
        ctx.destroy();
    }

    #[test]
    fn mismatched_device_sets_for_same_id_are_rejected() {
        let domain = DfcclDomain::flat_for_testing(4);
        let ctx0 = domain.init_rank(GpuId(0)).unwrap();
        let ctx1 = domain.init_rank(GpuId(1)).unwrap();
        ctx0.register_all_reduce(7, 8, DataType::F32, ReduceOp::Sum, gpus(4), 0)
            .unwrap();
        let err = ctx1
            .register_all_reduce(
                7,
                8,
                DataType::F32,
                ReduceOp::Sum,
                vec![GpuId(1), GpuId(0)],
                0,
            )
            .unwrap_err();
        assert_eq!(err, DfcclError::DeviceSetMismatch(7));
        ctx0.destroy();
        ctx1.destroy();
    }

    #[test]
    fn run_requires_registration_and_valid_buffers() {
        let domain = DfcclDomain::flat_for_testing(2);
        let ctx = domain.init_rank(GpuId(0)).unwrap();
        let send = DeviceBuffer::from_f32(&[1.0; 8]);
        let recv = DeviceBuffer::zeroed(32);
        assert!(matches!(
            ctx.run_awaitable(5, send.clone(), recv.clone()),
            Err(DfcclError::NotRegistered(5))
        ));
        ctx.register_all_reduce(5, 8, DataType::F32, ReduceOp::Sum, gpus(2), 0)
            .unwrap();
        let tiny = DeviceBuffer::zeroed(4);
        assert!(matches!(
            ctx.run_awaitable(5, send, tiny),
            Err(DfcclError::Collective(
                CollectiveError::BufferSizeMismatch { .. }
            ))
        ));
        ctx.destroy();
    }

    #[test]
    fn two_rank_all_reduce_end_to_end() {
        let domain = DfcclDomain::flat_for_testing(2);
        let count = 64;
        let mut ranks = Vec::new();
        for g in 0..2 {
            let ctx = domain.init_rank(GpuId(g)).unwrap();
            ctx.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, gpus(2), 0)
                .unwrap();
            ranks.push(ctx);
        }
        let mut handles = Vec::new();
        let mut recvs = Vec::new();
        for (g, ctx) in ranks.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&vec![(g + 1) as f32; count]);
            let recv = DeviceBuffer::zeroed(count * 4);
            recvs.push(recv.clone());
            handles.push(ctx.run_awaitable(1, send, recv).unwrap());
        }
        for h in &handles {
            assert!(
                h.wait_for_timeout(1, Duration::from_secs(20)),
                "all-reduce timed out"
            );
        }
        for recv in &recvs {
            assert_eq!(recv.to_f32_vec(), vec![3.0f32; count]);
        }
        for ctx in &ranks {
            assert!(ctx.collective_errors().is_empty());
            assert_eq!(ctx.outstanding(), 0);
        }
        for ctx in ranks {
            ctx.destroy();
        }
    }

    #[test]
    fn four_rank_all_to_all_end_to_end() {
        // The dense-mesh collective through the full daemon stack: every rank
        // submits once, every rank ends up with the transposed slices, and the
        // selector picked the pairwise family without any override.
        let domain = DfcclDomain::flat_for_testing(4);
        let n = 4;
        let count = 8; // elements per (rank, peer) pair
        let ranks: Vec<_> = (0..n)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for ctx in &ranks {
            ctx.register_all_to_all(1, count, DataType::F32, gpus(n), 0)
                .unwrap();
            assert_eq!(
                ctx.algorithm_of(1),
                Some(AlgorithmKind::Pairwise),
                "selector must route all-to-all to the pairwise family"
            );
        }
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..count * n).map(|i| (1000 * r + i) as f32).collect())
            .collect();
        let mut handles = Vec::new();
        let mut recvs = Vec::new();
        for (g, ctx) in ranks.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&inputs[g]);
            let recv = DeviceBuffer::zeroed(count * n * 4);
            recvs.push(recv.clone());
            handles.push(ctx.run_awaitable(1, send, recv).unwrap());
        }
        for h in &handles {
            assert!(
                h.wait_for_timeout(1, Duration::from_secs(30)),
                "all-to-all timed out"
            );
        }
        for (rank, recv) in recvs.iter().enumerate() {
            let expected: Vec<f32> = (0..n)
                .flat_map(|src| inputs[src][rank * count..(rank + 1) * count].to_vec())
                .collect();
            assert_eq!(recv.to_f32_vec(), expected, "rank {rank}");
        }
        for ctx in ranks {
            assert!(ctx.collective_errors().is_empty());
            ctx.destroy();
        }
    }

    #[test]
    fn point_to_point_send_recv_end_to_end() {
        let domain = DfcclDomain::flat_for_testing(2);
        let count = 16;
        let sender = domain.init_rank(GpuId(0)).unwrap();
        let receiver = domain.init_rank(GpuId(1)).unwrap();
        for ctx in [&sender, &receiver] {
            ctx.register_send_recv(1, count, DataType::F32, GpuId(0), GpuId(1), 0)
                .unwrap();
            assert_eq!(ctx.algorithm_of(1), Some(AlgorithmKind::Pairwise));
        }
        let payload: Vec<f32> = (0..count).map(|i| i as f32 * 0.5).collect();
        let out = DeviceBuffer::zeroed(count * 4);
        let hs = sender
            .run_awaitable(1, DeviceBuffer::from_f32(&payload), DeviceBuffer::zeroed(4))
            .unwrap();
        let hr = receiver
            .run_awaitable(1, DeviceBuffer::zeroed(4), out.clone())
            .unwrap();
        assert!(hs.wait_for_timeout(1, Duration::from_secs(20)));
        assert!(hr.wait_for_timeout(1, Duration::from_secs(20)));
        assert_eq!(out.to_f32_vec(), payload);
        sender.destroy();
        receiver.destroy();
    }

    #[test]
    fn collective_with_many_more_chunks_than_connector_slots_completes() {
        // Regression test for the flow-control deadlock: with step-major
        // plans, a collective whose per-slice chunk count exceeds the
        // connector capacity wedged permanently (both ranks filled their send
        // rings before reaching the step that drains the peer's). Chunk-major
        // plans keep the in-flight window O(1), so 32 chunks over 2-slot
        // connectors must complete.
        use dfccl_transport::{LinkModel, Topology};
        use gpu_sim::GpuSpec;
        let config = DfcclConfig {
            chunk_elems: 4,
            connector_capacity: 2,
            ..DfcclConfig::for_testing()
        };
        let domain = DfcclDomain::new(
            Topology::flat(2),
            LinkModel::zero_cost(),
            GpuSpec::rtx_3090(),
            config,
        );
        let count = 256; // 128 elems per slice = 32 chunks of 4, capacity 2.
        let ranks: Vec<_> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for ctx in &ranks {
            ctx.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, gpus(2), 0)
                .unwrap();
        }
        let mut handles = Vec::new();
        let mut recvs = Vec::new();
        for (g, ctx) in ranks.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&vec![(g + 1) as f32; count]);
            let recv = DeviceBuffer::zeroed(count * 4);
            recvs.push(recv.clone());
            handles.push(ctx.run_awaitable(1, send, recv).unwrap());
        }
        for h in &handles {
            assert!(
                h.wait_for_timeout(1, Duration::from_secs(30)),
                "deep-chunked all-reduce wedged on tiny connectors"
            );
        }
        for recv in &recvs {
            assert_eq!(recv.to_f32_vec(), vec![3.0f32; count]);
        }
        for ctx in ranks {
            ctx.destroy();
        }
    }

    #[test]
    fn striped_all_reduce_end_to_end_with_tiny_connectors() {
        // The tentpole through the full daemon stack: a 3-channel stripe over
        // 1-slot connectors, with far more chunks per macro step than any
        // single connector could hold. Per-channel chunk-major order keeps it
        // deadlock-free; the result must match the unstriped sum.
        use dfccl_transport::{LinkModel, Topology};
        use gpu_sim::GpuSpec;
        let config = DfcclConfig {
            chunk_elems: 4,
            connector_capacity: 1,
            ..DfcclConfig::for_testing()
        };
        let domain = DfcclDomain::new(
            Topology::flat(2),
            LinkModel::zero_cost(),
            GpuSpec::rtx_3090(),
            config,
        );
        let count = 96; // 48 elems per slice = 12 chunks of 4 across 3 channels
        let ranks: Vec<_> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        let desc = CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(2));
        for ctx in &ranks {
            for (coll, k) in [(1u64, 3usize), (2, 2)] {
                ctx.register(coll, desc.clone().with_channels(k)).unwrap();
                assert_eq!(ctx.channels_of(coll), Some(k), "K={k} must stripe");
            }
        }
        for coll in [1u64, 2] {
            let mut handles = Vec::new();
            let mut recvs = Vec::new();
            for (g, ctx) in ranks.iter().enumerate() {
                let send = DeviceBuffer::from_f32(&vec![(g + 1) as f32; count]);
                let recv = DeviceBuffer::zeroed(count * 4);
                recvs.push(recv.clone());
                handles.push(ctx.run_awaitable(coll, send, recv).unwrap());
            }
            for h in &handles {
                assert!(
                    h.wait_for_timeout(1, Duration::from_secs(30)),
                    "striped all-reduce (coll {coll}) wedged on tiny connectors"
                );
            }
            for recv in &recvs {
                assert_eq!(recv.to_f32_vec(), vec![3.0f32; count], "coll {coll}");
            }
        }
        for ctx in ranks {
            assert!(ctx.collective_errors().is_empty());
            ctx.destroy();
        }
    }

    #[test]
    fn duplicate_devices_are_rejected_at_registration() {
        // The validation bugfix surfaces through the API: a duplicated GpuId
        // must fail registration instead of building a self-edged plan.
        let domain = DfcclDomain::flat_for_testing(4);
        let ctx = domain.init_rank(GpuId(0)).unwrap();
        let err = ctx
            .register_all_reduce(
                1,
                16,
                DataType::F32,
                ReduceOp::Sum,
                vec![GpuId(0), GpuId(1), GpuId(1)],
                0,
            )
            .unwrap_err();
        assert_eq!(
            err,
            DfcclError::Collective(CollectiveError::DuplicateDevice(GpuId(1)))
        );
        ctx.destroy();
    }

    #[test]
    fn collective_registered_after_first_runs_is_usable() {
        // Runtime registration must invalidate the daemon's registry cache:
        // a collective registered *after* the daemon has been scheduling for
        // a while still executes correctly.
        let domain = DfcclDomain::flat_for_testing(2);
        let count = 16;
        let ranks: Vec<_> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for ctx in &ranks {
            ctx.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, gpus(2), 0)
                .unwrap();
        }
        // Warm the daemons (and their caches) with the first collective.
        let warm: Vec<_> = ranks
            .iter()
            .map(|ctx| {
                ctx.run_awaitable(
                    1,
                    DeviceBuffer::from_f32(&vec![1.0; count]),
                    DeviceBuffer::zeroed(count * 4),
                )
                .unwrap()
            })
            .collect();
        for h in &warm {
            assert!(h.wait_for_timeout(1, Duration::from_secs(20)));
        }
        // Register a second collective at runtime and use it immediately.
        for ctx in &ranks {
            ctx.register_all_reduce(2, count, DataType::F32, ReduceOp::Sum, gpus(2), 0)
                .unwrap();
        }
        let mut handles = Vec::new();
        let mut recvs = Vec::new();
        for (g, ctx) in ranks.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&vec![(g + 2) as f32; count]);
            let recv = DeviceBuffer::zeroed(count * 4);
            recvs.push(recv.clone());
            handles.push(ctx.run_awaitable(2, send, recv).unwrap());
        }
        for h in &handles {
            assert!(
                h.wait_for_timeout(1, Duration::from_secs(20)),
                "late-registered collective hung"
            );
        }
        for recv in &recvs {
            assert_eq!(recv.to_f32_vec(), vec![5.0f32; count]);
        }
        for ctx in &ranks {
            assert!(ctx.collective_errors().is_empty());
            ctx.destroy();
        }
    }

    #[test]
    fn destroy_is_idempotent_and_blocks_further_use() {
        let domain = DfcclDomain::flat_for_testing(2);
        let ctx = domain.init_rank(GpuId(0)).unwrap();
        ctx.destroy();
        ctx.destroy();
        assert!(matches!(
            ctx.register_all_reduce(1, 4, DataType::F32, ReduceOp::Sum, gpus(2), 0),
            Err(DfcclError::Destroyed)
        ));
        let send = DeviceBuffer::zeroed(16);
        let recv = DeviceBuffer::zeroed(16);
        assert!(matches!(
            ctx.run_awaitable(1, send, recv),
            Err(DfcclError::Destroyed)
        ));
    }

    #[test]
    fn listing1_free_functions_work() {
        let domain = DfcclDomain::flat_for_testing(2);
        let ctx0 = dfccl_init(&domain, GpuId(0)).unwrap();
        let ctx1 = dfccl_init(&domain, GpuId(1)).unwrap();
        for ctx in [&ctx0, &ctx1] {
            dfccl_register_all_reduce(ctx, 16, DataType::F32, ReduceOp::Sum, 3, gpus(2), 0)
                .unwrap();
        }
        let handle = CompletionHandle::new();
        let recv0 = DeviceBuffer::zeroed(64);
        dfccl_run_all_reduce(
            &ctx0,
            DeviceBuffer::from_f32(&[1.0; 16]),
            recv0.clone(),
            3,
            handle.completion_callback(),
        )
        .unwrap();
        let h1 = ctx1
            .run_awaitable(
                3,
                DeviceBuffer::from_f32(&[2.0; 16]),
                DeviceBuffer::zeroed(64),
            )
            .unwrap();
        handle.wait_for(1);
        h1.wait_for(1);
        assert_eq!(recv0.to_f32_vec(), vec![3.0f32; 16]);
        dfccl_destroy(ctx0);
        dfccl_destroy(ctx1);
    }

    #[test]
    fn reserved_collective_ids_are_rejected() {
        let domain = DfcclDomain::flat_for_testing(2);
        let ctx = domain.init_rank(GpuId(0)).unwrap();
        for id in [GRAPH_ID_BASE, FUSED_COLL_ID_BASE, GRAPH_ID_BASE | 7] {
            assert!(matches!(
                ctx.register_all_reduce(id, 8, DataType::F32, ReduceOp::Sum, gpus(2), 0),
                Err(DfcclError::ReservedCollectiveId(_))
            ));
        }
        ctx.destroy();
    }

    #[test]
    fn empty_capture_is_rejected() {
        let domain = DfcclDomain::flat_for_testing(2);
        let ctx = domain.init_rank(GpuId(0)).unwrap();
        let rec = ctx.begin_capture().unwrap();
        assert!(rec.is_empty());
        assert!(matches!(rec.finish(), Err(DfcclError::EmptyGraph)));
        ctx.destroy();
    }

    #[test]
    fn capture_fuses_small_all_reduces_and_replay_matches_individual_runs() {
        // Three small same-shape all-reduces and one large one: the capture
        // fuses the small ones into a single node, replays produce exactly the
        // sums individual submission would, and each replay costs one
        // completion per rank.
        let domain = DfcclDomain::new(
            Topology::flat(2),
            LinkModel::zero_cost(),
            GpuSpec::rtx_3090(),
            DfcclConfig {
                fusion_threshold_bytes: 64 * 1024,
                ..DfcclConfig::for_testing()
            },
        );
        let n = 2;
        let counts = [8usize, 12, 4, 50_000]; // last exceeds the 64 KiB threshold
        let ranks: Vec<_> = (0..n)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for ctx in &ranks {
            for (i, &count) in counts.iter().enumerate() {
                ctx.register_all_reduce(
                    i as u64 + 1,
                    count,
                    DataType::F32,
                    ReduceOp::Sum,
                    gpus(n),
                    0,
                )
                .unwrap();
            }
        }
        // Per-rank recorded buffers, fixed for the graph's lifetime.
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        let mut graphs = Vec::new();
        for (r, ctx) in ranks.iter().enumerate() {
            let mut rec = ctx.begin_capture().unwrap();
            let mut rank_sends = Vec::new();
            let mut rank_recvs = Vec::new();
            for (i, &count) in counts.iter().enumerate() {
                let data: Vec<f32> = (0..count)
                    .map(|j| ((r * 31 + i * 7 + j) % 101) as f32)
                    .collect();
                let send = DeviceBuffer::from_f32(&data);
                let recv = DeviceBuffer::zeroed(count * 4);
                rec.record(i as u64 + 1, send.clone(), recv.clone())
                    .unwrap();
                rank_sends.push(data);
                rank_recvs.push(recv);
            }
            assert_eq!(rec.len(), counts.len());
            let graph = rec.finish().unwrap();
            // 3 small all-reduces fuse into one node; the large one stays.
            assert_eq!(graph.len(), 2);
            assert_eq!(graph.fused_nodes(), 1);
            sends.push(rank_sends);
            recvs.push(rank_recvs);
            graphs.push(graph);
        }
        for round in 0..3 {
            let handles: Vec<_> = ranks
                .iter()
                .zip(&graphs)
                .map(|(ctx, g)| ctx.replay_awaitable(g).unwrap())
                .collect();
            for h in &handles {
                assert!(
                    h.wait_for_timeout(1, Duration::from_secs(30)),
                    "graph replay round {round} timed out"
                );
            }
            for (r, rank_recvs) in recvs.iter().enumerate() {
                for (i, recv) in rank_recvs.iter().enumerate() {
                    let expected: Vec<f32> = (0..counts[i])
                        .map(|j| (0..n).map(|src| sends[src][i][j]).sum())
                        .collect();
                    assert_eq!(
                        recv.to_f32_vec(),
                        expected,
                        "rank {r} collective {i} round {round}"
                    );
                }
            }
        }
        for ctx in &ranks {
            assert!(ctx.collective_errors().is_empty());
            assert_eq!(ctx.outstanding(), 0);
        }
        for ctx in ranks {
            ctx.destroy();
        }
    }

    #[test]
    fn replay_guards_foreign_rank_and_overlap() {
        let domain = DfcclDomain::flat_for_testing(2);
        let ranks: Vec<_> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for ctx in &ranks {
            ctx.register_all_reduce(1, 8, DataType::F32, ReduceOp::Sum, gpus(2), 0)
                .unwrap();
        }
        let mut rec = ranks[0].begin_capture().unwrap();
        rec.record(
            1,
            DeviceBuffer::from_f32(&[1.0; 8]),
            DeviceBuffer::zeroed(32),
        )
        .unwrap();
        let graph = rec.finish().unwrap();
        // A graph captured on rank 0 cannot replay on rank 1.
        assert!(matches!(
            ranks[1].replay_awaitable(&graph),
            Err(DfcclError::GraphForeignRank { .. })
        ));
        // Simulate an in-flight replay: the second submission must bounce.
        graph.in_flight.store(true, Ordering::Release);
        assert!(matches!(
            ranks[0].replay_awaitable(&graph),
            Err(DfcclError::GraphReplayInFlight(_))
        ));
        graph.in_flight.store(false, Ordering::Release);
        for ctx in ranks {
            ctx.destroy();
        }
    }

    #[test]
    fn cache_stats_reflect_hits_and_misses() {
        let domain = DfcclDomain::flat_for_testing(2);
        let ctx0 = domain.init_rank(GpuId(0)).unwrap();
        let ctx1 = domain.init_rank(GpuId(1)).unwrap();
        assert_eq!(
            domain.cache_stats(),
            PlanCacheStats {
                hits: 0,
                misses: 0,
                size: 0
            }
        );
        ctx0.register_all_reduce(1, 16, DataType::F32, ReduceOp::Sum, gpus(2), 0)
            .unwrap();
        let after_miss = domain.cache_stats();
        assert_eq!(
            (after_miss.hits, after_miss.misses, after_miss.size),
            (0, 1, 1)
        );
        // Same shape, different id, same rank: a pure hit.
        ctx0.register_all_reduce(2, 16, DataType::F32, ReduceOp::Sum, gpus(2), 0)
            .unwrap();
        // Same shape on the peer rank: also a hit (the miss selected once
        // and compiled every member's plan).
        ctx1.register_all_reduce(1, 16, DataType::F32, ReduceOp::Sum, gpus(2), 0)
            .unwrap();
        let stats = domain.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.size), (2, 1, 1));
        ctx0.destroy();
        ctx1.destroy();
    }

    #[test]
    fn telemetry_traces_an_all_reduce_end_to_end() {
        let domain = DfcclDomain::flat_for_testing(2);
        let count = 64;
        let ranks: Vec<_> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for ctx in &ranks {
            ctx.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, gpus(2), 0)
                .unwrap();
        }
        let handles: Vec<_> = ranks
            .iter()
            .map(|ctx| {
                ctx.run_awaitable(
                    1,
                    DeviceBuffer::from_f32(&vec![1.0; count]),
                    DeviceBuffer::zeroed(count * 4),
                )
                .unwrap()
            })
            .collect();
        for h in &handles {
            assert!(h.wait_for_timeout(1, Duration::from_secs(20)));
        }
        for (r, ctx) in ranks.iter().enumerate() {
            let snap = ctx.telemetry();
            assert_eq!(snap.counters.submits, 1, "rank {r}");
            assert_eq!(snap.counters.fetches, 1, "rank {r}");
            assert_eq!(snap.counters.completions, 1, "rank {r}");
            assert_eq!(snap.counters.failures, 0, "rank {r}");
            assert!(snap.counters.chunks_moved > 0, "rank {r}");
            // Submit precedes fetch precedes complete in the event stream.
            let pos = |kind| snap.events.iter().position(|e| e.kind == kind);
            let submit = pos(TelemetryEventKind::Submit).expect("submit event");
            let fetch = pos(TelemetryEventKind::Fetch).expect("fetch event");
            let complete = pos(TelemetryEventKind::Complete).expect("complete event");
            assert!(submit < fetch && fetch < complete, "rank {r}");
            // Edge samples name the collective and both directions moved data.
            assert!(!snap.edges.is_empty(), "rank {r}");
            assert!(snap.edges.iter().all(|e| e.coll_id == Some(1)));
            assert!(snap.edges.iter().any(|e| e.stats.chunks_sent > 0));
            assert_eq!(snap.dead_edges().count(), 0, "rank {r}");
        }
        // The domain-level probe covers the same edges without coll stamps
        // from any particular rank's registry.
        assert!(!domain.edge_samples().is_empty());
        assert!(!domain.fault_injector().is_active());
        for ctx in ranks {
            ctx.destroy();
        }
    }

    #[test]
    fn every_preemption_is_matched_by_a_resume() {
        // The paper's disorder case: rank 0 invokes alone and is preempted
        // waiting for a peer that has not invoked yet — possibly before its
        // first primitive. Every one of those preemptions is followed by a
        // checkout of the saved context, which must count as a resume.
        use dfccl_transport::{LinkModel, Topology};
        use gpu_sim::GpuSpec;
        let domain = DfcclDomain::new(
            Topology::flat(2),
            LinkModel::zero_cost(),
            GpuSpec::rtx_3090(),
            DfcclConfig::preemption_stress(),
        );
        let count = 32;
        let ranks: Vec<_> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        for ctx in &ranks {
            ctx.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, gpus(2), 0)
                .unwrap();
        }
        let run = |g: usize| {
            let send = DeviceBuffer::from_f32(&vec![(g + 1) as f32; count]);
            let recv = DeviceBuffer::zeroed(count * 4);
            (ranks[g].run_awaitable(1, send, recv.clone()).unwrap(), recv)
        };
        let (h0, recv0) = run(0);
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while ranks[0].stats().preemptions == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "rank 0 was never preempted"
            );
            std::thread::yield_now();
        }
        let (h1, _) = run(1);
        assert!(h0.wait_for_timeout(1, Duration::from_secs(20)));
        assert!(h1.wait_for_timeout(1, Duration::from_secs(20)));
        assert_eq!(recv0.to_f32_vec(), vec![3.0f32; count]);
        let counters = ranks[0].telemetry().counters;
        assert!(counters.preemptions > 0);
        assert_eq!(counters.resumes, counters.preemptions);
        for ctx in ranks {
            ctx.destroy();
        }
    }

    #[test]
    fn memory_usage_reflects_context_buffer_allocation() {
        let domain = DfcclDomain::flat_for_testing(2);
        let ctx = domain.init_rank(GpuId(0)).unwrap();
        let usage = ctx.memory_usage();
        let config = domain.config();
        let expected = CONTEXT_BUFFER_PER_BLOCK * config.daemon_blocks as usize + 11 * 1024;
        assert_eq!(usage.global_allocated, expected);
        ctx.destroy();
    }
}
