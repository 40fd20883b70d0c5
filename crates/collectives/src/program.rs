//! Compiling plans into flat per-channel programs, and the plan cache.
//!
//! Interpreting the [`Plan`] IR on the daemon's hot loop would re-match
//! `Option<peer>` fields and do `BTreeMap` lookups in the rank's channels on
//! every poll of every step, and a single global step cursor would let one
//! stalled channel head-of-line-block ready steps on other channels. This
//! module is the compilation stage between plan building and execution (the
//! only executor — DFCCL's daemon and the NCCL-like baseline both run its
//! output through [`crate::LaneRun::pass`]):
//!
//! * [`CompiledProgram`] — a dense `Vec<Instr>` lowered from a validated
//!   plan. Each instruction carries pre-resolved connector *indices* into a
//!   flat connector table (bound per registration from
//!   [`dfccl_transport::RankChannels::dense_view`]) and precomputed byte
//!   offsets/lengths, so the poll path is pure index arithmetic.
//! * [`Lane`] — the per-channel split of the instruction stream, each with
//!   its own cursor position. A lane pass polls only each lane's head
//!   instruction; a stalled lane never blocks a ready one.
//! * [`PlanCache`] — memoized plan building + compilation keyed by the
//!   collective's shape, so identical registrations (e.g. the MoE workload's
//!   per-layer all-to-alls) skip plan building entirely.
//!
//! ## Why lane-wise execution preserves correctness and deadlock freedom
//!
//! The builders emit per-channel chunk-major plans and matched send/recv
//! pairs always agree on the channel (`channel = chunk_index % K`), so each
//! channel's subsequence of the plan is a self-contained chunk-major schedule
//! over its own connectors — the per-channel chunk-major argument of
//! DESIGN.md §3 applies to each lane independently, and a blocked lane-head
//! only ever waits on a strictly earlier position *of its own channel* on
//! some rank.
//!
//! What lane order alone does **not** preserve is *local* recv-buffer
//! dependencies that cross lanes: within one chunk-major phase they cannot
//! exist (a dependency connects steps of the same chunk index — the same
//! channel, where lane order is plan order), but a multi-stage schedule like
//! the hierarchical all-reduce hands data between lanes (its inter-node
//! lane reads the partials its intra-node lane reduced), so a lane running
//! ahead could read bytes a sibling lane has not written yet.
//! Compilation therefore segments the instruction stream into **phases**
//! derived from the actual byte ranges: a new phase starts exactly at an
//! instruction that conflicts (read-after-write, write-after-write or
//! write-after-read on the recv buffer) with an earlier instruction on a
//! different lane, and an instruction is only eligible once every lane has
//! finished the earlier phases. Phase barriers point strictly backward in
//! plan order, so the constraint graph stays a sub-order of plan order —
//! acyclic, hence deadlock-free — while single-phase schedules (ring, tree,
//! pairwise) keep fully independent lanes. `segment_phases` is the one
//! definition; the cost model's walk (`cost.rs`) waits on the same barriers.
//! The compiled-vs-oracle bit-exactness property test
//! (`tests/compiled_program.rs`, against `tests/common/oracle.rs`) exercises
//! this across every algorithm family × collective × rank count × K ∈
//! {1, 2, 3} at connector capacity 1.

use std::collections::HashMap;

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::chunk::ElemRange;
use crate::collective::{CollectiveDescriptor, CollectiveKind};
use crate::cost::member_plans;
use crate::datatype::DataType;
use crate::plan::{AlgorithmKind, Plan};
use crate::primitive::{PrimitiveKind, PrimitiveStep, SrcBuf};
use crate::redop::ReduceOp;
use crate::selector::AlgorithmSelector;
use crate::CollectiveError;
use dfccl_transport::{ChannelId, ConnectorTable, RankChannels, Topology, TransportError};
use gpu_sim::GpuId;

/// A byte range in a local device buffer, pre-resolved from an element range
/// and the collective's data type at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteRange {
    /// Offset into the buffer, bytes.
    pub off: usize,
    /// Length, bytes.
    pub len: usize,
}

impl ByteRange {
    fn of(range: ElemRange, elem_bytes: usize) -> Self {
        ByteRange {
            off: range.byte_offset(elem_bytes),
            len: range.byte_len(elem_bytes),
        }
    }
}

/// Whether executing `later` before `earlier` could observe or clobber the
/// wrong recv-buffer bytes (`later` follows `earlier` in plan order). The
/// send buffer is never written, so only recv-buffer accesses can conflict:
/// a read is an `src` operand with [`SrcBuf::Recv`], a write is any `dst`.
fn recv_buffer_conflict(later: &PrimitiveStep, earlier: &PrimitiveStep) -> bool {
    let read = |s: &PrimitiveStep| match s.src_buf {
        SrcBuf::Recv => s.src,
        SrcBuf::Send => None,
    };
    let overlap = |a: Option<ElemRange>, b: Option<ElemRange>| match (a, b) {
        (Some(a), Some(b)) => a.len > 0 && b.len > 0 && a.offset < b.end() && b.offset < a.end(),
        _ => false,
    };
    overlap(read(later), earlier.dst)       // read-after-write
        || overlap(later.dst, earlier.dst)  // write-after-write
        || overlap(later.dst, read(earlier)) // write-after-read
}

/// Segment a plan's steps into phases (see the module docs): greedily grow a
/// phase until a step conflicts on the recv buffer with an earlier step of
/// the phase *on a different channel*; that step starts the next phase.
/// Calls `mark(i, phase)` for every step in plan order and returns the phase
/// count. The one definition of a phase barrier: [`CompiledProgram::compile`]
/// gates lanes on it and the cost model's walk waits on it
/// (`crate::cost`). A single-channel plan is one phase — plan order is
/// lane order — and skips the quadratic scan.
pub(crate) fn segment_phases(steps: &[PrimitiveStep], mut mark: impl FnMut(usize, u32)) -> u32 {
    let one_lane = steps.iter().all(|s| s.channel == steps[0].channel);
    let mut phase = 0u32;
    let mut phase_start = 0usize;
    for (i, step) in steps.iter().enumerate() {
        let split = !one_lane
            && steps[phase_start..i].iter().rev().any(|earlier| {
                earlier.channel != step.channel && recv_buffer_conflict(step, earlier)
            });
        if split {
            phase += 1;
            phase_start = i;
        }
        mark(i, phase);
    }
    phase + 1
}

/// One lowered instruction of a compiled program. Connector references are
/// plain indices into the registration's [`ConnectorTable`]; byte ranges are
/// pre-multiplied by the element size. `send_conn`/`send_peer` are meaningful
/// iff `kind.has_send()`, `recv_conn` iff `kind.has_recv()` — the same
/// contract [`Plan::validate`] enforces on the source step's peer fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// What to do.
    pub kind: PrimitiveKind,
    /// Which local buffer `src` refers to.
    pub src_buf: SrcBuf,
    /// Local operand bytes (`None` when the primitive reads no local data).
    pub src: Option<ByteRange>,
    /// Local output bytes (`None` when the primitive writes no local data).
    pub dst: Option<ByteRange>,
    /// Index of the send connector in the bound table (iff `kind.has_send()`).
    pub send_conn: u32,
    /// Destination rank (iff `kind.has_send()`; used for staging/diagnostics).
    pub send_peer: u32,
    /// Index of the recv connector in the bound table (iff `kind.has_recv()`).
    pub recv_conn: u32,
    /// Chunk index within the macro step (message matching).
    pub chunk_index: u32,
    /// Macro-step index (message matching / diagnostics).
    pub step: u32,
    /// The channel this instruction's transfer rides on.
    pub channel: ChannelId,
    /// Operand order of a reducing kind (see
    /// [`PrimitiveStep::incoming_first`]).
    pub incoming_first: bool,
    /// The phase this instruction belongs to (see the module docs): lanes
    /// run free within a phase, and an instruction only becomes eligible
    /// once every lane has finished the earlier phases.
    pub phase: u32,
}

/// One channel's slice of a compiled program: the indices of its
/// instructions, in plan order. Each in-flight invocation keeps an
/// independent cursor per lane, so a lane pass polls only lane heads and a
/// stalled channel never blocks a ready one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane {
    channel: ChannelId,
    instrs: Vec<u32>,
    /// `phase_prefix[p]` — how many of this lane's instructions belong to
    /// phases before `p`. A lane has finished every phase `< p` exactly when
    /// its cursor has reached this prefix; the phase-barrier check is a
    /// handful of integer compares.
    phase_prefix: Vec<u32>,
}

impl Lane {
    /// The channel this lane executes.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Number of instructions on this lane.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the lane has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The lane's instruction indices into [`CompiledProgram::instr`], in
    /// execution order.
    pub fn instr_ids(&self) -> &[u32] {
        &self.instrs
    }
}

/// A plan lowered into its flat executable form: dense instructions with
/// pre-resolved connector indices and byte ranges, split into per-channel
/// lanes. Connector-free (indices refer to the canonical ascending edge
/// lists), so one compiled program is shared by every registration of the
/// same shape; [`CompiledProgram::bind`] resolves the indices against a
/// registration's actual channels once.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    algorithm: AlgorithmKind,
    dtype: DataType,
    instrs: Vec<Instr>,
    lanes: Vec<Lane>,
    send_edges: Vec<(usize, ChannelId)>,
    recv_edges: Vec<(usize, ChannelId)>,
}

impl CompiledProgram {
    /// Lower a **validated** plan into its flat per-channel program for a
    /// collective of element type `dtype`. Connector indices are positions in
    /// the plan's ascending `send_edges()`/`recv_edges()` lists — the layout
    /// [`RankChannels::dense_view`] reproduces.
    ///
    /// The plan must satisfy [`Plan::validate`] (peer fields consistent with
    /// each step's kind); lowering a malformed plan panics rather than
    /// emitting a program with dangling indices.
    pub fn compile(plan: &Plan, dtype: DataType) -> Self {
        let send_edges = plan.send_edges().to_vec();
        let recv_edges = plan.recv_edges().to_vec();
        let elem = dtype.size_bytes();
        let mut lanes: Vec<Lane> = Vec::new();
        let mut instrs = Vec::with_capacity(plan.len());
        for (i, step) in plan.steps.iter().enumerate() {
            let (send_conn, send_peer) = if step.kind.has_send() {
                let peer = step.send_to.expect("validated send step names a peer");
                let conn = send_edges
                    .binary_search(&(peer, step.channel))
                    .expect("send edge of a validated step is in the edge list");
                (conn as u32, peer as u32)
            } else {
                (0, 0)
            };
            let recv_conn = if step.kind.has_recv() {
                let peer = step.recv_from.expect("validated recv step names a peer");
                recv_edges
                    .binary_search(&(peer, step.channel))
                    .expect("recv edge of a validated step is in the edge list")
                    as u32
            } else {
                0
            };
            let lane = match lanes.iter().position(|l| l.channel == step.channel) {
                Some(li) => li,
                None => {
                    lanes.push(Lane {
                        channel: step.channel,
                        instrs: Vec::new(),
                        phase_prefix: Vec::new(),
                    });
                    lanes.len() - 1
                }
            };
            lanes[lane].instrs.push(i as u32);
            instrs.push(Instr {
                kind: step.kind,
                src_buf: step.src_buf,
                src: step.src.map(|r| ByteRange::of(r, elem)),
                dst: step.dst.map(|r| ByteRange::of(r, elem)),
                send_conn,
                send_peer,
                recv_conn,
                chunk_index: step.chunk_index,
                step: step.step,
                channel: step.channel,
                incoming_first: step.incoming_first,
                phase: 0,
            });
        }
        // Deterministic lane order (ascending channel); builders emit channel
        // ids first-seen in chunk order, which is already ascending, but the
        // sort makes the layout independent of emission order.
        lanes.sort_by_key(|l| l.channel);
        // Phase segmentation, derived from actual recv-buffer data
        // dependencies (`segment_phases`): an instruction only becomes
        // eligible once every lane has finished the earlier phases, so
        // executing lanes in any interleaving observes exactly the
        // recv-buffer contents of executing the plan in order. Same-lane
        // conflicts are already ordered by the lane cursor. Single-phase
        // schedules (ring, tree, pairwise: within one chunk-major phase,
        // dependencies always connect steps of the same chunk — the same
        // lane) carry no barriers at all; the hierarchical schedule's hand-
        // overs between its intra and inter lanes become barriers.
        let phase_count = segment_phases(&plan.steps, |i, phase| instrs[i].phase = phase) as usize;
        // Per-lane phase prefixes: how many of the lane's instructions sit
        // in phases before `p`, for every phase — the barrier check's data.
        for lane in &mut lanes {
            let mut prefix = vec![0u32; phase_count + 1];
            for &idx in &lane.instrs {
                prefix[instrs[idx as usize].phase as usize + 1] += 1;
            }
            for p in 0..phase_count {
                prefix[p + 1] += prefix[p];
            }
            lane.phase_prefix = prefix;
        }
        CompiledProgram {
            algorithm: plan.algorithm,
            dtype,
            instrs,
            lanes,
            send_edges,
            recv_edges,
        }
    }

    /// The algorithm family the source plan came from.
    pub fn algorithm(&self) -> AlgorithmKind {
        self.algorithm
    }

    /// The element type byte ranges were resolved for.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `idx`.
    #[inline]
    pub fn instr(&self, idx: u32) -> &Instr {
        &self.instrs[idx as usize]
    }

    /// All instructions, in plan order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The per-channel lanes, ascending by channel.
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Number of lanes (distinct channels; 0 for an empty program).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The ascending send-edge list the send connector indices refer to.
    pub fn send_edges(&self) -> &[(usize, ChannelId)] {
        &self.send_edges
    }

    /// The ascending recv-edge list the recv connector indices refer to.
    pub fn recv_edges(&self) -> &[(usize, ChannelId)] {
        &self.recv_edges
    }

    /// Number of phases (independently chunk-major-sorted segments) in the
    /// program. Single-phase schedules (ring, pairwise) have no cross-lane
    /// barriers at all.
    pub fn phase_count(&self) -> usize {
        self.instrs.last().map_or(1, |i| i.phase as usize + 1)
    }

    /// Whether instruction `idx` is past its phase barrier: every lane must
    /// have finished the phases before the instruction's own, given the
    /// current per-lane cursors. Lanes run free within a phase; this check
    /// only orders cross-phase local-buffer dependencies (which the builders
    /// chunk differently per phase, so they may cross lanes).
    #[inline]
    pub fn instr_eligible(&self, idx: u32, lane_cursors: &[u32]) -> bool {
        let phase = self.instrs[idx as usize].phase as usize;
        if phase == 0 {
            return true;
        }
        self.lanes
            .iter()
            .zip(lane_cursors)
            .all(|(lane, &cur)| cur >= lane.phase_prefix[phase])
    }

    /// The send-connector table index for the edge to `peer` on `channel`,
    /// if the program sends over it. Used to flush a staged chunk, whose
    /// connector is identified by `(peer, channel)` in the dynamic context.
    #[inline]
    pub fn send_conn_for(&self, peer: usize, channel: ChannelId) -> Option<u32> {
        self.send_edges
            .binary_search(&(peer, channel))
            .ok()
            .map(|i| i as u32)
    }

    /// Resolve this program's connector indices against a registration's
    /// channels: position `i` of the returned table is edge `i` of the
    /// program's edge lists. Errors if the channels were built for a
    /// different edge set.
    pub fn bind(&self, channels: &RankChannels) -> Result<ConnectorTable, TransportError> {
        channels.dense_view(&self.send_edges, &self.recv_edges)
    }
}

/// The shape of a collective, i.e. everything its selection and its members'
/// compiled plans depend on besides the topology and the device set (a
/// [`PlanCache`] lives inside one domain, whose topology, selector and
/// chunking are fixed — callers must not share a cache across topologies,
/// selectors or chunk configurations beyond the keyed `chunk_elems`). There
/// is no rank in it: the selection is made once per shape and holds every
/// member's plan, so every member registers the same family and chunk. The
/// ordered device set is keyed separately, as the outer level of the cache's
/// two-level map, so the hit path can probe it with a borrowed `&[GpuId]`
/// instead of cloning the descriptor's `Vec<GpuId>`; everything left in this
/// key is `Copy`, so building a probe key allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Collective kind.
    pub kind: CollectiveKind,
    /// Element count.
    pub count: usize,
    /// Element type.
    pub dtype: DataType,
    /// Reduce operator.
    pub op: Option<ReduceOp>,
    /// Root rank (rooted collectives).
    pub root: Option<usize>,
    /// The descriptor's algorithm override, if any.
    pub algorithm: Option<AlgorithmKind>,
    /// The descriptor's channel-count override, if any.
    pub channels: Option<usize>,
    /// The chunk cap the family and chunk were chosen under
    /// ([`AlgorithmSelector::choose`]).
    pub chunk_elems: usize,
}

/// A cached, validated plan together with its compiled program. Cloning is
/// two `Arc` bumps.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The validated plan.
    pub plan: Arc<Plan>,
    /// Its connector-free compiled program.
    pub program: Arc<CompiledProgram>,
}

/// Upper bound on distinct shapes a [`PlanCache`] retains. Far above the
/// paper's "hundreds of registered collectives" regime; a workload that
/// registers an unbounded stream of *distinct* shapes (e.g. ever-changing
/// element counts) evicts arbitrary entries past this point instead of
/// growing without bound — evicted shapes simply recompile on next use.
pub const PLAN_CACHE_MAX_SHAPES: usize = 4096;

/// Memoized selection, plan building and compilation keyed by collective
/// shape ([`PlanKey`]). The first registration of a shape chooses its family
/// and chunk and compiles every member's plan; every later registration of
/// the shape — the other members', and repeats for per-layer collectives —
/// returns the shared `Arc`s without selecting, building, validating or
/// lowering anything.
///
/// Invalidation: a plan depends on its key and the domain's fixed topology
/// only. Link health is not part of it: a quarantined label is rerouted in
/// the communicator mesh the plan binds to, so a plan stays valid across a
/// quarantine, and members registering before and after one share it.
/// Elastic membership removes a device from the domain instead; that is the
/// one event that *deletes* entries, via [`PlanCache::invalidate_device`].
/// A cache must not outlive or be shared across domains with different
/// topologies. Size is bounded by [`PLAN_CACHE_MAX_SHAPES`].
#[derive(Default)]
pub struct PlanCache {
    /// Two-level map: ordered device set → [`PlanKey`] → every member's
    /// cached plan, in rank order. The outer level exists so the hit path
    /// can probe with the descriptor's borrowed `&[GpuId]` (via
    /// `Vec<GpuId>: Borrow<[GpuId]>`) and the inner key is all-`Copy` — a
    /// cache hit allocates nothing.
    shapes: Mutex<Shapes>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct Shapes {
    by_devices: HashMap<Vec<GpuId>, HashMap<PlanKey, Arc<[CachedPlan]>>>,
    /// Total cached shapes across every device set (the eviction bound).
    total: usize,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The cached plan+program for `desc` as registered by `rank`, chunks
    /// capped at `chunk_elems`. The first request of a shape chooses its
    /// family and chunk ([`AlgorithmSelector::choose`], the choice
    /// [`AlgorithmSelector::build_plan`] makes) and compiles every member's
    /// plan; later requests, from any member, are hits.
    pub fn get_or_compile(
        &self,
        selector: &AlgorithmSelector,
        desc: &CollectiveDescriptor,
        rank: usize,
        chunk_elems: usize,
        topology: &Topology,
    ) -> Result<CachedPlan, CollectiveError> {
        let key = PlanKey {
            kind: desc.kind,
            count: desc.count,
            dtype: desc.dtype,
            op: desc.op,
            root: desc.root,
            algorithm: desc.algorithm,
            channels: desc.channels,
            chunk_elems,
        };
        {
            let shapes = self.shapes.lock();
            if let Some(cached) = shapes
                .by_devices
                .get(desc.devices.as_slice())
                .and_then(|inner| inner.get(&key))
                .and_then(|members| members.get(rank))
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(cached.clone());
            }
        }
        // Select and build outside the lock: concurrent first registrations
        // of one shape may build twice, but registration never blocks behind
        // another shape's plan construction. Last insert wins.
        let (kind, chunk) = selector.choose(desc, chunk_elems, topology);
        let n = desc.num_ranks();
        let members = member_plans(desc, kind, chunk, topology)?
            .into_iter()
            .enumerate()
            .map(|(r, plan)| {
                plan.validate(r, n)?;
                Ok(CachedPlan {
                    program: Arc::new(CompiledProgram::compile(&plan, desc.dtype)),
                    plan: Arc::new(plan),
                })
            })
            .collect::<Result<Arc<[CachedPlan]>, CollectiveError>>()?;
        let cached = members
            .get(rank)
            .cloned()
            .ok_or(CollectiveError::InvalidRank { rank, size: n })?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.shapes.lock();
        let shapes = &mut *guard;
        if shapes.total >= PLAN_CACHE_MAX_SHAPES {
            // Evict an arbitrary shape: correctness is unaffected (it
            // recompiles on next use) and the common steady state — a
            // bounded set of hot shapes — never reaches this.
            if let Some(victim_devices) = shapes.by_devices.keys().next().cloned() {
                if let Some(inner) = shapes.by_devices.get_mut(&victim_devices) {
                    if let Some(victim) = inner.keys().next().copied() {
                        inner.remove(&victim);
                        shapes.total -= 1;
                    }
                    if inner.is_empty() {
                        shapes.by_devices.remove(&victim_devices);
                    }
                }
            }
        }
        let inner = shapes.by_devices.entry(desc.devices.clone()).or_default();
        if inner.insert(key, members).is_none() {
            shapes.total += 1;
        }
        Ok(cached)
    }

    /// Drop every cached shape whose device set contains `gpu` — the elastic
    /// membership path: a removed rank's plans must never be served again,
    /// even if the rank later rejoins (its mesh is rebuilt lazily). Returns
    /// the number of shapes dropped.
    pub fn invalidate_device(&self, gpu: GpuId) -> usize {
        let mut guard = self.shapes.lock();
        let shapes = &mut *guard;
        let mut dropped = 0;
        shapes.by_devices.retain(|devices, inner| {
            if devices.contains(&gpu) {
                dropped += inner.len();
                false
            } else {
                true
            }
        });
        shapes.total -= dropped;
        dropped
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to select, build and compile (one per shape).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct shapes cached, each holding every member's plan.
    pub fn len(&self) -> usize {
        self.shapes.lock().total
    }

    /// Whether the cache holds no shapes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::algorithm;
    use crate::redop::ReduceOp;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    fn all_reduce(count: usize, n: usize) -> CollectiveDescriptor {
        CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
    }

    fn compile_striped(count: usize, n: usize, chunk: usize, k: usize) -> (Plan, CompiledProgram) {
        let desc = all_reduce(count, n);
        let topo = Topology::flat(n);
        let plan = algorithm(AlgorithmKind::Ring)
            .build_plan_striped(&desc, 0, chunk, k, &topo)
            .unwrap();
        plan.validate(0, n).unwrap();
        let program = CompiledProgram::compile(&plan, DataType::F32);
        (plan, program)
    }

    #[test]
    fn compile_preserves_order_and_resolves_edges() {
        let (plan, program) = compile_striped(64, 4, 4, 3);
        assert_eq!(program.len(), plan.len());
        assert_eq!(program.algorithm(), AlgorithmKind::Ring);
        assert_eq!(program.send_edges(), plan.send_edges());
        assert_eq!(program.recv_edges(), plan.recv_edges());
        for (instr, step) in program.instrs().iter().zip(&plan.steps) {
            assert_eq!(instr.kind, step.kind);
            assert_eq!(instr.channel, step.channel);
            assert_eq!(instr.chunk_index, step.chunk_index);
            if step.kind.has_send() {
                let edge = program.send_edges()[instr.send_conn as usize];
                assert_eq!(edge, (step.send_to.unwrap(), step.channel));
                assert_eq!(instr.send_peer as usize, step.send_to.unwrap());
            }
            if step.kind.has_recv() {
                let edge = program.recv_edges()[instr.recv_conn as usize];
                assert_eq!(edge, (step.recv_from.unwrap(), step.channel));
            }
            // Byte ranges are the element ranges scaled by the element size.
            assert_eq!(
                instr.src.map(|b| (b.off, b.len)),
                step.src.map(|r| (r.byte_offset(4), r.byte_len(4)))
            );
            assert_eq!(
                instr.dst.map(|b| (b.off, b.len)),
                step.dst.map(|r| (r.byte_offset(4), r.byte_len(4)))
            );
        }
    }

    #[test]
    fn lanes_partition_the_program_per_channel_in_plan_order() {
        let (plan, program) = compile_striped(60, 4, 2, 3);
        assert_eq!(program.lane_count(), 3, "3 channels used at this chunking");
        let mut seen = 0usize;
        for (li, lane) in program.lanes().iter().enumerate() {
            assert_eq!(lane.channel(), ChannelId(li as u32), "ascending channels");
            assert!(!lane.is_empty());
            seen += lane.len();
            let mut last = None;
            for &idx in lane.instr_ids() {
                let instr = program.instr(idx);
                assert_eq!(instr.channel, lane.channel(), "lane holds its channel");
                if let Some(prev) = last {
                    assert!(idx > prev, "lane preserves plan order");
                }
                last = Some(idx);
            }
        }
        assert_eq!(seen, plan.len(), "lanes partition every instruction");
    }

    #[test]
    fn phases_split_at_cross_lane_conflicts_and_gate_eligibility() {
        // Ring plans have no cross-lane recv-buffer dependencies (within one
        // chunk-major phase, dependencies connect steps of the same chunk —
        // the same lane): one phase, no barriers anywhere.
        let (_, ring) = compile_striped(60, 4, 2, 3);
        assert_eq!(ring.phase_count(), 1);
        for idx in 0..ring.len() as u32 {
            assert!(ring.instr_eligible(idx, &vec![0; ring.lane_count()]));
        }

        // A hierarchical plan hands each block from its intra lane to its
        // inter lane and back, so it must split: instructions of a later
        // phase are gated until every lane finishes the earlier ones.
        let desc = all_reduce(17, 6);
        let topo = Topology::uniform_cluster(2, 3);
        let plan = algorithm(AlgorithmKind::Hierarchical)
            .build_plan_striped(&desc, 0, 3, 2, &topo)
            .unwrap();
        plan.validate(0, 6).unwrap();
        let program = CompiledProgram::compile(&plan, DataType::F32);
        assert!(
            program.phase_count() >= 2,
            "hierarchical schedules are multi-phase"
        );
        let later = (0..program.len() as u32)
            .find(|&i| program.instr(i).phase > 0)
            .expect("a phase-1 instruction exists");
        let zeros = vec![0u32; program.lane_count()];
        assert!(
            !program.instr_eligible(later, &zeros),
            "later phases wait for every lane to finish the earlier ones"
        );
        // Once every lane's cursor passes the earlier phases, it unblocks.
        let done: Vec<u32> = program.lanes().iter().map(|l| l.len() as u32).collect();
        assert!(program.instr_eligible(later, &done));
    }

    #[test]
    fn send_conn_for_resolves_staged_channels() {
        let (_, program) = compile_striped(64, 4, 4, 2);
        for (i, &(p, c)) in program.send_edges().iter().enumerate() {
            assert_eq!(program.send_conn_for(p, c), Some(i as u32));
        }
        assert_eq!(program.send_conn_for(99, ChannelId(0)), None);
    }

    #[test]
    fn plan_cache_selects_once_per_shape_and_serves_every_member() {
        let cache = PlanCache::new();
        let topo = Topology::flat(4);
        let sel = AlgorithmSelector::default();
        let a = cache
            .get_or_compile(&sel, &all_reduce(1 << 20, 4), 0, 1024, &topo)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache
            .get_or_compile(&sel, &all_reduce(1 << 20, 4), 0, 1024, &topo)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a.plan, &b.plan), "hits share the plan");
        assert!(
            Arc::ptr_eq(&a.program, &b.program),
            "hits share the program"
        );
        // Another member of the same shape is a hit: the first request
        // compiled every member's plan, all of one family.
        let peer = cache
            .get_or_compile(&sel, &all_reduce(1 << 20, 4), 1, 1024, &topo)
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        assert_eq!(peer.plan.algorithm, a.plan.algorithm);
        assert_ne!(peer.plan.steps, a.plan.steps, "rank 1's own plan");
        // A different count or channel count is a different shape.
        cache
            .get_or_compile(&sel, &all_reduce(1 << 19, 4), 0, 1024, &topo)
            .unwrap();
        cache
            .get_or_compile(
                &sel,
                &all_reduce(1 << 20, 4).with_channels(2),
                0,
                1024,
                &topo,
            )
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
        assert_eq!(cache.len(), 3);
        // A rank outside the device set is an error, not a panic.
        assert!(matches!(
            cache.get_or_compile(&sel, &all_reduce(1 << 20, 4), 4, 1024, &topo),
            Err(CollectiveError::InvalidRank { rank: 4, size: 4 })
        ));
    }

    #[test]
    fn a_quarantine_leaves_cached_plans_and_their_hits_untouched() {
        use dfccl_transport::{EdgeId, LinkHealth};

        let cache = PlanCache::new();
        let topo = Topology::flat(4);
        let sel = AlgorithmSelector::default();
        let health = LinkHealth::new();
        let desc = all_reduce(1 << 20, 4); // bandwidth-bound -> ring
        let before = cache.get_or_compile(&sel, &desc, 0, 1024, &topo).unwrap();
        assert_eq!(before.plan.algorithm, AlgorithmKind::Ring);
        // Quarantine an edge the ring sends over. Selection never reads the
        // health map (the mesh reroutes the label), so the cached shape
        // keeps its plan and the next requests are hits on it.
        health.quarantine(EdgeId {
            src: GpuId(1),
            dst: GpuId(2),
            channel: ChannelId(0),
        });
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        let after = cache.get_or_compile(&sel, &desc, 0, 1024, &topo).unwrap();
        assert!(Arc::ptr_eq(&before.plan, &after.plan));
        assert!(Arc::ptr_eq(&before.program, &after.program));
        // A member registering after the quarantine runs the same family.
        let peer = cache.get_or_compile(&sel, &desc, 1, 1024, &topo).unwrap();
        assert_eq!(peer.plan.algorithm, AlgorithmKind::Ring);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 1, 1));
    }

    #[test]
    fn plan_cache_invalidate_device_drops_only_intersecting_shapes() {
        let cache = PlanCache::new();
        let topo = Topology::flat(6);
        let sel = AlgorithmSelector::default();
        cache
            .get_or_compile(&sel, &all_reduce(1 << 20, 4), 0, 1024, &topo)
            .unwrap();
        cache
            .get_or_compile(&sel, &all_reduce(1 << 20, 4), 1, 1024, &topo)
            .unwrap();
        let other = CollectiveDescriptor::all_reduce(
            1 << 20,
            DataType::F32,
            ReduceOp::Sum,
            vec![GpuId(4), GpuId(5)],
        );
        cache.get_or_compile(&sel, &other, 0, 1024, &topo).unwrap();
        assert_eq!(cache.len(), 2, "both members share one shape");
        // Removing GPU 2 drops the shape over [0, 1, 2, 3], not the [4, 5] one.
        assert_eq!(cache.invalidate_device(GpuId(2)), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidate_device(GpuId(2)), 0);
        cache.get_or_compile(&sel, &other, 0, 1024, &topo).unwrap();
        assert_eq!(cache.hits(), 2, "surviving shape still serves hits");
    }

    #[test]
    fn plan_cache_surfaces_build_errors() {
        let cache = PlanCache::new();
        let topo = Topology::flat(4);
        let sel = AlgorithmSelector::default();
        // A strict per-collective override that cannot schedule the kind.
        let bad = CollectiveDescriptor::all_gather(16, DataType::F32, gpus(4))
            .with_algorithm(AlgorithmKind::DoubleBinaryTree);
        assert!(matches!(
            cache.get_or_compile(&sel, &bad, 0, 16, &topo),
            Err(CollectiveError::UnsupportedAlgorithm { .. })
        ));
        assert!(cache.is_empty(), "errors are not cached");
    }

    #[test]
    fn bind_resolves_against_matching_channels_only() {
        use dfccl_transport::{Communicator, CommunicatorId, LinkModel};
        let (plan, program) = compile_striped(64, 4, 4, 2);
        let topo = Arc::new(Topology::flat(4));
        let comm = Communicator::new(
            CommunicatorId(0),
            gpus(4),
            &topo,
            &Arc::new(LinkModel::zero_cost()),
            4,
        )
        .unwrap();
        let channels = comm
            .channels(0, plan.send_edges(), plan.recv_edges())
            .unwrap();
        let table = program.bind(&channels).unwrap();
        assert_eq!(table.send_len(), program.send_edges().len());
        assert_eq!(table.recv_len(), program.recv_edges().len());
        // Channels built for a different edge set fail to bind.
        let wrong = comm.channels(0, &[(2, ChannelId(0))], &[]).unwrap();
        assert!(matches!(
            program.bind(&wrong),
            Err(TransportError::MissingEdge { .. })
        ));
    }
}
