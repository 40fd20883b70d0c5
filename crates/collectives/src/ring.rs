//! Ring-algorithm primitive-sequence generation.
//!
//! In a ring collective, GPUs are organised into a logical ring (rank `r`
//! sends to rank `r+1` and receives from rank `r-1`), and each rank is
//! assigned a primitive sequence based on its ring position. Data is divided
//! into per-rank slices and further into regular chunks so every connector
//! transfer is bounded and every chunk boundary is a preemption opportunity.
//!
//! The sequences generated here follow the classic NCCL ring schedules:
//!
//! * **all-reduce** — `n-1` reduce-scatter steps followed by `n-1` all-gather
//!   steps (`Send`, `RecvReduceSend`…, `RecvReduceCopySend`, `RecvCopySend`…,
//!   `Recv`).
//! * **all-gather** — local copy, then `Send`, `RecvCopySend`…, `Recv`.
//! * **reduce-scatter** — `Send`, `RecvReduceSend`…, `RecvReduceCopy`.
//! * **reduce** — a single pipeline along the ring ending at the root.
//! * **broadcast** — a single pipeline along the ring starting at the root.
//!
//! Every step names its peers explicitly (`send_to = rank+1`,
//! `recv_from = rank-1`), so the transport layer materialises exactly the
//! ring's `n` directed edges out of the connector mesh.

use crate::chunk::{slice_ranges, ElemRange};
use crate::collective::{CollectiveDescriptor, CollectiveKind};
use crate::plan::{
    check_builder_inputs, push_chunked, sort_chunk_major, Algorithm, AlgorithmKind, Plan,
};
use crate::primitive::{PrimitiveKind, PrimitiveStep, SrcBuf};
use crate::CollectiveError;
use dfccl_transport::Topology;

/// The chunk ladder's first rung, in elements (128 KiB of f32): the chunk
/// [`crate::AlgorithmSelector::select`] and the Fig. 8 per-family columns
/// model at ([`crate::CHUNK_LADDER`]).
pub const DEFAULT_CHUNK_ELEMS: usize = 32 * 1024;

/// The ring schedule generator.
pub struct RingAlgorithm;

impl Algorithm for RingAlgorithm {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Ring
    }

    fn supports(&self, desc: &CollectiveDescriptor, _topology: &Topology) -> bool {
        // All-to-all and point-to-point are dense-mesh operations scheduled
        // by the pairwise family; a ring has no sensible schedule for them.
        !matches!(
            desc.kind,
            CollectiveKind::AllToAll | CollectiveKind::SendRecv
        )
    }

    fn build_plan_striped(
        &self,
        desc: &CollectiveDescriptor,
        rank: usize,
        max_chunk_elems: usize,
        channels: usize,
        _topology: &Topology,
    ) -> Result<Plan, CollectiveError> {
        build_plan_striped(desc, rank, max_chunk_elems, channels)
    }
}

/// Emission context for one rank of the ring: peers are fixed by ring
/// position, the step counter advances per macro step.
struct RingEmitter {
    steps: Vec<PrimitiveStep>,
    next: usize,
    prev: usize,
    step: u32,
    channels: usize,
}

impl RingEmitter {
    fn new(n: usize, rank: usize, channels: usize) -> Self {
        RingEmitter {
            steps: Vec::new(),
            next: (rank + 1) % n,
            prev: (rank + n - 1) % n,
            step: 0,
            channels,
        }
    }

    fn emit(
        &mut self,
        kind: PrimitiveKind,
        src: Option<ElemRange>,
        dst: Option<ElemRange>,
        max_chunk: usize,
    ) {
        self.emit_at(kind, src, dst, self.step, max_chunk);
        self.step += 1;
    }

    fn emit_at(
        &mut self,
        kind: PrimitiveKind,
        src: Option<ElemRange>,
        dst: Option<ElemRange>,
        step: u32,
        max_chunk: usize,
    ) {
        push_chunked(
            &mut self.steps,
            kind,
            src,
            SrcBuf::Send,
            dst,
            kind.has_send().then_some(self.next),
            kind.has_recv().then_some(self.prev),
            step,
            max_chunk,
            self.channels,
        );
    }

    fn finish(mut self) -> Plan {
        // Chunk-major pipelining (the NCCL loop structure): interleave the
        // macro steps so chunk `c` flows through the whole ring pipeline
        // before chunk `c+1` starts. The step-major order the builders emit
        // (all chunks of a macro step, then the next step) deadlocks once a
        // macro step has more chunks than a connector has slots: every rank
        // fills its send ring and blocks before reaching the step that would
        // drain its peer. Pairing is preserved — a step-`s` send on rank `r`
        // is consumed by the step-`s+1` primitive on rank `r+1` over the
        // *same* slice (hence the same chunk ranges), and the uniform
        // `s → s+1` shift keeps both sides' sorted `(chunk, step)` orders
        // aligned — so the in-flight window per connector drops to O(1)
        // chunks regardless of the collective size.
        sort_chunk_major(&mut self.steps);
        Plan::new(AlgorithmKind::Ring, self.steps)
    }
}

/// Build the unstriped (single-channel) ring primitive sequence executed by
/// `rank` for the collective described by `desc`, chunking transfers at
/// `max_chunk_elems` elements.
pub fn build_plan(
    desc: &CollectiveDescriptor,
    rank: usize,
    max_chunk_elems: usize,
) -> Result<Plan, CollectiveError> {
    build_plan_striped(desc, rank, max_chunk_elems, 1)
}

/// Build the ring primitive sequence executed by `rank`, chunking transfers
/// at `max_chunk_elems` elements and striping the chunk stream round-robin
/// across `channels` parallel connectors per ring edge.
pub fn build_plan_striped(
    desc: &CollectiveDescriptor,
    rank: usize,
    max_chunk_elems: usize,
    channels: usize,
) -> Result<Plan, CollectiveError> {
    check_builder_inputs(desc, rank, max_chunk_elems, channels)?;
    let n = desc.num_ranks();
    let k = channels;
    let plan = match desc.kind {
        CollectiveKind::AllReduce => all_reduce_plan(desc.count, n, rank, max_chunk_elems, k),
        CollectiveKind::AllGather => all_gather_plan(desc.count, n, rank, max_chunk_elems, k),
        CollectiveKind::ReduceScatter => {
            reduce_scatter_plan(desc.count, n, rank, max_chunk_elems, k)
        }
        CollectiveKind::Reduce => reduce_plan(
            desc.count,
            n,
            rank,
            desc.root.expect("validated root"),
            max_chunk_elems,
            k,
        ),
        CollectiveKind::Broadcast => broadcast_plan(
            desc.count,
            n,
            rank,
            desc.root.expect("validated root"),
            max_chunk_elems,
            k,
        ),
        CollectiveKind::AllToAll | CollectiveKind::SendRecv => {
            return Err(CollectiveError::UnsupportedAlgorithm {
                algorithm: AlgorithmKind::Ring,
                kind: desc.kind,
            })
        }
    };
    Ok(plan)
}

/// Ring all-reduce: `count` input elements, `count` output elements, `2n-1`
/// macro steps (the first send and the final recv are half-steps).
fn all_reduce_plan(count: usize, n: usize, rank: usize, max_chunk: usize, channels: usize) -> Plan {
    let slices = slice_ranges(count, n);
    let slice = |idx: usize| slices[idx % n];
    let mut e = RingEmitter::new(n, rank, channels);

    // Reduce-scatter phase.
    e.emit(PrimitiveKind::Send, Some(slice(rank)), None, max_chunk);
    for k in 1..n - 1 {
        let s = slice(rank + n - k);
        e.emit(PrimitiveKind::RecvReduceSend, Some(s), None, max_chunk);
    }
    // The slice that becomes fully reduced at this rank.
    let owned = slice(rank + 1);
    e.emit(
        PrimitiveKind::RecvReduceCopySend,
        Some(owned),
        Some(owned),
        max_chunk,
    );

    // All-gather phase: receive the remaining reduced slices.
    for j in 1..n - 1 {
        let s = slice(rank + n - j + 1);
        e.emit(PrimitiveKind::RecvCopySend, None, Some(s), max_chunk);
    }
    let last = slice(rank + 2);
    e.emit(PrimitiveKind::Recv, None, Some(last), max_chunk);
    e.finish()
}

/// Ring all-gather: `count` input elements per rank, `n * count` output.
fn all_gather_plan(count: usize, n: usize, rank: usize, max_chunk: usize, channels: usize) -> Plan {
    let own = ElemRange::new(0, count);
    let block = |idx: usize| ElemRange::new((idx % n) * count, count);
    let mut e = RingEmitter::new(n, rank, channels);

    // Local copy of the rank's own contribution into its output block.
    e.emit(PrimitiveKind::Copy, Some(own), Some(block(rank)), max_chunk);
    // Send the contribution around the ring.
    e.emit(PrimitiveKind::Send, Some(own), None, max_chunk);
    for k in 1..n - 1 {
        let b = block(rank + n - k);
        e.emit(PrimitiveKind::RecvCopySend, None, Some(b), max_chunk);
    }
    let last = block(rank + 1);
    e.emit(PrimitiveKind::Recv, None, Some(last), max_chunk);
    e.finish()
}

/// Ring reduce-scatter: `n * count` input elements per rank, `count` output.
fn reduce_scatter_plan(
    count: usize,
    n: usize,
    rank: usize,
    max_chunk: usize,
    channels: usize,
) -> Plan {
    let slice = |idx: usize| ElemRange::new((idx % n) * count, count);
    let out = ElemRange::new(0, count);
    let mut e = RingEmitter::new(n, rank, channels);

    e.emit(
        PrimitiveKind::Send,
        Some(slice(rank + n - 1)),
        None,
        max_chunk,
    );
    for k in 1..n - 1 {
        let s = slice(rank + n - 1 - k);
        e.emit(PrimitiveKind::RecvReduceSend, Some(s), None, max_chunk);
    }
    e.emit(
        PrimitiveKind::RecvReduceCopy,
        Some(slice(rank)),
        Some(out),
        max_chunk,
    );
    e.finish()
}

/// Ring reduce: the reduction flows along the ring and ends at the root.
fn reduce_plan(
    count: usize,
    n: usize,
    rank: usize,
    root: usize,
    max_chunk: usize,
    channels: usize,
) -> Plan {
    let whole = ElemRange::new(0, count);
    // Position in the chain that starts just after the root and ends at the root.
    let pos = (rank + n - root - 1) % n;
    let mut e = RingEmitter::new(n, rank, channels);
    if pos == 0 {
        e.emit_at(PrimitiveKind::Send, Some(whole), None, 0, max_chunk);
    } else if pos < n - 1 {
        e.emit_at(
            PrimitiveKind::RecvReduceSend,
            Some(whole),
            None,
            pos as u32,
            max_chunk,
        );
    } else {
        // This is the root.
        e.emit_at(
            PrimitiveKind::RecvReduceCopy,
            Some(whole),
            Some(whole),
            pos as u32,
            max_chunk,
        );
    }
    e.finish()
}

/// Ring broadcast: data flows from the root around the ring.
fn broadcast_plan(
    count: usize,
    n: usize,
    rank: usize,
    root: usize,
    max_chunk: usize,
    channels: usize,
) -> Plan {
    let whole = ElemRange::new(0, count);
    // Position in the chain that starts at the root.
    let pos = (rank + n - root) % n;
    let mut e = RingEmitter::new(n, rank, channels);
    if pos == 0 {
        // Root: make its own output available locally, then send.
        e.emit_at(PrimitiveKind::Copy, Some(whole), Some(whole), 0, max_chunk);
        e.emit_at(PrimitiveKind::Send, Some(whole), None, 1, max_chunk);
    } else if pos < n - 1 {
        e.emit_at(
            PrimitiveKind::RecvCopySend,
            None,
            Some(whole),
            pos as u32,
            max_chunk,
        );
    } else {
        e.emit_at(
            PrimitiveKind::Recv,
            None,
            Some(whole),
            pos as u32,
            max_chunk,
        );
    }
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::redop::ReduceOp;
    use gpu_sim::GpuId;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn all_reduce_plan_has_expected_macro_steps() {
        let desc = CollectiveDescriptor::all_reduce(16, DataType::F32, ReduceOp::Sum, gpus(4));
        let plan = build_plan(&desc, 0, 1024).unwrap();
        // 2n-1 macro steps, one chunk each (16/4 = 4 elements per slice).
        assert_eq!(plan.algorithm, AlgorithmKind::Ring);
        assert_eq!(plan.len(), 7);
        let steps = &plan.steps;
        assert_eq!(steps[0].kind, PrimitiveKind::Send);
        assert_eq!(steps[1].kind, PrimitiveKind::RecvReduceSend);
        assert_eq!(steps[2].kind, PrimitiveKind::RecvReduceSend);
        assert_eq!(steps[3].kind, PrimitiveKind::RecvReduceCopySend);
        assert_eq!(steps[4].kind, PrimitiveKind::RecvCopySend);
        assert_eq!(steps[5].kind, PrimitiveKind::RecvCopySend);
        assert_eq!(steps[6].kind, PrimitiveKind::Recv);
    }

    #[test]
    fn ring_steps_address_ring_neighbours() {
        let n = 4;
        let desc = CollectiveDescriptor::all_reduce(16, DataType::F32, ReduceOp::Sum, gpus(n));
        for rank in 0..n {
            let plan = build_plan(&desc, rank, 1024).unwrap();
            let next = (rank + 1) % n;
            let prev = (rank + n - 1) % n;
            assert_eq!(plan.send_peers(), vec![next], "rank {rank}");
            assert_eq!(plan.recv_peers(), vec![prev], "rank {rank}");
            for s in &plan.steps {
                assert_eq!(s.src_buf, SrcBuf::Send);
            }
            plan.validate(rank, n).unwrap();
        }
    }

    #[test]
    fn all_reduce_two_ranks_degenerates_correctly() {
        let desc = CollectiveDescriptor::all_reduce(8, DataType::F32, ReduceOp::Sum, gpus(2));
        let plan = build_plan(&desc, 1, 1024).unwrap();
        let kinds: Vec<PrimitiveKind> = plan.steps.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PrimitiveKind::Send,
                PrimitiveKind::RecvReduceCopySend,
                PrimitiveKind::Recv
            ]
        );
    }

    #[test]
    fn chunking_splits_large_slices() {
        let desc = CollectiveDescriptor::all_reduce(4000, DataType::F32, ReduceOp::Sum, gpus(4));
        let plan = build_plan(&desc, 2, 100).unwrap();
        // Each slice is 1000 elements = 10 chunks; 7 macro steps.
        assert_eq!(plan.len(), 70);
        assert!(plan.steps.iter().all(|p| p.elems() <= 100));
        // Chunk indices restart at each macro step.
        assert_eq!(plan.steps.iter().filter(|p| p.chunk_index == 0).count(), 7);
    }

    #[test]
    fn plans_are_chunk_major_pipelined() {
        // Regression test for the connector-capacity deadlock: plans must be
        // ordered chunk-major (chunk c flows through every macro step before
        // chunk c+1 starts), so the number of in-flight chunks per connector
        // stays O(1) instead of O(chunks per macro step). Step-major plans
        // wedge as soon as a macro step has more chunks than the connector
        // has slots: every rank fills its send ring before reaching the step
        // that would drain its peer's.
        for kind_desc in [
            CollectiveDescriptor::all_reduce(4000, DataType::F32, ReduceOp::Sum, gpus(4)),
            CollectiveDescriptor::all_gather(4000, DataType::F32, gpus(4)),
            CollectiveDescriptor::reduce_scatter(4000, DataType::F32, ReduceOp::Sum, gpus(4)),
            CollectiveDescriptor::reduce(4000, DataType::F32, ReduceOp::Sum, 1, gpus(4)),
            CollectiveDescriptor::broadcast(4000, DataType::F32, 1, gpus(4)),
        ] {
            for rank in 0..4 {
                let plan = build_plan(&kind_desc, rank, 100).unwrap();
                let order: Vec<(u32, u32)> =
                    plan.steps.iter().map(|p| (p.chunk_index, p.step)).collect();
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(
                    order, sorted,
                    "{:?} rank {rank} plan is not chunk-major",
                    kind_desc.kind
                );
            }
        }
    }

    #[test]
    fn all_gather_plan_covers_every_output_block() {
        let n = 4;
        let count = 12;
        for rank in 0..n {
            let desc = CollectiveDescriptor::all_gather(count, DataType::F32, gpus(n));
            let plan = build_plan(&desc, rank, 1024).unwrap();
            let mut covered: Vec<usize> = plan
                .steps
                .iter()
                .filter_map(|p| p.dst)
                .map(|d| d.offset / count)
                .collect();
            covered.sort_unstable();
            covered.dedup();
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "rank {rank}");
        }
    }

    #[test]
    fn reduce_scatter_plan_reads_every_input_slice() {
        let n = 3;
        let count = 5;
        for rank in 0..n {
            let desc =
                CollectiveDescriptor::reduce_scatter(count, DataType::F32, ReduceOp::Sum, gpus(n));
            let plan = build_plan(&desc, rank, 1024).unwrap();
            let mut slices: Vec<usize> = plan
                .steps
                .iter()
                .filter_map(|p| p.src)
                .map(|s| s.offset / count)
                .collect();
            slices.sort_unstable();
            slices.dedup();
            assert_eq!(slices.len(), n, "rank {rank} must touch all input slices");
        }
    }

    #[test]
    fn reduce_plan_roles_depend_on_ring_position() {
        let n = 4;
        let root = 2;
        let desc = CollectiveDescriptor::reduce(10, DataType::F32, ReduceOp::Sum, root, gpus(n));
        // Rank just after the root starts the pipeline.
        let starter = build_plan(&desc, 3, 1024).unwrap();
        assert_eq!(starter.steps[0].kind, PrimitiveKind::Send);
        // Intermediate ranks relay.
        let middle = build_plan(&desc, 0, 1024).unwrap();
        assert_eq!(middle.steps[0].kind, PrimitiveKind::RecvReduceSend);
        // The root terminates the pipeline.
        let root_plan = build_plan(&desc, root, 1024).unwrap();
        assert_eq!(root_plan.steps[0].kind, PrimitiveKind::RecvReduceCopy);
    }

    #[test]
    fn broadcast_plan_roles_depend_on_ring_position() {
        let n = 4;
        let root = 1;
        let desc = CollectiveDescriptor::broadcast(10, DataType::F32, root, gpus(n));
        let root_plan = build_plan(&desc, root, 1024).unwrap();
        assert_eq!(root_plan.steps[0].kind, PrimitiveKind::Copy);
        assert_eq!(root_plan.steps[1].kind, PrimitiveKind::Send);
        let relay = build_plan(&desc, 2, 1024).unwrap();
        assert_eq!(relay.steps[0].kind, PrimitiveKind::RecvCopySend);
        let last = build_plan(&desc, 0, 1024).unwrap();
        assert_eq!(last.steps[0].kind, PrimitiveKind::Recv);
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let desc = CollectiveDescriptor::all_reduce(8, DataType::F32, ReduceOp::Sum, gpus(2));
        assert!(matches!(
            build_plan(&desc, 5, 1024),
            Err(CollectiveError::InvalidRank { rank: 5, size: 2 })
        ));
    }

    #[test]
    fn invalid_descriptor_is_rejected() {
        let desc = CollectiveDescriptor::all_reduce(0, DataType::F32, ReduceOp::Sum, gpus(2));
        assert!(build_plan(&desc, 0, 1024).is_err());
    }

    #[test]
    fn zero_chunk_size_is_an_error_not_a_panic() {
        // A bad config must surface as a CollectiveError so the daemon thread
        // is never aborted by an assert.
        let desc = CollectiveDescriptor::all_reduce(8, DataType::F32, ReduceOp::Sum, gpus(2));
        assert!(matches!(
            build_plan(&desc, 0, 0),
            Err(CollectiveError::InvalidChunkSize(0))
        ));
    }

    #[test]
    fn small_counts_produce_empty_slices_without_panicking() {
        // count < n: some slices are empty, their macro steps emit no primitives.
        let desc = CollectiveDescriptor::all_reduce(2, DataType::F32, ReduceOp::Sum, gpus(4));
        for rank in 0..4 {
            let plan = build_plan(&desc, rank, 1024).unwrap();
            assert!(plan.steps.iter().all(|p| p.elems() > 0));
        }
    }
}
