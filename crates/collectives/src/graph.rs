//! Iteration-graph IR and the DDP-style all-reduce fusion pass.
//!
//! Training traffic is the same per-step collective sequence replayed
//! millions of times. Graph capture records that sequence once — descriptor,
//! buffers and submission order per collective — and the fusion pass rewrites
//! it at compile time before the runtime pre-resolves plans and programs for
//! replay:
//!
//! * [`RecordedCollective`] — one captured invocation (id, descriptor and the
//!   buffers it was recorded with; replay re-executes over the *same*
//!   buffers, the CUDA-Graph fixed-address contract).
//! * [`GraphOp`] — one node of the rewritten graph: an unchanged single
//!   collective, or a [`FusedAllReduce`] coalescing a bucket of consecutive
//!   all-reduces.
//! * [`plan_fusion`] — the pass. It splits the recorded sequence into the
//!   fewest legal buckets, DDP's gradient bucketing: a greedy fill extends
//!   the open bucket while the next record may join it and closes it
//!   otherwise, so a bucket pays each collective's fixed cost (SQE, context,
//!   CQE and the ring's per-step α) once. Legality holds for every
//!   sub-run of a legal bucket, so the greedy fill is the fewest nodes. It
//!   is a pure, deterministic function of the recorded sequence and the
//!   cap, so SPMD ranks that capture the same iteration independently
//!   produce the same bucketization and the same synthesized fused
//!   collective ids — a requirement, because ranks resolve communicators by
//!   collective id.
//!
//! ## Fusion legality
//!
//! A run of consecutive recorded collectives may share a bucket iff all are
//! all-reduces over the same ordered device set with the same element type,
//! operator, priority and per-collective algorithm/channel overrides, none
//! opted out via [`CollectiveDescriptor::with_no_fuse`], their payloads sum
//! to at most the cap (`fusion_threshold_bytes`, DDP's `bucket_cap_mb`), and
//! no allocation in the run is both read (a member's send buffer) and
//! written (a member's recv buffer) — an in-place member is one case — nor
//! written by two members, whose chunks would land in it in no fixed order.
//! Under those conditions the fused all-reduce — element count the sum of
//! the bucket, payload the concatenation of the members' byte ranges —
//! computes exactly the element-wise reduction each member would have
//! computed: all-reduce is element-wise, so concatenating inputs
//! concatenates outputs. No cross-element reassociation is introduced; only
//! the *schedule* of the elements changes, which the per-collective
//! bit-exactness argument already covers.
//!
//! ## No copies
//!
//! A fused node's [`FusedAllReduce::send_stage`] and
//! [`FusedAllReduce::recv_stage`] are concatenated views
//! ([`DeviceBuffer::concat`]) over its members' buffers, so the fused
//! all-reduce reads and writes them in place. The aliasing rule keeps that
//! exact when a rolled-back node re-executes: it rereads its members' send
//! buffers, which nothing in the bucket writes.

use crate::buffer::DeviceBuffer;
use crate::collective::{CollectiveDescriptor, CollectiveKind};

/// High bit reserved in the collective-id space for fused collectives the
/// fusion pass synthesizes. Applications must not register ids at or above
/// this base (the bit above it is reserved for graph replay ids); the
/// runtime's registration path enforces this.
pub const FUSED_COLL_ID_BASE: u64 = 1 << 62;

/// The deterministic id of the fused all-reduce replacing a bucket whose
/// first member is `first`: every rank records the same sequence, so every
/// rank derives the same id and the fused collectives resolve to one shared
/// communicator, exactly like an application-registered collective.
pub fn fused_coll_id(first: u64) -> u64 {
    FUSED_COLL_ID_BASE | first
}

/// One collective invocation recorded during graph capture.
#[derive(Debug, Clone)]
pub struct RecordedCollective {
    /// The registered collective id.
    pub coll_id: u64,
    /// Its registration-time descriptor.
    pub desc: CollectiveDescriptor,
    /// The send buffer recorded for replay (fixed address across replays).
    pub send: DeviceBuffer,
    /// The recv buffer recorded for replay.
    pub recv: DeviceBuffer,
}

/// One member of a fused all-reduce: which recorded collective it came from
/// and where its payload sits in the fused views.
#[derive(Debug, Clone)]
pub struct FusedSegment {
    /// The original collective id (the fused node is accounted to the
    /// tenant that registered its first member).
    pub coll_id: u64,
    /// The member's recorded send buffer.
    pub send: DeviceBuffer,
    /// The member's recorded recv buffer.
    pub recv: DeviceBuffer,
    /// Byte offset of this member's payload in the fused views.
    pub byte_off: usize,
    /// Byte length of this member's payload.
    pub byte_len: usize,
}

/// A bucket of consecutive compatible all-reduces coalesced into one
/// all-reduce over the concatenation of their byte ranges.
#[derive(Debug, Clone)]
pub struct FusedAllReduce {
    /// The synthesized collective id ([`fused_coll_id`] of the first member).
    pub coll_id: u64,
    /// The fused descriptor: the members' shared shape with the summed
    /// element count.
    pub desc: CollectiveDescriptor,
    /// The members, in recorded order, with their offsets.
    pub segments: Vec<FusedSegment>,
    /// The members' send buffers, concatenated as a view (no copy).
    pub send_stage: DeviceBuffer,
    /// The members' recv buffers, concatenated as a view (no copy).
    pub recv_stage: DeviceBuffer,
}

impl FusedAllReduce {
    /// Does nothing: [`FusedAllReduce::send_stage`] is a view over the
    /// members' send buffers, so there is nothing to gather. Kept for
    /// callers of the former staging copy.
    pub fn gather(&self) {}

    /// Does nothing: [`FusedAllReduce::recv_stage`] is a view over the
    /// members' recv buffers, so the fused result is already in place. Kept
    /// for callers of the former staging copy.
    pub fn scatter(&self) {}
}

/// One node of a captured iteration graph after the fusion pass.
#[derive(Debug, Clone)]
pub enum GraphOp {
    /// An unchanged recorded collective.
    Single(RecordedCollective),
    /// A coalesced bucket of all-reduces.
    Fused(FusedAllReduce),
}

impl GraphOp {
    /// The collective id this node executes under.
    pub fn coll_id(&self) -> u64 {
        match self {
            GraphOp::Single(r) => r.coll_id,
            GraphOp::Fused(f) => f.coll_id,
        }
    }

    /// The descriptor this node executes with.
    pub fn desc(&self) -> &CollectiveDescriptor {
        match self {
            GraphOp::Single(r) => &r.desc,
            GraphOp::Fused(f) => &f.desc,
        }
    }

    /// The send buffer the daemon executes this node over.
    pub fn send_buffer(&self) -> &DeviceBuffer {
        match self {
            GraphOp::Single(r) => &r.send,
            GraphOp::Fused(f) => &f.send_stage,
        }
    }

    /// The recv buffer the daemon executes this node over.
    pub fn recv_buffer(&self) -> &DeviceBuffer {
        match self {
            GraphOp::Single(r) => &r.recv,
            GraphOp::Fused(f) => &f.recv_stage,
        }
    }
}

fn payload_bytes(rec: &RecordedCollective) -> usize {
    rec.desc.count * rec.desc.dtype.size_bytes()
}

/// Whether `rec` may join a bucket at all under `cap_bytes` (shape
/// compatibility and aliasing with the other members are checked
/// separately). A zero cap disables fusion.
fn fusable(rec: &RecordedCollective, cap_bytes: usize) -> bool {
    rec.desc.kind == CollectiveKind::AllReduce
        && !rec.desc.no_fuse
        && cap_bytes > 0
        && payload_bytes(rec) <= cap_bytes
        && !rec.send.same_allocation(&rec.recv)
}

/// Whether two candidates may share a bucket: everything that shapes the
/// fused plan — and the scheduling of the fused node — must agree.
fn compatible(a: &CollectiveDescriptor, b: &CollectiveDescriptor) -> bool {
    a.devices == b.devices
        && a.dtype == b.dtype
        && a.op == b.op
        && a.priority == b.priority
        && a.algorithm == b.algorithm
        && a.channels == b.channels
}

/// Whether `rec` joining `bucket` would make an allocation both read and
/// written (a send buffer of one member is a recv buffer of another) or
/// written twice (two members share a recv allocation). Each is assumed
/// legal on its own.
fn aliases(bucket: &[RecordedCollective], rec: &RecordedCollective) -> bool {
    bucket.iter().any(|x| {
        x.send.same_allocation(&rec.recv)
            || rec.send.same_allocation(&x.recv)
            || x.recv.same_allocation(&rec.recv)
    })
}

fn fuse(bucket: Vec<RecordedCollective>) -> FusedAllReduce {
    debug_assert!(bucket.len() >= 2);
    let elem = bucket[0].desc.dtype.size_bytes();
    let mut desc = bucket[0].desc.clone();
    desc.count = bucket.iter().map(|r| r.desc.count).sum();
    // A fused node never re-fuses (the pass runs once per capture, but the
    // flag also documents the synthesized descriptor's provenance).
    desc.no_fuse = true;
    let coll_id = fused_coll_id(bucket[0].coll_id);
    let mut segments = Vec::with_capacity(bucket.len());
    let mut off = 0usize;
    for r in bucket {
        let len = r.desc.count * elem;
        segments.push(FusedSegment {
            coll_id: r.coll_id,
            send: r.send,
            recv: r.recv,
            byte_off: off,
            byte_len: len,
        });
        off += len;
    }
    let view = |buf: fn(&FusedSegment) -> &DeviceBuffer| {
        DeviceBuffer::concat(segments.iter().map(|s| (buf(s).clone(), s.byte_len)))
    };
    FusedAllReduce {
        coll_id,
        desc,
        send_stage: view(|s| &s.send),
        recv_stage: view(|s| &s.recv),
        segments,
    }
}

fn flush(ops: &mut Vec<GraphOp>, bucket: &mut Vec<RecordedCollective>) {
    if bucket.len() >= 2 {
        ops.push(GraphOp::Fused(fuse(std::mem::take(bucket))));
    } else {
        ops.extend(bucket.drain(..).map(GraphOp::Single));
    }
}

/// The fusion pass: rewrite a recorded sequence into the fewest graph nodes,
/// each bucket of ≥ 2 legal members (see the module docs) fused into one
/// [`FusedAllReduce`] of at most `threshold_bytes` payload. A
/// `threshold_bytes` of 0 disables fusion entirely. Deterministic, so SPMD
/// ranks agree on the bucketization and the synthesized ids.
pub fn plan_fusion(records: Vec<RecordedCollective>, threshold_bytes: usize) -> Vec<GraphOp> {
    let mut ops = Vec::with_capacity(records.len());
    let mut bucket: Vec<RecordedCollective> = Vec::new();
    let mut bytes = 0;
    for rec in records {
        if !fusable(&rec, threshold_bytes) {
            flush(&mut ops, &mut bucket);
            ops.push(GraphOp::Single(rec));
            continue;
        }
        let len = payload_bytes(&rec);
        let joins = bucket.first().is_some_and(|head| {
            compatible(&head.desc, &rec.desc)
                && bytes + len <= threshold_bytes
                && !aliases(&bucket, &rec)
        });
        if !joins {
            flush(&mut ops, &mut bucket);
            bytes = 0;
        }
        bytes += len;
        bucket.push(rec);
    }
    flush(&mut ops, &mut bucket);
    ops
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

    fn small_ar(coll_id: u64, count: usize) -> RecordedCollective {
        let desc = CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(2));
        RecordedCollective {
            coll_id,
            desc,
            send: DeviceBuffer::zeroed(count * 4),
            recv: DeviceBuffer::zeroed(count * 4),
        }
    }

    #[test]
    fn consecutive_small_all_reduces_fuse_into_one_bucket() {
        let ops = plan_fusion(vec![small_ar(1, 4), small_ar(2, 6), small_ar(3, 2)], 1024);
        assert_eq!(ops.len(), 1);
        let GraphOp::Fused(f) = &ops[0] else {
            panic!("expected a fused node");
        };
        assert_eq!(f.coll_id, fused_coll_id(1));
        assert_eq!(f.desc.count, 12);
        assert!(f.desc.no_fuse);
        assert_eq!(f.segments.len(), 3);
        assert_eq!(
            f.segments
                .iter()
                .map(|s| (s.byte_off, s.byte_len))
                .collect::<Vec<_>>(),
            vec![(0, 16), (16, 24), (40, 8)]
        );
        assert_eq!(f.send_stage.len(), 48);
    }

    #[test]
    fn oversized_no_fuse_and_non_all_reduce_break_buckets() {
        let big = small_ar(10, 1024); // 4096 bytes > threshold
        let opted_out = {
            let mut r = small_ar(11, 4);
            r.desc.no_fuse = true;
            r
        };
        let gather = RecordedCollective {
            coll_id: 12,
            desc: CollectiveDescriptor::all_gather(4, DataType::F32, gpus(2)),
            send: DeviceBuffer::zeroed(16),
            recv: DeviceBuffer::zeroed(32),
        };
        let ops = plan_fusion(
            vec![
                small_ar(1, 4),
                big,
                small_ar(2, 4),
                opted_out,
                small_ar(3, 4),
                gather,
                small_ar(4, 4),
                small_ar(5, 4),
            ],
            64,
        );
        // Nothing fuses except the trailing adjacent pair.
        assert_eq!(ops.len(), 7);
        assert!(ops[..6].iter().all(|op| matches!(op, GraphOp::Single(_))));
        let GraphOp::Fused(f) = &ops[6] else {
            panic!("trailing pair fuses");
        };
        assert_eq!(f.coll_id, fused_coll_id(4));
        assert_eq!(f.segments.len(), 2);
    }

    #[test]
    fn incompatible_shapes_split_buckets() {
        let mut other_op = small_ar(2, 4);
        other_op.desc.op = Some(ReduceOp::Max);
        let mut other_devices = small_ar(4, 4);
        other_devices.desc.devices = gpus(3);
        let ops = plan_fusion(
            vec![
                small_ar(1, 4),
                other_op,
                small_ar(3, 4),
                other_devices,
                small_ar(5, 4),
            ],
            1024,
        );
        assert_eq!(ops.len(), 5, "no two neighbours agree on the shape");
        assert!(ops.iter().all(|op| matches!(op, GraphOp::Single(_))));
    }

    #[test]
    fn zero_threshold_disables_fusion() {
        let ops = plan_fusion(vec![small_ar(1, 1), small_ar(2, 1)], 0);
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|op| matches!(op, GraphOp::Single(_))));
    }

    #[test]
    fn fused_views_read_and_write_the_members_in_place() {
        let a = small_ar(1, 2);
        let b = small_ar(2, 3);
        a.send.replace(vec![1; 8]);
        b.send.replace(vec![2; 12]);
        let ops = plan_fusion(vec![a.clone(), b.clone()], 1024);
        let GraphOp::Fused(f) = &ops[0] else {
            panic!("fused");
        };
        // The send view reads the members' current bytes: nothing staged.
        assert_eq!(
            f.send_stage.to_vec(),
            [vec![1u8; 8], vec![2u8; 12]].concat()
        );
        b.send.write_range(0, &[3; 4]);
        assert_eq!(f.send_stage.read_range(6, 4), vec![1, 1, 3, 3]);
        // A write across the member boundary lands in both members.
        f.recv_stage.write_range(0, &(0u8..20).collect::<Vec<_>>());
        assert_eq!(a.recv.to_vec(), (0u8..8).collect::<Vec<_>>());
        assert_eq!(b.recv.to_vec(), (8u8..20).collect::<Vec<_>>());
        // gather and scatter have nothing left to move.
        f.gather();
        f.scatter();
        assert_eq!(a.recv.to_vec(), (0u8..8).collect::<Vec<_>>());
        assert!(!f.send_stage.same_allocation(&a.send));
    }

    /// Records over distinct fresh buffers with the given f32 counts.
    fn seq(counts: &[usize]) -> Vec<RecordedCollective> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| small_ar(i as u64 + 1, c))
            .collect()
    }

    /// Each node as (first collective id, member count).
    fn shape_of(ops: &[GraphOp]) -> Vec<(u64, usize)> {
        ops.iter()
            .map(|op| match op {
                GraphOp::Single(r) => (r.coll_id, 1),
                GraphOp::Fused(f) => (f.segments[0].coll_id, f.segments.len()),
            })
            .collect()
    }

    #[test]
    fn the_partition_is_deterministic_and_fills_each_bucket_to_the_cap() {
        // 64 B hold 16 f32: {4, 4, 6} then {6, 2, 4}. No partition of these
        // runs into 64 B buckets has fewer than two nodes (26 elements).
        let counts = [4, 4, 6, 6, 2, 4];
        let once = plan_fusion(seq(&counts), 64);
        assert_eq!(shape_of(&once), vec![(1, 3), (4, 3)]);
        for _ in 0..3 {
            let again = plan_fusion(seq(&counts), 64);
            assert_eq!(shape_of(&again), shape_of(&once));
            assert_eq!(
                again.iter().map(GraphOp::coll_id).collect::<Vec<_>>(),
                once.iter().map(GraphOp::coll_id).collect::<Vec<_>>()
            );
        }
        // A cap holding everything makes one node.
        assert_eq!(shape_of(&plan_fusion(seq(&counts), 1024)), vec![(1, 6)]);
    }

    #[test]
    fn a_cap_no_fuse_an_incompatible_shape_and_an_alias_each_break_a_bucket() {
        // The cap bounds a bucket's total payload: 4 × 16 B under 48 B.
        let ops = plan_fusion(seq(&[4, 4, 4, 4]), 48);
        assert_eq!(shape_of(&ops), vec![(1, 3), (4, 1)]);
        // no_fuse.
        let mut recs = seq(&[4, 4, 4]);
        recs[1].desc.no_fuse = true;
        assert_eq!(
            shape_of(&plan_fusion(recs, 1024)),
            vec![(1, 1), (2, 1), (3, 1)]
        );
        // An incompatible shape (another operator).
        let mut recs = seq(&[4, 4, 4, 4]);
        recs[2].desc.op = Some(ReduceOp::Max);
        assert_eq!(
            shape_of(&plan_fusion(recs, 1024)),
            vec![(1, 2), (3, 1), (4, 1)]
        );
        // An in-place member stays a single node.
        let mut recs = seq(&[4, 4, 4, 4]);
        recs[2].recv = recs[2].send.clone();
        assert_eq!(
            shape_of(&plan_fusion(recs, 1024)),
            vec![(1, 2), (3, 1), (4, 1)]
        );
        // A member reading what an earlier member writes splits the run
        // between them, whichever way round.
        let mut recs = seq(&[4, 4, 4, 4]);
        recs[2].send = recs[0].recv.clone();
        assert_eq!(shape_of(&plan_fusion(recs, 1024)), vec![(1, 2), (3, 2)]);
        let mut recs = seq(&[4, 4, 4, 4]);
        recs[3].recv = recs[1].send.clone();
        assert_eq!(shape_of(&plan_fusion(recs, 1024)), vec![(1, 3), (4, 1)]);
        // Two members writing one allocation split too; two reading one
        // do not.
        let mut recs = seq(&[4, 4, 4, 4]);
        recs[2].recv = recs[1].recv.clone();
        assert_eq!(shape_of(&plan_fusion(recs, 1024)), vec![(1, 2), (3, 2)]);
        let mut recs = seq(&[4, 4, 4, 4]);
        recs[2].send = recs[1].send.clone();
        assert_eq!(shape_of(&plan_fusion(recs, 1024)), vec![(1, 4)]);
    }

    #[test]
    fn ddp_replay_fuses_into_one_bucket_below_the_per_tensor_buckets() {
        // The replay workload's step: 8 × 256 KiB then 48 × 4 KiB f32
        // all-reduces on 4 flat ranks, each node priced at the estimate of
        // the family and chunk the selector picks under the whole ladder.
        let topo = dfccl_transport::Topology::flat(4);
        let link = dfccl_transport::LinkModel::table2_testbed();
        let selector = crate::AlgorithmSelector::default();
        let cap = crate::CHUNK_LADDER[2];
        let ar =
            |count| CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(4));
        let cost = |d: &CollectiveDescriptor| {
            let (kind, chunk) = selector.choose(d, cap, &topo);
            crate::estimate_family_ns(d, kind, chunk, &topo, &link).unwrap() / 1e3
        };
        let step = || -> Vec<RecordedCollective> {
            (0..56u64)
                .map(|i| {
                    let desc = ar(if i < 8 { 64 * 1024 } else { 1024 });
                    let bytes = desc.count * 4;
                    RecordedCollective {
                        coll_id: i + 1,
                        desc,
                        send: DeviceBuffer::zeroed(bytes),
                        recv: DeviceBuffer::zeroed(bytes),
                    }
                })
                .collect()
        };
        let price = |ops: &[GraphOp]| ops.iter().map(|op| cost(op.desc())).sum::<f64>();
        // DDP's 25 MiB cap holds the whole 2 240 KiB step: one node, whose
        // ring sends one 512 Ki chunk per slice.
        let ops = plan_fusion(step(), 25 << 20);
        assert_eq!(shape_of(&ops), vec![(1, 56)]);
        // Fusing only tensors of at most 64 KiB, as before the cap, ran nine
        // nodes: the eight large ones apart and one of the 48 small ones.
        let fused = price(&ops);
        let apart = 8.0 * cost(&ar(64 * 1024)) + cost(&ar(48 * 1024));
        eprintln!("ddp_replay step: one node {fused:.9} us, nine nodes {apart:.9} us");
        assert!((fused - 323.585).abs() < 1e-3, "one node reads {fused}");
        assert!((apart - 409.985).abs() < 1e-3, "nine nodes read {apart}");
    }

    #[test]
    fn fused_ids_live_in_the_reserved_space_and_are_deterministic() {
        assert_eq!(fused_coll_id(7), FUSED_COLL_ID_BASE | 7);
        assert!(fused_coll_id(0) >= FUSED_COLL_ID_BASE);
    }
}
