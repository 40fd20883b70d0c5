//! Collective kinds and descriptors.

use gpu_sim::GpuId;
use serde::{Deserialize, Serialize};

use crate::datatype::DataType;
use crate::plan::AlgorithmKind;
use crate::redop::ReduceOp;
use crate::CollectiveError;

/// The five common GPU collectives the paper targets (Sec. 4.1), plus the
/// dense-mesh operations the peer-addressed transport enables: all-to-all
/// (the backbone of MoE expert parallelism) and plain point-to-point
/// send/recv.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Every rank contributes `count` elements; every rank receives the
    /// element-wise reduction.
    AllReduce,
    /// Every rank contributes `count` elements; every rank receives the
    /// concatenation of all contributions (`count * n` elements).
    AllGather,
    /// Every rank contributes `count * n` elements; rank `r` receives the
    /// reduction of everyone's slice `r` (`count` elements).
    ReduceScatter,
    /// Every rank contributes `count` elements; the root receives the reduction.
    Reduce,
    /// The root contributes `count` elements; every rank receives a copy.
    Broadcast,
    /// Every rank contributes `count * n` elements, slice `j` destined for
    /// rank `j`; every rank receives `count * n` elements, slice `i` coming
    /// from rank `i`. Uses the full dense `(src, dst)` pair space of the
    /// connector mesh.
    AllToAll,
    /// Point-to-point transfer: rank 0 (`devices[0]`) sends `count` elements,
    /// rank 1 (`devices[1]`) receives them. Always exactly two devices.
    SendRecv,
}

impl CollectiveKind {
    /// Whether this collective performs a reduction (and therefore needs an operator).
    pub fn is_reducing(&self) -> bool {
        matches!(
            self,
            CollectiveKind::AllReduce | CollectiveKind::ReduceScatter | CollectiveKind::Reduce
        )
    }

    /// Whether this collective is rooted.
    pub fn is_rooted(&self) -> bool {
        matches!(self, CollectiveKind::Reduce | CollectiveKind::Broadcast)
    }

    /// Whether this collective is a point-to-point operation over exactly two
    /// ranks with asymmetric roles (sender and receiver).
    pub fn is_point_to_point(&self) -> bool {
        matches!(self, CollectiveKind::SendRecv)
    }

    /// All collective kinds.
    pub const ALL: [CollectiveKind; 7] = [
        CollectiveKind::AllReduce,
        CollectiveKind::AllGather,
        CollectiveKind::ReduceScatter,
        CollectiveKind::Reduce,
        CollectiveKind::Broadcast,
        CollectiveKind::AllToAll,
        CollectiveKind::SendRecv,
    ];
}

impl std::fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CollectiveKind::AllReduce => "all-reduce",
            CollectiveKind::AllGather => "all-gather",
            CollectiveKind::ReduceScatter => "reduce-scatter",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::AllToAll => "all-to-all",
            CollectiveKind::SendRecv => "send-recv",
        };
        write!(f, "{s}")
    }
}

/// Static description of a collective, fixed at registration time
/// (`dfcclRegister*` in Listing 1).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveDescriptor {
    /// Which collective.
    pub kind: CollectiveKind,
    /// Element count, with the per-kind meaning documented on [`CollectiveKind`].
    pub count: usize,
    /// Element type.
    pub dtype: DataType,
    /// Reduction operator (required for reducing collectives).
    pub op: Option<ReduceOp>,
    /// Root rank (required for rooted collectives).
    pub root: Option<usize>,
    /// Participating GPUs in rank order.
    pub devices: Vec<GpuId>,
    /// User-specified scheduling priority; higher runs earlier under the
    /// priority-based ordering policy. `0` means "no particular priority".
    pub priority: i32,
    /// Per-collective algorithm override. `None` lets the selector pick from
    /// payload size and topology; `Some` is honoured strictly (an unsupported
    /// choice fails registration).
    pub algorithm: Option<AlgorithmKind>,
    /// Per-collective channel-count override: stripe this collective across
    /// `K` parallel connectors per `(src, dst)` edge. `None` is unstriped
    /// (`K = 1`).
    pub channels: Option<usize>,
    /// Opt this collective out of graph-capture fusion: even when it is an
    /// all-reduce recorded between fusable neighbours, the fusion pass
    /// leaves it as its own node (e.g. a gradient bucket the application
    /// inspects between iterations).
    pub no_fuse: bool,
}

impl CollectiveDescriptor {
    /// Convenience constructor for an all-reduce.
    pub fn all_reduce(count: usize, dtype: DataType, op: ReduceOp, devices: Vec<GpuId>) -> Self {
        CollectiveDescriptor {
            kind: CollectiveKind::AllReduce,
            count,
            dtype,
            op: Some(op),
            root: None,
            devices,
            priority: 0,
            algorithm: None,
            channels: None,
            no_fuse: false,
        }
    }

    /// Convenience constructor for an all-gather.
    pub fn all_gather(count: usize, dtype: DataType, devices: Vec<GpuId>) -> Self {
        CollectiveDescriptor {
            kind: CollectiveKind::AllGather,
            count,
            dtype,
            op: None,
            root: None,
            devices,
            priority: 0,
            algorithm: None,
            channels: None,
            no_fuse: false,
        }
    }

    /// Convenience constructor for a reduce-scatter.
    pub fn reduce_scatter(
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        devices: Vec<GpuId>,
    ) -> Self {
        CollectiveDescriptor {
            kind: CollectiveKind::ReduceScatter,
            count,
            dtype,
            op: Some(op),
            root: None,
            devices,
            priority: 0,
            algorithm: None,
            channels: None,
            no_fuse: false,
        }
    }

    /// Convenience constructor for a rooted reduce.
    pub fn reduce(
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        root: usize,
        devices: Vec<GpuId>,
    ) -> Self {
        CollectiveDescriptor {
            kind: CollectiveKind::Reduce,
            count,
            dtype,
            op: Some(op),
            root: Some(root),
            devices,
            priority: 0,
            algorithm: None,
            channels: None,
            no_fuse: false,
        }
    }

    /// Convenience constructor for a broadcast.
    pub fn broadcast(count: usize, dtype: DataType, root: usize, devices: Vec<GpuId>) -> Self {
        CollectiveDescriptor {
            kind: CollectiveKind::Broadcast,
            count,
            dtype,
            op: None,
            root: Some(root),
            devices,
            priority: 0,
            algorithm: None,
            channels: None,
            no_fuse: false,
        }
    }

    /// Convenience constructor for an all-to-all. `count` is the number of
    /// elements each rank sends to (and receives from) each peer, so the send
    /// and recv buffers both hold `count * n` elements.
    pub fn all_to_all(count: usize, dtype: DataType, devices: Vec<GpuId>) -> Self {
        CollectiveDescriptor {
            kind: CollectiveKind::AllToAll,
            count,
            dtype,
            op: None,
            root: None,
            devices,
            priority: 0,
            algorithm: None,
            channels: None,
            no_fuse: false,
        }
    }

    /// Convenience constructor for a point-to-point transfer: `src` sends
    /// `count` elements to `dst`.
    pub fn send_recv(count: usize, dtype: DataType, src: GpuId, dst: GpuId) -> Self {
        CollectiveDescriptor {
            kind: CollectiveKind::SendRecv,
            count,
            dtype,
            op: None,
            root: None,
            devices: vec![src, dst],
            priority: 0,
            algorithm: None,
            channels: None,
            no_fuse: false,
        }
    }

    /// Set the scheduling priority.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Force a specific collective algorithm for this collective.
    pub fn with_algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Stripe this collective across `channels` parallel connectors per
    /// `(src, dst)` edge, overriding the runtime-wide setting.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = Some(channels);
        self
    }

    /// Opt this collective out of graph-capture fusion.
    pub fn with_no_fuse(mut self) -> Self {
        self.no_fuse = true;
        self
    }

    /// Number of participating ranks.
    pub fn num_ranks(&self) -> usize {
        self.devices.len()
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), CollectiveError> {
        if self.devices.len() < 2 {
            return Err(CollectiveError::DeviceSetTooSmall(self.devices.len()));
        }
        // A repeated GpuId corrupts rank addressing: `rank_of` resolves both
        // occurrences to the first, and any plan over the set schedules
        // self-edges. This also covers SendRecv with src == dst.
        let mut seen = std::collections::BTreeSet::new();
        for &d in &self.devices {
            if !seen.insert(d) {
                return Err(CollectiveError::DuplicateDevice(d));
            }
        }
        if self.count == 0 {
            return Err(CollectiveError::EmptyCollective);
        }
        if self.channels == Some(0) {
            return Err(CollectiveError::InvalidChannelCount(0));
        }
        if self.kind.is_reducing() && self.op.is_none() {
            return Err(CollectiveError::MissingReduceOp);
        }
        if self.kind.is_rooted() {
            match self.root {
                Some(r) if r < self.devices.len() => {}
                other => return Err(CollectiveError::InvalidRoot(other)),
            }
        }
        if self.kind.is_point_to_point() && self.devices.len() != 2 {
            return Err(CollectiveError::InvalidPointToPoint(self.devices.len()));
        }
        Ok(())
    }

    /// Required size of the send buffer for `rank`, in elements.
    pub fn send_elems(&self, rank: usize) -> usize {
        match self.kind {
            CollectiveKind::AllReduce
            | CollectiveKind::AllGather
            | CollectiveKind::Reduce
            | CollectiveKind::Broadcast => self.count,
            CollectiveKind::ReduceScatter | CollectiveKind::AllToAll => {
                self.count * self.num_ranks()
            }
            CollectiveKind::SendRecv => {
                if rank == 0 {
                    self.count
                } else {
                    0
                }
            }
        }
    }

    /// Required size of the recv buffer for `rank`, in elements.
    pub fn recv_elems(&self, rank: usize) -> usize {
        match self.kind {
            CollectiveKind::AllReduce | CollectiveKind::Broadcast => self.count,
            CollectiveKind::AllGather | CollectiveKind::AllToAll => self.count * self.num_ranks(),
            CollectiveKind::ReduceScatter => self.count,
            CollectiveKind::Reduce => {
                if Some(rank) == self.root {
                    self.count
                } else {
                    0
                }
            }
            CollectiveKind::SendRecv => {
                if rank == 1 {
                    self.count
                } else {
                    0
                }
            }
        }
    }

    /// Required size of the send buffer in bytes.
    pub fn send_bytes(&self, rank: usize) -> usize {
        self.send_elems(rank) * self.dtype.size_bytes()
    }

    /// Required size of the recv buffer in bytes.
    pub fn recv_bytes(&self, rank: usize) -> usize {
        self.recv_elems(rank) * self.dtype.size_bytes()
    }

    /// Total bytes a rank moves over the wire (approximate; ring algorithm).
    /// Useful for the algorithm-bandwidth computation in the benchmarks.
    pub fn wire_bytes_per_rank(&self) -> usize {
        let n = self.num_ranks();
        let elem = self.dtype.size_bytes();
        match self.kind {
            CollectiveKind::AllReduce => 2 * (n - 1) * (self.count / n.max(1)) * elem,
            CollectiveKind::AllGather
            | CollectiveKind::ReduceScatter
            | CollectiveKind::AllToAll => (n - 1) * self.count * elem,
            CollectiveKind::Reduce | CollectiveKind::Broadcast | CollectiveKind::SendRecv => {
                self.count * elem
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpus(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    #[test]
    fn kind_properties() {
        assert!(CollectiveKind::AllReduce.is_reducing());
        assert!(!CollectiveKind::AllGather.is_reducing());
        assert!(CollectiveKind::Reduce.is_rooted());
        assert!(CollectiveKind::Broadcast.is_rooted());
        assert!(!CollectiveKind::AllReduce.is_rooted());
        assert!(!CollectiveKind::AllToAll.is_reducing());
        assert!(!CollectiveKind::AllToAll.is_rooted());
        assert!(CollectiveKind::SendRecv.is_point_to_point());
        assert!(!CollectiveKind::AllToAll.is_point_to_point());
        assert_eq!(CollectiveKind::ALL.len(), 7);
    }

    #[test]
    fn validate_catches_problems() {
        let mut d = CollectiveDescriptor::all_reduce(8, DataType::F32, ReduceOp::Sum, gpus(1));
        assert!(matches!(
            d.validate(),
            Err(CollectiveError::DeviceSetTooSmall(1))
        ));
        d.devices = gpus(4);
        d.count = 0;
        assert!(matches!(
            d.validate(),
            Err(CollectiveError::EmptyCollective)
        ));
        d.count = 8;
        d.op = None;
        assert!(matches!(
            d.validate(),
            Err(CollectiveError::MissingReduceOp)
        ));
        d.op = Some(ReduceOp::Sum);
        assert!(d.validate().is_ok());

        let bad_root = CollectiveDescriptor::broadcast(8, DataType::F32, 9, gpus(4));
        assert!(matches!(
            bad_root.validate(),
            Err(CollectiveError::InvalidRoot(Some(9)))
        ));
        let good_root = CollectiveDescriptor::reduce(8, DataType::F32, ReduceOp::Sum, 3, gpus(4));
        assert!(good_root.validate().is_ok());
    }

    #[test]
    fn buffer_sizes_follow_collective_semantics() {
        let n = 4;
        let ar = CollectiveDescriptor::all_reduce(100, DataType::F32, ReduceOp::Sum, gpus(n));
        assert_eq!(ar.send_elems(0), 100);
        assert_eq!(ar.recv_elems(0), 100);

        let ag = CollectiveDescriptor::all_gather(100, DataType::F32, gpus(n));
        assert_eq!(ag.send_elems(1), 100);
        assert_eq!(ag.recv_elems(1), 400);

        let rs = CollectiveDescriptor::reduce_scatter(100, DataType::F32, ReduceOp::Sum, gpus(n));
        assert_eq!(rs.send_elems(2), 400);
        assert_eq!(rs.recv_elems(2), 100);

        let red = CollectiveDescriptor::reduce(100, DataType::F64, ReduceOp::Max, 1, gpus(n));
        assert_eq!(red.recv_elems(1), 100);
        assert_eq!(red.recv_elems(0), 0);
        assert_eq!(red.send_bytes(0), 800);

        let bc = CollectiveDescriptor::broadcast(100, DataType::U8, 0, gpus(n));
        assert_eq!(bc.send_bytes(0), 100);
        assert_eq!(bc.recv_bytes(3), 100);

        // All-to-all: both buffers hold n slices of `count` elements.
        let a2a = CollectiveDescriptor::all_to_all(100, DataType::F32, gpus(n));
        assert_eq!(a2a.send_elems(0), 400);
        assert_eq!(a2a.recv_elems(3), 400);

        // Point-to-point: only the sender reads, only the receiver writes.
        let p2p = CollectiveDescriptor::send_recv(100, DataType::F32, GpuId(0), GpuId(1));
        assert_eq!(p2p.send_elems(0), 100);
        assert_eq!(p2p.send_elems(1), 0);
        assert_eq!(p2p.recv_elems(0), 0);
        assert_eq!(p2p.recv_elems(1), 100);
    }

    #[test]
    fn point_to_point_validation_needs_two_distinct_devices() {
        let good = CollectiveDescriptor::send_recv(8, DataType::F32, GpuId(0), GpuId(3));
        assert!(good.validate().is_ok());
        // src == dst is a duplicated device, caught by the duplicate check.
        let same = CollectiveDescriptor::send_recv(8, DataType::F32, GpuId(2), GpuId(2));
        assert!(matches!(
            same.validate(),
            Err(CollectiveError::DuplicateDevice(GpuId(2)))
        ));
        let mut three = CollectiveDescriptor::send_recv(8, DataType::F32, GpuId(0), GpuId(1));
        three.devices.push(GpuId(2));
        assert!(matches!(
            three.validate(),
            Err(CollectiveError::InvalidPointToPoint(3))
        ));
    }

    #[test]
    fn duplicate_devices_are_rejected_for_every_kind() {
        // A duplicated rank would build a plan with self-edges and corrupt
        // rank addressing (`rank_of` resolves both occurrences to the first),
        // so registration must refuse it outright — for every collective
        // kind, wherever the duplicate sits in the device set.
        let dup = vec![GpuId(0), GpuId(1), GpuId(2), GpuId(1)];
        for kind in CollectiveKind::ALL {
            let desc = match kind {
                CollectiveKind::AllReduce => {
                    CollectiveDescriptor::all_reduce(8, DataType::F32, ReduceOp::Sum, dup.clone())
                }
                CollectiveKind::AllGather => {
                    CollectiveDescriptor::all_gather(8, DataType::F32, dup.clone())
                }
                CollectiveKind::ReduceScatter => CollectiveDescriptor::reduce_scatter(
                    8,
                    DataType::F32,
                    ReduceOp::Sum,
                    dup.clone(),
                ),
                CollectiveKind::Reduce => {
                    CollectiveDescriptor::reduce(8, DataType::F32, ReduceOp::Sum, 0, dup.clone())
                }
                CollectiveKind::Broadcast => {
                    CollectiveDescriptor::broadcast(8, DataType::F32, 0, dup.clone())
                }
                CollectiveKind::AllToAll => {
                    CollectiveDescriptor::all_to_all(8, DataType::F32, dup.clone())
                }
                CollectiveKind::SendRecv => {
                    CollectiveDescriptor::send_recv(8, DataType::F32, GpuId(3), GpuId(3))
                }
            };
            match desc.validate() {
                Err(CollectiveError::DuplicateDevice(d)) => {
                    let expected = if kind == CollectiveKind::SendRecv {
                        GpuId(3)
                    } else {
                        GpuId(1)
                    };
                    assert_eq!(d, expected, "{kind}");
                }
                other => panic!("{kind}: expected DuplicateDevice, got {other:?}"),
            }
        }
        // An adjacent duplicate at the front is caught too.
        let desc = CollectiveDescriptor::all_gather(8, DataType::F32, vec![GpuId(5), GpuId(5)]);
        assert!(matches!(
            desc.validate(),
            Err(CollectiveError::DuplicateDevice(GpuId(5)))
        ));
    }

    #[test]
    fn channel_overrides_are_validated_and_carried() {
        let d = CollectiveDescriptor::all_gather(4, DataType::F32, gpus(2));
        assert_eq!(d.channels, None);
        let d = d.with_channels(4);
        assert_eq!(d.channels, Some(4));
        assert!(d.validate().is_ok());
        let zero = CollectiveDescriptor::all_gather(4, DataType::F32, gpus(2)).with_channels(0);
        assert!(matches!(
            zero.validate(),
            Err(CollectiveError::InvalidChannelCount(0))
        ));
    }

    #[test]
    fn wire_bytes_reflect_ring_volume() {
        let n = 8;
        let ar = CollectiveDescriptor::all_reduce(1024, DataType::F32, ReduceOp::Sum, gpus(n));
        // 2*(n-1)/n of the buffer, in bytes.
        assert_eq!(ar.wire_bytes_per_rank(), 2 * 7 * 128 * 4);
        let bc = CollectiveDescriptor::broadcast(1024, DataType::F32, 0, gpus(n));
        assert_eq!(bc.wire_bytes_per_rank(), 4096);
    }

    #[test]
    fn priority_builder() {
        let d = CollectiveDescriptor::all_gather(4, DataType::F32, gpus(2)).with_priority(7);
        assert_eq!(d.priority, 7);
    }

    #[test]
    fn no_fuse_builder() {
        let d = CollectiveDescriptor::all_reduce(4, DataType::F32, ReduceOp::Sum, gpus(2));
        assert!(!d.no_fuse);
        assert!(d.with_no_fuse().no_fuse);
    }
}
