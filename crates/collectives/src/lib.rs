//! # dfccl-collectives — collective algorithms over connectors
//!
//! GPU collectives (all-reduce, all-gather, reduce-scatter, reduce, broadcast)
//! are all composed from the same small set of *primitives* — fusions of the
//! basic `send`, `recv`, `reduce` and `copy` actions operating on the four
//! buffers of Fig. 5. This crate provides:
//!
//! * [`DataType`] / [`ReduceOp`] — element types and reduction operators.
//! * [`CollectiveDescriptor`] — the static description of one collective
//!   (kind, element count, data type, operator, root, device set, priority).
//! * [`DeviceBuffer`] — the local send/recv buffers.
//! * chunking helpers ([`chunk::chunk_ranges`], [`chunk::slice_ranges`]).
//! * [`PrimitiveStep`] — one peer-addressed primitive of a rank's schedule.
//! * [`Plan`] / [`Algorithm`] — the plan IR and the trait schedule
//!   generators implement. Four families are built in: [`ring`] (bandwidth-
//!   optimal), [`tree`] (double binary tree, latency-optimal for small
//!   payloads), [`hierarchical`] (two-level, for multi-node topologies) and
//!   [`alltoall`] (pairwise exchange for dense-mesh all-to-all and plain
//!   point-to-point send/recv).
//! * [`AlgorithmSelector`] — picks the family the [`cost`] model rates
//!   fastest for each collective, overridable per collective and globally.
//! * [`executor`] — executes one compiled instruction against the rank's
//!   bound connectors. Every primitive first checks that the connector
//!   conditions it needs are satisfied and only then runs; the caller decides
//!   how long to poll for readiness, which is exactly the preemption hook
//!   DFCCL's daemon kernel uses (Sec. 4.1/4.2). Because every plan is a
//!   sequence of single-chunk, non-blocking primitives, preemption safety is
//!   independent of the algorithm family.

pub mod alltoall;
pub mod buffer;
pub mod chunk;
pub mod collective;
pub mod cost;
pub mod datatype;
pub mod executor;
pub mod graph;
pub mod hierarchical;
pub mod plan;
pub mod primitive;
pub mod program;
pub mod redop;
pub mod ring;
pub mod selector;
pub mod tree;

pub use alltoall::PairwiseAlgorithm;
pub use buffer::DeviceBuffer;
pub use chunk::{chunk_ranges, slice_ranges, ElemRange};
pub use collective::{CollectiveDescriptor, CollectiveKind};
pub use cost::{estimate_completion_ns, estimate_family_ns, CostError};
pub use datatype::DataType;
pub use executor::{
    execute_ready_instr, flush_pending_compiled, instr_ready, validate_buffers, ExecError,
    LanePass, LaneRun, PendingSend, PendingSends, StepOutcome,
};
pub use graph::{
    fused_coll_id, plan_fusion, FusedAllReduce, FusedSegment, GraphOp, RecordedCollective,
    FUSED_COLL_ID_BASE,
};
pub use hierarchical::HierarchicalAlgorithm;
pub use plan::{algorithm, Algorithm, AlgorithmKind, Plan};
pub use primitive::{PrimitiveKind, PrimitiveStep, SrcBuf};
pub use program::{ByteRange, CachedPlan, CompiledProgram, Instr, Lane, PlanCache, PlanKey};
pub use redop::ReduceOp;
pub use ring::{build_plan, build_plan_striped, RingAlgorithm, DEFAULT_CHUNK_ELEMS};
pub use selector::AlgorithmSelector;
pub use tree::DoubleBinaryTreeAlgorithm;

/// Errors raised while building or validating collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// The device set has fewer than two GPUs.
    DeviceSetTooSmall(usize),
    /// The device set names the same GPU more than once; a duplicated rank
    /// would corrupt rank addressing and schedule self-edges.
    DuplicateDevice(gpu_sim::GpuId),
    /// The element count is zero.
    EmptyCollective,
    /// The descriptor needs a reduce operator but none was given.
    MissingReduceOp,
    /// The descriptor needs a root rank but none was given (or it is out of range).
    InvalidRoot(Option<usize>),
    /// A buffer did not have the size the descriptor requires.
    BufferSizeMismatch {
        /// What the descriptor requires, in bytes.
        expected: usize,
        /// What the caller supplied, in bytes.
        actual: usize,
    },
    /// The rank index is outside the communicator.
    InvalidRank { rank: usize, size: usize },
    /// The configured chunk size is unusable (zero elements).
    InvalidChunkSize(usize),
    /// The configured channel count is unusable (zero, or beyond the u32
    /// channel-id space).
    InvalidChannelCount(usize),
    /// A point-to-point collective needs exactly two devices; the descriptor
    /// carried this many. (A repeated device is caught earlier, as
    /// [`CollectiveError::DuplicateDevice`].)
    InvalidPointToPoint(usize),
    /// The requested algorithm cannot schedule this collective kind.
    UnsupportedAlgorithm {
        algorithm: plan::AlgorithmKind,
        kind: CollectiveKind,
    },
    /// The requested algorithm cannot run over this topology / device set.
    UnsupportedTopology(String),
    /// A generated plan violated the peer-consistency invariants (a builder
    /// bug surfaced as an error instead of undefined scheduling).
    MalformedPlan {
        algorithm: plan::AlgorithmKind,
        rank: usize,
    },
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectiveError::DeviceSetTooSmall(n) => {
                write!(f, "collective needs at least 2 devices, got {n}")
            }
            CollectiveError::DuplicateDevice(d) => {
                write!(f, "device set names {d} more than once")
            }
            CollectiveError::EmptyCollective => write!(f, "collective has zero elements"),
            CollectiveError::MissingReduceOp => {
                write!(
                    f,
                    "reducing collective registered without a reduce operator"
                )
            }
            CollectiveError::InvalidRoot(r) => write!(f, "invalid root rank: {r:?}"),
            CollectiveError::BufferSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer size mismatch: expected {expected} bytes, got {actual}"
                )
            }
            CollectiveError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for collective over {size} devices"
                )
            }
            CollectiveError::InvalidChunkSize(n) => {
                write!(f, "chunk size must be positive, got {n}")
            }
            CollectiveError::InvalidChannelCount(n) => {
                write!(f, "channel count must be at least 1, got {n}")
            }
            CollectiveError::InvalidPointToPoint(n) => {
                write!(
                    f,
                    "point-to-point collective needs exactly 2 devices, got {n}"
                )
            }
            CollectiveError::UnsupportedAlgorithm { algorithm, kind } => {
                write!(f, "the {algorithm} algorithm cannot schedule {kind}")
            }
            CollectiveError::UnsupportedTopology(why) => {
                write!(f, "unsupported topology: {why}")
            }
            CollectiveError::MalformedPlan { algorithm, rank } => {
                write!(f, "{algorithm} produced a malformed plan for rank {rank}")
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_mention_the_problem() {
        assert!(CollectiveError::DeviceSetTooSmall(1)
            .to_string()
            .contains("2 devices"));
        assert!(CollectiveError::EmptyCollective
            .to_string()
            .contains("zero"));
        assert!(CollectiveError::MissingReduceOp
            .to_string()
            .contains("reduce"));
        assert!(CollectiveError::InvalidRoot(None)
            .to_string()
            .contains("root"));
        assert!(CollectiveError::BufferSizeMismatch {
            expected: 4,
            actual: 2
        }
        .to_string()
        .contains("expected 4"));
        assert!(CollectiveError::InvalidRank { rank: 8, size: 4 }
            .to_string()
            .contains("rank 8"));
        assert!(CollectiveError::InvalidChunkSize(0)
            .to_string()
            .contains("positive"));
        assert!(CollectiveError::InvalidChannelCount(0)
            .to_string()
            .contains("at least 1"));
        assert!(CollectiveError::DuplicateDevice(gpu_sim::GpuId(3))
            .to_string()
            .contains("more than once"));
        assert!(CollectiveError::InvalidPointToPoint(3)
            .to_string()
            .contains("got 3"));
        assert!(CollectiveError::UnsupportedAlgorithm {
            algorithm: plan::AlgorithmKind::DoubleBinaryTree,
            kind: CollectiveKind::AllGather,
        }
        .to_string()
        .contains("tree"));
        assert!(CollectiveError::UnsupportedTopology("one node".into())
            .to_string()
            .contains("one node"));
        assert!(CollectiveError::MalformedPlan {
            algorithm: plan::AlgorithmKind::Ring,
            rank: 2,
        }
        .to_string()
        .contains("rank 2"));
    }
}
