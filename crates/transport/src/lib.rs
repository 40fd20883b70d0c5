//! # dfccl-transport — topology, link cost model, connectors, communicators
//!
//! This crate models the data-movement substrate the paper's collectives run
//! on (Table 2 testbeds + Fig. 5 buffers):
//!
//! * [`Topology`] — machines, PIX/SYS PCIe domains and the inter-node network,
//!   classifying the link between any two GPUs.
//! * [`LinkModel`] — an `alpha + bytes/beta` transfer-cost model per link
//!   class, replacing the real SHM/RDMA transports. A global time scale keeps
//!   benchmark runs fast while preserving relative magnitudes.
//! * [`Connector`] — the lock-free ring buffer used for inter-GPU data
//!   transfer (the *send/recv connectors* of Fig. 5). Data published into a
//!   connector stays visible until consumed, which is the *persistent
//!   visibility* property DFCCL's decentralized preemption relies on
//!   (Sec. 4.1).
//! * [`Communicator`] / [`CommunicatorPool`] — the per-collective ring of
//!   connectors, and the pool that allocates communicators transparently
//!   (Sec. 3.2).
//! * [`FaultInjector`] / [`StallReport`] — scriptable per-edge link faults
//!   (dead, N× slowdown, flaky) and the per-edge progress samples +
//!   stall-classification machinery watchdogs consume to tell a wedge from a
//!   link failure from a slow-but-progressing round.

pub mod communicator;
pub mod connector;
pub mod fault;
pub mod health;
pub mod linkmodel;
pub mod topology;

pub use communicator::{
    ChannelId, Communicator, CommunicatorId, CommunicatorPool, ConnectorTable, RankChannels,
};
pub use connector::{ChunkMsg, Connector, ConnectorStats, SendError};
pub use fault::{
    classify_stall, EdgeId, EdgeSample, FaultDecision, FaultInjector, FaultKind, FaultSpec,
    FaultTrigger, StallKind, StallReport, FAILED_EDGE_RUN,
};
pub use health::{LinkHealth, REROUTE_CHANNEL_BASE};
pub use linkmodel::{LinkModel, LinkParams};
pub use topology::{LinkClass, MachineSpec, Topology};

/// Errors produced by the transport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A GPU id was not found in the topology.
    UnknownGpu(gpu_sim::GpuId),
    /// A communicator was requested for fewer than two GPUs.
    DeviceSetTooSmall(usize),
    /// A rank index was out of range for a communicator.
    InvalidRank { rank: usize, size: usize },
    /// A connector was requested from a rank to itself; local traffic never
    /// crosses a connector.
    SelfLoop { rank: usize },
    /// A dense connector-table view named a `(peer, channel)` edge the
    /// channels were not built for.
    MissingEdge {
        /// The peer rank of the missing edge.
        peer: usize,
        /// The channel of the missing edge.
        channel: communicator::ChannelId,
    },
    /// Two ranks asked for the communicator of one collective id with
    /// different device sets.
    DeviceSetMismatch(u64),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownGpu(id) => write!(f, "GPU {id} is not part of the topology"),
            TransportError::DeviceSetTooSmall(n) => {
                write!(f, "a communicator needs at least 2 GPUs, got {n}")
            }
            TransportError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            TransportError::SelfLoop { rank } => {
                write!(f, "rank {rank} requested a connector to itself")
            }
            TransportError::MissingEdge { peer, channel } => {
                write!(
                    f,
                    "channels were not built for the edge to rank {peer} on {channel}"
                )
            }
            TransportError::DeviceSetMismatch(id) => {
                write!(
                    f,
                    "collective {id} was registered with a different device set elsewhere"
                )
            }
        }
    }
}

impl std::error::Error for TransportError {}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuId;

    #[test]
    fn error_messages_are_informative() {
        assert!(TransportError::UnknownGpu(GpuId(7))
            .to_string()
            .contains("gpu7"));
        assert!(TransportError::DeviceSetTooSmall(1)
            .to_string()
            .contains("at least 2"));
        assert!(TransportError::InvalidRank { rank: 9, size: 4 }
            .to_string()
            .contains("rank 9"));
        assert!(TransportError::SelfLoop { rank: 3 }
            .to_string()
            .contains("itself"));
    }
}
