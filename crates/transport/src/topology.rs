//! Cluster topology: machines, PCIe (PIX/SYS) domains, inter-node network.
//!
//! Mirrors the experimental platforms of Table 2: dual-socket servers with
//! eight GPUs each, GPUs 0-3 and 4-7 in separate PIX domains within a SYS
//! domain, Mellanox 56 Gb/s NICs between machines.

use gpu_sim::GpuId;
use serde::{Deserialize, Serialize};

use crate::TransportError;

/// Classification of the link between two GPUs, in decreasing order of
/// locality. Determines which transport (and therefore which cost parameters)
/// a connector uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Both endpoints are the same GPU (local copy, no transport).
    Local,
    /// Same PCIe switch domain (the `PIX` topology level); shared-memory transport.
    IntraPix,
    /// Same machine but across the socket interconnect (the `SYS` level);
    /// shared-memory transport with a longer path.
    IntraSys,
    /// Different machines; RDMA over the 56 Gb/s fabric.
    InterNode,
}

impl LinkClass {
    /// All distinct non-local classes, useful for sweeps.
    pub const ALL_REMOTE: [LinkClass; 3] = [
        LinkClass::IntraPix,
        LinkClass::IntraSys,
        LinkClass::InterNode,
    ];
}

/// One physical machine: its GPUs partitioned into PIX domains.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Machine name, e.g. `"3090-server-0"`.
    pub name: String,
    /// GPUs per PIX domain. The union of all domains is the machine's GPU set.
    pub pix_domains: Vec<Vec<GpuIdRepr>>,
}

/// Serde-friendly GPU id (plain usize in config files).
pub type GpuIdRepr = usize;

impl MachineSpec {
    /// A dual-socket eight-GPU server with GPUs `first..first+8`, split into
    /// two PIX domains of four (the Table 2 layout).
    pub fn eight_gpu_server(name: impl Into<String>, first: usize) -> Self {
        MachineSpec {
            name: name.into(),
            pix_domains: vec![
                (first..first + 4).collect(),
                (first + 4..first + 8).collect(),
            ],
        }
    }

    /// All GPU ids on the machine.
    pub fn gpus(&self) -> Vec<GpuId> {
        self.pix_domains
            .iter()
            .flatten()
            .map(|&g| GpuId(g))
            .collect()
    }
}

/// A cluster topology: a list of machines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    machines: Vec<MachineSpec>,
}

impl Topology {
    /// Build a topology from machine specifications.
    pub fn new(machines: Vec<MachineSpec>) -> Self {
        Topology { machines }
    }

    /// A single eight-GPU server (the 3080ti-server or 3090-server of Table 2).
    pub fn single_server() -> Self {
        Topology::new(vec![MachineSpec::eight_gpu_server("server-0", 0)])
    }

    /// Two eight-GPU servers connected by the RDMA fabric (16 GPUs).
    pub fn two_servers() -> Self {
        Topology::new(vec![
            MachineSpec::eight_gpu_server("server-0", 0),
            MachineSpec::eight_gpu_server("server-1", 8),
        ])
    }

    /// Alias for [`Topology::two_servers`] under the name the hierarchical
    /// algorithm's tests use: two dual-socket eight-GPU servers, each split
    /// into two PIX domains of four, joined by the inter-node fabric.
    pub fn two_eight_gpu_servers() -> Self {
        Topology::two_servers()
    }

    /// A uniform multi-node cluster: `machines` nodes of `gpus_per_machine`
    /// GPUs each, every node a single PIX domain. The shape hierarchical
    /// algorithms assume (equal-size node groups), without the dual-socket
    /// split of the Table 2 servers.
    pub fn uniform_cluster(machines: usize, gpus_per_machine: usize) -> Self {
        Topology::new(
            (0..machines)
                .map(|m| MachineSpec {
                    name: format!("node-{m}"),
                    pix_domains: vec![(m * gpus_per_machine..(m + 1) * gpus_per_machine).collect()],
                })
                .collect(),
        )
    }

    /// Four eight-GPU servers (32 GPUs) — the 2×3080ti + 2×3090 cluster used
    /// for Fig. 8(c).
    pub fn four_servers() -> Self {
        Topology::new(vec![
            MachineSpec::eight_gpu_server("3080ti-server-0", 0),
            MachineSpec::eight_gpu_server("3080ti-server-1", 8),
            MachineSpec::eight_gpu_server("3090-server-0", 16),
            MachineSpec::eight_gpu_server("3090-server-1", 24),
        ])
    }

    /// A flat topology with `n` GPUs on one machine in a single PIX domain.
    /// Useful for unit tests and for the deadlock-prevention programs.
    pub fn flat(n: usize) -> Self {
        Topology::new(vec![MachineSpec {
            name: "flat".to_string(),
            pix_domains: vec![(0..n).collect()],
        }])
    }

    /// The machines of this topology.
    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    /// Every GPU id in the topology.
    pub fn gpus(&self) -> Vec<GpuId> {
        self.machines.iter().flat_map(|m| m.gpus()).collect()
    }

    /// Total GPU count.
    pub fn gpu_count(&self) -> usize {
        self.machines
            .iter()
            .map(|m| m.pix_domains.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    fn locate(&self, gpu: GpuId) -> Option<(usize, usize)> {
        for (mi, m) in self.machines.iter().enumerate() {
            for (pi, domain) in m.pix_domains.iter().enumerate() {
                if domain.contains(&gpu.0) {
                    return Some((mi, pi));
                }
            }
        }
        None
    }

    /// Whether the topology contains `gpu`.
    pub fn contains(&self, gpu: GpuId) -> bool {
        self.locate(gpu).is_some()
    }

    /// Classify the link between two GPUs.
    pub fn link_between(&self, a: GpuId, b: GpuId) -> Result<LinkClass, TransportError> {
        let (ma, pa) = self.locate(a).ok_or(TransportError::UnknownGpu(a))?;
        let (mb, pb) = self.locate(b).ok_or(TransportError::UnknownGpu(b))?;
        Ok(if a == b {
            LinkClass::Local
        } else if ma != mb {
            LinkClass::InterNode
        } else if pa != pb {
            LinkClass::IntraSys
        } else {
            LinkClass::IntraPix
        })
    }

    /// The machine index a GPU belongs to, if any.
    pub fn machine_of(&self, gpu: GpuId) -> Option<usize> {
        self.locate(gpu).map(|(m, _)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_has_two_pix_domains() {
        let t = Topology::single_server();
        assert_eq!(t.gpu_count(), 8);
        assert_eq!(
            t.link_between(GpuId(0), GpuId(1)).unwrap(),
            LinkClass::IntraPix
        );
        assert_eq!(
            t.link_between(GpuId(0), GpuId(4)).unwrap(),
            LinkClass::IntraSys
        );
        assert_eq!(
            t.link_between(GpuId(3), GpuId(3)).unwrap(),
            LinkClass::Local
        );
    }

    #[test]
    fn two_servers_cross_node_links() {
        let t = Topology::two_servers();
        assert_eq!(t.gpu_count(), 16);
        assert_eq!(
            t.link_between(GpuId(0), GpuId(8)).unwrap(),
            LinkClass::InterNode
        );
        assert_eq!(
            t.link_between(GpuId(8), GpuId(9)).unwrap(),
            LinkClass::IntraPix
        );
        assert_eq!(t.machine_of(GpuId(9)), Some(1));
    }

    #[test]
    fn two_eight_gpu_servers_classifies_every_boundary() {
        // The link classes the hierarchical algorithm's phases ride on:
        // intra-PIX within a domain, intra-SYS across the socket, inter-node
        // across machines — in decreasing order of locality.
        let t = Topology::two_eight_gpu_servers();
        assert_eq!(t.gpu_count(), 16);
        // Within one PIX domain of server 0.
        assert_eq!(
            t.link_between(GpuId(1), GpuId(3)).unwrap(),
            LinkClass::IntraPix
        );
        // Across the socket of server 0 (domains {0..3} and {4..7}).
        assert_eq!(
            t.link_between(GpuId(2), GpuId(6)).unwrap(),
            LinkClass::IntraSys
        );
        // Across machines, both from the first and the second PIX domain.
        assert_eq!(
            t.link_between(GpuId(0), GpuId(8)).unwrap(),
            LinkClass::InterNode
        );
        assert_eq!(
            t.link_between(GpuId(7), GpuId(12)).unwrap(),
            LinkClass::InterNode
        );
        // Same boundaries seen from server 1's side.
        assert_eq!(
            t.link_between(GpuId(9), GpuId(11)).unwrap(),
            LinkClass::IntraPix
        );
        assert_eq!(
            t.link_between(GpuId(8), GpuId(15)).unwrap(),
            LinkClass::IntraSys
        );
        assert_eq!(t.machine_of(GpuId(7)), Some(0));
        assert_eq!(t.machine_of(GpuId(8)), Some(1));
    }

    #[test]
    fn uniform_cluster_has_single_pix_nodes() {
        let t = Topology::uniform_cluster(3, 4);
        assert_eq!(t.gpu_count(), 12);
        assert_eq!(
            t.link_between(GpuId(0), GpuId(3)).unwrap(),
            LinkClass::IntraPix
        );
        assert_eq!(
            t.link_between(GpuId(3), GpuId(4)).unwrap(),
            LinkClass::InterNode
        );
        assert_eq!(t.machine_of(GpuId(11)), Some(2));
    }

    #[test]
    fn four_servers_has_32_gpus() {
        let t = Topology::four_servers();
        assert_eq!(t.gpu_count(), 32);
        assert_eq!(t.gpus().len(), 32);
        assert_eq!(
            t.link_between(GpuId(0), GpuId(31)).unwrap(),
            LinkClass::InterNode
        );
    }

    #[test]
    fn flat_topology_is_one_pix_domain() {
        let t = Topology::flat(5);
        assert_eq!(t.gpu_count(), 5);
        assert_eq!(
            t.link_between(GpuId(1), GpuId(4)).unwrap(),
            LinkClass::IntraPix
        );
    }

    #[test]
    fn unknown_gpu_is_an_error() {
        let t = Topology::flat(2);
        assert!(matches!(
            t.link_between(GpuId(0), GpuId(99)),
            Err(TransportError::UnknownGpu(_))
        ));
        assert!(!t.contains(GpuId(99)));
        assert!(t.contains(GpuId(1)));
    }

    #[test]
    fn topology_clones_and_compares() {
        let t = Topology::two_servers();
        assert_eq!(t, t.clone());
        assert_ne!(t, Topology::single_server());
    }
}
