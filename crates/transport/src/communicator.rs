//! Communicators: the peer-addressed connector mesh behind one collective,
//! and the pool that hands them out.
//!
//! The paper keeps the communicator concept transparent to users: DFCCL
//! "maintains a communicator pool, automatically creating and allocating
//! communicators for collectives" (Sec. 3.2). Each registered collective gets
//! its own communicator so that a preempted collective's connectors are never
//! reused by another collective — the invariant the correctness argument of
//! Sec. 4.5 relies on.
//!
//! A communicator no longer hard-wires a ring: it is a lazy mesh. Connectors
//! are created on demand for exactly the directed `(src, dst, channel)`
//! triples an algorithm's plan uses, each classified by the [`Topology`] and
//! costed by the [`LinkModel`]. A ring plan materialises the same `n` edges
//! the old ring-wired communicator created eagerly; a tree or hierarchical
//! plan materialises its own edge set instead; a striped plan materialises
//! `K` parallel connectors per directed pair, one per [`ChannelId`].

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpu_sim::GpuId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::connector::Connector;
use crate::fault::{EdgeId, EdgeSample, FaultInjector};
use crate::health::LinkHealth;
use crate::linkmodel::LinkModel;
use crate::topology::Topology;
use crate::TransportError;

/// Identifier of a communicator within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommunicatorId(pub u64);

/// One of the parallel channels a `(src, dst)` edge is striped across.
/// Channel 0 is the only channel of an unstriped (K = 1) collective, and the
/// one every pre-channel API defaults to.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct ChannelId(pub u32);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// The channels one rank uses inside a communicator: a map of send and recv
/// connectors keyed by `(peer, channel)`, covering exactly the edges the
/// rank's plan addresses.
#[derive(Debug, Clone)]
pub struct RankChannels {
    /// This rank's index within the communicator.
    pub rank: usize,
    /// Number of ranks in the communicator.
    pub size: usize,
    /// GPU this rank runs on.
    pub gpu: GpuId,
    /// Connectors this rank sends through, keyed by (destination rank, channel).
    sends: BTreeMap<(usize, ChannelId), Arc<Connector>>,
    /// Connectors this rank receives from, keyed by (source rank, channel).
    recvs: BTreeMap<(usize, ChannelId), Arc<Connector>>,
}

impl RankChannels {
    /// The channel-`channel` connector carrying chunks from this rank to
    /// `peer`, if the channels were built to cover that edge.
    pub fn send_on(&self, peer: usize, channel: ChannelId) -> Option<&Arc<Connector>> {
        self.sends.get(&(peer, channel))
    }

    /// The channel-`channel` connector carrying chunks from `peer` to this
    /// rank, if the channels were built to cover that edge.
    pub fn recv_on(&self, peer: usize, channel: ChannelId) -> Option<&Arc<Connector>> {
        self.recvs.get(&(peer, channel))
    }

    /// Dense, index-addressable view of these channels for the given edge
    /// lists: position `i` of the returned table's send (recv) side is the
    /// connector of `send_edges[i]` (`recv_edges[i]`). A compiled program
    /// resolves its per-instruction connector *indices* against exactly this
    /// layout, so the executor's hot loop never touches the `BTreeMap`s.
    /// Errors if an edge was not materialised for these channels.
    pub fn dense_view(
        &self,
        send_edges: &[(usize, ChannelId)],
        recv_edges: &[(usize, ChannelId)],
    ) -> Result<ConnectorTable, TransportError> {
        let mut sends = Vec::with_capacity(send_edges.len());
        for &(peer, channel) in send_edges {
            let conn = self
                .send_on(peer, channel)
                .ok_or(TransportError::MissingEdge { peer, channel })?;
            sends.push(Arc::clone(conn));
        }
        let mut recvs = Vec::with_capacity(recv_edges.len());
        for &(peer, channel) in recv_edges {
            let conn = self
                .recv_on(peer, channel)
                .ok_or(TransportError::MissingEdge { peer, channel })?;
            recvs.push(Arc::clone(conn));
        }
        Ok(ConnectorTable {
            sends: sends.into(),
            recvs: recvs.into(),
        })
    }
}

/// A flat, index-addressed connector table — the bound form of a compiled
/// program's connector references. Built once per registration from
/// [`RankChannels::dense_view`]; the daemon's poll loop dereferences plain
/// vector indices instead of doing per-poll map lookups. The index arrays are
/// shared `Arc` slices, so cloning a table — e.g. every program of a captured
/// iteration graph holding on to its registration's connectors — is two
/// refcount bumps, not a per-connector `Arc` clone loop.
#[derive(Debug, Clone)]
pub struct ConnectorTable {
    sends: Arc<[Arc<Connector>]>,
    recvs: Arc<[Arc<Connector>]>,
}

impl ConnectorTable {
    /// The send connector at table index `idx`.
    #[inline]
    pub fn send(&self, idx: u32) -> &Connector {
        &self.sends[idx as usize]
    }

    /// The recv connector at table index `idx`.
    #[inline]
    pub fn recv(&self, idx: u32) -> &Connector {
        &self.recvs[idx as usize]
    }

    /// Number of send connectors.
    pub fn send_len(&self) -> usize {
        self.sends.len()
    }

    /// Number of recv connectors.
    pub fn recv_len(&self) -> usize {
        self.recvs.len()
    }
}

/// A peer-addressed communicator over an ordered set of GPUs. Connectors are
/// created lazily for the directed `(src, dst, channel)` edges a plan
/// actually uses.
pub struct Communicator {
    id: CommunicatorId,
    /// Ordered device set.
    devices: Vec<GpuId>,
    topology: Arc<Topology>,
    link_model: Arc<LinkModel>,
    connector_capacity: usize,
    /// The domain-wide fault injector every connector of this mesh consults.
    injector: Arc<FaultInjector>,
    /// The domain-wide link-health map; a quarantined edge is relabelled onto
    /// a spare lane when its connector is (re)created.
    health: Arc<LinkHealth>,
    /// `edges[(s, d, c)]` carries channel-`c` chunks from rank `s` to rank `d`.
    edges: Mutex<HashMap<(usize, usize, ChannelId), Arc<Connector>>>,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("id", &self.id)
            .field("devices", &self.devices)
            .field("edges", &self.edges.lock().len())
            .finish()
    }
}

impl Communicator {
    /// Build an (initially edgeless) mesh communicator over `devices` in the
    /// given rank order. Connectors appear on first use via
    /// [`Communicator::connector_between`] / [`Communicator::channels`].
    pub fn new(
        id: CommunicatorId,
        devices: Vec<GpuId>,
        topology: &Arc<Topology>,
        link_model: &Arc<LinkModel>,
        connector_capacity: usize,
    ) -> Result<Arc<Self>, TransportError> {
        Communicator::with_links(
            id,
            devices,
            topology,
            link_model,
            connector_capacity,
            FaultInjector::new(0),
            LinkHealth::new(),
        )
    }

    /// [`Communicator::new`] with an explicit (typically domain-shared) fault
    /// injector and link-health map; pools pass their own so one script
    /// reaches every communicator's connectors and one quarantine decision
    /// reroutes them.
    #[allow(clippy::too_many_arguments)]
    pub fn with_links(
        id: CommunicatorId,
        devices: Vec<GpuId>,
        topology: &Arc<Topology>,
        link_model: &Arc<LinkModel>,
        connector_capacity: usize,
        injector: Arc<FaultInjector>,
        health: Arc<LinkHealth>,
    ) -> Result<Arc<Self>, TransportError> {
        if devices.len() < 2 {
            return Err(TransportError::DeviceSetTooSmall(devices.len()));
        }
        for &d in &devices {
            if !topology.contains(d) {
                return Err(TransportError::UnknownGpu(d));
            }
        }
        Ok(Arc::new(Communicator {
            id,
            devices,
            topology: Arc::clone(topology),
            link_model: Arc::clone(link_model),
            connector_capacity,
            injector,
            health,
            edges: Mutex::new(HashMap::new()),
        }))
    }

    /// Communicator identifier.
    pub fn id(&self) -> CommunicatorId {
        self.id
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.devices.len()
    }

    /// The ordered device set.
    pub fn devices(&self) -> &[GpuId] {
        &self.devices
    }

    /// The rank of `gpu` within this communicator, if it participates.
    pub fn rank_of(&self, gpu: GpuId) -> Option<usize> {
        self.devices.iter().position(|&d| d == gpu)
    }

    fn check_rank(&self, rank: usize) -> Result<(), TransportError> {
        if rank >= self.devices.len() {
            return Err(TransportError::InvalidRank {
                rank,
                size: self.devices.len(),
            });
        }
        Ok(())
    }

    /// The channel-`channel` connector carrying chunks from rank `src` to
    /// rank `dst`, created on first request. Both endpoints share the same
    /// connector instance, so a chunk published by `src` is what `dst`
    /// consumes.
    pub fn connector_between_on(
        &self,
        src: usize,
        dst: usize,
        channel: ChannelId,
    ) -> Result<Arc<Connector>, TransportError> {
        self.check_rank(src)?;
        self.check_rank(dst)?;
        if src == dst {
            return Err(TransportError::SelfLoop { rank: src });
        }
        let mut edges = self.edges.lock();
        if let Some(c) = edges.get(&(src, dst, channel)) {
            return Ok(Arc::clone(c));
        }
        let link = self
            .topology
            .link_between(self.devices[src], self.devices[dst])?;
        // The connector keeps its *logical* (src, dst, channel) key; only the
        // physical edge label is rerouted when the health map quarantined the
        // lane, so plans and compiled bindings are oblivious to the failover.
        let edge = EdgeId {
            src: self.devices[src],
            dst: self.devices[dst],
            channel: self
                .health
                .reroute(self.devices[src], self.devices[dst], channel),
        };
        let c = Connector::with_edge(
            self.connector_capacity,
            link,
            Arc::clone(&self.link_model),
            Some(edge),
            Some(Arc::clone(&self.injector)),
        );
        edges.insert((src, dst, channel), Arc::clone(&c));
        Ok(c)
    }

    /// The channel-0 connector from rank `src` to rank `dst` (the whole story
    /// for unstriped collectives).
    pub fn connector_between(
        &self,
        src: usize,
        dst: usize,
    ) -> Result<Arc<Connector>, TransportError> {
        self.connector_between_on(src, dst, ChannelId(0))
    }

    /// Build the channels `rank` needs to execute a plan that sends over the
    /// `(peer, channel)` edges in `send_edges` and receives over those in
    /// `recv_edges` (edge lists may repeat; duplicates are collapsed).
    pub fn channels(
        &self,
        rank: usize,
        send_edges: &[(usize, ChannelId)],
        recv_edges: &[(usize, ChannelId)],
    ) -> Result<RankChannels, TransportError> {
        self.check_rank(rank)?;
        let mut sends = BTreeMap::new();
        for &(p, c) in send_edges {
            sends.insert((p, c), self.connector_between_on(rank, p, c)?);
        }
        let mut recvs = BTreeMap::new();
        for &(p, c) in recv_edges {
            recvs.insert((p, c), self.connector_between_on(p, rank, c)?);
        }
        Ok(RankChannels {
            rank,
            size: self.devices.len(),
            gpu: self.devices[rank],
            sends,
            recvs,
        })
    }

    /// Drop any chunks still buffered in the mesh (recovery wipes an
    /// interrupted round's in-flight chunks before re-executing it).
    pub fn clear(&self) {
        for e in self.edges.lock().values() {
            e.clear();
        }
    }

    /// Drop every connector whose physical edge is quarantined in the health
    /// map, so the next [`Communicator::channels`] call recreates it with a
    /// rerouted label. Returns the number of connectors dropped.
    pub fn purge_dead(&self) -> usize {
        if self.health.is_clean() {
            return 0;
        }
        let mut edges = self.edges.lock();
        let before = edges.len();
        edges.retain(|_, c| c.edge().is_none_or(|e| !self.health.is_dead(e)));
        before - edges.len()
    }

    /// The link-health map this mesh's wiring consults.
    pub fn link_health(&self) -> &Arc<LinkHealth> {
        &self.health
    }

    /// Number of distinct directed `(src, dst, channel)` edges materialised
    /// so far.
    pub fn edge_count(&self) -> usize {
        self.edges.lock().len()
    }

    /// The fault injector this mesh's connectors consult.
    pub fn fault_injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// A per-edge progress snapshot of every materialised connector, sorted
    /// by edge for stable output. `coll_id` is left unset — the domain layer
    /// stamps it with the collective this communicator belongs to.
    pub fn edge_samples(&self) -> Vec<EdgeSample> {
        let mut samples: Vec<EdgeSample> = self
            .edges
            .lock()
            .values()
            .map(|c| EdgeSample {
                coll_id: None,
                edge: c.edge().expect("communicator connectors are edge-bound"),
                link: c.link(),
                queued: c.len(),
                dead: c.is_dead(),
                stats: c.stats(),
            })
            .collect();
        samples.sort_by_key(|s| s.edge);
        samples
    }
}

/// The communicator pool, transparent to the API user: every allocation is a
/// fresh mesh (a collective never shares connectors with another), wired to
/// the pool-wide fault injector and link-health map.
pub struct CommunicatorPool {
    topology: Arc<Topology>,
    link_model: Arc<LinkModel>,
    connector_capacity: usize,
    /// The pool-wide fault injector, shared by every communicator it creates.
    /// Inert (no scripted faults) unless a test or operator scripts it.
    injector: Arc<FaultInjector>,
    /// The pool-wide link-health map, shared by every communicator it
    /// creates. Inert until a recovery pass quarantines an edge.
    health: Arc<LinkHealth>,
    next_id: AtomicU64,
}

impl CommunicatorPool {
    /// Create a pool over a topology and link model. `connector_capacity` is
    /// the number of chunk slots per connector.
    pub fn new(
        topology: Arc<Topology>,
        link_model: Arc<LinkModel>,
        connector_capacity: usize,
    ) -> Arc<Self> {
        Arc::new(CommunicatorPool {
            topology,
            link_model,
            connector_capacity,
            injector: FaultInjector::new(0),
            health: LinkHealth::new(),
            next_id: AtomicU64::new(0),
        })
    }

    /// A pool with a zero-cost link model over a flat topology of `n` GPUs —
    /// convenient for tests.
    pub fn for_testing(n: usize) -> Arc<Self> {
        CommunicatorPool::new(
            Arc::new(Topology::flat(n)),
            Arc::new(LinkModel::zero_cost()),
            8,
        )
    }

    /// The topology backing this pool.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The link model backing this pool.
    pub fn link_model(&self) -> &Arc<LinkModel> {
        &self.link_model
    }

    /// The pool-wide fault injector. Scripting a fault here affects every
    /// communicator the pool has handed out or will hand out.
    pub fn fault_injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// The pool-wide link-health map. Quarantining an edge here reroutes
    /// every communicator the pool has handed out or will hand out.
    pub fn link_health(&self) -> &Arc<LinkHealth> {
        &self.health
    }

    /// Allocate a mesh communicator for `devices`. Edges materialise as
    /// plans request them.
    pub fn allocate(&self, devices: &[GpuId]) -> Result<Arc<Communicator>, TransportError> {
        let id = CommunicatorId(self.next_id.fetch_add(1, Ordering::Relaxed));
        Communicator::with_links(
            id,
            devices.to_vec(),
            &self.topology,
            &self.link_model,
            self.connector_capacity,
            Arc::clone(&self.injector),
            Arc::clone(&self.health),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::ChunkMsg;
    use crate::topology::LinkClass;

    fn gpus(ids: &[usize]) -> Vec<GpuId> {
        ids.iter().map(|&i| GpuId(i)).collect()
    }

    fn flat(n: usize) -> Arc<Topology> {
        Arc::new(Topology::flat(n))
    }

    #[test]
    fn mesh_creates_edges_on_demand_and_shares_them() {
        let topo = flat(4);
        let model = Arc::new(LinkModel::zero_cost());
        let comm =
            Communicator::new(CommunicatorId(0), gpus(&[0, 1, 2, 3]), &topo, &model, 4).unwrap();
        assert_eq!(comm.edge_count(), 0);
        // A tree-ish channel request: rank 0 talks to 1 and 2 in both directions.
        let c0 = ChannelId(0);
        let ch0 = comm
            .channels(0, &[(1, c0), (2, c0)], &[(1, c0), (2, c0)])
            .unwrap();
        assert_eq!(comm.edge_count(), 4);
        let ch1 = comm.channels(1, &[(0, c0)], &[(0, c0)]).unwrap();
        // Rank 1's edges already existed; nothing new is created.
        assert_eq!(comm.edge_count(), 4);
        ch0.send_on(1, c0)
            .unwrap()
            .try_send(ChunkMsg {
                coll_id: 5,
                chunk_index: 0,
                step: 0,
                data: vec![7],
            })
            .unwrap();
        assert_eq!(ch1.recv_on(0, c0).unwrap().try_recv().unwrap().coll_id, 5);
        // Channels cover only the requested peers.
        assert!(ch0.send_on(3, c0).is_none());
        assert!(ch0.recv_on(3, c0).is_none());
    }

    #[test]
    fn duplicate_peer_lists_collapse() {
        let topo = flat(3);
        let model = Arc::new(LinkModel::zero_cost());
        let comm =
            Communicator::new(CommunicatorId(0), gpus(&[0, 1, 2]), &topo, &model, 4).unwrap();
        let c0 = ChannelId(0);
        let ch = comm
            .channels(
                0,
                &[(1, c0), (1, c0), (2, c0), (1, c0)],
                &[(2, c0), (2, c0)],
            )
            .unwrap();
        assert!(ch.send_on(1, c0).is_some() && ch.send_on(2, c0).is_some());
        assert!(ch.recv_on(2, c0).is_some());
        assert_eq!(comm.edge_count(), 3);
    }

    #[test]
    fn striped_edges_are_distinct_connectors_per_channel() {
        // K parallel channels per (src, dst) pair: distinct connector
        // instances, each with its own capacity, shared by both endpoints.
        let topo = flat(2);
        let model = Arc::new(LinkModel::zero_cost());
        let comm = Communicator::new(CommunicatorId(0), gpus(&[0, 1]), &topo, &model, 1).unwrap();
        let edges: Vec<(usize, ChannelId)> = (0..3).map(|c| (1usize, ChannelId(c))).collect();
        let ch0 = comm.channels(0, &edges, &[]).unwrap();
        let recv_edges: Vec<(usize, ChannelId)> = (0..3).map(|c| (0usize, ChannelId(c))).collect();
        let ch1 = comm.channels(1, &[], &recv_edges).unwrap();
        assert_eq!(comm.edge_count(), 3);
        // Fill every channel (capacity 1 each): a single shared connector
        // would reject the second send.
        for c in 0..3u32 {
            ch0.send_on(1, ChannelId(c))
                .unwrap()
                .try_send(ChunkMsg {
                    coll_id: 1,
                    chunk_index: c,
                    step: 0,
                    data: vec![c as u8],
                })
                .unwrap();
        }
        for c in 0..3u32 {
            let got = ch1.recv_on(0, ChannelId(c)).unwrap().try_recv().unwrap();
            assert_eq!(got.chunk_index, c);
        }
        // A channel the channels were not built for is absent, not aliased.
        assert!(ch0.send_on(1, ChannelId(7)).is_none());
    }

    #[test]
    fn dense_view_indexes_connectors_in_edge_list_order() {
        let topo = flat(4);
        let model = Arc::new(LinkModel::zero_cost());
        let comm =
            Communicator::new(CommunicatorId(0), gpus(&[0, 1, 2, 3]), &topo, &model, 4).unwrap();
        let c0 = ChannelId(0);
        let c1 = ChannelId(1);
        let send_edges = [(1usize, c0), (1, c1), (3, c0)];
        let recv_edges = [(2usize, c0)];
        let ch = comm.channels(0, &send_edges, &recv_edges).unwrap();
        let table = ch.dense_view(&send_edges, &recv_edges).unwrap();
        assert_eq!(table.send_len(), 3);
        assert_eq!(table.recv_len(), 1);
        // Table position i is exactly send_edges[i]'s connector.
        for (i, &(p, c)) in send_edges.iter().enumerate() {
            assert!(
                std::ptr::eq(table.send(i as u32), ch.send_on(p, c).unwrap().as_ref()),
                "send index {i} must alias edge ({p}, {c})"
            );
        }
        assert!(std::ptr::eq(
            table.recv(0),
            ch.recv_on(2, c0).unwrap().as_ref()
        ));
        // An edge the channels were not built for is a hard error.
        assert_eq!(
            ch.dense_view(&[(2, c0)], &[]).unwrap_err(),
            crate::TransportError::MissingEdge {
                peer: 2,
                channel: c0
            }
        );
    }

    #[test]
    fn self_loops_are_rejected() {
        let topo = flat(2);
        let model = Arc::new(LinkModel::zero_cost());
        let comm = Communicator::new(CommunicatorId(0), gpus(&[0, 1]), &topo, &model, 4).unwrap();
        assert!(matches!(
            comm.connector_between(1, 1),
            Err(TransportError::SelfLoop { rank: 1 })
        ));
        assert!(matches!(
            comm.channels(0, &[(0, ChannelId(0))], &[]),
            Err(TransportError::SelfLoop { rank: 0 })
        ));
    }

    #[test]
    fn communicator_rejects_tiny_device_sets() {
        let topo = flat(2);
        let model = Arc::new(LinkModel::zero_cost());
        assert!(matches!(
            Communicator::new(CommunicatorId(0), gpus(&[0]), &topo, &model, 4),
            Err(TransportError::DeviceSetTooSmall(1))
        ));
    }

    #[test]
    fn invalid_rank_is_an_error() {
        let topo = flat(2);
        let model = Arc::new(LinkModel::zero_cost());
        let comm = Communicator::new(CommunicatorId(0), gpus(&[0, 1]), &topo, &model, 4).unwrap();
        assert!(matches!(
            comm.channels(5, &[], &[]),
            Err(TransportError::InvalidRank { rank: 5, size: 2 })
        ));
        assert!(matches!(
            comm.connector_between(0, 9),
            Err(TransportError::InvalidRank { rank: 9, size: 2 })
        ));
        assert_eq!(comm.rank_of(GpuId(1)), Some(1));
        assert_eq!(comm.rank_of(GpuId(7)), None);
    }

    #[test]
    fn connectors_use_topology_link_classes() {
        let topo = Arc::new(Topology::single_server());
        let model = Arc::new(LinkModel::zero_cost());
        // Ring 3 -> 4 crosses the socket (IntraSys); 0 -> 1 stays in a PIX domain.
        let comm = Communicator::new(
            CommunicatorId(0),
            gpus(&[0, 1, 2, 3, 4, 5, 6, 7]),
            &topo,
            &model,
            4,
        )
        .unwrap();
        let link_of = |src: usize, dst: usize| comm.connector_between(src, dst).unwrap().link();
        assert_eq!(link_of(0, 1), LinkClass::IntraPix);
        assert_eq!(link_of(3, 4), LinkClass::IntraSys);
        assert_eq!(link_of(7, 0), LinkClass::IntraSys);
        // A mesh edge crossing machines gets classified on demand, too.
        let two = Arc::new(Topology::two_eight_gpu_servers());
        let comm2 = Communicator::new(CommunicatorId(1), two.gpus(), &two, &model, 4).unwrap();
        assert_eq!(
            comm2.connector_between(0, 8).unwrap().link(),
            LinkClass::InterNode
        );
    }

    #[test]
    fn pool_creates_distinct_communicators_for_concurrent_requests() {
        let pool = CommunicatorPool::for_testing(4);
        let devices = gpus(&[0, 1, 2, 3]);
        let c1 = pool.allocate(&devices).unwrap();
        let c2 = pool.allocate(&devices).unwrap();
        assert_ne!(c1.id(), c2.id());
    }

    #[test]
    fn pool_injector_reaches_every_connector_and_edge_samples_name_edges() {
        use crate::fault::{FaultSpec, StallKind};

        let pool = CommunicatorPool::for_testing(4);
        let comm = pool.allocate(&gpus(&[0, 1, 2, 3])).unwrap();
        let conn = comm.connector_between(1, 2).unwrap();
        let edge = conn.edge().unwrap();
        assert_eq!(edge.src, GpuId(1));
        assert_eq!(edge.dst, GpuId(2));
        assert_eq!(edge.channel, ChannelId(0));

        // Script a dead link on the pool: the already-created connector sees it.
        pool.fault_injector().script(edge, FaultSpec::dead());
        assert!(!conn.send_ready());
        let before = comm.edge_samples();
        let bounced = conn.try_send(ChunkMsg {
            coll_id: 1,
            chunk_index: 0,
            step: 0,
            data: vec![1],
        });
        assert!(bounced.is_err());
        let after = comm.edge_samples();
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].edge, edge);
        assert_eq!(after[0].stats.fault_rejections, 1);

        let report = crate::fault::classify_stall(&before, &after);
        assert_eq!(report.kind, StallKind::LinkFailure);
        assert_eq!(report.failed_edges[0].edge, edge);

        pool.fault_injector().clear();
        assert!(conn.send_ready());
    }

    #[test]
    fn quarantined_edges_are_rerouted_after_a_purge() {
        use crate::fault::FaultSpec;

        let pool = CommunicatorPool::for_testing(2);
        let comm = pool.allocate(&gpus(&[0, 1])).unwrap();
        let conn = comm.connector_between(0, 1).unwrap();
        let edge = conn.edge().unwrap();
        // Kill the physical lane and quarantine it, as recovery would.
        pool.fault_injector().script(edge, FaultSpec::dead());
        pool.link_health().quarantine(edge);
        assert!(!conn.send_ready());
        // The cached connector still carries the dead label until purged.
        assert_eq!(comm.purge_dead(), 1);
        let rerouted = comm.connector_between(0, 1).unwrap();
        let new_edge = rerouted.edge().unwrap();
        assert_ne!(new_edge, edge);
        assert!(new_edge.channel.0 >= crate::health::REROUTE_CHANNEL_BASE);
        // The rerouted lane is live: the dead script keys on the old label.
        assert!(rerouted.send_ready());
        rerouted
            .try_send(ChunkMsg {
                coll_id: 3,
                chunk_index: 0,
                step: 0,
                data: vec![9],
            })
            .unwrap();
        assert_eq!(rerouted.try_recv().unwrap().coll_id, 3);
        // Both endpoints resolve to the same rerouted connector instance.
        let ch0 = comm.channels(0, &[(1, ChannelId(0))], &[]).unwrap();
        let ch1 = comm.channels(1, &[], &[(0, ChannelId(0))]).unwrap();
        assert!(Arc::ptr_eq(
            ch0.send_on(1, ChannelId(0)).unwrap(),
            ch1.recv_on(0, ChannelId(0)).unwrap()
        ));
        // The healthy reverse direction is untouched.
        assert_eq!(
            comm.connector_between(1, 0)
                .unwrap()
                .edge()
                .unwrap()
                .channel,
            ChannelId(0)
        );
    }
}
