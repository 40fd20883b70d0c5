//! Domain-wide link-health tracking: the quarantine map recovery writes and
//! plan selection reads.
//!
//! When a watchdog names a failed `(src, dst, channel)` edge in a
//! [`crate::StallReport`], the recovery layer quarantines it here. Everything
//! that *chooses* edges afterwards — the algorithm selector's family policy,
//! the cost model, and the communicator mesh itself — consults the same map,
//! so a dead link is avoided rather than retried:
//!
//! * plan selection takes the cheapest family whose modelled plans avoid
//!   every quarantined edge ([`AlgorithmSelector::select_with_health`] in
//!   the collectives crate);
//! * the mesh reroutes any connector that would be labelled with a dead edge
//!   onto a fresh physical channel label ([`LinkHealth::reroute`]), which
//!   models failing a striped channel over to a spare lane of the same link;
//! * the plan cache keys entries by [`LinkHealth::generation`], so plans
//!   compiled against a stale health view are never served after a failure.
//!
//! The map is inert until the first quarantine: a healthy domain pays one
//! relaxed atomic load per query.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use gpu_sim::GpuId;
use parking_lot::RwLock;

use crate::communicator::ChannelId;
use crate::fault::EdgeId;

/// Channel labels at or above this value are reroute labels minted by
/// [`LinkHealth::reroute`]; logical plan channels live far below it.
pub const REROUTE_CHANNEL_BASE: u32 = 1 << 20;

/// Reroute labels per logical channel: shift `1..REROUTE_FAN` spare lanes are
/// tried before giving up on a `(src, dst, channel)` edge.
const REROUTE_FAN: u32 = 64;

/// The per-domain quarantine map of dead directed edges.
///
/// Shared (as one `Arc`) by the communicator pool, every communicator it
/// hands out, and the plan cache. Mutations bump a monotone generation
/// counter that doubles as the plan-cache epoch.
pub struct LinkHealth {
    /// Fast inert-path flag: false while no edge is quarantined.
    active: AtomicBool,
    /// Monotone mutation counter; plan-cache keys embed it.
    generation: AtomicU64,
    dead: RwLock<HashSet<EdgeId>>,
}

impl std::fmt::Debug for LinkHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkHealth")
            .field("dead", &self.dead.read().len())
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for LinkHealth {
    fn default() -> Self {
        LinkHealth {
            active: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            dead: RwLock::new(HashSet::new()),
        }
    }
}

impl LinkHealth {
    /// A map with every link healthy.
    pub fn new() -> Arc<Self> {
        Arc::new(LinkHealth::default())
    }

    /// Whether no edge is quarantined (single relaxed load — the hot path).
    #[inline]
    pub fn is_clean(&self) -> bool {
        !self.active.load(Ordering::Acquire)
    }

    /// Quarantine `edge`: subsequent plan selection, cost estimation and
    /// mesh wiring avoid it. Returns `true` if the edge was newly added.
    pub fn quarantine(&self, edge: EdgeId) -> bool {
        let mut dead = self.dead.write();
        let added = dead.insert(edge);
        if added {
            self.active.store(true, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        }
        added
    }

    /// Remove `edge` from quarantine (an operator repaired the link).
    pub fn heal(&self, edge: EdgeId) -> bool {
        let mut dead = self.dead.write();
        let removed = dead.remove(&edge);
        if removed {
            if dead.is_empty() {
                self.active.store(false, Ordering::Release);
            }
            self.generation.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// Empty the quarantine set.
    pub fn heal_all(&self) {
        let mut dead = self.dead.write();
        if !dead.is_empty() {
            dead.clear();
            self.active.store(false, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        }
    }

    /// Whether `edge` is quarantined.
    pub fn is_dead(&self, edge: EdgeId) -> bool {
        if self.is_clean() {
            return false;
        }
        self.dead.read().contains(&edge)
    }

    /// The quarantined edges, sorted for stable output.
    pub fn dead_edges(&self) -> Vec<EdgeId> {
        let mut v: Vec<EdgeId> = self.dead.read().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Monotone mutation counter (0 while the domain has never seen a
    /// failure); plan caches embed it in their keys so entries compiled
    /// against a stale health view miss instead of serving a dead edge.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Whether any quarantined edge has both endpoints inside `devices` —
    /// i.e. a plan over that device set must avoid at least one edge.
    pub fn degrades(&self, devices: &[GpuId]) -> bool {
        if self.is_clean() {
            return false;
        }
        self.dead
            .read()
            .iter()
            .any(|e| devices.contains(&e.src) && devices.contains(&e.dst))
    }

    /// The physical channel label for a connector carrying logical `channel`
    /// traffic from `src` to `dst`: the identity while the edge is healthy,
    /// otherwise the first spare lane label whose edge is not quarantined.
    ///
    /// Rerouting is a pure relabeling — both endpoints derive the same label
    /// from the same shared map, and distinct logical channels map to
    /// distinct spare lanes — so a re-planned schedule keeps exactly its
    /// logical channel structure (and with it the capacity-1
    /// deadlock-freedom argument), while its traffic leaves the scripted
    /// dead lane.
    pub fn reroute(&self, src: GpuId, dst: GpuId, channel: ChannelId) -> ChannelId {
        if self.is_clean() {
            return channel;
        }
        let dead = self.dead.read();
        if !dead.contains(&EdgeId { src, dst, channel }) {
            return channel;
        }
        for shift in 1..REROUTE_FAN {
            let candidate =
                ChannelId(REROUTE_CHANNEL_BASE + channel.0.wrapping_mul(REROUTE_FAN) + shift);
            if !dead.contains(&EdgeId {
                src,
                dst,
                channel: candidate,
            }) {
                return candidate;
            }
        }
        channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: usize, dst: usize, ch: u32) -> EdgeId {
        EdgeId {
            src: GpuId(src),
            dst: GpuId(dst),
            channel: ChannelId(ch),
        }
    }

    #[test]
    fn clean_map_is_inert_and_generation_zero() {
        let h = LinkHealth::new();
        assert!(h.is_clean());
        assert_eq!(h.generation(), 0);
        assert!(!h.is_dead(edge(0, 1, 0)));
        assert!(!h.degrades(&[GpuId(0), GpuId(1)]));
        assert_eq!(h.reroute(GpuId(0), GpuId(1), ChannelId(0)), ChannelId(0));
    }

    #[test]
    fn quarantine_and_heal_track_generation() {
        let h = LinkHealth::new();
        assert!(h.quarantine(edge(0, 1, 0)));
        assert!(!h.quarantine(edge(0, 1, 0)), "re-quarantine is a no-op");
        assert!(!h.is_clean());
        assert!(h.is_dead(edge(0, 1, 0)));
        assert!(!h.is_dead(edge(1, 0, 0)), "direction matters");
        assert_eq!(h.generation(), 1);
        assert_eq!(h.dead_edges(), vec![edge(0, 1, 0)]);
        assert!(h.heal(edge(0, 1, 0)));
        assert!(h.is_clean());
        assert_eq!(h.generation(), 2);
        assert!(!h.heal(edge(0, 1, 0)), "healing a healthy edge is a no-op");
        assert_eq!(h.generation(), 2);
    }

    #[test]
    fn degrades_requires_both_endpoints_in_the_device_set() {
        let h = LinkHealth::new();
        h.quarantine(edge(1, 2, 0));
        assert!(h.degrades(&[GpuId(0), GpuId(1), GpuId(2)]));
        assert!(!h.degrades(&[GpuId(0), GpuId(1)]));
        assert!(!h.degrades(&[GpuId(2), GpuId(3)]));
        h.heal_all();
        assert!(!h.degrades(&[GpuId(1), GpuId(2)]));
    }

    #[test]
    fn reroute_relabels_only_the_dead_edge() {
        let h = LinkHealth::new();
        h.quarantine(edge(0, 1, 0));
        let relabeled = h.reroute(GpuId(0), GpuId(1), ChannelId(0));
        assert!(relabeled.0 >= REROUTE_CHANNEL_BASE);
        // The healthy reverse direction and other channels keep their labels.
        assert_eq!(h.reroute(GpuId(1), GpuId(0), ChannelId(0)), ChannelId(0));
        assert_eq!(h.reroute(GpuId(0), GpuId(1), ChannelId(1)), ChannelId(1));
        // Deterministic: both endpoints derive the same label.
        assert_eq!(h.reroute(GpuId(0), GpuId(1), ChannelId(0)), relabeled);
        // Distinct logical channels land on distinct spare lanes.
        h.quarantine(edge(0, 1, 1));
        assert_ne!(
            h.reroute(GpuId(0), GpuId(1), ChannelId(0)),
            h.reroute(GpuId(0), GpuId(1), ChannelId(1))
        );
    }

    #[test]
    fn reroute_skips_quarantined_spare_lanes() {
        let h = LinkHealth::new();
        h.quarantine(edge(0, 1, 0));
        let first = h.reroute(GpuId(0), GpuId(1), ChannelId(0));
        h.quarantine(EdgeId {
            src: GpuId(0),
            dst: GpuId(1),
            channel: first,
        });
        let second = h.reroute(GpuId(0), GpuId(1), ChannelId(0));
        assert_ne!(second, first);
        assert_ne!(second, ChannelId(0));
    }
}
