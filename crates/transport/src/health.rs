//! Domain-wide link-health tracking: the quarantine map recovery writes and
//! the communicator mesh reads.
//!
//! When a watchdog names a failed `(src, dst, channel)` edge in a
//! [`crate::StallReport`], the recovery layer quarantines it here. The mesh
//! is the one place that avoids it: any connector that would be labelled
//! with a dead edge is relabelled onto a spare lane of the same link
//! ([`LinkHealth::reroute`]), so a dead lane is routed around, never
//! retried. Plan selection does not read this map: every member of a
//! collective resolves the same family whatever the map held when it
//! registered. The reroute reaches connectors wired (or purged and rebound)
//! after a quarantine; one wired before it keeps its label until recovery
//! purges it.
//!
//! The map is inert until the first quarantine: a healthy domain pays one
//! relaxed atomic load per query.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
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
/// Shared (as one `Arc`) by the communicator pool and every communicator it
/// hands out.
pub struct LinkHealth {
    /// Fast inert-path flag: false while no edge is quarantined.
    active: AtomicBool,
    dead: RwLock<HashSet<EdgeId>>,
}

impl std::fmt::Debug for LinkHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkHealth")
            .field("dead", &self.dead.read().len())
            .finish()
    }
}

impl Default for LinkHealth {
    fn default() -> Self {
        LinkHealth {
            active: AtomicBool::new(false),
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

    /// Quarantine `edge`: connectors wired from now on (and those a purge
    /// drops) are rerouted off it. Returns `true` if the edge was newly added.
    pub fn quarantine(&self, edge: EdgeId) -> bool {
        let mut dead = self.dead.write();
        let added = dead.insert(edge);
        if added {
            self.active.store(true, Ordering::Release);
        }
        added
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

    /// The physical channel label for a connector carrying logical `channel`
    /// traffic from `src` to `dst`: the identity while the edge is healthy,
    /// otherwise the first spare lane label whose edge is not quarantined.
    ///
    /// Rerouting is a pure relabeling — both endpoints derive the same label
    /// from the same shared map, and distinct logical channels map to
    /// distinct spare lanes — so a plan keeps exactly its logical channel
    /// structure (and with it the capacity-1 deadlock-freedom argument),
    /// whatever family it runs, while the connectors wired through this
    /// label leave the dead lane.
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
    fn clean_map_is_inert() {
        let h = LinkHealth::new();
        assert!(h.is_clean());
        assert!(!h.is_dead(edge(0, 1, 0)));
        assert_eq!(h.reroute(GpuId(0), GpuId(1), ChannelId(0)), ChannelId(0));
    }

    #[test]
    fn quarantine_marks_one_directed_edge() {
        let h = LinkHealth::new();
        assert!(h.quarantine(edge(0, 1, 0)));
        assert!(!h.quarantine(edge(0, 1, 0)), "re-quarantine is a no-op");
        assert!(!h.is_clean());
        assert!(h.is_dead(edge(0, 1, 0)));
        assert!(!h.is_dead(edge(1, 0, 0)), "direction matters");
        assert_eq!(h.dead_edges(), vec![edge(0, 1, 0)]);
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
