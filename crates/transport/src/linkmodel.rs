//! The link cost model replacing the SHM / RDMA transports of the testbed.
//!
//! Every chunk pushed through a [`crate::Connector`] pays
//! `alpha + bytes / beta` of modelled time, where `alpha` is the per-message
//! latency of the link class and `beta` its bandwidth. A global
//! [`gpu_sim::TimeScale`] compresses modelled time so sweeps over megabyte
//! buffers remain fast; compression preserves the *relative* behaviour that
//! Figs. 8 and 9 are about (latency-dominated small transfers, bandwidth-
//! dominated large transfers, and where the crossover falls).

use std::collections::HashMap;
use std::time::Duration;

use gpu_sim::{busy_spin, TimeScale};
use serde::{Deserialize, Serialize};

use crate::topology::LinkClass;

/// Cost parameters of one link class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Fixed per-message latency in nanoseconds (the `alpha` term).
    pub latency_ns: f64,
    /// Bandwidth in gigabytes per second (the `beta` term).
    pub bandwidth_gbps: f64,
}

impl LinkParams {
    /// Modelled (unscaled) transfer time for `bytes`.
    pub fn transfer_nanos(&self, bytes: usize) -> f64 {
        let bw_bytes_per_ns = self.bandwidth_gbps * 1e9 / 1e9; // GB/s == bytes/ns
        self.latency_ns + bytes as f64 / bw_bytes_per_ns
    }
}

/// Per-class cost model plus a time scale.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    params: HashMap<LinkClass, LinkParams>,
    scale: TimeScale,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::table2_testbed()
    }
}

impl LinkModel {
    /// Build a model from explicit per-class parameters.
    pub fn new(params: HashMap<LinkClass, LinkParams>, scale: TimeScale) -> Self {
        LinkModel { params, scale }
    }

    /// Parameters derived from the Table 2 testbed: PCIe Gen4-class shared
    /// memory transport within a PIX domain, a slower path across the socket
    /// interconnect, and 56 Gb/s RDMA between machines.
    pub fn table2_testbed() -> Self {
        let mut params = HashMap::new();
        params.insert(
            LinkClass::Local,
            LinkParams {
                latency_ns: 200.0,
                bandwidth_gbps: 300.0,
            },
        );
        params.insert(
            LinkClass::IntraPix,
            LinkParams {
                latency_ns: 1_800.0,
                bandwidth_gbps: 11.0,
            },
        );
        params.insert(
            LinkClass::IntraSys,
            LinkParams {
                latency_ns: 2_600.0,
                bandwidth_gbps: 8.0,
            },
        );
        params.insert(
            LinkClass::InterNode,
            LinkParams {
                latency_ns: 4_500.0,
                bandwidth_gbps: 5.5, // ~56 Gb/s line rate, accounting for protocol overhead
            },
        );
        LinkModel {
            params,
            scale: TimeScale::default(),
        }
    }

    /// The testbed model with time compressed by `factor` (good for benches).
    pub fn table2_compressed(factor: f64) -> Self {
        let mut m = Self::table2_testbed();
        m.scale = TimeScale::compressed(factor);
        m
    }

    /// A model with zero cost, useful for pure-logic tests where transfer
    /// delays only slow the test suite down.
    pub fn zero_cost() -> Self {
        let mut params = HashMap::new();
        for class in [
            LinkClass::Local,
            LinkClass::IntraPix,
            LinkClass::IntraSys,
            LinkClass::InterNode,
        ] {
            params.insert(
                class,
                LinkParams {
                    latency_ns: 0.0,
                    bandwidth_gbps: f64::INFINITY,
                },
            );
        }
        LinkModel {
            params,
            scale: TimeScale::default(),
        }
    }

    /// Parameters for a link class (falls back to the slowest class if absent).
    pub fn params(&self, class: LinkClass) -> LinkParams {
        self.params
            .get(&class)
            .copied()
            .or_else(|| self.params.get(&LinkClass::InterNode).copied())
            .unwrap_or(LinkParams {
                latency_ns: 0.0,
                bandwidth_gbps: f64::INFINITY,
            })
    }

    /// Scaled wall-clock cost of transferring `bytes` over `class`, or `None`
    /// when the modelled time is non-finite — a zero-bandwidth (dead) link, or
    /// an infinite/NaN latency. Such a link never completes a transfer.
    pub fn transfer_cost_checked(&self, class: LinkClass, bytes: usize) -> Option<Duration> {
        let nanos = self.params(class).transfer_nanos(bytes);
        if !nanos.is_finite() {
            return None;
        }
        Some(self.scale.scale_nanos(nanos))
    }

    /// Scaled wall-clock cost of transferring `bytes` over `class`.
    ///
    /// An unreachable link (non-finite modelled time) saturates to
    /// [`LinkModel::UNREACHABLE_COST`] rather than `Duration::MAX`, because
    /// callers multiply this by step counts and `Duration` multiplication
    /// panics on overflow. It used to return `Duration::ZERO` — a dead link
    /// transferred for *free*, exactly backwards.
    pub fn transfer_cost(&self, class: LinkClass, bytes: usize) -> Duration {
        self.transfer_cost_checked(class, bytes)
            .unwrap_or(Self::UNREACHABLE_COST)
    }

    /// Saturated stand-in cost for a link that can never complete a transfer:
    /// one modelled hour, far beyond any watchdog deadline but safe to
    /// multiply by per-collective step counts.
    pub const UNREACHABLE_COST: Duration = Duration::from_secs(3600);

    /// Whether `class` can never complete a transfer under this model
    /// (zero bandwidth or non-finite latency).
    pub fn is_unreachable(&self, class: LinkClass) -> bool {
        !self.params(class).transfer_nanos(1).is_finite()
    }

    /// Charge the transfer cost if the link is reachable. Returns `false`
    /// without spinning when the modelled time is non-finite, so senders can
    /// reject the chunk and surface the dead link instead of stalling inline.
    pub fn try_charge(&self, class: LinkClass, bytes: usize) -> bool {
        self.try_charge_scaled(class, bytes, 1.0)
    }

    /// [`LinkModel::try_charge`] with the cost multiplied by `factor` (used by
    /// fault injection to model an N× link slowdown). Returns `false` without
    /// spinning when the scaled modelled time is non-finite.
    pub fn try_charge_scaled(&self, class: LinkClass, bytes: usize, factor: f64) -> bool {
        let nanos = self.params(class).transfer_nanos(bytes) * factor;
        if !nanos.is_finite() {
            return false;
        }
        busy_spin(self.scale.scale_nanos(nanos));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_has_latency_floor() {
        let m = LinkModel::table2_testbed();
        let tiny = m.transfer_cost(LinkClass::IntraPix, 8);
        let params = m.params(LinkClass::IntraPix);
        assert!(tiny >= Duration::from_nanos(params.latency_ns as u64));
    }

    #[test]
    fn transfer_time_grows_with_size() {
        let m = LinkModel::table2_testbed();
        let small = m.transfer_cost(LinkClass::IntraPix, 1024);
        let big = m.transfer_cost(LinkClass::IntraPix, 4 * 1024 * 1024);
        assert!(big > small * 100);
    }

    #[test]
    fn inter_node_is_slower_than_intra_pix() {
        let m = LinkModel::table2_testbed();
        let bytes = 1024 * 1024;
        assert!(
            m.transfer_cost(LinkClass::InterNode, bytes)
                > m.transfer_cost(LinkClass::IntraPix, bytes)
        );
    }

    #[test]
    fn compression_reduces_cost_proportionally() {
        let base = LinkModel::table2_testbed();
        let fast = LinkModel::table2_compressed(10.0);
        let bytes = 1024 * 1024;
        let full = base.transfer_cost(LinkClass::IntraSys, bytes);
        let compressed = fast.transfer_cost(LinkClass::IntraSys, bytes);
        let ratio = full.as_nanos() as f64 / compressed.as_nanos().max(1) as f64;
        assert!((9.0..11.0).contains(&ratio), "ratio was {ratio}");
    }

    #[test]
    fn zero_cost_model_charges_nothing() {
        let m = LinkModel::zero_cost();
        assert_eq!(
            m.transfer_cost(LinkClass::InterNode, 1 << 20),
            Duration::ZERO
        );
    }

    #[test]
    fn missing_class_falls_back_to_slowest() {
        let mut params = HashMap::new();
        params.insert(
            LinkClass::InterNode,
            LinkParams {
                latency_ns: 100.0,
                bandwidth_gbps: 1.0,
            },
        );
        let m = LinkModel::new(params, TimeScale::default());
        assert_eq!(m.params(LinkClass::IntraPix).latency_ns, 100.0);
    }

    #[test]
    fn dead_link_costs_saturate_instead_of_being_free() {
        // Regression: a zero-bandwidth link used to yield a non-finite
        // modelled time that was clamped to Duration::ZERO, so chunks crossed
        // a dead link for free. It must saturate (block) instead.
        let mut params = HashMap::new();
        params.insert(
            LinkClass::InterNode,
            LinkParams {
                latency_ns: 100.0,
                bandwidth_gbps: 0.0,
            },
        );
        let m = LinkModel::new(params, TimeScale::default());
        assert!(m.is_unreachable(LinkClass::InterNode));
        assert_eq!(m.transfer_cost_checked(LinkClass::InterNode, 64), None);
        assert_eq!(
            m.transfer_cost(LinkClass::InterNode, 64),
            LinkModel::UNREACHABLE_COST
        );
        // try_charge refuses without spinning.
        let start = std::time::Instant::now();
        assert!(!m.try_charge(LinkClass::InterNode, 64));
        assert!(start.elapsed() < Duration::from_millis(5));
        // Multiplying by a step count (as mpi_like does) must not panic.
        let _ = m.transfer_cost(LinkClass::InterNode, 64) * 1000u32;
    }

    #[test]
    fn zero_cost_model_is_reachable_and_try_charge_succeeds() {
        // bandwidth = INFINITY gives bytes/inf = 0, which is finite: the
        // zero-cost model must stay free, only zero-bandwidth links block.
        let m = LinkModel::zero_cost();
        assert!(!m.is_unreachable(LinkClass::InterNode));
        assert!(m.try_charge(LinkClass::InterNode, 1 << 20));
        assert_eq!(
            m.transfer_cost_checked(LinkClass::InterNode, 1 << 20),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn scaled_charge_multiplies_the_modelled_time() {
        let m = LinkModel::table2_testbed();
        let base = m.transfer_cost(LinkClass::IntraPix, 64 * 1024);
        let start = std::time::Instant::now();
        assert!(m.try_charge_scaled(LinkClass::IntraPix, 64 * 1024, 20.0));
        let elapsed = start.elapsed();
        assert!(
            elapsed >= base * 20,
            "20x-scaled charge took {elapsed:?}, base cost {base:?}"
        );
    }
}
