//! Tunable parameters of the DFCCL runtime.
//!
//! The defaults follow the values reported or implied by the paper: an initial
//! spin threshold of 100,000 polls for the collective at the front of the task
//! queue, a twenty-fold raise after a successful primitive (Sec. 6.4.1), 13 KB
//! of shared memory and 4 MB of global memory per block for 1,000 registered
//! collectives (Sec. 6.2), and the optimized completion queue (Sec. 5).

use std::time::Duration;

use dfccl_collectives::{AlgorithmKind, AlgorithmSelector, DEFAULT_TREE_THRESHOLD_BYTES};

use crate::tenant::TenantQuota;

/// Charge a modelled host-memory cost by busy-spinning for `ns` nanoseconds
/// (no-op for non-positive costs). The single entry point of the cost model:
/// both the SQ reader and the CQ writers charge through here, so the
/// SQ-vs-CQ cost comparison the benchmarks rely on cannot drift.
pub(crate) fn charge(ns: f64) {
    if ns > 0.0 {
        gpu_sim::busy_spin(Duration::from_nanos(ns as u64));
    }
}

/// Which completion-queue implementation the runtime uses (Sec. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CqVariant {
    /// Ring buffer with per-slot flags and an explicit memory fence
    /// (≈5 host-memory operations per CQE).
    VanillaRing,
    /// Ring buffer that packs the tail and the collective id into one 64-bit
    /// atomic write, eliminating the fence (4 host-memory operations).
    OptimizedRing,
    /// Slot array written with a single `atomicCAS_system`, abandoning ring
    /// semantics (1 host-memory operation).
    OptimizedSlot,
}

/// How the daemon kernel orders its task queue (Sec. 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingPolicy {
    /// Empty the task queue quickly; fetch new SQEs only when the queue is
    /// empty or nothing can progress.
    Fifo,
    /// Check the SQ more frequently and keep the task queue sorted by the
    /// user-specified priority.
    PriorityBased,
}

/// How the daemon arbitrates between per-tenant task-queue lanes in service
/// mode. Within a lane the paper's semantics ([`OrderingPolicy`]) are
/// untouched; arbitration only decides how lanes interleave. Weighted fair
/// sharing is the one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantArbitration {
    /// Deficit-round-robin over lanes: per scheduling pass each contending
    /// tenant is granted up to `weight × tenant_quantum` slices, selected by
    /// a rotating cursor over the lane so every queued collective is still
    /// polled within a bounded number of passes (the rotation is what keeps
    /// the capacity-1 deadlock-freedom argument intact — see DESIGN.md §8).
    WeightedFair,
}

/// How spin thresholds are assigned and adjusted (Sec. 4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpinPolicy {
    /// Every primitive of every collective gets the same fixed threshold.
    /// This is the "naive" policy whose throughput collapse Fig. 11 shows.
    Fixed {
        /// The threshold, in poll iterations.
        threshold: u64,
    },
    /// The adaptive stickiness policy: the front of the task queue gets the
    /// largest initial threshold, later entries progressively smaller ones,
    /// and a successful primitive multiplies the threshold of its successors.
    Adaptive {
        /// Initial threshold for the queue-front collective.
        front_threshold: u64,
        /// Lower bound for initial thresholds of collectives deep in the queue.
        min_threshold: u64,
        /// Multiplier applied after a successful primitive.
        success_multiplier: u64,
        /// Upper bound after multiplication.
        max_threshold: u64,
    },
}

impl SpinPolicy {
    /// The adaptive policy with the paper's profiled parameters.
    pub fn adaptive_default() -> Self {
        SpinPolicy::Adaptive {
            front_threshold: 100_000,
            min_threshold: 1_000,
            success_multiplier: 20,
            max_threshold: 10_000_000,
        }
    }

    /// The naive fixed policy used as the ablation baseline in Fig. 11.
    pub fn naive_fixed() -> Self {
        SpinPolicy::Fixed { threshold: 10_000 }
    }

    /// Initial spin threshold for a collective at `position` in the task queue.
    pub fn initial_threshold(&self, position: usize) -> u64 {
        match *self {
            SpinPolicy::Fixed { threshold } => threshold,
            SpinPolicy::Adaptive {
                front_threshold,
                min_threshold,
                ..
            } => {
                // Halve per position, never below the floor.
                let shifted = front_threshold >> position.min(63);
                shifted.max(min_threshold)
            }
        }
    }

    /// New threshold after a primitive of the collective succeeded.
    pub fn on_success(&self, current: u64) -> u64 {
        match *self {
            SpinPolicy::Fixed { threshold } => threshold,
            SpinPolicy::Adaptive {
                success_multiplier,
                max_threshold,
                ..
            } => current
                .saturating_mul(success_multiplier)
                .min(max_threshold),
        }
    }
}

/// Modelled host-memory operation costs used by the CQ variants, so that the
/// Fig. 7(c) comparison has the right shape without real PCIe hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMemCosts {
    /// One ordinary host-memory read/write issued from the GPU, in nanoseconds.
    pub host_op_ns: f64,
    /// One memory fence covering host memory, in nanoseconds.
    pub fence_ns: f64,
    /// One `atomicCAS_system` on host memory, in nanoseconds.
    pub cas_system_ns: f64,
    /// One host-memory operation of the daemon's SQ reader (Fig. 7(a)'s
    /// "reading SQE" component), in nanoseconds. An unbatched SQE read pays
    /// three of these (head check, slot state, payload); a batched fetch pays
    /// the head check once per batch and two per entry.
    pub sq_read_op_ns: f64,
}

impl Default for HostMemCosts {
    fn default() -> Self {
        // Calibrated so the three CQ variants land near the paper's
        // 6.9 µs / 4.8 µs / 2.0 µs CQE-write times, and an unbatched SQE
        // read near the ~3 µs of Fig. 7(a).
        HostMemCosts {
            host_op_ns: 1_200.0,
            fence_ns: 900.0,
            cas_system_ns: 2_000.0,
            sq_read_op_ns: 1_000.0,
        }
    }
}

impl HostMemCosts {
    /// A cost model that charges nothing (for logic-only tests).
    pub fn free() -> Self {
        HostMemCosts {
            host_op_ns: 0.0,
            fence_ns: 0.0,
            cas_system_ns: 0.0,
            sq_read_op_ns: 0.0,
        }
    }
}

/// Full runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DfcclConfig {
    /// Maximum elements per connector chunk.
    pub chunk_elems: usize,
    /// Chunk slots per connector.
    pub connector_capacity: usize,
    /// Global collective-algorithm override. `None` lets the selector pick
    /// ring/tree/hierarchical from payload size and topology per collective;
    /// `Some` forces one family whenever it supports the collective. A
    /// per-collective override on the descriptor still wins.
    pub algorithm: Option<AlgorithmKind>,
    /// Payloads at or below this many bytes prefer the latency-optimal tree
    /// schedule (when the collective kind supports it).
    pub tree_threshold_bytes: usize,
    /// Parallel channels every `(src, dst)` edge is striped across: each
    /// channel gets its own connector and its own round-robin share of the
    /// chunk stream, so a large collective fills `K × connector_capacity`
    /// in-flight slots per edge instead of serialising on one chunk queue.
    /// `1` (the default) is the unstriped schedule. A per-collective override
    /// on the descriptor (`CollectiveDescriptor::with_channels`) wins.
    pub channels: usize,
    /// Submission-queue capacity (SQEs).
    pub sq_capacity: usize,
    /// Completion-queue capacity (CQEs).
    pub cq_capacity: usize,
    /// Which CQ implementation to use.
    pub cq_variant: CqVariant,
    /// Modelled host-memory costs for SQ/CQ operations.
    pub host_costs: HostMemCosts,
    /// Task-queue ordering policy.
    pub ordering: OrderingPolicy,
    /// Spin-threshold policy.
    pub spin: SpinPolicy,
    /// Number of consecutive idle passes (no new SQE, no progress) after which
    /// the daemon kernel quits voluntarily.
    pub idle_passes_before_quit: u32,
    /// Of those idle passes, how many are spent cheaply spinning/yielding
    /// before the daemon parks on its wake-up signal (adaptive
    /// spin-then-park: spinning keeps wake latency in the nanoseconds while
    /// bursts are arriving; parking keeps an idle daemon off the CPU).
    pub idle_spin_passes: u32,
    /// Upper bound on a single park while idle, and on the event-driven
    /// retry interval while the device refuses residency (e.g. a pending
    /// synchronization). Wake-up signals cut these waits short.
    pub restart_backoff: Duration,
    /// Maximum SQEs fetched per SQ-cursor lock acquisition: the cursor lock
    /// and the SQ head read are amortized across a burst of submissions.
    pub sq_fetch_batch: usize,
    /// Logical grid size of the daemon kernel (number of blocks). Used for
    /// memory accounting and per-block statistics.
    pub daemon_blocks: u32,
    /// Shared memory the daemon kernel reserves per block (task queue + active
    /// context slots), bytes.
    pub shared_mem_per_block: usize,
    /// Modelled cost of loading one collective context into shared memory, ns.
    pub context_load_ns: f64,
    /// Modelled cost of saving one collective's dynamic context, ns.
    pub context_save_ns: f64,
    /// Graph-capture fusion threshold: consecutive captured all-reduces of
    /// the same (device set, dtype, operator) shape whose payloads are each
    /// at most this many bytes are coalesced into one fused all-reduce when
    /// the recorded graph is finalized (the DDP gradient-bucketing idiom).
    /// `0` disables fusion;
    /// [`CollectiveDescriptor::with_no_fuse`](dfccl_collectives::CollectiveDescriptor::with_no_fuse)
    /// opts a single collective out.
    pub fusion_threshold_bytes: usize,
    /// Default quota for tenants that never received an explicit one — the
    /// implicit tenant 0 of handle-less registrations, and any tenant whose
    /// handle this rank has not seen. Unlimited by default, so single-job use
    /// is unaffected by service mode.
    pub tenant_quota: TenantQuota,
    /// How per-tenant task-queue lanes are interleaved when more than one
    /// tenant has queued work.
    pub tenant_arbitration: TenantArbitration,
    /// Base scheduling quantum under [`TenantArbitration::WeightedFair`]: a
    /// contending tenant is granted up to `weight × tenant_quantum` slices
    /// per pass. Larger quanta amortize lane switching; `1` gives the
    /// tightest interleaving (used by the fairness tests).
    pub tenant_quantum: u32,
}

impl Default for DfcclConfig {
    fn default() -> Self {
        DfcclConfig {
            chunk_elems: 32 * 1024,
            connector_capacity: 8,
            algorithm: None,
            tree_threshold_bytes: DEFAULT_TREE_THRESHOLD_BYTES,
            channels: 1,
            sq_capacity: 1024,
            cq_capacity: 1024,
            cq_variant: CqVariant::OptimizedSlot,
            host_costs: HostMemCosts::default(),
            ordering: OrderingPolicy::Fifo,
            spin: SpinPolicy::adaptive_default(),
            idle_passes_before_quit: 64,
            idle_spin_passes: 4,
            restart_backoff: Duration::from_micros(100),
            sq_fetch_batch: 64,
            daemon_blocks: 4,
            shared_mem_per_block: 13 * 1024,
            context_load_ns: 450.0,
            context_save_ns: 50.0,
            fusion_threshold_bytes: 64 * 1024,
            tenant_quota: TenantQuota::default(),
            tenant_arbitration: TenantArbitration::WeightedFair,
            tenant_quantum: 4,
        }
    }
}

impl DfcclConfig {
    /// A configuration with every modelled cost removed — fast, suited to
    /// correctness tests.
    pub fn for_testing() -> Self {
        DfcclConfig {
            host_costs: HostMemCosts::free(),
            context_load_ns: 0.0,
            context_save_ns: 0.0,
            idle_passes_before_quit: 16,
            restart_backoff: Duration::from_micros(20),
            ..Default::default()
        }
    }

    /// Same as [`DfcclConfig::for_testing`] but with very small spin thresholds,
    /// which makes preemption extremely frequent — useful for stress-testing
    /// context save/restore correctness.
    pub fn preemption_stress() -> Self {
        DfcclConfig {
            spin: SpinPolicy::Fixed { threshold: 4 },
            ..Self::for_testing()
        }
    }

    /// Force one collective-algorithm family for every registration (the
    /// per-collective descriptor override still wins).
    pub fn with_algorithm(mut self, algorithm: AlgorithmKind) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Stripe every registration across `channels` parallel connectors per
    /// edge (the per-collective descriptor override still wins).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Set the default quota for tenants without an explicit handle.
    pub fn with_tenant_quota(mut self, quota: TenantQuota) -> Self {
        self.tenant_quota = quota;
        self
    }

    /// Set the weighted-fair base quantum (slices per weight unit per pass).
    pub fn with_tenant_quantum(mut self, quantum: u32) -> Self {
        self.tenant_quantum = quantum.max(1);
        self
    }

    /// The algorithm selector this configuration describes.
    pub fn algorithm_selector(&self) -> AlgorithmSelector {
        AlgorithmSelector {
            tree_threshold_bytes: self.tree_threshold_bytes,
            force: self.algorithm,
            channels: self.channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_initial_threshold_decreases_with_position() {
        let p = SpinPolicy::adaptive_default();
        let front = p.initial_threshold(0);
        let second = p.initial_threshold(1);
        let deep = p.initial_threshold(40);
        assert!(front > second);
        assert!(second >= deep);
        assert_eq!(front, 100_000);
        assert_eq!(deep, 1_000, "deep positions hit the floor");
    }

    #[test]
    fn adaptive_success_multiplies_and_saturates() {
        let p = SpinPolicy::adaptive_default();
        assert_eq!(p.on_success(1_000), 20_000);
        assert_eq!(p.on_success(9_000_000), 10_000_000);
    }

    #[test]
    fn fixed_policy_never_changes() {
        let p = SpinPolicy::naive_fixed();
        assert_eq!(p.initial_threshold(0), 10_000);
        assert_eq!(p.initial_threshold(17), 10_000);
        assert_eq!(p.on_success(10_000), 10_000);
    }

    #[test]
    fn default_config_matches_paper_constants() {
        let c = DfcclConfig::default();
        assert_eq!(c.shared_mem_per_block, 13 * 1024);
        assert_eq!(crate::api::CONTEXT_BUFFER_PER_BLOCK, 4 * 1024 * 1024);
        assert_eq!(crate::daemon::ACTIVE_CONTEXT_SLOTS, 8);
        assert_eq!(crate::daemon::TELEMETRY_EVENTS, 4096);
        assert_eq!(c.cq_variant, CqVariant::OptimizedSlot);
        assert!(matches!(c.spin, SpinPolicy::Adaptive { .. }));
    }

    #[test]
    fn testing_config_is_cost_free() {
        let c = DfcclConfig::for_testing();
        assert_eq!(c.host_costs, HostMemCosts::free());
        assert_eq!(c.context_load_ns, 0.0);
        let s = DfcclConfig::preemption_stress();
        assert_eq!(s.spin, SpinPolicy::Fixed { threshold: 4 });
    }

    #[test]
    fn algorithm_selection_defaults_to_the_topology_aware_policy() {
        let c = DfcclConfig::default();
        assert_eq!(c.algorithm, None);
        assert_eq!(c.tree_threshold_bytes, DEFAULT_TREE_THRESHOLD_BYTES);
        let sel = c.algorithm_selector();
        assert_eq!(sel.force, None);
        assert_eq!(sel.channels, 1, "unstriped by default");
        let forced = DfcclConfig::default().with_algorithm(AlgorithmKind::Ring);
        assert_eq!(forced.algorithm_selector().force, Some(AlgorithmKind::Ring));
        let striped = DfcclConfig::default().with_channels(4);
        assert_eq!(striped.algorithm_selector().channels, 4);
    }

    #[test]
    fn fusion_threshold_defaults_to_ddp_scale_buckets() {
        let c = DfcclConfig::default();
        assert_eq!(c.fusion_threshold_bytes, 64 * 1024);
        let off = DfcclConfig {
            fusion_threshold_bytes: 0,
            ..DfcclConfig::default()
        };
        assert_eq!(off.fusion_threshold_bytes, 0);
    }

    #[test]
    fn tenancy_defaults_leave_single_job_use_unconstrained() {
        let c = DfcclConfig::default();
        assert_eq!(c.tenant_quota, TenantQuota::default());
        assert_eq!(c.tenant_arbitration, TenantArbitration::WeightedFair);
        assert_eq!(c.tenant_quantum, 4);
        assert_eq!(
            DfcclConfig::default().with_tenant_quantum(0).tenant_quantum,
            1
        );
    }

    #[test]
    fn host_cost_defaults_reproduce_cq_ordering() {
        let h = HostMemCosts::default();
        let vanilla = 5.0 * h.host_op_ns + h.fence_ns;
        let optimized_ring = 4.0 * h.host_op_ns;
        let optimized_slot = h.cas_system_ns;
        assert!(vanilla > optimized_ring);
        assert!(optimized_ring > optimized_slot);
    }
}
