//! Tunable parameters of the DFCCL runtime.
//!
//! The defaults follow the values reported or implied by the paper: an initial
//! spin threshold of 100,000 polls for the collective at the front of the task
//! queue, a twenty-fold raise after a successful primitive (Sec. 6.4.1), 13 KB
//! of shared memory and 4 MB of global memory per block for 1,000 registered
//! collectives (Sec. 6.2), and the optimized completion queue (Sec. 5).
//! Algorithm family and channel count are not here: they are set per
//! collective on its `CollectiveDescriptor`.

use std::time::Duration;

use dfccl_collectives::AlgorithmSelector;

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

/// Modelled host-memory operation costs: what the GPU pays to reach the SQ
/// and CQ in page-locked host memory over PCIe, and to load or save a
/// collective context. They are model inputs, never executed: the SQ, each
/// CQ variant and the context store turn them into the modelled cost of an
/// operation (`SubmissionQueue::read_cost`, `CqKind::write_cost`, the
/// store's load and save), and the daemon records that cost in the rank's
/// ledger, where Fig. 7 reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMemCosts {
    /// One ordinary host-memory read/write issued from the GPU, in nanoseconds.
    pub host_op_ns: f64,
    /// One memory fence covering host memory, in nanoseconds.
    pub fence_ns: f64,
    /// One `atomicCAS_system` on host memory, in nanoseconds.
    pub cas_system_ns: f64,
    /// One host-memory operation of the daemon's SQ reader (Fig. 7(a)'s
    /// "reading SQE" component), in nanoseconds. A fetch of n SQEs costs
    /// `1 + 2n` of these: the head check once, slot state and payload per
    /// entry.
    pub sq_read_op_ns: f64,
    /// Loading one collective context into shared memory, in nanoseconds.
    pub context_load_ns: f64,
    /// Saving one collective's dynamic context, in nanoseconds.
    pub context_save_ns: f64,
}

impl Default for HostMemCosts {
    fn default() -> Self {
        // The three CQ variants' one-CQE writes model the paper's
        // 6.9 µs / 4.8 µs / 2.0 µs exactly, and a one-SQE read costs the
        // ~3 µs of Fig. 7(a).
        HostMemCosts {
            host_op_ns: 1_200.0,
            fence_ns: 900.0,
            cas_system_ns: 2_000.0,
            sq_read_op_ns: 1_000.0,
            context_load_ns: 450.0,
            context_save_ns: 50.0,
        }
    }
}

impl HostMemCosts {
    /// A cost model in which every operation is free (for logic-only tests).
    pub fn free() -> Self {
        HostMemCosts {
            host_op_ns: 0.0,
            fence_ns: 0.0,
            cas_system_ns: 0.0,
            sq_read_op_ns: 0.0,
            context_load_ns: 0.0,
            context_save_ns: 0.0,
        }
    }
}

/// Full runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DfcclConfig {
    /// Maximum elements per connector chunk: the connector-slot cap. Each
    /// collective's chunk is chosen with its family, the cheapest modelled
    /// rung of [`dfccl_collectives::CHUNK_LADDER`] at or below this cap
    /// ([`dfccl_collectives::AlgorithmSelector::choose`]); a cap below the
    /// ladder's first rung is the one chunk tried. The default, 512 Ki
    /// elements (2 MiB of f32), admits the whole ladder.
    pub chunk_elems: usize,
    /// Chunk slots per connector.
    pub connector_capacity: usize,
    /// Submission-queue capacity (SQEs).
    pub sq_capacity: usize,
    /// Completion-queue capacity (CQEs).
    pub cq_capacity: usize,
    /// Which CQ implementation to use.
    pub cq_variant: CqVariant,
    /// Modelled host-memory costs for SQ/CQ operations and context
    /// load/save.
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
    /// Graph-capture bucket cap (DDP's `bucket_cap_mb`): the largest total
    /// payload, in bytes, one fused all-reduce may hold. When a recorded
    /// graph is finalized, consecutive compatible all-reduces fill buckets
    /// of at most this many bytes, each bucket run as one all-reduce over
    /// its members' buffers in place. Default 25 MiB, DDP's default. `0`
    /// disables fusion;
    /// [`CollectiveDescriptor::with_no_fuse`](dfccl_collectives::CollectiveDescriptor::with_no_fuse)
    /// opts a single collective out.
    pub fusion_threshold_bytes: usize,
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
            chunk_elems: 512 * 1024,
            connector_capacity: 8,
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
            fusion_threshold_bytes: 25 << 20,
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

    /// Set the weighted-fair base quantum (slices per weight unit per pass).
    pub fn with_tenant_quantum(mut self, quantum: u32) -> Self {
        self.tenant_quantum = quantum.max(1);
        self
    }

    /// The algorithm selector registrations use: the topology/payload
    /// policy, overridden only per collective on the descriptor.
    pub fn algorithm_selector(&self) -> AlgorithmSelector {
        AlgorithmSelector::default()
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
        assert_eq!(c.host_costs.context_load_ns, 450.0);
        assert_eq!(c.host_costs.context_save_ns, 50.0);
    }

    #[test]
    fn testing_config_is_cost_free() {
        let c = DfcclConfig::for_testing();
        assert_eq!(c.host_costs, HostMemCosts::free());
        assert_eq!(HostMemCosts::free().context_load_ns, 0.0);
        assert_eq!(HostMemCosts::free().context_save_ns, 0.0);
        let s = DfcclConfig::preemption_stress();
        assert_eq!(s.spin, SpinPolicy::Fixed { threshold: 4 });
    }

    #[test]
    fn algorithm_selection_defaults_to_the_topology_aware_policy() {
        let sel = DfcclConfig::default().algorithm_selector();
        assert_eq!(sel, AlgorithmSelector::default());
        assert_eq!(sel.force, None);
    }

    #[test]
    fn fusion_threshold_defaults_to_ddp_scale_buckets() {
        let c = DfcclConfig::default();
        assert_eq!(c.fusion_threshold_bytes, 25 << 20);
        let off = DfcclConfig {
            fusion_threshold_bytes: 0,
            ..DfcclConfig::default()
        };
        assert_eq!(off.fusion_threshold_bytes, 0);
    }

    #[test]
    fn tenancy_defaults_leave_single_job_use_unconstrained() {
        let c = DfcclConfig::default();
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
