//! Deadlock watchdog for the NCCL-like baseline.
//!
//! Real NCCL deadlocks manifest as the program hanging with GPUs pinned at
//! 100% utilisation and no useful log output (Sec. 2.2). In a test suite that
//! is unacceptable, so the baseline scenarios run under a watchdog: if the
//! launched collective kernels do not all complete within a deadline, the
//! scenario is declared deadlocked and every engine is torn down via the
//! cooperative abort flag.
//!
//! There is one supervision loop, [`wait_all_or_stall`], and the deadline is
//! a **stall** deadline, not a wall-clock budget: a wedged round makes *no*
//! progress, whereas a slow round (e.g. a modelled
//! [`dfccl_transport::LinkModel`] whose per-chunk delay exceeds the deadline)
//! keeps moving chunks. Its probe returns per-edge samples (typically
//! `NcclDomain::edge_samples`); progress on any edge resets the deadline, so
//! only a genuine stall is reported. [`wait_all_or_deadlock`] is the same
//! loop with an empty probe — no progress is ever observed, so its deadline
//! is fixed.

use std::collections::HashSet;
use std::time::Duration;

use dfccl_transport::fault::{supervise_with_probe, EdgeSample, StallReport, SuperviseOutcome};
use gpu_sim::{DeviceEngine, GpuId, KernelHandle};
use std::sync::Arc;

/// Result of supervising a set of collective kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockOutcome {
    /// Every kernel completed before the deadline.
    AllCompleted,
    /// The deadline expired with kernels still queued or running — the
    /// scenario is deadlocked. Contains the names of the unfinished kernels.
    Deadlock {
        /// Kernels that had not completed when the deadline expired.
        unfinished: Vec<String>,
    },
}

impl DeadlockOutcome {
    /// Whether a deadlock was detected.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, DeadlockOutcome::Deadlock { .. })
    }
}

/// Wait for every handle to finish, declaring a deadlock once `deadline`
/// passes. On timeout, abort all work on the engines owning unfinished
/// kernels (so their kernel threads exit) and report which kernels were
/// unfinished. The deadline is fixed — use [`wait_all_or_stall`] with an
/// edge probe when modelled link delays can legitimately exceed it.
pub fn wait_all_or_deadlock(
    handles: &[KernelHandle],
    engines: &[Arc<DeviceEngine>],
    deadline: Duration,
) -> DeadlockOutcome {
    match wait_all_or_stall(handles, engines, deadline, &Vec::new) {
        StallOutcome::AllCompleted => DeadlockOutcome::AllCompleted,
        StallOutcome::Stalled(report) => DeadlockOutcome::Deadlock {
            unfinished: report.unfinished,
        },
    }
}

/// Abort only the engines that still own unfinished supervised kernels, and
/// wait only on those kernels. Engines whose supervised work already
/// completed — or that only run *other* tenants' kernels — are left alone, so
/// one stalled tenant's timeout no longer kills bystanders sharing the
/// domain.
fn teardown_stalled(stalled: &[&KernelHandle], engines: &[Arc<DeviceEngine>]) {
    let stalled_devices: HashSet<GpuId> = stalled.iter().map(|h| h.device()).collect();
    for e in engines {
        if stalled_devices.contains(&e.device().id()) {
            e.abort_all();
        }
    }
    // Give the aborted kernels a moment to observe the flag.
    for h in stalled {
        let _ = h.wait_timeout(Duration::from_secs(5));
    }
}

/// Outcome of supervising kernels with per-edge visibility: either everything
/// completed, or a structured [`StallReport`] naming the failed/stalled edges
/// and collectives.
#[derive(Debug, Clone, PartialEq)]
pub enum StallOutcome {
    /// Every kernel completed before a stall deadline expired.
    AllCompleted,
    /// A full stall deadline passed with zero progress on every edge; the
    /// report classifies the stall (wedge vs link failure) and names the
    /// implicated edges, collectives and unfinished kernels.
    Stalled(StallReport),
}

impl StallOutcome {
    /// Whether a stall was detected.
    pub fn is_stalled(&self) -> bool {
        matches!(self, StallOutcome::Stalled(_))
    }
}

/// Wait for every handle to finish, declaring a stall only after
/// `stall_deadline` passes with zero progress across the per-edge
/// [`EdgeSample`]s `probe` returns (e.g. `NcclDomain::edge_samples`).
/// Progress on *any* edge resets the deadline; on expiry the probe is
/// re-sampled once (a round that advanced meanwhile gets its deadline back)
/// and the two snapshots are classified into a [`StallReport`] that
/// distinguishes a scheduling wedge from a link failure and names the
/// edges/collectives involved. Teardown is scoped to the engines owning
/// unfinished supervised kernels.
pub fn wait_all_or_stall(
    handles: &[KernelHandle],
    engines: &[Arc<DeviceEngine>],
    stall_deadline: Duration,
    probe: &dyn Fn() -> Vec<EdgeSample>,
) -> StallOutcome {
    let done = || handles.iter().all(|h| h.status().is_terminal());
    match supervise_with_probe(&done, stall_deadline, probe) {
        SuperviseOutcome::AllCompleted => StallOutcome::AllCompleted,
        SuperviseOutcome::Stalled(mut report) => {
            let stalled: Vec<&KernelHandle> = handles
                .iter()
                .filter(|h| !h.status().is_terminal())
                .collect();
            report.unfinished = stalled.iter().map(|h| h.name().to_string()).collect();
            teardown_stalled(&stalled, engines);
            StallOutcome::Stalled(report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::kernel::Kernel;
    use gpu_sim::{
        FnKernel, GpuDevice, GpuId, GpuSpec, KernelCtx, KernelOutcome, KernelStatus, StreamId,
    };
    use std::time::Instant;

    fn engine() -> Arc<DeviceEngine> {
        DeviceEngine::new(GpuDevice::new(GpuId(0), GpuSpec::tiny(2)))
    }

    fn spin_forever_kernel() -> Box<dyn Kernel> {
        Box::new(FnKernel::new("spin-forever", |ctx: &KernelCtx| {
            while !ctx.should_abort() {
                std::thread::sleep(Duration::from_millis(1));
            }
            KernelOutcome::Aborted
        }))
    }

    #[test]
    fn completed_kernels_are_not_a_deadlock() {
        let e = engine();
        let h = e
            .launch(
                StreamId(1),
                Box::new(FnKernel::new("quick", |_| KernelOutcome::Completed)),
            )
            .unwrap();
        let outcome = wait_all_or_deadlock(&[h], &[Arc::clone(&e)], Duration::from_secs(5));
        assert_eq!(outcome, DeadlockOutcome::AllCompleted);
        e.shutdown();
    }

    #[test]
    fn hung_kernel_is_reported_and_torn_down() {
        let e = engine();
        let h = e.launch(StreamId(1), spin_forever_kernel()).unwrap();
        let outcome = wait_all_or_deadlock(
            std::slice::from_ref(&h),
            &[Arc::clone(&e)],
            Duration::from_millis(100),
        );
        match &outcome {
            DeadlockOutcome::Deadlock { unfinished } => {
                assert_eq!(unfinished, &vec!["spin-forever".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert!(outcome.is_deadlock());
        // The kernel was aborted so the engine can shut down cleanly.
        assert_eq!(
            h.wait_timeout(Duration::from_secs(5)),
            KernelStatus::Aborted
        );
        e.shutdown();
    }

    #[test]
    fn empty_handle_set_completes_immediately() {
        let outcome = wait_all_or_deadlock(&[], &[], Duration::from_millis(10));
        assert_eq!(outcome, DeadlockOutcome::AllCompleted);
    }

    #[test]
    fn slow_link_with_progress_probe_is_not_a_false_positive() {
        // Regression test for the stall-vs-slow confusion: a 2-rank ring
        // all-reduce over a link whose modelled per-chunk delay (~25 ms)
        // multiplies out well beyond the 120 ms stall deadline. With the
        // domain's edge samples as the probe, every transferred chunk resets
        // the deadline and the round must complete — a fixed deadline
        // reports this exact scenario as wedged.
        use crate::nccl_like::NcclDomain;
        use dfccl_collectives::{CollectiveDescriptor, DataType, DeviceBuffer, ReduceOp};
        use dfccl_transport::{LinkClass, LinkModel, LinkParams, Topology};
        use std::collections::HashMap;

        let mut params = HashMap::new();
        params.insert(
            LinkClass::Local,
            LinkParams {
                latency_ns: 25_000_000.0, // 25 ms per chunk
                bandwidth_gbps: f64::INFINITY,
            },
        );
        let link = LinkModel::new(params, gpu_sim::TimeScale::default());
        let domain = NcclDomain::new(Topology::flat(2), link, GpuSpec::tiny(2), 8);
        let ranks: Vec<_> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        let count = 64; // 32 elems per slice = 4 chunks of 8 -> >= 8 slow sends per rank
        for r in &ranks {
            r.register(
                0,
                CollectiveDescriptor::all_reduce(
                    count,
                    DataType::F32,
                    ReduceOp::Sum,
                    vec![GpuId(0), GpuId(1)],
                ),
            )
            .unwrap();
        }
        let mut handles = Vec::new();
        let mut recvs = Vec::new();
        for (g, r) in ranks.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&vec![(g + 1) as f32; count]);
            let recv = DeviceBuffer::zeroed(count * 4);
            recvs.push(recv.clone());
            handles.push(r.launch_collective(0, StreamId(1), send, recv).unwrap());
        }
        let stall_deadline = Duration::from_millis(120);
        let outcome = wait_all_or_stall(&handles, &domain.engines(), stall_deadline, &|| {
            domain.edge_samples()
        });
        assert_eq!(
            outcome,
            StallOutcome::AllCompleted,
            "slow-but-progressing round misreported as wedged"
        );
        for recv in recvs {
            assert_eq!(recv.to_f32_vec(), vec![3.0f32; count]);
        }
        domain.shutdown();
    }

    #[test]
    fn teardown_spares_engines_without_stalled_kernels() {
        // Two engines share the domain: engine A runs a supervised kernel
        // that wedges, engine B runs a bystander tenant the watchdog is not
        // supervising. Declaring A's deadlock must not abort B's kernel.
        let a = engine();
        let b = DeviceEngine::new(GpuDevice::new(GpuId(1), GpuSpec::tiny(2)));
        let stalled = a.launch(StreamId(1), spin_forever_kernel()).unwrap();
        let bystander = b
            .launch(
                StreamId(1),
                Box::new(FnKernel::new("bystander", |ctx: &KernelCtx| {
                    let start = Instant::now();
                    while start.elapsed() < Duration::from_millis(400) {
                        if ctx.should_abort() {
                            return KernelOutcome::Aborted;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    KernelOutcome::Completed
                })),
            )
            .unwrap();
        let outcome = wait_all_or_deadlock(
            std::slice::from_ref(&stalled),
            &[Arc::clone(&a), Arc::clone(&b)],
            Duration::from_millis(100),
        );
        assert!(outcome.is_deadlock());
        // The stalled tenant was torn down...
        assert_eq!(
            stalled.wait_timeout(Duration::from_secs(5)),
            KernelStatus::Aborted
        );
        // ...but the bystander engine was never aborted.
        assert_eq!(
            bystander.wait_timeout(Duration::from_secs(5)),
            KernelStatus::Completed,
            "bystander tenant was killed by another tenant's deadlock teardown"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn stall_supervision_names_a_dead_edge_and_its_collective() {
        use crate::nccl_like::NcclDomain;
        use dfccl_collectives::{CollectiveDescriptor, DataType, DeviceBuffer, ReduceOp};
        use dfccl_transport::fault::{FaultSpec, StallKind};
        use dfccl_transport::{ChannelId, EdgeId};

        let domain = NcclDomain::flat_for_testing(2, 8);
        let ranks: Vec<_> = (0..2)
            .map(|g| domain.init_rank(GpuId(g)).unwrap())
            .collect();
        let count = 64;
        for r in &ranks {
            r.register(
                0,
                CollectiveDescriptor::all_reduce(
                    count,
                    DataType::F32,
                    ReduceOp::Sum,
                    vec![GpuId(0), GpuId(1)],
                ),
            )
            .unwrap();
        }
        let dead_edge = EdgeId {
            src: GpuId(0),
            dst: GpuId(1),
            channel: ChannelId(0),
        };
        domain.fault_injector().script(dead_edge, FaultSpec::dead());
        let mut handles = Vec::new();
        for (g, r) in ranks.iter().enumerate() {
            let send = DeviceBuffer::from_f32(&vec![(g + 1) as f32; count]);
            let recv = DeviceBuffer::zeroed(count * 4);
            handles.push(r.launch_collective(0, StreamId(1), send, recv).unwrap());
        }
        let outcome = wait_all_or_stall(
            &handles,
            &domain.engines(),
            Duration::from_millis(200),
            &|| domain.edge_samples(),
        );
        match outcome {
            StallOutcome::Stalled(report) => {
                assert_eq!(report.kind, StallKind::LinkFailure, "{report}");
                assert!(
                    report.failed_edges.iter().any(|s| s.edge == dead_edge),
                    "report must name the dead edge: {report}"
                );
                assert_eq!(report.stalled_collectives, vec![0], "{report}");
                assert!(!report.unfinished.is_empty());
            }
            other => panic!("expected a link-failure stall, got {other:?}"),
        }
        domain.shutdown();
    }
}
