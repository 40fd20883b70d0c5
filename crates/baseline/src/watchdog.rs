//! Deadlock watchdog for the NCCL-like baseline.
//!
//! Real NCCL deadlocks hang the program with GPUs pinned at 100%
//! utilisation (Sec. 2.2). The baseline's engines are stepped, so the
//! watchdog decides a deadlock instead of timing one out: it sweeps the
//! engines until every supervised kernel is terminal, or until a sweep in
//! which nothing started, moved or retired and no link refused a send —
//! every later sweep would repeat it. The report names what each unfinished
//! kernel waits on ([`gpu_sim::BlockedOn`]), and teardown drops the kernels
//! of only the engines that own unfinished supervised work.
//!
//! A send refused by a faulted link is not a structural wait: the link may
//! heal. [`wait_all_or_stall`] keeps sweeping such a round until an edge
//! has refused [`dfccl_transport::FAILED_EDGE_RUN`] sends in a row
//! (counted by the edge, not timed), then classifies the stall from one
//! snapshot of per-edge samples into a [`StallReport`].
//! [`wait_all_or_deadlock`] has no probe: it decides quiet sweeps only.

use std::collections::HashSet;
use std::sync::Arc;

use dfccl_transport::fault::{classify_stall, EdgeSample, StallReport};
use gpu_sim::{DeviceEngine, GpuId, KernelHandle, StepReport};

/// Result of supervising a set of collective kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockOutcome {
    /// Every kernel reached a terminal state (or the caller's `done` held).
    AllCompleted,
    /// A sweep could move nothing while kernels were still queued or
    /// running: the round is deadlocked.
    Deadlock {
        /// Each unfinished kernel and what it waits on, one line each:
        /// `"<kernel> on <gpu> waits on <what>"`.
        unfinished: Vec<String>,
    },
}

impl DeadlockOutcome {
    /// Whether a deadlock was detected.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, DeadlockOutcome::Deadlock { .. })
    }
}

/// Step `engines` until every handle is terminal or the round deadlocks.
/// `engines` must include the engine of every handle.
pub fn wait_all_or_deadlock(
    handles: &[KernelHandle],
    engines: &[Arc<DeviceEngine>],
) -> DeadlockOutcome {
    wait_or_deadlock(handles, engines, &|| {
        handles.iter().all(|h| h.is_terminal())
    })
}

/// [`wait_all_or_deadlock`], done as soon as `done()` holds rather than
/// once every handle is terminal (reported as `AllCompleted`): a host that
/// goes on when one of its waits ends, and may then launch what the other
/// kernels wait on, is stuck only if none of its waits can end.
pub fn wait_or_deadlock(
    handles: &[KernelHandle],
    engines: &[Arc<DeviceEngine>],
    done: &dyn Fn() -> bool,
) -> DeadlockOutcome {
    match step_until_stuck(done, engines, &Vec::new) {
        None => DeadlockOutcome::AllCompleted,
        Some(_) => DeadlockOutcome::Deadlock {
            unfinished: tear_down(handles, engines),
        },
    }
}

/// Step `engines` until every handle is terminal (`None`), until the round
/// deadlocks, or until a sweep moves nothing while one of the `probe`'s
/// edges has failed. The report classifies the stall from that sweep's
/// samples (wedge vs link failure) and names the implicated edges,
/// collectives and unfinished kernels.
pub fn wait_all_or_stall(
    handles: &[KernelHandle],
    engines: &[Arc<DeviceEngine>],
    probe: &dyn Fn() -> Vec<EdgeSample>,
) -> Option<StallReport> {
    let done = || handles.iter().all(|h| h.is_terminal());
    let samples = step_until_stuck(&done, engines, probe)?;
    let mut report = classify_stall(&samples);
    report.unfinished = tear_down(handles, engines);
    Some(report)
}

/// Sweep `engines` until `done()` (`None`), or until a sweep that
/// progressed nothing is quiet or finds a failed edge in the `probe`.
/// Returns that sweep's edge samples.
fn step_until_stuck(
    done: &dyn Fn() -> bool,
    engines: &[Arc<DeviceEngine>],
    probe: &dyn Fn() -> Vec<EdgeSample>,
) -> Option<Vec<EdgeSample>> {
    while !done() {
        let mut sweep = StepReport::default();
        for e in engines {
            sweep += e.step();
        }
        if sweep.progressed() {
            continue;
        }
        let samples = probe();
        if sweep.is_quiet() || samples.iter().any(EdgeSample::has_failed) {
            return Some(samples);
        }
        std::thread::yield_now();
    }
    None
}

/// Describe what each unfinished handle waits on, then drop every kernel of
/// the engines that own one. Engines without unfinished supervised kernels
/// are spared, so one stalled tenant does not kill bystanders sharing the
/// domain.
fn tear_down(handles: &[KernelHandle], engines: &[Arc<DeviceEngine>]) -> Vec<String> {
    let engine_of = |gpu: GpuId| engines.iter().find(|e| e.device().id() == gpu);
    let stuck: Vec<&KernelHandle> = handles
        .iter()
        .filter(|h| !h.status().is_terminal())
        .collect();
    let unfinished = stuck
        .iter()
        .map(|h| {
            let waits = engine_of(h.device()).and_then(|e| e.blocked_on(h.seq()));
            let waits = waits.map_or("an unsupervised engine".into(), |b| b.to_string());
            format!("{} on {} waits on {waits}", h.name(), h.device())
        })
        .collect();
    let devices: HashSet<GpuId> = stuck.iter().map(|h| h.device()).collect();
    for e in devices.into_iter().filter_map(engine_of) {
        e.abort_all();
    }
    unfinished
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{
        EdgeWait, FnKernel, GpuDevice, GpuSpec, Kernel, KernelCtx, KernelOutcome, KernelPoll,
        KernelStatus, StreamId, WaitSide,
    };

    fn engine() -> Arc<DeviceEngine> {
        DeviceEngine::new(GpuDevice::new(GpuId(0), GpuSpec::tiny(2)))
    }

    /// A kernel that waits on a chunk from GPU 1 forever.
    struct WaitsForGpu1;

    impl Kernel for WaitsForGpu1 {
        fn name(&self) -> String {
            "waits-for-gpu1".to_string()
        }

        fn poll(&mut self, _ctx: &KernelCtx) -> KernelPoll<'_> {
            KernelPoll::Pending(&[EdgeWait {
                peer: GpuId(1),
                channel: 0,
                side: WaitSide::Recv,
            }])
        }
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
        let outcome = wait_all_or_deadlock(&[h], &[Arc::clone(&e)]);
        assert_eq!(outcome, DeadlockOutcome::AllCompleted);
    }

    #[test]
    fn hung_kernel_is_reported_with_its_wait_and_torn_down() {
        let e = engine();
        let h = e.launch(StreamId(1), Box::new(WaitsForGpu1)).unwrap();
        let outcome = wait_all_or_deadlock(std::slice::from_ref(&h), &[Arc::clone(&e)]);
        let DeadlockOutcome::Deadlock { unfinished } = outcome else {
            panic!("expected a deadlock, got {outcome:?}");
        };
        assert_eq!(
            unfinished,
            ["waits-for-gpu1 on gpu0 waits on recv from gpu1 ch0"]
        );
        // The kernel was dropped, so its slot is free again.
        assert_eq!(h.status(), KernelStatus::Aborted);
        assert_eq!(e.device().resident_kernels(), 0);
    }

    #[test]
    fn empty_handle_set_completes_immediately() {
        let outcome = wait_all_or_deadlock(&[], &[]);
        assert_eq!(outcome, DeadlockOutcome::AllCompleted);
    }

    #[test]
    fn slow_link_with_progress_probe_is_not_a_false_positive() {
        // Regression test for the stall-vs-slow confusion: a 2-rank ring
        // all-reduce over a link whose modelled per-chunk delay is ~25 ms.
        // A slow link refuses nothing, so no edge fails and the round must
        // complete — a fixed deadline reports this exact scenario as wedged.
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
        let outcome = wait_all_or_stall(&handles, &domain.engines(), &|| domain.edge_samples());
        assert_eq!(
            outcome, None,
            "slow-but-progressing round misreported as wedged"
        );
        for recv in recvs {
            assert_eq!(recv.to_f32_vec(), vec![3.0f32; count]);
        }
        domain.shutdown();
    }

    #[test]
    fn teardown_spares_engines_without_stalled_kernels() {
        // Two engines share the sweep: engine A runs a supervised kernel that
        // wedges, engine B a bystander tenant the watchdog is not
        // supervising, wedged too. Declaring A's deadlock must not touch B.
        let a = engine();
        let b = DeviceEngine::new(GpuDevice::new(GpuId(1), GpuSpec::tiny(2)));
        let stalled = a.launch(StreamId(1), Box::new(WaitsForGpu1)).unwrap();
        let bystander = b.launch(StreamId(1), Box::new(WaitsForGpu1)).unwrap();
        let outcome = wait_all_or_deadlock(
            std::slice::from_ref(&stalled),
            &[Arc::clone(&a), Arc::clone(&b)],
        );
        assert!(outcome.is_deadlock());
        assert_eq!(stalled.status(), KernelStatus::Aborted);
        assert_eq!(
            bystander.status(),
            KernelStatus::Running,
            "bystander tenant was killed by another tenant's deadlock teardown"
        );
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
        let outcome = wait_all_or_stall(&handles, &domain.engines(), &|| domain.edge_samples());
        match outcome {
            Some(report) => {
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
