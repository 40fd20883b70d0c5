//! Service-mode isolation suite: per-tenant quotas must turn into typed,
//! retryable backpressure (never a wedge), and weighted-fair arbitration must
//! keep a heavy tenant from starving a light one beyond its weight share.

use std::sync::Arc;
use std::time::Duration;

use dfccl_repro::collectives::{DataType, DeviceBuffer, ReduceOp};
use dfccl_repro::dfccl::{
    AdmissionError, DfcclConfig, DfcclDomain, DfcclError, SpinPolicy, TenantId, TenantQuota,
};
use dfccl_repro::gpu_sim::{GpuId, GpuSpec};
use dfccl_repro::transport::{LinkModel, Topology};

fn devices2() -> Vec<GpuId> {
    vec![GpuId(0), GpuId(1)]
}

/// A tenant at `max_outstanding` gets `AtQuota` backpressure — typed and
/// retryable — while another tenant on the same rank keeps completing, and a
/// retry succeeds once the tenant's own completions drain.
#[test]
fn tenant_at_quota_gets_retryable_backpressure_while_others_progress() {
    let domain = DfcclDomain::flat_for_testing(2);
    let limited = domain.tenant(TenantQuota::default().with_max_outstanding(2));
    let roomy = domain.tenant(TenantQuota::default());
    let rank0 = domain.init_rank(GpuId(0)).unwrap();
    let rank1 = domain.init_rank(GpuId(1)).unwrap();
    for rank in [&rank0, &rank1] {
        rank.register_all_reduce_for(&limited, 10, 8, DataType::F32, ReduceOp::Sum, devices2(), 0)
            .unwrap();
        rank.register_all_reduce_for(&roomy, 20, 8, DataType::F32, ReduceOp::Sum, devices2(), 0)
            .unwrap();
    }
    let run = |rank: &dfccl_repro::dfccl::RankCtx, id: u64| {
        rank.run_awaitable(id, DeviceBuffer::zeroed(32), DeviceBuffer::zeroed(32))
    };

    // Pin the limited tenant at its quota: rank 0 submits twice, rank 1
    // withholds its peers, so neither invocation can complete.
    let pinned = [run(&rank0, 10).unwrap(), run(&rank0, 10).unwrap()];
    let err = match run(&rank0, 10) {
        Err(e) => e,
        Ok(_) => panic!("the third run must be refused at quota"),
    };
    match err {
        DfcclError::Admission(e) => {
            assert!(e.is_retryable(), "AtQuota must be the retry signal: {e}");
            assert_eq!(e.tenant(), limited.id());
            assert!(matches!(e, AdmissionError::AtQuota { outstanding: 2, .. }));
        }
        other => panic!("expected typed admission backpressure, got {other:?}"),
    }

    // Backpressure, not a wedge: the other tenant completes meanwhile.
    let b0 = run(&rank0, 20).unwrap();
    let b1 = run(&rank1, 20).unwrap();
    assert!(b0.wait_for_timeout(1, Duration::from_secs(30)));
    assert!(b1.wait_for_timeout(1, Duration::from_secs(30)));

    // Release the pinned invocations and retry: the slot has drained.
    let peers = [run(&rank1, 10).unwrap(), run(&rank1, 10).unwrap()];
    for h in pinned.iter().chain(peers.iter()) {
        assert!(h.wait_for_timeout(1, Duration::from_secs(30)));
    }
    let retry0 = run(&rank0, 10).unwrap();
    let retry1 = run(&rank1, 10).unwrap();
    assert!(retry0.wait_for_timeout(1, Duration::from_secs(30)));
    assert!(retry1.wait_for_timeout(1, Duration::from_secs(30)));

    let stats = rank0.tenant_stats();
    let lim = stats.iter().find(|s| s.tenant == limited.id()).unwrap();
    assert_eq!(lim.submitted, 3, "the refused run was never admitted");
    assert_eq!(lim.completed, 3);
    assert_eq!(lim.outstanding, 0);
    rank0.destroy();
    rank1.destroy();
}

/// The residency budget caps registrations per rank and is not retryable.
#[test]
fn residency_budget_caps_registrations_per_rank() {
    let domain = DfcclDomain::flat_for_testing(2);
    let tenant = domain.tenant(TenantQuota::default().with_residency_budget(1));
    let rank0 = domain.init_rank(GpuId(0)).unwrap();
    rank0
        .register_all_reduce_for(&tenant, 30, 8, DataType::F32, ReduceOp::Sum, devices2(), 0)
        .unwrap();
    let err = rank0
        .register_all_reduce_for(&tenant, 31, 8, DataType::F32, ReduceOp::Sum, devices2(), 0)
        .unwrap_err();
    match err {
        DfcclError::Admission(e) => {
            assert!(!e.is_retryable(), "residency needs operator action: {e}");
            assert!(matches!(e, AdmissionError::ResidencyExhausted { .. }));
        }
        other => panic!("expected residency backpressure, got {other:?}"),
    }
    rank0.destroy();
}

/// A handle this domain never minted is rejected, not silently accounted.
#[test]
fn foreign_tenant_handles_are_rejected() {
    let domain = DfcclDomain::flat_for_testing(2);
    let other = DfcclDomain::flat_for_testing(2);
    let foreign = other.tenant(TenantQuota::default());
    let rank0 = domain.init_rank(GpuId(0)).unwrap();
    let err = rank0
        .register_all_reduce_for(&foreign, 40, 8, DataType::F32, ReduceOp::Sum, devices2(), 0)
        .unwrap_err();
    assert!(
        matches!(
            err,
            DfcclError::Admission(AdmissionError::UnknownTenant(id)) if id == foreign.id()
        ),
        "got {err:?}"
    );
    rank0.destroy();
}

/// The fairness proof: under a preemption-storm tenant hammering heavy
/// collectives, a weight-2 tenant completes at roughly twice the rate of an
/// identically-loaded weight-1 tenant, and nobody starves or wedges.
#[test]
fn weighted_tenant_outpaces_light_tenant_under_preemption_storm() {
    const STORM_COLLS: u64 = 6;
    const STORM_INVOCATIONS: usize = 10;
    const JOB_COLLS: u64 = 4;
    const JOB_INVOCATIONS: usize = 25;

    // One connector slot and a quantum of 1 so the weighted-fair budgets
    // bind on every pass. The spin threshold must be LARGE here: a slice
    // has to keep polling across an OS preemption so the peer daemon can
    // hand chunks back within the slice, making scheduling grants — not
    // connector hand-offs — the resource that gates progress. With short
    // slices every queued collective moves exactly one chunk per OS
    // quantum (each granted slice just fills its capacity-1 slot and
    // blocks), which erases the very differentiation this test measures.
    let config = DfcclConfig {
        chunk_elems: 64,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 4096 },
        tenant_quantum: 1,
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(2),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let storm = domain.tenant(TenantQuota::default().with_weight(1));
    let heavy = domain.tenant(TenantQuota::default().with_weight(2));
    let light = domain.tenant(TenantQuota::default().with_weight(1));
    let ranks: Vec<_> = (0..2)
        .map(|g| Arc::new(domain.init_rank(GpuId(g)).unwrap()))
        .collect();
    for rank in &ranks {
        for c in 0..STORM_COLLS {
            rank.register_all_reduce_for(
                &storm,
                100 + c,
                4096,
                DataType::F32,
                ReduceOp::Sum,
                devices2(),
                0,
            )
            .unwrap();
        }
        // Job collectives are deep (2048 elems = 32 chunks at chunk_elems
        // 64) so the job lanes stay backlogged for the whole measurement
        // window and every invocation needs many slice grants to drain.
        for c in 0..JOB_COLLS {
            rank.register_all_reduce_for(
                &heavy,
                200 + c,
                2048,
                DataType::F32,
                ReduceOp::Sum,
                devices2(),
                0,
            )
            .unwrap();
            rank.register_all_reduce_for(
                &light,
                300 + c,
                2048,
                DataType::F32,
                ReduceOp::Sum,
                devices2(),
                0,
            )
            .unwrap();
        }
    }

    // One submitter thread per (rank, tenant): submit the tenant's full
    // workload up front, retrying on rank-wide SQ backpressure, and return
    // the completion handles.
    let submit = |rank: &Arc<dfccl_repro::dfccl::RankCtx>, base: u64, colls: u64, inv: usize| {
        let rank = Arc::clone(rank);
        std::thread::spawn(move || {
            let bytes = |id: u64| {
                if (100..200).contains(&id) {
                    16384
                } else {
                    8192
                }
            };
            let mut handles = Vec::new();
            for _ in 0..inv {
                for c in 0..colls {
                    let id = base + c;
                    loop {
                        match rank.run_awaitable(
                            id,
                            DeviceBuffer::zeroed(bytes(id)),
                            DeviceBuffer::zeroed(bytes(id)),
                        ) {
                            Ok(h) => {
                                handles.push(h);
                                break;
                            }
                            Err(DfcclError::SubmissionQueueFull) => {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                            Err(e) => panic!("unexpected submit error: {e:?}"),
                        }
                    }
                }
            }
            handles
        })
    };
    let mut storm_handles = Vec::new();
    let mut heavy_handles = Vec::new();
    let mut light_handles = Vec::new();
    for rank in &ranks {
        storm_handles.push(submit(rank, 100, STORM_COLLS, STORM_INVOCATIONS));
        heavy_handles.push(submit(rank, 200, JOB_COLLS, JOB_INVOCATIONS));
        light_handles.push(submit(rank, 300, JOB_COLLS, JOB_INVOCATIONS));
    }
    let heavy_handles: Vec<_> = heavy_handles
        .into_iter()
        .flat_map(|j| j.join().unwrap())
        .collect();
    let light_handles: Vec<_> = light_handles
        .into_iter()
        .flat_map(|j| j.join().unwrap())
        .collect();
    let storm_handles: Vec<_> = storm_handles
        .into_iter()
        .flat_map(|j| j.join().unwrap())
        .collect();

    // The moment the weight-2 tenant drains, snapshot the weight-1 twin.
    for h in &heavy_handles {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(180)),
            "heavy tenant wedged under the storm"
        );
    }
    let total = (JOB_COLLS as usize * JOB_INVOCATIONS) as u64;
    let stats = ranks[0].tenant_stats();
    let done = |id| {
        stats
            .iter()
            .find(|s| s.tenant == id)
            .map(|s| s.completed)
            .unwrap_or(0)
    };
    let heavy_done = done(heavy.id());
    let light_done = done(light.id());
    assert_eq!(heavy_done, total, "every heavy CQE published on rank 0");
    assert!(
        light_done >= total / 20,
        "the light tenant must not starve: {light_done}/{total}"
    );
    assert!(
        light_done <= heavy_done * 3 / 4,
        "weight 2 should finish well ahead of weight 1: \
         heavy {heavy_done}, light {light_done}"
    );

    // Fairness never costs completeness: everything drains.
    for h in light_handles.iter().chain(storm_handles.iter()) {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(180)),
            "a tenant wedged under the storm"
        );
    }
    for rank in &ranks {
        assert!(rank.collective_errors().is_empty());
        for s in rank.tenant_stats() {
            assert_eq!(s.submitted, s.completed, "{}: unbalanced ledger", s.tenant);
            assert_eq!(s.outstanding, 0, "{}: leaked outstanding", s.tenant);
        }
        rank.destroy();
    }
}

/// Per-tenant counters flow into the telemetry snapshot (satellite: the
/// tenant-depth accessor is part of the observable surface).
#[test]
fn telemetry_snapshot_carries_per_tenant_counters() {
    let domain = DfcclDomain::flat_for_testing(2);
    let tenant = domain.tenant(TenantQuota::default().with_weight(3));
    let rank0 = domain.init_rank(GpuId(0)).unwrap();
    let rank1 = domain.init_rank(GpuId(1)).unwrap();
    for rank in [&rank0, &rank1] {
        rank.register_all_reduce_for(&tenant, 50, 8, DataType::F32, ReduceOp::Sum, devices2(), 0)
            .unwrap();
    }
    let h0 = rank0
        .run_awaitable(50, DeviceBuffer::zeroed(32), DeviceBuffer::zeroed(32))
        .unwrap();
    let h1 = rank1
        .run_awaitable(50, DeviceBuffer::zeroed(32), DeviceBuffer::zeroed(32))
        .unwrap();
    assert!(h0.wait_for_timeout(1, Duration::from_secs(30)));
    assert!(h1.wait_for_timeout(1, Duration::from_secs(30)));
    let snap = rank0.telemetry();
    let row = snap
        .tenants
        .iter()
        .find(|s| s.tenant == tenant.id())
        .expect("the tenant appears in the snapshot");
    assert_eq!(row.weight, 3);
    assert_eq!(row.registered, 1);
    assert_eq!(row.submitted, 1);
    assert_eq!(row.completed, 1);
    let rendered = format!("{snap}");
    assert!(
        rendered.contains(&format!("{} (w3)", tenant.id())),
        "snapshot display lists the tenant: {rendered}"
    );
    rank0.destroy();
    rank1.destroy();
}

/// A job that never asks for a tenant handle is accounted all the same, as
/// `TenantId::DEFAULT`: plain runs and a graph replay are admitted and
/// completed one for one, nothing is outstanding once the last callback has
/// fired, and `remove_rank` gives the dropped registrations' residency back.
#[test]
fn handle_less_jobs_are_accounted_as_the_default_tenant() {
    let domain = DfcclDomain::flat_for_testing(2);
    let ranks = [
        domain.init_rank(GpuId(0)).unwrap(),
        domain.init_rank(GpuId(1)).unwrap(),
    ];
    for rank in &ranks {
        for id in [60, 61] {
            rank.register_all_reduce(id, 8, DataType::F32, ReduceOp::Sum, devices2(), 0)
                .unwrap();
        }
    }
    let buf = || DeviceBuffer::zeroed(32);
    // Two plain runs per rank, then one replay of a two-node captured graph.
    let plain: Vec<_> = ranks
        .iter()
        .flat_map(|rank| [60, 61].map(|id| rank.run_awaitable(id, buf(), buf()).unwrap()))
        .collect();
    for h in &plain {
        assert!(h.wait_for_timeout(1, Duration::from_secs(30)));
    }
    let graphs: Vec<_> = ranks
        .iter()
        .map(|rank| {
            let mut rec = rank.begin_capture().unwrap();
            rec.record(60, buf(), buf()).unwrap();
            rec.record(61, buf(), buf()).unwrap();
            rec.finish().unwrap()
        })
        .collect();
    let replays: Vec<_> = ranks
        .iter()
        .zip(&graphs)
        .map(|(rank, graph)| rank.replay_awaitable(graph).unwrap())
        .collect();
    for h in &replays {
        assert!(h.wait_for_timeout(1, Duration::from_secs(30)));
    }
    let default_row = |rank: &dfccl_repro::dfccl::RankCtx| {
        rank.tenant_stats()
            .into_iter()
            .find(|s| s.tenant == TenantId::DEFAULT)
            .expect("the default tenant is accounted")
    };
    let mut resident = 0;
    for rank in &ranks {
        let row = default_row(rank);
        assert_eq!((row.submitted, row.completed), (3, 3), "{row:?}");
        assert_eq!((row.outstanding, row.failed), (0, 0), "{row:?}");
        assert_eq!(rank.outstanding(), 0);
        // The two registrations, plus whatever fused bucket the capture added.
        assert!(row.registered >= 2, "{row:?}");
        resident += row.registered as usize;
    }
    assert_eq!(domain.remove_rank(GpuId(1)).unwrap(), resident);
    for rank in &ranks {
        assert_eq!(default_row(rank).registered, 0);
        rank.destroy();
    }
}
