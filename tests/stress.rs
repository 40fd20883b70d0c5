//! Concurrent-communicator stress suite: overlapping device groups submit
//! disordered all-to-all + all-reduce mixes under residency and connector
//! pressure. DFCCL must complete every seeded round; the NCCL-like baseline
//! wedges on the same mix and is caught by the watchdog.
//!
//! Seeds are derived deterministically, so any failing round reproduces by
//! seed alone. CI's soak job widens the sweep via `DFCCL_STRESS_SEEDS`
//! (default 5 seeds locally).

use std::sync::Arc;
use std::time::Duration;

use dfccl_repro::baseline::{wait_all_or_deadlock, NcclDomain};
use dfccl_repro::collectives::{
    AlgorithmKind, CollectiveDescriptor, DataType, DeviceBuffer, ReduceOp,
};
use dfccl_repro::dfccl::{DfcclConfig, DfcclDomain, DfcclError, SpinPolicy, TenantQuota};
use dfccl_repro::gpu_sim::{GpuId, GpuSpec, StreamId};
use dfccl_repro::transport::{FaultSpec, LinkModel, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gpus(ids: &[usize]) -> Vec<GpuId> {
    ids.iter().map(|&i| GpuId(i)).collect()
}

/// Number of seeds to sweep: `DFCCL_STRESS_SEEDS` (the CI soak job raises
/// it), defaulting to a quick local sweep.
fn seed_count() -> u64 {
    std::env::var("DFCCL_STRESS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

/// The stress mix over 4 GPUs: a dense-mesh all-to-all spanning everyone,
/// plus all-reduces over three mutually overlapping device groups. Every GPU
/// belongs to at least two communicators.
fn stress_mix() -> Vec<(u64, CollectiveDescriptor)> {
    vec![
        (
            1,
            CollectiveDescriptor::all_to_all(24, DataType::F32, gpus(&[0, 1, 2, 3])),
        ),
        (
            2,
            CollectiveDescriptor::all_reduce(96, DataType::F32, ReduceOp::Sum, gpus(&[0, 1, 2, 3])),
        ),
        (
            3,
            CollectiveDescriptor::all_reduce(64, DataType::F32, ReduceOp::Sum, gpus(&[0, 1])),
        ),
        (
            4,
            CollectiveDescriptor::all_reduce(64, DataType::F32, ReduceOp::Sum, gpus(&[2, 3])),
        ),
        (
            5,
            CollectiveDescriptor::all_reduce(48, DataType::F32, ReduceOp::Sum, gpus(&[1, 2])),
        ),
    ]
}

/// The per-GPU submission order for one seeded round: the GPU's collectives,
/// shuffled by a seed-derived RNG. Deterministic in (seed, gpu).
fn disordered_order(mix: &[(u64, CollectiveDescriptor)], gpu: GpuId, seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = mix
        .iter()
        .filter(|(_, d)| d.devices.contains(&gpu))
        .map(|(id, _)| *id)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ ((gpu.0 as u64) << 40));
    // Fisher-Yates: a full shuffle, not just adjacent swaps — maximal disorder.
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    order
}

/// One DFCCL round: every GPU submits its shuffled mix; everything must
/// complete under heavy preemption (tiny spin threshold) and minimal
/// connector capacity, and the all-to-all must still be exact.
fn dfccl_round(seed: u64) {
    let mix = stress_mix();
    let config = DfcclConfig {
        chunk_elems: 8,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 16 },
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(4),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let ranks: Vec<_> = (0..4)
        .map(|g| Arc::new(domain.init_rank(GpuId(g)).unwrap()))
        .collect();
    for rank in &ranks {
        for (id, desc) in &mix {
            if desc.devices.contains(&rank.gpu()) {
                rank.register(*id, desc.clone()).unwrap();
            }
        }
    }
    let a2a_count = 24usize;
    let a2a_inputs: Vec<Vec<f32>> = (0..4)
        .map(|r| {
            (0..a2a_count * 4)
                .map(|i| ((seed as usize + r * 37 + i * 5) % 199) as f32)
                .collect()
        })
        .collect();
    let mix = Arc::new(mix);
    let a2a_inputs = Arc::new(a2a_inputs);
    let mut joins = Vec::new();
    for rank in &ranks {
        let rank = Arc::clone(rank);
        let mix = Arc::clone(&mix);
        let a2a_inputs = Arc::clone(&a2a_inputs);
        joins.push(std::thread::spawn(move || {
            let gpu = rank.gpu();
            let mut handles = Vec::new();
            let mut a2a_out = None;
            for id in disordered_order(&mix, gpu, seed) {
                let desc = &mix.iter().find(|(i, _)| *i == id).unwrap().1;
                let rank_idx = desc.devices.iter().position(|&d| d == gpu).unwrap();
                let (send, recv) = if id == 1 {
                    let recv = DeviceBuffer::zeroed(desc.recv_bytes(rank_idx));
                    a2a_out = Some(recv.clone());
                    (DeviceBuffer::from_f32(&a2a_inputs[gpu.0]), recv)
                } else {
                    (
                        DeviceBuffer::zeroed(desc.send_bytes(rank_idx)),
                        DeviceBuffer::zeroed(desc.recv_bytes(rank_idx).max(4)),
                    )
                };
                handles.push(rank.run_awaitable(id, send, recv).unwrap());
            }
            for h in handles {
                assert!(
                    h.wait_for_timeout(1, Duration::from_secs(60)),
                    "seed {seed}: gpu {gpu} wedged"
                );
            }
            // The all-to-all transposition must be exact despite the storm.
            let out = a2a_out.expect("every gpu runs the all-to-all").to_f32_vec();
            let expected: Vec<f32> = a2a_inputs
                .iter()
                .flat_map(|inp| inp[gpu.0 * a2a_count..(gpu.0 + 1) * a2a_count].to_vec())
                .collect();
            assert_eq!(
                out, expected,
                "seed {seed}: gpu {gpu} got a wrong transpose"
            );
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    for rank in &ranks {
        assert!(
            rank.collective_errors().is_empty(),
            "seed {seed}: collective errors"
        );
        rank.destroy();
    }
}

#[test]
fn dfccl_completes_every_seeded_disordered_mix() {
    for seed in 0..seed_count() {
        dfccl_round(seed);
    }
}

/// The eight overlapping device groups the multi-tenant round cycles through:
/// every GPU appears in five groups, so communicators from different tenants
/// constantly contend for the same links.
fn tenant_device_groups() -> Vec<Vec<GpuId>> {
    vec![
        gpus(&[0, 1]),
        gpus(&[1, 2]),
        gpus(&[2, 3]),
        gpus(&[0, 3]),
        gpus(&[0, 2]),
        gpus(&[1, 3]),
        gpus(&[0, 1, 2]),
        gpus(&[0, 1, 2, 3]),
    ]
}

/// One multi-tenant service-mode round: 8 tenants × 26 all-reduces = 208
/// communicators over the overlapping groups, mixed priorities, every GPU
/// submitting its share in seed-disordered order. Every tenant must complete
/// and every tenant's per-rank ledger must balance.
fn multi_tenant_round(seed: u64) {
    const TENANTS: u64 = 8;
    const COLLS_PER_TENANT: u64 = 26;
    let config = DfcclConfig {
        chunk_elems: 8,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 16 },
        tenant_quantum: 1,
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(4),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let handles: Vec<_> = (0..TENANTS)
        .map(|t| domain.tenant(TenantQuota::default().with_weight((t % 3 + 1) as u32)))
        .collect();
    let groups = tenant_device_groups();
    // coll id → (tenant index, descriptor); ids are dense so the disorder
    // shuffle can reuse `disordered_order`.
    let mix: Vec<(u64, CollectiveDescriptor)> = (0..TENANTS * COLLS_PER_TENANT)
        .map(|i| {
            let devices = groups[((i / TENANTS) % groups.len() as u64) as usize].clone();
            let count = 8 * (1 + (i % 3) as usize);
            let priority = (i % 5) as i32 - 2;
            let desc =
                CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices)
                    .with_priority(priority);
            (1000 + i, desc)
        })
        .collect();
    let ranks: Vec<_> = (0..4)
        .map(|g| Arc::new(domain.init_rank(GpuId(g)).unwrap()))
        .collect();
    for rank in &ranks {
        for (id, desc) in &mix {
            if desc.devices.contains(&rank.gpu()) {
                let tenant = &handles[((id - 1000) % TENANTS) as usize];
                rank.register_for(tenant, *id, desc.clone()).unwrap();
            }
        }
    }
    let mix = Arc::new(mix);
    let mut joins = Vec::new();
    for rank in &ranks {
        let rank = Arc::clone(rank);
        let mix = Arc::clone(&mix);
        joins.push(std::thread::spawn(move || {
            let gpu = rank.gpu();
            let mut waits = Vec::new();
            for id in disordered_order(&mix, gpu, seed) {
                let desc = &mix.iter().find(|(i, _)| *i == id).unwrap().1;
                let rank_idx = desc.devices.iter().position(|&d| d == gpu).unwrap();
                loop {
                    match rank.run_awaitable(
                        id,
                        DeviceBuffer::zeroed(desc.send_bytes(rank_idx)),
                        DeviceBuffer::zeroed(desc.recv_bytes(rank_idx).max(4)),
                    ) {
                        Ok(h) => {
                            waits.push(h);
                            break;
                        }
                        Err(DfcclError::SubmissionQueueFull) => {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        Err(e) => panic!("seed {seed}: gpu {gpu} submit failed: {e:?}"),
                    }
                }
            }
            for h in waits {
                assert!(
                    h.wait_for_timeout(1, Duration::from_secs(120)),
                    "seed {seed}: gpu {gpu} wedged in the multi-tenant round"
                );
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    for rank in &ranks {
        assert!(
            rank.collective_errors().is_empty(),
            "seed {seed}: collective errors"
        );
        let stats = rank.tenant_stats();
        for handle in &handles {
            let s = stats
                .iter()
                .find(|s| s.tenant == handle.id())
                .unwrap_or_else(|| panic!("seed {seed}: {} missing from stats", handle.id()));
            assert_eq!(
                s.submitted,
                s.completed,
                "seed {seed}: {} ledger unbalanced on {:?}",
                handle.id(),
                rank.gpu()
            );
            assert_eq!(s.outstanding, 0);
            assert_eq!(s.failed, 0);
            assert!(s.completed > 0, "seed {seed}: {} ran nothing", handle.id());
        }
        rank.destroy();
    }
}

#[test]
fn multi_tenant_mixes_complete_with_balanced_ledgers() {
    // A full sweep is the soak job's business (`DFCCL_STRESS_SEEDS`); the
    // default run keeps the round count small because each round carries 208
    // communicators.
    for seed in 0..seed_count().min(3) {
        multi_tenant_round(seed);
    }
}

#[test]
fn disordered_orders_are_seed_stable() {
    // Reproducibility contract: a failing seed can be replayed exactly.
    let mix = stress_mix();
    for gpu in 0..4 {
        for seed in 0..8 {
            assert_eq!(
                disordered_order(&mix, GpuId(gpu), seed),
                disordered_order(&mix, GpuId(gpu), seed)
            );
        }
    }
    // And seeds genuinely vary the order somewhere.
    let varied = (0..8u64)
        .any(|s| disordered_order(&mix, GpuId(0), s) != disordered_order(&mix, GpuId(0), 0));
    assert!(varied, "the shuffle never produced a different order");
}

#[test]
fn nccl_like_baseline_wedges_on_the_disordered_mix_and_the_watchdog_catches_it() {
    // The same ingredients — an all-to-all and an all-reduce over the same
    // devices, opposite submission orders, one residency slot per GPU — wedge
    // the blocking baseline: each GPU's resident kernel busy-waits for a peer
    // kernel that is stuck behind the other GPU's resident kernel (Fig. 1(c),
    // resource depletion, now with a dense-mesh collective in the cycle).
    let domain = NcclDomain::flat_for_testing(2, 1);
    let ranks: Vec<_> = (0..2)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    let a2a = CollectiveDescriptor::all_to_all(32, DataType::F32, gpus(&[0, 1]));
    let ar = CollectiveDescriptor::all_reduce(64, DataType::F32, ReduceOp::Sum, gpus(&[0, 1]));
    for r in &ranks {
        r.register(1, a2a.clone()).unwrap();
        r.register(2, ar.clone()).unwrap();
    }
    let order = [vec![1u64, 2u64], vec![2u64, 1u64]];
    let mut handles = Vec::new();
    for (g, r) in ranks.iter().enumerate() {
        for &coll in &order[g] {
            let desc = if coll == 1 { &a2a } else { &ar };
            let send = DeviceBuffer::zeroed(desc.send_bytes(g));
            let recv = DeviceBuffer::zeroed(desc.recv_bytes(g));
            handles.push(
                r.launch_collective(coll, StreamId(coll as usize), send, recv)
                    .unwrap(),
            );
        }
    }
    let outcome = wait_all_or_deadlock(&handles, &domain.engines(), Duration::from_secs(2));
    assert!(
        outcome.is_deadlock(),
        "the disordered all-to-all + all-reduce mix must wedge the baseline"
    );
    domain.shutdown();
}

/// Run one all-reduce over `devices` on the given ranks and assert it is
/// bit-exact. `base` seeds the integer-valued inputs so rounds differ.
fn exact_all_reduce(ranks: &[&dfccl_repro::dfccl::RankCtx], coll: u64, count: usize, base: usize) {
    let n = ranks.len();
    let inputs: Vec<Vec<f32>> = (0..n)
        .map(|r| {
            (0..count)
                .map(|i| ((base + r * 41 + i * 3) % 151) as f32)
                .collect()
        })
        .collect();
    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let recv = DeviceBuffer::zeroed(count * 4);
        recvs.push(recv.clone());
        handles.push(
            rank.run_awaitable(coll, DeviceBuffer::from_f32(&inputs[r]), recv)
                .unwrap(),
        );
    }
    for h in &handles {
        assert!(
            h.wait_for_timeout(1, Duration::from_secs(60)),
            "collective {coll} wedged"
        );
    }
    let expected: Vec<f32> = (0..count)
        .map(|i| (0..n).map(|r| inputs[r][i]).sum())
        .collect();
    for (r, recv) in recvs.iter().enumerate() {
        assert_eq!(recv.to_f32_vec(), expected, "collective {coll}, rank {r}");
    }
}

/// Elastic membership round: shrink the domain by one GPU between
/// iterations, run bit-exact on the survivors, then grow it back and run
/// bit-exact on the restored set. A removal attempted while work is still
/// in flight must be refused with `MembershipBusy`, leaving no partial
/// state behind.
#[test]
fn elastic_membership_shrinks_and_grows_bit_exact() {
    let config = DfcclConfig {
        chunk_elems: 8,
        connector_capacity: 1,
        spin: SpinPolicy::Fixed { threshold: 16 },
        ..DfcclConfig::for_testing()
    };
    let domain = DfcclDomain::new(
        Topology::flat(4),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config,
    );
    let devices = gpus(&[0, 1, 2, 3]);
    let count = 64usize;
    let ranks: Vec<_> = (0..4)
        .map(|g| domain.init_rank(GpuId(g)).unwrap())
        .collect();
    for rank in &ranks {
        rank.register_all_reduce(1, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }

    // Phase 1: a removal mid-collective must be refused. A dead edge holds
    // the all-reduce in flight deterministically.
    let victim = domain
        .edge_samples()
        .iter()
        .find(|s| s.coll_id == Some(1))
        .expect("registered collective has edges")
        .edge;
    let injector = domain.fault_injector();
    injector.script(victim, FaultSpec::dead());
    let inputs: Vec<Vec<f32>> = (0..4)
        .map(|r| {
            (0..count)
                .map(|i| ((r * 19 + i * 7) % 113) as f32)
                .collect()
        })
        .collect();
    let mut handles = Vec::new();
    let mut recvs = Vec::new();
    for (r, rank) in ranks.iter().enumerate() {
        let recv = DeviceBuffer::zeroed(count * 4);
        recvs.push(recv.clone());
        handles.push(
            rank.run_awaitable(1, DeviceBuffer::from_f32(&inputs[r]), recv)
                .unwrap(),
        );
    }
    std::thread::sleep(Duration::from_millis(30));
    assert!(
        matches!(
            domain.remove_rank(GpuId(3)),
            Err(DfcclError::MembershipBusy { .. })
        ),
        "removal with work in flight must be refused"
    );
    // Heal only the victim edge and let the round drain bit-exact.
    injector.clear_edge(victim);
    for h in &handles {
        assert!(h.wait_for_timeout(1, Duration::from_secs(60)));
    }
    let expected: Vec<f32> = (0..count)
        .map(|i| (0..4).map(|r| inputs[r][i]).sum())
        .collect();
    for recv in &recvs {
        assert_eq!(recv.to_f32_vec(), expected);
    }

    // Phase 2: shrink. Every registration touching GPU 3 is dropped on
    // every rank, and the GPU leaves the membership.
    assert_eq!(domain.remove_rank(GpuId(3)).unwrap(), 4);
    assert_eq!(domain.members(), gpus(&[0, 1, 2]));
    assert!(matches!(
        domain.init_rank(GpuId(3)),
        Err(DfcclError::NotMember(GpuId(3)))
    ));
    assert!(matches!(
        ranks[0].register_all_reduce(9, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0),
        Err(DfcclError::NotMember(GpuId(3)))
    ));
    assert!(
        ranks[0]
            .run_awaitable(
                1,
                DeviceBuffer::zeroed(count * 4),
                DeviceBuffer::zeroed(count * 4)
            )
            .is_err(),
        "the dropped registration must not be invokable"
    );
    // The shrunk domain runs bit-exact on the survivors.
    let survivors = gpus(&[0, 1, 2]);
    for rank in &ranks[..3] {
        rank.register_all_reduce(
            10,
            count,
            DataType::F32,
            ReduceOp::Sum,
            survivors.clone(),
            0,
        )
        .unwrap();
    }
    let survivor_refs: Vec<_> = ranks[..3].iter().collect();
    exact_all_reduce(&survivor_refs, 10, count, 500);

    // Phase 3: grow back. Plans and meshes over the restored GPU rebuild
    // lazily at the next registration; the restored set runs bit-exact.
    domain.add_rank(GpuId(3)).unwrap();
    assert!(matches!(
        domain.add_rank(GpuId(3)),
        Err(DfcclError::AlreadyMember(GpuId(3)))
    ));
    assert_eq!(domain.members(), devices);
    for rank in &ranks {
        rank.register_all_reduce(20, count, DataType::F32, ReduceOp::Sum, devices.clone(), 0)
            .unwrap();
    }
    let all_refs: Vec<_> = ranks.iter().collect();
    exact_all_reduce(&all_refs, 20, count, 900);

    for rank in &ranks {
        assert!(rank.collective_errors().is_empty());
        rank.destroy();
    }
}

#[test]
fn selector_routes_the_stress_mix_as_expected() {
    // Sanity on the mix itself: the all-to-all compiles to the pairwise
    // family and uses the full dense edge set; so does the small 4-rank
    // all-reduce, as recursive doubling (log2 4 = 2 hops against the ring's
    // 6), which the cost model rates fastest on a power-of-two group.
    let domain = DfcclDomain::flat_for_testing(4);
    let rank = domain.init_rank(GpuId(0)).unwrap();
    for (id, desc) in stress_mix() {
        if desc.devices.contains(&GpuId(0)) {
            rank.register(id, desc).unwrap();
        }
    }
    assert_eq!(rank.algorithm_of(1), Some(AlgorithmKind::Pairwise));
    assert_eq!(rank.algorithm_of(2), Some(AlgorithmKind::Pairwise));
    rank.destroy();
}
