//! Single-threaded probes of each layer's public functions.
//!
//! Each probe is a timed loop over a public function of one layer; its value
//! is the p10 (near-best, for rates the p90) of [`REPEATS`] repeats of at
//! least 15 ms each. One thread, so the host scheduler has nothing to
//! interleave — except `core.park.wake_us`, whose subject is a second thread.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dfccl::{
    build_cq, CallbackMap, Cqe, DfcclDomain, Parker, Sqe, SubmissionQueue, TenantId, TenantQuota,
    TenantScheduler,
};
use dfccl_collectives::{
    estimate_completion_ns, execute_ready_instr, flush_pending_compiled, instr_ready, plan_fusion,
    AlgorithmKind, AlgorithmSelector, CollectiveDescriptor, CompiledProgram, DataType,
    DeviceBuffer, GraphOp, PendingSends, Plan, RecordedCollective, ReduceOp, StepOutcome,
};
use dfccl_transport::{
    ChunkMsg, Communicator, CommunicatorId, Connector, ConnectorTable, LinkModel, Topology,
};
use gpu_sim::{DeviceEngine, FnKernel, GpuDevice, GpuId, GpuSpec, KernelOutcome, StreamId};

use crate::host::now_ns;
use crate::stats::pct;
use crate::workload::{config, spec};

const REPEATS: usize = 7;

/// A probe result: `(name, value, unit)`.
pub type Probe = (&'static str, f64, &'static str);

/// How long one repeat of a probe loops: 15 ms, a tenth with `--smoke`.
#[derive(Clone, Copy)]
struct Timer {
    min_loop: Duration,
}

impl Timer {
    /// Seconds per call of `body`, near-best over the repeats: each repeat
    /// calls `body` until the loop length has passed and divides.
    fn per_call(self, mut body: impl FnMut()) -> f64 {
        let repeats: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let start = Instant::now();
                let mut calls = 0u64;
                while start.elapsed() < self.min_loop {
                    body();
                    calls += 1;
                }
                start.elapsed().as_secs_f64() / calls as f64
            })
            .collect();
        pct(&repeats, 0.1)
    }
}

fn gpus(n: usize) -> Vec<GpuId> {
    (0..n).map(GpuId).collect()
}

fn all_reduce(count: usize, n: usize) -> CollectiveDescriptor {
    CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(n))
}

const MIB_4: usize = 1 << 20; // f32 elements

fn probe_domain() -> Arc<DfcclDomain> {
    DfcclDomain::new(
        Topology::flat(4),
        LinkModel::zero_cost(),
        GpuSpec::rtx_3090(),
        config(),
    )
}

// --- core -----------------------------------------------------------------

fn sq_push_fetch_ns(t: Timer) -> f64 {
    let cfg = config();
    let sq = SubmissionQueue::with_costs(cfg.sq_capacity, 1, cfg.host_costs);
    let mut cursor = Default::default();
    let mut out = Vec::with_capacity(16);
    let (send, recv) = (DeviceBuffer::zeroed(64), DeviceBuffer::zeroed(64));
    let per_batch = t.per_call(|| {
        for seq in 0..16 {
            let sqe = Sqe {
                coll_id: seq,
                seq,
                send: send.clone(),
                recv: recv.clone(),
                exit: false,
            };
            assert!(sq.try_push(sqe).is_ok(), "SQ full in a probe");
        }
        out.clear();
        assert_eq!(
            sq.fetch_batch(&mut cursor, cfg.sq_fetch_batch, &mut out),
            16
        );
    });
    per_batch / 16.0 * 1e9
}

fn cq_push_drain_ns(t: Timer) -> f64 {
    let cfg = config();
    let cq = build_cq(cfg.cq_variant, cfg.cq_capacity, cfg.host_costs);
    let batch: Vec<Cqe> = (0..16).map(|coll_id| Cqe { coll_id }).collect();
    let mut out = Vec::with_capacity(16);
    let per_batch = t.per_call(|| {
        assert_eq!(cq.push_n(&batch), 16);
        out.clear();
        assert_eq!(cq.drain_into(&mut out), 16);
    });
    per_batch / 16.0 * 1e9
}

fn task_queue_schedule_ns(t: Timer) -> f64 {
    let cfg = config();
    // `TenantState` has no crate-root re-export; the table that mints it is
    // reached through its module.
    let table = dfccl::tenant::TenantTable::new(TenantQuota::default());
    let tenant = table.state(TenantId::DEFAULT);
    let mut sched = TenantScheduler::new(false);
    let per_pass = t.per_call(|| {
        for id in 0..16 {
            sched.push(id, &tenant, 0, cfg.spin.initial_threshold(id as usize));
        }
        let order = sched.schedule(
            cfg.ordering,
            cfg.tenant_arbitration,
            cfg.tenant_quantum,
            cfg.spin,
        );
        for id in black_box(order) {
            sched.remove(id);
        }
    });
    per_pass / 16.0 * 1e9
}

fn callback_bind_take_ns(t: Timer) -> f64 {
    let map = CallbackMap::new();
    t.per_call(|| {
        map.bind(7, Box::new(|| {}));
        let cb = map.take(7).expect("callback just bound");
        cb();
    }) * 1e9
}

/// `Parker::signal` → the parked thread resumes, µs (p10 over the samples).
fn park_wake_us() -> f64 {
    let parker = Arc::new(Parker::new());
    let resumed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let sleeper = {
        let (parker, resumed, stop) = (parker.clone(), resumed.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let seen = parker.generation();
                parker.park_if_unchanged(seen, Duration::from_millis(50));
                resumed.store(now_ns(), Ordering::Release);
            }
        })
    };
    let samples: Vec<f64> = (0..REPEATS * 20)
        .filter_map(|_| {
            // Long enough for the sleeper to be back in its park.
            std::thread::sleep(Duration::from_micros(200));
            let t0 = now_ns();
            parker.signal();
            let deadline = t0 + 1_000_000_000;
            loop {
                let at = resumed.load(Ordering::Acquire);
                if at >= t0 {
                    return Some((at - t0) as f64 / 1e3);
                }
                if now_ns() > deadline {
                    return None;
                }
                std::hint::spin_loop();
            }
        })
        .collect();
    stop.store(true, Ordering::Release);
    parker.signal();
    sleeper.join().expect("sleeper thread panicked");
    crate::stats::percentile(&samples, 0.1).unwrap_or(0.0)
}

/// Cold (every shape distinct: plan built, validated, compiled) and hit
/// (one shape, distinct ids) registration on one rank, µs each.
fn register_us() -> (f64, f64) {
    let mut colds = Vec::new();
    let mut hits = Vec::new();
    for _ in 0..REPEATS {
        let domain = probe_domain();
        let rank = domain.init_rank(GpuId(0)).expect("init_rank");
        let n = 32u64;
        let start = Instant::now();
        for i in 0..n {
            rank.register(1 + i, all_reduce(8 * 1024 + i as usize, 4))
                .expect("cold register");
        }
        colds.push(start.elapsed().as_secs_f64() / n as f64 * 1e6);
        let start = Instant::now();
        for i in 0..n {
            rank.register(1000 + i, all_reduce(8 * 1024, 4))
                .expect("hit register");
        }
        hits.push(start.elapsed().as_secs_f64() / n as f64 * 1e6);
        rank.destroy();
    }
    (pct(&colds, 0.1), pct(&hits, 0.1))
}

/// The ddp_replay graph's records over `domain`'s rank-0 registrations.
fn replay_records() -> Vec<RecordedCollective> {
    let s = spec("ddp_replay").expect("ddp_replay is a workload");
    s.colls()
        .into_iter()
        .map(|c| RecordedCollective {
            coll_id: c.id,
            send: DeviceBuffer::zeroed(c.desc.send_bytes(0)),
            recv: DeviceBuffer::zeroed(c.desc.recv_bytes(0)),
            desc: c.desc,
        })
        .collect()
}

fn capture_finish_us(t: Timer) -> f64 {
    let domain = probe_domain();
    let rank = domain.init_rank(GpuId(0)).expect("init_rank");
    let records = replay_records();
    for r in &records {
        rank.register(r.coll_id, r.desc.clone()).expect("register");
    }
    let per_capture = t.per_call(|| {
        let mut rec = rank.begin_capture().expect("begin_capture");
        for r in &records {
            rec.record(r.coll_id, r.send.clone(), r.recv.clone())
                .expect("record");
        }
        black_box(rec.finish().expect("finish"));
    });
    rank.destroy();
    per_capture * 1e6
}

// --- collectives ----------------------------------------------------------

fn plans(desc: &CollectiveDescriptor, selector: &AlgorithmSelector, topo: &Topology) -> Vec<Plan> {
    (0..desc.num_ranks())
        .map(|r| {
            selector
                .build_plan(desc, r, config().chunk_elems, topo)
                .expect("plan builds")
        })
        .collect()
}

fn build_plan_us(t: Timer, kind: AlgorithmKind) -> f64 {
    let (desc, topo) = match kind {
        AlgorithmKind::Hierarchical => (all_reduce(MIB_4, 4), Topology::uniform_cluster(2, 2)),
        AlgorithmKind::Pairwise => (
            CollectiveDescriptor::all_to_all(MIB_4 / 4, DataType::F32, gpus(4)),
            Topology::flat(4),
        ),
        _ => (all_reduce(MIB_4, 4), Topology::flat(4)),
    };
    let selector = AlgorithmSelector::forced(kind);
    assert_eq!(
        selector.select(&desc, &topo),
        kind,
        "forced kind unsupported"
    );
    t.per_call(|| {
        black_box(
            selector
                .build_plan(&desc, 0, config().chunk_elems, &topo)
                .expect("plan builds"),
        );
    }) * 1e6
}

/// All ranks of one all-reduce, compiled and bound to an in-process
/// communicator, stepped by one thread.
struct Stepper {
    programs: Vec<CompiledProgram>,
    tables: Vec<ConnectorTable>,
    bufs: Vec<(DeviceBuffer, DeviceBuffer)>,
    instrs: usize,
}

impl Stepper {
    fn new(count: usize) -> Stepper {
        let desc = all_reduce(count, 4);
        let topo = Arc::new(Topology::flat(4));
        let comm = Communicator::new(
            CommunicatorId(0),
            desc.devices.clone(),
            &topo,
            &Arc::new(LinkModel::zero_cost()),
            config().connector_capacity,
        )
        .expect("communicator");
        let plans = plans(&desc, &config().algorithm_selector(), &topo);
        let programs: Vec<CompiledProgram> = plans
            .iter()
            .map(|p| CompiledProgram::compile(p, desc.dtype))
            .collect();
        let tables = plans
            .iter()
            .zip(&programs)
            .enumerate()
            .map(|(r, (plan, program))| {
                let channels = comm
                    .channels(r, plan.send_edges(), plan.recv_edges())
                    .expect("channels");
                program.bind(&channels).expect("bind")
            })
            .collect();
        Stepper {
            instrs: programs.iter().map(CompiledProgram::len).sum(),
            bufs: (0..4)
                .map(|_| {
                    (
                        DeviceBuffer::zeroed(count * 4),
                        DeviceBuffer::zeroed(count * 4),
                    )
                })
                .collect(),
            programs,
            tables,
        }
    }

    /// Run one whole all-reduce: poll every rank's lane heads round-robin and
    /// execute the ready ones until every program and staged chunk is done.
    fn run_once(&self) {
        let n = self.programs.len();
        let mut cursors: Vec<Vec<u32>> = self
            .programs
            .iter()
            .map(|p| vec![0; p.lane_count()])
            .collect();
        let mut pending: Vec<PendingSends> = vec![PendingSends::default(); n];
        loop {
            let mut remaining = false;
            for r in 0..n {
                let (program, table) = (&self.programs[r], &self.tables[r]);
                let mut rank_remaining = false;
                for (li, lane) in program.lanes().iter().enumerate() {
                    let cur = cursors[r][li] as usize;
                    if cur >= lane.len() {
                        continue;
                    }
                    rank_remaining = true;
                    let idx = lane.instr_ids()[cur];
                    if !program.instr_eligible(idx, &cursors[r])
                        || !instr_ready(program, idx, table, &pending[r])
                    {
                        continue;
                    }
                    let outcome = execute_ready_instr(
                        1,
                        program,
                        idx,
                        table,
                        Some(ReduceOp::Sum),
                        &self.bufs[r].0,
                        &self.bufs[r].1,
                        &mut pending[r],
                    )
                    .expect("instruction executes");
                    if outcome == StepOutcome::Completed {
                        cursors[r][li] += 1;
                    }
                }
                if !rank_remaining
                    && !flush_pending_compiled(program, table, &mut pending[r]).expect("flush")
                {
                    rank_remaining = true;
                }
                remaining |= rank_remaining;
            }
            if !remaining {
                return;
            }
        }
    }
}

fn redop_sum_f32_gbps(t: Timer) -> f64 {
    let bytes = 1 << 20;
    let mut acc = vec![0u8; bytes];
    let incoming = vec![0u8; bytes];
    let s = t.per_call(|| {
        dfccl_collectives::redop::reduce_into(
            black_box(&mut acc),
            black_box(&incoming),
            DataType::F32,
            ReduceOp::Sum,
        );
    });
    bytes as f64 / s / 1e9
}

fn buffer_copy_gbps(t: Timer) -> f64 {
    let chunk = config().chunk_elems * 4;
    let (src, dst) = (DeviceBuffer::zeroed(chunk), DeviceBuffer::zeroed(chunk));
    let s = t.per_call(|| dst.write_range(0, &src.read_range(0, chunk)));
    chunk as f64 / s / 1e9
}

fn fusion_probes(t: Timer) -> (f64, f64) {
    let threshold = config().fusion_threshold_bytes;
    let records = replay_records();
    let plan_fusion_us = t.per_call(|| {
        black_box(plan_fusion(records.clone(), threshold));
    }) * 1e6;
    let fused = plan_fusion(records, threshold)
        .into_iter()
        .find_map(|op| match op {
            GraphOp::Fused(f) => Some(f),
            GraphOp::Single(_) => None,
        })
        .expect("the small all-reduces fuse");
    let bytes = 2 * fused.send_stage.len();
    let s = t.per_call(|| {
        fused.gather();
        fused.scatter();
    });
    (plan_fusion_us, bytes as f64 / s / 1e9)
}

fn cost_estimate_us(t: Timer) -> f64 {
    let desc = all_reduce(MIB_4, 4);
    let topo = Topology::uniform_cluster(2, 2);
    let plans = plans(&desc, &config().algorithm_selector(), &topo);
    let link = LinkModel::table2_testbed();
    t.per_call(|| {
        black_box(
            estimate_completion_ns(&plans, &desc.devices, &topo, &link, desc.dtype)
                .expect("estimate"),
        );
    }) * 1e6
}

// --- transport ------------------------------------------------------------

/// Seconds per `try_send` + `try_recv` of one `bytes`-sized chunk (the
/// payload `Vec` is built per send, as the executor's `read_range` does).
fn connector_round_trip_s(t: Timer, bytes: usize) -> f64 {
    let conn = Connector::unmodelled(config().connector_capacity);
    let payload = vec![0u8; bytes];
    t.per_call(|| {
        let msg = ChunkMsg {
            coll_id: 1,
            chunk_index: 0,
            step: 0,
            data: payload.clone(),
        };
        assert!(conn.try_send(msg).is_ok(), "connector full in a probe");
        black_box(conn.try_recv().expect("chunk just sent"));
    })
}

// --- gpu-sim --------------------------------------------------------------

fn engine_launch_us(t: Timer) -> f64 {
    let engine = DeviceEngine::new(GpuDevice::new(GpuId(0), GpuSpec::rtx_3090()));
    let s = t.per_call(|| {
        let kernel = FnKernel::new("probe", |_| KernelOutcome::Completed);
        let handle = engine
            .launch(StreamId(1), Box::new(kernel))
            .expect("launch");
        black_box(handle.wait());
    });
    engine.shutdown();
    s * 1e6
}

fn device_residency_ns(t: Timer) -> f64 {
    let cfg = config();
    let device = GpuDevice::new(GpuId(0), GpuSpec::rtx_3090());
    t.per_call(|| {
        let guard = device
            .try_acquire_residency(cfg.daemon_blocks, cfg.shared_mem_per_block)
            .expect("residency");
        drop(black_box(guard));
    }) * 1e9
}

/// Run every probe once.
pub fn run_all(smoke: bool) -> Vec<Probe> {
    let t = Timer {
        min_loop: Duration::from_micros(if smoke { 1_500 } else { 15_000 }),
    };
    let (register_cold_us, register_hit_us) = register_us();
    let (plan_fusion_us, gather_scatter_gbps) = fusion_probes(t);
    let small = Stepper::new(16);
    let large = Stepper::new(MIB_4);
    let ring_plan = AlgorithmSelector::forced(AlgorithmKind::Ring)
        .build_plan(
            &all_reduce(MIB_4, 4),
            0,
            config().chunk_elems,
            &Topology::flat(4),
        )
        .expect("ring plan");
    let chunk_bytes = config().chunk_elems * 4;
    vec![
        ("core.sq.push_fetch_ns", sq_push_fetch_ns(t), "ns"),
        ("core.cq.push_drain_ns", cq_push_drain_ns(t), "ns"),
        (
            "core.task_queue.schedule_ns",
            task_queue_schedule_ns(t),
            "ns",
        ),
        ("core.callback.bind_take_ns", callback_bind_take_ns(t), "ns"),
        ("core.park.wake_us", park_wake_us(), "us"),
        ("core.api.register_cold_us", register_cold_us, "us"),
        ("core.api.register_hit_us", register_hit_us, "us"),
        ("core.api.capture_finish_us", capture_finish_us(t), "us"),
        (
            "collectives.selector.build_plan_us.ring",
            build_plan_us(t, AlgorithmKind::Ring),
            "us",
        ),
        (
            "collectives.selector.build_plan_us.tree",
            build_plan_us(t, AlgorithmKind::DoubleBinaryTree),
            "us",
        ),
        (
            "collectives.selector.build_plan_us.hierarchical",
            build_plan_us(t, AlgorithmKind::Hierarchical),
            "us",
        ),
        (
            "collectives.selector.build_plan_us.pairwise",
            build_plan_us(t, AlgorithmKind::Pairwise),
            "us",
        ),
        (
            "collectives.program.compile_us",
            t.per_call(|| {
                black_box(CompiledProgram::compile(&ring_plan, DataType::F32));
            }) * 1e6,
            "us",
        ),
        (
            "collectives.program.instrs",
            CompiledProgram::compile(&ring_plan, DataType::F32).len() as f64,
            "count",
        ),
        (
            "collectives.executor.instr_ns",
            t.per_call(|| small.run_once()) / small.instrs as f64 * 1e9,
            "ns",
        ),
        (
            // Bus bandwidth of an all-reduce: 2(n-1)/n x payload / time.
            "collectives.executor.busbw_gbps",
            1.5 * (MIB_4 * 4) as f64 / t.per_call(|| large.run_once()) / 1e9,
            "GB/s",
        ),
        (
            "collectives.redop.sum_f32_gbps",
            redop_sum_f32_gbps(t),
            "GB/s",
        ),
        ("collectives.buffer.copy_gbps", buffer_copy_gbps(t), "GB/s"),
        ("collectives.graph.plan_fusion_us", plan_fusion_us, "us"),
        (
            "collectives.graph.gather_scatter_gbps",
            gather_scatter_gbps,
            "GB/s",
        ),
        ("collectives.cost.estimate_us", cost_estimate_us(t), "us"),
        (
            "transport.connector.send_recv_ns",
            connector_round_trip_s(t, 64) * 1e9,
            "ns",
        ),
        (
            "transport.connector.gbps",
            chunk_bytes as f64 / connector_round_trip_s(t, chunk_bytes) / 1e9,
            "GB/s",
        ),
        ("gpu-sim.engine.launch_us", engine_launch_us(t), "us"),
        ("gpu-sim.device.residency_ns", device_residency_ns(t), "ns"),
    ]
}
