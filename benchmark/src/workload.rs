//! The five workloads: what each registers, what one op submits, how its
//! inputs are generated from the seed and how its outputs are checked.
//!
//! Everything here calls the library through its public, crate-root items
//! only (the list is in README.md, "Library surface").

use std::sync::Arc;
use std::time::Duration;

use dfccl::{
    Callback, CapturedGraph, CompletionHandle, DfcclConfig, DfcclDomain, DfcclError, RankCtx,
    SpinPolicy,
};
use dfccl_collectives::{
    estimate_completion_ns, CollectiveDescriptor, CollectiveKind, DataType, DeviceBuffer, ReduceOp,
};
use dfccl_transport::{LinkModel, Topology};
use gpu_sim::{GpuId, GpuSpec};

use crate::host::now_ns;
use crate::rng::Rng;

/// An op that has not completed this long after submission is a failed op and
/// ends the workload: that is a deadlock, the thing the paper prevents.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// The one runtime configuration every workload uses (`small_unloaded` adds
/// an idle policy to it, see [`Spec::config`]).
///
/// On real GPUs every daemon kernel runs concurrently; here the daemons of
/// 4 ranks share 2 vCPUs, so a spin budget models nothing and only starves
/// the peer the spinner is waiting for. `default()`'s adaptive 100 000-poll
/// budget and the bench crate's 5 µs park quantum both measure the host
/// scheduler instead of the library (numbers in README.md, "Configuration").
pub fn config() -> DfcclConfig {
    DfcclConfig {
        spin: SpinPolicy::Fixed { threshold: 16 },
        ..DfcclConfig::default()
    }
}

/// What one op of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One all-reduce of `count` f32 on all ranks, cycling over `ids`
    /// registered collectives in order.
    Single { ids: usize, count: usize },
    /// One step of eight collectives over overlapping groups, each rank
    /// submitting its members in its own seeded order.
    Disorder,
    /// One replay per rank of a captured graph of 8 large then 48 small
    /// all-reduces.
    Replay,
}

/// Static description of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the run header.
    pub why: &'static str,
    pub ranks: usize,
    /// Ops per measured segment (fixed: a segment is a count, not a time).
    pub ops_per_segment: usize,
    /// Closed-loop window: at most this many ops in flight.
    pub window: usize,
    /// Rank-level submissions (and completion callbacks) per op.
    pub subs_per_op: usize,
    /// Keep idle daemons polling (yielding, never parking or quitting); see
    /// [`Spec::config`].
    pub hot_daemons: bool,
    shape: Shape,
    topology: fn() -> Topology,
}

const SMALL_COUNT: usize = 16; // 64 B of f32
const LARGE_COUNT: usize = 1 << 20; // 4 MiB of f32
const DISORDER_COUNT: usize = 4096; // 16 KiB of f32
const REPLAY_LARGE: (usize, usize) = (8, 64 * 1024); // 8 x 256 KiB
const REPLAY_SMALL: (usize, usize) = (48, 1024); // 48 x 4 KiB (these fuse)
/// Graphs per rank in the replay workload: two alternate in the loop
/// (depth 2), the third carries each segment's checked step.
const REPLAY_SLOTS: usize = 3;

/// The five workloads, in reporting order.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "small_pipelined",
        why: "64 B all-reduces on 4 ranks, window 8: submit, SQ, admission, daemon slice, CQ, poller and callback do all the work",
        ranks: 4,
        ops_per_segment: 500,
        window: 8,
        subs_per_op: 4,
        hot_daemons: false,
        shape: Shape::Single { ids: 16, count: SMALL_COUNT },
        topology: || Topology::flat(4),
    },
    Spec {
        name: "small_unloaded",
        why: "64 B all-reduces on 2 ranks (= vCPUs), window 1, daemons kept polling: nothing to batch, every op pays the whole serial chain",
        ranks: 2,
        ops_per_segment: 1000,
        window: 1,
        subs_per_op: 2,
        hot_daemons: true,
        shape: Shape::Single { ids: 1, count: SMALL_COUNT },
        topology: || Topology::flat(2),
    },
    Spec {
        name: "large_bandwidth",
        why: "4 MiB all-reduces over 2 nodes x 2 GPUs: executor, reduce kernels, buffer copies and connectors move all the bytes",
        ranks: 4,
        ops_per_segment: 16,
        window: 2,
        subs_per_op: 4,
        hot_daemons: false,
        shape: Shape::Single { ids: 2, count: LARGE_COUNT },
        topology: || Topology::uniform_cluster(2, 2),
    },
    Spec {
        name: "disorder_step",
        why: "8 collectives over overlapping groups, each rank in its own seeded order: preemption and context switching do the work",
        ranks: 4,
        ops_per_segment: 50,
        window: 1,
        subs_per_op: 20,
        hot_daemons: false,
        shape: Shape::Disorder,
        topology: || Topology::flat(4),
    },
    Spec {
        name: "ddp_replay",
        why: "graph replay of 8 x 256 KiB + 48 x 4 KiB all-reduces per step: graph expansion, fusion, one SQE/CQE per rank per step",
        ranks: 4,
        ops_per_segment: 10,
        window: 2,
        subs_per_op: 4,
        hot_daemons: false,
        shape: Shape::Replay,
        topology: || Topology::flat(4),
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// One registered collective of a workload: its id, descriptor and which of
/// the workload's ranks take part (indices into the rank list, in device
/// order).
#[derive(Debug, Clone)]
pub struct CollSpec {
    pub id: u64,
    pub desc: CollectiveDescriptor,
    pub members: Vec<usize>,
}

fn gpus(members: &[usize]) -> Vec<GpuId> {
    members.iter().map(|&m| GpuId(m)).collect()
}

fn all_reduce(id: u64, count: usize, members: &[usize]) -> CollSpec {
    CollSpec {
        id,
        desc: CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, gpus(members)),
        members: members.to_vec(),
    }
}

impl Spec {
    /// The workload's runtime configuration: [`config`], and for a
    /// `hot_daemons` workload an idle daemon that keeps polling (yielding the
    /// CPU every pass) instead of parking after 4 idle passes and quitting
    /// after 64.
    ///
    /// With at most one op in flight a daemon is idle whenever its peer or
    /// the driver is slower than 16 polls, so under the default budget every
    /// op is a race between the peer's chunk and a 100 µs timed park. Which
    /// side wins depends on how fast the host wakes a halted vCPU: the op
    /// takes 50 µs or 250 µs, the mix flips with the host's mood, and ten runs
    /// of one build spread by more than their median. A daemon that stays
    /// resident is the state the paper measures its per-collective costs in
    /// (Fig. 7), keeps both vCPUs out of the idle loop, and repeats.
    pub fn config(&self) -> DfcclConfig {
        let base = config();
        if !self.hot_daemons {
            return base;
        }
        DfcclConfig {
            idle_spin_passes: u32::MAX,
            idle_passes_before_quit: u32::MAX,
            ..base
        }
    }

    /// A copy with 1/20 of the ops per segment (`--smoke`).
    pub fn smoke(mut self) -> Spec {
        self.ops_per_segment = (self.ops_per_segment / 20).max(2);
        self
    }

    /// The collectives the workload registers.
    pub fn colls(&self) -> Vec<CollSpec> {
        let all: Vec<usize> = (0..self.ranks).collect();
        match self.shape {
            Shape::Single { ids, count } => (0..ids)
                .map(|i| all_reduce(i as u64 + 1, count, &all))
                .collect(),
            Shape::Disorder => {
                let n = DISORDER_COUNT;
                vec![
                    CollSpec {
                        id: 1,
                        desc: CollectiveDescriptor::all_to_all(n / 4, DataType::F32, gpus(&all)),
                        members: all.clone(),
                    },
                    all_reduce(2, n, &all),
                    all_reduce(3, n, &[0, 1]),
                    all_reduce(4, n, &[2, 3]),
                    all_reduce(5, n, &[1, 2]),
                    all_reduce(6, n, &[0, 3]),
                    CollSpec {
                        id: 7,
                        desc: CollectiveDescriptor::all_gather(n, DataType::F32, gpus(&[0, 2])),
                        members: vec![0, 2],
                    },
                    CollSpec {
                        id: 8,
                        desc: CollectiveDescriptor::broadcast(n, DataType::F32, 0, gpus(&[1, 3])),
                        members: vec![1, 3],
                    },
                ]
            }
            Shape::Replay => {
                let large = (0..REPLAY_LARGE.0).map(|i| (i, REPLAY_LARGE.1));
                let small = (0..REPLAY_SMALL.0).map(|i| (REPLAY_LARGE.0 + i, REPLAY_SMALL.1));
                large
                    .chain(small)
                    .map(|(i, count)| all_reduce(i as u64 + 1, count, &all))
                    .collect()
            }
        }
    }

    /// Buffer sets per collective: the loop's set(s) plus the one carrying
    /// each segment's checked op.
    fn buffer_sets(&self) -> usize {
        match self.shape {
            Shape::Replay => REPLAY_SLOTS,
            _ => 2,
        }
    }

    /// Which buffer set op `op` of a segment uses.
    fn set_for(&self, op: usize, check: bool) -> usize {
        match (self.shape, check) {
            (_, true) => self.buffer_sets() - 1,
            (Shape::Replay, false) => op % (REPLAY_SLOTS - 1),
            (_, false) => 0,
        }
    }
}

/// The seeded inputs of a workload: one base vector of small integer-valued
/// f32 per (collective, member). Generated once per process from `--seed`.
pub struct Inputs {
    base: Vec<Vec<Vec<f32>>>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let base = spec
            .colls()
            .iter()
            .map(|c| {
                (0..c.members.len())
                    .map(|m| {
                        (0..c.desc.send_elems(m))
                            .map(|_| rng.small_int_f32())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Inputs { base }
    }
}

fn f32_bytes(values: &[f32]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// The send/recv buffers of one collective for one buffer set, by member.
pub struct BufSet {
    send: Vec<DeviceBuffer>,
    recv: Vec<DeviceBuffer>,
}

/// The application's memory for one set-up: every buffer set of every
/// collective, `[coll][set]`, and the host copy of the pending checked op's
/// inputs, `[coll][member]`.
pub struct Buffers {
    sets: Vec<Vec<BufSet>>,
    check_inputs: Vec<Vec<Vec<f32>>>,
}

/// Allocate and fill every buffer of a workload (outside the timed set-up:
/// this is the application's memory, not library set-up).
pub fn allocate(spec: &Spec, inputs: &Inputs) -> Buffers {
    let sets = spec
        .colls()
        .iter()
        .zip(&inputs.base)
        .map(|(c, base)| {
            (0..spec.buffer_sets())
                .map(|_| BufSet {
                    send: base
                        .iter()
                        .map(|v| DeviceBuffer::from_bytes(f32_bytes(v)))
                        .collect(),
                    recv: (0..c.members.len())
                        .map(|m| DeviceBuffer::zeroed(c.desc.recv_bytes(m)))
                        .collect(),
                })
                .collect()
        })
        .collect();
    Buffers {
        sets,
        check_inputs: inputs.base.clone(),
    }
}

/// One rank-level submission of an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sub {
    /// `ranks[colls[coll].members[member]].run(id, ..)`.
    Run { coll: usize, member: usize },
    /// `ranks[rank].replay(graph, ..)`.
    Replay { rank: usize },
}

impl Sub {
    /// The rank (index into the workload's rank list) that submits.
    pub fn rank(&self, live: &Live) -> usize {
        match *self {
            Sub::Run { coll, member } => live.colls[coll].members[member],
            Sub::Replay { rank } => rank,
        }
    }
}

/// A (name, start ns, end ns) span of the set-up phase.
pub type SetupSpan = (&'static str, u64, u64);

/// A set-up domain: ranks initialised, collectives registered, graphs
/// captured, first ops done.
pub struct Live {
    pub spec: Spec,
    pub domain: Arc<DfcclDomain>,
    pub ranks: Vec<RankCtx>,
    pub colls: Vec<CollSpec>,
    bufs: Buffers,
    /// `[rank][slot]`; empty unless the workload replays graphs.
    pub graphs: Vec<Vec<Arc<CapturedGraph>>>,
    inputs: Arc<Inputs>,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Live {
    /// The timed set-up: `DfcclDomain::new` through `init_rank`, every
    /// registration, capture/`finish`, to completion on all ranks of the
    /// first op of every registered collective / graph (so lazy connector
    /// materialisation and daemon start are inside).
    pub fn set_up(
        spec: Spec,
        inputs: Arc<Inputs>,
        bufs: Buffers,
        spans: &mut Vec<SetupSpan>,
    ) -> Result<Live, String> {
        let mut mark = now_ns();
        let mut span = |name: &'static str| {
            let end = now_ns();
            spans.push((name, mark, end));
            mark = end;
        };

        let domain = DfcclDomain::new(
            (spec.topology)(),
            LinkModel::zero_cost(),
            GpuSpec::rtx_3090(),
            spec.config(),
        );
        span("setup.domain");

        let ranks = (0..spec.ranks)
            .map(|r| domain.init_rank(GpuId(r)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err("init_rank", e))?;
        span("setup.init_rank");

        let colls = spec.colls();
        for c in &colls {
            for &m in &c.members {
                ranks[m]
                    .register(c.id, c.desc.clone())
                    .map_err(|e| err("register", e))?;
            }
        }
        span("setup.register");

        let mut live = Live {
            spec,
            domain,
            ranks,
            colls,
            bufs,
            graphs: Vec::new(),
            inputs,
        };
        if spec.shape == Shape::Replay {
            live.capture_graphs()?;
            span("setup.capture");
        }

        live.first_ops()?;
        span("setup.first_ops");
        Ok(live)
    }

    fn capture_graphs(&mut self) -> Result<(), String> {
        for (r, rank) in self.ranks.iter().enumerate() {
            let mut slots = Vec::with_capacity(REPLAY_SLOTS);
            for slot in 0..REPLAY_SLOTS {
                let mut rec = rank.begin_capture().map_err(|e| err("begin_capture", e))?;
                for (c, coll) in self.colls.iter().enumerate() {
                    let set = &self.bufs.sets[c][slot];
                    rec.record(coll.id, set.send[r].clone(), set.recv[r].clone())
                        .map_err(|e| err("record", e))?;
                }
                slots.push(rec.finish().map_err(|e| err("finish", e))?);
            }
            self.graphs.push(slots);
        }
        Ok(())
    }

    /// Run the first op of every registered collective / graph on all ranks:
    /// submit them all, in order, then wait for them all. (One at a time,
    /// each would be a window-1 op under the default idle budget, and the
    /// host's wake-up latency, not the library's set-up work, would be most of
    /// `setup_s`.)
    fn first_ops(&self) -> Result<(), String> {
        let handle = CompletionHandle::new();
        let mut subs = 0;
        match self.spec.shape {
            Shape::Replay => {
                for slot in 0..REPLAY_SLOTS {
                    for rank in 0..self.ranks.len() {
                        self.exec(Sub::Replay { rank }, slot, || handle.completion_callback())?;
                        subs += 1;
                    }
                }
            }
            _ => {
                for (coll, c) in self.colls.iter().enumerate() {
                    for member in 0..c.members.len() {
                        let sub = Sub::Run { coll, member };
                        self.exec(sub, 0, || handle.completion_callback())?;
                        subs += 1;
                    }
                }
            }
        }
        if !handle.wait_for_timeout(subs, OP_TIMEOUT) {
            return Err("the first ops did not complete within 30 s".to_string());
        }
        Ok(())
    }

    /// Submit one rank-level invocation, retrying momentary backpressure.
    /// `callback` is called once per attempt (a refused submission consumes
    /// the callback it was handed).
    pub fn exec(
        &self,
        sub: Sub,
        set: usize,
        callback: impl Fn() -> Callback,
    ) -> Result<(), String> {
        let deadline = now_ns() + OP_TIMEOUT.as_nanos() as u64;
        loop {
            let result = match sub {
                Sub::Run { coll, member } => {
                    let c = &self.colls[coll];
                    let bufs = &self.bufs.sets[coll][set];
                    self.ranks[c.members[member]].run(
                        c.id,
                        bufs.send[member].clone(),
                        bufs.recv[member].clone(),
                        callback(),
                    )
                }
                Sub::Replay { rank } => {
                    self.ranks[rank].replay(&self.graphs[rank][set], callback())
                }
            };
            match result {
                Ok(()) => return Ok(()),
                Err(DfcclError::SubmissionQueueFull | DfcclError::GraphReplayInFlight(_))
                    if now_ns() < deadline =>
                {
                    std::thread::yield_now()
                }
                Err(e) => return Err(err("submit", e)),
            }
        }
    }

    /// The submissions of op `op` of a segment, in submission order, and the
    /// buffer set they use. `check` marks the segment's checked (last) op.
    pub fn plan_op(&self, op: usize, check: bool, perms: &mut Rng, out: &mut Vec<Sub>) -> usize {
        out.clear();
        match self.spec.shape {
            Shape::Single { ids, .. } => {
                let coll = op % ids;
                out.extend((0..self.spec.ranks).map(|member| Sub::Run { coll, member }));
            }
            Shape::Replay => out.extend((0..self.spec.ranks).map(|rank| Sub::Replay { rank })),
            Shape::Disorder => {
                // Each rank orders the collectives it is a member of with its
                // own Fisher–Yates shuffle; the single driver thread then
                // interleaves the ranks position by position.
                let mut orders: Vec<Vec<Sub>> = (0..self.spec.ranks)
                    .map(|r| {
                        let mut mine: Vec<Sub> = self
                            .colls
                            .iter()
                            .enumerate()
                            .filter_map(|(coll, c)| {
                                let member = c.members.iter().position(|&m| m == r)?;
                                Some(Sub::Run { coll, member })
                            })
                            .collect();
                        perms.shuffle(&mut mine);
                        mine
                    })
                    .collect();
                let longest = orders.iter().map(Vec::len).max().unwrap_or(0);
                for pos in 0..longest {
                    for order in &mut orders {
                        if pos < order.len() {
                            out.push(order[pos]);
                        }
                    }
                }
            }
        }
        debug_assert_eq!(out.len(), self.spec.subs_per_op);
        self.spec.set_for(op, check)
    }

    /// The collectives op `op` of a segment runs.
    fn colls_of(&self, op: usize) -> std::ops::Range<usize> {
        match self.spec.shape {
            Shape::Single { ids, .. } => op % ids..op % ids + 1,
            _ => 0..self.colls.len(),
        }
    }

    /// Give the segment's checked op fresh inputs (base + a seeded integer
    /// offset per member, still exact in f32) and poison its recv buffers,
    /// so a stale result from an earlier op cannot pass the check.
    pub fn prepare_check(&mut self, checked_op: usize, payload: &mut Rng) {
        let set = self.spec.buffer_sets() - 1;
        for c in self.colls_of(checked_op) {
            for m in 0..self.colls[c].members.len() {
                let offset = payload.small_int_f32();
                let values = &mut self.bufs.check_inputs[c][m];
                for (v, b) in values.iter_mut().zip(&self.inputs.base[c][m]) {
                    *v = b + offset;
                }
                self.bufs.sets[c][set].send[m].with_write(|bytes| {
                    for (dst, v) in bytes.chunks_exact_mut(4).zip(values.iter()) {
                        dst.copy_from_slice(&v.to_le_bytes());
                    }
                });
                self.bufs.sets[c][set].recv[m].with_write(|bytes| bytes.fill(0xFF));
            }
        }
    }

    /// Whether the checked op's recv buffers are bit-exact against the host
    /// oracle on every member of every collective of the op.
    pub fn verify_check(&self, checked_op: usize) -> bool {
        let set = self.spec.buffer_sets() - 1;
        self.colls_of(checked_op).all(|c| {
            let expected = oracle(&self.colls[c].desc, &self.bufs.check_inputs[c]);
            expected.iter().enumerate().all(|(m, want)| {
                self.bufs.sets[c][set].recv[m].with_read(|got| {
                    got.len() == want.len() * 4
                        && got
                            .chunks_exact(4)
                            .zip(want)
                            .all(|(g, w)| g == w.to_le_bytes().as_slice())
                })
            })
        })
    }

    /// Collective errors recorded on any rank (empty in a healthy run).
    pub fn collective_errors(&self) -> Vec<String> {
        self.ranks
            .iter()
            .flat_map(|r| {
                let gpu = r.gpu();
                r.collective_errors()
                    .into_iter()
                    .map(move |(id, e)| format!("{gpu} coll {id}: {e}"))
            })
            .collect()
    }

    /// Modelled completion time of one op, µs: `estimate_completion_ns` over
    /// the plans the runtime actually registered — rebuilt with the config's
    /// selector and chunk size and checked against what each rank reports —
    /// on the workload's topology under the paper's Table 2 link model. A
    /// step is the sum of its collectives. Host-independent.
    pub fn modelled_us_per_op(&self) -> Result<f64, String> {
        let link = LinkModel::table2_testbed();
        let estimate =
            |desc: &CollectiveDescriptor,
             registered: &dyn Fn(usize) -> Option<(dfccl_collectives::AlgorithmKind, usize)>|
             -> Result<f64, String> {
                let selector = self.domain.config().algorithm_selector();
                let plans = (0..desc.num_ranks())
                    .map(|m| {
                        let plan = selector
                            .build_plan(
                                desc,
                                m,
                                self.domain.config().chunk_elems,
                                self.domain.topology(),
                            )
                            .map_err(|e| err("build_plan", e))?;
                        let rebuilt = Some((plan.algorithm, plan.channel_count()));
                        if registered(m) != rebuilt {
                            return Err(format!(
                                "rebuilt plan {rebuilt:?} differs from the registered one {:?}",
                                registered(m)
                            ));
                        }
                        Ok(plan)
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                estimate_completion_ns(
                    &plans,
                    &desc.devices,
                    self.domain.topology(),
                    &link,
                    desc.dtype,
                )
                .map_err(|e| format!("estimate_completion_ns: {e:?}"))
            };
        let of_coll = |c: &CollSpec| {
            estimate(&c.desc, &|m| {
                let rank = &self.ranks[c.members[m]];
                Some((rank.algorithm_of(c.id)?, rank.channels_of(c.id)?))
            })
        };
        let ns = match self.spec.shape {
            Shape::Single { .. } => {
                let each = self
                    .colls
                    .iter()
                    .map(of_coll)
                    .collect::<Result<Vec<_>, _>>()?;
                each.iter().sum::<f64>() / each.len() as f64
            }
            Shape::Disorder => self.colls.iter().map(of_coll).sum::<Result<f64, _>>()?,
            Shape::Replay => (0..self.graphs[0][0].len())
                .map(|node| {
                    estimate(self.graphs[0][0].nodes[node].op.desc(), &|m| {
                        let plan = &self.graphs[m][0].nodes.get(node)?.reg.plan;
                        Some((plan.algorithm, plan.channel_count()))
                    })
                })
                .sum::<Result<f64, _>>()?,
        };
        Ok(ns / 1e3)
    }

    /// Destroy every rank (joins the pollers, waits for the daemons).
    pub fn tear_down(self) {
        for rank in &self.ranks {
            rank.destroy();
        }
    }
}

/// Host-computed expected recv contents, by member, for `inputs` by member.
pub fn oracle(desc: &CollectiveDescriptor, inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let n = desc.num_ranks();
    let count = desc.count;
    match desc.kind {
        CollectiveKind::AllReduce => {
            let mut sum = vec![0.0f32; count];
            for input in inputs {
                for (s, v) in sum.iter_mut().zip(input) {
                    *s += v;
                }
            }
            vec![sum; n]
        }
        CollectiveKind::AllToAll => (0..n)
            .map(|r| {
                (0..n)
                    .flat_map(|p| inputs[p][r * count..(r + 1) * count].iter().copied())
                    .collect()
            })
            .collect(),
        CollectiveKind::AllGather => {
            let all: Vec<f32> = inputs.iter().flatten().copied().collect();
            vec![all; n]
        }
        CollectiveKind::Broadcast => {
            let root = desc.root.expect("broadcast has a root");
            vec![inputs[root].clone(); n]
        }
        kind => unreachable!("no workload uses {kind}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracles_match_hand_computed_results() {
        let g = |n: usize| (0..n).map(GpuId).collect::<Vec<_>>();
        let ar = CollectiveDescriptor::all_reduce(2, DataType::F32, ReduceOp::Sum, g(3));
        let inputs = vec![vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
        assert_eq!(oracle(&ar, &inputs), vec![vec![111.0, 222.0]; 3]);

        let a2a = CollectiveDescriptor::all_to_all(1, DataType::F32, g(2));
        let inputs = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(oracle(&a2a, &inputs), vec![vec![1.0, 3.0], vec![2.0, 4.0]]);

        let ag = CollectiveDescriptor::all_gather(1, DataType::F32, g(2));
        assert_eq!(
            oracle(&ag, &[vec![5.0], vec![6.0]]),
            vec![vec![5.0, 6.0]; 2]
        );

        let bc = CollectiveDescriptor::broadcast(1, DataType::F32, 1, g(2));
        assert_eq!(oracle(&bc, &[vec![5.0], vec![6.0]]), vec![vec![6.0]; 2]);
    }

    #[test]
    fn every_workload_submits_what_its_spec_says() {
        for spec in SPECS {
            let colls = spec.colls();
            let per_op: usize = match spec.shape {
                Shape::Single { .. } | Shape::Replay => spec.ranks,
                Shape::Disorder => colls.iter().map(|c| c.members.len()).sum(),
            };
            assert_eq!(per_op, spec.subs_per_op, "{}", spec.name);
            assert!(spec.smoke().ops_per_segment >= 2);
            assert!(spec.name.len() <= 64 && spec.why.len() <= 200);
        }
        assert_eq!(spec("ddp_replay").unwrap().colls().len(), 56);
        assert!(spec("nope").is_none());
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let s = spec("disorder_step").unwrap();
        let a = Inputs::generate(&s, 1);
        let b = Inputs::generate(&s, 1);
        let c = Inputs::generate(&s, 2);
        assert_eq!(a.base, b.base);
        assert_ne!(a.base, c.base);
    }
}
