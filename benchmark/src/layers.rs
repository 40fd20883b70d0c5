//! Per-layer metrics of a workload, read from outside the library: the
//! counters every rank and the domain export, snapshotted at the boundaries
//! of the traced pass, plus the spans the driver recorded around its calls.

use crate::driver::Pass;
use crate::stats::{Histogram, SegmentEstimate};
use crate::workload::Live;

/// Monotone counters summed over the ranks (and, for the transport ones,
/// over every edge of every communicator the domain allocated).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters([u64; 12]);

const SQES: usize = 0;
const CQES: usize = 1;
const PREEMPTIONS: usize = 2;
const CONTEXT_SWITCHES: usize = 3;
const CONTEXT_LOADS: usize = 4;
const CONTEXT_SAVES: usize = 5;
const PRIMITIVES: usize = 6;
const CHUNKS_MOVED: usize = 7;
const WIRE_BYTES: usize = 8;
const CHUNKS: usize = 9;
const FULL_REJECTIONS: usize = 10;
const EMPTY_POLLS: usize = 11;

impl Counters {
    pub fn snapshot(live: &Live) -> Counters {
        let mut c = [0u64; 12];
        for rank in &live.ranks {
            let s = rank.stats();
            c[SQES] += s.sqes_fetched;
            c[CQES] += s.cqes_written;
            c[PREEMPTIONS] += s.preemptions;
            c[CONTEXT_SWITCHES] += s.context_switches;
            c[CONTEXT_LOADS] += s.context_loads;
            c[CONTEXT_SAVES] += s.context_saves;
            c[PRIMITIVES] += s.primitives_executed;
            c[CHUNKS_MOVED] += rank.telemetry().counters.chunks_moved;
        }
        for edge in live.domain.edge_samples() {
            c[WIRE_BYTES] += edge.stats.bytes_sent;
            c[CHUNKS] += edge.stats.chunks_sent;
            c[FULL_REJECTIONS] += edge.stats.full_rejections;
            c[EMPTY_POLLS] += edge.stats.empty_polls;
        }
        Counters(c)
    }

    /// Add what happened between two snapshots of one domain (the traced
    /// pass of one epoch) to this running total.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        for (total, (b, a)) in self.0.iter_mut().zip(before.0.iter().zip(&after.0)) {
            *total += a - b;
        }
    }
}

fn mean_ns(values: impl Iterator<Item = Option<std::time::Duration>>) -> f64 {
    let ns: Vec<f64> = values.flatten().map(|d| d.as_nanos() as f64).collect();
    if ns.is_empty() {
        0.0
    } else {
        ns.iter().sum::<f64>() / ns.len() as f64
    }
}

/// Median of a histogram in µs; 0 when it is empty (the driver never parked).
fn p50_us(h: &Histogram) -> f64 {
    h.quantile_ns(0.5).unwrap_or(0.0) / 1e3
}

/// Every per-workload layer metric as `(name, value, unit)`.
///
/// `during_traced` is what the counters advanced by during the traced pass
/// `traced` (summed over the run's epochs); `untraced` is the measured pass
/// it alternated with (their throughput difference is the tracing overhead).
/// `live` is the last epoch's domain: gauges, high-water marks and the
/// library's own mean daemon component times (Fig. 7(a), averaged over
/// ranks) are read from it.
pub fn metrics(
    live: &Live,
    during_traced: &Counters,
    traced: &Pass,
    untraced: &Pass,
    setup_cold_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let ops = traced.ops().max(1) as f64;
    let per_op = |counter: usize| during_traced.0[counter] as f64 / ops;
    let stats: Vec<_> = live.ranks.iter().map(|r| r.stats()).collect();
    let sum = |f: fn(&dfccl::DaemonStatsSnapshot) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let cache = live.domain.cache_stats();
    let graph = live.graphs.first().map(|slots| &slots[0]);
    let untraced_est = SegmentEstimate::from_rates(&untraced.rates);
    let traced_est = SegmentEstimate::from_rates(&traced.rates);
    let mib = 1024.0 * 1024.0;
    vec![
        ("core.api.submit_us_p50", p50_us(&traced.submit), "us"),
        ("core.api.inflight_us_p50", p50_us(&traced.inflight), "us"),
        ("core.callback.wake_us_p50", p50_us(&traced.wake), "us"),
        (
            "core.daemon.sqe_read_ns",
            mean_ns(stats.iter().map(|s| s.mean_sqe_read)),
            "ns",
        ),
        (
            "core.daemon.preparing_ns",
            mean_ns(stats.iter().map(|s| s.mean_preparing)),
            "ns",
        ),
        (
            "core.daemon.cqe_write_ns",
            mean_ns(stats.iter().map(|s| s.mean_cqe_write)),
            "ns",
        ),
        (
            "core.daemon.primitive_exec_ns",
            mean_ns(stats.iter().map(|s| s.mean_primitive_exec)),
            "ns",
        ),
        ("core.daemon.sqes_per_op", per_op(SQES), "count"),
        ("core.daemon.cqes_per_op", per_op(CQES), "count"),
        (
            "core.daemon.preemptions_per_op",
            per_op(PREEMPTIONS),
            "count",
        ),
        (
            "core.daemon.context_switches_per_op",
            per_op(CONTEXT_SWITCHES),
            "count",
        ),
        (
            "core.daemon.context_loads_per_op",
            per_op(CONTEXT_LOADS),
            "count",
        ),
        (
            "core.daemon.context_saves_per_op",
            per_op(CONTEXT_SAVES),
            "count",
        ),
        (
            "core.daemon.voluntary_quits",
            sum(|s| s.voluntary_quits),
            "count",
        ),
        ("core.daemon.starts", sum(|s| s.daemon_starts), "count"),
        (
            "core.daemon.max_queue_len",
            stats.iter().map(|s| s.max_queue_len).max().unwrap_or(0) as f64,
            "count",
        ),
        (
            "core.tenant.max_queue_depth",
            live.ranks
                .iter()
                .flat_map(|r| r.tenant_stats())
                .map(|t| t.max_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "core.telemetry.chunks_moved_per_op",
            per_op(CHUNKS_MOVED),
            "count",
        ),
        (
            "collectives.executor.primitives_per_op",
            per_op(PRIMITIVES),
            "count",
        ),
        ("collectives.plan_cache.hits", cache.hits as f64, "count"),
        (
            "collectives.plan_cache.misses",
            cache.misses as f64,
            "count",
        ),
        ("collectives.plan_cache.size", cache.size as f64, "count"),
        (
            "collectives.graph.nodes",
            graph.map_or(0, |g| g.len()) as f64,
            "count",
        ),
        (
            "collectives.graph.fused_nodes",
            graph.map_or(0, |g| g.fused_nodes()) as f64,
            "count",
        ),
        ("transport.wire_bytes_per_op", per_op(WIRE_BYTES), "B"),
        ("transport.chunks_per_op", per_op(CHUNKS), "count"),
        (
            "transport.edges",
            live.domain.edge_samples().len() as f64,
            "count",
        ),
        (
            "transport.full_rejections_per_op",
            per_op(FULL_REJECTIONS),
            "count",
        ),
        ("transport.empty_polls_per_op", per_op(EMPTY_POLLS), "count"),
        (
            "gpu-sim.device.global_peak_mib",
            live.ranks
                .iter()
                .map(|r| r.memory_usage().global_peak)
                .max()
                .unwrap_or(0) as f64
                / mib,
            "MiB",
        ),
        (
            "host.cpu_us_per_op",
            untraced.cpu_s * 1e6 / untraced.ops().max(1) as f64,
            "us",
        ),
        (
            "host.cpu_over_wall",
            untraced.cpu_s / untraced.wall_s,
            "ratio",
        ),
        ("host.steal_pct", untraced.steal_pct(), "%"),
        ("host.ops_per_s_median", untraced_est.median, "op/s"),
        ("host.ops_per_s_iqr_pct", untraced_est.iqr_pct, "%"),
        (
            "host.op_latency_p99_us",
            untraced.latency.quantile_ns(0.99).unwrap_or(0.0) / 1e3,
            "us",
        ),
        ("host.setup_cold_s", setup_cold_s, "s"),
        (
            "host.trace_overhead_pct",
            (untraced_est.near_best - traced_est.near_best) / untraced_est.near_best * 100.0,
            "%",
        ),
    ]
}
