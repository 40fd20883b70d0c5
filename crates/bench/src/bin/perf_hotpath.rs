//! `perf_hotpath` — the scheduling-throughput trajectory benchmark.
//!
//! Measures domain-wide collectives/sec through the full DFCCL hot path
//! (invoker → SQ → daemon kernel → CQ → poller → callback) for 2/4/8
//! simulated GPUs, plus the Fig. 7(c) per-variant CQE-publication costs.
//! Results are printed as a table and written to `BENCH_hotpath.json` so
//! every future PR can track the trajectory.
//!
//! Usage:
//! ```text
//! perf_hotpath [--repeats 3] [--collectives 16] [--rounds 4] \
//!              [--replay-collectives 4096] [--replay-rounds 16] [--out BENCH_hotpath.json]
//! ```

use std::fmt::Write as _;

use dfccl::CqVariant;
use dfccl_bench::hotpath::{
    batched_config, best_multi_tenant_of, best_of, best_recovery_of, best_replay_of,
    cq_push_batched_cost_us, cq_push_cost_us, registration_throughput,
    spmd_hit_registration_throughput, HotpathWorkload,
};
use dfccl_bench::{arg_num, arg_value, print_row};

const GPU_COUNTS: [usize; 3] = [2, 4, 8];
const REGISTRATION_GPU_COUNTS: [usize; 2] = [4, 8];
const REPLAY_GPU_COUNTS: [usize; 2] = [4, 8];

fn main() {
    let repeats: usize = arg_num("--repeats", 3).max(1);
    let collectives: u64 = arg_num("--collectives", 16).max(1);
    let rounds: u64 = arg_num("--rounds", 8).max(1);
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());

    println!("# perf_hotpath — daemon scheduling throughput (collectives/sec)");
    println!(
        "# workload: {collectives} collectives x {rounds} rounds of tiny all-reduces, best of {repeats}"
    );
    let widths = [6, 14];
    print_row(&["gpus", "batched"].map(String::from), &widths);

    let mut results = Vec::new();
    for gpus in GPU_COUNTS {
        let workload = HotpathWorkload {
            gpus,
            collectives,
            rounds,
            count: 16,
        };
        let batched = best_of(repeats, workload, &batched_config()).collectives_per_sec;
        print_row(&[format!("{gpus}"), format!("{batched:.0}")], &widths);
        results.push((gpus, batched));
    }

    // Fig. 7(c): per-variant CQE publication cost under the modelled
    // host-memory costs, per entry and per batch of 16.
    println!();
    println!("# CQE publication cost (µs/CQE, modelled host-memory costs)");
    let cost_widths = [16, 12, 20];
    print_row(
        &["variant", "per-entry", "batched(16)/entry"].map(String::from),
        &cost_widths,
    );
    let variants = [
        ("vanilla_ring", CqVariant::VanillaRing),
        ("optimized_ring", CqVariant::OptimizedRing),
        ("optimized_slot", CqVariant::OptimizedSlot),
    ];
    let mut variant_costs = Vec::new();
    for (name, variant) in variants {
        let single = cq_push_cost_us(variant, 200);
        let batched = cq_push_batched_cost_us(variant, 16, 50);
        print_row(
            &[
                name.to_string(),
                format!("{single:.2}"),
                format!("{batched:.2}"),
            ],
            &cost_widths,
        );
        variant_costs.push((name, single, batched));
    }

    // Registration panel: cold vs plan-cache-hit registrations/sec.
    println!();
    println!("# registration throughput (registrations/sec)");
    let reg_widths = [6, 12, 14, 9];
    print_row(
        &["gpus", "cold", "cache-hit", "speedup"].map(String::from),
        &reg_widths,
    );
    let registrations: u64 = arg_num("--registrations", 256).max(1);
    let mut reg_results = Vec::new();
    for gpus in REGISTRATION_GPU_COUNTS {
        // Best-of like the throughput panels: registration is pure CPU work,
        // but shared runners still jitter.
        let reg = (0..repeats)
            .map(|_| registration_throughput(gpus, registrations))
            .max_by(|a, b| a.speedup().partial_cmp(&b.speedup()).expect("finite"))
            .expect("at least one repeat");
        print_row(
            &[
                format!("{gpus}"),
                format!("{:.0}", reg.cold_per_sec),
                format!("{:.0}", reg.hit_per_sec),
                format!("{:.2}x", reg.speedup()),
            ],
            &reg_widths,
        );
        reg_results.push((gpus, reg));
    }
    let hit_speedup_ok = reg_results.iter().all(|(_, r)| r.speedup() >= 5.0);
    println!();
    println!("plan-cache-hit speedup >= 5x at every scale: {hit_speedup_ok}");

    // Graph-replay panel: a captured iteration of tiny all-reduces replayed as
    // one SQE per round, compared against the domain-wide cache-hit
    // registration rate — the fastest way to make the same collectives
    // runnable without a graph is re-registering them on every rank, and both
    // wall clocks then cover all ranks' work. Plus the fusion win at identical
    // total payload.
    println!();
    println!("# graph replay (recorded collectives/sec, wall clock spans all ranks)");
    let replay_collectives: u64 = arg_num("--replay-collectives", 16384).max(1);
    let replay_count: usize = arg_num("--replay-count", 4).max(1);
    let replay_rounds: u64 = arg_num("--replay-rounds", 16).max(1);
    let replay_widths = [6, 8, 14, 16, 14];
    print_row(
        &[
            "gpus",
            "nodes",
            "replayed/sec",
            "spmd-hit reg/s",
            "replay ratio",
        ]
        .map(String::from),
        &replay_widths,
    );
    let mut replay_results = Vec::new();
    for gpus in REPLAY_GPU_COUNTS {
        let replay = best_replay_of(
            repeats,
            gpus,
            replay_collectives,
            replay_count,
            replay_rounds,
            true,
        );
        let spmd_hit = (0..repeats)
            .map(|_| spmd_hit_registration_throughput(gpus, registrations))
            .fold(f64::NEG_INFINITY, f64::max);
        let ratio = replay.replayed_per_sec / spmd_hit;
        print_row(
            &[
                format!("{gpus}"),
                format!("{}", replay.graph_nodes),
                format!("{:.0}", replay.replayed_per_sec),
                format!("{spmd_hit:.0}"),
                format!("{ratio:.2}x"),
            ],
            &replay_widths,
        );
        replay_results.push((gpus, replay, spmd_hit, ratio));
    }

    // Fusion comparison: same recorded step (count × collectives), fused into
    // one node vs. kept as one node per collective (`fusion_threshold_bytes =
    // 0`). A smaller step than the replay arm keeps the unfused arm — which
    // pays full per-collective scheduling — from dominating the wall-clock.
    let fusion_collectives: u64 = arg_num("--fusion-collectives", 256).max(1);
    let fusion_rounds: u64 = arg_num("--fusion-rounds", 4).max(1);
    let fused = best_replay_of(
        repeats,
        8,
        fusion_collectives,
        replay_count,
        fusion_rounds,
        true,
    );
    let unfused = best_replay_of(
        repeats,
        8,
        fusion_collectives,
        replay_count,
        fusion_rounds,
        false,
    );
    let fusion_speedup = fused.replayed_per_sec / unfused.replayed_per_sec;
    println!();
    println!(
        "fused {} all-reduces -> {} node(s): {:.0}/sec vs unfused {:.0}/sec = {:.2}x",
        fusion_collectives,
        fused.graph_nodes,
        fused.replayed_per_sec,
        unfused.replayed_per_sec,
        fusion_speedup
    );
    let replay_ratio_at_8 = replay_results
        .iter()
        .find(|(g, _, _, _)| *g == 8)
        .map(|(_, _, _, ratio)| *ratio)
        .unwrap_or(f64::NAN);
    let replay_ok = replay_ratio_at_8 >= 3.0;
    let fusion_ok = fusion_speedup >= 2.0;
    println!("replay >= 3x cache-hit registration at 8 GPUs: {replay_ok}");
    println!("fused >= 2x unfused at same total payload: {fusion_ok}");

    // Telemetry panel: the hot path with the default event ring (counters +
    // bounded event stream) vs. events disabled (`telemetry_events = 0`,
    // counters only). The instrumentation is accepted if it costs at most 10%
    // of the uninstrumented scheduling rate at 4 GPUs.
    let telemetry_workload = HotpathWorkload {
        gpus: 4,
        collectives,
        rounds,
        count: 16,
    };
    let instrumented = best_of(repeats, telemetry_workload, &batched_config()).collectives_per_sec;
    let uninstrumented = best_of(
        repeats,
        telemetry_workload,
        &batched_config().with_telemetry(0),
    )
    .collectives_per_sec;
    // Clamp at zero: on noisy runners the instrumented arm can win the
    // best-of lottery outright, which is a 0% overhead, not a negative one.
    let telemetry_overhead_pct =
        ((uninstrumented - instrumented) / uninstrumented * 100.0).max(0.0);
    let telemetry_ok = telemetry_overhead_pct <= 10.0;
    println!();
    println!("# telemetry instrumentation overhead (4 GPUs, event ring vs counters-only)");
    println!(
        "instrumented {instrumented:.0}/sec vs uninstrumented {uninstrumented:.0}/sec = {telemetry_overhead_pct:.1}% overhead (bar <= 10%): {telemetry_ok}"
    );

    // Recovery panel: the same fault-free workload run plain vs under a
    // RecoveryCoordinator's supervision (watchdog progress probe + stall
    // bookkeeping). Standing recovery coverage is accepted if it costs at
    // most 5% of the unsupervised scheduling rate at 4 GPUs.
    let recovery_workload = HotpathWorkload {
        gpus: 4,
        collectives,
        rounds,
        count: 16,
    };
    let supervised =
        best_recovery_of(repeats, recovery_workload, &batched_config(), true).collectives_per_sec;
    let unsupervised =
        best_recovery_of(repeats, recovery_workload, &batched_config(), false).collectives_per_sec;
    // Clamp at zero like the telemetry panel: on noisy runners the supervised
    // arm can win the best-of lottery outright.
    let recovery_overhead_pct = ((unsupervised - supervised) / unsupervised * 100.0).max(0.0);
    let recovery_ok = recovery_overhead_pct <= 5.0;
    println!();
    println!("# recovery supervision overhead (4 GPUs, fault-free, watchdog + coordinator armed)");
    println!(
        "supervised {supervised:.0}/sec vs unsupervised {unsupervised:.0}/sec = {recovery_overhead_pct:.1}% overhead (bar <= 5%): {recovery_ok}"
    );

    // Tenancy panel: the staged service-mode scheduler must not tax the
    // single-tenant hot path. Three arms at 4 GPUs: the pre-refactor flat
    // scheduling path (`legacy_flat_scheduling`), the staged pipeline with
    // one (default) tenant — which takes the single-active-lane passthrough —
    // and a 4-tenant weighted-fair mix of the same total workload. Gate:
    // staged single-tenant throughput within 5% of the flat path.
    let tenancy_workload = HotpathWorkload {
        gpus: 4,
        collectives,
        rounds,
        count: 16,
    };
    let tenancy_tenants = 4usize;
    let flat_path = best_of(
        repeats,
        tenancy_workload,
        &batched_config().legacy_flat_scheduling(),
    )
    .collectives_per_sec;
    let staged_path = best_of(repeats, tenancy_workload, &batched_config()).collectives_per_sec;
    let multi_tenant = best_multi_tenant_of(
        repeats,
        tenancy_workload,
        &batched_config(),
        tenancy_tenants,
    )
    .collectives_per_sec;
    let staged_over_flat = staged_path / flat_path;
    let tenancy_ok = staged_over_flat >= 0.95;
    println!();
    println!("# tenancy panel (4 GPUs): staged service-mode daemon vs pre-refactor flat path");
    println!(
        "flat {flat_path:.0}/sec vs staged {staged_path:.0}/sec = {staged_over_flat:.3}x \
         (bar >= 0.95): {tenancy_ok}; {tenancy_tenants}-tenant weighted-fair {multi_tenant:.0}/sec"
    );

    let ordering_ok =
        variant_costs[0].1 > variant_costs[1].1 && variant_costs[1].1 > variant_costs[2].1;
    println!();
    println!(
        "Fig. 7(c) ordering (slot < optimized ring < vanilla ring): {}",
        if ordering_ok { "preserved" } else { "VIOLATED" }
    );

    // Hand-rolled JSON (no serialization dependency in this environment).
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"hotpath\",\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"collectives\": {collectives}, \"rounds\": {rounds}, \"count\": 16, \"repeats\": {repeats}}},"
    );
    // Every panel depends on how many ranks' threads can run at once.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(json, "  \"host\": {{\"available_parallelism\": {cores}}},");
    json.push_str("  \"throughput\": [\n");
    for (i, (gpus, batched)) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"gpus\": {gpus}, \"batched_collectives_per_sec\": {batched:.1}}}"
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"cq_variant_cost_us\": {\n");
    for (i, (name, single, batched)) in variant_costs.iter().enumerate() {
        let _ = write!(
            json,
            "    \"{name}\": {{\"per_entry\": {single:.3}, \"batched16_per_entry\": {batched:.3}}}"
        );
        json.push_str(if i + 1 < variant_costs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  },\n");
    json.push_str("  \"registration\": {\n");
    let _ = writeln!(json, "    \"registrations\": {registrations},");
    json.push_str("    \"throughput\": [\n");
    for (i, (gpus, reg)) in reg_results.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"gpus\": {}, \"cold_per_sec\": {:.1}, \"cache_hit_per_sec\": {:.1}, \"speedup\": {:.3}, \"cache\": {{\"hits\": {}, \"misses\": {}, \"size\": {}}}}}",
            gpus,
            reg.cold_per_sec,
            reg.hit_per_sec,
            reg.speedup(),
            reg.cache.hits,
            reg.cache.misses,
            reg.cache.size
        );
        json.push_str(if i + 1 < reg_results.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ],\n");
    let _ = writeln!(json, "    \"hit_speedup_at_least_5x\": {hit_speedup_ok}");
    json.push_str("  },\n");
    json.push_str("  \"graph_replay\": {\n");
    let _ = writeln!(
        json,
        "    \"collectives\": {replay_collectives}, \"count\": {replay_count}, \"rounds\": {replay_rounds},"
    );
    json.push_str("    \"throughput\": [\n");
    for (i, (gpus, replay, spmd_hit, ratio)) in replay_results.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"gpus\": {}, \"replayed_per_sec\": {:.1}, \"graph_nodes\": {}, \"fused_nodes\": {}, \"spmd_cache_hit_per_sec\": {:.1}, \"ratio_vs_cache_hit_registration\": {:.3}}}",
            gpus, replay.replayed_per_sec, replay.graph_nodes, replay.fused_nodes, spmd_hit, ratio
        );
        json.push_str(if i + 1 < replay_results.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ],\n");
    let _ = writeln!(
        json,
        "    \"fusion\": {{\"collectives\": {}, \"rounds\": {}, \"fused_per_sec\": {:.1}, \"unfused_per_sec\": {:.1}, \"speedup\": {:.3}}},",
        fusion_collectives,
        fusion_rounds,
        fused.replayed_per_sec,
        unfused.replayed_per_sec,
        fusion_speedup
    );
    let _ = writeln!(
        json,
        "    \"replay_ge_3x_cache_hit_at_8gpus\": {replay_ok},"
    );
    let _ = writeln!(json, "    \"fused_ge_2x_unfused\": {fusion_ok}");
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"telemetry\": {{\"gpus\": 4, \"instrumented_per_sec\": {instrumented:.1}, \"uninstrumented_per_sec\": {uninstrumented:.1}, \"overhead_pct\": {telemetry_overhead_pct:.2}, \"overhead_le_10pct\": {telemetry_ok}}},"
    );
    let _ = writeln!(
        json,
        "  \"recovery\": {{\"gpus\": 4, \"supervised_per_sec\": {supervised:.1}, \"unsupervised_per_sec\": {unsupervised:.1}, \"overhead_pct\": {recovery_overhead_pct:.2}, \"overhead_le_5pct\": {recovery_ok}}},"
    );
    let _ = writeln!(
        json,
        "  \"tenancy\": {{\"panel\": \"tenancy\", \"gpus\": 4, \"tenants\": {tenancy_tenants}, \"flat_per_sec\": {flat_path:.1}, \"staged_per_sec\": {staged_path:.1}, \"staged_over_flat\": {staged_over_flat:.3}, \"multi_tenant_per_sec\": {multi_tenant:.1}, \"staged_within_5pct\": {tenancy_ok}}},"
    );
    let _ = writeln!(json, "  \"fig7c_ordering_preserved\": {ordering_ok}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");

    if !ordering_ok {
        eprintln!("WARNING: CQ variant cost ordering violated");
        std::process::exit(3);
    }
    if !hit_speedup_ok {
        eprintln!("WARNING: plan-cache-hit registration speedup below the 5x acceptance bar");
        std::process::exit(2);
    }
    if !replay_ok {
        eprintln!("WARNING: graph replay below 3x cache-hit registration at 8 GPUs");
        std::process::exit(2);
    }
    if !fusion_ok {
        eprintln!("WARNING: fused small-all-reduce throughput below 2x unfused");
        std::process::exit(2);
    }
    if !telemetry_ok {
        eprintln!("WARNING: telemetry instrumentation overhead above the 10% acceptance bar");
        std::process::exit(2);
    }
    if !recovery_ok {
        eprintln!("WARNING: recovery supervision overhead above the 5% acceptance bar");
        std::process::exit(2);
    }
    if !tenancy_ok {
        eprintln!("WARNING: staged service-mode daemon regresses single-tenant throughput past 5%");
        std::process::exit(2);
    }
}
