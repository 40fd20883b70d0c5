//! The repository benchmark. See README.md beside this crate.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints its metrics as `workload metric value unit`
//!   lines followed by one JSON result line (the `BENCHMARK.json` contract:
//!   end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).
//! * Without `--workload` it runs every workload, untraced then traced, each
//!   in a child process of its own (so peak memory is per workload), and
//!   writes `out/results.json` next to the per-workload `out/trace-*.json`.

mod driver;
mod host;
mod json;
mod layers;
mod probes;
mod rng;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;

use driver::{Budget, Driver, Pass};
use json::Json;
use stats::{pct, SegmentEstimate};
use workload::{Inputs, Live, Spec, SPECS};

/// Fresh set-ups per run, each followed by its share of the measurement.
const EPOCHS: usize = 21;
const SMOKE_EPOCHS: usize = 3;
const WARMUP_SEGMENTS: usize = 1;
const MIN_SEGMENTS_PER_EPOCH: usize = 2;
/// A workload is flagged `contended` when the hypervisor stole more than this
/// share of the guest's vCPU time while it was measured (or when its median
/// segment fell below 80 % of its near-best one).
const MAX_STEAL_PCT: f64 = 5.0;
/// Bookkeeping lines both children of a workload print.
const SUMMED: [&str; 3] = ["ops_attempted", "ops_failed", "host.contended"];
/// The pseudo-workload name the single-threaded probes are reported under.
const PROBES: &str = "probes";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// How long a workload measures; 15 s unless given (0.5 s with `--smoke`).
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0.0 {
        args.seconds = if args.smoke { 0.5 } else { 15.0 };
    }
    Ok(args)
}

/// `benchmark/out`, created on demand. `cargo run` exports the manifest
/// directory at run time; a binary started by hand falls back to where it
/// was built.
fn out_dir() -> std::io::Result<PathBuf> {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = PathBuf::from(manifest).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

type Metric = (&'static str, f64, &'static str);

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| (name, metric_json(value, unit))),
    )
}

/// What a run's epochs measured, and the last epoch's domain, still live.
struct Measured {
    live: Live,
    setup_times: Vec<f64>,
    /// The last set-up's phase spans.
    setup_spans: Vec<workload::SetupSpan>,
    warmup: Pass,
    untraced: Pass,
    /// Empty unless the run is traced.
    traced: Pass,
    /// What the library's counters advanced by during `traced`.
    during_traced: layers::Counters,
    /// The spans of the last traced segment.
    spans: Vec<driver::OpSpan>,
}

/// Run the epochs of a workload. Each epoch is a fresh, timed set-up (new
/// domain, new daemon and poller threads, new buffers), a warm-up segment
/// and its share of the measuring time; all but the last are then destroyed.
///
/// Which daemon ends up sharing a vCPU with which, and where its queues land
/// in memory, is settled per set-up and moves throughput by ±10 % on this
/// host; pooling segments over many set-ups measures the workload, not one
/// draw of that lottery. A traced run alternates untraced and traced
/// segments inside every epoch, so the tracing overhead compares like with
/// like.
fn measure(spec: Spec, args: &Args) -> Result<Measured, String> {
    let inputs = Arc::new(Inputs::generate(&spec, args.seed));
    let epochs = if args.smoke { SMOKE_EPOCHS } else { EPOCHS };
    let passes_per_epoch = if args.trace { 2.0 } else { 1.0 };
    let budget = Budget {
        seconds: args.seconds / epochs as f64 / passes_per_epoch,
        min_segments: MIN_SEGMENTS_PER_EPOCH,
    };
    let warmup_budget = Budget {
        seconds: 0.0,
        min_segments: WARMUP_SEGMENTS,
    };
    let mut driver = Driver::new(&spec, args.seed);
    let mut last = None;
    let (mut warmup, mut untraced, mut traced) =
        (Pass::default(), Pass::default(), Pass::default());
    let mut during_traced = layers::Counters::default();
    let mut setup_times = Vec::with_capacity(epochs);
    let mut setup_spans = Vec::new();
    for epoch in 0..epochs {
        let bufs = workload::allocate(&spec, &inputs);
        setup_spans.clear();
        let t0 = host::now_ns();
        let mut live = Live::set_up(spec, Arc::clone(&inputs), bufs, &mut setup_spans)?;
        setup_times.push((host::now_ns() - t0) as f64 / 1e9);

        driver.run_pass(&mut live, warmup_budget, false, &mut warmup);
        if warmup.aborted.is_none() {
            driver.run_pass(&mut live, budget, false, &mut untraced);
        }
        if args.trace && warmup.aborted.is_none() && untraced.aborted.is_none() {
            let before = layers::Counters::snapshot(&live);
            driver.run_pass(&mut live, budget, true, &mut traced);
            during_traced.add_delta(&before, &layers::Counters::snapshot(&live));
        }
        let aborted = [&warmup, &untraced, &traced]
            .iter()
            .any(|p| p.aborted.is_some());
        if aborted || epoch + 1 == epochs {
            last = Some(live);
            break;
        }
        live.tear_down();
    }
    Ok(Measured {
        live: last.expect("at least one epoch"),
        setup_times,
        setup_spans,
        warmup,
        untraced,
        spans: if traced.segments() > 0 && traced.aborted.is_none() {
            driver.last_segment_spans(&spec)
        } else {
            Vec::new()
        },
        traced,
        during_traced,
    })
}

fn report_problems(name: &str, pass: &Pass) {
    for bad in &pass.bad_segments {
        eprintln!("{name}: {bad}");
    }
    if let Some(why) = &pass.aborted {
        eprintln!("{name}: aborted: {why}");
    }
}

/// Run one workload in this process and print its result.
fn run_workload(spec: Spec, args: &Args) -> Result<ExitCode, String> {
    let spec = if args.smoke { spec.smoke() } else { spec };
    let name = spec.name;
    let Measured {
        live,
        setup_times,
        setup_spans,
        warmup,
        untraced,
        traced,
        during_traced,
        spans,
    } = measure(spec, args)?;
    let passes = [warmup, untraced, traced];
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let aborted = passes.iter().any(|p| p.aborted.is_some());
    for pass in &passes {
        report_problems(name, pass);
    }
    println!("{name} ops_attempted {attempted} count");
    println!("{name} ops_failed {failed} count");
    if aborted {
        // A wedged domain cannot be measured or torn down; report the
        // failure and leave its threads to process exit.
        let result = Json::obj([
            ("correct", Json::Bool(false)),
            ("attempted", Json::Int(attempted.max(1))),
            ("failed", Json::Int(failed)),
            ("metrics", Json::Obj(Vec::new())),
        ]);
        println!("{}", result.render());
        std::process::exit(1);
    }

    let modelled_us = live.modelled_us_per_op()?;
    let [_, measured, traced] = &passes;
    let (layer_metrics, probe_metrics) = if args.trace {
        (
            layers::metrics(&live, &during_traced, traced, measured, setup_times[0]),
            probes::run_all(args.smoke),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    let estimate = SegmentEstimate::from_rates(&measured.rates);
    let end_to_end: Vec<Metric> = vec![
        ("ops_per_s", estimate.near_best, "op/s"),
        (
            "op_latency_p50_us",
            measured
                .latency
                .quantile_ns(0.5)
                .ok_or("no op was measured")?
                / 1e3,
            "us",
        ),
        ("modelled_cost_per_op", modelled_us, "model_us"),
        ("setup_s", pct(&setup_times, 0.5), "s"),
        (
            "peak_rss_mib",
            host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
            "MiB",
        ),
    ];
    let mut reported = if args.trace {
        layer_metrics
    } else {
        end_to_end
    };
    for (metric, value, unit) in &reported {
        println!("{name} {metric} {value} {unit}");
    }
    // Probes do not depend on the workload; the all-workloads parent reports
    // them once, under this name.
    for (metric, value, unit) in &probe_metrics {
        println!("{PROBES} {metric} {value} {unit}");
    }
    reported.extend(probe_metrics);
    if !args.trace {
        println!(
            "{name} note: n={} ops in {} segments of {}, {} set-ups, host.ops_per_s_median {:.1}, \
             cpu/wall {:.2}, steal {:.1} %, {} threads available",
            measured.latency.len(),
            measured.rates.len(),
            spec.ops_per_segment,
            setup_times.len(),
            estimate.median,
            measured.cpu_s / measured.wall_s,
            measured.steal_pct(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
    }
    // The interference report: not a gate for one workload, but nobody
    // should trust numbers taken while the host was busy elsewhere.
    let contended = estimate.contended() || measured.steal_pct() > MAX_STEAL_PCT;
    println!("{name} host.contended {} flag", contended as u8);
    // Smoke-sized segments are too short to judge the host by.
    if contended && !args.smoke {
        eprintln!(
            "{name}: contended: median segment {:.0} op/s against near-best {:.0} op/s, {:.1} % of vCPU time stolen",
            estimate.median,
            estimate.near_best,
            measured.steal_pct()
        );
    }

    if args.trace {
        let path = out_dir()
            .map_err(|e| format!("creating out/: {e}"))?
            .join(format!("trace-{name}.json"));
        // Keep the file openable: at most the last 1000 ops of the last
        // traced segment.
        let per_op = 1 + 2 * spec.subs_per_op;
        let keep = spans.len().min(1000 * per_op);
        let doc = trace::chrome_trace(name, &setup_spans, &spans[spans.len() - keep..]);
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    live.tear_down();

    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metrics_json(&reported)),
    ]);
    println!("{}", result.render());
    Ok(ExitCode::SUCCESS)
}

/// One `workload metric value unit` line of a child's output.
fn parse_metric_line(line: &str) -> Option<(String, String, f64, String)> {
    let mut it = line.split_whitespace();
    let (workload, metric, value, unit) = (it.next()?, it.next()?, it.next()?, it.next()?);
    if it.next().is_some() {
        return None;
    }
    Some((
        workload.to_string(),
        metric.to_string(),
        value.parse().ok()?,
        unit.to_string(),
    ))
}

/// Run every workload, untraced then traced, each in its own child process.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!(
        "# seed {} seconds {} smoke {} threads {}",
        args.seed,
        args.seconds,
        args.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    // workload -> metric -> (value, unit); probe values of every traced child.
    let mut results: BTreeMap<String, BTreeMap<String, (f64, String)>> = BTreeMap::new();
    let mut probe_values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut all_ok = true;
    for spec in SPECS {
        println!("# {}: {}", spec.name, spec.why);
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
            all_ok &= out.status.success();
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                let Some((workload, metric, value, unit)) = parse_metric_line(line) else {
                    if !line.starts_with('{') {
                        println!("{line}");
                    }
                    continue;
                };
                if workload == PROBES {
                    let entry = probe_values.entry(metric).or_insert((Vec::new(), unit));
                    entry.0.push(value);
                    continue;
                }
                // Both children report these; keep the sum and print it once.
                let summed = SUMMED.contains(&metric.as_str());
                if !summed {
                    println!("{line}");
                }
                let slot = results.entry(workload).or_default();
                match slot.get_mut(&metric) {
                    Some(prev) if summed => prev.0 += value,
                    _ => {
                        slot.insert(metric, (value, unit));
                    }
                }
            }
        }
        let w = &results[spec.name];
        for key in SUMMED {
            let (value, unit) = w.get(key).ok_or(format!("{}: no {key} line", spec.name))?;
            println!("{} {key} {value} {unit}", spec.name);
        }
        all_ok &= w.get("ops_failed").is_some_and(|m| m.0 == 0.0);
    }
    // Probes are single-threaded and workload-independent: every traced child
    // ran them, so report the median of the children's values, once.
    let probes: BTreeMap<String, (f64, String)> = probe_values
        .into_iter()
        .map(|(name, (values, unit))| (name, (pct(&values, 0.5), unit)))
        .collect();
    for (name, (value, unit)) in &probes {
        println!("{PROBES} {name} {value} {unit}");
    }
    results.insert(PROBES.to_string(), probes);

    let contended: Vec<&str> = SPECS
        .iter()
        .map(|s| s.name)
        .filter(|n| results[*n].get("host.contended").is_some_and(|m| m.0 > 0.0))
        .collect();
    println!("# contended workloads: {contended:?}");

    let doc =
        Json::obj([
            ("seed", Json::Int(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("smoke", Json::Bool(args.smoke)),
            (
                "results",
                Json::obj(results.iter().map(|(workload, metrics)| {
                    (
                        workload.as_str(),
                        Json::obj(metrics.iter().map(|(name, (value, unit))| {
                            (name.as_str(), metric_json(*value, unit))
                        })),
                    )
                })),
            ),
        ]);
    let path = out_dir()
        .map_err(|e| format!("creating out/: {e}"))?
        .join("results.json");
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());

    // Smoke-sized segments are too short to judge the host by.
    if contended.len() == SPECS.len() && !args.smoke {
        eprintln!(
            "every workload was contended: the host was busy, these numbers should not be trusted"
        );
        return Ok(ExitCode::from(2));
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let run = || -> Result<ExitCode, String> {
        let args = parse_args()?;
        match &args.workload {
            Some(name) => {
                let spec = workload::spec(name).ok_or_else(|| {
                    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {name}; one of {names:?}")
                })?;
                run_workload(spec, &args)
            }
            None => run_all(&args),
        }
    };
    run().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_round_trip() {
        assert_eq!(
            parse_metric_line("small_pipelined ops_per_s 18312.5 op/s"),
            Some((
                "small_pipelined".to_string(),
                "ops_per_s".to_string(),
                18312.5,
                "op/s".to_string()
            ))
        );
        assert_eq!(parse_metric_line("# a comment line with words"), None);
        assert_eq!(parse_metric_line("w note: n=5 ops"), None);
        assert_eq!(parse_metric_line("{\"correct\":true}"), None);
    }

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let metrics: Vec<Metric> = vec![("setup_s", 0.25, "s")];
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(10)),
            ("failed", Json::Int(0)),
            ("metrics", metrics_json(&metrics)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}
