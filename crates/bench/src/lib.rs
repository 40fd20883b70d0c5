//! # dfccl-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `DESIGN.md` for the full
//! experiment index), plus Criterion micro-benchmarks. This library holds the
//! small shared utilities the harness binaries use: table printing, buffer
//! size sweeps, and common argument parsing.

use std::time::Duration;

use dfccl_collectives::{
    algorithm, estimate_family_ns, AlgorithmKind, CollectiveDescriptor, DEFAULT_CHUNK_ELEMS,
};
use dfccl_transport::{LinkModel, Topology};

/// Modelled completion time of `desc` under `algo` over `topo` with the
/// Table 2 link parameters at the chunk ladder's first rung
/// ([`DEFAULT_CHUNK_ELEMS`], 32 Ki elements), in microseconds — the estimate
/// the selector minimises over families and chunk rungs
/// ([`dfccl_collectives::AlgorithmSelector::choose`]), taken at one rung, so
/// the Fig. 8 per-family columns show where a larger chunk wins. `None` when
/// the algorithm cannot schedule the descriptor over this topology.
pub fn modelled_completion_us(
    desc: &CollectiveDescriptor,
    algo: AlgorithmKind,
    topo: &Topology,
) -> Option<f64> {
    if !algorithm(algo).supports(desc, topo) {
        return None;
    }
    let ns = estimate_family_ns(
        desc,
        algo,
        DEFAULT_CHUNK_ELEMS,
        topo,
        &LinkModel::table2_testbed(),
    )
    .expect("a supported family builds an acyclic plan set");
    Some(ns / 1_000.0)
}

/// The number given as `--key value` in `args`, or `default` when `--key` is
/// absent. A key with no value after it, or a value that does not parse, is an
/// error: a figure must never be regenerated at parameters nobody asked for.
fn parse_arg<T>(args: &[String], key: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(default);
    };
    let value = args.get(i + 1).ok_or("missing value")?;
    value.parse().map_err(|e| format!("{value:?}: {e}"))
}

/// Parse a `--key value` command-line argument as a number, with a default
/// when the key is absent. Bad input prints `--key: <error>` and exits 2.
pub fn arg_num<T>(key: &str, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, key, default).unwrap_or_else(|e| {
        eprintln!("{key}: {e}");
        std::process::exit(2)
    })
}

/// The buffer-size sweep used by the NCCL-tests-style benchmarks (Fig. 8):
/// powers of two from `from` to `to` bytes inclusive.
pub fn byte_sweep(from: usize, to: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut b = from.max(1);
    while b <= to {
        out.push(b);
        b *= 2;
    }
    out
}

/// Format a byte count the way nccl-tests does (512, 1K, 4M, ...).
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1024 * 1024 && bytes.is_multiple_of(1024 * 1024) {
        format!("{}M", bytes / (1024 * 1024))
    } else if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}")
    }
}

/// Format a duration in microseconds with two decimals.
pub fn fmt_us(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6)
}

/// Algorithm bandwidth in GB/s as nccl-tests defines it: payload bytes divided
/// by end-to-end time.
pub fn algo_bandwidth_gbps(bytes: usize, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    bytes as f64 / elapsed.as_secs_f64() / 1e9
}

/// Print a row of right-aligned columns.
pub fn print_row(cols: &[String], widths: &[usize]) {
    let line: Vec<String> = cols
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_sweep_is_powers_of_two() {
        let s = byte_sweep(512, 4096);
        assert_eq!(s, vec![512, 1024, 2048, 4096]);
        assert!(byte_sweep(8, 4).is_empty());
    }

    #[test]
    fn byte_formatting_matches_nccl_tests_style() {
        assert_eq!(fmt_bytes(512), "512");
        assert_eq!(fmt_bytes(2048), "2K");
        assert_eq!(fmt_bytes(4 * 1024 * 1024), "4M");
        assert_eq!(fmt_bytes(1536), "1536");
    }

    #[test]
    fn bandwidth_and_time_formatting() {
        let bw = algo_bandwidth_gbps(1_000_000_000, Duration::from_secs(1));
        assert!((bw - 1.0).abs() < 1e-9);
        assert_eq!(algo_bandwidth_gbps(1, Duration::ZERO), 0.0);
        assert_eq!(fmt_us(Duration::from_micros(45)), "45.00");
    }

    #[test]
    fn arg_num_falls_back_to_default() {
        assert_eq!(arg_num("--definitely-not-passed", 42usize), 42);
    }

    #[test]
    fn parse_arg_rejects_what_it_cannot_honour() {
        let args: Vec<String> = ["fig8", "--iters", "7", "--bad", "1O", "--last"]
            .map(String::from)
            .to_vec();
        assert_eq!(parse_arg(&args, "--absent", 3usize), Ok(3));
        assert_eq!(parse_arg(&args, "--iters", 3usize), Ok(7));
        let unparsable = parse_arg(&args, "--bad", 3usize).unwrap_err();
        assert!(unparsable.contains("1O"), "{unparsable}");
        assert_eq!(
            parse_arg(&args, "--last", 3usize),
            Err("missing value".to_string())
        );
    }
}
