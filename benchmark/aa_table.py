#!/usr/bin/env python3
"""A/A table: two sets of results.json files of one build, judged by the
benchmark's own bounds.

usage: aa_table.py BENCHMARK.json DIR   (DIR holds A_*.json and B_*.json)

Per workload x end-to-end metric: both set medians, how much worse set B's
median is than set A's, the distance between the first and third quartile of
all 2N values (`statistics.quantiles(values, n=4)`) as a share of their
median, and pass/fail: difference and spread both within the metric's bound
(the spread of setup_s is shown but not judged, as in the PR driver's own
acceptance test). Exact metrics must not differ at all, across every run of
both sets.
"""
import json
import statistics
import sys
from pathlib import Path

from check_output import exact_names


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    bench = json.loads(Path(sys.argv[1]).read_text())
    sets = {
        tag: [json.loads(p.read_text())["results"] for p in sorted(Path(sys.argv[2]).glob(f"{tag}_*.json"))]
        for tag in "AB"
    }
    n = len(sets["A"])
    assert n >= 2 and len(sets["B"]) == n, "need two sets of at least 2 runs each"
    exact = exact_names(Path(__file__).with_name("exact_metrics.txt"))
    failures = 0

    print(f"Two interleaved sets of {n} full runs of the same build, each run with another seed.\n")
    print("| workload | metric | unit | median A | median B | B worse by | spread of all | bound | verdict |")
    print("|---|---|---|---:|---:|---:|---:|---:|---|")
    for w in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[w][name]["value"] for r in sets["A"]]
            b = [r[w][name]["value"] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            ok = abs(worse) <= bound and (name == "setup_s" or spread(a + b) <= bound)
            failures += not ok
            print(f"| {w} | {name} | {m['unit']} | {med_a:.6g} | {med_b:.6g} | {worse:+.2%} | "
                  f"{spread(a + b):.2%} | {bound:.1%} | {'pass' if ok else 'FAIL'} |")

    runs = sets["A"] + sets["B"]
    differing = []
    for w in runs[0]:
        for name in sorted(exact & set(runs[0][w])):
            values = {r[w][name]["value"] for r in runs}
            if len(values) != 1:
                differing.append(f"{w} {name}: {sorted(values)}")
    checked = sum(len(exact & set(runs[0][w])) for w in runs[0])
    print(f"\nExact metrics (counts and model outputs) compared across all {2 * n} runs: "
          f"{checked} workload x metric pairs, {len(differing)} differ.")
    for d in differing:
        print(f"- DIFFERS: {d}")
    contended = sorted({w for r in runs for w in r if r[w].get("host.contended", {}).get("value")})
    print(f"\nWorkloads flagged `contended` in at least one run: {', '.join(contended) or 'none'}.")
    return 1 if failures or differing else 0


if __name__ == "__main__":
    sys.exit(main())
