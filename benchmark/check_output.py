#!/usr/bin/env python3
"""Validate two results.json files of the same build against BENCHMARK.json.

usage: check_output.py BENCHMARK.json RESULTS_A RESULTS_B OUT_DIR
"""
import json
import re
import sys
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BOOKKEEPING = {"ops_attempted", "ops_failed", "host.contended"}


def exact_names(path):
    lines = Path(path).read_text().splitlines()
    return {l.strip() for l in lines if l.strip() and not l.startswith("#")}


def main():
    bench_path, a_path, b_path, out_dir = sys.argv[1:5]
    bench = json.loads(Path(bench_path).read_text())
    runs = [json.loads(Path(p).read_text())["results"] for p in (a_path, b_path)]
    exact = exact_names(Path(__file__).with_name("exact_metrics.txt"))
    errors = []

    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if not (2 <= len(workloads) <= 8 and 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128):
        errors.append("BENCHMARK.json: too many or too few workloads / metrics")
    for name in [*workloads, *end_to_end, *per_layer]:
        if not NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")

    for tag, run in zip("AB", runs):
        probes = run.get("probes", {})
        for w in workloads:
            got = run.get(w)
            if got is None:
                errors.append(f"run {tag}: workload {w} missing")
                continue
            if got.get("ops_failed", {}).get("value") != 0 or not got.get("ops_attempted", {}).get("value"):
                errors.append(f"run {tag}: {w}: failed or no ops")
            for name, unit in end_to_end.items():
                if got.get(name, {}).get("unit") != unit:
                    errors.append(f"run {tag}: {w}: end-to-end {name} missing or unit differs")
            for name, unit in per_layer.items():
                have = got.get(name) or probes.get(name)
                if not have or have["unit"] != unit:
                    errors.append(f"run {tag}: {w}: per-layer {name} missing or unit differs")
            for name in got:
                if name not in end_to_end and name not in per_layer and name not in BOOKKEEPING:
                    errors.append(f"run {tag}: {w}: {name} is not in BENCHMARK.json")
        for name in probes:
            if name not in per_layer:
                errors.append(f"run {tag}: probe {name} is not in BENCHMARK.json")

    a, b = runs
    for w in [*workloads, "probes"]:
        for name in sorted(exact & set(a.get(w, {}))):
            va, vb = a[w][name]["value"], b.get(w, {}).get(name, {}).get("value")
            if va != vb:
                errors.append(f"exact metric {w} {name} differs: {va} vs {vb}")

    for w in workloads:
        path = Path(out_dir) / f"trace-{w}.json"
        try:
            events = json.loads(path.read_text())["traceEvents"]
        except (OSError, ValueError, KeyError) as e:
            errors.append(f"{path}: {e}")
            continue
        ops = {e["args"]["op"] for e in events if e["name"] == "op"}
        children = [e for e in events if e["name"].startswith(("submit[", "inflight["))]
        if not ops or not children:
            errors.append(f"{path}: no op or no child spans")
        orphans = [e for e in children if e["args"].get("op") not in ops]
        if orphans:
            errors.append(f"{path}: {len(orphans)} submit/inflight spans without an op parent")
        if not any(e["name"].startswith("setup.") for e in events):
            errors.append(f"{path}: no setup spans")

    for e in errors:
        print("check:", e)
    print(f"check: {len(workloads)} workloads, {len(end_to_end)} end-to-end and "
          f"{len(per_layer)} per-layer metrics, {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
