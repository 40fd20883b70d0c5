#!/usr/bin/env bash
# Run the whole benchmark twice at smoke size and validate what it printed
# and wrote: names, units, counts of metrics, exact metrics identical between
# the two runs, trace files well formed. Timings are not judged here.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
run() { cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- --smoke --seed "$1"; }

run 1 >/dev/null
cp "$here/out/results.json" "$here/out/check-a.json"
run 2 >/dev/null
cp "$here/out/results.json" "$here/out/check-b.json"
python3 -B "$here/check_output.py" "$here/../BENCHMARK.json" \
    "$here/out/check-a.json" "$here/out/check-b.json" "$here/out"
