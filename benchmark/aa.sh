#!/usr/bin/env bash
# A/A test: two interleaved sets of N full runs of the same build, judged by
# the benchmark's own bounds (see aa_table.py). Prints a markdown table;
# `./aa.sh 5` takes about 2 x N x 3.5 minutes; results/aa.md records one such table.
set -euo pipefail
n="${1:?usage: aa.sh N [SECONDS]}"
seconds="${2:-15}"
here="$(cd "$(dirname "$0")" && pwd)"
dir="$here/out/aa"
rm -rf "$dir" && mkdir -p "$dir"
seed=0
for i in $(seq 1 "$n"); do
    for tag in A B; do
        seed=$((seed + 1))
        cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- \
            --seed "$seed" --seconds "$seconds" >"$dir/${tag}_$i.log" || {
            echo "run ${tag}_$i failed, see $dir/${tag}_$i.log" >&2
            exit 1
        }
        cp "$here/out/results.json" "$dir/${tag}_$i.json"
    done
done
python3 -B "$here/aa_table.py" "$here/../BENCHMARK.json" "$dir"
