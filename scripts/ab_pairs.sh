#!/usr/bin/env bash
# A/B pairs of the benchmark: PARENT_REV against the working tree.
#
#   scripts/ab_pairs.sh PARENT_REV WORKLOAD SECONDS PAIRS [SEED]
#
# Exports PARENT_REV to a temporary directory (or, if it names a directory,
# takes the tree already exported there), builds the standalone ladder
# package of both trees, and runs BENCHMARK.json's command on WORKLOAD for
# SECONDS per run, PAIRS times on each side, alternating which side goes
# first (a shared host drifts; alternation keeps the drift out of the
# difference). Prints every run, then per end-to-end metric the two medians
# with [q1, q3], the change in percent, and in how many pairs the working
# tree read better. It drives the benchmark and edits nothing: a gain is
# claimed from this table (>= 9/10 pairs, medians further apart than the
# parent's q3 - q1), never from a single run.
set -euo pipefail

if [ $# -lt 4 ]; then
    sed -n '4p' "$0" >&2
    exit 2
fi
rev=$1 workload=$2 seconds=$3 pairs=$4 seed=${5:-7}

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if [ -d "$rev" ]; then
    parent=$(cd "$rev" && pwd)
else
    parent=$tmp/parent
    mkdir "$parent"
    git -C "$root" archive "$rev" | tar -x -C "$parent"
fi

manifest=crates/bench/src/bin/ladder/Cargo.toml
for tree in "$parent" "$root"; do
    (cd "$tree" && cargo build --release --quiet --manifest-path "$manifest")
done

# One run of BENCHMARK.json's command in tree $1; its JSON line on stdout.
run() {
    (cd "$1" && cargo run --release --quiet --manifest-path "$manifest" -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then tree=$parent; else tree=$root; fi
        line=$(run "$tree")
        echo "pair $i $side $line"
        echo "$i $side $line" >>"$tmp/runs"
    done
done

python3 - "$tmp/runs" <<'EOF'
import json, statistics, sys

runs = {"parent": [], "change": []}
for row in open(sys.argv[1]):
    _, side, line = row.split(" ", 2)
    runs[side].append(json.loads(line))
failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}

def summary(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return statistics.median(xs), q[0], q[2]

print(f"\n{'metric':<18} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} change   wins")
for name in runs["parent"][0]["metrics"]:
    a, b = ([r["metrics"][name]["value"] for r in runs[s]] for s in ("parent", "change"))
    (ma, la, ha), (mb, lb, hb) = summary(a), summary(b)
    wins = sum(y < x for x, y in zip(a, b))
    resolved = abs(ma - mb) > ha - la
    print(f"{name:<18} {f'{ma:.6g} [{la:.6g}, {ha:.6g}]':<34} {f'{mb:.6g} [{lb:.6g}, {hb:.6g}]':<34} "
          f"{100 * (mb - ma) / ma:+6.1f} %  {wins}/{len(a)}{'' if resolved else '  (within the parent spread)'}")
print(f"failed: parent {failed['parent']}, change {failed['change']}")
EOF
