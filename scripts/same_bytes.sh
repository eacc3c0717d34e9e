#!/usr/bin/env bash
# Same bytes as the parent: the simulated outputs of PARENT_REV and of the
# working tree, compared file by file.
#
#   scripts/same_bytes.sh PARENT_REV
#
# Exports PARENT_REV to a temporary directory (or, if it names a directory,
# takes the tree already exported there), as scripts/ab_pairs.sh does, and
# builds `bglsim` in both trees. Then it runs the same list through both
# binaries: `sweep --json` over every strategy, unpaced and under each pacer,
# around link and node faults, on a 4-D torus, at a multi-packet message
# size and on a coverage-sampled 4,096-node torus, and traced (healthy and
# around faults), so every sample's HOL count and FIFO occupancy is
# compared too; `validate --tier quick`;
# and `profile --json` on four points, each split in two files (host
# timings dropped): `.sim`, what was simulated — the whole report but its
# profile (cycles, hops, deliveries, every counter) and the profile's
# `peak_live_packets` and `slab_slots` — and `.work`, the work the clock did
# for it, one `name,value` row each: visits, parked nodes, stepped and
# skipped cycles, skips, `fresh_suppressions`, wake causes. It `cmp`s each
# output (stdout, stderr and exit code, and the `.sim` files) and exits 1 if
# any differs, naming the file. A `.work` file that differs is printed as a
# diff and fails nothing: a change to the clock is meant to move it. It
# edits nothing: a change that claims "byte-identical" is checked by running
# it against the change's parent.
set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '5p' "$0" >&2
    exit 2
fi
rev=$1

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

for tree in "$parent" "$root"; do
    (cd "$tree" && CARGO_TARGET_DIR="$tree/target" \
        cargo build --release --quiet -p bgl-harness --bin bglsim)
done

every=mpi,ar,dr,thr,tps,vmesh,xyz
# name | bglsim arguments
cases=(
    "sweep_8x4x4|sweep --shape 8x4x4 --strategies $every --sizes 64,912 --json"
    "sweep_8x4x4_credit|sweep --shape 8x4x4 --strategies $every --sizes 64,912 --pacer credit:4,2 --json"
    "sweep_8x4x4_rate|sweep --shape 8x4x4 --strategies $every --sizes 64,912 --pacer rate:0.05 --json"
    "sweep_8x8x4_rate_node_fault|sweep --shape 8x8x4 --strategies $every --sizes 240 --pacer rate:0.02 --fault node:21:@500-900 --json"
    "sweep_8x8x4_link_node_fault|sweep --shape 8x8x4 --strategies ar,dr,tps,xyz --sizes 240 --fault link:0,0,0,x+ --fault node:21:@500-900 --json"
    "sweep_4x4x4x4|sweep --shape 4x4x4x4 --strategies ar,dr,xyz --sizes 64 --json"
    "sweep_4x4x4_14592|sweep --shape 4x4x4 --strategies ar,dr,tps,vmesh --sizes 14592 --json"
    "sweep_8x32x16_coverage|sweep --shape 8x32x16 --strategies tps,ar --sizes 912 --coverage 0.001 --json"
    "sweep_8x4x4_traced|sweep --shape 8x4x4 --strategies ar,tps --sizes 912 --trace-interval 256 --json"
    "sweep_8x8x4_link_node_fault_traced|sweep --shape 8x8x4 --strategies ar,dr,tps,xyz --sizes 240 --fault link:0,0,0,x+ --fault node:21:@500-900 --trace-interval 64 --json"
    "validate_quick|validate --tier quick"
    "profile_4x4x4_ar|profile --shape 4x4x4 --strategy ar --m 14592 --json"
    "profile_4x8x4_tps|profile --shape 4x8x4 --strategy tps --m 912 --json"
    "profile_16x8x8_vmesh|profile --shape 16x8x8 --strategy vmesh --m 8 --json"
    "profile_8x8x8_ar|profile --shape 8x8x8 --strategy ar --m 240 --json"
)

# Split the profile report $1.out into $1.sim and $1.work.
split_profile() {
    python3 - "$1" <<'PY'
import json, sys

out = sys.argv[1]
report = json.load(open(out + ".out"))
perf = report.pop("perf")
del perf["total_secs"], perf["phases"]
report["packet_memory"] = {k: perf.pop(k) for k in ("peak_live_packets", "slab_slots")}
with open(out + ".sim", "w") as f:
    json.dump(report, f, indent=1, sort_keys=True)
    f.write("\n")
event = perf.pop("event")
histogram = event.pop("skip_histogram")
rows = list(perf.items()) + list(event.items())
rows += [(f"skip_len_2e{i}", n) for i, n in enumerate(histogram)]
with open(out + ".work", "w") as f:
    f.writelines(f"{k},{v}\n" for k, v in rows)
PY
}

differ=0
for side in parent change; do
    if [ "$side" = parent ]; then tree=$parent; else tree=$root; fi
    mkdir -p "$tmp/out/$side"
    for case in "${cases[@]}"; do
        name=${case%%|*}
        read -ra args <<<"${case#*|}"
        out=$tmp/out/$side/$name
        code=0
        "$tree/target/release/bglsim" "${args[@]}" >"$out.out" 2>"$out.err" || code=$?
        echo "$code" >"$out.code"
        if [ "${args[0]}" = profile ] && [ "$code" = 0 ]; then
            # Host timings differ run to run; its stderr is the runner's
            # timing line.
            split_profile "$out"
            rm "$out.out" "$out.err"
        fi
    done
done

for f in "$tmp"/out/parent/*; do
    name=$(basename "$f")
    if cmp -s "$f" "$tmp/out/change/$name"; then
        echo "same     $name"
    elif [[ $name == *.work ]]; then
        echo "work     $name (< parent, > change)"
        diff "$f" "$tmp/out/change/$name" | grep '^[<>]' || true
    else
        echo "DIFFERS  $name"
        differ=1
    fi
done
exit "$differ"
