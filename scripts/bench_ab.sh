#!/bin/sh
# Same-machine A/B of two revisions on one perfbench workload.
#
#   scripts/bench_ab.sh BASE HEAD [--workload W] [--pairs N]
#       [--seconds S] [--seed K] [--trace 0|1] [--workdir DIR]
#
# BASE and HEAD are git revisions of this repository (or paths to
# source trees, e.g. an uncommitted checkout). Each revision is
# exported with `git archive` into its own scratch tree under the
# work directory and built there by perfbench/run.py. The script then
# runs N interleaved pairs of
#
#   python3 perfbench/run.py --workload W --seed K+i --seconds S --trace T
#
# alternating which side runs first, and prints every metric as
# median [q1, q3] per side, the head/base ratio of the medians, and
# on how many pairs the head was better (direction from BENCHMARK.json).
# Every run's `correct` and `failed` fields are reported too.
#
# Defaults: --workload datacenter --pairs 10 --seconds 30 --seed 100
# --trace 0; the work directory is a fresh mktemp directory, removed
# on exit unless --workdir names one.
set -eu

usage() {
    sed -n '2,20p' "$0" >&2
    exit 2
}

[ $# -ge 2 ] || usage
base=$1
head=$2
shift 2
workload=datacenter
pairs=10
seconds=30
seed=100
trace=0
workdir=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --seed) seed=$2 ;;
    --trace) trace=$2 ;;
    --workdir) workdir=$2 ;;
    *) usage ;;
    esac
    shift 2
done

repo=$(cd "$(dirname "$0")/.." && pwd)
if [ -z "$workdir" ]; then
    workdir=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
    trap 'rm -rf "$workdir"' EXIT
fi
mkdir -p "$workdir"

# Export one side into $workdir/$2 unless it is already a source tree.
tree_for() {
    if [ -f "$1/perfbench/run.py" ]; then
        (cd "$1" && pwd)
        return
    fi
    dest=$workdir/$2
    rm -rf "$dest"
    mkdir -p "$dest"
    git -C "$repo" archive "$1" | tar -x -C "$dest"
    echo "$dest"
}

base_tree=$(tree_for "$base" base)
head_tree=$(tree_for "$head" head)
results=$workdir/results.jsonl
: >"$results"

run_side() {
    out=$(cd "$2" &&
        python3 perfbench/run.py --workload "$workload" --seed "$3" \
            --seconds "$seconds" --trace "$trace" 2>"$workdir/$1.log" |
        tail -n 1)
    if [ -z "$out" ]; then
        echo "bench_ab: $1 run failed (seed $3):" >&2
        tail -n 20 "$workdir/$1.log" >&2
        exit 1
    fi
    printf '{"side": "%s", "pair": %s, "result": %s}\n' "$1" "$4" \
        "$out" >>"$results"
}

i=0
while [ "$i" -lt "$pairs" ]; do
    s=$((seed + i))
    if [ $((i % 2)) -eq 0 ]; then
        run_side base "$base_tree" "$s" "$i"
        run_side head "$head_tree" "$s" "$i"
    else
        run_side head "$head_tree" "$s" "$i"
        run_side base "$base_tree" "$s" "$i"
    fi
    echo "pair $((i + 1))/$pairs done (seed $s)" >&2
    i=$((i + 1))
done

python3 - "$results" "$head_tree/BENCHMARK.json" "$workload" <<'EOF'
import json
import statistics
import sys

rows = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
better = {m["name"]: m["better"]
          for m in spec["end_to_end"] + spec["per_layer"]}
runs = {"base": {}, "head": {}}
for row in rows:
    runs[row["side"]][row["pair"]] = row["result"]
pairs = sorted(set(runs["base"]) & set(runs["head"]))

for side in ("base", "head"):
    res = [runs[side][p] for p in pairs]
    print("%s: %d runs, correct %d, failed ops %d"
          % (side, len(res), sum(bool(r["correct"]) for r in res),
             sum(int(r["failed"]) for r in res)))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


print("%s, %d pairs: metric | base median [q1, q3] | head median "
      "[q1, q3] | head/base | head better" % (sys.argv[3], len(pairs)))
names = sorted(set().union(*(runs["head"][p]["metrics"] for p in pairs)))
for name in names:
    if not all(name in runs[s][p]["metrics"]
               for s in ("base", "head") for p in pairs):
        continue
    b = [runs["base"][p]["metrics"][name]["value"] for p in pairs]
    h = [runs["head"][p]["metrics"][name]["value"] for p in pairs]
    bm, bq1, bq3 = quartiles(b)
    hm, hq1, hq3 = quartiles(h)
    way = better.get(name)
    if way == "higher":
        wins = "%d/%d" % (sum(y > x for x, y in zip(b, h)), len(pairs))
    elif way == "lower":
        wins = "%d/%d" % (sum(y < x for x, y in zip(b, h)), len(pairs))
    else:
        wins = "-"
    ratio = "%.3f" % (hm / bm) if bm else "-"
    print("%s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %s | %s"
          % (name, bm, bq1, bq3, hm, hq1, hq3, ratio, wins))
EOF
