#!/usr/bin/env bash
# Same-host A/B of the repository benchmark between two revisions.
#
#   scripts/bench_ab.sh <base-rev> <change-rev> [pairs] [seconds]
#
# Builds each revision in its own git worktree with its own
# CARGO_TARGET_DIR, then, for every workload in BENCHMARK.json, runs
# `pairs` (default 10) pairs of runs of the BENCHMARK.json command for
# `seconds` (default BENCHMARK.json's run_seconds) each. Each pair gets
# a fresh seed that both sides share, and the side that runs first
# alternates from pair to pair. Workloads, metrics, their bounds and
# which direction is better all come from BENCHMARK.json.
#
# For each workload and bounded end-to-end metric it prints each side's
# median and quartiles, the change/base ratio of the medians, in how
# many pairs the change was better, and failed/attempted per side. The
# other end-to-end figures a run prints (checkpoint_s, recover_s, tail
# latencies, rates) follow with their medians and ratio.
#
# Environment:
#   BENCH_AB_DIR   working directory (default: a new temporary one);
#                  raw run output is kept under it
#   BENCH_AB_SEED  seed of the first pair (default 1)
#
# Run it where nothing else loads the host: the two sides share it.

set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi

repo=$(git rev-parse --show-toplevel)
base=$(git -C "$repo" rev-parse --verify "$1^{commit}")
change=$(git -C "$repo" rev-parse --verify "$2^{commit}")
pairs=${3:-10}
spec="$repo/BENCHMARK.json"
seconds=${4:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")}
first_seed=${BENCH_AB_SEED:-1}
work=${BENCH_AB_DIR:-$(mktemp -d -t bench-ab-XXXXXX)}
mkdir -p "$work/runs"

cleanup() {
    for side in base change; do
        git -C "$repo" worktree remove --force "$work/$side" 2>/dev/null || true
    done
    git -C "$repo" worktree prune
}
trap cleanup EXIT

mapfile -t command < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$spec")
mapfile -t workloads < <(python3 -c 'import json,sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")

echo "base   $base"
echo "change $change"
echo "pairs $pairs, $seconds s per run, seeds $first_seed..$((first_seed + pairs - 1)), output in $work"

for side in base change; do
    rev=$base
    [[ $side == change ]] && rev=$change
    git -C "$repo" worktree add --detach "$work/$side" "$rev" >/dev/null
    echo "building $side ..."
    # the command builds before it runs; an unknown workload then makes
    # the benchmark exit with its usage error, which cargo's own build
    # failure (exit code 101) is told apart from
    status=0
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
        "${command[@]}" --workload build-only) >"$work/build-$side.txt" 2>&1 || status=$?
    if ((status == 101)); then
        cat "$work/build-$side.txt"
        exit 1
    fi
done

run() { # side workload seed pair
    local out="$work/runs/$2-$4-$1.txt"
    (cd "$work/$1" && CARGO_TARGET_DIR="$work/target-$1" \
        "${command[@]}" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) >"$out" 2>&1 ||
        echo "  $1 exited non-zero (see $out)"
}

for workload in "${workloads[@]}"; do
    for ((pair = 0; pair < pairs; pair++)); do
        seed=$((first_seed + pair))
        echo "$workload pair $((pair + 1))/$pairs seed $seed"
        if ((pair % 2 == 0)); then
            run base "$workload" "$seed" "$pair"
            run change "$workload" "$seed" "$pair"
        else
            run change "$workload" "$seed" "$pair"
            run base "$workload" "$seed" "$pair"
        fi
    done
done

python3 - "$spec" "$work/runs" "$pairs" <<'PY'
import json, re, statistics, sys

spec = json.load(open(sys.argv[1]))
runs, pairs = sys.argv[2], int(sys.argv[3])
line_re = re.compile(r"^\s+[* ]\s+(\S+)\s+(-?[0-9.]+)\s+\S+$")


def parse(path):
    """The result line and every printed end-to-end figure of one run."""
    try:
        lines = open(path).read().splitlines()
    except OSError:
        return None
    result = None
    for line in reversed(lines):
        if line.startswith("{"):
            result = json.loads(line)
            break
    printed, inside = {}, False
    for line in lines:
        if line.startswith("end-to-end"):
            inside = True
        elif inside and (m := line_re.match(line)):
            printed[m.group(1)] = float(m.group(2))
        elif inside and "failed_share" in line:
            break
    return result, printed


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


bounded = {m["name"]: m for m in spec["end_to_end"]}
for workload in (w["name"] for w in spec["workloads"]):
    sides = {"base": [], "change": []}
    for pair in range(pairs):
        for side in sides:
            sides[side].append(parse(f"{runs}/{workload}-{pair}-{side}.txt"))
    print(f"\n== {workload}")
    for side, parsed in sides.items():
        results = [p[0] for p in parsed if p and p[0]]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  {side:<6} failed/attempted {failed}/{attempted}, "
              f"{len(results)}/{pairs} runs with a result line")
    print(f"  {'metric':<16} {'base q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'ratio':>7} {'wins':>6} {'bound':>6}")
    both = [(b, c) for b, c in zip(sides["base"], sides["change"])
            if b and c and b[0] and c[0]]
    for name, metric in bounded.items():
        values = [(b[0]["metrics"][name]["value"], c[0]["metrics"][name]["value"])
                  for b, c in both if name in b[0]["metrics"] and name in c[0]["metrics"]]
        if not values:
            continue
        lower = metric["better"] == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in values)
        qb = quartiles([b for b, _ in values])
        qc = quartiles([c for _, c in values])
        ratio = qc[1] / qb[1] if qb[1] else float("nan")
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"  {name:<16} {fmt(qb):>30} {fmt(qc):>30} {ratio:>7.3f} "
              f"{wins:>3}/{len(values):<2} {metric['bound']:>6}")
    others = sorted({k for b, c in both for k in b[1] if k not in bounded and k in c[1]})
    if others:
        print("  printed, not bounded (medians):")
    for name in others:
        b = statistics.median(p[1][name] for p, _ in both if name in p[1])
        c = statistics.median(q[1][name] for _, q in both if name in q[1])
        ratio = c / b if b else float("nan")
        print(f"    {name:<18} base {b:>12.4g}  change {c:>12.4g}  ratio {ratio:.3f}")
PY
