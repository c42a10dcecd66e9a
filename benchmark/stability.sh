#!/usr/bin/env bash
# Runs each workload several times on its default seed and prints every
# metric's median, interquartile range and min-max spread against its bound.
#
# Fails when a run fails its checks, when a host metric's IQR/median exceeds
# its bound in BENCHMARK.json, or when a simulated metric or fail_ratio
# differs between runs (they are exact for a seed). With -c it also compares
# the medians against an earlier summary: host medians must agree within
# their bounds and simulated values must be identical.
#
# usage: benchmark/stability.sh [-n runs] [-s seconds] [-c earlier-summary.json] [workload ...]
#        (defaults: 5 runs of BENCHMARK.json's run_seconds, every workload in it)
set -euo pipefail
cd "$(dirname "$0")/.."

runs=5
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
compare=""
while getopts "n:s:c:" opt; do
    case "$opt" in
        n) runs=$OPTARG ;;
        s) seconds=$OPTARG ;;
        c) compare=$OPTARG ;;
        *) sed -n 's/^# usage: /usage: /p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/hypertee-benchmark"
out=benchmark/out/stability
mkdir -p "$out"

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$runs"); do
        echo "run $i/$runs: $w" >&2
        "$bin" --workload "$w" --seconds "$seconds" --out "$out/$w-$i.json" > /dev/null || true
    done
done

python3 - "$out" "$runs" "$compare" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, runs, compare, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
failed = False
summary = {}
for w in workloads:
    docs = []
    for i in range(1, runs + 1):
        try:
            docs.append(json.load(open(f"{out}/{w}-{i}.json")))
        except (OSError, ValueError) as e:
            print(f"{w}: run {i} left no result ({e})")
            failed = True
    if not docs:
        continue
    for d in docs:
        if not d["correct"]:
            print(f"{w}: a run failed its checks: {d['errors']}")
            failed = True
    print(f"{w} ({len(docs)} runs, seed {docs[0]['seed']})")
    summary[w] = {}
    for name, first in docs[0]["metrics"].items():
        vals = [d["metrics"][name]["value"] for d in docs]
        unit = first["unit"]
        if name in bounds:
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            iqr = (q[2] - q[0]) / med
            span = (max(vals) - min(vals)) / med
            ok = iqr <= bounds[name]
            failed |= not ok
            print(f"  {name:22} median {med:.6g} {unit:6}  IQR {iqr:7.2%}  min-max {span:7.2%}"
                  f"  bound {bounds[name]:.0%}  {'ok' if ok else 'FAIL'}")
            summary[w][name] = med
        else:
            same = all(v == vals[0] for v in vals)
            failed |= not same
            shown = "n/a" if vals[0] is None else f"{vals[0]:.6g}"
            print(f"  {name:22} {shown} {unit:11}  exact across runs: {'ok' if same else 'FAIL ' + str(vals)}")
            summary[w][name] = vals[0]

if compare:
    earlier = json.load(open(compare))
    print(f"against {compare}:")
    for w, metrics in summary.items():
        for name, now in metrics.items():
            then = earlier.get(w, {}).get(name)
            if name in bounds:
                ok = then is not None and abs(now - then) <= bounds[name] * then
                detail = f"{then:.6g} -> {now:.6g}" if then is not None else "missing"
            else:
                ok = now == then
                detail = f"{then} -> {now}"
            failed |= not ok
            if not ok or name in bounds:
                print(f"  {w} {name:22} {detail}  {'ok' if ok else 'FAIL'}")

json.dump(summary, open(f"{out}/summary.json", "w"), indent=2)
print(f"summary written to {out}/summary.json")
sys.exit(1 if failed else 0)
EOF
