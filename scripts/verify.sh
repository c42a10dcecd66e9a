#!/usr/bin/env bash
# Tier-1 verification: offline build, full test suite, and (when available)
# clippy with warnings denied. Run from anywhere; operates on the repo root.
#
#   ./scripts/verify.sh          # fmt + build + test + smoke + clippy
#   SKIP_CLIPPY=1 ./scripts/verify.sh
#   SKIP_FMT=1 ./scripts/verify.sh
#
# Everything runs --offline: the workspace has no external registry
# dependencies by policy (see DESIGN.md §6), so a network-less container
# must pass identically.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${SKIP_FMT:-0}" != "1" ]; then
    if cargo fmt --version >/dev/null 2>&1; then
        echo "==> cargo fmt --check"
        cargo fmt --all -- --check
    else
        echo "==> rustfmt not installed; skipping format check (set SKIP_FMT=1 to silence)"
    fi
fi

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> benchmark/ compiles against the crates (an item it names must stay pub), and each workload's fixed rounds pass their checks"
# Cargo rewrites benchmark/Cargo.lock on every build (it lags the crates'
# path dependencies), so the committed lock is put back, pass or fail.
cp benchmark/Cargo.lock target/benchmark-Cargo.lock
bench_status=0
cargo check --offline --release --all-targets --manifest-path benchmark/Cargo.toml || bench_status=$?
# One run of each BENCHMARK.json workload's fixed rounds, untimed: a run
# exits non-zero when an output check fails (the consistency audit after
# every round, every completion, the fleet campaign's committed trace hash).
for workload in chaos_fleet alloc_churn ealloc_2m attest_storm enclave_compute; do
    [ "$bench_status" -eq 0 ] || break
    cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 0 --trace 0 > "target/benchmark-$workload.txt" \
        || bench_status=$?
done
cp target/benchmark-Cargo.lock benchmark/Cargo.lock
[ "$bench_status" -eq 0 ]

echo "==> cargo test (offline)"
cargo test --offline --workspace -q

echo "==> crypto tests in release (limb arithmetic wraps where debug panics)"
cargo test --release --offline -p hypertee-crypto -q

echo "==> memory-engine tests and the data-plane wall in release (the build the benchmark measures)"
cargo test --release --offline -p hypertee-mem -q
cargo test --release --offline --test fastpath -q

echo "==> EMS primitive tests and the fault campaigns in release (the rollback walls the primitives lean on)"
cargo test --release --offline -p hypertee-ems -q
cargo test --release --offline --test faults -q

echo "==> hostile-input sweep in release (overflowed lengths wrap here where debug panics)"
cargo test --release --offline -p hypertee-chaos --test hostile_input -q

echo "==> figure regenerators and heavy-fault retry run (release, every figure/table binary's and examples/fault_harness's stdout byte-compared with figures/)"
mkdir -p target/figures
cargo run --release --offline -p hypertee-bench --bin fig6_slo -- --smoke --allocs 32 \
    > target/figures/fig6_slo.txt
for fig in fig7_ems_configs table4_primitives fig8a_alloc fig8b_memstream fig9_wolfssl \
    fig10_bitmap fig11_tlbflush fig12_comm table5_area table6_defense ablations; do
    cargo run --release --offline -p hypertee-bench --bin "$fig" > "target/figures/$fig.txt"
done
cargo run --release --offline --example fault_harness > target/figures/fault_harness.txt
for fig in figures/*.txt; do
    cmp "target/figures/$(basename "$fig")" "$fig"
done

echo "==> lockstep model check and interp-diff wall in release (seeded campaigns vs the reference model and the step_ref oracle)"
cargo test --release --offline --test model --test interp_diff -q

echo "==> bench_report smoke (release, reduced iterations, schema-validated)"
cargo run --release --offline -p hypertee-bench --bin bench_report -- --smoke \
    --out target/BENCH_perf_smoke.json > /dev/null
cargo run --release --offline -p hypertee-bench --bin bench_report -- \
    --check target/BENCH_perf_smoke.json
cargo run --release --offline -p hypertee-bench --bin bench_report -- \
    --check BENCH_perf.json

echo "==> pump equivalence in release (event scheduler vs scan oracle, seeded storms and campaigns)"
cargo test --release --offline --test pump_equivalence -q

echo "==> chaos campaign smoke (release, seeded, schema-validated)"
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- --smoke \
    --out target/BENCH_chaos_smoke.json > /dev/null
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- \
    --check target/BENCH_chaos_smoke.json
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- \
    --check BENCH_chaos.json

echo "==> fleet campaign at seed 16 (a lost first ECREATE response must replay, not re-run)"
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- --seed 16 \
    --out target/BENCH_chaos_seed16.json > /dev/null
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- \
    --check target/BENCH_chaos_seed16.json

echo "==> scan-oracle campaign replay (--ref-pump, byte-compared against the event pump)"
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- --smoke --ref-pump \
    --out target/BENCH_chaos_smoke_refpump.json > /dev/null
cmp target/BENCH_chaos_smoke.json target/BENCH_chaos_smoke_refpump.json

echo "==> committed chaos replay (full fleet campaign, whole report byte-compared with BENCH_chaos.json)"
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- \
    --out target/BENCH_chaos_replay.json > /dev/null
cmp target/BENCH_chaos_replay.json BENCH_chaos.json

echo "==> service facade smoke (boot, fail closed, attest, crash, re-attest)"
cargo run --release --offline --example service_quickstart > /dev/null

echo "==> serving storm smoke (release, seeded, fail-closed gated, schema-validated)"
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- --smoke \
    --out target/BENCH_serving_smoke.json > /dev/null
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- \
    --check target/BENCH_serving_smoke.json
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- \
    --check BENCH_serving.json

echo "==> committed serving replay (full storm campaign, whole report byte-compared with BENCH_serving.json)"
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- \
    --out target/BENCH_serving_replay.json > /dev/null
cmp target/BENCH_serving_replay.json BENCH_serving.json

echo "==> scan-oracle serving replay (--ref-pump, byte-compared against the event pump)"
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- --smoke --ref-pump \
    --out target/BENCH_serving_smoke_refpump.json > /dev/null
cmp target/BENCH_serving_smoke.json target/BENCH_serving_smoke_refpump.json

echo "==> parallel determinism smoke (sharded chaos, 1 vs 4 threads, byte-compared)"
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- --smoke --shards 4 \
    --threads 1 --out target/BENCH_chaos_shard_t1.json > /dev/null
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- --smoke --shards 4 \
    --threads 4 --out target/BENCH_chaos_shard_t4.json > /dev/null
cmp target/BENCH_chaos_shard_t1.json target/BENCH_chaos_shard_t4.json
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- \
    --check target/BENCH_chaos_shard_t4.json

echo "==> cargo doc --no-deps (warnings denied, offline)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

if [ "${SKIP_CLIPPY:-0}" != "1" ]; then
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy -D warnings (offline)"
        cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        echo "==> clippy not installed; skipping lint (set SKIP_CLIPPY=1 to silence)"
    fi
fi

echo "==> verify OK"
