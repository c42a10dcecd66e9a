#!/usr/bin/env bash
# Offline gate for the benchmark package: formatting, clippy with warnings
# denied, and the test suite (every workload at a tiny size with its checks
# on, the BENCHMARK.json name check, and the unit tests).
#
# usage: benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release
