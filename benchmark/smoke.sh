#!/usr/bin/env bash
# Smoke test of the benchmark harness: the unit tests, then every
# workload once at toy scale, untraced and traced. Seconds, not
# minutes; the numbers it prints mean nothing.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --offline --quiet
cargo run --release --offline --quiet -- all --quick
