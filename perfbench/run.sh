#!/usr/bin/env bash
# Builds the `isrl` server binary and the benchmark client from the
# checkout in the current directory, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p isrl-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --isrl "$CARGO_TARGET_DIR/release/isrl" "$@"
