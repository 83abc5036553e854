#!/usr/bin/env bash
# Builds the release `fdm-serve` and the benchmark, then runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); scratch files and traces go under it too.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/fdm-serve ]; then
    echo "perfbench: needs the repository's sources around it" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p fdm-serve --bin fdm-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
work=".bench_build/perfbench"
mkdir -p "$work"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --server-bin "$CARGO_TARGET_DIR/release/fdm-serve" --work-dir "$work"
