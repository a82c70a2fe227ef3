#!/usr/bin/env bash
# The benchmark's one command. Rebuilds cloud-node / edge-node and the
# harness from the current tree (offline), then runs the harness.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload (the driver's form)
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--out PATH]    every workload
#   benchmark/run.sh --twice [...]                                       the whole set twice, compared
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the repo
# root); traces and results go to <target-dir>/benchmark/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# The build's chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --bins >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@" --target-dir "$CARGO_TARGET_DIR"
