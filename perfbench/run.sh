#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it:
#
#   bash perfbench/run.sh --workload <campaign|paper_cells|sim_long> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Cargo's output goes to stderr; the benchmark's last stdout line is its
# JSON result. Build artifacts go to $CARGO_TARGET_DIR, or
# perfbench/target when it is unset.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" "$@"
