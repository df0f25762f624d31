#!/usr/bin/env bash
# CI gate: hermetic build + tests + formatting, warnings-as-errors.
#
# The workspace has zero external dependencies (see DESIGN.md §"Zero
# dependencies"), so everything runs with --offline: a network-less
# container must pass this script from a clean checkout.
set -euo pipefail
cd "$(dirname "$0")"

export RUSTFLAGS="-Dwarnings"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo build --release --offline --workspace --all-targets"
cargo build --release --offline --workspace --all-targets

echo "== cargo test -q --release --offline --workspace (PROTEAN_JOBS=1, serial job pool)"
PROTEAN_JOBS=1 cargo test -q --release --offline --workspace

echo "== cargo test -q --release --offline --workspace (PROTEAN_JOBS unset, all cores)"
# Second pass with the job pool at its default width: campaign/bench
# fan-out must be byte-identical to the serial pass (the protean-jobs
# determinism contract), and the pool's panic propagation and ordered
# collection get exercised under real parallelism.
env -u PROTEAN_JOBS cargo test -q --release --offline --workspace

echo "== cargo test -q --offline --workspace (debug profile)"
# Debug-profile pass: overflow checks and debug assertions are on here
# and off in release, so arithmetic-edge bugs (e.g. u64 wrap in the
# cache metadata folds) only surface in this configuration.
cargo test -q --offline --workspace

echo "== golden scheduler equivalence (release + debug)"
# The event-driven scheduler must be observationally identical to the
# scan-based core it replaced; the fixture was generated from the
# pre-scheduler code. Run it explicitly in both profiles so a fixture
# drift is named in CI output rather than buried in the workspace runs,
# and so the debug profile's assertions cover the scheduler paths.
cargo test -q --release --offline -p protean-bench --test golden_scheduler
cargo test -q --offline -p protean-bench --test golden_scheduler

echo "== threaded oracle differential (release + debug)"
# The closure-IR oracle fast mode must be bit-identical to the
# reference interpreter — full ExecRecord streams, final state, the
# ProtSet, and every observer projection, across all ProtCC passes.
# Run it named in both profiles: release for the real campaign
# configuration, debug for overflow checks on the width-semantics
# paths the lowering duplicates.
cargo test -q --release --offline -p protean-bench --test threaded_oracle_equiv
cargo test -q --offline -p protean-bench --test threaded_oracle_equiv

echo "== component-model differentials: flat cache + core reset + TAGE folds (release + debug)"
# The flat SoA/word-bitmap cache and the incrementally folded TAGE are
# the only implementations on the simulation paths; the boxed-bool
# cache and the reference history fold survive solely as test oracles,
# so these differential suites are the equivalence gate (there is no
# runtime toggle to byte-compare across). The debug pass arms overflow
# checks on the wrapping metadata arithmetic (u64::MAX-spanning ranges).
# A cache reset, and a dropped cache whose arrays a later Cache::new
# reuses, zeroes only the sets filled since the previous clear, so that
# touched-set clear is all that makes a reused arena core equal a fresh
# one: core_reset checks it end to end on the tiny, P- and E-core
# geometries.
cargo test -q --release --offline -p protean-sim --test cache_flat_equiv
cargo test -q --offline -p protean-sim --test cache_flat_equiv
cargo test -q --release --offline -p protean-bench --test core_reset
cargo test -q --offline -p protean-bench --test core_reset
cargo test -q --release --offline -p protean-sim --test tage_fold_equiv
cargo test -q --offline -p protean-sim --test tage_fold_equiv

echo "== bench JSON smoke (ablation_fixes --quick + validate_json)"
# A table bench end to end: write its JSON report to a scratch dir, then
# check it (with every other report below) against the schema shared by
# all reports.
BENCH_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_SMOKE_DIR"' EXIT
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" \
    cargo run -q --release --offline -p protean-bench --bin ablation_fixes -- --quick >/dev/null

echo "== campaign_perf determinism (--quick, PROTEAN_JOBS=1 vs 4)"
# campaign_perf_report.json holds only deterministic campaign counters.
# It must be byte-identical at any job-pool width — the determinism
# contract the reusable Core arena and COW memory are held to — so run
# it serially, stash the report, rerun at width 4, and byte-compare.
# (The .bak suffix keeps the stash out of validate_json's *.json glob
# below.)
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" PROTEAN_JOBS=1 \
    cargo run -q --release --offline -p protean-bench --bin campaign_perf -- --quick >/dev/null
cp "$BENCH_SMOKE_DIR/campaign_perf_report.json" "$BENCH_SMOKE_DIR/campaign_perf_report.jobs1.bak"
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" PROTEAN_JOBS=4 \
    cargo run -q --release --offline -p protean-bench --bin campaign_perf -- --quick >/dev/null
cmp "$BENCH_SMOKE_DIR/campaign_perf_report.jobs1.bak" "$BENCH_SMOKE_DIR/campaign_perf_report.json"

echo "== section profiler smoke (campaign_perf --quick, PROTEAN_PROFILE=1)"
# The profiler must run end to end and emit a schema-valid profile.json
# (checked by the validate_json pass below) without disturbing the
# simulation — it is a pure observer, same contract as the tracer — so
# the profiled run's report must equal the unprofiled PROTEAN_JOBS=1 one.
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" PROTEAN_PROFILE=1 PROTEAN_JOBS=1 \
    cargo run -q --release --offline -p protean-bench --bin campaign_perf -- --quick >/dev/null
if [ ! -f "$BENCH_SMOKE_DIR/profile.json" ]; then
    echo "PROTEAN_PROFILE=1 campaign_perf did not write profile.json" >&2
    exit 1
fi
cmp "$BENCH_SMOKE_DIR/campaign_perf_report.jobs1.bak" "$BENCH_SMOKE_DIR/campaign_perf_report.json"

echo "== campaign_service kill/resume byte-compare (uninterrupted JOBS=1 vs killed+resumed JOBS=4/2)"
# The resumable-campaign contract, end to end through the service
# binary: an uninterrupted run and a run killed after one chunk per
# campaign then resumed — at different worker counts — must write
# byte-identical campaign_service.json reports, and the engine must
# refuse to write a report while any campaign is incomplete. The
# versioned snapshots land in the smoke dir, so the validate_json pass
# below also checks them against the shared row schema.
CAMPAIGN_A_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_SMOKE_DIR" "$CAMPAIGN_A_DIR"' EXIT
PROTEAN_BENCH_DIR="$CAMPAIGN_A_DIR" PROTEAN_JOBS=1 \
    cargo run -q --release --offline -p protean-bench --bin campaign_service >/dev/null
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" PROTEAN_JOBS=4 \
    cargo run -q --release --offline -p protean-bench --bin campaign_service -- --kill-after 1 >/dev/null
if [ -f "$BENCH_SMOKE_DIR/campaign_service.json" ]; then
    echo "campaign_service wrote a report for an incomplete campaign" >&2
    exit 1
fi
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" PROTEAN_JOBS=2 \
    cargo run -q --release --offline -p protean-bench --bin campaign_service >/dev/null
cmp "$CAMPAIGN_A_DIR/campaign_service.json" "$BENCH_SMOKE_DIR/campaign_service.json"

echo "== perfbench unit tests (release)"
# The benchmark is a separate workspace built against these crates by
# path: test it here so a change to the public API it uses fails CI
# rather than the benchmark run.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== validate_json (all smoke reports + committed BENCH_perf.json)"
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" \
    cargo run -q --release --offline -p protean-bench --bin validate_json
# The committed perf trajectory must stay parseable and in schema.
cargo run -q --release --offline -p protean-bench --bin validate_json -- BENCH_perf.json

echo "CI OK"
