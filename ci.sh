#!/usr/bin/env bash
# CI gate: hermetic build + tests + formatting, warnings-as-errors.
#
# The workspace has zero external dependencies (see DESIGN.md §"Zero
# dependencies"), so everything runs with --offline: a network-less
# container must pass this script from a clean checkout.
set -euo pipefail
cd "$(dirname "$0")"

export RUSTFLAGS="-Dwarnings"

# `step TITLE` starts a CI step: it prints the wall time of the step
# before it (bash SECONDS, whole seconds), then TITLE's header. An
# empty TITLE closes the last step.
step_title=""
step() {
    if [ -n "$step_title" ]; then
        echo "-- $((SECONDS - step_start)) s: $step_title"
    fi
    step_title="$1"
    step_start=$SECONDS
    if [ -n "$1" ]; then
        echo "== $1"
    fi
}

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --release --offline --workspace --all-targets"
# Lints every crate, test, example and bin; -Dwarnings (above) makes
# any clippy warning fail CI.
cargo clippy --release --offline --workspace --all-targets

step "cargo doc --workspace --no-deps --offline (RUSTDOCFLAGS=-Dwarnings)"
# Broken or private intra-doc links fail CI: a doc comment that links
# to a deleted item fails here instead of rotting.
RUSTDOCFLAGS="-Dwarnings" cargo doc --workspace --no-deps --offline

step "cargo build --release --offline --workspace --all-targets"
cargo build --release --offline --workspace --all-targets

step "examples (release, each must exit 0)"
# The examples assert what they show (annotations remove PROT prefixes,
# the nginx and traced runs halt); only running them makes those asserts
# checks. Their scratch files go to a temp dir.
EXAMPLES_TMP="$(mktemp -d)"
trap 'rm -rf "$EXAMPLES_TMP"' EXIT
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    TMPDIR="$EXAMPLES_TMP" "./target/release/examples/$name" >/dev/null
done

step "simulate (release, one traced ProtCC-CT run on the tiny core)"
# The one-off experimentation binary: assemble a small program, compile
# it with ProtCC-CT, run it under ProtTrack with every trace output on.
# It must exit 0 and write a non-empty trace-event JSON file.
cat >"$EXAMPLES_TMP/sim.pasm" <<'PASM'
    mov rsp, 0x8000
    mov r0, 0x1000
    load r1, [r0]
    cmp r1, 0
    jlt done
    load r2, [r1*8 + 0x2000]
done:
    halt
PASM
./target/release/simulate "$EXAMPLES_TMP/sim.pasm" --core tiny --pass ct --defense track \
    --trace --trace-json "$EXAMPLES_TMP/sim_trace.json" --timeline 4 >/dev/null
if [ ! -s "$EXAMPLES_TMP/sim_trace.json" ]; then
    echo "simulate wrote no trace-event JSON" >&2
    exit 1
fi

step "cargo test -q --release --offline --workspace (PROTEAN_JOBS=1, serial job pool)"
PROTEAN_JOBS=1 cargo test -q --release --offline --workspace

step "cargo test -q --release --offline --workspace (PROTEAN_JOBS unset, all cores)"
# Second pass with the job pool at its default width: campaign/bench
# fan-out must be byte-identical to the serial pass (the protean-jobs
# determinism contract), and the pool's panic propagation and ordered
# collection get exercised under real parallelism.
env -u PROTEAN_JOBS cargo test -q --release --offline --workspace

step "cargo test -q --offline --workspace (debug profile)"
# Debug-profile pass (opt-level 1, see Cargo.toml): overflow checks and
# debug assertions are on here and off in release, so arithmetic-edge
# bugs (e.g. u64 wrap in the cache metadata folds, or a u64 instruction
# budget doubled past its range) only surface in this configuration.
# The release and debug passes both run the equivalence suites
# (golden_scheduler, golden_protcc, threaded_oracle_equiv,
# cache_flat_equiv, core_reset, tage_fold_equiv).
# In this pass every tick also asserts that each µop parked at any of
# the three defense gates (execute, wakeup, resolve) is still closed,
# and that the issue stage's parked count equals the old per-cycle
# loop's (see DESIGN.md, "Parked gates").
cargo test -q --offline --workspace

step "--quick report golden set (reproduce --quick vs bench_results/quick, JOBS=default vs 1)"
# Every paper table, figure and ablation, end to end: `reproduce --quick`
# writes all 11 JSON reports, each must be byte-identical to the
# committed golden set, and each is schema-checked with every other
# report by validate_json below. The run's profile.json must match the
# committed bench_results/quick/profile.json in every column but the
# sampled wall time (nanos, share_pct): section calls and gate counts
# are deterministic event counts, so a change that should not alter the
# simulated work leaves them as they are. After an intentional change of
# results or of those counts, re-pin by writing the output over the set:
#   PROTEAN_BENCH_DIR=bench_results/quick \
#       cargo run --release -p protean-bench --bin reproduce -- --quick
# A second run at PROTEAN_JOBS=1 must write the same 11 reports, and
# the same profile.json apart from its sampled wall time (nanos,
# share_pct): the job pool's determinism contract, through the whole
# reproduction.
BENCH_SMOKE_DIR="$(mktemp -d)"
REPRODUCE_SERIAL_DIR="$(mktemp -d)"
trap 'rm -rf "$EXAMPLES_TMP" "$BENCH_SMOKE_DIR" "$REPRODUCE_SERIAL_DIR"' EXIT
profile_counts() { sed -E 's/"nanos":[0-9]+,//; s/"share_pct":[^,]*,//' "$1"; }
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" \
    cargo run -q --release --offline -p protean-bench --bin reproduce -- --quick >/dev/null
PROTEAN_BENCH_DIR="$REPRODUCE_SERIAL_DIR" PROTEAN_JOBS=1 \
    cargo run -q --release --offline -p protean-bench --bin reproduce -- --quick >/dev/null
for report in table_i table_ii table_iv table_v figure_5 figure_6 \
    ablation_protcc ablation_l1d ablation_access ablation_control ablation_fixes; do
    cmp "bench_results/quick/$report.json" "$BENCH_SMOKE_DIR/$report.json"
    cmp "$BENCH_SMOKE_DIR/$report.json" "$REPRODUCE_SERIAL_DIR/$report.json"
done
cmp <(profile_counts "bench_results/quick/profile.json") \
    <(profile_counts "$BENCH_SMOKE_DIR/profile.json")
cmp <(profile_counts "$BENCH_SMOKE_DIR/profile.json") \
    <(profile_counts "$REPRODUCE_SERIAL_DIR/profile.json")

step "campaign_service determinism (uninterrupted JOBS=1 vs 4, killed+resumed JOBS=4/2)"
# The resumable-campaign contract, end to end through the service
# binary. Its report holds only deterministic campaign counters, and
# the profile.json it writes next to it covers the same process's
# simulations. An uninterrupted run must write both byte-identically at
# job-pool widths 1 and 4 (for the profile: every column but the sampled
# wall time, nanos and share_pct) — the determinism contract the
# reusable Core arena and COW memory are held to. A run killed after one
# chunk per campaign and resumed at another width must write the same
# report, and no report while any campaign is incomplete. The
# uninterrupted report must also equal the committed
# bench_results/campaign_service.json. After an intentional change of
# campaign results, re-pin it from a fresh directory (a leftover
# snapshot would be resumed):
#   dir="$(mktemp -d)" && PROTEAN_BENCH_DIR="$dir" \
#       cargo run --release -p protean-bench --bin campaign_service &&
#       cp "$dir/campaign_service.json" bench_results/
# The versioned snapshots land in the smoke dir, so the validate_json
# pass below also checks them against the shared row schema.
CAMPAIGN_A_DIR="$(mktemp -d)"
CAMPAIGN_B_DIR="$(mktemp -d)"
trap 'rm -rf "$EXAMPLES_TMP" "$BENCH_SMOKE_DIR" "$REPRODUCE_SERIAL_DIR" "$CAMPAIGN_A_DIR" "$CAMPAIGN_B_DIR"' EXIT
PROTEAN_BENCH_DIR="$CAMPAIGN_A_DIR" PROTEAN_JOBS=1 \
    cargo run -q --release --offline -p protean-bench --bin campaign_service >/dev/null
if [ ! -f "$CAMPAIGN_A_DIR/profile.json" ]; then
    echo "campaign_service did not write profile.json" >&2
    exit 1
fi
cmp bench_results/campaign_service.json "$CAMPAIGN_A_DIR/campaign_service.json"
PROTEAN_BENCH_DIR="$CAMPAIGN_B_DIR" PROTEAN_JOBS=4 \
    cargo run -q --release --offline -p protean-bench --bin campaign_service >/dev/null
cmp "$CAMPAIGN_A_DIR/campaign_service.json" "$CAMPAIGN_B_DIR/campaign_service.json"
cmp <(profile_counts "$CAMPAIGN_A_DIR/profile.json") <(profile_counts "$CAMPAIGN_B_DIR/profile.json")
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" PROTEAN_JOBS=4 \
    cargo run -q --release --offline -p protean-bench --bin campaign_service -- --kill-after 1 >/dev/null
if [ -f "$BENCH_SMOKE_DIR/campaign_service.json" ]; then
    echo "campaign_service wrote a report for an incomplete campaign" >&2
    exit 1
fi
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" PROTEAN_JOBS=2 \
    cargo run -q --release --offline -p protean-bench --bin campaign_service >/dev/null
cmp "$CAMPAIGN_A_DIR/campaign_service.json" "$BENCH_SMOKE_DIR/campaign_service.json"

step "perfbench unit tests (release)"
# The benchmark is a separate workspace built against these crates by
# path: test it here so a change to the public API it uses fails CI
# rather than the benchmark run.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

step "perfbench pins (one short untraced run per workload, seed 1)"
# Every benchmark run checks its outcomes against perfbench/pins.txt:
# campaign reports with their rendered example traces, and each cell's
# output and full-Stats digest. perfbench refuses to run with any
# PROTEAN_* variable set, so the runs get an environment without them.
unset_protean=()
for var in $(compgen -e | grep '^PROTEAN_' || true); do
    unset_protean+=(-u "$var")
done
for workload in campaign paper_cells sim_long; do
    result="$(env "${unset_protean[@]}" bash perfbench/run.sh --workload "$workload" \
        --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0,' <<<"$result"; then
        echo "perfbench $workload failed its pins: $result" >&2
        exit 1
    fi
done

step "validate_json (all smoke reports + committed BENCH_perf.json)"
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" \
    cargo run -q --release --offline -p protean-bench --bin validate_json
# The committed perf trajectory must stay parseable and in schema.
cargo run -q --release --offline -p protean-bench --bin validate_json -- BENCH_perf.json

step ""
echo "CI OK ($SECONDS s)"
