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
# cache metadata folds) only surface in this configuration. The release
# and debug passes both run the equivalence suites (golden_scheduler,
# threaded_oracle_equiv, cache_flat_equiv, core_reset, tage_fold_equiv).
# In this pass every tick also asserts that each parked defense-gate
# µop is still closed and that the parked counts equal the old
# per-cycle loop's (see DESIGN.md, "Parked gates").
cargo test -q --offline --workspace

echo "== --quick report golden set (11 table/figure/ablation binaries vs bench_results/quick)"
# Every paper-table, figure and ablation binary, end to end: each
# --quick JSON report must be byte-identical to the committed golden
# set, and is schema-checked with every other report by validate_json
# below. After an intentional change of results, re-pin by copying the
# output over the set:
#   for b in <the binaries below>; do PROTEAN_BENCH_DIR=bench_results/quick \
#       cargo run --release -p protean-bench --bin $b -- --quick; done
BENCH_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_SMOKE_DIR"' EXIT
for bin in table_i table_ii table_iv table_v figure_5 figure_6 \
    ablation_protcc ablation_l1d ablation_access ablation_control ablation_fixes; do
    PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" \
        cargo run -q --release --offline -p protean-bench --bin "$bin" -- --quick >/dev/null
    cmp "bench_results/quick/$bin.json" "$BENCH_SMOKE_DIR/$bin.json"
done

echo "== campaign_perf determinism (--quick, PROTEAN_JOBS=1 vs 4)"
# campaign_perf_report.json holds only deterministic campaign counters.
# It must be byte-identical at any job-pool width — the determinism
# contract the reusable Core arena and COW memory are held to — so run
# it serially, stash the report, rerun at width 4, and byte-compare.
# (The .bak suffix keeps the stash out of validate_json's *.json glob
# below.)
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" PROTEAN_JOBS=1 \
    cargo run -q --release --offline -p protean-bench --bin campaign_perf -- --quick >/dev/null
# The always-on section profiler writes its breakdown of the same runs
# (schema-checked by the validate_json pass below).
if [ ! -f "$BENCH_SMOKE_DIR/profile.json" ]; then
    echo "campaign_perf did not write profile.json" >&2
    exit 1
fi
# The profiler's event counts (section calls and the defense-gate
# evaluation/park/un-park counters) are exact too; only the sampled wall
# time (nanos, share_pct) may differ between the two runs.
profile_counts() { sed -E 's/"nanos":[0-9]+,//; s/"share_pct":[^,]*,//' "$1"; }
cp "$BENCH_SMOKE_DIR/campaign_perf_report.json" "$BENCH_SMOKE_DIR/campaign_perf_report.jobs1.bak"
profile_counts "$BENCH_SMOKE_DIR/profile.json" >"$BENCH_SMOKE_DIR/profile_counts.jobs1.bak"
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" PROTEAN_JOBS=4 \
    cargo run -q --release --offline -p protean-bench --bin campaign_perf -- --quick >/dev/null
cmp "$BENCH_SMOKE_DIR/campaign_perf_report.jobs1.bak" "$BENCH_SMOKE_DIR/campaign_perf_report.json"
profile_counts "$BENCH_SMOKE_DIR/profile.json" | cmp "$BENCH_SMOKE_DIR/profile_counts.jobs1.bak" -

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

echo "== perfbench pins (one short untraced run per workload, seed 1)"
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

echo "== validate_json (all smoke reports + committed BENCH_perf.json)"
PROTEAN_BENCH_DIR="$BENCH_SMOKE_DIR" \
    cargo run -q --release --offline -p protean-bench --bin validate_json
# The committed perf trajectory must stay parseable and in schema.
cargo run -q --release --offline -p protean-bench --bin validate_json -- BENCH_perf.json

echo "CI OK"
