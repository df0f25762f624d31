//! Golden-equivalence fixtures for the event-driven core scheduler.
//!
//! Runs a fixed, deterministic corpus of amulet-generated programs
//! through **every shipped defense** on several core configurations and
//! compares a full observational snapshot — exit reason, final
//! architectural registers, architectural protection bits, the
//! adversary-visible cache tag state, per-µop commit timing, and every
//! `Stats` counter — against a fixture committed *before* the scheduler
//! rewrite. Any drift in cycle counts, blocked-cycle attribution, or
//! squash behaviour fails this test: it is the proof that the
//! event-wheel scheduler and idle-cycle fast-forward are cycle-exact,
//! not approximately so.
//!
//! Regenerate (only when an *intentional* timing change lands) with:
//!
//! ```text
//! PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_scheduler
//! ```

mod common;

use common::{corpus, corpus_input, corpus_seed};
use protean_bench::Defense;
use protean_isa::Program;
use protean_sim::{Core, CoreConfig, MemProtTracking, SpeculationModel};

/// Committed-instruction budget per run; corpus programs halt long
/// before this.
const MAX_INSTS: u64 = 50_000;
/// Cycle budget per run.
const MAX_CYCLES: u64 = 5_000_000;

/// The core configurations under test: the tiny config (high squash
/// pressure, traced), both speculation models, and the memory
/// protection tracking ablations, plus a realistically sized core.
fn configs() -> Vec<(&'static str, CoreConfig, bool)> {
    let mut tiny_ctrl = CoreConfig::test_tiny();
    tiny_ctrl.speculation = SpeculationModel::Control;
    let mut tiny_shadow = CoreConfig::test_tiny();
    tiny_shadow.mem_prot = MemProtTracking::PerfectShadow;
    let mut tiny_noprot = CoreConfig::test_tiny();
    tiny_noprot.mem_prot = MemProtTracking::None;
    vec![
        ("tiny", CoreConfig::test_tiny(), true),
        ("tiny_ctrl", tiny_ctrl, false),
        ("tiny_shadow", tiny_shadow, false),
        ("tiny_noprot", tiny_noprot, false),
        ("e_core", CoreConfig::e_core(), false),
    ]
}

/// FNV-1a over a word stream — collision-resistant enough to pin large
/// vectors (registers, cache observations, timing tuples) to one
/// fixture token.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One snapshot line: everything observable about a finished run.
fn snapshot(name: &str, program: &Program, config: &CoreConfig, traced: bool, seed: u64) -> String {
    let mut lines = String::new();
    // Every shipped defense: the scheduler must be exact under all of
    // their gating patterns.
    for defense in Defense::SHIPPED {
        let input = corpus_input(seed);
        let mut core = Core::new(program, config.clone(), defense.make(), &input);
        if traced {
            core.record_traces(true);
        }
        let r = core.run(MAX_INSTS, MAX_CYCLES);
        let regs = fnv(r.final_regs.iter().copied());
        let prot = fnv(r.final_reg_prot.iter().map(|&b| b as u64));
        let cache = fnv(r.cache_obs.iter().copied());
        let timing = fnv(r.timing.iter().flat_map(|t| t.iter().copied()));
        lines.push_str(&format!(
            "{name}/{defense:?}: exit={:?} regs={regs:016x} prot={prot:016x} \
             cache={cache:016x} timing={timing:016x} stats={:?}\n",
            r.exit, r.stats
        ));
    }
    lines
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_scheduler.txt")
}

#[test]
fn scheduler_is_cycle_exact_against_golden_fixture() {
    let mut got = String::new();
    for (prog_name, program) in corpus() {
        for (cfg_name, config, traced) in configs() {
            let seed = corpus_seed(&prog_name);
            got.push_str(&snapshot(
                &format!("{prog_name}/{cfg_name}"),
                &program,
                &config,
                traced,
                seed,
            ));
        }
    }

    let path = fixture_path();
    if std::env::var_os("PROTEAN_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        println!(
            "regenerated {} ({} lines)",
            path.display(),
            got.lines().count()
        );
        return;
    }

    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             PROTEAN_GOLDEN_REGEN=1 cargo test -p protean-bench --test golden_scheduler",
            path.display()
        )
    });
    if got != want {
        let mut diffs = Vec::new();
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                diffs.push(format!("line {}:\n  want: {w}\n  got:  {g}", i + 1));
            }
        }
        let extra = got.lines().count() as i64 - want.lines().count() as i64;
        panic!(
            "golden fixture mismatch: {} differing line(s), line-count delta {extra}\n{}",
            diffs.len(),
            diffs.iter().take(8).cloned().collect::<Vec<_>>().join("\n")
        );
    }
}
