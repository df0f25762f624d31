//! `Core::reset` equivalence: an arena core that is reset and reused
//! must be observationally indistinguishable from a freshly constructed
//! one.
//!
//! The fuzzer's hot loop reuses one `Core` per program (base run plus
//! every mutant run), so any state that survives a reset — a stale
//! predictor counter, a warm cache line, a leftover taint bit, an
//! unreturned physical register — would silently change campaign
//! results. This test drives an arena core through an interleaved
//! sequence of (program, defense, input) triples, resetting between
//! runs, and compares the *complete* observable result (exit reason,
//! every `Stats` counter, final registers and protection bits, the
//! adversary-visible cache state, commit timing, and committed indices)
//! against a fresh `Core::new` for the same triple. Defenses are
//! interleaved so consecutive arena runs switch policy (including the
//! L1D meta-fill polarity) and program every time.

use protean_amulet::{generate, init_cold_chain, GenConfig, PUBLIC_BASE, PUBLIC_SIZE};
use protean_arch::ArchState;
use protean_bench::Defense;
use protean_isa::{Program, Reg};
use protean_sim::{Core, CoreConfig, MemProtTracking, SimResult};

const MAX_INSTS: u64 = 50_000;
const MAX_CYCLES: u64 = 5_000_000;

/// A defense slice that flips every reset-sensitive axis: meta-fill
/// polarity (ProtISA defenses fill differently), taint tracking (STT,
/// SPT-SB), wakeup delays (NDA), and the unsafe baseline.
const DEFENSES: [Defense; 6] = [
    Defense::Unsafe,
    Defense::Nda,
    Defense::Stt,
    Defense::SptSb,
    Defense::ProtDelay,
    Defense::ProtTrack,
];

/// Two corpus programs with different shapes, matching the golden
/// fixture's generator settings.
fn corpus() -> Vec<(String, Program)> {
    [(1u64, 4usize, 0.5f64), (3, 8, 0.3)]
        .iter()
        .map(|&(seed, segments, gadget_bias)| {
            let cfg = GenConfig {
                segments,
                gadget_bias,
                seed,
            };
            (format!("g{seed}s{segments}"), generate(&cfg))
        })
        .collect()
}

/// Deterministic initial state (same shape as the golden fixture's).
fn corpus_input(seed: u64) -> ArchState {
    let mut state = ArchState::new();
    init_cold_chain(&mut state.mem);
    for i in 0u64..PUBLIC_SIZE / 8 {
        let v = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i.wrapping_mul(7))
            % 64;
        state.mem.write(PUBLIC_BASE + i * 8, 8, v);
    }
    for i in 0..6 {
        state.set_reg(Reg::gpr(i), (seed.wrapping_mul(31) + i as u64 * 13) % 1024);
    }
    state
}

/// Configs covering the traced tiny core, the shadow memory-protection
/// ablation (exercises `shadow_unprot` reset), and both realistic cores:
/// the P-core's 12-way 30 MiB L3 and 10-way 1.25 MiB L2 are the geometry
/// every Tab. IV/V P-core cell runs on.
fn configs() -> Vec<(&'static str, CoreConfig, bool)> {
    let mut tiny_shadow = CoreConfig::test_tiny();
    tiny_shadow.mem_prot = MemProtTracking::PerfectShadow;
    vec![
        ("tiny", CoreConfig::test_tiny(), true),
        ("tiny_shadow", tiny_shadow, false),
        ("p_core", CoreConfig::p_core(), false),
        ("e_core", CoreConfig::e_core(), false),
    ]
}

/// Everything observable about a finished run, in `Debug` form so a
/// mismatch names the diverging field directly.
fn digest(r: &SimResult) -> String {
    format!(
        "exit={:?} stats={:?} regs={:?} prot={:?} cache={:?} timing={:?} committed={:?}",
        r.exit, r.stats, r.final_regs, r.final_reg_prot, r.cache_obs, r.timing, r.committed_idxs
    )
}

#[test]
fn reset_core_matches_fresh_core() {
    for (cfg_name, config, traced) in configs() {
        let programs = corpus();
        let mut arena: Option<Core> = None;
        for (prog_name, program) in &programs {
            for defense in DEFENSES {
                let seed = prog_name.as_bytes().iter().map(|&b| b as u64).sum::<u64>();
                let input = corpus_input(seed);

                let mut fresh = Core::new(program, config.clone(), defense.make(), &input);
                fresh.record_traces(traced);
                let want = fresh.run(MAX_INSTS, MAX_CYCLES);

                match arena.as_mut() {
                    None => {
                        arena = Some(Core::new(program, config.clone(), defense.make(), &input));
                    }
                    Some(core) => core.reset(program, defense.make(), &input),
                }
                let core = arena.as_mut().expect("just constructed");
                core.record_traces(traced);
                let got = core.run_mut(MAX_INSTS, MAX_CYCLES);

                assert_eq!(
                    digest(&got),
                    digest(&want),
                    "reset core diverged from fresh core \
                     ({cfg_name}/{prog_name}/{defense:?})"
                );
            }
        }
    }
}
