//! Tracing under the real defenses: the tracer is a pure observer, its
//! audit log reconciles with `Stats`, and it charges every blocked
//! cycle to the same named rule, for every shipped policy.
//!
//! The inputs: a denial-heavy kernel (`ossl.bnexp`, whose protected
//! runs spend most of their cycles with µops parked at the execute and
//! wakeup gates) on the P-core, and two `golden_scheduler` corpus
//! programs on the tiny core, whose runs also hold mispredicted
//! branches at the resolve gate.
//!
//! `protean-sim`'s own `tests/trace.rs` covers the same contract with a
//! synthetic policy; the shipped policies live in crates that depend on
//! `protean-sim`, so this test lives here.

mod common;

use protean_arch::ArchState;
use protean_bench::{pass_for, prepare, Binary, Defense};
use protean_isa::Program;
use protean_sim::{Core, CoreConfig, SimExit, SimResult};
use protean_workloads::{unr_crypto, Scale};

/// One traced input.
struct Input {
    name: String,
    program: Program,
    /// The build the ProtCC-consuming defenses run, if not `program`.
    protcc: Option<Program>,
    init: ArchState,
    core: CoreConfig,
    max_insts: u64,
    exit: SimExit,
}

fn inputs() -> Vec<Input> {
    let w = unr_crypto(Scale(1))
        .into_iter()
        .find(|w| w.name == "ossl.bnexp")
        .expect("ossl.bnexp is in the UNR-Crypto suite");
    let (program, init) = w.threads[0].clone();
    let mut out = vec![Input {
        name: w.name.clone(),
        protcc: Some(prepare(&program, Binary::SingleClass(pass_for(w.class)))),
        program,
        init,
        core: CoreConfig::p_core(),
        // The kernel's first 10k µops: its steady state, at a size the
        // debug-profile test pass runs in seconds.
        max_insts: 10_000,
        exit: SimExit::MaxInsts,
    }];
    for (name, program) in common::corpus() {
        if name == "g1s4" || name == "g2s6" {
            out.push(Input {
                init: common::corpus_input(common::corpus_seed(&name)),
                name,
                program,
                protcc: None,
                core: CoreConfig::test_tiny(),
                max_insts: 50_000,
                exit: SimExit::Halted,
            });
        }
    }
    out
}

/// Blocked cycles per `(gate, rule)` of every `(input, defense)` run,
/// in `Trace::blocked_by_rule` order: one line per run.
const EXPECTED_RULES: &str = "\
ossl.bnexp/Unsafe:
ossl.bnexp/Nda: wakeup/spec-load-wakeup=6203
ossl.bnexp/Stt: execute/tainted-transmitter-delay=1300
ossl.bnexp/SttOriginal: execute/tainted-transmitter-delay=1300
ossl.bnexp/Spt: resolve/private-branch-resolve=853
ossl.bnexp/SptOriginal: resolve/private-branch-resolve=690
ossl.bnexp/SptNoPerfFix: resolve/private-branch-resolve=853
ossl.bnexp/SptSb: execute/spec-transmitter-delay=573930 resolve/spec-squash-delay=20990
ossl.bnexp/SptSbOriginal: execute/spec-transmitter-delay=573930 resolve/spec-squash-delay=6322
ossl.bnexp/ProtDelay: execute/access-transmitter-delay=405108 resolve/protected-branch-resolve=14871
ossl.bnexp/ProtTrack: execute/tainted-transmitter-delay=8601 execute/access-transmitter-delay=396507 resolve/tainted-branch-resolve=14871
ossl.bnexp/ProtTrackEntries(64): execute/tainted-transmitter-delay=8601 execute/access-transmitter-delay=396507 resolve/tainted-branch-resolve=14871
ossl.bnexp/RawAccessDelay: execute/access-transmitter-delay=406759 wakeup/protected-reg-access-wakeup=30297 wakeup/protected-mem-access-wakeup=177
ossl.bnexp/RawAccessTrack: execute/tainted-transmitter-delay=8601 execute/access-transmitter-delay=396507 resolve/tainted-branch-resolve=14871
g1s4/Unsafe:
g1s4/Nda: wakeup/spec-load-wakeup=7789
g1s4/Stt: execute/tainted-transmitter-delay=4935
g1s4/SttOriginal: execute/tainted-transmitter-delay=4935
g1s4/Spt: execute/private-transmitter-delay=5016 resolve/private-branch-resolve=2
g1s4/SptOriginal: execute/private-transmitter-delay=5016 resolve/private-branch-resolve=2
g1s4/SptNoPerfFix: execute/private-transmitter-delay=5016 resolve/private-branch-resolve=2
g1s4/SptSb: execute/spec-transmitter-delay=15316 resolve/spec-squash-delay=1968
g1s4/SptSbOriginal: execute/spec-transmitter-delay=15316 resolve/spec-squash-delay=1111
g1s4/ProtDelay: wakeup/protected-mem-access-wakeup=7245
g1s4/ProtTrack: execute/tainted-transmitter-delay=4935 wakeup/protdelay-fallback-wakeup=270
g1s4/ProtTrackEntries(64): execute/tainted-transmitter-delay=4935 wakeup/protdelay-fallback-wakeup=270
g1s4/RawAccessDelay: wakeup/protected-mem-access-wakeup=7245
g1s4/RawAccessTrack: execute/tainted-transmitter-delay=4935
g2s6/Unsafe:
g2s6/Nda: wakeup/spec-load-wakeup=5175
g2s6/Stt: execute/tainted-transmitter-delay=685 resolve/tainted-branch-resolve=145
g2s6/SttOriginal: execute/tainted-transmitter-delay=685 resolve/tainted-branch-resolve=102
g2s6/Spt: execute/private-transmitter-delay=1111 resolve/private-branch-resolve=378
g2s6/SptOriginal: execute/private-transmitter-delay=1162 resolve/private-branch-resolve=331
g2s6/SptNoPerfFix: execute/private-transmitter-delay=1111 resolve/private-branch-resolve=378
g2s6/SptSb: execute/spec-transmitter-delay=18054 resolve/spec-squash-delay=1899
g2s6/SptSbOriginal: execute/spec-transmitter-delay=18054 resolve/spec-squash-delay=1188
g2s6/ProtDelay: wakeup/protected-mem-access-wakeup=4774 wakeup/protected-reg-access-wakeup=456
g2s6/ProtTrack: execute/tainted-transmitter-delay=857 resolve/tainted-branch-resolve=308 wakeup/protdelay-fallback-wakeup=265
g2s6/ProtTrackEntries(64): execute/tainted-transmitter-delay=857 resolve/tainted-branch-resolve=308 wakeup/protdelay-fallback-wakeup=385
g2s6/RawAccessDelay: wakeup/protected-mem-access-wakeup=4774 wakeup/protected-reg-access-wakeup=456
g2s6/RawAccessTrack: execute/tainted-transmitter-delay=857 resolve/tainted-branch-resolve=308
";

#[test]
fn traced_runs_match_untraced_and_reconcile_under_every_defense() {
    let mut denials = [0u64; 3];
    let mut table = String::new();
    for input in inputs() {
        let run = |defense: Defense, trace: bool| -> SimResult {
            let program = match &input.protcc {
                Some(protcc) if defense.wants_protcc() => protcc,
                _ => &input.program,
            };
            let mut cfg = input.core.clone();
            cfg.trace = trace;
            let r = Core::new(program, cfg, defense.make(), &input.init)
                .run(input.max_insts, input.max_insts * 600);
            assert_eq!(r.exit, input.exit, "{}/{defense:?}", input.name);
            r
        };
        for defense in Defense::SHIPPED {
            let plain = run(defense, false);
            let traced = run(defense, true);
            let s = &traced.stats;
            assert_eq!(
                format!("{s:?}"),
                format!("{:?}", plain.stats),
                "{}/{defense:?}: tracing changed the run",
                input.name
            );
            let trace = traced.trace.expect("tracing was on");
            let totals = [
                s.exec_blocked_cycles,
                s.wakeup_blocked_cycles,
                s.resolve_blocked_cycles,
            ];
            assert_eq!(
                trace.blocked_totals(),
                totals,
                "{}/{defense:?}: audit log does not reconcile with Stats",
                input.name
            );
            for (d, t) in denials.iter_mut().zip(totals) {
                *d += t;
            }
            table.push_str(&format!("{}/{defense:?}:", input.name));
            for (point, rule, cycles) in trace.blocked_by_rule() {
                table.push_str(&format!(" {}/{rule}={cycles}", point.name()));
            }
            table.push('\n');
        }
    }
    assert!(
        denials.iter().all(|&d| d > 0),
        "the inputs must exercise all three gates: {denials:?}"
    );
    assert!(
        table == EXPECTED_RULES,
        "per-rule attribution changed; actual table:\n{table}"
    );
}
