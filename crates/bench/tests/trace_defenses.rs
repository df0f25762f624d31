//! Tracing under the real defenses: the tracer is a pure observer and
//! its audit log reconciles with `Stats` for every shipped policy, on a
//! denial-heavy kernel (`ossl.bnexp`, whose protected runs spend most of
//! their cycles with µops parked at the execute and wakeup gates).
//!
//! `protean-sim`'s own `tests/trace.rs` covers the same contract with a
//! synthetic policy; the shipped policies live in crates that depend on
//! `protean-sim`, so this test lives here.

use protean_bench::{pass_for, prepare, Binary, Defense};
use protean_sim::{Core, CoreConfig, SimExit, SimResult};
use protean_workloads::{unr_crypto, Scale};

/// Committed-µop budget per run.
const MAX_INSTS: u64 = 10_000;

#[test]
fn traced_runs_match_untraced_and_reconcile_under_every_defense() {
    let w = unr_crypto(Scale(1))
        .into_iter()
        .find(|w| w.name == "ossl.bnexp")
        .expect("ossl.bnexp is in the UNR-Crypto suite");
    let (program, init) = &w.threads[0];
    let protcc = prepare(program, Binary::SingleClass(pass_for(w.class)));
    let run = |defense: Defense, trace: bool| -> SimResult {
        let program = if defense.wants_protcc() {
            &protcc
        } else {
            program
        };
        let mut cfg = CoreConfig::p_core();
        cfg.trace = trace;
        // The kernel's first `MAX_INSTS` µops: its steady state, at a
        // size the debug-profile test pass runs in seconds.
        let r = Core::new(program, cfg, defense.make(), init).run(MAX_INSTS, MAX_INSTS * 600);
        assert_eq!(r.exit, SimExit::MaxInsts, "{defense:?}");
        r
    };
    let mut denials = 0;
    for defense in Defense::SHIPPED {
        let plain = run(defense, false);
        let traced = run(defense, true);
        let s = &traced.stats;
        assert_eq!(
            format!("{s:?}"),
            format!("{:?}", plain.stats),
            "{defense:?}: tracing changed the run"
        );
        let trace = traced.trace.expect("tracing was on");
        assert_eq!(
            trace.blocked_totals(),
            [
                s.exec_blocked_cycles,
                s.wakeup_blocked_cycles,
                s.resolve_blocked_cycles
            ],
            "{defense:?}: audit log does not reconcile with Stats"
        );
        denials += s.exec_blocked_cycles + s.wakeup_blocked_cycles;
    }
    assert!(denials > 0, "the kernel must exercise the gates");
}
