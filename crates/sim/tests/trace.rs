//! Observability-layer integration tests: tracing must be a pure
//! observer (identical architectural results and cycle counts), the
//! defense-decision audit log must reconcile exactly with the blocked
//! counters in `Stats`, squashes must carry their cause, and the Chrome
//! trace-event export must be well-formed JSON.

use protean_arch::ArchState;
use protean_isa::{assemble, Program};
use protean_sim::{
    BlockPoint, Core, CoreConfig, DefensePolicy, DynInst, Gate, RegTags, SimExit, SimResult,
    SpecFrontier, SquashKind, UnsafePolicy,
};

/// A branchy, memory-heavy program: data-dependent branches over an
/// array (cold-predictor mispredictions guaranteed) plus stores.
fn workload() -> (Program, ArchState) {
    let prog = assemble(
        r#"
          mov r0, 0x10000   ; base
          mov r1, 0         ; i
          mov r2, 0         ; sum of odd elements
        loop:
          load r3, [r0 + r1*8]
          and r4, r3, 1
          cmp r4, 0
          jeq even
          add r2, r2, r3
        even:
          add r1, r1, 1
          cmp r1, 48
          jlt loop
          store [r0 - 8], r2
          halt
        "#,
    )
    .unwrap();
    let mut init = ArchState::new();
    // Deterministic but irregular parities so the `jeq` mispredicts.
    let mut x = 0x9e3779b97f4a7c15u64;
    for i in 0..48 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        init.mem.write(0x10000 + i * 8, 8, x >> 17);
    }
    (prog, init)
}

fn run(policy: Box<dyn DefensePolicy>, trace: bool) -> SimResult {
    let (prog, init) = workload();
    let mut cfg = CoreConfig::test_tiny();
    cfg.trace = trace;
    let mut core = Core::new(&prog, cfg, policy, &init);
    core.record_traces(true);
    let result = core.run(10_000, 1_000_000);
    assert_eq!(result.exit, SimExit::Halted);
    result
}

/// A policy that blocks at all three gates, with distinct rule names.
struct BlockyPolicy;

impl DefensePolicy for BlockyPolicy {
    fn name(&self) -> String {
        "blocky".into()
    }

    fn may_execute(&self, u: &DynInst, _tags: &RegTags, fr: &SpecFrontier) -> Gate {
        if u.inst.is_branch() || !u.is_load() {
            return Gate::Open;
        }
        Gate::lapses_at(u.seq, fr, "test-exec-rule")
    }

    fn may_wakeup(&self, u: &DynInst, _tags: &RegTags, fr: &SpecFrontier) -> Gate {
        let until = if u.is_load() { u.seq } else { 0 };
        Gate::lapses_at(until, fr, "test-wakeup-rule")
    }

    fn may_resolve(&self, u: &DynInst, _tags: &RegTags, fr: &SpecFrontier) -> Gate {
        Gate::lapses_at(u.seq, fr, "test-resolve-rule")
    }
}

#[test]
fn tracing_is_a_pure_observer() {
    let plain = run(Box::new(UnsafePolicy), false);
    let traced = run(Box::new(UnsafePolicy), true);
    assert!(plain.trace.is_none(), "tracing off must yield no trace");
    assert!(traced.trace.is_some(), "tracing on must yield a trace");
    assert_eq!(plain.committed_idxs, traced.committed_idxs);
    assert_eq!(plain.final_regs, traced.final_regs);
    assert_eq!(plain.stats.cycles, traced.stats.cycles);
    assert_eq!(plain.stats.squashed, traced.stats.squashed);
}

#[test]
fn tracing_is_a_pure_observer_under_blocking_policy() {
    let plain = run(Box::new(BlockyPolicy), false);
    let traced = run(Box::new(BlockyPolicy), true);
    assert_eq!(plain.committed_idxs, traced.committed_idxs);
    assert_eq!(plain.final_regs, traced.final_regs);
    assert_eq!(plain.stats.cycles, traced.stats.cycles);
    assert_eq!(
        plain.stats.exec_blocked_cycles,
        traced.stats.exec_blocked_cycles
    );
}

#[test]
fn audit_log_reconciles_with_stats_counters() {
    let r = run(Box::new(BlockyPolicy), true);
    let trace = r.trace.expect("traced run");
    let totals = trace.blocked_totals();
    assert!(
        totals.iter().any(|&t| t > 0),
        "the blocking policy must actually block"
    );
    assert_eq!(totals[0], r.stats.exec_blocked_cycles, "execute gate");
    assert_eq!(totals[1], r.stats.wakeup_blocked_cycles, "wakeup gate");
    assert_eq!(totals[2], r.stats.resolve_blocked_cycles, "resolve gate");

    // Per-rule breakdown sums back to the same totals, under the rule
    // names the policy chose.
    let by_rule = trace.blocked_by_rule();
    for (point, expected) in [
        (BlockPoint::Execute, "test-exec-rule"),
        (BlockPoint::Wakeup, "test-wakeup-rule"),
        (BlockPoint::Resolve, "test-resolve-rule"),
    ] {
        let sum: u64 = by_rule
            .iter()
            .filter(|(p, rule, _)| {
                assert!(
                    *p != point || *rule == expected,
                    "{point:?} blocked under unexpected rule {rule}"
                );
                *p == point
            })
            .map(|(_, _, c)| *c)
            .sum();
        assert_eq!(sum, totals[point as usize]);
    }

    // Audit records agree with the per-µop blocked spans.
    for rec in trace.audit() {
        assert!(rec.cycles > 0);
        assert!(rec.first_cycle <= rec.last_cycle);
    }
}

#[test]
fn branch_squashes_are_cause_tagged() {
    let r = run(Box::new(UnsafePolicy), true);
    assert!(
        r.stats.branch_squashes > 0,
        "workload must mispredict at least once"
    );
    let trace = r.trace.expect("traced run");
    let squashed: Vec<_> = trace
        .uops
        .iter()
        .filter_map(|u| u.squash.map(|s| s.cause))
        .collect();
    assert!(
        squashed.contains(&SquashKind::Branch),
        "at least one µop must be tagged as branch-squashed"
    );
    // A squashed µop never commits.
    for u in &trace.uops {
        if u.squash.is_some() {
            assert_eq!(u.commit_cycle, None, "squashed µop seq {} committed", u.seq);
        }
    }
}

#[test]
fn committed_uop_count_matches_stats() {
    let r = run(Box::new(UnsafePolicy), true);
    let trace = r.trace.expect("traced run");
    let committed = trace
        .uops
        .iter()
        .filter(|u| u.commit_cycle.is_some())
        .count() as u64;
    assert_eq!(committed, r.stats.committed);
    // Monotone per-µop stage ordering.
    for u in &trace.uops {
        assert!(u.fetch_cycle <= u.rename_cycle);
        if let Some(issue) = u.issue_cycle {
            assert!(u.rename_cycle <= issue);
            if let Some(done) = u.complete_cycle {
                assert!(issue <= done);
                if let Some(commit) = u.commit_cycle {
                    assert!(done <= commit);
                }
            }
        }
    }
}

#[test]
fn chrome_trace_is_wellformed_json() {
    let r = run(Box::new(BlockyPolicy), true);
    let trace = r.trace.expect("traced run");
    let json = protean_sim::json::Json::parse(&trace.to_chrome_trace()).expect("parses");
    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Rendered audit/pipeline views exist and mention the rule names.
    let audit = trace.render_audit(16);
    assert!(audit.contains("test-"), "audit render names rules: {audit}");
    let pipe = trace.render_pipeline(32, 120);
    assert!(pipe.contains('C'), "pipeline render shows commits: {pipe}");
}
