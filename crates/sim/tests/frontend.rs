//! Front-end regression tests: the L1I stats fix (exactly one access
//! booked per fetched µop), the per-cycle fetch-group trace events, and
//! the audit-log/`Stats` reconciliation through the fetch queue.

use protean_arch::ArchState;
use protean_isa::{assemble, Program};
use protean_sim::{Core, CoreConfig, SimExit, SimResult, UnsafePolicy};

/// A straight-line program long enough to span several I-cache lines
/// (4 bytes per instruction, 64-byte lines): no branches, so no
/// wrong-path fetch and no squashes — every µop that passes through
/// fetch is renamed and counted in `Stats::fetched`.
fn straight_line(n_adds: usize) -> Program {
    let mut src = String::from("mov r0, 0\n");
    for _ in 0..n_adds {
        src.push_str("add r0, r0, 1\n");
    }
    src.push_str("halt\n");
    assemble(&src).unwrap()
}

fn run(prog: &Program, cfg: CoreConfig) -> SimResult {
    let core = Core::new(prog, cfg, Box::new(UnsafePolicy), &ArchState::new());
    let result = core.run(100_000, 10_000_000);
    assert_eq!(result.exit, SimExit::Halted);
    result
}

/// The L1I double-count regression (the old fetch path probed, stalled,
/// then accessed *again* on resume, booking a spurious hit per real
/// miss): on a cold cache with straight-line code, L1I accesses must
/// equal fetched µops exactly.
#[test]
fn l1i_accesses_equal_fetched_uops_on_cold_cache() {
    for cfg in [CoreConfig::test_tiny(), CoreConfig::p_core()] {
        let prog = straight_line(200);
        let r = run(&prog, cfg.clone());
        assert_eq!(r.stats.committed, 202);
        assert!(
            r.stats.l1i_misses > 0,
            "{}: a cold cache must miss at least once",
            cfg.name
        );
        assert_eq!(
            r.stats.l1i_hits + r.stats.l1i_misses,
            r.stats.fetched,
            "{}: exactly one L1I access per fetched µop (hits={} misses={} fetched={})",
            cfg.name,
            r.stats.l1i_hits,
            r.stats.l1i_misses,
            r.stats.fetched
        );
        // 202 µops at 4 bytes each over 64-byte lines: ceil(808/64).
        assert_eq!(r.stats.l1i_misses, 13, "{}: one miss per line", cfg.name);
    }
}

/// With tracing on, the per-cycle fetch-group events must cover every
/// fetch (group sizes in `1..=fetch_width`, strictly increasing cycles,
/// and total µops equal to the L1I access count — fetch is the sole
/// L1I client).
#[test]
fn fetch_group_events_cover_all_fetched_uops() {
    let prog = straight_line(150);
    let mut cfg = CoreConfig::test_tiny();
    cfg.trace = true;
    let r = run(&prog, cfg.clone());
    let trace = r.trace.expect("traced run");
    assert!(!trace.fetch_groups.is_empty());
    let mut last_cycle = None;
    let mut total = 0u64;
    for g in &trace.fetch_groups {
        assert!(g.len >= 1 && g.len as usize <= cfg.fetch_width, "{g:?}");
        assert!(Some(g.cycle) > last_cycle, "one group per cycle: {g:?}");
        last_cycle = Some(g.cycle);
        total += g.len as u64;
    }
    assert_eq!(total, r.stats.l1i_hits + r.stats.l1i_misses);
    // Straight-line code: groups are contiguous index runs.
    for g in &trace.fetch_groups {
        assert!(g.start_idx as u64 + g.len as u64 <= prog.len() as u64);
    }
}

/// The audit log reconciles exactly with `Stats` through the fetch
/// queue (when µops reach rename decides blocked-cycle attribution; see
/// also
/// `tests/trace.rs::audit_log_reconciles_with_stats_counters`).
#[test]
fn audit_reconciles_under_batched_fetch() {
    use protean_sim::{DefensePolicy, DynInst, Gate, RegTags, SpecFrontier, NO_ROOT};

    struct DelayLoads;
    impl DefensePolicy for DelayLoads {
        fn name(&self) -> String {
            "delay-loads".into()
        }
        fn may_execute(&self, u: &DynInst, _t: &RegTags, fr: &SpecFrontier) -> Gate {
            Gate::lapses_at(if u.is_load() { u.seq } else { NO_ROOT }, fr, "delay-loads")
        }
    }

    let prog = assemble(
        r#"
          mov r0, 0x20000
          mov r1, 0
        loop:
          load r2, [r0 + r1*8]
          add r3, r3, r2
          add r1, r1, 1
          cmp r1, 24
          jlt loop
          halt
        "#,
    )
    .unwrap();
    let mut cfg = CoreConfig::test_tiny();
    cfg.trace = true;
    let core = Core::new(&prog, cfg, Box::new(DelayLoads), &ArchState::new());
    let r = core.run(100_000, 10_000_000);
    assert_eq!(r.exit, SimExit::Halted);
    let trace = r.trace.expect("traced run");
    let totals = trace.blocked_totals();
    assert!(totals[0] > 0, "the delaying policy must block");
    assert_eq!(totals[0], r.stats.exec_blocked_cycles);
    assert_eq!(totals[1], r.stats.wakeup_blocked_cycles);
    assert_eq!(totals[2], r.stats.resolve_blocked_cycles);
    assert!(!trace.fetch_groups.is_empty());
}
