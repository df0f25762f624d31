//! The section profiler's calls are exact event counts: running the
//! same program twice on one (reset) core books exactly twice one run's
//! entries to every section. The totals are process-wide, so this file
//! holds a single test.

use protean_arch::ArchState;
use protean_isa::assemble;
use protean_sim::{profile, Core, CoreConfig, SimExit, UnsafePolicy};

#[test]
fn running_twice_doubles_every_sections_calls() {
    // Loads, a store, a loop branch, and a cold miss per iteration (idle
    // cycles for fast-forward).
    let prog = assemble(
        "mov r0, 0\nmov r4, 0x200000\nloop:\nload r1, [r0*8 + 0x10000]\n\
         store [r0*8 + 0x20000], r1\nload r3, [r4]\nadd r4, r4, 4096\n\
         add r0, r0, 1\ncmp r0, 64\njlt loop\nhalt\n",
    )
    .unwrap();
    let (policy, init) = (|| Box::new(UnsafePolicy), ArchState::new());
    let mut core = Core::new(&prog, CoreConfig::test_tiny(), policy(), &init);
    let calls = || {
        profile::totals()
            .iter()
            .map(|t| t.calls)
            .collect::<Vec<_>>()
    };
    assert_eq!(core.run_mut(100_000, 10_000_000).exit, SimExit::Halted);
    let once = calls();
    core.reset(&prog, policy(), &init);
    assert_eq!(core.run_mut(100_000, 10_000_000).exit, SimExit::Halted);
    assert_eq!(calls(), once.iter().map(|c| 2 * c).collect::<Vec<_>>());
    // Every tick stage and fast-forward ran (sections in tick order).
    assert!(once[..9].iter().all(|&c| c > 0), "{once:?}");
}
