//! The observability layer, end to end: run a protected-load loop under
//! Protean-Delay with µop tracing enabled, then render the Konata-style
//! pipeline diagram, the defense-decision audit log, and a Chrome
//! trace-event file (load it at `chrome://tracing` or in Perfetto).
//!
//! ```text
//! cargo run --release --example trace_pipeline
//! ```
//!
//! The same views are reachable from the CLI without writing code
//! (`simulate --trace --trace-json out.json prog.s`); any embedding of
//! the simulator turns them on with `CoreConfig::trace`, as below.

use protean::arch::ArchState;
use protean::core_defense::ProtDelayPolicy;
use protean::isa::assemble;
use protean::sim::{Core, CoreConfig, SimExit};

fn main() {
    // A loop of dependent protected loads with a data-dependent branch:
    // exercises all three defense gates (execute, wakeup, resolve).
    let program = assemble(
        r#"
          mov r3, 0
          mov r7, 0
        loop:
          and r4, r3, 0xf8
          prot load r1, [0x40000 + r4*1]
          and r5, r1, 0xf8
          prot load r2, [0x40000 + r5*1]  ; address depends on protected data
          and r6, r2, 1
          cmp r6, 0
          jeq skip
          add r7, r7, r2
        skip:
          add r3, r3, 1
          cmp r3, 40
          jlt loop
          halt
        "#,
    )
    .expect("assembles");
    let mut init = ArchState::new();
    for i in 0..64u64 {
        init.mem
            .write(0x40000 + i * 8, 8, (i * 0x9e37).rotate_left(11) & 0xff);
    }

    // `cfg.trace = true` is all it takes. Tracing is a pure observer:
    // cycle counts and architectural results are identical with it off.
    let mut cfg = CoreConfig::p_core();
    cfg.trace = true;
    let core = Core::new(&program, cfg, Box::new(ProtDelayPolicy::new()), &init);
    let result = core.run(100_000, 6_000_000);
    assert_eq!(result.exit, SimExit::Halted);

    let trace = result.trace.expect("cfg.trace was set");
    println!("=== pipeline (last 48 µops) ===");
    println!("{}", trace.render_pipeline(48, 140));
    println!("=== defense audit ===");
    println!("{}", trace.render_audit(24));

    let out = std::env::temp_dir().join("protean_trace.json");
    std::fs::write(&out, trace.to_chrome_trace()).expect("write chrome trace");
    println!(
        "chrome trace written to {} — open it at chrome://tracing",
        out.display()
    );
}
