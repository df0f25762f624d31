//! Cross-crate security properties of ProtCC + ProtISA:
//!
//! 1. ProtCC instrumentation preserves architectural semantics exactly.
//! 2. Lemma 1 (paper §VII-A): for genuinely-CT code, the instrumented
//!    binary's architectural ProtSet always contains every register that
//!    may hold secret data (checked against a dynamic secret-taint
//!    oracle).
//! 3. Lemma 2: the hardware-tracked ProtSet is a superset of the
//!    architectural one at every commit.

use protean::arch::{ArchState, Emulator, ExitStatus};
use protean::cc::{compile_with, Pass};
use protean::isa::{assemble, Program, Reg};

const KEY: u64 = 0x5_0000;

/// A small CT kernel with secret flow through registers and memory.
fn ct_kernel() -> Program {
    assemble(
        r#"
          mov rsp, 0x40000
          load r1, [0x50000]       ; secret key
          mov r2, 0                ; acc
          mov r3, 0                ; i
        loop:
          shl r4, r3, 3
          and r4, r4, 0xff8
          load r5, [r4 + 0x60000]  ; public message
          xor r5, r5, r1           ; mix secret
          add r2, r2, r5
          rol r2, r2, 7
          store [r4 + 0x70000], r5 ; secret-derived output
          add r3, r3, 1
          cmp r3, 64
          jlt loop
          halt
        "#,
    )
    .unwrap()
}

fn init_state() -> ArchState {
    let mut s = ArchState::new();
    s.mem.write(KEY, 8, 0x1122334455667788);
    for i in 0..512u64 {
        s.mem.write(0x60000 + i * 8, 8, i * 13);
    }
    s
}

#[test]
fn instrumentation_preserves_semantics() {
    let base = ct_kernel();
    for pass in [Pass::Arch, Pass::Cts, Pass::Ct, Pass::Unr] {
        let compiled = compile_with(&base, pass).program;
        let mut emu_base = Emulator::new(&base, init_state());
        let (s1, _) = emu_base.run(100_000);
        let mut emu_inst = Emulator::new(&compiled, init_state());
        let (s2, _) = emu_inst.run(200_000);
        assert_eq!(s1, ExitStatus::Halted);
        assert_eq!(s2, ExitStatus::Halted, "pass {}", pass.name());
        for r in Reg::all() {
            assert_eq!(
                emu_base.state.reg(r),
                emu_inst.state.reg(r),
                "pass {} changed {r}",
                pass.name()
            );
        }
        // Memory results match too.
        for i in 0..64u64 {
            let a = 0x70000 + i * 8;
            assert_eq!(
                emu_base.state.mem.read(a, 8),
                emu_inst.state.mem.read(a, 8),
                "pass {} changed mem[{a:#x}]",
                pass.name()
            );
        }
    }
}

/// Dynamic secret-taint oracle: registers/memory derived from the key.
/// After each step of the instrumented binary, every secret-tainted
/// register must be in the architectural ProtSet (Lemma 1).
#[test]
fn ct_pass_protset_covers_secrets() {
    let base = ct_kernel();
    for pass in [Pass::Cts, Pass::Ct, Pass::Unr] {
        let program = compile_with(&base, pass).program;
        let mut emu = Emulator::new(&program, init_state());
        // Secret taint oracle.
        let mut reg_secret = [false; Reg::COUNT];
        let mut mem_secret = std::collections::HashSet::new();
        for i in 0..8u64 {
            mem_secret.insert(KEY + i);
        }
        while let Some(record) = emu.step() {
            // Propagate the oracle.
            let srcs_secret = record.inst.src_regs().iter().any(|r| reg_secret[r.index()]);
            let loaded_secret = record.mem.is_some_and(|m| {
                !m.is_store && (0..m.size).any(|i| mem_secret.contains(&(m.addr + i)))
            });
            let secret_out = srcs_secret || loaded_secret;
            for (r, _, protected) in &record.reg_writes {
                reg_secret[r.index()] = secret_out;
                // LEMMA 1: secret registers are protected.
                if secret_out {
                    assert!(
                        *protected,
                        "pass {}: secret written to unprotected {r} at idx {}",
                        pass.name(),
                        record.idx
                    );
                }
            }
            if let Some(m) = record.mem {
                if m.is_store {
                    for i in 0..m.size {
                        if secret_out || srcs_secret {
                            // Store data secrecy: the data operand only.
                            let data_secret = match record.inst.op {
                                protean::isa::Op::Store {
                                    src: protean::isa::Operand::Reg(r),
                                    ..
                                } => reg_secret[r.index()],
                                _ => false,
                            };
                            if data_secret {
                                mem_secret.insert(m.addr + i);
                                // LEMMA 1 (memory): secret bytes protected.
                                assert!(
                                    emu.prot.mem_protected(m.addr + i, 1),
                                    "pass {}: secret byte {:#x} unprotected",
                                    pass.name(),
                                    m.addr + i
                                );
                            } else {
                                mem_secret.remove(&(m.addr + i));
                            }
                        } else {
                            mem_secret.remove(&(m.addr + i));
                        }
                    }
                }
            }
            if emu.steps() > 100_000 {
                panic!("runaway");
            }
        }
    }
}
