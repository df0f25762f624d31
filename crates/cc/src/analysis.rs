//! The register-level dataflow analyses behind ProtCC-CT and ProtCC-UNR
//! (paper §V-A3, §V-A4).
//!
//! All three analyses work on [`RegSet`] lattices over an instruction-
//! level [`FunctionCfg`], solved by [`FunctionCfg::solve`] with *must*
//! (intersection) merges — an under-approximation is required, since
//! their results license **un**protection:
//!
//! * [`past_leaked`] — registers whose current value already *fully*
//!   leaked along all prior paths, or holds a constant;
//! * [`bound_to_leak`] — registers whose current value will be *fully*
//!   transmitted along all future paths before redefinition;
//! * [`never_secret`] — registers derivable only from the stack pointer
//!   and constants (the ProtCC-UNR residue).
//!
//! "Fully transmitted" excludes conditional branches and divisions: a
//! `jcc` reveals one predicate bit of `rflags` and a divider only a
//! latency class — *partial* transmission, which cannot justify
//! unprotecting the register under CT rules (it can under CTS typing,
//! see [`crate::cts`]; this distinction is exactly why ProtCC-CTS
//! outperforms SPT in §IX-B2).

use crate::cfg::{Direction, Flow, FunctionCfg};
use protean_isa::{Inst, Op, Operand, Program, Reg, RegSet, Width};

/// Registers `inst` *fully* transmits: memory address registers and
/// indirect-jump targets.
pub(crate) fn fully_transmitted(inst: &Inst) -> RegSet {
    let mut set = inst.address_regs();
    if let Op::JmpReg { src } = inst.op {
        set.insert(src);
    }
    set
}

/// The never-secret-by-convention registers (stack and frame pointer):
/// pinned unprotected by every pass, as ProtCC-UNR's stack-pointer rule
/// (§V-A4, and the §IX-A1 `blackscholes` analysis) requires.
pub(crate) fn pinned_public() -> RegSet {
    RegSet::from_regs([Reg::RSP, Reg::RBP])
}

/// Solves a must-analysis over [`RegSet`]s: intersection meet, with
/// `transfer` applied to the instruction at each function-relative
/// index.
fn must_solve(
    program: &Program,
    cfg: &FunctionCfg,
    direction: Direction,
    boundary: RegSet,
    transfer: impl Fn(&Inst, RegSet) -> RegSet,
) -> Flow<RegSet> {
    cfg.solve(
        direction,
        boundary,
        RegSet::all(),
        |acc, x| *acc = acc.intersection(*x),
        |local, &fact| transfer(&program.insts[cfg.start as usize + local], fact),
    )
}

/// Forward must-analysis: past-leaked registers (paper §V-A3).
pub(crate) fn past_leaked(program: &Program, cfg: &FunctionCfg) -> Flow<RegSet> {
    must_solve(
        program,
        cfg,
        Direction::Forward,
        pinned_public(),
        |inst, input| {
            if matches!(inst.op, Op::Call { .. }) {
                // Opaque call: only the pinned registers survive.
                return pinned_public();
            }
            // Values being transmitted now are leaked afterwards…
            let base = input.union(fully_transmitted(inst));
            // …unless the instruction overwrites them.
            let mut out = base.difference(inst.dst_regs());
            // A deterministic function of fully-leaked inputs is itself
            // public knowledge (the attacker knows the code): constants,
            // copies, and ALU results over leaked operands. Loads are
            // excluded — a public *address* says nothing about the loaded
            // value.
            let width_ok = |w: Width, dst: Reg| !w.is_partial() || base.contains(dst);
            match inst.op {
                Op::MovImm { dst, width, .. } if width_ok(width, dst) => {
                    out.insert(dst);
                }
                Op::Mov { dst, src, width } if base.contains(src) && width_ok(width, dst) => {
                    out.insert(dst);
                }
                // Partial-width writes already require the old dst public
                // via src_regs (it is listed as an input).
                _ if !inst.is_load() && base.is_superset(inst.src_regs()) => {
                    out = out.union(inst.dst_regs());
                }
                _ => {}
            }
            out.union(pinned_public())
        },
    )
}

/// Backward must-analysis: bound-to-leak registers (paper §V-A3). No
/// register is bound to leak after an exit — including a `jcc` whose
/// other edge stays in the function.
pub(crate) fn bound_to_leak(program: &Program, cfg: &FunctionCfg) -> Flow<RegSet> {
    must_solve(
        program,
        cfg,
        Direction::Backward,
        RegSet::new(),
        |inst, output| {
            if matches!(inst.op, Op::Call { .. }) {
                // The callee's behaviour is unknown: only the call's own
                // transmission (of RSP) is guaranteed.
                return fully_transmitted(inst);
            }
            output
                .difference(inst.dst_regs())
                .union(fully_transmitted(inst))
        },
    )
}

/// Forward must-analysis: never-secret registers (ProtCC-UNR, §V-A4).
pub(crate) fn never_secret(program: &Program, cfg: &FunctionCfg) -> Flow<RegSet> {
    must_solve(
        program,
        cfg,
        Direction::Forward,
        pinned_public(),
        |inst, input| {
            if matches!(inst.op, Op::Call { .. }) {
                return pinned_public();
            }
            let ns_operand = |op: Operand| match op {
                Operand::Reg(r) => input.contains(r),
                Operand::Imm(_) => true,
            };
            let mut out = input.difference(inst.dst_regs());
            let full = |w: Width, dst: Reg| !w.is_partial() || input.contains(dst);
            match inst.op {
                Op::MovImm { dst, width, .. } if full(width, dst) => {
                    out.insert(dst);
                }
                Op::Mov { dst, src, width } if input.contains(src) && full(width, dst) => {
                    out.insert(dst);
                }
                Op::CMov { dst, src, .. }
                    if input.contains(src)
                        && input.contains(dst)
                        && input.contains(Reg::RFLAGS) =>
                {
                    out.insert(dst);
                }
                Op::Alu {
                    dst,
                    src1,
                    src2,
                    width,
                    ..
                } if input.contains(src1) && ns_operand(src2) && full(width, dst) => {
                    out.insert(dst);
                    out.insert(Reg::RFLAGS);
                }
                Op::Cmp { src1, src2 } if input.contains(src1) && ns_operand(src2) => {
                    out.insert(Reg::RFLAGS);
                }
                Op::Div { dst, src1, src2 } if input.contains(src1) && input.contains(src2) => {
                    out.insert(dst);
                }
                // Loaded values may be secret in unrestricted code.
                _ => {}
            }
            out.union(pinned_public())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_isa::assemble;

    fn cfg_of(p: &Program) -> FunctionCfg {
        FunctionCfg::build(p, 0, p.len() as u32)
    }

    /// The paper's Fig. 3 example:
    /// `x = *p; y = 0; if (x >= 0) y = A[x];`
    fn fig3() -> Program {
        assemble(
            r#"
            load r1, [r0]            ; 0: x = *p
            mov r2, 0                ; 1: y = 0
            cmp r1, 0                ; 2
            jlt skip                 ; 3
            load r2, [r1*4 + 0x1000] ; 4: y = A[x]
          skip:
            ret                      ; 5
            "#,
        )
        .unwrap()
    }

    #[test]
    fn bound_to_leak_matches_fig3() {
        let p = fig3();
        let cfg = cfg_of(&p);
        let bl = bound_to_leak(&p, &cfg);
        // Rp (r0) is bound-to-leak at entry: the load at 0 transmits it
        // on all paths.
        assert!(bl.before[0].contains(Reg::R0));
        // Rx (r1) is NOT bound-to-leak before the branch (the taken path
        // never transmits it)…
        assert!(!bl.before[3].contains(Reg::R1));
        // …but becomes bound-to-leak on the fall-through edge.
        assert!(bl.before[4].contains(Reg::R1));
        // rflags is never fully transmitted.
        assert!(!bl.before[3].contains(Reg::RFLAGS));
    }

    #[test]
    fn past_leaked_matches_fig3() {
        let p = fig3();
        let cfg = cfg_of(&p);
        let pl = past_leaked(&p, &cfg);
        // Ry (r2) holds a constant after instruction 1.
        assert!(pl.after[1].contains(Reg::R2));
        // …but not after being overwritten by the load at 4.
        assert!(!pl.after[4].contains(Reg::R2));
        // Rp (r0) is past-leaked once the load at 0 transmitted it.
        assert!(pl.after[0].contains(Reg::R0));
        // The loaded Rx is not leaked.
        assert!(!pl.after[0].contains(Reg::R1));
        // The stack pointer is pinned leaked.
        assert!(pl.before[0].contains(Reg::RSP));
    }

    #[test]
    fn never_secret_tracks_constants_and_rsp() {
        let p = assemble(
            r#"
            mov r0, 0          ; const: NS
            add r1, r0, 8      ; derived from const: NS
            mov r2, rsp        ; derived from rsp: NS
            load r3, [r2]      ; loaded: not NS
            add r4, r3, r0     ; mixes loaded: not NS
            halt
            "#,
        )
        .unwrap();
        let cfg = cfg_of(&p);
        let ns = never_secret(&p, &cfg);
        assert!(ns.after[0].contains(Reg::R0));
        assert!(ns.after[1].contains(Reg::R1));
        assert!(ns.after[2].contains(Reg::R2));
        assert!(!ns.after[3].contains(Reg::R3));
        assert!(!ns.after[4].contains(Reg::R4));
        assert!(ns.after[4].contains(Reg::RSP));
    }

    #[test]
    fn loop_counter_is_never_secret() {
        // The paper: "loop indices starting at 0" stay never-secret.
        let p = assemble("mov r0, 0\ntop:\nadd r0, r0, 1\ncmp r0, 10\njlt top\nhalt\n").unwrap();
        let cfg = cfg_of(&p);
        let ns = never_secret(&p, &cfg);
        for i in 1..4 {
            assert!(ns.before[i].contains(Reg::R0), "inst {i}");
        }
    }

    #[test]
    fn must_merge_intersects() {
        // r1 leaked on one path only -> not past-leaked at the join.
        let p = assemble(
            r#"
            cmp r0, 0
            jeq other
            load r2, [r1]      ; transmits r1
            jmp join
          other:
            nop
          join:
            halt
            "#,
        )
        .unwrap();
        let cfg = cfg_of(&p);
        let pl = past_leaked(&p, &cfg);
        let join = 5;
        assert!(!pl.before[join].contains(Reg::R1));
    }

    #[test]
    fn call_clobbers_everything_but_pins() {
        let p = assemble("mov r0, 0\ncall @3\nhalt\nret\n").unwrap();
        let cfg = FunctionCfg::build(&p, 0, 3);
        let pl = past_leaked(&p, &cfg);
        assert!(!pl.before[2].contains(Reg::R0));
        assert!(pl.before[2].contains(Reg::RSP));
        let ns = never_secret(&p, &cfg);
        assert!(!ns.before[2].contains(Reg::R0));
        assert!(ns.before[2].contains(Reg::RSP));
    }
}
