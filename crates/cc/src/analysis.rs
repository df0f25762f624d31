//! The register-level dataflow analyses behind ProtCC-CT and ProtCC-UNR
//! (paper §V-A3, §V-A4).
//!
//! All three analyses work on [`RegSet`] lattices over an instruction-
//! level [`FunctionCfg`] with *must* (intersection) merges — an
//! under-approximation is required, since their results license
//! **un**protection:
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

use crate::cfg::FunctionCfg;
use protean_isa::{Inst, Op, Program, Reg, RegSet, Width};

/// Registers `inst` *fully* transmits: memory address registers and
/// indirect-jump targets.
pub fn fully_transmitted(inst: &Inst) -> RegSet {
    let mut set = inst.address_regs();
    if let Op::JmpReg { src } = inst.op {
        set.insert(src);
    }
    set
}

/// The never-secret-by-convention registers (stack and frame pointer):
/// pinned unprotected by every pass, as ProtCC-UNR's stack-pointer rule
/// (§V-A4, and the §IX-A1 `blackscholes` analysis) requires.
pub fn pinned_public() -> RegSet {
    RegSet::from_regs([Reg::RSP, Reg::RBP])
}

fn is_call(inst: &Inst) -> bool {
    matches!(inst.op, Op::Call { .. })
}

/// Result of a forward/backward register analysis: per-instruction `IN`
/// and `OUT` sets (function-relative indexing).
#[derive(Clone, Debug)]
pub struct RegFlow {
    /// Set holding *before* each instruction.
    pub before: Vec<RegSet>,
    /// Set holding *after* each instruction.
    pub after: Vec<RegSet>,
}

/// Forward must-analysis: past-leaked registers (paper §V-A3).
pub fn past_leaked(program: &Program, cfg: &FunctionCfg) -> RegFlow {
    let n = cfg.len();
    let mut before = vec![RegSet::all(); n];
    let mut after = vec![RegSet::all(); n];
    if n == 0 {
        return RegFlow { before, after };
    }
    before[0] = pinned_public();
    let transfer = |local: usize, input: RegSet| -> RegSet {
        let inst = &program.insts[(cfg.start + local as u32) as usize];
        if is_call(inst) {
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
    };
    fixpoint_forward(cfg, &mut before, &mut after, pinned_public(), transfer);
    RegFlow { before, after }
}

/// Backward must-analysis: bound-to-leak registers (paper §V-A3).
pub fn bound_to_leak(program: &Program, cfg: &FunctionCfg) -> RegFlow {
    let n = cfg.len();
    let mut before = vec![RegSet::all(); n];
    let mut after = vec![RegSet::all(); n];
    if n == 0 {
        return RegFlow { before, after };
    }
    let transfer = |local: usize, output: RegSet| -> RegSet {
        let inst = &program.insts[(cfg.start + local as u32) as usize];
        if is_call(inst) {
            // The callee's behaviour is unknown: only the call's own
            // transmission (of RSP) is guaranteed.
            return fully_transmitted(inst);
        }
        output
            .difference(inst.dst_regs())
            .union(fully_transmitted(inst))
    };
    // Iterate to a fixpoint, backward.
    let mut changed = true;
    while changed {
        changed = false;
        for local in (0..n).rev() {
            let mut out = if cfg.exits[local] && cfg.succs[local].is_empty() {
                RegSet::new()
            } else {
                let mut acc = RegSet::all();
                for s in &cfg.succs[local] {
                    acc = acc.intersection(before[*s as usize]);
                }
                if cfg.succs[local].is_empty() {
                    acc = RegSet::new();
                }
                acc
            };
            if cfg.exits[local] && !cfg.succs[local].is_empty() {
                // Mixed exit/successor (cannot happen with current ops,
                // but stay conservative).
                out = RegSet::new();
            }
            let inp = transfer(local, out);
            if out != after[local] || inp != before[local] {
                after[local] = out;
                before[local] = inp;
                changed = true;
            }
        }
    }
    RegFlow { before, after }
}

/// Forward must-analysis: never-secret registers (ProtCC-UNR, §V-A4).
pub fn never_secret(program: &Program, cfg: &FunctionCfg) -> RegFlow {
    let n = cfg.len();
    let mut before = vec![RegSet::all(); n];
    let mut after = vec![RegSet::all(); n];
    if n == 0 {
        return RegFlow { before, after };
    }
    before[0] = pinned_public();
    let transfer = |local: usize, input: RegSet| -> RegSet {
        let inst = &program.insts[(cfg.start + local as u32) as usize];
        if is_call(inst) {
            return pinned_public();
        }
        let ns_operand = |op: protean_isa::Operand| match op {
            protean_isa::Operand::Reg(r) => input.contains(r),
            protean_isa::Operand::Imm(_) => true,
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
                if input.contains(src) && input.contains(dst) && input.contains(Reg::RFLAGS) =>
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
            Op::Load { .. } | Op::Ret => {}
            _ => {}
        }
        out.union(pinned_public())
    };
    fixpoint_forward(cfg, &mut before, &mut after, pinned_public(), transfer);
    RegFlow { before, after }
}

fn fixpoint_forward(
    cfg: &FunctionCfg,
    before: &mut [RegSet],
    after: &mut [RegSet],
    entry: RegSet,
    transfer: impl Fn(usize, RegSet) -> RegSet,
) {
    let n = cfg.len();
    let mut changed = true;
    while changed {
        changed = false;
        for local in 0..n {
            let inp = if local == 0 && cfg.preds[0].is_empty() {
                entry
            } else {
                let mut acc = if local == 0 { entry } else { RegSet::all() };
                let mut any = local == 0;
                for p in &cfg.preds[local] {
                    acc = acc.intersection(after[*p as usize]);
                    any = true;
                }
                if !any {
                    // Unreachable: keep TOP (never constrains anything).
                    RegSet::all()
                } else {
                    acc
                }
            };
            let out = transfer(local, inp);
            if inp != before[local] || out != after[local] {
                before[local] = inp;
                after[local] = out;
                changed = true;
            }
        }
    }
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
