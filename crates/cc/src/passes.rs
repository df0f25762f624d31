//! The ProtCC passes and the multi-class compilation driver (paper §V).

use crate::analysis::{bound_to_leak, never_secret, past_leaked, pinned_public};
use crate::cfg::{regions, FunctionCfg};
use crate::cts::infer_typing;
use crate::edit::ProgramEditor;
use protean_isa::{Program, Reg, RegSet, SecurityClass};
use protean_rng::Rng;

/// A ProtCC pass (paper §V-A, one per vulnerable-code class, plus the
/// random instrumentation used for UNPROT-SEQ fuzzing, §VII-B4).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Pass {
    /// ProtCC-ARCH: a no-op — unmodified binaries already program the
    /// ARCH ProtSet (only architecturally accessed memory is
    /// unprotected).
    Arch,
    /// ProtCC-CTS: secrecy-typing inference; protects secret-typed
    /// definitions, unprotects publicly-typed arguments at entry.
    Cts,
    /// ProtCC-CT: past-leaked/bound-to-leak analyses; protects
    /// possibly-secret definitions, declassifies newly bound-to-leak
    /// registers with identity moves.
    Ct,
    /// ProtCC-UNR: protects everything except never-secret registers
    /// (stack pointer, constants, and values computed solely from them).
    Unr,
    /// ProtCC-RAND: `PROT`-prefix a random subset of instructions (for
    /// testing against UNPROT-SEQ).
    Rand {
        /// Probability of prefixing each instruction.
        prob: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl Pass {
    /// The pass for a given vulnerable-code class.
    pub fn for_class(class: SecurityClass) -> Pass {
        match class {
            SecurityClass::Arch => Pass::Arch,
            SecurityClass::Cts => Pass::Cts,
            SecurityClass::Ct => Pass::Ct,
            SecurityClass::Unr => Pass::Unr,
        }
    }

    /// Short name (`ARCH`, `CTS`, `CT`, `UNR`, `RAND`).
    pub fn name(&self) -> &'static str {
        match self {
            Pass::Arch => "ARCH",
            Pass::Cts => "CTS",
            Pass::Ct => "CT",
            Pass::Unr => "UNR",
            Pass::Rand { .. } => "RAND",
        }
    }
}

/// Instrumentation statistics (the §IX-A2 overhead metrics).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PassStats {
    /// `PROT` prefixes added.
    pub prot_prefixes: usize,
    /// Identity moves inserted.
    pub identity_moves: usize,
}

/// A compiled program plus instrumentation statistics.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The instrumented program.
    pub program: Program,
    /// Instrumentation counts.
    pub stats: PassStats,
}

/// Compiles every function according to its class label; instructions
/// outside any function get `default_pass`. This is how multi-class
/// programs like nginx are targeted (paper §V-A, §VIII-B3).
///
/// # Examples
///
/// ```
/// use protean_cc::{compile, Pass};
/// use protean_isa::assemble;
///
/// let prog = assemble(
///     ".func crypt ct\n  load r1, [r0]\n  xor r1, r1, r2\n  ret\n.endfunc\nhalt\n",
/// ).unwrap();
/// let out = compile(&prog, Pass::Arch);
/// assert!(out.stats.prot_prefixes > 0); // the CT function got protected
/// assert!(out.program.validate().is_ok());
/// ```
pub fn compile(program: &Program, default_pass: Pass) -> Compiled {
    let regions: Vec<(u32, u32, Pass)> = regions(program)
        .into_iter()
        .map(|(start, end, class)| (start, end, class.map_or(default_pass, Pass::for_class)))
        .collect();
    compile_regions(program, &regions)
}

/// Compiles the whole program with a single pass, ignoring function
/// class labels.
pub fn compile_with(program: &Program, pass: Pass) -> Compiled {
    compile_regions(program, &[(0, program.len() as u32, pass)])
}

fn compile_regions(program: &Program, regions: &[(u32, u32, Pass)]) -> Compiled {
    let mut editor = ProgramEditor::new(program.clone());
    let mut stats = PassStats::default();
    for (start, end, pass) in regions {
        apply_pass(program, &mut editor, *start, *end, *pass, &mut stats);
    }
    stats.identity_moves = editor.pending_insertions();
    Compiled {
        program: editor.apply(),
        stats,
    }
}

/// Registers eligible for identity-move declassification (flags cannot
/// be moved).
pub(crate) fn movable(set: RegSet) -> RegSet {
    let mut out = set.difference(pinned_public());
    out.remove(Reg::RFLAGS);
    out
}

fn apply_pass(
    program: &Program,
    editor: &mut ProgramEditor,
    start: u32,
    end: u32,
    pass: Pass,
    stats: &mut PassStats,
) {
    if start >= end {
        return;
    }
    let cfg = match pass {
        Pass::Arch => return,
        Pass::Rand { prob, seed } => {
            let mut rng = Rng::seed_from_u64(seed);
            for idx in start..end {
                if rng.gen_bool(prob) {
                    editor.set_prot(idx, true);
                    stats.prot_prefixes += 1;
                }
            }
            return;
        }
        Pass::Cts | Pass::Ct | Pass::Unr => FunctionCfg::build(program, start, end),
    };
    // Each pass yields the registers public after every instruction, and
    // the registers to declassify with identity moves at (function-
    // relative) positions, in insertion order.
    let mut moves: Vec<(u32, RegSet)> = Vec::new();
    let public_after: Vec<RegSet> = match pass {
        Pass::Cts => {
            let typing = infer_typing(program, &cfg);
            moves.push((0, typing.public_entry));
            typing.public_outputs
        }
        Pass::Ct => {
            let pl = past_leaked(program, &cfg);
            let bl = bound_to_leak(program, &cfg);
            // Declassify newly bound-to-leak registers at function entry
            // and block entries (rule (ii), §V-A3).
            moves.push((0, bl.before[0]));
            for leader in cfg.block_leaders().into_iter().filter(|&l| l != 0) {
                let mut already = RegSet::all();
                for p in &cfg.preds[leader as usize] {
                    already = already.intersection(bl.after[*p as usize]);
                }
                moves.push((leader, bl.before[leader as usize].difference(already)));
            }
            pl.after
                .iter()
                .zip(&bl.after)
                .map(|(p, b)| p.union(*b))
                .collect()
        }
        Pass::Unr => never_secret(program, &cfg).after,
        Pass::Arch | Pass::Rand { .. } => unreachable!("returned above"),
    };
    // Prefix every definition that is not public after its instruction
    // (the pinned registers are never protected).
    for (local, public) in public_after.iter().enumerate() {
        let idx = start + local as u32;
        let dsts = program.insts[idx as usize]
            .dst_regs()
            .difference(pinned_public());
        if !public.is_superset(dsts) {
            editor.set_prot(idx, true);
            stats.prot_prefixes += 1;
        }
    }
    for (local, regs) in moves {
        for r in movable(regs).iter() {
            editor.insert_identity_move(start + local, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_isa::assemble;

    /// The paper's Fig. 3 source, compiled by each pass; the expected
    /// instrumentation follows Fig. 3b–e.
    fn fig3() -> Program {
        assemble(
            r#"
            load r1, [r0]            ; 0: Rx = *Rp
            mov r2, 0                ; 1: Ry = 0
            cmp r1, 0                ; 2
            jlt skip                 ; 3
            load r2, [r1*4 + 0x1000] ; 4: Ry = A[Rx]
          skip:
            ret                      ; 5
            "#,
        )
        .unwrap()
    }

    #[test]
    fn arch_pass_is_noop() {
        let out = compile_with(&fig3(), Pass::Arch);
        assert_eq!(out.program.insts, fig3().insts);
        assert_eq!(out.stats, PassStats::default());
    }

    /// Fig. 3c: CTS prefixes only the reloading of Ry and unprotects Rp
    /// at entry.
    #[test]
    fn cts_pass_matches_fig3c() {
        let out = compile_with(&fig3(), Pass::Cts);
        let p = &out.program;
        // One identity move at entry (Rp).
        assert!(p.insts[0].is_identity_move());
        assert!(matches!(
            p.insts[0].op,
            protean_isa::Op::Mov { dst: Reg::R0, .. }
        ));
        // Prefixed: only the A[x] load (old index 4 -> new index 5).
        let prefixed: Vec<usize> = p
            .insts
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| inst.prot.then_some(i))
            .collect();
        assert_eq!(prefixed, vec![5]);
        assert_eq!(out.stats.prot_prefixes, 1);
        assert_eq!(out.stats.identity_moves, 1);
    }

    /// Fig. 3d: CT prefixes the first load, the cmp, and the A[x] load,
    /// and inserts identity moves for Rp (entry) and Rx (fall-through
    /// edge).
    #[test]
    fn ct_pass_matches_fig3d() {
        let out = compile_with(&fig3(), Pass::Ct);
        let p = &out.program;
        assert_eq!(out.stats.identity_moves, 2);
        assert_eq!(out.stats.prot_prefixes, 3);
        // Entry move unprotects Rp.
        assert!(matches!(
            p.insts[0].op,
            protean_isa::Op::Mov { dst: Reg::R0, .. }
        ));
        assert!(!p.insts[0].prot);
        // Old indices shift by 1 for the entry move; the edge move for
        // Rx sits before the A[x] load.
        // Layout: [mov r0,r0][load][mov r2,0][cmp][jlt][mov r1,r1][load A][ret]
        assert!(p.insts[1].prot, "x = *p load is protected");
        assert!(!p.insts[2].prot, "constant y = 0 is unprotected");
        assert!(p.insts[3].prot, "cmp (rflags only partially transmitted)");
        assert!(p.insts[5].is_identity_move());
        assert!(matches!(
            p.insts[5].op,
            protean_isa::Op::Mov { dst: Reg::R1, .. }
        ));
        assert!(p.insts[6].prot, "y = A[x] load is protected");
        assert!(!p.insts[7].prot, "ret is never prefixed");
        assert!(p.validate().is_ok());
        // The branch still targets the ret.
        assert_eq!(p.insts[4].static_target(), Some(7));
    }

    /// Fig. 3e: UNR unprotects only the constant `mov Ry, 0`.
    #[test]
    fn unr_pass_matches_fig3e() {
        let out = compile_with(&fig3(), Pass::Unr);
        let p = &out.program;
        assert_eq!(out.stats.identity_moves, 0);
        let unprefixed: Vec<usize> = p
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| !i.prot && !i.dst_regs().is_empty())
            .map(|(i, _)| i)
            .collect();
        // `mov r2, 0` (index 1) and `ret` (RSP-only output) stay
        // unprefixed.
        assert_eq!(unprefixed, vec![1, 5]);
        assert!(p.insts[0].prot); // the load
        assert!(p.insts[2].prot); // cmp on loaded data
    }

    #[test]
    fn rand_pass_is_deterministic() {
        let a = compile_with(&fig3(), Pass::Rand { prob: 0.5, seed: 7 });
        let b = compile_with(&fig3(), Pass::Rand { prob: 0.5, seed: 7 });
        assert_eq!(a.program.insts, b.program.insts);
        let c = compile_with(&fig3(), Pass::Rand { prob: 0.5, seed: 8 });
        assert!(a.program.insts != c.program.insts || a.stats == c.stats);
    }

    #[test]
    fn multi_class_compiles_per_function() {
        let prog = assemble(
            r#"
            .func main arch
              mov r0, 0x1000
              call crypt
              halt
            .endfunc
            .func crypt unr
              load r1, [r0]
              add r1, r1, 1
              ret
            .endfunc
            "#,
        )
        .unwrap();
        let out = compile(&prog, Pass::Arch);
        let p = &out.program;
        let main = p.function("main").unwrap();
        let crypt = p.function("crypt").unwrap();
        // ARCH region untouched.
        for i in main.range() {
            assert!(!p.insts[i].prot, "main inst {i} must stay unprefixed");
        }
        // UNR region: the load and the add are prefixed.
        let crypt_prot: Vec<bool> = crypt.range().map(|i| p.insts[i].prot).collect();
        assert_eq!(crypt_prot, vec![true, true, false]); // load, add, ret
    }

    #[test]
    fn ct_identity_moves_only_on_sound_edges() {
        // r1 leaks on both sides of a diamond -> bound-to-leak before the
        // branch; no *newly* bound-to-leak edge moves needed inside.
        let prog = assemble(
            r#"
            cmp r0, 0
            jeq b
            load r2, [r1]
            jmp join
          b:
            load r3, [r1]
          join:
            ret
            "#,
        )
        .unwrap();
        let out = compile_with(&prog, Pass::Ct);
        // Exactly one identity move (r1 at entry; r0 is only partially
        // transmitted via cmp so it gets none).
        assert_eq!(out.stats.identity_moves, 1);
        assert!(matches!(
            out.program.insts[0].op,
            protean_isa::Op::Mov { dst: Reg::R1, .. }
        ));
    }
}
