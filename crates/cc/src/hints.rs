//! User-provided secrecy annotations (paper §V-C).
//!
//! "Users willing to trade programmer transparency for additional
//! performance can refine the ProtSets inferred by ProtCC through manual
//! annotations": this module implements the *public* annotations — entry
//! registers known public (function arguments carrying lengths, modes,
//! pointers) and memory ranges known public (plaintext buffers, tables).
//!
//! Hints only ever *unprotect*; a wrong hint is a user-declared
//! declassification, exactly like a wrong class label (§V-B).

use crate::edit::ProgramEditor;
use crate::passes::{movable, Compiled, Pass};
use protean_isa::{Mem, Op, Program, RegSet};

/// Public-data annotations for a compilation unit.
///
/// # Examples
///
/// ```
/// use protean_cc::{compile_with_hints, Pass, PublicHints};
/// use protean_isa::{assemble, Reg};
///
/// // A CT kernel whose `r0` argument is a public length and whose table
/// // at 0x1000 is public: with hints, the length-derived compare and the
/// // table loads stay unprotected.
/// let prog = assemble(
///     "load r1, [0x1000 + r0*8]\ncmp r1, r0\nprot load r2, [0x2000]\nret\n",
/// ).unwrap();
/// let mut hints = PublicHints::new();
/// hints.entry_public.insert(Reg::R0);
/// hints.add_public_range(0x1000, 0x100);
/// let hinted = compile_with_hints(&prog, Pass::Ct, &hints);
/// let unhinted = protean_cc::compile_with(&prog, Pass::Ct);
/// assert!(hinted.stats.prot_prefixes <= unhinted.stats.prot_prefixes);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PublicHints {
    /// Registers whose values are public at region entry.
    pub entry_public: RegSet,
    /// Half-open address ranges of memory declared public.
    pub public_ranges: Vec<(u64, u64)>,
}

impl PublicHints {
    /// No hints (fully programmer-transparent compilation).
    pub fn new() -> PublicHints {
        PublicHints::default()
    }

    /// Declares `[base, base+len)` public.
    ///
    /// # Panics
    ///
    /// If `base + len` overflows: the range would wrap past the top of
    /// the address space.
    pub fn add_public_range(&mut self, base: u64, len: u64) -> &mut Self {
        let end = base
            .checked_add(len)
            .unwrap_or_else(|| panic!("public range {base:#x} + {len:#x} wraps the address space"));
        self.public_ranges.push((base, end));
        self
    }

    /// Whether a static memory operand provably reads only hinted-public
    /// memory: an absolute address (no registers) fully inside a range.
    /// An access that wraps past the top of memory is never covered.
    pub fn covers(&self, mem: &Mem, size: u64) -> bool {
        if mem.base.is_some() || mem.index.is_some() {
            return false;
        }
        let start = mem.disp as u64;
        let Some(end) = start.checked_add(size) else {
            return false;
        };
        self.public_ranges
            .iter()
            .any(|(lo, hi)| *lo <= start && end <= *hi)
    }

    /// Whether any hints are present.
    pub fn is_empty(&self) -> bool {
        self.entry_public.is_empty() && self.public_ranges.is_empty()
    }
}

/// Compiles with a single pass plus user annotations: after the pass's
/// own instrumentation, hinted-public definitions are *un*-prefixed and
/// hinted-public entry registers are declassified with identity moves.
pub fn compile_with_hints(program: &Program, pass: Pass, hints: &PublicHints) -> Compiled {
    // Run the automatic pass first.
    let base = crate::passes::compile_with(program, pass);
    if hints.is_empty() || matches!(pass, Pass::Arch | Pass::Rand { .. }) {
        return base;
    }
    let program = base.program;
    let mut editor = ProgramEditor::new(program.clone());
    let mut stats = base.stats;

    // 1. Hinted-public static loads need no protection: their value is
    //    user-declared public.
    for (idx, inst) in program.insts.iter().enumerate() {
        if !inst.prot {
            continue;
        }
        if let Op::Load { addr, size, .. } = inst.op {
            if hints.covers(&addr, size.bytes()) {
                editor.set_prot(idx as u32, false);
                stats.prot_prefixes = stats.prot_prefixes.saturating_sub(1);
            }
        }
    }

    // 2. Hinted-public entry registers: declassify with identity moves at
    //    region entry (only those the pass did not already declassify,
    //    i.e. not moved by the unprefixed identity moves it starts with).
    let moved = program
        .insts
        .iter()
        .take_while(|inst| !inst.prot && inst.is_identity_move())
        .fold(RegSet::new(), |acc, inst| acc.union(inst.dst_regs()));
    for r in movable(hints.entry_public.difference(moved)).iter() {
        editor.insert_identity_move(0, r);
        stats.identity_moves += 1;
    }

    Compiled {
        program: editor.apply(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_isa::{assemble, Reg};

    #[test]
    fn public_range_unprefixes_static_loads() {
        let prog = assemble("prot load r1, [0x1000]\nprot load r2, [0x2000]\nret\n").unwrap();
        // UNR would protect both loads; a hint clears the first.
        let mut hints = PublicHints::new();
        hints.add_public_range(0x1000, 0x10);
        let out = compile_with_hints(&prog, Pass::Unr, &hints);
        assert!(!out.program.insts[0].prot, "hinted load unprotected");
        assert!(out.program.insts[1].prot, "unhinted load stays protected");
    }

    #[test]
    fn covers_requires_full_containment_and_static_address() {
        let mut hints = PublicHints::new();
        hints.add_public_range(0x1000, 0x100);
        assert!(hints.covers(&Mem::abs(0x1000), 8));
        assert!(hints.covers(&Mem::abs(0x10f8), 8));
        assert!(!hints.covers(&Mem::abs(0x10fc), 8)); // straddles the end
        assert!(!hints.covers(&Mem::base(Reg::R0).with_disp(0x1000), 8)); // dynamic
    }

    #[test]
    fn covers_rejects_an_access_that_wraps() {
        let mut hints = PublicHints::new();
        hints.add_public_range(0, 0x100);
        // Its end wraps to 4, inside the range; its bytes are not.
        assert!(!hints.covers(&Mem::abs(0xffff_ffff_ffff_fffc), 8));
        assert!(hints.covers(&Mem::abs(0xf8), 8));
    }

    #[test]
    #[should_panic(expected = "wraps the address space")]
    fn add_public_range_refuses_a_range_that_wraps() {
        PublicHints::new().add_public_range(0xffff_ffff_ffff_f000, 0x2000);
    }

    #[test]
    fn entry_hint_skips_registers_the_pass_already_moves() {
        // Fig. 3: CTS and CT already move Rp (r0) at entry.
        let prog = assemble(
            "load r1, [r0]\nmov r2, 0\ncmp r1, 0\njlt @5\nload r2, [r1*4 + 0x1000]\nret\n",
        )
        .unwrap();
        let mut hints = PublicHints::new();
        hints.entry_public.insert(Reg::R0);
        for (pass, moves) in [(Pass::Cts, 1), (Pass::Ct, 2)] {
            let out = compile_with_hints(&prog, pass, &hints);
            assert_eq!(out.stats.identity_moves, moves, "{}", pass.name());
            assert_eq!(out.program.identity_move_count(), moves, "{}", pass.name());
        }
    }

    #[test]
    fn entry_hint_adds_identity_move() {
        let prog = assemble("add r1, r0, 1\nstore [rsp], r1\nret\n").unwrap();
        let mut hints = PublicHints::new();
        hints.entry_public.insert(Reg::R0);
        let out = compile_with_hints(&prog, Pass::Unr, &hints);
        assert!(out.program.insts[0].is_identity_move());
        assert!(matches!(
            out.program.insts[0].op,
            Op::Mov { dst: Reg::R0, .. }
        ));
    }

    #[test]
    fn empty_hints_are_identity() {
        let prog = assemble("prot load r1, [0x1000]\nret\n").unwrap();
        let a = compile_with_hints(&prog, Pass::Ct, &PublicHints::new());
        let b = crate::passes::compile_with(&prog, Pass::Ct);
        assert_eq!(a.program.insts, b.program.insts);
    }

    #[test]
    fn semantics_preserved_under_hints() {
        use protean_arch::{ArchState, Emulator};
        let prog = assemble(
            "mov rsp, 0x8000\nload r1, [0x1000]\nadd r2, r1, 5\nstore [0x3000], r2\nhalt\n",
        )
        .unwrap();
        let mut hints = PublicHints::new();
        hints.add_public_range(0x1000, 0x20);
        hints.entry_public.insert(Reg::R3);
        let out = compile_with_hints(&prog, Pass::Unr, &hints);
        let mut init = ArchState::new();
        init.mem.write(0x1000, 8, 37);
        let mut a = Emulator::new(&prog, init.clone());
        a.run(100);
        let mut b = Emulator::new(&out.program, init);
        b.run(100);
        for r in Reg::all() {
            assert_eq!(a.state.reg(r), b.state.reg(r));
        }
        assert_eq!(a.state.mem.read(0x3000, 8), b.state.mem.read(0x3000, 8));
    }

    /// The PassStats bookkeeping stays consistent.
    #[test]
    fn stats_track_hint_effects() {
        let prog = assemble("prot load r1, [0x1000]\nret\n").unwrap();
        let mut hints = PublicHints::new();
        hints.add_public_range(0x1000, 0x10);
        hints.entry_public.insert(Reg::R5);
        let out = compile_with_hints(&prog, Pass::Unr, &hints);
        let _ = out.stats; // counts adjusted without underflow
        assert_eq!(out.program.identity_move_count(), 1);
    }
}
