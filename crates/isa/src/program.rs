//! Programs, functions, and security-class labels.

use crate::{Inst, Op, Reg, RegSet};
use core::fmt;
use std::collections::BTreeMap;

/// The four jointly exhaustive classes of Spectre-vulnerable code
/// (paper §III-A, Fig. 2), forming a hierarchy
/// `Arch ⊂ Cts ⊂ Ct ⊂ Unr`.
///
/// The class of a function determines which ProtCC pass compiles it and
/// which architectural state may hold secrets:
///
/// | Class | May hold secrets in |
/// |-------|---------------------|
/// | [`SecurityClass::Arch`] | unaccessed memory only |
/// | [`SecurityClass::Cts`]  | secret-typed registers/memory |
/// | [`SecurityClass::Ct`]   | untransmitted registers/memory |
/// | [`SecurityClass::Unr`]  | all registers/memory |
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SecurityClass {
    /// Non-secret-accessing code (e.g. sandboxed Wasm, eBPF).
    Arch,
    /// Static constant-time code (statically typable secrecy).
    Cts,
    /// Constant-time code (secrets never reach transmitter operands
    /// architecturally).
    Ct,
    /// Unrestricted code (may transmit secrets architecturally).
    Unr,
}

impl SecurityClass {
    /// All classes, narrowest first.
    pub const ALL: [SecurityClass; 4] = [
        SecurityClass::Arch,
        SecurityClass::Cts,
        SecurityClass::Ct,
        SecurityClass::Unr,
    ];

    /// Canonical short name (`ARCH`, `CTS`, `CT`, `UNR`).
    pub fn name(self) -> &'static str {
        match self {
            SecurityClass::Arch => "ARCH",
            SecurityClass::Cts => "CTS",
            SecurityClass::Ct => "CT",
            SecurityClass::Unr => "UNR",
        }
    }
}

impl fmt::Display for SecurityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The set of transmitter kinds a defense assumes (paper §II-B1).
///
/// Protean is *fully parametric* in its transmitters; the paper's threat
/// model assumes loads, stores, branches, and — newly — division µops.
///
/// # Examples
///
/// ```
/// use protean_isa::TransmitterSet;
///
/// let t = TransmitterSet::paper();
/// assert!(t.divs); // the new gem5 divider channel (§VII-B4b)
/// let legacy = TransmitterSet::legacy();
/// assert!(!legacy.divs); // what prior work assumed
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TransmitterSet {
    /// Loads transmit their address operands at execute.
    pub loads: bool,
    /// Stores transmit their address operands at execute.
    pub stores: bool,
    /// Conditional/indirect branches transmit their condition/target at
    /// resolve.
    pub branches: bool,
    /// Division µops partially transmit both input operands at execute.
    pub divs: bool,
}

impl TransmitterSet {
    /// The paper's threat model: loads, stores, branches, and divs.
    pub fn paper() -> TransmitterSet {
        TransmitterSet {
            loads: true,
            stores: true,
            branches: true,
            divs: true,
        }
    }

    /// Prior work's assumption (STT/SPT): no division channel.
    pub fn legacy() -> TransmitterSet {
        TransmitterSet {
            divs: false,
            ..TransmitterSet::paper()
        }
    }

    /// Returns `true` if `inst` is a transmitter under this set.
    pub fn is_transmitter(&self, inst: &Inst) -> bool {
        !self.sensitive_regs(inst).is_empty() || (self.divs && inst.is_div())
    }

    /// The registers whose values `inst` transmits (its *sensitive*
    /// operands): address registers for memory µops, the flags for
    /// conditional branches, the target for indirect branches, and both
    /// operands for division.
    pub fn sensitive_regs(&self, inst: &Inst) -> RegSet {
        let mut set = RegSet::new();
        if inst.is_load() || inst.is_store() {
            let on = if inst.is_load() {
                self.loads
            } else {
                self.stores
            };
            // `call` is a store; `ret` is a load: both through RSP.
            if on {
                set = set.union(inst.address_regs());
            }
        }
        if self.branches {
            match inst.op {
                Op::Jcc { .. } => {
                    set.insert(Reg::RFLAGS);
                }
                Op::JmpReg { src } => {
                    set.insert(src);
                }
                // `ret` also transmits its loaded target, but that value
                // comes from memory, which the memory-side rules cover.
                _ => {}
            }
        }
        if self.divs {
            if let Op::Div { src1, src2, .. } = inst.op {
                set.insert(src1);
                set.insert(src2);
            }
        }
        set
    }
}

impl Default for TransmitterSet {
    fn default() -> TransmitterSet {
        TransmitterSet::paper()
    }
}

/// A function: a named, class-labelled contiguous range of instructions.
///
/// ProtCC compiles each function independently according to its class
/// (paper §V-A), which is how multi-class programs like nginx are
/// targeted.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// First instruction index.
    pub start: u32,
    /// One past the last instruction index.
    pub end: u32,
    /// The function's vulnerable-code class.
    pub class: SecurityClass,
}

impl Function {
    /// Returns `true` if instruction index `idx` belongs to the function.
    pub fn contains(&self, idx: u32) -> bool {
        (self.start..self.end).contains(&idx)
    }

    /// The instruction index range.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Errors produced by [`Program::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// A branch targets an instruction index outside the program.
    TargetOutOfRange {
        /// The branching instruction's index.
        inst: u32,
        /// The out-of-range target index.
        target: u32,
    },
    /// The last instruction can fall through off the end of the program.
    FallsOffEnd,
    /// Function ranges are malformed or out of bounds.
    BadFunctionRange {
        /// The offending function's name.
        name: String,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TargetOutOfRange { inst, target } => {
                write!(
                    f,
                    "instruction {inst} branches to out-of-range target {target}"
                )
            }
            ProgramError::FallsOffEnd => write!(f, "control can fall off the end of the program"),
            ProgramError::BadFunctionRange { name } => {
                write!(f, "function `{name}` has a malformed instruction range")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A code-pointer relocation: the `MovImm` at instruction `inst` holds
/// the program counter of instruction `target`. Program transforms that
/// insert or move instructions (ProtCC's identity moves) must rewrite
/// the immediate — exactly what a linker's relocation entries are for.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Reloc {
    /// Index of the `MovImm` holding the code pointer.
    pub inst: u32,
    /// Index of the instruction whose PC is materialized.
    pub target: u32,
}

/// A complete program: instructions, function table, and label map.
///
/// Branch targets are instruction indices; the program counter of
/// instruction `i` is `code_base + 4 * i`, which is what the branch
/// predictors and the access predictor index on.
///
/// # Examples
///
/// ```
/// use protean_isa::{Inst, Op, Program};
///
/// let prog = Program::from_insts(vec![
///     Inst::new(Op::Nop),
///     Inst::new(Op::Halt),
/// ]);
/// assert_eq!(prog.len(), 2);
/// assert!(prog.validate().is_ok());
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// The instruction stream.
    pub insts: Vec<Inst>,
    /// Function table (may be empty for raw fuzzing programs).
    pub functions: Vec<Function>,
    /// Label name → instruction index, for diagnostics and disassembly.
    pub labels: BTreeMap<String, u32>,
    /// Code-pointer relocations (see [`Reloc`]).
    pub relocs: Vec<Reloc>,
    /// Base virtual address of the code segment.
    pub code_base: u64,
}

impl Program {
    /// Default code-segment base address.
    pub const DEFAULT_CODE_BASE: u64 = 0x40_0000;

    /// Creates a program from a bare instruction list.
    pub fn from_insts(insts: Vec<Inst>) -> Program {
        Program {
            insts,
            functions: Vec::new(),
            labels: BTreeMap::new(),
            relocs: Vec::new(),
            code_base: Program::DEFAULT_CODE_BASE,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The program counter of instruction index `idx`.
    pub fn pc_of(&self, idx: u32) -> u64 {
        self.code_base + 4 * idx as u64
    }

    /// The instruction index of program counter `pc`, if it lies in the
    /// code segment.
    pub fn index_of_pc(&self, pc: u64) -> Option<u32> {
        if pc < self.code_base || !(pc - self.code_base).is_multiple_of(4) {
            return None;
        }
        let idx = (pc - self.code_base) / 4;
        (idx < self.insts.len() as u64).then_some(idx as u32)
    }

    /// The function containing instruction index `idx`, if any.
    pub fn function_at(&self, idx: u32) -> Option<&Function> {
        self.functions.iter().find(|f| f.contains(idx))
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Checks structural well-formedness: branch targets in range, no
    /// fall-through off the end, sane function ranges.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let n = self.insts.len() as u32;
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(t) = inst.static_target() {
                if t >= n {
                    return Err(ProgramError::TargetOutOfRange {
                        inst: i as u32,
                        target: t,
                    });
                }
            }
        }
        // Falling off the end is an error only along *reachable* paths:
        // instrumentation (e.g. a trailing identity-move insertion after
        // the terminal `halt`) may leave dead code at the end, which can
        // never execute. Indirect branches (`jmpreg`, `ret`) contribute
        // no static edges, so code reachable only through them counts as
        // dead here — permissive, matching the check's structural intent.
        let mut reachable = vec![false; self.insts.len()];
        let mut stack = vec![0u32];
        while let Some(i) = stack.pop() {
            let Some(slot) = reachable.get_mut(i as usize) else {
                continue;
            };
            if *slot {
                continue;
            }
            *slot = true;
            let inst = &self.insts[i as usize];
            if let Some(t) = inst.static_target() {
                stack.push(t);
            }
            if inst.falls_through() {
                if i as usize + 1 == self.insts.len() {
                    return Err(ProgramError::FallsOffEnd);
                }
                stack.push(i + 1);
            }
        }
        for f in &self.functions {
            if f.start > f.end || f.end > n {
                return Err(ProgramError::BadFunctionRange {
                    name: f.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Number of `PROT`-prefixed instructions (instrumentation metric,
    /// paper §IX-A2).
    pub fn prot_count(&self) -> usize {
        self.insts.iter().filter(|i| i.prot).count()
    }

    /// Number of identity moves (`mov r, r`), the other instrumentation
    /// ProtCC inserts.
    pub fn identity_move_count(&self) -> usize {
        self.insts.iter().filter(|i| i.is_identity_move()).count()
    }

    /// Pretty-prints the program with labels and indices.
    pub fn disassemble(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let mut by_index: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (name, idx) in &self.labels {
            by_index.entry(*idx).or_default().push(name);
        }
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(names) = by_index.get(&(i as u32)) {
                for name in names {
                    let _ = writeln!(out, "{name}:");
                }
            }
            if let Some(func) = self.functions.iter().find(|f| f.start == i as u32) {
                let _ = writeln!(out, "; --- {} ({}) ---", func.name, func.class);
            }
            let _ = writeln!(out, "  {i:4}: {inst}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, Mem, Width};

    #[test]
    fn class_hierarchy() {
        use SecurityClass::*;
        for (i, a) in SecurityClass::ALL.iter().enumerate() {
            for (j, b) in SecurityClass::ALL.iter().enumerate() {
                assert_eq!(a <= b, i <= j);
            }
        }
        assert_eq!(Arch.name(), "ARCH");
        assert_eq!(Unr.to_string(), "UNR");
    }

    #[test]
    fn transmitter_sensitive_operands() {
        let t = TransmitterSet::paper();
        let load = Inst::new(Op::Load {
            dst: Reg::R0,
            addr: Mem::base(Reg::R1).with_index(Reg::R2, 8),
            size: Width::W64,
        });
        let s = t.sensitive_regs(&load);
        assert!(s.contains(Reg::R1) && s.contains(Reg::R2));
        assert!(!s.contains(Reg::R0));

        let jcc = Inst::new(Op::Jcc {
            cond: Cond::Eq,
            target: 0,
        });
        assert!(t.sensitive_regs(&jcc).contains(Reg::RFLAGS));

        let div = Inst::new(Op::Div {
            dst: Reg::R0,
            src1: Reg::R1,
            src2: Reg::R2,
        });
        assert!(t.is_transmitter(&div));
        assert!(!TransmitterSet::legacy().is_transmitter(&div));

        let add = Inst::new(Op::Alu {
            op: crate::AluOp::Add,
            dst: Reg::R0,
            src1: Reg::R1,
            src2: crate::Operand::Imm(1),
            width: Width::W64,
        });
        assert!(!t.is_transmitter(&add));
    }

    #[test]
    fn ret_is_transmitter_via_rsp() {
        let t = TransmitterSet::paper();
        let ret = Inst::new(Op::Ret);
        assert!(t.is_transmitter(&ret));
        assert!(t.sensitive_regs(&ret).contains(Reg::RSP));
    }

    #[test]
    fn validate_catches_bad_target() {
        let p = Program::from_insts(vec![Inst::new(Op::Jmp { target: 5 })]);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::TargetOutOfRange { inst: 0, target: 5 })
        ));
    }

    #[test]
    fn validate_catches_fallthrough() {
        let p = Program::from_insts(vec![Inst::new(Op::Nop)]);
        assert_eq!(p.validate(), Err(ProgramError::FallsOffEnd));
        let ok = Program::from_insts(vec![Inst::new(Op::Nop), Inst::new(Op::Halt)]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn pc_mapping_roundtrip() {
        let p = Program::from_insts(vec![Inst::new(Op::Nop), Inst::new(Op::Halt)]);
        let pc = p.pc_of(1);
        assert_eq!(p.index_of_pc(pc), Some(1));
        assert_eq!(p.index_of_pc(pc + 1), None);
        assert_eq!(p.index_of_pc(p.code_base + 4 * 99), None);
    }

    #[test]
    fn function_lookup() {
        let mut p = Program::from_insts(vec![
            Inst::new(Op::Nop),
            Inst::new(Op::Ret),
            Inst::new(Op::Halt),
        ]);
        p.functions.push(Function {
            name: "f".into(),
            start: 0,
            end: 2,
            class: SecurityClass::Ct,
        });
        assert_eq!(p.function_at(1).unwrap().name, "f");
        assert!(p.function_at(2).is_none());
        assert_eq!(p.function("f").unwrap().class, SecurityClass::Ct);
        assert!(p.validate().is_ok());
    }
}
