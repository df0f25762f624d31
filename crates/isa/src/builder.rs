//! An ergonomic program builder with forward-reference labels.

use crate::{
    AluOp, Cond, Function, Inst, Mem, Op, Operand, Program, Reg, Reloc, SecurityClass, Width,
};
use std::collections::BTreeMap;

/// A label handle issued by [`ProgramBuilder::label`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(u32);

/// Builds a [`Program`] instruction by instruction, resolving label
/// references (including forward references) at [`ProgramBuilder::build`]
/// time.
///
/// Convenience emitters exist for every opcode; each returns `&mut Self`
/// for chaining, and [`ProgramBuilder::prot`] applies a `PROT` prefix to
/// the *next* emitted instruction.
///
/// # Examples
///
/// ```
/// use protean_isa::{ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let done = b.label("done");
/// b.mov_imm(Reg::R0, 7)
///     .cmp(Reg::R0, 7)
///     .jcc(protean_isa::Cond::Eq, done)
///     .prot()
///     .add(Reg::R1, Reg::R0, 1)
///     .bind(done)
///     .halt();
/// let prog = b.build().unwrap();
/// assert_eq!(prog.prot_count(), 1);
/// assert!(prog.validate().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    /// label id -> resolved index
    bound: Vec<Option<u32>>,
    names: Vec<String>,
    /// (inst index) -> label id, for fixup
    fixups: Vec<(usize, Label)>,
    /// (MovImm index) -> label id whose PC it materializes
    reloc_fixups: Vec<(usize, Label)>,
    functions: Vec<Function>,
    open_function: Option<(String, u32, SecurityClass)>,
    next_prot: bool,
}

/// Error returned by [`ProgramBuilder::build`] when a label was referenced
/// but never bound.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnboundLabelError {
    /// The label's name.
    pub name: String,
}

impl std::fmt::Display for UnboundLabelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "label `{}` referenced but never bound", self.name)
    }
}

impl std::error::Error for UnboundLabelError {}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Declares a label (may be bound later with [`ProgramBuilder::bind`]).
    pub fn label(&mut self, name: impl Into<String>) -> Label {
        let id = Label(self.bound.len() as u32);
        self.bound.push(None);
        self.names.push(name.into());
        id
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let slot = &mut self.bound[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.insts.len() as u32);
        self
    }

    /// Declares and immediately binds a label.
    pub fn here(&mut self, name: impl Into<String>) -> Label {
        let l = self.label(name);
        self.bind(l);
        l
    }

    /// Marks the *next* emitted instruction with a `PROT` prefix.
    pub fn prot(&mut self) -> &mut Self {
        self.next_prot = true;
        self
    }

    /// Opens a function with the given class; instructions emitted until
    /// [`ProgramBuilder::end_function`] belong to it.
    ///
    /// # Panics
    ///
    /// Panics if a function is already open.
    pub fn begin_function(&mut self, name: impl Into<String>, class: SecurityClass) -> &mut Self {
        assert!(self.open_function.is_none(), "function already open");
        self.open_function = Some((name.into(), self.insts.len() as u32, class));
        self
    }

    /// Closes the open function.
    ///
    /// # Panics
    ///
    /// Panics if no function is open.
    pub fn end_function(&mut self) -> &mut Self {
        let (name, start, class) = self.open_function.take().expect("no open function");
        self.functions.push(Function {
            name,
            start,
            end: self.insts.len() as u32,
            class,
        });
        self
    }

    /// Emits a raw instruction (applying any pending `PROT` prefix).
    pub fn emit(&mut self, op: Op) -> &mut Self {
        let prot = std::mem::take(&mut self.next_prot);
        self.insts.push(Inst { op, prot });
        self
    }

    /// Current instruction index (where the next instruction will go).
    pub fn cursor(&self) -> u32 {
        self.insts.len() as u32
    }

    // --- Opcode emitters -------------------------------------------------

    /// `mov dst, pc_of(label)` — materializes a code pointer, recorded
    /// in the program's relocation table so instrumentation passes keep
    /// it correct.
    pub fn mov_code_pointer(&mut self, dst: Reg, label: Label) -> &mut Self {
        self.reloc_fixups.push((self.insts.len(), label));
        self.emit(Op::MovImm {
            dst,
            imm: u64::MAX, // resolved at build time
            width: Width::W64,
        })
    }

    /// `mov dst, imm`
    pub fn mov_imm(&mut self, dst: Reg, imm: u64) -> &mut Self {
        self.emit(Op::MovImm {
            dst,
            imm,
            width: Width::W64,
        })
    }

    /// `mov dst, src`
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.emit(Op::Mov {
            dst,
            src,
            width: Width::W64,
        })
    }

    /// `mov r, r` — ProtISA's unprotect-register idiom (§IV-B3).
    pub fn identity_move(&mut self, reg: Reg) -> &mut Self {
        self.mov(reg, reg)
    }

    /// `cmov.cond dst, src`
    pub fn cmov(&mut self, cond: Cond, dst: Reg, src: Reg) -> &mut Self {
        self.emit(Op::CMov { cond, dst, src })
    }

    /// Generic ALU emitter.
    pub fn alu(&mut self, op: AluOp, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.emit(Op::Alu {
            op,
            dst,
            src1,
            src2: src2.into(),
            width: Width::W64,
        })
    }

    /// `add dst, src1, src2`
    pub fn add(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Add, dst, src1, src2)
    }

    /// `sub dst, src1, src2`
    pub fn sub(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Sub, dst, src1, src2)
    }

    /// `and dst, src1, src2`
    pub fn and(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::And, dst, src1, src2)
    }

    /// `or dst, src1, src2`
    pub fn or(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Or, dst, src1, src2)
    }

    /// `xor dst, src1, src2`
    pub fn xor(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Xor, dst, src1, src2)
    }

    /// `shl dst, src1, src2`
    pub fn shl(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Shl, dst, src1, src2)
    }

    /// `shr dst, src1, src2`
    pub fn shr(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Shr, dst, src1, src2)
    }

    /// `rol dst, src1, src2`
    pub fn rol(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Rol, dst, src1, src2)
    }

    /// `ror dst, src1, src2`
    pub fn ror(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Ror, dst, src1, src2)
    }

    /// `mul dst, src1, src2`
    pub fn mul(&mut self, dst: Reg, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Mul, dst, src1, src2)
    }

    /// `div dst, src1, src2` (a transmitter).
    pub fn div(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.emit(Op::Div { dst, src1, src2 })
    }

    /// `cmp src1, src2`
    pub fn cmp(&mut self, src1: Reg, src2: impl Into<Operand>) -> &mut Self {
        self.emit(Op::Cmp {
            src1,
            src2: src2.into(),
        })
    }

    /// `load dst, addr` (8 bytes).
    pub fn load(&mut self, dst: Reg, addr: Mem) -> &mut Self {
        self.emit(Op::Load {
            dst,
            addr,
            size: Width::W64,
        })
    }

    /// Sized load.
    pub fn load_sized(&mut self, dst: Reg, addr: Mem, size: Width) -> &mut Self {
        self.emit(Op::Load { dst, addr, size })
    }

    /// `store addr, src` (8 bytes).
    pub fn store(&mut self, addr: Mem, src: impl Into<Operand>) -> &mut Self {
        self.emit(Op::Store {
            src: src.into(),
            addr,
            size: Width::W64,
        })
    }

    /// `jmp label`
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label));
        self.emit(Op::Jmp { target: u32::MAX })
    }

    /// `j<cond> label`
    pub fn jcc(&mut self, cond: Cond, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label));
        self.emit(Op::Jcc {
            cond,
            target: u32::MAX,
        })
    }

    /// `jmpreg src` (indirect jump).
    pub fn jmpreg(&mut self, src: Reg) -> &mut Self {
        self.emit(Op::JmpReg { src })
    }

    /// `call label`
    pub fn call(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label));
        self.emit(Op::Call { target: u32::MAX })
    }

    /// `ret`
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Op::Ret)
    }

    /// `nop`
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Op::Nop)
    }

    /// `halt`
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Op::Halt)
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundLabelError`] if a referenced label was never
    /// bound.
    ///
    /// # Panics
    ///
    /// Panics if a function is still open.
    pub fn build(mut self) -> Result<Program, UnboundLabelError> {
        assert!(
            self.open_function.is_none(),
            "function still open at build time"
        );
        for (idx, label) in &self.fixups {
            match self.bound[label.0 as usize] {
                Some(target) => self.insts[*idx].set_static_target(target),
                None => {
                    return Err(UnboundLabelError {
                        name: self.names[label.0 as usize].clone(),
                    })
                }
            }
        }
        let mut labels = BTreeMap::new();
        for (id, bound) in self.bound.iter().enumerate() {
            if let Some(idx) = bound {
                labels.insert(self.names[id].clone(), *idx);
            }
        }
        let mut relocs = Vec::with_capacity(self.reloc_fixups.len());
        let mut insts = self.insts;
        for (idx, label) in &self.reloc_fixups {
            let Some(target) = self.bound[label.0 as usize] else {
                return Err(UnboundLabelError {
                    name: self.names[label.0 as usize].clone(),
                });
            };
            let pc = Program::DEFAULT_CODE_BASE + 4 * target as u64;
            match &mut insts[*idx].op {
                Op::MovImm { imm, .. } => *imm = pc,
                other => unreachable!("reloc slot holds {other:?}"),
            }
            relocs.push(Reloc {
                inst: *idx as u32,
                target,
            });
        }
        Ok(Program {
            insts,
            functions: self.functions,
            labels,
            relocs,
            code_base: Program::DEFAULT_CODE_BASE,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let top = b.here("top");
        let out = b.label("out");
        b.cmp(Reg::R0, 10)
            .jcc(Cond::Ge, out)
            .add(Reg::R0, Reg::R0, 1)
            .jmp(top)
            .bind(out)
            .halt();
        let p = b.build().unwrap();
        assert!(p.validate().is_ok());
        assert_eq!(p.insts[1].static_target(), Some(4));
        assert_eq!(p.insts[3].static_target(), Some(0));
        assert_eq!(p.labels["top"], 0);
        assert_eq!(p.labels["out"], 4);
    }

    #[test]
    fn unbound_label_is_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label("nowhere");
        b.jmp(l);
        let err = b.build().unwrap_err();
        assert_eq!(err.name, "nowhere");
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn prot_applies_to_next_only() {
        let mut b = ProgramBuilder::new();
        b.prot().mov_imm(Reg::R0, 1).mov_imm(Reg::R1, 2).halt();
        let p = b.build().unwrap();
        assert!(p.insts[0].prot);
        assert!(!p.insts[1].prot);
        assert_eq!(p.prot_count(), 1);
    }

    #[test]
    fn functions_recorded() {
        let mut b = ProgramBuilder::new();
        b.begin_function("f", SecurityClass::Cts);
        b.ret();
        b.end_function();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].end, 1);
        assert_eq!(p.function_at(0).unwrap().class, SecurityClass::Cts);
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.here("l");
        b.bind(l);
    }
}
