//! Pre-decoded µop table: every per-instruction classification the
//! pipeline front end needs, computed once per static instruction.
//!
//! The simulator's fetch/rename stages used to re-derive operand sets,
//! memory classification, and branch kind from [`Inst`] on every
//! *dynamic* visit — for a hot loop body that is the same work thousands
//! of times over. [`DecodedProgram`] lowers each static instruction
//! exactly once (at `Core::reset`) into a [`DecodedInst`]: a flat,
//! `Copy` record with operands in inline-vector form and the control
//! flow pre-classified into [`CtrlFlow`], so the per-visit cost is one
//! indexed copy.
//!
//! [`DecodedInst::decode`] is the single lowering function, applied by
//! [`DecodedProgram`] once per static instruction.

use crate::inst::{Inst, Op, Operand, Width};
use crate::program::Program;
use crate::reg::{Reg, RegSet};
use crate::util::InlineVec;

/// Pre-classified control flow of one static instruction.
///
/// Branch targets are instruction indices (as in [`Op`]); resolving the
/// *predicted* next index still needs dynamic state (TAGE direction,
/// RSB, BTB), but the kind dispatch and target extraction are static.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtrlFlow {
    /// Falls through to the next instruction; never redirects fetch.
    Fall,
    /// Direct unconditional jump to a static target.
    Jmp {
        /// Target instruction index.
        target: u32,
    },
    /// Conditional branch: taken to `target`, else falls through.
    Jcc {
        /// Taken-path target instruction index.
        target: u32,
    },
    /// Call: pushes the return address and jumps to a static target.
    Call {
        /// Target instruction index.
        target: u32,
    },
    /// Return: indirect through the RSB (or BTB on RSB underflow).
    Ret,
    /// Indirect jump through a register: predicted via the BTB.
    JmpReg,
    /// Architectural end of the program; fetch stops here.
    Halt,
}

/// One statically decoded µop: the instruction plus every derived fact
/// the front end consults per dynamic visit.
///
/// All fields are plain data (`Copy`), so the pipeline copies the table
/// entry into a local and never holds a borrow across rename's mutable
/// bookkeeping.
#[derive(Clone, Copy, Debug)]
pub struct DecodedInst {
    /// The instruction itself.
    pub inst: Inst,
    /// Its program counter (`Program::pc_of` of the index).
    pub pc: u64,
    /// Source registers, in [`RegSet`] iteration order (the order the
    /// rename stage reads them). No instruction names more than three.
    pub srcs: InlineVec<Reg, 3>,
    /// Destination registers, in [`RegSet`] iteration order. At most
    /// two: the explicit destination plus an implicit `RFLAGS`/`RSP`.
    pub dsts: InlineVec<Reg, 2>,
    /// The explicit destination register ([`Inst::explicit_dst`]).
    pub explicit_dst: Option<Reg>,
    /// Address-forming registers of memory µops ([`Inst::address_regs`]).
    pub addr_regs: RegSet,
    /// A store's pure *data* register operand, if it has one — the
    /// operand split off as STD, allowed to lag the address operands.
    /// `None` for `call` (its data is the constant return address).
    pub store_data_reg: Option<Reg>,
    /// Memory access size in bytes (8 for non-memory µops, matching the
    /// pipeline's `mem_size().unwrap_or(8)` convention).
    pub mem_size: u64,
    /// Register write width (`W64` for µops without one, matching the
    /// pipeline's `write_width().unwrap_or(W64)` convention).
    pub write_width: Width,
    /// Performs a memory read (loads and `ret`).
    pub is_load: bool,
    /// Performs a memory write (stores and `call`).
    pub is_store: bool,
    /// Any memory access (`is_load || is_store`).
    pub is_mem: bool,
    /// Control-flow instruction ([`Inst::is_branch`]).
    pub is_branch: bool,
    /// Pre-classified control flow for fetch's next-index prediction.
    pub ctrl: CtrlFlow,
}

impl DecodedInst {
    /// Lowers the instruction at `idx` of `program`.
    ///
    /// This is the *only* lowering routine: [`DecodedProgram`] applies
    /// it per static instruction.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for `program`.
    pub fn decode(program: &Program, idx: u32) -> DecodedInst {
        let inst = program.insts[idx as usize];
        let (store_data_reg, ctrl) = match inst.op {
            Op::Store {
                src: Operand::Reg(r),
                ..
            } => (Some(r), CtrlFlow::Fall),
            Op::Jmp { target } => (None, CtrlFlow::Jmp { target }),
            Op::Jcc { target, .. } => (None, CtrlFlow::Jcc { target }),
            Op::Call { target } => (None, CtrlFlow::Call { target }),
            Op::Ret => (None, CtrlFlow::Ret),
            Op::JmpReg { .. } => (None, CtrlFlow::JmpReg),
            Op::Halt => (None, CtrlFlow::Halt),
            _ => (None, CtrlFlow::Fall),
        };
        DecodedInst {
            inst,
            pc: program.pc_of(idx),
            srcs: inst.src_regs().iter().collect(),
            dsts: inst.dst_regs().iter().collect(),
            explicit_dst: inst.explicit_dst(),
            addr_regs: inst.address_regs(),
            store_data_reg,
            mem_size: inst.mem_size().unwrap_or(8),
            write_width: inst.write_width().unwrap_or(Width::W64),
            is_load: inst.is_load(),
            is_store: inst.is_store(),
            is_mem: inst.is_mem(),
            is_branch: inst.is_branch(),
            ctrl,
        }
    }
}

/// A program's full pre-decoded µop table, indexed by instruction index.
#[derive(Clone, Debug, Default)]
pub struct DecodedProgram {
    insts: Vec<DecodedInst>,
}

impl DecodedProgram {
    /// Decodes every static instruction of `program`.
    pub fn new(program: &Program) -> DecodedProgram {
        let mut d = DecodedProgram::default();
        d.rebuild(program);
        d
    }

    /// Re-decodes for a (possibly different) program, reusing the
    /// table's backing allocation — the arena-reset path.
    pub fn rebuild(&mut self, program: &Program) {
        self.insts.clear();
        self.insts
            .extend((0..program.len() as u32).map(|idx| DecodedInst::decode(program, idx)));
    }

    /// The entry for instruction index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: u32) -> &DecodedInst {
        &self.insts[idx as usize]
    }

    /// Number of decoded entries.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond, Mem};

    fn sample_program() -> Program {
        let insts = vec![
            Inst::new(Op::MovImm {
                dst: Reg::R0,
                imm: 5,
                width: Width::W64,
            }),
            Inst::prot(Op::Load {
                dst: Reg::R1,
                addr: Mem::base(Reg::R0).with_index(Reg::R2, 8),
                size: Width::W32,
            }),
            Inst::new(Op::Store {
                src: Operand::Reg(Reg::R1),
                addr: Mem::base(Reg::R3),
                size: Width::W64,
            }),
            Inst::new(Op::Store {
                src: Operand::Imm(7),
                addr: Mem::abs(0x100),
                size: Width::W8,
            }),
            Inst::new(Op::Alu {
                op: AluOp::Add,
                dst: Reg::R4,
                src1: Reg::R0,
                src2: Operand::Reg(Reg::R1),
                width: Width::W16,
            }),
            Inst::new(Op::Jcc {
                cond: Cond::Eq,
                target: 0,
            }),
            Inst::new(Op::Call { target: 8 }),
            Inst::new(Op::Ret),
            Inst::new(Op::JmpReg { src: Reg::R5 }),
            Inst::new(Op::Jmp { target: 1 }),
            Inst::new(Op::Halt),
        ];
        Program::from_insts(insts)
    }

    #[test]
    fn decode_matches_inst_helpers() {
        let p = sample_program();
        let d = DecodedProgram::new(&p);
        assert_eq!(d.len(), p.len());
        for idx in 0..p.len() as u32 {
            let e = d.get(idx);
            let inst = p.insts[idx as usize];
            assert_eq!(e.inst, inst);
            assert_eq!(e.pc, p.pc_of(idx));
            let srcs: Vec<Reg> = inst.src_regs().iter().collect();
            assert_eq!(&e.srcs[..], &srcs[..], "srcs of {inst}");
            let dsts: Vec<Reg> = inst.dst_regs().iter().collect();
            assert_eq!(&e.dsts[..], &dsts[..], "dsts of {inst}");
            assert_eq!(e.explicit_dst, inst.explicit_dst());
            assert_eq!(e.addr_regs, inst.address_regs());
            assert_eq!(e.mem_size, inst.mem_size().unwrap_or(8));
            assert_eq!(e.write_width, inst.write_width().unwrap_or(Width::W64));
            assert_eq!(e.is_load, inst.is_load());
            assert_eq!(e.is_store, inst.is_store());
            assert_eq!(e.is_mem, inst.is_mem());
            assert_eq!(e.is_branch, inst.is_branch());
        }
    }

    #[test]
    fn control_flow_classification() {
        let p = sample_program();
        let d = DecodedProgram::new(&p);
        assert_eq!(d.get(0).ctrl, CtrlFlow::Fall);
        assert_eq!(d.get(2).ctrl, CtrlFlow::Fall);
        assert_eq!(d.get(5).ctrl, CtrlFlow::Jcc { target: 0 });
        assert_eq!(d.get(6).ctrl, CtrlFlow::Call { target: 8 });
        assert_eq!(d.get(7).ctrl, CtrlFlow::Ret);
        assert_eq!(d.get(8).ctrl, CtrlFlow::JmpReg);
        assert_eq!(d.get(9).ctrl, CtrlFlow::Jmp { target: 1 });
        assert_eq!(d.get(10).ctrl, CtrlFlow::Halt);
    }

    #[test]
    fn store_data_reg_split() {
        let p = sample_program();
        let d = DecodedProgram::new(&p);
        // Register-data store names its STD operand; immediate-data
        // store and call (constant return address) do not.
        assert_eq!(d.get(2).store_data_reg, Some(Reg::R1));
        assert_eq!(d.get(3).store_data_reg, None);
        assert_eq!(d.get(6).store_data_reg, None);
    }

    #[test]
    fn rebuild_reuses_and_replaces() {
        let p = sample_program();
        let mut d = DecodedProgram::new(&p);
        let small = Program::from_insts(vec![Inst::new(Op::Halt)]);
        d.rebuild(&small);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(0).ctrl, CtrlFlow::Halt);
        d.rebuild(&p);
        assert_eq!(d.len(), p.len());
    }
}
