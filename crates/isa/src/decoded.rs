//! Pre-decoded µop table: the operand facts the pipeline front end
//! reads per dynamic µop, computed once per static instruction.
//!
//! Deriving operand sets from [`Inst`] walks its operands; for a hot
//! loop body that is the same work thousands of times over.
//! [`DecodedProgram`] lowers each static instruction exactly once (at
//! `Core::reset`) into a [`DecodedInst`]: a flat, `Copy` record with
//! operands in inline-vector form and the sources the active defense
//! treats as sensitive, so the per-visit cost is one indexed copy.
//! Everything [`Inst`] or [`Program`] answers in O(1) (class flags,
//! sizes, the PC, branch targets) is read from there instead.

use crate::inst::{Inst, Op, Operand};
use crate::program::{Program, TransmitterSet};
use crate::reg::{Reg, RegSet};
use crate::util::InlineVec;

/// One statically decoded µop: the instruction plus the operand facts
/// the front end consults per dynamic visit.
///
/// All fields are plain data (`Copy`), so the pipeline copies the table
/// entry into a local and never holds a borrow across rename's mutable
/// bookkeeping.
#[derive(Clone, Copy, Debug)]
pub struct DecodedInst {
    /// The instruction itself.
    pub inst: Inst,
    /// Source registers, in [`RegSet`] iteration order (the order the
    /// rename stage reads them). No instruction names more than three.
    pub srcs: InlineVec<Reg, 3>,
    /// Destination registers, in [`RegSet`] iteration order. At most
    /// two: the explicit destination plus an implicit `RFLAGS`/`RSP`.
    pub dsts: InlineVec<Reg, 2>,
    /// Address-forming registers of memory µops ([`Inst::address_regs`]).
    pub addr_regs: RegSet,
    /// A store's pure *data* register operand, if it has one — the
    /// operand split off as STD, allowed to lag the address operands.
    /// `None` for `call` (its data is the constant return address).
    pub store_data_reg: Option<Reg>,
    /// The sources the table's [`TransmitterSet`] makes sensitive
    /// ([`TransmitterSet::sensitive_regs`]): bit `i` is set when
    /// `srcs[i]` is one.
    pub sens_mask: u8,
}

impl DecodedInst {
    /// Lowers `inst` under `transmitters`.
    ///
    /// This is the *only* lowering routine: [`DecodedProgram`] applies
    /// it per static instruction.
    pub fn decode(inst: Inst, transmitters: &TransmitterSet) -> DecodedInst {
        let store_data_reg = match inst.op {
            Op::Store {
                src: Operand::Reg(r),
                ..
            } => Some(r),
            _ => None,
        };
        let srcs: InlineVec<Reg, 3> = inst.src_regs().iter().collect();
        let sensitive = transmitters.sensitive_regs(&inst);
        let sens_mask = srcs
            .iter()
            .enumerate()
            .filter(|(_, r)| sensitive.contains(**r))
            .fold(0, |m, (i, _)| m | 1 << i);
        DecodedInst {
            inst,
            srcs,
            dsts: inst.dst_regs().iter().collect(),
            addr_regs: inst.address_regs(),
            store_data_reg,
            sens_mask,
        }
    }
}

/// A program's full pre-decoded µop table under one transmitter set,
/// indexed by instruction index.
#[derive(Clone, Debug, Default)]
pub struct DecodedProgram {
    insts: Vec<DecodedInst>,
}

impl DecodedProgram {
    /// Decodes every static instruction of `program` under
    /// `transmitters`.
    pub fn new(program: &Program, transmitters: &TransmitterSet) -> DecodedProgram {
        let mut d = DecodedProgram::default();
        d.rebuild(program, transmitters);
        d
    }

    /// Re-decodes for a (possibly different) program and transmitter
    /// set, reusing the table's backing allocation — the arena-reset
    /// path.
    pub fn rebuild(&mut self, program: &Program, transmitters: &TransmitterSet) {
        self.insts.clear();
        self.insts.extend(
            program
                .insts
                .iter()
                .map(|&inst| DecodedInst::decode(inst, transmitters)),
        );
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
    use crate::inst::{AluOp, Cond, Mem, Width};

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
        for transmitters in [TransmitterSet::paper(), TransmitterSet::legacy()] {
            let d = DecodedProgram::new(&p, &transmitters);
            assert_eq!(d.len(), p.len());
            for idx in 0..p.len() as u32 {
                let e = d.get(idx);
                let inst = p.insts[idx as usize];
                assert_eq!(e.inst, inst);
                let srcs: Vec<Reg> = inst.src_regs().iter().collect();
                assert_eq!(&e.srcs[..], &srcs[..], "srcs of {inst}");
                let dsts: Vec<Reg> = inst.dst_regs().iter().collect();
                assert_eq!(&e.dsts[..], &dsts[..], "dsts of {inst}");
                assert_eq!(e.addr_regs, inst.address_regs());
                let sensitive = transmitters.sensitive_regs(&inst);
                for (i, &r) in srcs.iter().enumerate() {
                    assert_eq!(e.sens_mask >> i & 1 == 1, sensitive.contains(r), "{inst}");
                }
                assert_eq!(e.sens_mask >> srcs.len(), 0, "mask past srcs of {inst}");
            }
        }
    }

    #[test]
    fn sens_mask_follows_the_transmitter_set() {
        let p = sample_program();
        let none = TransmitterSet {
            loads: false,
            stores: false,
            branches: false,
            divs: false,
        };
        let d = DecodedProgram::new(&p, &none);
        assert!((0..p.len() as u32).all(|idx| d.get(idx).sens_mask == 0));
        // The PROT load's address registers R0 and R2 are its only
        // sources, and both are sensitive under the paper's set.
        let d = DecodedProgram::new(&p, &TransmitterSet::paper());
        assert_eq!(&d.get(1).srcs[..], &[Reg::R0, Reg::R2][..]);
        assert_eq!(d.get(1).sens_mask, 0b11);
        // The conditional branch transmits RFLAGS.
        assert_eq!(&d.get(5).srcs[..], &[Reg::RFLAGS][..]);
        assert_eq!(d.get(5).sens_mask, 0b1);
    }

    #[test]
    fn store_data_reg_split() {
        let p = sample_program();
        let d = DecodedProgram::new(&p, &TransmitterSet::paper());
        // Register-data store names its STD operand; immediate-data
        // store and call (constant return address) do not.
        assert_eq!(d.get(2).store_data_reg, Some(Reg::R1));
        assert_eq!(d.get(3).store_data_reg, None);
        assert_eq!(d.get(6).store_data_reg, None);
    }

    #[test]
    fn rebuild_reuses_and_replaces() {
        let p = sample_program();
        let t = TransmitterSet::paper();
        let mut d = DecodedProgram::new(&p, &t);
        let small = Program::from_insts(vec![Inst::new(Op::Halt)]);
        d.rebuild(&small, &t);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(0).inst.op, Op::Halt);
        d.rebuild(&p, &t);
        assert_eq!(d.len(), p.len());
    }
}
