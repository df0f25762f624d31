//! The sequential (architectural) emulator — the SEQ execution mode of
//! the hardware-software security contracts (paper §II-C).

use crate::threaded::{Ctrl, ThreadedProgram};
use crate::{Memory, ProtState};
use protean_isa::{
    alu_eval, div_eval, DivOutcome, InlineVec, Inst, Op, Operand, Program, Reg, Width,
};

/// Architectural machine state: registers plus memory.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ArchState {
    /// Register file, indexed by [`Reg::index`].
    pub regs: [u64; Reg::COUNT],
    /// Byte-addressable memory.
    pub mem: Memory,
}

impl ArchState {
    /// Creates a zeroed state.
    pub fn new() -> ArchState {
        ArchState::default()
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// Resolves an operand to a value.
    #[inline]
    pub fn operand(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
        }
    }
}

/// A memory access performed by one instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Effective address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// The value read (loads) or written (stores).
    pub value: u64,
    /// `true` for stores (including `call`).
    pub is_store: bool,
}

/// Control-flow outcome of a branch instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchInfo {
    /// Whether a conditional branch was taken (`true` for unconditional).
    pub taken: bool,
    /// The instruction index control transferred to (`None` if the
    /// program halted due to an out-of-range indirect target).
    pub target: Option<u32>,
    /// Whether the branch target is computed from a register/memory value
    /// (indirect).
    pub indirect: bool,
}

/// Everything observable about one architecturally executed instruction.
///
/// Observer modes (paper §II-C, §VII-B1) project these records onto
/// contract traces; the AMuLeT\* false-positive filter compares their PCs
/// and addresses.
#[derive(Clone, PartialEq, Debug)]
pub struct ExecRecord {
    /// Instruction index.
    pub idx: u32,
    /// Program counter.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// Memory access, if any.
    pub mem: Option<MemAccess>,
    /// Individual address-register values (AMuLeT\* exposes these
    /// separately, not just their sum). At most base + index.
    pub addr_regs: InlineVec<(Reg, u64), 2>,
    /// Branch outcome, if any.
    pub branch: Option<BranchInfo>,
    /// Division outcome and inputs, if any.
    pub div: Option<(u64, u64, DivOutcome)>,
    /// Registers written, their final values, and whether each is
    /// architecturally **protected** after this instruction (per the
    /// ProtISA ProtSet semantics). At most the explicit destination
    /// plus the implicit `RFLAGS` write.
    pub reg_writes: InlineVec<(Reg, u64, bool), 2>,
}

/// Why the emulator stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitStatus {
    /// A `halt` instruction retired.
    Halted,
    /// The step limit was reached.
    StepLimit,
    /// An indirect branch targeted an address outside the code segment.
    BadControlFlow,
}

/// The sequential emulator.
///
/// Executes a [`Program`] in order, producing an [`ExecRecord`] per
/// instruction and maintaining the architectural ProtISA ProtSet.
///
/// # Examples
///
/// ```
/// use protean_arch::{ArchState, Emulator};
/// use protean_isa::{assemble, Reg};
///
/// let prog = assemble("mov r0, 2\nmov r1, 3\nadd r2, r0, r1\nhalt\n").unwrap();
/// let mut emu = Emulator::new(&prog, ArchState::new());
/// let (status, records) = emu.run(100);
/// assert_eq!(status, protean_arch::ExitStatus::Halted);
/// assert_eq!(emu.state.reg(Reg::R2), 5);
/// assert_eq!(records.len(), 4);
/// ```
pub struct Emulator<'a> {
    program: &'a Program,
    /// Threaded-code lowering ([`Emulator::with_threaded`]): each step
    /// calls a pre-bound closure instead of decoding `inst.op`.
    threaded: Option<&'a ThreadedProgram>,
    /// The live architectural state.
    pub state: ArchState,
    /// The live architectural ProtSet.
    pub prot: ProtState,
    /// Next instruction index (`None` once halted).
    pub pc_idx: Option<u32>,
    steps: u64,
}

impl<'a> Emulator<'a> {
    /// Creates an emulator positioned at instruction 0.
    pub fn new(program: &'a Program, state: ArchState) -> Emulator<'a> {
        Emulator {
            program,
            threaded: None,
            state,
            prot: ProtState::new(),
            pc_idx: if program.is_empty() { None } else { Some(0) },
            steps: 0,
        }
    }

    /// Like [`Emulator::new`], but executing through a threaded-code
    /// lowering built once per program ([`ThreadedProgram::new`]): each
    /// step is an indirect call to a pre-bound closure instead of a
    /// `match inst.op` decode. `threaded` must have been built from
    /// `program`; execution (records, final state, ProtSet) is
    /// bit-identical to the interpreter — the property test
    /// `threaded_oracle_equiv` enforces this.
    pub fn with_threaded(
        program: &'a Program,
        threaded: &'a ThreadedProgram,
        state: ArchState,
    ) -> Emulator<'a> {
        debug_assert_eq!(threaded.len(), program.len());
        let mut emu = Emulator::new(program, state);
        emu.threaded = Some(threaded);
        emu
    }

    /// Number of instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The program being executed.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// Executes one instruction, or returns `None` if halted.
    pub fn step(&mut self) -> Option<ExecRecord> {
        let idx = self.pc_idx?;
        if let Some(threaded) = self.threaded {
            return Some(self.step_threaded(threaded, idx));
        }
        let (inst, pc) = (self.program.insts[idx as usize], self.program.pc_of(idx));
        self.steps += 1;

        let mut record = ExecRecord {
            idx,
            pc,
            inst,
            mem: None,
            addr_regs: InlineVec::new(),
            branch: None,
            div: None,
            reg_writes: InlineVec::new(),
        };

        let mut next = Some(idx + 1);

        match inst.op {
            Op::MovImm { dst, imm, width } => {
                let old = self.state.reg(dst);
                self.write_reg(&mut record, dst, width.apply(old, imm), width, inst.prot);
            }
            Op::Mov { dst, src, width } => {
                let old = self.state.reg(dst);
                let v = width.apply(old, self.state.reg(src));
                self.write_reg(&mut record, dst, v, width, inst.prot);
            }
            Op::CMov { cond, dst, src } => {
                let flags = protean_isa::Flags::from_bits(self.state.reg(Reg::RFLAGS));
                let v = if cond.eval(flags) {
                    self.state.reg(src)
                } else {
                    self.state.reg(dst)
                };
                self.write_reg(&mut record, dst, v, Width::W64, inst.prot);
            }
            Op::Alu {
                op,
                dst,
                src1,
                src2,
                width,
            } => {
                let a = self.state.reg(src1);
                let b = self.state.operand(src2);
                let old = self.state.reg(dst);
                let (v, flags) = alu_eval(op, a, b, width, old);
                self.write_reg(&mut record, dst, v, width, inst.prot);
                self.write_reg(
                    &mut record,
                    Reg::RFLAGS,
                    flags.to_bits(),
                    Width::W64,
                    inst.prot,
                );
            }
            Op::Cmp { src1, src2 } => {
                let a = self.state.reg(src1);
                let b = self.state.operand(src2);
                let flags = protean_isa::Flags::from_sub(a, b);
                self.write_reg(
                    &mut record,
                    Reg::RFLAGS,
                    flags.to_bits(),
                    Width::W64,
                    inst.prot,
                );
            }
            Op::Div { dst, src1, src2 } => {
                let a = self.state.reg(src1);
                let b = self.state.reg(src2);
                let outcome = div_eval(a, b);
                record.div = Some((a, b, outcome));
                self.write_reg(&mut record, dst, outcome.quotient, Width::W64, inst.prot);
            }
            Op::Load { dst, addr, size } => {
                for r in addr.regs().iter() {
                    record.addr_regs.push((r, self.state.reg(r)));
                }
                let ea = addr.effective_address(|r| self.state.reg(r));
                let v = self.state.mem.read(ea, size.bytes());
                record.mem = Some(MemAccess {
                    addr: ea,
                    size: size.bytes(),
                    value: v,
                    is_store: false,
                });
                // Loads zero-extend: a full-register write.
                self.write_reg(&mut record, dst, v, Width::W64, inst.prot);
                // Unprefixed loads unprotect the bytes they read (§IV-B4).
                if !inst.prot {
                    self.prot.unprotect_mem(ea, size.bytes());
                }
            }
            Op::Store { src, addr, size } => {
                for r in addr.regs().iter() {
                    record.addr_regs.push((r, self.state.reg(r)));
                }
                let ea = addr.effective_address(|r| self.state.reg(r));
                let v = self.state.operand(src);
                self.state.mem.write(ea, size.bytes(), v);
                record.mem = Some(MemAccess {
                    addr: ea,
                    size: size.bytes(),
                    value: v,
                    is_store: true,
                });
                // Written bytes inherit the data operand's protection
                // (§IV-B2); immediates are public.
                let store_data_prot = match src {
                    Operand::Reg(r) => self.prot.reg_protected(r),
                    Operand::Imm(_) => false,
                };
                self.prot.set_mem(ea, size.bytes(), store_data_prot);
            }
            Op::Jmp { target } => {
                record.branch = Some(BranchInfo {
                    taken: true,
                    target: Some(target),
                    indirect: false,
                });
                next = Some(target);
            }
            Op::Jcc { cond, target } => {
                let flags = protean_isa::Flags::from_bits(self.state.reg(Reg::RFLAGS));
                let taken = cond.eval(flags);
                let t = if taken { target } else { idx + 1 };
                record.branch = Some(BranchInfo {
                    taken,
                    target: Some(t),
                    indirect: false,
                });
                next = Some(t);
            }
            Op::JmpReg { src } => {
                let target_pc = self.state.reg(src);
                let target = self.program.index_of_pc(target_pc);
                record.branch = Some(BranchInfo {
                    taken: true,
                    target,
                    indirect: true,
                });
                next = target;
                if target.is_none() {
                    self.pc_idx = None;
                    return Some(record);
                }
            }
            Op::Call { target } => {
                let rsp = self.state.reg(Reg::RSP).wrapping_sub(8);
                let ret_pc = self.program.pc_of(idx + 1);
                record.addr_regs.push((Reg::RSP, self.state.reg(Reg::RSP)));
                self.state.mem.write(rsp, 8, ret_pc);
                record.mem = Some(MemAccess {
                    addr: rsp,
                    size: 8,
                    value: ret_pc,
                    is_store: true,
                });
                // The return address is a constant: public.
                self.prot.set_mem(rsp, 8, false);
                self.write_reg(&mut record, Reg::RSP, rsp, Width::W64, inst.prot);
                record.branch = Some(BranchInfo {
                    taken: true,
                    target: Some(target),
                    indirect: false,
                });
                next = Some(target);
            }
            Op::Ret => {
                let rsp = self.state.reg(Reg::RSP);
                record.addr_regs.push((Reg::RSP, rsp));
                let target_pc = self.state.mem.read(rsp, 8);
                record.mem = Some(MemAccess {
                    addr: rsp,
                    size: 8,
                    value: target_pc,
                    is_store: false,
                });
                if !inst.prot {
                    self.prot.unprotect_mem(rsp, 8);
                }
                self.write_reg(
                    &mut record,
                    Reg::RSP,
                    rsp.wrapping_add(8),
                    Width::W64,
                    inst.prot,
                );
                let target = self.program.index_of_pc(target_pc);
                record.branch = Some(BranchInfo {
                    taken: true,
                    target,
                    indirect: true,
                });
                next = target;
            }
            Op::Nop => {}
            Op::Halt => {
                next = None;
            }
        }

        self.pc_idx = next;
        Some(record)
    }

    /// One step through the threaded-code lowering: the driver fetches
    /// the pre-bound [`crate::ThreadedOp`], calls it, and resolves any
    /// computed (indirect) target against the code segment — the only
    /// part of a step that needs the [`Program`].
    fn step_threaded(&mut self, threaded: &ThreadedProgram, idx: u32) -> ExecRecord {
        let op = threaded.get(idx);
        self.steps += 1;
        let mut record = ExecRecord {
            idx,
            pc: op.pc,
            inst: op.inst,
            mem: None,
            addr_regs: InlineVec::new(),
            branch: None,
            div: None,
            reg_writes: InlineVec::new(),
        };
        match op.exec(&mut self.state, &mut self.prot, &mut record) {
            Ctrl::Next => self.pc_idx = Some(idx + 1),
            Ctrl::Jump(target) => self.pc_idx = Some(target),
            Ctrl::JumpPc(target_pc) => {
                let target = self.program.index_of_pc(target_pc);
                record.branch = Some(BranchInfo {
                    taken: true,
                    target,
                    indirect: true,
                });
                self.pc_idx = target;
            }
            Ctrl::Halt => self.pc_idx = None,
        }
        record
    }

    /// Runs until halt, bad control flow, or `max_steps` instructions.
    ///
    /// Returns the exit status and all execution records.
    pub fn run(&mut self, max_steps: u64) -> (ExitStatus, Vec<ExecRecord>) {
        let mut records = Vec::new();
        let status = self.run_into(max_steps, &mut records);
        (status, records)
    }

    /// Like [`Emulator::run`], but fills a caller-owned record buffer
    /// (cleared first), so loops that trace many runs — the fuzzer's
    /// sequential contract traces — reuse one allocation instead of
    /// regrowing a fresh `Vec` per run.
    pub fn run_into(&mut self, max_steps: u64, records: &mut Vec<ExecRecord>) -> ExitStatus {
        records.clear();
        loop {
            if self.pc_idx.is_none() {
                let halted_on_halt = records
                    .last()
                    .map(|r: &ExecRecord| matches!(r.inst.op, Op::Halt))
                    .unwrap_or(false);
                return if halted_on_halt {
                    ExitStatus::Halted
                } else {
                    ExitStatus::BadControlFlow
                };
            }
            if self.steps >= max_steps {
                return ExitStatus::StepLimit;
            }
            match self.step() {
                Some(r) => records.push(r),
                None => unreachable!("pc_idx checked above"),
            }
        }
    }

    /// Writes a register, updates the ProtSet per the ProtISA rules, and
    /// records the write with its post-instruction protection.
    fn write_reg(
        &mut self,
        record: &mut ExecRecord,
        reg: Reg,
        value: u64,
        width: Width,
        prot: bool,
    ) {
        apply_reg_write(
            &mut self.state,
            &mut self.prot,
            record,
            reg,
            value,
            width,
            prot,
        );
    }
}

/// The one register-write path shared by the interpreter and the
/// threaded-code lowering: architectural write, ProtSet update per the
/// ProtISA rules, and the record entry with the post-instruction
/// protection bit. Keeping this a single function makes the prot
/// plumbing of the two backends identical by construction.
#[inline]
pub(crate) fn apply_reg_write(
    state: &mut ArchState,
    prot: &mut ProtState,
    record: &mut ExecRecord,
    reg: Reg,
    value: u64,
    width: Width,
    prot_bit: bool,
) {
    state.set_reg(reg, value);
    prot.write_reg(reg, width, prot_bit);
    record
        .reg_writes
        .push((reg, value, prot.reg_protected(reg)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_isa::assemble;

    fn run(src: &str) -> (ExitStatus, Vec<ExecRecord>, ArchState) {
        let prog = assemble(src).unwrap();
        let mut emu = Emulator::new(&prog, ArchState::new());
        let (status, records) = emu.run(10_000);
        (status, records, emu.state)
    }

    #[test]
    fn loop_counts() {
        let (status, records, state) =
            run("mov r0, 0\nloop:\nadd r0, r0, 1\ncmp r0, 5\njlt loop\nhalt\n");
        assert_eq!(status, ExitStatus::Halted);
        assert_eq!(state.reg(Reg::R0), 5);
        // 1 mov + 5*(add,cmp,jlt) + halt
        assert_eq!(records.len(), 1 + 15 + 1);
    }

    #[test]
    fn memory_and_records() {
        let (_, records, state) =
            run("mov r0, 0x1000\nmov r1, 42\nstore [r0 + 8], r1\nload r2, [r0 + 8]\nhalt\n");
        assert_eq!(state.reg(Reg::R2), 42);
        let store = &records[2];
        let mem = store.mem.unwrap();
        assert!(mem.is_store);
        assert_eq!(mem.addr, 0x1008);
        assert_eq!(mem.value, 42);
        assert_eq!(store.addr_regs, vec![(Reg::R0, 0x1000)]);
        let load = &records[3];
        assert!(!load.mem.unwrap().is_store);
    }

    #[test]
    fn call_ret_roundtrip() {
        let (status, _, state) = run(r#"
              mov rsp, 0x8000
              mov r0, 1
              call fn
              add r0, r0, 10
              halt
            fn:
              add r0, r0, 100
              ret
            "#);
        assert_eq!(status, ExitStatus::Halted);
        assert_eq!(state.reg(Reg::R0), 111);
        assert_eq!(state.reg(Reg::RSP), 0x8000);
    }

    #[test]
    fn indirect_jump() {
        let prog = assemble("mov r0, 0\nmov r1, 0\njmpreg r1\nhalt\n").unwrap();
        // Jump to pc of instruction 3 (halt).
        let mut state = ArchState::new();
        state.set_reg(Reg::R1, prog.pc_of(3));
        // But r1 is overwritten by `mov r1, 0`... use a fresh program:
        let prog = assemble("jmpreg r1\nnop\nhalt\n").unwrap();
        let mut state2 = ArchState::new();
        state2.set_reg(Reg::R1, prog.pc_of(2));
        let mut emu = Emulator::new(&prog, state2);
        let (status, records) = emu.run(10);
        assert_eq!(status, ExitStatus::Halted);
        assert_eq!(records.len(), 2); // jmpreg + halt
        let _ = state;
    }

    #[test]
    fn bad_indirect_target_stops() {
        let (status, _, _) = run("mov r1, 0x12345\njmpreg r1\nhalt\n");
        assert_eq!(status, ExitStatus::BadControlFlow);
    }

    #[test]
    fn div_records_outcome() {
        let (_, records, state) = run("mov r1, 100\nmov r2, 7\ndiv r0, r1, r2\nhalt\n");
        assert_eq!(state.reg(Reg::R0), 14);
        let (a, b, o) = records[2].div.unwrap();
        assert_eq!((a, b), (100, 7));
        assert!(!o.faulted);
    }

    #[test]
    fn div_by_zero_suppressed() {
        let (status, records, state) = run("mov r1, 9\ndiv r0, r1, r2\nhalt\n");
        assert_eq!(status, ExitStatus::Halted);
        assert_eq!(state.reg(Reg::R0), u64::MAX);
        assert!(records[1].div.unwrap().2.faulted);
    }

    #[test]
    fn step_limit() {
        let (status, _, _) = run("loop:\njmp loop\nhalt\n");
        assert_eq!(status, ExitStatus::StepLimit);
    }

    #[test]
    fn cmov_semantics() {
        let (_, _, state) =
            run("mov r0, 1\nmov r1, 2\nmov r2, 0xaa\ncmp r0, r1\ncmov.lt r3, r2\nhalt\n");
        assert_eq!(state.reg(Reg::R3), 0xaa);
        let (_, _, state) = run(
            "mov r0, 9\nmov r1, 2\nmov r2, 0xaa\nmov r3, 0xbb\ncmp r0, r1\ncmov.lt r3, r2\nhalt\n",
        );
        assert_eq!(state.reg(Reg::R3), 0xbb);
    }

    #[test]
    fn prot_tracking_basics() {
        let prog =
            assemble("prot mov r0, 5\nmov r1, 6\nstore [rsp], r0\nstore [rsp+8], r1\nhalt\n")
                .unwrap();
        let mut emu = Emulator::new(&prog, ArchState::new());
        emu.state.set_reg(Reg::RSP, 0x7000);
        let (_, records) = emu.run(100);
        // r0 protected, r1 not.
        assert!(records[0].reg_writes[0].2);
        assert!(!records[1].reg_writes[0].2);
        // Stored bytes inherit protection of the data operand.
        assert!(emu.prot.mem_protected(0x7000, 8));
        assert!(!emu.prot.mem_protected(0x7008, 8));
    }

    #[test]
    fn unprefixed_load_unprotects_memory() {
        let prog = assemble("load r0, [r1 + 0x100]\nprot load r2, [r1 + 0x200]\nhalt\n").unwrap();
        let mut emu = Emulator::new(&prog, ArchState::new());
        // All memory starts protected.
        assert!(emu.prot.mem_protected(0x100, 8));
        let _ = emu.run(10);
        assert!(!emu.prot.mem_protected(0x100, 8)); // unprefixed load unprotected it
        assert!(emu.prot.mem_protected(0x200, 8)); // prot load left it protected
        assert!(!emu.prot.reg_protected(Reg::R0));
        assert!(emu.prot.reg_protected(Reg::R2));
    }
}
