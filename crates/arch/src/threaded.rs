//! Threaded-code lowering of the sequential emulator.
//!
//! [`ThreadedProgram::new`] lowers every static instruction to a
//! pre-bound closure over the architectural state at program-build time:
//! operand registers, immediates, widths, branch targets, and the
//! call-return PC are all resolved once, so the per-step hot path is an
//! indirect call instead of the interpreter's `match inst.op` decode.
//! Spectre fuzzing campaigns re-execute the same few dozen static
//! instructions tens of thousands of times per program, which is exactly
//! the shape threaded code rewards.
//!
//! The lowering is *not* a second implementation of the ISA: every thunk
//! calls the same shared semantic kernels ([`protean_isa::alu_eval`],
//! [`protean_isa::div_eval`]) and the same register-write/ProtSet helper
//! as the interpreter, and produces bit-identical [`ExecRecord`]s. The
//! interpreter stays as the differential-testing oracle
//! ([`OracleMode::Interp`], selected per campaign through
//! `FuzzConfig::oracle`); the equivalence is
//! enforced by a property test over random fuzzer programs.

use crate::emulator::{apply_reg_write, ArchState, ExecRecord, MemAccess};
use crate::{BranchInfo, ProtState};
use protean_isa::{alu_eval, div_eval, Flags, Inst, Op, Operand, Program, Reg, Width};

/// Control-flow outcome of one lowered instruction.
///
/// Indirect branches (`jmpreg` / `ret`) return the raw target PC; the
/// driver resolves it against the code segment (and records the branch),
/// because the PC→index mapping lives in the [`Program`], which the
/// `'static` thunks must not borrow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ctrl {
    /// Fall through to the next instruction.
    Next,
    /// Transfer to a direct (build-time known or flag-selected) index.
    Jump(u32),
    /// Transfer to a computed PC (indirect branch); the driver resolves
    /// and records it.
    JumpPc(u64),
    /// A `halt` retired.
    Halt,
}

/// A pre-bound instruction body: fills in the [`ExecRecord`] (whose
/// `idx`/`pc`/`inst` the driver has already set) and returns where
/// control goes.
type Thunk = Box<dyn Fn(&mut ArchState, &mut ProtState, &mut ExecRecord) -> Ctrl + Send + Sync>;

/// One lowered static instruction.
pub struct ThreadedOp {
    /// The source instruction (recorded per execution).
    pub inst: Inst,
    /// Its program counter.
    pub pc: u64,
    thunk: Thunk,
}

impl ThreadedOp {
    /// Executes the pre-bound instruction body.
    #[inline]
    pub fn exec(
        &self,
        state: &mut ArchState,
        prot: &mut ProtState,
        record: &mut ExecRecord,
    ) -> Ctrl {
        (self.thunk)(state, prot, record)
    }
}

/// A program lowered to threaded code, one [`ThreadedOp`] per static
/// instruction.
///
/// # Examples
///
/// ```
/// use protean_arch::{ArchState, Emulator, ThreadedProgram};
/// use protean_isa::{assemble, Reg};
///
/// let prog = assemble("mov r0, 2\nmov r1, 3\nadd r2, r0, r1\nhalt\n").unwrap();
/// let threaded = ThreadedProgram::new(&prog);
/// let mut emu = Emulator::with_threaded(&prog, &threaded, ArchState::new());
/// let (status, records) = emu.run(100);
/// assert_eq!(status, protean_arch::ExitStatus::Halted);
/// assert_eq!(emu.state.reg(Reg::R2), 5);
/// assert_eq!(records.len(), 4);
/// ```
pub struct ThreadedProgram {
    ops: Vec<ThreadedOp>,
}

impl ThreadedProgram {
    /// Lowers `program` to threaded code.
    pub fn new(program: &Program) -> ThreadedProgram {
        let ops = program
            .insts
            .iter()
            .enumerate()
            .map(|(idx, &inst)| {
                let idx = idx as u32;
                ThreadedOp {
                    inst,
                    pc: program.pc_of(idx),
                    thunk: lower(program, idx, inst),
                }
            })
            .collect();
        ThreadedProgram { ops }
    }

    /// Number of lowered instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The lowered instruction at `idx`.
    #[inline]
    pub fn get(&self, idx: u32) -> &ThreadedOp {
        &self.ops[idx as usize]
    }
}

/// Which oracle backend the architectural (SEQ) pass runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OracleMode {
    /// The `match inst.op` interpreter — the differential-testing
    /// reference.
    Interp,
    /// The threaded-code lowering (default: fast campaigns).
    #[default]
    Threaded,
}

/// Lowers one instruction to its pre-bound body. Each arm mirrors the
/// corresponding interpreter arm in `Emulator::step` exactly — same
/// semantic kernels, same record fields, same ProtSet updates.
fn lower(program: &Program, idx: u32, inst: Inst) -> Thunk {
    let prot_prefix = inst.prot;
    match inst.op {
        Op::MovImm { dst, imm, width } => Box::new(move |state, prot, record| {
            let old = state.reg(dst);
            apply_reg_write(
                state,
                prot,
                record,
                dst,
                width.apply(old, imm),
                width,
                prot_prefix,
            );
            Ctrl::Next
        }),
        Op::Mov { dst, src, width } => Box::new(move |state, prot, record| {
            let old = state.reg(dst);
            let v = width.apply(old, state.reg(src));
            apply_reg_write(state, prot, record, dst, v, width, prot_prefix);
            Ctrl::Next
        }),
        Op::CMov { cond, dst, src } => Box::new(move |state, prot, record| {
            let flags = Flags::from_bits(state.reg(Reg::RFLAGS));
            let v = if cond.eval(flags) {
                state.reg(src)
            } else {
                state.reg(dst)
            };
            apply_reg_write(state, prot, record, dst, v, Width::W64, prot_prefix);
            Ctrl::Next
        }),
        Op::Alu {
            op,
            dst,
            src1,
            src2,
            width,
        } => Box::new(move |state, prot, record| {
            let a = state.reg(src1);
            let b = state.operand(src2);
            let old = state.reg(dst);
            let (v, flags) = alu_eval(op, a, b, width, old);
            apply_reg_write(state, prot, record, dst, v, width, prot_prefix);
            apply_reg_write(
                state,
                prot,
                record,
                Reg::RFLAGS,
                flags.to_bits(),
                Width::W64,
                prot_prefix,
            );
            Ctrl::Next
        }),
        Op::Cmp { src1, src2 } => Box::new(move |state, prot, record| {
            let a = state.reg(src1);
            let b = state.operand(src2);
            let flags = Flags::from_sub(a, b);
            apply_reg_write(
                state,
                prot,
                record,
                Reg::RFLAGS,
                flags.to_bits(),
                Width::W64,
                prot_prefix,
            );
            Ctrl::Next
        }),
        Op::Div { dst, src1, src2 } => Box::new(move |state, prot, record| {
            let a = state.reg(src1);
            let b = state.reg(src2);
            let outcome = div_eval(a, b);
            record.div = Some((a, b, outcome));
            apply_reg_write(
                state,
                prot,
                record,
                dst,
                outcome.quotient,
                Width::W64,
                prot_prefix,
            );
            Ctrl::Next
        }),
        Op::Load { dst, addr, size } => Box::new(move |state, prot, record| {
            for r in addr.regs().iter() {
                record.addr_regs.push((r, state.reg(r)));
            }
            let ea = addr.effective_address(|r| state.reg(r));
            let v = state.mem.read(ea, size.bytes());
            record.mem = Some(MemAccess {
                addr: ea,
                size: size.bytes(),
                value: v,
                is_store: false,
            });
            apply_reg_write(state, prot, record, dst, v, Width::W64, prot_prefix);
            if !prot_prefix {
                prot.unprotect_mem(ea, size.bytes());
            }
            Ctrl::Next
        }),
        Op::Store { src, addr, size } => Box::new(move |state, prot, record| {
            for r in addr.regs().iter() {
                record.addr_regs.push((r, state.reg(r)));
            }
            let ea = addr.effective_address(|r| state.reg(r));
            let v = state.operand(src);
            state.mem.write(ea, size.bytes(), v);
            record.mem = Some(MemAccess {
                addr: ea,
                size: size.bytes(),
                value: v,
                is_store: true,
            });
            let data_prot = match src {
                Operand::Reg(r) => prot.reg_protected(r),
                Operand::Imm(_) => false,
            };
            prot.set_mem(ea, size.bytes(), data_prot);
            Ctrl::Next
        }),
        Op::Jmp { target } => Box::new(move |_state, _prot, record| {
            record.branch = Some(BranchInfo {
                taken: true,
                target: Some(target),
                indirect: false,
            });
            Ctrl::Jump(target)
        }),
        Op::Jcc { cond, target } => {
            let fallthrough = idx + 1;
            Box::new(move |state, _prot, record| {
                let flags = Flags::from_bits(state.reg(Reg::RFLAGS));
                let taken = cond.eval(flags);
                let t = if taken { target } else { fallthrough };
                record.branch = Some(BranchInfo {
                    taken,
                    target: Some(t),
                    indirect: false,
                });
                Ctrl::Jump(t)
            })
        }
        Op::JmpReg { src } => Box::new(move |state, _prot, _record| Ctrl::JumpPc(state.reg(src))),
        Op::Call { target } => {
            // The return address is a build-time constant (`pc_of` is
            // pure arithmetic, so this is safe even for a trailing call).
            let ret_pc = program.pc_of(idx + 1);
            Box::new(move |state, prot, record| {
                let rsp = state.reg(Reg::RSP).wrapping_sub(8);
                record.addr_regs.push((Reg::RSP, state.reg(Reg::RSP)));
                state.mem.write(rsp, 8, ret_pc);
                record.mem = Some(MemAccess {
                    addr: rsp,
                    size: 8,
                    value: ret_pc,
                    is_store: true,
                });
                prot.set_mem(rsp, 8, false);
                apply_reg_write(state, prot, record, Reg::RSP, rsp, Width::W64, prot_prefix);
                record.branch = Some(BranchInfo {
                    taken: true,
                    target: Some(target),
                    indirect: false,
                });
                Ctrl::Jump(target)
            })
        }
        Op::Ret => Box::new(move |state, prot, record| {
            let rsp = state.reg(Reg::RSP);
            record.addr_regs.push((Reg::RSP, rsp));
            let target_pc = state.mem.read(rsp, 8);
            record.mem = Some(MemAccess {
                addr: rsp,
                size: 8,
                value: target_pc,
                is_store: false,
            });
            if !prot_prefix {
                prot.unprotect_mem(rsp, 8);
            }
            apply_reg_write(
                state,
                prot,
                record,
                Reg::RSP,
                rsp.wrapping_add(8),
                Width::W64,
                prot_prefix,
            );
            Ctrl::JumpPc(target_pc)
        }),
        Op::Nop => Box::new(|_state, _prot, _record| Ctrl::Next),
        Op::Halt => Box::new(|_state, _prot, _record| Ctrl::Halt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Emulator;
    use protean_isa::assemble;

    /// Runs `src` through both backends and asserts identical exit
    /// status, records, final registers, and ProtSet digest.
    fn assert_equivalent(src: &str) {
        let prog = assemble(src).unwrap();
        let threaded = ThreadedProgram::new(&prog);
        let mut interp = Emulator::new(&prog, ArchState::new());
        let (st_i, rec_i) = interp.run(500);
        let mut fast = Emulator::with_threaded(&prog, &threaded, ArchState::new());
        let (st_t, rec_t) = fast.run(500);
        assert_eq!(st_i, st_t, "exit status");
        assert_eq!(rec_i, rec_t, "records");
        assert_eq!(interp.state.regs, fast.state.regs, "final registers");
        assert_eq!(
            interp.prot.unprotected_byte_count(),
            fast.prot.unprotected_byte_count(),
            "prot digest"
        );
    }

    #[test]
    fn straight_line_and_flags() {
        assert_equivalent(
            "mov r0, 7\nadd.w r1, r0, 3\ncmp r1, 10\ncmov.eq r2, r1\nmul r3, r1, r1\nhalt\n",
        );
    }

    #[test]
    fn loops_and_memory() {
        assert_equivalent(
            "mov rsp, 0x8000\nmov r0, 0\nloop:\nstore [rsp + r0*8], r0\nadd r0, r0, 1\ncmp r0, 8\njlt loop\nload r1, [rsp + 16]\nhalt\n",
        );
    }

    #[test]
    fn call_ret_and_prot() {
        assert_equivalent(
            "mov rsp, 0x8000\nprot mov r0, 5\ncall fn\nstore [rsp - 32], r0\nhalt\nfn:\nadd r0, r0, 1\nret\n",
        );
    }

    #[test]
    fn bad_indirect_target() {
        assert_equivalent("mov r1, 0x999999\njmpreg r1\nhalt\n");
    }

    #[test]
    fn good_indirect_target_via_register() {
        // jmpreg to the halt's pc (code base + 4 * idx).
        let prog = assemble("jmpreg r1\nnop\nhalt\n").unwrap();
        let threaded = ThreadedProgram::new(&prog);
        let mut st = ArchState::new();
        st.set_reg(Reg::R1, prog.pc_of(2));
        let mut interp = Emulator::new(&prog, st.clone());
        let (si, ri) = interp.run(10);
        let mut fast = Emulator::with_threaded(&prog, &threaded, st);
        let (sf, rf) = fast.run(10);
        assert_eq!(si, sf);
        assert_eq!(ri, rf);
        assert_eq!(ri.len(), 2);
    }

    #[test]
    fn step_limit_matches() {
        assert_equivalent("loop:\njmp loop\nhalt\n");
    }

    #[test]
    fn div_and_fault() {
        assert_equivalent("mov r1, 100\nmov r2, 7\ndiv r0, r1, r2\ndiv r3, r1, r4\nhalt\n");
    }

    #[test]
    fn oracle_mode_env_default() {
        // Don't mutate the environment (tests run in parallel): just pin
        // the default.
        assert_eq!(OracleMode::default(), OracleMode::Threaded);
    }
}
