//! Binary instruction encoding.
//!
//! Used for the code-size-overhead measurements of paper §IX-A2: the
//! `PROT` prefix costs one byte (like an x86 prefix), and ProtCC's
//! identity moves cost three, so instrumented binaries grow by a few
//! percent — exactly the effect the paper reports.
//!
//! The encoding is a simple variable-length format:
//!
//! ```text
//! [0x50 PROT prefix]? [opcode u8] [operands...]
//! ```
//!
//! Only its size is ever measured, so the crate has no decoder.

use crate::{AluOp, Cond, Inst, Mem, Op, Operand, Program, Reg, Width};

/// The `PROT` prefix byte.
const PROT_PREFIX: u8 = 0x50;

mod opcode {
    pub const MOV_IMM: u8 = 0x01;
    pub const MOV: u8 = 0x02;
    pub const CMOV: u8 = 0x03;
    pub const ALU: u8 = 0x04;
    pub const CMP: u8 = 0x05;
    pub const DIV: u8 = 0x06;
    pub const LOAD: u8 = 0x07;
    pub const STORE: u8 = 0x08;
    pub const JMP: u8 = 0x09;
    pub const JCC: u8 = 0x0a;
    pub const JMPREG: u8 = 0x0b;
    pub const CALL: u8 = 0x0c;
    pub const RET: u8 = 0x0d;
    pub const NOP: u8 = 0x0e;
    pub const HALT: u8 = 0x0f;
}

/// Encodes one instruction, appending to `out`.
fn encode_inst(inst: &Inst, out: &mut Vec<u8>) {
    if inst.prot {
        out.push(PROT_PREFIX);
    }
    match inst.op {
        Op::MovImm { dst, imm, width } => {
            out.push(opcode::MOV_IMM);
            out.push(pack_reg_width(dst, width));
            put_imm(imm, out);
        }
        Op::Mov { dst, src, width } => {
            out.push(opcode::MOV);
            out.push(pack_reg_width(dst, width));
            out.push(src.index() as u8);
        }
        Op::CMov { cond, dst, src } => {
            out.push(opcode::CMOV);
            out.push(cond_code(cond));
            out.push(dst.index() as u8);
            out.push(src.index() as u8);
        }
        Op::Alu {
            op,
            dst,
            src1,
            src2,
            width,
        } => {
            out.push(opcode::ALU);
            out.push(alu_code(op));
            out.push(pack_reg_width(dst, width));
            out.push(src1.index() as u8);
            put_operand(src2, out);
        }
        Op::Cmp { src1, src2 } => {
            out.push(opcode::CMP);
            out.push(src1.index() as u8);
            put_operand(src2, out);
        }
        Op::Div { dst, src1, src2 } => {
            out.push(opcode::DIV);
            out.push(dst.index() as u8);
            out.push(src1.index() as u8);
            out.push(src2.index() as u8);
        }
        Op::Load { dst, addr, size } => {
            out.push(opcode::LOAD);
            out.push(pack_reg_width(dst, size));
            put_mem(addr, out);
        }
        Op::Store { src, addr, size } => {
            out.push(opcode::STORE);
            out.push(width_code(size));
            put_operand(src, out);
            put_mem(addr, out);
        }
        Op::Jmp { target } => {
            out.push(opcode::JMP);
            out.extend_from_slice(&target.to_le_bytes());
        }
        Op::Jcc { cond, target } => {
            out.push(opcode::JCC);
            out.push(cond_code(cond));
            out.extend_from_slice(&target.to_le_bytes());
        }
        Op::JmpReg { src } => {
            out.push(opcode::JMPREG);
            out.push(src.index() as u8);
        }
        Op::Call { target } => {
            out.push(opcode::CALL);
            out.extend_from_slice(&target.to_le_bytes());
        }
        Op::Ret => out.push(opcode::RET),
        Op::Nop => out.push(opcode::NOP),
        Op::Halt => out.push(opcode::HALT),
    }
}

/// Encodes a whole program.
pub fn encode_program(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(program.len() * 4);
    for inst in &program.insts {
        encode_inst(inst, &mut out);
    }
    out
}

/// Encoded size of a program in bytes — the paper's code-size metric.
///
/// # Examples
///
/// ```
/// use protean_isa::{assemble, code_size};
///
/// let base = assemble("mov r0, r1\nhalt\n").unwrap();
/// let inst = assemble("prot mov r0, r1\nmov r1, r1\nhalt\n").unwrap();
/// assert!(code_size(&inst) > code_size(&base));
/// ```
pub fn code_size(program: &Program) -> usize {
    encode_program(program).len()
}

fn put_imm(imm: u64, out: &mut Vec<u8>) {
    let bytes = imm.to_le_bytes();
    let len = (8 - imm.leading_zeros() as usize / 8).max(if imm == 0 { 0 } else { 1 });
    out.push(len as u8);
    out.extend_from_slice(&bytes[..len]);
}

fn put_operand(op: Operand, out: &mut Vec<u8>) {
    match op {
        Operand::Reg(r) => {
            out.push(0);
            out.push(r.index() as u8);
        }
        Operand::Imm(v) => {
            out.push(1);
            put_imm(v, out);
        }
    }
}

fn put_mem(mem: Mem, out: &mut Vec<u8>) {
    let mut flags = 0u8;
    if mem.base.is_some() {
        flags |= 1;
    }
    if mem.index.is_some() {
        flags |= 2;
    }
    if mem.disp != 0 {
        flags |= 4;
    }
    out.push(flags);
    if let Some(b) = mem.base {
        out.push(b.index() as u8);
    }
    if let Some((r, s)) = mem.index {
        out.push(r.index() as u8);
        out.push(s);
    }
    if mem.disp != 0 {
        put_imm(mem.disp as u64, out);
    }
}

fn pack_reg_width(reg: Reg, width: Width) -> u8 {
    (reg.index() as u8) | (width_code(width) << 6)
}

fn width_code(w: Width) -> u8 {
    match w {
        Width::W8 => 0,
        Width::W16 => 1,
        Width::W32 => 2,
        Width::W64 => 3,
    }
}

fn alu_code(op: AluOp) -> u8 {
    AluOp::ALL.iter().position(|a| *a == op).unwrap() as u8
}

fn cond_code(c: Cond) -> u8 {
    Cond::ALL.iter().position(|a| *a == c).unwrap() as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;

    /// One instance of every `Op`, every operand form and the prefix:
    /// pins the encoded size the §IX-A2 code-size metric reads.
    #[test]
    fn representative_program_code_size() {
        let p = assemble(
            r#"
            mov r0, 0
            mov.w r1, 0xdeadbeef
            prot add r1, r0, 7
            sub.b r2, r1, r0
            cmov.ne r2, r1
            div r3, r1, r2
            prot load r4, [r0 + r1*4 + 0x20]
            load.h r5, [rsp]
            store [rsp - 16], r4
            store.b [r0], 0xff
            cmp r4, 0x123456789a
            jeq @12
            jmpreg r2
            call @14
            ret
            nop
            halt
            "#,
        )
        .unwrap();
        assert_eq!(code_size(&p), 92);
    }

    #[test]
    fn prot_prefix_costs_one_byte() {
        let base = assemble("mov r0, r1\nhalt\n").unwrap();
        let prot = assemble("prot mov r0, r1\nhalt\n").unwrap();
        assert_eq!(code_size(&prot), code_size(&base) + 1);
    }

    #[test]
    fn zero_imm_is_compact() {
        let p = assemble("mov r0, 0\nmov r1, 0xffffffffffffffff\nhalt\n").unwrap();
        let bytes = encode_program(&p);
        // mov r0, 0 is 3 bytes; mov r1, MAX is 11.
        assert_eq!(bytes.len(), 3 + 11 + 1);
    }
}
