//! Property tests: the assemble/disassemble round-trip and the operand
//! rules hold for arbitrary legal instructions.

use protean_isa::{assemble, AluOp, Cond, Inst, Mem, Op, Operand, Reg, Width};
use protean_testkit::{Checker, Rng};

fn arb_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.gen_range(0..Reg::COUNT))
}

/// Any register except `RFLAGS`, which is never a legal explicit
/// destination (see [`Inst::validate`]).
fn arb_dst_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.gen_range(0..Reg::RFLAGS.index()))
}

fn arb_width(rng: &mut Rng) -> Width {
    *rng.choose(&Width::ALL).unwrap()
}

fn arb_cond(rng: &mut Rng) -> Cond {
    *rng.choose(&Cond::ALL).unwrap()
}

fn arb_alu(rng: &mut Rng) -> AluOp {
    *rng.choose(&AluOp::ALL).unwrap()
}

fn arb_operand(rng: &mut Rng) -> Operand {
    if rng.gen::<bool>() {
        Operand::Reg(arb_reg(rng))
    } else {
        Operand::Imm(rng.gen::<u64>())
    }
}

fn arb_mem(rng: &mut Rng) -> Mem {
    Mem {
        base: rng.gen::<bool>().then(|| arb_reg(rng)),
        index: rng
            .gen::<bool>()
            .then(|| (arb_reg(rng), *rng.choose(&[1u8, 2, 4, 8]).unwrap())),
        // Keep displacements in a readable range so the assembler's
        // hex formatting round-trips.
        disp: rng.gen_range(-0xffff_i64..0xffff_i64),
    }
}

fn arb_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0..15u32) {
        0 => Op::MovImm {
            dst: arb_dst_reg(rng),
            imm: rng.gen::<u64>(),
            width: arb_width(rng),
        },
        1 => Op::Mov {
            dst: arb_dst_reg(rng),
            src: arb_reg(rng),
            width: arb_width(rng),
        },
        2 => Op::CMov {
            cond: arb_cond(rng),
            dst: arb_dst_reg(rng),
            src: arb_reg(rng),
        },
        3 => Op::Alu {
            op: arb_alu(rng),
            dst: arb_dst_reg(rng),
            src1: arb_reg(rng),
            src2: arb_operand(rng),
            width: arb_width(rng),
        },
        4 => Op::Cmp {
            src1: arb_reg(rng),
            src2: arb_operand(rng),
        },
        5 => Op::Div {
            dst: arb_dst_reg(rng),
            src1: arb_reg(rng),
            src2: arb_reg(rng),
        },
        6 => Op::Load {
            dst: arb_dst_reg(rng),
            addr: arb_mem(rng),
            size: arb_width(rng),
        },
        7 => Op::Store {
            src: arb_operand(rng),
            addr: arb_mem(rng),
            size: arb_width(rng),
        },
        8 => Op::Jmp {
            target: rng.gen_range(0u32..10_000),
        },
        9 => Op::Jcc {
            cond: arb_cond(rng),
            target: rng.gen_range(0u32..10_000),
        },
        10 => Op::JmpReg { src: arb_reg(rng) },
        11 => Op::Call {
            target: rng.gen_range(0u32..10_000),
        },
        12 => Op::Ret,
        13 => Op::Nop,
        _ => Op::Halt,
    }
}

fn arb_inst(rng: &mut Rng) -> Inst {
    Inst {
        op: arb_op(rng),
        prot: rng.gen::<bool>(),
    }
}

fn arb_insts(rng: &mut Rng) -> Vec<Inst> {
    let n = rng.gen_range(1..64usize);
    (0..n).map(|_| arb_inst(rng)).collect()
}

#[test]
fn display_assemble_roundtrip() {
    Checker::new("display_assemble_roundtrip").run(arb_insts, |insts| {
        let text: String = insts.iter().map(|i| format!("{i}\n")).collect();
        let parsed = assemble(&text).unwrap();
        assert_eq!(&parsed.insts, insts);
    });
}

/// `RFLAGS` is written implicitly exactly by ALU ops and compares; no
/// legal instruction names it as an explicit destination, so this holds
/// with no side conditions.
#[test]
fn src_dst_regs_disjoint_from_flags_rules() {
    Checker::new("src_dst_regs_disjoint_from_flags_rules").run(arb_inst, |inst| {
        assert!(
            inst.validate().is_ok(),
            "generator must produce legal insts"
        );
        let writes_flags = inst.dst_regs().contains(Reg::RFLAGS);
        let expect = matches!(inst.op, Op::Alu { .. } | Op::Cmp { .. });
        assert_eq!(writes_flags, expect);
    });
}

/// Former proptest counterexample (`shrinks to inst = Inst { op: CMov {
/// cond: Eq, dst: rflags, src: r0 }, prot: false }`): an instruction
/// naming `RFLAGS` as its explicit destination broke the flags-writer
/// invariant above. Such instructions are now rejected in one
/// consistent place ([`Inst::validate`]), which the assembler
/// enforces.
#[test]
fn regression_cmov_rflags_dst_is_illegal() {
    let inst = Inst::new(Op::CMov {
        cond: Cond::Eq,
        dst: Reg::RFLAGS,
        src: Reg::R0,
    });
    assert_eq!(
        inst.validate(),
        Err("rflags cannot be an explicit destination")
    );

    // The assembler refuses its textual form (which `Display` still
    // produces, so the error names the offending line).
    assert!(assemble(&format!("{inst}\n")).is_err());
}

#[test]
fn sensitive_regs_subset_of_srcs() {
    Checker::new("sensitive_regs_subset_of_srcs").run(arb_inst, |inst| {
        // Transmitted (sensitive) registers are always read by the
        // instruction.
        let t = protean_isa::TransmitterSet::paper();
        assert!(inst.src_regs().is_superset(t.sensitive_regs(inst)));
    });
}
