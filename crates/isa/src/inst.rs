//! Instruction definitions.
//!
//! Every instruction in this ISA corresponds to a single micro-op, so the
//! ProtISA rule that "each micro-op inherits any PROT prefix on the
//! instruction" (paper §IV-B) is satisfied by construction. The two
//! exceptions are [`Op::Call`] and [`Op::Ret`], which bundle a stack
//! access with a control transfer — exactly as x86 microcode does — and
//! are treated by the pipeline as a store-µop and load-µop respectively
//! (the `ret` stack load is one of the hottest transmitters SPT-SB stalls,
//! paper §IX-A1).

use crate::{Reg, RegSet};
use core::fmt;

/// ALU operation kinds for [`Op::Alu`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction (sets carry/overflow like x86 `sub`).
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (count masked by operand width: mod 64 for
    /// W64, mod 32 otherwise, per the x86 contract).
    Shl,
    /// Logical shift right of the width lane.
    Shr,
    /// Arithmetic shift right of the width lane (sign bit is the
    /// width's top bit, not bit 63).
    Sar,
    /// Rotate left (used heavily by the crypto workloads).
    Rol,
    /// Rotate right.
    Ror,
    /// Low 64 bits of the product.
    Mul,
}

impl AluOp {
    /// All ALU operations, for random generation.
    pub const ALL: [AluOp; 11] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
        AluOp::Rol,
        AluOp::Ror,
        AluOp::Mul,
    ];

    /// Mnemonic used by the assembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Rol => "rol",
            AluOp::Ror => "ror",
            AluOp::Mul => "mul",
        }
    }
}

/// Condition codes for conditional branches and conditional moves,
/// evaluated against [`Reg::RFLAGS`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned below.
    Ult,
    /// Unsigned below-or-equal.
    Ule,
    /// Unsigned above.
    Ugt,
    /// Unsigned above-or-equal.
    Uge,
}

impl Cond {
    /// All condition codes, for random generation.
    pub const ALL: [Cond; 10] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Le,
        Cond::Gt,
        Cond::Ge,
        Cond::Ult,
        Cond::Ule,
        Cond::Ugt,
        Cond::Uge,
    ];

    /// The mnemonic suffix (`jeq`, `jlt`, …, `cmov.eq`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
            Cond::Ult => "ult",
            Cond::Ule => "ule",
            Cond::Ugt => "ugt",
            Cond::Uge => "uge",
        }
    }

    /// Evaluates the condition against a packed flags value (see
    /// [`Flags`]).
    pub fn eval(self, flags: Flags) -> bool {
        match self {
            Cond::Eq => flags.zf,
            Cond::Ne => !flags.zf,
            Cond::Lt => flags.sf != flags.of,
            Cond::Le => flags.zf || (flags.sf != flags.of),
            Cond::Gt => !flags.zf && (flags.sf == flags.of),
            Cond::Ge => flags.sf == flags.of,
            Cond::Ult => flags.cf,
            Cond::Ule => flags.cf || flags.zf,
            Cond::Ugt => !flags.cf && !flags.zf,
            Cond::Uge => !flags.cf,
        }
    }
}

/// The x86-style condition flags packed into [`Reg::RFLAGS`].
///
/// # Examples
///
/// ```
/// use protean_isa::{Cond, Flags};
///
/// let f = Flags::from_sub(3, 5); // 3 - 5
/// assert!(Cond::Lt.eval(f));
/// assert!(Cond::Ult.eval(f)); // 3 < 5 unsigned too
/// assert_eq!(Flags::from_bits(f.to_bits()), f);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Flags {
    /// Zero flag.
    pub zf: bool,
    /// Sign flag.
    pub sf: bool,
    /// Carry flag (unsigned borrow for subtraction).
    pub cf: bool,
    /// Overflow flag (signed overflow for subtraction).
    pub of: bool,
}

impl Flags {
    /// Flags produced by computing `a - b` (the semantics of `cmp a, b`).
    pub fn from_sub(a: u64, b: u64) -> Flags {
        Flags::from_sub_width(a, b, Width::W64)
    }

    /// Flags produced by an `a - b` performed at `width`: the operands
    /// are truncated to the width lane first, and the borrow, sign, and
    /// overflow are taken at that lane's top bit (x86 `sub r32, r32`
    /// sets SF from bit 31, not bit 63).
    pub fn from_sub_width(a: u64, b: u64, width: Width) -> Flags {
        let mask = width.mask();
        let sign = 1u64 << (width.bits() - 1);
        let (am, bm) = (a & mask, b & mask);
        let res = am.wrapping_sub(bm) & mask;
        Flags {
            zf: res == 0,
            sf: res & sign != 0,
            cf: am < bm,
            of: ((am ^ bm) & (am ^ res)) & sign != 0,
        }
    }

    /// Flags produced by a logical/arithmetic result computed at `width`:
    /// ZF/SF are taken from the width-truncated lane (x86 `add r32, r32`
    /// reports ZF for a zero 32-bit result even if upstream math carried
    /// into bit 32, and SF from the lane's top bit).
    pub fn from_result_width(res: u64, width: Width) -> Flags {
        let res = res & width.mask();
        Flags {
            zf: res == 0,
            sf: res & (1u64 << (width.bits() - 1)) != 0,
            cf: false,
            of: false,
        }
    }

    /// Packs the flags into a register value.
    pub fn to_bits(self) -> u64 {
        (self.zf as u64) | (self.sf as u64) << 1 | (self.cf as u64) << 2 | (self.of as u64) << 3
    }

    /// Unpacks flags from a register value (ignores other bits).
    pub fn from_bits(bits: u64) -> Flags {
        Flags {
            zf: bits & 1 != 0,
            sf: bits & 2 != 0,
            cf: bits & 4 != 0,
            of: bits & 8 != 0,
        }
    }
}

/// Operand width for ALU-class operations.
///
/// `W32` zero-extends into the full register (x86 semantics — the source
/// of SPT's 32-bit untaint performance bug, paper §VII-B4c). `W8`/`W16`
/// merge into the low bits, preserving the upper bits, which is why
/// ProtISA handles sub-register updates conservatively (§IV-B1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Width {
    /// 1 byte (partial register write).
    W8,
    /// 2 bytes (partial register write).
    W16,
    /// 4 bytes (zero-extends into the full register).
    W32,
    /// 8 bytes (the default full width).
    #[default]
    W64,
}

impl Width {
    /// All widths, for random generation.
    pub const ALL: [Width; 4] = [Width::W8, Width::W16, Width::W32, Width::W64];

    /// Number of bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }

    /// Number of bits.
    pub fn bits(self) -> u32 {
        self.bytes() as u32 * 8
    }

    /// The mask x86 applies to a shift/rotate count at this operand
    /// width: counts are taken mod 64 for 64-bit operands and mod 32
    /// for everything narrower (SDM vol. 2, SHL/SHR/SAR/ROL/ROR).
    pub fn shift_count_mask(self) -> u64 {
        match self {
            Width::W64 => 63,
            _ => 31,
        }
    }

    /// Bitmask covering the width.
    pub fn mask(self) -> u64 {
        match self {
            Width::W8 => 0xff,
            Width::W16 => 0xffff,
            Width::W32 => 0xffff_ffff,
            Width::W64 => u64::MAX,
        }
    }

    /// Returns `true` for widths that only partially update the
    /// destination register (`W8`/`W16`).
    pub fn is_partial(self) -> bool {
        matches!(self, Width::W8 | Width::W16)
    }

    /// Applies this width's write semantics: merge `value` into `old`.
    ///
    /// `W64` replaces, `W32` zero-extends, `W8`/`W16` merge low bits.
    pub fn apply(self, old: u64, value: u64) -> u64 {
        match self {
            Width::W64 => value,
            Width::W32 => value & 0xffff_ffff,
            Width::W16 => (old & !0xffff) | (value & 0xffff),
            Width::W8 => (old & !0xff) | (value & 0xff),
        }
    }
}

/// A source operand: either a register or an immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate operand.
    Imm(u64),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Operand {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => {
                if *v > 0xffff {
                    write!(f, "{:#x}", v)
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// An x86-style memory operand: `[base + index*scale + disp]`.
///
/// The CT observer mode exposes the *individual* address registers, not
/// just their sum (AMuLeT\* enhancement, paper §VII-B1b).
///
/// # Examples
///
/// ```
/// use protean_isa::{Mem, Reg};
///
/// let m = Mem::base(Reg::R0).with_index(Reg::R1, 8).with_disp(0x40);
/// assert_eq!(m.to_string(), "[r0 + r1*8 + 0x40]");
/// assert_eq!(m.regs().len(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Mem {
    /// Base register.
    pub base: Option<Reg>,
    /// Index register and scale (1, 2, 4, or 8).
    pub index: Option<(Reg, u8)>,
    /// Signed displacement.
    pub disp: i64,
}

impl Mem {
    /// A memory operand with only a base register.
    pub fn base(base: Reg) -> Mem {
        Mem {
            base: Some(base),
            ..Mem::default()
        }
    }

    /// A memory operand with only an absolute displacement.
    pub fn abs(addr: u64) -> Mem {
        Mem {
            disp: addr as i64,
            ..Mem::default()
        }
    }

    /// Adds an index register with a scale factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4, or 8.
    pub fn with_index(mut self, index: Reg, scale: u8) -> Mem {
        assert!(
            matches!(scale, 1 | 2 | 4 | 8),
            "scale must be 1, 2, 4, or 8"
        );
        self.index = Some((index, scale));
        self
    }

    /// Adds a displacement.
    pub fn with_disp(mut self, disp: i64) -> Mem {
        self.disp = disp;
        self
    }

    /// The set of address registers (these are the *sensitive* operands of
    /// load/store transmitters, paper §II-B1).
    pub fn regs(&self) -> RegSet {
        let mut set = RegSet::new();
        if let Some(b) = self.base {
            set.insert(b);
        }
        if let Some((i, _)) = self.index {
            set.insert(i);
        }
        set
    }

    /// Computes the effective address given a register lookup function.
    pub fn effective_address(&self, read: impl Fn(Reg) -> u64) -> u64 {
        let mut addr = self.disp as u64;
        if let Some(b) = self.base {
            addr = addr.wrapping_add(read(b));
        }
        if let Some((i, s)) = self.index {
            addr = addr.wrapping_add(read(i).wrapping_mul(s as u64));
        }
        addr
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            first = false;
        }
        if let Some((i, s)) = self.index {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{i}*{s}")?;
            first = false;
        }
        if self.disp != 0 || first {
            if first {
                write!(f, "{:#x}", self.disp)?;
            } else if self.disp < 0 {
                write!(f, " - {:#x}", -self.disp)?;
            } else {
                write!(f, " + {:#x}", self.disp)?;
            }
        }
        write!(f, "]")
    }
}

/// A micro-op operation.
///
/// Branch targets are instruction indices into the owning
/// [`Program`](crate::Program) (resolved from labels by the builder or
/// assembler).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variant fields are self-describing (dst/src/imm/...)
pub enum Op {
    /// `dst = imm` (does not write flags).
    MovImm { dst: Reg, imm: u64, width: Width },
    /// `dst = src` (does not write flags). An *unprefixed* identity move
    /// (`mov r, r`) is ProtISA's register-unprotect idiom (§IV-B3).
    Mov { dst: Reg, src: Reg, width: Width },
    /// `dst = if cond { src } else { dst }` — reads `RFLAGS`, `src`, and
    /// `dst`; does not write flags. The constant-time selection idiom.
    CMov { cond: Cond, dst: Reg, src: Reg },
    /// `dst = src1 <op> src2`; writes `RFLAGS`.
    Alu {
        op: AluOp,
        dst: Reg,
        src1: Reg,
        src2: Operand,
        width: Width,
    },
    /// Compare: writes `RFLAGS` only.
    Cmp { src1: Reg, src2: Operand },
    /// `dst = src1 / src2` — a **transmitter**: the gem5 divider leaks a
    /// function of both operands via early-exit latency and conditional
    /// faulting (paper §VII-B4b). Division by zero raises a fault.
    Div { dst: Reg, src1: Reg, src2: Reg },
    /// `dst = zext(mem[ea])` — narrow loads zero-extend into the full
    /// register (there is no partial-register load).
    Load { dst: Reg, addr: Mem, size: Width },
    /// `mem[ea] = src` (low `size` bytes).
    Store {
        src: Operand,
        addr: Mem,
        size: Width,
    },
    /// Direct unconditional jump (target is static: not a transmitter).
    Jmp { target: u32 },
    /// Conditional branch: reads `RFLAGS`; a **transmitter** of its
    /// condition.
    Jcc { cond: Cond, target: u32 },
    /// Indirect jump through a register: a **transmitter** of its target.
    JmpReg { src: Reg },
    /// Call: `rsp -= 8; mem[rsp] = return_pc; goto target`. A store-µop
    /// plus a direct branch.
    Call { target: u32 },
    /// Return: `target = mem[rsp]; rsp += 8; goto target`. A load-µop plus
    /// an indirect branch — a transmitter of both its address (`rsp`) and
    /// its loaded target.
    Ret,
    /// No operation.
    Nop,
    /// Stop the machine (architectural end of the program).
    Halt,
}

/// An instruction: an operation plus the ProtISA `PROT` prefix bit.
///
/// `PROT`-prefixed instructions add their output registers to the
/// architectural ProtSet; unprefixed instructions remove their output
/// registers and any read memory bytes from it (paper §IV-B).
///
/// # Examples
///
/// ```
/// use protean_isa::{Inst, Op, Reg, Width};
///
/// let i = Inst::prot(Op::Mov { dst: Reg::R0, src: Reg::R1, width: Width::W64 });
/// assert!(i.prot);
/// assert!(i.dst_regs().contains(Reg::R0));
/// assert!(i.src_regs().contains(Reg::R1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// The `PROT` prefix bit.
    pub prot: bool,
}

impl Inst {
    /// An unprefixed instruction.
    pub fn new(op: Op) -> Inst {
        Inst { op, prot: false }
    }

    /// A `PROT`-prefixed instruction.
    pub fn prot(op: Op) -> Inst {
        Inst { op, prot: true }
    }

    /// Output registers, including implicit ones (`RFLAGS` for ALU ops and
    /// compares, `RSP` for call/ret).
    pub fn dst_regs(&self) -> RegSet {
        let mut set = RegSet::new();
        match self.op {
            Op::MovImm { dst, .. } | Op::Mov { dst, .. } | Op::CMov { dst, .. } => {
                set.insert(dst);
            }
            Op::Alu { dst, .. } => {
                set.insert(dst);
                set.insert(Reg::RFLAGS);
            }
            Op::Cmp { .. } => {
                set.insert(Reg::RFLAGS);
            }
            Op::Div { dst, .. } => {
                set.insert(dst);
            }
            Op::Load { dst, .. } => {
                set.insert(dst);
            }
            Op::Call { .. } | Op::Ret => {
                set.insert(Reg::RSP);
            }
            Op::Store { .. }
            | Op::Jmp { .. }
            | Op::Jcc { .. }
            | Op::JmpReg { .. }
            | Op::Nop
            | Op::Halt => {}
        }
        set
    }

    /// The primary explicit destination register, if any (excludes the
    /// implicit `RFLAGS`/`RSP` outputs).
    pub fn explicit_dst(&self) -> Option<Reg> {
        match self.op {
            Op::MovImm { dst, .. }
            | Op::Mov { dst, .. }
            | Op::CMov { dst, .. }
            | Op::Alu { dst, .. }
            | Op::Div { dst, .. }
            | Op::Load { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Checks ProtISA's structural legality rule: `RFLAGS` is written
    /// implicitly — by ALU ops and compares — and never named as an
    /// explicit destination. This is the single definition of
    /// instruction legality; [`decode_program`](crate::decode_program)
    /// and [`assemble`](crate::assemble) both reject instructions that
    /// fail it, so no legal program stream contains one.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated rule.
    ///
    /// # Examples
    ///
    /// ```
    /// use protean_isa::{Cond, Inst, Op, Reg};
    ///
    /// let bad = Inst::new(Op::CMov { cond: Cond::Eq, dst: Reg::RFLAGS, src: Reg::R0 });
    /// assert!(bad.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.explicit_dst() == Some(Reg::RFLAGS) {
            return Err("rflags cannot be an explicit destination");
        }
        Ok(())
    }

    /// Input registers, including implicit ones (`RFLAGS` for conditional
    /// ops, `RSP` for call/ret, the old destination for partial-width and
    /// conditional writes).
    pub fn src_regs(&self) -> RegSet {
        let mut set = RegSet::new();
        match self.op {
            Op::MovImm { dst, width, .. } => {
                if width.is_partial() {
                    set.insert(dst);
                }
            }
            Op::Mov { dst, src, width } => {
                set.insert(src);
                if width.is_partial() {
                    set.insert(dst);
                }
            }
            Op::CMov { dst, src, .. } => {
                set.insert(src);
                set.insert(dst);
                set.insert(Reg::RFLAGS);
            }
            Op::Alu {
                dst,
                src1,
                src2,
                width,
                ..
            } => {
                set.insert(src1);
                if let Operand::Reg(r) = src2 {
                    set.insert(r);
                }
                if width.is_partial() {
                    set.insert(dst);
                }
            }
            Op::Cmp { src1, src2 } => {
                set.insert(src1);
                if let Operand::Reg(r) = src2 {
                    set.insert(r);
                }
            }
            Op::Div { src1, src2, .. } => {
                set.insert(src1);
                set.insert(src2);
            }
            Op::Load { addr, .. } => {
                set = set.union(addr.regs());
            }
            Op::Store { src, addr, .. } => {
                if let Operand::Reg(r) = src {
                    set.insert(r);
                }
                set = set.union(addr.regs());
            }
            Op::Jcc { .. } => {
                set.insert(Reg::RFLAGS);
            }
            Op::JmpReg { src } => {
                set.insert(src);
            }
            Op::Call { .. } | Op::Ret => {
                set.insert(Reg::RSP);
            }
            Op::Jmp { .. } | Op::Nop | Op::Halt => {}
        }
        set
    }

    /// Returns `true` if the instruction performs a memory read
    /// (loads and `ret`).
    pub fn is_load(&self) -> bool {
        matches!(self.op, Op::Load { .. } | Op::Ret)
    }

    /// Returns `true` if the instruction performs a memory write
    /// (stores and `call`).
    pub fn is_store(&self) -> bool {
        matches!(self.op, Op::Store { .. } | Op::Call { .. })
    }

    /// Returns `true` for any memory access.
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Returns `true` for control-flow instructions.
    pub fn is_branch(&self) -> bool {
        matches!(
            self.op,
            Op::Jmp { .. } | Op::Jcc { .. } | Op::JmpReg { .. } | Op::Call { .. } | Op::Ret
        )
    }

    /// Returns `true` for conditional branches.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self.op, Op::Jcc { .. })
    }

    /// Returns `true` for indirect branches (`jmpreg`, `ret`).
    pub fn is_indirect_branch(&self) -> bool {
        matches!(self.op, Op::JmpReg { .. } | Op::Ret)
    }

    /// Returns `true` for the division µop.
    pub fn is_div(&self) -> bool {
        matches!(self.op, Op::Div { .. })
    }

    /// Registers that form the memory address, for memory µops
    /// (the sensitive operands of load/store transmitters).
    pub fn address_regs(&self) -> RegSet {
        match self.op {
            Op::Load { addr, .. } | Op::Store { addr, .. } => addr.regs(),
            Op::Call { .. } | Op::Ret => RegSet::from_regs([Reg::RSP]),
            _ => RegSet::new(),
        }
    }

    /// Memory access size in bytes, for memory µops.
    pub fn mem_size(&self) -> Option<u64> {
        match self.op {
            Op::Load { size, .. } | Op::Store { size, .. } => Some(size.bytes()),
            Op::Call { .. } | Op::Ret => Some(8),
            _ => None,
        }
    }

    /// The width of the register write, if any.
    ///
    /// Loads always report `W64`: narrow loads zero-extend into the full
    /// register (`movzx` / wasm `i32.load8_u` semantics) — `size` is only
    /// the *memory access* width.
    pub fn write_width(&self) -> Option<Width> {
        match self.op {
            Op::MovImm { width, .. } | Op::Mov { width, .. } | Op::Alu { width, .. } => Some(width),
            Op::Load { .. } | Op::CMov { .. } | Op::Div { .. } => Some(Width::W64),
            Op::Call { .. } | Op::Ret => Some(Width::W64),
            _ => None,
        }
    }

    /// Returns `true` if this instruction can fall through to the next.
    pub fn falls_through(&self) -> bool {
        !matches!(
            self.op,
            Op::Jmp { .. } | Op::JmpReg { .. } | Op::Ret | Op::Halt
        )
    }

    /// The static branch target, if any (`jmp`, `jcc`, `call`).
    pub fn static_target(&self) -> Option<u32> {
        match self.op {
            Op::Jmp { target } | Op::Jcc { target, .. } | Op::Call { target } => Some(target),
            _ => None,
        }
    }

    /// Rewrites the static branch target (used by program transforms that
    /// insert instructions).
    pub fn set_static_target(&mut self, target: u32) {
        match &mut self.op {
            Op::Jmp { target: t } | Op::Jcc { target: t, .. } | Op::Call { target: t } => {
                *t = target;
            }
            _ => panic!("instruction has no static target: {self}"),
        }
    }

    /// Returns `true` for identity moves (`mov r, r` at full width) —
    /// ProtISA's register-unprotect idiom when unprefixed (§IV-B3).
    pub fn is_identity_move(&self) -> bool {
        matches!(self.op, Op::Mov { dst, src, width: Width::W64 } if dst == src)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.prot {
            write!(f, "prot ")?;
        }
        match self.op {
            Op::MovImm { dst, imm, width } => {
                write!(f, "mov{} {dst}, {}", width_suffix(width), Operand::Imm(imm))
            }
            Op::Mov { dst, src, width } => {
                write!(f, "mov{} {dst}, {src}", width_suffix(width))
            }
            Op::CMov { cond, dst, src } => write!(f, "cmov.{} {dst}, {src}", cond.mnemonic()),
            Op::Alu {
                op,
                dst,
                src1,
                src2,
                width,
            } => write!(
                f,
                "{}{} {dst}, {src1}, {src2}",
                op.mnemonic(),
                width_suffix(width)
            ),
            Op::Cmp { src1, src2 } => write!(f, "cmp {src1}, {src2}"),
            Op::Div { dst, src1, src2 } => write!(f, "div {dst}, {src1}, {src2}"),
            Op::Load { dst, addr, size } => {
                write!(f, "load{} {dst}, {addr}", width_suffix(size))
            }
            Op::Store { src, addr, size } => {
                write!(f, "store{} {addr}, {src}", width_suffix(size))
            }
            Op::Jmp { target } => write!(f, "jmp @{target}"),
            Op::Jcc { cond, target } => write!(f, "j{} @{target}", cond.mnemonic()),
            Op::JmpReg { src } => write!(f, "jmpreg {src}"),
            Op::Call { target } => write!(f, "call @{target}"),
            Op::Ret => write!(f, "ret"),
            Op::Nop => write!(f, "nop"),
            Op::Halt => write!(f, "halt"),
        }
    }
}

fn width_suffix(width: Width) -> &'static str {
    match width {
        Width::W8 => ".b",
        Width::W16 => ".h",
        Width::W32 => ".w",
        Width::W64 => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(dst: Reg, src1: Reg, src2: Operand) -> Inst {
        Inst::new(Op::Alu {
            op: AluOp::Add,
            dst,
            src1,
            src2,
            width: Width::W64,
        })
    }

    #[test]
    fn alu_writes_flags() {
        let i = alu(Reg::R0, Reg::R1, Operand::Imm(4));
        assert!(i.dst_regs().contains(Reg::R0));
        assert!(i.dst_regs().contains(Reg::RFLAGS));
        assert!(i.src_regs().contains(Reg::R1));
        assert!(!i.src_regs().contains(Reg::R0));
    }

    #[test]
    fn partial_width_reads_old_dst() {
        let i = Inst::new(Op::Mov {
            dst: Reg::R0,
            src: Reg::R1,
            width: Width::W8,
        });
        assert!(i.src_regs().contains(Reg::R0));
        let full = Inst::new(Op::Mov {
            dst: Reg::R0,
            src: Reg::R1,
            width: Width::W64,
        });
        assert!(!full.src_regs().contains(Reg::R0));
    }

    #[test]
    fn cmov_reads_flags_and_dst() {
        let i = Inst::new(Op::CMov {
            cond: Cond::Eq,
            dst: Reg::R2,
            src: Reg::R3,
        });
        let srcs = i.src_regs();
        assert!(srcs.contains(Reg::RFLAGS));
        assert!(srcs.contains(Reg::R2));
        assert!(srcs.contains(Reg::R3));
    }

    #[test]
    fn call_ret_memory_classification() {
        let call = Inst::new(Op::Call { target: 7 });
        assert!(call.is_store());
        assert!(call.is_branch());
        assert!(call.dst_regs().contains(Reg::RSP));
        assert_eq!(call.mem_size(), Some(8));

        let ret = Inst::new(Op::Ret);
        assert!(ret.is_load());
        assert!(ret.is_indirect_branch());
        assert!(ret.address_regs().contains(Reg::RSP));
    }

    #[test]
    fn width_apply_semantics() {
        assert_eq!(Width::W64.apply(0xdead, 0x1234), 0x1234);
        assert_eq!(Width::W32.apply(0xffff_ffff_ffff_ffff, 0x1), 0x1);
        assert_eq!(
            Width::W16.apply(0xffff_ffff_ffff_ffff, 0x1),
            0xffff_ffff_ffff_0001
        );
        assert_eq!(Width::W8.apply(0xaabb, 0xcc), 0xaacc);
    }

    #[test]
    fn flags_sub_semantics() {
        let f = Flags::from_sub(5, 5);
        assert!(f.zf);
        assert!(Cond::Eq.eval(f));
        assert!(Cond::Ge.eval(f));
        assert!(Cond::Ule.eval(f));

        let f = Flags::from_sub(0, 1);
        assert!(Cond::Lt.eval(f));
        assert!(Cond::Ult.eval(f));
    }

    #[test]
    fn flags_signed_unsigned_disagree() {
        // -1 (as u64::MAX) vs 1: signed -1 < 1, unsigned MAX > 1.
        let f = Flags::from_sub(u64::MAX, 1);
        assert!(Cond::Lt.eval(f));
        assert!(Cond::Ugt.eval(f));
    }

    #[test]
    fn flags_roundtrip_bits() {
        for bits in 0..16u64 {
            let f = Flags::from_bits(bits);
            assert_eq!(f.to_bits(), bits);
        }
    }

    #[test]
    fn effective_address() {
        let m = Mem::base(Reg::R0).with_index(Reg::R1, 4).with_disp(-8);
        let ea = m.effective_address(|r| match r {
            Reg::R0 => 100,
            Reg::R1 => 3,
            _ => 0,
        });
        assert_eq!(ea, 100 + 12 - 8);
    }

    #[test]
    fn identity_move_detection() {
        let id = Inst::new(Op::Mov {
            dst: Reg::R4,
            src: Reg::R4,
            width: Width::W64,
        });
        assert!(id.is_identity_move());
        let not_id = Inst::new(Op::Mov {
            dst: Reg::R4,
            src: Reg::R5,
            width: Width::W64,
        });
        assert!(!not_id.is_identity_move());
    }

    #[test]
    fn display_formats() {
        let i = Inst::prot(Op::Load {
            dst: Reg::R2,
            addr: Mem::base(Reg::R0).with_index(Reg::R1, 8),
            size: Width::W64,
        });
        assert_eq!(i.to_string(), "prot load r2, [r0 + r1*8]");
        let j = Inst::new(Op::Jcc {
            cond: Cond::Lt,
            target: 12,
        });
        assert_eq!(j.to_string(), "jlt @12");
    }

    #[test]
    fn retarget() {
        let mut i = Inst::new(Op::Jmp { target: 3 });
        i.set_static_target(9);
        assert_eq!(i.static_target(), Some(9));
    }
}
