//! # protean-isa
//!
//! A micro-op-granular, x86-flavoured instruction set with the **ProtISA**
//! `PROT` prefix from *"Protean: A Programmable Spectre Defense"* (HPCA
//! 2026, §IV).
//!
//! The crate provides:
//!
//! * [`Reg`]/[`RegSet`] — the architectural register file (14 GPRs,
//!   `RSP`, `RBP`, `RFLAGS`);
//! * [`Inst`]/[`Op`] — instructions, each one micro-op, with a
//!   [`prot`](Inst::prot) prefix bit that programs the architectural
//!   protection set (*ProtSet*);
//! * [`Program`]/[`Function`]/[`SecurityClass`] — programs with
//!   class-labelled functions, the unit at which ProtCC chooses a pass;
//! * [`TransmitterSet`] — the parametric set of transmitter kinds
//!   (loads, stores, branches, division µops) from the paper's threat
//!   model (§II-B1);
//! * [`DecodedProgram`]/[`DecodedInst`] — the pre-decoded µop table
//!   built once per program by the simulator's decode-once front end
//!   (and shared with the emulator oracle);
//! * [`ProgramBuilder`] and [`assemble`] — programmatic and textual
//!   front-ends;
//! * [`encode_program`]/[`code_size`] — a binary encoding used for the
//!   paper's code-size-overhead metric (§IX-A2).
//!
//! # Example
//!
//! Build the paper's Fig. 3 example function and inspect its ProtISA
//! instrumentation:
//!
//! ```
//! use protean_isa::{Cond, Mem, ProgramBuilder, Reg};
//!
//! // int foo(int *p) { x = *p; y = 0; if (x >= 0) y = A[x]; return y; }
//! let (p, x, y) = (Reg::R0, Reg::R1, Reg::R2);
//! let mut b = ProgramBuilder::new();
//! let skip = b.label(".skip");
//! b.identity_move(p)                 // unprotect Rp (ProtCC-CT, line 1)
//!     .prot().load(x, Mem::base(p))  // Rx may be secret
//!     .mov_imm(y, 0)
//!     .prot().cmp(x, 0)              // rflags may be secret
//!     .jcc(Cond::Lt, skip)
//!     .identity_move(x)              // Rx now bound-to-leak
//!     .prot().load(y, Mem::base(x).with_disp(0x1000))
//!     .bind(skip)
//!     .halt();
//! let prog = b.build()?;
//! assert_eq!(prog.prot_count(), 3);
//! assert_eq!(prog.identity_move_count(), 2);
//! # Ok::<(), protean_isa::UnboundLabelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod asm;
mod builder;
mod decoded;
mod encode;
mod inst;
mod program;
mod reg;
mod semantics;
mod util;

pub use asm::{assemble, AsmError};
pub use builder::{Label, ProgramBuilder, UnboundLabelError};
pub use decoded::{CtrlFlow, DecodedInst, DecodedProgram};
pub use encode::{code_size, encode_program};
pub use inst::{AluOp, Cond, Flags, Inst, Mem, Op, Operand, Width};
pub use program::{Function, Program, ProgramError, Reloc, SecurityClass, TransmitterSet};
pub use reg::{Reg, RegSet};
pub use semantics::{
    alu_eval, div_eval, div_latency, div_leakage, DivOutcome, DIV_BASE_LATENCY, DIV_FAULT_LATENCY,
};
pub use util::InlineVec;
