//! # protean-arch
//!
//! The *architectural* half of the hardware-software security contracts
//! from *"Protean: A Programmable Spectre Defense"* (HPCA 2026, §II-C):
//!
//! * [`Emulator`] — a sequential (SEQ execution mode) emulator producing
//!   one [`ExecRecord`] per committed instruction;
//! * [`ProtState`] — the precise, architectural ProtISA ProtSet (the
//!   reference model against which the hardware's conservative tagging is
//!   validated);
//! * [`ObserverMode`] — the ARCH / CT / CTS / UNPROT observer modes,
//!   projecting executions onto contract traces ([`Obs`] sequences).
//!
//! # Example
//!
//! Two runs of constant-time code with different secrets produce equal CT
//! traces — the definition of being CT-contract-equivalent:
//!
//! ```
//! use protean_arch::{ArchState, Emulator, ObserverMode};
//! use protean_isa::{assemble, Reg};
//!
//! let prog = assemble("xor r1, r0, r2\nstore [rsp + 8], r1\nhalt\n").unwrap();
//! let trace = |secret: u64| {
//!     let mut state = ArchState::new();
//!     state.set_reg(Reg::R0, secret);
//!     let mut emu = Emulator::new(&prog, state);
//!     let (_, records) = emu.run(100);
//!     ObserverMode::Ct.trace(&records)
//! };
//! assert_eq!(trace(1), trace(2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod emulator;
mod mem;
mod observer;
mod prot;
mod threaded;

pub use emulator::{ArchState, BranchInfo, Emulator, ExecRecord, ExitStatus, MemAccess};
pub use mem::Memory;
pub use observer::{Obs, ObserverMode, PublicTyping};
pub use prot::ProtState;
pub use threaded::{Ctrl, OracleMode, ThreadedOp, ThreadedProgram};
