//! # protean-cc
//!
//! **ProtCC**: the compiler passes that automatically, programmer-
//! transparently program ProtISA protection sets, from *"Protean: A
//! Programmable Spectre Defense"* (HPCA 2026, §V).
//!
//! One pass per vulnerable-code class (Fig. 2):
//!
//! * [`Pass::Arch`] — no-op: unmodified binaries already program the
//!   non-secret-accessing ProtSet;
//! * [`Pass::Cts`] — Serberus-style secrecy-typing inference for static
//!   constant-time code;
//! * [`Pass::Ct`] — past-leaked / bound-to-leak register dataflow for
//!   constant-time code, with identity-move declassification;
//! * [`Pass::Unr`] — never-secret residue (stack pointer, constants) for
//!   unrestricted code;
//! * [`Pass::Rand`] — random prefixes, for UNPROT-SEQ fuzzing (§VII-B4).
//!
//! [`compile`] drives multi-class programs: each class-labelled function
//! is instrumented by its own pass — how Protean targets nginx
//! (§VIII-B3). [`public_typing`] hands the CTS pass's typing to the
//! fuzzer's CTS-SEQ contract, [`compile_with_hints`] applies the §V-C
//! [`PublicHints`] annotations, and the [`ProgramEditor`] inserts
//! identity moves while retargeting branches.
//!
//! Internally, the CTS, CT and UNR analyses are dataflow problems over
//! one instruction-level control-flow graph per function, all solved by
//! the same round-robin fixpoint solver: past-leaked, bound-to-leak and
//! never-secret registers (intersection meets) and CTS's reaching
//! definitions (union meet).
//!
//! # Example
//!
//! The paper's Fig. 3 function under ProtCC-CT:
//!
//! ```
//! use protean_cc::{compile_with, Pass};
//! use protean_isa::assemble;
//!
//! let prog = assemble(
//!     "load r1, [r0]\nmov r2, 0\ncmp r1, 0\njlt @5\nload r2, [r1*4 + 0x1000]\nret\n",
//! ).unwrap();
//! let out = compile_with(&prog, Pass::Ct);
//! assert_eq!(out.stats.prot_prefixes, 3);
//! assert_eq!(out.stats.identity_moves, 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod cfg;
mod cts;
mod edit;
mod hints;
mod passes;

pub use cts::public_typing;
pub use edit::ProgramEditor;
pub use hints::{compile_with_hints, PublicHints};
pub use passes::{compile, compile_with, Compiled, Pass, PassStats};
