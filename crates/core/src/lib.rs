//! # protean-core
//!
//! The primary contribution of *"Protean: A Programmable Spectre
//! Defense"* (HPCA 2026): the hardware protection mechanisms that
//! enforce software-programmed ProtISA protection sets.
//!
//! * [`ProtDelayPolicy`] — **ProtDelay** (§VI-B1): AccessDelay extended
//!   to delay access transmitters and relaxed to only delay dependents
//!   of *unprefixed* accesses. Lower hardware complexity, good
//!   performance.
//! * [`ProtTrackPolicy`] — **ProtTrack** (§VI-B2): AccessTrack extended
//!   the same way, plus a 1024-entry [`AccessPredictor`] that
//!   predictively untaints loads expected to read unprotected memory,
//!   falling back to ProtDelay on false negatives and on tainted store
//!   forwarding. Best performance, more hardware.
//! * [`area`] — the §IV-C2a protection-bit storage/area cost model
//!   (6 KiB / 0.0418 mm² per P-core, ≈1.4 % of the L1D).
//!
//! Both policies set
//! [`uses_protisa`](protean_sim::DefensePolicy::uses_protisa), which
//! turns on the ProtISA tag plumbing in the `protean-sim` pipeline:
//! rename-map protection bits, physical-register protection tags, LSQ
//! protection bits, and per-byte L1D protection bits (with
//! evict-to-protected semantics).
//!
//! # Example
//!
//! A `PROT`-prefixed load keeps its (secret) result from transiently
//! reaching a transmitter, while unprefixed public-data code runs at
//! full speed:
//!
//! ```
//! use protean_arch::ArchState;
//! use protean_core::ProtTrackPolicy;
//! use protean_isa::assemble;
//! use protean_sim::{Core, CoreConfig, SimExit};
//!
//! let prog = assemble(
//!     "prot load r1, [r0 + 0x1000]\nload r2, [r1 + 0x2000]\nhalt\n",
//! ).unwrap();
//! let core = Core::new(&prog, CoreConfig::test_tiny(),
//!                      Box::new(ProtTrackPolicy::new()), &ArchState::new());
//! assert_eq!(core.run(1_000, 100_000).exit, SimExit::Halted);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod area;
mod delay;
mod predictor;
mod track;

pub use delay::ProtDelayPolicy;
pub use predictor::AccessPredictor;
pub use track::ProtTrackPolicy;
