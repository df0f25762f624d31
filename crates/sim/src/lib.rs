//! # protean-sim
//!
//! A cycle-level, speculative, out-of-order CPU simulator — the gem5-O3
//! substrate of *"Protean: A Programmable Spectre Defense"* (HPCA 2026),
//! rebuilt in Rust.
//!
//! The crate provides:
//!
//! * [`Core`] — the out-of-order pipeline (fetch/rename/issue/execute/
//!   commit, ROB, LQ/SQ with forwarding and memory-order speculation,
//!   TAGE/BTB/RSB prediction, blocking divider, full squash recovery);
//! * [`Cache`] — set-associative caches with the per-byte L1D metadata
//!   bits that back ProtISA's protection tags (§IV-C2a) and SPT's shadow
//!   bits;
//! * [`CoreConfig`] — P-core / E-core presets following the paper's
//!   Tab. III Alder Lake configuration;
//! * [`DefensePolicy`] — the hook interface every hardware defense
//!   implements ([`UnsafePolicy`] is the unprotected baseline);
//! * [`SpeculationModel`] — `AtCommit` (comprehensive) and `Control`
//!   (§II-B2);
//! * [`Multicore`] — a simple invalidation-coherent multi-core wrapper
//!   for the PARSEC-style multi-threaded workloads.
//!
//! # Example
//!
//! ```
//! use protean_arch::ArchState;
//! use protean_isa::assemble;
//! use protean_sim::{Core, CoreConfig, SimExit, UnsafePolicy};
//!
//! let prog = assemble("mov r0, 7\nadd r1, r0, 35\nhalt\n").unwrap();
//! let core = Core::new(&prog, CoreConfig::test_tiny(), Box::new(UnsafePolicy), &ArchState::new());
//! let result = core.run(1_000, 100_000);
//! assert_eq!(result.exit, SimExit::Halted);
//! assert_eq!(result.final_regs[protean_isa::Reg::R1.index()], 42);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bpred;
mod cache;
mod config;
mod defense;
pub mod json;
mod multicore;
mod pipeline;
pub mod profile;
mod sched;
mod stats;
pub mod trace;

pub use bpred::{Btb, Rsb, TagePredictor, HIST_LENGTHS};
pub use cache::{AccessResult, Cache};
pub use config::{CacheConfig, CoreConfig, MemProtTracking, SpeculationModel};
pub use defense::{
    propagate_tags, sensitive_max_yrot, sensitive_phys, sensitive_root_tainted,
    sensitive_value_tainted, BlockPoint, DefensePolicy, Gate, RegTags, Seq, SpecFrontier,
    SquashKind, UnsafePolicy, NO_ROOT,
};
pub use multicore::{Multicore, MulticoreResult, Thread};
pub use pipeline::{Core, DstInfo, DynInst, MemState, SimExit, SimResult, UopStatus};
pub use stats::Stats;
pub use trace::{AuditRecord, BlockedAt, FetchGroupEvent, SquashEvent, Trace, Tracer, UopTrace};
