//! # protean-amulet
//!
//! An AMuLeT\*-style security-contract fuzzer for hardware Spectre
//! defenses, from *"Protean: A Programmable Spectre Defense"* (HPCA
//! 2026, §VII-B).
//!
//! The fuzzer validates a [`DefensePolicy`](protean_sim::DefensePolicy)
//! against a hardware-software security contract: it generates random
//! (gadget-biased) test programs ([`generate`]), instruments them with a
//! ProtCC pass, searches for *contract-equivalent* input pairs (equal
//! observer-mode traces under sequential execution), runs both on the
//! defended out-of-order core, and reports a violation whenever the
//! adversary — cache/TLB tags or per-stage timing — can distinguish
//! them. A committed-fingerprint filter classifies sequential-leakage
//! artifacts as false positives (§VII-B1e).
//!
//! The paper's Tab. II campaigns are reproduced by
//! `cargo run -p protean-bench --bin reproduce` (its `table_ii` report).
//!
//! # Example
//!
//! The unsafe core violates ARCH-SEQ almost immediately; Protean-Track
//! does not:
//!
//! ```no_run
//! use protean_amulet::{fuzz, Adversary, ContractKind, FuzzConfig};
//! use protean_cc::Pass;
//! use protean_core::ProtTrackPolicy;
//! use protean_sim::UnsafePolicy;
//!
//! let cfg = FuzzConfig::quick(Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb);
//! let unsafe_report = fuzz(&cfg, &|| Box::new(UnsafePolicy));
//! let protean_report = fuzz(&cfg, &|| Box::new(ProtTrackPolicy::new()));
//! assert!(unsafe_report.violations > 0);
//! assert_eq!(protean_report.violations, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod campaign;
mod fuzzer;
mod generator;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, SnapshotError, TriageBucket};
pub use fuzzer::{fuzz, Adversary, ContractKind, FuzzConfig, Report, Violation};
pub use generator::{
    generate, generate_recorded, generate_with_template, init_cold_chain, GadgetTemplate,
    GenConfig, GeneratedProgram, COLD_BASE, PUBLIC_BASE, PUBLIC_SIZE, SECRET_BASE, SECRET_SIZE,
    STACK_TOP,
};
