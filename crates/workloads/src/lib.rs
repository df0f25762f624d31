//! # protean-workloads
//!
//! Synthetic benchmark suites standing in for the workloads of
//! *"Protean: A Programmable Spectre Defense"* (HPCA 2026, §VIII-B).
//!
//! SPEC CPU2017, PARSEC, the Wasm-compiled SPEC2006 subset, the
//! HACL\*/libsodium/BearSSL/OpenSSL crypto kernels, and nginx cannot be
//! vendored, so each suite here is a set of kernels engineered to
//! preserve the *behaviour that drives the paper's results* (see
//! `DESIGN.md` §6):
//!
//! * [`spec2017`] — general-purpose mixes: pointer chasing (STT's
//!   load-load serialization, §IX-B1), branchy search, streaming
//!   arithmetic, table lookups;
//! * [`parsec`] — multi-threaded data-parallel kernels, including a
//!   `blackscholes`-like kernel dominated by fixed-offset stack accesses
//!   (the §IX-A1 SPT-SB pathology);
//! * [`arch_wasm`] — sandboxed kernels with masked, bounds-checked
//!   memory accesses (dense load→load dependence);
//! * [`cts_crypto`] / [`ct_crypto`] — genuinely constant-time ARX /
//!   bitsliced / cmov kernels over secret state;
//! * [`unr_crypto`] — *non*-constant-time OpenSSL-style kernels
//!   (square-and-multiply with key-bit branches, secret-indexed tables);
//! * [`nginx`] — the multi-class web server of Fig. 1: an ARCH request
//!   loop invoking ARCH/CTS/CT/UNR "OpenSSL" functions.
//!
//! Every workload is deterministic, bounded, and validated; the
//! `protean-bench` crate compiles them with the appropriate ProtCC pass
//! and regenerates the paper's tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod crypto;
mod nginx;
mod parsec;
mod spec;
mod wasm;

pub use nginx::nginx;

use protean_arch::ArchState;
use protean_isa::{Cond, Mem, Program, ProgramBuilder, Reg, SecurityClass};

/// Which paper suite a workload belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// SPEC CPU2017-like single-thread general-purpose kernels.
    Spec2017,
    /// PARSEC-like multi-threaded kernels.
    Parsec,
    /// WebAssembly-compiled SPEC2006-like sandboxed kernels.
    ArchWasm,
    /// Static constant-time crypto kernels.
    CtsCrypto,
    /// Constant-time crypto kernels.
    CtCrypto,
    /// Non-constant-time (unrestricted) crypto kernels.
    UnrCrypto,
    /// The multi-class nginx model.
    Nginx,
}

/// A runnable benchmark: one program+state per hardware thread.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (paper Tab. V / Fig. 6 row).
    pub name: String,
    /// The suite it belongs to.
    pub suite: Suite,
    /// The class its ProtCC binary is compiled as (multi-class programs
    /// carry per-function labels and use [`SecurityClass::Unr`] here as
    /// the outer bound).
    pub class: SecurityClass,
    /// One `(program, initial state)` pair per thread (length 1 for
    /// single-thread workloads).
    pub threads: Vec<(Program, ArchState)>,
    /// Committed-µop budget per thread (safety limit; workloads halt on
    /// their own below this).
    pub max_insts: u64,
}

impl Workload {
    /// Validates every thread's program, runs each on the sequential
    /// emulator to halt, and budgets `max_insts` from the longest run
    /// (so the simulator's limits can never truncate a run). A thread
    /// still running after `budget_hint × 64` steps panics.
    fn new(
        name: &str,
        suite: Suite,
        class: SecurityClass,
        threads: Vec<(Program, ArchState)>,
        budget_hint: u64,
    ) -> Workload {
        let limit = budget_hint.max(1) * 64;
        let mut longest = 0;
        for (program, initial) in &threads {
            program
                .validate()
                .unwrap_or_else(|e| panic!("workload {name} program invalid: {e}"));
            let mut emu = protean_arch::Emulator::new(program, initial.clone());
            while emu.step().is_some() {
                if emu.steps() > limit {
                    panic!("workload {name} exceeded its emulation budget ({limit})");
                }
            }
            longest = longest.max(emu.steps());
        }
        Workload {
            name: name.into(),
            suite,
            class,
            threads,
            // Headroom: ProtCC instrumentation adds identity moves, so
            // instrumented binaries commit somewhat more µops.
            max_insts: longest + longest / 2 + 10_000,
        }
    }

    /// Whether this is a multi-threaded workload.
    pub fn is_multithreaded(&self) -> bool {
        self.threads.len() > 1
    }
}

/// Emits a warm-up sweep: unprefixed loads over `[base, base+bytes)` at
/// 8-byte stride. ARCH binaries carry no `PROT` prefixes, so these loads
/// architecturally unprotect the working set — standing in for the
/// paper's 10 M-instruction warm-up before each simpoint (§VIII-A3).
fn emit_warmup(b: &mut ProgramBuilder, base: u64, bytes: u64) {
    b.mov_imm(Reg::R12, 0);
    let top = b.here("warm");
    b.load(Reg::R13, Mem::abs(base).with_index(Reg::R12, 1));
    b.add(Reg::R12, Reg::R12, 8);
    b.cmp(Reg::R12, bytes);
    b.jcc(Cond::Ult, top);
}

pub use crypto::{ct_crypto, cts_crypto, unr_crypto};
pub use parsec::{parsec, THREADS};
pub use spec::{is_spec2017_int, spec2017, spec2017_int};
pub use wasm::arch_wasm;

/// Scale factor for workload sizes: 1 = the default (~100 K committed
/// µops per workload); larger values lengthen every loop proportionally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scale(pub u64);

impl Default for Scale {
    fn default() -> Scale {
        Scale(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_arch::{Emulator, ExitStatus};

    /// Every workload must terminate architecturally within its budget.
    #[test]
    fn all_workloads_terminate() {
        let mut all: Vec<Workload> = Vec::new();
        all.extend(spec2017(Scale(1)));
        all.extend(parsec(Scale(1)));
        all.extend(arch_wasm(Scale(1)));
        all.extend(cts_crypto(Scale(1)));
        all.extend(ct_crypto(Scale(1)));
        all.extend(unr_crypto(Scale(1)));
        all.push(nginx(1, 1, Scale(1)));
        assert!(all.len() >= 25, "expected a full workload roster");
        for w in &all {
            for (t, (prog, init)) in w.threads.iter().enumerate() {
                let mut emu = Emulator::new(prog, init.clone());
                let (status, _) = emu.run(w.max_insts * 4);
                assert_eq!(
                    status,
                    ExitStatus::Halted,
                    "{} thread {t} did not halt",
                    w.name
                );
            }
        }
    }
}
