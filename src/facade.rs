//! A one-stop facade: compile a program with ProtCC and run it under a
//! Protean protection mechanism — the whole paper in three lines.

use protean_arch::ArchState;
use protean_cc::{compile, compile_with, Pass};
use protean_core::{ProtDelayPolicy, ProtTrackPolicy};
use protean_isa::{Program, SecurityClass};
use protean_sim::{Core, CoreConfig, DefensePolicy, SimResult, UnsafePolicy};

/// Which Protean hardware protection mechanism to use (paper §VI).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mechanism {
    /// ProtDelay: lower hardware complexity.
    Delay,
    /// ProtTrack: best performance (the default).
    #[default]
    Track,
}

/// Result of a secured run: the defended execution plus the unsafe
/// baseline for overhead accounting.
#[derive(Clone, Debug)]
pub struct SecuredRun {
    /// The defended run.
    pub secured: SimResult,
    /// The unsafe baseline on the same core.
    pub baseline: SimResult,
}

impl SecuredRun {
    /// Normalized runtime (defended cycles / baseline cycles).
    pub fn normalized_runtime(&self) -> f64 {
        self.secured.stats.cycles as f64 / self.baseline.stats.cycles as f64
    }
}

/// The full Protean defense: ProtCC compilation plus ProtDelay/ProtTrack
/// enforcement on the simulated out-of-order core.
///
/// # Examples
///
/// ```
/// use protean::{Protean, Mechanism};
/// use protean::isa::{assemble, SecurityClass};
/// use protean::arch::ArchState;
///
/// let program = assemble(
///     "load r1, [0x5000]\nxor r2, r2, r1\nstore [0x6000], r2\nhalt\n",
/// ).unwrap();
/// let run = Protean::new(Mechanism::Track)
///     .secure_run(&program, SecurityClass::Ct, &ArchState::new(), 100_000);
/// assert_eq!(run.secured.exit, protean::sim::SimExit::Halted);
/// assert!(run.normalized_runtime() >= 1.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Protean {
    mechanism: Mechanism,
}

impl Protean {
    /// Creates a Protean defense with the given mechanism on a P-core.
    pub fn new(mechanism: Mechanism) -> Protean {
        Protean { mechanism }
    }

    fn policy(&self) -> Box<dyn DefensePolicy> {
        match self.mechanism {
            Mechanism::Delay => Box::new(ProtDelayPolicy::new()),
            Mechanism::Track => Box::new(ProtTrackPolicy::new()),
        }
    }

    /// Compiles `program` as single-class `class` code and runs it both
    /// defended and unsafe.
    pub fn secure_run(
        &self,
        program: &Program,
        class: SecurityClass,
        initial: &ArchState,
        max_insts: u64,
    ) -> SecuredRun {
        let compiled = compile_with(program, Pass::for_class(class)).program;
        self.run_pair(program, &compiled, initial, max_insts)
    }

    /// Compiles a *multi-class* program (per-function class labels, the
    /// nginx scenario of Fig. 1) and runs it defended and unsafe.
    pub fn secure_run_multiclass(
        &self,
        program: &Program,
        initial: &ArchState,
        max_insts: u64,
    ) -> SecuredRun {
        let compiled = compile(program, Pass::Arch).program;
        self.run_pair(program, &compiled, initial, max_insts)
    }

    fn run_pair(
        &self,
        base: &Program,
        compiled: &Program,
        initial: &ArchState,
        max_insts: u64,
    ) -> SecuredRun {
        let cfg = CoreConfig::p_core();
        let max_cycles = max_insts.saturating_mul(600);
        let baseline = Core::new(base, cfg.clone(), Box::new(UnsafePolicy), initial)
            .run(max_insts, max_cycles);
        let secured = Core::new(compiled, cfg, self.policy(), initial)
            .run(max_insts.saturating_mul(2), max_cycles);
        SecuredRun { secured, baseline }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_isa::assemble;

    fn store_program() -> Program {
        assemble("mov rsp, 0x8000\nload r1, [0x5000]\nadd r2, r1, 1\nstore [0x6000], r2\nhalt\n")
            .unwrap()
    }

    #[test]
    fn facade_runs_all_classes_and_mechanisms() {
        let program = store_program();
        for mech in [Mechanism::Delay, Mechanism::Track] {
            for class in SecurityClass::ALL {
                let run = Protean::new(mech).secure_run(&program, class, &ArchState::new(), 10_000);
                assert_eq!(run.secured.exit, protean_sim::SimExit::Halted);
                assert_eq!(run.baseline.exit, protean_sim::SimExit::Halted);
                assert_eq!(run.secured.final_regs, run.baseline.final_regs);
            }
        }
    }

    /// An instruction budget near `u64::MAX` saturates instead of
    /// overflowing.
    #[test]
    fn facade_saturates_an_unbounded_budget() {
        let program = store_program();
        let run = Protean::new(Mechanism::Track).secure_run(
            &program,
            SecurityClass::Ct,
            &ArchState::new(),
            u64::MAX,
        );
        assert_eq!(run.secured.exit, protean_sim::SimExit::Halted);
        assert_eq!(run.baseline.exit, protean_sim::SimExit::Halted);
    }

    #[test]
    fn multiclass_facade() {
        let w = protean_workloads::nginx(1, 1, protean_workloads::Scale(1));
        let (program, init) = &w.threads[0];
        let run = Protean::new(Mechanism::Track).secure_run_multiclass(program, init, w.max_insts);
        assert_eq!(run.secured.exit, protean_sim::SimExit::Halted);
        assert!(run.normalized_runtime() > 1.0);
    }
}
