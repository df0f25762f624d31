//! Observer modes and security-contract traces (paper §II-C, §VII-B1).
//!
//! An *observer mode* defines what architectural information a victim
//! exposes at each SEQ execution step. Two executions are
//! *contract-equivalent* if their traces under the mode are equal; a
//! microarchitecture upholds the contract if contract-equivalent
//! executions are indistinguishable to the adversary.
//!
//! Exposure is strictly increasing up the class hierarchy:
//!
//! * [`ObserverMode::Ct`] — PCs, *individual* address registers,
//!   effective addresses, branch conditions/targets, and division-operand
//!   leakage (the transmitter set of §II-B1 with AMuLeT\*'s enhancements);
//! * [`ObserverMode::Cts`] — CT plus values written to *publicly-typed*
//!   registers;
//! * [`ObserverMode::Unprot`] — CT plus values written to
//!   ProtISA-*unprotected* registers;
//! * [`ObserverMode::Arch`] — CT plus all loaded/stored data (non-secret-
//!   accessing code assumes everything it touches is public).

use crate::ExecRecord;
use protean_isa::{div_leakage, Reg, RegSet};

/// One element of a contract trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Obs {
    /// The program counter of a committed instruction.
    Pc(u64),
    /// The value of one address register of a memory access.
    AddrReg(Reg, u64),
    /// The effective address of a memory access.
    Addr(u64),
    /// A conditional branch's resolved direction.
    BranchCond(bool),
    /// An indirect branch's resolved target.
    BranchTarget(u64),
    /// The partial function of division operands the divider leaks.
    DivLeak(u64),
    /// A loaded or stored data value (ARCH mode only).
    MemValue(u64),
    /// A value written to an exposed (public-typed / unprotected)
    /// register (CTS / UNPROT modes).
    RegValue(Reg, u64),
}

/// Which publicly-typed registers each instruction *defines*, for the CTS
/// observer mode. Produced by the ProtCC-CTS typing analysis.
#[derive(Clone, Debug, Default)]
pub struct PublicTyping {
    /// `per_inst[i]` = the publicly-typed output registers of instruction
    /// `i`.
    pub per_inst: Vec<RegSet>,
}

impl PublicTyping {
    /// A typing that exposes nothing (every output secret-typed) — the
    /// most conservative CTS observer.
    pub fn all_secret(len: usize) -> PublicTyping {
        PublicTyping {
            per_inst: vec![RegSet::new(); len],
        }
    }

    /// The publicly-typed outputs of instruction `idx`.
    pub fn public_outputs(&self, idx: u32) -> RegSet {
        self.per_inst.get(idx as usize).copied().unwrap_or_default()
    }
}

/// An observer mode (see module docs).
#[derive(Clone, Debug)]
pub enum ObserverMode {
    /// Exposes CT observations plus all accessed memory data.
    Arch,
    /// Exposes transmitter operands only.
    Ct,
    /// Exposes CT plus publicly-typed register writes.
    Cts(PublicTyping),
    /// Exposes CT plus ProtISA-unprotected register writes.
    Unprot,
}

impl ObserverMode {
    /// Short name for reports (`ARCH`, `CT`, `CTS`, `UNPROT`).
    pub fn name(&self) -> &'static str {
        match self {
            ObserverMode::Arch => "ARCH",
            ObserverMode::Ct => "CT",
            ObserverMode::Cts(_) => "CTS",
            ObserverMode::Unprot => "UNPROT",
        }
    }

    /// Projects one execution record onto trace elements, appending to
    /// `out`.
    pub fn observe(&self, record: &ExecRecord, out: &mut Vec<Obs>) {
        // CT base: PC + transmitter operands.
        out.push(Obs::Pc(record.pc));
        for (reg, value) in &record.addr_regs {
            out.push(Obs::AddrReg(*reg, *value));
        }
        if let Some(mem) = record.mem {
            out.push(Obs::Addr(mem.addr));
        }
        if let Some(branch) = record.branch {
            if record.inst.is_cond_branch() {
                out.push(Obs::BranchCond(branch.taken));
            }
            if record.inst.is_indirect_branch() {
                // Expose the raw target PC (even if out of range).
                if let Some(mem) = record.mem {
                    // `ret`: the target is the loaded value.
                    out.push(Obs::BranchTarget(mem.value));
                } else if let Some(t) = branch.target {
                    out.push(Obs::BranchTarget(t as u64));
                } else {
                    out.push(Obs::BranchTarget(u64::MAX));
                }
            }
        }
        if let Some((a, b, _)) = record.div {
            out.push(Obs::DivLeak(div_leakage(a, b)));
        }
        // Mode-specific extensions.
        match self {
            ObserverMode::Ct => {}
            ObserverMode::Arch => {
                if let Some(mem) = record.mem {
                    out.push(Obs::MemValue(mem.value));
                }
            }
            ObserverMode::Cts(typing) => {
                let public = typing.public_outputs(record.idx);
                for (reg, value, _) in &record.reg_writes {
                    if public.contains(*reg) {
                        out.push(Obs::RegValue(*reg, *value));
                    }
                }
            }
            ObserverMode::Unprot => {
                for (reg, value, protected) in &record.reg_writes {
                    if !protected {
                        out.push(Obs::RegValue(*reg, *value));
                    }
                }
            }
        }
    }

    /// Projects a full execution onto a contract trace.
    pub fn trace(&self, records: &[ExecRecord]) -> Vec<Obs> {
        let mut out = Vec::with_capacity(records.len() * 2);
        for r in records {
            self.observe(r, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchState, Emulator};
    use protean_isa::assemble;

    fn records_for(src: &str, r0: u64) -> Vec<ExecRecord> {
        let prog = assemble(src).unwrap();
        let mut state = ArchState::new();
        state.set_reg(Reg::R0, r0);
        let mut emu = Emulator::new(&prog, state);
        emu.run(1000).1
    }

    /// A secret-dependent branch: CT traces differ, so the executions are
    /// NOT CT-equivalent (the code is not constant-time).
    #[test]
    fn ct_sees_branch_condition() {
        let src = "cmp r0, 5\njlt skip\nnop\nskip:\nhalt\n";
        let t1 = ObserverMode::Ct.trace(&records_for(src, 1));
        let t2 = ObserverMode::Ct.trace(&records_for(src, 9));
        assert_ne!(t1, t2);
    }

    /// Straight-line data flow with no transmitters: CT-equivalent
    /// regardless of the secret, but ARCH sees the difference once the
    /// secret is stored.
    #[test]
    fn arch_exposes_data_ct_does_not() {
        let src = "add r1, r0, 1\nstore [rsp + 8], r1\nhalt\n";
        let a = records_for(src, 10);
        let b = records_for(src, 20);
        assert_eq!(ObserverMode::Ct.trace(&a), ObserverMode::Ct.trace(&b));
        assert_ne!(ObserverMode::Arch.trace(&a), ObserverMode::Arch.trace(&b));
    }

    /// Secret-dependent addresses differ under CT.
    #[test]
    fn ct_sees_addresses_and_addr_regs() {
        let src = "load r1, [r0 + 0x100]\nhalt\n";
        let a = ObserverMode::Ct.trace(&records_for(src, 0));
        let b = ObserverMode::Ct.trace(&records_for(src, 8));
        assert_ne!(a, b);
        assert!(a.iter().any(|o| matches!(o, Obs::AddrReg(Reg::R0, 0))));
        assert!(a.iter().any(|o| matches!(o, Obs::Addr(0x100))));
    }

    /// Division leaks a *partial* function: equal-latency operands are
    /// indistinguishable, different-latency ones are not.
    #[test]
    fn div_partial_leakage() {
        let src = "mov r2, 3\ndiv r1, r0, r2\nhalt\n";
        let small1 = ObserverMode::Ct.trace(&records_for(src, 9));
        let small2 = ObserverMode::Ct.trace(&records_for(src, 10));
        let large = ObserverMode::Ct.trace(&records_for(src, u64::MAX));
        assert_eq!(small1, small2);
        assert_ne!(small1, large);
    }

    /// UNPROT exposes unprotected register writes but not protected ones.
    #[test]
    fn unprot_respects_prot_prefix() {
        let src = "add r1, r0, 0\nhalt\n"; // unprefixed: r1 exposed
        let a = ObserverMode::Unprot.trace(&records_for(src, 1));
        let b = ObserverMode::Unprot.trace(&records_for(src, 2));
        assert_ne!(a, b);

        let src = "prot add r1, r0, 0\nhalt\n"; // protected: hidden
        let a = ObserverMode::Unprot.trace(&records_for(src, 1));
        let b = ObserverMode::Unprot.trace(&records_for(src, 2));
        assert_eq!(a, b);
    }

    /// CTS exposes values written to publicly-typed outputs only.
    #[test]
    fn cts_uses_typing() {
        let src = "add r1, r0, 0\nhalt\n";
        let recs_a = records_for(src, 1);
        let recs_b = records_for(src, 2);
        // All-secret typing: indistinguishable.
        let secret = ObserverMode::Cts(PublicTyping::all_secret(2));
        assert_eq!(secret.trace(&recs_a), secret.trace(&recs_b));
        // r1 publicly typed at instruction 0: distinguishable.
        let mut typing = PublicTyping::all_secret(2);
        typing.per_inst[0].insert(Reg::R1);
        let public = ObserverMode::Cts(typing);
        assert_ne!(public.trace(&recs_a), public.trace(&recs_b));
    }
}
