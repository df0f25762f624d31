//! ProtCC-CTS: automatic secrecy-typing inference for static
//! constant-time code (paper §V-A2).
//!
//! Following the Serberus approach the paper builds on, the inference
//! (i) starts with every definition secret-typed, then (ii) applies the
//! standard secrecy typing rules — all *sensitive transmitter operands*
//! must be publicly typed, and public outputs require public inputs —
//! and (iii) resolves each violation by retyping the culprit definition
//! public, until convergence. For genuinely-CTS code this computes a
//! conservative typing: every secret stays secret-typed.
//!
//! Unlike the CT analyses, *partially* transmitted operands (branch
//! predicates, divider inputs) are also publicly typed — the reason
//! ProtCC-CTS can unprotect more registers than SPT ever can (§IX-B2).

use crate::analysis::pinned_public;
use crate::cfg::FunctionCfg;
use protean_isa::{Op, Program, Reg, RegSet, TransmitterSet};

/// The inferred typing of one function.
#[derive(Clone, Debug)]
pub struct CtsTyping {
    /// Per instruction (function-relative): the publicly-typed output
    /// registers.
    pub public_outputs: Vec<RegSet>,
    /// Registers publicly typed at function entry (arguments to
    /// unprotect with identity moves).
    pub public_entry: RegSet,
}

/// Infers a conservative secrecy typing for `program[cfg.start..cfg.end]`.
pub fn infer_typing(program: &Program, cfg: &FunctionCfg) -> CtsTyping {
    let n = cfg.len();
    // ---- Definition sites -------------------------------------------
    // Entry defs: one per architectural register (ids 0..Reg::COUNT);
    // then one def per (instruction, output) pair.
    let mut def_of: Vec<Vec<(Reg, usize)>> = vec![Vec::new(); n]; // per inst
    let mut defs: Vec<(Option<usize>, Reg)> = Reg::all().map(|r| (None, r)).collect();
    for (local, def_slot) in def_of.iter_mut().enumerate() {
        let inst = &program.insts[(cfg.start + local as u32) as usize];
        for r in inst.dst_regs().iter() {
            let id = defs.len();
            defs.push((Some(local), r));
            def_slot.push((r, id));
        }
    }
    let n_defs = defs.len();

    // ---- Reaching definitions (forward, union) -----------------------
    let words = n_defs.div_ceil(64);
    let empty = vec![0u64; words];
    let mut r_in: Vec<Vec<u64>> = vec![empty.clone(); n];
    let set_bit = |v: &mut [u64], id: usize| v[id / 64] |= 1 << (id % 64);
    let get_bit = |v: &[u64], id: usize| v[id / 64] & (1 << (id % 64)) != 0;

    // Entry state: the entry defs.
    let mut entry_state = empty.clone();
    for id in 0..Reg::COUNT {
        set_bit(&mut entry_state, id);
    }

    let transfer = |local: usize, input: &[u64]| -> Vec<u64> {
        let inst = &program.insts[(cfg.start + local as u32) as usize];
        let mut out = input.to_vec();
        let killed = if inst.write_width().is_some_and(|w| w.is_partial()) {
            // Partial writes keep the old definition live too.
            RegSet::new()
        } else {
            inst.dst_regs()
        };
        if !killed.is_empty() {
            for (id, (_, r)) in defs.iter().enumerate() {
                if killed.contains(*r) && get_bit(&out, id) {
                    out[id / 64] &= !(1 << (id % 64));
                }
            }
        }
        for (_, id) in &def_of[local] {
            set_bit(&mut out, *id);
        }
        out
    };

    let mut changed = true;
    while changed {
        changed = false;
        for local in 0..n {
            let mut inp = if local == 0 {
                entry_state.clone()
            } else {
                empty.clone()
            };
            for p in &cfg.preds[local] {
                let pout = transfer(*p as usize, &r_in[*p as usize]);
                for (w, pw) in inp.iter_mut().zip(pout) {
                    *w |= pw;
                }
            }
            if inp != r_in[local] {
                r_in[local] = inp;
                changed = true;
            }
        }
    }

    // ---- Public closure ----------------------------------------------
    let mut public = vec![false; n_defs];
    let mut work: Vec<usize> = Vec::new();
    let mark = |public: &mut Vec<bool>, work: &mut Vec<usize>, id: usize| {
        if !public[id] {
            public[id] = true;
            work.push(id);
        }
    };
    // Constants and pinned registers are public.
    for (id, (site, r)) in defs.iter().enumerate() {
        let constant = site.is_some_and(|local| {
            matches!(
                program.insts[(cfg.start + local as u32) as usize].op,
                Op::MovImm { width, .. } if !width.is_partial()
            )
        });
        if constant || pinned_public().contains(*r) {
            mark(&mut public, &mut work, id);
        }
    }
    // Demand: sensitive operands must be public — every operand the
    // paper's transmitters send, fully (addresses, indirect targets) or
    // partially (branch predicates, divider operands).
    let transmitters = TransmitterSet::paper();
    let reaching = |local: usize, r: Reg| -> Vec<usize> {
        (0..n_defs)
            .filter(|id| defs[*id].1 == r && get_bit(&r_in[local], *id))
            .collect()
    };
    for local in 0..n {
        let inst = &program.insts[(cfg.start + local as u32) as usize];
        for r in transmitters.sensitive_regs(inst).iter() {
            for id in reaching(local, r) {
                mark(&mut public, &mut work, id);
            }
        }
    }
    // Closure: a public output needs public inputs.
    while let Some(id) = work.pop() {
        let (site, _) = defs[id];
        let Some(local) = site else { continue };
        let inst = &program.insts[(cfg.start + local as u32) as usize];
        // Loads draw their value from memory (typed separately; the
        // address registers are already public via the demand rule).
        if inst.is_load() {
            continue;
        }
        for s in inst.src_regs().iter() {
            for rid in reaching(local, s) {
                mark(&mut public, &mut work, rid);
            }
        }
    }

    // ---- Forward derivation -------------------------------------------
    // Demand gave the *required* public set; typing also permits any
    // definition computed purely from public inputs to be publicly typed
    // (rule: public inputs -> public output is always derivable). Loads
    // and entry definitions stay secret unless demanded. Computed as a
    // *greatest* fixpoint: start optimistic (every non-load definition is
    // a candidate) and strike candidates with a non-candidate input, so
    // loop-carried public chains (counters, LCG fills) type correctly.
    let mut candidate: Vec<bool> = (0..n_defs)
        .map(|id| {
            public[id]
                || defs[id].0.is_some_and(|local| {
                    !program.insts[(cfg.start + local as u32) as usize].is_load()
                })
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (local, local_defs) in def_of.iter().enumerate() {
            let inst = &program.insts[(cfg.start + local as u32) as usize];
            if inst.is_load() || local_defs.is_empty() {
                continue;
            }
            let inputs_ok = inst
                .src_regs()
                .iter()
                .all(|s| reaching(local, s).into_iter().all(|rid| candidate[rid]));
            if !inputs_ok {
                for (_, id) in local_defs {
                    if candidate[*id] && !public[*id] {
                        candidate[*id] = false;
                        changed = true;
                    }
                }
            }
        }
    }
    for id in 0..n_defs {
        public[id] = public[id] || candidate[id];
    }

    // ---- Extract ------------------------------------------------------
    let mut public_outputs = vec![RegSet::new(); n];
    for local in 0..n {
        for (r, id) in &def_of[local] {
            if public[*id] {
                public_outputs[local].insert(*r);
            }
        }
    }
    let mut public_entry = RegSet::new();
    for id in 0..Reg::COUNT {
        if public[id] {
            public_entry.insert(defs[id].1);
        }
    }
    CtsTyping {
        public_outputs,
        public_entry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_isa::assemble;

    fn typing_of(src: &str) -> (Program, CtsTyping) {
        let p = assemble(src).unwrap();
        let cfg = FunctionCfg::build(&p, 0, p.len() as u32);
        let t = infer_typing(&p, &cfg);
        (p, t)
    }

    /// The paper's Fig. 3c walkthrough: Rp, Rx, and the constant Ry are
    /// typed public; the reloaded Ry (line 4) stays secret.
    #[test]
    fn fig3_typing() {
        let (_, t) = typing_of(
            r#"
            load r1, [r0]            ; 0: Rx = *Rp
            mov r2, 0                ; 1: Ry = 0
            cmp r1, 0                ; 2
            jlt skip                 ; 3
            load r2, [r1*4 + 0x1000] ; 4: Ry = A[Rx]
          skip:
            ret                      ; 5
            "#,
        );
        // Rp public at entry (passed to the load's address).
        assert!(t.public_entry.contains(Reg::R0));
        // Rx's definition (load 0) is public: it reaches the line-4
        // address and the cmp (partial transmit).
        assert!(t.public_outputs[0].contains(Reg::R1));
        // The constant Ry is public…
        assert!(t.public_outputs[1].contains(Reg::R2));
        // …the reloaded Ry is secret.
        assert!(!t.public_outputs[4].contains(Reg::R2));
        // cmp's rflags are public (branch predicates are partially
        // transmitted — CTS may type them public, unlike CT).
        assert!(t.public_outputs[2].contains(Reg::RFLAGS));
    }

    #[test]
    fn secret_key_stays_secret() {
        // A classic CTS kernel: load key, xor into data, store. Nothing
        // demands the key public.
        let (_, t) = typing_of(
            r#"
            load r1, [r0]          ; 0: key (secret)
            load r2, [r0 + 8]      ; 1: data (secret)
            xor r2, r2, r1         ; 2
            store [r0 + 16], r2    ; 3
            ret                    ; 4
            "#,
        );
        assert!(t.public_entry.contains(Reg::R0)); // pointer: public
        assert!(!t.public_outputs[0].contains(Reg::R1)); // key: secret
        assert!(!t.public_outputs[2].contains(Reg::R2)); // derived: secret
    }

    #[test]
    fn closure_propagates_backwards() {
        // r2 = r1 + 1 is used as an address, so r1's def must be public.
        let (_, t) = typing_of(
            r#"
            mov r1, r0             ; 0
            add r2, r1, 1          ; 1
            load r3, [r2]          ; 2: transmits r2
            ret                    ; 3
            "#,
        );
        assert!(t.public_outputs[1].contains(Reg::R2));
        assert!(t.public_outputs[0].contains(Reg::R1));
        assert!(t.public_entry.contains(Reg::R0));
        // The loaded r3 stays secret.
        assert!(!t.public_outputs[2].contains(Reg::R3));
    }

    #[test]
    fn div_operands_demanded_public() {
        let (_, t) = typing_of("div r2, r0, r1\nret\n");
        assert!(t.public_entry.contains(Reg::R0));
        assert!(t.public_entry.contains(Reg::R1));
        // The quotient of two public operands is derivably public.
        assert!(t.public_outputs[0].contains(Reg::R2));
    }

    #[test]
    fn flags_over_public_operands_stay_public() {
        // `and t, i, mask` over a public loop counter must not poison the
        // instruction via its flags output — the flags are a function of
        // public data.
        let (_, t) = typing_of("mov r0, 0\nand r1, r0, 0xff8\nload r2, [r1 + 0x1000]\nret\n");
        assert!(t.public_outputs[1].contains(Reg::R1));
        assert!(t.public_outputs[1].contains(Reg::RFLAGS));
        // The loaded value stays secret.
        assert!(!t.public_outputs[2].contains(Reg::R2));
    }
}
