//! Instruction-level control-flow graphs over function ranges, and the
//! one fixpoint solver every ProtCC analysis runs on.
//!
//! ProtCC's analyses are intraprocedural (paper §V-A): each node is one
//! instruction, edges follow fall-through and static branch targets
//! within the function, and `ret`/`halt`/indirect jumps are exits. Calls
//! are treated as opaque: an edge to the next instruction, with
//! analysis-specific conservative effects at the call site.

use protean_isa::{Op, Program, SecurityClass};

/// Splits `program` into its non-empty function ranges, in start order,
/// and the non-empty gaps before, between and after them. A function's
/// range carries its class; a gap carries `None`.
pub(crate) fn regions(program: &Program) -> Vec<(u32, u32, Option<SecurityClass>)> {
    let mut functions: Vec<_> = program.functions.iter().collect();
    functions.sort_by_key(|f| f.start);
    let mut regions = Vec::new();
    let mut cursor = 0u32;
    for f in functions {
        regions.push((cursor, f.start, None));
        regions.push((f.start, f.end, Some(f.class)));
        cursor = cursor.max(f.end);
    }
    regions.push((cursor, program.len() as u32, None));
    regions.retain(|(start, end, _)| start < end);
    regions
}

/// The CFG of one function (a contiguous instruction range).
#[derive(Clone, Debug)]
pub(crate) struct FunctionCfg {
    /// First instruction index of the function.
    pub start: u32,
    /// Successors of each instruction (function-relative indices).
    pub succs: Vec<Vec<u32>>,
    /// Predecessors of each instruction (function-relative indices).
    pub preds: Vec<Vec<u32>>,
    /// Whether each instruction is a function exit (`ret`, `halt`,
    /// indirect jump, or a branch out of the range). A `jcc` with one
    /// edge leaving the range is an exit that also has a successor.
    pub exits: Vec<bool>,
}

/// Which way facts flow in a [`FunctionCfg::solve`] problem.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Direction {
    /// From the entry along edges: an instruction's `before` fact is the
    /// meet of its predecessors' `after` facts.
    Forward,
    /// From the exits against edges: an instruction's `after` fact is
    /// the meet of its successors' `before` facts.
    Backward,
}

/// A dataflow solution: the fact holding before and after each
/// instruction (function-relative indexing).
#[derive(Clone, Debug)]
pub(crate) struct Flow<F> {
    /// Fact holding *before* each instruction.
    pub before: Vec<F>,
    /// Fact holding *after* each instruction.
    pub after: Vec<F>,
}

impl FunctionCfg {
    /// Builds the CFG of `program[start..end]`.
    ///
    /// Branches whose targets lie outside the range (tail calls into
    /// other functions) are treated as exits.
    pub fn build(program: &Program, start: u32, end: u32) -> FunctionCfg {
        let n = (end - start) as usize;
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut exits = vec![false; n];
        let in_range = |idx: u32| idx >= start && idx < end;
        for local in 0..n {
            let idx = start + local as u32;
            let inst = &program.insts[idx as usize];
            let mut out: Vec<u32> = Vec::new();
            match inst.op {
                Op::Ret | Op::Halt | Op::JmpReg { .. } => {
                    exits[local] = true;
                }
                Op::Call { .. } => {
                    // Opaque call: control returns to the next
                    // instruction (analyses apply call effects there).
                    if in_range(idx + 1) {
                        out.push(idx + 1 - start);
                    } else {
                        exits[local] = true;
                    }
                }
                _ => {
                    if inst.falls_through() {
                        if in_range(idx + 1) {
                            out.push(idx + 1 - start);
                        } else {
                            exits[local] = true;
                        }
                    }
                    if let Some(t) = inst.static_target() {
                        if in_range(t) {
                            out.push(t - start);
                        } else {
                            exits[local] = true;
                        }
                    }
                }
            }
            for s in &out {
                preds[*s as usize].push(local as u32);
            }
            succs[local] = out;
        }
        FunctionCfg {
            start,
            succs,
            preds,
            exits,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Function-relative indices that start a basic block: the entry,
    /// branch targets, and fall-throughs of branches.
    pub fn block_leaders(&self) -> Vec<u32> {
        let mut leader = vec![false; self.len()];
        if !leader.is_empty() {
            leader[0] = true;
        }
        for (i, out) in self.succs.iter().enumerate() {
            if out.len() > 1 {
                for s in out {
                    leader[*s as usize] = true;
                }
            }
            for s in out {
                if *s as usize != i + 1 {
                    leader[*s as usize] = true;
                }
            }
        }
        // Any instruction with multiple predecessors also starts a block.
        for (i, p) in self.preds.iter().enumerate() {
            if p.len() > 1 {
                leader[i] = true;
            }
        }
        leader
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.then_some(i as u32))
            .collect()
    }

    /// Solves one dataflow problem by round-robin iteration to a
    /// fixpoint.
    ///
    /// Every fact starts at `identity`, the meet's identity element.
    /// Each sweep visits the instructions in `direction` order and
    /// recomputes an instruction's incoming fact as the meet of
    /// `boundary` (at the entry going forward, at exits going backward)
    /// and its neighbours' outgoing facts, then its outgoing fact as
    /// `transfer(local, &incoming)`; sweeps repeat until nothing changes.
    /// An instruction no edge reaches keeps `identity` as its incoming
    /// fact: with an intersection meet it constrains nothing. Every
    /// instruction is an exit or has a successor, so going backward only
    /// exits see `boundary`.
    pub fn solve<F: Clone + PartialEq>(
        &self,
        direction: Direction,
        boundary: F,
        identity: F,
        meet: impl Fn(&mut F, &F),
        transfer: impl Fn(usize, &F) -> F,
    ) -> Flow<F> {
        let n = self.len();
        let forward = direction == Direction::Forward;
        // `incoming[i]` is the fact on the side facts enter `i` from:
        // `before` going forward, `after` going backward.
        let mut incoming = vec![identity.clone(); n];
        let mut outgoing = vec![identity.clone(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for step in 0..n {
                let local = if forward { step } else { n - 1 - step };
                let (on_boundary, neighbours) = if forward {
                    (local == 0, &self.preds[local])
                } else {
                    (self.exits[local], &self.succs[local])
                };
                let mut inp = identity.clone();
                if on_boundary {
                    meet(&mut inp, &boundary);
                }
                for &m in neighbours {
                    meet(&mut inp, &outgoing[m as usize]);
                }
                let out = transfer(local, &inp);
                if inp != incoming[local] || out != outgoing[local] {
                    incoming[local] = inp;
                    outgoing[local] = out;
                    changed = true;
                }
            }
        }
        if forward {
            Flow {
                before: incoming,
                after: outgoing,
            }
        } else {
            Flow {
                before: outgoing,
                after: incoming,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_isa::assemble;

    #[test]
    fn diamond_cfg() {
        let p = assemble(
            r#"
            cmp r0, 0       ; 0
            jeq else        ; 1
            add r1, r1, 1   ; 2
            jmp join        ; 3
          else:
            add r1, r1, 2   ; 4
          join:
            ret             ; 5
            "#,
        )
        .unwrap();
        let cfg = FunctionCfg::build(&p, 0, 6);
        assert_eq!(cfg.succs[1], vec![2, 4]);
        assert_eq!(cfg.succs[3], vec![5]);
        assert_eq!(cfg.succs[4], vec![5]);
        assert_eq!(cfg.preds[5], vec![3, 4]);
        assert!(cfg.exits[5]);
        let leaders = cfg.block_leaders();
        assert!(leaders.contains(&0));
        assert!(leaders.contains(&4));
        assert!(leaders.contains(&5));
        assert!(!leaders.contains(&3));
    }

    #[test]
    fn loop_back_edge() {
        let p = assemble("top:\nadd r0, r0, 1\ncmp r0, 5\njlt top\nhalt\n").unwrap();
        let cfg = FunctionCfg::build(&p, 0, 4);
        assert_eq!(cfg.succs[2], vec![3, 0]);
        assert!(cfg.preds[0].contains(&2));
        assert!(cfg.exits[3]);
    }

    #[test]
    fn out_of_range_target_is_exit() {
        let p = assemble("jmp @2\nhalt\nnop\nhalt\n").unwrap();
        let cfg = FunctionCfg::build(&p, 0, 2);
        assert!(cfg.exits[0]); // target 2 is outside [0, 2)
        assert!(cfg.succs[0].is_empty());
    }

    #[test]
    fn call_falls_through() {
        let p = assemble("call @3\nnop\nhalt\nret\n").unwrap();
        let cfg = FunctionCfg::build(&p, 0, 3);
        assert_eq!(cfg.succs[0], vec![1]);
    }
}
