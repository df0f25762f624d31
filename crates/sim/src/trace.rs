//! µop-level pipeline tracing and the defense-decision audit log.
//!
//! When tracing is enabled ([`crate::CoreConfig::trace`]), the core
//! records one [`UopTrace`] per renamed µop — its
//! fetch/rename/issue/complete/commit cycles, any squash event tagged
//! with its cause, and, per defense gate ([`BlockPoint`]), how many
//! cycles the active [`DefensePolicy`] held it back and under which
//! rule. The full stream is exported as
//! [`SimResult::trace`](crate::SimResult) and renderable as:
//!
//! * a Konata-style text pipeline diagram ([`Trace::render_pipeline`]);
//! * a defense-decision audit log ([`Trace::audit`],
//!   [`Trace::render_audit`]) whose per-gate totals reconcile *exactly*
//!   with `Stats::{exec,wakeup,resolve}_blocked_cycles`;
//! * Chrome `chrome://tracing` / Perfetto trace-event JSON
//!   ([`Trace::to_chrome_trace`]), hand-rolled via [`crate::json`].
//!
//! Tracing is **observation-only**: enabling it never changes a single
//! architectural or microarchitectural decision (test-asserted), and
//! with tracing disabled the hot path performs one `Option` check per
//! event site and allocates nothing.
//!
//! [`DefensePolicy`]: crate::DefensePolicy

use crate::defense::{BlockPoint, Seq, SquashKind};
use crate::json::Json;
use crate::pipeline::DynInst;

/// Cap on recorded µops: bounds trace memory on long runs; blocked-cycle
/// *totals* keep accumulating past the cap so audit reconciliation
/// stays exact.
pub const TRACE_LIMIT: usize = 1_000_000;

/// A squash observed on a µop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SquashEvent {
    /// Cycle the squash reached this µop.
    pub cycle: u64,
    /// Why the squash was initiated.
    pub cause: SquashKind,
}

/// Accumulated defense blocking of one µop at one gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockedAt {
    /// Number of cycles the gate denied this µop.
    pub cycles: u64,
    /// First cycle a denial was observed.
    pub first_cycle: u64,
    /// Last cycle a denial was observed.
    pub last_cycle: u64,
    /// The policy rule that denied, as named by the verdict that first
    /// parked the µop at this gate ([`crate::Gate::Closed`]'s `rule`,
    /// the rule of its first denied cycle); `""` if never blocked.
    pub rule: &'static str,
}

/// One µop's recorded lifecycle.
#[derive(Clone, Debug)]
pub struct UopTrace {
    /// Global sequence number (1-based age order).
    pub seq: Seq,
    /// Static instruction index.
    pub idx: u32,
    /// Program counter.
    pub pc: u64,
    /// Disassembly of the instruction.
    pub disasm: String,
    /// Cycle the µop was fetched.
    pub fetch_cycle: u64,
    /// Cycle the µop was renamed into the ROB.
    pub rename_cycle: u64,
    /// Cycle the µop issued to execution (`None`: never issued).
    pub issue_cycle: Option<u64>,
    /// Cycle execution completed (`None`: never completed).
    pub complete_cycle: Option<u64>,
    /// Cycle the µop committed (`None`: squashed or still in flight).
    pub commit_cycle: Option<u64>,
    /// The squash that killed it, if any.
    pub squash: Option<SquashEvent>,
    /// Defense blocking per gate, indexed by [`BlockPoint`].
    pub blocked: [BlockedAt; 3],
}

/// One row of the defense-decision audit log: a µop that a policy rule
/// held at a gate, with the cycle span and cost.
#[derive(Clone, Debug)]
pub struct AuditRecord {
    /// The blocked µop's sequence number.
    pub seq: Seq,
    /// Its static instruction index.
    pub idx: u32,
    /// Its program counter.
    pub pc: u64,
    /// Its disassembly.
    pub disasm: String,
    /// The gate that denied it.
    pub point: BlockPoint,
    /// The policy rule that denied it.
    pub rule: &'static str,
    /// Total cycles denied.
    pub cycles: u64,
    /// First denial cycle.
    pub first_cycle: u64,
    /// Last denial cycle.
    pub last_cycle: u64,
    /// Whether the µop eventually committed (`false`: squashed /
    /// in-flight at exit — blocked cycles on wrong-path work).
    pub committed: bool,
}

/// One front-end fetch group: the µop run fetched in a single cycle,
/// which reaches rename in the same later cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FetchGroupEvent {
    /// Cycle the group was fetched.
    pub cycle: u64,
    /// Static index of the group's first instruction.
    pub start_idx: u32,
    /// Number of µops in the group (bounded by the fetch width).
    pub len: u32,
}

/// The in-flight recorder owned by the core while tracing is enabled.
///
/// Event methods are O(1) per event; µops are stored in a flat `Vec`
/// indexed by `seq - 1` (sequence numbers are allocated densely at
/// rename).
#[derive(Clone, Debug)]
pub struct Tracer {
    policy: String,
    uops: Vec<UopTrace>,
    /// µops not recorded because the cap was reached.
    dropped: u64,
    /// Blocked cycles attributed to dropped µops, per gate — keeps
    /// [`Trace::blocked_totals`] exact regardless of the cap.
    overflow_blocked: [u64; 3],
    /// Front-end fetch groups (one per productive fetch cycle), capped
    /// at the same recording limit as µops.
    fetch_groups: Vec<FetchGroupEvent>,
    /// Disassembly per static instruction index, formatted on the
    /// index's first rename and cloned on every later one.
    disasm: Vec<Option<String>>,
}

impl Tracer {
    /// Creates a tracer for a run under `policy`, recording at most
    /// [`TRACE_LIMIT`] µops.
    pub fn new(policy: String) -> Tracer {
        Tracer {
            policy,
            uops: Vec::new(),
            dropped: 0,
            overflow_blocked: [0; 3],
            fetch_groups: Vec::new(),
            disasm: Vec::new(),
        }
    }

    /// The fetch stage produced a group of `len` µops starting at static
    /// index `start_idx` this cycle. Groups past the recording cap are
    /// dropped (they carry no Stats-reconciled totals).
    pub fn on_fetch_group(&mut self, cycle: u64, start_idx: u32, len: u32) {
        if self.fetch_groups.len() < TRACE_LIMIT {
            self.fetch_groups.push(FetchGroupEvent {
                cycle,
                start_idx,
                len,
            });
        }
    }

    fn slot(&mut self, seq: Seq) -> Option<&mut UopTrace> {
        let index = (seq - 1) as usize;
        self.uops.get_mut(index)
    }

    /// A µop entered the ROB. Must be called in `seq` order (the
    /// pipeline renames in age order).
    pub fn on_rename(&mut self, u: &DynInst, cycle: u64) {
        if self.uops.len() >= TRACE_LIMIT {
            self.dropped += 1;
            return;
        }
        debug_assert_eq!(self.uops.len() as u64 + 1, u.seq, "rename out of seq order");
        let idx = u.idx as usize;
        if self.disasm.len() <= idx {
            self.disasm.resize(idx + 1, None);
        }
        let disasm = self.disasm[idx]
            .get_or_insert_with(|| u.inst.to_string())
            .clone();
        self.uops.push(UopTrace {
            seq: u.seq,
            idx: u.idx,
            pc: u.pc,
            disasm,
            fetch_cycle: u.fetch_cycle,
            rename_cycle: cycle,
            issue_cycle: None,
            complete_cycle: None,
            commit_cycle: None,
            squash: None,
            blocked: [BlockedAt::default(); 3],
        });
    }

    /// A µop issued to execution.
    pub fn on_issue(&mut self, seq: Seq, cycle: u64) {
        if let Some(t) = self.slot(seq) {
            t.issue_cycle = Some(cycle);
        }
    }

    /// A µop finished execution.
    pub fn on_complete(&mut self, seq: Seq, cycle: u64) {
        if let Some(t) = self.slot(seq) {
            t.complete_cycle = Some(cycle);
        }
    }

    /// A µop committed.
    pub fn on_commit(&mut self, seq: Seq, cycle: u64) {
        if let Some(t) = self.slot(seq) {
            t.commit_cycle = Some(cycle);
        }
    }

    /// A µop was squashed.
    pub fn on_squash(&mut self, seq: Seq, cycle: u64, cause: SquashKind) {
        if let Some(t) = self.slot(seq) {
            t.squash = Some(SquashEvent { cycle, cause });
        }
    }

    /// The pipeline parked a µop at `point` in `cycle` because a gate
    /// verdict closed under `rule`. The trace keeps the first rule it
    /// gets per gate. Every park is counted as a denial in the tick that
    /// made it, so that rule is the rule of the µop's first denial
    /// ([`Tracer::on_block`] checks this in debug builds).
    pub fn on_park(&mut self, seq: Seq, point: BlockPoint, cycle: u64, rule: &'static str) {
        if let Some(t) = self.slot(seq) {
            let b = &mut t.blocked[point as usize];
            if b.rule.is_empty() {
                b.rule = rule;
                b.first_cycle = cycle;
            }
        }
    }

    /// The defense denied a µop at `point` for `cycles` consecutive
    /// cycles from `first_cycle` on (one per tick, or a fast-forwarded
    /// span), under the rule its park handed [`Tracer::on_park`].
    /// Past-cap µops accumulate into the overflow counters, so
    /// [`Trace::blocked_totals`] reconciliation stays exact.
    pub fn on_block(&mut self, seq: Seq, point: BlockPoint, first_cycle: u64, cycles: u64) {
        if cycles == 0 {
            return;
        }
        match self.slot(seq) {
            Some(t) => {
                let b = &mut t.blocked[point as usize];
                debug_assert!(
                    b.cycles != 0 || (!b.rule.is_empty() && b.first_cycle == first_cycle),
                    "µop {seq}'s first {} denial (cycle {first_cycle}) is not in the tick of its \
                     first park (cycle {}, rule {:?})",
                    point.name(),
                    b.first_cycle,
                    b.rule
                );
                b.cycles += cycles;
                b.last_cycle = first_cycle + cycles - 1;
            }
            None => self.overflow_blocked[point as usize] += cycles,
        }
    }

    /// Seals the recording into an immutable [`Trace`].
    pub fn finish(self, cycles: u64) -> Trace {
        Trace {
            policy: self.policy,
            uops: self.uops,
            dropped: self.dropped,
            overflow_blocked: self.overflow_blocked,
            fetch_groups: self.fetch_groups,
            cycles,
        }
    }
}

/// A sealed pipeline trace, exported from
/// [`SimResult::trace`](crate::SimResult).
#[derive(Clone, Debug)]
pub struct Trace {
    /// Name of the defense policy the run used.
    pub policy: String,
    /// Per-µop lifecycle records, in `seq` order.
    pub uops: Vec<UopTrace>,
    /// µops beyond the [`TRACE_LIMIT`] cap (not recorded).
    pub dropped: u64,
    /// Blocked cycles attributed to dropped µops, per gate.
    pub overflow_blocked: [u64; 3],
    /// Front-end fetch groups in fetch order (one per productive fetch
    /// cycle, capped at the recording limit). Every renamed µop belongs
    /// to exactly one group; group sizes are bounded by the fetch width.
    pub fetch_groups: Vec<FetchGroupEvent>,
    /// Total cycles of the run.
    pub cycles: u64,
}

impl Trace {
    /// Total defense-blocked cycles per gate, **including** µops past
    /// the recording cap — reconciles exactly with
    /// `Stats::{exec,wakeup,resolve}_blocked_cycles`.
    pub fn blocked_totals(&self) -> [u64; 3] {
        let mut totals = self.overflow_blocked;
        for u in &self.uops {
            for (t, b) in totals.iter_mut().zip(&u.blocked) {
                *t += b.cycles;
            }
        }
        totals
    }

    /// The defense-decision audit log: one record per (µop, gate) the
    /// policy denied at least once, in µop age order.
    pub fn audit(&self) -> Vec<AuditRecord> {
        let mut out = Vec::new();
        for u in &self.uops {
            for point in BlockPoint::ALL {
                let b = &u.blocked[point as usize];
                if b.cycles == 0 {
                    continue;
                }
                out.push(AuditRecord {
                    seq: u.seq,
                    idx: u.idx,
                    pc: u.pc,
                    disasm: u.disasm.clone(),
                    point,
                    rule: b.rule,
                    cycles: b.cycles,
                    first_cycle: b.first_cycle,
                    last_cycle: b.last_cycle,
                    committed: u.commit_cycle.is_some(),
                });
            }
        }
        out
    }

    /// Blocked cycles aggregated per `(gate, rule)`, ordered by first
    /// appearance — the per-rule cost breakdown.
    pub fn blocked_by_rule(&self) -> Vec<(BlockPoint, &'static str, u64)> {
        let mut out: Vec<(BlockPoint, &'static str, u64)> = Vec::new();
        for u in &self.uops {
            for point in BlockPoint::ALL {
                let b = &u.blocked[point as usize];
                if b.cycles == 0 {
                    continue;
                }
                match out.iter_mut().find(|(p, r, _)| *p == point && *r == b.rule) {
                    Some((_, _, c)) => *c += b.cycles,
                    None => out.push((point, b.rule, b.cycles)),
                }
            }
        }
        out
    }

    /// A stable root-cause signature for violation triage: the *set* of
    /// `(gate, rule)` pairs the defense fired during the run plus the
    /// set of squash causes observed, both sorted — cycle counts, µop
    /// identities, and event order are deliberately excluded, so two
    /// runs that leak through the same mechanism produce the same
    /// signature even when their inputs (and therefore their exact
    /// timings) differ. Campaign triage keys its dedup buckets on this
    /// string: one root cause, one bucket.
    pub fn audit_signature(&self) -> String {
        let rules = self.fired_rules();
        let causes = self.squash_causes();
        format!("rules[{}] squashes[{}]", rules.join(","), causes.join(","))
    }

    /// The sorted, deduplicated set of `"{gate}/{rule}"` names of the
    /// rules that held a µop at a gate in the run — the other axis of the
    /// campaign engine's coverage map.
    pub fn fired_rules(&self) -> Vec<String> {
        let mut rules: Vec<String> = self
            .blocked_by_rule()
            .iter()
            .map(|(point, rule, _)| format!("{}/{rule}", point.name()))
            .collect();
        rules.sort();
        rules.dedup();
        rules
    }

    /// The sorted, deduplicated set of squash-cause names observed in
    /// the run — one axis of the campaign engine's coverage map.
    pub fn squash_causes(&self) -> Vec<&'static str> {
        let mut causes: Vec<&'static str> = self
            .uops
            .iter()
            .filter_map(|u| u.squash.map(|s| squash_name(s.cause)))
            .collect();
        causes.sort();
        causes.dedup();
        causes
    }

    /// Renders the defense-decision audit log as text (at most
    /// `max_records` rows, plus a per-rule summary and exact totals).
    pub fn render_audit(&self, max_records: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let totals = self.blocked_totals();
        let _ = writeln!(
            out,
            "defense audit: policy={} exec_blocked={} wakeup_blocked={} resolve_blocked={}",
            self.policy, totals[0], totals[1], totals[2]
        );
        for (point, rule, cycles) in self.blocked_by_rule() {
            let _ = writeln!(out, "  rule {}/{rule}: {cycles} cycles", point.name());
        }
        let audit = self.audit();
        for rec in audit.iter().take(max_records) {
            let _ = writeln!(
                out,
                "  seq={} idx={} pc={:#x} {} <{}> held {} cycles @{}..{} by {} ({})",
                rec.seq,
                rec.idx,
                rec.pc,
                rec.disasm,
                rec.point.name(),
                rec.cycles,
                rec.first_cycle,
                rec.last_cycle,
                rec.rule,
                if rec.committed {
                    "committed"
                } else {
                    "squashed"
                },
            );
        }
        if audit.len() > max_records {
            let _ = writeln!(out, "  ... {} more records", audit.len() - max_records);
        }
        out
    }

    /// Renders a Konata-style text pipeline diagram of the **last**
    /// `max_uops` recorded µops (the window that usually contains the
    /// behaviour of interest), at most `width` timeline columns.
    ///
    /// Lane characters: `f` frontend (fetch→rename), `.` waiting in the
    /// ROB, `E` executing, `-` complete but not committed, `C` commit,
    /// `X` squash; a trailing `+` marks truncation at `width`. Blocked
    /// µops carry a `[gate:rule xN]` annotation.
    pub fn render_pipeline(&self, max_uops: usize, width: usize) -> String {
        use std::fmt::Write;
        let width = width.max(8);
        let window = &self.uops[self.uops.len().saturating_sub(max_uops)..];
        let Some(origin) = window.iter().map(|u| u.fetch_cycle).min() else {
            return String::from("(empty trace)\n");
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pipeline trace: policy={} ({} uops shown of {}, cycle origin {})",
            self.policy,
            window.len(),
            self.uops.len(),
            origin
        );
        for u in window {
            let end_cycle = u
                .commit_cycle
                .or(u.squash.map(|s| s.cycle))
                .or(u.complete_cycle)
                .unwrap_or(u.rename_cycle);
            let mut lane = String::new();
            let start = (u.fetch_cycle - origin) as usize;
            let mut truncated = false;
            for _ in 0..start.min(width) {
                lane.push(' ');
            }
            let mut col = start;
            let mut push = |c: char, lane: &mut String| {
                if col < width {
                    lane.push(c);
                } else {
                    truncated = true;
                }
                col += 1;
            };
            for cycle in u.fetch_cycle..=end_cycle {
                let c = if cycle < u.rename_cycle {
                    'f'
                } else if Some(cycle) == u.commit_cycle {
                    'C'
                } else if u.squash.is_some_and(|s| s.cycle == cycle) {
                    'X'
                } else if u.issue_cycle.is_some_and(|i| cycle >= i)
                    && u.complete_cycle.is_none_or(|d| cycle < d)
                {
                    'E'
                } else if u.complete_cycle.is_some_and(|d| cycle >= d) {
                    '-'
                } else {
                    '.'
                };
                push(c, &mut lane);
            }
            if truncated {
                lane.truncate(width);
                lane.push('+');
            }
            let mut note = String::new();
            for point in BlockPoint::ALL {
                let b = &u.blocked[point as usize];
                if b.cycles > 0 {
                    let _ = write!(note, " [{}:{} x{}]", point.name(), b.rule, b.cycles);
                }
            }
            if let Some(s) = u.squash {
                let _ = write!(note, " [squash:{}]", squash_name(s.cause));
            }
            let _ = writeln!(
                out,
                "{:>6} {:#08x} {:<24} |{lane}|{note}",
                u.seq, u.pc, u.disasm
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "({} uops dropped past the {TRACE_LIMIT}-uop trace limit)",
                self.dropped
            );
        }
        out
    }

    /// Serializes the trace as Chrome `chrome://tracing` / Perfetto
    /// trace-event JSON. Cycles are mapped to microseconds (1 cycle =
    /// 1 µs). Each µop emits one complete (`"ph":"X"`) event per
    /// pipeline segment; squashes become instant events; defense blocks
    /// become complete events on the `defense` thread lane.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for u in &self.uops {
            let lane = 1 + (u.seq - 1) % 64; // compact row reuse
            let mut span = |name: &str, start: u64, end: u64| {
                events.push(Json::obj([
                    ("name", Json::str(format!("{name} {}", u.disasm))),
                    ("cat", Json::str(name.to_string())),
                    ("ph", Json::str("X")),
                    ("ts", Json::U64(start)),
                    ("dur", Json::U64(end.saturating_sub(start).max(1))),
                    ("pid", Json::U64(0)),
                    ("tid", Json::U64(lane)),
                    (
                        "args",
                        Json::obj([
                            ("seq", Json::U64(u.seq)),
                            ("idx", Json::U64(u.idx as u64)),
                            ("pc", Json::str(format!("{:#x}", u.pc))),
                        ]),
                    ),
                ]));
            };
            span("frontend", u.fetch_cycle, u.rename_cycle);
            if let Some(issue) = u.issue_cycle {
                span("queue", u.rename_cycle, issue);
                span("execute", issue, u.complete_cycle.unwrap_or(issue + 1));
            }
            if let (Some(done), Some(commit)) = (u.complete_cycle, u.commit_cycle) {
                span("commit-wait", done, commit);
            }
            if let Some(s) = u.squash {
                events.push(Json::obj([
                    (
                        "name",
                        Json::str(format!("squash:{}", squash_name(s.cause))),
                    ),
                    ("cat", Json::str("squash")),
                    ("ph", Json::str("i")),
                    ("s", Json::str("t")),
                    ("ts", Json::U64(s.cycle)),
                    ("pid", Json::U64(0)),
                    ("tid", Json::U64(lane)),
                ]));
            }
        }
        for rec in self.audit() {
            events.push(Json::obj([
                (
                    "name",
                    Json::str(format!("{}:{}", rec.point.name(), rec.rule)),
                ),
                ("cat", Json::str("defense")),
                ("ph", Json::str("X")),
                ("ts", Json::U64(rec.first_cycle)),
                ("dur", Json::U64(rec.last_cycle - rec.first_cycle + 1)),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(0)),
                (
                    "args",
                    Json::obj([
                        ("seq", Json::U64(rec.seq)),
                        ("uop", Json::str(rec.disasm.clone())),
                        ("cycles", Json::U64(rec.cycles)),
                    ]),
                ),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("policy", Json::str(self.policy.clone())),
                    ("cycles", Json::U64(self.cycles)),
                    ("dropped_uops", Json::U64(self.dropped)),
                ]),
            ),
        ])
        .render_pretty()
    }
}

fn squash_name(kind: SquashKind) -> &'static str {
    match kind {
        SquashKind::Branch => "branch",
        SquashKind::MemOrder => "memory-order",
        SquashKind::DivFault => "div-fault",
    }
}
