//! The speculative, out-of-order core.
//!
//! A gem5-O3-style pipeline: fetch (with TAGE/BTB/RSB prediction and a
//! constant front-end depth), rename (rename map, physical register file,
//! free list, and ProtISA's rename-map protection bits), dispatch into
//! a reorder buffer with load/store-queue accounting, an issue window,
//! execution with per-FU latencies (including a blocking, operand-
//! dependent divider), store-to-load forwarding with memory-order
//! speculation (and violation squashes), delayed branch resolution, and
//! in-order commit.
//!
//! The active [`DefensePolicy`] is consulted at every security-relevant
//! point; the unsafe baseline is the policy that never blocks anything.

use crate::defense::{
    BlockPoint, DefensePolicy, Gate, RegTags, Seq, SpecFrontier, SquashKind, NO_ROOT,
};
use crate::profile::{Profiler, Section};
use crate::sched::{FetchEntry, Scheduler, SetId, Slot, EXEC_PARKED};
use crate::trace::{Trace, Tracer};
use crate::{Btb, Rsb, TagePredictor};
use crate::{Cache, CoreConfig, MemProtTracking, Stats};
use protean_arch::{ArchState, Memory, ProtState};
use protean_isa::{
    alu_eval, div_eval, DecodedProgram, Flags, InlineVec, Inst, Op, Operand, Program, Reg, Width,
};
use std::collections::VecDeque;

/// Per-destination rename bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
pub struct DstInfo {
    /// Architectural register written.
    pub arch: Reg,
    /// Newly allocated physical register.
    pub new_phys: usize,
    /// Previous mapping (restored on squash, freed on commit).
    pub prev_phys: usize,
    /// Previous rename-map protection bit (restored on squash).
    pub prev_prot: bool,
    /// The computed result (valid once executed).
    pub value: u64,
}

/// Memory-access state of a load/store µop.
#[derive(Clone, Debug)]
pub struct MemState {
    /// Effective address (set at execute).
    pub addr: Option<u64>,
    /// Access size in bytes.
    pub size: u64,
    /// Load: value read. Store: data value (once captured).
    pub value: u64,
    /// Store: data operand captured.
    pub data_ready: bool,
    /// Store: LSQ protection bit of the data operand (ProtISA §IV-C2b).
    pub data_prot: bool,
    /// Store: taint root of the data operand.
    pub data_yrot: Seq,
    /// Store: value taint of the data operand.
    pub data_taint: bool,
    /// Load: the store it forwarded from, if any.
    pub fwd_from: Option<Seq>,
    /// Load: forwarding store's data taint root (ProtTrack §VI-B2c).
    pub fwd_data_yrot: Seq,
    /// Load: forwarding store's value taint.
    pub fwd_data_taint: bool,
}

/// µop lifecycle in the backend.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UopStatus {
    /// Dispatched, waiting for operands / a port / the defense.
    Waiting,
    /// Executing; completes at the given cycle.
    Executing(u64),
    /// Store that computed its address but awaits its data operand.
    WaitingData,
    /// Finished execution.
    Done,
}

/// An in-flight µop: the unit all [`DefensePolicy`] hooks operate on.
///
/// Plain data with no drop glue: rename writes a µop once into its ROB
/// ring slot, every stage then reads and updates it there, and the slot
/// is reused by a later rename without a drop (commit and squash only
/// move the ring's head and tail).
///
/// `repr(C)` pins the declaration order: the load/store disambiguation
/// walks (`execute_load` / `execute_store`) visit in-flight stores and
/// loads touching only `seq`, `inst`, and `mem`, so those lead the
/// struct and the bulky inline arrays (`srcs`, `dsts`, stage timing)
/// trail it — a walk reads the first couple of cache lines of each
/// slot, never the tail.
#[derive(Clone, Debug)]
#[repr(C)]
pub struct DynInst {
    /// Global sequence number (1-based; age order).
    pub seq: Seq,
    /// Static instruction index.
    pub idx: u32,
    /// Program counter.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Memory state for loads/stores.
    pub mem: Option<MemState>,
    /// Lifecycle status.
    pub status: UopStatus,
    /// Predicted next instruction index (branches; `None` = predicted
    /// stop).
    pub pred_next: Option<u32>,
    /// For conditional branches: predicted direction.
    pub pred_taken: bool,
    /// Actual next index once executed (`Some(None)` = invalid target).
    pub actual_next: Option<Option<u32>>,
    /// Actual direction (conditional branches).
    pub actual_taken: bool,
    /// Whether this branch was discovered mispredicted at execute.
    pub mispredicted: bool,
    /// Whether this branch has resolved (squash initiated if needed).
    pub resolved: bool,
    /// TAGE global-history snapshot from before this µop's fetch.
    pub hist_snapshot: u64,
    /// RSB checkpoint id from before this µop's fetch
    /// ([`Rsb::checkpoint`]): every µop fetched between two RSB
    /// mutations shares one id.
    pub rsb_checkpoint: u32,

    // ---- Defense-generic state --------------------------------------
    /// Any input register protected at rename (ProtISA Def. 1 reg part).
    pub src_prot: bool,
    /// Which renamed sources are *sensitive* (transmitted) under the
    /// policy's transmitter set: bit `i` marks `srcs[i]`. Set at rename;
    /// non-zero exactly for transmitters. The `sensitive_*` helpers
    /// ([`crate::sensitive_phys`] and the rest) read it.
    pub sens_mask: u8,
    /// Load: read protected memory (set at execute; ProtISA Def. 1
    /// memory part).
    pub mem_prot: Option<bool>,
    /// OR of source value taints at rename.
    pub in_taint: bool,
    /// Max of source taint roots at rename.
    pub in_yrot: Seq,
    /// AccessDelay-style: hold dependents until this µop is
    /// non-speculative.
    pub delay_wakeup_nonspec: bool,
    /// ProtTrack store-forwarding rule: hold dependents until this taint
    /// root is non-speculative.
    pub wakeup_hold_root: Seq,
    /// ProtTrack access-predictor decision for loads
    /// (`Some(true)` = predicted *no-access*).
    pub pred_no_access: Option<bool>,
    /// Division µop faulted (zero divisor) — triggers a machine clear at
    /// commit.
    pub div_fault: bool,

    // ---- Timing (the AMuLeT* stage-timing adversary observes these) --
    /// Cycle fetched.
    pub fetch_cycle: u64,
    /// Cycle renamed.
    pub rename_cycle: u64,
    /// Cycle issued (0 until issued).
    pub issue_cycle: u64,
    /// Cycle completed.
    pub complete_cycle: u64,

    // ---- Bulky inline storage, kept at the tail (see struct docs) ----
    /// Renamed sources: (architectural, physical). Inline storage: no
    /// instruction names more than three source registers.
    pub srcs: InlineVec<(Reg, usize), 3>,
    /// Renamed destinations. At most two: the explicit destination plus
    /// the implicit `RFLAGS` write.
    pub dsts: InlineVec<DstInfo, 2>,
}

impl DynInst {
    /// Physical register of architectural source `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a source of this µop. The message carries
    /// the µop's program index and fetch cycle so a failure inside a
    /// parallel campaign is attributable to one generated program (and
    /// through the campaign's seed splitting, to one generator seed).
    pub fn src_phys(&self, reg: Reg) -> usize {
        self.srcs
            .iter()
            .find(|(r, _)| *r == reg)
            .map(|(_, p)| *p)
            .unwrap_or_else(|| {
                panic!(
                    "{reg} is not a source of {} (µop idx={} pc={:#x} seq={} fetched @cycle {})",
                    self.inst, self.idx, self.pc, self.seq, self.fetch_cycle
                )
            })
    }

    /// Whether the µop is a load (including `ret`).
    pub fn is_load(&self) -> bool {
        self.inst.is_load()
    }

    /// Whether the µop is a store (including `call`).
    pub fn is_store(&self) -> bool {
        self.inst.is_store()
    }

    /// The record a ROB slot holds before its first rename.
    fn vacant() -> DynInst {
        DynInst {
            seq: 0,
            idx: 0,
            pc: 0,
            inst: Inst::new(Op::Nop),
            mem: None,
            status: UopStatus::Done,
            pred_next: None,
            pred_taken: false,
            actual_next: None,
            actual_taken: false,
            mispredicted: false,
            resolved: false,
            hist_snapshot: 0,
            rsb_checkpoint: 0,
            src_prot: false,
            sens_mask: 0,
            mem_prot: None,
            in_taint: false,
            in_yrot: NO_ROOT,
            delay_wakeup_nonspec: false,
            wakeup_hold_root: NO_ROOT,
            pred_no_access: None,
            div_fault: false,
            fetch_cycle: 0,
            rename_cycle: 0,
            issue_cycle: 0,
            complete_cycle: 0,
            srcs: InlineVec::new(),
            dsts: InlineVec::new(),
        }
    }
}

// ROB slots are overwritten in place and reused without a drop.
const _: () = assert!(!std::mem::needs_drop::<DynInst>());

/// Why the simulation ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimExit {
    /// A `halt` committed.
    Halted,
    /// The committed-instruction limit was reached.
    MaxInsts,
    /// The cycle limit was reached.
    MaxCycles,
    /// A committed indirect branch had an out-of-range target.
    BadControlFlow,
    /// The watchdog fired (no commit for a long time) — a pipeline bug.
    Deadlock,
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Why the run ended.
    pub exit: SimExit,
    /// Statistics.
    pub stats: Stats,
    /// Per-committed-µop stage timing: `[pc, fetch, rename, issue,
    /// complete, commit]` — the AMuLeT\* timing adversary's observation
    /// (paper §VII-B1d). Recorded only when tracing is enabled.
    pub timing: Vec<[u64; 6]>,
    /// Adversary-visible cache tag state at the end of the run (L1D then
    /// L2) — the AMuLeT default adversary (§VII-B2).
    pub cache_obs: Vec<u64>,
    /// Committed instruction indices (tracing only).
    pub committed_idxs: Vec<u32>,
    /// Final architectural register values.
    pub final_regs: [u64; Reg::COUNT],
    /// Final rename-map protection bits (ProtISA's architectural
    /// register ProtSet as tracked by hardware, §IV-C1).
    pub final_reg_prot: [bool; Reg::COUNT],
    /// Backend-state dump captured when the watchdog fired
    /// ([`SimExit::Deadlock`] only). Rendered to a string so a parallel
    /// campaign runner can report it atomically (in its panic message)
    /// instead of letting worker dumps interleave on stderr.
    pub deadlock_dump: Option<String>,
    /// Per-µop pipeline trace and defense-decision audit log, recorded
    /// when [`CoreConfig::trace`] is set (see
    /// [`crate::trace`]). `None` when tracing is disabled.
    pub trace: Option<Trace>,
}

/// One simulated out-of-order core.
pub struct Core<'a> {
    cfg: CoreConfig,
    program: &'a Program,
    policy: Box<dyn DefensePolicy>,

    cycle: u64,
    next_seq: Seq,
    halted: Option<SimExit>,

    // Front end.
    fetch_idx: Option<u32>,
    /// Fetched µops in program order, oldest first; each becomes
    /// rename-ready at its own [`FetchEntry::ready_cycle`].
    fetch_queue: VecDeque<FetchEntry>,
    fetch_stalled_until: u64,
    /// Decode-once µop table under the active policy's transmitter set,
    /// rebuilt at every [`Core::reset`] (the program reference may
    /// point at reused storage, so no caching on pointer identity).
    decoded: DecodedProgram,
    /// Static index whose L1I miss has already been booked and filled:
    /// the post-stall re-fetch must not access the cache again (it would
    /// book a spurious hit and bump the LRU clock twice).
    l1i_paid: Option<u32>,
    tage: TagePredictor,
    btb: Btb,
    rsb: Rsb,

    // Rename.
    rename_map: [usize; Reg::COUNT],
    prot_map: [bool; Reg::COUNT],
    free_list: VecDeque<usize>,

    // Backend.
    /// The reorder buffer: one record per ring slot claimed so far,
    /// written in place at rename. The scheduler owns the ring's
    /// geometry (head, tail and the slot of every age offset); a slot is
    /// a µop's only address.
    rob: Vec<DynInst>,
    prf_value: Vec<u64>,
    prf_ready: Vec<bool>,
    tags: RegTags,
    div_busy_until: u64,
    /// Event-driven scheduling state (see [`crate::sched`]): completion
    /// wheel, ready/waiting/waiter sets, per-register dependent lists.
    sched: Scheduler,
    /// Speculative-frontier snapshot, cached per tick and invalidated on
    /// every event that can move it (dispatch, resolve, commit, squash).
    /// Each pipeline stage still takes one snapshot at stage start, as
    /// the per-stage scans always did.
    cached_frontier: Option<SpecFrontier>,
    /// This tick's gate denials, replayed by idle-cycle fast-forward.
    denials: Denials,
    /// The [`RegTags::generation`] the parked sets were last valid for:
    /// when the tags move past it, every parked µop is un-parked.
    parked_tag_gen: u64,
    /// Scratch for draining the completion wheel.
    completions: Vec<Slot>,
    /// Scratch for draining dependent lists in `publish_ready`.
    dep_scratch: Vec<Slot>,
    /// Scratch for sorting each cache set's resident ways by recency in
    /// the end-of-run `tag_observation_into` calls (reused across runs;
    /// the observation itself goes straight into the `SimResult` vector).
    obs_scratch: Vec<(u64, u64)>,

    // Memory.
    mem: Memory,
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    l3: Cache,
    /// The byte-granular memory ProtSet of
    /// [`MemProtTracking::PerfectShadow`] (its register bits are unused).
    shadow_prot: ProtState,

    // Results.
    stats: Stats,
    committed_regs: [u64; Reg::COUNT],
    timing: Vec<[u64; 6]>,
    committed_idxs: Vec<u32>,
    record_traces: bool,
    /// `Some` only when µop-level tracing is enabled ([`CoreConfig::trace`]):
    /// every event site is one `Option` check when off.
    tracer: Option<Box<Tracer>>,
    no_commit_cycles: u64,
    /// Per-core section profiler (see [`crate::profile`]), flushed into
    /// the process-wide totals at the end of every run.
    profile: Profiler,
}

const WATCHDOG_CYCLES: u64 = 100_000;

/// One tick's gate denials: what each gate's stage counted as denied
/// this cycle. A tick without progress repeats exactly, so idle-cycle
/// fast-forward charges the ledger once per skipped cycle.
#[derive(Default)]
struct Denials {
    /// Per gate ([`BlockPoint`] order), the number of µops denied.
    count: [u64; 3],
    /// Per gate, their slots, recorded only while tracing.
    slots: [Vec<Slot>; 3],
}

impl Denials {
    fn clear(&mut self) {
        self.count = [0; 3];
        self.slots.iter_mut().for_each(Vec::clear);
    }
}

impl<'a> Core<'a> {
    /// Creates a core running `program` from `initial` architectural
    /// state under the given defense policy.
    pub fn new(
        program: &'a Program,
        cfg: CoreConfig,
        policy: Box<dyn DefensePolicy>,
        initial: &ArchState,
    ) -> Core<'a> {
        let n_phys = cfg.phys_regs.max(Reg::COUNT * 2);
        let meta_fill = policy.l1d_meta_fill();
        // The largest completion latency any µop can schedule, for the
        // calendar queue's ring sizing: a DRAM-missing load (or any cache
        // hit, +1 for the load pipe), the multiplier, and the worst-case
        // divider (base + 64 significant bits / 2; faults use the short
        // fault latency).
        let max_completion_latency = (1 + cfg.mem_latency)
            .max(1 + cfg.l1d.latency)
            .max(1 + cfg.l2.latency)
            .max(1 + cfg.l3.latency)
            .max(cfg.mul_latency)
            .max(protean_isa::DIV_BASE_LATENCY + 32)
            .max(protean_isa::DIV_FAULT_LATENCY);
        let sched = Scheduler::new(n_phys, cfg.rob_size, max_completion_latency);
        let mut core = Core {
            fetch_idx: None,
            fetch_queue: VecDeque::with_capacity(cfg.fetch_width * 3),
            fetch_stalled_until: 0,
            decoded: DecodedProgram::default(),
            l1i_paid: None,
            tage: TagePredictor::new(),
            btb: Btb::new(cfg.btb_entries),
            rsb: Rsb::new(cfg.rsb_entries),
            rename_map: [0usize; Reg::COUNT],
            prot_map: [true; Reg::COUNT],
            free_list: VecDeque::with_capacity(n_phys),
            rob: Vec::with_capacity(sched.cap()),
            prf_ready: vec![true; n_phys],
            prf_value: vec![0u64; n_phys],
            tags: RegTags::new(n_phys, Reg::COUNT),
            div_busy_until: 0,
            sched,
            cached_frontier: None,
            denials: Denials::default(),
            parked_tag_gen: 0,
            completions: Vec::new(),
            dep_scratch: Vec::new(),
            obs_scratch: Vec::new(),
            mem: Memory::default(),
            l1d: Cache::new(cfg.l1d, meta_fill),
            l1i: Cache::new(cfg.l1i, true),
            l2: Cache::new(cfg.l2, true),
            l3: Cache::new(cfg.l3, true),
            shadow_prot: ProtState::new(),
            stats: Stats::default(),
            committed_regs: [0u64; Reg::COUNT],
            timing: Vec::new(),
            committed_idxs: Vec::new(),
            record_traces: false,
            tracer: None,
            cycle: 0,
            next_seq: 1,
            halted: None,
            cfg,
            program,
            policy,
            no_commit_cycles: 0,
            profile: Profiler::default(),
        };
        core.reinit(initial);
        core
    }

    /// Rearms this core to run `program` from `initial` state under
    /// `policy`, reusing every backing allocation (ROB, register file,
    /// caches, predictors, scheduler, scratch buffers).
    ///
    /// Equivalent to building a fresh core with [`Core::new`] under the
    /// same `CoreConfig`: every piece of state `new` initialises is
    /// re-initialised here, so a reset core produces byte-identical
    /// [`SimResult`]s (asserted by the `core_reset` integration test).
    /// The core configuration is fixed at construction; campaign arenas
    /// key reuse on the config staying the same.
    pub fn reset(
        &mut self,
        program: &'a Program,
        policy: Box<dyn DefensePolicy>,
        initial: &ArchState,
    ) {
        self.program = program;
        self.policy = policy;
        self.reinit(initial);
    }

    /// State (re-)initialisation shared by [`Core::new`] and
    /// [`Core::reset`]: everything `self.cfg`-sized is assumed allocated;
    /// all mutable simulation state is rebuilt from `initial` and
    /// `self.policy`/`self.program`.
    fn reinit(&mut self, initial: &ArchState) {
        let n_phys = self.prf_value.len();
        self.cycle = 0;
        self.next_seq = 1;
        self.halted = None;
        self.fetch_idx = if self.program.is_empty() {
            None
        } else {
            Some(0)
        };
        self.fetch_queue.clear();
        self.fetch_stalled_until = 0;
        self.decoded
            .rebuild(self.program, &self.policy.transmitters());
        self.l1i_paid = None;
        self.tage.reset();
        self.btb.reset();
        self.rsb.reset();
        for r in Reg::all() {
            self.rename_map[r.index()] = r.index();
        }
        self.prot_map = [true; Reg::COUNT];
        self.free_list.clear();
        self.free_list.extend(Reg::COUNT..n_phys);
        self.prf_value.fill(0);
        for r in Reg::all() {
            self.prf_value[r.index()] = initial.reg(r);
        }
        self.prf_ready.fill(true);
        self.tags.reset(Reg::COUNT);
        self.div_busy_until = 0;
        self.sched.reset();
        self.cached_frontier = None;
        self.denials.clear();
        self.parked_tag_gen = self.tags.generation();
        self.completions.clear();
        self.dep_scratch.clear();
        self.mem.clone_from(&initial.mem);
        let meta_fill = self.policy.l1d_meta_fill();
        self.l1d.reset(meta_fill);
        self.l1i.reset(true);
        self.l2.reset(true);
        self.l3.reset(true);
        self.shadow_prot = ProtState::new();
        self.stats = Stats::default();
        self.committed_regs = initial.regs;
        self.timing.clear();
        self.committed_idxs.clear();
        self.record_traces = false;
        self.tracer = self
            .cfg
            .trace
            .then(|| Box::new(Tracer::new(self.policy.name())));
        self.no_commit_cycles = 0;
    }

    /// Enables recording of the commit-timing trace and committed-index
    /// trace (used by the fuzzer's adversary models).
    pub fn record_traces(&mut self, on: bool) {
        self.record_traces = on;
    }

    /// Runs on a borrowed L3 (multi-core runs share one): `l3` stands
    /// in for this core's own for the whole run and is handed back, in
    /// its post-run state, when the run ends.
    pub(crate) fn run_on_l3(
        &mut self,
        l3: &mut Cache,
        max_insts: u64,
        max_cycles: u64,
    ) -> SimResult {
        std::mem::swap(&mut self.l3, l3);
        let result = self.run_inner(max_insts, max_cycles);
        std::mem::swap(&mut self.l3, l3);
        result
    }

    /// The active defense policy.
    pub fn policy(&self) -> &dyn DefensePolicy {
        &*self.policy
    }

    /// Runs until halt or a limit; returns the result.
    pub fn run(mut self, max_insts: u64, max_cycles: u64) -> SimResult {
        self.run_inner(max_insts, max_cycles)
    }

    /// Runs without consuming the core, so an arena core can be
    /// [`reset`](Core::reset) and reused for the next program. The core
    /// must be freshly constructed or reset; running twice without a
    /// reset would continue from the halted state.
    pub fn run_mut(&mut self, max_insts: u64, max_cycles: u64) -> SimResult {
        self.run_inner(max_insts, max_cycles)
    }

    fn run_inner(&mut self, max_insts: u64, max_cycles: u64) -> SimResult {
        let mut deadlock_dump = None;
        while self.halted.is_none() {
            if self.stats.committed >= max_insts {
                self.halted = Some(SimExit::MaxInsts);
                break;
            }
            if self.cycle >= max_cycles {
                self.halted = Some(SimExit::MaxCycles);
                break;
            }
            if self.no_commit_cycles > WATCHDOG_CYCLES {
                deadlock_dump = Some(self.debug_dump());
                self.halted = Some(SimExit::Deadlock);
                break;
            }
            // Idle-cycle fast-forward after the tick: when a tick changed
            // nothing, every cycle until the next scheduled event is an
            // exact repeat — jump there and bulk-attribute the skipped
            // cycles.
            self.tick();
            if !self.sched.progress() {
                self.profile.enter(Section::FastForward);
                self.fast_forward(max_cycles);
            }
            self.profile.end_tick();
        }
        self.profile.flush();
        let mut stats = std::mem::take(&mut self.stats);
        stats.cycles = self.cycle;
        stats.l1i_hits = self.l1i.hits;
        stats.l1i_misses = self.l1i.misses;
        stats.l1d_hits = self.l1d.hits;
        stats.l1d_misses = self.l1d.misses;
        stats.l2_hits = self.l2.hits;
        stats.l2_misses = self.l2.misses;
        stats.l3_hits = self.l3.hits;
        stats.l3_misses = self.l3.misses;
        stats.iq_hwm = self.sched.iq_hwm();
        stats.wheel_hwm = self.sched.wheel_hwm();
        stats.policy = self.policy.stats();
        // Adversary observation, straight into the result vector (one
        // exact-capacity allocation; the per-set sort uses the arena's
        // reusable scratch instead of allocating per call).
        let mut cache_obs = Vec::with_capacity(
            self.cfg.l1d.sets() * (self.cfg.l1d.ways + 1)
                + 1
                + self.cfg.l2.sets() * (self.cfg.l2.ways + 1),
        );
        self.l1d
            .tag_observation_into(&mut cache_obs, &mut self.obs_scratch);
        cache_obs.push(u64::MAX); // level separator
        self.l2
            .tag_observation_into(&mut cache_obs, &mut self.obs_scratch);
        let trace = self.tracer.take().map(|t| t.finish(self.cycle));
        SimResult {
            exit: self.halted.unwrap(),
            stats,
            timing: std::mem::take(&mut self.timing),
            cache_obs,
            committed_idxs: std::mem::take(&mut self.committed_idxs),
            final_regs: self.committed_regs,
            final_reg_prot: self.prot_map,
            deadlock_dump,
            trace,
        }
    }

    /// Renders backend state (watchdog diagnostics) to a string. Never
    /// printed here: under a parallel campaign, per-worker stderr writes
    /// would interleave into garbage, so the dump travels in
    /// [`SimResult::deadlock_dump`] for the caller to report.
    fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "--- deadlock dump @cycle {} ---", self.cycle);
        let _ = writeln!(
            out,
            "fetch_idx={:?} fq={} free={} lq={} sq={}",
            self.fetch_idx,
            self.fetch_queue.len(),
            self.free_list.len(),
            self.sched.len(SetId::InflightLoads),
            self.sched.len(SetId::InflightStores)
        );
        if let Some(head) = self.fetch_queue.front() {
            let idxs: Vec<u32> = self.fetch_queue.iter().map(|e| e.idx).collect();
            let _ = writeln!(
                out,
                "  fetch queue head ready@{}: {idxs:?}",
                head.ready_cycle
            );
        }
        for off in 0..self.sched.rob_len().min(8) {
            let u = &self.rob[self.sched.slot_at(off)];
            let srcs: Vec<String> = u
                .srcs
                .iter()
                .map(|(r, p)| format!("{r}=p{p}{}", if self.prf_ready[*p] { "+" } else { "-" }))
                .collect();
            let _ = writeln!(
                out,
                "  seq={} idx={} {:?} {} srcs={:?} mem={:?}",
                u.seq,
                u.idx,
                u.status,
                u.inst,
                srcs,
                u.mem.as_ref().map(|m| (m.addr, m.data_ready))
            );
        }
        out
    }

    /// The speculative-frontier snapshot for the current stage, cached
    /// until an event moves it (see [`Core::invalidate_frontier`]). The
    /// oldest unresolved branch comes from the scheduler's ordered set
    /// instead of an O(ROB) scan.
    fn frontier(&mut self) -> SpecFrontier {
        if let Some(fr) = self.cached_frontier {
            return fr;
        }
        let head_seq = if self.sched.rob_len() == 0 {
            Seq::MAX
        } else {
            self.rob[self.sched.head_slot()].seq
        };
        let oldest_unresolved_branch = self
            .sched
            .first(SetId::UnresolvedBranches)
            .map_or(Seq::MAX, |slot| self.rob[slot].seq);
        let fr = SpecFrontier {
            head_seq,
            oldest_unresolved_branch,
            model: self.cfg.speculation,
        };
        self.cached_frontier = Some(fr);
        fr
    }

    /// Drops the cached frontier. Called whenever the ROB head or the
    /// unresolved-branch set may have changed: dispatch, branch
    /// resolution, commit, and squash. Stages that already took their
    /// snapshot keep using it for the rest of the stage — exactly the
    /// one-snapshot-per-stage behaviour of the original scans.
    fn invalidate_frontier(&mut self) {
        self.cached_frontier = None;
    }

    /// Parks the µop in `slot` at `gate` in `parked`, one of the gate's
    /// parked sets, until the frontier point reaches `until`. While
    /// tracing, `rule` (the closed verdict's) is handed to the tracer,
    /// which keeps the first rule it gets per gate: the rule of the
    /// µop's first denial, since a park is always counted as a denial
    /// in the tick that made it (see [`Tracer::on_park`]).
    fn park(
        &mut self,
        gate: BlockPoint,
        parked: SetId,
        slot: Slot,
        until: Seq,
        rule: &'static str,
    ) {
        self.sched.park(gate, parked, slot, until);
        self.profile.gate_park(gate);
        if let Some(t) = self.tracer.as_mut() {
            t.on_park(self.rob[slot].seq, gate, self.cycle, rule);
        }
    }

    /// Records this tick's denials at `gate`: the µops of each parked
    /// set below its age-offset bound, at most `limit` of them, each
    /// denied for this cycle. While tracing, the µops' slots join the
    /// ledger and each denial is traced (under the rule its park handed
    /// the tracer). Debug builds first ask every parked µop's gate: the
    /// check that none passed its lapse point.
    fn record_denials(
        &mut self,
        gate: BlockPoint,
        bounds: &[(SetId, usize)],
        limit: usize,
        #[cfg_attr(not(debug_assertions), allow(unused_variables))] fr: &SpecFrontier,
    ) {
        #[cfg(debug_assertions)]
        self.check_parked(gate, fr);
        let n = bounds
            .iter()
            .map(|&(set, end)| self.sched.count_below(set, end))
            .sum::<usize>()
            .min(limit);
        self.denials.count[gate as usize] = n as u64;
        *self.stats.blocked_cycles_mut(gate) += n as u64;
        let Some(t) = self.tracer.as_mut() else {
            return;
        };
        let slots = &mut self.denials.slots[gate as usize];
        for &(set, end) in bounds {
            self.sched.collect_until(set, end, slots);
        }
        slots.truncate(n);
        for &slot in slots.iter() {
            t.on_block(self.rob[slot].seq, gate, self.cycle, 1);
        }
    }

    /// Debug check that every µop parked at `gate` is still denied
    /// there (see [`denial_rule`]).
    #[cfg(debug_assertions)]
    fn check_parked(&self, gate: BlockPoint, fr: &SpecFrontier) {
        let mut slots = Vec::new();
        for &set in crate::sched::GATES[gate as usize].1 {
            self.sched.collect(set, &mut slots);
        }
        for slot in slots {
            denial_rule(&*self.policy, &self.rob[slot], &self.tags, gate, fr);
        }
    }

    /// Un-parks every parked µop of every gate if a policy wrote tags
    /// that in-flight µops read since the parks were made (see
    /// [`RegTags::generation`]).
    fn unpark_on_tag_write(&mut self) {
        let gen = self.tags.generation();
        if gen != self.parked_tag_gen {
            self.parked_tag_gen = gen;
            let moved = self.sched.unpark_all();
            for gate in BlockPoint::ALL {
                self.profile.gate_unparks(gate, moved[gate as usize]);
            }
        }
    }

    /// Runs `f` inside section `s` (see [`crate::profile`]): component
    /// models and execution are entered from the stage that calls them,
    /// which resumes when `f` returns. Metadata work the defense
    /// policies do through their `&Cache` hooks is *not* routed through
    /// here and stays attributed to the calling stage.
    #[inline]
    fn with_comp<R>(&mut self, s: Section, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.profile.enter(s);
        let r = f(self);
        self.profile.resume(prev);
        r
    }

    /// One cycle; each stage boundary enters its profiler section.
    fn tick(&mut self) {
        self.profile.begin_tick(self.cycle, Section::Wakeup);
        self.sched.clear_progress();
        self.denials.clear();
        self.complete_and_wakeup();
        self.profile.enter(Section::StoreData);
        self.capture_store_data();
        self.profile.enter(Section::Resolve);
        self.resolve_branches();
        self.profile.enter(Section::Commit);
        self.commit();
        self.profile.enter(Section::Issue);
        self.issue();
        self.profile.enter(Section::Rename);
        self.rename();
        self.profile.enter(Section::Fetch);
        self.fetch();
        self.cycle += 1;
        self.no_commit_cycles += 1;
    }

    /// Idle-cycle fast-forward. Called after a tick that changed no
    /// simulator state: defense decisions are pure functions of (µop,
    /// tags, frontier), all of which only change on progress events, so
    /// every cycle until the next scheduled event is an exact repeat of
    /// the one just simulated. Jump straight to that event — the
    /// earliest completion on the wheel, the divider or front-end stall
    /// deadline, or the fetch queue's next ready entry — and
    /// bulk-attribute the skipped cycles' no-commit accounting and
    /// blocked cycles (the just-simulated tick's denial ledger, once per
    /// skipped cycle), so `Stats` and the trace stay byte-identical with
    /// per-cycle simulation. The jump is capped so the max-cycles and
    /// watchdog exits still fire at exactly the cycle they always did.
    /// Stale wheel entries from squashed µops can only make the jump
    /// shorter than necessary (the tick at the stale event discards it,
    /// idles, and fast-forwards again), never longer.
    fn fast_forward(&mut self, max_cycles: u64) {
        // `tick` has already advanced `self.cycle`, so a deadline equal
        // to `cycle` means the *upcoming* tick behaves differently from
        // the one just simulated — it must count as a wake point (making
        // `target == cycle`, i.e. no jump). Only deadlines strictly in
        // the past are spent.
        let cycle = self.cycle;
        let mut wake = u64::MAX;
        if let Some(c) = self.sched.next_completion_cycle() {
            wake = wake.min(c);
        }
        if self.fetch_stalled_until >= cycle {
            wake = wake.min(self.fetch_stalled_until);
        }
        if let Some(head) = self.fetch_queue.front() {
            if head.ready_cycle >= cycle {
                wake = wake.min(head.ready_cycle);
            }
        }
        if self.div_busy_until >= cycle {
            wake = wake.min(self.div_busy_until);
        }
        // Never jump past an exit condition.
        let nc_budget = (WATCHDOG_CYCLES + 1).saturating_sub(self.no_commit_cycles);
        let target = wake.min(max_cycles).min(cycle.saturating_add(nc_budget));
        if target <= cycle {
            return;
        }
        let delta = target - cycle;
        // Each skipped tick would deny exactly what the just-simulated
        // tick denied.
        for gate in BlockPoint::ALL {
            *self.stats.blocked_cycles_mut(gate) += delta * self.denials.count[gate as usize];
        }
        if let Some(t) = self.tracer.as_mut() {
            for gate in BlockPoint::ALL {
                for &slot in &self.denials.slots[gate as usize] {
                    t.on_block(self.rob[slot].seq, gate, cycle, delta);
                }
            }
        }
        self.no_commit_cycles += delta;
        self.cycle = target;
    }

    // ------------------------------------------------------------------
    // Completion & wakeup
    // ------------------------------------------------------------------

    /// Whether source `(r, p)` of `u` lets it issue: ready, or a
    /// store's pure data operand, which may lag (split STA/STD; captured
    /// later by `capture_store_data`).
    #[inline]
    fn src_ready(&self, u: &DynInst, r: Reg, p: usize) -> bool {
        self.prf_ready[p]
            || (u.is_store() && {
                let d = self.decoded.get(u.idx);
                d.store_data_reg == Some(r) && !d.addr_regs.contains(r)
            })
    }

    /// Exact operand-readiness predicate of the issue stage.
    fn operands_ready(&self, u: &DynInst) -> bool {
        u.srcs.iter().all(|&(r, p)| self.src_ready(u, r, p))
    }

    /// A source register that keeps [`Core::operands_ready`] false — the
    /// dependent list the µop parks on until that register is written.
    fn first_unready_src(&self, u: &DynInst) -> Option<usize> {
        u.srcs
            .iter()
            .find(|&&(r, p)| !self.src_ready(u, r, p))
            .map(|&(_, p)| p)
    }

    /// Marks physical register `phys` ready and drains its dependent
    /// list: each parked µop either becomes issue-ready or re-parks on
    /// its next unready source.
    fn publish_ready(&mut self, phys: usize) {
        self.prf_ready[phys] = true;
        let mut deps = std::mem::take(&mut self.dep_scratch);
        deps.clear();
        self.sched.drain_deps(phys, &mut deps);
        // Drained dependents are live: squash unlinks eagerly.
        for &slot in &deps {
            let u = &self.rob[slot];
            if u.status != UopStatus::Waiting {
                continue;
            }
            if self.operands_ready(u) {
                self.sched.insert(SetId::IssueReady, slot);
            } else {
                let p = self
                    .first_unready_src(u)
                    .expect("not-ready µop has an unready source");
                self.sched.register_dep(p, slot);
            }
        }
        self.dep_scratch = deps;
    }

    fn complete_and_wakeup(&mut self) {
        let fr = self.frontier();
        let cycle = self.cycle;
        // Completions due this cycle, straight off the event wheel.
        let mut completions = std::mem::take(&mut self.completions);
        self.sched.pop_completions(cycle, &mut completions);
        // The wheel yields only live µops (stale events are filtered).
        for &slot in &completions {
            let u = &mut self.rob[slot];
            let UopStatus::Executing(done) = u.status else {
                continue;
            };
            debug_assert!(done <= cycle, "completion event fired early");
            u.complete_cycle = cycle;
            // Stores without data keep waiting for their data operand;
            // everything else is done.
            let store_needs_data = u.is_store() && u.mem.as_ref().is_some_and(|m| !m.data_ready);
            u.status = if store_needs_data {
                UopStatus::WaitingData
            } else {
                UopStatus::Done
            };
            let has_dsts = !u.dsts.is_empty();
            // Write results to the PRF.
            for d in &u.dsts {
                self.prf_value[d.new_phys] = d.value;
            }
            if !store_needs_data && has_dsts {
                self.sched.insert(SetId::WakeupPending, slot);
            }
            if let Some(t) = self.tracer.as_mut() {
                t.on_complete(u.seq, cycle);
            }
            self.sched.mark_progress();
        }
        self.completions = completions;
        // Wakeup: grant or park every pending candidate, then count every
        // parked one — exactly the denials of the old full-ROB scan, which
        // asked the policy again each cycle. A parked µop is not asked
        // until the frontier reaches its lapse point.
        self.unpark_on_tag_write();
        if !self.sched.is_empty(SetId::WakeupParked) {
            let n = self.sched.unpark_due(BlockPoint::Wakeup, fr.point());
            self.profile.gate_unparks(BlockPoint::Wakeup, n);
        }
        let mut scratch = std::mem::take(&mut self.sched.scratch);
        if !self.sched.is_empty(SetId::WakeupPending) {
            scratch.clear();
            self.sched.collect(SetId::WakeupPending, &mut scratch);
            for &slot in &scratch {
                self.profile.gate_eval(BlockPoint::Wakeup);
                match self.policy.may_wakeup(&self.rob[slot], &self.tags, &fr) {
                    Gate::Open => {
                        for k in 0..self.rob[slot].dsts.len() {
                            let phys = self.rob[slot].dsts[k].new_phys;
                            self.publish_ready(phys);
                        }
                        self.sched.remove(SetId::WakeupPending, slot);
                        self.sched.mark_progress();
                    }
                    Gate::Closed { until, rule } => {
                        self.park(BlockPoint::Wakeup, SetId::WakeupParked, slot, until, rule);
                    }
                }
            }
        }
        self.sched.scratch = scratch;
        if !self.sched.is_empty(SetId::WakeupParked) {
            let end = self.sched.rob_len();
            self.record_denials(
                BlockPoint::Wakeup,
                &[(SetId::WakeupParked, end)],
                usize::MAX,
                &fr,
            );
        }
    }

    fn capture_store_data(&mut self) {
        // Candidates: stores/calls that computed their address but have
        // not yet captured their data — exactly the store-waiter set.
        if self.sched.is_empty(SetId::StoreWaiters) {
            return;
        }
        let mut scratch = std::mem::take(&mut self.sched.scratch);
        scratch.clear();
        self.sched.collect(SetId::StoreWaiters, &mut scratch);
        for &slot in &scratch {
            let u = &self.rob[slot];
            // Find the data operand.
            let (value, prot, yrot, taint, ready) = match u.inst.op {
                Op::Store { src, .. } => match src {
                    Operand::Imm(v) => (v, false, NO_ROOT, false, true),
                    Operand::Reg(r) => {
                        let p = u.src_phys(r);
                        if self.prf_ready[p] {
                            (
                                self.prf_value[p],
                                self.tags.prot[p],
                                self.tags.yrot[p],
                                self.tags.taint[p],
                                true,
                            )
                        } else {
                            (0, false, NO_ROOT, false, false)
                        }
                    }
                },
                // `call` stores its (public, constant) return address.
                Op::Call { .. } => (self.program.pc_of(u.idx + 1), false, NO_ROOT, false, true),
                _ => unreachable!("store waiter is a store or call"),
            };
            if ready {
                let u = &mut self.rob[slot];
                let m = u.mem.as_mut().expect("store has mem state");
                m.value = value;
                m.data_prot = prot;
                m.data_yrot = yrot;
                m.data_taint = taint;
                m.data_ready = true;
                if matches!(u.status, UopStatus::WaitingData) {
                    u.status = UopStatus::Done;
                    if !u.dsts.is_empty() {
                        self.sched.insert(SetId::WakeupPending, slot);
                    }
                }
                self.sched.remove(SetId::StoreWaiters, slot);
                self.sched.mark_progress();
            }
        }
        self.sched.scratch = scratch;
    }

    // ------------------------------------------------------------------
    // Branch resolution & squash
    // ------------------------------------------------------------------

    /// The resolve stage: squashes on the oldest resolve candidate
    /// (executed, unresolved, mispredicted branch) whose gate is open. A
    /// closed verdict parks the candidate until the frontier reaches its
    /// lapse point; every parked candidate older than the chosen branch
    /// counts as denied this cycle — exactly the candidates the old
    /// per-cycle walk asked about and denied before it found one.
    fn resolve_branches(&mut self) {
        if self.sched.is_empty(SetId::ResolvePending) && self.sched.is_empty(SetId::ResolveParked) {
            return;
        }
        self.unpark_on_tag_write();
        let fr = self.frontier();
        if !self.sched.is_empty(SetId::ResolveParked) {
            let n = self.sched.unpark_due(BlockPoint::Resolve, fr.point());
            self.profile.gate_unparks(BlockPoint::Resolve, n);
        }
        // The buggy arbiter (§VII-B4b) considers only the oldest
        // candidate, pending or parked, regardless of whether the
        // defense allows it to resolve — an older protected branch
        // blocks all younger squashes, leaking its predicate via timing.
        let n = self.sched.rob_len();
        let (end, limit) = if self.policy.pending_squash_bug() {
            let oldest_parked = self.sched.first(SetId::ResolveParked);
            (oldest_parked.map_or(n, |slot| self.sched.offset(slot)), 1)
        } else {
            (n, usize::MAX)
        };
        let mut chosen: Option<Slot> = None;
        let mut scratch = std::mem::take(&mut self.sched.scratch);
        scratch.clear();
        self.sched
            .collect_until(SetId::ResolvePending, end, &mut scratch);
        for &slot in scratch.iter().take(limit) {
            self.profile.gate_eval(BlockPoint::Resolve);
            match self.policy.may_resolve(&self.rob[slot], &self.tags, &fr) {
                Gate::Open => {
                    chosen = Some(slot);
                    break;
                }
                Gate::Closed { until, rule } => {
                    self.park(BlockPoint::Resolve, SetId::ResolveParked, slot, until, rule);
                }
            }
        }
        self.sched.scratch = scratch;
        if !self.sched.is_empty(SetId::ResolveParked) {
            let end = chosen.map_or(n, |slot| self.sched.offset(slot));
            self.record_denials(
                BlockPoint::Resolve,
                &[(SetId::ResolveParked, end)],
                limit,
                &fr,
            );
        }
        if let Some(slot) = chosen {
            self.do_branch_squash(slot);
        }
    }

    fn do_branch_squash(&mut self, slot: Slot) {
        let (seq, actual_next, hist, rsb_checkpoint, inst, idx, actual_taken) = {
            let u = &mut self.rob[slot];
            u.resolved = true;
            (
                u.seq,
                u.actual_next.expect("branch executed"),
                u.hist_snapshot,
                u.rsb_checkpoint,
                u.inst,
                u.idx,
                u.actual_taken,
            )
        };
        self.sched.remove(SetId::ResolvePending, slot);
        self.sched.remove(SetId::UnresolvedBranches, slot);
        self.invalidate_frontier();
        self.sched.mark_progress();
        self.stats.branch_squashes += 1;
        self.squash_younger_than(seq, SquashKind::Branch);
        // Restore the front end to the branch's pre-fetch state, then
        // re-apply its *actual* effect.
        self.with_comp(Section::Bpred, |c| {
            c.tage.restore_history(hist);
            c.rsb.restore(rsb_checkpoint);
            match inst.op {
                Op::Jcc { .. } => c.tage.speculate(c.program.pc_of(idx), actual_taken),
                Op::Call { .. } => c.rsb.push(c.program.pc_of(idx + 1)),
                Op::Ret => {
                    let _ = c.rsb.pop();
                }
                _ => {}
            }
        });
        self.redirect_fetch(actual_next);
    }

    /// Points the front end at `next` after a squash: the fetch queue
    /// empties, and fetch restarts after the redirect penalty.
    fn redirect_fetch(&mut self, next: Option<u32>) {
        self.fetch_idx = next;
        self.fetch_queue.clear();
        self.l1i_paid = None;
        self.fetch_stalled_until = self.cycle + self.cfg.redirect_penalty as u64;
    }

    /// Squashes every µop with `seq > surviving`, youngest first,
    /// restoring the rename map and protection map. `kind` tags the
    /// squash-cause in the trace. Returns the slot of the oldest squashed
    /// µop, whose record stays readable until rename claims the slot
    /// again.
    fn squash_younger_than(&mut self, surviving: Seq, kind: SquashKind) -> Option<Slot> {
        let mut oldest = None;
        while let Some(slot) = self.sched.youngest() {
            let u = &self.rob[slot];
            if u.seq <= surviving {
                break;
            }
            self.sched.on_squash_pop();
            self.stats.squashed += 1;
            if let Some(t) = self.tracer.as_mut() {
                t.on_squash(u.seq, self.cycle, kind);
            }
            // Undo renames in reverse order.
            for d in u.dsts.iter().rev() {
                self.rename_map[d.arch.index()] = d.prev_phys;
                self.prot_map[d.arch.index()] = d.prev_prot;
                self.free_list.push_front(d.new_phys);
                self.prf_ready[d.new_phys] = false;
            }
            oldest = Some(slot);
        }
        self.invalidate_frontier();
        oldest
    }

    /// Squash used by memory-order violations and division machine
    /// clears: restores the front end from the first squashed µop's
    /// snapshot (the fetch queue head's when no µop is squashed).
    fn squash_and_refetch(&mut self, surviving: Seq, refetch: Option<u32>, kind: SquashKind) {
        let queued = self
            .fetch_queue
            .front()
            .map(|f| (f.hist_snapshot, f.rsb_checkpoint));
        let snap = match self.squash_younger_than(surviving, kind) {
            Some(slot) => Some((self.rob[slot].hist_snapshot, self.rob[slot].rsb_checkpoint)),
            None => queued,
        };
        if let Some((h, r)) = snap {
            self.with_comp(Section::Bpred, |c| {
                c.tage.restore_history(h);
                c.rsb.restore(r);
            });
        }
        self.redirect_fetch(refetch);
        self.sched.mark_progress();
        match kind {
            SquashKind::MemOrder => self.stats.memorder_squashes += 1,
            SquashKind::DivFault => self.stats.divfault_squashes += 1,
            SquashKind::Branch => self.stats.branch_squashes += 1,
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Commits up to `commit_width` µops from the ROB head. The head's
    /// record is read where it lies; the head advances once the record
    /// has been read, before any machine clear.
    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            if self.sched.rob_len() == 0 {
                return;
            }
            let slot = self.sched.head_slot();
            let u = &self.rob[slot];
            if u.status != UopStatus::Done {
                return;
            }
            if u.mispredicted && !u.resolved {
                // The resolution pass will handle it (it is always
                // allowed once non-speculative).
                return;
            }
            // Scheduler entries for the head must be cleared before the
            // scheduler frees its slot at `on_commit_head`. The head may
            // commit while its wakeup is still denied, so its pending or
            // parked entry (if any) goes too.
            self.sched.remove(SetId::WakeupPending, slot);
            self.sched.remove(SetId::WakeupParked, slot);
            if u.is_load() {
                self.sched.remove(SetId::InflightLoads, slot);
                self.stats.loads += 1;
            }
            if u.is_store() {
                self.sched.remove(SetId::InflightStores, slot);
                self.stats.stores += 1;
            }
            self.no_commit_cycles = 0;
            self.sched.mark_progress();
            self.stats.committed += 1;
            if let Some(t) = self.tracer.as_mut() {
                t.on_commit(u.seq, self.cycle);
            }
            if u.inst.is_cond_branch() || u.inst.is_indirect_branch() {
                self.stats.branches += 1;
                if u.mispredicted {
                    self.stats.mispredicts += 1;
                }
            }
            // What the rest of commit needs once `self` is borrowed
            // mutably: scalars, not the record.
            let (seq, idx, pc, op, actual_next, div_fault) =
                (u.seq, u.idx, u.pc, u.inst.op, u.actual_next, u.div_fault);
            let is_store = u.is_store();
            let store = u
                .mem
                .as_ref()
                .map(|m| (m.addr, m.size, m.value, m.data_prot));
            let clears_load_prot = !u.inst.prot;
            // Predictor training at commit (clean, non-transient state).
            match op {
                Op::Jcc { .. } => {
                    let (pred, taken) = (u.pred_taken, u.actual_taken);
                    self.with_comp(Section::Bpred, |c| c.tage.update(pc, pred, taken));
                }
                Op::JmpReg { .. } | Op::Ret => {
                    if let Some(Some(t)) = actual_next {
                        let target = self.program.pc_of(t);
                        self.with_comp(Section::Bpred, |c| c.btb.update(pc, target));
                    }
                }
                _ => {}
            }
            // Stores write committed state.
            if let Some((addr, size, value, data_prot)) = store {
                if is_store {
                    let addr = addr.expect("committed store has address");
                    self.mem.write(addr, size, value);
                    self.mem_access_for_timing(addr);
                    if self.policy.uses_protisa() {
                        self.with_comp(Section::CacheMeta, |c| {
                            c.update_mem_prot_on_store(addr, size, data_prot)
                        });
                    }
                } else if self.policy.uses_protisa() && clears_load_prot {
                    // Loads with unprotected outputs clear the protection
                    // of the accessed bytes at commit (§IV-C2b).
                    let addr = addr.expect("committed load has address");
                    self.with_comp(Section::CacheMeta, |c| {
                        c.update_mem_prot_on_load_commit(addr, size)
                    });
                }
            }
            // Architectural register state. Committed values are always
            // readable (any defense wakeup-delay ends at non-speculation,
            // and commit is past that), so publish them even if the
            // wakeup pass never ran this µop.
            for k in 0..self.rob[slot].dsts.len() {
                let d = self.rob[slot].dsts[k];
                self.committed_regs[d.arch.index()] = d.value;
                self.publish_ready(d.new_phys);
                // Free the previous mapping.
                self.free_list.push_back(d.prev_phys);
            }
            let u = &self.rob[slot];
            self.policy.on_commit(u, &mut self.tags, &mut self.l1d);
            if self.record_traces {
                self.timing.push([
                    u.pc,
                    u.fetch_cycle,
                    u.rename_cycle,
                    u.issue_cycle,
                    u.complete_cycle,
                    self.cycle,
                ]);
                self.committed_idxs.push(u.idx);
            }
            // No in-flight µop holds an RSB checkpoint older than this
            // one's.
            self.rsb.release_before(u.rsb_checkpoint);
            self.sched.on_commit_head();
            self.invalidate_frontier();
            // Machine ends / machine clears.
            match op {
                Op::Halt => {
                    self.halted = Some(SimExit::Halted);
                    return;
                }
                Op::JmpReg { .. } | Op::Ret if actual_next == Some(None) => {
                    self.halted = Some(SimExit::BadControlFlow);
                    return;
                }
                _ => {}
            }
            if div_fault {
                // Division fault: machine clear (squash younger, refetch
                // the next instruction) — the conditional flush is the
                // divider's timing channel (§VII-B4b).
                self.squash_and_refetch(seq, Some(idx + 1), SquashKind::DivFault);
                return;
            }
        }
    }

    fn update_mem_prot_on_store(&mut self, addr: u64, size: u64, prot: bool) {
        match self.cfg.mem_prot {
            MemProtTracking::None => {}
            MemProtTracking::TaggedL1d => self.l1d.meta_set(addr, size, prot),
            MemProtTracking::PerfectShadow => self.shadow_prot.set_mem(addr, size, prot),
        }
    }

    fn update_mem_prot_on_load_commit(&mut self, addr: u64, size: u64) {
        match self.cfg.mem_prot {
            MemProtTracking::None => {}
            MemProtTracking::TaggedL1d => self.l1d.meta_set(addr, size, false),
            MemProtTracking::PerfectShadow => self.shadow_prot.unprotect_mem(addr, size),
        }
    }

    fn mem_prot_of(&self, addr: u64, size: u64) -> bool {
        match self.cfg.mem_prot {
            MemProtTracking::None => true,
            MemProtTracking::TaggedL1d => self.l1d.meta_any(addr, size),
            MemProtTracking::PerfectShadow => self.shadow_prot.mem_protected(addr, size),
        }
    }

    /// Walks the cache hierarchy for timing; returns the access latency.
    /// Booked to [`Section::CacheAccess`].
    fn mem_access_for_timing(&mut self, addr: u64) -> u32 {
        self.with_comp(Section::CacheAccess, |c| c.cache_walk(addr))
    }

    /// The untimed L1D→L2→L3→DRAM walk behind
    /// [`Core::mem_access_for_timing`].
    fn cache_walk(&mut self, addr: u64) -> u32 {
        let l1 = self.l1d.access(addr);
        if l1.hit {
            return self.cfg.l1d.latency;
        }
        let l2 = self.l2.access(addr);
        if l2.hit {
            return self.cfg.l2.latency;
        }
        let l3 = self.l3.access(addr);
        if l3.hit {
            return self.cfg.l3.latency;
        }
        self.cfg.mem_latency
    }

    // ------------------------------------------------------------------
    // Issue & execute
    // ------------------------------------------------------------------

    /// Number of µops parked at the execute gate.
    fn exec_parked(&self) -> usize {
        EXEC_PARKED.iter().map(|&s| self.sched.len(s)).sum()
    }

    /// The issue stage. Walks the issue-ready candidates inside the
    /// issue window in age order, asking the defense about each one
    /// that has a port; a closed verdict parks the µop until the
    /// frontier reaches its lapse point.
    ///
    /// A parked µop is still counted as denied on every cycle the old
    /// per-cycle loop would have asked about it: whenever the walk would
    /// have reached it with its port class free (and, for a divide, the
    /// divider idle). Parked µops consume no resources, so those
    /// conditions change only at executed candidates; the walk records
    /// the age offset at which each one stopped holding and counts the
    /// parked µops of each class below it with a rank query.
    fn issue(&mut self) {
        self.unpark_on_tag_write();
        let mut parked = self.exec_parked() != 0;
        if !parked && self.sched.is_empty(SetId::IssueReady) {
            return;
        }
        let fr = self.frontier();
        if parked {
            let n = self.sched.unpark_due(BlockPoint::Execute, fr.point());
            self.profile.gate_unparks(BlockPoint::Execute, n);
        }
        // The issue window admits the `iq_size` oldest *waiting* µops,
        // ready or not (parked ones included) — the old scan broke upon
        // reaching the (iq_size+1)-th waiting entry, so that entry's age
        // offset is the exclusive cutoff for ready candidates.
        let n = self.sched.rob_len();
        let cutoff_end = if self.sched.len(SetId::Waiting) > self.cfg.iq_size {
            let slot = self
                .sched
                .nth(SetId::Waiting, self.cfg.iq_size)
                .expect("length checked");
            self.sched.offset(slot)
        } else {
            n
        };
        let mut alu_slots = self.cfg.alu_ports;
        let mut mem_slots = self.cfg.mem_ports;
        let mut issued = 0usize;
        let width = self.cfg.issue_width;
        let full =
            |issued: usize, alu: usize, mem: usize| issued >= width || (alu == 0 && mem == 0);
        // Age offsets from which the old loop would have skipped a parked
        // µop: once the loop broke, once each port class ran out, once
        // the divider was busy.
        let mut stop_end = if full(0, alu_slots, mem_slots) { 0 } else { n };
        let (mut mem_end, mut alu_end) = (n, n);
        let div_busy_at_start = self.div_busy_until > self.cycle;
        let mut div_end = if div_busy_at_start { 0 } else { n };
        #[cfg(debug_assertions)]
        let mut issued_log: Vec<(usize, bool, bool)> = Vec::new();
        let mut pending_violation: Option<(Seq, u32)> = None;
        let mut scratch = std::mem::take(&mut self.sched.scratch);
        scratch.clear();
        self.sched
            .collect_until(SetId::IssueReady, cutoff_end, &mut scratch);

        for &slot in &scratch {
            if full(issued, alu_slots, mem_slots) {
                break;
            }
            let i = self.sched.offset(slot);
            debug_assert_eq!(self.rob[slot].status, UopStatus::Waiting);
            debug_assert!(self.operands_ready(&self.rob[slot]));
            // Port availability.
            let is_mem = self.rob[slot].inst.is_mem();
            if is_mem && mem_slots == 0 {
                continue;
            }
            if !is_mem && alu_slots == 0 {
                continue;
            }
            // Divider occupancy.
            let is_div = self.rob[slot].inst.is_div();
            if is_div && self.div_busy_until > self.cycle {
                continue;
            }
            // Defense gate, asked only of transmitters: a branch
            // transmits when it resolves, and a µop without a sensitive
            // source transmits nothing.
            let u = &self.rob[slot];
            if u.sens_mask != 0 && !u.inst.is_branch() {
                self.profile.gate_eval(BlockPoint::Execute);
                if let Gate::Closed { until, rule } = self.policy.may_execute(u, &self.tags, &fr) {
                    let class = if is_mem {
                        SetId::ExecParkedMem
                    } else if is_div {
                        SetId::ExecParkedDiv
                    } else {
                        SetId::ExecParkedAlu
                    };
                    self.park(BlockPoint::Execute, class, slot, until, rule);
                    parked = true;
                    continue;
                }
            }
            // Execute (false = blocked, e.g. a partial store overlap).
            let executed = self.with_comp(Section::Execute, |c| {
                c.execute_uop(slot, &mut pending_violation)
            });
            if executed {
                issued += 1;
                if is_mem {
                    mem_slots -= 1;
                    if mem_slots == 0 {
                        mem_end = i;
                    }
                } else {
                    alu_slots -= 1;
                    if alu_slots == 0 {
                        alu_end = i;
                    }
                }
                if is_div && div_end == n && self.div_busy_until > self.cycle {
                    div_end = i;
                }
                if full(issued, alu_slots, mem_slots) {
                    stop_end = i;
                }
                #[cfg(debug_assertions)]
                issued_log.push((i, is_mem, self.div_busy_until > self.cycle));
                self.sched.remove(SetId::Waiting, slot);
                self.sched.remove(SetId::IssueReady, slot);
                self.sched.mark_progress();
                if let Some(t) = self.tracer.as_mut() {
                    t.on_issue(self.rob[slot].seq, self.cycle);
                }
            }
        }

        self.sched.scratch = scratch;
        if parked && self.exec_parked() != 0 {
            let end = cutoff_end.min(stop_end);
            let bounds = [
                (SetId::ExecParkedMem, end.min(mem_end)),
                (SetId::ExecParkedAlu, end.min(alu_end)),
                (SetId::ExecParkedDiv, end.min(alu_end).min(div_end)),
            ];
            self.record_denials(BlockPoint::Execute, &bounds, usize::MAX, &fr);
            #[cfg(debug_assertions)]
            self.check_exec_parking(cutoff_end, div_busy_at_start, &issued_log);
        }

        if let Some((surviving, refetch_idx)) = pending_violation {
            self.squash_and_refetch(surviving, Some(refetch_idx), SquashKind::MemOrder);
        }
    }

    /// Debug check of the parked-gate counting argument: replays the
    /// old per-cycle issue loop over every execute-parked µop (using
    /// the candidates this tick executed, as `(age offset, is_mem,
    /// divider busy after)`) and asserts that it would have denied
    /// exactly the ledger's count of them.
    #[cfg(debug_assertions)]
    fn check_exec_parking(
        &self,
        cutoff_end: usize,
        mut div_busy: bool,
        issued_log: &[(usize, bool, bool)],
    ) {
        let (mut issued, mut alu, mut mem) = (0, self.cfg.alu_ports, self.cfg.mem_ports);
        let mut log = issued_log.iter().peekable();
        let mut denied = 0u64;
        for i in 0..self.sched.rob_len() {
            let slot = self.sched.slot_at(i);
            let u = &self.rob[slot];
            if let Some(&&(j, is_mem, busy)) = log.peek() {
                if j == i {
                    log.next();
                    issued += 1;
                    if is_mem {
                        mem -= 1;
                    } else {
                        alu -= 1;
                    }
                    div_busy = busy;
                    continue;
                }
            }
            if !EXEC_PARKED.iter().any(|&s| self.sched.contains(s, slot)) {
                continue;
            }
            let broke = issued >= self.cfg.issue_width || (alu == 0 && mem == 0);
            let port = if u.inst.is_mem() { mem } else { alu };
            if i < cutoff_end && !broke && port > 0 && !(u.inst.is_div() && div_busy) {
                denied += 1;
            }
        }
        assert_eq!(
            denied,
            self.denials.count[BlockPoint::Execute as usize],
            "parked execute-gate count"
        );
    }

    fn src_val(&self, u: &DynInst, reg: Reg) -> u64 {
        self.prf_value[u.src_phys(reg)]
    }

    fn operand_val(&self, u: &DynInst, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.src_val(u, r),
            Operand::Imm(v) => v,
        }
    }

    /// Executes the µop in `slot`. Returns `false` if it could not issue
    /// (memory structural conflict).
    fn execute_uop(&mut self, slot: Slot, pending_violation: &mut Option<(Seq, u32)>) -> bool {
        let cycle = self.cycle;
        let u = &self.rob[slot];
        let inst = u.inst;
        let mut latency = 1u32;
        let mut dst_values: InlineVec<u64, 2> = InlineVec::new();
        let mut actual_next: Option<Option<u32>> = None;
        let mut actual_taken = false;
        let mut div_fault = false;

        match inst.op {
            Op::MovImm { dst, imm, width } => {
                let old = if width.is_partial() {
                    self.src_val(u, dst)
                } else {
                    0
                };
                dst_values.push(width.apply(old, imm));
            }
            Op::Mov { dst, src, width } => {
                let old = if width.is_partial() {
                    self.src_val(u, dst)
                } else {
                    0
                };
                dst_values.push(width.apply(old, self.src_val(u, src)));
            }
            Op::CMov { cond, dst, src } => {
                let flags = Flags::from_bits(self.src_val(u, Reg::RFLAGS));
                dst_values.push(if cond.eval(flags) {
                    self.src_val(u, src)
                } else {
                    self.src_val(u, dst)
                });
            }
            Op::Alu {
                op,
                dst,
                src1,
                src2,
                width,
            } => {
                let a = self.src_val(u, src1);
                let b = self.operand_val(u, src2);
                let old = if width.is_partial() {
                    self.src_val(u, dst)
                } else {
                    0
                };
                let (v, f) = alu_eval(op, a, b, width, old);
                dst_values.push(v);
                dst_values.push(f.to_bits());
                if op == protean_isa::AluOp::Mul {
                    latency = self.cfg.mul_latency;
                }
            }
            Op::Cmp { src1, src2 } => {
                let a = self.src_val(u, src1);
                let b = self.operand_val(u, src2);
                dst_values.push(Flags::from_sub(a, b).to_bits());
            }
            Op::Div { src1, src2, .. } => {
                let a = self.src_val(u, src1);
                let b = self.src_val(u, src2);
                let o = div_eval(a, b);
                dst_values.push(o.quotient);
                latency = o.latency;
                self.div_busy_until = cycle + o.latency as u64;
                div_fault = o.faulted;
            }
            Op::Load { addr, size, .. } => {
                let ea = addr.effective_address(|r| self.src_val(u, r));
                return self.execute_load(slot, ea, size.bytes(), cycle);
            }
            Op::Ret => {
                let rsp = self.src_val(u, Reg::RSP);
                return self.execute_load(slot, rsp, 8, cycle);
            }
            Op::Store { addr, size, .. } => {
                let ea = addr.effective_address(|r| self.src_val(u, r));
                return self.execute_store(slot, ea, size.bytes(), cycle, pending_violation);
            }
            Op::Call { .. } => {
                let rsp = self.src_val(u, Reg::RSP).wrapping_sub(8);
                let ok = self.execute_store(slot, rsp, 8, cycle, pending_violation);
                if ok {
                    self.rob[slot].dsts[0].value = rsp;
                    // A call's target is static: never mispredicted.
                    self.record_branch_outcome(slot, self.rob[slot].pred_next);
                }
                return ok;
            }
            Op::Jmp { target } => {
                actual_next = Some(Some(target));
            }
            Op::Jcc { cond, target } => {
                let flags = Flags::from_bits(self.src_val(u, Reg::RFLAGS));
                actual_taken = cond.eval(flags);
                actual_next = Some(Some(if actual_taken { target } else { u.idx + 1 }));
            }
            Op::JmpReg { src } => {
                let t = self.src_val(u, src);
                actual_next = Some(self.program.index_of_pc(t));
            }
            Op::Nop | Op::Halt => {}
        }

        let u = &mut self.rob[slot];
        u.status = UopStatus::Executing(cycle + latency as u64);
        u.issue_cycle = cycle;
        u.div_fault = div_fault;
        for (d, v) in u.dsts.iter_mut().zip(dst_values.iter().copied()) {
            d.value = v;
        }
        if let Some(an) = actual_next {
            u.actual_taken = actual_taken;
            self.record_branch_outcome(slot, an);
        }
        self.sched.schedule_completion(cycle + latency as u64, slot);
        true
    }

    /// Records an executed branch's actual next index against its
    /// prediction. A correct prediction resolves the branch now, which
    /// can move the frontier; a misprediction waits in the resolve stage
    /// for its squash.
    fn record_branch_outcome(&mut self, slot: Slot, actual_next: Option<u32>) {
        let u = &mut self.rob[slot];
        u.actual_next = Some(actual_next);
        u.mispredicted = actual_next != u.pred_next;
        if u.mispredicted {
            self.sched.insert(SetId::ResolvePending, slot);
        } else {
            u.resolved = true;
            self.sched.remove(SetId::UnresolvedBranches, slot);
            self.invalidate_frontier();
        }
    }

    /// Executes a load: store-queue search, forwarding, cache access.
    /// Returns `false` if it must retry later (partial overlap / data not
    /// ready).
    fn execute_load(&mut self, slot: Slot, addr: u64, size: u64, cycle: u64) -> bool {
        // Search older stores, youngest first. Walking the in-flight
        // store set visits exactly the stores the old full-ROB scan
        // found at the older positions, youngest first: set order is
        // age order.
        let mut fwd: Option<(u64, bool, Seq, bool, Seq)> = None;
        let mut blocked = false;
        self.sched.for_each_store_older(slot, |s_slot| {
            let s = &self.rob[s_slot];
            let Some(m) = &s.mem else { return true };
            let Some(s_addr) = m.addr else { return true }; // unknown addr: speculate past
                                                            // Widen to u128: fuzzer-generated addresses reach u64::MAX,
                                                            // where `addr + size` overflows under debug overflow checks.
            let s_end = s_addr as u128 + m.size as u128;
            let l_end = addr as u128 + size as u128;
            if s_end <= addr as u128 || l_end <= s_addr as u128 {
                return true; // no overlap
            }
            // Overlap with the youngest older store.
            if s_addr <= addr && s_end >= l_end && m.data_ready {
                let shift = 8 * (addr - s_addr);
                let mask = if size == 8 {
                    u64::MAX
                } else {
                    (1u64 << (8 * size)) - 1
                };
                fwd = Some((
                    (m.value >> shift) & mask,
                    m.data_prot,
                    m.data_yrot,
                    m.data_taint,
                    s.seq,
                ));
            } else {
                // Partial overlap or data not ready: cannot issue yet.
                blocked = true;
            }
            false
        });
        if blocked {
            return false;
        }

        let (value, latency, mem_prot, fwd_info) = match fwd {
            Some((v, prot, yrot, taint, s_seq)) => {
                self.stats.forwards += 1;
                (v, 2u32, prot, Some((s_seq, yrot, taint)))
            }
            None => {
                let latency = 1 + self.mem_access_for_timing(addr);
                let v = self.mem.read(addr, size);
                let prot = self.with_comp(Section::CacheMeta, |c| c.mem_prot_of(addr, size));
                (v, latency, prot, None)
            }
        };

        let uses_protisa = self.policy.uses_protisa();
        let u = &mut self.rob[slot];
        u.status = UopStatus::Executing(cycle + latency as u64);
        u.issue_cycle = cycle;
        let m = u.mem.as_mut().expect("load has mem state");
        m.addr = Some(addr);
        m.value = value;
        if let Some((s_seq, yrot, taint)) = fwd_info {
            m.fwd_from = Some(s_seq);
            m.fwd_data_yrot = yrot;
            m.fwd_data_taint = taint;
        }
        if uses_protisa {
            u.mem_prot = Some(mem_prot);
        }
        // Destination values: Load writes dst; Ret writes RSP.
        match u.inst.op {
            Op::Load { .. } => {
                u.dsts[0].value = value; // zero-extended
            }
            Op::Ret => {
                u.dsts[0].value = addr.wrapping_add(8);
                // Resolve the indirect target against the prediction.
                let target = self.program.index_of_pc(value);
                self.record_branch_outcome(slot, target);
            }
            _ => unreachable!("execute_load on non-load"),
        }
        self.sched.schedule_completion(cycle + latency as u64, slot);
        // Policy hook (access predictor resolution, taint from memory).
        self.policy
            .on_load_data(&mut self.rob[slot], &mut self.tags, &self.l1d);
        true
    }

    /// Executes a store's address phase; detects memory-order violations.
    fn execute_store(
        &mut self,
        slot: Slot,
        addr: u64,
        size: u64,
        cycle: u64,
        pending_violation: &mut Option<(Seq, u32)>,
    ) -> bool {
        let seq = self.rob[slot].seq;
        // Memory-order violation: any younger load that already executed
        // and overlaps (and did not forward from this or a younger
        // store). The in-flight load set replaces the old scan over the
        // younger ROB positions — same µops, same (age) order.
        self.sched.for_each_load_younger(slot, |l_slot| {
            let l = &self.rob[l_slot];
            let Some(m) = &l.mem else { return true };
            let Some(l_addr) = m.addr else { return true };
            // u128 as in `execute_load`: no overflow near u64::MAX.
            let l_end = l_addr as u128 + m.size as u128;
            let s_end = addr as u128 + size as u128;
            if s_end <= l_addr as u128 || l_end <= addr as u128 {
                return true;
            }
            if let Some(f) = m.fwd_from {
                if f >= seq {
                    return true; // forwarded from this store or a younger one
                }
            }
            // Violation: squash from the load (inclusive).
            let candidate = (l.seq - 1, l.idx);
            if pending_violation.is_none_or(|(s, _)| candidate.0 < s) {
                *pending_violation = Some(candidate);
            }
            false
        });
        let u = &mut self.rob[slot];
        u.status = UopStatus::Executing(cycle + 1);
        u.issue_cycle = cycle;
        let m = u.mem.as_mut().expect("store has mem state");
        m.addr = Some(addr);
        self.sched.schedule_completion(cycle + 1, slot);
        self.sched.insert(SetId::StoreWaiters, slot);
        true
    }

    // ------------------------------------------------------------------
    // Rename
    // ------------------------------------------------------------------

    /// Consumes up to `fetch_width` rename-ready µops from the front of
    /// the fetch queue, writing each into the ROB tail slot in place.
    /// A structural stall (ROB/LQ/SQ/free-list) stops the whole cycle.
    fn rename(&mut self) {
        for _ in 0..self.cfg.fetch_width {
            let Some(&front) = self.fetch_queue.front() else {
                return;
            };
            if front.ready_cycle > self.cycle {
                return;
            }
            if self.sched.rob_len() >= self.cfg.rob_size {
                return;
            }
            let d = *self.decoded.get(front.idx);
            let (is_load, is_store) = (d.inst.is_load(), d.inst.is_store());
            if is_load && self.sched.len(SetId::InflightLoads) >= self.cfg.lq_size {
                return;
            }
            if is_store && self.sched.len(SetId::InflightStores) >= self.cfg.sq_size {
                return;
            }
            if self.free_list.len() < d.dsts.len() {
                return;
            }
            self.fetch_queue.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;
            // Claim the tail slot before any set insert refers to it.
            let slot = self.sched.on_dispatch();
            // Slots are claimed in ring order from 0, so the first claim
            // of a slot is always the next record past the end: the ROB
            // grows to the ring as the run needs it, keeping `Core::new`
            // free of the records' page faults.
            debug_assert!(slot <= self.rob.len(), "slot claimed out of ring order");
            if slot == self.rob.len() {
                self.rob.push(DynInst::vacant());
            }
            // Every field is written through this exhaustive pattern: a
            // new `DynInst` field fails to compile here instead of
            // inheriting the slot's previous occupant.
            let DynInst {
                seq: u_seq,
                idx,
                pc,
                inst,
                mem,
                status,
                pred_next,
                pred_taken,
                actual_next,
                actual_taken,
                mispredicted,
                resolved,
                hist_snapshot,
                rsb_checkpoint,
                src_prot,
                sens_mask,
                mem_prot,
                in_taint,
                in_yrot,
                delay_wakeup_nonspec,
                wakeup_hold_root,
                pred_no_access,
                div_fault,
                fetch_cycle,
                rename_cycle,
                issue_cycle,
                complete_cycle,
                srcs,
                dsts,
            } = &mut self.rob[slot];
            *u_seq = seq;
            *idx = front.idx;
            *pc = self.program.pc_of(front.idx);
            *inst = d.inst;
            *status = UopStatus::Waiting;
            *pred_next = front.pred_next;
            *pred_taken = front.pred_taken;
            *actual_next = None;
            *actual_taken = false;
            *mispredicted = false;
            *resolved = false;
            *hist_snapshot = front.hist_snapshot;
            *rsb_checkpoint = front.rsb_checkpoint;
            *mem_prot = None;
            *in_taint = false;
            *in_yrot = NO_ROOT;
            *delay_wakeup_nonspec = false;
            *wakeup_hold_root = NO_ROOT;
            *pred_no_access = None;
            *div_fault = false;
            *fetch_cycle = front.ready_cycle - self.cfg.frontend_depth as u64;
            *rename_cycle = self.cycle;
            *issue_cycle = 0;
            *complete_cycle = 0;

            // Sources first (they read the pre-update rename map).
            srcs.clear();
            for &r in d.srcs.iter() {
                srcs.push((r, self.rename_map[r.index()]));
            }
            *src_prot = srcs.iter().any(|(_, p)| self.tags.prot[*p]);
            *sens_mask = d.sens_mask;

            // Destinations: allocate and update maps.
            let partial = d.inst.write_width().is_some_and(Width::is_partial);
            dsts.clear();
            for r in d.dsts.iter().copied() {
                let new_phys = self.free_list.pop_front().expect("checked space");
                let prev_phys = self.rename_map[r.index()];
                let prev_prot = self.prot_map[r.index()];
                self.rename_map[r.index()] = new_phys;
                // ProtISA rename-map protection update (§IV-C1): PROT
                // protects; unprefixed full-width writes unprotect;
                // unprefixed partial writes leave the bit unchanged.
                let new_prot = if d.inst.prot {
                    true
                } else if partial && d.inst.explicit_dst().is_none_or(|e| e == r) {
                    prev_prot
                } else {
                    false
                };
                self.prot_map[r.index()] = new_prot;
                self.tags.prot[new_phys] = new_prot;
                self.tags.taint[new_phys] = false;
                self.tags.yrot[new_phys] = NO_ROOT;
                self.prf_ready[new_phys] = false;
                dsts.push(DstInfo {
                    arch: r,
                    new_phys,
                    prev_phys,
                    prev_prot,
                    value: 0,
                });
            }

            *mem = d.inst.mem_size().map(|size| MemState {
                addr: None,
                size,
                value: 0,
                data_ready: false,
                data_prot: false,
                data_yrot: NO_ROOT,
                data_taint: false,
                fwd_from: None,
                fwd_data_yrot: NO_ROOT,
                fwd_data_taint: false,
            });

            if is_load {
                self.sched.insert(SetId::InflightLoads, slot);
            }
            if is_store {
                self.sched.insert(SetId::InflightStores, slot);
            }
            self.policy.on_rename(&mut self.rob[slot], &mut self.tags);
            let u = &self.rob[slot];
            if let Some(t) = self.tracer.as_mut() {
                t.on_rename(u, self.cycle);
            }
            // Dispatch into the scheduler: every µop enters the waiting
            // set; ready ones go straight to the issue-ready set, the
            // rest park on one unready source register each.
            let unready = (!self.operands_ready(u)).then(|| {
                self.first_unready_src(u)
                    .expect("not-ready µop has an unready source")
            });
            self.sched.insert(SetId::Waiting, slot);
            match unready {
                None => self.sched.insert(SetId::IssueReady, slot),
                Some(p) => self.sched.register_dep(p, slot),
            }
            if d.inst.is_branch() {
                self.sched.insert(SetId::UnresolvedBranches, slot);
            }
            self.invalidate_frontier();
            self.sched.mark_progress();
            self.stats.fetched += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    /// Fetches one group per cycle: up to `fetch_width` µops ending at
    /// the first predicted-taken control transfer (or an L1I miss, the
    /// queue cap, or program end). Each µop enters the fetch queue with
    /// the same rename-ready cycle, `frontend_depth` cycles from now.
    fn fetch(&mut self) {
        if self.cycle < self.fetch_stalled_until {
            return;
        }
        let cap = self.cfg.fetch_width * 3;
        let ready_cycle = self.cycle + self.cfg.frontend_depth as u64;
        let mut fetched = 0;
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_queue.len() >= cap {
                break;
            }
            let Some(idx) = self.fetch_idx else { break };
            if idx as usize >= self.program.len() {
                self.fetch_idx = None;
                break;
            }
            let pc = self.program.pc_of(idx);
            let op = self.program.insts[idx as usize].op;
            // Instruction-cache access: a miss stalls the front end for
            // the L2 hit latency (instruction lines are L2-resident for
            // our workload sizes; the line is filled by the access that
            // booked the miss). Exactly one access is booked per fetched
            // µop: the post-stall re-fetch of the missed index skips the
            // cache entirely (`l1i_paid`) instead of booking a spurious
            // hit and bumping the LRU clock a second time.
            if self.l1i_paid == Some(idx) {
                self.l1i_paid = None;
            } else {
                let hit = self.with_comp(Section::CacheAccess, |c| c.l1i.access(pc).hit);
                if !hit {
                    self.l1i_paid = Some(idx);
                    self.fetch_stalled_until = self.cycle + self.cfg.l2.latency as u64;
                    self.sched.mark_progress();
                    break;
                }
            }
            let hist_snapshot = self.tage.history();
            let rsb_checkpoint = self.rsb.checkpoint();
            // Every live checkpoint is held by an in-flight µop (the
            // ROB and the fetch queue), except possibly the last
            // committed µop's.
            debug_assert!(
                self.rsb.live_checkpoints() <= self.cfg.rob_size + cap + 1,
                "RSB checkpoints outlive their µops"
            );
            let mut pred_taken = false;
            let pred_next: Option<u32> = match op {
                Op::Jmp { target } => Some(target),
                Op::Call { target } => {
                    self.rsb.push(self.program.pc_of(idx + 1));
                    Some(target)
                }
                Op::Jcc { target, .. } => {
                    pred_taken = self.with_comp(Section::Bpred, |c| {
                        let p = c.tage.predict(pc);
                        c.tage.speculate(pc, p);
                        p
                    });
                    Some(if pred_taken { target } else { idx + 1 })
                }
                Op::Ret => match self.rsb.pop() {
                    Some(ret_pc) => self.program.index_of_pc(ret_pc),
                    None => self
                        .btb
                        .lookup(pc)
                        .and_then(|t| self.program.index_of_pc(t)),
                },
                Op::JmpReg { .. } => self
                    .btb
                    .lookup(pc)
                    .and_then(|t| self.program.index_of_pc(t)),
                Op::Halt => None,
                _ => Some(idx + 1),
            };
            self.fetch_queue.push_back(FetchEntry {
                idx,
                ready_cycle,
                pred_next,
                pred_taken,
                hist_snapshot,
                rsb_checkpoint,
            });
            fetched += 1;
            self.sched.mark_progress();
            self.fetch_idx = pred_next;
            // Stop the fetch group after a taken control transfer.
            if pred_next != Some(idx + 1) {
                break;
            }
        }
        if let Some(t) = self.tracer.as_mut().filter(|_| fetched > 0) {
            let first = self.fetch_queue[self.fetch_queue.len() - fetched];
            t.on_fetch_group(self.cycle, first.idx, fetched as u32);
        }
    }
}

/// The rule under which `policy` denies `u` at `point` this cycle,
/// asked of its gate again by the debug check that a parked µop is
/// still denied. Not counted as a gate evaluation.
///
/// # Panics
///
/// If the gate is open: a parked µop passed its lapse point unnoticed.
#[cfg(debug_assertions)]
fn denial_rule(
    policy: &dyn DefensePolicy,
    u: &DynInst,
    tags: &RegTags,
    point: BlockPoint,
    fr: &SpecFrontier,
) -> &'static str {
    let gate = match point {
        BlockPoint::Execute => policy.may_execute(u, tags, fr),
        BlockPoint::Wakeup => policy.may_wakeup(u, tags, fr),
        BlockPoint::Resolve => policy.may_resolve(u, tags, fr),
    };
    gate.rule().unwrap_or_else(|| {
        panic!(
            "µop {} counted as denied at the {} gate, which is open",
            u.seq,
            point.name()
        )
    })
}
