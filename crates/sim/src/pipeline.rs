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

use crate::defense::{BlockPoint, DefensePolicy, RegTags, Seq, SpecFrontier, SquashKind, NO_ROOT};
use crate::profile::{Section, SectionTimes};
use crate::sched::{FetchEntry, FetchQueue, Scheduler, SetId};
use crate::trace::{Trace, Tracer};
use crate::{Btb, Rsb, TagePredictor};
use crate::{Cache, CoreConfig, MemProtTracking, Stats};
use protean_arch::{ArchState, Memory};
use protean_isa::{
    alu_eval, div_eval, CtrlFlow, DecodedProgram, Flags, InlineVec, Inst, Op, Operand, Program,
    Reg, RegSet,
};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

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
    /// `true` for stores (including `call`).
    pub is_store: bool,
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
/// `repr(C)` pins the declaration order: the load/store disambiguation
/// scans (`execute_load` / `execute_store`) walk the whole ROB touching
/// only `seq`, `inst`, and `mem`, so those lead the struct and the
/// bulky inline arrays (`srcs`, `dsts`, stage timing) trail it — a scan
/// reads the first couple of cache lines of each entry, never the tail.
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
    /// Wakeup already granted to dependents.
    pub wakeup_done: bool,
    /// TAGE global-history snapshot from before this µop's fetch.
    pub hist_snapshot: u64,
    /// RSB snapshot from before this µop's fetch. Interned by the RSB
    /// ([`Rsb::snapshot_shared`]) so every µop fetched between two RSB
    /// mutations shares one allocation.
    pub rsb_snapshot: Arc<[u64]>,

    // ---- Defense-generic state --------------------------------------
    /// `PROT` prefix: output registers are architecturally protected.
    pub prot_out: bool,
    /// Any input register protected at rename (ProtISA Def. 1 reg part).
    pub src_prot: bool,
    /// Any *sensitive* input register protected at rename (access
    /// transmitter, under the policy's transmitter set).
    pub sens_prot: bool,
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
    /// Registers feeding the effective-address computation (pre-decoded;
    /// empty for non-memory µops). Drives the store-data/address split in
    /// the operand-readiness checks without re-walking the instruction.
    pub addr_regs: RegSet,
    /// Store-data register, when the store's data operand is a register
    /// (`None` for immediate stores and `call`).
    pub data_reg: Option<Reg>,

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
}

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
    fetch_queue: FetchQueue,
    fetch_stalled_until: u64,
    /// Decode-once µop table, rebuilt at every [`Core::reset`] (the
    /// program reference may point at reused storage, so no caching on
    /// pointer identity).
    decoded: DecodedProgram,
    /// Per-static-instruction sensitive-register sets under the active
    /// policy's transmitter set, precomputed at reset alongside the
    /// decoded table.
    sens_table: Vec<RegSet>,
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
    rob: VecDeque<DynInst>,
    prf_value: Vec<u64>,
    prf_done: Vec<bool>,
    prf_ready: Vec<bool>,
    tags: RegTags,
    lq_used: usize,
    sq_used: usize,
    div_busy_until: u64,
    /// Event-driven scheduling state (see [`crate::sched`]): completion
    /// wheel, ready/waiting/waiter sets, per-register dependent lists.
    sched: Scheduler,
    /// Speculative-frontier snapshot, cached per tick and invalidated on
    /// every event that can move it (dispatch, resolve, commit, squash).
    /// Each pipeline stage still takes one snapshot at stage start, as
    /// the per-stage scans always did.
    cached_frontier: Option<SpecFrontier>,
    /// µops the defense denied at the execute gate this tick — recorded
    /// so idle-cycle fast-forward can bulk-attribute the skipped cycles.
    exec_blocked: Vec<Seq>,
    /// Scratch for draining the completion wheel.
    completions: Vec<Seq>,
    /// Scratch for draining dependent lists in `publish_ready`.
    dep_scratch: Vec<Seq>,
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
    shadow_unprot: BTreeSet<u64>,

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
    /// Section profiling enabled (`PROTEAN_PROFILE`, read once): one
    /// boolean branch per tick when off (see [`crate::profile`]).
    profile_on: bool,
    /// Per-core section accumulator, flushed into the process-wide
    /// totals at the end of every run.
    profile: SectionTimes,
}

const WATCHDOG_CYCLES: u64 = 100_000;

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
        let mut core = Core {
            fetch_idx: None,
            fetch_queue: FetchQueue::default(),
            fetch_stalled_until: 0,
            decoded: DecodedProgram::default(),
            sens_table: Vec::new(),
            l1i_paid: None,
            tage: TagePredictor::new(),
            btb: Btb::new(cfg.btb_entries),
            rsb: Rsb::new(cfg.rsb_entries),
            rename_map: [0usize; Reg::COUNT],
            prot_map: [true; Reg::COUNT],
            free_list: VecDeque::with_capacity(n_phys),
            rob: VecDeque::with_capacity(cfg.rob_size),
            prf_done: vec![true; n_phys],
            prf_ready: vec![true; n_phys],
            prf_value: vec![0u64; n_phys],
            tags: RegTags::new(n_phys, Reg::COUNT),
            lq_used: 0,
            sq_used: 0,
            div_busy_until: 0,
            sched: Scheduler::new(n_phys, cfg.rob_size, max_completion_latency),
            cached_frontier: None,
            exec_blocked: Vec::new(),
            completions: Vec::new(),
            dep_scratch: Vec::new(),
            obs_scratch: Vec::new(),
            mem: Memory::default(),
            l1d: Cache::new(cfg.l1d, meta_fill),
            l1i: Cache::new(cfg.l1i, true),
            l2: Cache::new(cfg.l2, true),
            l3: Cache::new(cfg.l3, true),
            shadow_unprot: BTreeSet::new(),
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
            profile_on: crate::profile::enabled(),
            profile: SectionTimes::default(),
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
        self.decoded.rebuild(self.program);
        let transmitters = self.policy.transmitters();
        self.sens_table.clear();
        self.sens_table.extend(
            self.program
                .insts
                .iter()
                .map(|i| transmitters.sensitive_regs(i)),
        );
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
        self.rob.clear();
        self.prf_value.fill(0);
        for r in Reg::all() {
            self.prf_value[r.index()] = initial.reg(r);
        }
        self.prf_done.fill(true);
        self.prf_ready.fill(true);
        self.tags.reset(Reg::COUNT);
        self.lq_used = 0;
        self.sq_used = 0;
        self.div_busy_until = 0;
        self.sched.reset();
        self.cached_frontier = None;
        self.exec_blocked.clear();
        self.completions.clear();
        self.dep_scratch.clear();
        self.mem.clone_from(&initial.mem);
        let meta_fill = self.policy.l1d_meta_fill();
        self.l1d.reset(meta_fill);
        self.l1i.reset(true);
        self.l2.reset(true);
        self.l3.reset(true);
        self.shadow_unprot.clear();
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

    /// Replaces this core's L3 with a shared one (multi-core runs).
    pub(crate) fn install_l3(&mut self, l3: Cache) {
        self.l3 = l3;
    }

    /// Runs and hands back the (possibly shared) L3 alongside the result.
    pub(crate) fn run_returning_l3(
        mut self,
        max_insts: u64,
        max_cycles: u64,
    ) -> (SimResult, Cache) {
        let result = self.run_inner(max_insts, max_cycles);
        // A storage-free husk: the core is dropped right after the swap,
        // so allocating a full L3's worth of arrays for it would be
        // pure waste (~0.5M lines for the 30 MiB preset).
        let placeholder = Cache::placeholder(self.cfg.l3);
        let l3 = std::mem::replace(&mut self.l3, placeholder);
        (result, l3)
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
            if !self.profile_on {
                self.tick();
                if !self.sched.progress() {
                    self.fast_forward(max_cycles);
                }
            } else {
                self.tick_profiled();
                if !self.sched.progress() {
                    let t = std::time::Instant::now();
                    self.fast_forward(max_cycles);
                    self.profile.add(Section::FastForward, t.elapsed());
                }
            }
        }
        if self.profile_on {
            crate::profile::flush(&mut self.profile);
        }
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
            self.fetch_queue.pending(),
            self.free_list.len(),
            self.lq_used,
            self.sq_used
        );
        if let Some(g) = self.fetch_queue.front_group() {
            let idxs: Vec<u32> = g.remaining().iter().map(|e| e.idx).collect();
            let _ = writeln!(out, "  head fetch group ready@{}: {idxs:?}", g.ready_cycle);
        }
        for u in self.rob.iter().take(8) {
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
        let head_seq = self.rob.front().map(|u| u.seq).unwrap_or(Seq::MAX);
        let oldest_unresolved_branch = self
            .sched
            .first(SetId::UnresolvedBranches)
            .unwrap_or(Seq::MAX);
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

    /// Records a defense denial of the µop at ROB index `i` in the trace
    /// (no-op when tracing is off — one branch, no allocation).
    fn trace_block(&mut self, i: usize, point: BlockPoint, fr: &SpecFrontier) {
        if self.tracer.is_some() {
            let u = &self.rob[i];
            let rule = self.policy.block_rule(u, point, &self.tags, fr);
            let (seq, cycle) = (u.seq, self.cycle);
            if let Some(t) = self.tracer.as_mut() {
                t.on_block(seq, point, cycle, rule);
            }
        }
    }

    /// Runs `f`, charging its wall time to component section `s` when
    /// profiling is on (one branch when off — same pure-observer
    /// discipline as the stage laps). The stage laps in
    /// [`Core::tick_profiled`] subtract whatever the component sections
    /// booked during them, so sections stay disjoint. Metadata work the
    /// defense policies do through their `&Cache` hooks is *not* routed
    /// through here and stays attributed to the parent stage.
    #[inline]
    fn with_comp<R>(&mut self, s: Section, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.profile_on {
            return f(self);
        }
        let t = std::time::Instant::now();
        let r = f(self);
        self.profile.add(s, t.elapsed());
        r
    }

    /// Total nanoseconds booked to the component sections so far (the
    /// delta subtracted from the enclosing stage's lap).
    fn comp_nanos(&self) -> u64 {
        self.profile.nanos_of(Section::CacheAccess)
            + self.profile.nanos_of(Section::CacheMeta)
            + self.profile.nanos_of(Section::Bpred)
    }

    /// One cycle.
    fn tick(&mut self) {
        self.sched.clear_progress();
        self.complete_and_wakeup();
        self.capture_store_data();
        self.resolve_branches();
        self.commit();
        self.issue();
        self.rename();
        self.fetch();
        self.cycle += 1;
        self.no_commit_cycles += 1;
    }

    /// One cycle with section profiling: [`Core::tick`] with a lap at
    /// every stage boundary. A separate body so the unprofiled tick
    /// carries no `Instant` reads at all; `#[cold]` keeps it out of the
    /// hot path's code layout.
    #[cold]
    fn tick_profiled(&mut self) {
        let mut t = std::time::Instant::now();
        self.sched.clear_progress();
        self.complete_and_wakeup();
        t = self.profile.lap(t, Section::Wakeup);
        self.capture_store_data();
        t = self.profile.lap(t, Section::StoreData);
        // Each stage's lap subtracts the component-model time
        // (cache_access/cache_meta/bpred) its calls booked, so stage and
        // component sections partition the tick and shares stay
        // meaningful.
        let comp = self.comp_nanos();
        self.resolve_branches();
        let comp_delta = self.comp_nanos() - comp;
        t = self.profile.lap_minus(t, Section::Resolve, comp_delta);
        let comp = self.comp_nanos();
        self.commit();
        let comp_delta = self.comp_nanos() - comp;
        t = self.profile.lap_minus(t, Section::Commit, comp_delta);
        // `issue` books its `execute_uop` spans to `Execute` (itself net
        // of component time); the issue lap subtracts both.
        let exec_before = self.profile.nanos_of(Section::Execute);
        let comp = self.comp_nanos();
        self.issue();
        let exec_delta = self.profile.nanos_of(Section::Execute) - exec_before;
        let comp_delta = self.comp_nanos() - comp;
        t = self
            .profile
            .lap_minus(t, Section::Issue, exec_delta + comp_delta);
        self.rename();
        t = self.profile.lap(t, Section::Rename);
        let comp = self.comp_nanos();
        self.fetch();
        let comp_delta = self.comp_nanos() - comp;
        self.profile.lap_minus(t, Section::Fetch, comp_delta);
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
    /// bulk-attribute the skipped cycles' blocked-cycle and no-commit
    /// accounting, so `Stats` and the trace stay byte-identical with
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
        if let Some(rc) = self.fetch_queue.head_ready_cycle() {
            if rc >= cycle {
                wake = wake.min(rc);
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
        // Each skipped tick would have counted exactly the candidates the
        // just-simulated tick counted: every wakeup-pending µop, every
        // resolve candidate (only the oldest under the buggy arbiter),
        // and every defense-denied issue candidate.
        let buggy = self.policy.pending_squash_bug();
        let resolve_candidates = if buggy {
            self.sched.len(SetId::ResolvePending).min(1)
        } else {
            self.sched.len(SetId::ResolvePending)
        };
        self.stats.wakeup_blocked_cycles += delta * self.sched.len(SetId::WakeupPending) as u64;
        self.stats.resolve_blocked_cycles += delta * resolve_candidates as u64;
        self.stats.exec_blocked_cycles += delta * self.exec_blocked.len() as u64;
        if self.tracer.is_some() {
            let fr = self.frontier();
            let last = target - 1;
            let mut scratch = std::mem::take(&mut self.sched.scratch);
            for point in [BlockPoint::Wakeup, BlockPoint::Resolve, BlockPoint::Execute] {
                scratch.clear();
                match point {
                    BlockPoint::Wakeup => {
                        self.sched.collect(SetId::WakeupPending, &mut scratch);
                    }
                    BlockPoint::Resolve if buggy => {
                        scratch.extend(self.sched.first(SetId::ResolvePending));
                    }
                    BlockPoint::Resolve => {
                        self.sched.collect(SetId::ResolvePending, &mut scratch);
                    }
                    BlockPoint::Execute => scratch.extend(self.exec_blocked.iter().copied()),
                }
                for &seq in &scratch {
                    let i = self.rob_index(seq).expect("blocked µop is in the ROB");
                    let rule = self.policy.block_rule(&self.rob[i], point, &self.tags, &fr);
                    if let Some(t) = self.tracer.as_mut() {
                        t.on_block_many(seq, point, cycle, last, delta, rule);
                    }
                }
            }
            self.sched.scratch = scratch;
        }
        self.no_commit_cycles += delta;
        self.cycle = target;
    }

    // ------------------------------------------------------------------
    // Completion & wakeup
    // ------------------------------------------------------------------

    /// ROB index of the µop with sequence number `seq` (sequence numbers
    /// are strictly increasing along the ROB, though not contiguous
    /// after squashes).
    ///
    /// Strict monotonicity gives `rob[i].seq >= front.seq + i`, so the
    /// µop can only sit at index `seq - front.seq` or below: guess there
    /// and scan down. Without squash gaps the guess is exact, making
    /// this O(1) on the hot path (it was the campaign profile's top
    /// single symbol as a `VecDeque` binary search, ~11% of CPU).
    fn rob_index(&self, seq: Seq) -> Option<usize> {
        let front = self.rob.front()?.seq;
        if seq < front {
            return None;
        }
        let mut i = ((seq - front) as usize).min(self.rob.len() - 1);
        loop {
            let s = self.rob[i].seq;
            if s == seq {
                return Some(i);
            }
            if s < seq || i == 0 {
                return None;
            }
            i -= 1;
        }
    }

    /// Exact operand-readiness predicate of the issue stage: every
    /// source ready, except that a store's pure data operand may lag
    /// (split STA/STD; captured later by `capture_store_data`).
    fn operands_ready(&self, u: &DynInst) -> bool {
        u.srcs.iter().all(|(r, p)| {
            self.prf_ready[*p]
                || (u.is_store() && Some(*r) == u.data_reg && !u.addr_regs.contains(*r))
        })
    }

    /// A source register that keeps [`Core::operands_ready`] false — the
    /// dependent list the µop parks on until that register is written.
    fn first_unready_src(&self, u: &DynInst) -> Option<usize> {
        u.srcs
            .iter()
            .find(|(r, p)| {
                !self.prf_ready[*p]
                    && !(u.is_store() && Some(*r) == u.data_reg && !u.addr_regs.contains(*r))
            })
            .map(|(_, p)| *p)
    }

    /// Marks physical register `phys` ready and drains its dependent
    /// list: each parked µop either becomes issue-ready or re-parks on
    /// its next unready source.
    fn publish_ready(&mut self, phys: usize) {
        self.prf_ready[phys] = true;
        let mut deps = std::mem::take(&mut self.dep_scratch);
        deps.clear();
        self.sched.drain_deps(phys, &mut deps);
        for &seq in &deps {
            let i = self
                .rob_index(seq)
                .expect("drained dependents are live (squash unlinks eagerly)");
            if self.rob[i].status != UopStatus::Waiting {
                continue;
            }
            if self.operands_ready(&self.rob[i]) {
                self.sched.insert(SetId::IssueReady, seq, i);
            } else {
                let p = self
                    .first_unready_src(&self.rob[i])
                    .expect("not-ready µop has an unready source");
                self.sched.register_dep(p, seq, i);
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
        for &seq in &completions {
            let i = self
                .rob_index(seq)
                .expect("the wheel yields only live µops (stale events are filtered)");
            let u = &mut self.rob[i];
            let UopStatus::Executing(done) = u.status else {
                continue;
            };
            debug_assert!(done <= cycle, "completion event fired early");
            u.complete_cycle = cycle;
            // Stores without data keep waiting for their data operand;
            // everything else is done.
            let store_needs_data = u.mem.as_ref().is_some_and(|m| m.is_store && !m.data_ready);
            u.status = if store_needs_data {
                UopStatus::WaitingData
            } else {
                UopStatus::Done
            };
            let has_dsts = !u.dsts.is_empty();
            // Write results to the PRF.
            for d in &u.dsts {
                self.prf_value[d.new_phys] = d.value;
                self.prf_done[d.new_phys] = true;
            }
            if !store_needs_data && has_dsts {
                self.sched.insert(SetId::WakeupPending, seq, i);
            }
            if let Some(t) = self.tracer.as_mut() {
                t.on_complete(seq, cycle);
            }
            self.sched.mark_progress();
        }
        self.completions = completions;
        // Wakeup: grant or count every pending candidate, in age order —
        // exactly the candidates the old full-ROB scan would visit.
        if self.sched.is_empty(SetId::WakeupPending) {
            return;
        }
        let mut scratch = std::mem::take(&mut self.sched.scratch);
        scratch.clear();
        self.sched.collect(SetId::WakeupPending, &mut scratch);
        for &seq in &scratch {
            let i = self.rob_index(seq).expect("pending µop is in the ROB");
            if self.policy.may_wakeup(&self.rob[i], &self.tags, &fr) {
                self.rob[i].wakeup_done = true;
                for k in 0..self.rob[i].dsts.len() {
                    let phys = self.rob[i].dsts[k].new_phys;
                    self.publish_ready(phys);
                }
                self.sched.remove(SetId::WakeupPending, seq, i);
                self.sched.mark_progress();
            } else {
                self.stats.wakeup_blocked_cycles += 1;
                if self.tracer.is_some() {
                    let u = &self.rob[i];
                    let rule = self
                        .policy
                        .block_rule(u, BlockPoint::Wakeup, &self.tags, &fr);
                    if let Some(t) = self.tracer.as_mut() {
                        t.on_block(seq, BlockPoint::Wakeup, cycle, rule);
                    }
                }
            }
        }
        self.sched.scratch = scratch;
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
        for &seq in &scratch {
            let i = self.rob_index(seq).expect("store waiter is in the ROB");
            let u = &self.rob[i];
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
                let u = &mut self.rob[i];
                let m = u.mem.as_mut().expect("store has mem state");
                m.value = value;
                m.data_prot = prot;
                m.data_yrot = yrot;
                m.data_taint = taint;
                m.data_ready = true;
                if matches!(u.status, UopStatus::WaitingData) {
                    u.status = UopStatus::Done;
                    if !u.dsts.is_empty() {
                        self.sched.insert(SetId::WakeupPending, seq, i);
                    }
                }
                self.sched.remove(SetId::StoreWaiters, seq, i);
                self.sched.mark_progress();
            }
        }
        self.sched.scratch = scratch;
    }

    // ------------------------------------------------------------------
    // Branch resolution & squash
    // ------------------------------------------------------------------

    fn resolve_branches(&mut self) {
        // Candidates: executed, unresolved, mispredicted branches —
        // exactly the resolve-pending set, in age order.
        if self.sched.is_empty(SetId::ResolvePending) {
            return;
        }
        let fr = self.frontier();
        let buggy = self.policy.pending_squash_bug();
        let mut chosen: Option<usize> = None;
        let mut scratch = std::mem::take(&mut self.sched.scratch);
        scratch.clear();
        self.sched.collect(SetId::ResolvePending, &mut scratch);
        for &seq in &scratch {
            let i = self
                .rob_index(seq)
                .expect("resolve candidate is in the ROB");
            if self.policy.may_resolve(&self.rob[i], &self.tags, &fr) {
                chosen = Some(i);
                break;
            }
            self.stats.resolve_blocked_cycles += 1;
            self.trace_block(i, BlockPoint::Resolve, &fr);
            if buggy {
                // Buggy arbiter (§VII-B4b): only the oldest misprediction
                // is considered, regardless of whether the defense allows
                // it to resolve — an older protected branch blocks all
                // younger squashes, leaking its predicate via timing.
                break;
            }
            // Fixed arbiter: keep scanning for a younger resolvable one.
        }
        self.sched.scratch = scratch;
        if let Some(i) = chosen {
            self.do_branch_squash(i);
        }
    }

    fn do_branch_squash(&mut self, rob_index: usize) {
        let (seq, actual_next, hist, rsb_snap, inst, idx, actual_taken) = {
            let u = &mut self.rob[rob_index];
            u.resolved = true;
            (
                u.seq,
                u.actual_next.expect("branch executed"),
                u.hist_snapshot,
                u.rsb_snapshot.clone(),
                u.inst,
                u.idx,
                u.actual_taken,
            )
        };
        self.sched.remove(SetId::ResolvePending, seq, rob_index);
        self.sched.remove(SetId::UnresolvedBranches, seq, rob_index);
        self.invalidate_frontier();
        self.sched.mark_progress();
        self.stats.branch_squashes += 1;
        self.squash_younger_than(seq, SquashKind::Branch);
        // Restore the front end to the branch's pre-fetch state, then
        // re-apply its *actual* effect.
        self.with_comp(Section::Bpred, |c| {
            c.tage.restore_history(hist);
            c.rsb.restore(&rsb_snap);
            match inst.op {
                Op::Jcc { .. } => c.tage.speculate(c.program.pc_of(idx), actual_taken),
                Op::Call { .. } => c.rsb.push(c.program.pc_of(idx + 1)),
                Op::Ret => {
                    let _ = c.rsb.pop();
                }
                _ => {}
            }
        });
        self.fetch_idx = actual_next;
        self.fetch_queue.clear();
        self.l1i_paid = None;
        self.fetch_stalled_until = self.cycle + self.cfg.redirect_penalty as u64;
    }

    /// Squashes every µop with `seq > surviving`, restoring the rename
    /// map and protection map. `kind` tags the squash-cause in the trace.
    fn squash_younger_than(&mut self, surviving: Seq, kind: SquashKind) {
        while let Some(u) = self.rob.back() {
            if u.seq <= surviving {
                break;
            }
            let u = self.rob.pop_back().expect("checked non-empty");
            self.sched.on_squash_pop(u.seq);
            self.stats.squashed += 1;
            if let Some(t) = self.tracer.as_mut() {
                t.on_squash(u.seq, self.cycle, kind);
            }
            if u.is_load() {
                self.lq_used -= 1;
            }
            if u.is_store() {
                self.sq_used -= 1;
            }
            // Undo renames in reverse order.
            for d in u.dsts.iter().rev() {
                self.rename_map[d.arch.index()] = d.prev_phys;
                self.prot_map[d.arch.index()] = d.prev_prot;
                self.free_list.push_front(d.new_phys);
                self.prf_done[d.new_phys] = false;
                self.prf_ready[d.new_phys] = false;
            }
        }
        self.invalidate_frontier();
        self.policy.on_squash(surviving);
    }

    /// Squash used by memory-order violations and division machine
    /// clears: restores the front end from the first squashed µop's
    /// snapshot.
    fn squash_and_refetch(&mut self, surviving: Seq, refetch: Option<u32>, kind: SquashKind) {
        // Find the first squashed entry's snapshot before popping.
        let snap = self
            .rob
            .iter()
            .find(|u| u.seq > surviving)
            .map(|u| (u.hist_snapshot, u.rsb_snapshot.clone()))
            .or_else(|| {
                self.fetch_queue
                    .head()
                    .map(|(f, _)| (f.hist_snapshot, f.rsb_snapshot.clone()))
            });
        self.squash_younger_than(surviving, kind);
        if let Some((h, r)) = snap {
            self.with_comp(Section::Bpred, |c| {
                c.tage.restore_history(h);
                c.rsb.restore(&r);
            });
        }
        self.fetch_idx = refetch;
        self.fetch_queue.clear();
        self.l1i_paid = None;
        self.fetch_stalled_until = self.cycle + self.cfg.redirect_penalty as u64;
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

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { return };
            if head.status != UopStatus::Done {
                return;
            }
            if head.mispredicted && !head.resolved {
                // The resolution pass will handle it (it is always
                // allowed once non-speculative).
                return;
            }
            // Scheduler entries for the head must be cleared while it
            // still occupies ROB index 0: the scheduler frees the
            // head's ring slot at `on_commit_head`.
            {
                let head = self.rob.front().expect("checked above");
                let seq = head.seq;
                if !head.wakeup_done && !head.dsts.is_empty() {
                    // The head may commit while its wakeup is still
                    // denied — its pending entry must not outlive its
                    // ROB slot.
                    self.sched.remove(SetId::WakeupPending, seq, 0);
                }
                if head.is_load() {
                    self.sched.remove(SetId::InflightLoads, seq, 0);
                }
                if head.is_store() {
                    self.sched.remove(SetId::InflightStores, seq, 0);
                }
            }
            let u = self.rob.pop_front().expect("head exists");
            self.sched.on_commit_head();
            self.no_commit_cycles = 0;
            self.invalidate_frontier();
            self.sched.mark_progress();
            self.stats.committed += 1;
            if let Some(t) = self.tracer.as_mut() {
                t.on_commit(u.seq, self.cycle);
            }
            if u.is_load() {
                self.lq_used -= 1;
                self.stats.loads += 1;
            }
            if u.is_store() {
                self.sq_used -= 1;
                self.stats.stores += 1;
            }
            if u.inst.is_cond_branch() || u.inst.is_indirect_branch() {
                self.stats.branches += 1;
                if u.mispredicted {
                    self.stats.mispredicts += 1;
                }
            }
            // Predictor training at commit (clean, non-transient state).
            match u.inst.op {
                Op::Jcc { .. } => {
                    let (pc, pred, taken) = (u.pc, u.pred_taken, u.actual_taken);
                    self.with_comp(Section::Bpred, |c| c.tage.update(pc, pred, taken));
                }
                Op::JmpReg { .. } | Op::Ret => {
                    if let Some(Some(t)) = u.actual_next {
                        let (pc, target) = (u.pc, self.program.pc_of(t));
                        self.with_comp(Section::Bpred, |c| c.btb.update(pc, target));
                    }
                }
                _ => {}
            }
            // Stores write committed state.
            if let Some(m) = &u.mem {
                if m.is_store {
                    let addr = m.addr.expect("committed store has address");
                    self.mem.write(addr, m.size, m.value);
                    self.mem_access_for_timing(addr);
                    if self.policy.uses_protisa() {
                        let (size, prot) = (m.size, m.data_prot);
                        self.with_comp(Section::CacheMeta, |c| {
                            c.update_mem_prot_on_store(addr, size, prot)
                        });
                    }
                } else if self.policy.uses_protisa() && !u.prot_out {
                    // Loads with unprotected outputs clear the protection
                    // of the accessed bytes at commit (§IV-C2b).
                    let addr = m.addr.expect("committed load has address");
                    let size = m.size;
                    self.with_comp(Section::CacheMeta, |c| {
                        c.update_mem_prot_on_load_commit(addr, size)
                    });
                }
            }
            // Architectural register state. Committed values are always
            // readable (any defense wakeup-delay ends at non-speculation,
            // and commit is past that), so publish them even if the
            // wakeup pass never ran this µop.
            for d in &u.dsts {
                self.committed_regs[d.arch.index()] = d.value;
                self.prf_done[d.new_phys] = true;
                self.publish_ready(d.new_phys);
                // Free the previous mapping.
                self.free_list.push_back(d.prev_phys);
            }
            self.policy.on_commit(&u, &mut self.tags, &mut self.l1d);
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
            // Machine ends / machine clears.
            match u.inst.op {
                Op::Halt => {
                    self.halted = Some(SimExit::Halted);
                    return;
                }
                Op::JmpReg { .. } | Op::Ret if u.actual_next == Some(None) => {
                    self.halted = Some(SimExit::BadControlFlow);
                    return;
                }
                _ => {}
            }
            if u.div_fault {
                // Division fault: machine clear (squash younger, refetch
                // the next instruction) — the conditional flush is the
                // divider's timing channel (§VII-B4b).
                self.squash_and_refetch(u.seq, Some(u.idx + 1), SquashKind::DivFault);
                return;
            }
        }
    }

    fn update_mem_prot_on_store(&mut self, addr: u64, size: u64, prot: bool) {
        match self.cfg.mem_prot {
            MemProtTracking::None => {}
            MemProtTracking::TaggedL1d => self.l1d.meta_set(addr, size, prot),
            MemProtTracking::PerfectShadow => {
                for i in 0..size {
                    let a = addr.wrapping_add(i);
                    if prot {
                        self.shadow_unprot.remove(&a);
                    } else {
                        self.shadow_unprot.insert(a);
                    }
                }
            }
        }
    }

    fn update_mem_prot_on_load_commit(&mut self, addr: u64, size: u64) {
        match self.cfg.mem_prot {
            MemProtTracking::None => {}
            MemProtTracking::TaggedL1d => self.l1d.meta_set(addr, size, false),
            MemProtTracking::PerfectShadow => {
                for i in 0..size {
                    self.shadow_unprot.insert(addr.wrapping_add(i));
                }
            }
        }
    }

    fn mem_prot_of(&self, addr: u64, size: u64) -> bool {
        match self.cfg.mem_prot {
            MemProtTracking::None => true,
            MemProtTracking::TaggedL1d => self.l1d.meta_any(addr, size),
            MemProtTracking::PerfectShadow => {
                (0..size).any(|i| !self.shadow_unprot.contains(&addr.wrapping_add(i)))
            }
        }
    }

    /// Walks the cache hierarchy for timing; returns the access latency.
    /// Booked to [`Section::CacheAccess`] when profiling.
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

    fn issue(&mut self) {
        // Recorded for idle-cycle fast-forward: the µops the defense
        // denied this tick (an identical set would be denied every
        // skipped idle cycle).
        self.exec_blocked.clear();
        if self.sched.is_empty(SetId::IssueReady) {
            return;
        }
        let fr = self.frontier();
        // The issue window admits the `iq_size` oldest *waiting* µops,
        // ready or not — the old scan broke upon reaching the
        // (iq_size+1)-th waiting entry, so that entry's sequence number
        // is the exclusive cutoff for ready candidates.
        let cutoff = if self.sched.len(SetId::Waiting) > self.cfg.iq_size {
            self.sched
                .nth(SetId::Waiting, self.cfg.iq_size)
                .expect("length checked")
        } else {
            Seq::MAX
        };
        let mut alu_slots = self.cfg.alu_ports;
        let mut mem_slots = self.cfg.mem_ports;
        let mut issued = 0usize;
        let mut pending_violation: Option<(Seq, u32)> = None;
        let mut scratch = std::mem::take(&mut self.sched.scratch);
        scratch.clear();
        self.sched
            .collect_below(SetId::IssueReady, cutoff, &mut scratch);

        for &seq in &scratch {
            if issued >= self.cfg.issue_width || (alu_slots == 0 && mem_slots == 0) {
                break;
            }
            let i = self.rob_index(seq).expect("issue-ready µop is in the ROB");
            debug_assert_eq!(self.rob[i].status, UopStatus::Waiting);
            debug_assert!(self.operands_ready(&self.rob[i]));
            // Port availability.
            let is_mem = self.rob[i].inst.is_mem();
            if is_mem && mem_slots == 0 {
                continue;
            }
            if !is_mem && alu_slots == 0 {
                continue;
            }
            // Divider occupancy.
            if self.rob[i].inst.is_div() && self.div_busy_until > self.cycle {
                continue;
            }
            // Defense gate.
            if !self.policy.may_execute(&self.rob[i], &self.tags, &fr) {
                self.stats.exec_blocked_cycles += 1;
                self.trace_block(i, BlockPoint::Execute, &fr);
                self.exec_blocked.push(seq);
                continue;
            }
            // Execute (false = blocked, e.g. a partial store overlap).
            let executed = if !self.profile_on {
                self.execute_uop(i, &mut pending_violation)
            } else {
                let t = std::time::Instant::now();
                let comp = self.comp_nanos();
                let ok = self.execute_uop(i, &mut pending_violation);
                let comp_delta = self.comp_nanos() - comp;
                self.profile
                    .add_minus(Section::Execute, t.elapsed(), comp_delta);
                ok
            };
            if executed {
                issued += 1;
                if is_mem {
                    mem_slots -= 1;
                } else {
                    alu_slots -= 1;
                }
                self.sched.remove(SetId::Waiting, seq, i);
                self.sched.remove(SetId::IssueReady, seq, i);
                self.sched.mark_progress();
                if self.tracer.is_some() {
                    let cycle = self.cycle;
                    if let Some(t) = self.tracer.as_mut() {
                        t.on_issue(seq, cycle);
                    }
                }
            }
        }
        self.sched.scratch = scratch;

        if let Some((surviving, refetch_idx)) = pending_violation {
            self.squash_and_refetch(surviving, Some(refetch_idx), SquashKind::MemOrder);
        }
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

    /// Executes the µop at ROB index `i`. Returns `false` if it could not
    /// issue (memory structural conflict).
    fn execute_uop(&mut self, i: usize, pending_violation: &mut Option<(Seq, u32)>) -> bool {
        let cycle = self.cycle;
        let u = &self.rob[i];
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
                return self.execute_load(i, ea, size.bytes(), cycle);
            }
            Op::Ret => {
                let rsp = self.src_val(u, Reg::RSP);
                return self.execute_load(i, rsp, 8, cycle);
            }
            Op::Store { addr, size, .. } => {
                let ea = addr.effective_address(|r| self.src_val(u, r));
                return self.execute_store(i, ea, size.bytes(), cycle, pending_violation);
            }
            Op::Call { .. } => {
                let rsp = self.src_val(u, Reg::RSP).wrapping_sub(8);
                let ok = self.execute_store(i, rsp, 8, cycle, pending_violation);
                if ok {
                    let seq = {
                        let u = &mut self.rob[i];
                        u.dsts[0].value = rsp;
                        // A call's target is static: never mispredicted.
                        u.actual_next = Some(u.pred_next);
                        u.resolved = true;
                        u.seq
                    };
                    self.sched.remove(SetId::UnresolvedBranches, seq, i);
                    self.invalidate_frontier();
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

        let u = &mut self.rob[i];
        let seq = u.seq;
        u.status = UopStatus::Executing(cycle + latency as u64);
        u.issue_cycle = cycle;
        u.div_fault = div_fault;
        for (d, v) in u.dsts.iter_mut().zip(dst_values.iter().copied()) {
            d.value = v;
        }
        let mut newly_resolved = false;
        let mut newly_mispredicted = false;
        if let Some(an) = actual_next {
            u.actual_taken = actual_taken;
            u.actual_next = Some(an);
            u.mispredicted = an != u.pred_next;
            if !u.mispredicted {
                u.resolved = true;
                newly_resolved = true;
            } else {
                newly_mispredicted = true;
            }
        }
        self.sched
            .schedule_completion(cycle + latency as u64, seq, i);
        if newly_resolved {
            self.sched.remove(SetId::UnresolvedBranches, seq, i);
            self.invalidate_frontier();
        }
        if newly_mispredicted {
            self.sched.insert(SetId::ResolvePending, seq, i);
        }
        true
    }

    /// Executes a load: store-queue search, forwarding, cache access.
    /// Returns `false` if it must retry later (partial overlap / data not
    /// ready).
    fn execute_load(&mut self, i: usize, addr: u64, size: u64, cycle: u64) -> bool {
        let seq = self.rob[i].seq;
        // Search older stores, youngest first. Walking the in-flight
        // store set visits exactly the stores the old full-ROB scan
        // found at positions `(0..i).rev()`: sequence numbers are
        // assigned in ROB order, so set order equals position order.
        let mut fwd: Option<(u64, bool, Seq, bool, Seq)> = None;
        let mut blocked = false;
        self.sched.for_each_store_older(seq, i, |s_seq| {
            let j = self
                .rob_index(s_seq)
                .expect("in-flight store set entry is in the ROB");
            let s = &self.rob[j];
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
        let u = &mut self.rob[i];
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
        let mut newly_resolved = false;
        let mut newly_mispredicted = false;
        match u.inst.op {
            Op::Load { .. } => {
                u.dsts[0].value = value; // zero-extended
            }
            Op::Ret => {
                u.dsts[0].value = addr.wrapping_add(8);
                // Resolve the indirect target against the prediction.
                let target = self.program.index_of_pc(value);
                u.actual_next = Some(target);
                u.mispredicted = target != u.pred_next;
                if !u.mispredicted {
                    u.resolved = true;
                    newly_resolved = true;
                } else {
                    newly_mispredicted = true;
                }
            }
            _ => unreachable!("execute_load on non-load"),
        }
        self.sched
            .schedule_completion(cycle + latency as u64, seq, i);
        if newly_resolved {
            self.sched.remove(SetId::UnresolvedBranches, seq, i);
            self.invalidate_frontier();
        }
        if newly_mispredicted {
            self.sched.insert(SetId::ResolvePending, seq, i);
        }
        // Policy hook (access predictor resolution, taint from memory).
        let mut u = self.rob[i].clone();
        self.policy.on_load_data(&mut u, &mut self.tags, &self.l1d);
        self.rob[i] = u;
        true
    }

    /// Executes a store's address phase; detects memory-order violations.
    fn execute_store(
        &mut self,
        i: usize,
        addr: u64,
        size: u64,
        cycle: u64,
        pending_violation: &mut Option<(Seq, u32)>,
    ) -> bool {
        let seq = self.rob[i].seq;
        // Memory-order violation: any younger load that already executed
        // and overlaps (and did not forward from this or a younger
        // store). The in-flight load set replaces the old scan over ROB
        // positions `i + 1..` — same µops, same (age) order.
        self.sched.for_each_load_younger(seq, i, |l_seq| {
            let j = self
                .rob_index(l_seq)
                .expect("in-flight load set entry is in the ROB");
            let l = &self.rob[j];
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
        let u = &mut self.rob[i];
        u.status = UopStatus::Executing(cycle + 1);
        u.issue_cycle = cycle;
        let m = u.mem.as_mut().expect("store has mem state");
        m.addr = Some(addr);
        self.sched.schedule_completion(cycle + 1, seq, i);
        self.sched.insert(SetId::StoreWaiters, seq, i);
        true
    }

    // ------------------------------------------------------------------
    // Rename
    // ------------------------------------------------------------------

    /// Consumes up to `fetch_width` µops from the fetch queue's front
    /// group(s). The queue hands the current group over as one slice;
    /// structural stalls (ROB/LQ/SQ/free-list) stop the whole cycle
    /// exactly as the entry-at-a-time loop did.
    fn rename(&mut self) {
        for _ in 0..self.cfg.fetch_width {
            let Some((front, ready_cycle)) = self.fetch_queue.head() else {
                return;
            };
            if ready_cycle > self.cycle {
                return;
            }
            let idx = front.idx;
            let pred_next = front.pred_next;
            let pred_taken = front.pred_taken;
            let hist_snapshot = front.hist_snapshot;
            if self.rob.len() >= self.cfg.rob_size {
                return;
            }
            let d = *self.decoded.get(idx);
            if d.is_load && self.lq_used >= self.cfg.lq_size {
                return;
            }
            if d.is_store && self.sq_used >= self.cfg.sq_size {
                return;
            }
            if self.free_list.len() < d.dsts.len() {
                return;
            }
            let rsb_snapshot = self
                .fetch_queue
                .head()
                .expect("checked above")
                .0
                .rsb_snapshot
                .clone();
            self.fetch_queue.advance_head();
            let seq = self.next_seq;
            self.next_seq += 1;
            // Register the µop's ROB position with the scheduler before
            // any set insert refers to it (it will be pushed at index
            // `rob_i` below).
            let rob_i = self.rob.len();
            self.sched.on_dispatch(seq);

            // Sources first (they read the pre-update rename map).
            let srcs: InlineVec<(Reg, usize), 3> = d
                .srcs
                .iter()
                .map(|r| (*r, self.rename_map[r.index()]))
                .collect();
            let src_prot = srcs.iter().any(|(_, p)| self.tags.prot[*p]);
            let sens_arch = self.sens_table[idx as usize];
            let sens_prot = srcs
                .iter()
                .any(|(r, p)| sens_arch.contains(*r) && self.tags.prot[*p]);

            // Destinations: allocate and update maps.
            let width = d.write_width;
            let mut dsts: InlineVec<DstInfo, 2> = InlineVec::new();
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
                } else if width.is_partial() && r == d.explicit_dst.unwrap_or(r) {
                    prev_prot
                } else {
                    false
                };
                self.prot_map[r.index()] = new_prot;
                self.tags.prot[new_phys] = new_prot;
                self.tags.taint[new_phys] = false;
                self.tags.yrot[new_phys] = NO_ROOT;
                self.prf_done[new_phys] = false;
                self.prf_ready[new_phys] = false;
                dsts.push(DstInfo {
                    arch: r,
                    new_phys,
                    prev_phys,
                    prev_prot,
                    value: 0,
                });
            }

            if d.is_load {
                self.lq_used += 1;
                self.sched.insert(SetId::InflightLoads, seq, rob_i);
            }
            if d.is_store {
                self.sq_used += 1;
                self.sched.insert(SetId::InflightStores, seq, rob_i);
            }

            let mem = if d.is_mem {
                Some(MemState {
                    addr: None,
                    size: d.mem_size,
                    is_store: d.is_store,
                    value: 0,
                    data_ready: false,
                    data_prot: false,
                    data_yrot: NO_ROOT,
                    data_taint: false,
                    fwd_from: None,
                    fwd_data_yrot: NO_ROOT,
                    fwd_data_taint: false,
                })
            } else {
                None
            };

            let mut u = DynInst {
                seq,
                idx,
                pc: d.pc,
                inst: d.inst,
                srcs,
                dsts,
                status: UopStatus::Waiting,
                mem,
                pred_next,
                pred_taken,
                actual_next: None,
                actual_taken: false,
                mispredicted: false,
                resolved: false,
                wakeup_done: false,
                hist_snapshot,
                rsb_snapshot,
                prot_out: d.inst.prot,
                src_prot,
                sens_prot,
                mem_prot: None,
                in_taint: false,
                in_yrot: NO_ROOT,
                delay_wakeup_nonspec: false,
                wakeup_hold_root: NO_ROOT,
                pred_no_access: None,
                div_fault: false,
                addr_regs: d.addr_regs,
                data_reg: d.store_data_reg,
                fetch_cycle: ready_cycle - self.cfg.frontend_depth as u64,
                rename_cycle: self.cycle,
                issue_cycle: 0,
                complete_cycle: 0,
            };
            self.policy.on_rename(&mut u, &mut self.tags);
            if let Some(t) = self.tracer.as_mut() {
                t.on_rename(&u, self.cycle);
            }
            // Dispatch into the scheduler: every µop enters the waiting
            // set; ready ones go straight to the issue-ready set, the
            // rest park on one unready source register each.
            self.sched.insert(SetId::Waiting, seq, rob_i);
            if self.operands_ready(&u) {
                self.sched.insert(SetId::IssueReady, seq, rob_i);
            } else {
                let p = self
                    .first_unready_src(&u)
                    .expect("not-ready µop has an unready source");
                self.sched.register_dep(p, seq, rob_i);
            }
            if d.is_branch {
                self.sched.insert(SetId::UnresolvedBranches, seq, rob_i);
            }
            self.invalidate_frontier();
            self.sched.mark_progress();
            // Nop/Halt and direct jumps execute trivially.
            self.rob.push_back(u);
            self.stats.fetched += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    /// Fetches one group per cycle: up to `fetch_width` µops ending at
    /// the first predicted-taken control transfer (or an L1I miss, the
    /// queue cap, or program end). The whole group is handed to the
    /// fetch queue as one slice sharing a single ready cycle — entries
    /// fetched the same cycle always shared it anyway.
    fn fetch(&mut self) {
        if self.cycle < self.fetch_stalled_until {
            return;
        }
        let cap = self.cfg.fetch_width * 3;
        // Idle fast path: nothing to fetch (program exhausted / queue at
        // cap) — skip the group bookkeeping entirely. Stall-heavy
        // defense runs spend most cycles here.
        if self.fetch_idx.is_none() || self.fetch_queue.pending() >= cap {
            return;
        }
        let mut group = self.fetch_queue.begin_group();
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_queue.pending() + group.len() >= cap {
                break;
            }
            let Some(idx) = self.fetch_idx else { break };
            if idx as usize >= self.program.len() {
                self.fetch_idx = None;
                break;
            }
            let pc = self.program.pc_of(idx);
            let ctrl = self.decoded.get(idx).ctrl;
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
            let rsb_snapshot = self.rsb.snapshot_shared();
            let mut pred_taken = false;
            let pred_next: Option<u32> = match ctrl {
                CtrlFlow::Jmp { target } => Some(target),
                CtrlFlow::Call { target } => {
                    self.rsb.push(self.program.pc_of(idx + 1));
                    Some(target)
                }
                CtrlFlow::Jcc { target } => {
                    pred_taken = self.with_comp(Section::Bpred, |c| {
                        let p = c.tage.predict(pc);
                        c.tage.speculate(pc, p);
                        p
                    });
                    Some(if pred_taken { target } else { idx + 1 })
                }
                CtrlFlow::Ret => match self.rsb.pop() {
                    Some(ret_pc) => self.program.index_of_pc(ret_pc),
                    None => self
                        .btb
                        .lookup(pc)
                        .and_then(|t| self.program.index_of_pc(t)),
                },
                CtrlFlow::JmpReg => self
                    .btb
                    .lookup(pc)
                    .and_then(|t| self.program.index_of_pc(t)),
                CtrlFlow::Halt => None,
                CtrlFlow::Fall => Some(idx + 1),
            };
            group.push(FetchEntry {
                idx,
                pred_next,
                pred_taken,
                hist_snapshot,
                rsb_snapshot,
            });
            self.sched.mark_progress();
            self.fetch_idx = pred_next;
            // Stop the fetch group after a taken control transfer.
            if pred_next != Some(idx + 1) {
                break;
            }
        }
        if !group.is_empty() {
            if self.tracer.is_some() {
                let (cycle, start, len) = (self.cycle, group[0].idx, group.len() as u32);
                if let Some(t) = self.tracer.as_mut() {
                    t.on_fetch_group(cycle, start, len);
                }
            }
        }
        self.fetch_queue
            .push_group(group, self.cycle + self.cfg.frontend_depth as u64);
    }
}
