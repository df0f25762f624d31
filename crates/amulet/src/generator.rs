//! Random test-program generation (the role of AMuLeT\*'s
//! llvm-stress-based generator, paper §VII-B1a).
//!
//! Programs mix random computation blocks with parameterized Spectre
//! gadget templates, so that the unsafe baseline reliably exhibits
//! transient leaks while defenses are exercised on diverse code:
//!
//! * **bounds-check bypass** (Spectre-v1): a trained bounds check with a
//!   slow bound and a dependent transmit load;
//! * **implicit channel**: a transiently loaded secret feeding a branch;
//! * **divider channel**: a transiently loaded secret feeding a division
//!   µop — the gem5 transmitter AMuLeT\* discovered (§VII-B4b);
//! * **memory-order speculation**: a load that transiently reads a stale
//!   secret past an older, slow store — invisible to the CONTROL
//!   speculation model (paper footnote 1);
//! * **return-stack speculation** (Spectre-RSB/Retbleed-style): a callee
//!   overwrites its return address, so the RSB steers transient
//!   execution to the abandoned call site, where a secret is loaded and
//!   transmitted;
//! * **indirect-branch speculation** (Spectre-v2): a `jmpreg` trained to
//!   one target is transiently redirected there while its actual,
//!   slow-arriving target goes elsewhere.
//!
//! Layout convention: public data lives at [`PUBLIC_BASE`], secrets at
//! [`SECRET_BASE`]; generated code only *architecturally* addresses the
//! public window (addresses are masked), so secret-dependent traces can
//! only arise transiently or through deliberate gadget loads.

use protean_isa::{AluOp, Cond, Mem, Program, ProgramBuilder, Reg};
use protean_rng::Rng;

/// Base of the public data window.
pub const PUBLIC_BASE: u64 = 0x10000;
/// Size of the public data window (power of two).
pub const PUBLIC_SIZE: u64 = 0x1000;
/// Base of the secret region.
pub const SECRET_BASE: u64 = PUBLIC_BASE + PUBLIC_SIZE;
/// Number of secret bytes.
pub const SECRET_SIZE: u64 = 0x100;
/// Initial stack pointer.
pub const STACK_TOP: u64 = 0x8_0000;
/// Base of the always-cold pointer-chase region used to delay bounds
/// checks.
pub const COLD_BASE: u64 = 0x10_0000;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Approximate number of generated segments.
    pub segments: usize,
    /// Probability that a segment is a Spectre gadget template.
    pub gadget_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            segments: 5,
            gadget_bias: 0.5,
            seed: 0,
        }
    }
}

/// How many cold pointer-chase cells a generated program may consume
/// (each gadget uses one fresh cell per trip).
const COLD_CELLS: u64 = 512;

/// The gadget templates the generator draws from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GadgetTemplate {
    /// Bounds-check bypass transmitting via a dependent load.
    BoundsLoad,
    /// Bounds-check bypass transmitting via a branch (implicit channel).
    BoundsBranch,
    /// Bounds-check bypass transmitting via the divider (§VII-B4b).
    BoundsDiv,
    /// Memory-order speculation past a slow store (footnote 1).
    MemOrder,
    /// Return-stack speculation (Spectre-RSB / Retbleed-style).
    Rsb,
    /// Indirect-branch speculation (Spectre-v2).
    Btb,
}

impl GadgetTemplate {
    /// All templates.
    pub const ALL: [GadgetTemplate; 6] = [
        GadgetTemplate::BoundsLoad,
        GadgetTemplate::BoundsBranch,
        GadgetTemplate::BoundsDiv,
        GadgetTemplate::MemOrder,
        GadgetTemplate::Rsb,
        GadgetTemplate::Btb,
    ];

    /// Template name for reports and coverage-map keys.
    pub fn name(self) -> &'static str {
        match self {
            GadgetTemplate::BoundsLoad => "bounds-load",
            GadgetTemplate::BoundsBranch => "bounds-branch",
            GadgetTemplate::BoundsDiv => "bounds-div",
            GadgetTemplate::MemOrder => "mem-order",
            GadgetTemplate::Rsb => "rsb",
            GadgetTemplate::Btb => "btb",
        }
    }
}

/// A generated program together with the gadget templates its segments
/// drew — the attribution the campaign engine's coverage map needs
/// (coverage events are keyed on `template × pipeline event`).
#[derive(Clone, Debug)]
pub struct GeneratedProgram {
    /// The generated (uninstrumented) program.
    pub program: Program,
    /// The gadget template of each gadget segment, in segment order
    /// (non-gadget random segments are not recorded).
    pub templates: Vec<GadgetTemplate>,
}

/// Generates a test program whose gadget segments all use `template`
/// (for targeted validation of one speculation primitive).
pub fn generate_with_template(cfg: &GenConfig, template: GadgetTemplate) -> Program {
    generate_recorded(cfg, Some(template), None).program
}

/// Generates a test program.
///
/// # Examples
///
/// ```
/// use protean_amulet::{generate, GenConfig};
///
/// let prog = generate(&GenConfig { segments: 4, gadget_bias: 0.5, seed: 42 });
/// assert!(prog.validate().is_ok());
/// assert!(prog.len() > 10);
/// ```
pub fn generate(cfg: &GenConfig) -> Program {
    generate_recorded(cfg, None, None).program
}

/// Draws one template index from integer `weights` (all ≥ 1 by
/// construction — the campaign engine clamps). One `gen_range` call.
fn weighted_template(rng: &mut Rng, weights: &[u64; GadgetTemplate::ALL.len()]) -> GadgetTemplate {
    let total: u64 = weights.iter().sum();
    let mut x = rng.gen_range(0..total.max(1));
    for (t, &w) in GadgetTemplate::ALL.iter().zip(weights) {
        if x < w {
            return *t;
        }
        x -= w;
    }
    GadgetTemplate::ALL[GadgetTemplate::ALL.len() - 1]
}

/// Generates a test program, recording which gadget templates its
/// segments used, optionally biasing template selection by `weights`
/// (indexed like [`GadgetTemplate::ALL`]; larger = more likely).
///
/// [`generate`] and [`generate_with_template`] are this draw without
/// weights. A `Some(weights)` draw uses weighted sampling and therefore
/// generates a different (but equally deterministic) stream — the
/// campaign engine's coverage feedback path.
pub fn generate_recorded(
    cfg: &GenConfig,
    only: Option<GadgetTemplate>,
    weights: Option<&[u64; GadgetTemplate::ALL.len()]>,
) -> GeneratedProgram {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut b = ProgramBuilder::new();
    let mut templates = Vec::new();
    // Prologue: stack, cold-chain cursor (R11), public pointer (R10).
    b.mov_imm(Reg::RSP, STACK_TOP);
    b.mov_imm(Reg::R10, PUBLIC_BASE);
    b.mov_imm(Reg::R11, COLD_BASE);
    for i in 0..6 {
        b.mov_imm(Reg::gpr(i), rng.gen_range(0..1024));
    }
    for _ in 0..cfg.segments {
        if rng.gen_bool(cfg.gadget_bias) {
            let template = match (only, weights) {
                (Some(t), _) => t,
                (None, Some(w)) => weighted_template(&mut rng, w),
                (None, None) => GadgetTemplate::ALL[rng.gen_range(0..GadgetTemplate::ALL.len())],
            };
            templates.push(template);
            match template {
                GadgetTemplate::BoundsLoad => {
                    gadget_bounds_bypass(&mut b, &mut rng, GadgetSink::Load)
                }
                GadgetTemplate::BoundsBranch => {
                    gadget_bounds_bypass(&mut b, &mut rng, GadgetSink::Branch)
                }
                GadgetTemplate::BoundsDiv => {
                    gadget_bounds_bypass(&mut b, &mut rng, GadgetSink::Div)
                }
                GadgetTemplate::MemOrder => gadget_memory_order(&mut b, &mut rng),
                GadgetTemplate::Rsb => gadget_rsb(&mut b, &mut rng),
                GadgetTemplate::Btb => gadget_btb(&mut b, &mut rng),
            }
        } else {
            random_segment(&mut b, &mut rng);
        }
    }
    b.halt();
    GeneratedProgram {
        program: b.build().expect("generator emits well-formed programs"),
        templates,
    }
}

/// Prepares the initial memory contents a generated program expects:
/// the cold pointer-chase cells (each resolving to the public array
/// bound, 16). Secrets and public data are installed by the fuzzer.
///
/// The contents are a pure function of the layout constants, but the
/// cells deliberately sit on 2×`COLD_CELLS` distinct 4 KiB pages (cold
/// = always miss), so writing them materialises ~1024 pages — by far the
/// most expensive part of building a fuzzer input. The pages are built
/// once into a process-wide template and frozen into its shared base
/// layer ([`protean_arch::Memory::freeze`]), so `mem` — and every later
/// clone of it — inherits them in O(1) and holds only the pages it
/// writes itself. `mem`'s previous contents are **replaced** (every
/// caller starts from a fresh memory).
pub fn init_cold_chain(mem: &mut protean_arch::Memory) {
    static TEMPLATE: std::sync::OnceLock<protean_arch::Memory> = std::sync::OnceLock::new();
    let template = TEMPLATE.get_or_init(|| {
        let mut mem = protean_arch::Memory::new();
        for i in 0..COLD_CELLS {
            let cell = COLD_BASE + i * 4096;
            let indirect = COLD_BASE + COLD_CELLS * 4096 + i * 4096;
            mem.write(cell, 8, indirect);
            mem.write(indirect, 8, 16);
        }
        mem.freeze();
        mem
    });
    mem.clone_from(template);
}

fn random_segment(b: &mut ProgramBuilder, rng: &mut Rng) {
    let n = rng.gen_range(3..12);
    for _ in 0..n {
        match rng.gen_range(0..10) {
            0..=4 => {
                let op = AluOp::ALL[rng.gen_range(0..AluOp::ALL.len())];
                let dst = Reg::gpr(rng.gen_range(0..8));
                let s1 = Reg::gpr(rng.gen_range(0..8));
                if rng.gen_bool(0.5) {
                    b.alu(op, dst, s1, Reg::gpr(rng.gen_range(0..8)));
                } else {
                    b.alu(op, dst, s1, rng.gen_range(0..4096u64));
                }
            }
            5..=6 => {
                // Masked public load: architecturally always in-window.
                let dst = Reg::gpr(rng.gen_range(0..8));
                let idx = Reg::gpr(rng.gen_range(0..8));
                b.and(Reg::R13, idx, PUBLIC_SIZE - 8);
                b.load(dst, Mem::base(Reg::R10).with_index(Reg::R13, 1));
            }
            7 => {
                let src = Reg::gpr(rng.gen_range(0..8));
                let idx = Reg::gpr(rng.gen_range(0..8));
                b.and(Reg::R13, idx, PUBLIC_SIZE - 8);
                b.store(Mem::base(Reg::R10).with_index(Reg::R13, 1), src);
            }
            8 => {
                // A short, input-dependent diamond.
                let skip = b.label("d");
                b.cmp(Reg::gpr(rng.gen_range(0..8)), rng.gen_range(0..512u64));
                b.jcc(Cond::ALL[rng.gen_range(0..Cond::ALL.len())], skip);
                b.add(
                    Reg::gpr(rng.gen_range(0..8)),
                    Reg::gpr(rng.gen_range(0..8)),
                    1,
                );
                b.bind(skip);
            }
            _ => {
                // A small bounded loop.
                let top = b.here("l");
                b.add(Reg::R12, Reg::R12, 1);
                b.and(Reg::R13, Reg::R12, 7);
                b.cmp(Reg::R13, 0);
                b.jcc(Cond::Ne, top);
            }
        }
    }
}

/// Where a transiently loaded secret is steered (the gadget's
/// transmitter).
#[derive(Clone, Copy, Debug)]
enum GadgetSink {
    /// Secret-indexed load (cache channel).
    Load,
    /// Secret-dependent branch (implicit channel).
    Branch,
    /// Secret-dependent division (the divider latency/fault channel).
    Div,
}

/// Spectre-v1 template: train an in-bounds check, then present an
/// out-of-bounds index while the (cold pointer-chased) bound is still in
/// flight; steer the out-of-bounds (secret) value into `sink`.
fn gadget_bounds_bypass(b: &mut ProgramBuilder, rng: &mut Rng, sink: GadgetSink) {
    let trips = rng.gen_range(12..24u64);
    let trip = Reg::R9;
    let idx = Reg::R8;
    let bound = Reg::R7;
    let val = Reg::R6;
    let tmp = Reg::R13;
    // Out-of-bounds index reaching into the secret region: the public
    // array spans PUBLIC_SIZE bytes, so the secret at PUBLIC_BASE +
    // PUBLIC_SIZE starts at element index PUBLIC_SIZE/8.
    let oob = PUBLIC_SIZE / 8 + rng.gen_range(0..SECRET_SIZE / 8);

    let attack = b.label("g_attack");
    let victim = b.label("g_victim");
    let skip = b.label("g_skip");
    let done = b.label("g_done");
    b.mov_imm(trip, 0);
    let top = b.here("g_top");
    b.cmp(trip, trips);
    b.jcc(Cond::Eq, attack);
    b.and(idx, trip, 15); // in-bounds while training
    b.jmp(victim);
    b.bind(attack);
    b.mov_imm(idx, oob); // out of bounds: indexes the secret region
    b.bind(victim);
    // Slow bound: two dependent cold loads.
    b.load(bound, Mem::base(Reg::R11));
    b.load(bound, Mem::base(bound));
    b.cmp(idx, bound);
    b.jcc(Cond::Uge, skip);
    // In-bounds body (transient on the attack trip):
    b.load(val, Mem::abs(PUBLIC_BASE).with_index(idx, 8));
    match sink {
        GadgetSink::Load => {
            b.shl(tmp, val, 6);
            b.and(tmp, tmp, 0xfff8);
            b.load(val, Mem::abs(PUBLIC_BASE + 0x8000).with_index(tmp, 1));
        }
        GadgetSink::Branch => {
            // The canonical implicit channel: the transient branch
            // selects between two *public* loads, so the cache reveals
            // the secret predicate without any secret-derived address.
            // Each side probes a trip-unique line, so the training trips
            // cannot pre-pollute the attack trip's probe lines.
            let t = b.label("g_sec");
            let done = b.label("g_sec_done");
            b.shl(Reg::R4, trip, 6); // trip-unique line offset
            b.and(val, val, 0xff); // a secret byte: ~50/50 predicate
            b.cmp(val, 0x80);
            b.jcc(Cond::Ult, t);
            b.load(tmp, Mem::abs(PUBLIC_BASE + 0x10000).with_index(Reg::R4, 1));
            b.jmp(done);
            b.bind(t);
            b.load(tmp, Mem::abs(PUBLIC_BASE + 0x18000).with_index(Reg::R4, 1));
            b.bind(done);
        }
        GadgetSink::Div => {
            // Two chained divisions whose latency is a strong function of
            // the secret: they keep the (non-pipelined) divider busy past
            // the bounds-check squash, delaying the *architectural*
            // division below — the gem5 divider channel of §VII-B4b.
            b.and(tmp, val, 0xffff);
            b.add(tmp, tmp, 1);
            b.mov_imm(val, 0x7fff_ffff_ffff_ffff);
            b.div(val, val, tmp);
            b.div(val, val, tmp);
        }
    }
    b.bind(skip);
    if matches!(sink, GadgetSink::Div) {
        // Architectural division contending for the divider.
        b.mov_imm(tmp, 1_000_003);
        b.mov_imm(val, 7);
        b.div(tmp, tmp, val);
    }
    b.add(Reg::R11, Reg::R11, 4096); // next cold cell
    b.add(trip, trip, 1);
    b.cmp(trip, trips + 1);
    b.jcc(Cond::Ult, top);
    b.jmp(done);
    b.bind(done);
}

/// Memory-order template: a store to a secret-holding slot whose address
/// arrives late; the younger reload transiently reads the *stale secret*
/// and transmits it. Architecturally the slot always reads back the
/// public value. Only ATCOMMIT-grade defenses catch this (footnote 1).
fn gadget_memory_order(b: &mut ProgramBuilder, rng: &mut Rng) {
    let slot = rng.gen_range(0..SECRET_SIZE / 8) * 8;
    let addr = Reg::R7;
    let val = Reg::R6;
    let tmp = Reg::R13;
    // Slow address: cold pointer chase, then a fixed offset into the
    // secret region.
    b.load(addr, Mem::base(Reg::R11));
    b.load(addr, Mem::base(addr)); // = 16 (public bound), reused as a delay
    b.mul(addr, addr, 0); // = 0, but dependent on the slow chain
    b.add(addr, addr, SECRET_BASE + slot);
    // The store that overwrites the secret with a public constant…
    b.store(Mem::base(addr), 0x5au64);
    // …and the younger reload + transmit that can slip ahead of it.
    b.mov_imm(tmp, SECRET_BASE + slot);
    b.load(val, Mem::base(tmp));
    b.and(val, val, 0xff8);
    b.load(tmp, Mem::abs(PUBLIC_BASE + 0x8000).with_index(val, 1));
    b.add(Reg::R11, Reg::R11, 4096);
}

/// Spectre-RSB template: `g` overwrites its return address (a stack
/// switch), so the `ret` architecturally continues elsewhere while the
/// RSB predicts the abandoned call site — whose code loads and
/// transmits a secret. The replacement target arrives through a cold
/// pointer chase, giving the transient window time.
fn gadget_rsb(b: &mut ProgramBuilder, rng: &mut Rng) {
    let slot = rng.gen_range(0..SECRET_SIZE / 8) * 8;
    let g = b.label("rsb_g");
    let real_cont = b.label("rsb_cont");
    let val = Reg::R6;
    let tmp = Reg::R13;
    b.call(g);
    // --- abandoned call site: the transient zone -----------------
    b.mov_imm(tmp, SECRET_BASE + slot);
    b.load(val, Mem::base(tmp)); // secret (transient only)
    b.and(val, val, 0xff8);
    b.load(tmp, Mem::abs(PUBLIC_BASE + 0x8000).with_index(val, 1)); // transmit
    b.jmp(real_cont);
    // --- g: stack switch ------------------------------------------
    b.bind(g);
    // The replacement return target arrives late (cold chase).
    b.load(val, Mem::base(Reg::R11));
    b.load(val, Mem::base(val)); // = 16; dependency only
    b.mul(val, val, 0); // = 0, still dependent on the chase
                        // The new return target: a relocated code pointer (survives ProtCC
                        // instrumentation, like a linker relocation).
    b.mov_code_pointer(tmp, real_cont);
    b.add(tmp, tmp, val); // dependent on the slow chase
    b.store(Mem::base(Reg::RSP), tmp);
    b.ret();
    b.bind(real_cont);
    b.add(Reg::R11, Reg::R11, 4096);
}

/// Spectre-v2 template: an indirect jump trained to `hot` receives a
/// slow-arriving (cold-chase-dependent) pointer to `cold` on the final
/// trip; the BTB steers transient execution through `hot`, which
/// dereferences the secret region.
fn gadget_btb(b: &mut ProgramBuilder, rng: &mut Rng) {
    static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let uid = NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let trips = rng.gen_range(12..20u64);
    let slot = rng.gen_range(0..SECRET_SIZE / 8) * 8;
    let (trip, target, val, tmp) = (Reg::R9, Reg::R8, Reg::R6, Reg::R13);
    let hot = b.label(format!("btb_hot_{uid}"));
    let cold = b.label(format!("btb_cold_{uid}"));
    let top = b.label(format!("btb_top_{uid}"));
    let tail = b.label(format!("btb_tail_{uid}"));
    let take_cold = b.label(format!("btb_take_cold_{uid}"));
    let dispatch = b.label(format!("btb_dispatch_{uid}"));
    let inb = b.label(format!("btb_inb_{uid}"));

    b.mov_imm(trip, 0);
    b.bind(top);
    // Delay element: the dispatch target depends on a cold pointer chase.
    b.load(val, Mem::base(Reg::R11));
    b.load(val, Mem::base(val)); // = 16
    b.mul(val, val, 0); // = 0, chase-dependent
    b.cmp(trip, trips);
    b.jcc(Cond::Eq, take_cold);
    b.mov_code_pointer(target, hot);
    b.jmp(dispatch);
    b.bind(take_cold);
    b.mov_code_pointer(target, cold);
    b.bind(dispatch);
    b.add(target, target, val); // +0, but waits on the chase
    b.jmpreg(target); // trained to `hot`; mispredicts on the final trip
                      // --- hot: public work during training; on the final (transient)
                      //     visit, trip == trips selects the secret deref ----------------
    b.bind(hot);
    b.and(tmp, trip, 15);
    b.load(val, Mem::abs(PUBLIC_BASE).with_index(tmp, 8));
    b.cmp(trip, trips);
    b.jcc(Cond::Ult, inb);
    b.mov_imm(tmp, SECRET_BASE + slot);
    b.load(val, Mem::base(tmp)); // transient-only secret load
    b.and(val, val, 0xff8);
    b.load(tmp, Mem::abs(PUBLIC_BASE + 0x8000).with_index(val, 1));
    b.bind(inb);
    b.jmp(tail);
    // --- cold: the architectural final-trip target --------------------
    b.bind(cold);
    b.add(Reg::R12, Reg::R12, 1);
    b.bind(tail);
    b.add(Reg::R11, Reg::R11, 4096);
    b.add(trip, trip, 1);
    b.cmp(trip, trips + 1);
    b.jcc(Cond::Ult, top);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_are_well_formed() {
        for seed in 0..50 {
            let p = generate(&GenConfig {
                segments: 6,
                gadget_bias: 0.5,
                seed,
            });
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig {
            segments: 4,
            gadget_bias: 0.7,
            seed: 9,
        };
        assert_eq!(generate(&cfg).insts, generate(&cfg).insts);
    }

    #[test]
    fn recorded_generation_matches_legacy_and_records_templates() {
        for seed in 0..20 {
            let cfg = GenConfig {
                segments: 6,
                gadget_bias: 0.7,
                seed,
            };
            let legacy = generate(&cfg);
            let recorded = generate_recorded(&cfg, None, None);
            assert_eq!(
                legacy.insts, recorded.program.insts,
                "seed {seed}: recorded generation drifted from generate()"
            );
            assert!(recorded.templates.len() <= cfg.segments);
            let only = generate_recorded(&cfg, Some(GadgetTemplate::MemOrder), None);
            assert!(only
                .templates
                .iter()
                .all(|t| *t == GadgetTemplate::MemOrder));
        }
    }

    #[test]
    fn weighted_generation_is_deterministic_and_biases_templates() {
        let cfg = GenConfig {
            segments: 8,
            gadget_bias: 1.0,
            seed: 13,
        };
        // All weight on one template: every gadget segment must use it.
        let mut w = [0u64; GadgetTemplate::ALL.len()];
        w[3] = 10; // MemOrder
        let g = generate_recorded(&cfg, None, Some(&w));
        assert!(!g.templates.is_empty());
        assert!(g.templates.iter().all(|t| *t == GadgetTemplate::MemOrder));
        // Deterministic: same weights, same seed, same program.
        let h = generate_recorded(&cfg, None, Some(&w));
        assert_eq!(g.program.insts, h.program.insts);
        assert_eq!(g.templates, h.templates);
    }

    #[test]
    fn generated_programs_terminate() {
        use protean_arch::{ArchState, Emulator, ExitStatus};
        for seed in 0..20 {
            let p = generate(&GenConfig {
                segments: 5,
                gadget_bias: 0.5,
                seed,
            });
            let mut state = ArchState::new();
            init_cold_chain(&mut state.mem);
            let mut emu = Emulator::new(&p, state);
            let (status, _) = emu.run(200_000);
            assert_eq!(status, ExitStatus::Halted, "seed {seed}");
        }
    }
}
