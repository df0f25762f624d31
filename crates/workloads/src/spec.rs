//! SPEC CPU2017-like single-thread kernels (paper §VIII-B1).
//!
//! Each kernel mirrors the microarchitectural character of its namesake:
//! `mcf_s` is dominated by dependent pointer chasing (the load-load
//! serialization that makes STT slow, §IX-B1), `deepsjeng_s` by
//! hard-to-predict branches, `lbm_s` by streaming arithmetic, `gcc_s` /
//! `xalancbmk_s` by table lookups, `omnetpp_s` by an in-memory priority
//! queue, `exchange2_s`/`leela_s` by register-heavy compute, and
//! `perlbench_s` by byte-wise string hashing.

use crate::{Scale, Suite, Workload};
use protean_arch::ArchState;
use protean_isa::{AluOp, Cond, Mem, ProgramBuilder, Reg, SecurityClass, Width};
use protean_rng::Rng;

const DATA: u64 = 0x10_0000;
const STACK_TOP: u64 = 0xf_0000;
/// A context cell holding the data-segment pointer (a GOT/global slot):
/// compiled code reaches its data through *loaded* pointers, which is
/// what makes ProtCC-UNR expensive (loaded values are never provably
/// never-secret) and keeps SPT stalling (initial-memory bytes are never
/// published).
const CTX: u64 = 0xe_0000;

/// All SPEC2017-like kernels.
pub fn spec2017(scale: Scale) -> Vec<Workload> {
    vec![
        perlbench(scale),
        gcc(scale),
        mcf(scale),
        xalancbmk(scale),
        deepsjeng(scale),
        leela(scale),
        exchange2(scale),
        omnetpp(scale),
        x264(scale),
        xz(scale),
        lbm(scale),
        nab(scale),
    ]
}

/// The integer subset (used by the §IX-A2…A7 ablations).
pub fn spec2017_int(scale: Scale) -> Vec<Workload> {
    spec2017(scale)
        .into_iter()
        .filter(is_spec2017_int)
        .collect()
}

/// Whether a [`spec2017`] kernel belongs to the integer subset.
pub fn is_spec2017_int(w: &Workload) -> bool {
    w.name != "lbm.s" && w.name != "nab.s"
}

fn workload(name: &str, b: ProgramBuilder, init: ArchState, max_insts: u64) -> Workload {
    Workload::single(
        name,
        Suite::Spec2017,
        SecurityClass::Arch,
        b.build().expect("kernel builds"),
        init,
        max_insts,
    )
}

/// Warm-up sweep over `[base, base+bytes)` (see `wasm::emit_warmup`):
/// unprefixed loads unprotect the working set, standing in for the
/// paper's pre-simpoint warm-up.
fn emit_warmup(b: &mut ProgramBuilder, base: u64, bytes: u64) {
    b.mov_imm(Reg::R12, 0);
    let top = b.here("warm");
    b.load(Reg::R13, Mem::abs(base).with_index(Reg::R12, 1));
    b.add(Reg::R12, Reg::R12, 8);
    b.cmp(Reg::R12, bytes);
    b.jcc(Cond::Ult, top);
}

fn base_state() -> ArchState {
    let mut s = ArchState::new();
    s.set_reg(Reg::RSP, STACK_TOP);
    s.mem.write(CTX, 8, DATA);
    s.mem.write(CTX + 8, 8, DATA + 0x8000);
    s.mem.write(CTX + 16, 8, DATA + 0x10000);
    s.mem.write(CTX + 24, 8, DATA + 0x40000);
    s
}

/// Loads the data-segment base pointers into `R11`/`R10` (see [`CTX`]).
fn emit_load_bases(b: &mut ProgramBuilder, second: u64) {
    b.load(Reg::R11, Mem::abs(CTX));
    b.load(Reg::R10, Mem::abs(CTX + second));
}

/// `perlbench_s`: byte-wise string hashing over many small strings.
fn perlbench(scale: Scale) -> Workload {
    let strings = 400 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x2800);
    emit_warmup(&mut b, DATA + 0x8000, 0x4000);
    let (sptr, i, j, h, c, acc) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    emit_load_bases(&mut b, 8);
    b.mov(sptr, Reg::R11);
    b.mov_imm(i, 0);
    b.mov_imm(acc, 0);
    let outer = b.here("outer");
    // `mov eax, 5381`-style 32-bit reset: exercises SPT's upper-bits
    // untaint performance fix (§VII-B4c).
    b.emit(protean_isa::Op::MovImm {
        dst: h,
        imm: 5381,
        width: Width::W32,
    });
    b.mov_imm(j, 0);
    let inner = b.here("inner");
    // h = h*33 + byte
    b.load_sized(c, Mem::base(sptr).with_index(j, 1), Width::W8);
    b.emit(protean_isa::Op::Alu {
        op: AluOp::Mul,
        dst: h,
        src1: h,
        src2: protean_isa::Operand::Imm(33),
        width: Width::W32, // 32-bit hash arithmetic (zero-extends)
    });
    b.emit(protean_isa::Op::Alu {
        op: AluOp::Add,
        dst: h,
        src1: h,
        src2: protean_isa::Operand::Reg(c),
        width: Width::W32,
    });
    b.add(j, j, 1);
    b.cmp(j, 24);
    b.jcc(Cond::Ult, inner);
    // bucket update
    b.and(h, h, 0x3ff8);
    b.load(c, Mem::base(Reg::R10).with_index(h, 1));
    b.add(c, c, 1);
    b.store(Mem::base(Reg::R10).with_index(h, 1), c);
    b.add(acc, acc, h);
    b.add(sptr, sptr, 24);
    b.add(i, i, 1);
    b.cmp(i, strings);
    b.jcc(Cond::Ult, outer);
    b.store(Mem::abs(DATA - 8), acc);
    b.halt();

    let mut init = base_state();
    let mut rng = Rng::seed_from_u64(11);
    for a in 0..(strings * 24 + 64) {
        init.mem.write_u8(DATA + a, rng.gen());
    }
    workload("perlbench.s", b, init, 40_000 * scale.0)
}

/// `gcc_s`: opcode-dispatch-style table lookups plus branchy rewriting.
fn gcc(scale: Scale) -> Workload {
    let n = 3_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x8000);
    emit_warmup(&mut b, DATA + 0x10000, 0x1000);
    let (i, op, t, v, acc) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    emit_load_bases(&mut b, 16);
    b.mov_imm(i, 0);
    b.mov_imm(acc, 0);
    let top = b.here("top");
    let simple = b.label("simple");
    let join = b.label("join");
    b.and(t, i, 0x7ff8);
    b.load(op, Mem::base(Reg::R11).with_index(t, 1)); // "IR opcode"
    b.and(t, op, 0xff8);
    b.load(v, Mem::base(Reg::R10).with_index(t, 1)); // dispatch: load->load
    b.cmp(v, 128);
    b.jcc(Cond::Ult, simple);
    b.mul(acc, acc, 17);
    b.add(acc, acc, v);
    b.jmp(join);
    b.bind(simple);
    b.or(Reg::R5, v, 1);
    b.div(acc, acc, Reg::R5); // cost-normalization divide (a transmitter)
    b.bind(join);
    b.and(t, acc, 0x7ff8);
    b.store(Mem::base(Reg::R11).with_index(t, 1), acc);
    // Streaming IR growth: a long-latency miss every 4th iteration keeps
    // the window full, so the dispatch load->load pairs above wait far
    // from the ROB head under taint tracking.
    let nostream = b.label("nostream");
    b.add(Reg::R9, Reg::R9, 1);
    b.and(Reg::R5, Reg::R9, 3);
    b.cmp(Reg::R5, 0);
    b.jcc(Cond::Ne, nostream);
    b.mul(t, i, 163);
    b.and(t, t, 0x7_fff8);
    b.load(Reg::R5, Mem::base(Reg::R10).with_index(t, 1));
    b.add(acc, acc, Reg::R5);
    b.bind(nostream);
    b.add(i, i, 40);
    b.cmp(i, n * 40);
    b.jcc(Cond::Ult, top);
    b.halt();

    let mut init = base_state();
    let mut rng = Rng::seed_from_u64(12);
    for k in 0..0x3000 {
        init.mem.write(DATA + k * 8, 8, rng.gen_range(0..4096));
    }
    workload("gcc.s", b, init, 45_000 * scale.0)
}

/// `mcf_s`: dependent pointer chasing over an L2-sized linked structure —
/// each load's address comes from the previous load.
fn mcf(scale: Scale) -> Workload {
    let nodes: u64 = 4 * 1024; // 4 K nodes * 16 B spans L1/L2
    let hops = 10_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x10000);
    let (p, v, acc, i) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
    b.load(p, Mem::abs(CTX)); // list head through the context
    b.mov_imm(i, 0);
    let top = b.here("top");
    b.load(v, Mem::base(p).with_disp(8)); // node payload
    b.add(acc, acc, v);
    b.load(p, Mem::base(p)); // next pointer: the dependent chain
    b.add(i, i, 1);
    b.cmp(i, hops);
    b.jcc(Cond::Ult, top);
    b.store(Mem::abs(DATA - 8), acc);
    b.halt();

    let mut init = base_state();
    // A random permutation cycle of nodes.
    let mut rng = Rng::seed_from_u64(13);
    let mut order: Vec<u64> = (1..nodes).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, rng.gen_range(0..=k));
    }
    let mut cur = 0u64;
    for &nxt in &order {
        init.mem.write(DATA + cur * 16, 8, DATA + nxt * 16);
        init.mem
            .write(DATA + cur * 16 + 8, 8, rng.gen_range(0..1000));
        cur = nxt;
    }
    init.mem.write(DATA + cur * 16, 8, DATA);
    init.mem.write(DATA + cur * 16 + 8, 8, 7);
    workload("mcf.s", b, init, 70_000 * scale.0)
}

/// `xalancbmk_s`: hash-table probing with compare-and-continue loops.
fn xalancbmk(scale: Scale) -> Workload {
    let lookups = 2_500 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x4000);
    let (key, slot, v, i, acc, probes) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    emit_load_bases(&mut b, 8);
    b.mov_imm(i, 0);
    let top = b.here("top");
    let probe = b.label("probe");
    let found = b.label("found");
    // Every 4th lookup hashes a streamed key string (long-latency miss):
    // keeps the window full while the probe chain's load->load pairs wait.
    let hotkey = b.label("hotkey");
    b.and(key, i, 3);
    b.cmp(key, 0);
    b.jcc(Cond::Ne, hotkey);
    b.mul(key, i, 4597);
    b.and(key, key, 0x7_fff8);
    b.load(key, Mem::base(Reg::R10).with_index(key, 1));
    b.bind(hotkey);
    b.mul(key, i, 2654435761);
    b.mov(slot, key);
    b.mov_imm(probes, 0);
    b.bind(probe);
    b.and(slot, slot, 0x3ff8);
    b.load(v, Mem::base(Reg::R11).with_index(slot, 1));
    b.cmp(v, 0);
    b.jcc(Cond::Eq, found); // empty slot
    b.add(slot, slot, v); // rehash step from the *loaded* entry
    b.add(slot, slot, 8);
    b.add(probes, probes, 1);
    b.cmp(probes, 8);
    b.jcc(Cond::Ult, probe);
    b.bind(found);
    b.add(acc, acc, probes);
    b.add(i, i, 1);
    b.cmp(i, lookups);
    b.jcc(Cond::Ult, top);
    b.store(Mem::abs(DATA - 8), acc);
    b.halt();

    let mut init = base_state();
    let mut rng = Rng::seed_from_u64(14);
    for k in 0..0x800u64 {
        // Half the table occupied.
        let val = if rng.gen_bool(0.5) {
            rng.gen_range(1..100u64)
        } else {
            0
        };
        init.mem.write(DATA + k * 8, 8, val);
    }
    workload("xalancbmk.s", b, init, 60_000 * scale.0)
}

/// `deepsjeng_s`: data-dependent branching over pseudo-random positions —
/// a high misprediction rate stresses squash paths.
fn deepsjeng(scale: Scale) -> Workload {
    let n = 4_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x2000);
    let (x, i, acc, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
    emit_load_bases(&mut b, 8);
    // The position seed comes from memory (the transposition table):
    // SPT treats it — and every index derived from it — as private
    // forever, since the derived values are transmitted but the seed's
    // own chain is not.
    b.load(x, Mem::base(Reg::R11).with_disp(0x1ff0));
    b.or(x, x, 1);
    b.mov_imm(i, 0);
    let top = b.here("top");
    let a1 = b.label("a1");
    let a2 = b.label("a2");
    let join = b.label("join");
    // xorshift: unpredictable low bits.
    b.shl(t, x, 13);
    b.xor(x, x, t);
    b.shr(t, x, 7);
    b.xor(x, x, t);
    b.shl(t, x, 17);
    b.xor(x, x, t);
    b.and(t, x, 3);
    b.cmp(t, 1);
    b.jcc(Cond::Ult, a1);
    b.cmp(t, 2);
    b.jcc(Cond::Ult, a2);
    b.mul(acc, acc, 3);
    b.jmp(join);
    b.bind(a1);
    b.add(acc, acc, 1);
    b.jmp(join);
    b.bind(a2);
    b.xor(acc, acc, x);
    b.bind(join);
    b.and(t, x, 0x1ff8);
    b.load(t, Mem::base(Reg::R11).with_index(t, 1)); // eval-table lookup
    b.add(acc, acc, t);
    b.add(i, i, 1);
    b.cmp(i, n);
    b.jcc(Cond::Ult, top);
    b.store(Mem::abs(DATA - 8), acc);
    b.halt();

    let mut init = base_state();
    let mut rng = Rng::seed_from_u64(15);
    for k in 0..0x400u64 {
        init.mem.write(DATA + k * 8, 8, rng.gen_range(0..256));
    }
    workload("deepsjeng.s", b, init, 75_000 * scale.0)
}

/// `leela_s`: Monte-Carlo-style playouts: LCG + small-board updates.
fn leela(scale: Scale) -> Workload {
    let n = 5_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x1000);
    let (x, i, acc, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
    emit_load_bases(&mut b, 8);
    // RNG state restored from memory (a saved game tree).
    b.load(x, Mem::base(Reg::R11).with_disp(0xff0));
    b.or(x, x, 7);
    b.mov_imm(i, 0);
    let top = b.here("top");
    b.mul(x, x, 6364136223846793005);
    b.add(x, x, 1442695040888963407);
    b.shr(t, x, 33);
    b.and(t, t, 0xff8);
    b.load(acc, Mem::base(Reg::R11).with_index(t, 1));
    b.add(acc, acc, 1);
    b.store(Mem::base(Reg::R11).with_index(t, 1), acc);
    b.add(i, i, 1);
    b.cmp(i, n);
    b.jcc(Cond::Ult, top);
    b.halt();

    let init = base_state();
    workload("leela.s", b, init, 50_000 * scale.0)
}

/// `exchange2_s`: register-resident nested loops (a Sudoku-solver-like
/// permutation search touching almost no memory).
fn exchange2(scale: Scale) -> Workload {
    let n = 1_200 * scale.0;
    let mut b = ProgramBuilder::new();
    let (i, j, a, c, acc) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    b.mov_imm(i, 0);
    let outer = b.here("outer");
    b.mov_imm(j, 0);
    b.mov_imm(a, 1);
    let inner = b.here("inner");
    b.mul(a, a, 9);
    b.add(a, a, j);
    b.rol(a, a, 7);
    b.xor(c, a, i);
    b.add(acc, acc, c);
    b.add(j, j, 1);
    b.cmp(j, 30);
    b.jcc(Cond::Ult, inner);
    b.add(i, i, 1);
    b.cmp(i, n);
    b.jcc(Cond::Ult, outer);
    b.store(Mem::abs(DATA), acc);
    b.halt();

    workload("exchange2.s", b, base_state(), 110_000 * scale.0)
}

/// `omnetpp_s`: a binary-heap event queue: sift-down loops of dependent
/// loads, compares, and stores.
fn omnetpp(scale: Scale) -> Workload {
    let events = 1_200 * scale.0;
    let heap = DATA;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x800);
    let (i, k, child, hv, cv, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    emit_load_bases(&mut b, 8);
    b.mov_imm(i, 0);
    let top = b.here("top");
    // Every 4th event fetches its payload from the streamed event pool
    // (a long-latency miss), then replace the root and sift down.
    let hotev = b.label("hotev");
    b.and(t, i, 3);
    b.cmp(t, 0);
    b.jcc(Cond::Ne, hotev);
    b.mul(t, i, 379);
    b.and(t, t, 0x7_fff8);
    b.load(t, Mem::base(Reg::R10).with_index(t, 1));
    b.bind(hotev);
    b.mul(t, i, 2862933555777941757);
    b.shr(t, t, 20);
    b.store(Mem::base(Reg::R11), t);
    b.mov_imm(k, 0);
    let sift = b.here("sift");
    let stop = b.label("stop");
    let swap = b.label("swap");
    b.shl(child, k, 1);
    b.add(child, child, 1);
    b.cmp(child, 255);
    b.jcc(Cond::Uge, stop);
    b.shl(t, k, 3);
    b.load(hv, Mem::base(Reg::R11).with_index(t, 1));
    b.shl(t, child, 3);
    b.load(cv, Mem::base(Reg::R11).with_index(t, 1));
    b.cmp(cv, hv);
    b.jcc(Cond::Ult, swap);
    b.jmp(stop);
    b.bind(swap);
    b.shl(t, k, 3);
    b.store(Mem::base(Reg::R11).with_index(t, 1), cv);
    b.shl(t, child, 3);
    b.store(Mem::base(Reg::R11).with_index(t, 1), hv);
    b.mov(k, child);
    b.jmp(sift);
    b.bind(stop);
    b.add(i, i, 1);
    b.cmp(i, events);
    b.jcc(Cond::Ult, top);
    b.halt();

    let mut init = base_state();
    let mut rng = Rng::seed_from_u64(16);
    for k in 0..256u64 {
        init.mem
            .write(heap + k * 8, 8, rng.gen_range(0..1u64 << 40));
    }
    workload("omnetpp.s", b, init, 60_000 * scale.0)
}

/// `lbm_s`: a streaming 1-D stencil: regular loads, FMA-like arithmetic,
/// regular stores (high MLP; every defense does comparatively well).
fn lbm(scale: Scale) -> Workload {
    let cells = 6_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0xc000);
    emit_warmup(&mut b, DATA + 0x40000, 0xc000);
    let (i, a, c, r, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    emit_load_bases(&mut b, 24);
    b.mov_imm(i, 0);
    let top = b.here("top");
    b.shl(t, i, 3);
    b.load(a, Mem::base(Reg::R11).with_index(t, 1));
    b.load(c, Mem::base(Reg::R11).with_disp(8).with_index(t, 1));
    b.load(r, Mem::base(Reg::R11).with_disp(16).with_index(t, 1));
    b.mul(a, a, 3);
    b.add(a, a, c);
    b.add(a, a, r);
    b.shr(a, a, 2);
    b.store(Mem::base(Reg::R10).with_index(t, 1), a);
    b.add(i, i, 1);
    b.cmp(i, cells);
    b.jcc(Cond::Ult, top);
    b.halt();

    let mut init = base_state();
    let mut rng = Rng::seed_from_u64(17);
    for k in 0..(cells + 4) {
        init.mem.write(DATA + k * 8, 8, rng.gen_range(0..1000));
    }
    let _ = AluOp::Add; // (suite uses the full ALU set via builders)
    workload("lbm.s", b, init, 75_000 * scale.0)
}

/// `x264_s`: motion-estimation-shaped work — SAD over candidate blocks
/// selected by table lookups, with an early-exit branch per candidate.
fn x264(scale: Scale) -> Workload {
    let mbs = 1_500 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x8000);
    let (i, cand, sad, best, t, px) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    emit_load_bases(&mut b, 8);
    b.mov_imm(i, 0);
    let top = b.here("mb");
    b.mov_imm(best, 0xffff);
    // Candidate offset from the motion-vector table (load -> load).
    b.and(t, i, 0xff8);
    b.load(cand, Mem::base(Reg::R11).with_index(t, 1));
    b.and(cand, cand, 0x3ff8);
    // 4-pixel-group SAD.
    b.mov_imm(sad, 0);
    for k in 0..4u64 {
        b.load(
            px,
            Mem::base(Reg::R11)
                .with_disp(k as i64 * 8)
                .with_index(cand, 1),
        );
        b.xor(px, px, i);
        b.and(px, px, 0xff);
        b.add(sad, sad, px);
    }
    // Early exit if this candidate beats the (running) best.
    let keep = b.label("keep");
    b.cmp(sad, best);
    b.jcc(Cond::Uge, keep);
    b.mov(best, sad);
    b.bind(keep);
    b.and(t, i, 0x7f8);
    b.store(Mem::base(Reg::R10).with_index(t, 1), best);
    b.add(i, i, 1);
    b.cmp(i, mbs);
    b.jcc(Cond::Ult, top);
    b.halt();

    let mut init = base_state();
    let mut rng = Rng::seed_from_u64(18);
    for k in 0..0x1000u64 {
        init.mem.write(DATA + k * 8, 8, rng.gen_range(0..0x4000));
    }
    workload("x264.s", b, init, 60_000 * scale.0)
}

/// `xz_s`: LZMA-style match finding — a hash-chain walk (dependent
/// loads) with byte compares and a literal/match branch.
fn xz(scale: Scale) -> Workload {
    let positions = 2_500 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x8000);
    let (i, h, link, cur, t, acc) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    emit_load_bases(&mut b, 8);
    b.mov_imm(i, 0);
    let top = b.here("pos");
    // Hash the current position's bytes.
    b.and(t, i, 0x3fff);
    b.load_sized(cur, Mem::base(Reg::R11).with_index(t, 1), Width::W16);
    b.mul(h, cur, 2654435761);
    b.shr(h, h, 20);
    b.and(h, h, 0xff8);
    // Walk two links of the hash chain (dependent loads).
    b.load(link, Mem::base(Reg::R10).with_index(h, 1));
    b.and(link, link, 0xff8);
    b.load(link, Mem::base(Reg::R10).with_index(link, 1));
    b.and(link, link, 0x3fff);
    // Compare the candidate's bytes; branch literal vs match.
    b.load_sized(t, Mem::base(Reg::R11).with_index(link, 1), Width::W16);
    let literal = b.label("literal");
    b.cmp(t, cur);
    b.jcc(Cond::Ne, literal);
    b.add(acc, acc, 2);
    b.bind(literal);
    b.add(acc, acc, 1);
    // Update the chain head.
    b.store(Mem::base(Reg::R10).with_index(h, 1), i);
    b.add(i, i, 3);
    b.cmp(i, positions * 3);
    b.jcc(Cond::Ult, top);
    b.halt();

    let mut init = base_state();
    let mut rng = Rng::seed_from_u64(19);
    for k in 0..0x2000u64 {
        init.mem
            .write(DATA + k * 8, 8, rng.gen::<u64>() & 0xffff_ffff);
    }
    for k in 0..0x200u64 {
        init.mem
            .write(DATA + 0x8000 + k * 8, 8, rng.gen_range(0..0x200u64) * 8);
    }
    workload("xz.s", b, init, 70_000 * scale.0)
}

/// `nab_s` (fp): molecular-dynamics-shaped arithmetic over neighbour
/// pairs — mostly multiply/add chains with regular loads.
fn nab(scale: Scale) -> Workload {
    let pairs = 4_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, DATA, 0x8000);
    let (i, xi, xj, d, e, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    emit_load_bases(&mut b, 8);
    b.mov_imm(i, 0);
    let top = b.here("pair");
    b.shl(t, i, 3);
    b.and(t, t, 0x3ff8);
    b.load(xi, Mem::base(Reg::R11).with_index(t, 1));
    b.load(xj, Mem::base(Reg::R11).with_disp(0x4000).with_index(t, 1));
    b.sub(d, xi, xj);
    b.mul(e, d, d);
    b.mul(e, e, d);
    b.shr(e, e, 12);
    b.add(e, e, 1);
    b.mul(d, d, e);
    b.shr(d, d, 8);
    b.store(Mem::base(Reg::R10).with_index(t, 1), d);
    b.add(i, i, 1);
    b.cmp(i, pairs);
    b.jcc(Cond::Ult, top);
    b.halt();

    let mut init = base_state();
    let mut rng = Rng::seed_from_u64(20);
    for k in 0..0x1000u64 {
        init.mem.write(DATA + k * 8, 8, rng.gen_range(0..1 << 20));
    }
    workload("nab.s", b, init, 70_000 * scale.0)
}
