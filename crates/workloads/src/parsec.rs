//! PARSEC-like multi-threaded kernels (paper §VIII-B1): data-parallel
//! compute phases on disjoint per-thread regions sharing a read-mostly
//! input through the L3.
//!
//! `blackscholes.p` is the key kernel: its per-element work is a call
//! into a leaf function that spills and reloads locals at fixed stack
//! offsets (`[rsp + k]`, `ret`) — the access pattern behind SPT-SB's
//! 3.4× slowdown that ProtCC-UNR avoids by unprotecting the stack
//! pointer (§IX-A1).

use crate::{emit_warmup, Scale, Suite, Workload};
use protean_arch::ArchState;
use protean_isa::{Cond, Mem, Program, ProgramBuilder, Reg, SecurityClass};
use protean_rng::Rng;

/// Threads per workload (the paper runs 8P+8E; four keeps simulation
/// time reasonable while exercising L3 sharing).
pub const THREADS: usize = 4;

const IN_BASE: u64 = 0x20_0000; // shared read-mostly input
const OUT_BASE: u64 = 0x60_0000; // per-thread output (disjoint)
const STACK0: u64 = 0xf_0000; // per-thread stacks (disjoint)

/// All PARSEC-like workloads.
pub fn parsec(scale: Scale) -> Vec<Workload> {
    vec![
        blackscholes(scale),
        canneal(scale),
        swaptions(scale),
        fluidanimate(scale),
        dedup(scale),
        ferret(scale),
    ]
}

fn workload(
    name: &str,
    make: impl Fn(usize) -> (Program, ArchState),
    budget_hint: u64,
) -> Workload {
    let threads = (0..THREADS).map(make).collect();
    Workload::new(
        name,
        Suite::Parsec,
        SecurityClass::Arch,
        threads,
        budget_hint,
    )
}

fn thread_state(tid: usize, seed: u64, shared_words: u64) -> ArchState {
    let mut s = ArchState::new();
    s.set_reg(Reg::RSP, STACK0 + tid as u64 * 0x1_0000);
    let mut rng = Rng::seed_from_u64(seed);
    for k in 0..shared_words {
        s.mem.write(IN_BASE + k * 8, 8, rng.gen_range(1..10_000));
    }
    s
}

/// `blackscholes.p`: per-option pricing via a leaf call that keeps its
/// locals on the stack.
fn blackscholes(scale: Scale) -> Workload {
    let options = 500 * scale.0;
    let make = |tid: usize| {
        let mut b = ProgramBuilder::new();
        emit_warmup(&mut b, IN_BASE, 0x3000);
        let (i, s, k, t, price) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        let out = OUT_BASE + tid as u64 * 0x10000;
        let price_fn = b.label("price_one");
        let top_l = b.label("top");
        b.mov_imm(i, 0);
        b.bind(top_l);
        // Load the option's parameters from the shared input.
        b.and(Reg::R13, i, 0x7f8);
        b.load(s, Mem::abs(IN_BASE).with_index(Reg::R13, 1));
        b.load(k, Mem::abs(IN_BASE + 0x1000).with_index(Reg::R13, 1));
        b.load(t, Mem::abs(IN_BASE + 0x2000).with_index(Reg::R13, 1));
        b.call(price_fn);
        b.shl(Reg::R13, i, 3);
        b.and(Reg::R13, Reg::R13, 0xfff8);
        b.store(Mem::abs(out).with_index(Reg::R13, 1), price);
        b.add(i, i, 1);
        b.cmp(i, options);
        b.jcc(Cond::Ult, top_l);
        b.halt();
        // --- price_one: spills everything to fixed stack offsets ------
        b.bind(price_fn);
        b.sub(Reg::RSP, Reg::RSP, 64);
        b.store(Mem::base(Reg::RSP), s);
        b.store(Mem::base(Reg::RSP).with_disp(8), k);
        b.store(Mem::base(Reg::RSP).with_disp(16), t);
        // Fixed-point-ish Black-Scholes-shaped arithmetic with repeated
        // reloads of the spilled locals.
        for round in 0..4i64 {
            b.load(Reg::R5, Mem::base(Reg::RSP));
            b.load(Reg::R6, Mem::base(Reg::RSP).with_disp(8));
            b.mul(Reg::R5, Reg::R5, 47);
            b.add(Reg::R5, Reg::R5, Reg::R6);
            b.shr(Reg::R5, Reg::R5, 3);
            b.load(Reg::R7, Mem::base(Reg::RSP).with_disp(16));
            b.xor(Reg::R5, Reg::R5, Reg::R7);
            b.store(Mem::base(Reg::RSP).with_disp(24 + round * 8), Reg::R5);
        }
        b.load(price, Mem::base(Reg::RSP).with_disp(24));
        b.load(Reg::R5, Mem::base(Reg::RSP).with_disp(48));
        b.add(price, price, Reg::R5);
        b.add(Reg::RSP, Reg::RSP, 64);
        b.ret();
        let prog = b.build().expect("blackscholes builds");
        (prog, thread_state(tid, 21, 0x600))
    };
    workload("blackscholes.p", make, 40_000 * scale.0)
}

/// `canneal.p`: pointer chasing over a shared net-list with per-thread
/// cost accumulation.
fn canneal(scale: Scale) -> Workload {
    let nodes: u64 = 8 * 1024;
    let hops = 6_000 * scale.0;
    let make = move |tid: usize| {
        let mut b = ProgramBuilder::new();
        emit_warmup(&mut b, IN_BASE, 0x20000);
        let (p, v, acc, i) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
        let out = OUT_BASE + tid as u64 * 0x10000;
        b.mov_imm(p, IN_BASE + (tid as u64 * 1024) % (nodes * 16));
        b.mov_imm(i, 0);
        let top = b.here("top");
        b.load(v, Mem::base(p).with_disp(8));
        b.add(acc, acc, v);
        b.load(p, Mem::base(p));
        b.add(i, i, 1);
        b.cmp(i, hops);
        b.jcc(Cond::Ult, top);
        b.store(Mem::abs(out), acc);
        b.halt();
        let prog = b.build().expect("canneal builds");
        // Build the shared permutation ring once per thread state (same
        // seed: identical shared input).
        let mut s = ArchState::new();
        s.set_reg(Reg::RSP, STACK0 + tid as u64 * 0x1_0000);
        let mut rng = Rng::seed_from_u64(22);
        let mut order: Vec<u64> = (1..nodes).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, rng.gen_range(0..=k));
        }
        let mut cur = 0u64;
        for &nxt in &order {
            s.mem.write(IN_BASE + cur * 16, 8, IN_BASE + nxt * 16);
            s.mem
                .write(IN_BASE + cur * 16 + 8, 8, rng.gen_range(0..100));
            cur = nxt;
        }
        s.mem.write(IN_BASE + cur * 16, 8, IN_BASE);
        s.mem.write(IN_BASE + cur * 16 + 8, 8, 1);
        (prog, s)
    };
    workload("canneal.p", make, 40_000 * scale.0)
}

/// `swaptions.p`: Monte-Carlo simulation — LCG streams plus arithmetic
/// reduction, barely memory-bound.
fn swaptions(scale: Scale) -> Workload {
    let paths = 8_000 * scale.0;
    let make = move |tid: usize| {
        let mut b = ProgramBuilder::new();
        emit_warmup(&mut b, IN_BASE, 0x80);
        let (x, i, acc, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
        let out = OUT_BASE + tid as u64 * 0x10000;
        // Per-thread RNG state loaded from the shared input.
        b.load(x, Mem::abs(IN_BASE + 8 * (tid as u64 % 8)));
        b.add(x, x, 7919 + tid as u64);
        b.mov_imm(i, 0);
        let top = b.here("top");
        b.mul(x, x, 6364136223846793005);
        b.add(x, x, 1442695040888963407);
        b.shr(t, x, 41);
        b.add(acc, acc, t);
        b.rol(acc, acc, 5);
        b.add(i, i, 1);
        b.cmp(i, paths);
        b.jcc(Cond::Ult, top);
        b.store(Mem::abs(out), acc);
        b.halt();
        (
            b.build().expect("swaptions builds"),
            thread_state(tid, 23, 16),
        )
    };
    workload("swaptions.p", make, 70_000 * scale.0)
}

/// `fluidanimate.p`: grid stencil — each cell reads its neighbours from
/// the shared grid and writes a private next-state grid.
fn fluidanimate(scale: Scale) -> Workload {
    let cells = 4_000 * scale.0;
    let make = move |tid: usize| {
        let mut b = ProgramBuilder::new();
        emit_warmup(&mut b, IN_BASE, 0x4800);
        let (i, a, l, r, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        let out = OUT_BASE + tid as u64 * 0x20000;
        b.mov_imm(i, 0);
        let top = b.here("top");
        b.shl(t, i, 3);
        b.and(t, t, 0xfff8);
        b.load(a, Mem::abs(IN_BASE).with_index(t, 1));
        b.load(l, Mem::abs(IN_BASE + 8).with_index(t, 1));
        b.load(r, Mem::abs(IN_BASE + 16).with_index(t, 1));
        b.add(a, a, l);
        b.add(a, a, r);
        b.mul(a, a, 21845);
        b.shr(a, a, 16);
        b.store(Mem::abs(out).with_index(t, 1), a);
        b.add(i, i, 1);
        b.cmp(i, cells);
        b.jcc(Cond::Ult, top);
        b.halt();
        (
            b.build().expect("fluidanimate builds"),
            thread_state(tid, 24, 0x900),
        )
    };
    workload("fluidanimate.p", make, 50_000 * scale.0)
}

/// `dedup.p`: rolling-hash chunking plus a hash-table membership check.
fn dedup(scale: Scale) -> Workload {
    let bytes = 20_000 * scale.0;
    let make = move |tid: usize| {
        let mut b = ProgramBuilder::new();
        emit_warmup(&mut b, IN_BASE, 0x10000);
        let (i, h, c, t, acc) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
        let out = OUT_BASE + tid as u64 * 0x10000;
        b.mov_imm(i, 0);
        b.mov_imm(h, 0);
        let top = b.here("top");
        let boundary = b.label("boundary");
        let cont = b.label("cont");
        b.and(t, i, 0x3fff);
        b.load_sized(
            c,
            Mem::abs(IN_BASE).with_index(t, 1),
            protean_isa::Width::W8,
        );
        b.mul(h, h, 31);
        b.add(h, h, c);
        b.and(t, h, 0xfff);
        b.cmp(t, 64); // chunk boundary ~ every 64 bytes
        b.jcc(Cond::Ult, boundary);
        b.jmp(cont);
        b.bind(boundary);
        b.and(t, h, 0x7ff8);
        b.load(c, Mem::abs(IN_BASE + 0x8000).with_index(t, 1)); // dedup table
        b.add(acc, acc, c);
        b.bind(cont);
        b.add(i, i, 1);
        b.cmp(i, bytes);
        b.jcc(Cond::Ult, top);
        b.store(Mem::abs(out), acc);
        b.halt();
        (
            b.build().expect("dedup builds"),
            thread_state(tid, 25, 0x2000),
        )
    };
    workload("dedup.p", make, 170_000 * scale.0)
}

/// `ferret.p`: similarity search — per query, distance computations
/// against candidate feature vectors selected through an index table
/// (load->load), followed by a top-k compare chain.
fn ferret(scale: Scale) -> Workload {
    let queries = 900 * scale.0;
    let make = move |tid: usize| {
        let mut b = ProgramBuilder::new();
        emit_warmup(&mut b, IN_BASE, 0x6000);
        let (q, cand, dist, best, t, f) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        let out = OUT_BASE + tid as u64 * 0x10000;
        b.mov_imm(q, 0);
        let top = b.here("query");
        b.mov_imm(best, 0xffffff);
        for probe in 0..2u64 {
            // Candidate id from the index (load), then its features
            // (dependent loads).
            b.mul(t, q, 37 + probe);
            b.and(t, t, 0x7f8);
            b.load(cand, Mem::abs(IN_BASE + 0x4000).with_index(t, 1));
            b.and(cand, cand, 0x1ff8);
            b.mov_imm(dist, 0);
            for k in 0..3i64 {
                b.load(f, Mem::abs(IN_BASE).with_disp(k * 8).with_index(cand, 1));
                b.xor(f, f, q);
                b.and(f, f, 0xffff);
                b.add(dist, dist, f);
            }
            let worse = b.label("worse");
            b.cmp(dist, best);
            b.jcc(Cond::Uge, worse);
            b.mov(best, dist);
            b.bind(worse);
        }
        b.shl(t, q, 3);
        b.and(t, t, 0xfff8);
        b.store(Mem::abs(out).with_index(t, 1), best);
        b.add(q, q, 1);
        b.cmp(q, queries);
        b.jcc(Cond::Ult, top);
        b.halt();
        let mut s = thread_state(tid, 26, 0xc00);
        // The candidate index table.
        let mut rng = Rng::seed_from_u64(27);
        for k in 0..0x100u64 {
            s.mem
                .write(IN_BASE + 0x4000 + k * 8, 8, rng.gen_range(0..0x400u64) * 8);
        }
        (b.build().expect("ferret builds"), s)
    };
    workload("ferret.p", make, 60_000 * scale.0)
}
