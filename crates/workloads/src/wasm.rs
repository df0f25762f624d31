//! ARCH-Wasm: SPEC2006-like kernels "compiled to WebAssembly"
//! (paper §VIII-B2).
//!
//! Wasm sandboxing turns every memory access into a masked offset into
//! linear memory, and indirections become *two dependent loads* (fetch
//! the pointer from linear memory, mask it, dereference it). STT taints
//! every load's output until retirement, so these load→load chains
//! serialize completely under STT — the 2.5× average (3.7× on `milc`)
//! that Protean avoids because its protection-tagged L1D knows the
//! accessed memory is unprotected (§IX-B1: only ~10 % of the hot
//! dependencies touch protected data).

use crate::{emit_warmup, Scale, Suite, Workload};
use protean_arch::ArchState;
use protean_isa::{Cond, Mem, ProgramBuilder, Reg, SecurityClass, Width};
use protean_rng::Rng;

/// Linear-memory base (the sandbox).
const LINMEM: u64 = 0x40_0000;
/// Linear-memory size mask (1 MiB sandbox).
const MASK: u64 = 0xf_fff8;
const STACK_TOP: u64 = 0x20_0000;

/// All ARCH-Wasm workloads (the paper's SPEC2006 subset).
pub fn arch_wasm(scale: Scale) -> Vec<Workload> {
    vec![
        bzip2(scale),
        mcf(scale),
        milc(scale),
        namd(scale),
        libquantum(scale),
        lbm(scale),
    ]
}

fn workload(name: &str, b: ProgramBuilder, init: ArchState, max_insts: u64) -> Workload {
    Workload::new(
        name,
        Suite::ArchWasm,
        SecurityClass::Arch,
        vec![(b.build().expect("wasm kernel builds"), init)],
        max_insts,
    )
}

fn state(seed: u64, words: u64) -> ArchState {
    let mut s = ArchState::new();
    s.set_reg(Reg::RSP, STACK_TOP);
    let mut rng = Rng::seed_from_u64(seed);
    for k in 0..words {
        s.mem.write(LINMEM + k * 8, 8, rng.gen_range(0..0x8000));
    }
    s
}

/// Emits a sandboxed load: `dst = linmem[(addr_reg) & MASK]`.
fn sandboxed_load(b: &mut ProgramBuilder, dst: Reg, addr: Reg) {
    b.and(Reg::R13, addr, MASK);
    b.load(dst, Mem::abs(LINMEM).with_index(Reg::R13, 1));
}

/// Emits a sandboxed store.
fn sandboxed_store(b: &mut ProgramBuilder, addr: Reg, src: Reg) {
    b.and(Reg::R13, addr, MASK);
    b.store(Mem::abs(LINMEM).with_index(Reg::R13, 1), src);
}

/// `bzip2`: byte-granular run-length/move-to-front-style transformation.
fn bzip2(scale: Scale) -> Workload {
    let n = 18_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, LINMEM, 0x4200);
    let (i, c, prev, run, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    b.mov_imm(i, 0);
    let top = b.here("top");
    let same = b.label("same");
    let cont = b.label("cont");
    b.and(t, i, 0x3fff); // 16 KiB window, revisited
    b.load_sized(c, Mem::abs(LINMEM).with_index(t, 1), Width::W8);
    b.cmp(c, prev);
    b.jcc(Cond::Eq, same);
    b.mov_imm(run, 0);
    b.mov(prev, c);
    b.jmp(cont);
    b.bind(same);
    b.add(run, run, 1);
    b.bind(cont);
    // Move-to-front: deref a table entry selected by the *loaded* byte —
    // the `mov ptr,[mem]; mov data,[ptr]` chain STT serializes (§IX-B1).
    b.shl(t, c, 3);
    b.add(t, t, 0x2000);
    sandboxed_load(&mut b, Reg::R5, t);
    b.add(run, run, Reg::R5);
    b.add(t, c, run);
    sandboxed_store(&mut b, t, run);
    b.add(i, i, 1);
    b.cmp(i, n);
    b.jcc(Cond::Ult, top);
    b.halt();
    workload("bzip2", b, state(31, 0x4000), 100_000 * scale.0)
}

/// `mcf`: sandboxed pointer chasing — fetch "pointer", mask, deref.
fn mcf(scale: Scale) -> Workload {
    let hops = 16_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, LINMEM, 0x4000);
    let (p, v, acc, i) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
    b.mov_imm(p, 0);
    b.mov_imm(i, 0);
    let top = b.here("top");
    sandboxed_load(&mut b, v, p); // next "pointer" (an offset)
                                  // Arc-data lookups off the chased pointer: independent of the chase,
                                  // so the unsafe core overlaps them across hops; STT delays them until
                                  // the pointer load retires.
    b.add(Reg::R4, v, 0x4000);
    sandboxed_load(&mut b, Reg::R5, Reg::R4);
    b.add(acc, acc, Reg::R5);
    b.add(Reg::R4, v, 0x8000);
    sandboxed_load(&mut b, Reg::R5, Reg::R4);
    b.xor(acc, acc, Reg::R5);
    b.mov(p, v); // dependent chain through the sandbox
    b.add(i, i, 1);
    b.cmp(i, hops);
    b.jcc(Cond::Ult, top);
    b.halt();
    // Build a permutation in offsets so the chase doesn't trivialize.
    let mut s = ArchState::new();
    s.set_reg(Reg::RSP, STACK_TOP);
    let nodes: u64 = 2 * 1024; // revisited ~4x: mostly warm after pass 1
    let mut rng = Rng::seed_from_u64(32);
    let mut order: Vec<u64> = (1..nodes).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, rng.gen_range(0..=k));
    }
    let mut cur = 0u64;
    for &nxt in &order {
        s.mem.write(LINMEM + cur * 8, 8, nxt * 8);
        cur = nxt;
    }
    s.mem.write(LINMEM + cur * 8, 8, 0);
    workload("mcf", b, s, 70_000 * scale.0)
}

/// `milc`: the paper's worst case for STT — every element access is
/// `ptr = load(base + i); val = load(ptr)` (a two-level indirection
/// table, as lattice-QCD field accesses become under wasm2c).
fn milc(scale: Scale) -> Workload {
    let n = 16_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, LINMEM, 0x10000);
    let (i, ptr, v, acc, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    b.mov_imm(i, 0);
    let top = b.here("top");
    // Site table wraps at 2 K entries: after the first pass the table
    // and fields are warm, so only ~1/3 of accesses touch cold
    // (protected) lines — matching the paper's observation that just
    // 10 % of STT-serialized dependencies touch protected data.
    b.shl(t, i, 3);
    b.and(t, t, 0x3ff8);
    sandboxed_load(&mut b, ptr, t); // site table: ptr = T[i mod 2K]
    sandboxed_load(&mut b, v, ptr); // field value: v = *ptr
    b.mul(v, v, 3);
    b.add(acc, acc, v);
    b.add(t, ptr, 8);
    sandboxed_load(&mut b, v, t); // second field word
    b.xor(acc, acc, v);
    b.rol(acc, acc, 3);
    b.add(i, i, 1);
    b.cmp(i, n);
    b.jcc(Cond::Ult, top);
    b.halt();
    workload("milc", b, state(33, 0x8000), 90_000 * scale.0)
}

/// `namd`: force computation — mostly arithmetic on sandboxed operands.
fn namd(scale: Scale) -> Workload {
    let n = 12_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, LINMEM, 0x4200);
    let (i, x, y, f, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    b.mov_imm(i, 0);
    let top = b.here("top");
    b.shl(t, i, 3);
    b.and(t, t, 0x3ff8);
    sandboxed_load(&mut b, x, t); // neighbor index j = nbr[i]
    sandboxed_load(&mut b, y, x); // position pos[j]: dependent deref
    b.sub(f, x, y);
    b.mul(f, f, f);
    b.add(f, f, 1);
    b.mul(x, x, 13);
    b.add(f, f, x);
    b.shr(f, f, 4);
    b.add(t, t, 0x100);
    sandboxed_store(&mut b, t, f);
    b.add(i, i, 1);
    b.cmp(i, n);
    b.jcc(Cond::Ult, top);
    b.halt();
    workload("namd", b, state(34, 0x4000), 80_000 * scale.0)
}

/// `libquantum`: gate application — a sweep with a conditional bit-flip
/// per amplitude.
fn libquantum(scale: Scale) -> Workload {
    let n = 15_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, LINMEM, 0x8000);
    let (i, a, t) = (Reg::R0, Reg::R1, Reg::R3);
    b.mov_imm(i, 0);
    let top = b.here("top");
    let flip = b.label("flip");
    let cont = b.label("cont");
    b.shl(t, i, 3);
    b.and(t, t, 0x7ff8);
    sandboxed_load(&mut b, a, t); // target-qubit index
    sandboxed_load(&mut b, a, a); // amplitude word: dependent deref
    b.and(Reg::R4, a, 0x40);
    b.cmp(Reg::R4, 0);
    b.jcc(Cond::Ne, flip);
    b.jmp(cont);
    b.bind(flip);
    b.xor(a, a, 0x1000);
    b.shl(t, i, 3);
    b.and(t, t, 0x7ff8);
    sandboxed_store(&mut b, t, a);
    b.bind(cont);
    b.add(i, i, 1);
    b.cmp(i, n);
    b.jcc(Cond::Ult, top);
    b.halt();
    workload("libquantum", b, state(35, 0x8000), 90_000 * scale.0)
}

/// `lmb` (lbm): streaming stencil within the sandbox — the easy case
/// every defense handles well (Tab. V shows ~1.0 for all).
fn lbm(scale: Scale) -> Workload {
    let n = 15_000 * scale.0;
    let mut b = ProgramBuilder::new();
    emit_warmup(&mut b, LINMEM, 0x28000);
    let (i, a, c, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R4);
    b.mov_imm(i, 0);
    let top = b.here("top");
    b.shl(t, i, 3);
    b.and(t, t, 0x7ff8);
    sandboxed_load(&mut b, a, t);
    b.add(t, t, 8);
    sandboxed_load(&mut b, c, t);
    b.add(a, a, c);
    b.shr(a, a, 1);
    b.add(t, t, 0x20000);
    sandboxed_store(&mut b, t, a);
    b.add(i, i, 1);
    b.cmp(i, n);
    b.jcc(Cond::Ult, top);
    b.halt();
    workload("lmb", b, state(36, 0x4000), 80_000 * scale.0)
}
