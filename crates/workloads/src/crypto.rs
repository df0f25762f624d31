//! Cryptographic kernels (paper §VIII-B2): static constant-time (CTS),
//! constant-time (CT), and unrestricted (UNR) suites.
//!
//! The CTS/CT kernels are *genuinely* constant-time in this ISA — secret
//! data never reaches an address, branch predicate (other than through
//! `cmov`), or divider — which the crate's tests verify by CT-trace
//! equality over random keys. The UNR kernels deliberately branch on and
//! index with key bits (square-and-multiply, windowed tables), as the
//! paper's curated non-constant-time OpenSSL primitives do.

use crate::{Scale, Suite, Workload};
use protean_arch::ArchState;
use protean_isa::{Cond, Mem, ProgramBuilder, Reg, SecurityClass};
use protean_rng::Rng;

/// Where key material (secret) lives.
pub const KEY_BASE: u64 = 0x5_0000;
/// Public message/input buffer.
pub const MSG_BASE: u64 = 0x6_0000;
/// Output buffer.
pub const OUT_BASE: u64 = 0x7_0000;
const STACK_TOP: u64 = 0x4_0000;

/// The CTS-Crypto suite (paper Tab. V, from HACL\*/libsodium/OpenSSL).
pub fn cts_crypto(scale: Scale) -> Vec<Workload> {
    vec![
        arx_kernel("hacl.chacha20", SecurityClass::Cts, 10, 900, scale),
        ladder_kernel("hacl.curve25519", SecurityClass::Cts, 2000, scale),
        mac_kernel("hacl.poly1305", SecurityClass::Cts, 4000, scale),
        arx_kernel("sodium.salsa20", SecurityClass::Cts, 10, 850, scale),
        hash_kernel("sodium.sha256", SecurityClass::Cts, 1300, scale),
        arx_kernel("ossl.chacha20", SecurityClass::Cts, 10, 950, scale),
        ladder_kernel("ossl.curve25519", SecurityClass::Cts, 1800, scale),
        hash_kernel("ossl.sha256", SecurityClass::Cts, 1250, scale),
    ]
}

/// The CT-Crypto suite (bitsliced AES implementations and djbsort).
pub fn ct_crypto(scale: Scale) -> Vec<Workload> {
    vec![
        bitsliced_kernel("bearssl", 1300, scale),
        bitsliced_kernel("ctaes", 1400, scale),
        sort_kernel("djbsort", scale),
    ]
}

/// The UNR-Crypto suite (non-constant-time OpenSSL primitives).
pub fn unr_crypto(scale: Scale) -> Vec<Workload> {
    vec![
        bnexp_kernel("ossl.bnexp", 1400, scale),
        dh_kernel("ossl.dh", scale),
        ecadd_kernel("ossl.ecadd", scale),
    ]
}

fn crypto_state(seed: u64) -> ArchState {
    let mut s = ArchState::new();
    s.set_reg(Reg::RSP, STACK_TOP);
    let mut rng = Rng::seed_from_u64(seed);
    for k in 0..64u64 {
        s.mem.write(KEY_BASE + k * 8, 8, rng.gen()); // secret
    }
    // Input-resident block schedule for the CT kernels: public offsets
    // living in *initial* memory (like lengths inside a received record).
    // ProtCC-CT proves them bound-to-leak and unprotects them statically;
    // SPT must stall their first transmitter per dynamic load (§IX-B3).
    for k in 0..64u64 {
        s.mem
            .write(MSG_BASE + 0xa000 + k * 8, 8, rng.gen_range(0..0x400u64) * 8);
    }
    // Per-block *input* flags (record types / padding indicators): public
    // data, but consumed only by branches — partially transmitted, so SPT
    // can never declassify it, while ProtCC-CTS publicly *types* it
    // (§IX-B2). Lives in initial memory like real network/config input.
    for k in 0..64u64 {
        s.mem
            .write(MSG_BASE + 0x9000 + k * 8, 8, rng.gen_range(0..2));
    }
    // All *public* data (message, schedule, contexts) is generated by the
    // kernel itself (see `emit_public_init`): program-written data is
    // architecturally accessed, so ProtISA knows it is unprotected — the
    // same steady state the paper reaches by warming 10 M instructions
    // before measuring (§VIII-A3).
    s
}

/// Emits the kernel's input-generation phase: fills the message window
/// and the block-offset schedule with public LCG data via stores (which
/// unprotect the written bytes) and installs the context pointers.
/// Clobbers `R12`/`R13`.
fn emit_public_init(b: &mut ProgramBuilder) {
    // Message window: 8 KiB of pseudo-random public words.
    b.mov_imm(Reg::R13, 0x9e3779b97f4a7c15);
    b.mov_imm(Reg::R12, 0);
    let msg = b.here("fill_msg");
    b.mul(Reg::R13, Reg::R13, 6364136223846793005);
    b.add(Reg::R13, Reg::R13, 1442695040888963407);
    b.store(Mem::abs(MSG_BASE).with_index(Reg::R12, 1), Reg::R13);
    b.add(Reg::R12, Reg::R12, 8);
    b.cmp(Reg::R12, 0x2000);
    b.jcc(Cond::Ult, msg);
    // Schedule: 64 offsets into the 8 KiB window (8-byte aligned).
    b.mov_imm(Reg::R12, 0);
    let sched = b.here("fill_sched");
    b.mul(Reg::R13, Reg::R13, 6364136223846793005);
    b.add(Reg::R13, Reg::R13, 1442695040888963407);
    b.and(Reg::R13, Reg::R13, 0x1ff8);
    b.store(
        Mem::abs(MSG_BASE + 0x8000).with_index(Reg::R12, 1),
        Reg::R13,
    );
    b.add(Reg::R12, Reg::R12, 8);
    b.cmp(Reg::R12, 0x200);
    b.jcc(Cond::Ult, sched);
    // BIGNUM contexts: limb-array pointers.
    for k in 0..16u64 {
        b.store(
            Mem::abs(MSG_BASE + 0x6000 + k * 8),
            OUT_BASE + 0x1000 + k * 64,
        );
    }
}

fn workload(
    name: &str,
    class: SecurityClass,
    b: ProgramBuilder,
    seed: u64,
    max_insts: u64,
) -> Workload {
    let suite = match class {
        SecurityClass::Cts => Suite::CtsCrypto,
        SecurityClass::Ct => Suite::CtCrypto,
        _ => Suite::UnrCrypto,
    };
    Workload::new(
        name,
        suite,
        class,
        vec![(b.build().expect("crypto kernel builds"), crypto_state(seed))],
        max_insts,
    )
}

/// Emits a per-block branch on an *input* flag word (record-type
/// dispatch): `tweak` runs when the flag is set. The flag value is
/// public but only ever partially transmitted (a branch predicate), the
/// pattern that separates ProtCC-CTS/-CT from SPT (§IX-B2, §IX-B3).
fn emit_flag_branch(
    b: &mut ProgramBuilder,
    blk: Reg,
    tmp: Reg,
    tweak: impl FnOnce(&mut ProgramBuilder),
) {
    let skip = b.label("flag_skip");
    b.and(tmp, blk, 0x1f8);
    b.load(tmp, Mem::abs(MSG_BASE + 0x9000).with_index(tmp, 1));
    b.cmp(tmp, 0);
    b.jcc(Cond::Eq, skip);
    tweak(b);
    b.bind(skip);
}

/// ChaCha/Salsa-shaped ARX kernel: a register-resident secret state,
/// `rounds` add-rotate-xor double rounds per block, keystream XOR-ed
/// into the public message.
fn arx_kernel(
    name: &str,
    class: SecurityClass,
    rounds: usize,
    blocks: u64,
    scale: Scale,
) -> Workload {
    let blocks = blocks * scale.0;
    let mut b = ProgramBuilder::new();
    let st: [Reg; 4] = [Reg::R0, Reg::R1, Reg::R2, Reg::R3];
    let (blk, m, t) = (Reg::R8, Reg::R9, Reg::R10);
    emit_public_init(&mut b);
    // Load the secret key state once.
    for (k, r) in st.iter().enumerate() {
        b.load(*r, Mem::abs(KEY_BASE + 8 * k as u64));
    }
    b.mov_imm(blk, 0);
    let top = b.here("blk");
    // The block offset comes through an in-memory schedule (ctx->offsets
    // in the real implementations): a pointer-shaped load whose value
    // feeds an address. SPT treats those bytes as private until
    // transmitted, so first touches stall it (§IX-B3); ProtISA's tagged
    // L1D unprotects them at first commit.
    b.and(t, blk, 0x1f8);
    b.load(Reg::R11, Mem::abs(MSG_BASE + 0x8000).with_index(t, 1));
    // Record-type dispatch on an input flag.
    emit_flag_branch(&mut b, blk, t, |b| {
        b.xor(st[3], st[3], 0x5a5a);
    });
    // Counter into the state.
    b.xor(st[3], st[3], blk);
    for round in 0..rounds {
        // Quarter-round-ish ARX on the four state registers.
        b.add(st[0], st[0], st[1]);
        b.xor(st[3], st[3], st[0]);
        b.rol(st[3], st[3], 16);
        b.add(st[2], st[2], st[3]);
        b.xor(st[1], st[1], st[2]);
        b.rol(st[1], st[1], (12 + round as u64 % 7) % 63 + 1);
    }
    // keystream ^= message at the scheduled offset; store out.
    b.load(m, Mem::abs(MSG_BASE).with_index(Reg::R11, 1));
    b.xor(m, m, st[0]);
    b.store(Mem::abs(OUT_BASE).with_index(Reg::R11, 1), m);
    b.add(blk, blk, 1);
    b.cmp(blk, blocks);
    b.jcc(Cond::Ult, top);
    b.halt();
    workload(name, class, b, 41, 30_000 * scale.0)
}

/// Montgomery-ladder-shaped kernel: per scalar bit, a constant-time
/// `cmov` swap plus field-arithmetic multiplies.
fn ladder_kernel(name: &str, class: SecurityClass, bits: u64, scale: Scale) -> Workload {
    let bits = bits * scale.0;
    let mut b = ProgramBuilder::new();
    let (x0, x1, z0, z1) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
    let (scalar, i, bit, t) = (Reg::R4, Reg::R5, Reg::R6, Reg::R7);
    emit_public_init(&mut b);
    b.load(scalar, Mem::abs(KEY_BASE)); // secret scalar
    b.mov_imm(x0, 9);
    b.mov_imm(x1, 1);
    b.mov_imm(z0, 1);
    b.mov_imm(z1, 0);
    b.mov_imm(i, 0);
    let top = b.here("bit");
    // bit = (scalar >> (i & 63)) & 1  — flags become secret-dependent,
    // but only cmov (not a transmitter) consumes them.
    b.and(t, i, 63);
    b.shr(bit, scalar, t);
    b.and(bit, bit, 1);
    b.cmp(bit, 1);
    b.cmov(Cond::Eq, t, x0);
    b.cmov(Cond::Eq, x0, x1);
    b.cmov(Cond::Eq, x1, t);
    // Field-arithmetic-shaped ladder step.
    b.mul(t, x0, z1);
    b.add(z0, z0, t);
    b.mul(t, x1, z0);
    b.xor(z1, z1, t);
    b.mul(x0, x0, x0);
    b.add(x0, x0, 121665);
    b.mul(x1, x1, z1);
    b.rol(z0, z0, 9);
    b.add(i, i, 1);
    b.cmp(i, bits);
    b.jcc(Cond::Ult, top);
    b.store(Mem::abs(OUT_BASE), x0);
    b.store(Mem::abs(OUT_BASE + 8), z0);
    b.halt();
    workload(name, class, b, 42, 30_000 * scale.0)
}

/// Poly1305-shaped MAC: multiply-accumulate of public message words by a
/// secret key, with shift/mask reductions.
fn mac_kernel(name: &str, class: SecurityClass, words: u64, scale: Scale) -> Workload {
    let words = words * scale.0;
    let mut b = ProgramBuilder::new();
    let (h, r, m, i, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4);
    emit_public_init(&mut b);
    b.load(r, Mem::abs(KEY_BASE)); // secret key r
    b.mov_imm(h, 0);
    b.mov_imm(i, 0);
    let top = b.here("w");
    b.and(t, i, 0x1f8);
    b.load(t, Mem::abs(MSG_BASE + 0x8000).with_index(t, 1));
    b.load(m, Mem::abs(MSG_BASE).with_index(t, 1));
    // Partial-final-word dispatch on an input flag.
    emit_flag_branch(&mut b, i, t, |b| {
        b.add(m, m, 1);
    });
    b.add(h, h, m);
    b.mul(h, h, r);
    // reduction-shaped folding
    b.shr(t, h, 44);
    b.and(h, h, 0xfff_ffff_ffff);
    b.add(h, h, t);
    b.add(i, i, 1);
    b.cmp(i, words);
    b.jcc(Cond::Ult, top);
    b.store(Mem::abs(OUT_BASE), h);
    b.halt();
    workload(name, class, b, 43, 25_000 * scale.0)
}

/// SHA-256-shaped keyed hash: secret initial state, public message
/// schedule, Σ/maj-shaped rounds.
fn hash_kernel(name: &str, class: SecurityClass, blocks: u64, scale: Scale) -> Workload {
    let blocks = blocks * scale.0;
    let mut b = ProgramBuilder::new();
    let (a, e, w, i, t, t2) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    let sig = Reg::R6; // secret sigma temp — must never touch t/t2 (addresses)
    emit_public_init(&mut b);
    b.load(a, Mem::abs(KEY_BASE + 16)); // secret IV (HMAC-style)
    b.load(e, Mem::abs(KEY_BASE + 24));
    b.mov_imm(i, 0);
    let top = b.here("blk");
    // Message block offset via the in-memory schedule (see arx_kernel).
    b.and(t2, i, 0x1f8);
    b.load(t2, Mem::abs(MSG_BASE + 0x8000).with_index(t2, 1));
    // Final-block padding dispatch on an input flag.
    emit_flag_branch(&mut b, i, t, |b| {
        b.add(a, a, 0x80);
    });
    for round in 0..6u64 {
        b.add(t, t2, round * 8);
        b.and(t, t, 0x7ff8);
        b.load(w, Mem::abs(MSG_BASE).with_index(t, 1)); // schedule word
        b.ror(sig, e, 6);
        b.xor(sig, sig, e);
        b.ror(sig, sig, 11);
        b.add(sig, sig, w);
        b.add(a, a, sig);
        b.ror(sig, a, 2);
        b.xor(e, e, sig);
    }
    b.add(i, i, 1);
    b.cmp(i, blocks);
    b.jcc(Cond::Ult, top);
    b.store(Mem::abs(OUT_BASE), a);
    b.store(Mem::abs(OUT_BASE + 8), e);
    b.halt();
    workload(name, class, b, 44, 30_000 * scale.0)
}

/// Bitsliced-AES-shaped kernel (BearSSL `ct` / bitcoin-core `ctaes`):
/// secret round keys, wide boolean layers, no tables.
fn bitsliced_kernel(name: &str, blocks: u64, scale: Scale) -> Workload {
    let blocks = blocks * scale.0;
    let mut b = ProgramBuilder::new();
    let s: [Reg; 4] = [Reg::R0, Reg::R1, Reg::R2, Reg::R3];
    let k: [Reg; 2] = [Reg::R4, Reg::R5];
    let (i, t, m) = (Reg::R6, Reg::R7, Reg::R8);
    let off = Reg::R9; // public block offset (never mixed with secrets)
    emit_public_init(&mut b);
    b.load(k[0], Mem::abs(KEY_BASE + 32));
    b.load(k[1], Mem::abs(KEY_BASE + 40));
    b.mov_imm(i, 0);
    let top = b.here("blk");
    // Load a public block into the slices, via the *input* schedule
    // (initial memory: SPT can never publish it, ProtCC-CT declassifies
    // it as bound-to-leak).
    b.and(off, i, 0x1f8);
    b.load(off, Mem::abs(MSG_BASE + 0xa000).with_index(off, 1));
    b.load(m, Mem::abs(MSG_BASE).with_index(off, 1));
    // Mode dispatch (CBC/CTR-style) on an input flag, once per 8 blocks.
    let no_dispatch = b.label("no_dispatch");
    b.and(t, i, 7);
    b.cmp(t, 0);
    b.jcc(Cond::Ne, no_dispatch);
    emit_flag_branch(&mut b, i, t, |b| {
        b.xor(m, m, 0x3c3c);
    });
    b.bind(no_dispatch);
    b.mov(s[0], m);
    b.xor(s[1], m, k[0]);
    b.rol(s[2], m, 13);
    b.xor(s[3], m, k[1]);
    for _ in 0..5 {
        // S-box layer (boolean only).
        b.and(t, s[0], s[1]);
        b.xor(s[2], s[2], t);
        b.or(t, s[1], s[2]);
        b.xor(s[3], s[3], t);
        b.xor(s[0], s[0], s[3]);
        // Linear layer.
        b.rol(s[1], s[1], 7);
        b.rol(s[2], s[2], 29);
        b.xor(s[0], s[0], k[0]);
        b.xor(s[1], s[1], k[1]);
    }
    b.store(Mem::abs(OUT_BASE).with_index(off, 1), s[0]);
    b.add(i, i, 1);
    b.cmp(i, blocks);
    b.jcc(Cond::Ult, top);
    b.halt();
    workload(name, SecurityClass::Ct, b, 45, 35_000 * scale.0)
}

/// djbsort-shaped kernel: a constant-time sorting network over secret
/// values — compare/`cmov` min-max pairs at public indices.
fn sort_kernel(name: &str, scale: Scale) -> Workload {
    let n: u64 = 64;
    let passes = 100 * scale.0;
    let mut b = ProgramBuilder::new();
    let (i, p, x, y, lo, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    // Copy secrets into the working buffer once.
    b.mov_imm(i, 0);
    let copy = b.here("copy");
    b.shl(t, i, 3);
    b.and(t, t, 0x1f8);
    b.load(x, Mem::abs(KEY_BASE).with_index(t, 1));
    b.store(Mem::abs(OUT_BASE).with_index(t, 1), x);
    b.add(i, i, 1);
    b.cmp(i, n);
    b.jcc(Cond::Ult, copy);
    // Odd-even passes of compare-exchange.
    b.mov_imm(p, 0);
    let pass = b.here("pass");
    b.mov_imm(i, 0);
    let pair = b.here("pair");
    b.shl(t, i, 4); // pairs: indices 2i, 2i+1
    b.and(t, t, 0x1f8);
    b.load(x, Mem::abs(OUT_BASE).with_index(t, 1));
    b.load(y, Mem::abs(OUT_BASE + 8).with_index(t, 1));
    // Constant-time min/max via cmov.
    b.mov(lo, x);
    b.cmp(y, x);
    b.cmov(Cond::Ult, lo, y); // lo = min
    b.cmov(Cond::Ult, y, x); // y = max
    b.store(Mem::abs(OUT_BASE).with_index(t, 1), lo);
    b.store(Mem::abs(OUT_BASE + 8).with_index(t, 1), y);
    b.add(i, i, 1);
    b.cmp(i, n / 2);
    b.jcc(Cond::Ult, pair);
    b.add(p, p, 1);
    b.cmp(p, passes);
    b.jcc(Cond::Ult, pass);
    b.halt();
    workload(name, SecurityClass::Ct, b, 46, 40_000 * scale.0)
}

/// Square-and-multiply modular exponentiation with a **secret-dependent
/// branch** per exponent bit — the canonical non-constant-time pattern.
fn bnexp_kernel(name: &str, bits: u64, scale: Scale) -> Workload {
    let bits = bits * scale.0;
    let mut b = ProgramBuilder::new();
    emit_public_init(&mut b);
    bnexp_body(&mut b, bits, 0);
    b.halt();
    workload(name, SecurityClass::Unr, b, 47, 35_000 * scale.0)
}

/// Emits a square-and-multiply loop over a memory-resident 4-limb
/// bignum, reached through a context pointer (`BIGNUM->d` in OpenSSL),
/// reading exponent words at `KEY_BASE + key_off`.
///
/// The limb pointer is *loaded* — ProtCC-UNR cannot prove it
/// never-secret, so under Protean the limb accesses are access
/// transmitters just as under SPT-SB; this is why Protean's UNR-Crypto
/// win is small (Tab. V, §IX-B4), unlike its stack-access win on PARSEC.
fn bnexp_body(b: &mut ProgramBuilder, bits: u64, key_off: u64) {
    let (limbp, base, e, i, bit, t, l0, l1) = (
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
    );
    // ctx->d: the limb array pointer lives in memory.
    b.load(limbp, Mem::abs(MSG_BASE + 0x6000 + key_off / 8));
    b.load(base, Mem::abs(MSG_BASE)); // public base
    b.load(e, Mem::abs(KEY_BASE + key_off)); // secret exponent word
                                             // acc := small public constants in all four limbs
    for limb in 0..4i64 {
        b.store(Mem::base(limbp).with_disp(limb * 8), limb as u64 + 1);
    }
    b.mov_imm(i, 0);
    let top = b.here("sqmul");
    let mul = b.label("mul");
    let next = b.label("next");
    // square: four independent limb updates through the pointer (the
    // unsafe baseline overlaps these; SPT-SB runs every load at the ROB
    // head).
    for limb in 0..4i64 {
        b.load(l0, Mem::base(limbp).with_disp(limb * 8));
        b.mul(l0, l0, l0);
        b.xor(l0, l0, limb as u64 + 1);
        b.store(Mem::base(limbp).with_disp(limb * 8), l0);
    }
    b.load(l0, Mem::base(limbp));
    b.load(l1, Mem::base(limbp).with_disp(8));
    // secret-dependent branch on the exponent bit:
    b.and(t, i, 63);
    b.shr(bit, e, t);
    b.and(bit, bit, 1);
    b.cmp(bit, 0);
    b.jcc(Cond::Ne, mul);
    b.jmp(next);
    b.bind(mul);
    for limb in 0..2i64 {
        b.load(l0, Mem::base(limbp).with_disp(limb * 8));
        b.mul(l0, l0, base);
        b.store(Mem::base(limbp).with_disp(limb * 8), l0);
    }
    b.bind(next);
    // rotate to a new exponent word every 64 bits
    b.add(i, i, 1);
    b.and(t, i, 63);
    b.cmp(t, 0);
    let nofetch = b.label("nofetch");
    b.jcc(Cond::Ne, nofetch);
    b.shr(t, i, 3);
    b.and(t, t, 0x1f8);
    b.load(e, Mem::abs(KEY_BASE + key_off).with_index(t, 1));
    b.bind(nofetch);
    b.cmp(i, bits);
    b.jcc(Cond::Ult, top);
    b.load(l0, Mem::base(limbp));
    b.store(Mem::abs(OUT_BASE + key_off), l0);
}

/// Diffie-Hellman: two exponentiations with different secret words.
fn dh_kernel(name: &str, scale: Scale) -> Workload {
    let mut b = ProgramBuilder::new();
    emit_public_init(&mut b);
    bnexp_body(&mut b, 700 * scale.0, 0);
    bnexp_body(&mut b, 700 * scale.0, 64);
    b.halt();
    workload(name, SecurityClass::Unr, b, 48, 40_000 * scale.0)
}

/// Elliptic-curve point addition with a **secret-indexed window table**
/// and secret-dependent doubling decisions.
fn ecadd_kernel(name: &str, scale: Scale) -> Workload {
    let steps = 1200 * scale.0;
    let mut b = ProgramBuilder::new();
    let (x, y, k, i, w, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
    emit_public_init(&mut b);
    b.load(k, Mem::abs(KEY_BASE + 8)); // secret scalar
                                       // Window table pointer via the context (a loaded, hence protected,
                                       // base address).
    b.load(Reg::R11, Mem::abs(MSG_BASE + 0x6000 + 0x40));
    b.mov_imm(x, 5);
    b.mov_imm(y, 12);
    b.mov_imm(i, 0);
    let top = b.here("step");
    let dbl = b.label("dbl");
    let join = b.label("join");
    // 3-bit window of the secret indexes a precomputed table: a
    // secret-dependent *address*.
    b.and(t, i, 60);
    b.shr(w, k, t);
    b.and(w, w, 7);
    b.shl(w, w, 3);
    b.load(w, Mem::base(Reg::R11).with_index(w, 1)); // table[k_w]
    b.add(x, x, w);
    // Secret-dependent double-or-add:
    b.and(t, k, 1);
    b.cmp(t, 0);
    b.jcc(Cond::Eq, dbl);
    b.mul(y, y, x);
    b.add(y, y, 7);
    b.jmp(join);
    b.bind(dbl);
    b.mul(x, x, x);
    b.add(x, x, y);
    b.bind(join);
    b.ror(k, k, 1);
    b.shr(t, x, 50);
    b.xor(x, x, t);
    b.add(i, i, 1);
    b.cmp(i, steps);
    b.jcc(Cond::Ult, top);
    b.store(Mem::abs(OUT_BASE), x);
    b.store(Mem::abs(OUT_BASE + 8), y);
    b.halt();
    workload(name, SecurityClass::Unr, b, 49, 30_000 * scale.0)
}
