//! The multi-class nginx HTTPS web-server model (paper Fig. 1,
//! §VIII-B3).
//!
//! The main request loop is non-secret-accessing (ARCH): it parses
//! public request bytes, looks up a handler, and copies the response.
//! Secret computation is delegated to "OpenSSL" functions of every
//! class: an RSA-style handshake (UNR: square-and-multiply on the
//! private key), a KDF and a MAC (CTS: keyed hashing), and a record
//! cipher (CT: ARX with `cmov`-based padding selection). Each function
//! carries its class label, so [`protean_cc::compile`] instruments each
//! with its own pass — exactly the per-component targeting that lets
//! Protean beat SPT-SB by 3–5× here (Tab. V).
//!
//! The request stream plays the role of `siege -c<c> -r<r>`: `c`
//! simulated clients each issuing `r` requests; a client's first request
//! triggers the (expensive, UNR) handshake, subsequent ones only the
//! record path — so the c×r grid shifts the ARCH/UNR instruction mix
//! just as it does in the paper.

use crate::{Scale, Suite, Workload};
use protean_arch::ArchState;
use protean_isa::{Cond, Mem, ProgramBuilder, Reg, SecurityClass};
use protean_rng::Rng;

const KEY_BASE: u64 = 0x5_0000; // server private key + session keys (secret)
const REQ_BASE: u64 = 0x6_0000; // request bytes (public)
const RESP_BASE: u64 = 0x7_0000; // response buffer
const STACK_TOP: u64 = 0x4_0000;

/// Builds the `nginx.c{c}r{r}` workload.
pub fn nginx(clients: u64, requests_per_client: u64, scale: Scale) -> Workload {
    let mut b = ProgramBuilder::new();

    // ---- main (ARCH): the request loop ------------------------------
    let handshake = b.label("tls_handshake");
    let kdf = b.label("tls_kdf");
    let encrypt = b.label("tls_encrypt");
    let mac = b.label("tls_mac");
    let send = b.label("send_buf");
    let parse = b.label("parse_request");

    b.begin_function("main", SecurityClass::Arch);
    let (client, req) = (Reg::R11, Reg::R12);
    b.mov_imm(Reg::RSP, STACK_TOP);
    b.mov_imm(client, 0);
    let client_loop = b.here("client_loop");
    // New client: full handshake + key derivation.
    b.call(handshake);
    b.call(kdf);
    b.mov_imm(req, 0);
    let req_loop = b.here("req_loop");
    b.call(parse);
    b.call(encrypt);
    b.call(mac);
    b.call(send);
    b.add(req, req, 1);
    b.cmp(req, requests_per_client * 6 * scale.0);
    b.jcc(Cond::Ult, req_loop);
    b.add(client, client, 1);
    b.cmp(client, clients);
    b.jcc(Cond::Ult, client_loop);
    b.halt();
    b.end_function();

    // ---- parse_request (ARCH): byte scan + header hash ---------------
    b.begin_function("parse_request", SecurityClass::Arch);
    b.bind(parse);
    let (i, c, h, t) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
    b.mov_imm(h, 5381);
    b.mov_imm(i, 0);
    let scan = b.here("scan");
    b.mul(t, req, 64);
    b.add(t, t, i);
    b.mul(t, t, 3); // scatter reads across the request buffer
    b.and(t, t, 0x3fff);
    b.load_sized(
        c,
        Mem::abs(REQ_BASE).with_index(t, 1),
        protean_isa::Width::W8,
    );
    b.mul(h, h, 33);
    b.add(h, h, c);
    // Stop at '\n' (10) or after 48 bytes.
    b.cmp(c, 10);
    let stop = b.label("scan_stop");
    b.jcc(Cond::Eq, stop);
    b.add(i, i, 1);
    b.cmp(i, 96);
    b.jcc(Cond::Ult, scan);
    b.bind(stop);
    b.store(Mem::abs(RESP_BASE - 16), h); // route hash
    b.ret();
    b.end_function();

    // ---- tls_handshake (UNR): RSA-style square-and-multiply over a
    // memory-resident bignum reached through a loaded limb pointer
    // (OpenSSL's BIGNUM->d) — ProtCC-UNR cannot prove the pointer
    // never-secret, so this function costs Protean nearly as much as
    // SPT-SB, which is why the paper compiles only the hottest non-UNR
    // OpenSSL functions with cheaper passes (§VIII-B3).
    b.begin_function("tls_handshake", SecurityClass::Unr);
    b.bind(handshake);
    let (limbp, base, e, bit, l0) = (Reg::R0, Reg::R1, Reg::R2, Reg::R4, Reg::R6);
    b.mov_imm(limbp, RESP_BASE + 0x2000); // ctx cell
    b.store(Mem::base(limbp), RESP_BASE + 0x2100); // ctx->d
    b.load(limbp, Mem::base(limbp)); // loaded pointer: not never-secret
    b.load(base, Mem::abs(REQ_BASE + 0x3000)); // client random (public)
    b.load(e, Mem::abs(KEY_BASE)); // private exponent (secret!)
    for limb in 0..4i64 {
        b.store(Mem::base(limbp).with_disp(limb * 8), limb as u64 + 3);
    }
    b.mov_imm(Reg::R5, 0);
    let sq = b.here("sq");
    let domul = b.label("domul");
    let skipmul = b.label("skipmul");
    // square: four limb updates through the pointer
    for limb in 0..4i64 {
        b.load(l0, Mem::base(limbp).with_disp(limb * 8));
        b.mul(l0, l0, l0);
        b.xor(l0, l0, limb as u64 + 1);
        b.store(Mem::base(limbp).with_disp(limb * 8), l0);
    }
    b.and(t, Reg::R5, 63);
    b.shr(bit, e, t);
    b.and(bit, bit, 1);
    b.cmp(bit, 0);
    b.jcc(Cond::Ne, domul); // secret-dependent branch (non-CT)
    b.jmp(skipmul);
    b.bind(domul);
    for limb in 0..2i64 {
        b.load(l0, Mem::base(limbp).with_disp(limb * 8));
        b.mul(l0, l0, base);
        b.store(Mem::base(limbp).with_disp(limb * 8), l0);
    }
    b.bind(skipmul);
    b.add(Reg::R5, Reg::R5, 1);
    b.cmp(Reg::R5, 64 * scale.0);
    b.jcc(Cond::Ult, sq);
    b.load(l0, Mem::base(limbp));
    b.store(Mem::abs(KEY_BASE + 0x100), l0); // premaster (secret)
    b.ret();
    b.end_function();

    // ---- tls_kdf (CTS): keyed hash expanding the premaster -----------
    b.begin_function("tls_kdf", SecurityClass::Cts);
    b.bind(kdf);
    let (a, ee, w) = (Reg::R0, Reg::R1, Reg::R2);
    b.load(a, Mem::abs(KEY_BASE + 0x100)); // premaster (secret)
    b.load(ee, Mem::abs(KEY_BASE + 8)); // salt (secret)
    b.mov_imm(Reg::R5, 0);
    let rounds = b.here("kdf_rounds");
    b.ror(w, a, 7);
    b.xor(w, w, ee);
    b.add(a, a, w);
    b.ror(ee, ee, 13);
    b.xor(ee, ee, a);
    b.add(Reg::R5, Reg::R5, 1);
    b.cmp(Reg::R5, 48 * scale.0);
    b.jcc(Cond::Ult, rounds);
    b.store(Mem::abs(KEY_BASE + 0x110), a); // session key (secret)
    b.store(Mem::abs(KEY_BASE + 0x118), ee); // MAC key (secret)
    b.ret();
    b.end_function();

    // ---- tls_encrypt (CT): ARX record cipher with cmov padding -------
    b.begin_function("tls_encrypt", SecurityClass::Ct);
    b.bind(encrypt);
    let (k0, s0, s1, m) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
    b.load(k0, Mem::abs(KEY_BASE + 0x110)); // session key (secret)
    b.mov(s0, k0);
    b.xor(s1, k0, req); // nonce from the request counter
    b.mov_imm(Reg::R5, 0);
    let blk = b.here("enc_blk");
    for _ in 0..4 {
        b.add(s0, s0, s1);
        b.xor(s1, s1, s0);
        b.rol(s1, s1, 17);
    }
    b.shl(t, Reg::R5, 3);
    b.and(t, t, 0xff8);
    b.load(m, Mem::abs(REQ_BASE + 0x2000).with_index(t, 1)); // plaintext
    b.xor(m, m, s0);
    // Constant-time last-block padding select.
    b.cmp(Reg::R5, 15);
    b.cmov(Cond::Eq, m, s1);
    b.store(Mem::abs(RESP_BASE).with_index(t, 1), m);
    b.add(Reg::R5, Reg::R5, 1);
    b.cmp(Reg::R5, 16 * scale.0);
    b.jcc(Cond::Ult, blk);
    b.ret();
    b.end_function();

    // ---- tls_mac (CTS): Poly1305-style tag over the ciphertext -------
    b.begin_function("tls_mac", SecurityClass::Cts);
    b.bind(mac);
    let (hh, r) = (Reg::R0, Reg::R1);
    b.load(r, Mem::abs(KEY_BASE + 0x118)); // MAC key (secret)
    b.mov_imm(hh, 0);
    b.mov_imm(Reg::R5, 0);
    let mw = b.here("mac_w");
    b.shl(t, Reg::R5, 3);
    b.and(t, t, 0xff8);
    b.load(Reg::R2, Mem::abs(RESP_BASE).with_index(t, 1));
    b.add(hh, hh, Reg::R2);
    b.mul(hh, hh, r);
    b.shr(t, hh, 44);
    b.and(hh, hh, 0xfff_ffff_ffff);
    b.add(hh, hh, t);
    b.add(Reg::R5, Reg::R5, 1);
    b.cmp(Reg::R5, 16 * scale.0);
    b.jcc(Cond::Ult, mw);
    b.store(Mem::abs(RESP_BASE + 0x800), hh);
    b.ret();
    b.end_function();

    // ---- send_buf (ARCH): copy the ciphertext to the "socket" --------
    b.begin_function("send_buf", SecurityClass::Arch);
    b.bind(send);
    b.mov_imm(Reg::R5, 0);
    let cp = b.here("cp");
    b.shl(t, Reg::R5, 3);
    b.and(t, t, 0xff8);
    b.load(Reg::R0, Mem::abs(RESP_BASE).with_index(t, 1));
    b.store(Mem::abs(RESP_BASE + 0x1000).with_index(t, 1), Reg::R0);
    b.add(Reg::R5, Reg::R5, 1);
    b.cmp(Reg::R5, 16 * scale.0);
    b.jcc(Cond::Ult, cp);
    b.ret();
    b.end_function();

    let program = b.build().expect("nginx model builds");
    let mut init = ArchState::new();
    init.set_reg(Reg::RSP, STACK_TOP);
    let mut rng = Rng::seed_from_u64(51);
    for k in 0..64u64 {
        init.mem.write(KEY_BASE + k * 8, 8, rng.gen()); // secrets
    }
    for k in 0..0x1000u64 {
        // Request bytes: printable-ish with newlines sprinkled in.
        let byte: u8 = if rng.gen_bool(1.0 / 40.0) {
            10
        } else {
            rng.gen_range(32..127)
        };
        init.mem.write_u8(REQ_BASE + k, byte);
    }
    for k in 0..0x400u64 {
        init.mem.write(REQ_BASE + 0x2000 + k * 8, 8, rng.gen());
    }

    let total = clients * requests_per_client;
    let name = format!("nginx.c{clients}r{requests_per_client}");

    Workload::new(
        &name,
        Suite::Nginx,
        SecurityClass::Unr, // outer bound; functions carry labels
        vec![(program, init)],
        (20_000 + total * 40_000) * scale.0,
    )
}
