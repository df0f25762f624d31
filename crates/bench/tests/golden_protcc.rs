//! Golden-equivalence pin for ProtCC's output.
//!
//! Compiles a fixed corpus — a few hundred amulet-generated programs
//! plus every thread of the whole `Scale(1)` workload roster — with the
//! CTS, CT and UNR passes (`compile_with`) and with the multi-class
//! driver (`compile`), and folds into one digest, per compiled program:
//! its disassembly, function ranges and relocations, its `PassStats`,
//! and its `public_typing`. The digest was recorded before ProtCC's
//! analyses moved onto one shared fixpoint solver; any change in what
//! ProtCC prefixes, where it inserts identity moves, or how it types
//! definitions changes the digest.
//!
//! After an *intentional* change of ProtCC's output, replace
//! `EXPECTED` with the digest the failure message prints.

use protean_amulet::{generate, GenConfig};
use protean_cc::{compile, compile_with, public_typing, Compiled, Pass};
use protean_isa::Program;
use protean_workloads::{
    arch_wasm, ct_crypto, cts_crypto, nginx, parsec, spec2017, unr_crypto, Scale,
};

/// The digest of the corpus's ProtCC output.
const EXPECTED: u64 = 0x4849_8d3c_8f58_15c8;

/// Number of generated programs in the corpus.
const GENERATED: u64 = 300;

/// FNV-1a, folding `bytes` into `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds everything observable about one compilation into `h`.
fn fold(h: u64, out: &Compiled) -> u64 {
    let p = &out.program;
    let text = format!(
        "{}{:?}{:?}{:?}{:?}",
        p.disassemble(),
        p.functions,
        p.relocs,
        out.stats,
        public_typing(p).per_inst,
    );
    fnv(h, text.as_bytes())
}

/// The corpus: generated programs of varied length and gadget density,
/// then every thread of every `Scale(1)` workload.
fn corpus() -> Vec<Program> {
    let mut programs: Vec<Program> = (0..GENERATED)
        .map(|seed| {
            generate(&GenConfig {
                segments: 2 + (seed % 9) as usize,
                gadget_bias: (seed % 5) as f64 * 0.25,
                seed,
            })
        })
        .collect();
    let mut roster = Vec::new();
    roster.extend(spec2017(Scale(1)));
    roster.extend(parsec(Scale(1)));
    roster.extend(arch_wasm(Scale(1)));
    roster.extend(cts_crypto(Scale(1)));
    roster.extend(ct_crypto(Scale(1)));
    roster.extend(unr_crypto(Scale(1)));
    roster.push(nginx(1, 1, Scale(1)));
    for w in roster {
        programs.extend(w.threads.into_iter().map(|(p, _)| p));
    }
    programs
}

#[test]
fn protcc_output_matches_the_pinned_digest() {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let programs = corpus();
    for p in &programs {
        for pass in [Pass::Cts, Pass::Ct, Pass::Unr] {
            h = fold(h, &compile_with(p, pass));
        }
        h = fold(h, &compile(p, Pass::Arch));
    }
    assert_eq!(
        h,
        EXPECTED,
        "ProtCC output over {} programs changed: digest {h:#018x}",
        programs.len()
    );
}
