//! ProtCC's manual annotations (paper §V-C): refine an inferred ProtSet
//! with public annotations, so fewer instructions carry a `PROT` prefix.
//!
//! ```text
//! cargo run --release --example annotations
//! ```

use protean::cc::{compile_with, compile_with_hints, Pass, PublicHints};
use protean::isa::{assemble, Reg};

fn main() {
    // An "unknown class" kernel the user compiles with ProtCC-UNR for a
    // guarantee (§V-B): a lookup in a public sbox table, keyed material
    // elsewhere.
    let program = assemble(
        r#"
          load r1, [0x1000]        ; sbox[0]      (public table)
          load r2, [0x5000]        ; key word     (secret)
          and r3, r0, 0xf8
          load r4, [0x1000 + r3*1] ; sbox[i]      (public table)
          xor r5, r2, r4
          store [0x6000], r5
          ret
        "#,
    )
    .unwrap();

    let plain = compile_with(&program, Pass::Unr);
    println!(
        "ProtCC-UNR, no annotations:   {} PROT prefixes\n{}",
        plain.stats.prot_prefixes,
        plain.program.disassemble()
    );

    // §V-C: the user declares the sbox public and r0 (the public index
    // argument) public at entry.
    let mut hints = PublicHints::new();
    hints.add_public_range(0x1000, 0x100);
    hints.entry_public.insert(Reg::R0);
    let hinted = compile_with_hints(&program, Pass::Unr, &hints);
    println!(
        "ProtCC-UNR + annotations:     {} PROT prefixes\n{}",
        hinted.stats.prot_prefixes,
        hinted.program.disassemble()
    );

    assert!(hinted.stats.prot_prefixes < plain.stats.prot_prefixes);
}
