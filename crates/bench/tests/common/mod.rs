//! The deterministic amulet-generated program corpus shared by the
//! scheduler golden fixture and the per-rule trace attribution test.

use protean_amulet::{generate, init_cold_chain, GenConfig, PUBLIC_BASE, PUBLIC_SIZE};
use protean_arch::ArchState;
use protean_isa::{Program, Reg};

/// The corpus: seeds chosen to cover plain code, gadget-heavy code,
/// and longer multi-segment programs, each named `g<seed>s<segments>`.
pub fn corpus() -> Vec<(String, Program)> {
    let shapes = [
        (1u64, 4usize, 0.5f64),
        (2, 6, 0.8),
        (3, 8, 0.3),
        (4, 10, 0.6),
    ];
    shapes
        .iter()
        .map(|&(seed, segments, gadget_bias)| {
            let cfg = GenConfig {
                segments,
                gadget_bias,
                seed,
            };
            (format!("g{seed}s{segments}"), generate(&cfg))
        })
        .collect()
}

/// The input seed of the corpus program `name`.
pub fn corpus_seed(name: &str) -> u64 {
    name.as_bytes().iter().map(|&b| b as u64).sum()
}

/// Deterministic initial state, mirroring the fuzzer's input shape:
/// cold pointer chain, small public indices, small GPR values.
pub fn corpus_input(seed: u64) -> ArchState {
    let mut state = ArchState::new();
    init_cold_chain(&mut state.mem);
    for i in 0u64..PUBLIC_SIZE / 8 {
        let v = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i.wrapping_mul(7))
            % 64;
        state.mem.write(PUBLIC_BASE + i * 8, 8, v);
    }
    for i in 0..6 {
        state.set_reg(Reg::gpr(i), (seed.wrapping_mul(31) + i as u64 * 13) % 1024);
    }
    state
}
