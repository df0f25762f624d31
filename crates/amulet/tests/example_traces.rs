//! Example traces are rendered when a campaign folds a program's
//! results, for the examples the report keeps. This pins that the
//! result is the same as rendering every example in place: a campaign
//! with `capture_traces` on must equal the same campaign with it off,
//! plus a traced replay of each kept example's base and mutant inputs
//! rebuilt here from the example's program seed and input index alone.
//! Covered across chunk sizes, worker counts, `stop_at_first` and
//! triage, under the cache+TLB adversary (many examples, so the report
//! cap drops some at the fold) and the timing adversary (whose base and
//! mutant runs render differently, so a swapped input shows).

use protean_amulet::{
    generate_recorded, init_cold_chain, run_campaign, Adversary, CampaignConfig, CampaignReport,
    ContractKind, FuzzConfig, GenConfig, PUBLIC_BASE, PUBLIC_SIZE, SECRET_BASE, SECRET_SIZE,
};
use protean_arch::ArchState;
use protean_cc::{compile_with, Pass};
use protean_isa::Reg;
use protean_rng::Rng;
use protean_sim::{Core, Trace, UnsafePolicy};
use std::collections::BTreeMap;

/// The two campaigns: `(pass, contract, adversary, programs)`.
const CASES: [(Pass, ContractKind, Adversary, usize); 2] = [
    (Pass::Arch, ContractKind::ArchSeq, Adversary::CacheTlb, 10),
    (Pass::Ct, ContractKind::CtSeq, Adversary::Timing, 20),
];

fn fuzz_cfg(case: usize) -> FuzzConfig {
    let (pass, contract, adversary, programs) = CASES[case];
    let mut fuzz = FuzzConfig::quick(pass, contract, adversary);
    fuzz.programs = programs;
    fuzz.inputs_per_program = 3;
    fuzz.gen.seed = 0x7ace;
    fuzz
}

fn campaign(
    case: usize,
    chunk_size: usize,
    workers: usize,
    stop_at_first: bool,
    triage: bool,
    capture_traces: bool,
) -> CampaignReport {
    let mut fuzz = fuzz_cfg(case);
    fuzz.workers = Some(workers);
    fuzz.stop_at_first = stop_at_first;
    fuzz.capture_traces = capture_traces;
    let cfg = CampaignConfig {
        chunk_size,
        triage,
        ..CampaignConfig::new(fuzz)
    };
    run_campaign(&cfg, &|| Box::new(UnsafePolicy)).expect("no snapshot")
}

/// The campaign's base input, drawn as the engine draws it.
fn make_input(rng: &mut Rng) -> ArchState {
    let mut state = ArchState::new();
    init_cold_chain(&mut state.mem);
    for i in 0..PUBLIC_SIZE / 8 {
        state
            .mem
            .write(PUBLIC_BASE + i * 8, 8, rng.gen_range(0..64));
    }
    randomize_secrets(&mut state, rng);
    for i in 0..6 {
        state.set_reg(Reg::gpr(i), rng.gen_range(0..1024));
    }
    state
}

fn randomize_secrets(state: &mut ArchState, rng: &mut Rng) {
    for i in 0..SECRET_SIZE / 8 {
        state.mem.write(SECRET_BASE + i * 8, 8, rng.gen::<u64>());
    }
}

/// The rendered trace of the example at `(program_seed, input_index)`:
/// the compiled program, its base input and its `input_index`-th mutant
/// rebuilt from scratch, each replayed with tracing on a fresh core.
fn independent_trace(cfg: &FuzzConfig, program_seed: u64, input_index: usize) -> Option<String> {
    let gen_cfg = GenConfig {
        seed: program_seed,
        ..cfg.gen.clone()
    };
    let generated = generate_recorded(&gen_cfg, cfg.only_template, None);
    let program = compile_with(&generated.program, cfg.pass).program;
    let mut rng = Rng::seed_from_u64(program_seed ^ 0x5eed);
    let base = make_input(&mut rng);
    let mut mutant = base.clone();
    for _ in 0..=input_index {
        mutant = base.clone();
        randomize_secrets(&mut mutant, &mut rng);
    }
    let replay = |input: &ArchState| {
        let mut core_cfg = cfg.core.clone();
        core_cfg.trace = true;
        let core = Core::new(&program, core_cfg, Box::new(UnsafePolicy), input);
        core.run(cfg.max_steps, cfg.max_steps * 60).trace
    };
    let render = |t: &Trace| format!("{}\n{}", t.render_pipeline(48, 120), t.render_audit(16));
    let base_trace = replay(&base)?;
    let mutant_trace = replay(&mutant)?;
    Some(format!(
        "=== base run ===\n{}\n=== mutant run ===\n{}",
        render(&base_trace),
        render(&mutant_trace)
    ))
}

/// `(chunk_size, workers, stop_at_first, triage)`, with `0` standing
/// for the whole stream as one chunk: every chunk size meets both
/// worker counts, both `stop_at_first` settings and both triage
/// settings.
const VARIANTS: [(usize, usize, bool, bool); 6] = [
    (1, 1, false, false),
    (1, 4, true, true),
    (2, 4, false, true),
    (2, 1, true, false),
    (0, 4, false, false),
    (0, 1, true, true),
];

#[test]
fn fold_time_traces_equal_in_place_replays() {
    let (mut shared_base, mut mutant_differs) = (false, false);
    for case in 0..CASES.len() {
        let cfg = fuzz_cfg(case);
        // Independent renders, shared across the variants that keep the
        // same example.
        let mut rendered: BTreeMap<(u64, usize), Option<String>> = BTreeMap::new();
        for (chunk_size, workers, stop_at_first, triage) in VARIANTS {
            let chunk_size = if chunk_size == 0 {
                cfg.programs
            } else {
                chunk_size
            };
            let at = format!(
                "{}: chunk_size {chunk_size}, workers {workers}, \
                 stop_at_first {stop_at_first}, triage {triage}",
                cfg.adversary.name()
            );
            let run = |capture| campaign(case, chunk_size, workers, stop_at_first, triage, capture);
            let (on, mut expect) = (run(true), run(false));
            assert!(!expect.report.examples.is_empty(), "{at}: no examples");
            for v in &mut expect.report.examples {
                assert_eq!(v.trace, None, "{at}: a trace with capture off");
                v.trace = rendered
                    .entry((v.program_seed, v.input_index))
                    .or_insert_with(|| independent_trace(&cfg, v.program_seed, v.input_index))
                    .clone();
                let trace = v.trace.as_deref().expect("every example has a trace");
                let (base, mutant) = trace.split_once("=== mutant run ===").unwrap();
                let base = base.trim_start_matches("=== base run ===");
                mutant_differs |= base.trim() != mutant.trim();
            }
            assert_eq!(on.digest(), expect.digest(), "{at}");
            let seeds: Vec<u64> = on.report.examples.iter().map(|v| v.program_seed).collect();
            shared_base |= seeds.windows(2).any(|w| w[0] == w[1]);
            if !stop_at_first {
                // The cap drops examples at the fold.
                assert!(on.candidates > on.report.examples.len() as u64, "{at}");
            }
        }
    }
    assert!(
        shared_base,
        "no program kept two examples sharing a base replay"
    );
    assert!(
        mutant_differs,
        "no example's base and mutant runs render differently"
    );
}
