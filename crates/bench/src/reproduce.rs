//! The whole reproduction: every paper table, figure and ablation,
//! rendered from one shared table of simulated cells.
//!
//! A *cell* is one [`run_workload`] call: a roster workload under a
//! [`Defense`] and [`Binary`] on a [`CoreConfig`]. The reports share
//! most of their cells — every defense run is normalized to the unsafe
//! baseline on the same workload and core, Tab. I's percentages come
//! from the Tab. V suites, and the ablations all start from
//! SPEC2017int — so the reproduction runs in three steps:
//!
//! 1. build the [`Roster`] once (every suite, each workload once);
//! 2. run every report against a recording [`Cells`], which collects
//!    its requests in order, and simulate the distinct cells once, in
//!    first-request order, on one `protean-jobs` fan-out;
//! 3. run every report again against the simulated table, which
//!    answers the same requests in the same order: a report is a pure
//!    function of its results.
//!
//! A report is written as straight-line serial code, so its geomeans
//! sum in request order and its text and JSON are byte-identical at any
//! `PROTEAN_JOBS` setting. Tab. II is the exception: its 15 AMuLeT\*
//! campaign cells are not [`run_workload`] calls and run on their own
//! fan-out ([`table_ii`]).

use crate::report::{measure_fields, BenchReport};
use crate::{
    binary_for, fmt_norm, geomean, prepare, run_workload, Binary, Defense, RunResult, TablePrinter,
};
use protean_amulet::{fuzz, Adversary, ContractKind, FuzzConfig, Report};
use protean_cc::Pass;
use protean_core::{area, ProtDelayPolicy, ProtTrackPolicy};
use protean_isa::code_size;
use protean_sim::json::Json;
use protean_sim::{CoreConfig, DefensePolicy, MemProtTracking, SpeculationModel, UnsafePolicy};
use protean_workloads::{
    arch_wasm, ct_crypto, cts_crypto, is_spec2017_int, nginx, parsec, spec2017, unr_crypto, Scale,
    Workload,
};

/// Every workload the reports use, built once, with the per-suite lists
/// (roster indices) the reports draw from. `--quick` shortens the lists
/// as the reports always have.
pub struct Roster {
    /// Whether this is the `--quick` roster.
    quick: bool,
    /// Every built workload; cells name one by its index here. Names
    /// are unique.
    workloads: Vec<Workload>,
    /// SPEC2017 (quick: the first 3).
    spec: Vec<usize>,
    /// SPEC2017int, the integer subset of `spec2017` (quick: the first 3).
    spec_int: Vec<usize>,
    /// PARSEC (quick: the first 2).
    parsec: Vec<usize>,
    /// The four Tab. V single-class suites with their secure baselines
    /// (quick: the first 2 of each).
    suites: Vec<(&'static str, Defense, Vec<usize>)>,
    /// The Tab. V nginx `(clients, requests)` grid (quick: `c1r1`).
    nginx: Vec<((u64, u64), usize)>,
}

impl Roster {
    /// Builds every suite once at `scale`.
    pub fn new(quick: bool, scale: Scale) -> Roster {
        let mut workloads = Vec::new();
        let mut add = |ws: Vec<Workload>| -> Vec<usize> {
            let first = workloads.len();
            workloads.extend(ws);
            (first..workloads.len()).collect()
        };
        let cut = |mut ids: Vec<usize>, n: usize| {
            if quick {
                ids.truncate(n);
            }
            ids
        };
        let spec_all = add(spec2017(scale));
        let parsec = cut(add(parsec(scale)), 2);
        let suites = vec![
            ("ARCH-Wasm", Defense::Stt, cut(add(arch_wasm(scale)), 2)),
            ("CTS-Crypto", Defense::Spt, cut(add(cts_crypto(scale)), 2)),
            ("CT-Crypto", Defense::Spt, cut(add(ct_crypto(scale)), 2)),
            ("UNR-Crypto", Defense::SptSb, cut(add(unr_crypto(scale)), 2)),
        ];
        let grid: &[(u64, u64)] = if quick {
            &[(1, 1)]
        } else {
            &[(1, 1), (2, 2), (1, 4), (4, 1), (4, 4)]
        };
        let nginx_ids = add(grid.iter().map(|&(c, r)| nginx(c, r, scale)).collect());
        let nginx = grid.iter().copied().zip(nginx_ids).collect();
        let spec_int = spec_all
            .iter()
            .copied()
            .filter(|&w| is_spec2017_int(&workloads[w]))
            .collect();
        Roster {
            quick,
            spec: cut(spec_all, 3),
            spec_int: cut(spec_int, 3),
            parsec,
            suites,
            nginx,
            workloads,
        }
    }

    fn name(&self, w: usize) -> Json {
        Json::str(self.workloads[w].name.clone())
    }
}

/// One simulation: roster workload `workload` under `defense` with
/// `binary` on `core`. Equal cells have equal results, so each
/// distinct cell is simulated once.
#[derive(Clone, PartialEq, Debug)]
struct Cell {
    /// Index into `Roster::workloads`.
    workload: usize,
    defense: Defense,
    binary: Binary,
    core: CoreConfig,
}

/// A report's access to the cell table. While recording, [`Cells::run`]
/// collects the request and answers with a placeholder; over the
/// simulated table it answers the `i`-th request with its result.
pub struct Cells<'a> {
    requests: Vec<Cell>,
    results: &'a [RunResult],
}

impl Cells<'_> {
    /// The result of `workload` under `defense` with `binary` on `core`.
    pub fn run(
        &mut self,
        workload: usize,
        core: &CoreConfig,
        defense: Defense,
        binary: Binary,
    ) -> RunResult {
        let i = self.requests.len();
        self.requests.push(Cell {
            workload,
            defense,
            binary,
            core: core.clone(),
        });
        self.results.get(i).copied().unwrap_or_default()
    }

    /// `defense`'s run and its runtime normalized to the unsafe baseline
    /// on the same workload and core (baseline requested first).
    pub fn norm(
        &mut self,
        workload: usize,
        core: &CoreConfig,
        defense: Defense,
        binary: Binary,
    ) -> (RunResult, f64) {
        let base = self.run(workload, core, Defense::Unsafe, Binary::Base);
        let run = self.run(workload, core, defense, binary);
        (run, run.cycles as f64 / base.cycles as f64)
    }
}

/// One rendered report: its text table and its JSON rows.
pub struct Rendered {
    /// The text table, one `\n`-terminated line each.
    pub text: String,
    /// The JSON report.
    pub report: BenchReport,
}

/// A report over the cell table.
pub type Renderer = fn(&Roster, &mut Cells) -> Rendered;

/// The cell-table reports in reproduction order. [`table_ii`] renders
/// second, between `table_i` and `table_iv`.
pub const RENDERERS: [Renderer; 10] = [
    table_i,
    table_iv,
    table_v,
    figure_5,
    figure_6,
    ablation_protcc,
    ablation_l1d,
    ablation_access,
    ablation_control,
    ablation_fixes,
];

/// How many cells the renderers requested and how many distinct cells
/// were simulated for them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellCounts {
    /// Cell requests over all renderers.
    pub requested: usize,
    /// Distinct cells simulated.
    pub simulated: usize,
}

/// Every cell the `renderers` request, in request order.
fn requests(roster: &Roster, renderers: &[Renderer]) -> Vec<Cell> {
    let mut cells = Cells {
        requests: Vec::new(),
        results: &[],
    };
    for render in renderers {
        render(roster, &mut cells);
    }
    cells.requests
}

/// The distinct cells of `requests` in first-request order, and for
/// each request the index of its distinct cell.
fn distinct(requests: &[Cell]) -> (Vec<&Cell>, Vec<usize>) {
    let mut cells: Vec<&Cell> = Vec::new();
    let of = requests
        .iter()
        .map(|r| {
            cells.iter().position(|c| *c == r).unwrap_or_else(|| {
                cells.push(r);
                cells.len() - 1
            })
        })
        .collect();
    (cells, of)
}

/// Renders `renderers` from one cell table, simulating each distinct
/// cell once on `workers` threads.
///
/// # Panics
///
/// Panics if a renderer requests different cells over the table than it
/// did while recording (a renderer must depend only on its results).
pub fn render(
    roster: &Roster,
    renderers: &[Renderer],
    workers: usize,
) -> (Vec<Rendered>, CellCounts) {
    let requests = requests(roster, renderers);
    let (cells, of) = distinct(&requests);
    let simulated = protean_jobs::map_indexed_with(workers, cells.len(), |i| {
        let c = cells[i];
        run_workload(&roster.workloads[c.workload], &c.core, c.defense, c.binary)
    });
    let results: Vec<RunResult> = of.iter().map(|&i| simulated[i]).collect();
    let mut table = Cells {
        requests: Vec::new(),
        results: &results,
    };
    let rendered = renderers.iter().map(|r| r(roster, &mut table)).collect();
    assert!(
        table.requests == requests,
        "a renderer's requests depend on its results"
    );
    let counts = CellCounts {
        requested: requests.len(),
        simulated: cells.len(),
    };
    (rendered, counts)
}

/// Every report in reproduction order — Tab. I, II, IV, V, Fig. 5, 6,
/// §IX-A2/A3/A4/A6/A7 — with the cell counts of the cell-table ones.
pub fn all(roster: &Roster, workers: usize) -> (Vec<Rendered>, CellCounts) {
    let table_ii = table_ii(roster.quick);
    let (mut reports, counts) = render(roster, &RENDERERS, workers);
    reports.insert(1, table_ii);
    (reports, counts)
}

/// A report being rendered: its text table and its JSON rows.
struct Draft {
    t: TablePrinter,
    rep: BenchReport,
}

impl Draft {
    /// Starts report `bench` with its `title` lines and, unless `head`
    /// is empty, its column headings and a separator.
    fn new(bench: &str, widths: &[usize], title: &[&str], head: &[&str]) -> Draft {
        let mut t = TablePrinter::new(widths);
        for line in title {
            t.line(line);
        }
        if !head.is_empty() {
            t.row(&head.iter().map(|h| h.to_string()).collect::<Vec<_>>());
            t.sep();
        }
        Draft {
            t,
            rep: BenchReport::new(bench),
        }
    }

    /// Pushes one per-cell JSON row: the report's label fields followed
    /// by the standard measurement fields.
    fn cell(&mut self, mut fields: Vec<(&str, Json)>, run: &RunResult, norm: f64) {
        fields.extend(measure_fields(run, norm));
        self.rep.row(fields);
    }

    fn done(self) -> Rendered {
        Rendered {
            text: self.t.finish(),
            report: self.rep,
        }
    }
}

/// How a report prepares a defense's binary for a workload.
type BinaryFor = fn(Defense, &Workload) -> Binary;

/// The binary for a single-class workload ([`binary_for`]).
fn single_class(d: Defense, w: &Workload) -> Binary {
    binary_for(d, w.class)
}

/// The multi-class ProtCC binary, whatever the defense.
fn multi_class(_: Defense, _: &Workload) -> Binary {
    Binary::MultiClass
}

/// A geomean of normalized values as a signed percentage overhead.
fn pct(norms: &[f64]) -> String {
    format!("{:+.1}%", (geomean(norms) - 1.0) * 100.0)
}

/// **Tab. I**: the targeting matrix — which defenses secure which
/// vulnerable-code class, with the runtime overhead of the most
/// performant applicable defense per class (percentages from the Tab. V
/// suites, as in the paper), plus the §IV-C2a hardware-cost footer.
pub fn table_i(roster: &Roster, c: &mut Cells) -> Rendered {
    let core = CoreConfig::p_core();
    let mut out = Draft::new(
        "table_i",
        &[22, 14, 8, 8, 8, 8, 10],
        &["Table I: defenses, ProtSets, and targeted classes (measured overheads)"],
        &["defense", "mechanism", "ARCH", "CTS", "CT", "UNR", "multi"],
    );
    let [arch, cts, ct, unr] = [0, 1, 2, 3].map(|s| roster.suites[s].2.as_slice());
    let multi: Vec<usize> = roster
        .nginx
        .iter()
        .filter(|(point, _)| [(1, 1), (2, 2), (4, 4)].contains(point))
        .map(|&(_, w)| w)
        .collect();
    // The overhead of `d` on one suite, in percent of the unsafe
    // baseline.
    let mut overhead = |label: &str, suite: &str, ws: &[usize], d: Defense, binary: BinaryFor| {
        let mut norms = Vec::new();
        for &w in ws {
            let (run, norm) = c.norm(w, &core, d, binary(d, &roster.workloads[w]));
            let fields = vec![
                ("defense", Json::str(label)),
                ("suite", Json::str(suite)),
                ("workload", roster.name(w)),
            ];
            out.cell(fields, &run, norm);
            norms.push(norm);
        }
        (geomean(&norms) - 1.0) * 100.0
    };
    let stt_arch = overhead("STT", "ARCH-Wasm", arch, Defense::Stt, single_class);
    let spt_cts = overhead("SPT", "CTS-Crypto", cts, Defense::Spt, single_class);
    let spt_ct = overhead("SPT", "CT-Crypto", ct, Defense::Spt, single_class);
    let sptsb_unr = overhead("SPT-SB", "UNR-Crypto", unr, Defense::SptSb, single_class);
    let sptsb_multi = overhead("SPT-SB", "nginx", &multi, Defense::SptSb, single_class);
    let mut protean = |d: Defense, label: &str| {
        [
            overhead(label, "ARCH-Wasm", arch, d, single_class),
            overhead(label, "CTS-Crypto", cts, d, single_class),
            overhead(label, "CT-Crypto", ct, d, single_class),
            overhead(label, "UNR-Crypto", unr, d, single_class),
            overhead(label, "nginx", &multi, d, multi_class),
        ]
    };
    let delay = protean(Defense::ProtDelay, "PROTEAN (ProtDelay)");
    let track = protean(Defense::ProtTrack, "PROTEAN (ProtTrack)");

    // Per paper Tab. I: percentage = overhead of the most performant
    // available defense securing that class; x = does not secure.
    let whole = |v: f64| format!("{v:.0}%");
    let (y, x) = (|| "Y".to_string(), || "x".to_string());
    let row = |name: &str, mechanism: &str, cols: [String; 5]| {
        let mut cells = vec![name.to_string(), mechanism.to_string()];
        cells.extend(cols);
        cells
    };
    let t = &mut out.t;
    t.row(&row(
        "NDA/SpecShield",
        "AccessDelay",
        [y(), x(), x(), x(), x()],
    ));
    t.row(&row(
        "STT",
        "AccessTrack",
        [whole(stt_arch), x(), x(), x(), x()],
    ));
    let spt = [y(), whole(spt_cts), whole(spt_ct), x(), x()];
    t.row(&row("SPT", "AccessTrack+", spt));
    let sptsb = [y(), y(), y(), whole(sptsb_unr), whole(sptsb_multi)];
    t.row(&row("SPT-SB", "XmitDelay", sptsb));
    t.row(&row("PROTEAN (ProtDelay)", "ProtDelay", delay.map(whole)));
    t.row(&row("PROTEAN (ProtTrack)", "ProtTrack", track.map(whole)));
    t.sep();
    t.line(&format!(
        "Hardware cost (§IV-C2a): P-core prot bits {} KiB ({:.4} mm^2, {:.1}% of L1D); \
         E-core {} KiB ({:.4} mm^2, {:.1}% of L1D); access predictor 128 B",
        area::prot_bits_bytes(48 * 1024) / 1024,
        area::prot_bit_array_area_mm2(48 * 1024),
        area::prot_bit_area_overhead(48 * 1024, area::P_CORE_L1D_AREA_MM2) * 100.0,
        area::prot_bits_bytes(32 * 1024) / 1024,
        area::prot_bit_array_area_mm2(32 * 1024),
        area::prot_bit_area_overhead(32 * 1024, area::E_CORE_L1D_AREA_MM2) * 100.0,
    ));
    out.done()
}

/// One Tab. II cell: a ProtCC pass and contract, campaigned under
/// both adversary models, like the paper's two-stage setup (§VII-B2).
fn campaign(
    pass: Pass,
    contract: ContractKind,
    programs: usize,
    factory: &(dyn Fn() -> Box<dyn DefensePolicy> + Sync),
) -> Report {
    let mut total = Report::default();
    for adversary in [Adversary::CacheTlb, Adversary::Timing] {
        let mut cfg = FuzzConfig::quick(pass, contract, adversary);
        cfg.programs = programs;
        cfg.inputs_per_program = 3;
        cfg.gen.seed = 0xc0ffee;
        // Tab. II prints counts only: no example traces to render.
        cfg.capture_traces = false;
        let r = fuzz(&cfg, factory);
        total.tests += r.tests;
        total.violations += r.violations;
        total.false_positives += r.false_positives;
        total.pairs_rejected += r.pairs_rejected;
    }
    total
}

/// **Tab. II**: AMuLeT\*-detected contract violations for
/// ProtCC-RAND/-ARCH/-CTS/-CT/-UNR test binaries on the unsafe baseline
/// and on Protean (ProtDelay and ProtTrack), false positives in
/// parentheses. Campaign sizes are scaled down like the artifact's
/// `table-ii.py` (§A-F2); expect many violations for the unsafe column
/// and zero true positives for Protean.
///
/// Every table cell is one job on the `protean-jobs` pool, and each
/// cell's campaign fans out further, one job per generated program.
pub fn table_ii(quick: bool) -> Rendered {
    let programs = if quick { 8 } else { 30 };
    let rows: Vec<(&str, &str, Pass, ContractKind)> = vec![
        (
            "UNPROT-SEQ",
            "ProtCC-RAND",
            Pass::Rand { prob: 0.5, seed: 7 },
            ContractKind::UnprotSeq,
        ),
        ("ARCH-SEQ", "ProtCC-ARCH", Pass::Arch, ContractKind::ArchSeq),
        ("CTS-SEQ", "ProtCC-CTS", Pass::Cts, ContractKind::CtsSeq),
        ("CT-SEQ", "ProtCC-CT", Pass::Ct, ContractKind::CtSeq),
        ("CT-SEQ", "ProtCC-UNR", Pass::Unr, ContractKind::CtSeq),
    ];

    // One job per table cell (row × defense column); results land in
    // cell order, so the table is independent of scheduling.
    let cells: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|r| (0..3).map(move |c| (r, c)))
        .collect();
    let reports = protean_jobs::map(&cells, |_, &(r, c)| {
        let (_, _, pass, contract) = rows[r];
        match c {
            0 => campaign(pass, contract, programs, &|| Box::new(UnsafePolicy)),
            1 => campaign(pass, contract, programs, &|| {
                Box::new(ProtDelayPolicy::new())
            }),
            _ => campaign(pass, contract, programs, &|| {
                Box::new(ProtTrackPolicy::new())
            }),
        }
    });

    let mut out = Draft::new(
        "table_ii",
        &[12, 14, 12, 12, 12],
        &[
            "Table II: contract violations (true positives, false positives in parens)",
            &format!("{programs} programs x 3 secret mutations x 2 adversary models per cell"),
        ],
        &[
            "contract",
            "instrument.",
            "Unsafe",
            "ProtDelay",
            "ProtTrack",
        ],
    );
    let t = &mut out.t;
    let cell = |r: &Report| format!("{} ({})", r.violations, r.false_positives);
    for (r, (contract_name, instr, _, _)) in rows.iter().enumerate() {
        t.row(&[
            (*contract_name).into(),
            (*instr).into(),
            cell(&reports[r * 3]),
            cell(&reports[r * 3 + 1]),
            cell(&reports[r * 3 + 2]),
        ]);
    }
    t.sep();
    t.line("Expected: >0 true positives for Unsafe, 0 for ProtDelay/ProtTrack.");

    let defenses = ["Unsafe", "ProtDelay", "ProtTrack"];
    for (&(r, c), report) in cells.iter().zip(&reports) {
        let (contract_name, instr, _, _) = rows[r];
        out.rep.row(vec![
            ("contract", Json::str(contract_name)),
            ("instrumentation", Json::str(instr)),
            ("defense", Json::str(defenses[c])),
            ("tests", Json::U64(report.tests)),
            ("pairs_rejected", Json::U64(report.pairs_rejected)),
            ("violations", Json::U64(report.violations)),
            ("false_positives", Json::U64(report.false_positives)),
        ]);
    }
    out.done()
}

/// **Tab. IV**: geometric-mean normalized runtime of all eight Protean
/// single-class configurations against their best secure baseline, on
/// SPEC2017 (P-core and E-core) and PARSEC (multi-core).
pub fn table_iv(roster: &Roster, c: &mut Cells) -> Rendered {
    let mut out = Draft::new(
        "table_iv",
        &[22, 10, 10, 10, 10],
        &["Table IV: geomean normalized runtime (baseline | Protean-Delay | Protean-Track)"],
        &["platform / class", "baseline", "base", "Delay", "Track"],
    );
    let platforms = [
        ("SPEC2017 P-core", CoreConfig::p_core(), &roster.spec),
        ("SPEC2017 E-core", CoreConfig::e_core(), &roster.spec),
        ("PARSEC", CoreConfig::e_core_mt(), &roster.parsec),
    ];
    let classes = [
        ("ARCH", Defense::Stt, Pass::Arch),
        ("CTS", Defense::Spt, Pass::Cts),
        ("CT", Defense::Spt, Pass::Ct),
        ("UNR", Defense::SptSb, Pass::Unr),
    ];
    for (label, core, ws) in platforms {
        // The unsafe baselines, once per workload.
        let bases: Vec<RunResult> = ws
            .iter()
            .map(|&w| c.run(w, &core, Defense::Unsafe, Binary::Base))
            .collect();
        for (class, baseline, pass) in classes {
            let columns = [
                (baseline, Binary::Base),
                (Defense::ProtDelay, Binary::SingleClass(pass)),
                (Defense::ProtTrack, Binary::SingleClass(pass)),
            ];
            let mut cols: [Vec<f64>; 3] = Default::default();
            for (&w, base) in ws.iter().zip(&bases) {
                for (col, (defense, binary)) in cols.iter_mut().zip(columns) {
                    let run = c.run(w, &core, defense, binary);
                    let norm = run.cycles as f64 / base.cycles as f64;
                    let fields = vec![
                        ("platform", Json::str(label)),
                        ("class", Json::str(class)),
                        ("defense", Json::str(format!("{defense:?}"))),
                        ("workload", roster.name(w)),
                    ];
                    out.cell(fields, &run, norm);
                    col.push(norm);
                }
            }
            let mut row = vec![format!("{label} / {class}"), format!("{baseline:?}")];
            row.extend(cols.iter().map(|col| fmt_norm(geomean(col))));
            out.t.row(&row);
        }
        out.t.sep();
    }
    out.done()
}

/// One Tab. V block under the `(suite, heading)` header: the unsafe
/// baseline, `baseline` on the base binary, and ProtDelay and ProtTrack
/// on `protean` binaries for each workload of `ws`, then the geomean
/// row.
fn table_v_block(
    roster: &Roster,
    c: &mut Cells,
    out: &mut Draft,
    (suite, heading): (&str, &str),
    (baseline, ws): (Defense, &[usize]),
    protean: BinaryFor,
) {
    let core = CoreConfig::p_core();
    out.t.sep();
    out.t
        .row(&[suite, heading, "Delay", "Track"].map(String::from));
    out.t.sep();
    let mut cols: [Vec<f64>; 3] = Default::default();
    for &w in ws {
        let workload = &roster.workloads[w];
        let (delay, track) = (Defense::ProtDelay, Defense::ProtTrack);
        let columns = [
            (format!("{baseline:?}"), baseline, Binary::Base),
            ("ProtDelay".into(), delay, protean(delay, workload)),
            ("ProtTrack".into(), track, protean(track, workload)),
        ];
        let base = c.run(w, &core, Defense::Unsafe, Binary::Base);
        let mut row = vec![workload.name.clone()];
        for (col, (label, defense, binary)) in cols.iter_mut().zip(columns) {
            let run = c.run(w, &core, defense, binary);
            let norm = run.cycles as f64 / base.cycles as f64;
            let fields = vec![
                ("suite", Json::str(suite)),
                ("workload", roster.name(w)),
                ("defense", Json::str(label)),
            ];
            out.cell(fields, &run, norm);
            col.push(norm);
            row.push(fmt_norm(norm));
        }
        out.t.row(&row);
    }
    let mut row = vec!["geomean".to_string()];
    row.extend(cols.iter().map(|col| fmt_norm(geomean(col))));
    out.t.row(&row);
}

/// **Tab. V**: normalized runtime of Protean on the single-class suites
/// (ARCH-Wasm vs STT, CTS-/CT-Crypto vs SPT, UNR-Crypto vs SPT-SB) and
/// the multi-class nginx web server vs SPT-SB, all on a P-core.
pub fn table_v(roster: &Roster, c: &mut Cells) -> Rendered {
    let mut out = Draft::new(
        "table_v",
        &[18, 10, 10, 10],
        &["Table V: normalized runtime on a P-core (baseline | Protean-Delay | Protean-Track)"],
        &[],
    );
    for (suite, baseline, ws) in &roster.suites {
        let heading = format!("{baseline:?}");
        let suite = (*suite, heading.as_str());
        table_v_block(roster, c, &mut out, suite, (*baseline, ws), single_class);
    }
    let grid: Vec<usize> = roster.nginx.iter().map(|&(_, w)| w).collect();
    let suite = ("Multi-Class", "SPT-SB");
    table_v_block(
        roster,
        c,
        &mut out,
        suite,
        (Defense::SptSb, &grid),
        multi_class,
    );
    out.done()
}

/// **Fig. 5**: the ProtTrack access-predictor sensitivity study —
/// misprediction rate and runtime overhead versus predictor size (the
/// paper picks n = 1024 because it is within 0.6 % misprediction rate
/// and 0.2 % overhead of an unbounded predictor). Averaged across
/// ProtCC-ARCH- and ProtCC-CT-compiled SPEC2017int benchmarks on a
/// P-core, normalized to the unsafe baseline (§VI-B2a).
pub fn figure_5(roster: &Roster, c: &mut Cells) -> Rendered {
    let core = CoreConfig::p_core();
    let ws = &roster.spec_int;
    let sizes = [
        ("16", Defense::ProtTrackEntries(16)),
        ("64", Defense::ProtTrackEntries(64)),
        ("256", Defense::ProtTrackEntries(256)),
        ("1024", Defense::ProtTrackEntries(1024)),
        ("4096", Defense::ProtTrackEntries(4096)),
        ("unbounded", Defense::ProtTrackUnbounded),
    ];
    let bases: Vec<RunResult> = ws
        .iter()
        .map(|&w| c.run(w, &core, Defense::Unsafe, Binary::Base))
        .collect();
    let mut out = Draft::new(
        "figure_5",
        &[12, 16, 16],
        &[
            "Figure 5: ProtTrack access-predictor sensitivity (SPEC2017int, P-core)",
            "(averaged over ProtCC-ARCH and ProtCC-CT binaries)",
        ],
        &["entries", "mispred rate", "overhead"],
    );
    for (label, defense) in sizes {
        let mut norms = Vec::new();
        let mut rates = Vec::new();
        for pass in [Pass::Arch, Pass::Ct] {
            for (&w, base) in ws.iter().zip(&bases) {
                let run = c.run(w, &core, defense, Binary::SingleClass(pass));
                let norm = run.cycles as f64 / base.cycles as f64;
                let fields = vec![
                    ("entries", Json::str(label)),
                    ("pass", Json::str(pass.name())),
                    ("workload", roster.name(w)),
                    (
                        "mispred_rate",
                        run.mispred_rate.map_or(Json::Null, Json::F64),
                    ),
                ];
                out.cell(fields, &run, norm);
                norms.push(norm);
                rates.extend(run.mispred_rate);
            }
        }
        let rate = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
        out.t.row(&[
            label.into(),
            format!("{:.3}%", rate * 100.0),
            format!("{:+.2}%", (geomean(&norms) - 1.0) * 100.0),
        ]);
    }
    out.done()
}

/// PROTEAN-Track-ARCH/-CT and the baselines securing the same code: the
/// series of Fig. 6 and §IX-A6.
const TRACK_SERIES: [(&str, Defense, Binary); 4] = [
    ("STT", Defense::Stt, Binary::Base),
    (
        "Track-ARCH",
        Defense::ProtTrack,
        Binary::SingleClass(Pass::Arch),
    ),
    ("SPT", Defense::Spt, Binary::Base),
    (
        "Track-CT",
        Defense::ProtTrack,
        Binary::SingleClass(Pass::Ct),
    ),
];

/// **Fig. 6**: per-benchmark normalized runtime of
/// PROTEAN-Track-ARCH/-CT versus STT/SPT on the SPEC2017 benchmarks
/// (`*.s`, P-core) and PARSEC (`*.p`, multi-core).
pub fn figure_6(roster: &Roster, c: &mut Cells) -> Rendered {
    let mut out = Draft::new(
        "figure_6",
        &[18, 10, 12, 10, 12],
        &["Figure 6: per-benchmark normalized runtime"],
        &["benchmark", "STT", "Track-ARCH", "SPT", "Track-CT"],
    );
    let parsec = &roster.parsec[..if roster.quick { 1 } else { roster.parsec.len() }];
    let platforms = [
        ("SPEC2017", CoreConfig::p_core(), roster.spec.as_slice()),
        ("PARSEC", CoreConfig::e_core_mt(), parsec),
    ];
    let mut acc: [Vec<f64>; 4] = Default::default();
    for (platform, core, ws) in platforms {
        for &w in ws {
            let base = c.run(w, &core, Defense::Unsafe, Binary::Base);
            let mut row = vec![roster.workloads[w].name.clone()];
            for (col, (label, defense, binary)) in acc.iter_mut().zip(TRACK_SERIES) {
                let run = c.run(w, &core, defense, binary);
                let norm = run.cycles as f64 / base.cycles as f64;
                let fields = vec![
                    ("platform", Json::str(platform)),
                    ("workload", roster.name(w)),
                    ("defense", Json::str(label)),
                ];
                out.cell(fields, &run, norm);
                col.push(norm);
                row.push(fmt_norm(norm));
            }
            out.t.row(&row);
        }
    }
    out.t.sep();
    let mut row = vec!["geomean".to_string()];
    row.extend(acc.iter().map(|col| fmt_norm(geomean(col))));
    out.t.row(&row);
    out.done()
}

/// **§IX-A2**: ProtCC instrumentation overhead — code size and runtime
/// with Protean's hardware protections *disabled* (instrumented binaries
/// on the unsafe core), SPEC2017int on a P-core.
pub fn ablation_protcc(roster: &Roster, c: &mut Cells) -> Rendered {
    let core = CoreConfig::p_core();
    let mut out = Draft::new(
        "ablation_protcc",
        &[10, 16, 18],
        &["Ablation (IX-A2): ProtCC instrumentation overhead, protections disabled"],
        &["pass", "code size", "runtime (unsafe HW)"],
    );
    for pass in [Pass::Cts, Pass::Ct, Pass::Unr] {
        let mut sizes = Vec::new();
        let mut norms = Vec::new();
        for &w in &roster.spec_int {
            let (program, _) = &roster.workloads[w].threads[0];
            let instrumented = prepare(program, Binary::SingleClass(pass));
            let size = code_size(&instrumented) as f64 / code_size(program) as f64;
            let (run, norm) = c.norm(w, &core, Defense::Unsafe, Binary::SingleClass(pass));
            let fields = vec![
                ("pass", Json::str(pass.name())),
                ("workload", roster.name(w)),
                ("code_size_ratio", Json::F64(size)),
            ];
            out.cell(fields, &run, norm);
            sizes.push(size);
            norms.push(norm);
        }
        out.t.row(&[pass.name().into(), pct(&sizes), pct(&norms)]);
    }
    out.done()
}

/// One SPEC2017int ablation table: per `(label, core, defense, binary)`
/// row, one overhead column per entry of `passes`. A `Some(pass)` column
/// runs the pass's single-class binary and labels its JSON rows with the
/// pass; a `None` column runs the row's own `binary`.
fn ablation(
    roster: &Roster,
    c: &mut Cells,
    out: &mut Draft,
    (label_key, passes): (&str, &[Option<Pass>]),
    rows: &[(&str, &CoreConfig, Defense, Binary)],
) {
    for &(label, core, defense, binary) in rows {
        let mut cols = vec![label.to_string()];
        for &pass in passes {
            let binary = pass.map_or(binary, Binary::SingleClass);
            let mut norms = Vec::new();
            for &w in &roster.spec_int {
                let (run, norm) = c.norm(w, core, defense, binary);
                let mut fields = vec![(label_key, Json::str(label))];
                if let Some(pass) = pass {
                    fields.push(("pass", Json::str(pass.name())));
                }
                fields.push(("workload", roster.name(w)));
                out.cell(fields, &run, norm);
                norms.push(norm);
            }
            cols.push(pct(&norms));
        }
        out.t.row(&cols);
    }
}

/// The two per-pass columns of §IX-A3/A4.
const ARCH_CT: &[Option<Pass>] = &[Some(Pass::Arch), Some(Pass::Ct)];

/// **§IX-A3**: protection-tagged L1D variants — no memory tracking (all
/// memory protected) vs the paper's tagged L1D vs an idealized perfect
/// shadow memory, for PROTEAN-Track-ARCH/-CT on SPEC2017int (P-core).
pub fn ablation_l1d(roster: &Roster, c: &mut Cells) -> Rendered {
    let mut out = Draft::new(
        "ablation_l1d",
        &[16, 14, 14],
        &["Ablation (IX-A3): ProtISA memory-protection tracking variants (Track)"],
        &["variant", "ARCH overhead", "CT overhead"],
    );
    // The tracking mode is a *core* parameter, so each variant has its
    // own unsafe baselines.
    let core = |mem_prot| CoreConfig {
        mem_prot,
        ..CoreConfig::p_core()
    };
    let cores = [
        core(MemProtTracking::None),
        core(MemProtTracking::TaggedL1d),
        core(MemProtTracking::PerfectShadow),
    ];
    let (d, b) = (Defense::ProtTrack, Binary::Base);
    let rows = [
        ("disabled", &cores[0], d, b),
        ("tagged L1D", &cores[1], d, b),
        ("perfect shadow", &cores[2], d, b),
    ];
    ablation(roster, c, &mut out, ("variant", ARCH_CT), &rows);
    out.done()
}

/// **§IX-A4**: raw AccessDelay/AccessTrack applied directly to ProtISA
/// (ProtDelay's selective wakeup and ProtTrack's access predictor
/// disabled) versus the full mechanisms, on SPEC2017int (P-core),
/// averaged across ProtCC-ARCH and ProtCC-CT binaries.
pub fn ablation_access(roster: &Roster, c: &mut Cells) -> Rendered {
    let core = CoreConfig::p_core();
    let mut out = Draft::new(
        "ablation_access",
        &[24, 14, 14],
        &["Ablation (IX-A4): raw access-based mechanisms under ProtISA"],
        &["mechanism", "ARCH overhead", "CT overhead"],
    );
    let b = Binary::Base;
    let rows = [
        ("ProtDelay", &core, Defense::ProtDelay, b),
        ("raw AccessDelay", &core, Defense::RawAccessDelay, b),
        ("ProtTrack", &core, Defense::ProtTrack, b),
        ("raw AccessTrack", &core, Defense::RawAccessTrack, b),
    ];
    ablation(roster, c, &mut out, ("mechanism", ARCH_CT), &rows);
    out.done()
}

/// **§IX-A6**: the noncomprehensive CONTROL speculation model case
/// study — PROTEAN-Track-ARCH/-CT versus STT/SPT on SPEC2017int (P-core)
/// with instructions considered speculative only until prior branches
/// resolve.
pub fn ablation_control(roster: &Roster, c: &mut Cells) -> Rendered {
    let core = CoreConfig {
        speculation: SpeculationModel::Control,
        ..CoreConfig::p_core()
    };
    let mut out = Draft::new(
        "ablation_control",
        &[16, 14],
        &[
            "Ablation (IX-A6): CONTROL speculation model, SPEC2017int P-core",
            "(note: CONTROL misses memory-order speculation — footnote 1)",
        ],
        &["config", "overhead"],
    );
    let rows = TRACK_SERIES.map(|(label, d, b)| (label, &core, d, b));
    ablation(roster, c, &mut out, ("config", &[None]), &rows);
    out.done()
}

/// **§IX-A7**: the performance cost of the paper's security fixes to the
/// secure baselines (division transmitters + pending-squash fix), and of
/// SPT's 32-bit untaint performance fix, on SPEC2017int (P-core).
pub fn ablation_fixes(roster: &Roster, c: &mut Cells) -> Rendered {
    let core = CoreConfig::p_core();
    let mut out = Draft::new(
        "ablation_fixes",
        &[24, 12],
        &["Ablation (IX-A7): secure-baseline bug-fix overhead, SPEC2017int P-core"],
        &["config", "overhead"],
    );
    let b = Binary::Base;
    let rows = [
        ("STT original", &core, Defense::SttOriginal, b),
        ("STT fixed", &core, Defense::Stt, b),
        ("SPT original", &core, Defense::SptOriginal, b),
        ("SPT fixed, no perf fix", &core, Defense::SptNoPerfFix, b),
        ("SPT fixed", &core, Defense::Spt, b),
        ("SPT-SB original", &core, Defense::SptSbOriginal, b),
        ("SPT-SB fixed", &core, Defense::SptSb, b),
    ];
    ablation(roster, c, &mut out, ("config", &[None]), &rows);
    out.done()
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_workloads::spec2017_int;

    /// The dedup key is complete: every request shares its simulation
    /// only with requests of equal workload content, core, defense and
    /// binary. The request and distinct-cell counts are pinned.
    #[test]
    fn equal_keys_have_equal_inputs_and_counts_are_pinned() {
        for (quick, pinned) in [(true, (421, 234)), (false, (1408, 800))] {
            let roster = Roster::new(quick, Scale(1));
            let requests = requests(&roster, &RENDERERS);
            let (cells, of) = distinct(&requests);
            assert_eq!((requests.len(), cells.len()), pinned, "quick: {quick}");
            for (r, &i) in requests.iter().zip(&of) {
                let cell = cells[i];
                let (a, b) = (
                    &roster.workloads[r.workload],
                    &roster.workloads[cell.workload],
                );
                assert!(a.threads == b.threads && a.max_insts == b.max_insts);
                assert!(r.core == cell.core, "{} vs {}", r.core.name, cell.core.name);
                assert_eq!((r.defense, r.binary), (cell.defense, cell.binary));
            }
            // Structural keys: distinct cells differ in some input.
            for (i, a) in cells.iter().enumerate() {
                assert!(cells[..i].iter().all(|b| a != b));
            }
            let mut names: Vec<&str> = roster.workloads.iter().map(|w| &*w.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), roster.workloads.len(), "names are unique");
        }
    }

    #[test]
    fn spec2017_int_is_the_filtered_subset() {
        let roster = Roster::new(false, Scale(1));
        let fresh = spec2017_int(Scale(1));
        assert_eq!(roster.spec_int.len(), fresh.len());
        for (&w, f) in roster.spec_int.iter().zip(&fresh) {
            let w = &roster.workloads[w];
            assert_eq!(w.name, f.name);
            assert!(w.threads == f.threads && w.max_insts == f.max_insts);
        }
    }
}
