//! The repository benchmark: three seeded workloads run against the
//! public entry points (`Analyzer::run`, `Driver::analyze_with_cache`,
//! `parse_program`, `parse_module`), every verdict checked against a
//! hand-written answer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_programs --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced passes with traced ones (every domain wrapped in
//! [`trace::Timed`]) and prints the per-layer metrics. The last line of
//! standard output is one JSON object. See `README.md` for the workloads
//! and a glossary of the metrics.

mod alloc;
mod gen;
mod trace;

use cai_core::{
    AbstractDomain, Budget, JoinStats, JoinStatsSnapshot, LogicalProduct, ReducedProduct,
    SplitCache,
};
use cai_driver::{Driver, ModuleAnalysis, SummaryCache};
use cai_interp::{parse_module, parse_program, Analyzer, Program};
use cai_linarith::{AffineElem, AffineEq};
use cai_numeric::{ParityDomain, SignDomain};
use cai_term::parse::Vocab;
use cai_uf::{UfDomain, UfElem};
use gen::{Edit, ModuleGen, ModuleText, PaperProgram, Theories};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Flavor, Layer, Op, Plain, Traced};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// FNV-1a over a result's text: the identity of one unit's outcome.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The outcome of one unit (a program under one product, a batch, or an
/// edit step).
struct UnitOut {
    ns: u64,
    /// Peak live heap above the live heap when the unit started.
    heap_bytes: i64,
    ok: bool,
    digest: u64,
}

/// Counters the program exposes, summed over a pass.
#[derive(Default)]
struct Counters {
    loop_iterations: u64,
    joins: u64,
    widens: u64,
    fuel: u64,
    recomputed: u64,
    reused: u64,
    contexts_created: u64,
    memo_hits: u64,
    join: JoinStatsSnapshot,
}

/// What a pass hands the harness.
#[derive(Default)]
struct Pass {
    units: Vec<UnitOut>,
    counters: Counters,
}

/// Runs one unit: `body` gets the counters and returns `(ok, digest)`.
/// A panic fails the unit instead of ending the run.
fn unit(pass: &mut Pass, id: u32, body: impl FnOnce(&mut Counters) -> (bool, u64)) {
    trace::set_unit(id);
    let base = alloc::reset_peak();
    let start = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| body(&mut pass.counters)));
    let ns = start.elapsed().as_nanos() as u64;
    let heap_bytes = alloc::peak() - base;
    let (ok, digest) = res.unwrap_or((false, 0));
    pass.units.push(UnitOut {
        ns,
        heap_bytes,
        ok,
        digest,
    });
}

trait Workload {
    /// A label per unit of a pass, in order.
    fn labels(&self) -> Vec<String>;
    /// Worker threads the program runs with.
    fn threads(&self) -> usize;
    /// One pass over the workload's input.
    fn pass<F: Flavor>(&mut self, first_unit: u32, stats: &JoinStats) -> Pass;
}

type LinUf<F> =
    <F as Flavor>::W<LogicalProduct<<F as Flavor>::W<AffineEq>, <F as Flavor>::W<UfDomain>>>;

/// `AffineEq ⋈ UfDomain` over `budget`, counting into `stats`, with its
/// own cold split cache unless `split` shares one.
fn logical_lin_uf<F: Flavor>(
    budget: &Budget,
    stats: &JoinStats,
    split: Option<&SplitCache<AffineElem, UfElem>>,
) -> LinUf<F> {
    let mut product = LogicalProduct::new(
        F::wrap(AffineEq::new(), Layer::Linarith),
        F::wrap(UfDomain::new(), Layer::Uf),
    )
    .with_budget(budget.clone())
    .with_stats(stats.clone());
    if let Some(split) = split {
        product = product.with_split_cache(split.clone());
    }
    F::wrap(product, Layer::Logical)
}

// ---------------------------------------------------------------------
// paper_programs

struct PaperPrograms {
    vocab: Vocab,
    programs: Vec<PaperProgram>,
}

fn parse_prog(vocab: &Vocab, src: &str) -> Program {
    let _s = trace::harness_span(Layer::Parse);
    parse_program(vocab, src).expect("generated program parses")
}

/// Analyzes `program` under `domain` from ⊤ and checks the verdicts.
fn analyze<D: AbstractDomain>(
    domain: &D,
    program: &Program,
    budget: &Budget,
    expected: &[bool],
    c: &mut Counters,
) -> (bool, u64) {
    let a = {
        let _s = trace::harness_span(Layer::Interp);
        Analyzer::new(domain)
            .with_budget(budget.clone())
            .run(program)
    };
    c.loop_iterations += a.loop_iterations.iter().sum::<usize>() as u64;
    c.joins += a.stats.joins as u64;
    c.widens += a.stats.widens as u64;
    c.fuel += a.degradation.fuel_spent;
    let verdicts: Vec<bool> = a.assertions.iter().map(|x| x.verified).collect();
    let ok = verdicts == expected && !a.diverged && !a.degradation.degraded;
    let text = format!(
        "{verdicts:?} {} {:?} {}",
        a.exit, a.loop_iterations, a.diverged
    );
    (ok, digest(&text))
}

impl Workload for PaperPrograms {
    fn labels(&self) -> Vec<String> {
        self.programs
            .iter()
            .flat_map(|p| [format!("{}/logical", p.name), format!("{}/reduced", p.name)])
            .collect()
    }

    fn threads(&self) -> usize {
        1
    }

    fn pass<F: Flavor>(&mut self, first_unit: u32, stats: &JoinStats) -> Pass {
        let mut pass = Pass::default();
        let mut id = first_unit;
        for p in &self.programs {
            for logical in [true, false] {
                let expected = if logical { &p.logical } else { &p.reduced };
                unit(&mut pass, id, |c| {
                    let program = parse_prog(&self.vocab, &p.src);
                    // A fresh product per program: its split cache starts
                    // cold, as it does for a user.
                    let budget = Budget::unlimited();
                    match (p.theories, logical) {
                        (Theories::LinUf, true) => {
                            let d = logical_lin_uf::<F>(&budget, stats, None);
                            analyze(&d, &program, &budget, expected, c)
                        }
                        (Theories::LinUf, false) => {
                            let d = F::wrap(
                                ReducedProduct::new(
                                    F::wrap(AffineEq::new(), Layer::Linarith),
                                    F::wrap(UfDomain::new(), Layer::Uf),
                                )
                                .with_budget(budget.clone()),
                                Layer::Reduced,
                            );
                            analyze(&d, &program, &budget, expected, c)
                        }
                        (Theories::ParitySign, true) => {
                            let d = F::wrap(
                                LogicalProduct::new(
                                    F::wrap(ParityDomain::new(), Layer::Numeric),
                                    F::wrap(SignDomain::new(), Layer::Numeric),
                                )
                                .with_budget(budget.clone())
                                .with_stats(stats.clone()),
                                Layer::Logical,
                            );
                            analyze(&d, &program, &budget, expected, c)
                        }
                        (Theories::ParitySign, false) => {
                            let d = F::wrap(
                                ReducedProduct::new(
                                    F::wrap(ParityDomain::new(), Layer::Numeric),
                                    F::wrap(SignDomain::new(), Layer::Numeric),
                                )
                                .with_budget(budget.clone()),
                                Layer::Reduced,
                            );
                            analyze(&d, &program, &budget, expected, c)
                        }
                    }
                });
                id += 1;
            }
        }
        pass
    }
}

// ---------------------------------------------------------------------
// module_cold and module_edit

fn parse_mod(vocab: &Vocab, src: &str) -> cai_interp::Module {
    let _s = trace::harness_span(Layer::Parse);
    parse_module(vocab, src).expect("generated module parses")
}

/// Runs the driver on `text` and checks every procedure's verdicts.
fn analyze_module<F: Flavor>(
    vocab: &Vocab,
    text: &ModuleText,
    threads: usize,
    stats: &JoinStats,
    caches: Option<(&mut SummaryCache, &SplitCache<AffineElem, UfElem>)>,
    c: &mut Counters,
) -> (bool, u64) {
    let module = parse_mod(vocab, &text.src);
    let split = caches.as_ref().map(|(_, s)| *s);
    // Each job's product draws on the job's budget slice, so the fuel it
    // spends shows in the driver's report.
    let driver = Driver::new(|b: &Budget| logical_lin_uf::<F>(b, stats, split))
        .threads(threads)
        .with_budget(Budget::unlimited());
    let ma = {
        let _s = trace::harness_span(Layer::Driver);
        match caches {
            Some((summaries, _)) => driver.analyze_with_cache(&module, summaries),
            None => driver.analyze(&module),
        }
    };
    check_module(text, &ma, c)
}

fn check_module(text: &ModuleText, ma: &ModuleAnalysis, c: &mut Counters) -> (bool, u64) {
    c.fuel += ma.degradation.fuel_spent;
    c.recomputed += ma.recomputed as u64;
    c.reused += ma.reused as u64;
    c.contexts_created += ma.ctx.contexts_created;
    c.memo_hits += ma.ctx.memo_hits;
    let mut ok = !ma.degradation.degraded && ma.reports.len() == text.answers.len();
    let mut out = String::new();
    for (r, (name, expected)) in ma.reports.iter().zip(&text.answers) {
        let verdicts: Vec<bool> = r.assertions.iter().map(|a| a.verified).collect();
        ok &= &r.name == name && &verdicts == expected && !r.diverged && !r.quarantined;
        let _ = writeln!(
            out,
            "{} {verdicts:?} {} {} {}",
            r.name, r.summary, r.diverged, r.quarantined
        );
    }
    (ok, digest(&out))
}

/// A cold batch: parse the module and analyze it with fresh caches.
struct ModuleCold {
    vocab: Vocab,
    text: ModuleText,
    threads: usize,
}

impl Workload for ModuleCold {
    fn labels(&self) -> Vec<String> {
        vec!["batch".into()]
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn pass<F: Flavor>(&mut self, first_unit: u32, stats: &JoinStats) -> Pass {
        let mut pass = Pass::default();
        unit(&mut pass, first_unit, |c| {
            analyze_module::<F>(&self.vocab, &self.text, self.threads, stats, None, c)
        });
        pass
    }
}

/// An edit session: the caches persist across steps. The script returns
/// the module to its original text, so every pass starts from the same
/// text and the same summaries; the split cache is emptied at the start
/// of a pass, so its evictions fall on the same steps in every pass.
struct ModuleEdit {
    vocab: Vocab,
    module: ModuleGen,
    script: Vec<Edit>,
    threads: usize,
    summaries: SummaryCache,
    split: SplitCache<AffineElem, UfElem>,
}

impl ModuleEdit {
    fn new(seed: u64, threads: usize) -> ModuleEdit {
        let mut w = ModuleEdit {
            vocab: Vocab::standard(),
            module: ModuleGen::new(seed),
            script: gen::edit_script(seed),
            threads,
            summaries: SummaryCache::new(),
            split: SplitCache::new(),
        };
        // The cold fill. Its verdicts are those of the script's last step,
        // which every pass checks.
        let text = w.module.text();
        analyze_module::<Plain>(
            &w.vocab,
            &text,
            threads,
            &JoinStats::new(),
            Some((&mut w.summaries, &w.split)),
            &mut Counters::default(),
        );
        w
    }
}

impl Workload for ModuleEdit {
    fn labels(&self) -> Vec<String> {
        self.script
            .iter()
            .map(|e| match e {
                Edit::Set(item, v) => {
                    let class = format!("{item:?}").to_lowercase();
                    let class = class.split('(').next().unwrap_or_default().to_string();
                    format!("{class} to v{v}")
                }
                Edit::Unchanged => "unchanged".into(),
            })
            .collect()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn pass<F: Flavor>(&mut self, first_unit: u32, stats: &JoinStats) -> Pass {
        let mut pass = Pass::default();
        self.split.clear();
        for (i, edit) in self.script.clone().into_iter().enumerate() {
            if let Edit::Set(item, version) = edit {
                self.module.set_version(item, version);
            }
            // The editor's side: the program receives only the text.
            let text = self.module.text();
            let caches = Some((&mut self.summaries, &self.split));
            unit(&mut pass, first_unit + i as u32, |c| {
                analyze_module::<F>(&self.vocab, &text, self.threads, stats, caches, c)
            });
        }
        pass
    }
}

// ---------------------------------------------------------------------
// The harness

/// Median of a non-empty sample (mean of the middle two when even).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile by linear interpolation between order statistics.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One timed pass as the harness saw it.
struct PassRecord {
    wall_s: f64,
    pass: Pass,
    /// Per-layer figures (traced passes only).
    layers: Option<trace::Aggregate>,
}

fn timed_pass<W: Workload, F: Flavor>(w: &mut W, first_unit: u32, traced: bool) -> PassRecord {
    let stats = JoinStats::new();
    trace::set_enabled(traced);
    let start = Instant::now();
    let mut pass = w.pass::<F>(first_unit, &stats);
    let wall_s = start.elapsed().as_secs_f64();
    pass.counters.join = stats.snapshot();
    trace::set_enabled(false);
    let layers = traced.then(|| {
        let spans = trace::drain();
        let last_unit = first_unit + pass.units.len() as u32;
        assert!(
            spans
                .iter()
                .flatten()
                .all(|s| (first_unit..last_unit).contains(&s.unit)),
            "a span escaped its pass"
        );
        trace::aggregate(&spans)
    });
    PassRecord {
        wall_s,
        pass,
        layers,
    }
}

/// Named metric rows: `(name, value, unit)`.
type Rows = Vec<(String, f64, &'static str)>;

fn run<W: Workload>(args: &Args, process_start: Instant, setup: impl Fn() -> W) {
    let mut setups = Vec::new();
    let mut state = None;
    for i in 0..SETUPS {
        let t = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut w = setup();
        // One untimed warm-up pass; the timed passes check the answers.
        w.pass::<Plain>(0, &JoinStats::new());
        setups.push(t.elapsed().as_secs_f64());
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up");
    let labels = w.labels();
    let per_pass = labels.len() as u32;

    let mut plain: Vec<PassRecord> = Vec::new();
    let mut traced: Vec<PassRecord> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut next_unit = 1;
    loop {
        let trace_now = args.trace && plain.len() > traced.len();
        let t = if trace_now {
            timed_pass::<W, Traced>(&mut w, next_unit, true)
        } else {
            timed_pass::<W, Plain>(&mut w, next_unit, false)
        };
        next_unit += per_pass;
        if trace_now { &mut traced } else { &mut plain }.push(t);
        let enough = !args.trace || traced.len() == plain.len();
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    let all = plain.iter().chain(&traced);
    let attempted = all.clone().map(|t| t.pass.units.len()).sum::<usize>();
    let failed = all
        .clone()
        .flat_map(|t| &t.pass.units)
        .filter(|u| !u.ok)
        .count();
    // Identity: every pass, traced or not, gives the same unit outcomes.
    let reference: Vec<u64> = plain[0].pass.units.iter().map(|u| u.digest).collect();
    let identical = all
        .clone()
        .all(|t| t.pass.units.iter().map(|u| u.digest).collect::<Vec<_>>() == reference);
    let threads_agree = if args.trace && w.threads() > 1 {
        same_at_one_thread(args)
    } else {
        true
    };
    let accounted = traced.iter().all(|t| accounts_for_wall(t, w.threads()));
    let correct = failed == 0 && identical && threads_agree && accounted;

    // Latency quantiles are taken per pass and their median reported:
    // a pass's units are few and of very different sizes, and a quantile
    // pooled over passes can fall in the gap between two units' times,
    // where it swings with the extremes of each.
    let latency = |q: f64| {
        median(
            plain
                .iter()
                .map(|t| quantile(t.pass.units.iter().map(|u| u.ns as f64 / 1e6).collect(), q))
                .collect(),
        )
    };
    let pass_s = median(plain.iter().map(|t| t.wall_s).collect());
    // The most heap one unit of the pass adds to what was live when it
    // started. Measured per unit, not per pass: what is live between
    // units (the edit session's caches, names the term layer never
    // frees) would otherwise make the figure depend on where in the pass
    // a cache eviction falls and on how many passes came before.
    let heap_mb: Vec<f64> = plain
        .iter()
        .map(|t| t.pass.units.iter().map(|u| u.heap_bytes).max().unwrap_or(0) as f64)
        .map(|b| b / (1024.0 * 1024.0))
        .collect();
    println!(
        "workload {} seed {} threads {} passes {} (traced {}) units/pass {}",
        args.workload,
        args.seed,
        w.threads(),
        plain.len(),
        traced.len(),
        per_pass
    );
    let walls: Vec<String> = plain.iter().map(|t| format!("{:.3}", t.wall_s)).collect();
    println!("pass walls (s): {}", walls.join(" "));
    let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for t in &plain {
        for (label, u) in labels.iter().zip(&t.pass.units) {
            by_label.entry(label).or_default().push(u.ns as f64 / 1e6);
        }
    }
    for (label, ms) in by_label {
        let n = ms.len();
        println!(
            "unit {label:<24} median_ms {:>10.3} ({n} samples)",
            median(ms)
        );
    }
    println!(
        "identity: traced=untraced {identical}, 1 thread = {} threads {threads_agree}; \
         spans account for the traced wall time: {accounted}",
        w.threads()
    );
    println!(
        "error_rate {} ({failed} failed of {attempted} units)",
        failed as f64 / attempted as f64
    );
    println!(
        "verdict latency samples {} ({per_pass} per pass)",
        plain.len() * per_pass as usize
    );

    let rows: Rows = if args.trace {
        layer_rows(w.threads(), &traced, pass_s)
    } else {
        vec![
            ("setup_s".into(), median(setups.clone()), "s"),
            ("pass_s".into(), pass_s, "s"),
            ("verdict_p50_ms".into(), latency(0.5), "ms"),
            ("verdict_p90_ms".into(), latency(0.9), "ms"),
            ("peak_heap_mb".into(), median(heap_mb), "MiB"),
        ]
    };
    let mut json = String::new();
    for (name, value, unit) in &rows {
        println!("metric {name:<36} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
}

/// Per-layer rows: medians over the traced passes of each per-pass
/// figure, and the tracing overhead against the untraced passes.
fn layer_rows(threads: usize, traced: &[PassRecord], pass_s: f64) -> Rows {
    let s = |ns: u64| ns as f64 / 1e9;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    // Every per-pass figure, keyed by name, for each traced pass.
    let mut per_pass: Vec<Rows> = Vec::new();
    for t in traced {
        let a = t.layers.as_ref().expect("traced pass has spans");
        let c = &t.pass.counters;
        let j = &c.join;
        let mut r: Rows = Vec::new();
        let mut add = |name: &str, v: f64, unit: &'static str| r.push((name.to_string(), v, unit));
        let interp = a.op(Layer::Interp, Op::Call);
        add("interp.calls", interp.calls as f64, "count");
        add("interp.self_s", s(interp.self_ns), "s");
        add("interp.loop_iterations", c.loop_iterations as f64, "count");
        add("interp.joins", c.joins as f64, "count");
        add("interp.widens", c.widens as f64, "count");
        let parse = a.op(Layer::Parse, Op::Call);
        add("parse.calls", parse.calls as f64, "count");
        add("parse.self_s", s(parse.self_ns), "s");
        let ops = [
            Op::Join,
            Op::Meet,
            Op::Exists,
            Op::Order,
            Op::VarEq,
            Op::Alternate,
            Op::ToConj,
        ];
        for (layer, n_ops) in [(Layer::Logical, 4), (Layer::Linarith, 7), (Layer::Uf, 6)] {
            for op in &ops[..n_ops] {
                let t = a.op(layer, *op);
                let name = format!("{}.{}", layer.name(), op.name());
                add(&format!("{name}.calls"), t.calls as f64, "count");
                add(&format!("{name}.self_s"), s(t.self_ns), "s");
            }
            let all = a.layer(layer);
            add(&format!("{}.self_s", layer.name()), s(all.self_ns), "s");
            add(
                &format!("{}.allocs", layer.name()),
                all.self_allocs as f64,
                "count",
            );
            if layer == Layer::Linarith {
                add("linarith.alloc_bytes", all.self_bytes as f64, "B");
            }
        }
        add(
            "logical.saturation_rounds",
            j.saturation_rounds as f64,
            "count",
        );
        add("logical.qsat_rounds", j.qsat_rounds as f64, "count");
        add("logical.pairs_generated", j.pairs_generated as f64, "count");
        add("logical.fallbacks", j.fallbacks as f64, "count");
        let lookups = j.cache_hits + j.cache_partial_hits + j.cache_misses;
        add("logical.split_cache.lookups", lookups as f64, "count");
        add("logical.split_cache.hit_rate", j.cache_hit_rate(), "ratio");
        add(
            "logical.split_cache.partial_hit_rate",
            j.cache_partial_hit_rate(),
            "ratio",
        );
        add(
            "logical.split_cache.evictions",
            j.cache_evictions as f64,
            "count",
        );
        for layer in [Layer::Reduced, Layer::Numeric] {
            let t = a.layer(layer);
            add(&format!("{}.calls", layer.name()), t.calls as f64, "count");
            add(&format!("{}.self_s", layer.name()), s(t.self_ns), "s");
        }
        add("budget.fuel", c.fuel as f64, "count");
        // Every domain call of a module workload runs inside the driver.
        let driver = a.op(Layer::Driver, Op::Call);
        let (wall, busy) = if driver.calls > 0 {
            (s(driver.total_ns), s(a.outer_domain_ns))
        } else {
            (0.0, 0.0)
        };
        add("driver.calls", driver.calls as f64, "count");
        add("driver.wall_s", wall, "s");
        add("driver.worker_busy_s", busy, "s");
        add(
            "driver.worker_idle_s",
            (threads as f64 * wall - busy).max(0.0),
            "s",
        );
        add("driver.recomputed", c.recomputed as f64, "count");
        add("driver.reused", c.reused as f64, "count");
        add(
            "driver.summary_cache.hit_rate",
            ratio(c.reused, c.reused + c.recomputed),
            "ratio",
        );
        add(
            "driver.ctx.contexts_created",
            c.contexts_created as f64,
            "count",
        );
        add("driver.ctx.memo_hits", c.memo_hits as f64, "count");
        add(
            "harness.self_s",
            (t.wall_s - s(a.top_harness_ns)).max(0.0),
            "s",
        );
        per_pass.push(r);
    }
    let mut rows: Rows = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            (
                name.clone(),
                median(per_pass.iter().map(|r| r[i].1).collect()),
                *unit,
            )
        })
        .collect();
    let traced_s = median(traced.iter().map(|t| t.wall_s).collect());
    rows.push((
        "trace.overhead_pct".into(),
        100.0 * (traced_s / pass_s - 1.0),
        "%",
    ));
    rows
}

/// Whether a traced pass's spans nest properly (the self times add up to
/// the time the top-level spans cover) and, on a single-threaded
/// workload, whether the layers' self times plus the harness time add up
/// to the pass's wall time.
fn accounts_for_wall(t: &PassRecord, threads: usize) -> bool {
    let a = t.layers.as_ref().expect("traced pass has spans");
    let close = |x: f64, y: f64| (x - y).abs() <= 0.01 * y.max(1e-9);
    let nested = close(a.self_ns() as f64, a.covered_ns as f64);
    let wall = t.wall_s * 1e9;
    let harness = wall - a.top_harness_ns as f64;
    nested && (threads > 1 || close(a.self_ns() as f64 + harness, wall))
}

/// Runs the module workload's first batch at one thread and at the
/// configured count and compares the outcomes.
fn same_at_one_thread(args: &Args) -> bool {
    let text = ModuleGen::new(args.seed).text();
    let vocab = Vocab::standard();
    let at = |threads| {
        analyze_module::<Plain>(
            &vocab,
            &text,
            threads,
            &JoinStats::new(),
            None,
            &mut Counters::default(),
        )
    };
    at(1) == at(worker_threads())
}

/// The driver's worker count: one per available CPU.
fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper_programs|module_cold|module_edit \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let threads = worker_threads();
    match args.workload.as_str() {
        "paper_programs" => run(&args, process_start, || PaperPrograms {
            vocab: Vocab::standard(),
            programs: gen::paper_programs(seed),
        }),
        "module_cold" => run(&args, process_start, || ModuleCold {
            vocab: Vocab::standard(),
            text: ModuleGen::new(seed).text(),
            threads,
        }),
        "module_edit" => run(&args, process_start, || ModuleEdit::new(seed, threads)),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
