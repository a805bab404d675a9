//! Benchmarks the interprocedural driver (`cai-driver`): parallel
//! speedup over independent procedures and warm-cache incremental
//! re-analysis.
//!
//! ```sh
//! cargo run --release -p cai-bench --bin driver_eval                    # defaults
//! cargo run --release -p cai-bench --bin driver_eval -- --procs 64 --threads 8
//! cargo run --release -p cai-bench --bin driver_eval -- --smoke         # quick CI check
//! cargo run --release -p cai-bench --bin driver_eval -- --ctx-stats     # context-sensitivity report
//! cargo run --release -p cai-bench --bin driver_eval -- --chaos         # supervised fault drill
//! cargo run --release -p cai-bench --bin driver_eval -- --obs-report    # counter registry dump
//! cargo run --release -p cai-bench --bin driver_eval -- --trace-out prof.json  # Chrome trace
//! cargo run --release -p cai-bench --bin driver_eval -- --blame        # provenance drill
//! cargo run --release -p cai-bench --bin driver_eval -- --blame-out blame.json # + JSON export
//! ```
//!
//! `--ctx-stats` runs a benchmark whose callee reassigns its formal —
//! invisible to context-insensitive summaries — and asserts the
//! entry-keyed analysis is never less precise (and strictly more precise
//! there), printing context and cache counters.
//!
//! `--obs-report` prints the global `cai-obs` counter registry at exit
//! (plus the run's shared join stats under `core/join/…`); `--trace-out
//! FILE` enables the span tracer and writes a Chrome `trace_event` JSON
//! profile loadable in `chrome://tracing` or Perfetto. Neither changes
//! any analysis result.
//!
//! `--chaos` wraps every job's domain in a seeded fault injector
//! (`--chaos-seed N`, default 7) that panics mid-operation, then asserts
//! the supervised driver survives: the batch completes with no abort,
//! caught panics / retries / quarantines are reported, quarantined
//! procedures pin to the sound ⊤ summary, and the outcome is
//! bit-identical across 1 vs `--threads` threads.
//!
//! `--budget-policy` runs the adaptive-budget drill: a mixed-size batch
//! under a fuel pool calibrated so equal (flat) shares starve the big
//! procedure while size-proportional (adaptive) shares feed everyone.
//! Asserts the adaptive run is per-procedure no less precise than the
//! flat one (strictly better on the starved procedure), that narrowing
//! recovers the widened loop bound, and that the same drill survives a
//! chaos-wrapped domain with no abort, bit-identically across threads.
//!
//! `--blame` (and `--blame-out FILE`, which also writes the JSON export)
//! prints the blame legs of `cai_bench::blame` — the calibrated
//! budget-policy workload plus a context-cap leg and a chaos leg: the
//! loss kinds they cover, the flat leg's ranked loss table, and the
//! flat-vs-adaptive differential attribution ("assert N in `big` lost <=
//! … at big/loop#0 (analyzer/while) under flat policy"). What those legs
//! must show is checked by the workspace's `tests/blame.rs`.

use cai_bench::blame::{BlameLegs, ChaosRates};
use cai_bench::{
    args::{write_blame_out, write_trace_out},
    batch_module, ctx_module, mixed_module, Args, PolicyFuel,
};
use cai_core::{
    AbstractDomain, Budget, BudgetPolicy, Cache, ChaosConfig, ChaosDomain, JoinStats,
    LogicalProduct,
};
use cai_driver::{Driver, ModuleAnalysis, Summary, SummaryCache};
use cai_linarith::AffineEq;
use cai_linarith::Polyhedra;
use cai_uf::UfDomain;
use std::time::Instant;

type Product = LogicalProduct<AffineEq, UfDomain>;

fn product_driver() -> Driver<Product, impl Fn(&Budget) -> Product + Sync> {
    Driver::new(|_: &Budget| LogicalProduct::new(AffineEq::new(), UfDomain::new()))
}

/// Like [`product_driver`], but every job's product shares `stats`, so
/// one `--obs-report` line set aggregates the whole batch.
fn product_driver_with(stats: &JoinStats) -> Driver<Product, impl Fn(&Budget) -> Product + Sync> {
    let stats = stats.clone();
    Driver::new(move |_: &Budget| {
        LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_stats(stats.clone())
    })
}

/// Exit-fact order: `a ⊑ b` under the product domain (None = ⊥).
fn exit_le(d: &Product, a: &Summary, b: &Summary) -> bool {
    match (&a.exit, &b.exit) {
        (None, _) => true,
        (Some(ca), None) => d.is_bottom(&d.from_conj(ca)),
        (Some(ca), Some(cb)) => d.le(&d.from_conj(ca), &d.from_conj(cb)),
    }
}

fn time_ms(mut f: impl FnMut() -> ModuleAnalysis) -> (f64, ModuleAnalysis) {
    let t = Instant::now();
    let a = f();
    (t.elapsed().as_secs_f64() * 1e3, a)
}

/// One comparable line per observable fact of a run, for the chaos
/// determinism check (summaries, verdicts, flags, supervision counters,
/// event log).
fn run_fingerprint(a: &ModuleAnalysis) -> String {
    let mut s = String::new();
    for r in a {
        let verdicts: Vec<bool> = r.assertions.iter().map(|o| o.verified).collect();
        s.push_str(&format!(
            "{} | {} | {verdicts:?} | diverged={} quarantined={}\n",
            r.name, r.summary, r.diverged, r.quarantined
        ));
    }
    s.push_str(&format!("sup={:?}\n", a.supervision));
    for e in &a.degradation.events {
        s.push_str(&format!("{e}\n"));
    }
    s
}

/// `--chaos`: run the standard batch under an injector that panics with
/// probability `panic_permille`/1000 per abstract operation, supervised.
/// Two phases: a gentle rate where caught panics are absorbed (retried
/// or quarantined), and a harsh zero-retry pass where procedures
/// quarantine to the sound ⊤ summary. Rates escalate deterministically
/// until each phase's fault actually fires for the given seed. Both
/// phases must finish with no abort, bit-identically across 1 vs
/// `threads` threads.
fn chaos_drill(procs: usize, threads: usize, seed: u64, panic_permille: u32) {
    let m = batch_module(procs, 0);
    let chaos_driver = |rate: u32| {
        Driver::new(move |b: &Budget| {
            ChaosDomain::new(LogicalProduct::new(AffineEq::new(), UfDomain::new()), seed)
                .with_config(ChaosConfig {
                    panic_permille: rate,
                    ..ChaosConfig::quiet()
                })
                .with_budget(b.clone())
        })
    };
    let check_deterministic = |par: &ModuleAnalysis, mk: &dyn Fn() -> ModuleAnalysis| {
        let seq = mk();
        let identical = run_fingerprint(&seq) == run_fingerprint(par);
        println!(
            "    determinism (1 vs {threads} threads): {}",
            if identical { "identical" } else { "MISMATCH" }
        );
        assert!(
            identical,
            "supervised chaos run must be schedule-independent"
        );
    };
    println!("  chaos drill: seed {seed}, {procs} procedures");

    // --- phase 1: transient faults, absorbed by retry ---------------------
    // The whole run is a deterministic function of (seed, rate), so if the
    // starting rate happens to fire nothing for this seed, escalate — the
    // drill must demonstrate survived faults, not a lucky fault-free run.
    let mut rate = panic_permille.max(1);
    let (mut t1, mut gentle) = time_ms(|| chaos_driver(rate).threads(threads).analyze(&m));
    while gentle.supervision.panics_caught == 0 && rate < 1000 {
        rate = (rate * 2).min(1000);
        (t1, gentle) = time_ms(|| chaos_driver(rate).threads(threads).analyze(&m));
    }
    let sup = gentle.supervision;
    println!("    [{rate}permille panics, retries on]");
    println!("      completed in {t1:>6.1} ms with no abort; survived faults: {sup}");
    assert!(
        sup.panics_caught > 0,
        "the drill must actually inject panics (none fired at seed {seed} up to {rate}permille)"
    );
    assert!(
        sup.recovered + sup.quarantined > 0,
        "every caught panic ends in recovery or quarantine"
    );
    check_deterministic(&gentle, &|| chaos_driver(rate).threads(1).analyze(&m));

    // --- phase 2: persistent faults, quarantined to ⊤ ---------------------
    // Zero retries: the first caught panic quarantines. Escalate the same
    // way until the seed actually forces a quarantine.
    let mut harsh = (rate * 20).max(40);
    let (mut t2, mut q) = time_ms(|| {
        chaos_driver(harsh)
            .max_retries(0)
            .threads(threads)
            .analyze(&m)
    });
    while q.quarantined_count() == 0 && harsh < 1000 {
        harsh = (harsh * 2).min(1000);
        (t2, q) = time_ms(|| {
            chaos_driver(harsh)
                .max_retries(0)
                .threads(threads)
                .analyze(&m)
        });
    }
    let sup = q.supervision;
    println!("    [{harsh}permille panics, retries off]");
    println!("      completed in {t2:>6.1} ms with no abort; survived faults: {sup}");
    println!(
        "      quarantined procedures: {} (each pinned to the sound top summary)",
        q.quarantined_count()
    );
    // Quarantined procedures must report exactly ⊤ — never a stale or
    // partial iterate from the crashed attempt.
    for r in &q {
        if r.quarantined {
            assert!(
                r.summary.entry.is_empty() && r.summary.exit.as_ref().is_some_and(|c| c.is_empty()),
                "quarantined `{}` must report the top summary, got `{}`",
                r.name,
                r.summary
            );
        }
    }
    assert!(q.quarantined_count() > 0, "the harsh rate must quarantine");
    assert_eq!(
        sup.quarantined as usize,
        q.quarantined_count(),
        "supervision counter and per-procedure reports must agree"
    );
    check_deterministic(&q, &|| {
        chaos_driver(harsh).max_retries(0).threads(1).analyze(&m)
    });
    println!("  chaos drill OK");
}

/// `a ⊑ b` on exit constraints under a polyhedra domain (None = ⊥).
fn poly_exit_le(d: &Polyhedra, a: &Summary, b: &Summary) -> bool {
    match (&a.exit, &b.exit) {
        (None, _) => true,
        (Some(ca), None) => d.is_bottom(&d.from_conj(ca)),
        (Some(ca), Some(cb)) => d.le(&d.from_conj(ca), &d.from_conj(cb)),
    }
}

/// `--budget-policy`: the adaptive-budget drill (see the module docs).
fn budget_policy_drill(threads: usize, seed: u64) {
    println!("  budget-policy drill: size-proportional slices + narrowing recovery");
    let smalls = 6usize;
    let m = mixed_module(smalls);
    let poly_driver = || Driver::new(|_: &Budget| Polyhedra::new());

    // Calibrate the pool from what the procedures actually cost: the
    // proportional big-share just covers the big procedure, so the
    // equal share provably starves it.
    let calibrated = PolicyFuel::calibrate(&m);
    assert!(
        calibrated.flat_starves_big(),
        "calibration: the flat share must starve the big procedure"
    );
    let fuel = calibrated.pool;

    let flat = poly_driver()
        .threads(threads)
        .with_budget(Budget::fuel(fuel))
        .analyze(&m);
    let adaptive = poly_driver()
        .threads(threads)
        .with_budget(Budget::fuel(fuel))
        .budget_policy(BudgetPolicy::adaptive())
        .analyze(&m);
    println!(
        "    fuel {fuel}: flat verified {}/{} (exhausted: {}), adaptive verified {}/{}",
        flat.verified_count(),
        smalls + 2,
        flat.degradation.exhausted,
        adaptive.verified_count(),
        smalls + 2,
    );

    // Per procedure, adaptive ⊑ flat — strictly better on `big`, whose
    // loop the flat share cut short and whose widened bound the
    // narrowing pass then recovered.
    let d = Polyhedra::new();
    for (a, f) in adaptive.reports.iter().zip(flat.reports.iter()) {
        assert_eq!(a.name, f.name);
        assert!(
            poly_exit_le(&d, &a.summary, &f.summary),
            "adaptive summary of `{}` must be at least as precise as flat",
            a.name
        );
    }
    let a_big = &adaptive.report("big").expect("big").summary;
    let f_big = &flat.report("big").expect("big").summary;
    assert!(
        !poly_exit_le(&d, f_big, a_big),
        "adaptive must be strictly more precise on the starved procedure"
    );
    assert!(
        adaptive.verified_count() > flat.verified_count(),
        "adaptive must verify strictly more assertions on this workload"
    );
    println!("    precision: adaptive \u{2291} flat per procedure, strict on `big`");

    // The same drill under an injected-fault domain: the batch must
    // complete with no abort and be bit-identical across thread counts.
    let chaos_adaptive = |rate: u32, t: usize| {
        Driver::new(move |b: &Budget| {
            ChaosDomain::new(Polyhedra::new(), seed)
                .with_config(ChaosConfig {
                    panic_permille: rate,
                    ..ChaosConfig::quiet()
                })
                .with_budget(b.clone())
        })
        .threads(t)
        .with_budget(Budget::fuel(fuel))
        .budget_policy(BudgetPolicy::adaptive())
        .analyze(&m)
    };
    let mut rate = 2u32;
    let mut faulted = chaos_adaptive(rate, threads);
    while faulted.supervision.panics_caught == 0 && rate < 1000 {
        rate = (rate * 2).min(1000);
        faulted = chaos_adaptive(rate, threads);
    }
    println!(
        "    chaos ({rate}permille panics): no abort; survived faults: {}",
        faulted.supervision
    );
    assert!(
        faulted.supervision.panics_caught > 0,
        "the chaos leg must actually inject faults (seed {seed})"
    );
    let identical = run_fingerprint(&faulted) == run_fingerprint(&chaos_adaptive(rate, 1));
    println!(
        "    determinism (1 vs {threads} threads): {}",
        if identical { "identical" } else { "MISMATCH" }
    );
    assert!(identical, "adaptive chaos run must be schedule-independent");
    println!("  budget-policy drill OK");
}

/// `--blame` / `--blame-out FILE`: prints the blame legs (see the module
/// docs) and optionally writes their JSON export.
fn blame_report(threads: usize, seed: u64, out: Option<&str>) {
    println!("  blame legs: precision provenance + differential attribution");
    let rates = ChaosRates::calibrate(seed);
    println!(
        "    chaos rates: {}permille panics, {}permille defective alternates",
        rates.panic, rates.broken_alternate
    );
    let legs = BlameLegs::run(rates, threads);
    println!("    loss kinds covered: {}", legs.kinds().join(", "));
    println!("    flat-policy blame table (top 5):");
    for (i, e) in legs
        .flat
        .degradation
        .blame
        .entries()
        .iter()
        .take(5)
        .enumerate()
    {
        println!("      #{} {e}", i + 1);
    }
    print!("{}", indent(&legs.differential().to_string(), "    "));
    if let Some(path) = out {
        write_blame_out(path, &legs.to_json());
    }
}

/// Prefixes every non-empty line of `s` (for nesting a report's Display).
fn indent(s: &str, pad: &str) -> String {
    s.lines()
        .map(|l| {
            if l.is_empty() {
                String::from("\n")
            } else {
                format!("{pad}{l}\n")
            }
        })
        .collect()
}

fn main() {
    let mut args = Args::parse();
    let smoke = args.flag("--smoke");
    let ctx_stats = args.flag("--ctx-stats");
    let chaos = args.flag("--chaos");
    let budget_policy = args.flag("--budget-policy");
    let blame = args.flag("--blame");
    let blame_out = args.opt_str("--blame-out");
    let obs_report = args.flag("--obs-report");
    let trace_out = args.opt_str("--trace-out");
    if trace_out.is_some() {
        cai_obs::trace::set_enabled(true);
    }
    let procs = args.value_or("--procs", if smoke { 32usize } else { 64 });
    let threads = args.value_or("--threads", 4usize);
    let chaos_seed = args.value_or("--chaos-seed", 7u64);
    let chaos_panic = args.value_or("--chaos-panic", 2u32);
    let reps = if smoke { 1 } else { 3 };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("driver_eval: {procs} independent procedures, {threads} threads, {cpus} CPU(s)");
    let m = batch_module(procs, 0);
    let join_stats = JoinStats::new();

    // --- parallel speedup -------------------------------------------------
    let best = |t: usize| {
        (0..reps)
            .map(|_| time_ms(|| product_driver_with(&join_stats).threads(t).analyze(&m)).0)
            .fold(f64::INFINITY, f64::min)
    };
    let t_seq = best(1);
    let t_par = best(threads);
    let speedup = t_seq / t_par;
    println!("  1 thread : {t_seq:>8.1} ms");
    println!("  {threads} threads: {t_par:>8.1} ms   (speedup {speedup:.2}x)");

    // Determinism check rides along: the parallel schedule must produce
    // bit-identical summaries and verdicts.
    let seq = product_driver_with(&join_stats).threads(1).analyze(&m);
    let par = product_driver_with(&join_stats)
        .threads(threads)
        .analyze(&m);
    let identical = seq.reports.iter().zip(par.reports.iter()).all(|(a, b)| {
        a.summary == b.summary
            && a.summary.to_string() == b.summary.to_string()
            && a.assertions.iter().map(|o| o.verified).collect::<Vec<_>>()
                == b.assertions.iter().map(|o| o.verified).collect::<Vec<_>>()
    });
    println!(
        "  determinism (1 vs {threads} threads): {}",
        if identical { "identical" } else { "MISMATCH" }
    );

    // --- warm-cache incremental re-analysis -------------------------------
    let driver = product_driver_with(&join_stats).threads(threads);
    let mut cache = SummaryCache::new();
    let (t_cold, cold) = time_ms(|| driver.analyze_with_cache(&m, &mut cache));
    let (t_warm, warm) = time_ms(|| driver.analyze_with_cache(&m, &mut cache));
    println!(
        "  cold cache: {t_cold:>8.1} ms   {{reused: {}, recomputed: {}}}",
        cold.reused, cold.recomputed
    );
    println!(
        "  warm cache: {t_warm:>8.1} ms   {{reused: {}, recomputed: {}}}   (speedup {:.1}x)",
        warm.reused,
        warm.recomputed,
        t_cold / t_warm.max(1e-6)
    );

    // Edit one procedure: only its dirty cone (here, itself) recomputes.
    let edited = batch_module(procs, 1);
    let (t_edit, inc) = time_ms(|| driver.analyze_with_cache(&edited, &mut cache));
    println!(
        "  edit one procedure: {t_edit:>8.1} ms   {{reused: {}, recomputed: {}}}",
        inc.reused, inc.recomputed
    );

    // --- context sensitivity ---------------------------------------------
    if ctx_stats {
        let callers = 4;
        let cm = ctx_module(callers);
        let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
        let mut cache = SummaryCache::new();
        let (t_sens, sens) = time_ms(|| {
            product_driver()
                .threads(threads)
                .analyze_with_cache(&cm, &mut cache)
        });
        let (t_insens, insens) = time_ms(|| product_driver().context_cap(0).analyze(&cm));

        // Hard guarantee: context-sensitive exit facts are ⊑ the
        // insensitive ones on every procedure, strictly below on the
        // reassigned-formal benchmark.
        let mut strictly_better = 0usize;
        for (s, i) in sens.iter().zip(&insens) {
            assert_eq!(s.name, i.name);
            assert!(
                exit_le(&d, &s.summary, &i.summary),
                "context-sensitive summary of `{}` must be at least as precise",
                s.name
            );
            if !exit_le(&d, &i.summary, &s.summary) {
                strictly_better += 1;
            }
        }
        println!("  ctx benchmark ({callers} constant-argument callers of a reassigning callee):");
        println!(
            "    sensitive  : {t_sens:>6.1} ms   verified {}/{}   strictly more precise on {} proc(s)",
            sens.verified_count(),
            callers,
            strictly_better
        );
        println!(
            "    insensitive: {t_insens:>6.1} ms   verified {}/{}",
            insens.verified_count(),
            callers
        );
        println!("    ctx stats  : {}", sens.ctx);
        println!(
            "    cache stats: {} contexts={}",
            cache.stats(),
            cache.context_count()
        );
        // Determinism of the context-sensitive schedule across thread
        // counts rides along.
        let s1 = product_driver().threads(1).analyze(&cm);
        let s4 = product_driver().threads(4).analyze(&cm);
        let ctx_identical = s1
            .iter()
            .zip(&s4)
            .all(|(a, b)| a.summary == b.summary && a.summary.to_string() == b.summary.to_string());
        println!(
            "    determinism (1 vs 4 threads): {}",
            if ctx_identical {
                "identical"
            } else {
                "MISMATCH"
            }
        );
        assert!(
            ctx_identical,
            "context-sensitive schedule must be deterministic"
        );
        assert!(
            strictly_better > 0,
            "entry-keyed summaries must be strictly more precise on the ctx benchmark"
        );
        assert!(
            sens.verified_count() > insens.verified_count(),
            "context sensitivity must verify more assertions on the ctx benchmark"
        );
    }

    // --- supervised fault drill ------------------------------------------
    if chaos {
        chaos_drill(procs, threads, chaos_seed, chaos_panic);
    }

    // --- adaptive budget policy + narrowing recovery ----------------------
    if budget_policy {
        budget_policy_drill(threads, chaos_seed);
    }

    // --- precision provenance + differential attribution ------------------
    if blame || blame_out.is_some() {
        blame_report(threads, chaos_seed, blame_out.as_deref());
    }

    if smoke {
        assert!(identical, "parallel schedule must be deterministic");
        if cpus >= threads {
            assert!(
                speedup >= 1.5,
                "expected >=1.5x speedup with {threads} threads on {cpus} CPUs, got {speedup:.2}x"
            );
        } else {
            println!("  (only {cpus} CPU(s) — wall-clock speedup not measurable here)");
        }
        assert_eq!(warm.recomputed, 0, "warm cache must reuse everything");
        assert_eq!(warm.reused, procs);
        assert_eq!(
            (inc.reused, inc.recomputed),
            (procs - 1, 1),
            "a one-procedure edit must recompute exactly that procedure"
        );
        println!("driver_eval smoke OK");
    }

    // --- observability exports (report + trace last, so they see it all) --
    if obs_report {
        // Register the event-log drop counter so a clean run reports it
        // as an explicit zero rather than omitting the line.
        cai_obs::counter!("core/budget/events-dropped");
        let mut snap = cai_obs::global().snapshot();
        join_stats.export_into(&mut snap, "core/join");
        println!("\nobs report:");
        println!("{snap}");
    }
    if let Some(path) = trace_out {
        write_trace_out(&path);
    }
}
