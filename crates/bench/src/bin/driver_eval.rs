//! Benchmarks the interprocedural driver (`cai-driver`): parallel
//! speedup over independent procedures and warm-cache incremental
//! re-analysis.
//!
//! ```sh
//! cargo run --release -p cai-bench --bin driver_eval                    # defaults
//! cargo run --release -p cai-bench --bin driver_eval -- --procs 64 --threads 8
//! cargo run --release -p cai-bench --bin driver_eval -- --smoke         # quick CI check
//! cargo run --release -p cai-bench --bin driver_eval -- --obs-report    # the runs' own counters
//! cargo run --release -p cai-bench --bin driver_eval -- --trace-out prof.json  # Chrome trace
//! cargo run --release -p cai-bench --bin driver_eval -- --blame        # provenance report
//! cargo run --release -p cai-bench --bin driver_eval -- --blame-out blame.json # + JSON export
//! ```
//!
//! `--obs-report` prints what the runs counted: the one-procedure edit
//! run's degradation report (fuel, stored events, `dropped_events`), its
//! context and supervision counters, the summary cache's counters, and
//! the join stats every product of the binary shares. `--trace-out FILE`
//! enables the span tracer and writes a Chrome `trace_event` JSON profile
//! loadable in `chrome://tracing` or Perfetto. Neither changes any
//! analysis result.
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
    batch_module, Args,
};
use cai_core::{Budget, JoinStats, LogicalProduct};
use cai_driver::{Driver, ModuleAnalysis, SummaryCache};
use cai_linarith::AffineEq;
use cai_uf::UfDomain;
use std::time::Instant;

type Product = LogicalProduct<AffineEq, UfDomain>;

/// The logical-product driver; every job's product shares `stats`, so
/// the `--obs-report` join line aggregates every run of the binary.
fn product_driver_with(stats: &JoinStats) -> Driver<Product, impl Fn(&Budget) -> Product + Sync> {
    let stats = stats.clone();
    Driver::new(move |_: &Budget| {
        LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_stats(stats.clone())
    })
}

fn time_ms(mut f: impl FnMut() -> ModuleAnalysis) -> (f64, ModuleAnalysis) {
    let t = Instant::now();
    let a = f();
    (t.elapsed().as_secs_f64() * 1e3, a)
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
        // `dropped_events` prints even at zero, so silent event loss is
        // ruled out by inspection.
        let d = &inc.degradation;
        println!("\nobs report (edit run):");
        println!(
            "  fuel_spent={} degraded={} exhausted={}",
            d.fuel_spent, d.degraded, d.exhausted
        );
        println!(
            "  events stored={} dropped_events={}",
            d.events.len(),
            d.dropped_events
        );
        for ev in &d.events {
            println!("    {ev}");
        }
        println!("  ctx: {:?}", inc.ctx);
        println!("  supervision: {:?}", inc.supervision);
        println!(
            "  summary cache (cold, warm, edit): reused={} recomputed={} len={}",
            cold.reused + warm.reused + inc.reused,
            cold.recomputed + warm.recomputed + inc.recomputed,
            cache.len()
        );
        println!("  join (all runs): {}", join_stats.snapshot());
    }
    if let Some(path) = trace_out {
        write_trace_out(&path);
    }
}
