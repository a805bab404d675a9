//! The observability determinism contract (see DESIGN.md): tracing a
//! run, or varying the driver's thread count, must never change an
//! analysis result — observation is read-only. Plus what the trace export
//! relies on: a traced run's report holds its own spans, whichever worker
//! recorded them, and only those; the Chrome JSON has one record per
//! span; and the span log is bounded. Spans live on the run's budget, so
//! these tests share no state and run without a lock.

use cai_core::{Budget, ChaosConfig, ChaosDomain, DegradationReport, LogicalProduct};
use cai_driver::{Driver, ModuleAnalysis};
use cai_interp::{parse_module, Module};
use cai_linarith::AffineEq;
use cai_obs::trace::MAX_SPANS;
use cai_term::parse::Vocab;
use cai_uf::UfDomain;
use std::collections::BTreeSet;
use std::sync::Barrier;

type Product = LogicalProduct<AffineEq, UfDomain>;

/// A fresh unlimited batch budget, traced when `tracing` is set.
fn batch_budget(tracing: bool) -> Budget {
    let b = Budget::unlimited();
    b.set_tracing(tracing);
    b
}

/// The logical-product driver. Each job's product draws on the job's
/// budget, so its join-phase spans (and its fuel and events) reach the
/// run's report.
fn product_driver(tracing: bool) -> Driver<Product, impl Fn(&Budget) -> Product + Sync> {
    Driver::new(|b: &Budget| {
        LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(b.clone())
    })
    .with_budget(batch_budget(tracing))
}

fn chaos_driver(
    seed: u64,
    rate: u32,
    tracing: bool,
) -> Driver<ChaosDomain<Product>, impl Fn(&Budget) -> ChaosDomain<Product> + Sync> {
    Driver::new(move |b: &Budget| {
        let product = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(b.clone());
        ChaosDomain::new(product, seed)
            .with_config(ChaosConfig {
                panic_permille: rate,
                ..ChaosConfig::quiet()
            })
            .with_budget(b.clone())
    })
    .with_budget(batch_budget(tracing))
}

/// `n` independent procedures named `{prefix}0` … `{prefix}{n-1}`, each
/// with one loop.
fn module_src(prefix: &str, n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        let k = i % 5;
        src.push_str(&format!(
            "proc {prefix}{i}(a) {{
                 x := a + {k};
                 y := F(x);
                 while (*) {{ x := x + 1; y := F(x); }}
                 assert(y = F(x));
                 ret := x;
             }}\n"
        ));
    }
    src
}

fn test_module(prefix: &str, n: usize) -> Module {
    parse_module(&Vocab::standard(), &module_src(prefix, n)).expect("generated module parses")
}

/// Every observable fact of a run, as one comparable string: summaries
/// (including their rendering), verdicts, flags, supervision and context
/// counters, and the event log.
fn fingerprint(a: &ModuleAnalysis) -> String {
    let mut s = String::new();
    for r in a {
        let verdicts: Vec<bool> = r.assertions.iter().map(|o| o.verified).collect();
        s.push_str(&format!(
            "{} | {} | {verdicts:?} | diverged={} quarantined={}\n",
            r.name, r.summary, r.diverged, r.quarantined
        ));
    }
    s.push_str(&format!("sup={:?} ctx={:?}\n", a.supervision, a.ctx));
    for e in &a.degradation.events {
        s.push_str(&format!("{e}\n"));
    }
    s
}

/// The procedures a report holds an `analyze/<proc>` span for.
fn analyzed(report: &DegradationReport) -> BTreeSet<String> {
    report
        .trace
        .spans
        .iter()
        .filter_map(|s| s.name.strip_prefix("analyze/"))
        .map(String::from)
        .collect()
}

/// Checks one traced run's own report: an `analyze/<proc>` span for every
/// procedure, whichever worker analyzed it, nothing dropped, and a Chrome
/// export with one `"ph":"X"` record per span.
fn check_trace(report: &DegradationReport, m: &Module, threads: usize) {
    let procs: BTreeSet<String> = m.procs.iter().map(|p| p.name.clone()).collect();
    assert_eq!(
        analyzed(report),
        procs,
        "the {threads}-thread run's report must hold an analyze/ span for every procedure"
    );
    assert_eq!(report.trace.dropped, 0);
    let json = report.trace.to_chrome_json();
    assert!(
        json.starts_with("[{") && json.ends_with("}]"),
        "the Chrome export must be an array of span objects"
    );
    assert_eq!(
        json.matches(r#""ph":"X""#).count(),
        report.trace.spans.len()
    );
}

/// The core contract: tracing is observation-only. Analysis results are
/// bit-identical with it off and on, at every thread count, and each
/// traced run's report is complete; the 4-thread run repeats, because a
/// worker whose spans went missing would show up only in some runs.
#[test]
fn tracer_on_off_is_bit_identical_across_thread_counts() {
    let m = test_module("p", 8);
    let untraced = product_driver(false).threads(1).analyze(&m);
    assert!(untraced.degradation.trace.spans.is_empty());
    let baseline = fingerprint(&untraced);

    for threads in [1, 2].into_iter().chain([4; 20]) {
        let traced = product_driver(true).threads(threads).analyze(&m);
        assert_eq!(
            baseline,
            fingerprint(&traced),
            "traced run at {threads} thread(s) diverged from the untraced baseline"
        );
        check_trace(&traced.degradation, &m, threads);
    }
}

/// Same contract under injected faults: a chaos run (caught panics,
/// retries, quarantines) is bit-identical with tracing off and on.
#[test]
fn tracer_is_inert_under_chaos() {
    let m = test_module("p", 8);
    let (seed, rate) = (7, 500);

    let baseline = fingerprint(&chaos_driver(seed, rate, false).threads(1).analyze(&m));
    assert!(
        baseline.contains("Panic") || baseline.contains("quarantined=true"),
        "the chaos rate must actually inject faults for this to test anything"
    );
    for threads in [1, 2] {
        let traced = chaos_driver(seed, rate, true).threads(threads).analyze(&m);
        assert_eq!(
            baseline,
            fingerprint(&traced),
            "traced chaos run at {threads} thread(s) diverged from the untraced baseline"
        );
        assert!(!traced.degradation.trace.spans.is_empty());
    }
}

/// Two traced runs over different modules, started together on two
/// threads of one process, each report only their own procedures' spans.
#[test]
fn concurrent_runs_report_only_their_own_spans() {
    let (ma, mb) = (test_module("a", 6), test_module("b", 6));
    let start = Barrier::new(2);
    let run = |m: &Module| {
        start.wait();
        product_driver(true).threads(2).analyze(m)
    };
    let (ra, rb) = std::thread::scope(|s| {
        let ha = s.spawn(|| run(&ma));
        let hb = s.spawn(|| run(&mb));
        (
            ha.join().expect("run over module a"),
            hb.join().expect("run over module b"),
        )
    });
    check_trace(&ra.degradation, &ma, 2);
    check_trace(&rb.degradation, &mb, 2);
}

/// A run's spans are a function of its work, not of its schedule: over
/// eight procedures plus a caller (whose calls are resolved context-
/// sensitively), the sorted span names are identical at 1, 2 and 4
/// threads, and they include the product's join phases.
#[test]
fn span_names_are_identical_across_thread_counts() {
    let mut src = module_src("p", 8);
    src.push_str(
        "proc main(a) {
             x := call p0(a);
             y := call p3(x);
             z := call p7(y);
             assert(z = z);
             ret := z;
         }\n",
    );
    let m = parse_module(&Vocab::standard(), &src).expect("module with a caller parses");
    let names = |threads: usize| {
        let r = product_driver(true).threads(threads).analyze(&m);
        let mut names: Vec<String> = r
            .degradation
            .trace
            .spans
            .iter()
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        names
    };
    let one = names(1);
    assert!(one.iter().any(|n| n == "analyze/main"));
    assert!(one.iter().any(|n| n.starts_with("join/")));
    for threads in [2, 4] {
        assert_eq!(
            one,
            names(threads),
            "span names differ at {threads} threads"
        );
    }
}

/// The span log is bounded: past its cap it keeps the newest spans and
/// counts the evicted ones, and merging reports obeys the same cap.
#[test]
fn span_log_keeps_the_newest_spans_and_counts_the_rest() {
    let b = batch_budget(true);
    for i in 0..MAX_SPANS + 5 {
        let _span = b.span(|| format!("test/{i}"));
    }
    let r = b.report();
    assert_eq!(r.trace.spans.len(), MAX_SPANS);
    assert_eq!(r.trace.dropped, 5);
    assert_eq!(
        r.trace.spans.front().map(|s| s.name.as_str()),
        Some("test/5")
    );
    let mut merged = DegradationReport::default();
    merged.merge(&r);
    merged.merge(&r);
    assert_eq!(merged.trace.spans.len(), MAX_SPANS);
    assert_eq!(merged.trace.dropped, 5 + MAX_SPANS + 5);
}
