//! The observability determinism contract (see DESIGN.md): turning the
//! tracer on, or varying the driver's thread count, must never change an
//! analysis result — observation is read-only. Plus what the trace export
//! relies on: a drain right after a parallel run holds every worker's
//! spans, the Chrome JSON has one record per event, and the ring drops
//! its oldest events on overflow.

use cai_core::{Budget, ChaosConfig, ChaosDomain, LogicalProduct};
use cai_driver::{Driver, ModuleAnalysis};
use cai_interp::{parse_module, Module};
use cai_linarith::AffineEq;
use cai_obs::trace::{self, EventKind, Trace};
use cai_term::parse::Vocab;
use cai_uf::UfDomain;
use std::sync::Mutex;

/// Serializes the tests that toggle global tracer state (enabled flag,
/// ring capacity); the cargo test harness runs tests concurrently.
static TRACER_LOCK: Mutex<()> = Mutex::new(());

type Product = LogicalProduct<AffineEq, UfDomain>;

fn product_driver() -> Driver<Product, impl Fn(&Budget) -> Product + Sync> {
    Driver::new(|_: &Budget| LogicalProduct::new(AffineEq::new(), UfDomain::new()))
}

fn chaos_driver(
    seed: u64,
    rate: u32,
) -> Driver<ChaosDomain<Product>, impl Fn(&Budget) -> ChaosDomain<Product> + Sync> {
    Driver::new(move |b: &Budget| {
        ChaosDomain::new(LogicalProduct::new(AffineEq::new(), UfDomain::new()), seed)
            .with_config(ChaosConfig {
                panic_permille: rate,
                ..ChaosConfig::quiet()
            })
            .with_budget(b.clone())
    })
}

fn test_module(n: usize) -> Module {
    let mut src = String::new();
    for i in 0..n {
        let k = i % 5;
        src.push_str(&format!(
            "proc p{i}(a) {{
                 x := a + {k};
                 y := F(x);
                 while (*) {{ x := x + 1; y := F(x); }}
                 assert(y = F(x));
                 ret := x;
             }}\n"
        ));
    }
    parse_module(&Vocab::standard(), &src).expect("generated module parses")
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

/// Checks the trace drained right after one traced run of `m`: a span
/// for every procedure, whichever worker analyzed it, and a Chrome export
/// with one `ph` record per event.
fn check_drained_trace(t: &Trace, m: &Module, threads: usize) {
    assert!(!t.is_empty(), "the traced run must have recorded events");
    for p in &m.procs {
        let name = format!("analyze/{}", p.name);
        assert!(
            t.events
                .iter()
                .any(|e| e.kind == EventKind::Span && e.name == name),
            "the drain after a {threads}-thread run is missing the `{name}` span"
        );
    }
    let json = t.to_chrome_json();
    assert!(
        json.starts_with("[{") && json.ends_with("}]"),
        "the Chrome export must be an array of event objects"
    );
    let count = |kind: EventKind| t.events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(json.matches(r#""ph":"X""#).count(), count(EventKind::Span));
    assert_eq!(
        json.matches(r#""ph":"i""#).count(),
        count(EventKind::Instant)
    );
}

/// The core contract: the tracer is observation-only. Analysis results
/// are bit-identical with it off and on, at every thread count. Each
/// traced run is drained at once and must be complete; the 4-thread run
/// repeats, because a worker whose events arrive late shows up only in
/// some runs.
#[test]
fn tracer_on_off_is_bit_identical_across_thread_counts() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let m = test_module(8);

    trace::set_enabled(false);
    let baseline = fingerprint(&product_driver().threads(1).analyze(&m));

    trace::set_enabled(true);
    for threads in [1, 2].into_iter().chain([4; 20]) {
        let traced = fingerprint(&product_driver().threads(threads).analyze(&m));
        let recorded = trace::drain();
        assert_eq!(
            baseline, traced,
            "tracer-on run at {threads} thread(s) diverged from the untraced baseline"
        );
        check_drained_trace(&recorded, &m, threads);
    }
    trace::set_enabled(false);
}

/// Same contract under injected faults: a chaos run (caught panics,
/// retries, quarantines) is bit-identical with the tracer off and on.
#[test]
fn tracer_is_inert_under_chaos() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let m = test_module(8);
    let (seed, rate) = (7, 500);

    trace::set_enabled(false);
    let baseline = fingerprint(&chaos_driver(seed, rate).threads(1).analyze(&m));
    assert!(
        baseline.contains("Panic") || baseline.contains("quarantined=true"),
        "the chaos rate must actually inject faults for this to test anything"
    );

    trace::set_enabled(true);
    for threads in [1, 2] {
        let traced = fingerprint(&chaos_driver(seed, rate).threads(threads).analyze(&m));
        assert_eq!(
            baseline, traced,
            "traced chaos run at {threads} thread(s) diverged from the untraced baseline"
        );
    }
    trace::drain();
    trace::set_enabled(false);
}

/// The per-thread ring drops the *oldest* events on overflow: after
/// recording more instants than the capacity, the drained trace holds
/// exactly the newest ones and reports the rest as dropped.
#[test]
fn ring_wraparound_keeps_newest_events() {
    let _guard = TRACER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::drain();
    trace::set_ring_capacity(8);
    trace::set_enabled(true);
    // A fresh thread gets a fresh ring at the reduced capacity.
    std::thread::spawn(|| {
        for i in 0..50 {
            cai_obs::instant!("event-{i}");
        }
    })
    .join()
    .expect("recorder thread");
    let t = trace::drain();
    trace::set_enabled(false);
    trace::set_ring_capacity(trace::DEFAULT_RING_CAPACITY);

    assert_eq!(t.events.len(), 8, "the ring holds exactly its capacity");
    assert_eq!(t.dropped, 42, "the overwritten events are accounted for");
    let names: Vec<&str> = t.events.iter().map(|e| e.name.as_str()).collect();
    let newest: Vec<String> = (42..50).map(|i| format!("event-{i}")).collect();
    assert_eq!(names, newest, "wraparound keeps the newest events");
}
