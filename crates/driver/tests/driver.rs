//! Integration tests of the interprocedural driver: summary precision,
//! recursive fixpoints, parallel determinism, and incremental reuse.

use cai_core::Budget;
use cai_driver::{Driver, ModuleAnalysis, SummaryCache};
use cai_interp::{parse_module, Module};
use cai_linarith::AffineEq;
use cai_term::parse::Vocab;
use std::sync::mpsc;
use std::time::Duration;

fn module(src: &str) -> Module {
    parse_module(&Vocab::standard(), src).expect("module parses")
}

fn affine() -> Driver<AffineEq, impl Fn(&Budget) -> AffineEq + Sync> {
    Driver::new(|_| AffineEq::new())
}

fn verdicts(a: &ModuleAnalysis, name: &str) -> Vec<bool> {
    a.report(name)
        .expect("report exists")
        .assertions
        .iter()
        .map(|o| o.verified)
        .collect()
}

#[test]
fn summaries_flow_through_call_chains() {
    let m = module(
        "proc inc(a) { ret := a + 1; }
         proc twice(b) { x := call inc(b); y := call inc(x); ret := y; }
         proc main(n) {
             r := call twice(n);
             assert(r = n + 2);
             assert(r = n);
         }",
    );
    let a = affine().analyze(&m);
    assert_eq!(verdicts(&a, "main"), [true, false]);
    assert_eq!(a.recomputed, 3);
    assert_eq!(a.reused, 0);
    let inc = &a.report("inc").expect("inc analyzed").summary;
    // AffineEq's canonical presentation of ret = a + 1.
    assert_eq!(inc.to_string(), "a = ret - 1");
}

#[test]
fn arguments_may_mention_the_destination() {
    // `x := call inc(x)` — the argument refers to x's pre-state.
    let m = module(
        "proc inc(a) { ret := a + 1; }
         proc main(n) {
             x := n;
             x := call inc(x);
             x := call inc(x);
             assert(x = n + 2);
         }",
    );
    assert_eq!(verdicts(&affine().analyze(&m), "main"), [true]);
}

#[test]
fn mutated_params_do_not_pollute_summaries() {
    // `a` is reassigned inside the body, so the exit fact `ret = a`
    // holds of the *new* a, not the argument; the summary must not claim
    // `ret = arg`.
    let m = module(
        "proc bump(a) { a := a + 1; ret := a; }
         proc main(n) {
             r := call bump(n);
             assert(r = n);
         }",
    );
    let a = affine().analyze(&m);
    assert_eq!(verdicts(&a, "main"), [false]);
}

#[test]
fn unknown_callees_havoc_the_destination() {
    let m = module(
        "proc main(n) {
             x := n;
             x := call mystery(x);
             assert(x = n);
         }",
    );
    assert_eq!(verdicts(&affine().analyze(&m), "main"), [false]);
}

#[test]
fn self_recursion_reaches_a_nontrivial_fixpoint() {
    // id either returns its argument directly or through another
    // recursive call: the summary fixpoint stabilizes at `ret = n`.
    let m = module(
        "proc id(n) {
             if (*) { ret := n; } else { t := call id(n); ret := t; }
         }
         proc main(k) {
             v := call id(k);
             assert(v = k);
         }",
    );
    let a = affine().analyze(&m);
    assert_eq!(verdicts(&a, "main"), [true]);
    let id = a.report("id").expect("id analyzed");
    assert!(!id.diverged, "the summary fixpoint converged");
    assert_eq!(id.summary.to_string(), "n = ret");
}

#[test]
fn recursion_with_growing_result_stays_sound() {
    // Each unfolding adds 1, so no affine equality survives the join;
    // the summary must weaken to ⊤ rather than keep a wrong equality.
    let m = module(
        "proc up(n) {
             if (*) { ret := 0; } else { t := call up(n); ret := t + 1; }
         }
         proc main(k) {
             v := call up(k);
             assert(v = 0);
         }",
    );
    let a = affine().analyze(&m);
    assert_eq!(verdicts(&a, "main"), [false]);
    assert_eq!(
        a.report("up").expect("up analyzed").summary.to_string(),
        "true"
    );
}

#[test]
fn mutual_recursion_stabilizes_jointly() {
    // pos returns n (directly, or by negating neg's negation); the two
    // summaries must stabilize together: pos: ret = n, neg: ret = -n.
    let m = module(
        "proc pos(n) {
             if (*) { ret := n; } else { t := call neg(n); ret := 0 - t; }
         }
         proc neg(n) { t := call pos(n); ret := 0 - t; }
         proc main(k) {
             a := call neg(k);
             assert(a = 0 - k);
             b := call pos(k);
             assert(b = k);
         }",
    );
    let a = affine().analyze(&m);
    assert_eq!(verdicts(&a, "main"), [true, true]);
    assert!(!a.report("pos").expect("pos").diverged);
    assert!(!a.report("neg").expect("neg").diverged);
}

/// A diamond over distinct leaves, wide enough to give the scheduler
/// real interleaving freedom.
fn diamond_module() -> Module {
    module(&diamond_src())
}

fn diamond_src() -> String {
    let mut src = String::new();
    for i in 0..8 {
        src.push_str(&format!("proc leaf{i}(a) {{ ret := a + {i}; }}\n"));
    }
    for i in 0..8 {
        src.push_str(&format!(
            "proc mid{i}(b) {{ x := call leaf{i}(b); y := call leaf{}(x); ret := y; }}\n",
            (i + 1) % 8
        ));
    }
    src.push_str(
        "proc top(n) {
             u := call mid0(n);
             v := call mid3(u);
             assert(v = n + 8);
             ret := v;
         }",
    );
    src
}

/// A 6-deep call chain whose top also calls every link (a fan-in): at
/// most one component is ready at a time, so extra workers only wait.
fn chain_module() -> Module {
    let mut src = String::from("proc c0(a) { ret := a + 1; }\n");
    for i in 1..6 {
        src.push_str(&format!(
            "proc c{i}(a) {{ x := call c{}(a); ret := x + 1; }}\n",
            i - 1
        ));
    }
    src.push_str("proc top(n) {");
    for i in 0..6 {
        src.push_str(&format!(" x{i} := call c{i}(n);"));
    }
    src.push_str(" assert(x5 = n + 6); assert(x0 = x5); ret := x5; }");
    module(&src)
}

/// Runs `batch` on a spawned thread and fails, instead of hanging, if it
/// has not returned within 60 s: a lost wake-up in the scheduler shows as
/// a timeout, not as a wrong answer.
fn within_a_minute(batch: impl FnOnce() -> ModuleAnalysis + Send + 'static) -> ModuleAnalysis {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(batch());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the batch finished within 60 s")
}

/// Asserts two runs of one batch agree on every summary, verdict,
/// divergence flag, reuse count, fuel figure and event.
fn assert_identical(a: &ModuleAnalysis, b: &ModuleAnalysis, what: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{what}");
    for (x, y) in a.reports.iter().zip(b.reports.iter()) {
        assert_eq!(x.name, y.name, "{what}: same order");
        assert_eq!(x.summary, y.summary, "{what}: summary of {}", x.name);
        assert_eq!(
            x.summary.to_string(),
            y.summary.to_string(),
            "{what}: presentation of {}",
            x.name
        );
        assert_eq!(x.diverged, y.diverged, "{what}: {}", x.name);
        let vx: Vec<bool> = x.assertions.iter().map(|o| o.verified).collect();
        let vy: Vec<bool> = y.assertions.iter().map(|o| o.verified).collect();
        assert_eq!(vx, vy, "{what}: verdicts of {}", x.name);
    }
    assert_eq!((a.reused, a.recomputed), (b.reused, b.recomputed), "{what}");
    assert_eq!(a.degradation.fuel_spent, b.degradation.fuel_spent, "{what}");
    assert_eq!(a.degradation.events, b.degradation.events, "{what}");
}

#[test]
fn parallel_results_are_bit_identical_to_sequential() {
    // The diamond cold; the chain cold, where workers outnumber ready
    // jobs; and a one-procedure edit of the diamond, a one-job batch.
    let diamond = |threads: usize| {
        within_a_minute(move || affine().threads(threads).analyze(&diamond_module()))
    };
    let chain = |threads: usize| {
        within_a_minute(move || affine().threads(threads).analyze(&chain_module()))
    };
    let edit = |threads: usize| {
        within_a_minute(move || {
            let driver = affine().threads(threads);
            let mut cache = SummaryCache::new();
            driver.analyze_with_cache(&diamond_module(), &mut cache);
            let edited = module(&diamond_src().replace("ret := v;", "ret := v + 1;"));
            driver.analyze_with_cache(&edited, &mut cache)
        })
    };
    let inputs: [(&str, &dyn Fn(usize) -> ModuleAnalysis); 3] =
        [("diamond", &diamond), ("chain", &chain), ("edit", &edit)];
    let seq: Vec<ModuleAnalysis> = inputs
        .iter()
        .map(|(what, run)| {
            let seq = run(1);
            for threads in [2, 8] {
                assert_identical(&seq, &run(threads), &format!("{what} at {threads} threads"));
            }
            seq
        })
        .collect();
    assert_eq!(verdicts(&seq[0], "top"), [true]);
    assert_eq!(verdicts(&seq[1], "top"), [true, false]);
    assert_eq!((seq[2].reused, seq[2].recomputed), (16, 1));
}

#[test]
fn incremental_reanalysis_recomputes_only_the_dirty_cone() {
    let chain = |c_body: &str| {
        module(&format!(
            "proc a(x) {{ r := call b(x); ret := r; }}
             proc b(x) {{ r := call c(x); ret := r; }}
             proc c(x) {{ {c_body} }}
             proc d(x) {{ ret := x + 4; }}
             proc e(x) {{ r := call d(x); ret := r; }}"
        ))
    };
    let driver = affine();
    let mut cache = SummaryCache::new();

    let first = driver.analyze_with_cache(&chain("ret := x + 1;"), &mut cache);
    assert_eq!((first.reused, first.recomputed), (0, 5));
    assert_eq!(
        first.report("a").expect("a").summary.to_string(),
        "ret = x + 1"
    );

    // Unchanged module: everything reuses.
    let again = driver.analyze_with_cache(&chain("ret := x + 1;"), &mut cache);
    assert_eq!((again.reused, again.recomputed), (5, 0));
    assert_eq!(
        again.report("a").expect("a").summary.to_string(),
        "ret = x + 1"
    );

    // Editing c dirties exactly its caller cone {a, b, c}; the
    // independent chain {d, e} reuses.
    let edited = driver.analyze_with_cache(&chain("ret := x + 2;"), &mut cache);
    assert_eq!((edited.reused, edited.recomputed), (2, 3));
    assert_eq!(
        edited.report("a").expect("a").summary.to_string(),
        "ret = x + 2"
    );
    assert_eq!(
        edited.report("e").expect("e").summary.to_string(),
        "ret = x + 4"
    );
}

#[test]
fn incremental_reuse_is_identical_on_any_thread_count() {
    let m = diamond_module();
    let mut runs = Vec::new();
    for threads in [1, 4] {
        let mut cache = SummaryCache::new();
        let driver = affine().threads(threads);
        let first = driver.analyze_with_cache(&m, &mut cache);
        assert_eq!((first.reused, first.recomputed), (0, 17));
        assert_eq!(cache.len(), 17, "{threads} threads: every procedure cached");
        let second = driver.analyze_with_cache(&m, &mut cache);
        assert_eq!((second.reused, second.recomputed), (17, 0));
        for (a, b) in first.reports.iter().zip(second.reports.iter()) {
            assert_eq!(a.summary, b.summary);
        }
        runs.push(second);
    }
    assert_identical(&runs[0], &runs[1], "warm at 1 and 4 threads");
}

#[test]
fn exhausted_budget_degrades_soundly_across_the_batch() {
    let m = diamond_module();
    let budget = Budget::fuel(0);
    let a = affine().threads(2).with_budget(budget).analyze(&m);
    // Nothing may be *wrongly* verified: with no fuel every loop-free
    // body still runs its transfers, but any degradation is flagged.
    assert_eq!(a.reports.len(), 17);
    let clean = affine().analyze(&m);
    for (deg, cl) in a.reports.iter().zip(clean.reports.iter()) {
        for (x, y) in deg.assertions.iter().zip(cl.assertions.iter()) {
            assert!(
                !x.verified || y.verified,
                "degraded run verified something the clean run rejects in {}",
                deg.name
            );
        }
    }
}

#[test]
fn summary_cache_reports_its_size() {
    let m = module("proc f(a) { ret := a; }");
    let mut cache = SummaryCache::new();
    assert!(cache.is_empty());
    affine().analyze_with_cache(&m, &mut cache);
    assert_eq!(cache.len(), 1);
}

#[test]
fn bottom_summaries_mark_unreachable_exits() {
    let m = module(
        "proc stuck(a) { assume(0 = 1); ret := a; }
         proc main(n) {
             x := call stuck(n);
             assert(x = 12345);
         }",
    );
    let a = affine().analyze(&m);
    assert!(a.report("stuck").expect("stuck").summary.is_bottom());
    // The call never returns, so the post-state is ⊥ and everything
    // after it verifies vacuously.
    assert_eq!(verdicts(&a, "main"), [true]);
}

#[test]
fn works_with_any_domain_via_the_factory() {
    // The driver is domain-generic: run the same module under UF.
    use cai_uf::UfDomain;
    let m = module(
        "proc apply(a) { ret := F(a); }
         proc main(n) {
             x := call apply(n);
             y := call apply(n);
             assert(x = y);
         }",
    );
    let a = Driver::new(|_: &Budget| UfDomain::new()).analyze(&m);
    assert_eq!(verdicts(&a, "main"), [true]);
}

#[test]
fn domain_le_is_used_not_structural_equality() {
    // Two rounds produce syntactically different but semantically equal
    // conjunctions; the fixpoint must still terminate promptly.
    let m = module(
        "proc swap2(n) {
             if (*) { ret := n + 0; } else { t := call swap2(n); ret := t; }
         }",
    );
    let a = affine().analyze(&m);
    assert!(!a.report("swap2").expect("swap2").diverged);
}

#[test]
fn shared_split_cache_is_deterministic_across_thread_counts() {
    // A factory may close over one `SplitCache`/`JoinStats` pair so every
    // worker's logical product shares the purification memo. The cache is
    // semantically invisible, so summaries and verdicts must be identical
    // whatever the thread count or hit pattern — and a loop-heavy module
    // must actually hit it.
    use cai_core::{CacheConfig, JoinStats, LogicalProduct, SplitCache};
    use cai_uf::UfDomain;

    let m = module(
        "proc sum(n) {
             a := 0; s := 0; t := 0;
             while (*) { d := F(a); s := s + d; t := t + F(a); a := a + 1; }
             assert(s = t);
             ret := s;
         }
         proc main(n) {
             x := call sum(n);
             b := 0; u := 0; w := 0;
             while (*) { u := u + F(b); w := w + F(b); b := b + 1; }
             assert(u = w);
             ret := x;
         }",
    );

    let run = |threads: usize, cfg: &CacheConfig| {
        let cache: SplitCache<_, _> = SplitCache::with_config(cfg);
        let stats = JoinStats::new();
        let driver = Driver::new({
            let cache = cache.clone();
            let stats = stats.clone();
            move |b: &Budget| {
                LogicalProduct::new(AffineEq::new(), UfDomain::new())
                    .with_budget(b.clone())
                    .with_split_cache(cache.clone())
                    .with_stats(stats.clone())
            }
        })
        .threads(threads);
        let a = driver.analyze(&m);
        let summaries: Vec<_> = a
            .iter()
            .map(|r| (r.name.clone(), r.summary.clone(), r.summary.to_string()))
            .collect();
        (
            (summaries, verdicts(&a, "sum"), verdicts(&a, "main")),
            stats.snapshot().cache_hits,
        )
    };

    // The uncached baseline every cached run must reproduce.
    let (baseline, hits0) = run(1, &CacheConfig::disabled());
    assert_eq!(baseline.1, [true]);
    assert_eq!(baseline.2, [true]);
    assert_eq!(hits0, 0);

    for threads in [1, 2, 4] {
        let (got, hits) = run(threads, &CacheConfig::default());
        assert_eq!(
            got, baseline,
            "{threads} threads: the cache changed a result"
        );
        assert!(hits > 0, "loop-heavy module produced no cache hits");
    }
}
