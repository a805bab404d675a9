//! Integration tests of the interprocedural driver: summary precision,
//! recursive fixpoints, parallel determinism, and incremental reuse.

use cai_core::Budget;
use cai_driver::{Driver, ModuleAnalysis, SummaryCache};
use cai_interp::{parse_module, Module};
use cai_linarith::AffineEq;
use cai_term::parse::Vocab;

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
    module(&src)
}

#[test]
fn parallel_results_are_bit_identical_to_sequential() {
    let m = diamond_module();
    let seq = affine().threads(1).analyze(&m);
    let par = affine().threads(4).analyze(&m);
    assert_eq!(seq.reports.len(), par.reports.len());
    for (a, b) in seq.reports.iter().zip(par.reports.iter()) {
        assert_eq!(a.name, b.name, "same order");
        assert_eq!(a.summary, b.summary, "identical summary for {}", a.name);
        assert_eq!(
            a.summary.to_string(),
            b.summary.to_string(),
            "identical presentation for {}",
            a.name
        );
        assert_eq!(a.diverged, b.diverged);
        let va: Vec<bool> = a.assertions.iter().map(|o| o.verified).collect();
        let vb: Vec<bool> = b.assertions.iter().map(|o| o.verified).collect();
        assert_eq!(va, vb, "identical verdicts for {}", a.name);
    }
    assert_eq!(verdicts(&par, "top"), [true]);
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
    let mut cache = SummaryCache::new();
    let driver4 = affine().threads(4);
    let first = driver4.analyze_with_cache(&m, &mut cache);
    assert_eq!(first.reused, 0);
    let second = driver4.analyze_with_cache(&m, &mut cache);
    assert_eq!((second.reused, second.recomputed), (17, 0));
    for (a, b) in first.reports.iter().zip(second.reports.iter()) {
        assert_eq!(a.summary, b.summary);
    }
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
fn disabled_summary_cache_persists_nothing() {
    use cai_core::CacheConfig;
    let m = module(
        "proc f(a) { ret := a + 1; }
         proc g(b) { r := call f(b); ret := r; }",
    );
    let mut cache = SummaryCache::with_config(&CacheConfig::disabled());
    let first = affine().analyze_with_cache(&m, &mut cache);
    assert!(cache.is_empty(), "capacity 0 must disable persistence");
    // A second run over the empty cache recomputes everything — with
    // results identical to a cached driver's.
    let second = affine().analyze_with_cache(&m, &mut cache);
    assert_eq!((second.reused, second.recomputed), (0, 2));
    let cached = affine().analyze(&m);
    for (a, b) in first.reports.iter().zip(cached.reports.iter()) {
        assert_eq!(a.summary, b.summary);
    }
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
