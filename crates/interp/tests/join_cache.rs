//! The logical product's split cache carried across analyzer fixpoint
//! rounds must be semantically invisible: cache on vs. off yields
//! bit-identical analyses — including after a budget-starved round — while
//! the multi-round fixpoint (join rounds, widening, and the recording
//! pass) actually exercises the cache and spends fewer ticks.

use cai_core::{AbstractDomain, Budget, CacheConfig, LogicalProduct, SplitCache};
use cai_interp::{parse_program, Analyzer, Program};
use cai_linarith::AffineEq;
use cai_term::parse::Vocab;
use cai_uf::UfDomain;

/// The paper's Figure 1 loop: needs several fixpoint rounds, mixed
/// lin + UF facts, and a recording pass that revisits every statement
/// under the stable invariant.
const FIG1: &str = "
    a := 0; b := 0; s := 0; t := 0;
    while (*) {
        d := F(a);
        s := s + d;
        t := t + F(b);
        a := a + 1;
        b := b + 1;
    }
    assert(s = t);
";

fn program() -> (Vocab, Program) {
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, FIG1).expect("program parses");
    (vocab, p)
}

type Product = LogicalProduct<AffineEq, UfDomain>;

fn summary(
    a: &cai_interp::Analysis<<Product as AbstractDomain>::Elem>,
) -> (Vec<bool>, String, Vec<usize>, bool) {
    (
        a.assertions.iter().map(|x| x.verified).collect(),
        a.exit.to_string(),
        a.loop_iterations.clone(),
        a.diverged,
    )
}

#[test]
fn analysis_is_bit_identical_with_and_without_cache() {
    let (_v, p) = program();
    let with_cache = Product::new(AffineEq::new(), UfDomain::new());
    let without =
        Product::new(AffineEq::new(), UfDomain::new()).with_cache_config(&CacheConfig::disabled());

    let a = Analyzer::new(&with_cache).run(&p);
    let b = Analyzer::new(&without).run(&p);
    assert_eq!(summary(&a), summary(&b), "cache changed the analysis");
    assert_eq!(summary(&a).0, vec![true], "Figure 1 must verify");

    let s = with_cache.stats().snapshot();
    assert!(
        s.cache_hits > 0,
        "a multi-round fixpoint produced no cache hits: {s}"
    );
    assert_eq!(without.stats().snapshot().cache_hits, 0);
    let (ticks_on, ticks_off) = (with_cache.budget().spent(), without.budget().spent());
    assert!(
        ticks_on < ticks_off,
        "the cache saved no ticks ({ticks_on} cached vs {ticks_off} uncached)"
    );
}

#[test]
fn cache_carries_across_analysis_rounds() {
    let (_v, p) = program();
    let d = Product::new(AffineEq::new(), UfDomain::new());
    let first = Analyzer::new(&d).run(&p);
    let misses_after_first = d.stats().snapshot().cache_misses;
    // Re-analysis with the same domain (the driver's incremental path)
    // replays the warmed cache: same result, few or no new misses.
    let second = Analyzer::new(&d).run(&p);
    assert_eq!(summary(&first), summary(&second));
    let s = d.stats().snapshot();
    assert!(
        s.cache_misses - misses_after_first < misses_after_first,
        "a warmed cache re-analysis recomputed most splits: {s}"
    );
}

/// A starved round must neither panic nor poison the cache for a later,
/// well-funded analysis sharing it.
#[test]
fn starved_round_does_not_poison_later_analyses() {
    let (_v, p) = program();
    let shared: SplitCache<_, _> = SplitCache::new();

    for fuel in [3, 10, 40, 200] {
        let budget = Budget::fuel(fuel);
        let starved = Product::new(AffineEq::new(), UfDomain::new())
            .with_budget(budget.clone())
            .with_split_cache(shared.clone());
        let a = Analyzer::new(&starved).with_budget(budget).run(&p);
        // Degraded, but sound: it may only fail to verify, never crash.
        assert!(!a.diverged || a.degradation.degraded);
    }

    let funded = Product::new(AffineEq::new(), UfDomain::new()).with_split_cache(shared);
    let fresh =
        Product::new(AffineEq::new(), UfDomain::new()).with_cache_config(&CacheConfig::disabled());
    let a = Analyzer::new(&funded).run(&p);
    let b = Analyzer::new(&fresh).run(&p);
    assert_eq!(
        summary(&a),
        summary(&b),
        "a cache touched by starved rounds changed a later analysis"
    );
    assert_eq!(summary(&a).0, vec![true]);
}
