//! The split cache and the batched pair-variable elimination must be
//! invisible semantically: cached and uncached products return *identical*
//! conjunctions, a budget-degraded round must never poison the cache, and
//! the join's budget is charged for the deduplicated class-pair set it
//! actually generates.

use cai_core::{AbstractDomain, Budget, CacheConfig, JoinStats, LogicalProduct, SplitCache};
use cai_linarith::AffineEq;
use cai_term::parse::Vocab;
use cai_term::{Conj, VarSet};
use cai_uf::UfDomain;

fn conj(v: &Vocab, src: &str) -> Conj {
    v.parse_conj(src).expect("parses")
}

fn cached() -> LogicalProduct<AffineEq, UfDomain> {
    LogicalProduct::new(AffineEq::new(), UfDomain::new())
}

fn uncached() -> LogicalProduct<AffineEq, UfDomain> {
    LogicalProduct::new(AffineEq::new(), UfDomain::new())
        .with_cache_config(&CacheConfig::disabled())
}

/// A multi-round "fixpoint": repeatedly join the accumulator with the two
/// branch states and project a temporary — revisiting each conjunction
/// several times, exactly the workload the cache amortizes.
fn rounds(d: &LogicalProduct<AffineEq, UfDomain>, v: &Vocab) -> Vec<Conj> {
    let e1 = conj(v, "x = a & y = b & u = F(y + 1)");
    let e2 = conj(v, "x = b & y = a & u = F(y + 1)");
    let mut acc = e1.clone();
    let mut outs = Vec::new();
    for _ in 0..4 {
        acc = d.join(&acc, &e2);
        outs.push(acc.clone());
        acc = d.join(&acc, &e1);
        outs.push(acc.clone());
        let elim: VarSet = conj(v, "u = u & u = u").vars();
        outs.push(d.exists(&acc, &elim));
    }
    outs
}

#[test]
fn cached_and_uncached_rounds_are_bit_identical() {
    let v = Vocab::standard();
    let with_cache = cached();
    let without = uncached();
    let a = rounds(&with_cache, &v);
    let b = rounds(&without, &v);
    assert_eq!(a, b, "split cache changed an analysis result");
    let s = with_cache.stats().snapshot();
    assert!(
        s.cache_hits > 0,
        "repeated rounds produced no cache hits: {s}"
    );
    assert_eq!(
        without.stats().snapshot().cache_hits,
        0,
        "capacity 0 must disable the cache"
    );
}

#[test]
fn repeated_exists_hits_the_cache_with_identical_results() {
    let v = Vocab::standard();
    let d = cached();
    let e = conj(&v, "x = F(y + 1) & y = 2*z");
    let elim: VarSet = conj(&v, "y = y").vars();
    let first = d.exists(&e, &elim);
    let second = d.exists(&e, &elim);
    assert_eq!(first, second);
    assert!(d.stats().snapshot().cache_hits > 0);
    // The result must not leak the eliminated variable or any internal
    // (purification / pair) name.
    let evars = e.vars();
    for var in first.vars() {
        assert!(evars.contains(&var), "leaked internal variable {var}");
    }
}

/// A starved round degrades; its splits must not be cached, so a later
/// well-funded product sharing the same cache computes from scratch and
/// matches a completely fresh product bit-for-bit.
#[test]
fn degraded_round_never_poisons_the_cache() {
    let v = Vocab::standard();
    let e1 = conj(&v, "x = a & y = b & u = F(y + 1)");
    let e2 = conj(&v, "x = b & y = a & u = F(y + 1)");

    let shared: SplitCache<_, _> = SplitCache::new();
    let stats = JoinStats::new();
    // Round 1: starved. Enough fuel to get into the splits, not enough to
    // finish them.
    let starved = LogicalProduct::new(AffineEq::new(), UfDomain::new())
        .with_budget(Budget::fuel(4))
        .with_split_cache(shared.clone())
        .with_stats(stats.clone());
    let _ = starved.join(&e1, &e2);
    assert!(starved.budget().degraded(), "fuel 4 was expected to starve");
    // Splits that completed cleanly *before* exhaustion may be cached;
    // the one that degraded must have been skipped.
    assert!(
        stats.snapshot().cache_skips > 0,
        "the degraded computation was not recorded as a skip: {}",
        stats.snapshot()
    );

    // Round 2: well-funded, sharing the cache the starved round touched.
    let funded = LogicalProduct::new(AffineEq::new(), UfDomain::new())
        .with_split_cache(shared.clone())
        .with_stats(stats.clone());
    let fresh = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    assert_eq!(
        funded.join(&e1, &e2),
        fresh.join(&e1, &e2),
        "a poisoned cache entry leaked into a later round"
    );
    // And the now-cached healthy splits replay on a third round.
    let before = stats.snapshot().cache_hits;
    assert_eq!(funded.join(&e1, &e2), fresh.join(&e1, &e2));
    assert!(stats.snapshot().cache_hits > before);
}

/// `SplitCache::clone` *shares* — it never snapshots. Entries stored
/// through one product are hits for a product holding a clone.
#[test]
fn split_cache_clones_share_one_table() {
    let v = Vocab::standard();
    let shared: SplitCache<_, _> = SplitCache::with_config(&CacheConfig::default());
    let a = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_split_cache(shared.clone());
    let b = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_split_cache(shared.clone());
    let e1 = conj(&v, "x = a & u = F(y + 1)");
    let e2 = conj(&v, "x = b & u = F(y + 1)");
    let r1 = a.join(&e1, &e2);
    assert!(!shared.is_empty(), "join stored nothing");
    let r2 = b.join(&e1, &e2);
    assert_eq!(r1, r2);
    assert!(
        b.stats().snapshot().cache_hits > 0,
        "a product holding a clone must hit entries the other stored"
    );
}

/// A starved round must not poison the *per-term* entries either: the
/// sub-structural memo is written during purification, which consumes no
/// fuel, so names and splits minted while the whole-conjunction split was
/// degrading stay valid. A later well-funded product sharing the cache —
/// including on a conjunction that only *shares terms* with the starved
/// one — must match a completely fresh product bit-for-bit.
#[test]
fn starved_round_leaves_per_term_entries_healthy() {
    let v = Vocab::standard();
    let e1 = conj(&v, "x = a & y = b & u = F(y + 1)");
    let e2 = conj(&v, "x = b & y = a & u = F(y + 1)");
    // A superset of e1: resumes from e1's entry when that exists, and
    // reuses e1's per-term splits either way.
    let e3 = conj(&v, "x = a & y = b & u = F(y + 1) & w = F(u + 2)");

    let shared: SplitCache<_, _> = SplitCache::with_config(&CacheConfig::default());
    let starved = LogicalProduct::new(AffineEq::new(), UfDomain::new())
        .with_budget(Budget::fuel(4))
        .with_split_cache(shared.clone());
    let _ = starved.join(&e1, &e2);
    assert!(starved.budget().degraded(), "fuel 4 was expected to starve");
    assert!(
        shared.term_memo().names_len() > 0,
        "the starved round should still have minted per-term names"
    );

    let funded =
        LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_split_cache(shared.clone());
    let fresh = || LogicalProduct::new(AffineEq::new(), UfDomain::new());
    assert_eq!(
        funded.join(&e1, &e2),
        fresh().join(&e1, &e2),
        "a poisoned whole-conjunction entry leaked into a later round"
    );
    assert_eq!(
        funded.join(&e3, &e2),
        fresh().join(&e3, &e2),
        "a poisoned per-term entry leaked into a sub-structural reuse"
    );
}

/// A sub-structural partial hit — the query's atoms are a superset of a
/// cached conjunction's — resumes saturation on the delta and must be
/// bit-identical to the uncached computation. On a conjunction grown one
/// atom per step (the shape re-analysis of an edited procedure produces),
/// resuming also saves saturation rounds over the whole-conjunction memo.
#[test]
fn partial_hit_resume_is_bit_identical() {
    let v = Vocab::standard();
    let base = conj(&v, "b = 0 & c = 0 & p = F(b) & q = F(c)");
    let grown = conj(&v, "b = 0 & c = 0 & p = F(b) & q = F(c) & r = p + 1");
    let other = conj(&v, "w = F(b + 5)");
    let d = cached();
    let seeded = d.join(&base, &other);
    assert_eq!(seeded, uncached().join(&base, &other));
    let got = d.join(&grown, &other);
    assert_eq!(got, uncached().join(&grown, &other));
    let s = d.stats().snapshot();
    assert!(
        s.cache_partial_hits > 0,
        "the grown conjunction should have resumed from the cached base: {s}"
    );

    // Two interleaved mixed-theory chains from a shared root. Deriving
    // `b_i = c_i` takes one saturation round per theory alternation, so a
    // from-scratch split of the grown conjunction costs rounds
    // proportional to its depth — what resuming from the cached
    // one-atom-smaller base avoids.
    let mut atoms = vec!["b0 = 0".to_string(), "c0 = 0".to_string()];
    for i in 1..=3 {
        atoms.push(format!("a{i} = F(b{})", i - 1));
        atoms.push(format!("d{i} = F(c{})", i - 1));
        atoms.push(format!("b{i} = a{i} + 1"));
        atoms.push(format!("c{i} = d{i} + 1"));
    }
    let other = conj(&v, "w = F(b0 + 5)");
    let grow = |cfg: &CacheConfig| {
        let d = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_cache_config(cfg);
        let joins: Vec<Conj> = (2..=atoms.len())
            .map(|k| d.join(&conj(&v, &atoms[..k].join(" & ")), &other))
            .collect();
        (joins, d.stats().snapshot())
    };
    let (uncached_joins, _) = grow(&CacheConfig::disabled());
    let (whole_joins, whole) = grow(&CacheConfig::whole_only());
    let (sub_joins, sub) = grow(&CacheConfig::default());
    assert_eq!(whole_joins, uncached_joins, "the whole-conjunction memo");
    assert_eq!(sub_joins, uncached_joins, "the sub-structural memo");
    assert!(sub.cache_partial_hits > 0, "no partial hits: {sub}");
    assert!(
        sub.saturation_rounds < whole.saturation_rounds,
        "resuming saved no saturation rounds ({} vs {} whole-only)",
        sub.saturation_rounds,
        whole.saturation_rounds
    );
}

/// Regression for the pair-budget accounting: the join charges the
/// deduplicated class-pair count, not `|Vℓ| · |Vr|`. With ten mutually
/// equal variables per side the naive charge is over a hundred ticks at
/// the pair step alone; the corrected charge lets a budget of the actual
/// spend complete exactly (it previously forced the syntactic fallback).
#[test]
fn pair_budget_charges_deduplicated_classes() {
    let v = Vocab::standard();
    let chain = "x1 = x2 & x2 = x3 & x3 = x4 & x4 = x5 & x5 = x6 \
                 & x6 = x7 & x7 = x8 & x8 = x9 & x9 = x10";
    let el = conj(&v, &format!("{chain} & x1 = a"));
    let er = conj(&v, &format!("{chain} & x1 = b"));
    let naive_charge = (el.vars().len() * er.vars().len()) as u64; // 121

    let unlimited = cached();
    let exact = unlimited.join(&el, &er);
    let spent = unlimited.budget().spent();
    assert!(
        spent < naive_charge,
        "join spent {spent} ticks, at least the naive quadratic \
         pair charge of {naive_charge} — dedup accounting regressed"
    );
    let s = unlimited.stats().snapshot();
    assert!(
        s.pairs_generated < s.pairs_considered,
        "no dedup happened: {s}"
    );

    // The corrected charge is what makes this budget sufficient: under the
    // old up-front quadratic charge it exhausted inside the join.
    let pinned =
        LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(Budget::fuel(spent));
    assert_eq!(pinned.join(&el, &er), exact);
    let report = pinned.budget().report();
    assert!(
        !report.degraded && !report.exhausted,
        "budget of the actual spend still degraded: {report:?}"
    );
    // And the join is genuinely better than the syntactic fallback the old
    // accounting forced: the shared equality chain survives.
    let v10 = conj(&v, "x1 = x10");
    for atom in &v10 {
        assert!(unlimited.implies_atom(&exact, atom), "join = {exact}");
    }
}
