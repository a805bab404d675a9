//! The **logical product** `L1 ⋈ L2` — the paper's primary contribution
//! (Definition 2, Figures 6 and 7).
//!
//! Elements are finite conjunctions of *mixed* atomic facts over the union
//! of the component theories. The lattice operations are constructed
//! automatically from the component domains:
//!
//! - the join (Figure 6) purifies and NO-saturates both inputs, introduces
//!   a quadratic set of pair variables `⟨x, y⟩`, joins component-wise, and
//!   eliminates the pair variables with the combined quantification
//!   operator — recovering mixed facts such as `u = F(v + 1)`;
//! - existential quantification (Figure 7) purifies, NO-saturates, runs
//!   `QSaturation` to find definitions for eliminable variables via the
//!   theory-specific `Alternate` operators, quantifies component-wise, and
//!   substitutes the definitions back — again producing mixed facts.
//!
//! When the component theories are convex, stably infinite, and disjoint,
//! these operators are the most precise ones for the logical product
//! lattice (Theorems 3 and 5). Otherwise they remain sound and act as the
//! paper's "efficient heuristic" (see [`LogicalProduct::precision`]).
//!
//! # Performance
//!
//! Two amortizations keep the product fast inside analyzer fixpoints (see
//! DESIGN.md, "Join performance"):
//!
//! - a [`SplitCache`] memoizes the purify + NOSaturation front end per
//!   conjunction (keyed by structural fingerprint, verified against the
//!   stored conjunction), so re-visiting an invariant across fixpoint
//!   rounds costs a table lookup instead of a saturation fixpoint.
//!   Budget-degraded results are never cached, so a starved round cannot
//!   poison a later, better-funded one;
//! - the join charges and generates one pair variable per *equivalence
//!   class* pair, eliminates the whole batch with a single `QSaturation`
//!   plus a one-pass topologically-ordered substitution, and prunes pair
//!   variables that occur in neither component presentation (no
//!   `Alternate` definition can mention them, so dropping them is exact).
//!
//! [`JoinStats`] exposes counters for all of the above; enable the
//! `cai-obs` tracer (`cai_obs::trace::set_enabled`, or `--trace-out` on
//! the report binaries) for per-phase span timings, or run `perfbench`
//! for an end-to-end per-layer report.

use crate::budget::Budget;
use crate::cache::{CacheConfig, TermMemo};
use crate::domain::{combination_precision, AbstractDomain, Precision, TheoryProps};
use crate::partition::Partition;
use crate::saturate::{no_saturate_budgeted, Saturated};
use cai_obs::{Event, LossKind};
use cai_term::{
    fingerprint, purify, purify_memoized, Atom, AtomSide, Conj, Purified, Purifier, PurifyMemo,
    Sig, Term, Var, VarSet,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Shared observability counters for the logical product's join and
/// quantification pipelines. Cloning shares the counts, so one
/// `JoinStats` can aggregate over many products (e.g. every worker of a
/// parallel driver run).
#[derive(Clone, Debug, Default)]
pub struct JoinStats {
    counts: Arc<Mutex<JoinStatsSnapshot>>,
}

impl JoinStats {
    /// Fresh counters, all zero.
    pub fn new() -> JoinStats {
        JoinStats::default()
    }

    fn count(&self, bump: impl FnOnce(&mut JoinStatsSnapshot)) {
        bump(&mut self.counts.lock().unwrap_or_else(|e| e.into_inner()));
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> JoinStatsSnapshot {
        *self.counts.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A point-in-time copy of [`JoinStats`]. Plain data: subtract two
/// snapshots field-wise to meter a region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStatsSnapshot {
    /// Split-cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Split-cache lookups that had to compute (and then stored).
    pub cache_misses: u64,
    /// Split-cache lookups answered by resuming saturation from a cached
    /// sub-structural base (a cached conjunction whose atoms are a subset
    /// of the query's) on the delta atoms only.
    pub cache_partial_hits: u64,
    /// Computed splits *not* stored because they were budget-degraded.
    pub cache_skips: u64,
    /// Times the cache was wiped because it reached capacity.
    pub cache_evictions: u64,
    /// Raw `|Vℓ| · |Vr|` pair-variable candidates across all joins.
    pub pairs_considered: u64,
    /// Pair variables actually created after equivalence-class dedup (what
    /// the budget is charged for).
    pub pairs_generated: u64,
    /// Eliminable variables dropped up front because no definition can
    /// mention them (absent from every relevant presentation).
    pub pairs_pruned: u64,
    /// NOSaturation exchange rounds actually run (cache hits replay none).
    pub saturation_rounds: u64,
    /// `QSaturation` rounds across all eliminations.
    pub qsat_rounds: u64,
    /// Definitions recovered by `Alternate` and substituted back.
    pub defs_found: u64,
    /// Definitions rejected by the runtime `Alternate`-contract check.
    pub defs_rejected: u64,
    /// Join operations.
    pub joins: u64,
    /// Widening operations.
    pub widens: u64,
    /// Combined-quantification operations.
    pub exists_ops: u64,
    /// Joins/quantifications that fell back to the syntactic
    /// approximation on budget exhaustion.
    pub fallbacks: u64,
}

impl JoinStatsSnapshot {
    /// Cache hits as a fraction of all lookups (0 when there were none).
    /// Partial hits count as lookups but not as full hits.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_partial_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Partial hits as a fraction of all lookups that were not full hits
    /// (how often a miss was rescued by the sub-structural memo).
    pub fn cache_partial_hit_rate(&self) -> f64 {
        let total = self.cache_partial_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_partial_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for JoinStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "joins={} widens={} exists={} fallbacks={} | cache hits={} partial={} misses={} \
             skips={} evictions={} hit-rate={:.1}% | pairs considered={} generated={} \
             pruned={} | saturation rounds={} qsat rounds={} defs found={} rejected={}",
            self.joins,
            self.widens,
            self.exists_ops,
            self.fallbacks,
            self.cache_hits,
            self.cache_partial_hits,
            self.cache_misses,
            self.cache_skips,
            self.cache_evictions,
            100.0 * self.cache_hit_rate(),
            self.pairs_considered,
            self.pairs_generated,
            self.pairs_pruned,
            self.saturation_rounds,
            self.qsat_rounds,
            self.defs_found,
            self.defs_rejected,
        )
    }
}

/// Default capacity of a [`SplitCache`] (entries, not bytes).
pub const DEFAULT_SPLIT_CACHE_CAPACITY: usize = 1024;

/// A memoized split: the purified conjunction and its saturated elements.
pub type Split<E1, E2> = (Purified, Saturated<E1, E2>);

struct SplitEntry<E1, E2> {
    /// The exact conjunction this entry was computed from — compared on
    /// every hit, so a fingerprint collision degrades to a miss instead of
    /// returning a wrong split.
    key: Conj,
    purified: Purified,
    saturated: Saturated<E1, E2>,
}

struct CacheShard<E1, E2> {
    map: HashMap<u64, SplitEntry<E1, E2>>,
    /// Sub-structural index: fingerprint of an entry's *sorted atom set*
    /// → the entry's whole-conjunction fingerprint. Lets a miss probe for
    /// a cached conjunction whose atoms are a subset of the query's (the
    /// query minus one atom, or a permutation of the query). Mappings can
    /// go stale when entries are overwritten; every candidate is verified
    /// by an actual set-inclusion check before use.
    by_atoms: HashMap<u64, u64>,
    capacity: usize,
}

/// The result of probing the cache for a conjunction.
enum SplitLookup<E1, E2> {
    /// The exact conjunction was cached.
    Hit(Split<E1, E2>),
    /// A conjunction whose atom set is a subset of the probe's was cached;
    /// saturation can resume from it on the delta atoms.
    Partial(Split<E1, E2>),
    /// Nothing usable was cached.
    Miss,
}

/// Fingerprint of a conjunction's atoms *as a sorted set* — invariant
/// under atom order and duplicates, unlike [`Conj::fingerprint`].
fn atom_set_fp(atoms: &BTreeSet<&Atom>) -> u64 {
    fingerprint(atoms)
}

/// Memo cache for the purify + NOSaturation front end of the logical
/// product, keyed by [`Conj::fingerprint`], with a sub-structural
/// (per-alien-term) layer beneath it (see [`TermMemo`]).
///
/// # Sharing (the blessed way)
///
/// **`Clone` shares; it never snapshots.** A `SplitCache` is a handle to
/// `Arc`-shared tables: clones observe each other's inserts, and handing
/// clones of one cache to several products (or to every worker thread of a
/// driver run) is *the* supported way to share memoized splits across
/// rounds and threads. To start over, build a new cache (or call
/// [`clear`](SplitCache::clear)); there is deliberately no deep-copy —
/// a snapshot would silently stop receiving the other handles' work.
///
/// Entries produced under a degraded budget are never stored — see
/// [`LogicalProduct::with_split_cache`] for the invalidation rules.
///
/// Capacity 0 disables the cache. When a table reaches capacity it is
/// cleared wholesale (the working set of a fixpoint is small and cyclic,
/// so LRU bookkeeping is not worth its overhead).
pub struct SplitCache<E1, E2> {
    inner: Arc<Mutex<CacheShard<E1, E2>>>,
    /// The per-alien-term memo beneath the whole-conjunction table.
    term_memo: Arc<TermMemo>,
}

impl<E1, E2> Clone for SplitCache<E1, E2> {
    /// Shares the underlying tables (see the type docs); cloning never
    /// copies entries.
    fn clone(&self) -> Self {
        SplitCache {
            inner: Arc::clone(&self.inner),
            term_memo: Arc::clone(&self.term_memo),
        }
    }
}

impl<E1, E2> fmt::Debug for SplitCache<E1, E2> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shard = self.lock();
        f.debug_struct("SplitCache")
            .field("len", &shard.map.len())
            .field("capacity", &shard.capacity)
            .field("term_memo", &self.term_memo)
            .finish()
    }
}

impl<E1, E2> Default for SplitCache<E1, E2> {
    fn default() -> Self {
        SplitCache::new()
    }
}

impl<E1, E2> SplitCache<E1, E2> {
    /// A cache with the default [`CacheConfig`].
    pub fn new() -> SplitCache<E1, E2> {
        SplitCache::with_config(&CacheConfig::default())
    }

    /// A cache configured by `cfg` (a split capacity of 0 disables it).
    pub fn with_config(cfg: &CacheConfig) -> SplitCache<E1, E2> {
        SplitCache {
            inner: Arc::new(Mutex::new(CacheShard {
                map: HashMap::new(),
                by_atoms: HashMap::new(),
                capacity: cfg.split_capacity,
            })),
            term_memo: Arc::new(TermMemo::with_capacity(cfg.term_capacity)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheShard<E1, E2>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The number of cached whole-conjunction splits.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// The whole-conjunction capacity (0 means caching is disabled).
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// The sub-structural payload capacity (0 means the per-term layer is
    /// disabled and no partial hits are attempted).
    pub fn term_capacity(&self) -> usize {
        self.term_memo.capacity()
    }

    /// The per-alien-term memo beneath this cache.
    pub fn term_memo(&self) -> &TermMemo {
        &self.term_memo
    }

    /// Drops every cached split and per-term payload (the per-term name
    /// map persists — names are stable for the life of the cache).
    pub fn clear(&self) {
        let mut shard = self.lock();
        shard.map.clear();
        shard.by_atoms.clear();
        drop(shard);
        self.term_memo.clear_payloads();
    }

    /// The term memo as the trait object the purifier consumes.
    fn memo_dyn(&self) -> Arc<dyn PurifyMemo> {
        Arc::clone(&self.term_memo) as Arc<dyn PurifyMemo>
    }
}

impl<E1: Clone, E2: Clone> SplitCache<E1, E2> {
    /// Looks up `key`, optionally probing the sub-structural index for a
    /// subset base on a whole-conjunction miss.
    fn probe(&self, fp: u64, key: &Conj, allow_partial: bool) -> SplitLookup<E1, E2> {
        let shard = self.lock();
        if let Some(entry) = shard.map.get(&fp) {
            if entry.key == *key {
                return SplitLookup::Hit((entry.purified.clone(), entry.saturated.clone()));
            }
        }
        if allow_partial {
            let atoms: BTreeSet<&Atom> = key.iter().collect();
            // Deterministic probe order: the full atom set first (catches
            // permutations and duplicate atoms), then each single-atom
            // deletion in sorted-atom order. Any verified subset works —
            // resumed saturation converges to the same canonical fixpoint
            // from any of them.
            let deletions = atoms.iter().map(|skip| {
                let rest: BTreeSet<&Atom> = atoms.iter().filter(|a| *a != skip).copied().collect();
                atom_set_fp(&rest)
            });
            let candidates: Vec<u64> = std::iter::once(atom_set_fp(&atoms))
                .chain(deletions)
                .collect();
            for set_fp in candidates {
                let Some(entry) = shard.by_atoms.get(&set_fp).and_then(|w| shard.map.get(w)) else {
                    continue;
                };
                // Verify real set inclusion — the index is only a hint.
                if entry.key.iter().all(|a| atoms.contains(a)) {
                    return SplitLookup::Partial((entry.purified.clone(), entry.saturated.clone()));
                }
            }
        }
        SplitLookup::Miss
    }

    /// Stores a split computed for `key`, maintaining the subset index.
    /// Returns whether the table was cleared to make room. The one
    /// caller, `LogicalProduct::split`, never stores into a disabled
    /// (capacity 0) cache or stores a degraded split.
    fn store_split(&self, fp: u64, key: &Conj, split: &Split<E1, E2>) -> bool {
        let mut shard = self.lock();
        let mut evicted = false;
        if shard.map.len() >= shard.capacity && !shard.map.contains_key(&fp) {
            shard.map.clear();
            shard.by_atoms.clear();
            evicted = true;
        }
        let set_fp = atom_set_fp(&key.iter().collect());
        shard.by_atoms.entry(set_fp).or_insert(fp);
        shard.map.insert(
            fp,
            SplitEntry {
                key: key.clone(),
                purified: split.0.clone(),
                saturated: split.1.clone(),
            },
        );
        evicted
    }
}

/// One representative — the minimum member — per equivalence class of
/// `vars` under `classes`. Sorted-set iteration makes the first member of
/// each class its minimum, so the result is deterministic and matches the
/// first-occurrence dedup it replaces.
fn class_reps(vars: &VarSet, classes: &Partition) -> Vec<Var> {
    let mut seen: BTreeSet<Var> = BTreeSet::new();
    let mut reps = Vec::new();
    for &x in vars {
        if seen.insert(classes.find(x)) {
            reps.push(x);
        }
    }
    reps
}

/// The logical product of two abstract domains.
///
/// ```
/// # fn main() {}
/// // let product = LogicalProduct::new(AffineEq::new(), UfDomain::new());
/// // Elements are `Conj` — conjunctions of mixed atomic facts.
/// ```
#[derive(Clone, Debug)]
pub struct LogicalProduct<D1: AbstractDomain, D2: AbstractDomain> {
    d1: D1,
    d2: D2,
    budget: Budget,
    cache: SplitCache<D1::Elem, D2::Elem>,
    stats: JoinStats,
}

impl<D1: AbstractDomain, D2: AbstractDomain> LogicalProduct<D1, D2> {
    /// Combines two domains into their logical product (with an unlimited
    /// [`Budget`], a default-capacity [`SplitCache`], and fresh
    /// [`JoinStats`]).
    pub fn new(d1: D1, d2: D2) -> LogicalProduct<D1, D2> {
        LogicalProduct {
            d1,
            d2,
            budget: Budget::unlimited(),
            cache: SplitCache::new(),
            stats: JoinStats::new(),
        }
    }

    /// Governs this product's join, quantification, and saturation loops
    /// by `budget`. Clone one budget into the component domains and the
    /// analyzer as well to bound a whole analysis end to end.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The budget governing this product's operators.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Shares `cache` as this product's purification/saturation memo —
    /// e.g. one cache across the products of successive fixpoint rounds,
    /// or across re-analyses of the same procedure. Cloning a
    /// [`SplitCache`] shares its tables, so handing clones of one cache to
    /// many products is the blessed sharing idiom.
    ///
    /// Invalidation rules: a split computed while the budget degraded
    /// (its saturation stopped early, the budget exhausted, or *any*
    /// governed operation recorded a degradation during the computation)
    /// is returned but **not** stored, so a starved round never poisons a
    /// later, better-funded one. Hits are verified against the stored
    /// conjunction, so fingerprint collisions cost a recomputation rather
    /// than correctness.
    pub fn with_split_cache(mut self, cache: SplitCache<D1::Elem, D2::Elem>) -> Self {
        self.cache = cache;
        self
    }

    /// Replaces the split cache with one built from `cfg` — the unified
    /// configuration surface ([`CacheConfig`] rides through
    /// `AnalysisConfig`); [`CacheConfig::disabled`] turns caching off.
    pub fn with_cache_config(self, cfg: &CacheConfig) -> Self {
        self.with_split_cache(SplitCache::with_config(cfg))
    }

    /// The purification/saturation memo cache.
    pub fn split_cache(&self) -> &SplitCache<D1::Elem, D2::Elem> {
        &self.cache
    }

    /// Shares `stats` as this product's counter sink (e.g. one `JoinStats`
    /// aggregated across every worker of a parallel analysis).
    pub fn with_stats(mut self, stats: JoinStats) -> Self {
        self.stats = stats;
        self
    }

    /// This product's observability counters.
    pub fn stats(&self) -> &JoinStats {
        &self.stats
    }

    /// The first component domain.
    pub fn first(&self) -> &D1 {
        &self.d1
    }

    /// The second component domain.
    pub fn second(&self) -> &D2 {
        &self.d2
    }

    /// The precision guarantee for this combination (Theorems 3 and 5
    /// versus the Figure 8 caveat).
    pub fn precision(&self) -> Precision {
        combination_precision(&self.d1, &self.d2)
    }

    /// Membership in `Terms_{T1,T2}(E)` (Definition 2): `t` occurs
    /// *semantically* in `E`, i.e. `E ⇒ t = t'` for some variable or alien
    /// term `t'` of `E`.
    pub fn in_terms(&self, e: &Conj, t: &Term) -> bool {
        let candidates: Vec<Term> = e
            .vars()
            .into_iter()
            .map(Term::var)
            .chain(cai_term::alien_terms(e, &self.d1.sig(), &self.d2.sig()))
            .collect();
        candidates
            .iter()
            .any(|c| self.implies_atom(e, &Atom::eq(t.clone(), c.clone())))
    }

    /// The partial order of Definition 2: implication *plus* the side
    /// condition `AlienTerms(b) ⊆ Terms(a)`, which is what turns the
    /// implication semi-lattice into a lattice (Theorem 1).
    ///
    /// [`AbstractDomain::le`] checks only implication; elements produced
    /// by this product's own operators satisfy the side condition by
    /// construction, but externally constructed pairs may not — use this
    /// method when Definition 2 is meant literally.
    pub fn le_defn2(&self, a: &Conj, b: &Conj) -> bool {
        if !self.le(a, b) {
            return false;
        }
        cai_term::alien_terms(b, &self.d1.sig(), &self.d2.sig())
            .iter()
            .all(|t| self.in_terms(a, t))
    }

    /// Lines 1–2 / 3–4 of Figure 6: purify a mixed conjunction into the
    /// component domains and NO-saturate — memoized in the [`SplitCache`].
    ///
    /// Three outcomes, from cheapest to dearest: a *hit* replays the
    /// stored split verbatim; a *partial hit* finds a cached conjunction
    /// whose atoms are a subset of this one's, meets the delta atoms into
    /// its saturated elements, and resumes the (monotone) saturation from
    /// there — with ample budget this converges to the same canonical
    /// fixpoint a from-scratch split reaches, in fewer rounds; a *miss*
    /// computes from scratch. All three purify through the shared
    /// [`TermMemo`] (when enabled), so alien-term names are stable across
    /// entries — which is exactly what makes the delta well-defined.
    fn split(&self, e: &Conj) -> Split<D1::Elem, D2::Elem> {
        if self.cache.capacity() == 0 {
            return self.split_uncached(e);
        }
        let sub_structural = self.cache.term_capacity() > 0;
        let fp = e.fingerprint();
        let degrades_before = self.budget.degrade_count();
        let out = match self.cache.probe(fp, e, sub_structural) {
            SplitLookup::Hit(hit) => {
                self.stats.count(|c| c.cache_hits += 1);
                return hit;
            }
            SplitLookup::Partial(base) => {
                self.stats.count(|c| c.cache_partial_hits += 1);
                cai_obs::spanned!("split/resume", self.split_resumed(e, base))
            }
            SplitLookup::Miss => {
                self.stats.count(|c| c.cache_misses += 1);
                self.split_fresh(e, sub_structural.then(|| self.cache.memo_dyn()))
            }
        };
        // Never cache a split computed under duress: an under-saturated or
        // otherwise degraded result must not outlive its starved round.
        let degraded = out.1.degraded
            || self.budget.is_exhausted()
            || self.budget.degrade_count() != degrades_before;
        if degraded {
            self.stats.count(|c| c.cache_skips += 1);
            // Later rounds must re-purify and re-saturate from scratch —
            // the skipped store is where that recomputation was lost.
            self.budget.record(Event::new(
                LossKind::CacheSkippedDegraded,
                "logical-product/split-cache",
                "degraded split not cached",
            ));
        } else if self.cache.store_split(fp, e, &out) {
            self.stats.count(|c| c.cache_evictions += 1);
        }
        out
    }

    fn split_uncached(&self, e: &Conj) -> Split<D1::Elem, D2::Elem> {
        self.split_fresh(e, None)
    }

    fn split_fresh(
        &self,
        e: &Conj,
        memo: Option<Arc<dyn PurifyMemo>>,
    ) -> Split<D1::Elem, D2::Elem> {
        let p = match memo {
            Some(m) => purify_memoized(e, &self.d1.sig(), &self.d2.sig(), m),
            None => purify(e, &self.d1.sig(), &self.d2.sig()),
        };
        let e1 = self.d1.from_conj(&p.left);
        let e2 = self.d2.from_conj(&p.right);
        let s = no_saturate_budgeted(&self.d1, e1, &self.d2, e2, &self.budget);
        self.stats.count(|c| c.saturation_rounds += s.rounds as u64);
        (p, s)
    }

    /// Resumes a cached split on a superset conjunction: re-purifies `e`
    /// through the shared term memo (names are stable, so the base's
    /// purified atoms are a subset of `e`'s), meets only the *delta* atoms
    /// into the base's already-saturated elements, and re-runs the
    /// NOSaturation exchange to its fixpoint. Saturation is monotone and
    /// both component representations are canonical, so with ample budget
    /// the result is bit-identical to a from-scratch split — only cheaper,
    /// because the base's equalities need no re-derivation. (Under
    /// starvation results may differ from scratch, exactly as whole-cache
    /// hits may; degraded results are never stored.)
    fn split_resumed(
        &self,
        e: &Conj,
        base: Split<D1::Elem, D2::Elem>,
    ) -> Split<D1::Elem, D2::Elem> {
        let (base_p, base_s) = base;
        let mut p = purify_memoized(e, &self.d1.sig(), &self.d2.sig(), self.cache.memo_dyn());
        let base_left: BTreeSet<&Atom> = base_p.left.iter().collect();
        let base_right: BTreeSet<&Atom> = base_p.right.iter().collect();
        let delta_l: Vec<Atom> = p
            .left
            .iter()
            .filter(|a| !base_left.contains(a))
            .cloned()
            .collect();
        let delta_r: Vec<Atom> = p
            .right
            .iter()
            .filter(|a| !base_right.contains(a))
            .cloned()
            .collect();
        let e1 = if delta_l.is_empty() {
            base_s.left
        } else {
            self.d1.meet_all(&base_s.left, &delta_l)
        };
        let e2 = if delta_r.is_empty() {
            base_s.right
        } else {
            self.d2.meet_all(&base_s.right, &delta_r)
        };
        let s = no_saturate_budgeted(&self.d1, e1, &self.d2, e2, &self.budget);
        self.stats.count(|c| c.saturation_rounds += s.rounds as u64);
        // The resumed elements may mention the base's fresh names; make
        // sure every one of them is scheduled for elimination downstream.
        // (Shared atoms mean shared alien terms, so `p.fresh` already
        // covers `base_p.fresh` — this is a defensive union.)
        for v in &base_p.fresh {
            if !p.fresh.contains(v) {
                p.fresh.push(*v);
            }
        }
        (p, s)
    }

    /// Budget-exhaustion fallback for the join: the syntactic intersection
    /// of the two conjunctions. Sound — an atom present in both inputs is
    /// implied by each, hence by their join — but far less precise than
    /// Figure 6 (it discovers no new facts).
    fn fallback_join(&self, el: &Conj, er: &Conj) -> Conj {
        el.iter()
            .filter(|a| er.iter().any(|b| b == *a))
            .cloned()
            .collect()
    }

    /// Budget-exhaustion fallback for quantification: drop every atom
    /// mentioning a variable to eliminate. Sound (each kept atom is a
    /// conjunct of `e`) and `vars`-free by construction, but performs no
    /// definition recovery.
    fn fallback_exists(e: &Conj, vars: &VarSet) -> Conj {
        e.iter()
            .filter(|a| !a.mentions_any(vars))
            .cloned()
            .collect()
    }

    /// `QSaturation` (Figure 7, lines 1–10 of the right-hand algorithm):
    /// repeatedly finds definitions `y = t` for variables awaiting
    /// elimination, via either component's `Alternate` operator, over the
    /// whole pending set at once.
    ///
    /// Returns the still-undefined variables and the definitions in
    /// discovery order. That order is topological: each term avoids every
    /// variable still pending at its discovery, so it can only mention
    /// variables defined strictly earlier (or never) — which is what lets
    /// [`subst_defs`](Self::subst_defs) substitute in a single pass.
    ///
    /// The `Alternate` contract (`Vars(t) ∩ V2 = ∅`, `t ≠ y`) is enforced
    /// at *runtime*: a defective definition — a faulty domain, or
    /// fault-injection via `ChaosDomain` — is skipped with a degradation
    /// note instead of being trusted, since a cyclic definition would
    /// defeat the substitution pass. Skipping is sound: the variable is
    /// simply quantified component-wise like any other undefined one.
    fn q_saturation(
        &self,
        e1: &D1::Elem,
        e2: &D2::Elem,
        v1: &VarSet,
    ) -> (VarSet, Vec<(Var, Term)>) {
        let mut v2 = v1.clone();
        let mut defs: Vec<(Var, Term)> = Vec::new();
        loop {
            if !self.budget.tick(1 + v2.len() as u64) {
                // Sound early exit: the variables still in V2 are simply
                // quantified component-wise instead of being substituted.
                self.budget.degrade("logical-product/q-saturation", {
                    format!("stopped with {} definitions pending", v2.len())
                });
                return (v2, defs);
            }
            self.stats.count(|c| c.qsat_rounds += 1);
            let mut changed = false;
            // One batched Alternate pass per component per round; as
            // variables leave V2, later rounds may find more definitions.
            for round in [
                self.d1.alternates(e1, &v2, &v2),
                self.d2.alternates(e2, &v2, &v2),
            ] {
                for (y, t) in round {
                    if !v2.contains(&y) {
                        continue;
                    }
                    if t.as_var() == Some(y) || t.mentions_any(&v2) {
                        self.stats.count(|c| c.defs_rejected += 1);
                        // The definition the Alternate would have
                        // transferred across the product is dropped.
                        self.budget.record(Event::new(
                            LossKind::AlternateSkipped,
                            "logical-product/q-saturation",
                            format!("skipped defective Alternate definition {y} = {t}"),
                        ));
                        continue;
                    }
                    self.stats.count(|c| c.defs_found += 1);
                    defs.push((y, t));
                    v2.remove(&y);
                    changed = true;
                }
            }
            if !changed {
                return (v2, defs);
            }
        }
    }

    /// Substitutes the definitions discovered by `QSaturation` into `c` in
    /// one topologically-ordered pass: resolving each definition against
    /// its predecessors (valid because `defs` is in discovery order and
    /// the runtime contract check guarantees acyclicity) yields a map
    /// whose right-hand sides mention no defined variable, so a single
    /// substitution replaces the old quadratic resubstitute-to-fixpoint
    /// loop.
    fn subst_defs(&self, c: Conj, defs: &[(Var, Term)]) -> Conj {
        if defs.is_empty() {
            return c;
        }
        if !self.budget.tick(1 + c.len() as u64 + defs.len() as u64) {
            self.budget.degrade(
                "logical-product/subst-defs",
                "dropped atoms still mentioning defined variables",
            );
            let defined: VarSet = defs.iter().map(|(y, _)| *y).collect();
            return Self::fallback_exists(&c, &defined);
        }
        let mut resolved: BTreeMap<Var, Term> = BTreeMap::new();
        for (y, t) in defs {
            let rt = t.subst(&resolved);
            resolved.insert(*y, rt);
        }
        c.subst(&resolved)
    }

    /// Lines 4–8 of Figure 7 on an already-saturated split: run
    /// `QSaturation` for the variables in `v1`, quantify the remainder
    /// component-wise, and substitute the recovered definitions back into
    /// the mixed result.
    fn eliminate(
        &self,
        s: &Saturated<D1::Elem, D2::Elem>,
        v1: &VarSet,
        label: &'static str,
    ) -> Conj {
        let (v2, defs) = cai_obs::spanned!(
            format!("{label}/qsat"),
            self.q_saturation(&s.left, &s.right, v1)
        );
        let e12 = cai_obs::spanned!(format!("{label}/q1"), self.d1.exists(&s.left, &v2));
        let e22 = cai_obs::spanned!(format!("{label}/q2"), self.d2.exists(&s.right, &v2));
        let mixed = self.d1.to_conj(&e12).and(&self.d2.to_conj(&e22));
        cai_obs::spanned!(format!("{label}/subst-defs"), self.subst_defs(mixed, &defs))
    }

    /// The shared implementation of join and widening (the paper constructs
    /// the widening operator "in exactly the same way" as the join).
    fn join_impl(&self, el: &Conj, er: &Conj, widen: bool) -> Conj {
        self.stats.count(|c| {
            if widen {
                c.widens += 1;
            } else {
                c.joins += 1;
            }
        });
        if self.budget.is_exhausted() {
            self.stats.count(|c| c.fallbacks += 1);
            self.budget.degrade(
                "logical-product/join",
                "fell back to syntactic intersection",
            );
            return self.fallback_join(el, er);
        }
        // Figure 6, lines 1–4.
        let (pl, sl) = cai_obs::spanned!("join/split-left", self.split(el));
        if sl.bottom {
            return er.clone();
        }
        let (pr, sr) = cai_obs::spanned!("join/split-right", self.split(er));
        if sr.bottom {
            return el.clone();
        }
        // Line 5: V := {⟨x, y⟩ | x ∈ Vℓ ∪ Vars(Eℓ), y ∈ Vr ∪ Vars(Er)}.
        // Two pair variables whose components are provably equal on their
        // respective sides are interchangeable, so one pair per
        // (left-class, right-class) suffices — an exactness-preserving
        // reduction of the quadratic set.
        let mut lvars: VarSet = el.vars();
        lvars.extend(pl.fresh.iter().copied());
        let mut rvars: VarSet = er.vars();
        rvars.extend(pr.fresh.iter().copied());
        let considered = (lvars.len() * rvars.len()) as u64;
        self.stats.count(|c| c.pairs_considered += considered);
        let lreps = class_reps(&lvars, &sl.equalities);
        let rreps = class_reps(&rvars, &sr.equalities);
        // The pair-variable set is the quadratic heart of Figure 6 —
        // charge for what is actually generated (the deduplicated
        // class-pair set, not the raw |Vℓ|·|Vr| square), and degrade to
        // the syntactic join if the budget cannot afford it.
        let npairs = (lreps.len() * rreps.len()) as u64;
        if !self.budget.tick(npairs) {
            self.stats.count(|c| c.fallbacks += 1);
            self.budget.degrade("logical-product/join", {
                format!(
                    "pair-variable set of {}x{} classes exceeded the budget",
                    lreps.len(),
                    rreps.len()
                )
            });
            return self.fallback_join(el, er);
        }
        self.stats.count(|c| c.pairs_generated += npairs);
        let mut pair_vars = VarSet::new();
        let mut atoms_l: Vec<Atom> = Vec::new();
        let mut atoms_r: Vec<Atom> = Vec::new();
        for &x in &lreps {
            for &y in &rreps {
                let v = Var::fresh(&format!("<{},{}>", x.name(), y.name()));
                pair_vars.insert(v);
                // Lines 6–7: Eℓ2 := ⋀ x = ⟨x,y⟩ and Er2 := ⋀ y = ⟨x,y⟩,
                // met into both components of the respective side.
                atoms_l.push(Atom::var_eq(x, v));
                atoms_r.push(Atom::var_eq(y, v));
            }
        }
        let e1l = cai_obs::spanned!("join/meet-pairs-1l", self.d1.meet_all(&sl.left, &atoms_l));
        let e2l = cai_obs::spanned!("join/meet-pairs-2l", self.d2.meet_all(&sl.right, &atoms_l));
        let e1r = cai_obs::spanned!("join/meet-pairs-1r", self.d1.meet_all(&sr.left, &atoms_r));
        let e2r = cai_obs::spanned!("join/meet-pairs-2r", self.d2.meet_all(&sr.right, &atoms_r));
        // Lines 8–9: component joins (or widenings).
        let (j1, j2) = if widen {
            (
                cai_obs::spanned!("join/widen-1", self.d1.widen(&e1l, &e1r)),
                cai_obs::spanned!("join/widen-2", self.d2.widen(&e2l, &e2r)),
            )
        } else {
            (
                cai_obs::spanned!("join/join-1", self.d1.join(&e1l, &e1r)),
                cai_obs::spanned!("join/join-2", self.d2.join(&e2l, &e2r)),
            )
        };
        // Line 10: E := Q_{L1⋈L2}(E1 ∧ E2, V) — performed directly on the
        // joined component elements instead of re-purifying their mixed
        // presentation, skipping a purify + from_conj round-trip per join.
        let c1 = self.d1.to_conj(&j1);
        let c2 = self.d2.to_conj(&j2);
        // For overlapping signatures the old round-trip routed shared
        // atoms to both sides; re-absorb each presentation's atoms that
        // the *other* signature owns to keep that precision.
        let sig1 = self.d1.sig();
        let sig2 = self.d2.sig();
        let cross1: Vec<Atom> = c2.iter().filter(|a| sig1.owns_atom(a)).cloned().collect();
        let cross2: Vec<Atom> = c1.iter().filter(|a| sig2.owns_atom(a)).cloned().collect();
        let j1 = if cross1.is_empty() {
            j1
        } else {
            self.d1.meet_all(&j1, &cross1)
        };
        let j2 = if cross2.is_empty() {
            j2
        } else {
            self.d2.meet_all(&j2, &cross2)
        };
        let s = cai_obs::spanned!(
            "join/saturate",
            no_saturate_budgeted(&self.d1, j1, &self.d2, j2, &self.budget)
        );
        self.stats.count(|c| c.saturation_rounds += s.rounds as u64);
        if s.bottom {
            return self.bottom();
        }
        // The inputs' purification names must be eliminated along with the
        // pair variables: when the split cache hands both sides the same
        // name for a shared alien term, facts about it become two-sided
        // and would otherwise survive the join (uncached splits mint
        // distinct names, making such facts one-sided and join-dropped).
        pair_vars.extend(pl.fresh.iter().copied());
        pair_vars.extend(pr.fresh.iter().copied());
        // Prune eliminable variables occurring in neither presentation:
        // `Alternate` derives definitions from the element's facts, so an
        // unmentioned variable can appear in no definition, and its
        // component-wise quantification is the identity — dropping it up
        // front is exact.
        let mut occurring: VarSet = c1.vars();
        occurring.extend(c2.vars());
        let all_pairs = pair_vars.len();
        pair_vars.retain(|v| occurring.contains(v));
        let pruned = (all_pairs - pair_vars.len()) as u64;
        self.stats.count(|c| c.pairs_pruned += pruned);
        cai_obs::instant!(
            "join/sizes pairs={} pruned={} mixed_atoms={}",
            all_pairs,
            all_pairs - pair_vars.len(),
            c1.len() + c2.len()
        );
        if pair_vars.is_empty() {
            return c1.and(&c2);
        }
        let out = cai_obs::spanned!("join/eliminate", self.eliminate(&s, &pair_vars, "join"));
        // Safety net: the output may only mention the inputs' variables —
        // every pair variable and purification name must be gone. If a
        // component element carried a pruned variable that its
        // presentation omitted (a lossy `to_conj`), drop any atom still
        // mentioning one; for faithful presentations this never matches.
        let mut allowed: VarSet = el.vars();
        allowed.extend(er.vars());
        if out
            .iter()
            .all(|a| a.vars().iter().all(|v| allowed.contains(v)))
        {
            out
        } else {
            out.iter()
                .filter(|a| a.vars().iter().all(|v| allowed.contains(v)))
                .cloned()
                .collect()
        }
    }
}

impl<D1: AbstractDomain, D2: AbstractDomain> AbstractDomain for LogicalProduct<D1, D2> {
    /// Elements are conjunctions of mixed atomic facts, exactly as in
    /// Definition 2. Unsatisfiability is represented by any conjunction the
    /// saturation refutes (the canonical bottom is `0 = 1`).
    type Elem = Conj;

    fn sig(&self) -> Sig {
        self.d1.sig().union(&self.d2.sig())
    }

    fn props(&self) -> TheoryProps {
        let (p1, p2) = (self.d1.props(), self.d2.props());
        TheoryProps {
            convex: p1.convex && p2.convex,
            stably_infinite: p1.stably_infinite && p2.stably_infinite,
        }
    }

    fn top(&self) -> Conj {
        Conj::new()
    }

    fn bottom(&self) -> Conj {
        Conj::of(Atom::eq(Term::int(0), Term::int(1)))
    }

    fn is_bottom(&self, e: &Conj) -> bool {
        self.split(e).1.bottom
    }

    fn meet_atom(&self, e: &Conj, atom: &Atom) -> Conj {
        // The meet operator for L1 ⋈ L2 is simply conjunction (§4).
        self.budget.tick(1);
        let mut out = e.clone();
        out.push(atom.clone());
        out
    }

    fn implies_atom(&self, e: &Conj, atom: &Atom) -> bool {
        // Purify the element and the query with a shared purifier so that
        // common alien terms receive common names, NO-saturate, then decide
        // on the hosting component (Property 1).
        let mut purifier = Purifier::new(&self.d1.sig(), &self.d2.sig());
        purifier.add_conj(e);
        let (side, pure) = purifier.purify_atom(atom);
        let p = purifier.finish();
        let e1 = self.d1.from_conj(&p.left);
        let e2 = self.d2.from_conj(&p.right);
        let s = no_saturate_budgeted(&self.d1, e1, &self.d2, e2, &self.budget);
        if s.bottom {
            return true;
        }
        match side {
            AtomSide::Left => self.d1.implies_atom(&s.left, &pure),
            AtomSide::Right => self.d2.implies_atom(&s.right, &pure),
            AtomSide::Both => {
                self.d1.implies_atom(&s.left, &pure) || self.d2.implies_atom(&s.right, &pure)
            }
        }
    }

    fn join(&self, a: &Conj, b: &Conj) -> Conj {
        self.join_impl(a, b, false)
    }

    fn exists(&self, e: &Conj, vars: &VarSet) -> Conj {
        self.stats.count(|c| c.exists_ops += 1);
        if self.budget.is_exhausted() {
            self.stats.count(|c| c.fallbacks += 1);
            self.budget.degrade(
                "logical-product/exists",
                "fell back to syntactic projection",
            );
            return Self::fallback_exists(e, vars);
        }
        // Figure 7, left-hand algorithm.
        let (p, s) = cai_obs::spanned!("exists/split", self.split(e));
        if s.bottom {
            return self.bottom();
        }
        // Line 3: V1 := V0 ∪ V — restricted to the variables that occur in
        // `e`. A variable absent from the element can receive no
        // definition, and quantifying it component-wise is the identity,
        // so dropping it up front is exact.
        let evars = e.vars();
        let requested = vars.len();
        let mut v1: VarSet = vars.iter().copied().filter(|v| evars.contains(v)).collect();
        let pruned = (requested - v1.len()) as u64;
        self.stats.count(|c| c.pairs_pruned += pruned);
        v1.extend(p.fresh.iter().copied());
        if v1.is_empty() {
            return e.clone();
        }
        self.eliminate(&s, &v1, "exists")
    }

    /// Batched implication: purify and saturate `a` once, then decide every
    /// atom of `b` against the shared saturated split.
    fn le(&self, a: &Conj, b: &Conj) -> bool {
        let mut purifier = Purifier::new(&self.d1.sig(), &self.d2.sig());
        purifier.add_conj(a);
        let queries: Vec<(AtomSide, Atom)> =
            b.iter().map(|atom| purifier.purify_atom(atom)).collect();
        let p = purifier.finish();
        let e1 = self.d1.from_conj(&p.left);
        let e2 = self.d2.from_conj(&p.right);
        let s = no_saturate_budgeted(&self.d1, e1, &self.d2, e2, &self.budget);
        if s.bottom {
            return true;
        }
        queries.into_iter().all(|(side, pure)| match side {
            AtomSide::Left => self.d1.implies_atom(&s.left, &pure),
            AtomSide::Right => self.d2.implies_atom(&s.right, &pure),
            AtomSide::Both => {
                self.d1.implies_atom(&s.left, &pure) || self.d2.implies_atom(&s.right, &pure)
            }
        })
    }

    fn var_equalities(&self, e: &Conj) -> Partition {
        let s = self.split(e).1;
        if s.bottom {
            return Partition::new();
        }
        s.equalities.restrict(&e.vars())
    }

    fn alternate(&self, e: &Conj, y: Var, avoid: &VarSet) -> Option<Term> {
        // Reduce to the combined quantification operator: name `y` with a
        // fresh variable `z`, eliminate `avoid ∪ {y}`, and look for a
        // definition of `z` in the result.
        let z = Var::fresh("alt");
        let mut ez = e.clone();
        ez.push(Atom::var_eq(z, y));
        let mut elim = avoid.clone();
        elim.insert(y);
        elim.remove(&z);
        let r = self.exists(&ez, &elim);
        let zt = Term::var(z);
        for atom in &r {
            if let Atom::Eq(s, t) = atom {
                if s == &zt && !t.vars().contains(&z) {
                    return Some(t.clone());
                }
                if t == &zt && !s.vars().contains(&z) {
                    return Some(s.clone());
                }
            }
        }
        None
    }

    fn widen(&self, a: &Conj, b: &Conj) -> Conj {
        self.join_impl(a, b, true)
    }

    fn narrow(&self, _a: &Conj, b: &Conj) -> Conj {
        // Descending-iteration narrowing: adopt the descended iterate.
        // The engine calls this with `b ⊑ a`, re-verifies the bracket and
        // inductiveness before adopting the result, and bounds the rounds
        // by its own fuel slice — so taking `b` recovers every fact the
        // widened join dropped without risking termination or soundness.
        b.clone()
    }

    fn to_conj(&self, e: &Conj) -> Conj {
        e.clone()
    }

    fn from_conj(&self, c: &Conj) -> Conj {
        c.clone()
    }
}
