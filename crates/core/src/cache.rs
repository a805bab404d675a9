//! The unified cache API shared by every memo table in the stack.
//!
//! Before this module, the two caches — the logical product's
//! [`SplitCache`](crate::logical::SplitCache) and the driver's summary
//! cache — each grew their own builder surface, counters, and invalidation
//! conventions. This module is the single vocabulary both speak:
//!
//! - [`Cache`]: keyed insert/lookup with verified hits, a capacity (a full
//!   table is cleared wholesale), degradation-aware invalidation (a value
//!   computed under a starved budget is returned but never stored), an
//!   FNV [`checksum`](Cache::checksum) hook for integrity audits, and
//!   [`CacheStats`] built on [`cai_obs::CounterFamily`];
//! - [`CacheConfig`]: the one knob block threaded through
//!   `AnalysisConfig`, replacing the per-cache builder methods. Its
//!   [`fingerprint`](CacheConfig::fingerprint) participates in
//!   invalidation: reconfiguring a cache with a different fingerprint
//!   clears derived entries, exactly as the driver's `config_fingerprint`
//!   clears summaries when the context cap changes;
//! - [`TermMemo`]: the sub-structural layer beneath the split cache — a
//!   [`cai_term::PurifyMemo`] keyed per canonicalized alien term (via
//!   `cai_term::fingerprint`), so two conjunctions sharing alien terms
//!   share their purification work and their fresh names. Stable names are
//!   what make *partial hits* possible: a cached split of `E ⊆ E'` can be
//!   resumed on the delta `E' \ E` instead of re-saturating from scratch.

use cai_obs::{CounterFamily, FamilySnapshot};
use cai_term::{fingerprint, PurifyMemo, Term, TermSplit, Var};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// [`CacheStats`] counter names, in cell order (indices in [`cs`]).
pub const CACHE_COUNTERS: &[&str] = &[
    "hits",
    "misses",
    "partial_hits",
    "skips",
    "evictions",
    "invalidations",
    "corruptions",
    "term_hits",
    "term_misses",
];

/// Cell indices into [`CACHE_COUNTERS`].
pub mod cs {
    /// Lookups answered verbatim from the cache.
    pub const HITS: usize = 0;
    /// Lookups that computed from scratch.
    pub const MISSES: usize = 1;
    /// Lookups answered by resuming from a sub-structural base entry.
    pub const PARTIAL_HITS: usize = 2;
    /// Computed values *not* stored because they were budget-degraded.
    pub const SKIPS: usize = 3;
    /// Entries dropped to make room (or because their inputs changed).
    pub const EVICTIONS: usize = 4;
    /// Wholesale clears due to a configuration-fingerprint change.
    pub const INVALIDATIONS: usize = 5;
    /// Entries rejected by a checksum integrity audit.
    pub const CORRUPTIONS: usize = 6;
    /// Per-alien-term memo lookups answered from the memo.
    pub const TERM_HITS: usize = 7;
    /// Per-alien-term memo lookups that recomputed.
    pub const TERM_MISSES: usize = 8;
}

/// Shared observability counters for a [`Cache`] — a thin facade over a
/// [`cai_obs::CounterFamily`]. Cloning shares the underlying cells, so one
/// `CacheStats` can aggregate over every handle to a shared cache.
#[derive(Clone, Debug)]
pub struct CacheStats {
    fam: CounterFamily,
}

impl Default for CacheStats {
    fn default() -> CacheStats {
        CacheStats {
            fam: CounterFamily::new(CACHE_COUNTERS),
        }
    }
}

impl CacheStats {
    /// Fresh counters, all zero.
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// Add `n` to the counter at [`cs`] index `idx`.
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        self.fam.add(idx, n);
    }

    /// Add one to the counter at [`cs`] index `idx`.
    #[inline]
    pub fn bump(&self, idx: usize) {
        self.fam.bump(idx);
    }

    /// Current value of the counter at [`cs`] index `idx`.
    pub fn get(&self, idx: usize) -> u64 {
        self.fam.get(idx)
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> FamilySnapshot {
        self.fam.snapshot()
    }

    /// Whole-value hits as a fraction of all lookups (partial hits count
    /// as neither full hits nor misses in the numerator's favor).
    pub fn hit_rate(&self) -> f64 {
        let snap = self.snapshot();
        let hits = snap.get(cs::HITS);
        let total = hits + snap.get(cs::PARTIAL_HITS) + snap.get(cs::MISSES);
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                hits as f64 / total as f64
            }
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Default capacity of the per-alien-term memo (entries, not bytes).
pub const DEFAULT_TERM_MEMO_CAPACITY: usize = 4096;

/// Default capacity of the driver's summary cache (entries per procedure
/// name; effectively unbounded for realistic modules, but declared so
/// eviction has a trigger).
pub const DEFAULT_SUMMARY_CACHE_CAPACITY: usize = 4096;

/// The one configuration block for every cache in the stack, threaded
/// through `AnalysisConfig`. [`CacheConfig::default`] reproduces the
/// pre-redesign behavior of all caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Whole-conjunction split-cache capacity; 0 disables split caching
    /// entirely (including the sub-structural layer).
    pub split_capacity: usize,
    /// Per-alien-term memo capacity; 0 disables the sub-structural layer
    /// (the split cache then degenerates to the whole-conjunction memo).
    pub term_capacity: usize,
    /// Driver summary-cache capacity (procedure summaries).
    pub summary_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            split_capacity: crate::logical::DEFAULT_SPLIT_CACHE_CAPACITY,
            term_capacity: DEFAULT_TERM_MEMO_CAPACITY,
            summary_capacity: DEFAULT_SUMMARY_CACHE_CAPACITY,
        }
    }
}

impl CacheConfig {
    /// A configuration with every cache disabled — the uncached baseline
    /// used by A/B measurements.
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            split_capacity: 0,
            term_capacity: 0,
            summary_capacity: 0,
        }
    }

    /// The whole-conjunction memo alone, with the sub-structural layer
    /// off — the pre-redesign split cache, used as the A/B midpoint.
    pub fn whole_only() -> CacheConfig {
        CacheConfig {
            term_capacity: 0,
            ..CacheConfig::default()
        }
    }

    /// An FNV fingerprint of the configuration. Caches remember the
    /// fingerprint they were built with; reconfiguring with a different
    /// one invalidates derived entries (see `SplitCache::reconfigure`),
    /// exactly as the driver's `config_fingerprint` invalidates summaries
    /// when the context cap changes.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(self)
    }
}

/// The outcome of a [`Cache::store`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The value was stored.
    Stored,
    /// The value was stored after the table was cleared to make room.
    StoredEvicting,
    /// The value was computed under a degraded budget and deliberately not
    /// stored (degradation-aware invalidation: a starved round must not
    /// poison a later, better-funded one).
    SkippedDegraded,
    /// The cache is disabled (capacity 0); nothing was stored.
    Disabled,
}

/// The common surface of the stack's memo tables (the logical product's
/// split cache, the driver's summary cache, the per-alien-term memo).
///
/// Contract, shared by every implementation:
///
/// - **Verified hits**: keys are fingerprinted for the table, but a hit is
///   only returned after comparing the stored key — a fingerprint
///   collision reads as a miss, never as a wrong value.
/// - **Degradation-aware invalidation**: `store(…, degraded = true)` must
///   not persist the value ([`StoreOutcome::SkippedDegraded`]).
/// - **Capacity + eviction**: a full table is cleared wholesale to make
///   room — the stack's working sets are small and cyclic (fixpoint
///   rounds revisit the same conjunctions; a module's procedure set is
///   fixed), so a fixpoint's working set repopulates in one round and no
///   per-entry bookkeeping is kept; capacity 0 disables storage.
/// - **Checksum hook**: [`checksum`](Cache::checksum) is an FNV digest of
///   the table's keys, for cheap identity/integrity audits (two handles to
///   the same logical cache agree; a snapshot can be diffed later).
///
/// Lookup takes `&self` and store takes `&mut self` so that both
/// interior-mutable (`Arc`-shared) and plainly-owned tables can implement
/// the trait; the `Arc`-shared implementations also expose `&self` inherent
/// methods, which shared-cache call sites use directly.
pub trait Cache {
    /// The lookup key.
    type Key;
    /// The cached value.
    type Value;

    /// A verified lookup: `Some` only if the stored key equals `key`.
    fn lookup(&self, key: &Self::Key) -> Option<Self::Value>;

    /// Offers a value; `degraded = true` values are never stored.
    fn store(&mut self, key: Self::Key, value: Self::Value, degraded: bool) -> StoreOutcome;

    /// Drops the entry for `key`, if present.
    fn invalidate(&mut self, key: &Self::Key) -> bool;

    /// Drops every entry.
    fn clear(&mut self);

    /// The number of stored entries.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity (0 means storage is disabled).
    fn capacity(&self) -> usize;

    /// The cache's shared counters.
    fn stats(&self) -> &CacheStats;

    /// An FNV digest of the stored keys (order-independent).
    fn checksum(&self) -> u64;
}

/// Folds an iterator of per-entry digests into one order-independent
/// checksum (addition is commutative, so iteration order cannot matter).
pub fn fold_checksum(digests: impl Iterator<Item = u64>) -> u64 {
    let mut acc = 0u64;
    for d in digests {
        // Mix each digest before folding so that permuting *which* key
        // carries which digest still changes the sum.
        acc = acc.wrapping_add(fingerprint(&d));
    }
    acc
}

struct TermMemoInner {
    /// Stable fresh names, one per alien term ever seen. **Never
    /// evicted**: cached saturated elements mention these names, so a
    /// renamed term would leak stale variables into resumed splits.
    /// Names are two machine words per term; the map stays tiny.
    names: BTreeMap<Term, Var>,
    /// The replayable splits, keyed by term fingerprint and verified
    /// against the stored term on every hit. Capacity-bounded; dropping
    /// payloads is always safe because names persist (a recomputed split
    /// is bit-identical to the dropped one).
    splits: HashMap<u64, TermSplit>,
    capacity: usize,
}

/// The sub-structural memo: purification splits keyed per canonicalized
/// alien term. Implements [`cai_term::PurifyMemo`] (consulted by the
/// purifier for every alien term) and [`Cache`] (the unified surface).
///
/// Cloning shares the underlying tables — the blessed way to share the
/// memo across products, rounds, and threads.
#[derive(Clone)]
pub struct TermMemo {
    inner: Arc<Mutex<TermMemoInner>>,
    stats: CacheStats,
}

impl fmt::Debug for TermMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("TermMemo")
            .field("names", &inner.names.len())
            .field("splits", &inner.splits.len())
            .field("capacity", &inner.capacity)
            .finish()
    }
}

impl Default for TermMemo {
    fn default() -> TermMemo {
        TermMemo::with_capacity(DEFAULT_TERM_MEMO_CAPACITY)
    }
}

impl TermMemo {
    /// A memo holding at most `capacity` splits; 0 disables the payload
    /// table (names are still minted stably when consulted).
    pub fn with_capacity(capacity: usize) -> TermMemo {
        TermMemo::with_capacity_and_stats(capacity, CacheStats::new())
    }

    /// Like [`with_capacity`](TermMemo::with_capacity), counting into the
    /// given (shared) stats — how the split cache and its term memo report
    /// through one [`CacheStats`].
    pub fn with_capacity_and_stats(capacity: usize, stats: CacheStats) -> TermMemo {
        TermMemo {
            inner: Arc::new(Mutex::new(TermMemoInner {
                names: BTreeMap::new(),
                splits: HashMap::new(),
                capacity,
            })),
            stats,
        }
    }

    fn lock(&self) -> MutexGuard<'_, TermMemoInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The number of distinct alien terms ever named.
    pub fn names_len(&self) -> usize {
        self.lock().names.len()
    }

    /// Drops every memoized split but **keeps the name map** (names must
    /// survive any eviction — see the field docs). Used by capacity
    /// eviction and configuration invalidation alike.
    pub fn clear_payloads(&self) {
        self.lock().splits.clear();
    }

    /// Changes the payload capacity, clearing the payload table.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        inner.splits.clear();
    }
}

impl PurifyMemo for TermMemo {
    fn name_for(&self, t: &Term) -> Var {
        let mut inner = self.lock();
        if let Some(&v) = inner.names.get(t) {
            return v;
        }
        // Minted under the lock so concurrent purifiers agree on the name.
        let v = Var::fresh("t");
        inner.names.insert(t.clone(), v);
        v
    }

    fn lookup(&self, fp: u64, t: &Term) -> Option<TermSplit> {
        let inner = self.lock();
        let hit = inner
            .splits
            .get(&fp)
            .filter(|s| s.entries.last().is_some_and(|d| d.term == *t))
            .cloned();
        drop(inner);
        if hit.is_some() {
            self.stats.bump(cs::TERM_HITS);
        } else {
            self.stats.bump(cs::TERM_MISSES);
        }
        hit
    }

    fn store(&self, fp: u64, _t: &Term, split: &TermSplit) {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        if inner.splits.len() >= inner.capacity && !inner.splits.contains_key(&fp) {
            inner.splits.clear();
            drop(inner);
            self.stats.bump(cs::EVICTIONS);
            inner = self.lock();
        }
        inner.splits.insert(fp, split.clone());
    }
}

impl Cache for TermMemo {
    type Key = Term;
    type Value = TermSplit;

    fn lookup(&self, key: &Term) -> Option<TermSplit> {
        PurifyMemo::lookup(self, key.fingerprint(), key)
    }

    fn store(&mut self, key: Term, value: TermSplit, degraded: bool) -> StoreOutcome {
        if degraded {
            self.stats.bump(cs::SKIPS);
            return StoreOutcome::SkippedDegraded;
        }
        if self.capacity() == 0 {
            return StoreOutcome::Disabled;
        }
        let before = self.stats.get(cs::EVICTIONS);
        PurifyMemo::store(self, key.fingerprint(), &key, &value);
        if self.stats.get(cs::EVICTIONS) > before {
            StoreOutcome::StoredEvicting
        } else {
            StoreOutcome::Stored
        }
    }

    fn invalidate(&mut self, key: &Term) -> bool {
        self.lock().splits.remove(&key.fingerprint()).is_some()
    }

    fn clear(&mut self) {
        self.clear_payloads();
    }

    fn len(&self) -> usize {
        self.lock().splits.len()
    }

    fn capacity(&self) -> usize {
        self.lock().capacity
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn checksum(&self) -> u64 {
        fold_checksum(self.lock().splits.keys().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_fingerprint_distinguishes_fields() {
        let base = CacheConfig::default();
        let mut caps = base;
        caps.split_capacity += 1;
        let mut term = base;
        term.term_capacity = 0;
        assert_ne!(base.fingerprint(), caps.fingerprint());
        assert_ne!(base.fingerprint(), term.fingerprint());
        assert_eq!(base.fingerprint(), CacheConfig::default().fingerprint());
    }

    #[test]
    fn fold_checksum_is_order_independent() {
        let a = fold_checksum([1u64, 2, 3].into_iter());
        let b = fold_checksum([3u64, 1, 2].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, fold_checksum([1u64, 2].into_iter()));
    }

    #[test]
    fn term_memo_names_survive_payload_eviction() {
        let memo = TermMemo::with_capacity(1);
        let t1 = Term::int(1);
        let t2 = Term::int(2);
        let n1 = memo.name_for(&t1);
        let s1 = TermSplit {
            entries: vec![cai_term::TermDef {
                term: t1.clone(),
                name: n1,
                side: cai_term::Side::Left,
                pure: t1.clone(),
            }],
        };
        PurifyMemo::store(&memo, t1.fingerprint(), &t1, &s1);
        assert_eq!(Cache::len(&memo), 1);
        // A second term evicts the payload table (capacity 1, ClearAll)…
        let n2 = memo.name_for(&t2);
        let s2 = TermSplit {
            entries: vec![cai_term::TermDef {
                term: t2.clone(),
                name: n2,
                side: cai_term::Side::Left,
                pure: t2.clone(),
            }],
        };
        PurifyMemo::store(&memo, t2.fingerprint(), &t2, &s2);
        assert!(PurifyMemo::lookup(&memo, t1.fingerprint(), &t1).is_none());
        // …but the names are stable forever.
        assert_eq!(memo.name_for(&t1), n1);
        assert_eq!(memo.name_for(&t2), n2);
        assert_eq!(memo.stats().get(cs::EVICTIONS), 1);
    }
}
