//! Cache configuration and the sub-structural term memo.
//!
//! The stack keeps two memo tables, the logical product's
//! [`SplitCache`](crate::logical::SplitCache) and the driver's summary
//! cache. Both keep one contract:
//!
//! - **verified hits**: keys are fingerprinted for the table, but a hit is
//!   returned only after comparing the stored key, so a fingerprint
//!   collision reads as a miss, never as a wrong value;
//! - **degraded values are never stored**: a split computed under a
//!   starved budget, or a quarantined summary, is returned but not kept,
//!   so it cannot poison a later, better-funded run.
//!
//! Only the split cache has a capacity: a full table is cleared wholesale
//! to make room (the working sets are small and cyclic, so no per-entry
//! bookkeeping is kept), and capacity 0 disables it. The summary cache
//! holds exactly the procedures of the last module it was run on.
//!
//! Their counts are outputs of the run that made them: split-cache hits,
//! misses, skips and evictions in the product's `JoinStats`, summary reuse
//! in the driver's `ModuleAnalysis::{reused, recomputed}`, and rejected or
//! skipped summaries as events on the run's budget.
//!
//! This module holds [`CacheConfig`], the split cache's capacities, and
//! [`TermMemo`], the sub-structural layer beneath
//! the split cache — a [`cai_term::PurifyMemo`] keyed per canonicalized
//! alien term (via `cai_term::fingerprint`), so two conjunctions sharing
//! alien terms share their purification work and their fresh names.
//! Stable names are what make *partial hits* possible: a cached split of
//! `E ⊆ E'` can be resumed on the delta `E' \ E` instead of
//! re-saturating from scratch.

use cai_term::{PurifyMemo, Term, TermSplit, Var};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default capacity of the per-alien-term memo (entries, not bytes).
pub const DEFAULT_TERM_MEMO_CAPACITY: usize = 4096;

/// The capacities of a [`SplitCache`](crate::logical::SplitCache) and its
/// term memo, taken by `SplitCache::with_config` and
/// `LogicalProduct::with_cache_config`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Whole-conjunction split-cache capacity; 0 disables split caching
    /// entirely (including the sub-structural layer).
    pub split_capacity: usize,
    /// Per-alien-term memo capacity; 0 disables the sub-structural layer
    /// (the split cache then degenerates to the whole-conjunction memo).
    pub term_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            split_capacity: crate::logical::DEFAULT_SPLIT_CACHE_CAPACITY,
            term_capacity: DEFAULT_TERM_MEMO_CAPACITY,
        }
    }
}

impl CacheConfig {
    /// A configuration with split caching disabled — the uncached
    /// baseline used by A/B measurements.
    pub fn disabled() -> CacheConfig {
        CacheConfig {
            split_capacity: 0,
            term_capacity: 0,
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
/// alien term, consulted by the purifier for every alien term through
/// [`cai_term::PurifyMemo`].
///
/// Cloning shares the underlying tables — the blessed way to share the
/// memo across products, rounds, and threads.
#[derive(Clone)]
pub struct TermMemo {
    inner: Arc<Mutex<TermMemoInner>>,
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
        TermMemo {
            inner: Arc::new(Mutex::new(TermMemoInner {
                names: BTreeMap::new(),
                splits: HashMap::new(),
                capacity,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TermMemoInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The payload capacity (0 means the payload table is disabled).
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// The number of distinct alien terms ever named.
    pub fn names_len(&self) -> usize {
        self.lock().names.len()
    }

    /// Drops every memoized split but **keeps the name map** (names must
    /// survive any eviction — see the field docs).
    pub fn clear_payloads(&self) {
        self.lock().splits.clear();
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
        self.lock()
            .splits
            .get(&fp)
            .filter(|s| s.entries.last().is_some_and(|d| d.term == *t))
            .cloned()
    }

    fn store(&self, fp: u64, _t: &Term, split: &TermSplit) {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        if inner.splits.len() >= inner.capacity && !inner.splits.contains_key(&fp) {
            inner.splits.clear();
        }
        inner.splits.insert(fp, split.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split_of(t: &Term, name: Var) -> TermSplit {
        TermSplit {
            entries: vec![cai_term::TermDef {
                term: t.clone(),
                name,
                side: cai_term::Side::Left,
                pure: t.clone(),
            }],
        }
    }

    #[test]
    fn term_memo_names_survive_payload_eviction() {
        let memo = TermMemo::with_capacity(1);
        let t1 = Term::int(1);
        let t2 = Term::int(2);
        let n1 = memo.name_for(&t1);
        PurifyMemo::store(&memo, t1.fingerprint(), &t1, &split_of(&t1, n1));
        assert!(PurifyMemo::lookup(&memo, t1.fingerprint(), &t1).is_some());
        // A second term evicts the payload table (capacity 1, ClearAll)…
        let n2 = memo.name_for(&t2);
        PurifyMemo::store(&memo, t2.fingerprint(), &t2, &split_of(&t2, n2));
        assert!(PurifyMemo::lookup(&memo, t1.fingerprint(), &t1).is_none());
        assert!(PurifyMemo::lookup(&memo, t2.fingerprint(), &t2).is_some());
        // …but the names are stable forever.
        assert_eq!(memo.name_for(&t1), n1);
        assert_eq!(memo.name_for(&t2), n2);
    }
}
