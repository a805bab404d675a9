//! [`CounterFamily`]: a fixed block of named atomic counters.
//!
//! `JoinStats`, `CtxStats` and `SupStats` used to be three copy-pasted
//! `Arc<Inner-of-AtomicU64s>` structs, each re-implementing `bump`,
//! `snapshot`, `absorb` and a `k=v` `Display`. A family is that pattern,
//! once: a `&'static` name slice plus an `Arc`-shared slab of atomics.
//! Facades keep their public snapshot structs and build them from
//! [`CounterFamily::values`].
//!
//! `absorb` keeps the transactional commit semantics the supervisor relies
//! on: counters accumulated in a scratch family are folded into a parent
//! family in one call, so a failed dispatch can simply drop its scratch and
//! contribute nothing.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fixed-name block of atomic counters with cheap `Arc`-shared handles.
///
/// Cloning shares the underlying cells; two clones observe each other's
/// increments. Indices out of range are ignored (counting must never panic).
#[derive(Clone, Debug)]
pub struct CounterFamily {
    names: &'static [&'static str],
    cells: Arc<[AtomicU64]>,
}

impl CounterFamily {
    /// A zeroed family with one cell per name.
    #[must_use]
    pub fn new(names: &'static [&'static str]) -> CounterFamily {
        let cells: Arc<[AtomicU64]> = (0..names.len()).map(|_| AtomicU64::new(0)).collect();
        CounterFamily { names, cells }
    }

    /// Add `n` to counter `idx`. Out-of-range indices are ignored.
    #[inline]
    pub fn add(&self, idx: usize, n: u64) {
        if let Some(cell) = self.cells.get(idx) {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one to counter `idx`.
    #[inline]
    pub fn bump(&self, idx: usize) {
        self.add(idx, 1);
    }

    /// Current value of counter `idx` (0 when out of range).
    #[must_use]
    pub fn get(&self, idx: usize) -> u64 {
        self.cells.get(idx).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Current values of all counters, in cell order.
    #[must_use]
    pub fn values(&self) -> Vec<u64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Fold `other`'s current values into `self` (transactional commit).
    ///
    /// The caller accumulates into a scratch family and absorbs it only on
    /// success; dropping the scratch instead contributes nothing.
    pub fn absorb(&self, other: &CounterFamily) {
        for (idx, cell) in other.cells.iter().enumerate() {
            self.add(idx, cell.load(Ordering::Relaxed));
        }
    }

    /// Point-in-time copy of names and values.
    #[must_use]
    pub fn snapshot(&self) -> FamilySnapshot {
        FamilySnapshot {
            names: self.names,
            values: self.values(),
        }
    }
}

/// Point-in-time values of a [`CounterFamily`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilySnapshot {
    names: &'static [&'static str],
    values: Vec<u64>,
}

impl FamilySnapshot {
    /// Counter value by cell index (0 when out of range).
    #[must_use]
    pub fn get(&self, idx: usize) -> u64 {
        self.values.get(idx).copied().unwrap_or(0)
    }

    /// `(name, value)` pairs in cell order.
    pub fn pairs(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.names.iter().copied().zip(self.values.iter().copied())
    }
}

impl fmt::Display for FamilySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_kv(f, self.pairs())
    }
}

/// Render `(name, value)` pairs as the stack's conventional one-line
/// `k=v k=v …` form (shared by the stats facades' `Display` impls).
pub fn write_kv(
    f: &mut fmt::Formatter<'_>,
    pairs: impl IntoIterator<Item = (&'static str, u64)>,
) -> fmt::Result {
    for (i, (name, value)) in pairs.into_iter().enumerate() {
        if i > 0 {
            f.write_str(" ")?;
        }
        write!(f, "{name}={value}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["alpha", "beta", "gamma"];

    #[test]
    fn clones_share_cells() {
        let fam = CounterFamily::new(NAMES);
        let other = fam.clone();
        fam.bump(0);
        other.add(0, 2);
        assert_eq!(fam.get(0), 3);
        assert_eq!(other.get(0), 3);
    }

    #[test]
    fn out_of_range_is_ignored() {
        let fam = CounterFamily::new(NAMES);
        fam.add(99, 5);
        assert_eq!(fam.get(99), 0);
        assert_eq!(fam.values(), vec![0, 0, 0]);
    }

    #[test]
    fn absorb_is_additive() {
        let parent = CounterFamily::new(NAMES);
        parent.add(1, 10);
        let scratch = CounterFamily::new(NAMES);
        scratch.add(1, 5);
        scratch.bump(2);
        parent.absorb(&scratch);
        assert_eq!(parent.values(), vec![0, 15, 1]);
        // Dropping a scratch without absorbing contributes nothing.
        let dropped = CounterFamily::new(NAMES);
        dropped.add(0, 7);
        drop(dropped);
        assert_eq!(parent.get(0), 0);
    }

    #[test]
    fn snapshot_diff_and_display() {
        let fam = CounterFamily::new(NAMES);
        fam.add(0, 4);
        let before = fam.snapshot();
        fam.add(0, 6);
        fam.bump(2);
        let after = fam.snapshot();
        // A snapshot is a copy: later bumps show in a new one only.
        assert_ne!(before, after);
        assert_eq!(before.to_string(), "alpha=4 beta=0 gamma=0");
        assert_eq!(after.to_string(), "alpha=10 beta=0 gamma=1");
        assert_eq!(after.get(2), 1);
        assert_eq!(after.get(99), 0);
    }
}
