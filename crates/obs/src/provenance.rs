//! Precision provenance: where, and why, precision was given up.
//!
//! The combination operators trade precision for termination at many
//! distinct sites — widenings, budget degradations, context-cap
//! overflows, quarantines, skipped cache stores, defective Alternate
//! operators — and the driver's supervisor absorbs engine faults
//! (panics, stalls, corrupted cache entries). Each occurrence is one
//! [`Event`]: its [`LossKind`], scope (procedure / loop), site string,
//! detail, logical round, and the fuel spent when it happened.
//!
//! Events are recorded in exactly one place, `cai_core::Budget::record`,
//! which keeps them on the run's budget and stamps each with the scope
//! labels and logical round open on that budget (`Budget::scope`,
//! `Budget::set_round`). This module supplies the record itself, the kind
//! taxonomy, and the [`BlameTable`] fold that ranks events per
//! `(scope, site, kind)`.
//!
//! Determinism:
//!
//! 1. **Logical rounds only.** Events carry fixpoint, Jacobi or
//!    narrowing round numbers, never wall clock.
//! 2. **Schedule-free labels.** Scopes live on the run's budget, and
//!    every driver job has a budget slice of its own, so the labels a run
//!    produces do not depend on which worker thread ran which job.
//! 3. **Commutative fold.** A `(scope, site, kind)` key maps to a count,
//!    a fuel total and a round span, all order-independent, so merging
//!    per-job tables gives the same table at every thread count.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::escape_metric_name;

/// What an [`Event`] records. Every variant has a stable string name
/// ([`LossKind::as_str`]), shared by blame reports and JSON exports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum LossKind {
    /// A loop fixpoint applied the widening operator.
    Widen,
    /// A governed operation substituted a sound over-approximation.
    BudgetDegrade,
    /// The post-widening narrowing pass could not recover: it stopped
    /// early, did not descend, produced an out-of-bracket candidate, or
    /// failed the inductiveness re-check.
    NarrowFailed,
    /// The per-procedure context cap overflowed; entry contexts were
    /// widened together.
    CtxCapOverflow,
    /// A procedure exhausted its retry allowance and was pinned to the
    /// sound ⊤ summary.
    Quarantine,
    /// A computed value was not cached because it was produced under a
    /// degraded budget — later rounds pay the recomputation.
    CacheSkippedDegraded,
    /// A defective Alternate operator was skipped during Q-saturation,
    /// dropping the cross-domain definition it would have transferred.
    AlternateSkipped,
    /// A procedure analysis panicked and was caught at the supervision
    /// boundary.
    Panic,
    /// The straggler watchdog fired and exhausted a job's budget slice.
    Stall,
    /// A cached summary failed its checksum and was rejected (then
    /// recomputed).
    CacheCorruption,
}

impl LossKind {
    /// Every kind, for coverage checks.
    pub const ALL: [LossKind; 10] = [
        LossKind::Widen,
        LossKind::BudgetDegrade,
        LossKind::NarrowFailed,
        LossKind::CtxCapOverflow,
        LossKind::Quarantine,
        LossKind::CacheSkippedDegraded,
        LossKind::AlternateSkipped,
        LossKind::Panic,
        LossKind::Stall,
        LossKind::CacheCorruption,
    ];

    /// The stable string name used in reports and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            LossKind::Widen => "widen",
            LossKind::BudgetDegrade => "budget-degrade",
            LossKind::NarrowFailed => "narrow-failed",
            LossKind::CtxCapOverflow => "ctx-cap-overflow",
            LossKind::Quarantine => "quarantine",
            LossKind::CacheSkippedDegraded => "cache-skipped-degraded",
            LossKind::AlternateSkipped => "alternate-skipped",
            LossKind::Panic => "panic",
            LossKind::Stall => "stall",
            LossKind::CacheCorruption => "cache-corruption",
        }
    }

    /// Whether an event of this kind means a result was replaced by an
    /// over-approximation, so the recording budget reports itself
    /// degraded. A widening, a capped context, a skipped cache store, a
    /// caught panic (its retry may still be exact) or a rejected cache
    /// entry (it is recomputed) do not.
    pub fn degrades(&self) -> bool {
        matches!(
            self,
            LossKind::BudgetDegrade
                | LossKind::AlternateSkipped
                | LossKind::Quarantine
                | LossKind::Stall
                | LossKind::NarrowFailed
        )
    }

    /// Whether this kind is an engine fault the supervision layer
    /// absorbed — the history that damps a procedure's scheduling weight.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            LossKind::Panic | LossKind::Stall | LossKind::Quarantine | LossKind::CacheCorruption
        )
    }
}

impl fmt::Display for LossKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The domain path a site belongs to, from the site-string prefix
/// convention (`logical-product/…`, `analyzer/…`, `driver/…`).
fn domain_for_site(site: &str) -> &'static str {
    match site.split('/').next() {
        Some("logical-product") => "logical",
        Some("analyzer") => "interp",
        Some("driver") => "driver",
        _ => "core",
    }
}

/// One recorded precision loss or absorbed fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: LossKind,
    /// `/`-joined scope labels, outermost first (e.g. `big/loop#0`), or
    /// `(top)` outside any scope. Empty until the event is recorded,
    /// unless [`scoped`](Event::scoped) named it.
    pub scope: String,
    /// The stable site string (e.g. `analyzer/while`); its prefix names
    /// the domain.
    pub site: &'static str,
    /// What was given up, or the fault's diagnostics.
    pub detail: Cow<'static, str>,
    /// The logical round the event happened in (0 outside a fixpoint).
    pub round: u64,
    /// Ticks the recording budget had spent, stamped when recorded.
    pub fuel: u64,
}

impl Event {
    /// An event whose scope and logical round the recording budget
    /// stamps: the scope path and round open on it when it is recorded.
    pub fn new(kind: LossKind, site: &'static str, detail: impl Into<Cow<'static, str>>) -> Event {
        Event {
            kind,
            scope: String::new(),
            site,
            detail: detail.into(),
            round: 0,
            fuel: 0,
        }
    }

    /// Attributes the event to `scope` (non-empty) at round 0, whatever
    /// scope is open when it is recorded — for events raised for a
    /// procedure from outside its own scope (quarantines, stalls, cache
    /// traffic, context-cap overflows).
    #[must_use]
    pub fn scoped(self, scope: &str) -> Event {
        Event {
            scope: scope.to_string(),
            round: 0,
            ..self
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} ({}): {}",
            self.kind, self.scope, self.site, self.detail
        )
    }
}

/// One aggregated row of a [`BlameTable`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlameEntry {
    /// `/`-joined scope labels, outermost first.
    pub scope: String,
    /// The loss site.
    pub site: &'static str,
    /// The domain path of the site (e.g. `logical`, `interp`, `driver`).
    pub domain: &'static str,
    /// Why the facts were lost.
    pub kind: LossKind,
    /// How many events aggregated into this row.
    pub count: u64,
    /// Total fuel spent at the recording points.
    pub fuel: u64,
    /// Smallest logical round observed.
    pub round_min: u64,
    /// Largest logical round observed.
    pub round_max: u64,
}

impl BlameEntry {
    fn to_json_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            r#"{{"scope":"{}","site":"{}","domain":"{}","kind":"{}","count":{},"fuel":{},"round_min":{},"round_max":{}}}"#,
            escape_metric_name(&self.scope),
            escape_metric_name(self.site),
            self.domain,
            self.kind.as_str(),
            self.count,
            self.fuel,
            self.round_min,
            self.round_max,
        );
    }
}

impl fmt::Display for BlameEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} ({}, domain {}): count={} fuel={} rounds={}..{}",
            self.kind,
            self.scope,
            self.site,
            self.domain,
            self.count,
            self.fuel,
            self.round_min,
            self.round_max
        )
    }
}

/// The fold key: one row of the blame table. (The domain is a function
/// of the site, so it needs no slot of its own.)
type Key = (String, &'static str, LossKind);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Agg {
    count: u64,
    fuel: u64,
    round_min: u64,
    round_max: u64,
}

/// Every event of a run, folded per `(scope, site, kind)` into a count,
/// a fuel total and a round span. Uncapped (its size is bounded by the
/// distinct keys, not the events), additive and commutative, so per-job
/// tables [`merge`](BlameTable::merge) into the same table in any order.
/// Rows read out ranked: count descending, then fuel descending, then
/// the key order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlameTable {
    rows: BTreeMap<Key, Agg>,
}

impl BlameTable {
    /// Folds one event in.
    pub fn add(&mut self, ev: &Event) {
        let agg = Agg {
            count: 1,
            fuel: ev.fuel,
            round_min: ev.round,
            round_max: ev.round,
        };
        self.fold((ev.scope.clone(), ev.site, ev.kind), agg);
    }

    /// Folds every row of `other` in.
    pub fn merge(&mut self, other: &BlameTable) {
        for (key, agg) in &other.rows {
            self.fold(key.clone(), *agg);
        }
    }

    fn fold(&mut self, key: Key, agg: Agg) {
        match self.rows.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(agg);
            }
            Entry::Occupied(mut slot) => {
                let row = slot.get_mut();
                row.count += agg.count;
                row.fuel = row.fuel.saturating_add(agg.fuel);
                row.round_min = row.round_min.min(agg.round_min);
                row.round_max = row.round_max.max(agg.round_max);
            }
        }
    }

    /// Every row, most blamed first.
    pub fn entries(&self) -> Vec<BlameEntry> {
        let mut entries: Vec<BlameEntry> = self
            .rows
            .iter()
            .map(|((scope, site, kind), agg)| BlameEntry {
                scope: scope.clone(),
                site,
                domain: domain_for_site(site),
                kind: *kind,
                count: agg.count,
                fuel: agg.fuel,
                round_min: agg.round_min,
                round_max: agg.round_max,
            })
            .collect();
        // A stable sort over rows already in key order: ties keep it.
        entries.sort_by(|a, b| b.count.cmp(&a.count).then(b.fuel.cmp(&a.fuel)));
        entries
    }

    /// The rows whose scope is `proc` or nested under it, in rank order —
    /// the events a regressed fact in `proc` joins against.
    pub fn for_scope(&self, proc: &str) -> Vec<BlameEntry> {
        let prefix = format!("{proc}/");
        let mut entries = self.entries();
        entries.retain(|e| e.scope == proc || e.scope.starts_with(&prefix));
        entries
    }

    /// The event count of one row (0 if absent).
    pub fn count(&self, scope: &str, site: &'static str, kind: LossKind) -> u64 {
        self.rows
            .get(&(scope.to_string(), site, kind))
            .map_or(0, |agg| agg.count)
    }

    /// The distinct [`LossKind`] strings present, for coverage checks.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = self.rows.keys().map(|k| k.2.as_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// A deterministic JSON array of the ranked rows.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.entries().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            e.to_json_into(&mut out);
        }
        out.push(']');
        out
    }
}

impl fmt::Display for BlameTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rows.is_empty() {
            return writeln!(f, "(no loss events recorded)");
        }
        for (i, e) in self.entries().iter().enumerate() {
            writeln!(f, "#{} {}", i + 1, e)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_is_commutative_and_ranking_deterministic() {
        let evs: Vec<Event> = ["a", "b", "a", "c", "b", "a"]
            .iter()
            .map(|s| Event::new(LossKind::Widen, "analyzer/while", "").scoped(s))
            .collect();
        let fold = |order: &[usize]| {
            let mut halves = (BlameTable::default(), BlameTable::default());
            for (i, &k) in order.iter().enumerate() {
                let half = if i % 2 == 0 {
                    &mut halves.0
                } else {
                    &mut halves.1
                };
                half.add(&evs[k]);
            }
            halves.1.merge(&halves.0);
            halves.1
        };
        let t = fold(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(t, fold(&[5, 3, 1, 4, 2, 0]));
        let ranked: Vec<(String, u64)> = t
            .entries()
            .into_iter()
            .map(|e| (e.scope, e.count))
            .collect();
        assert_eq!(
            ranked,
            vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]
        );
    }

    #[test]
    fn kinds_classify_degradation_and_faults() {
        let degrading: Vec<&str> = LossKind::ALL
            .iter()
            .filter(|k| k.degrades())
            .map(LossKind::as_str)
            .collect();
        assert_eq!(
            degrading,
            [
                "budget-degrade",
                "narrow-failed",
                "quarantine",
                "alternate-skipped",
                "stall"
            ]
        );
        let faults: Vec<&str> = LossKind::ALL
            .iter()
            .filter(|k| k.is_fault())
            .map(LossKind::as_str)
            .collect();
        assert_eq!(faults, ["quarantine", "panic", "stall", "cache-corruption"]);
    }
}
