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
//! which keeps them on the run's budget. This module supplies the record
//! itself, the kind taxonomy, the thread-local scope labels, and the
//! [`BlameTable`] fold that ranks events per `(scope, site, kind)`.
//!
//! Determinism:
//!
//! 1. **Logical rounds only.** Events carry fixpoint, Jacobi or
//!    narrowing round numbers, never wall clock.
//! 2. **Schedule-free labels.** Scopes live in thread-local stacks and
//!    jobs are shared-nothing, so the labels a run produces do not depend
//!    on which worker thread ran which job.
//! 3. **Commutative fold.** A `(scope, site, kind)` key maps to a count,
//!    a fuel total and a round span, all order-independent, so merging
//!    per-job tables gives the same table at every thread count.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
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

thread_local! {
    /// The enclosing scope labels (procedure, then loops, innermost
    /// last) plus the saved logical round of each enclosing scope.
    static SCOPES: RefCell<Vec<(String, u64)>> = const { RefCell::new(Vec::new()) };
    /// The current logical round (fixpoint iteration, Jacobi round,
    /// narrowing round), attached to every [`Event::new`].
    static ROUND: Cell<u64> = const { Cell::new(0) };
}

/// RAII guard for one scope label; see [`scope`].
pub struct ScopeGuard(());

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            if let Some((_, saved)) = s.borrow_mut().pop() {
                ROUND.with(|r| r.set(saved));
            }
        });
    }
}

/// Pushes a scope label (a procedure name, `loop#2`, …) onto the current
/// thread's scope stack until the returned guard drops. Entering a scope
/// zeroes the logical round (see [`set_round`]) and restores the
/// enclosing scope's round on exit.
#[must_use = "the scope ends when the guard drops"]
pub fn scope(label: impl Into<String>) -> ScopeGuard {
    let saved = ROUND.with(|r| r.replace(0));
    SCOPES.with(|s| s.borrow_mut().push((label.into(), saved)));
    ScopeGuard(())
}

/// Sets the current logical round — the loop fixpoint iteration, Jacobi
/// round, or narrowing round — attached to events recorded from here on.
#[inline]
pub fn set_round(round: u64) {
    ROUND.with(|r| r.set(round));
}

/// RAII guard for a saved logical round; see [`save_round`].
pub struct RoundGuard(u64);

impl Drop for RoundGuard {
    fn drop(&mut self) {
        set_round(self.0);
    }
}

/// Saves the current logical round until the returned guard drops — for
/// a fixpoint that numbers its rounds with [`set_round`] outside a
/// [`scope`] of its own.
#[must_use = "the round is restored when the guard drops"]
pub fn save_round() -> RoundGuard {
    RoundGuard(ROUND.with(Cell::get))
}

fn current_scope() -> String {
    SCOPES.with(|s| {
        let s = s.borrow();
        if s.is_empty() {
            "(top)".to_string()
        } else {
            s.iter()
                .map(|(l, _)| l.as_str())
                .collect::<Vec<_>>()
                .join("/")
        }
    })
}

/// One recorded precision loss or absorbed fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: LossKind,
    /// `/`-joined scope labels, outermost first (e.g. `big/loop#0`), or
    /// `(top)` outside any scope.
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
    /// An event under the calling thread's current scope and logical
    /// round.
    pub fn new(kind: LossKind, site: &'static str, detail: impl Into<Cow<'static, str>>) -> Event {
        Event {
            kind,
            scope: current_scope(),
            site,
            detail: detail.into(),
            round: ROUND.with(Cell::get),
            fuel: 0,
        }
    }

    /// Attributes the event to `scope` at round 0 — for events raised
    /// for a procedure from outside its own scope (quarantines, stalls,
    /// cache traffic, context-cap overflows).
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

    fn stamped(mut ev: Event, fuel: u64) -> Event {
        ev.fuel = fuel;
        ev
    }

    #[test]
    fn events_fold_by_scope_site_kind() {
        let mut t = BlameTable::default();
        {
            let _p = scope("f");
            let _l = scope("loop#0");
            set_round(2);
            t.add(&stamped(
                Event::new(LossKind::Widen, "analyzer/while", ""),
                5,
            ));
            set_round(4);
            t.add(&stamped(
                Event::new(LossKind::Widen, "analyzer/while", ""),
                7,
            ));
            t.add(&Event::new(
                LossKind::NarrowFailed,
                "analyzer/narrow",
                "stopped",
            ));
        }
        t.add(&Event::new(LossKind::Quarantine, "driver/supervisor", "pinned").scoped("g"));
        let entries = t.entries();
        assert_eq!(entries.len(), 3);
        let widen = &entries[0];
        assert_eq!(widen.scope, "f/loop#0");
        assert_eq!((widen.kind, widen.domain), (LossKind::Widen, "interp"));
        assert_eq!((widen.count, widen.fuel), (2, 12));
        assert_eq!((widen.round_min, widen.round_max), (2, 4));
        assert_eq!(t.kinds(), vec!["narrow-failed", "quarantine", "widen"]);
        assert_eq!(t.for_scope("f").len(), 2);
        assert_eq!(t.count("g", "driver/supervisor", LossKind::Quarantine), 1);
        let json = t.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""scope":"f/loop#0""#), "{json}");
    }

    #[test]
    fn scopes_restore_rounds_and_scoped_events_start_at_round_zero() {
        set_round(7);
        let inner = {
            let _p = scope("g");
            set_round(2);
            Event::new(LossKind::BudgetDegrade, "analyzer/while", "forced top")
        };
        let outer = Event::new(LossKind::BudgetDegrade, "driver/summary-fixpoint", "cap");
        assert_eq!((inner.scope.as_str(), inner.round), ("g", 2));
        assert_eq!((outer.scope.as_str(), outer.round), ("(top)", 7));
        let moved = outer.scoped("p3");
        assert_eq!((moved.scope.as_str(), moved.round), ("p3", 0));
        set_round(0);
    }

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
