//! Resource governance: fuel/deadline budgets with sound graceful
//! degradation.
//!
//! The combination algorithms are built from loops whose cost is easy to
//! underestimate — `NOSaturation` fixpoints, the quadratic pair-variable
//! join of Figure 6, `QSaturation`, Fourier–Motzkin elimination, and
//! congruence closure. A [`Budget`] bounds the total work those loops may
//! perform. When the bound is hit, every governed operation **degrades
//! soundly** instead of diverging: it returns an over-approximation of its
//! exact result (often ⊤, or it skips the refinement step) and records an
//! [`Event`], so callers can distinguish "proved" from "gave up".
//!
//! A `Budget` is a shared handle: cloning it shares the same fuel counter
//! and deadline, which is how one budget governs a whole analysis — clone
//! it into each component domain, the product, and the analyzer, and
//! exhaustion anywhere stops work everywhere.
//!
//! A budget is also where a run's events and spans live. [`Budget::record`]
//! is the one emission point for every precision loss and absorbed fault:
//! it stamps the event with the open [scope](Budget::scope) labels and
//! the logical [round](Budget::set_round), keeps it (at most 64 of each
//! kind), folds it into the run's uncapped [`BlameTable`], and flags the
//! budget degraded when the kind [degrades](LossKind::degrades). While
//! [tracing](Budget::set_tracing) is on, [`Budget::span`] times a phase
//! into the run's bounded [`Trace`]. [`Budget::report`] hands all of it
//! back.
//!
//! ```
//! use cai_core::Budget;
//! let b = Budget::fuel(2);
//! assert!(b.tick(1));
//! assert!(b.tick(1));
//! assert!(!b.tick(1)); // exhausted — and stays exhausted
//! assert!(b.is_exhausted());
//! ```

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use cai_obs::{clock, BlameTable, Event, LossKind, Span, Trace};

/// How often (in ticks) the wall-clock deadline is re-checked; reading the
/// clock on every tick would dominate the hot loops. (The clock is read via
/// [`cai_obs::clock::now`], the stack's single audited wall-clock door.)
const DEADLINE_CHECK_PERIOD: u64 = 256;

/// Cap on stored events *of each kind*; further events of that kind only
/// bump a counter (they still reach the blame table), so an exhausted or
/// crash-looping analysis cannot itself exhaust memory, and a frequent
/// kind such as `widen` cannot push out a rare one such as `quarantine`.
const MAX_EVENTS_PER_KIND: usize = 64;

/// A summary of everything a budget observed: whether any governed
/// operation gave up, the fuel spent, every recorded [`Event`], and the
/// spans timed while tracing was on.
#[derive(Clone, Debug, Default)]
pub struct DegradationReport {
    /// `true` if any recorded event [degrades](LossKind::degrades).
    pub degraded: bool,
    /// `true` if the fuel counter or deadline ran out.
    pub exhausted: bool,
    /// Fuel ticks consumed so far.
    pub fuel_spent: u64,
    /// The recorded events, oldest first (at most 64 of each kind
    /// kept).
    pub events: Vec<Event>,
    /// Events beyond the per-kind storage cap (recorded only as a count,
    /// and in [`blame`](DegradationReport::blame)).
    pub dropped_events: usize,
    /// Every event, dropped ones included, folded per
    /// `(scope, site, kind)`.
    pub blame: BlameTable,
    /// The spans [`Budget::span`] recorded while tracing was on (empty
    /// otherwise); [`Trace::to_chrome_json`] prints them.
    pub trace: Trace,
}

impl DegradationReport {
    /// Stores `ev` unless its kind is at the storage cap, in which case
    /// it is counted in [`dropped_events`](DegradationReport::dropped_events).
    fn store(&mut self, ev: Event) {
        if self.events_of(ev.kind).count() < MAX_EVENTS_PER_KIND {
            self.events.push(ev);
        } else {
            self.dropped_events += 1;
        }
    }

    /// Folds another report into this one (used when merging the per-job
    /// budget slices of a parallel analysis): flags are OR-ed, fuel and
    /// blame tables add up, and stored events concatenate up to the
    /// per-kind cap. Events that do not fit — whether they overflow
    /// *this* report's cap or were already dropped by `other` — are kept
    /// as counts, so merging N slices neither grows the log unboundedly
    /// nor loses how much was cut. Spans append under the trace's own cap
    /// the same way.
    pub fn merge(&mut self, other: &DegradationReport) {
        self.degraded |= other.degraded;
        self.exhausted |= other.exhausted;
        self.fuel_spent = self.fuel_spent.saturating_add(other.fuel_spent);
        for ev in &other.events {
            self.store(ev.clone());
        }
        self.dropped_events += other.dropped_events;
        self.blame.merge(&other.blame);
        self.trace.merge(&other.trace);
    }

    /// The stored events of one kind, oldest first.
    pub fn events_of(&self, kind: LossKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

/// The *observation* side of a budget — the degrade count, the tracing
/// switch, the blame labels, and the event and span log. Split out so a
/// [`child`](Budget::child) budget can keep its own fuel/deadline
/// restriction while recording everything it observes straight onto its
/// parent's log, under its parent's labels: the supervisor hands each
/// retry attempt a fresh restriction, and every attempt's events and
/// spans still land in the one report the driver merges.
#[derive(Debug, Default)]
struct Obs {
    /// Monotonic count of degrading events (including events past the
    /// storage cap). Lets callers detect whether a computation degraded by
    /// comparing snapshots before and after — the memo layer uses this to
    /// refuse to cache results produced by a starved run.
    degrade_events: AtomicU64,
    /// Whether [`Budget::span`] records.
    tracing: AtomicBool,
    /// The open scopes and the current round, stamped onto each event.
    labels: Mutex<Labels>,
    /// The stored events, the blame table and the trace (its flags and
    /// fuel stay unset; [`Budget::report`] fills them in).
    log: Mutex<DegradationReport>,
}

impl Obs {
    fn log(&self) -> MutexGuard<'_, DegradationReport> {
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn labels(&self) -> MutexGuard<'_, Labels> {
        self.labels.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The blame labels of the analysis running under a budget.
#[derive(Debug, Default)]
struct Labels {
    /// The open scope labels, outermost first, each with the round of
    /// its enclosing scope, restored when it closes.
    scopes: Vec<(String, u64)>,
    /// The current logical round (fixpoint, Jacobi or narrowing).
    round: u64,
}

impl Labels {
    /// The `/`-joined scope path, or `(top)` outside any scope.
    fn path(&self) -> String {
        if self.scopes.is_empty() {
            return "(top)".to_string();
        }
        let labels: Vec<&str> = self.scopes.iter().map(|(l, _)| l.as_str()).collect();
        labels.join("/")
    }
}

#[derive(Debug)]
struct BudgetInner {
    /// Remaining fuel; `None` means unlimited.
    fuel_left: Option<AtomicU64>,
    /// Total ticks consumed (kept even when unlimited, for reporting).
    spent: AtomicU64,
    deadline: Option<Instant>,
    /// Sticky exhaustion flag: once out, always out, so one governed loop
    /// bailing makes every later loop bail immediately.
    exhausted: AtomicBool,
    /// The budget this one is nested inside, if any. Work ticked here is
    /// charged to the parent too ([`child`](Budget::child)) or not
    /// ([`split_weighted`](Budget::split_weighted) slices, which own an
    /// independent fuel share), but in both cases parent exhaustion
    /// propagates down:
    /// cancelling the root budget cancels every slice and sub-task.
    parent: Option<Arc<BudgetInner>>,
    /// Whether ticks are forwarded to `parent` (true for `child`, false
    /// for `split_weighted` slices).
    charge_parent: bool,
    /// Cost accumulated since the wall-clock deadline was last checked.
    /// Starts at [`DEADLINE_CHECK_PERIOD`] so the first tick always
    /// checks; tracking cost-since-last-check (rather than a phase of the
    /// total `spent`) guarantees at most one period of work between clock
    /// reads even when a single tick's cost exceeds the period.
    since_deadline_check: AtomicU64,
    obs: Arc<Obs>,
}

impl BudgetInner {
    /// Whether this budget or any ancestor has been flagged exhausted
    /// (flags only — deadlines are checked by the owning [`Budget`]).
    fn lineage_exhausted(&self) -> bool {
        if self.exhausted.load(Ordering::Relaxed) {
            return true;
        }
        match &self.parent {
            Some(p) => p.lineage_exhausted(),
            None => false,
        }
    }

    fn tick(&self, cost: u64) -> bool {
        if self.lineage_exhausted() {
            self.exhausted.store(true, Ordering::Relaxed);
            return false;
        }
        self.spent.fetch_add(cost, Ordering::Relaxed);
        if let Some(left) = &self.fuel_left {
            // Saturating decrement: `fetch_update` loops only under
            // contention, and the counter never wraps below zero.
            let out = left
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                    Some(cur.saturating_sub(cost))
                })
                .unwrap_or(0);
            if out < cost {
                self.exhausted.store(true, Ordering::Relaxed);
                return false;
            }
        }
        if self.charge_parent {
            if let Some(parent) = &self.parent {
                // Charge the enclosing budget only after this budget's own
                // pool accepted the tick: a child is a *restriction*, and a
                // tick the child itself refuses is work that never happens,
                // so it must not cost the parent fuel. The parent running
                // dry still stops the child immediately.
                if !parent.tick(cost) {
                    self.exhausted.store(true, Ordering::Relaxed);
                    return false;
                }
            }
        }
        if let Some(deadline) = self.deadline {
            // Amortize the clock read on cost-since-last-check (the
            // counter starts at the period, so the first tick always
            // checks): at most one period of work passes between clock
            // reads, even when a single cost exceeds the whole period.
            let acc = self.since_deadline_check.fetch_add(cost, Ordering::Relaxed) + cost;
            if acc >= DEADLINE_CHECK_PERIOD {
                self.since_deadline_check.store(0, Ordering::Relaxed);
                if clock::now() >= deadline {
                    self.exhausted.store(true, Ordering::Relaxed);
                    return false;
                }
            }
        }
        true
    }
}

/// A shared fuel counter and optional wall-clock deadline governing the
/// potentially-unbounded loops of the engine, and the log of the events
/// and spans observed under it. Clones share all of it.
#[derive(Clone, Debug)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

impl Budget {
    fn build(fuel: Option<u64>, deadline: Option<Duration>) -> Budget {
        Budget::build_at(fuel, deadline.map(|d| clock::now() + d), false)
    }

    fn build_at(fuel: Option<u64>, deadline: Option<Instant>, exhausted: bool) -> Budget {
        Budget::assemble(fuel, deadline, exhausted, None, false, Arc::default())
    }

    fn assemble(
        fuel: Option<u64>,
        deadline: Option<Instant>,
        exhausted: bool,
        parent: Option<Arc<BudgetInner>>,
        charge_parent: bool,
        obs: Arc<Obs>,
    ) -> Budget {
        Budget {
            inner: Arc::new(BudgetInner {
                fuel_left: fuel.map(AtomicU64::new),
                spent: AtomicU64::new(0),
                deadline,
                exhausted: AtomicBool::new(exhausted),
                parent,
                charge_parent,
                since_deadline_check: AtomicU64::new(DEADLINE_CHECK_PERIOD),
                obs,
            }),
        }
    }

    /// A budget that never exhausts (the default everywhere).
    pub fn unlimited() -> Budget {
        Budget::build(None, None)
    }

    /// A budget of `n` operation ticks.
    pub fn fuel(n: u64) -> Budget {
        Budget::build(Some(n), None)
    }

    /// A budget with a wall-clock deadline, measured from now.
    pub fn deadline(d: Duration) -> Budget {
        Budget::build(None, Some(d))
    }

    /// Consumes `cost` ticks. Returns `true` while within budget; once it
    /// returns `false` it returns `false` forever (exhaustion is sticky).
    pub fn tick(&self, cost: u64) -> bool {
        self.inner.tick(cost)
    }

    /// Exhausts the budget immediately (cooperative cancellation; also
    /// used by the chaos harness to inject fuel exhaustion at chosen
    /// ticks). Every governed loop sharing this budget degrades at its
    /// next check.
    pub fn exhaust(&self) {
        self.inner.exhausted.store(true, Ordering::Relaxed);
    }

    /// Whether the budget has run out (fuel or deadline), or any budget
    /// it is nested inside has — cancelling a parent cancels the whole
    /// subtree at its next check.
    pub fn is_exhausted(&self) -> bool {
        if self.inner.lineage_exhausted() {
            self.inner.exhausted.store(true, Ordering::Relaxed);
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if clock::now() >= deadline {
                self.inner.exhausted.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Total ticks consumed so far.
    pub fn spent(&self) -> u64 {
        self.inner.spent.load(Ordering::Relaxed)
    }

    /// Records that a governed operation substituted a sound
    /// over-approximation for its exact result: shorthand for a
    /// [`LossKind::BudgetDegrade`] [`record`](Budget::record).
    pub fn degrade(&self, site: &'static str, detail: impl Into<Cow<'static, str>>) {
        self.record(Event::new(LossKind::BudgetDegrade, site, detail));
    }

    /// Records one event — the single emission point for every precision
    /// loss and absorbed fault. The event is stamped with the fuel spent
    /// so far and, unless [`Event::scoped`] named its scope, with the
    /// open [scope](Budget::scope) path and the current
    /// [round](Budget::set_round); then it is stored in the shared
    /// observation log (capped per kind; [`child`](Budget::child) and
    /// [`recovery_slice`](Budget::recovery_slice) budgets record onto
    /// their parent's), and folded into the log's blame table. A kind
    /// that [degrades](LossKind::degrades) also flags the budget degraded
    /// and advances [`degrade_count`](Budget::degrade_count).
    pub fn record(&self, mut ev: Event) {
        ev.fuel = self.spent();
        let obs = &*self.inner.obs;
        if ev.scope.is_empty() {
            let labels = obs.labels();
            ev.scope = labels.path();
            ev.round = labels.round;
        }
        if ev.kind.degrades() {
            obs.degrade_events.fetch_add(1, Ordering::Relaxed);
        }
        let mut log = obs.log();
        log.blame.add(&ev);
        log.store(ev);
    }

    /// Opens a blame scope: `label` (a procedure name, `loop#2`, …) is
    /// pushed onto this budget's scope path until the returned guard
    /// drops, and every event recorded meanwhile is attributed to the
    /// path. Entering a scope zeroes the [round](Budget::set_round);
    /// leaving it restores the enclosing scope's round.
    ///
    /// The stack belongs to the one analysis running under the budget:
    /// [`child`](Budget::child) and
    /// [`recovery_slice`](Budget::recovery_slice) budgets share it, and
    /// each [`split_weighted`](Budget::split_weighted) slice starts with
    /// none. Concurrent analyses therefore take their own budget or
    /// slice, as the driver's component jobs do.
    #[must_use = "the scope ends when the guard drops"]
    pub fn scope(&self, label: impl Into<String>) -> ScopeGuard {
        let label = label.into();
        let mut labels = self.inner.obs.labels();
        let saved = std::mem::take(&mut labels.round);
        labels.scopes.push((label, saved));
        ScopeGuard {
            obs: self.inner.obs.clone(),
        }
    }

    /// Sets the logical round — the loop fixpoint iteration, Jacobi
    /// round, or narrowing round — that events recorded from here on
    /// carry, until the next call or until the enclosing
    /// [scope](Budget::scope) closes.
    pub fn set_round(&self, round: u64) {
        self.inner.obs.labels().round = round;
    }

    /// Turns span recording on or off for this budget's log (off by
    /// default): the one switch that traces a run. [`child`](Budget::child)
    /// and [`recovery_slice`](Budget::recovery_slice) budgets share the
    /// switch with their parent; [`split_weighted`](Budget::split_weighted)
    /// slices start with the parent's setting.
    pub fn set_tracing(&self, on: bool) {
        self.inner.obs.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether [`span`](Budget::span) records.
    pub fn tracing(&self) -> bool {
        self.inner.obs.tracing.load(Ordering::Relaxed)
    }

    /// Opens a span named `name()`, recorded in this budget's trace when
    /// the guard drops. While tracing is off it returns `None` without
    /// calling `name`, so a formatted name costs nothing then. Bind the
    /// guard (`let _span = …`): an unbound one closes at once.
    #[must_use]
    pub fn span<N: Into<String>>(&self, name: impl FnOnce() -> N) -> Option<SpanGuard> {
        self.tracing().then(|| SpanGuard {
            obs: self.inner.obs.clone(),
            name: name().into(),
            thread: std::thread::current().id(),
            start: clock::now(),
        })
    }

    /// `true` if any governed operation has degraded under this budget.
    pub fn degraded(&self) -> bool {
        self.degrade_count() > 0
    }

    /// Monotonic count of degrading events recorded so far (including
    /// events beyond the storage cap). Compare snapshots taken
    /// around a computation to learn whether *that* computation degraded.
    pub fn degrade_count(&self) -> u64 {
        self.inner.obs.degrade_events.load(Ordering::Relaxed)
    }

    /// The fuel still available, or `None` for unlimited. (A snapshot:
    /// concurrent workers may be draining it.)
    pub fn remaining_fuel(&self) -> Option<u64> {
        self.inner
            .fuel_left
            .as_ref()
            .map(|l| l.load(Ordering::Relaxed))
    }

    /// Splits the budget into *independent* slices for shared-nothing
    /// parallel workers, one per entry of `weights`: each slice gets a
    /// share of the fuel remaining right now in proportion to its weight
    /// (a weight of 0 is treated as 1 so every slice stays viable), its
    /// own spent counter, event and span log (traced if this budget is)
    /// and blame labels (no scope open), and the *same absolute*
    /// wall-clock deadline, so no worker outlives the parent's deadline.
    /// The rounding leftover — always fewer ticks than there are slices —
    /// goes one tick apiece to the slices with the largest discarded
    /// fractional share, ties broken by index, so the allocation is a
    /// pure deterministic function of the remaining fuel and the weights;
    /// equal weights give equal shares that differ by at most one tick,
    /// the extra ticks going to the first slices. An unlimited parent
    /// yields unlimited slices; an already-exhausted parent yields
    /// already-exhausted slices, and exhausting the parent *later*
    /// (cooperative cancellation) stops every slice at its next check.
    /// The parent keeps its own counters untouched — merge the slices'
    /// [`report`](Budget::report)s back with [`DegradationReport::merge`].
    ///
    /// Fuel invariant: when the remaining fuel `r` covers every slice,
    /// the shares sum to exactly `r`. When it does not (`0 < r` smaller
    /// than the number of slices), every slice is still floored at 1
    /// fuel — a deliberate overshoot — so no slice is born exhausted and
    /// degrades before doing any work. `r = 0` yields slices with no fuel
    /// at all.
    pub fn split_weighted(&self, weights: &[u64]) -> Vec<Budget> {
        let remaining = self
            .inner
            .fuel_left
            .as_ref()
            .map(|l| l.load(Ordering::Relaxed));
        let exhausted = self.is_exhausted();
        let w: Vec<u128> = weights.iter().map(|&w| u128::from(w.max(1))).collect();
        let total: u128 = w.iter().sum::<u128>().max(1);
        let shares: Option<Vec<u64>> = remaining.map(|r| {
            let r_wide = u128::from(r);
            // Largest-remainder apportionment in u128 so `r * w` cannot
            // overflow: floor every proportional share, then hand the
            // leftover ticks to the largest fractional parts (stable sort
            // = ties by index).
            let mut shares: Vec<u64> = w
                .iter()
                .map(|wi| u64::try_from(r_wide * wi / total).unwrap_or(u64::MAX))
                .collect();
            let assigned: u64 = shares.iter().sum();
            let leftover = r.saturating_sub(assigned) as usize;
            let mut order: Vec<usize> = (0..w.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(r_wide * w[i] % total));
            for &i in order.iter().take(leftover) {
                shares[i] += 1;
            }
            if r > 0 {
                for s in &mut shares {
                    *s = (*s).max(1);
                }
            }
            shares
        });
        (0..weights.len())
            .map(|i| {
                Budget::assemble(
                    shares.as_ref().map(|s| s[i]),
                    self.inner.deadline,
                    exhausted,
                    Some(self.inner.clone()),
                    false,
                    Arc::new(Obs {
                        tracing: AtomicBool::new(self.tracing()),
                        ..Obs::default()
                    }),
                )
            })
            .collect()
    }

    /// An *independent* allowance for a bounded recovery pass (the
    /// post-widening narrowing iteration): `fuel` ticks of its own, this
    /// budget's absolute wall-clock deadline, and this budget's
    /// observation log. Unlike [`child`](Budget::child) it is
    /// deliberately *not* linked to this budget's fuel pool or exhaustion
    /// flag — recovery runs precisely when the main pool has run dry
    /// (budget-forced widening), re-earning precision under a fresh,
    /// strictly bounded allowance. The wall-clock deadline still binds,
    /// so the anytime contract survives: a deadline-exhausted analysis
    /// never starts a recovery pass.
    pub fn recovery_slice(&self, fuel: u64) -> Budget {
        Budget::assemble(
            Some(fuel),
            self.inner.deadline,
            false,
            None,
            false,
            self.inner.obs.clone(),
        )
    }

    /// A *restriction* of this budget for one supervised sub-task: at
    /// most `fuel` further ticks (`None` = no extra fuel cap) and at most
    /// `deadline` from now (`None` = no extra deadline), on top of
    /// everything this budget already enforces. Work ticked on the child
    /// is charged to this budget too; exhausting the child — including
    /// by a watchdog calling [`exhaust`](Budget::exhaust) on it — leaves
    /// this budget usable for the next attempt, while exhausting *this*
    /// budget stops the child at its next check. Events recorded on the
    /// child land in this budget's log, so one
    /// [`report`](Budget::report) covers every attempt.
    pub fn child(&self, fuel: Option<u64>, deadline: Option<Duration>) -> Budget {
        let child_deadline = deadline.map(|d| clock::now() + d);
        let deadline = match (self.inner.deadline, child_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Budget::assemble(
            fuel,
            deadline,
            self.is_exhausted(),
            Some(self.inner.clone()),
            true,
            self.inner.obs.clone(),
        )
    }

    /// A snapshot of everything observed so far.
    pub fn report(&self) -> DegradationReport {
        let log = self.inner.obs.log();
        DegradationReport {
            degraded: self.degraded(),
            exhausted: self.inner.exhausted.load(Ordering::Relaxed),
            fuel_spent: self.spent(),
            ..log.clone()
        }
    }
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

/// An open blame scope of a budget (see [`Budget::scope`]); dropping it
/// closes the scope and restores the enclosing scope's round.
#[derive(Debug)]
pub struct ScopeGuard {
    obs: Arc<Obs>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let mut labels = self.obs.labels();
        if let Some((_, saved)) = labels.scopes.pop() {
            labels.round = saved;
        }
    }
}

/// An open span of a traced budget (see [`Budget::span`]); dropping it
/// records the span, with its thread and its duration read through
/// [`clock::now`], in the budget's trace.
#[derive(Debug)]
pub struct SpanGuard {
    obs: Arc<Obs>,
    name: String,
    thread: ThreadId,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let span = Span {
            name: std::mem::take(&mut self.name),
            thread: self.thread,
            start: self.start,
            dur: clock::now().duration_since(self.start),
        };
        self.obs.log().trace.push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.tick(1));
        }
        assert!(!b.is_exhausted());
        assert_eq!(b.spent(), 10_000);
    }

    #[test]
    fn fuel_exhaustion_is_sticky() {
        let b = Budget::fuel(3);
        assert!(b.tick(2));
        assert!(!b.tick(2)); // only 1 left
        assert!(!b.tick(0)); // sticky even for free ticks
        assert!(b.is_exhausted());
    }

    #[test]
    fn clones_share_state() {
        let a = Budget::fuel(2);
        let b = a.clone();
        assert!(a.tick(1));
        assert!(b.tick(1));
        assert!(!a.tick(1));
        assert!(b.is_exhausted());
    }

    #[test]
    fn deadline_in_the_past_exhausts() {
        let b = Budget::deadline(Duration::ZERO);
        assert!(b.is_exhausted());
    }

    #[test]
    fn event_log_caps_each_kind_separately() {
        let b = Budget::unlimited();
        assert!(!b.degraded());
        for i in 0..(MAX_EVENTS_PER_KIND + 10) {
            b.degrade("test", format!("event {i}"));
            b.record(Event::new(LossKind::Widen, "test/widen", "widened"));
        }
        b.record(Event::new(LossKind::Quarantine, "test/supervisor", "pinned").scoped("p"));
        let r = b.report();
        assert!(r.degraded);
        let kept = |k| r.events_of(k).count();
        assert_eq!(kept(LossKind::BudgetDegrade), MAX_EVENTS_PER_KIND);
        assert_eq!(kept(LossKind::Widen), MAX_EVENTS_PER_KIND);
        // A frequent kind never pushes out a rare one.
        assert_eq!(kept(LossKind::Quarantine), 1);
        assert_eq!(r.dropped_events, 20);
        // The blame table folds every event, dropped ones included.
        let widens = r.blame.count("(top)", "test/widen", LossKind::Widen);
        assert_eq!(widens, MAX_EVENTS_PER_KIND as u64 + 10);
    }

    #[test]
    fn events_fold_by_scope_site_kind() {
        let b = Budget::unlimited();
        {
            let _p = b.scope("f");
            let _l = b.scope("loop#0");
            b.set_round(2);
            assert!(b.tick(5));
            b.record(Event::new(LossKind::Widen, "analyzer/while", ""));
            b.set_round(4);
            assert!(b.tick(2));
            b.record(Event::new(LossKind::Widen, "analyzer/while", ""));
            b.record(Event::new(
                LossKind::NarrowFailed,
                "analyzer/narrow",
                "stopped",
            ));
        }
        b.record(Event::new(LossKind::Quarantine, "driver/supervisor", "pinned").scoped("g"));
        let t = b.report().blame;
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
        let b = Budget::unlimited();
        b.set_round(7);
        {
            let _p = b.scope("g");
            b.set_round(2);
            b.degrade("analyzer/while", "forced top");
        }
        b.degrade("driver/summary-fixpoint", "cap");
        b.record(
            Event::new(LossKind::BudgetDegrade, "driver/summary-fixpoint", "cap").scoped("p3"),
        );
        let events = b.report().events;
        let (inner, outer, moved) = (&events[0], &events[1], &events[2]);
        assert_eq!((inner.scope.as_str(), inner.round), ("g", 2));
        assert_eq!((outer.scope.as_str(), outer.round), ("(top)", 7));
        assert_eq!((moved.scope.as_str(), moved.round), ("p3", 0));
    }

    #[test]
    fn child_budgets_share_the_scopes_and_slices_start_with_none() {
        let b = Budget::unlimited();
        let _p = b.scope("p");
        b.set_round(3);
        {
            let _l = b.child(None, None).scope("loop#0");
            b.recovery_slice(1).degrade("test/narrow", "ran dry");
        }
        b.degrade("test/outer", "round restored");
        let slice = b.split_weighted(&[1]).remove(0);
        slice.degrade("test/slice", "ran dry");
        let labels = |r: DegradationReport| -> Vec<(String, u64)> {
            r.events.into_iter().map(|e| (e.scope, e.round)).collect()
        };
        assert_eq!(
            labels(b.report()),
            [("p/loop#0".to_string(), 0), ("p".to_string(), 3)]
        );
        assert_eq!(labels(slice.report()), [("(top)".to_string(), 0)]);
    }

    #[test]
    fn split_weighted_divides_remaining_fuel_independently() {
        let parent = Budget::fuel(10);
        assert!(parent.tick(3)); // 7 remaining
        let kids = parent.split_weighted(&[1; 3]);
        assert_eq!(kids.len(), 3);
        // Shares: 3 (2 + one remainder tick), 2, 2 — and independent.
        assert!(kids[0].tick(3) && !kids[0].tick(1));
        assert!(kids[1].tick(2) && !kids[1].tick(1));
        assert!(kids[2].tick(2) && !kids[2].tick(1));
        assert!(!parent.is_exhausted(), "children don't drain the parent");
    }

    #[test]
    fn split_weighted_floors_every_slice_at_one_fuel() {
        // Remaining fuel (2) is positive but smaller than the number of
        // slices (4): every slice must still get at least 1 fuel so no
        // worker is born degraded. The total deliberately overshoots.
        let parent = Budget::fuel(2);
        let kids = parent.split_weighted(&[1; 4]);
        for k in &kids {
            assert!(!k.is_exhausted(), "no slice is born exhausted");
            assert!(k.tick(1), "every slice can do at least one unit of work");
        }
        // The documented invariant: sum = remaining when remaining >= ways…
        let wide = Budget::fuel(10).split_weighted(&[1; 3]);
        let total: u64 = wide.iter().map(|k| k.remaining_fuel().unwrap()).sum();
        assert_eq!(total, 10);
        // …and sum = ways (each slice exactly 1) when 0 < remaining < ways.
        let narrow = Budget::fuel(2).split_weighted(&[1; 4]);
        let total: u64 = narrow.iter().map(|k| k.remaining_fuel().unwrap()).sum();
        assert_eq!(total, 4, "remainder spreads, then every slice floors at 1");
        // A drained pool still yields fuel-less slices.
        let dry = Budget::fuel(0).split_weighted(&[1; 3]);
        assert!(dry.iter().all(|k| k.remaining_fuel() == Some(0)));
    }

    #[test]
    fn equal_weights_spread_the_remainder_round_robin() {
        // 10 fuel over 4 equal slices: 3, 3, 2, 2 — never 4, 2, 2, 2.
        // Shares differ by at most one tick, so no worker is
        // systematically favoured by its slice index.
        let shares: Vec<u64> = Budget::fuel(10)
            .split_weighted(&[1; 4])
            .iter()
            .map(|k| k.remaining_fuel().unwrap())
            .collect();
        assert_eq!(shares, vec![3, 3, 2, 2]);
        for ways in 1..=9 {
            let shares: Vec<u64> = Budget::fuel(23)
                .split_weighted(&vec![1; ways])
                .iter()
                .map(|k| k.remaining_fuel().unwrap())
                .collect();
            assert_eq!(shares.iter().sum::<u64>(), 23);
            let (lo, hi) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(hi - lo <= 1, "shares {shares:?} differ by more than 1");
        }
    }

    #[test]
    fn split_weighted_is_proportional_and_deterministic() {
        let shares: Vec<u64> = Budget::fuel(100)
            .split_weighted(&[1, 2, 7])
            .iter()
            .map(|k| k.remaining_fuel().unwrap())
            .collect();
        assert_eq!(shares, vec![10, 20, 70]);
        // Rounding leftovers go to the largest fractional parts, ties by
        // index; the total is exact.
        let shares: Vec<u64> = Budget::fuel(10)
            .split_weighted(&[1, 1, 1])
            .iter()
            .map(|k| k.remaining_fuel().unwrap())
            .collect();
        assert_eq!(shares.iter().sum::<u64>(), 10);
        // Equal weights give the flat shares: the remainder goes one
        // tick apiece to the first slices (the flat-policy bit-identity
        // contract).
        let shares: Vec<u64> = Budget::fuel(23)
            .split_weighted(&[1; 5])
            .iter()
            .map(|k| k.remaining_fuel().unwrap())
            .collect();
        assert_eq!(shares, vec![5, 5, 5, 4, 4]);
        // Zero weights stay viable, and a positive pool floors at 1.
        let shares: Vec<u64> = Budget::fuel(8)
            .split_weighted(&[0, 1000])
            .iter()
            .map(|k| k.remaining_fuel().unwrap())
            .collect();
        assert!(shares[0] >= 1 && shares.iter().sum::<u64>() >= 8);
        // An unlimited parent yields unlimited slices.
        assert!(Budget::unlimited()
            .split_weighted(&[3, 1])
            .iter()
            .all(|k| k.remaining_fuel().is_none()));
    }

    #[test]
    fn child_refused_tick_does_not_charge_the_parent() {
        // Regression: the child's own pool is checked *first*, so a tick
        // the child refuses is work that never happens and must leave the
        // parent's fuel and spent counter untouched.
        let parent = Budget::fuel(100);
        let child = parent.child(Some(2), None);
        assert!(!child.tick(5), "child cap (2) refuses the tick");
        assert_eq!(parent.remaining_fuel(), Some(100), "parent fuel intact");
        assert_eq!(parent.report().fuel_spent, 0, "parent spent nothing");
        // Accepted ticks still charge through.
        let child = parent.child(Some(10), None);
        assert!(child.tick(4));
        assert_eq!(parent.remaining_fuel(), Some(96));
        assert_eq!(parent.report().fuel_spent, 4);
    }

    #[test]
    fn deadline_recheck_tracks_cost_since_last_check() {
        // Regression: the clock re-check amortizes on cost accumulated
        // since the last check, so a short deadline is detected promptly
        // even when individual costs exceed the whole check period.
        let b = Budget::deadline(Duration::from_millis(40));
        assert!(b.tick(1), "first tick always checks; deadline is ahead");
        std::thread::sleep(Duration::from_millis(90));
        assert!(
            !b.tick(DEADLINE_CHECK_PERIOD * 8),
            "a single oversized cost crosses the period and re-checks"
        );
        assert!(b.is_exhausted());
        // And small costs re-check within one period of accumulated work.
        let b = Budget::deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(20));
        let mut refused = false;
        for _ in 0..=DEADLINE_CHECK_PERIOD {
            if !b.tick(1) {
                refused = true;
                break;
            }
        }
        assert!(refused, "at most one period of cost passes between checks");
    }

    #[test]
    fn recovery_slice_is_fresh_fuel_with_the_shared_log() {
        let parent = Budget::fuel(1);
        assert!(!parent.tick(2));
        assert!(parent.is_exhausted());
        // Recovery runs precisely when the main pool is dry: the slice is
        // born usable, with its own strictly bounded allowance…
        let rec = parent.recovery_slice(3);
        assert!(!rec.is_exhausted());
        assert!(rec.tick(3));
        assert!(!rec.tick(1), "…which still exhausts on its own");
        // …and its events land in the parent's report.
        rec.degrade("test/narrow", "ran dry");
        assert_eq!(
            parent.report().events_of(LossKind::BudgetDegrade).count(),
            1
        );
        // A deadline-exhausted budget yields a deadline-exhausted slice:
        // the anytime contract survives recovery.
        let timed = Budget::deadline(Duration::ZERO);
        assert!(timed.recovery_slice(10).is_exhausted());
    }

    #[test]
    fn exhausting_the_parent_cancels_its_slices() {
        let parent = Budget::unlimited();
        let kids = parent.split_weighted(&[1, 1]);
        assert!(kids[0].tick(1));
        parent.exhaust();
        assert!(
            kids[0].is_exhausted(),
            "cancellation reaches running slices"
        );
        assert!(!kids[1].tick(1));
    }

    #[test]
    fn child_is_a_restriction_charged_to_the_parent() {
        let parent = Budget::fuel(10);
        let child = parent.child(Some(3), None);
        assert!(child.tick(2));
        assert_eq!(
            parent.remaining_fuel(),
            Some(8),
            "child work drains the parent"
        );
        assert!(!child.tick(2), "child cap (3) binds before parent fuel");
        assert!(child.is_exhausted());
        assert!(
            !parent.is_exhausted(),
            "an exhausted child leaves the parent usable for the next attempt"
        );
        // A second child sees the parent's remaining pool.
        let retry = parent.child(Some(4), None);
        assert!(retry.tick(4));
        // And exhausting the parent stops any live child.
        let live = parent.child(None, None);
        parent.exhaust();
        assert!(live.is_exhausted());
        assert!(!live.tick(1));
    }

    #[test]
    fn child_observations_land_in_the_parent_report() {
        let parent = Budget::unlimited();
        let child = parent.child(None, None);
        child.degrade("test/child", "gave up");
        child.record(Event::new(LossKind::Panic, "test/supervisor", "injected").scoped("p0"));
        let r = parent.report();
        assert!(r.degraded);
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.events_of(LossKind::Panic).count(), 1);
        assert_eq!(r.blame.count("p0", "test/supervisor", LossKind::Panic), 1);
        assert_eq!(parent.degrade_count(), child.degrade_count());
    }

    #[test]
    fn only_degrading_kinds_flag_the_budget() {
        // A caught panic whose retry succeeded produced the exact result,
        // and a widening or a skipped store substitutes nothing either:
        // only the degrading kinds may claim precision loss.
        let b = Budget::unlimited();
        assert!(b.tick(5));
        for kind in LossKind::ALL.into_iter().filter(|k| !k.degrades()) {
            b.record(Event::new(kind, "test/site", "observed"));
        }
        assert!(!b.degraded());
        assert_eq!(b.degrade_count(), 0);
        b.record(Event::new(LossKind::Stall, "test/watchdog", "overran").scoped("p"));
        assert!(b.degraded());
        assert_eq!(b.degrade_count(), 1);
        let r = b.report();
        assert_eq!(r.events.len(), 6);
        assert!(
            r.events.iter().all(|e| e.fuel == 5),
            "stamped with the spent fuel"
        );
    }

    #[test]
    fn merge_caps_each_kind_and_keeps_drop_counts() {
        let mk = |n: usize, dropped: usize| {
            let b = Budget::unlimited();
            for i in 0..n {
                b.record(
                    Event::new(LossKind::Stall, "test/watchdog", "slow").scoped(&format!("p{i}")),
                );
            }
            let mut r = b.report();
            r.dropped_events += dropped;
            r
        };
        let mut merged = DegradationReport::default();
        for _ in 0..3 {
            merged.merge(&mk(40, 2));
        }
        assert_eq!(merged.events.len(), MAX_EVENTS_PER_KIND);
        // 120 offered, 64 stored, 56 overflowed here, plus 3×2 already
        // dropped upstream: no event is ever silently lost.
        assert_eq!(merged.dropped_events, 120 - MAX_EVENTS_PER_KIND + 6);
        // The blame tables add up, uncapped: every scope saw 3 stalls.
        assert_eq!(
            merged.blame.count("p39", "test/watchdog", LossKind::Stall),
            3
        );
        assert_eq!(
            merged.events_of(LossKind::Stall).count(),
            MAX_EVENTS_PER_KIND
        );
        assert_eq!(merged.events_of(LossKind::Panic).count(), 0);
    }

    #[test]
    fn split_weighted_of_unlimited_is_unlimited() {
        let kids = Budget::unlimited().split_weighted(&[1, 1]);
        for k in &kids {
            assert!(k.tick(1_000_000));
            assert!(!k.is_exhausted());
        }
    }

    #[test]
    fn split_weighted_of_exhausted_is_exhausted() {
        let parent = Budget::fuel(1);
        parent.exhaust();
        for k in parent.split_weighted(&[1; 4]) {
            assert!(k.is_exhausted());
            assert!(!k.tick(1));
        }
    }

    #[test]
    fn split_weighted_shares_absolute_deadline() {
        let parent = Budget::deadline(Duration::ZERO);
        for k in parent.split_weighted(&[1, 1]) {
            assert!(k.is_exhausted());
        }
    }

    #[test]
    fn reports_merge() {
        let a = Budget::fuel(2);
        let b = Budget::fuel(1);
        assert!(a.tick(1));
        assert!(!b.tick(2));
        b.degrade("test/b", "gave up");
        let mut merged = a.report();
        merged.merge(&b.report());
        assert!(merged.degraded);
        assert!(merged.exhausted);
        assert_eq!(merged.fuel_spent, 3);
        assert_eq!(merged.events.len(), 1);
        assert_eq!(merged.dropped_events, 0);
        assert_eq!(
            merged
                .blame
                .count("(top)", "test/b", LossKind::BudgetDegrade),
            1
        );
    }

    #[test]
    fn untraced_budget_records_no_spans() {
        let b = Budget::unlimited();
        assert!(!b.tracing());
        let span = b.span(|| -> String { unreachable!("name built while tracing is off") });
        assert!(span.is_none());
        // A slice of an untraced budget is untraced too.
        let slice = &b.split_weighted(&[1])[0];
        assert!(slice.span(|| "off").is_none());
        assert!(b.report().trace.spans.is_empty());
        assert!(slice.report().trace.spans.is_empty());
    }

    #[test]
    fn spans_land_in_the_run_report() {
        let parent = Budget::unlimited();
        parent.set_tracing(true);
        {
            let _outer = parent.span(|| "test/outer");
            // Child and recovery budgets share the parent's log and switch…
            let _child = parent.child(None, None).span(|| "test/child");
            let _rec = parent.recovery_slice(5).span(|| format!("test/rec-{}", 1));
        }
        // …while a split slice keeps its own log, traced like its parent.
        let slice = parent.split_weighted(&[1, 1]).remove(0);
        assert!(slice.tracing());
        drop(slice.span(|| "test/slice"));
        let mut report = parent.report();
        let names: Vec<&str> = report.trace.spans.iter().map(|s| s.name.as_str()).collect();
        // Spans close inside out.
        assert_eq!(names, ["test/rec-1", "test/child", "test/outer"]);
        report.merge(&slice.report());
        assert_eq!(report.trace.spans.len(), 4);
        assert_eq!(report.trace.dropped, 0);
        let json = report.trace.to_chrome_json();
        assert_eq!(json.matches(r#""ph":"X""#).count(), 4);
        // Switching off stops recording.
        parent.set_tracing(false);
        assert!(parent.span(|| "test/late").is_none());
        assert_eq!(parent.report().trace.spans.len(), 3);
    }
}
