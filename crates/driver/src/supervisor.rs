//! Supervised execution: the layer that keeps one faulty procedure from
//! taking down a batch.
//!
//! The combination algorithms promise "never panic, only lose precision"
//! for *budget exhaustion*; this module extends the same contract to the
//! failure modes the math ignores — a panicking domain component, a
//! procedure whose fixpoint stalls, garbage from a corrupted cache. The
//! policy, end to end:
//!
//! 1. **Isolate.** Every per-procedure analysis runs inside
//!    [`supervise`], the one `catch_unwind` boundary of the workspace
//!    (`ci.sh` greps for strays). A panic is caught, recorded as a
//!    [`LossKind::Panic`] event on the job's budget slice, and silenced
//!    from stderr while inside the boundary (the quiet hook below) so a
//!    chaos run does not drown the logs.
//! 2. **Retry with backoff.** A panicked procedure is re-attempted up to
//!    [`SupervisorCfg::max_retries`] times, each attempt under a
//!    [`Budget::child`] restriction holding *half* the fuel the previous
//!    attempt saw — a crash loop burns out quickly instead of consuming
//!    the batch's budget.
//! 3. **Quarantine to ⊤.** When retries are exhausted the procedure is
//!    pinned to the sound [`Summary::top`](crate::Summary::top): callers
//!    havoc on its results, SCC fixpoints still converge, dependents
//!    stay sound. Quarantined results are never persisted to the
//!    incremental cache.
//! 4. **Watch for stragglers.** An optional [`Watchdog`] holds a
//!    per-procedure wall-clock deadline; overrunning it exhausts the
//!    job's budget slice, which turns a hang or a stall into the
//!    already-tested graceful-degradation path — every governed loop
//!    bails at its next check and the batch moves on.
//!
//! Determinism: supervision decisions depend only on the supervised
//! computation itself (which panics are injected deterministically by
//! seed in chaos runs) and on the per-job budget slice — never on which
//! worker thread ran the job — so retry and quarantine outcomes are
//! bit-identical across thread counts. The watchdog is the one
//! deliberately wall-clock-dependent piece and is off by default.

use cai_core::{Budget, Event, LossKind};
use cai_obs::clock;
use std::cell::Cell;
use std::ops::AddAssign;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::time::{Duration, Instant};

/// Supervision policy knobs, carried by the driver into every job.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorCfg {
    /// Retries granted to a panicking procedure before quarantine (so a
    /// procedure gets `max_retries + 1` attempts in total).
    pub max_retries: u32,
    /// Per-procedure wall-clock deadline; `None` (the default) disarms
    /// the watchdog.
    pub proc_deadline: Option<Duration>,
}

impl Default for SupervisorCfg {
    fn default() -> SupervisorCfg {
        SupervisorCfg {
            max_retries: 2,
            proc_deadline: None,
        }
    }
}

/// Supervision counters of one run. Each job dispatch counts its own,
/// and the engine adds them to the run's only when the dispatch returns:
/// a wholesale crash abandons the dispatch's results, so its
/// retry/quarantine accounting must not leak into the run's counters (the
/// event log, by contrast, keeps the full trace including abandoned
/// dispatches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupStats {
    /// Panics caught at the supervision boundary (every attempt counts).
    pub panics_caught: u64,
    /// Retry attempts granted after a caught panic.
    pub retries: u64,
    /// Procedures that panicked and then completed on a retry.
    pub recovered: u64,
    /// Watchdog firings (procedure overran its deadline; job slice
    /// exhausted).
    pub stalls: u64,
    /// Procedures pinned to the sound ⊤ summary after exhausting their
    /// retry allowance (component-wide crashes count each member).
    pub quarantined: u64,
}

impl AddAssign for SupStats {
    fn add_assign(&mut self, other: SupStats) {
        self.panics_caught += other.panics_caught;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.stalls += other.stalls;
        self.quarantined += other.quarantined;
    }
}

thread_local! {
    /// Nesting depth of supervised regions on this thread; nonzero means
    /// a panic here will be caught (and should not spam stderr).
    static SUPERVISED_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// RAII marker for "panics on this thread are being supervised".
struct SupervisedRegion;

impl SupervisedRegion {
    fn enter() -> SupervisedRegion {
        SUPERVISED_DEPTH.with(|d| d.set(d.get() + 1));
        SupervisedRegion
    }
}

impl Drop for SupervisedRegion {
    fn drop(&mut self) {
        SUPERVISED_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Installs (once per process) a panic hook that stays silent for
/// supervised panics and defers to the previous hook for everything
/// else. A chaos run injects thousands of panics by design; without
/// this, every one would print a backtrace banner for an event the
/// supervisor absorbs by contract.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SUPERVISED_DEPTH.with(|d| d.get()) == 0 {
                prev(info);
            }
        }));
    });
}

/// Renders a caught panic payload for event records.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with panics caught and silenced, returning the panic message
/// on unwind. This is the job-level safety net of the engine: the
/// per-procedure [`supervise`] boundary inside `f` absorbs expected
/// faults, so `guard` only trips on a panic escaping the solver itself.
///
/// Unwind-safety audit for the `AssertUnwindSafe` below: `f` closes over
/// the job's domain instance, context resolver, and budget slice. On
/// unwind (a) `RefCell` borrows are released by their guards, and the
/// resolver's memo store only ever holds *fully computed* summaries —
/// partial state lives on the unwound stack; (b) the domain's shared
/// memo (`SplitCache`) is poison-recovered and inserts complete entries
/// atomically; (c) budget counters are atomics, always consistent; (d)
/// the engine's summary/report tables are only written after a
/// successful return; (e) the job's counters are plain values — the
/// dispatch's `SupStats` are dropped on unwind, and the `CtxStats` cell
/// is only ever replaced whole. No broken invariant outlives the unwind.
pub(crate) fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    let _region = SupervisedRegion::enter();
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// The outcome of a supervised per-procedure analysis.
pub(crate) enum Supervised<T> {
    /// An attempt completed (possibly after caught panics and retries).
    Done(T),
    /// Every attempt panicked; the caller must pin the procedure to the
    /// sound ⊤ summary.
    Quarantined,
}

/// Runs one per-procedure analysis under the full supervision policy:
/// catch panics, retry with halved-fuel backoff, quarantine when the
/// allowance is spent. `attempt` receives the budget restriction for
/// that attempt (a [`Budget::child`] of `slice`, so its fuel is charged
/// to the job and its observations land in the job's report).
///
/// The `AssertUnwindSafe` here is the same audited boundary as
/// [`guard`]'s — see the audit note there; `attempt` closes over strictly
/// less state (one procedure's analysis rather than the whole job).
pub(crate) fn supervise<T>(
    subject: &str,
    cfg: &SupervisorCfg,
    slice: &Budget,
    stats: &mut SupStats,
    watchdog: Option<&Watchdog>,
    mut attempt: impl FnMut(&Budget) -> T,
) -> Supervised<T> {
    install_quiet_hook();
    for k in 0..=cfg.max_retries {
        if let Some(wd) = watchdog {
            wd.watch(subject);
        }
        // Attempt 0 runs under the slice's own limits (plus the
        // per-procedure deadline); attempt k > 0 may use at most 1/2^k of
        // the fuel still in the slice, so a deterministic crash loop
        // decays geometrically instead of draining the batch.
        let fuel = if k == 0 {
            None
        } else {
            slice.remaining_fuel().map(|f| (f >> k).max(1))
        };
        let attempt_budget = slice.child(fuel, cfg.proc_deadline);
        let outcome = {
            let _region = SupervisedRegion::enter();
            panic::catch_unwind(AssertUnwindSafe(|| attempt(&attempt_budget)))
        };
        if let Some(wd) = watchdog {
            wd.pause();
        }
        match outcome {
            Ok(value) => {
                if k > 0 {
                    stats.recovered += 1;
                }
                return Supervised::Done(value);
            }
            Err(payload) => {
                stats.panics_caught += 1;
                let detail = format!("attempt {k}: {}", panic_message(payload.as_ref()));
                slice.record(
                    Event::new(LossKind::Panic, "driver/supervisor", detail).scoped(subject),
                );
                if k < cfg.max_retries {
                    stats.retries += 1;
                }
            }
        }
    }
    stats.quarantined += 1;
    let detail = format!(
        "all {} attempts panicked; summary pinned to \u{22a4}",
        cfg.max_retries + 1
    );
    slice.record(Event::new(LossKind::Quarantine, "driver/supervisor", detail).scoped(subject));
    Supervised::Quarantined
}

/// Clock subject while no single procedure is on it: the SCC glue
/// between attempts (joins, entailment checks, the recording pass).
const GLUE_SUBJECT: &str = "<scc glue>";

#[derive(Debug)]
struct WatchState {
    /// The subject currently on the clock and its absolute deadline.
    /// `None` only after a stop request.
    watching: Option<(String, Instant)>,
    stop: bool,
    fired: bool,
}

#[derive(Debug)]
struct WatchShared {
    budget: Budget,
    deadline: Duration,
    state: Mutex<WatchState>,
    wake: Condvar,
}

/// The cooperative straggler watchdog for one job: a helper thread that
/// waits out each procedure's wall-clock deadline and, on overrun,
/// exhausts the job's budget slice — turning a stalled or hung analysis
/// into the ordinary graceful-degradation path (every governed loop,
/// including [`ChaosDomain`](cai_core::ChaosDomain) stall-fault spins,
/// checks the budget and bails). The supervisor restarts the clock via
/// [`watch`](Watchdog::watch) before each attempt and hands it back to
/// the between-procedures sentinel via [`pause`](Watchdog::pause) after
/// — the clock never goes dark while the job is live, because the SCC
/// glue (summary joins and entailment checks between attempts) runs the
/// same domain and can stall just as well as a procedure body. It fires
/// at most once, because a fired slice is already dead for the rest of
/// the job.
#[derive(Debug)]
pub(crate) struct Watchdog {
    shared: Arc<WatchShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns the watchdog thread for one job slice.
    pub(crate) fn arm(budget: Budget, deadline: Duration) -> Watchdog {
        let shared = Arc::new(WatchShared {
            budget,
            deadline,
            state: Mutex::new(WatchState {
                watching: Some((GLUE_SUBJECT.to_string(), clock::now() + deadline)),
                stop: false,
                fired: false,
            }),
            wake: Condvar::new(),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::spawn(move || Watchdog::run(&thread_shared));
        Watchdog {
            shared,
            handle: Some(handle),
        }
    }

    fn run(shared: &WatchShared) {
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.stop {
                return;
            }
            match state.watching.clone() {
                None => {
                    state = shared.wake.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                Some((subject, due)) => {
                    let now = clock::now();
                    if now < due {
                        let (next, _) = shared
                            .wake
                            .wait_timeout(state, due - now)
                            .unwrap_or_else(|e| e.into_inner());
                        state = next;
                        continue;
                    }
                    state.fired = true;
                    state.watching = None;
                    drop(state);
                    let detail = format!(
                        "exceeded the {:?} procedure deadline; budget slice exhausted",
                        shared.deadline
                    );
                    shared.budget.record(
                        Event::new(LossKind::Stall, "driver/supervisor", detail).scoped(&subject),
                    );
                    shared.budget.exhaust();
                    return;
                }
            }
        }
    }

    /// Puts `subject` on the clock: the deadline restarts from now.
    pub(crate) fn watch(&self, subject: &str) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.watching = Some((subject.to_string(), clock::now() + self.shared.deadline));
        drop(state);
        self.shared.wake.notify_all();
    }

    /// Hands the clock back to the between-procedures sentinel (attempt
    /// finished). The deadline restarts: glue work gets the same
    /// allowance as a procedure body, and a stall there is caught too.
    pub(crate) fn pause(&self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.watching = Some((
            GLUE_SUBJECT.to_string(),
            clock::now() + self.shared.deadline,
        ));
        drop(state);
        self.shared.wake.notify_all();
    }

    /// Stops the watchdog thread and reports whether it fired.
    pub(crate) fn stop(mut self) -> bool {
        self.halt();
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .fired
    }

    fn halt(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.stop = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_passes_through_untouched() {
        let mut stats = SupStats::default();
        let slice = Budget::fuel(100);
        let out = supervise(
            "ok",
            &SupervisorCfg::default(),
            &slice,
            &mut stats,
            None,
            |b| {
                assert!(b.tick(1));
                42
            },
        );
        assert!(matches!(out, Supervised::Done(42)));
        assert_eq!(stats, SupStats::default());
        assert!(slice.report().events.is_empty());
    }

    #[test]
    fn one_panic_then_recovery_is_counted_and_logged() {
        let mut stats = SupStats::default();
        let slice = Budget::fuel(1000);
        let mut calls = 0u32;
        let out = supervise(
            "flaky",
            &SupervisorCfg::default(),
            &slice,
            &mut stats,
            None,
            |_| {
                calls += 1;
                if calls == 1 {
                    panic!("injected once");
                }
                "fine"
            },
        );
        assert!(matches!(out, Supervised::Done("fine")));
        assert_eq!(stats.panics_caught, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.quarantined, 0);
        let report = slice.report();
        let panics: Vec<_> = report.events_of(LossKind::Panic).collect();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].scope, "flaky");
        assert!(panics[0].detail.contains("attempt 0: injected once"));
        assert!(
            !report.degraded,
            "a recovered panic produced the exact result"
        );
    }

    #[test]
    fn persistent_panics_quarantine_with_halved_fuel_attempts() {
        let mut stats = SupStats::default();
        let slice = Budget::fuel(64);
        let mut seen_fuel: Vec<Option<u64>> = Vec::new();
        let out = supervise(
            "doomed",
            &SupervisorCfg::default(),
            &slice,
            &mut stats,
            None,
            |b| -> () {
                seen_fuel.push(b.remaining_fuel());
                panic!("always");
            },
        );
        assert!(matches!(out, Supervised::Quarantined));
        // Attempt 0 is uncapped (parent fuel binds); retries are capped at
        // half, then a quarter, of the fuel left in the slice.
        assert_eq!(seen_fuel.len(), 3);
        assert_eq!(seen_fuel[0], None);
        let h1 = seen_fuel[1].expect("retry 1 is fuel-capped");
        let h2 = seen_fuel[2].expect("retry 2 is fuel-capped");
        assert!((1..=32).contains(&h1));
        assert!(h2 <= h1);
        assert_eq!(stats.panics_caught, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.quarantined, 1);
        let report = slice.report();
        assert!(report.degraded, "quarantine is a real precision loss");
        assert_eq!(report.events_of(LossKind::Quarantine).count(), 1);
        // Recorded once, as its own kind: no extra `budget-degrade`.
        assert_eq!(report.events_of(LossKind::BudgetDegrade).count(), 0);
    }

    #[test]
    fn max_retries_zero_quarantines_on_first_panic() {
        let mut stats = SupStats::default();
        let slice = Budget::unlimited();
        let cfg = SupervisorCfg {
            max_retries: 0,
            ..SupervisorCfg::default()
        };
        let out = supervise("strict", &cfg, &slice, &mut stats, None, |_| -> () {
            panic!("once is enough")
        });
        assert!(matches!(out, Supervised::Quarantined));
        assert_eq!(stats.panics_caught, 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn watchdog_exhausts_a_stalling_slice() {
        let mut stats = SupStats::default();
        let slice = Budget::unlimited();
        let watchdog = Watchdog::arm(slice.clone(), Duration::from_millis(20));
        let out = supervise(
            "spinner",
            &SupervisorCfg::default(),
            &slice,
            &mut stats,
            Some(&watchdog),
            |b| {
                // A cooperative stall: spins until cancelled, exactly like
                // the chaos stall fault.
                while !b.is_exhausted() {
                    std::thread::yield_now();
                }
                "unstuck"
            },
        );
        assert!(matches!(out, Supervised::Done("unstuck")));
        assert!(watchdog.stop(), "the watchdog fired");
        assert_eq!(stats, SupStats::default());
        let report = slice.report();
        let stalls: Vec<_> = report.events_of(LossKind::Stall).collect();
        assert_eq!(stalls.len(), 1);
        // Blamed on the procedure on the clock, not the watchdog thread.
        assert_eq!(stalls[0].scope, "spinner");
        assert_eq!(report.events_of(LossKind::BudgetDegrade).count(), 0);
        assert!(report.degraded && report.exhausted);
    }

    #[test]
    fn watchdog_stays_quiet_for_fast_procedures() {
        let mut stats = SupStats::default();
        let slice = Budget::unlimited();
        let watchdog = Watchdog::arm(slice.clone(), Duration::from_secs(60));
        for name in ["a", "b", "c"] {
            let out = supervise(
                name,
                &SupervisorCfg::default(),
                &slice,
                &mut stats,
                Some(&watchdog),
                |_| name,
            );
            assert!(matches!(out, Supervised::Done(_)));
        }
        assert!(!watchdog.stop(), "the watchdog stayed quiet");
        assert_eq!(stats, SupStats::default());
        assert!(!slice.is_exhausted());
    }

    #[test]
    fn guard_reports_the_panic_message() {
        assert_eq!(guard(|| 7), Ok(7));
        let err = guard(|| -> u32 { panic!("solver bug {}", 3) }).unwrap_err();
        assert!(err.contains("solver bug 3"));
    }
}
