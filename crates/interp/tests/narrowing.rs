//! Integration tests of the post-widening narrowing recovery pass: the
//! pinned precision-recovery case and its counters, its soundness
//! bracket, recovery after budget-forced widening, and the flat-policy
//! bit-identity contract.

use cai_core::{AbstractDomain, Budget, BudgetPolicy};
use cai_interp::{parse_program, Analyzer, Program};
use cai_linarith::Polyhedra;
use cai_term::parse::Vocab;

/// The canonical widening-loss program: widening extrapolates the loop
/// invariant of `x` to an unbounded upper bound, so the exit state knows
/// `x >= 100` (loop-condition negation) and `x >= 0` but not `x <= 100`
/// — unless a descending (narrowing) pass recovers it.
const COUNTER_LOOP: &str = "x := 0;
     while (x < 100) { x := x + 1; }
     assert(x >= 100);
     assert(0 <= x);
     assert(x <= 100);";

fn counter_program() -> Program {
    parse_program(&Vocab::standard(), COUNTER_LOOP).expect("program parses")
}

#[test]
fn narrowing_recovers_the_widened_upper_bound() {
    // Pinned recovery case: under the flat policy the upper bound is
    // lost (see `widening_terminates_unbounded_counter` in analyzer.rs);
    // under the adaptive policy the bounded narrowing pass recovers
    // x <= 100, flipping the third assertion to verified.
    let p = counter_program();
    let d = Polyhedra::new();

    let flat = Analyzer::new(&d).run(&p);
    let flat_got: Vec<bool> = flat.assertions.iter().map(|a| a.verified).collect();
    assert_eq!(flat_got, [true, true, false], "flat loses the upper bound");
    assert_eq!(flat.stats.narrow_rounds, 0, "flat never narrows");

    let adaptive = Analyzer::new(&d)
        .with_policy(BudgetPolicy::adaptive())
        .run(&p);
    assert!(!adaptive.diverged);
    let got: Vec<bool> = adaptive.assertions.iter().map(|a| a.verified).collect();
    assert_eq!(got, [true, true, true], "narrowing recovers x <= 100");
    assert!(adaptive.stats.narrow_rounds > 0, "narrowing actually ran");
    assert_eq!(adaptive.stats.narrow_recoveries, 1, "one loop recovered");
}

#[test]
fn narrowed_invariant_is_sound_and_below_the_widened_one() {
    // The narrowing contract, checked on abstract elements: the narrowed
    // exit state must be ⊑ the widened one (narrowing only descends) and
    // must still over-approximate the concrete exit state x = 100.
    let p = counter_program();
    let d = Polyhedra::new();
    let widened = Analyzer::new(&d).run(&p).exit;
    let narrowed = Analyzer::new(&d)
        .with_policy(BudgetPolicy::adaptive())
        .run(&p)
        .exit;

    assert!(
        d.le(&narrowed, &widened),
        "narrowed exit must be below the widened exit"
    );
    assert!(
        !d.le(&widened, &narrowed),
        "recovery must be strict on this program"
    );
    // The concrete exit state: exactly x = 100.
    let concrete = parse_program(&Vocab::standard(), "x := 100;").expect("parses");
    let exact = Analyzer::new(&d).run(&concrete).exit;
    assert!(
        d.le(&exact, &narrowed),
        "narrowed exit must still cover the concrete fixpoint x = 100"
    );
}

#[test]
fn narrowing_recovers_after_budget_forced_widening() {
    // Starve the fixpoint so the loop is cut short by fuel exhaustion
    // (forced over-approximation) — the recovery slice is independent
    // fuel, so the narrowing pass still runs and still tightens.
    let p = counter_program();
    let d = Polyhedra::new();

    let starved_flat = Analyzer::new(&d).with_budget(Budget::fuel(40)).run(&p);
    let flat_got: Vec<bool> = starved_flat.assertions.iter().map(|a| a.verified).collect();
    assert!(
        !flat_got[2],
        "starved flat run must not verify the upper bound"
    );

    let starved_adaptive = Analyzer::new(&d)
        .with_budget(Budget::fuel(40))
        .with_policy(BudgetPolicy::adaptive())
        .run(&p);
    let got: Vec<bool> = starved_adaptive
        .assertions
        .iter()
        .map(|a| a.verified)
        .collect();
    assert_eq!(
        got,
        [true, true, true],
        "narrowing recovers even when the main pool ran dry"
    );
    assert!(starved_adaptive.stats.narrow_recoveries >= 1);
    // The starved recovery stays inside the soundness bracket: below
    // the widened exit of an unstarved flat run.
    let widened = Analyzer::new(&d).run(&p).exit;
    assert!(
        d.le(&starved_adaptive.exit, &widened),
        "starved narrowing escaped the widened bracket"
    );
}

#[test]
fn flat_policy_is_bit_identical_to_the_default() {
    // BudgetPolicy::flat() must be indistinguishable from not setting a
    // policy at all: same verdicts, same exit element, same counters.
    let p = counter_program();
    let d = Polyhedra::new();
    let default_run = Analyzer::new(&d).run(&p);
    let flat_run = Analyzer::new(&d).with_policy(BudgetPolicy::flat()).run(&p);

    assert!(d.equal_elems(&default_run.exit, &flat_run.exit));
    let dv: Vec<bool> = default_run.assertions.iter().map(|a| a.verified).collect();
    let fv: Vec<bool> = flat_run.assertions.iter().map(|a| a.verified).collect();
    assert_eq!(dv, fv);
    assert_eq!(default_run.loop_iterations, flat_run.loop_iterations);
    assert_eq!(default_run.stats.joins, flat_run.stats.joins);
    assert_eq!(default_run.stats.widens, flat_run.stats.widens);
    assert_eq!(flat_run.stats.narrow_rounds, 0);
    assert_eq!(flat_run.stats.narrow_recoveries, 0);
}

#[test]
fn flat_policy_spends_identical_fuel() {
    // The fuel trace is part of the bit-identity contract: a flat-policy
    // run must tick exactly what the pre-policy engine ticked.
    let p = counter_program();
    let d = Polyhedra::new();
    let b_default = Budget::fuel(100_000);
    let b_flat = Budget::fuel(100_000);
    Analyzer::new(&d).with_budget(b_default.clone()).run(&p);
    Analyzer::new(&d)
        .with_budget(b_flat.clone())
        .with_policy(BudgetPolicy::flat())
        .run(&p);
    assert_eq!(b_default.report().fuel_spent, b_flat.report().fuel_spent);
    assert_eq!(b_default.remaining_fuel(), b_flat.remaining_fuel());
}
