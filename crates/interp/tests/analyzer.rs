//! Integration tests of the abstract-interpretation engine across the
//! base domains: transfer-function behaviour, conditionals, widening, and
//! assertion checking.

use cai_core::{AbstractDomain, Budget, LogicalProduct, LossKind};
use cai_interp::{parse_program, Analyzer};
use cai_linarith::{AffineEq, Polyhedra};
use cai_numeric::ParityDomain;
use cai_term::parse::Vocab;
use cai_uf::UfDomain;

fn verified(src: &str, run: impl Fn(&cai_interp::Program) -> Vec<bool>) -> Vec<bool> {
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, src).expect("program parses");
    run(&p)
}

fn with_affine(src: &str) -> Vec<bool> {
    verified(src, |p| {
        let d = AffineEq::new();
        let analysis = Analyzer::new(&d).run(p);
        analysis.assertions.iter().map(|a| a.verified).collect()
    })
}

fn with_poly(src: &str) -> Vec<bool> {
    verified(src, |p| {
        let d = Polyhedra::new();
        let analysis = Analyzer::new(&d).run(p);
        assert!(!analysis.diverged, "polyhedra analysis diverged");
        analysis.assertions.iter().map(|a| a.verified).collect()
    })
}

#[test]
fn straight_line_arithmetic() {
    assert_eq!(
        with_affine("x := 3; y := 2*x + 1; z := y - x; assert(z = 4); assert(y = 7);"),
        [true, true]
    );
}

#[test]
fn assignment_uses_pre_state() {
    // x on the right-hand side refers to the old value.
    assert_eq!(
        with_affine("x := 1; x := x + 1; x := x + x; assert(x = 4);"),
        [true]
    );
}

#[test]
fn self_referential_swap() {
    assert_eq!(
        with_affine(
            "a := 5; b := 7;
             t := a; a := b; b := t;
             assert(a = 7); assert(b = 5);"
        ),
        [true, true]
    );
}

#[test]
fn conditional_join_loses_branch_but_keeps_common() {
    assert_eq!(
        with_affine(
            "if (*) { x := 1; y := 2; } else { x := 3; y := 6; }
             assert(y = 2*x);
             assert(x = 1);"
        ),
        [true, false]
    );
}

#[test]
fn condition_atoms_are_assumed() {
    assert_eq!(
        with_poly(
            "x := *;
             if (x >= 5) { assert(x >= 5); assert(x >= 6); }
             else { assert(x <= 4); }"
        ),
        // Inside then: x >= 5 holds, x >= 6 does not; else: integer-style
        // negation gives x + 1 <= 5.
        [true, false, true]
    );
}

#[test]
fn widening_terminates_unbounded_counter() {
    // The polyhedra domain has infinite ascending chains; without
    // widening this loop would never stabilize.
    let vocab = Vocab::standard();
    let p = parse_program(
        &vocab,
        "x := 0;
         while (x < 100) { x := x + 1; }
         assert(x >= 100);
         assert(0 <= x);
         assert(x <= 100);",
    )
    .unwrap();
    let d = Polyhedra::new();
    let analysis = Analyzer::new(&d).run(&p);
    assert!(!analysis.diverged, "widening failed to terminate the loop");
    let got: Vec<bool> = analysis.assertions.iter().map(|a| a.verified).collect();
    // Exit knows ¬(x < 100) i.e. x >= 100, and the stable lower bound; the
    // upper bound x <= 100 requires narrowing, which the engine does not
    // do (standard widening-only behaviour).
    assert_eq!(got, [true, true, false]);
}

#[test]
fn havoc_forgets() {
    assert_eq!(
        with_affine("x := 1; y := x; x := *; assert(y = 1); assert(x = 1);"),
        [true, false]
    );
}

#[test]
fn assume_strengthens() {
    assert_eq!(
        with_affine("x := *; assume(x = 7); y := x + 1; assert(y = 8);"),
        [true]
    );
}

#[test]
fn unreachable_code_verifies_everything() {
    assert_eq!(
        with_affine("x := 1; assume(x = 2); assert(x = 99);"),
        [true]
    );
}

#[test]
fn parity_through_a_loop() {
    let vocab = Vocab::standard();
    let p = parse_program(
        &vocab,
        "x := 0;
         while (*) { x := x + 2; }
         assert(even(x));
         assert(odd(x + 1));",
    )
    .unwrap();
    let d = ParityDomain::new();
    let analysis = Analyzer::new(&d).run(&p);
    let got: Vec<bool> = analysis.assertions.iter().map(|a| a.verified).collect();
    assert_eq!(got, [true, true]);
}

#[test]
fn op_stats_are_recorded() {
    let vocab = Vocab::standard();
    let p = parse_program(
        &vocab,
        "x := 0; while (*) { x := x + 1; } if (*) { x := 0; } else { x := 1; }",
    )
    .unwrap();
    let d = AffineEq::new();
    let analysis = Analyzer::new(&d).run(&p);
    assert!(analysis.stats.joins >= 2);
    assert!(analysis.stats.exists >= 3);
    assert!(analysis.stats.meets >= 3);
}

#[test]
fn logical_product_keeps_mixed_invariants_through_branches() {
    let vocab = Vocab::standard();
    let p = parse_program(
        &vocab,
        "if (*) { k := 1; } else { k := 2; }
         r := F(k + 3);
         assert(r = F(k + 3));
         assert(r = F(4));",
    )
    .unwrap();
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    let analysis = Analyzer::new(&d).run(&p);
    let got: Vec<bool> = analysis.assertions.iter().map(|a| a.verified).collect();
    assert_eq!(got, [true, false]);
}

#[test]
fn entry_element_is_respected() {
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, "y := x + 1; assert(y = 11);").unwrap();
    let d = AffineEq::new();
    let entry = d.from_conj(&vocab.parse_conj("x = 10").unwrap());
    let analysis = Analyzer::new(&d).run_from(&p, entry);
    assert!(analysis.assertions[0].verified);
}

#[test]
fn iteration_cap_reports_divergence() {
    // A pathological setup: widening disabled (huge delay) on an
    // infinite-height domain; the engine must hit the cap and say so.
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, "x := 0; while (*) { x := x + 1; }").unwrap();
    let d = Polyhedra::new();
    let analysis = Analyzer::new(&d)
        .widen_delay(1000)
        .max_iterations(5)
        .run(&p);
    assert!(analysis.diverged);
}

#[test]
fn widen_delay_beyond_cap_still_terminates() {
    // The widening delay exceeds the iteration cap, so widening never
    // fires; the cap alone must stop the loop, flag divergence, and the
    // capped state cannot verify a fact that only holds on entry.
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, "x := 0; while (*) { x := x + 1; } assert(x = 0);").unwrap();
    let d = Polyhedra::new();
    let analysis = Analyzer::new(&d).widen_delay(50).max_iterations(3).run(&p);
    assert!(analysis.diverged);
    assert_eq!(analysis.loop_iterations, vec![3]);
    assert!(!analysis.assertions[0].verified);
}

#[test]
fn budget_exhaustion_forces_top_invariant_soundly() {
    // One budget governs both the engine and the domain. When it runs
    // out mid-fixpoint the loop invariant is forced to ⊤ — sound for any
    // loop — the run still terminates, and the degradation report names
    // the site.
    let vocab = Vocab::standard();
    let p = parse_program(
        &vocab,
        "x := 0; while (*) { x := x + 1; } assert(x = 0); assert(0 <= x);",
    )
    .unwrap();
    let budget = Budget::fuel(3);
    let d = Polyhedra::new().with_budget(budget.clone());
    let analysis = Analyzer::new(&d).with_budget(budget).run(&p);
    assert!(analysis.diverged);
    assert!(analysis.degradation.degraded);
    assert!(analysis.degradation.exhausted);
    assert!(analysis
        .degradation
        .events_of(LossKind::BudgetDegrade)
        .any(|ev| ev.site == "analyzer/while"));
    // ⊤ verifies nothing specific about x: both assertions must fail
    // rather than be claimed unsoundly.
    let got: Vec<bool> = analysis.assertions.iter().map(|a| a.verified).collect();
    assert_eq!(got, [false, false]);
}

/// A wrapper domain whose widening degrades to ⊤ while exhausting the
/// shared budget — modelling a per-loop budget running out *inside* the
/// widen itself (sound: ⊤ over-approximates any widen result).
struct ExhaustingWiden {
    inner: AffineEq,
    budget: Budget,
}

impl AbstractDomain for ExhaustingWiden {
    type Elem = <AffineEq as AbstractDomain>::Elem;

    fn sig(&self) -> cai_term::Sig {
        self.inner.sig()
    }
    fn top(&self) -> Self::Elem {
        self.inner.top()
    }
    fn bottom(&self) -> Self::Elem {
        self.inner.bottom()
    }
    fn is_bottom(&self, e: &Self::Elem) -> bool {
        self.inner.is_bottom(e)
    }
    fn meet_atom(&self, e: &Self::Elem, atom: &cai_term::Atom) -> Self::Elem {
        self.inner.meet_atom(e, atom)
    }
    fn implies_atom(&self, e: &Self::Elem, atom: &cai_term::Atom) -> bool {
        self.inner.implies_atom(e, atom)
    }
    fn join(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.inner.join(a, b)
    }
    fn exists(&self, e: &Self::Elem, vars: &cai_term::VarSet) -> Self::Elem {
        self.inner.exists(e, vars)
    }
    fn var_equalities(&self, e: &Self::Elem) -> cai_core::Partition {
        self.inner.var_equalities(e)
    }
    fn alternate(
        &self,
        e: &Self::Elem,
        y: cai_term::Var,
        avoid: &cai_term::VarSet,
    ) -> Option<cai_term::Term> {
        self.inner.alternate(e, y, avoid)
    }
    fn to_conj(&self, e: &Self::Elem) -> cai_term::Conj {
        self.inner.to_conj(e)
    }
    fn widen(&self, _a: &Self::Elem, _b: &Self::Elem) -> Self::Elem {
        self.budget.exhaust();
        self.budget
            .degrade("test/widen", "budget ran out mid-widen; forced top");
        self.inner.top()
    }
}

#[test]
fn budget_exhaustion_during_final_widen_still_flags_divergence() {
    // Regression: when the budget runs out *inside* a widening that
    // degrades to ⊤ and the fixpoint test then succeeds in the same
    // round (⊤ ⊑ ⊤ here, since the entry state is already unconstrained),
    // the loop used to stabilize silently with `diverged = false`. The
    // divergence flag must also be set on this path, not only when the
    // iteration cap fires or exhaustion is observed at the top of a
    // round.
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, "while (*) { x := x + 1; }").unwrap();
    let budget = Budget::fuel(1_000_000);
    let d = ExhaustingWiden {
        inner: AffineEq::new(),
        budget: budget.clone(),
    };
    // widen_delay(0): the very first round widens, exhausting the budget
    // and returning ⊤, which is ⊑ the (already top) candidate invariant.
    let analysis = Analyzer::new(&d).widen_delay(0).with_budget(budget).run(&p);
    assert_eq!(analysis.loop_iterations, vec![1], "loop must stabilize");
    assert!(
        analysis.diverged,
        "budget exhaustion during the final widen must set `diverged`"
    );
    assert!(analysis.degradation.exhausted);
}

#[test]
fn exhausted_budget_on_logical_product_reports_and_terminates() {
    // The full combined analysis under a starvation budget: it must come
    // back (no divergence of the process itself), flag degradation, and
    // never verify an assertion that the unlimited run also rejects.
    let vocab = Vocab::standard();
    let src = "if (*) { k := 1; } else { k := 2; }
               r := F(k + 3);
               while (*) { r := F(r); }
               assert(r = F(4));";
    let p = parse_program(&vocab, src).unwrap();
    let clean_domain = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    let clean = Analyzer::new(&clean_domain).run(&p);
    let budget = Budget::fuel(5);
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(budget.clone());
    let analysis = Analyzer::new(&d).with_budget(budget).run(&p);
    assert!(analysis.degradation.exhausted);
    for (starved, full) in analysis.assertions.iter().zip(&clean.assertions) {
        assert!(
            !starved.verified || full.verified,
            "starved run verified {} which the unlimited run rejects",
            starved.atom
        );
    }
}
