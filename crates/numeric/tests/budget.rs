//! Fuel-exhaustion degradation tests for the parity and sign domains,
//! mirroring the `ChaosDomain` contract: under any budget the refinement
//! fixpoints must not panic, must terminate, and must never prove a fact
//! the unbudgeted domain rejects — they only pin fewer parities / keep
//! more sign alternatives.

use cai_core::{AbstractDomain, Budget, LossKind};
use cai_numeric::{ParityDomain, SignDomain};
use cai_term::parse::Vocab;

const PARITY_ELEMS: &[&str] = &[
    "even(x0) & x = x0 - 1",
    "even(a) & odd(b)",
    "even(x) & x = y + 1",
    "odd(p) & q = p + p",
    "even(m) & n = m + 3 & k = n + 1",
];

const PARITY_CHECKS: &[&str] = &[
    "odd(x)",
    "even(x)",
    "odd(a + b)",
    "even(a + b + 1)",
    "odd(y)",
    "even(q)",
    "even(k)",
    "odd(n)",
];

#[test]
fn budgeted_parity_never_proves_more_than_the_clean_one() {
    let vocab = Vocab::standard();
    let clean = ParityDomain::new();
    for fuel in 0..100u64 {
        let budget = Budget::fuel(fuel);
        let d = ParityDomain::new().with_budget(budget.clone());
        for src in PARITY_ELEMS {
            let conj = vocab.parse_conj(src).expect("conj parses");
            let degraded = d.from_conj(&conj);
            let exact = clean.from_conj(&conj);
            for check in PARITY_CHECKS {
                let atom = vocab.parse_atom(check).expect("atom parses");
                if d.implies_atom(&degraded, &atom) {
                    assert!(
                        clean.implies_atom(&exact, &atom),
                        "fuel={fuel}: budgeted parity proved `{check}` from `{src}` \
                         which the exact domain rejects"
                    );
                }
            }
        }
    }
}

#[test]
fn budgeted_parity_may_miss_contradictions_but_not_invent_them() {
    let vocab = Vocab::standard();
    for fuel in 0..60u64 {
        let budget = Budget::fuel(fuel);
        let d = ParityDomain::new().with_budget(budget.clone());
        // Contradictory input: the budgeted domain may fail to notice
        // (sound over-approximation of ⊥) but must not crash.
        let contra = vocab
            .parse_conj("even(x) & x = y + 1 & even(y)")
            .expect("parses");
        let _ = d.from_conj(&contra);
        // Satisfiable input must never be reported bottom.
        let sat = vocab.parse_conj("even(x) & odd(y)").expect("parses");
        let e = d.from_conj(&sat);
        assert!(
            !d.is_bottom(&e),
            "fuel={fuel}: degradation invented a contradiction"
        );
    }
}

const SIGN_ELEMS: &[&str] = &[
    "positive(x) & y = x + 1",
    "negative(a) & b = 0 - a",
    "positive(p) & positive(q) & r = p + q",
    "x = 0 - z & negative(z) & w = x + 1",
];

const SIGN_CHECKS: &[&str] = &[
    "positive(y)",
    "positive(b)",
    "positive(r)",
    "negative(r)",
    "positive(x)",
    "positive(w)",
    "negative(a + b)",
];

#[test]
fn budgeted_sign_never_proves_more_than_the_clean_one() {
    let vocab = Vocab::standard();
    let clean = SignDomain::new();
    for fuel in 0..100u64 {
        let budget = Budget::fuel(fuel);
        let d = SignDomain::new().with_budget(budget.clone());
        for src in SIGN_ELEMS {
            let conj = vocab.parse_conj(src).expect("conj parses");
            let degraded = d.from_conj(&conj);
            let exact = clean.from_conj(&conj);
            for check in SIGN_CHECKS {
                let atom = vocab.parse_atom(check).expect("atom parses");
                if d.implies_atom(&degraded, &atom) {
                    assert!(
                        clean.implies_atom(&exact, &atom),
                        "fuel={fuel}: budgeted sign proved `{check}` from `{src}` \
                         which the exact domain rejects"
                    );
                }
            }
        }
    }
}

#[test]
fn exhaustion_is_reported_by_both_domains() {
    let vocab = Vocab::standard();
    let conj = vocab
        .parse_conj("even(x0) & x = x0 - 1 & y = x + 1 & z = y + 1")
        .expect("parses");
    let budget = Budget::fuel(1);
    let d = ParityDomain::new().with_budget(budget.clone());
    let _ = d.from_conj(&conj);
    let report = budget.report();
    assert!(report.exhausted);
    assert!(report
        .events_of(LossKind::BudgetDegrade)
        .any(|ev| ev.site == "parity/refine"));

    let sconj = vocab
        .parse_conj("positive(x) & y = x + 1 & z = y + x")
        .expect("parses");
    let sbudget = Budget::fuel(1);
    let sd = SignDomain::new().with_budget(sbudget.clone());
    let _ = sd.from_conj(&sconj);
    let sreport = sbudget.report();
    assert!(sreport.exhausted);
    assert!(sreport
        .events_of(LossKind::BudgetDegrade)
        .any(|ev| ev.site == "sign/refine"));
}

#[test]
fn unlimited_budget_changes_nothing() {
    let vocab = Vocab::standard();
    let clean = ParityDomain::new();
    let budget = Budget::unlimited();
    let d = ParityDomain::new().with_budget(budget.clone());
    for src in PARITY_ELEMS {
        let conj = vocab.parse_conj(src).expect("parses");
        for check in PARITY_CHECKS {
            let atom = vocab.parse_atom(check).expect("parses");
            assert_eq!(
                d.implies_atom(&d.from_conj(&conj), &atom),
                clean.implies_atom(&clean.from_conj(&conj), &atom),
                "{src} ⇒ {check}"
            );
        }
    }
    assert!(!budget.report().degraded);
}
