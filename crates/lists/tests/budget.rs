//! Fuel-exhaustion degradation tests for the lists domain, mirroring the
//! `ChaosDomain` contract: under any budget the domain must not panic,
//! must terminate, and must never prove a fact the unbudgeted domain
//! rejects — degradation only ever loses precision.

use cai_core::{AbstractDomain, Budget, LossKind};
use cai_lists::ListDomain;
use cai_term::parse::Vocab;
use cai_term::{Var, VarSet};

const ELEMS: &[&str] = &[
    "l = cons(a, b)",
    "l = cons(a, cons(b, t))",
    "l = cons(x, t) & m = t",
    "l = cons(a, b) & x = car(l) & y = a",
    "h = car(l) & r = cdr(l) & l = cons(p, q)",
];

const CHECKS: &[&str] = &[
    "car(l) = a",
    "cdr(l) = b",
    "car(cdr(l)) = b",
    "l = cons(x, m)",
    "x = y",
    "h = p",
    "r = q",
];

#[test]
fn budgeted_domain_never_proves_more_than_the_clean_one() {
    let vocab = Vocab::standard();
    let clean = ListDomain::new();
    for fuel in 0..100u64 {
        let budget = Budget::fuel(fuel);
        let d = ListDomain::new().with_budget(budget.clone());
        for src in ELEMS {
            let conj = vocab.parse_conj(src).expect("conj parses");
            let degraded = d.from_conj(&conj);
            let exact = clean.from_conj(&conj);
            for check in CHECKS {
                let atom = vocab.parse_atom(check).expect("atom parses");
                if d.implies_atom(&degraded, &atom) {
                    assert!(
                        clean.implies_atom(&exact, &atom),
                        "fuel={fuel}: budgeted domain proved `{check}` from `{src}` \
                         which the exact domain rejects"
                    );
                }
            }
        }
    }
}

#[test]
fn budgeted_join_and_exists_stay_sound() {
    let vocab = Vocab::standard();
    let clean = ListDomain::new();
    let a_src = "l = cons(x, t) & m = t";
    let b_src = "l = cons(x, u) & m = u";
    let check = vocab.parse_atom("l = cons(x, m)").expect("atom parses");
    let erase: VarSet = [Var::named("a")].into_iter().collect();
    for fuel in 0..100u64 {
        let budget = Budget::fuel(fuel);
        let d = ListDomain::new().with_budget(budget.clone());
        let (ca, cb) = (
            vocab.parse_conj(a_src).expect("parses"),
            vocab.parse_conj(b_src).expect("parses"),
        );
        let j = d.join(&d.from_conj(&ca), &d.from_conj(&cb));
        if d.implies_atom(&j, &check) {
            let cj = clean.join(&clean.from_conj(&ca), &clean.from_conj(&cb));
            assert!(clean.implies_atom(&cj, &check), "fuel={fuel}: unsound join");
        }
        // exists must actually erase the requested variables even when
        // degraded (keeping a constraint on an erased variable would be
        // unsound scoping, not just imprecision).
        let e_src = vocab.parse_conj("l = cons(a, t) & h = a").expect("parses");
        let q = d.exists(&d.from_conj(&e_src), &erase);
        let vars: VarSet = d.to_conj(&q).vars();
        assert!(
            !vars.contains(&Var::named("a")),
            "fuel={fuel}: exists kept an erased variable"
        );
    }
}

#[test]
fn exhaustion_is_reported() {
    let vocab = Vocab::standard();
    let budget = Budget::fuel(1);
    let d = ListDomain::new().with_budget(budget.clone());
    let conj = vocab
        .parse_conj("l = cons(a, cons(b, cons(c, t)))")
        .expect("parses");
    let _ = d.from_conj(&conj);
    let report = budget.report();
    assert!(report.exhausted, "one tick cannot saturate that closure");
    assert!(report.degraded, "the early stop must be recorded");
    assert!(report
        .events_of(LossKind::BudgetDegrade)
        .any(|ev| ev.site == "lists/saturate"));
}

#[test]
fn unlimited_budget_changes_nothing() {
    let vocab = Vocab::standard();
    let clean = ListDomain::new();
    let budget = Budget::unlimited();
    let d = ListDomain::new().with_budget(budget.clone());
    for src in ELEMS {
        let conj = vocab.parse_conj(src).expect("parses");
        for check in CHECKS {
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
