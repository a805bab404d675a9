//! Unit tests for `NOSaturation` (Property 1) and the direct/reduced
//! product plumbing over the real domains.

use cai_core::{no_saturate, AbstractDomain, DirectProduct, ReducedProduct};
use cai_linarith::AffineEq;
use cai_term::parse::Vocab;
use cai_term::{Var, VarSet};
use cai_uf::UfDomain;

fn vocab() -> Vocab {
    Vocab::standard()
}

#[test]
fn saturation_exchanges_equalities_both_ways() {
    let v = vocab();
    let lin = AffineEq::new();
    let uf = UfDomain::new();
    // LA knows a = b; UF knows x = F(a), y = F(b). After saturation UF
    // must know x = y; that equality then flows back into LA.
    let e1 = lin.from_conj(&v.parse_conj("a = b").unwrap());
    let e2 = uf.from_conj(&v.parse_conj("x = F(a) & y = F(b)").unwrap());
    let s = no_saturate(&lin, e1, &uf, e2);
    assert!(!s.bottom);
    assert!(s.equalities.same(Var::named("a"), Var::named("b")));
    assert!(s.equalities.same(Var::named("x"), Var::named("y")));
    assert!(lin.implies_atom(&s.left, &v.parse_atom("x = y").unwrap()));
    assert!(uf.implies_atom(&s.right, &v.parse_atom("x = y").unwrap()));
}

#[test]
fn saturation_chains_through_multiple_rounds() {
    let v = vocab();
    let lin = AffineEq::new();
    let uf = UfDomain::new();
    // Round 1: LA derives p = q (from p = q + 0). UF then derives
    // F(p) = F(q), i.e. r = s; LA then derives t = u from r = s.
    let e1 = lin.from_conj(&v.parse_conj("p = q & t = r + 1 & u = s + 1").unwrap());
    let e2 = uf.from_conj(&v.parse_conj("r = F(p) & s = F(q)").unwrap());
    let s = no_saturate(&lin, e1, &uf, e2);
    assert!(s.equalities.same(Var::named("r"), Var::named("s")));
    assert!(s.equalities.same(Var::named("t"), Var::named("u")));
}

#[test]
fn saturation_propagates_bottom() {
    let v = vocab();
    let lin = AffineEq::new();
    let uf = UfDomain::new();
    // UF forces a = b; LA has a = b + 1: contradiction.
    let e1 = lin.from_conj(&v.parse_conj("a = b + 1").unwrap());
    let e2 = uf.from_conj(&v.parse_conj("a = F(x) & b = F(y) & x = y").unwrap());
    let s = no_saturate(&lin, e1, &uf, e2);
    assert!(s.bottom);
    assert!(lin.is_bottom(&s.left));
    assert!(uf.is_bottom(&s.right));
}

#[test]
fn saturation_is_idempotent() {
    let v = vocab();
    let lin = AffineEq::new();
    let uf = UfDomain::new();
    let e1 = lin.from_conj(&v.parse_conj("a = b").unwrap());
    let e2 = uf.from_conj(&v.parse_conj("x = F(a) & y = F(b)").unwrap());
    let s1 = no_saturate(&lin, e1, &uf, e2);
    let s2 = no_saturate(&lin, s1.left.clone(), &uf, s1.right.clone());
    assert!(lin.equal_elems(&s1.left, &s2.left));
    assert!(uf.equal_elems(&s1.right, &s2.right));
}

#[test]
fn direct_product_routes_and_projects_ghosts() {
    let v = vocab();
    let d = DirectProduct::new(AffineEq::new(), UfDomain::new());
    // Pure facts route to their side.
    let e = d.from_conj(&v.parse_conj("a = b + 1 & x = F(y)").unwrap());
    assert!(d.implies_atom(&e, &v.parse_atom("a = b + 1").unwrap()));
    assert!(d.implies_atom(&e, &v.parse_atom("x = F(y)").unwrap()));
    // A mixed fact decays: ghosts are eliminated component-wise.
    let e2 = d.meet_atom(&e, &v.parse_atom("z = F(a + b)").unwrap());
    assert!(!d.implies_atom(&e2, &v.parse_atom("z = F(a + b)").unwrap()));
    // The pure facts survive.
    assert!(d.implies_atom(&e2, &v.parse_atom("a = b + 1").unwrap()));
}

#[test]
fn direct_product_exists_and_join() {
    let v = vocab();
    let d = DirectProduct::new(AffineEq::new(), UfDomain::new());
    let a = d.from_conj(&v.parse_conj("p = 1 & x = F(p)").unwrap());
    let b = d.from_conj(&v.parse_conj("p = 1 & x = F(p) & q = 2").unwrap());
    let j = d.join(&a, &b);
    assert!(d.implies_atom(&j, &v.parse_atom("p = 1").unwrap()));
    assert!(d.implies_atom(&j, &v.parse_atom("x = F(p)").unwrap()));
    assert!(!d.implies_atom(&j, &v.parse_atom("q = 2").unwrap()));
    let elim: VarSet = [Var::named("p")].into_iter().collect();
    let q = d.exists(&j, &elim);
    assert!(!d.implies_atom(&q, &v.parse_atom("p = 1").unwrap()));
}

#[test]
fn reduced_product_le_and_bottom() {
    let v = vocab();
    let d = ReducedProduct::new(AffineEq::new(), UfDomain::new());
    let a = d.from_conj(&v.parse_conj("a = 1 & x = F(a)").unwrap());
    let b = d.from_conj(&v.parse_conj("x = F(a)").unwrap());
    assert!(d.le(&a, &b));
    assert!(!d.le(&b, &a));
    assert!(d.le(&d.bottom(), &a));
    assert!(d.is_bottom(&d.from_conj(&v.parse_conj("a = 1 & a = 2").unwrap())));
}

/// Adversarial mock domains that stress the exchange loop's termination
/// and bottom handling beyond what the well-behaved real domains exercise.
mod adversarial {
    use cai_core::{
        no_saturate, no_saturate_budgeted, AbstractDomain, Budget, LossKind, Partition,
    };
    use cai_term::{Atom, Conj, Sig, Term, TheoryTag, Var, VarSet};
    use std::fmt;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The trivial element: just a bottom flag.
    #[derive(Clone, PartialEq, Debug)]
    struct Mark(bool);

    impl fmt::Display for Mark {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(if self.0 { "false" } else { "mock" })
        }
    }

    /// A scriptable domain: `eqs` maps the `var_equalities` call index to
    /// the partition reported on that call, and `fragile` makes any
    /// equality meet collapse to bottom.
    struct Mock {
        tag: TheoryTag,
        eqs: Box<dyn Fn(u64) -> Partition>,
        calls: AtomicU64,
        fragile: bool,
    }

    impl Mock {
        fn new(tag: TheoryTag, eqs: impl Fn(u64) -> Partition + 'static) -> Mock {
            Mock {
                tag,
                eqs: Box::new(eqs),
                calls: AtomicU64::new(0),
                fragile: false,
            }
        }

        fn fragile(mut self) -> Mock {
            self.fragile = true;
            self
        }
    }

    impl AbstractDomain for Mock {
        type Elem = Mark;

        fn sig(&self) -> Sig {
            Sig::single(self.tag)
        }

        fn top(&self) -> Mark {
            Mark(false)
        }

        fn bottom(&self) -> Mark {
            Mark(true)
        }

        fn is_bottom(&self, e: &Mark) -> bool {
            e.0
        }

        fn meet_atom(&self, e: &Mark, atom: &Atom) -> Mark {
            if self.fragile && matches!(atom, Atom::Eq(..)) {
                Mark(true)
            } else {
                e.clone()
            }
        }

        fn implies_atom(&self, e: &Mark, _atom: &Atom) -> bool {
            e.0
        }

        fn join(&self, a: &Mark, b: &Mark) -> Mark {
            Mark(a.0 && b.0)
        }

        fn exists(&self, e: &Mark, _vars: &VarSet) -> Mark {
            e.clone()
        }

        fn var_equalities(&self, _e: &Mark) -> Partition {
            (self.eqs)(self.calls.fetch_add(1, Ordering::Relaxed))
        }

        fn alternate(&self, _e: &Mark, _y: Var, _avoid: &VarSet) -> Option<Term> {
            None
        }

        fn to_conj(&self, e: &Mark) -> Conj {
            if e.0 {
                Conj::of(Atom::eq(Term::int(0), Term::int(1)))
            } else {
                Conj::new()
            }
        }
    }

    fn inert(tag: TheoryTag) -> Mock {
        Mock::new(tag, |_| Partition::new())
    }

    /// A domain that invents a brand-new equality over fresh variables on
    /// every query never reaches the partition fixpoint; only the budget
    /// can stop it, and it must do so with a sound degraded result.
    #[test]
    fn budget_stops_endless_equality_stream() {
        let d1 = Mock::new(TheoryTag::LINARITH, |n| {
            let mut p = Partition::new();
            p.union(Var::named(&format!("g{n}")), Var::named(&format!("h{n}")));
            p
        });
        let d2 = inert(TheoryTag::UF);
        let budget = Budget::fuel(64);
        let s = no_saturate_budgeted(&d1, Mark(false), &d2, Mark(false), &budget);
        assert!(s.degraded, "exchange must stop via the budget");
        assert!(!s.bottom);
        assert!(budget.is_exhausted());
        let report = budget.report();
        assert!(report
            .events_of(LossKind::BudgetDegrade)
            .any(|e| e.site == "no_saturate"));
    }

    /// The exchanged equality itself produces bottom in the partner
    /// domain (a conjunction that is only jointly unsatisfiable): the
    /// next round must detect it and propagate bottom to both sides.
    #[test]
    fn exchanged_equality_can_produce_bottom() {
        let d1 = Mock::new(TheoryTag::LINARITH, |_| {
            let mut p = Partition::new();
            p.union(Var::named("a"), Var::named("b"));
            p
        });
        let d2 = inert(TheoryTag::UF).fragile();
        let s = no_saturate(&d1, Mark(false), &d2, Mark(false));
        assert!(s.bottom);
        assert!(d1.is_bottom(&s.left));
        assert!(d2.is_bottom(&s.right));
        assert!(s.equalities.same(Var::named("a"), Var::named("b")));
    }

    /// Two domains that each report a *different* single equality on every
    /// round — over a fixed, finite variable set. The joint partition only
    /// coarsens and is bounded, so the loop must still exit on its own,
    /// with every reported equality merged.
    #[test]
    fn disagreeing_rounds_converge_via_partition_bound() {
        let rotate = |n: u64| {
            let mut p = Partition::new();
            let i = (n % 3) as usize;
            p.union(
                Var::named(&format!("v{i}")),
                Var::named(&format!("v{}", i + 1)),
            );
            p
        };
        let d1 = Mock::new(TheoryTag::LINARITH, rotate);
        let d2 = Mock::new(TheoryTag::UF, move |n| rotate(n + 2));
        let s = no_saturate(&d1, Mark(false), &d2, Mark(false));
        assert!(!s.bottom);
        assert!(!s.degraded);
        // Everything the two streams ever reported ends up merged.
        for i in 0..3 {
            assert!(s.equalities.same(
                Var::named(&format!("v{i}")),
                Var::named(&format!("v{}", i + 1))
            ));
        }
    }
}

#[test]
fn reduced_product_var_equalities_merge_components() {
    let v = vocab();
    let d = ReducedProduct::new(AffineEq::new(), UfDomain::new());
    let e = d.from_conj(&v.parse_conj("a = b & x = F(a) & y = F(b)").unwrap());
    let p = d.var_equalities(&e);
    assert!(p.same(Var::named("a"), Var::named("b")));
    assert!(p.same(Var::named("x"), Var::named("y")));
}
