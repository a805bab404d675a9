//! Figure 1 of the paper: the motivating program.
//!
//! Claimed precision ladder:
//!
//! | analysis                       | assertions verified |
//! |--------------------------------|---------------------|
//! | linear equalities alone        | 1 (a2 = 2·a1)       |
//! | uninterpreted functions alone  | 1 (b2 = F(b1))      |
//! | direct product                 | 2 (a, b)            |
//! | reduced product                | 3 (a, b, c)         |
//! | logical product                | 4 (all)             |

use cai_core::{AbstractDomain, JoinStats, LogicalProduct, ReducedProduct};
use cai_interp::{herbrand_view, parse_program, Analyzer, Program};
use cai_linarith::AffineEq;
use cai_term::parse::Vocab;
use cai_uf::UfDomain;

const FIG1: &str = "
    a1 := 0; a2 := 0;
    b1 := 1; b2 := F(1);
    c1 := 2; c2 := 2;
    d1 := 3; d2 := F(4);
    while (b1 < b2) {
        a1 := a1 + 1; a2 := a2 + 2;
        b1 := F(b1);  b2 := F(b2);
        c1 := F(2*c1 - c2); c2 := F(c2);
        d1 := F(1 + d1); d2 := F(d2 + 1);
    }
    assert(a2 = 2*a1);
    assert(b2 = F(b1));
    assert(c2 = c1);
    assert(d2 = F(d1 + 1));
";

fn program(vocab: &Vocab) -> Program {
    parse_program(vocab, FIG1).expect("figure 1 parses")
}

fn verdicts<D: AbstractDomain>(d: &D, p: &Program, herbrand: bool) -> Vec<bool> {
    let analyzer = if herbrand {
        Analyzer::new(d).with_view(herbrand_view)
    } else {
        Analyzer::new(d)
    };
    let analysis = analyzer.run(p);
    assert!(!analysis.diverged, "analysis diverged");
    analysis.assertions.iter().map(|a| a.verified).collect()
}

#[test]
fn linear_equalities_alone_prove_assertion_a() {
    let vocab = Vocab::standard();
    let p = program(&vocab);
    let got = verdicts(&AffineEq::new(), &p, false);
    assert_eq!(got, [true, false, false, false]);
}

#[test]
fn uninterpreted_functions_alone_prove_assertion_b() {
    let vocab = Vocab::standard();
    let p = program(&vocab);
    let got = verdicts(&UfDomain::new(), &p, true);
    assert_eq!(got, [false, true, false, false]);
}

#[test]
fn direct_product_proves_a_and_b() {
    // The direct product "discovers in one shot the information found
    // separately by the component analyses": a fact holds iff some
    // component analysis proves it.
    let vocab = Vocab::standard();
    let p = program(&vocab);
    let lin = verdicts(&AffineEq::new(), &p, false);
    let uf = verdicts(&UfDomain::new(), &p, true);
    let direct: Vec<bool> = lin.iter().zip(&uf).map(|(a, b)| *a || *b).collect();
    assert_eq!(direct, [true, true, false, false]);
}

#[test]
fn reduced_product_proves_a_b_c() {
    let vocab = Vocab::standard();
    let p = program(&vocab);
    let d = ReducedProduct::new(AffineEq::new(), UfDomain::new());
    let got = verdicts(&d, &p, false);
    assert_eq!(got, [true, true, true, false]);
}

#[test]
fn logical_product_proves_all_four() {
    let vocab = Vocab::standard();
    let p = program(&vocab);
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    let got = verdicts(&d, &p, false);
    assert_eq!(got, [true, true, true, true]);
}

/// The logical product's work and result on Figure 1, exactly: a change
/// that makes a component operator cheaper must not move any of them,
/// and one that drops a fact (e.g. joining over fewer pair variables)
/// changes the loop count or the exit state.
#[test]
fn logical_product_work_and_exit_state_are_pinned() {
    let vocab = Vocab::standard();
    let p = program(&vocab);
    let stats = JoinStats::new();
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_stats(stats.clone());
    let analysis = Analyzer::new(&d).run(&p);
    let s = stats.snapshot();
    assert_eq!(analysis.loop_iterations, [3]);
    assert_eq!(
        (s.pairs_generated, s.saturation_rounds, s.qsat_rounds),
        (583, 141, 88)
    );
    assert_eq!(analysis.degradation.fuel_spent, 45);
    assert_eq!(
        analysis.exit.to_string(),
        "a1 = 1/2*a2 & c1 = c2 & b2 = F(b1) & d2 = F(d1 + 1) & b2 + 1 <= b1 + 1"
    );
}
