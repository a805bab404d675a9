//! Regenerates every figure and quantitative claim of *Combining Abstract
//! Interpreters* (Gulwani & Tiwari, PLDI 2006).
//!
//! ```sh
//! cargo run --release -p cai-bench --bin paper_eval            # everything
//! cargo run --release -p cai-bench --bin paper_eval -- fig1    # one item
//! ```
//!
//! Items: fig1 fig2 fig3 fig4 fig6 fig7 fig8 thm6 sec5 complexity compare
//!
//! `--deadline-ms N` runs the whole fig1 family under a wall-clock
//! [`Budget`] and prints the resulting `DegradationReport` — the
//! anytime-analysis preset.
//!
//! `--blame` prints the precision provenance of the canonical
//! widening-loss loop: the flat-policy run's blame table and the
//! differential report that attributes its lost `x <= 100` bound (the
//! workspace's `tests/blame.rs` checks it names the loop's widening
//! site).
//!
//! `--trace-out FILE` traces the figure items: every analyzer and logical
//! product they build draws on one traced budget, whose spans are written
//! as Chrome `trace_event` JSON.

use cai_bench::{args::write_trace_out, fig1_family, thm6_family, Args, ConjGen, FIG1, FIG4, FIG8};
use cai_core::reduce::{EncodeMode, UnaryEncoder};
use cai_core::{
    no_saturate, AbstractDomain, Budget, BudgetPolicy, LogicalProduct, Precision, ReducedProduct,
};
use cai_driver::Driver;
use cai_interp::{herbrand_view, parse_module, parse_program, Analyzer, Program};
use cai_linarith::{AffineEq, Polyhedra};
use cai_numeric::{ParityDomain, SignDomain};
use cai_term::parse::Vocab;
use cai_term::{alien_terms, purify, Sig, TheoryTag, Var, VarSet};
use cai_uf::UfDomain;
use std::time::{Duration, Instant};

fn main() {
    let mut args = Args::parse();
    let trace_out = args.opt_str("--trace-out");
    // The figure items' runs share one unlimited budget, traced on request.
    let run = Budget::unlimited();
    run.set_tracing(trace_out.is_some());
    let deadline_ms = args.opt_value::<u64>("--deadline-ms");
    let blame_flag = args.flag("--blame");
    let ran_mode = deadline_ms.is_some() || blame_flag;
    if let Some(ms) = deadline_ms {
        deadline(ms);
    }
    if blame_flag {
        blame();
    }

    let items = args.rest();
    if !ran_mode || !items.is_empty() {
        let all = items.is_empty() || items.iter().any(|a| a == "all");
        let want = |name: &str| all || items.iter().any(|a| a == name);
        if want("fig1") {
            fig1(&run);
        }
        if want("fig2") {
            fig2();
        }
        if want("fig3") {
            fig3(&run);
        }
        if want("fig4") {
            fig4(&run);
        }
        if want("fig6") {
            fig6(&run);
        }
        if want("fig7") {
            fig7(&run);
        }
        if want("fig8") {
            fig8(&run);
        }
        if want("thm6") {
            thm6(&run);
        }
        if want("sec5") {
            sec5(&run);
        }
        if want("complexity") {
            complexity(&run);
        }
        if want("compare") {
            compare(&run);
        }
    }
    if let Some(path) = trace_out {
        write_trace_out(&path, &run.report().trace);
    }
}

/// Anytime preset: analyze the fig1 family under a wall-clock budget.
/// Every domain transformer sees the same deadline, so whichever loop is
/// mid-flight when it passes degrades (soundly, toward ⊤) instead of
/// running to convergence; the report says exactly where precision went.
fn deadline(ms: u64) {
    header(&format!(
        "--deadline-ms {ms} — anytime analysis under a wall-clock budget"
    ));
    let budget = Budget::deadline(Duration::from_millis(ms));
    let vocab = Vocab::standard();
    for k in 1..=8usize {
        let p = parse_program(&vocab, &fig1_family(k)).expect("family parses");
        let d = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(budget.clone());
        let analysis = Analyzer::new(&d).with_budget(budget.clone()).run(&p);
        let ok = analysis.assertions.iter().filter(|a| a.verified).count();
        println!(
            "k={k}: {ok}/{} verified{}",
            analysis.assertions.len(),
            if analysis.diverged { " (diverged)" } else { "" }
        );
        if budget.is_exhausted() {
            println!("deadline passed during k={k}; stopping the sweep");
            break;
        }
    }
    // The budgeted saturation domains share the same wall clock.
    let d = LogicalProduct::new(
        ParityDomain::new().with_budget(budget.clone()),
        SignDomain::new().with_budget(budget.clone()),
    );
    let p = parse_program(&vocab, FIG8).expect("figure 8 parses");
    let analysis = Analyzer::new(&d).with_budget(budget.clone()).run(&p);
    println!(
        "fig8 under the same budget: {}/{} verified",
        analysis.assertions.iter().filter(|a| a.verified).count(),
        analysis.assertions.len()
    );

    let report = budget.report();
    println!("degradation report:");
    println!("  degraded : {}", report.degraded);
    println!("  exhausted: {}", report.exhausted);
    println!("  fuel     : {} ticks spent", report.fuel_spent);
    for ev in &report.events {
        println!("  event    : [{}] {}", ev.site, ev.detail);
    }
    if report.dropped_events > 0 {
        println!("  (+{} events dropped)", report.dropped_events);
    }
    if report.events.is_empty() {
        println!("  (no degradation events — the deadline was generous)");
    }
}

/// `--blame`: precision provenance on the canonical widening-loss loop.
/// The flat-policy run widens `x <= 100` away and never narrows; its
/// blame table records the loss and the differential report attributes
/// the flat-vs-adaptive assertion delta to the loop's widening site.
fn blame() {
    header("--blame — precision provenance on the canonical widening loss");
    let vocab = Vocab::standard();
    let m = parse_module(&vocab, cai_bench::COUNTER_LOOP_MODULE).expect("counter loop parses");
    let driver = || Driver::new(|_: &Budget| Polyhedra::new());
    let flat = driver().analyze(&m);
    let adaptive = driver().budget_policy(BudgetPolicy::adaptive()).analyze(&m);
    println!("flat-policy blame table:");
    print!("{}", flat.degradation.blame);
    print!(
        "{}",
        cai_driver::differential("adaptive policy", &adaptive, "flat policy", &flat)
    );
}

fn header(title: &str) {
    println!("\n{}\n{}", title, "=".repeat(title.len()));
}

fn verdicts<D: AbstractDomain>(d: &D, p: &Program, herbrand: bool, run: &Budget) -> Vec<bool> {
    let analyzer = Analyzer::new(d).with_budget(run.clone());
    let analyzer = if herbrand {
        analyzer.with_view(herbrand_view)
    } else {
        analyzer
    };
    analyzer
        .run(p)
        .assertions
        .iter()
        .map(|a| a.verified)
        .collect()
}

fn show(verdicts: &[bool]) -> String {
    let marks: Vec<&str> = verdicts
        .iter()
        .map(|v| if *v { "yes" } else { "-" })
        .collect();
    format!(
        "{:<28} ({} verified)",
        marks.join("  "),
        verdicts.iter().filter(|v| **v).count()
    )
}

fn fig1(run: &Budget) {
    header("Figure 1 — precision of direct vs. reduced vs. logical product");
    println!("paper claim: 1 / 1 / 2 / 3 / 4 assertions verified");
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, FIG1).expect("figure 1 parses");
    let lin = verdicts(&AffineEq::new(), &p, false, run);
    println!("linear equalities alone : {}", show(&lin));
    let uf = verdicts(&UfDomain::new(), &p, true, run);
    println!("uninterpreted fns alone : {}", show(&uf));
    let direct: Vec<bool> = lin.iter().zip(&uf).map(|(a, b)| *a || *b).collect();
    println!("direct product          : {}", show(&direct));
    let reduced = ReducedProduct::new(AffineEq::new(), UfDomain::new());
    println!(
        "reduced product         : {}",
        show(&verdicts(&reduced, &p, false, run))
    );
    let logical = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(run.clone());
    println!(
        "logical product         : {}",
        show(&verdicts(&logical, &p, false, run))
    );
}

fn fig2() {
    header("Figure 2 — Purify and NOSaturation");
    let vocab = Vocab::standard();
    let e = vocab
        .parse_conj("x3 <= F(2*x2 - x1) & x3 >= x1 & x1 = F(x1) & x2 = F(F(x1))")
        .expect("figure 2 parses");
    println!("E  = {e}");
    let lin = Sig::single(TheoryTag::LINARITH);
    let uf = Sig::single(TheoryTag::UF);
    let aliens = alien_terms(&e, &lin, &uf);
    let shown: Vec<String> = aliens.iter().map(|t| t.to_string()).collect();
    println!("AlienTerms(E) = {{{}}}", shown.join(", "));
    let p = purify(&e, &lin, &uf);
    println!("V  = {:?}", p.fresh);
    println!("E1 = {}", p.left);
    println!("E2 = {}", p.right);
    let d1 = Polyhedra::new();
    let d2 = UfDomain::new();
    let s = no_saturate(&d1, d1.from_conj(&p.left), &d2, d2.from_conj(&p.right));
    println!("NOSaturation shares: {:?}", s.equalities);
    println!("E1' = {}", s.left);
    println!("E2' = {}", s.right);
}

fn fig3(run: &Budget) {
    header("Figure 3 — the union theory is not a lattice; J in L1 ⋈ L2");
    println!("paper claim: J(x=a ∧ y=b, x=b ∧ y=a) = (x + y = a + b)");
    let vocab = Vocab::standard();
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(run.clone());
    let e1 = vocab.parse_conj("x = a & y = b").expect("parses");
    let e2 = vocab.parse_conj("x = b & y = a").expect("parses");
    let j = d.join(&e1, &e2);
    println!("computed: J = {j}");
}

fn fig4(run: &Budget) {
    header("Figure 4 — strict logical product vs. logical product");
    println!("paper claim: assertion 1 verified, assertion 2 not");
    let vocab = Vocab::standard();
    let p = parse_program(&vocab, FIG4).expect("figure 4 parses");
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(run.clone());
    let got = verdicts(&d, &p, false, run);
    println!("computed: {}", show(&got));
}

fn fig6(run: &Budget) {
    header("Figure 6 — the combined join algorithm, worked example");
    println!("paper claim: J(u=F(w) ∧ w=v+1, u=F(u) ∧ v=F(u)−1) = (u = F(v+1))");
    let vocab = Vocab::standard();
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(run.clone());
    let el = vocab.parse_conj("u = F(w) & w = v + 1").expect("parses");
    let er = vocab.parse_conj("u = F(u) & v = F(u) - 1").expect("parses");
    let j = d.join(&el, &er);
    println!("computed: J = {j}");
}

fn fig7(run: &Budget) {
    header("Figure 7 — the combined quantification algorithm, worked example");
    println!("paper claim: Q(x≤y ∧ y≤u ∧ x=F(F(1+y)) ∧ v=F(y+1), {{x,y}}) = (F(v) ≤ u)");
    let vocab = Vocab::standard();
    let d = LogicalProduct::new(Polyhedra::new(), UfDomain::new()).with_budget(run.clone());
    let e = vocab
        .parse_conj("x <= y & y <= u & x = F(F(1 + y)) & v = F(y + 1)")
        .expect("parses");
    let elim: VarSet = [Var::named("x"), Var::named("y")].into_iter().collect();
    let q = d.exists(&e, &elim);
    println!("computed: Q = {q}");
}

fn fig8(run: &Budget) {
    header("Figure 8 — non-disjoint theories: sound but incomplete");
    println!("paper claim: combination yields odd(x), most precise is odd(x) ∧ positive(x)");
    let vocab = Vocab::standard();
    let d = LogicalProduct::new(ParityDomain::new(), SignDomain::new()).with_budget(run.clone());
    assert_eq!(d.precision(), Precision::HeuristicNonDisjoint);
    println!("precision classification: {:?}", d.precision());
    let p = parse_program(&vocab, FIG8).expect("figure 8 parses");
    let got = verdicts(&d, &p, false, run);
    println!(
        "computed: odd(x) {} / positive(x) {}",
        if got[0] { "verified" } else { "MISSED" },
        if got[1] {
            "UNEXPECTEDLY VERIFIED"
        } else {
            "not verified (as predicted)"
        }
    );
}

fn thm6(run: &Budget) {
    header("Theorem 6 — fixpoint iterations over the combined lattice");
    println!("paper claim: H_combined ≤ H_L1 + H_L2 + |AlienTerms|");
    println!(
        "{:<4} {:>8} {:>6} {:>10} {:>8} {:>18}",
        "k", "affine", "uf", "combined", "aliens", "bound respected?"
    );
    let vocab = Vocab::standard();
    for k in 1..=4 {
        let p = parse_program(&vocab, &thm6_family(k)).expect("family parses");
        let lin: usize = Analyzer::new(&AffineEq::new())
            .with_budget(run.clone())
            .run(&p)
            .loop_iterations
            .iter()
            .sum();
        let uf: usize = Analyzer::new(&UfDomain::new())
            .with_budget(run.clone())
            .with_view(herbrand_view)
            .run(&p)
            .loop_iterations
            .iter()
            .sum();
        let d = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(run.clone());
        let analysis = Analyzer::new(&d).with_budget(run.clone()).run(&p);
        let combined: usize = analysis.loop_iterations.iter().sum();
        let aliens = alien_terms(
            &analysis.exit,
            &Sig::single(TheoryTag::LINARITH),
            &Sig::single(TheoryTag::UF),
        )
        .len();
        println!(
            "{:<4} {:>8} {:>6} {:>10} {:>8} {:>18}",
            k,
            lin,
            uf,
            combined,
            aliens,
            if combined <= lin + uf + aliens + 1 {
                "yes"
            } else {
                "NO"
            }
        );
    }
}

fn sec5(run: &Budget) {
    header("Section 5 — reductions to unary-UF ⋈ linear arithmetic");
    let vocab = Vocab::standard();
    let mut enc = UnaryEncoder::new(EncodeMode::Commutative);
    for src in ["Gc(a, b)", "Gc(b, a)", "Gc(Gc(a, b), c)"] {
        let t = vocab.parse_term(src).expect("parses");
        println!("M({src}) = {}", enc.encode_term(&t));
    }
    let mut enc2 = UnaryEncoder::new(EncodeMode::MultiArity);
    for src in ["H(a, b, c)", "H(c, b, a)"] {
        let t = vocab.parse_term(src).expect("parses");
        println!("M({src}) = {}", enc2.encode_term(&t));
    }
    // Program-level check: commutativity proved through the reduction.
    let p = parse_program(&vocab, "x := Gc(p, q); y := Gc(q, p); assert(x = y);").expect("parses");
    let mut enc3 = UnaryEncoder::new(EncodeMode::Commutative);
    let encoded = p.map_terms(&mut |t| enc3.encode_term(t));
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(run.clone());
    let got = verdicts(&d, &encoded, false, run);
    println!(
        "commutativity assertion through the reduction: {}",
        show(&got)
    );
}

fn complexity(run: &Budget) {
    header("§4.4 — measured cost of combined operators (µs, medians of 3)");
    println!(
        "{:<6} {:>12} {:>12} {:>14} {:>12} {:>14}",
        "n", "J_affine", "J_uf", "J_logical", "Q_affine", "Q_logical"
    );
    for &n in &[2usize, 3, 4, 6] {
        let mut gen = ConjGen::new(5000 + n as u64, n);
        let lin = AffineEq::new();
        let uf = UfDomain::new();
        let logical =
            LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(run.clone());
        let (la, lb) = gen.join_pair(n, 2, false);
        let (ea, eb) = (lin.from_conj(&la), lin.from_conj(&lb));
        let (ma, mb) = gen.join_pair(n, 2, true);
        let sig = Sig::single(TheoryTag::UF);
        let ua = uf.from_conj(&ma.iter().filter(|a| sig.owns_atom(a)).cloned().collect());
        let ub = uf.from_conj(&mb.iter().filter(|a| sig.owns_atom(a)).cloned().collect());
        let elim: VarSet = (0..n / 2).map(|i| Var::named(&format!("w{i}"))).collect();

        let t_jl = median_us(|| {
            lin.join(&ea, &eb);
        });
        let t_ju = median_us(|| {
            uf.join(&ua, &ub);
        });
        let t_jc = median_us(|| {
            logical.join(&ma, &mb);
        });
        let t_ql = median_us(|| {
            lin.exists(&ea, &elim);
        });
        let t_qc = median_us(|| {
            logical.exists(&ma, &elim);
        });
        println!(
            "{:<6} {:>12.1} {:>12.1} {:>14.1} {:>12.1} {:>14.1}",
            n, t_jl, t_ju, t_jc, t_ql, t_qc
        );
    }
}

fn median_us(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[1]
}

fn compare(run: &Budget) {
    header("§7 — cost & precision: direct vs. reduced vs. logical (fig1 family)");
    println!(
        "{:<4} {:>10} {:>12} {:>12} | {:>8} {:>8} {:>8}",
        "k", "direct ms", "reduced ms", "logical ms", "dir ok", "red ok", "log ok"
    );
    let vocab = Vocab::standard();
    for k in 1..=3usize {
        let p = parse_program(&vocab, &fig1_family(k)).expect("family parses");
        let t0 = Instant::now();
        let lin = verdicts(&AffineEq::new(), &p, false, run);
        let uf = verdicts(&UfDomain::new(), &p, true, run);
        let direct_ok = lin.iter().zip(&uf).filter(|(a, b)| **a || **b).count();
        let t_direct = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let reduced = ReducedProduct::new(AffineEq::new(), UfDomain::new());
        let red = verdicts(&reduced, &p, false, run);
        let t_reduced = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let logical =
            LogicalProduct::new(AffineEq::new(), UfDomain::new()).with_budget(run.clone());
        let log = verdicts(&logical, &p, false, run);
        let t_logical = t0.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:<4} {:>10.1} {:>12.1} {:>12.1} | {:>8} {:>8} {:>8}",
            k,
            t_direct,
            t_reduced,
            t_logical,
            direct_ok,
            red.iter().filter(|v| **v).count(),
            log.iter().filter(|v| **v).count(),
        );
    }
}
