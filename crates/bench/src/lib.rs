//! Workload generators and the paper's example programs, shared by the
//! `paper_eval` / `driver_eval` report binaries, perfbench and the
//! workspace's integration tests.

pub mod args;
pub mod blame;

pub use args::Args;

use cai_core::{Budget, BudgetPolicy};
use cai_driver::Driver;
use cai_interp::{parse_module, Module};
use cai_linarith::Polyhedra;
use cai_num::SplitMix64;
use cai_term::parse::Vocab;
use cai_term::{Atom, Conj, Term, Var};
use std::fmt::Write as _;

/// The Figure 1 program source (the paper's motivating example).
pub const FIG1: &str = "
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

/// The Figure 4 program source (strict vs. plain logical product).
pub const FIG4: &str = "
    if (a < b) {
        x := F(a + 1);
        y := a;
    } else {
        x := F(b + 1);
        y := b;
    }
    assert(x = F(y + 1));
    assert(F(a) + F(b) = F(y) + F(a + b - y));
";

/// The Figure 8 program source (non-disjoint theories).
pub const FIG8: &str = "
    x := *;
    assume(even(x));
    assume(positive(x));
    x := x - 1;
    assert(odd(x));
    assert(positive(x));
";

/// The canonical widening-loss loop as a one-procedure module: `x`
/// counts to 100, and widening extrapolates the `x <= 100` bound away
/// unless a narrowing pass recovers it.
pub const COUNTER_LOOP_MODULE: &str = "
    proc main(n) {
        x := 0;
        while (x < 100) { x := x + 1; }
        assert(x >= 100);
        assert(x <= 100);
        ret := x;
    }
";

/// The Theorem 6 program family: `k` linear counters and `k` UF-updated
/// variables inside one loop.
pub fn thm6_family(k: usize) -> String {
    let mut src = String::new();
    for i in 0..k {
        let _ = writeln!(src, "a{i} := {i}; u{i} := F(a{i} + {i});");
    }
    src.push_str("while (*) {\n");
    for i in 0..k {
        let _ = writeln!(src, "  a{i} := a{i} + {}; u{i} := F(u{i} + 1);", i + 1);
    }
    src.push_str("}\nassert(a0 = a0);\n");
    src
}

/// A Figure 1-shaped program scaled to `k` groups of four variables, used
/// by the product comparisons. Every generated assertion is
/// valid; group `i` exercises the same four phenomena as Figure 1.
pub fn fig1_family(k: usize) -> String {
    let mut init = String::new();
    let mut body = String::new();
    let mut asserts = String::new();
    for i in 0..k {
        let _ = writeln!(
            init,
            "a{i} := 0; s{i} := 0; b{i} := 1; t{i} := F({});",
            1 + i
        );
        let _ = writeln!(
            body,
            "  a{i} := a{i} + 1; s{i} := s{i} + 2; b{i} := F(b{i} + {i}); t{i} := F(t{i} + {i});"
        );
        let _ = writeln!(asserts, "assert(s{i} = 2*a{i});");
    }
    format!("{init}while (*) {{\n{body}}}\n{asserts}")
}

/// A batch of `n` independent procedures, each with a loop and alien
/// (mixed-theory) terms so the per-procedure fixpoint does real work.
/// `p0_variant` perturbs only the first procedure's constant, modelling
/// a single-procedure edit.
pub fn batch_module(n: usize, p0_variant: usize) -> Module {
    let mut src = String::new();
    for i in 0..n {
        let k = if i == 0 { 7 + p0_variant } else { i % 7 };
        let _ = writeln!(
            src,
            "proc p{i}(a) {{
                 x := a + {k};
                 y := F(x);
                 z := F(y - 1);
                 while (*) {{
                     x := x + 1;
                     y := F(x);
                     z := z + 2;
                 }}
                 assert(y = F(x));
                 ret := x;
             }}"
        );
    }
    parse_module(&Vocab::standard(), &src).expect("generated module parses")
}

/// A module whose callee reassigns its formal, so the context-insensitive
/// summary of `step` collapses to `true` (the exit constraint ranges over
/// *stable* formals only) while entry-keyed specialization recovers
/// `ret = k + 1` at each of the `n` constant-argument call sites.
pub fn ctx_module(n: usize) -> Module {
    let mut src = String::from(
        "proc step(a) {
             a := a + 1;
             ret := a;
         }\n",
    );
    for i in 0..n {
        let _ = writeln!(
            src,
            "proc use{i}(b) {{
                 x := call step({i});
                 y := call step(x);
                 assert(y = {});
                 ret := y + b;
             }}",
            i + 2
        );
    }
    parse_module(&Vocab::standard(), &src).expect("generated module parses")
}

/// The budget-policy workload: one loop-heavy procedure `big` beside
/// `smalls` trivial ones — the shape where equal fuel shares starve the
/// big procedure while size-proportional shares feed everyone.
pub fn mixed_module(smalls: usize) -> Module {
    let mut src = String::new();
    for i in 0..smalls {
        let _ = writeln!(
            src,
            "proc small{i}(a) {{ y := a + {i}; assert(y >= a); ret := y; }}"
        );
    }
    src.push_str(
        "proc big(n) {
             x := 0;
             s := 0;
             while (x < 60) { x := x + 1; s := s + 2; }
             assert(x >= 60);
             assert(x <= 60);
             ret := s;
         }",
    );
    parse_module(&Vocab::standard(), &src).expect("generated module parses")
}

/// The fuel pool calibrated for a [`mixed_module`] under the polyhedra
/// driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyFuel {
    /// The fuel `big` spends analyzed alone under the adaptive policy
    /// (spent fuel is tracked even under an unlimited budget).
    pub cost_big: u64,
    /// The smallest pool whose size-proportional share for `big` covers
    /// `cost_big`, padded by one tick per job for the slice-remainder
    /// floor.
    pub pool: u64,
}

impl PolicyFuel {
    /// Calibrates the pool from what `m`'s `big` procedure actually
    /// costs.
    pub fn calibrate(m: &Module) -> PolicyFuel {
        let policy = BudgetPolicy::adaptive();
        let big = m.get("big").expect("a mixed module has a `big` procedure");
        let alone =
            parse_module(&Vocab::standard(), &big.to_string()).expect("a printed procedure parses");
        let cost_big = Driver::new(|_: &Budget| Polyhedra::new())
            .budget_policy(policy)
            .analyze(&alone)
            .degradation
            .fuel_spent;
        let weight = |p: &cai_interp::Procedure| policy.job_weight(&p.measures(), 0);
        let total: u64 = m.procs.iter().map(weight).sum();
        let jobs = m.procs.len() as u64;
        PolicyFuel {
            cost_big,
            pool: (cost_big * total).div_ceil(weight(big)) + jobs,
        }
    }
}

/// Deterministic random mixed terms over `w0..w{n_vars-1}`.
pub struct ConjGen {
    vocab: Vocab,
    rng: SplitMix64,
    n_vars: usize,
}

impl ConjGen {
    /// Creates a generator with a fixed seed (reproducible workloads).
    pub fn new(seed: u64, n_vars: usize) -> ConjGen {
        let vocab = Vocab::standard();
        // Pre-register the function symbols at fixed arities.
        vocab.function("F", 1).expect("fresh vocab");
        vocab.function("G", 2).expect("fresh vocab");
        ConjGen {
            vocab,
            rng: SplitMix64::new(seed),
            n_vars,
        }
    }

    /// The vocabulary used for generated symbols.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    fn var(&mut self) -> Term {
        let i = self.rng.below(self.n_vars as u64);
        Term::var(Var::named(&format!("w{i}")))
    }

    /// A random term with the given depth budget. `mixed` permits both
    /// arithmetic and UF constructors; otherwise only arithmetic.
    pub fn term(&mut self, depth: usize, mixed: bool) -> Term {
        if depth == 0 {
            return if self.rng.ratio(7, 10) {
                self.var()
            } else {
                Term::int(self.rng.range_i64(-4, 5))
            };
        }
        let choice = self.rng.below(if mixed { 4 } else { 2 });
        match choice {
            0 => Term::add(&self.term(depth - 1, mixed), &self.term(depth - 1, mixed)),
            1 => Term::sub(&self.term(depth - 1, mixed), &self.term(depth - 1, mixed)),
            2 => {
                let f = self.vocab.function("F", 1).expect("registered");
                Term::app(f, vec![self.term(depth - 1, mixed)])
            }
            _ => {
                let g = self.vocab.function("G", 2).expect("registered");
                Term::app(
                    g,
                    vec![self.term(depth - 1, mixed), self.term(depth - 1, mixed)],
                )
            }
        }
    }

    /// A random conjunction of `n_atoms` equalities.
    pub fn conj(&mut self, n_atoms: usize, depth: usize, mixed: bool) -> Conj {
        (0..n_atoms)
            .map(|_| Atom::eq(self.term(depth, mixed), self.term(depth, mixed)))
            .collect()
    }

    /// A pair of *compatible* conjunctions for join benchmarks: both extend
    /// a common base, so the join is non-trivial.
    pub fn join_pair(&mut self, n_atoms: usize, depth: usize, mixed: bool) -> (Conj, Conj) {
        let base = self.conj(n_atoms / 2 + 1, depth, mixed);
        let mut a = base.clone();
        a.extend_from(&self.conj(n_atoms / 2 + 1, depth, mixed));
        let mut b = base;
        b.extend_from(&self.conj(n_atoms / 2 + 1, depth, mixed));
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cai_interp::parse_program;

    #[test]
    fn generators_are_deterministic() {
        let mut g1 = ConjGen::new(7, 4);
        let mut g2 = ConjGen::new(7, 4);
        assert_eq!(g1.conj(3, 2, true), g2.conj(3, 2, true));
    }

    #[test]
    fn families_parse() {
        let vocab = Vocab::standard();
        for k in 1..4 {
            parse_program(&vocab, &thm6_family(k)).unwrap();
            parse_program(&vocab, &fig1_family(k)).unwrap();
        }
        parse_program(&vocab, FIG1).unwrap();
        parse_program(&vocab, FIG4).unwrap();
        parse_program(&vocab, FIG8).unwrap();
    }

    #[test]
    fn generated_conjs_are_wellformed() {
        let mut g = ConjGen::new(42, 4);
        for _ in 0..10 {
            let c = g.conj(4, 3, true);
            assert!(c.len() <= 4);
            for atom in &c {
                assert!(!atom.args().is_empty());
            }
        }
    }
}
