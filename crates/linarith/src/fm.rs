//! Fourier–Motzkin elimination over exact rationals.
//!
//! The inequality domain uses this engine for feasibility, implication,
//! projection, and (via the standard lifting) convex hulls.

use crate::expr::AffExpr;
use cai_core::Budget;
use cai_num::Rat;
use cai_term::{Var, VarSet};
use std::collections::BTreeMap;

/// A linear inequality `expr <= 0` (or `expr < 0` when `strict`).
#[derive(Clone, PartialEq, Debug)]
pub struct Ineq {
    /// The left-hand side of `expr ⋈ 0`.
    pub expr: AffExpr,
    /// `true` for `<`, `false` for `<=`.
    pub strict: bool,
}

impl Ineq {
    /// A non-strict inequality `expr <= 0`.
    pub fn le(expr: AffExpr) -> Ineq {
        Ineq {
            expr,
            strict: false,
        }
    }

    /// A strict inequality `expr < 0`.
    pub fn lt(expr: AffExpr) -> Ineq {
        Ineq { expr, strict: true }
    }

    /// Is this constant inequality violated (e.g. `1 <= 0` or `0 < 0`)?
    ///
    /// Returns `None` if the inequality is not constant.
    pub fn constant_violation(&self) -> Option<bool> {
        if !self.expr.is_constant() {
            return None;
        }
        let k = self.expr.constant_part();
        Some(if self.strict {
            !k.is_negative()
        } else {
            k.is_positive()
        })
    }
}

/// Deduplicates inequalities that differ only in their constant, keeping
/// the tightest, and drops trivially satisfied constant rows.
/// Returns `None` if a constant row is violated (infeasible system).
pub fn simplify(rows: Vec<Ineq>) -> Option<Vec<Ineq>> {
    // Key: the normalized variable part; value: (constant, strict) of the
    // tightest instance seen.
    let mut best: BTreeMap<String, (AffExpr, Rat, bool)> = BTreeMap::new();
    for row in rows {
        if let Some(violated) = row.constant_violation() {
            if violated {
                return None;
            }
            continue; // trivially true
        }
        let norm = row.expr.normalize_positive();
        let k = norm.constant_part().clone();
        let mut varpart = norm.clone();
        varpart.drop_constant();
        let key = varpart.to_term().to_string();
        match best.get_mut(&key) {
            None => {
                best.insert(key, (varpart, k, row.strict));
            }
            Some((_, bk, bs)) => {
                // `varpart + k <= 0` is tighter for larger k.
                if k > *bk || (k == *bk && row.strict && !*bs) {
                    *bk = k;
                    *bs = row.strict;
                }
            }
        }
    }
    Some(
        best.into_values()
            .map(|(varpart, k, strict)| {
                let expr = varpart.add(&AffExpr::constant(k));
                Ineq { expr, strict }
            })
            .collect(),
    )
}

impl AffExpr {
    /// Zeroes the constant part in place (helper for [`simplify`]).
    fn drop_constant(&mut self) {
        let k = self.constant_part().clone();
        *self = self.sub(&AffExpr::constant(k));
    }
}

/// Eliminates `v` from the system by combining every positive-coefficient
/// row with every negative-coefficient row.
pub fn eliminate(rows: Vec<Ineq>, v: Var) -> Vec<Ineq> {
    let mut zero = Vec::new();
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for r in rows {
        let c = r.expr.coeff(v);
        if c.is_zero() {
            zero.push(r);
        } else if c.is_positive() {
            pos.push(r);
        } else {
            neg.push(r);
        }
    }
    for p in &pos {
        let a = p.expr.coeff(v);
        let pn = p.expr.scale(&a.recip());
        for n in &neg {
            let b = n.expr.coeff(v);
            let nn = n.expr.scale(&(-b).recip());
            zero.push(Ineq {
                expr: pn.add(&nn),
                strict: p.strict || n.strict,
            });
        }
    }
    zero
}

/// Above this many rows, [`project`] interleaves exact redundancy pruning
/// between eliminations — Fourier–Motzkin output is notoriously dominated
/// by redundant rows, and without pruning the intermediate systems can
/// blow up combinatorially even when the true projection is tiny.
const PRUNE_THRESHOLD: usize = 24;

/// Row budget for the capped feasibility checks used *inside* pruning;
/// exceeding it conservatively treats the row under test as irredundant.
const PRUNE_BUDGET: usize = 2000;

/// Feasibility check with a hard cap on intermediate system size.
/// `Some(true)` = infeasible, `Some(false)` = feasible, `None` = the cap
/// was exceeded (unknown).
fn infeasible_capped(mut rows: Vec<Ineq>, cap: usize) -> Option<bool> {
    let mut remaining = VarSet::new();
    for r in &rows {
        remaining.extend(r.expr.vars());
    }
    let mut remaining: Vec<Var> = remaining.into_iter().collect();
    rows = match simplify(rows) {
        None => return Some(true),
        Some(r) => r,
    };
    while !remaining.is_empty() {
        // Same min-fan-out heuristic as `project` — elimination order is
        // the difference between linear and exponential behaviour here.
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let (mut p, mut n) = (0usize, 0usize);
                for r in &rows {
                    let c = r.expr.coeff(v);
                    if c.is_positive() {
                        p += 1;
                    } else if c.is_negative() {
                        n += 1;
                    }
                }
                (i, p * n)
            })
            .min_by_key(|&(_, cost)| cost)
            .expect("remaining non-empty");
        let v = remaining.swap_remove(idx);
        rows = match simplify(eliminate(rows, v)) {
            None => return Some(true),
            Some(r) => r,
        };
        if rows.len() > cap {
            return None;
        }
    }
    Some(rows.iter().any(|r| r.constant_violation().unwrap_or(false)))
}

/// Drops rows provably implied by the remaining ones (exact, but each
/// check runs under [`PRUNE_BUDGET`]; rows whose check exceeds the budget
/// are conservatively kept, so the result is always equivalent).
fn prune_redundant(rows: Vec<Ineq>) -> Vec<Ineq> {
    let mut kept: Vec<Ineq> = Vec::new();
    for i in 0..rows.len() {
        let candidate = &rows[i];
        let mut others: Vec<Ineq> = kept.clone();
        others.extend_from_slice(&rows[i + 1..]);
        others.push(Ineq {
            expr: candidate.expr.scale(&-Rat::one()),
            strict: !candidate.strict,
        });
        match infeasible_capped(others, PRUNE_BUDGET) {
            Some(true) => {} // implied by the rest: drop
            _ => kept.push(candidate.clone()),
        }
    }
    kept
}

/// Substitutes away every variable of `remaining` that is pinned by an
/// *equality* (a complementary non-strict row pair): Gaussian elimination
/// is linear where Fourier–Motzkin would square the system. Mutates both
/// arguments; `remaining` keeps only the variables FM still has to handle.
fn substitute_equalities(rows: &mut Vec<Ineq>, remaining: &mut Vec<Var>) {
    loop {
        // Index the normalized non-strict rows to find complementary pairs.
        let mut keys: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
        for (i, r) in rows.iter().enumerate() {
            if !r.strict {
                keys.insert(r.expr.normalize_positive().to_term().to_string(), i);
            }
        }
        let mut found: Option<(Var, usize)> = None;
        'search: for (i, r) in rows.iter().enumerate() {
            if r.strict {
                continue;
            }
            let neg = r.expr.scale(&-Rat::one()).normalize_positive();
            if !keys.contains_key(&neg.to_term().to_string()) {
                continue;
            }
            for v in remaining.iter() {
                if !r.expr.coeff(*v).is_zero() {
                    found = Some((*v, i));
                    break 'search;
                }
            }
        }
        let Some((v, i)) = found else { return };
        // r.expr = 0 holds; solve for v and substitute everywhere.
        let c = r_coeff(&rows[i], v);
        let mut def = rows[i].expr.clone();
        def.add_var(v, &-c.clone());
        let def = def.scale(&-c.recip()); // v = def
        for r in rows.iter_mut() {
            let k = r.expr.coeff(v);
            if !k.is_zero() {
                let mut e = r.expr.clone();
                e.add_var(v, &-k.clone());
                e.add_scaled(&k, &def);
                r.expr = e;
            }
        }
        remaining.retain(|&u| u != v);
        if let Some(pruned) = simplify(std::mem::take(rows)) {
            *rows = pruned;
        } else {
            // Infeasible: represent with an explicit violated row so the
            // caller's simplify detects it.
            *rows = vec![Ineq::le(AffExpr::constant(Rat::one()))];
            return;
        }
    }
}

fn r_coeff(r: &Ineq, v: Var) -> Rat {
    r.expr.coeff(v)
}

/// Projects the system onto the complement of `vars` (eliminating each
/// variable, cheapest first, with redundancy pruning between steps).
/// Returns `None` if infeasibility is detected along the way.
pub fn project(rows: Vec<Ineq>, vars: &VarSet) -> Option<Vec<Ineq>> {
    project_budgeted(rows, vars, &Budget::unlimited())
}

/// [`project`] governed by a [`Budget`]: each elimination round ticks in
/// proportion to the current system size. On exhaustion the remaining
/// eliminations are replaced by simply *dropping* every row that still
/// mentions a variable of `vars` — each kept row is implied by the input
/// system and free of `vars`, so the result over-approximates the exact
/// projection (sound; consequences carried only by dropped rows are lost).
pub fn project_budgeted(mut rows: Vec<Ineq>, vars: &VarSet, budget: &Budget) -> Option<Vec<Ineq>> {
    let mut remaining: Vec<Var> = vars.iter().copied().collect();
    rows = simplify(rows)?;
    substitute_equalities(&mut rows, &mut remaining);
    rows = simplify(rows)?;
    while !remaining.is_empty() {
        if !budget.tick(1 + rows.len() as u64) {
            budget.degrade(
                "fm/project",
                format!(
                    "dropped rows mentioning {} uneliminated variables",
                    remaining.len()
                ),
            );
            rows.retain(|r| vars.iter().all(|&v| r.expr.coeff(v).is_zero()));
            return Some(rows);
        }
        // Pick the variable minimizing the pos×neg fan-out.
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let (mut p, mut n) = (0usize, 0usize);
                for r in &rows {
                    let c = r.expr.coeff(v);
                    if c.is_positive() {
                        p += 1;
                    } else if c.is_negative() {
                        n += 1;
                    }
                }
                (i, p * n)
            })
            .min_by_key(|&(_, cost)| cost)
            .expect("remaining non-empty");
        let v = remaining.swap_remove(idx);
        rows = simplify(eliminate(rows, v))?;
        if rows.len() > PRUNE_THRESHOLD {
            rows = prune_redundant(rows);
        }
    }
    Some(rows)
}

/// Returns `true` if the system has no rational solution.
pub fn infeasible(rows: Vec<Ineq>) -> bool {
    infeasible_budgeted(rows, &Budget::unlimited())
}

/// [`infeasible`] governed by a [`Budget`]. On exhaustion the degraded
/// projection may hide a contradiction, in which case this answers `false`
/// ("not known infeasible") — the sound direction for every caller.
pub fn infeasible_budgeted(rows: Vec<Ineq>, budget: &Budget) -> bool {
    let mut all_vars = VarSet::new();
    for r in &rows {
        all_vars.extend(r.expr.vars());
    }
    match project_budgeted(rows, &all_vars, budget) {
        None => true,
        Some(rest) => rest.iter().any(|r| r.constant_violation().unwrap_or(false)),
    }
}

/// Decides whether the system implies `expr <= 0` (non-strict): holds iff
/// conjoining the strict negation `-expr < 0` is infeasible.
pub fn implies_le(rows: &[Ineq], expr: &AffExpr) -> bool {
    implies_le_budgeted(rows, expr, &Budget::unlimited())
}

/// [`implies_le`] governed by a [`Budget`]; exhaustion yields `false`
/// ("unknown"), never a spurious `true`.
pub fn implies_le_budgeted(rows: &[Ineq], expr: &AffExpr, budget: &Budget) -> bool {
    let mut sys = rows.to_vec();
    sys.push(Ineq::lt(expr.scale(&-Rat::one())));
    infeasible_budgeted(sys, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cai_term::parse::Vocab;

    fn e(src: &str) -> AffExpr {
        let v = Vocab::standard();
        AffExpr::try_from_term(&v.parse_term(src).unwrap()).unwrap()
    }

    #[test]
    fn basic_infeasibility() {
        // x <= 0 and -x + 1 <= 0 (i.e. x >= 1): infeasible.
        assert!(infeasible(vec![Ineq::le(e("x")), Ineq::le(e("1 - x"))]));
        // x <= 0 and x >= 0: feasible (x = 0).
        assert!(!infeasible(vec![Ineq::le(e("x")), Ineq::le(e("0 - x"))]));
        // x < 0 and x > 0: infeasible.
        assert!(infeasible(vec![Ineq::lt(e("x")), Ineq::lt(e("0 - x"))]));
        // strict pair around a point: x < 1 and x > 1.
        assert!(infeasible(vec![Ineq::lt(e("x - 1")), Ineq::lt(e("1 - x"))]));
    }

    #[test]
    fn strictness_matters_at_boundary() {
        // x <= 0 and x >= 0 and x < 0 is infeasible; without the strict row
        // it is feasible.
        assert!(infeasible(vec![
            Ineq::le(e("x")),
            Ineq::le(e("0 - x")),
            Ineq::lt(e("x")),
        ]));
    }

    #[test]
    fn transitivity_via_elimination() {
        // x <= y, y <= z  ⇒  x <= z.
        let sys = vec![Ineq::le(e("x - y")), Ineq::le(e("y - z"))];
        assert!(implies_le(&sys, &e("x - z")));
        assert!(!implies_le(&sys, &e("z - x")));
    }

    #[test]
    fn projection_keeps_consequences() {
        // x <= y <= z, project y: x <= z survives.
        let sys = vec![Ineq::le(e("x - y")), Ineq::le(e("y - z"))];
        let vars: VarSet = [Var::named("y")].into_iter().collect();
        let rest = project(sys, &vars).unwrap();
        assert_eq!(rest.len(), 1);
        assert!(implies_le(&rest, &e("x - z")));
    }

    #[test]
    fn simplify_keeps_tightest() {
        // x <= 5 and x <= 3 collapse to x <= 3.
        let rows = simplify(vec![Ineq::le(e("x - 5")), Ineq::le(e("x - 3"))]).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(implies_le(&rows, &e("x - 3")));
    }

    #[test]
    fn simplify_detects_constant_violation() {
        assert!(simplify(vec![Ineq::le(e("1"))]).is_none());
        assert!(simplify(vec![Ineq::lt(e("0"))]).is_none());
        assert_eq!(simplify(vec![Ineq::le(e("0"))]).unwrap().len(), 0);
    }

    #[test]
    fn bounded_implication() {
        // 0 <= x <= 2 and 0 <= y <= 3 imply x + y <= 5.
        let sys = vec![
            Ineq::le(e("0 - x")),
            Ineq::le(e("x - 2")),
            Ineq::le(e("0 - y")),
            Ineq::le(e("y - 3")),
        ];
        assert!(implies_le(&sys, &e("x + y - 5")));
        assert!(!implies_le(&sys, &e("x + y - 4")));
    }
}
