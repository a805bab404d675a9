//! The affine-equalities operators against reference implementations.
//!
//! `hull`, `var_equalities` and `project` each have a direct
//! implementation: the hull's RREF is read off the row-reduced condition
//! matrix, residues are read off the rows, and substitution is in place.
//! The references below are the plain textbook versions, written against
//! the public API only: the hull as a dense null space re-inserted row by
//! row, residues by full reduction, keyed by their rendering. RREF over a
//! fixed variable order is canonical, so each operator must return
//! exactly the reference's element, on seeded random inputs that include
//! the large, nearly full-rank shapes of the pair extension (Figure 6).
//! `meet_all` must equal a fold of `meet_atom`.

use cai_core::{AbstractDomain, Partition};
use cai_linarith::{rref, AffExpr, AffineElem, AffineEq, Matrix};
use cai_num::{Int, Rat, SplitMix64};
use cai_term::parse::Vocab;
use cai_term::{Atom, Term, Var, VarSet};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// References
// ---------------------------------------------------------------------------

/// A basis of the null space `{x | m·x = 0}` for a matrix with `cols`
/// columns. Each returned vector has length `cols`.
fn null_space(m: &Matrix, cols: usize) -> Vec<Vec<Rat>> {
    let mut a = m.clone();
    let pivots = rref(&mut a);
    let free: Vec<usize> = (0..cols).filter(|c| !pivots.contains(c)).collect();
    let mut basis = Vec::with_capacity(free.len());
    for &f in &free {
        let mut v = vec![Rat::zero(); cols];
        v[f] = Rat::one();
        for (row, &p) in a.iter().zip(&pivots) {
            // pivot value = -coefficient of the free column in this row.
            v[p] = -row[f].clone();
        }
        basis.push(v);
    }
    basis
}

/// An element as plain data: `None` is bottom, else the RREF rows.
type Rows = Option<Vec<AffExpr>>;

fn rows_of(e: &AffineElem) -> Rows {
    (!e.is_bottom()).then(|| e.rows().to_vec())
}

/// Reduces `e` by every row.
fn reduce(rows: &[AffExpr], e: &AffExpr) -> AffExpr {
    let mut out = e.clone();
    for row in rows {
        let Some(p) = row.leading_var() else { continue };
        let c = out.coeff(p);
        if !c.is_zero() {
            out.add_scaled(&-c, row);
        }
    }
    out
}

/// Conjoins `e = 0`, keeping the rows in RREF.
fn insert(rows: &mut Rows, e: &AffExpr) {
    let Some(rs) = rows.as_mut() else { return };
    let e = reduce(rs, e);
    if e.is_zero() {
        return;
    }
    if e.is_constant() {
        *rows = None;
        return;
    }
    let e = e.normalize_leading();
    let pivot = e.leading_var().expect("non-constant");
    for row in rs.iter_mut() {
        let c = row.coeff(pivot);
        if !c.is_zero() {
            row.add_scaled(&-c, &e);
        }
    }
    let idx = rs.partition_point(|r| r.leading_var() < Some(pivot));
    rs.insert(idx, e);
}

/// The generator representation over `u`: a particular point and a basis
/// of directions (absent entries are zero).
fn generators(e: &AffineElem, u: &VarSet) -> (BTreeMap<Var, Rat>, Vec<BTreeMap<Var, Rat>>) {
    let rows = e.rows();
    let pivots: VarSet = rows.iter().filter_map(AffExpr::leading_var).collect();
    let mut point = BTreeMap::new();
    for r in rows {
        let p = r.leading_var().expect("non-constant row");
        let v = -r.constant_part().clone();
        if !v.is_zero() {
            point.insert(p, v);
        }
    }
    let mut basis = Vec::new();
    for &f in u.iter().filter(|v| !pivots.contains(v)) {
        let mut dir = BTreeMap::new();
        dir.insert(f, Rat::one());
        for r in rows {
            let c = r.coeff(f);
            if !c.is_zero() {
                dir.insert(r.leading_var().expect("non-constant row"), -c);
            }
        }
        basis.push(dir);
    }
    (point, basis)
}

/// The affine hull via the dense null space of the condition matrix
/// (columns: the variables ascending, then the constant), each null
/// vector inserted into a fresh element.
fn reference_hull(a: &AffineElem, b: &AffineElem) -> Rows {
    if a.is_bottom() {
        return rows_of(b);
    }
    if b.is_bottom() {
        return rows_of(a);
    }
    let mut u = a.vars();
    u.extend(b.vars());
    let order: Vec<Var> = u.iter().copied().collect();
    let n = order.len();
    let (p1, mut dirs) = generators(a, &u);
    let (p2, dirs2) = generators(b, &u);
    dirs.extend(dirs2);
    let mut connect = BTreeMap::new();
    for &v in &order {
        let d = &p2.get(&v).cloned().unwrap_or_else(Rat::zero)
            - &p1.get(&v).cloned().unwrap_or_else(Rat::zero);
        if !d.is_zero() {
            connect.insert(v, d);
        }
    }
    dirs.push(connect);
    let mut m: Matrix = Vec::new();
    let mut prow: Vec<Rat> = order
        .iter()
        .map(|v| p1.get(v).cloned().unwrap_or_else(Rat::zero))
        .collect();
    prow.push(Rat::one());
    m.push(prow);
    for dir in &dirs {
        let mut row: Vec<Rat> = order
            .iter()
            .map(|v| dir.get(v).cloned().unwrap_or_else(Rat::zero))
            .collect();
        row.push(Rat::zero());
        m.push(row);
    }
    let mut out = Some(Vec::new());
    for alpha in null_space(&m, n + 1) {
        let mut e = AffExpr::constant(alpha[n].clone());
        for (i, &v) in order.iter().enumerate() {
            e.add_var(v, &alpha[i]);
        }
        insert(&mut out, &e);
    }
    out
}

/// `VE_T` by reducing every variable and keying the residue by its
/// rendering.
fn reference_var_equalities(e: &AffineElem) -> Partition {
    let mut p = Partition::new();
    if e.is_bottom() {
        return p;
    }
    let mut by_canon: BTreeMap<String, Var> = BTreeMap::new();
    for v in e.vars() {
        let key = reduce(e.rows(), &AffExpr::var(v)).to_term().to_string();
        match by_canon.get(&key) {
            Some(&first) => {
                p.union(first, v);
            }
            None => {
                by_canon.insert(key, v);
            }
        }
    }
    p
}

/// Projection by substituting each eliminated variable's definition into
/// copies of every row, then re-inserting the rows.
fn reference_project(e: &AffineElem, vs: &VarSet) -> Rows {
    if e.is_bottom() {
        return None;
    }
    let mut rows: Vec<AffExpr> = e.rows().to_vec();
    for &v in vs {
        let Some(i) = rows.iter().position(|r| !r.coeff(v).is_zero()) else {
            continue;
        };
        let row = rows.remove(i);
        let c = row.coeff(v);
        let mut rest = row.clone();
        rest.add_var(v, &-c.clone());
        let def = rest.scale(&-c.recip());
        for r in rows.iter_mut() {
            let k = r.coeff(v);
            if !k.is_zero() {
                let mut out = r.clone();
                out.add_var(v, &-k.clone());
                out.add_scaled(&k, &def);
                *r = out;
            }
        }
    }
    let mut out = Some(Vec::new());
    for r in &rows {
        insert(&mut out, r);
    }
    out
}

#[test]
fn null_space_solves() {
    // x + y - z = 0, y + z = 0  →  basis for one free variable.
    let m = mat(&[&[1, 1, -1], &[0, 1, 1]]);
    let basis = null_space(&m, 3);
    assert_eq!(basis.len(), 1);
    for b in &basis {
        for row in &m {
            let dot = row
                .iter()
                .zip(b)
                .fold(Rat::zero(), |acc, (a, x)| &acc + &(a * x));
            assert!(dot.is_zero());
        }
    }
}

#[test]
fn null_space_of_zero_matrix_is_full() {
    let m: Matrix = vec![vec![Rat::zero(); 4]];
    let basis = null_space(&m, 4);
    assert_eq!(basis.len(), 4);
}

#[test]
fn null_space_of_full_rank_is_empty() {
    let m = mat(&[&[1, 0], &[0, 1]]);
    assert!(null_space(&m, 2).is_empty());
}

fn mat(rows: &[&[i64]]) -> Matrix {
    rows.iter()
        .map(|row| row.iter().map(|&x| Rat::from(x)).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

fn vars(prefix: &str, n: usize) -> Vec<Var> {
    (0..n)
        .map(|i| Var::named(&format!("{prefix}{i}")))
        .collect()
}

/// A small rational in `{-3..3} / {1..3}`.
fn rat(g: &mut SplitMix64) -> Rat {
    Rat::new(Int::from(g.range_i64(-3, 4)), Int::from(g.range_i64(1, 4)))
}

/// A random expression over `vs`: each variable present with probability
/// `num/den`, with rational coefficients.
fn expr(g: &mut SplitMix64, vs: &[Var], num: u64, den: u64) -> AffExpr {
    let mut e = AffExpr::constant(rat(g));
    for &v in vs {
        if g.ratio(num, den) {
            e.add_var(v, &rat(g));
        }
    }
    e
}

fn small(g: &mut SplitMix64, vs: &[Var]) -> AffineElem {
    AffineElem::from_rows((0..g.below(vs.len() as u64)).map(|_| expr(g, vs, 1, 2)))
}

/// The equation `x - rhs = 0`.
fn define(x: Var, rhs: &AffExpr) -> AffExpr {
    AffExpr::var(x).sub(rhs)
}

/// A pair-extension-like pair: `n` variables of which `d` are free on the
/// first side, every other one defined over the free ones (some as copies
/// of another definition, so `VE_T` has classes to find). The second side
/// redefines a few rows and sometimes ties two free variables, so the
/// hull keeps most of the shared equalities.
fn pair_like(g: &mut SplitMix64, n: usize, d: usize) -> (AffineElem, AffineElem) {
    let vs = vars("p", n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, g.below(i as u64 + 1) as usize);
    }
    let free: Vec<Var> = idx[..d].iter().map(|&i| vs[i]).collect();
    // (x, rhs): x = rhs over the free variables.
    let mut defs: Vec<(Var, AffExpr)> = Vec::new();
    for &i in &idx[d..] {
        let rhs = match defs.last() {
            // Some share the previous right-hand side.
            Some((_, prev)) if g.ratio(1, 6) => prev.clone(),
            _ => expr(g, &free, 1, 3),
        };
        defs.push((vs[i], rhs));
    }
    let a = AffineElem::from_rows(defs.iter().map(|(x, rhs)| define(*x, rhs)));
    for _ in 0..1 + g.below(4) {
        let k = g.below(defs.len() as u64) as usize;
        defs[k].1 = expr(g, &free, 1, 3);
    }
    let mut other: Vec<AffExpr> = defs.iter().map(|(x, rhs)| define(*x, rhs)).collect();
    if g.ratio(1, 3) {
        other.push(AffExpr::var(free[0]).sub(&AffExpr::var(free[1])));
    }
    (a, AffineElem::from_rows(other))
}

/// A mixed batch of atoms over `vs`: equalities, inequalities (some
/// constant contradictions), predicates and non-affine atoms.
fn atoms(g: &mut SplitMix64, vocab: &Vocab, vs: &[Var]) -> Vec<Atom> {
    (0..1 + g.below(8))
        .map(|_| {
            let t = expr(g, vs, 1, 2).to_term();
            match g.below(8) {
                0..=3 => Atom::eq(t, Term::int(0)),
                4 => Atom::le(t, Term::int(0)),
                5 => Atom::le(Term::int(g.range_i64(-1, 2)), Term::int(0)),
                6 => vocab
                    .parse_atom(&format!("even({t})"))
                    .expect("predicate atom"),
                _ => vocab
                    .parse_atom(&format!("F({}) = {t}", vs[0]))
                    .expect("non-affine atom"),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Old = new
// ---------------------------------------------------------------------------

fn check_hull(a: &AffineElem, b: &AffineElem) {
    let h = a.hull(b);
    assert_eq!(rows_of(&h), reference_hull(a, b), "hull of {a} and {b}");
    assert_eq!(rows_of(&b.hull(a)), rows_of(&h), "hull is symmetric");
}

fn check_project(e: &AffineElem, vs: &VarSet) {
    assert_eq!(
        rows_of(&e.project(vs)),
        reference_project(e, vs),
        "∃{vs:?}. {e}"
    );
}

/// Checks `VE_T` and returns how many classes it found.
fn check_var_equalities(e: &AffineElem) -> usize {
    let got = AffineEq::new().var_equalities(e).classes();
    assert_eq!(got, reference_var_equalities(e).classes(), "VE of {e}");
    got.len()
}

fn subset(g: &mut SplitMix64, vs: &[Var], num: u64, den: u64) -> VarSet {
    vs.iter().copied().filter(|_| g.ratio(num, den)).collect()
}

#[test]
fn bottom_and_top_match_reference() {
    let vs = vars("q", 3);
    let x = AffineElem::from_rows([AffExpr::var(vs[0]), AffExpr::var(vs[1])]);
    let all: VarSet = vs.iter().copied().collect();
    for e in [AffineElem::bottom(), AffineElem::top(), x] {
        for f in [AffineElem::bottom(), AffineElem::top()] {
            check_hull(&e, &f);
        }
        check_project(&e, &all);
        check_var_equalities(&e);
    }
}

#[test]
fn small_rational_operators_match_reference() {
    let mut g = SplitMix64::new(0xA11F);
    let vs = vars("q", 6);
    for _ in 0..300 {
        let w = &vs[..2 + g.below(5) as usize];
        let a = small(&mut g, w);
        let b = small(&mut g, w);
        check_hull(&a, &b);
        let elim = subset(&mut g, w, 1, 2);
        check_project(&a, &elim);
        check_var_equalities(&a);
        check_var_equalities(&a.hull(&b));
    }
}

#[test]
fn pair_extension_shapes_match_reference() {
    let mut g = SplitMix64::new(0x9A1E);
    let mut classes = 0;
    for case in 0..12u64 {
        let n = 100 + 10 * (case % 6) as usize;
        let d = 2 + g.below(7) as usize;
        let (a, b) = pair_like(&mut g, n, d);
        assert_eq!(a.rank(), n - d, "first side has rank n - d");
        check_hull(&a, &b);
        let h = a.hull(&b);
        assert!(h.rank() + 2 * d + 1 >= n, "the hull keeps most equalities");
        let vs: Vec<Var> = a.vars().into_iter().collect();
        check_project(&a, &subset(&mut g, &vs, 1, 5));
        check_project(&h, &subset(&mut g, &vs, 1, 5));
        classes += check_var_equalities(&a) + check_var_equalities(&h);
    }
    assert!(classes > 0, "VE_T finds equal variables");
}

#[test]
fn meet_all_is_a_fold_of_meet_atom() {
    let d = AffineEq::new();
    let vocab = Vocab::standard();
    let mut g = SplitMix64::new(0x3EE7);
    let vs = vars("m", 4);
    let mut bottoms = 0;
    for _ in 0..300 {
        let start = if g.ratio(1, 8) {
            AffineElem::bottom()
        } else {
            small(&mut g, &vs)
        };
        let batch = atoms(&mut g, &vocab, &vs);
        let folded = batch.iter().fold(start.clone(), |e, a| d.meet_atom(&e, a));
        assert_eq!(d.meet_all(&start, &batch), folded, "{start} ∧ {batch:?}");
        bottoms += usize::from(folded.is_bottom());
    }
    assert!(bottoms > 30, "batches reach bottom mid-way ({bottoms})");
    // A contradiction mid-batch, followed by atoms of every kind.
    let batch: Vec<Atom> = [
        "m0 = 1",
        "m0 = 2",
        "m1 = m2",
        "1 <= 0",
        "even(m3)",
        "F(m0) = m1",
    ]
    .iter()
    .map(|s| vocab.parse_atom(s).expect("atom parses"))
    .collect();
    assert!(d.meet_all(&AffineElem::top(), &batch).is_bottom());
}
