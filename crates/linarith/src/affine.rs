//! Karr's affine-equalities domain: the logical lattice over the theory of
//! linear arithmetic *with only equality* (paper §2; Karr 1976 [16],
//! Müller-Olm & Seidl [18]).

use crate::expr::AffExpr;
use crate::matrix::{rref, Matrix};
use cai_core::{AbstractDomain, Partition, TheoryProps};
use cai_num::Rat;
use cai_term::{Atom, Conj, Sig, Term, TheoryTag, Var, VarSet};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An element of the affine-equalities domain: an affine subspace of
/// `Q^Vars`, represented as a conjunction of equalities `eᵢ = 0` in reduced
/// row-echelon form, or bottom.
///
/// Variables not mentioned are unconstrained.
#[derive(Clone, PartialEq, Debug)]
pub struct AffineElem {
    /// `None` is bottom. Rows are sorted by pivot (their leading variable);
    /// each pivot has coefficient 1 and is eliminated from all other rows.
    rows: Option<Vec<AffExpr>>,
}

impl AffineElem {
    /// The top element (no constraints).
    pub fn top() -> AffineElem {
        AffineElem {
            rows: Some(Vec::new()),
        }
    }

    /// The bottom element.
    pub fn bottom() -> AffineElem {
        AffineElem { rows: None }
    }

    /// Returns `true` if this is bottom.
    pub fn is_bottom(&self) -> bool {
        self.rows.is_none()
    }

    /// The number of independent equalities (the rank).
    pub fn rank(&self) -> usize {
        self.rows.as_ref().map_or(0, Vec::len)
    }

    /// The equality rows (empty for bottom).
    pub fn rows(&self) -> &[AffExpr] {
        self.rows.as_deref().unwrap_or(&[])
    }

    /// The variables constrained by the element.
    pub fn vars(&self) -> VarSet {
        let mut out = VarSet::new();
        for r in self.rows() {
            out.extend(r.vars());
        }
        out
    }

    /// Reduces an expression modulo the row space: the canonical
    /// representative of `e`'s residue class over the element.
    pub fn reduce(&self, e: &AffExpr) -> AffExpr {
        let mut out = e.clone();
        for row in self.rows() {
            // Rows are non-constant by construction; skip rather than panic
            // if the invariant is ever violated.
            let Some(p) = row.leading_var() else { continue };
            if let Some(c) = out.coeff_ref(p).map(|c| -c) {
                out.add_scaled(&c, row);
            }
        }
        out
    }

    /// Conjoins the equality `e = 0`, maintaining the RREF invariant.
    pub fn insert(&mut self, e: &AffExpr) {
        let Some(rows) = self.rows.as_mut() else {
            return; // bottom stays bottom
        };
        let mut e = e.clone();
        // Reduce by existing rows.
        for row in rows.iter() {
            let Some(p) = row.leading_var() else { continue };
            if let Some(c) = e.coeff_ref(p).map(|c| -c) {
                e.add_scaled(&c, row);
            }
        }
        if e.is_zero() {
            return;
        }
        if e.is_constant() {
            self.rows = None; // contradiction such as 0 = 1
            return;
        }
        let e = e.normalize_leading();
        let Some(pivot) = e.leading_var() else { return };
        // Eliminate the new pivot from existing rows.
        for row in rows.iter_mut() {
            if let Some(c) = row.coeff_ref(pivot).map(|c| -c) {
                row.add_scaled(&c, &e);
            }
        }
        // The pivot was just eliminated from every row, so the search
        // normally misses; inserting at a hit position is equally correct.
        let idx = match rows.binary_search_by(|r| r.leading_var().cmp(&Some(pivot))) {
            Ok(i) | Err(i) => i,
        };
        rows.insert(idx, e);
    }

    /// Builds an element from arbitrary equality expressions.
    pub fn from_rows(exprs: impl IntoIterator<Item = AffExpr>) -> AffineElem {
        let mut out = AffineElem::top();
        for e in exprs {
            out.insert(&e);
        }
        out
    }

    /// The generator representation as rows of the hull's condition
    /// matrix over `vars` (ascending; column 0 is the constant and
    /// `vars[i]` is column `vars.len() - i`): the particular point, with
    /// every free variable 0 and the pivots forced, and a 1 in column 0;
    /// then one direction per free variable of `vars`, each 0 in column 0.
    fn generators(&self, vars: &[Var]) -> (Vec<Rat>, Vec<Vec<Rat>>) {
        let n = vars.len();
        let col = |v: Var| vars.binary_search(&v).ok().map(|i| n - i);
        let rows = self.rows();
        let mut point = vec![Rat::zero(); n + 1];
        point[0] = Rat::one();
        let mut is_pivot = vec![false; n + 1];
        for r in rows {
            // Every variable of the element is in `vars`.
            let Some(c) = r.leading_var().and_then(col) else {
                continue;
            };
            point[c] = -r.constant_part();
            is_pivot[c] = true;
        }
        let mut basis = Vec::new();
        for (i, &f) in vars.iter().enumerate() {
            if is_pivot[n - i] {
                continue;
            }
            let mut dir = vec![Rat::zero(); n + 1];
            dir[n - i] = Rat::one();
            for r in rows {
                let Some(a) = r.coeff_ref(f) else { continue };
                let Some(c) = r.leading_var().and_then(col) else {
                    continue;
                };
                dir[c] = -a;
            }
            basis.push(dir);
        }
        (point, basis)
    }

    /// The affine hull of two elements (the join in the logical lattice of
    /// linear equalities).
    ///
    /// The hull's equalities `Σ αᵥ·v + c = 0` are the `(c, α)` that hold
    /// at the particular point of `self` and vanish on every direction of
    /// either element and on the step between their points: the null
    /// space of the condition matrix, whose columns are `c` and then the
    /// variables in descending order. Column `c` is always a pivot of its
    /// RREF (the point row has a 1 there). Each free column `x_f` gives
    /// one null vector: `x_f` with coefficient 1, minus `a[r][f]` times
    /// the pivot of each row `r`. Such an entry is nonzero only if the
    /// pivot lies left of `x_f`, i.e. is `c` or a larger variable, and the
    /// vector is zero at every other free column, so taken in ascending
    /// `x_f` these vectors already are the hull's canonical RREF.
    pub fn hull(&self, other: &AffineElem) -> AffineElem {
        if self.is_bottom() {
            return other.clone();
        }
        if other.is_bottom() {
            return self.clone();
        }
        let mut u = self.vars();
        u.extend(other.vars());
        let vars: Vec<Var> = u.into_iter().collect();
        let n = vars.len();
        let (p1, dirs1) = self.generators(&vars);
        let (p2, dirs2) = other.generators(&vars);
        // Direction p2 - p1 connects the two subspaces (0 in column c).
        let connect: Vec<Rat> = p2.iter().zip(&p1).map(|(b, a)| b - a).collect();
        let mut m: Matrix = Vec::with_capacity(dirs1.len() + dirs2.len() + 2);
        m.push(p1);
        m.extend(dirs1);
        m.extend(dirs2);
        m.push(connect);
        let pivots = rref(&mut m);
        debug_assert_eq!(pivots.first(), Some(&0), "column c is a pivot");
        let mut is_pivot = vec![false; n + 1];
        for &p in &pivots {
            is_pivot[p] = true;
        }
        let mut rows = Vec::with_capacity(n + 1 - pivots.len());
        for f in (1..=n).rev().filter(|&f| !is_pivot[f]) {
            let mut e = AffExpr::constant(-&m[0][f]);
            e.add_var(vars[n - f], &Rat::one());
            for (row, &p) in m.iter().zip(&pivots).skip(1) {
                if !row[f].is_zero() {
                    e.add_var(vars[n - p], &-&row[f]);
                }
            }
            rows.push(e);
        }
        AffineElem { rows: Some(rows) }
    }

    /// Projects out the variables of `vs` (existential quantification).
    pub fn project(&self, vs: &VarSet) -> AffineElem {
        if self.is_bottom() {
            return AffineElem::bottom();
        }
        let mut rows: Vec<AffExpr> = self.rows().to_vec();
        for &v in vs {
            // Find a row mentioning v; use it to eliminate v elsewhere.
            let found = rows
                .iter()
                .enumerate()
                .find_map(|(i, r)| Some((i, r.coeff_ref(v)?.clone())));
            let Some((i, c)) = found else { continue };
            // v = -(row - c·v)/c
            let mut def = rows.remove(i);
            def.add_var(v, &-&c);
            let def = def.scale(&-c.recip());
            for r in rows.iter_mut() {
                r.substitute(v, &def);
            }
        }
        AffineElem::from_rows(rows)
    }

    /// Decides `self ⇒ e = 0`.
    pub fn implies_zero(&self, e: &AffExpr) -> bool {
        self.is_bottom() || self.reduce(e).is_zero()
    }

    /// Decides `self ⇒ e <= 0`. On an affine subspace an affine function is
    /// either constant or unbounded in both directions, so this holds iff
    /// the canonical residue is a non-positive constant.
    pub fn implies_nonpositive(&self, e: &AffExpr) -> bool {
        if self.is_bottom() {
            return true;
        }
        let r = self.reduce(e);
        r.is_constant() && !r.constant_part().is_positive()
    }
}

impl fmt::Display for AffineElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.rows {
            None => f.write_str("false"),
            Some(rows) if rows.is_empty() => f.write_str("true"),
            Some(rows) => {
                let mut first = true;
                for r in rows {
                    let Some(p) = r.leading_var() else { continue };
                    if !first {
                        f.write_str(" & ")?;
                    }
                    first = false;
                    write!(f, "{p} = {}", r.solve_for(p))?;
                }
                Ok(())
            }
        }
    }
}

/// The affine-equalities abstract domain (Karr's analysis), a logical
/// lattice over the theory of linear arithmetic with only equality.
///
/// Inequality facts are *soundly ignored* on meet (dropping a conjunct
/// over-approximates) and decided against the affine hull on implication
/// queries. Use [`Polyhedra`](crate::Polyhedra) for full inequality
/// support.
///
/// ```
/// use cai_core::AbstractDomain;
/// use cai_linarith::AffineEq;
/// use cai_term::parse::Vocab;
///
/// let vocab = Vocab::standard();
/// let d = AffineEq::new();
/// let e = d.from_conj(&vocab.parse_conj("x = y + 1 & y = 2*z")?);
/// assert!(d.implies_atom(&e, &vocab.parse_atom("x = 2*z + 1")?));
/// # Ok::<(), cai_term::parse::ParseError>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct AffineEq;

impl AffineEq {
    /// Creates the domain.
    pub fn new() -> AffineEq {
        AffineEq
    }
}

fn atom_difference(atom: &Atom) -> Option<AffExpr> {
    match atom {
        Atom::Eq(s, t) | Atom::Le(s, t) => AffExpr::difference(s, t).ok(),
        Atom::Pred(..) => None,
    }
}

/// Meets `e` with `atom` in place.
fn meet_in_place(e: &mut AffineElem, atom: &Atom) {
    match (atom, atom_difference(atom)) {
        (Atom::Eq(..), Some(diff)) => e.insert(&diff),
        // A constant contradiction such as `1 <= 0` is bottom.
        (Atom::Le(..), Some(diff)) if diff.is_constant() && diff.constant_part().is_positive() => {
            *e = AffineElem::bottom();
        }
        // The equalities-only lattice cannot represent any other
        // inequality, nor out-of-signature and non-linear atoms; dropping
        // the conjunct is the sound over-approximation.
        _ => {}
    }
}

impl AbstractDomain for AffineEq {
    type Elem = AffineElem;

    fn sig(&self) -> Sig {
        Sig::single(TheoryTag::LINARITH)
    }

    fn props(&self) -> TheoryProps {
        TheoryProps::nelson_oppen()
    }

    fn top(&self) -> AffineElem {
        AffineElem::top()
    }

    fn bottom(&self) -> AffineElem {
        AffineElem::bottom()
    }

    fn is_bottom(&self, e: &AffineElem) -> bool {
        e.is_bottom()
    }

    fn meet_atom(&self, e: &AffineElem, atom: &Atom) -> AffineElem {
        let mut out = e.clone();
        meet_in_place(&mut out, atom);
        out
    }

    /// One clone of `e`, then every atom conjoined in place (the default
    /// clones the whole element once per atom).
    fn meet_all(&self, e: &AffineElem, atoms: &[Atom]) -> AffineElem {
        let mut out = e.clone();
        for atom in atoms {
            if out.is_bottom() {
                break;
            }
            meet_in_place(&mut out, atom);
        }
        out
    }

    fn implies_atom(&self, e: &AffineElem, atom: &Atom) -> bool {
        if e.is_bottom() {
            return true;
        }
        match (atom, atom_difference(atom)) {
            (Atom::Eq(..), Some(diff)) => e.implies_zero(&diff),
            (Atom::Le(..), Some(diff)) => e.implies_nonpositive(&diff),
            // "not known to hold" is the sound answer for atoms outside
            // the signature.
            _ => false,
        }
    }

    fn join(&self, a: &AffineElem, b: &AffineElem) -> AffineElem {
        a.hull(b)
    }

    fn exists(&self, e: &AffineElem, vars: &VarSet) -> AffineElem {
        e.project(vars)
    }

    fn var_equalities(&self, e: &AffineElem) -> Partition {
        let mut p = Partition::new();
        if e.is_bottom() {
            return p;
        }
        // Two variables are equal iff their canonical residues coincide. In
        // RREF a pivot's residue is its row without the pivot, negated; a
        // free variable is its own residue.
        let rows = e.rows();
        let mut by_canon: HashMap<AffExpr, Var> = HashMap::new();
        for v in e.vars() {
            let key = match rows.binary_search_by(|r| r.leading_var().cmp(&Some(v))) {
                Ok(i) => {
                    let mut canon = AffExpr::var(v);
                    canon.add_scaled(&-Rat::one(), &rows[i]);
                    canon
                }
                Err(_) => AffExpr::var(v),
            };
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

    fn alternate(&self, e: &AffineElem, y: Var, avoid: &VarSet) -> Option<Term> {
        if e.is_bottom() {
            return Some(Term::int(0));
        }
        // Fast path: the canonical residue of `y` may already avoid the
        // forbidden variables (common when `y` is a pivot).
        let canon = e.reduce(&AffExpr::var(y));
        if canon.iter().all(|(v, _)| *v != y && !avoid.contains(v)) {
            return Some(canon.to_term());
        }
        let mut elim = avoid.clone();
        elim.remove(&y);
        let projected = e.project(&elim);
        let row = projected.rows().iter().find(|r| r.coeff_ref(y).is_some())?;
        let t = row.solve_for(y);
        debug_assert!(!t.vars().contains(&y));
        Some(t)
    }

    fn alternates(&self, e: &AffineElem, targets: &VarSet, avoid: &VarSet) -> BTreeMap<Var, Term> {
        let mut out = BTreeMap::new();
        if e.is_bottom() {
            for &y in targets {
                out.insert(y, Term::int(0));
            }
            return out;
        }
        out.extend(crate::expr::preferential_definitions(
            e.rows(),
            targets,
            avoid,
        ));
        out
    }

    fn to_conj(&self, e: &AffineElem) -> Conj {
        if e.is_bottom() {
            return Conj::of(Atom::eq(Term::int(0), Term::int(1)));
        }
        e.rows()
            .iter()
            .filter_map(|r| {
                let p = r.leading_var()?;
                Some(Atom::eq(Term::var(p), r.solve_for(p)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cai_term::parse::Vocab;

    fn d() -> AffineEq {
        AffineEq::new()
    }

    fn elem(src: &str) -> AffineElem {
        let v = Vocab::standard();
        d().from_conj(&v.parse_conj(src).unwrap())
    }

    fn atom(src: &str) -> Atom {
        Vocab::standard().parse_atom(src).unwrap()
    }

    #[test]
    fn meet_and_implies() {
        let e = elem("x = y + 1 & y = z - 2");
        assert!(d().implies_atom(&e, &atom("x = z - 1")));
        assert!(!d().implies_atom(&e, &atom("x = z")));
    }

    #[test]
    fn contradiction_is_bottom() {
        let e = elem("x = 1 & x = 2");
        assert!(e.is_bottom());
        // Bottom implies everything.
        assert!(d().implies_atom(&e, &atom("x = 77")));
    }

    #[test]
    fn join_is_affine_hull() {
        // {x=0, y=0} ⊔ {x=1, y=1}  =  {x = y}
        let a = elem("x = 0 & y = 0");
        let b = elem("x = 1 & y = 1");
        let j = d().join(&a, &b);
        assert!(d().implies_atom(&j, &atom("x = y")));
        assert!(!d().implies_atom(&j, &atom("x = 0")));
    }

    #[test]
    fn figure3_join() {
        // J(x=a & y=b, x=b & y=a) = (x + y = a + b), paper Figure 3.
        let a = elem("x = a & y = b");
        let b = elem("x = b & y = a");
        let j = d().join(&a, &b);
        assert!(d().implies_atom(&j, &atom("x + y = a + b")));
        assert!(!d().implies_atom(&j, &atom("x = a")));
        assert_eq!(j.rank(), 1);
    }

    #[test]
    fn join_with_bottom_is_identity() {
        let a = elem("x = 5");
        assert_eq!(d().join(&a, &AffineElem::bottom()), a);
        assert_eq!(d().join(&AffineElem::bottom(), &a), a);
    }

    #[test]
    fn project_eliminates() {
        let e = elem("x = y + 1 & z = 2*y");
        let vs: VarSet = [Var::named("y")].into_iter().collect();
        let p = d().exists(&e, &vs);
        assert!(d().implies_atom(&p, &atom("z = 2*x - 2")));
        assert!(p.vars().iter().all(|v| v.name() != "y"));
    }

    #[test]
    fn project_unconstrained_is_noop() {
        let e = elem("x = 1");
        let vs: VarSet = [Var::named("nope")].into_iter().collect();
        assert_eq!(d().exists(&e, &vs), e);
    }

    #[test]
    fn var_equalities_found() {
        let e = elem("x = z + 0 & y = z & w = z + 1");
        let p = d().var_equalities(&e);
        assert!(p.same(Var::named("x"), Var::named("y")));
        assert!(!p.same(Var::named("x"), Var::named("w")));
    }

    #[test]
    fn alternate_finds_definition() {
        let e = elem("y = 2*a + b & a = c");
        let avoid: VarSet = [Var::named("a")].into_iter().collect();
        let t = d().alternate(&e, Var::named("y"), &avoid).unwrap();
        // y = 2c + b avoids a and y.
        assert_eq!(t.to_string(), "b + 2*c");
    }

    #[test]
    fn alternate_respects_avoid() {
        let e = elem("y = x + 1");
        let avoid: VarSet = [Var::named("x")].into_iter().collect();
        assert!(d().alternate(&e, Var::named("y"), &avoid).is_none());
    }

    #[test]
    fn inequalities_handled_soundly() {
        let e = elem("x = y");
        // Meet with an inequality is dropped (sound weakening) ...
        let e2 = d().meet_atom(&e, &atom("x <= 5"));
        assert_eq!(e2, e);
        // ... but implication of inequalities consistent with the hull works.
        assert!(d().implies_atom(&e, &atom("x <= y")));
        assert!(d().implies_atom(&e, &atom("x >= y")));
        assert!(!d().implies_atom(&e, &atom("x <= 5")));
        // And a constant contradiction is detected.
        assert!(d().meet_atom(&e, &atom("1 <= 0")).is_bottom());
    }

    #[test]
    fn to_conj_roundtrip() {
        let e = elem("x = y + 1 & z = 3");
        let c = d().to_conj(&e);
        let e2 = d().from_conj(&c);
        assert_eq!(e, e2);
    }

    #[test]
    fn rational_coefficients() {
        let e = elem("2*x = y & y = 3");
        assert!(d().implies_atom(&e, &atom("x = 3/2")));
    }
}
