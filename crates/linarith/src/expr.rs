//! Affine expressions over variables — the internal representation of the
//! linear-arithmetic domains.

use cai_num::Rat;
use cai_term::{LinExpr, Term, TermKind, Var, VarSet};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// An affine expression `Σ cᵥ·v + k` with rational coefficients over
/// variables only.
///
/// Unlike [`LinExpr`], whose atoms may be arbitrary non-arithmetic terms,
/// an `AffExpr` is the *pure* linear-arithmetic fragment: converting a term
/// that still contains foreign function symbols fails.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AffExpr {
    coeffs: BTreeMap<Var, Rat>,
    konst: Rat,
}

/// The error returned when a term is not purely linear over variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotAffineError(pub String);

impl fmt::Display for NotAffineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "term `{}` is not affine over variables", self.0)
    }
}

impl std::error::Error for NotAffineError {}

impl AffExpr {
    /// The zero expression.
    pub fn zero() -> AffExpr {
        AffExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> AffExpr {
        AffExpr {
            coeffs: BTreeMap::new(),
            konst: c,
        }
    }

    /// The expression `1·v`.
    pub fn var(v: Var) -> AffExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, Rat::one());
        AffExpr {
            coeffs,
            konst: Rat::zero(),
        }
    }

    /// Converts a pure linear-arithmetic term.
    ///
    /// # Errors
    ///
    /// Returns [`NotAffineError`] if the term contains a function
    /// application (only variables and arithmetic structure are allowed).
    pub fn try_from_term(t: &Term) -> Result<AffExpr, NotAffineError> {
        match t.kind() {
            TermKind::Var(v) => Ok(AffExpr::var(*v)),
            TermKind::App(..) => Err(NotAffineError(t.to_string())),
            TermKind::Lin(e) => {
                let mut out = AffExpr::constant(e.constant_part().clone());
                for (atom, coeff) in e.iter() {
                    match atom.as_var() {
                        Some(v) => out.add_var(v, coeff),
                        None => return Err(NotAffineError(t.to_string())),
                    }
                }
                Ok(out)
            }
        }
    }

    /// The difference `s - t` of two pure terms.
    ///
    /// # Errors
    ///
    /// Returns [`NotAffineError`] if either term is not affine.
    pub fn difference(s: &Term, t: &Term) -> Result<AffExpr, NotAffineError> {
        Ok(AffExpr::try_from_term(s)?.sub(&AffExpr::try_from_term(t)?))
    }

    /// Adds `coeff · v` in place.
    pub fn add_var(&mut self, v: Var, coeff: &Rat) {
        if coeff.is_zero() {
            return;
        }
        match self.coeffs.entry(v) {
            Entry::Vacant(slot) => {
                slot.insert(coeff.clone());
            }
            Entry::Occupied(mut slot) => {
                let sum = slot.get() + coeff;
                if sum.is_zero() {
                    slot.remove();
                } else {
                    *slot.get_mut() = sum;
                }
            }
        }
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Var) -> Rat {
        self.coeffs.get(&v).cloned().unwrap_or_else(Rat::zero)
    }

    /// The coefficient of `v`, or `None` if it is zero. Unlike
    /// [`coeff`](AffExpr::coeff) this never allocates: a zero coefficient
    /// is never stored.
    pub fn coeff_ref(&self, v: Var) -> Option<&Rat> {
        self.coeffs.get(&v)
    }

    /// The constant part.
    pub fn constant_part(&self) -> &Rat {
        &self.konst
    }

    /// Returns `true` if the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Returns `true` if the expression is the constant zero.
    pub fn is_zero(&self) -> bool {
        self.is_constant() && self.konst.is_zero()
    }

    /// The variable with the smallest interning index (the pivot choice),
    /// if any.
    pub fn leading_var(&self) -> Option<Var> {
        self.coeffs.keys().next().copied()
    }

    /// Iterates over `(variable, coefficient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Rat)> {
        self.coeffs.iter()
    }

    /// The number of variables with nonzero coefficient.
    pub fn num_vars(&self) -> usize {
        self.coeffs.len()
    }

    /// The variables of the expression.
    pub fn vars(&self) -> VarSet {
        self.coeffs.keys().copied().collect()
    }

    /// `self + other`.
    pub fn add(&self, other: &AffExpr) -> AffExpr {
        let mut out = self.clone();
        out.konst = &out.konst + &other.konst;
        for (v, c) in &other.coeffs {
            out.add_var(*v, c);
        }
        out
    }

    /// `self - other`.
    pub fn sub(&self, other: &AffExpr) -> AffExpr {
        self.add(&other.scale(&-Rat::one()))
    }

    /// `c · self`.
    pub fn scale(&self, c: &Rat) -> AffExpr {
        if c.is_zero() {
            return AffExpr::zero();
        }
        AffExpr {
            coeffs: self.coeffs.iter().map(|(v, k)| (*v, k * c)).collect(),
            konst: &self.konst * c,
        }
    }

    /// Adds `factor · other` in place (the Gaussian elimination step).
    pub fn add_scaled(&mut self, factor: &Rat, other: &AffExpr) {
        if factor.is_zero() {
            return;
        }
        self.konst = &self.konst + &(&other.konst * factor);
        for (v, c) in &other.coeffs {
            self.add_var(*v, &(c * factor));
        }
    }

    /// Divides so the leading coefficient becomes one.
    ///
    /// # Panics
    ///
    /// Panics if the expression is constant.
    pub fn normalize_leading(&self) -> AffExpr {
        let lead = self.leading_var().expect("normalize_leading on constant");
        let c = self.coeff(lead);
        self.scale(&c.recip())
    }

    /// Scales positively so coefficients are canonical for deduplication:
    /// the leading coefficient becomes ±1 with its original sign.
    pub fn normalize_positive(&self) -> AffExpr {
        match self.leading_var() {
            None => self.clone(),
            Some(v) => {
                let c = self.coeff(v).abs();
                self.scale(&c.recip())
            }
        }
    }

    /// Renders the expression as a [`Term`].
    pub fn to_term(&self) -> Term {
        let mut e = LinExpr::constant(self.konst.clone());
        for (v, c) in &self.coeffs {
            e = e.add_atom(Term::var(*v), c);
        }
        Term::lin(e)
    }

    /// Solves `self = 0` for `v`, returning the term `t` with `v = t`.
    ///
    /// # Panics
    ///
    /// Panics if `v` has coefficient zero.
    pub fn solve_for(&self, v: Var) -> Term {
        let c = self.coeff(v);
        assert!(!c.is_zero(), "cannot solve for absent variable {v}");
        // v = -(self - c·v) / c
        let mut rest = self.clone();
        rest.add_var(v, &-c.clone());
        rest.scale(&-c.recip()).to_term()
    }

    /// Substitutes `v := e` in place (where `e` is the affine definition
    /// of `v`); a no-op when `v` does not occur.
    pub fn substitute(&mut self, v: Var, e: &AffExpr) {
        if let Some(c) = self.coeffs.remove(&v) {
            self.add_scaled(&c, e);
        }
    }
}

/// Computes, for as many `targets` as possible, definitions `y = t` implied
/// by the equality system `rows` with `Vars(t) ∩ avoid = ∅`
/// (`targets ⊆ avoid`) — the batched `Alternate_T` for linear arithmetic.
///
/// One Gaussian elimination with avoid-preferred pivoting serves every
/// target: a target has an avoid-free definition iff it becomes a pivot
/// whose row remainder is avoid-free, because the remainder ranges over
/// free columns and free columns admit no implied equalities.
pub fn preferential_definitions(
    rows: &[AffExpr],
    targets: &VarSet,
    avoid: &VarSet,
) -> BTreeMap<Var, Term> {
    let prefer = |v: &Var| (usize::from(!avoid.contains(v)), *v);
    let mut echelon: Vec<(Var, AffExpr)> = Vec::new(); // (pivot, row)
    for row in rows {
        let mut r = row.clone();
        for (p, er) in &echelon {
            if let Some(c) = r.coeff_ref(*p).map(|c| -c) {
                r.add_scaled(&c, er);
            }
        }
        let Some(pivot) = r.vars().into_iter().min_by_key(prefer) else {
            continue; // redundant (or inconsistent) row
        };
        let r = r.scale(&r.coeff(pivot).recip());
        for (_, er) in echelon.iter_mut() {
            if let Some(c) = er.coeff_ref(pivot).map(|c| -c) {
                er.add_scaled(&c, &r);
            }
        }
        echelon.push((pivot, r));
    }
    let mut out = BTreeMap::new();
    for (p, r) in &echelon {
        if targets.contains(p) && r.vars().iter().all(|v| v == p || !avoid.contains(v)) {
            out.insert(*p, r.solve_for(*p));
        }
    }
    out
}

impl fmt::Display for AffExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_term())
    }
}

impl fmt::Debug for AffExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cai_term::parse::Vocab;

    fn expr(s: &str) -> AffExpr {
        let v = Vocab::standard();
        AffExpr::try_from_term(&v.parse_term(s).unwrap()).unwrap()
    }

    #[test]
    fn conversion_and_rejection() {
        assert_eq!(expr("2*x + y - 3").to_term().to_string(), "2*x + y - 3");
        let v = Vocab::standard();
        let t = v.parse_term("F(x) + 1").unwrap();
        assert!(AffExpr::try_from_term(&t).is_err());
    }

    #[test]
    fn arithmetic_cancels() {
        let e = expr("2*x + y").sub(&expr("2*x"));
        assert_eq!(e, expr("y"));
        assert!(expr("x").sub(&expr("x")).is_zero());
    }

    #[test]
    fn solve_for_variable() {
        // 2x - y + 4 = 0  =>  x = (y - 4)/2
        let e = expr("2*x - y + 4");
        let t = e.solve_for(Var::named("x"));
        assert_eq!(t.to_string(), "1/2*y - 2");
    }

    #[test]
    fn substitute_definition() {
        // x + y, with x := z - 1  =>  z - 1 + y
        let mut e = expr("x + y");
        e.substitute(Var::named("x"), &expr("z - 1"));
        assert_eq!(e, expr("y + z - 1"));
        // Substituting an absent variable changes nothing.
        e.substitute(Var::named("x"), &expr("w"));
        assert_eq!(e, expr("y + z - 1"));
    }

    #[test]
    fn add_scaled_is_elimination() {
        // (x + 2y) - 2*(y + 1) = x - 2
        let mut e = expr("x + 2*y");
        e.add_scaled(&-Rat::from(2i64), &expr("y + 1"));
        assert_eq!(e, expr("x - 2"));
    }
}
