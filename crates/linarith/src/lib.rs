//! Linear-arithmetic abstract domains for the `cai` workspace.
//!
//! Two logical lattices over the theory of linear arithmetic (§2 of
//! *Combining Abstract Interpreters*):
//!
//! - [`AffineEq`] — Karr's affine-equalities analysis (linear arithmetic
//!   with only equality, \[16, 18\]): elements are affine subspaces in
//!   reduced row-echelon form; joins are affine hulls.
//! - [`Polyhedra`] — the linear-inequalities analysis (reference \[7\] of the paper): elements are
//!   convex rational polyhedra in constraint form; implication and
//!   projection use exact Fourier–Motzkin elimination, and the join is the
//!   convex hull via the standard lifting.
//!
//! Both implement [`cai_core::AbstractDomain`], including the operators
//! the combination framework needs: `VE_T` (implied variable equalities,
//! via Gaussian canonical forms) and `Alternate_T` (definition recovery,
//! via projection and solving).

mod affine;
mod expr;
mod fm;
mod matrix;
mod poly;

pub use affine::{AffineElem, AffineEq};
pub use expr::{preferential_definitions, AffExpr, NotAffineError};
pub use fm::{eliminate, implies_le, infeasible, project, simplify, Ineq};
pub use matrix::{rref, Matrix};
pub use poly::{PolyElem, Polyhedra};
