//! Core machinery for *Combining Abstract Interpreters* (Gulwani & Tiwari,
//! PLDI 2006): the abstract-domain interface and the three product
//! combinators.
//!
//! # Overview
//!
//! A *logical lattice* over a theory `T` has conjunctions of atomic facts
//! as elements and implication as its partial order (Definition 1). An
//! abstract interpreter over such a lattice is captured by the
//! [`AbstractDomain`] trait: join `J_L`, existential quantification `Q_L`,
//! meet, an implication decision, the implied-variable-equalities operator
//! `VE_T`, and the theory-specific `Alternate_T`.
//!
//! Given two such domains this crate constructs, fully automatically:
//!
//! - [`DirectProduct`] — the component-wise baseline,
//! - [`ReducedProduct`] — components cooperate by exchanging implied
//!   variable equalities (Nelson–Oppen saturation), and
//! - [`LogicalProduct`] — the paper's contribution: elements are mixed
//!   conjunctions over the union theory; the join (Figure 6) and
//!   quantification (Figure 7) operators are assembled from the component
//!   operators and are the most precise ones when the component theories
//!   are convex, stably infinite, and disjoint (Theorems 2–5).
//!
//! The [`reduce`] module implements the §5 encodings of commutative
//! functions and multi-arity uninterpreted functions into unary-UF +
//! linear arithmetic.

mod budget;
pub mod cache;
pub mod chaos;
mod direct;
mod domain;
mod logical;
mod partition;
mod policy;
pub mod reduce;
mod reduced;
mod saturate;

pub use budget::{Budget, DegradationReport, ScopeGuard, SpanGuard};
pub use cache::{CacheConfig, TermMemo, DEFAULT_TERM_MEMO_CAPACITY};
pub use cai_obs::{BlameTable, Event, LossKind};
pub use chaos::{ChaosConfig, ChaosDomain};
pub use direct::{DirectProduct, Pair};
pub use domain::{combination_precision, AbstractDomain, Precision, TheoryProps};
pub use logical::{
    JoinStats, JoinStatsSnapshot, LogicalProduct, Split, SplitCache, DEFAULT_SPLIT_CACHE_CAPACITY,
};
pub use partition::Partition;
pub use policy::{BudgetPolicy, SizeMeasures};
pub use reduced::ReducedProduct;
pub use saturate::{no_saturate, no_saturate_budgeted, Saturated};
