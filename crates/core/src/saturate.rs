//! `NOSaturation` — the Nelson–Oppen exchange of implied variable
//! equalities (§2, Property 1 of the paper).

use crate::budget::Budget;
use crate::domain::AbstractDomain;
use crate::partition::Partition;
use cai_term::Atom;

/// The result of saturating a purified pair of elements.
#[derive(Clone, Debug)]
pub struct Saturated<E1, E2> {
    /// The first element, strengthened with all shared equalities.
    pub left: E1,
    /// The second element, strengthened with all shared equalities.
    pub right: E2,
    /// The variable partition jointly implied by the conjunction.
    pub equalities: Partition,
    /// Whether the conjunction is unsatisfiable (both elements are bottom).
    pub bottom: bool,
    /// Whether the exchange stopped early on budget exhaustion. The
    /// elements are then sound but possibly under-saturated: each is the
    /// original strengthened with *some* (not necessarily all) implied
    /// equalities.
    pub degraded: bool,
    /// How many exchange rounds ran (observability; a cached split replays
    /// the stored result without re-running any).
    pub rounds: usize,
}

/// `NOSaturation(E1, E2)`: repeatedly propagates the variable equalities
/// implied by either element into the other until a fixpoint is reached.
///
/// For convex, stably infinite, disjoint theories, Property 1 of the paper
/// guarantees that afterwards each element *individually* implies every
/// pure fact of its theory that the conjunction `E1 ∧ E2` implies.
///
/// If either side becomes unsatisfiable, bottom is propagated to both.
///
/// The loop terminates because the joint partition only ever coarsens and
/// is bounded by the number of variables.
pub fn no_saturate<D1, D2>(
    d1: &D1,
    e1: D1::Elem,
    d2: &D2,
    e2: D2::Elem,
) -> Saturated<D1::Elem, D2::Elem>
where
    D1: AbstractDomain,
    D2: AbstractDomain,
{
    no_saturate_budgeted(d1, e1, d2, e2, &Budget::unlimited())
}

/// [`no_saturate`] governed by a [`Budget`]: each round ticks once per
/// `var_equalities` query and once per asserted equality. On exhaustion
/// the loop stops with the equalities propagated so far — a sound
/// under-saturation, flagged via [`Saturated::degraded`] and recorded on
/// the budget.
pub fn no_saturate_budgeted<D1, D2>(
    d1: &D1,
    mut e1: D1::Elem,
    d2: &D2,
    mut e2: D2::Elem,
    budget: &Budget,
) -> Saturated<D1::Elem, D2::Elem>
where
    D1: AbstractDomain,
    D2: AbstractDomain,
{
    let mut joint = Partition::new();
    let mut rounds = 0;
    loop {
        if d1.is_bottom(&e1) || d2.is_bottom(&e2) {
            return Saturated {
                left: d1.bottom(),
                right: d2.bottom(),
                equalities: joint,
                bottom: true,
                degraded: false,
                rounds,
            };
        }
        if !budget.tick(2) {
            budget.degrade("no_saturate", "stopped the equality exchange early");
            return Saturated {
                left: e1,
                right: e2,
                equalities: joint,
                bottom: false,
                degraded: true,
                rounds,
            };
        }
        rounds += 1;
        let p1 = d1.var_equalities(&e1);
        let p2 = d2.var_equalities(&e2);
        let mut changed = joint.merge(&p1);
        changed |= joint.merge(&p2);
        if !changed {
            return Saturated {
                left: e1,
                right: e2,
                equalities: joint,
                bottom: false,
                degraded: false,
                rounds,
            };
        }
        // Assert every joint equality into both sides (meet is idempotent,
        // so re-asserting known equalities is harmless).
        for (x, y) in joint.pairs() {
            if !p1.same(x, y) {
                budget.tick(1);
                e1 = d1.meet_atom(&e1, &Atom::var_eq(x, y));
            }
            if !p2.same(x, y) {
                budget.tick(1);
                e2 = d2.meet_atom(&e2, &Atom::var_eq(x, y));
            }
        }
    }
}
