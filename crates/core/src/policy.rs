//! Adaptive budget policy: size-proportional fuel apportionment and the
//! knobs of the post-widening narrowing pass.
//!
//! A single flat fuel counter degrades *unfairly*: whichever governed
//! loop happens to run first eats the pool, large procedures starve
//! behind small ones, and one pathological loop can force every later
//! loop straight to ⊤. A [`BudgetPolicy`] instead derives each slice from
//! coarse program-size measures ([`SizeMeasures`]) so the precision loss
//! under pressure lands proportionally, and procedures with a recent
//! incident history (panics, stalls, quarantines) are deprioritized —
//! the first step of incident-rate-aware scheduling.
//!
//! The policy is a *pure deterministic function* of sizes, incident
//! counts, and remaining fuel: no clock, no randomness, no thread count.
//! [`BudgetPolicy::Flat`] reproduces the pre-policy behaviour bit for bit
//! (equal [`Budget::split_weighted`] shares, no per-loop slices, no
//! narrowing) and
//! is the default everywhere.

use crate::budget::Budget;

/// Coarse, syntax-derived size measures of a program fragment (a loop
/// body, a procedure, or a whole SCC). Deliberately cheap to compute and
/// fully deterministic — these feed fuel apportionment, so they must
/// never depend on analysis results or timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SizeMeasures {
    /// Statements, counted recursively through branches and loop bodies.
    pub statements: u64,
    /// Loop headers (each one is a fixpoint the analyzer must run).
    pub loops: u64,
    /// Distinct variables mentioned (a proxy for live-state width).
    pub variables: u64,
    /// Call sites (each one may pull in a summary computation).
    pub calls: u64,
}

impl SizeMeasures {
    /// Component-wise sum, for aggregating procedures into an SCC.
    #[must_use]
    pub fn plus(&self, other: &SizeMeasures) -> SizeMeasures {
        SizeMeasures {
            statements: self.statements + other.statements,
            loops: self.loops + other.loops,
            variables: self.variables + other.variables,
            calls: self.calls + other.calls,
        }
    }

    /// Scalar scheduling weight: statements dominate; loops and calls are
    /// the expensive constructs (a fixpoint and a summary instantiation
    /// respectively); variables proxy the width of each abstract state.
    /// Always ≥ 1 so every fragment stays schedulable.
    pub fn weight(&self) -> u64 {
        self.statements
            .saturating_add(self.loops.saturating_mul(4))
            .saturating_add(self.calls.saturating_mul(2))
            .saturating_add(self.variables)
            .max(1)
    }
}

/// How fuel is apportioned across procedures and loops, and whether the
/// engine runs a bounded narrowing pass after a widened loop fixpoint.
/// Every slice is a pure function of program sizes ([`SizeMeasures`]),
/// incident counts and the remaining fuel: no clock, no randomness, no
/// thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// The pre-policy behaviour, bit for bit: per-job slices are equal
    /// [`Budget::split_weighted`] shares, loops share the analysis pool
    /// directly, and no narrowing runs.
    #[default]
    Flat,
    /// Size-proportional governance: per-job slices are weighted by
    /// procedure size and damped by recent incidents; every loop fixpoint
    /// runs under its own size-derived [`Budget::child`] slice; widened
    /// loop invariants get a bounded narrowing recovery pass.
    Adaptive {
        /// Fuel granted to a loop fixpoint per unit of body weight.
        loop_fuel_per_weight: u64,
        /// Maximum descending (narrowing) rounds after a widened fixpoint.
        narrow_rounds: u32,
        /// Fuel for the narrowing pass, per unit of body weight.
        narrow_fuel_per_weight: u64,
    },
}

impl BudgetPolicy {
    /// The flat (pre-policy, bit-identical) behaviour.
    pub fn flat() -> BudgetPolicy {
        BudgetPolicy::Flat
    }

    /// The adaptive policy with its default knobs.
    pub fn adaptive() -> BudgetPolicy {
        BudgetPolicy::Adaptive {
            loop_fuel_per_weight: 64,
            narrow_rounds: 2,
            narrow_fuel_per_weight: 32,
        }
    }

    /// Maximum narrowing rounds after a widened loop fixpoint (0 = the
    /// pass never runs, the flat contract).
    pub fn narrow_rounds(&self) -> u32 {
        match self {
            BudgetPolicy::Flat => 0,
            BudgetPolicy::Adaptive { narrow_rounds, .. } => *narrow_rounds,
        }
    }

    /// Fuel slice for one loop fixpoint over a body of the given size, or
    /// `None` under the flat policy (the loop shares the enclosing pool
    /// unrestricted, exactly the pre-policy behaviour).
    pub fn loop_fuel(&self, body: &SizeMeasures) -> Option<u64> {
        match self {
            BudgetPolicy::Flat => None,
            BudgetPolicy::Adaptive {
                loop_fuel_per_weight,
                ..
            } => Some(loop_fuel_per_weight.saturating_mul(body.weight())),
        }
    }

    /// Fuel for the bounded narrowing pass over a body of the given size.
    pub fn narrow_fuel(&self, body: &SizeMeasures) -> u64 {
        match self {
            BudgetPolicy::Flat => 0,
            BudgetPolicy::Adaptive {
                narrow_fuel_per_weight,
                ..
            } => narrow_fuel_per_weight.saturating_mul(body.weight()),
        }
    }

    /// Scheduling weight of one job (procedure or SCC): its size weight,
    /// damped by the recent incident count so procedures that keep
    /// panicking, stalling, or quarantining stop soaking up fuel that
    /// well-behaved procedures could convert into precision. Always ≥ 1 —
    /// an incident-heavy procedure is deprioritized, never unscheduled.
    pub fn job_weight(&self, size: &SizeMeasures, incidents: u64) -> u64 {
        (size.weight() / incidents.saturating_add(1)).max(1)
    }

    /// Allocates the per-job budget slices for one batch with
    /// [`Budget::split_weighted`]: equal shares under
    /// [`Flat`](BudgetPolicy::Flat) (bit-identical to the pre-policy
    /// driver), weight-proportional shares under
    /// [`Adaptive`](BudgetPolicy::Adaptive). `weights` is one entry per
    /// job, in job order — determinism requires callers to build it in a
    /// thread-count-independent order.
    pub fn job_slices(&self, budget: &Budget, weights: &[u64]) -> Vec<Budget> {
        match self {
            BudgetPolicy::Flat => budget.split_weighted(&vec![1; weights.len()]),
            BudgetPolicy::Adaptive { .. } => budget.split_weighted(weights),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_scales_with_size_and_floors_at_one() {
        assert_eq!(SizeMeasures::default().weight(), 1);
        let small = SizeMeasures {
            statements: 3,
            loops: 0,
            variables: 2,
            calls: 0,
        };
        let big = SizeMeasures {
            statements: 30,
            loops: 2,
            variables: 5,
            calls: 4,
        };
        assert!(big.weight() > small.weight());
        assert_eq!(small.plus(&big).statements, 33);
    }

    #[test]
    fn flat_policy_is_inert() {
        let p = BudgetPolicy::flat();
        let body = SizeMeasures {
            statements: 10,
            ..SizeMeasures::default()
        };
        assert_eq!(p.narrow_rounds(), 0);
        assert_eq!(p.loop_fuel(&body), None);
        assert_eq!(p.narrow_fuel(&body), 0);
        // Flat slices are equal shares whatever the weights, the
        // remainder going one tick apiece to the first slices.
        let shares: Vec<Option<u64>> = p
            .job_slices(&Budget::fuel(23), &[5, 1, 9])
            .iter()
            .map(Budget::remaining_fuel)
            .collect();
        assert_eq!(shares, [Some(8), Some(8), Some(7)]);
    }

    #[test]
    fn adaptive_policy_scales_fuel_with_body_weight() {
        let p = BudgetPolicy::adaptive();
        let small = SizeMeasures {
            statements: 2,
            ..SizeMeasures::default()
        };
        let big = SizeMeasures {
            statements: 40,
            loops: 3,
            variables: 6,
            calls: 1,
        };
        assert!(p.loop_fuel(&big).unwrap() > p.loop_fuel(&small).unwrap());
        assert!(p.narrow_fuel(&big) > p.narrow_fuel(&small));
        assert!(p.narrow_rounds() > 0);
    }

    #[test]
    fn incidents_damp_the_job_weight_but_never_unschedule() {
        let p = BudgetPolicy::adaptive();
        let size = SizeMeasures {
            statements: 40,
            ..SizeMeasures::default()
        };
        let clean = p.job_weight(&size, 0);
        let flaky = p.job_weight(&size, 3);
        assert!(flaky < clean, "incident history deprioritizes");
        assert!(p.job_weight(&size, u64::MAX) >= 1, "floor at 1");
        // Adaptive slices are proportional to the damped weights.
        let slices = p.job_slices(&Budget::fuel(120), &[clean, flaky]);
        assert!(slices[0].remaining_fuel() > slices[1].remaining_fuel());
    }
}
