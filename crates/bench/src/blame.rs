//! The blame legs: four calibrated runs whose blame tables together
//! cover the main loss kinds, shared by `driver_eval --blame` (which
//! prints and exports them) and the workspace's `tests/blame.rs` (which
//! checks them).
//!
//! - **flat** and **adaptive**: the [`mixed_module`] under the
//!   [`PolicyFuel`] pool, where equal shares starve `big` and
//!   size-proportional shares feed it;
//! - **context**: the [`ctx_module`] under a context cap of 1, so the
//!   cap overflows;
//! - **chaos**: the [`batch_module`] over a product whose base domain
//!   panics and offers defective Alternate definitions, with no retries,
//!   so procedures quarantine.

use cai_core::{Budget, BudgetPolicy, ChaosConfig, ChaosDomain, LogicalProduct};
use cai_driver::{differential, DifferentialReport, Driver, ModuleAnalysis};
use cai_interp::Module;
use cai_linarith::{AffineEq, Polyhedra};
use cai_uf::UfDomain;

use crate::{batch_module, ctx_module, mixed_module, PolicyFuel};

/// The chaos leg's fault rates, per mille, for one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosRates {
    /// The fault injector's seed.
    pub seed: u64,
    /// Injected panics per abstract operation.
    pub panic: u32,
    /// Defective Alternate definitions per offered definition.
    pub broken_alternate: u32,
}

impl ChaosRates {
    /// Doubles the rates from 4‰ panics and 100‰ defective Alternates
    /// until the chaos leg both quarantines a procedure and skips a
    /// defective Alternate for `seed` — the leg must show those kinds,
    /// not a lucky fault-free run. A pure function of the seed.
    pub fn calibrate(seed: u64) -> ChaosRates {
        let mut rates = ChaosRates {
            seed,
            panic: 4,
            broken_alternate: 100,
        };
        let m = batch_module(12, 0);
        loop {
            let a = chaos_leg(&m, rates, 1);
            let quarantined = a.quarantined_count() > 0;
            let skipped = a.degradation.blame.kinds().contains(&"alternate-skipped");
            if (quarantined && skipped) || (rates.panic >= 1000 && rates.broken_alternate >= 1000) {
                return rates;
            }
            if !quarantined {
                rates.panic = (rates.panic * 2).min(1000);
            }
            if !skipped {
                rates.broken_alternate = (rates.broken_alternate * 2).min(1000);
            }
        }
    }
}

fn chaos_leg(m: &Module, rates: ChaosRates, threads: usize) -> ModuleAnalysis {
    Driver::new(move |b: &Budget| {
        // The *base* domain misbehaves, so the product's runtime
        // Alternate-contract check actually fires; the product records
        // on the job's budget, so its events reach the run's report.
        LogicalProduct::new(
            ChaosDomain::new(AffineEq::new(), rates.seed)
                .with_config(ChaosConfig {
                    panic_permille: rates.panic,
                    break_alternate_permille: rates.broken_alternate,
                    ..ChaosConfig::quiet()
                })
                .with_budget(b.clone()),
            UfDomain::new(),
        )
        .with_budget(b.clone())
    })
    .max_retries(0)
    .threads(threads)
    .analyze(m)
}

/// One run of each leg at one thread count.
pub struct BlameLegs {
    /// The starved flat-policy run of the mixed module.
    pub flat: ModuleAnalysis,
    /// The adaptive-policy run of the mixed module, same pool.
    pub adaptive: ModuleAnalysis,
    /// The context-cap-1 run of the context module.
    pub context: ModuleAnalysis,
    /// The fault-injected run of the batch module.
    pub chaos: ModuleAnalysis,
}

impl BlameLegs {
    /// Runs all four legs on `threads` worker threads.
    pub fn run(rates: ChaosRates, threads: usize) -> BlameLegs {
        let m = mixed_module(6);
        let fuel = PolicyFuel::calibrate(&m);
        let poly = |policy: BudgetPolicy| {
            Driver::new(|_: &Budget| Polyhedra::new())
                .threads(threads)
                .with_budget(Budget::fuel(fuel.pool))
                .budget_policy(policy)
                .analyze(&m)
        };
        let context =
            Driver::new(|_: &Budget| LogicalProduct::new(AffineEq::new(), UfDomain::new()))
                .context_cap(1)
                .threads(threads)
                .analyze(&ctx_module(4));
        BlameLegs {
            flat: poly(BudgetPolicy::flat()),
            adaptive: poly(BudgetPolicy::adaptive()),
            context,
            chaos: chaos_leg(&batch_module(12, 0), rates, threads),
        }
    }

    /// The legs with their names, in export order.
    pub fn legs(&self) -> [(&'static str, &ModuleAnalysis); 4] {
        [
            ("flat", &self.flat),
            ("adaptive", &self.adaptive),
            ("context", &self.context),
            ("chaos", &self.chaos),
        ]
    }

    /// Which assertions the flat leg loses to the adaptive one, and why.
    pub fn differential(&self) -> DifferentialReport {
        differential("adaptive policy", &self.adaptive, "flat policy", &self.flat)
    }

    /// The distinct loss kinds across all four legs, sorted.
    pub fn kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = self
            .legs()
            .iter()
            .flat_map(|(_, a)| a.degradation.blame.kinds())
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// The export: `{"legs":{…},"kinds":[…],"differential":{…}}`, each
    /// leg its ranked blame table.
    pub fn to_json(&self) -> String {
        let legs: Vec<String> = self
            .legs()
            .iter()
            .map(|(name, a)| format!(r#""{name}":{}"#, a.degradation.blame.to_json()))
            .collect();
        let kinds: Vec<String> = self.kinds().iter().map(|k| format!(r#""{k}""#)).collect();
        format!(
            r#"{{"legs":{{{}}},"kinds":[{}],"differential":{}}}"#,
            legs.join(","),
            kinds.join(","),
            self.differential().to_json()
        )
    }
}
