//! Tests of the driver's adaptive budget policy: size-proportional job
//! slices, incident-history damping through the summary cache, thread
//! count independence, and the flat policy's bit-identity contract.

use cai_core::{AbstractDomain, Budget, BudgetPolicy, ChaosConfig, ChaosDomain};
use cai_driver::{Driver, ModuleAnalysis, Summary, SummaryCache};
use cai_interp::{parse_module, Module};
use cai_linarith::Polyhedra;
use cai_term::parse::Vocab;

fn module(src: &str) -> Module {
    parse_module(&Vocab::standard(), src).expect("module parses")
}

fn poly() -> Driver<Polyhedra, impl Fn(&Budget) -> Polyhedra + Sync> {
    Driver::new(|_| Polyhedra::new())
}

fn verdicts(a: &ModuleAnalysis, name: &str) -> Vec<bool> {
    a.report(name)
        .unwrap_or_else(|| panic!("no report for {name}"))
        .assertions
        .iter()
        .map(|o| o.verified)
        .collect()
}

/// Everything observable about a run, rendered to one comparable string.
fn fingerprint(a: &ModuleAnalysis) -> String {
    let mut s = String::new();
    for r in a {
        let verdicts: Vec<bool> = r.assertions.iter().map(|o| o.verified).collect();
        s.push_str(&format!(
            "{} | {} | {:?} | diverged={} quarantined={}\n",
            r.name, r.summary, verdicts, r.diverged, r.quarantined
        ));
    }
    s.push_str(&format!(
        "degraded={} exhausted={} fuel={} sup={:?} ctx={:?}\n",
        a.degradation.degraded,
        a.degradation.exhausted,
        a.degradation.fuel_spent,
        a.supervision,
        a.ctx
    ));
    for e in &a.degradation.events {
        s.push_str(&format!("{e}\n"));
    }
    s
}

/// `a ⊑ b` on exit constraints, decided by a fresh domain.
fn exit_le(d: &Polyhedra, a: &Summary, b: &Summary) -> bool {
    match (&a.exit, &b.exit) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(ca), Some(cb)) => d.le(&d.from_conj(ca), &d.from_conj(cb)),
    }
}

/// One large loop-heavy procedure next to several trivial ones: the
/// shape where equal fuel shares starve the big procedure while
/// proportional shares feed everyone.
fn mixed_module() -> Module {
    let mut src = String::new();
    for i in 0..6 {
        src.push_str(&format!(
            "proc small{i}(a) {{ y := a + {i}; assert(y >= a); ret := y; }}\n"
        ));
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
    module(&src)
}

#[test]
fn adaptive_policy_feeds_big_procedures_that_flat_shares_starve() {
    let m = mixed_module();

    // Measure what each side actually needs, with unlimited fuel (spent
    // is tracked regardless), then pick a pool that self-evidently
    // starves `big` under equal shares but not under proportional ones.
    let cost = |name: &str| {
        let single = module(&m.get(name).expect("proc").to_string());
        poly()
            .budget_policy(BudgetPolicy::adaptive())
            .analyze(&single)
            .degradation
            .fuel_spent
    };
    let cost_big = cost("big");
    let cost_small = cost("small0");

    let policy = BudgetPolicy::adaptive();
    let weight = |name: &str| policy.job_weight(&m.get(name).expect("proc").measures(), 0);
    let w_big = weight("big");
    let w_small = weight("small0");
    let total_w = w_big + 6 * w_small;
    let jobs = 7u64;

    // The smallest pool whose proportional big-share covers cost_big,
    // padded a little for the slice-remainder floor.
    let fuel = (cost_big * total_w).div_ceil(w_big) + jobs;
    assert!(
        fuel / jobs < cost_big,
        "calibration: the flat share {} must starve big (needs {})",
        fuel / jobs,
        cost_big
    );
    assert!(
        fuel * w_small / total_w >= cost_small && fuel / jobs >= cost_small,
        "calibration: small procedures must be fed under both policies"
    );

    let flat = poly().with_budget(Budget::fuel(fuel)).analyze(&m);
    let adaptive = poly()
        .with_budget(Budget::fuel(fuel))
        .budget_policy(BudgetPolicy::adaptive())
        .analyze(&m);

    // Flat starves big: the loop degrades to ⊤ (only the loop-condition
    // negation x >= 60 survives at exit) and the upper bound is gone.
    assert!(flat.degradation.exhausted, "flat run must hit exhaustion");
    assert_eq!(verdicts(&flat, "big"), [true, false]);
    // Adaptive feeds it — and the narrowing pass recovers the upper
    // bound widening discarded.
    assert_eq!(verdicts(&adaptive, "big"), [true, true]);

    // Per procedure, the adaptive run is no less precise than the flat
    // one — strictly better on `big`.
    let d = Polyhedra::new();
    for (a, f) in adaptive.reports.iter().zip(flat.reports.iter()) {
        assert_eq!(a.name, f.name);
        assert!(
            exit_le(&d, &a.summary, &f.summary),
            "adaptive must refine flat for {}",
            a.name
        );
    }
    let (a_big, f_big) = (
        &adaptive.report("big").expect("big").summary,
        &flat.report("big").expect("big").summary,
    );
    assert!(!exit_le(&d, f_big, a_big), "strictly more precise on big");
}

#[test]
fn adaptive_runs_are_identical_across_thread_counts() {
    let m = mixed_module();
    let run = |threads: usize| {
        let a = poly()
            .threads(threads)
            .with_budget(Budget::fuel(4_000))
            .budget_policy(BudgetPolicy::adaptive())
            .analyze(&m);
        fingerprint(&a)
    };
    let base = run(1);
    assert!(base.contains("big"), "sanity: reports present");
    for threads in [2, 4] {
        assert_eq!(run(threads), base, "threads={threads}");
    }

    // Under injected panics too: retries and quarantines are decided per
    // job, so they do not depend on the schedule either.
    for seed in 0..4u64 {
        let chaos = |threads: usize| {
            Driver::new(move |b: &Budget| {
                ChaosDomain::new(Polyhedra::new(), seed)
                    .with_config(ChaosConfig {
                        panic_permille: 20,
                        ..ChaosConfig::quiet()
                    })
                    .with_budget(b.clone())
            })
            .threads(threads)
            .with_budget(Budget::fuel(4_000))
            .budget_policy(BudgetPolicy::adaptive())
            .analyze(&m)
        };
        let base = chaos(1);
        assert!(
            base.supervision.panics_caught > 0,
            "seed {seed}: no panic fired"
        );
        for threads in [2, 4] {
            assert_eq!(
                fingerprint(&chaos(threads)),
                fingerprint(&base),
                "seed {seed}: threads={threads}"
            );
        }
    }
}

#[test]
fn flat_policy_is_bit_identical_to_the_default_driver() {
    // An explicit Flat policy must be indistinguishable from never
    // mentioning policies at all — reports, verdicts, and the fuel
    // trace.
    let m = mixed_module();
    let default_run = poly().with_budget(Budget::fuel(900)).analyze(&m);
    let flat_run = poly()
        .with_budget(Budget::fuel(900))
        .budget_policy(BudgetPolicy::flat())
        .analyze(&m);
    assert_eq!(fingerprint(&default_run), fingerprint(&flat_run));
    assert_eq!(
        default_run.degradation.fuel_spent,
        flat_run.degradation.fuel_spent
    );
}

#[test]
fn incident_history_is_recorded_decayed_and_damps_weights() {
    let m = module(
        "proc f(a) { ret := a + 1; }
         proc g(a) { ret := a + 2; }",
    );
    let driver = poly();
    let mut cache = SummaryCache::new();

    driver.analyze_with_cache(&m, &mut cache);
    assert_eq!(cache.incident_count("f"), 0);

    // A corrupted entry is rejected on the next run and recorded as an
    // incident against its procedure.
    assert!(cache.corrupt_entry("f"));
    driver.analyze_with_cache(&m, &mut cache);
    assert_eq!(cache.incident_count("f"), 1, "corruption incident lands");
    assert_eq!(cache.incident_count("g"), 0);

    // The damped weight schedules `f` below the equally-sized `g`.
    let policy = BudgetPolicy::adaptive();
    let size = m.get("f").expect("f").measures();
    assert!(
        policy.job_weight(&size, cache.incident_count("f"))
            < policy.job_weight(&size, cache.incident_count("g"))
    );

    // A clean run halves the history away: the damping is *recent*.
    driver.analyze_with_cache(&m, &mut cache);
    assert_eq!(cache.incident_count("f"), 0, "history decays");
}

#[test]
fn incident_history_counts_every_faulting_procedure() {
    // 80 procedures that all panic and quarantine: 160 fault events,
    // more than the event log stores. The history must still damp every
    // one of them, because it reads the run's uncapped blame table.
    let src: String = (0..80)
        .map(|i| format!("proc p{i}(a) {{ ret := a + {i}; }}\n"))
        .collect();
    let m = module(&src);
    let always_panics = Driver::new(|b: &Budget| {
        ChaosDomain::new(Polyhedra::new(), 7)
            .with_config(ChaosConfig {
                panic_permille: 1000,
                ..ChaosConfig::quiet()
            })
            .with_budget(b.clone())
    })
    .max_retries(0);
    let mut cache = SummaryCache::new();
    let a = always_panics.analyze_with_cache(&m, &mut cache);
    assert_eq!(a.quarantined_count(), 80);
    assert!(
        a.degradation.dropped_events > 0,
        "the stored log overflowed"
    );
    for p in &m.procs {
        // One caught panic plus one quarantine each.
        assert_eq!(cache.incident_count(&p.name), 2, "history of {}", p.name);
    }
}
