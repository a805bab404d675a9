//! The precision-provenance contract (see DESIGN.md §11): every loss is
//! recorded once, as its own kind, on the budget of the run it belongs
//! to; a run's blame table is a pure function of the analysis, so its
//! JSON is identical at every thread count, including under injected
//! faults; and the calibrated blame legs of `cai_bench::blame` cover the
//! main loss kinds and pin the lost assertion on the starved widening.

use cai_bench::blame::{BlameLegs, ChaosRates};
use cai_bench::COUNTER_LOOP_MODULE;
use cai_core::{
    AbstractDomain, Budget, BudgetPolicy, ChaosConfig, ChaosDomain, LogicalProduct, LossKind,
};
use cai_driver::{differential, Driver, ModuleAnalysis};
use cai_interp::{parse_module, Module};
use cai_linarith::{AffineEq, Polyhedra};
use cai_term::parse::Vocab;
use cai_term::VarSet;
use cai_uf::UfDomain;
use std::sync::OnceLock;

type DegradingProduct = LogicalProduct<ChaosDomain<AffineEq>, UfDomain>;

/// A driver whose *base* domain injects sound degradation faults (forced
/// ⊤ joins, defective Alternate operators, budget exhaustion) plus
/// panics, so every run records events of several kinds and exercises
/// the supervisor. The product records on the job's budget, so its
/// losses reach the run's report.
fn degrading_driver(
    seed: u64,
    panic_rate: u32,
) -> Driver<DegradingProduct, impl Fn(&Budget) -> DegradingProduct + Sync> {
    Driver::new(move |b: &Budget| {
        LogicalProduct::new(
            ChaosDomain::new(AffineEq::new(), seed)
                .with_config(ChaosConfig {
                    top_join_permille: 100,
                    break_alternate_permille: 300,
                    exhaust_budget_permille: 10,
                    panic_permille: panic_rate,
                    ..ChaosConfig::quiet()
                })
                .with_budget(b.clone()),
            UfDomain::new(),
        )
        .with_budget(b.clone())
    })
}

fn test_module(n: usize) -> Module {
    let mut src = String::new();
    for i in 0..n {
        let k = i % 5;
        src.push_str(&format!(
            "proc p{i}(a) {{
                 x := a + {k};
                 y := F(x);
                 while (*) {{ x := x + 1; y := F(x); }}
                 assert(y = F(x));
                 ret := x;
             }}\n"
        ));
    }
    parse_module(&Vocab::standard(), &src).expect("generated module parses")
}

/// Every observable fact of a run, as one comparable string: summaries
/// (including their rendering), verdicts, flags, supervision and context
/// counters, and the event log.
fn fingerprint(a: &ModuleAnalysis) -> String {
    let mut s = String::new();
    for r in a {
        let verdicts: Vec<bool> = r.assertions.iter().map(|o| o.verified).collect();
        s.push_str(&format!(
            "{} | {} | {verdicts:?} | diverged={} quarantined={}\n",
            r.name, r.summary, r.diverged, r.quarantined
        ));
    }
    s.push_str(&format!("sup={:?} ctx={:?}\n", a.supervision, a.ctx));
    for e in &a.degradation.events {
        s.push_str(&format!("{e}\n"));
    }
    s
}

/// The export contract: with degradation faults injected, the run's
/// blame JSON is bit-identical at 1, 2 and 4 threads — scopes live on
/// each job's budget slice, rounds are logical, and per-job tables merge
/// commutatively, so the schedule leaves no trace.
#[test]
fn blame_json_is_identical_across_thread_counts_under_chaos() {
    let m = test_module(8);
    let run = |threads: usize| {
        degrading_driver(7, 200)
            .max_retries(0)
            .threads(threads)
            .with_budget(Budget::fuel(200_000))
            .analyze(&m)
    };
    let base = run(1);
    let table = &base.degradation.blame;
    assert!(
        table.kinds().len() >= 2,
        "expected several loss kinds, got {:?}",
        table.kinds()
    );
    for threads in [2usize, 4] {
        let a = run(threads);
        assert_eq!(
            fingerprint(&base),
            fingerprint(&a),
            "chaos run at {threads} thread(s) diverged"
        );
        assert_eq!(
            table.to_json(),
            a.degradation.blame.to_json(),
            "blame JSON at {threads} thread(s) differs from the 1-thread export"
        );
    }
}

/// Scopes belong to the run's budget: a recursive batch started while a
/// scope of another budget is open reports the blame JSON of a batch
/// started with no scope open, at 1, 2 and 4 threads.
#[test]
fn a_scope_of_another_budget_never_labels_a_batch() {
    let mut src = String::new();
    for i in 0..6 {
        src.push_str(&format!(
            "proc p{i}(a) {{
                 x := 0;
                 while (x < a) {{ x := x + 1; }}
                 if (*) {{ ret := x; }} else {{ r := call p{i}(a); ret := r; }}
             }}\n"
        ));
    }
    let m = parse_module(&Vocab::standard(), &src).expect("generated module parses");
    let run = |threads: usize| {
        Driver::new(|_| Polyhedra::new())
            .threads(threads)
            .with_budget(Budget::fuel(300))
            .analyze(&m)
            .degradation
            .blame
            .to_json()
    };
    let base = run(1);
    assert!(base.contains(r#""scope":"p0/loop#0""#), "{base}");
    let other = Budget::unlimited();
    let _outer = other.scope("outer");
    for threads in [1usize, 2, 4] {
        assert_eq!(run(threads), base, "{threads} thread(s)");
    }
}

/// The blame legs' chaos rates for seed 7, calibrated once per process.
fn rates() -> ChaosRates {
    static RATES: OnceLock<ChaosRates> = OnceLock::new();
    *RATES.get_or_init(|| ChaosRates::calibrate(7))
}

#[test]
fn blame_legs_cover_at_least_four_loss_kinds() {
    let legs = BlameLegs::run(rates(), 1);
    assert!(
        legs.chaos.quarantined_count() > 0,
        "the chaos leg must quarantine"
    );
    let kinds = legs.kinds();
    assert!(kinds.len() >= 4, "expected >= 4 loss kinds, got {kinds:?}");
    for required in ["widen", "budget-degrade", "quarantine", "ctx-cap-overflow"] {
        assert!(
            kinds.contains(&required),
            "missing loss kind `{required}` in {kinds:?}"
        );
    }
}

#[test]
fn differential_names_the_starved_widening_in_big_first() {
    let diff = BlameLegs::run(rates(), 1).differential();
    let first = diff
        .regressions
        .first()
        .expect("the flat leg must lose an assertion to the adaptive leg");
    assert_eq!(first.proc, "big", "the starved procedure regresses first");
    let cause = first.causes.first().expect("a regression has causes");
    assert_eq!(
        cause.site, "analyzer/while",
        "the starved widening site must be blamed first, got {cause:?}"
    );
    assert!(cause.delta() >= 1, "{cause:?}");
}

#[test]
fn blame_legs_export_is_identical_at_1_2_4_threads() {
    let json = BlameLegs::run(rates(), 1).to_json();
    assert!(json.starts_with(r#"{"legs":{"flat":["#), "{json}");
    for field in ["scope", "site", "domain", "kind", "count"] {
        assert!(
            json.contains(&format!(r#"{{"{field}":"#)) || json.contains(&format!(r#","{field}":"#)),
            "rows lack `{field}`"
        );
    }
    for threads in [2usize, 4] {
        assert_eq!(
            BlameLegs::run(rates(), threads).to_json(),
            json,
            "blame export at {threads} threads differs from the 1-thread export"
        );
    }
}

/// The canonical widening loss: the flat run widens `x <= 100` away and
/// never narrows, and the differential puts the loop's widening site
/// first.
#[test]
fn widening_site_is_blamed_first_on_the_counter_loop() {
    let m = parse_module(&Vocab::standard(), COUNTER_LOOP_MODULE).expect("counter loop parses");
    let driver = || Driver::new(|_: &Budget| Polyhedra::new());
    let flat = driver().analyze(&m);
    let adaptive = driver().budget_policy(BudgetPolicy::adaptive()).analyze(&m);
    let diff = differential("adaptive policy", &adaptive, "flat policy", &flat);
    let first = diff
        .regressions
        .first()
        .expect("the flat run must lose an assertion to the adaptive run");
    let cause = first.causes.first().expect("a regression has causes");
    assert_eq!(cause.site, "analyzer/while", "{diff}");
    // Losses carry the procedure/loop scope, not a thread identity.
    assert_eq!(cause.scope, "main/loop#0", "{diff}");
}

/// A quarantine is one `quarantine` event: the supervisor records no
/// `budget-degrade` beside it.
#[test]
fn one_quarantine_is_one_quarantine_row() {
    let m = parse_module(&Vocab::standard(), "proc f(a) { ret := a + 1; }").expect("parses");
    let a = Driver::new(|b: &Budget| {
        ChaosDomain::new(Polyhedra::new(), 7)
            .with_config(ChaosConfig {
                panic_permille: 1000,
                ..ChaosConfig::quiet()
            })
            .with_budget(b.clone())
    })
    .max_retries(0)
    .analyze(&m);
    assert_eq!(a.quarantined_count(), 1);
    assert!(a.degradation.degraded, "a quarantine degrades the run");
    let rows: Vec<_> = a
        .degradation
        .blame
        .entries()
        .into_iter()
        .filter(|e| e.site == "driver/supervisor")
        .collect();
    let quarantines: Vec<_> = rows
        .iter()
        .filter(|e| e.kind == LossKind::Quarantine)
        .collect();
    assert_eq!(quarantines.len(), 1, "{rows:?}");
    assert_eq!(
        (quarantines[0].scope.as_str(), quarantines[0].count),
        ("f", 1)
    );
    assert!(
        !rows.iter().any(|e| e.kind == LossKind::BudgetDegrade),
        "no budget-degrade row at driver/supervisor: {rows:?}"
    );
}

/// A skipped defective Alternate is one `alternate-skipped` event: the
/// product records no `budget-degrade` beside it.
#[test]
fn one_skipped_alternate_is_one_alternate_skipped_row() {
    // Quantifying nothing still eliminates the purification variable
    // naming `y + 1`, whose one Alternate definition the chaos wrapper
    // corrupts into the cyclic `t = t`.
    let e = Vocab::standard()
        .parse_conj("x = F(y + 1) & y = 2*z")
        .expect("parses");
    let budget = Budget::unlimited();
    let d = LogicalProduct::new(
        ChaosDomain::new(AffineEq::new(), 7).with_config(ChaosConfig {
            break_alternate_permille: 1000,
            ..ChaosConfig::quiet()
        }),
        UfDomain::new(),
    )
    .with_budget(budget.clone());
    let _ = d.exists(&e, &VarSet::new());
    assert_eq!(
        d.stats().snapshot().defs_rejected,
        1,
        "exactly one defective definition was offered"
    );
    let report = budget.report();
    assert!(report.degraded, "a skipped Alternate degrades the result");
    let rows = report.blame.entries();
    let skipped: Vec<_> = rows
        .iter()
        .filter(|r| r.kind == LossKind::AlternateSkipped)
        .collect();
    assert_eq!(skipped.len(), 1, "{rows:?}");
    assert_eq!(
        (skipped[0].site, skipped[0].count),
        ("logical-product/q-saturation", 1)
    );
    assert!(
        !rows.iter().any(|r| r.kind == LossKind::BudgetDegrade),
        "no extra budget-degrade row: {rows:?}"
    );
}
