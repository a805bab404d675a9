//! Integration tests of context-sensitive summaries: entry-keyed
//! specialization precision, cap-widening termination, bit-identity of
//! `context_cap(0)` with the context-insensitive driver, determinism
//! across thread counts, budget degradation, and incremental reuse of
//! context specializations.

use cai_core::{AbstractDomain, Budget, LogicalProduct};
use cai_driver::{Driver, ModuleAnalysis, Summary, SummaryCache};
use cai_interp::{parse_module, Module};
use cai_linarith::AffineEq;
use cai_term::parse::Vocab;
use cai_uf::UfDomain;

fn module(src: &str) -> Module {
    parse_module(&Vocab::standard(), src).expect("module parses")
}

fn affine() -> Driver<AffineEq, impl Fn(&Budget) -> AffineEq + Sync> {
    Driver::new(|_| AffineEq::new())
}

type Product = LogicalProduct<AffineEq, UfDomain>;

fn product() -> Driver<Product, impl Fn(&Budget) -> Product + Sync> {
    Driver::new(|_: &Budget| LogicalProduct::new(AffineEq::new(), UfDomain::new()))
}

fn verdicts(a: &ModuleAnalysis, name: &str) -> Vec<bool> {
    a.report(name)
        .expect("report exists")
        .assertions
        .iter()
        .map(|o| o.verified)
        .collect()
}

/// `a ⊑ b` on exit facts under `d` (None = unreachable exit = ⊥).
fn exit_le<D: AbstractDomain>(d: &D, a: &Summary, b: &Summary) -> bool {
    match (&a.exit, &b.exit) {
        (None, _) => true,
        (Some(ca), None) => d.is_bottom(&d.from_conj(ca)),
        (Some(ca), Some(cb)) => d.le(&d.from_conj(ca), &d.from_conj(cb)),
    }
}

/// A callee that reassigns its formal: its exit constraint ranges over
/// *stable* formals only, so the ⊤-entry summary is `true` and only
/// entry-keyed specialization can recover anything at a call site.
const BUMP: &str = "proc bump(a) { a := a + 1; ret := a; }\n";

#[test]
fn incomparable_entries_get_separate_exact_specializations() {
    let m = module(&format!(
        "{BUMP}
         proc c3(u) {{ x := call bump(3); assert(x = 4); ret := x; }}
         proc c7(u) {{ x := call bump(7); assert(x = 8); ret := x; }}"
    ));
    let sens = affine().analyze(&m);
    assert_eq!(verdicts(&sens, "c3"), [true]);
    assert_eq!(verdicts(&sens, "c7"), [true]);
    // Two incomparable entries (a = 3 vs a = 7) → two memo slots, no
    // widening, no fallback.
    assert_eq!(sens.ctx.contexts_created, 2);
    assert_eq!(sens.ctx.cap_widenings, 0);
    assert_eq!(sens.ctx.top_fallbacks, 0);
    // The insensitive driver can verify neither.
    let insens = affine().context_cap(0).analyze(&m);
    assert_eq!(verdicts(&insens, "c3"), [false]);
    assert_eq!(verdicts(&insens, "c7"), [false]);
    assert_eq!(insens.ctx.contexts_created, 0);

    // The logical product specializes the same way, and every
    // entry-keyed exit is ⊑ the insensitive one.
    let sens = product().analyze(&m);
    let insens = product().context_cap(0).analyze(&m);
    assert_eq!((sens.verified_count(), insens.verified_count()), (2, 0));
    let d = LogicalProduct::new(AffineEq::new(), UfDomain::new());
    for (s, i) in sens.iter().zip(&insens) {
        assert!(
            exit_le(&d, &s.summary, &i.summary),
            "context-sensitive summary of `{}` must be ⊑ the insensitive one",
            s.name
        );
    }
}

#[test]
fn recursive_callee_specializes_on_incomparable_entries() {
    // `down` is recursive: its own SCC solves with ⊤-entry Jacobi
    // iterates; later callers then specialize it on demand, and the
    // descending self-call chain must terminate via the context cap
    // (overflow entries are widened together) or cycle detection —
    // never hang, never panic.
    let m = module(
        "proc down(n) {
             if (n <= 0) { ret := 0; } else { r := call down(n - 1); ret := r; }
         }
         proc f(u) { x := call down(2); ret := x; }
         proc g(u) { y := call down(9); ret := y; }",
    );
    let sens = affine().context_cap(3).analyze(&m);
    assert_eq!(sens.reports.len(), 3);
    // Two incomparable top-level entries (n = 2 vs n = 9) were seen.
    assert!(sens.ctx.contexts_created >= 2);
    // Soundness: nothing verified here that the insensitive run rejects
    // (there are no asserts, but exit facts must stay ordered).
    let insens = affine().context_cap(0).analyze(&m);
    let d = AffineEq::new();
    for (s, i) in sens.iter().zip(&insens) {
        assert!(
            exit_le(&d, &s.summary, &i.summary),
            "context-sensitive summary of `{}` must be ⊑ the insensitive one",
            s.name
        );
    }
}

#[test]
fn context_cap_widens_overflow_entries_and_terminates() {
    // More distinct entries than the cap *within one caller's job* (the
    // memo is per job): the overflow slot widens them together instead
    // of growing without bound.
    let mut src = String::from(BUMP);
    src.push_str("proc many(u) {\n");
    for i in 0..6 {
        src.push_str(&format!("    x{i} := call bump({i});\n"));
    }
    for i in 0..6 {
        src.push_str(&format!("    assert(x{i} = {});\n", i + 1));
    }
    src.push_str("    ret := x0;\n}\n");
    let m = module(&src);
    let sens = affine().context_cap(2).threads(1).analyze(&m);
    // The caller still gets a sound answer; the capped run may verify
    // fewer asserts than the uncapped one but never an unsound one.
    let full = affine().context_cap(16).analyze(&m);
    let capped = verdicts(&sens, "many");
    let unc = verdicts(&full, "many");
    assert_eq!(unc, [true; 6]);
    for (c, u) in capped.iter().zip(&unc) {
        assert!(
            !c || *u,
            "capped run verified an assert the uncapped run rejects"
        );
    }
    assert!(
        sens.ctx.cap_widenings > 0,
        "six distinct entries under cap 2 must hit the overflow slot"
    );
    // The exit facts stay ordered w.r.t. the insensitive run.
    let insens = affine().context_cap(0).analyze(&m);
    let d = AffineEq::new();
    for (s, i) in sens.iter().zip(&insens) {
        assert!(exit_le(&d, &s.summary, &i.summary));
    }
}

#[test]
fn context_cap_zero_reproduces_the_insensitive_driver_bit_for_bit() {
    // Pinned outputs of the pre-context driver on its own test module:
    // identical strings, identical verdicts.
    let m = module(
        "proc inc(a) { ret := a + 1; }
         proc twice(b) { x := call inc(b); y := call inc(x); ret := y; }
         proc main(n) {
             r := call twice(n);
             assert(r = n + 2);
             assert(r = n);
         }",
    );
    let a = affine().context_cap(0).analyze(&m);
    assert_eq!(verdicts(&a, "main"), [true, false]);
    assert_eq!(
        a.report("inc").expect("inc").summary.to_string(),
        "a = ret - 1"
    );
    assert_eq!(
        a.report("twice").expect("twice").summary.to_string(),
        "b = ret - 2"
    );
    assert_eq!(a.ctx.contexts_created + a.ctx.memo_hits, 0);

    // And on the reassigned-formal module the two knob settings agree
    // wherever context cannot help (the callee's own ⊤-entry report).
    let m2 = module(&format!(
        "{BUMP}proc c(u) {{ x := call bump(3); ret := x; }}"
    ));
    let zero = affine().context_cap(0).analyze(&m2);
    let sens = affine().analyze(&m2);
    assert_eq!(
        zero.report("bump").expect("bump").summary,
        sens.report("bump").expect("bump").summary
    );
}

#[test]
fn context_sensitive_runs_are_identical_across_thread_counts() {
    let mut src = String::from(BUMP);
    src.push_str("proc step2(a) { a := a + 2; ret := a; }\n");
    for i in 0..6 {
        src.push_str(&format!(
            "proc c{i}(u) {{
                 x := call bump({i});
                 y := call step2(x);
                 assert(y = {});
                 ret := y;
             }}\n",
            i + 3
        ));
    }
    let m = module(&src);
    let runs: Vec<ModuleAnalysis> = [1usize, 2, 4]
        .iter()
        .map(|&t| product().threads(t).analyze(&m))
        .collect();
    for other in &runs[1..] {
        assert_eq!(runs[0].reports.len(), other.reports.len());
        for (a, b) in runs[0].iter().zip(other) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.summary, b.summary, "summaries differ for {}", a.name);
            assert_eq!(
                a.summary.to_string(),
                b.summary.to_string(),
                "presentations differ for {}",
                a.name
            );
            let va: Vec<bool> = a.assertions.iter().map(|o| o.verified).collect();
            let vb: Vec<bool> = b.assertions.iter().map(|o| o.verified).collect();
            assert_eq!(va, vb, "verdicts differ for {}", a.name);
        }
        assert_eq!(runs[0].ctx, other.ctx, "context counters differ");
    }
    assert!(runs[0].ctx.contexts_created > 0);
}

#[test]
fn starved_budget_degrades_to_top_entry_summaries_without_panicking() {
    let m = module(&format!(
        "{BUMP}
         proc c3(u) {{ x := call bump(3); assert(x = 4); ret := x; }}"
    ));
    let starved = affine().with_budget(Budget::fuel(0)).analyze(&m);
    assert_eq!(starved.reports.len(), 2);
    // With no fuel the entry-context machinery must fall back to the
    // ⊤-entry summary rather than specialize.
    assert_eq!(starved.ctx.contexts_created, 0);
    // Nothing wrongly verified relative to the clean sensitive run.
    let clean = affine().analyze(&m);
    for (deg, cl) in starved.iter().zip(&clean) {
        for (x, y) in deg.assertions.iter().zip(cl.assertions.iter()) {
            assert!(!x.verified || y.verified);
        }
    }
    assert_eq!(verdicts(&clean, "c3"), [true]);
}

#[test]
fn cached_context_specializations_are_reused_across_runs() {
    let src_v = |k: usize| {
        format!(
            "{BUMP}
             proc c3(u) {{ x := call bump(3); assert(x = 4); ret := x + {k}; }}
             proc c7(u) {{ y := call bump(7); assert(y = 8); ret := y; }}"
        )
    };
    let driver = affine();
    let mut cache = SummaryCache::new();
    let cold = driver.analyze_with_cache(&module(&src_v(0)), &mut cache);
    assert_eq!((cold.reused, cold.recomputed), (0, 3));
    assert_eq!(cold.ctx.contexts_created, 2);
    assert_eq!(cache.context_count(), 2);

    // Unchanged module: everything reused, no jobs, contexts retained.
    let warm = driver.analyze_with_cache(&module(&src_v(0)), &mut cache);
    assert_eq!((warm.reused, warm.recomputed), (3, 0));
    assert_eq!(warm.ctx.contexts_created, 0);
    assert_eq!(cache.context_count(), 2);

    // Edit one caller: its job reuses bump's cached specialization (a
    // memo hit) instead of re-deriving it.
    let inc = driver.analyze_with_cache(&module(&src_v(5)), &mut cache);
    assert_eq!((inc.reused, inc.recomputed), (2, 1));
    assert_eq!(verdicts(&inc, "c3"), [true]);
    assert!(inc.ctx.memo_hits >= 1, "cached context must be a memo hit");
    assert_eq!(inc.ctx.contexts_created, 0);

    assert_eq!(cache.context_count(), 2);
}

#[test]
fn changing_the_context_cap_invalidates_the_cache() {
    let m = module(&format!(
        "{BUMP}proc c(u) {{ x := call bump(3); assert(x = 4); ret := x; }}"
    ));
    let mut cache = SummaryCache::new();
    affine().analyze_with_cache(&m, &mut cache);
    // A different cap is a different configuration: nothing may be
    // reused, because cached exit facts depend on it.
    let re = affine().context_cap(0).analyze_with_cache(&m, &mut cache);
    assert_eq!((re.reused, re.recomputed), (0, 2));
    assert_eq!(verdicts(&re, "c"), [false]);
}

#[test]
fn module_analysis_iterates_every_report_in_declaration_order() {
    let m = module(
        "proc a(x) { ret := x; }
         proc b(x) { ret := call a(x); }
         proc c(x) { ret := call b(x); }",
    );
    let analysis = affine().analyze(&m);
    let names: Vec<&str> = analysis.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["a", "b", "c"]);
    // `&ModuleAnalysis` is itself iterable (the satellite bugfix: callers
    // previously had to probe `report()` name by name).
    let by_ref: Vec<&str> = (&analysis).into_iter().map(|r| r.name.as_str()).collect();
    assert_eq!(by_ref, names);
    assert_eq!(analysis.iter().count(), analysis.reports.len());
}
