//! The abstract-interpretation engine: forward analysis over the
//! flowchart nodes of the paper's Figure 5, with loop fixpoints and
//! widening (§4.3).

use crate::ast::{stmt_measures, Cond, Program, Stmt};
use cai_core::{
    AbstractDomain, Budget, BudgetPolicy, DegradationReport, Event, LossKind, SizeMeasures,
};
use cai_term::{Atom, Conj, Term, Var, VarSet};
use std::collections::BTreeMap;

/// The verdict for one `assert` statement, in program order.
#[derive(Clone, Debug)]
pub struct AssertionOutcome {
    /// The asserted atomic fact.
    pub atom: Atom,
    /// Whether the inferred invariant implies it.
    pub verified: bool,
}

/// Aggregate operation counters (used by the complexity experiments).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpStats {
    /// Join operations performed.
    pub joins: usize,
    /// Widening operations performed.
    pub widens: usize,
    /// Existential quantifications performed.
    pub exists: usize,
    /// Atom meets performed.
    pub meets: usize,
    /// Narrowing (descending) rounds run after widened loop fixpoints.
    pub narrow_rounds: usize,
    /// Loops whose widened invariant the narrowing pass strictly
    /// tightened (the adopted candidate passed the inductiveness
    /// re-check).
    pub narrow_recoveries: usize,
}

/// The result of analyzing a program.
#[derive(Clone, Debug)]
pub struct Analysis<E> {
    /// Assertion verdicts, in program order.
    pub assertions: Vec<AssertionOutcome>,
    /// The abstract state at program exit.
    pub exit: E,
    /// Fixpoint iteration counts, one per `while` loop in program order
    /// (the Theorem 6 measurement).
    pub loop_iterations: Vec<usize>,
    /// Whether any loop hit the iteration cap without stabilizing.
    pub diverged: bool,
    /// Operation counters.
    pub stats: OpStats,
    /// What the governing [`Budget`] observed: fuel spent, every
    /// recorded event (widenings, degradations, failed narrowings, …),
    /// and the blame table folded over them.
    pub degradation: DegradationReport,
}

impl<E> Analysis<E> {
    /// The number of verified assertions.
    pub fn verified_count(&self) -> usize {
        self.assertions.iter().filter(|a| a.verified).count()
    }
}

/// A forward abstract interpreter over any [`AbstractDomain`].
///
/// The transfer functions are the paper's:
///
/// - join nodes use `J_L`,
/// - the assignment `x := e` renames `x` to a fresh `x₀`, meets with
///   `x = e[x₀/x]` when the domain's signature understands `e` (otherwise
///   havocs), and existentially quantifies `x₀` with `Q_L`,
/// - conditional nodes meet with the branch atom (or its atomic negation)
///   when expressible, and
/// - loops iterate join to a fixpoint, switching to the widening operator
///   after [`Analyzer::widen_delay`] rounds.
///
/// An optional *expression view* rewrites every program term before it
/// reaches the domain — used to give a standalone UF analysis the
/// Herbrand (all-operators-uninterpreted) view of the program, as in the
/// paper's description of running the component analyses separately.
/// An expression view applied to every term before transfer (e.g. the
/// Herbrand view).
type TermView<'d> = Box<dyn Fn(&Term) -> Term + 'd>;

/// The knobs shared by every fixpoint entry point — the intra-procedure
/// [`Analyzer`] and the interprocedural driver both consume one of
/// these, so the two layers cannot drift apart.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Plain-join rounds before a loop fixpoint switches to widening.
    pub widen_delay: usize,
    /// Hard cap on fixpoint iterations per loop.
    pub max_iterations: usize,
    /// The governing budget: statement transfers tick it, and governed
    /// loops degrade soundly when it is exhausted.
    pub budget: Budget,
    /// How fuel is apportioned and whether widened loop invariants get a
    /// narrowing recovery pass. [`BudgetPolicy::Flat`] (the default)
    /// reproduces the pre-policy engine bit for bit: loops share the
    /// budget directly and no narrowing runs.
    pub policy: BudgetPolicy,
}

impl AnalysisConfig {
    /// The default configuration: widening after 4 rounds, iteration cap
    /// 60, unlimited budget, flat (non-adaptive) policy.
    pub fn new() -> AnalysisConfig {
        AnalysisConfig {
            widen_delay: 4,
            max_iterations: 60,
            budget: Budget::unlimited(),
            policy: BudgetPolicy::Flat,
        }
    }
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig::new()
    }
}

/// One `dst := call name(args)` statement, bundled with the caller's
/// abstract state at the site. Resolvers receive the whole site — not
/// just the callee name and argument terms — so a context-sensitive
/// resolver can project what the caller knows onto the callee's formals
/// and specialize the callee on that entry condition.
pub struct CallSite<'c, D: AbstractDomain> {
    /// The caller's abstract state immediately before the call.
    pub state: D::Elem,
    /// The destination variable (its pre-state value may still be
    /// mentioned by the arguments).
    pub dst: Var,
    /// The callee name.
    pub name: &'c str,
    /// The argument terms, already rewritten by the expression view.
    pub args: &'c [Term],
}

/// Resolves `x := call f(…)` statements for the analyzer.
///
/// The interprocedural driver implements this over its procedure
/// summaries; the base analyzer has no resolver and conservatively
/// havocs the destination (sound for call-by-value calls, whose only
/// effect is on `x`).
pub trait CallResolver<D: AbstractDomain> {
    /// The abstract state after the call described by `site`, or `None`
    /// to fall back to the analyzer's conservative havoc.
    fn resolve_call(&self, domain: &D, site: CallSite<'_, D>) -> Option<D::Elem>;
}

pub struct Analyzer<'d, D: AbstractDomain> {
    domain: &'d D,
    view: Option<TermView<'d>>,
    calls: Option<&'d dyn CallResolver<D>>,
    cfg: AnalysisConfig,
}

impl<'d, D: AbstractDomain> Analyzer<'d, D> {
    /// Creates an analyzer over `domain` with the default
    /// [`AnalysisConfig`] (widening after 4 rounds, iteration cap 60,
    /// unlimited budget).
    pub fn new(domain: &'d D) -> Analyzer<'d, D> {
        Analyzer {
            domain,
            view: None,
            calls: None,
            cfg: AnalysisConfig::new(),
        }
    }

    /// Replaces the whole configuration at once (the driver shares one
    /// [`AnalysisConfig`] across every analyzer it spawns).
    pub fn with_config(mut self, cfg: AnalysisConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Governs the analysis by `budget`: each statement transfer ticks it,
    /// and a loop fixpoint that observes exhaustion stops immediately with
    /// the invariant forced to ⊤ (sound, flagged via
    /// [`Analysis::diverged`] and the degradation report). Clone the same
    /// budget into the domain (see e.g. `Polyhedra::with_budget`) to bound
    /// the *whole* analysis with one fuel counter.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// The governing budget.
    pub fn budget(&self) -> &Budget {
        &self.cfg.budget
    }

    /// Sets the budget policy: [`BudgetPolicy::Adaptive`] gives every
    /// loop fixpoint its own size-derived fuel slice and runs a bounded
    /// narrowing recovery pass after widened (especially budget-forced)
    /// invariants; [`BudgetPolicy::Flat`] is the pre-policy behaviour,
    /// bit for bit.
    pub fn with_policy(mut self, policy: BudgetPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Installs an expression view applied to every term before transfer.
    pub fn with_view(mut self, view: impl Fn(&Term) -> Term + 'd) -> Self {
        self.view = Some(Box::new(view));
        self
    }

    /// Installs a [`CallResolver`] consulted for every `call` statement.
    /// Without one (or when it returns `None`), calls havoc their
    /// destination.
    pub fn with_calls(mut self, calls: &'d dyn CallResolver<D>) -> Self {
        self.calls = Some(calls);
        self
    }

    /// Sets the number of plain-join rounds before widening kicks in.
    pub fn widen_delay(mut self, rounds: usize) -> Self {
        self.cfg.widen_delay = rounds;
        self
    }

    /// Sets the hard cap on fixpoint iterations per loop.
    pub fn max_iterations(mut self, cap: usize) -> Self {
        self.cfg.max_iterations = cap;
        self
    }

    /// Analyzes a program starting from `top`.
    pub fn run(&self, program: &Program) -> Analysis<D::Elem> {
        self.run_from(program, self.domain.top())
    }

    /// Analyzes a program starting from a given entry element.
    pub fn run_from(&self, program: &Program, entry: D::Elem) -> Analysis<D::Elem> {
        let mut ctx = Ctx {
            analyzer: self,
            budget: self.cfg.budget.clone(),
            assertions: Vec::new(),
            loop_iterations: Vec::new(),
            next_loop_index: 0,
            diverged: false,
            stats: OpStats::default(),
        };
        let exit = ctx.exec_seq(&program.stmts, entry, true);
        Analysis {
            assertions: ctx.assertions,
            exit,
            loop_iterations: ctx.loop_iterations,
            diverged: ctx.diverged,
            stats: ctx.stats,
            degradation: self.cfg.budget.report(),
        }
    }

    fn apply_view(&self, t: &Term) -> Term {
        match &self.view {
            Some(f) => f(t),
            None => t.clone(),
        }
    }

    fn view_atom(&self, atom: &Atom) -> Atom {
        if self.view.is_none() {
            return atom.clone();
        }
        let args: Vec<Term> = atom
            .args()
            .into_iter()
            .map(|t| self.apply_view(t))
            .collect();
        atom.with_args(args)
    }
}

struct Ctx<'a, 'd, D: AbstractDomain> {
    analyzer: &'a Analyzer<'d, D>,
    /// The budget currently governing statement transfers. Starts as a
    /// clone of the configured budget (same shared counter — the flat
    /// policy is bit-identical to ticking the config budget directly);
    /// the adaptive policy swaps in a per-loop [`Budget::child`] slice
    /// for each fixpoint and a [`Budget::recovery_slice`] for each
    /// narrowing pass, so nested loops nest their slices too.
    budget: Budget,
    assertions: Vec<AssertionOutcome>,
    loop_iterations: Vec<usize>,
    /// Index of the next `while` encountered at the current nesting
    /// level — the `loop#N` label of the blame layer's scope. Reset to 0
    /// for each pass over a loop body, so a syntactic loop keeps one
    /// stable label no matter how many fixpoint rounds re-execute it.
    next_loop_index: usize,
    diverged: bool,
    stats: OpStats,
}

impl<'a, 'd, D: AbstractDomain> Ctx<'a, 'd, D> {
    fn domain(&self) -> &'d D {
        self.analyzer.domain
    }

    /// Renames `x` to `x0` by round-tripping through the conjunction
    /// presentation (exact for logical lattices).
    fn rename(&mut self, e: &D::Elem, x: Var, x0: Var) -> D::Elem {
        let d = self.domain();
        if d.is_bottom(e) {
            return d.bottom();
        }
        let c = d.to_conj(e);
        if !c.vars().contains(&x) {
            return e.clone();
        }
        let mut map = BTreeMap::new();
        map.insert(x, Term::var(x0));
        d.from_conj(&c.subst(&map))
    }

    fn meet_if_owned(&mut self, e: D::Elem, atom: &Atom) -> D::Elem {
        let d = self.domain();
        if d.sig().owns_atom(atom) {
            self.stats.meets += 1;
            d.meet_atom(&e, atom)
        } else {
            e
        }
    }

    fn assume_cond(&mut self, e: D::Elem, cond: &Cond, branch: bool) -> D::Elem {
        match cond {
            Cond::Nondet => e,
            Cond::Atom(a) => {
                let a = self.analyzer.view_atom(a);
                if branch {
                    self.meet_if_owned(e, &a)
                } else {
                    match a.negate() {
                        Some(n) => self.meet_if_owned(e, &n),
                        None => e,
                    }
                }
            }
        }
    }

    fn exec_seq(&mut self, stmts: &[Stmt], mut e: D::Elem, record: bool) -> D::Elem {
        for s in stmts {
            e = self.exec(s, e, record);
        }
        e
    }

    /// The bounded narrowing pass: descending iteration from a widened
    /// loop invariant, recovering precision the widening (especially a
    /// budget-forced ⊤) destroyed. Runs under its own
    /// [`Budget::recovery_slice`] — deliberately independent of the
    /// (possibly dry) loop pool, still bound by the wall-clock deadline.
    ///
    /// Soundness does not rest on the domain: a candidate is adopted only
    /// after (1) the descending step actually descended, (2) the
    /// [`narrow`](AbstractDomain::narrow) result sits inside the
    /// `[iterate, invariant]` bracket, and (3) a full body re-execution
    /// confirms the candidate is inductive (`entry ⊔ F(candidate ∧ c) ⊑
    /// candidate`), i.e. it over-approximates every reachable state of
    /// the loop. A defective narrowing costs recovery, never soundness.
    fn narrow_loop(
        &mut self,
        c: &Cond,
        body: &[Stmt],
        entry: &D::Elem,
        widened: D::Elem,
        body_size: &SizeMeasures,
    ) -> D::Elem {
        let d = self.domain();
        let policy = &self.analyzer.cfg.policy;
        let _span = self.budget.span(|| "interp/narrow-pass");
        let slice = self.budget.recovery_slice(policy.narrow_fuel(body_size));
        let outer_budget = std::mem::replace(&mut self.budget, slice.clone());
        let mut cur = widened;
        let mut adopted = false;
        let narrow_failed = |why: &'static str| {
            slice.record(Event::new(LossKind::NarrowFailed, "analyzer/narrow", why))
        };
        for round in 1..=policy.narrow_rounds() {
            slice.set_round(u64::from(round));
            if !slice.tick(1) {
                narrow_failed("stopped the recovery pass early");
                break;
            }
            self.stats.narrow_rounds += 1;
            // One descending iterate: y = entry ⊔ F(cur ∧ c).
            self.next_loop_index = 0;
            let enter = self.assume_cond(cur.clone(), c, true);
            let after = self.exec_seq(body, enter, false);
            self.stats.joins += 1;
            let y = d.join(entry, &after);
            if !d.le(&y, &cur) {
                // Not a descent (e.g. degraded domain operations under a
                // starved slice): keep what we have.
                narrow_failed("the descending iterate did not descend");
                break;
            }
            let candidate = d.narrow(&cur, &y);
            if !(d.le(&y, &candidate) && d.le(&candidate, &cur)) {
                narrow_failed("rejected an out-of-bracket narrowing");
                break;
            }
            if d.equal_elems(&candidate, &cur) {
                break; // stabilized: further rounds cannot make progress
            }
            // Adopt only verified-inductive candidates.
            self.next_loop_index = 0;
            let enter = self.assume_cond(candidate.clone(), c, true);
            let after = self.exec_seq(body, enter, false);
            self.stats.joins += 1;
            let check = d.join(entry, &after);
            if !d.le(&check, &candidate) {
                narrow_failed("candidate failed the inductiveness re-check");
                break;
            }
            cur = candidate;
            adopted = true;
        }
        self.budget = outer_budget;
        if adopted {
            self.stats.narrow_recoveries += 1;
        }
        cur
    }

    fn exec(&mut self, stmt: &Stmt, e: D::Elem, record: bool) -> D::Elem {
        let d = self.domain();
        // Charge one tick per statement transfer. No bail-out here: a
        // statement sequence is finite, and pressing on keeps the
        // assertion record complete — the governed loops below (and the
        // budgeted domain operations) are where exhaustion cuts work.
        self.budget.tick(1);
        match stmt {
            Stmt::Assign(x, rhs) => {
                let x0 = Var::fresh(&format!("{}0", x.name()));
                let renamed = self.rename(&e, *x, x0);
                let rhs = self.analyzer.apply_view(rhs);
                let mut map = BTreeMap::new();
                map.insert(*x, Term::var(x0));
                let atom = Atom::eq(Term::var(*x), rhs.subst(&map));
                let met = self.meet_if_owned(renamed, &atom);
                self.stats.exists += 1;
                let elim: VarSet = [x0].into_iter().collect();
                d.exists(&met, &elim)
            }
            Stmt::Havoc(x) => {
                self.stats.exists += 1;
                let elim: VarSet = [*x].into_iter().collect();
                d.exists(&e, &elim)
            }
            Stmt::Assume(a) => {
                let a = self.analyzer.view_atom(a);
                self.meet_if_owned(e, &a)
            }
            Stmt::Assert(a) => {
                if record {
                    let viewed = self.analyzer.view_atom(a);
                    let verified = d.sig().owns_atom(&viewed) && d.implies_atom(&e, &viewed);
                    self.assertions.push(AssertionOutcome {
                        atom: a.clone(),
                        verified,
                    });
                }
                e
            }
            Stmt::If(c, then, els) => {
                let et = self.assume_cond(e.clone(), c, true);
                let ef = self.assume_cond(e, c, false);
                let rt = self.exec_seq(then, et, record);
                let rf = self.exec_seq(els, ef, record);
                self.stats.joins += 1;
                d.join(&rt, &rf)
            }
            Stmt::While(c, body) => {
                // Fixpoint iteration (paper §4.3): silent rounds first.
                // Successive rounds (and the recording pass) revisit the
                // same body states, so a domain with a cross-round memo —
                // the logical product's split cache — amortizes its
                // purification/saturation work across the whole fixpoint.
                //
                // Under the adaptive policy the fixpoint runs on its own
                // size-derived fuel slice, so one runaway loop drains its
                // slice (and degrades) without starving every later loop;
                // nested loops slice the enclosing slice in turn. The
                // flat policy keeps the shared pool, bit for bit.
                let body_size = stmt_measures(body);
                let loop_budget = match self.analyzer.cfg.policy.loop_fuel(&body_size) {
                    Some(fuel) => self.budget.child(Some(fuel), None),
                    None => self.budget.clone(),
                };
                let outer_budget = std::mem::replace(&mut self.budget, loop_budget);
                // Blame scope: this syntactic loop's stable label. Inner
                // loops restart their numbering on every body pass, so the
                // label never depends on how many rounds the fixpoint took.
                // The loop, narrowing and enclosing budgets share one label
                // stack, so the scope outlives the budget swaps below.
                let loop_index = self.next_loop_index;
                self.next_loop_index += 1;
                let _blame_scope = self.budget.scope(format!("loop#{loop_index}"));
                let entry = e.clone();
                let mut inv = e;
                let mut iterations = 0usize;
                let mut widened = false;
                let mut forced_top = false;
                let _span = self.budget.span(|| "interp/loop-fixpoint");
                loop {
                    if self.budget.is_exhausted() {
                        // ⊤ is an invariant of any loop, so stopping here
                        // is sound; it is also stable, so the recording
                        // pass below still terminates.
                        self.budget
                            .degrade("analyzer/while", "forced the loop invariant to top");
                        inv = d.top();
                        self.diverged = true;
                        forced_top = true;
                        break;
                    }
                    iterations += 1;
                    self.budget.set_round(iterations as u64);
                    self.next_loop_index = 0;
                    let enter = self.assume_cond(inv.clone(), c, true);
                    let after = self.exec_seq(body, enter, false);
                    let next = if iterations <= self.analyzer.cfg.widen_delay {
                        self.stats.joins += 1;
                        d.join(&inv, &after)
                    } else {
                        self.stats.widens += 1;
                        self.budget.record(Event::new(
                            LossKind::Widen,
                            "analyzer/while",
                            "widened the loop invariant",
                        ));
                        widened = true;
                        d.widen(&inv, &after)
                    };
                    if d.le(&next, &inv) {
                        // A stable invariant — but if the budget ran out
                        // *during* this loop's rounds, the stabilization
                        // may be an artifact of degraded (over-approximate
                        // or forced-to-top) joins/widenings rather than a
                        // genuine fixpoint, so flag it as divergence too
                        // (not only the iteration cap or the entry check).
                        if self.budget.is_exhausted() {
                            self.diverged = true;
                            forced_top = true;
                        }
                        break;
                    }
                    inv = next;
                    if iterations >= self.analyzer.cfg.max_iterations {
                        self.diverged = true;
                        break;
                    }
                }
                drop(_span);
                self.loop_iterations.push(iterations);
                if self.analyzer.cfg.policy.narrow_rounds() > 0 && (widened || forced_top) {
                    inv = self.narrow_loop(c, body, &entry, inv, &body_size);
                }
                self.budget = outer_budget;
                if record {
                    // One recording pass through the body under the stable
                    // invariant.
                    self.next_loop_index = 0;
                    let enter = self.assume_cond(inv.clone(), c, true);
                    let _ = self.exec_seq(body, enter, true);
                }
                // Sibling loops continue the numbering at this level.
                self.next_loop_index = loop_index + 1;
                self.assume_cond(inv, c, false)
            }
            Stmt::Call(x, name, args) => {
                let viewed: Vec<Term> = args.iter().map(|a| self.analyzer.apply_view(a)).collect();
                let resolved = self.analyzer.calls.and_then(|r| {
                    r.resolve_call(
                        d,
                        CallSite {
                            state: e.clone(),
                            dst: *x,
                            name,
                            args: &viewed,
                        },
                    )
                });
                match resolved {
                    Some(out) => out,
                    None => {
                        // No summary available: the call's only effect is
                        // on its destination, so havocing it is sound.
                        self.stats.exists += 1;
                        let elim: VarSet = [*x].into_iter().collect();
                        d.exists(&e, &elim)
                    }
                }
            }
        }
    }
}

/// Checks a conjunction against a domain element (convenience for tests
/// and examples): every atom owned by the signature must be implied.
pub fn implies_all<D: AbstractDomain>(d: &D, e: &D::Elem, c: &Conj) -> bool {
    c.iter()
        .all(|a| d.sig().owns_atom(a) && d.implies_atom(e, a))
}
