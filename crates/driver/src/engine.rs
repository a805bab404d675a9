//! The batch engine: callee-first summary computation over the call
//! graph, one shared-nothing worklist for independent components, and
//! the fingerprint-keyed incremental cache.

use crate::callgraph::CallGraph;
use crate::context::{ContextResolver, CtxStats};
use crate::summary::{
    config_fingerprint, member_fingerprint, scc_fingerprint, summarize, write_str, Summary,
};
use crate::supervisor::{self, SupStats, Supervised, SupervisorCfg, Watchdog};
use cai_core::{
    AbstractDomain, BlameTable, Budget, BudgetPolicy, DegradationReport, Event, LossKind,
    SizeMeasures,
};
use cai_interp::{AnalysisConfig, Analyzer, AssertionOutcome, Module, Procedure};
use cai_term::Fnv1a;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;
use std::marker::PhantomData;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Summary-fixpoint rounds of a recursive component before every member
/// summary is forced to ⊤ (sound, reported via [`ProcReport::diverged`]).
const SUMMARY_ROUNDS: usize = 30;

/// Summary-fixpoint rounds that join before the fixpoint widens.
const SUMMARY_WIDEN_DELAY: usize = 2;

/// The per-procedure result of a batch analysis.
#[derive(Clone, Debug)]
pub struct ProcReport {
    /// The procedure name.
    pub name: String,
    /// Its computed (or cache-reused) ⊤-entry summary. Under a nonzero
    /// [`context cap`](Driver::context_cap) the exit constraint is
    /// computed with context-sensitive call resolution inside the body,
    /// so it is at least as strong as the insensitive one.
    pub summary: Summary,
    /// Assertion verdicts inside the body, in program order, checked
    /// under the final summaries of every callee.
    pub assertions: Vec<AssertionOutcome>,
    /// Whether any loop fixpoint inside the body — or the summary
    /// fixpoint of the procedure's recursive component — failed to
    /// stabilize and was forced to a sound over-approximation.
    pub diverged: bool,
    /// Whether the supervisor pinned this procedure to the sound ⊤
    /// summary after its analysis panicked past the retry allowance.
    /// Quarantined reports carry no assertion verdicts and are never
    /// persisted to the [`SummaryCache`].
    pub quarantined: bool,
}

/// The result of analyzing a [`Module`].
#[derive(Clone, Debug)]
pub struct ModuleAnalysis {
    /// One report per procedure, in module declaration order.
    pub reports: Vec<ProcReport>,
    /// Procedures whose cached summary was reused (fingerprint match).
    pub reused: usize,
    /// Procedures (re)analyzed this run.
    pub recomputed: usize,
    /// The merged degradation report of this run: every job slice's
    /// events plus the driver's own (rejected cache entries, skipped
    /// summary stores), and the fuel and flags of the driver's budget.
    pub degradation: DegradationReport,
    /// Context-sensitivity counters for this run (all zero under
    /// [`Driver::context_cap`]`(0)`).
    pub ctx: CtxStats,
    /// Supervision counters for this run: caught panics, retries,
    /// recoveries, watchdog stalls, quarantines. All zero on a
    /// fault-free run.
    pub supervision: SupStats,
}

impl ModuleAnalysis {
    /// The report for a procedure, by name.
    pub fn report(&self, name: &str) -> Option<&ProcReport> {
        self.reports.iter().find(|r| r.name == name)
    }

    /// All reports, in module declaration order. Callers that want every
    /// procedure iterate here instead of probing [`report`] name by
    /// name.
    ///
    /// [`report`]: ModuleAnalysis::report
    pub fn iter(&self) -> std::slice::Iter<'_, ProcReport> {
        self.reports.iter()
    }

    /// Total verified assertions across all procedures.
    pub fn verified_count(&self) -> usize {
        self.reports
            .iter()
            .map(|r| r.assertions.iter().filter(|a| a.verified).count())
            .sum()
    }

    /// Procedures quarantined to the sound ⊤ summary this run.
    pub fn quarantined_count(&self) -> usize {
        self.reports.iter().filter(|r| r.quarantined).count()
    }
}

impl<'a> IntoIterator for &'a ModuleAnalysis {
    type Item = &'a ProcReport;
    type IntoIter = std::slice::Iter<'a, ProcReport>;

    fn into_iter(self) -> Self::IntoIter {
        self.reports.iter()
    }
}

/// One procedure's persisted analysis result in the [`SummaryCache`].
/// [`CacheEntry::new`] computes the integrity checksum at construction,
/// so an entry can only disagree with its checksum through corruption.
#[derive(Clone, Debug)]
struct CacheEntry {
    fingerprint: u64,
    report: ProcReport,
    /// Entry-keyed specializations of this procedure, in entry-key
    /// order, valid exactly as long as `fingerprint` matches.
    contexts: Vec<Summary>,
    /// [`Fnv1a`] digest of every reusable field above, computed when the
    /// entry is stored and verified before any reuse decision. An entry
    /// whose content no longer matches its checksum — bit rot, a bad
    /// deserializer, a scribbling bug — is rejected and recomputed,
    /// never reused.
    checksum: u64,
}

impl CacheEntry {
    /// Seals a new entry, digesting every reusable field into the
    /// integrity checksum that [`SummaryCache::reject_corrupt`] verifies
    /// before any reuse decision.
    fn new(fingerprint: u64, report: ProcReport, contexts: Vec<Summary>) -> CacheEntry {
        let checksum = entry_checksum(fingerprint, &report, &contexts);
        CacheEntry {
            fingerprint,
            report,
            contexts,
            checksum,
        }
    }
}

/// Digests one summary into an entry checksum.
fn summary_digest(h: &mut Fnv1a, s: &Summary) {
    h.write_u64(s.params.len() as u64);
    for v in &s.params {
        write_str(h, v.name());
    }
    h.write_u64(s.entry.fingerprint());
    match &s.exit {
        None => h.write_u64(0),
        Some(c) => {
            h.write_u64(1);
            h.write_u64(c.fingerprint());
        }
    }
}

/// The integrity checksum of a cache entry: every field a later run
/// could reuse, digested with the same length-prefixed [`Fnv1a`] stream
/// the fingerprints use.
fn entry_checksum(fingerprint: u64, report: &ProcReport, contexts: &[Summary]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(fingerprint);
    write_str(&mut h, &report.name);
    summary_digest(&mut h, &report.summary);
    h.write_u64(report.assertions.len() as u64);
    for a in &report.assertions {
        write_str(&mut h, &a.atom.to_string());
        h.write_u64(u64::from(a.verified));
    }
    h.write_u64(u64::from(report.diverged));
    h.write_u64(u64::from(report.quarantined));
    h.write_u64(contexts.len() as u64);
    for c in contexts {
        summary_digest(&mut h, c);
    }
    h.finish()
}

/// The incremental cache: per-procedure summaries keyed by a stable
/// fingerprint of the procedure's text, its transitive callee cone (see
/// [`scc_fingerprint`]), and the driver's context configuration. Feed
/// the same cache back into [`Driver::analyze_with_cache`] after editing
/// a module and only the dirty cone — the edited procedures and
/// everything that transitively calls them — is re-analyzed. Under a
/// nonzero context cap it also memoizes every `(procedure, entry-key)`
/// specialization, so re-analysis of a dirty caller reuses the entry
/// contexts of its unchanged callees.
///
/// The table holds exactly the last run's module: every run refreshes it
/// to that module's procedures, so it needs no capacity. Hits are keyed
/// on the full procedure name and verified against the entry's integrity
/// checksum before any reuse; a quarantined result is never stored. A
/// run's reuse counts are its [`ModuleAnalysis::reused`] and
/// [`ModuleAnalysis::recomputed`].
/// **Clone semantics**: cloning copies the entries (each clone owns its
/// table — the opposite of `SplitCache`, whose clones share).
#[derive(Clone, Debug, Default)]
pub struct SummaryCache {
    entries: BTreeMap<String, CacheEntry>,
    /// Exponentially decayed per-procedure fault counts (panics, stalls,
    /// quarantines, cache corruptions) from recent runs. The
    /// adaptive [`BudgetPolicy`] damps a procedure's scheduling weight by
    /// this, so chronically faulty procedures stop soaking up fuel that
    /// healthy ones could convert into precision.
    incidents: BTreeMap<String, u64>,
}

impl SummaryCache {
    /// An empty cache.
    pub fn new() -> SummaryCache {
        SummaryCache::default()
    }

    /// The number of cached procedures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The number of entry-keyed context specializations stored.
    pub fn context_count(&self) -> u64 {
        self.entries.values().map(|e| e.contexts.len() as u64).sum()
    }

    /// Drops every entry whose content fails its integrity checksum and
    /// records each rejection on `budget` as a
    /// [`LossKind::CacheCorruption`] event against its procedure. Called
    /// by the driver before any reuse decision; corrupted procedures are
    /// simply recomputed.
    fn reject_corrupt(&mut self, budget: &Budget) {
        let corrupt: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| e.checksum != entry_checksum(e.fingerprint, &e.report, &e.contexts))
            .map(|(name, _)| name.clone())
            .collect();
        for name in corrupt {
            self.entries.remove(&name);
            budget.record(
                Event::new(
                    LossKind::CacheCorruption,
                    "driver/summary-cache",
                    "cache entry failed its integrity checksum; rejected and recomputed",
                )
                .scoped(&name),
            );
        }
    }

    /// The decayed fault count remembered for a procedure (0 for a
    /// procedure with no recent faults). Feeds
    /// [`BudgetPolicy::job_weight`] when the driver apportions fuel.
    pub fn incident_count(&self, name: &str) -> u64 {
        self.incidents.get(name).copied().unwrap_or(0)
    }

    /// Folds one run's faults into the history: existing counts are
    /// halved first (so the history is *recent* — a fault from k runs
    /// ago weighs 2⁻ᵏ), then each fault event of the run's blame table
    /// adds one to its procedure. Deterministic, and uncapped: the table
    /// counts every event, stored or not.
    fn absorb_faults(&mut self, blame: &BlameTable) {
        for count in self.incidents.values_mut() {
            *count /= 2;
        }
        self.incidents.retain(|_, count| *count > 0);
        for row in blame.entries().into_iter().filter(|e| e.kind.is_fault()) {
            *self.incidents.entry(row.scope).or_insert(0) += row.count;
        }
    }

    /// Test hook: silently corrupts the stored entry for `name` without
    /// refreshing its checksum, simulating bit rot in a persisted cache.
    /// The corruption chosen is the dangerous kind — the summary's exit
    /// flips to ⊥ ("this call never returns"), which blind reuse would
    /// propagate into dependents as unsound dead-code verdicts. Returns
    /// whether an entry existed.
    #[doc(hidden)]
    pub fn corrupt_entry(&mut self, name: &str) -> bool {
        match self.entries.get_mut(name) {
            Some(e) => {
                e.report.summary.exit = None;
                e.report.diverged = !e.report.diverged;
                true
            }
            None => false,
        }
    }
}

/// One unit of work for a worker: a strongly connected component plus a
/// snapshot of its external callees' (already final) summaries and the
/// component's own budget slice (slices are per *job*, not per worker,
/// so the fuel a component sees — and therefore every retry and
/// quarantine decision — is independent of which thread runs it).
struct Job<'a> {
    members: &'a [usize],
    external: BTreeMap<String, Summary>,
    recursive: bool,
    slice: &'a Budget,
}

/// The batch's scheduling state, shared by every worker under one mutex.
/// Jobs are named by their index in the batch's component-ordered job
/// list.
struct Worklist {
    /// Jobs whose dependencies are all final, not yet taken.
    ready: BTreeSet<usize>,
    /// Each job's count of unfinished dependency jobs.
    pending: Vec<usize>,
    /// Every final summary: the reused ones and each finished job's.
    summaries: BTreeMap<String, Summary>,
    /// Finished jobs' outputs.
    outputs: BTreeMap<usize, JobOutput>,
}

/// The interprocedural batch driver.
///
/// Built around a *domain factory* rather than a domain: every SCC job
/// constructs its own domain instance and receives its own [`Budget`]
/// slice, so no abstract-domain state is ever shared between threads —
/// the only values crossing thread boundaries are immutable [`Summary`]
/// snapshots and finished [`ProcReport`]s — and the fuel (hence every
/// degradation, retry, and quarantine decision) a component sees is the
/// same whether the batch ran on one thread or eight.
///
/// One domain instance serves a whole SCC job, so a domain with a
/// cross-round memo — the logical product's split cache — amortizes its
/// purification/saturation work across that component's Jacobi summary
/// rounds and the recording pass. A factory may also close over a shared
/// `SplitCache` (it is `Sync`) to carry the memo across jobs and worker
/// threads; the cache is semantically invisible, so verdicts stay
/// identical for every thread count.
///
/// Every per-procedure analysis runs *supervised* (see the
/// [`supervisor`](crate::SupStats) layer): a panicking analysis
/// is caught, retried up to [`max_retries`](Driver::max_retries) times
/// with halved fuel, then quarantined to the sound ⊤ summary; an
/// optional [`proc_deadline`](Driver::proc_deadline) watchdog turns
/// hangs into budget exhaustion. A faulty procedure costs precision,
/// never the batch.
///
/// With a nonzero [`context_cap`](Driver::context_cap) (the default),
/// calls into already-final procedures are resolved *context-
/// sensitively*: the caller's abstract state is projected onto the
/// callee's formals and the callee is re-analyzed from that entry (see
/// [`ContextResolver`]), memoized per `(procedure, entry-key)`.
/// `context_cap(0)` reproduces the context-insensitive driver
/// bit-for-bit.
///
/// ```
/// use cai_driver::Driver;
/// use cai_interp::parse_module;
/// use cai_linarith::AffineEq;
/// use cai_term::parse::Vocab;
///
/// let m = parse_module(
///     &Vocab::standard(),
///     "proc inc(a) { ret := a + 1; }
///      proc two(b) { x := call inc(b); y := call inc(x); ret := y; assert(ret = b + 2); }",
/// )?;
/// let analysis = Driver::new(|_| AffineEq::new()).analyze(&m);
/// assert_eq!(analysis.verified_count(), 1);
/// # Ok::<(), cai_interp::ProgramParseError>(())
/// ```
pub struct Driver<D, F>
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    factory: F,
    threads: usize,
    /// The intra-procedure configuration every job's analyzers run
    /// under, each with the job's budget slice in place of the batch
    /// budget held here.
    cfg: AnalysisConfig,
    context_cap: usize,
    supervisor: SupervisorCfg,
    _domain: PhantomData<fn() -> D>,
}

impl<D, F> Driver<D, F>
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    /// Creates a driver from a domain factory. The factory is called once
    /// per component job with that job's budget slice, so budget-aware
    /// domains (e.g. a chaos wrapper) can wire it in; factories for
    /// unbudgeted domains just ignore the argument.
    pub fn new(factory: F) -> Driver<D, F> {
        Driver {
            factory,
            threads: 1,
            cfg: AnalysisConfig::new(),
            context_cap: 8,
            supervisor: SupervisorCfg::default(),
            _domain: PhantomData,
        }
    }

    /// Sets the worker-thread count (minimum 1). Budget slices are per
    /// component job, not per worker, so the analysis result — including
    /// degradation, retry, and quarantine outcomes — is identical for
    /// every thread count (the [`proc_deadline`](Driver::proc_deadline)
    /// watchdog, being wall-clock, is the one exception).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Sets the maximum number of distinct entry contexts memoized per
    /// procedure. Entries beyond the cap are widened together into one
    /// overflow context so polymorphic call sites and descending
    /// recursion still terminate. `0` disables context sensitivity
    /// entirely and reproduces the context-insensitive driver
    /// bit-for-bit.
    pub fn context_cap(mut self, n: usize) -> Self {
        self.context_cap = n;
        self
    }

    /// Sets how many times a panicking procedure analysis is retried
    /// (each retry under a halved fuel allowance) before the supervisor
    /// quarantines it to the sound ⊤ summary. Default 2; `0` quarantines
    /// on the first caught panic.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.supervisor.max_retries = n;
        self
    }

    /// Arms the straggler watchdog with a per-procedure wall-clock
    /// deadline: a procedure analysis overrunning it has its job's
    /// budget slice exhausted, so the hang degrades into the ordinary
    /// budget-exhaustion path instead of stalling the batch. Off by
    /// default (and the only supervision feature that makes outcomes
    /// wall-clock-dependent — leave it off when bit-identical runs
    /// matter more than liveness).
    pub fn proc_deadline(mut self, d: Duration) -> Self {
        self.supervisor.proc_deadline = Some(d);
        self
    }

    /// Governs the whole batch by `budget`: split into per-job slices,
    /// threaded into every analyzer, and handed to the domain factory.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// Sets the [`BudgetPolicy`]. Under [`BudgetPolicy::Adaptive`] the
    /// batch budget is apportioned across component jobs proportionally
    /// to their size ([`Procedure::measures`] summed over members),
    /// damped by each member's recent incident history from the
    /// [`SummaryCache`]; inside each job, loop fixpoints run under
    /// size-derived slices and widened invariants get a bounded
    /// narrowing recovery pass. The default [`BudgetPolicy::Flat`]
    /// reproduces the pre-policy driver bit for bit.
    pub fn budget_policy(mut self, policy: BudgetPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Analyzes every procedure of `module` from scratch.
    pub fn analyze(&self, module: &Module) -> ModuleAnalysis {
        self.analyze_with_cache(module, &mut SummaryCache::new())
    }

    /// Analyzes `module`, reusing `cache` entries whose fingerprints
    /// still match and refreshing the cache with this run's results.
    /// Entries for procedures no longer in the module are pruned.
    pub fn analyze_with_cache(&self, module: &Module, cache: &mut SummaryCache) -> ModuleAnalysis {
        // The driver's own events and spans of this run (rejected cache
        // entries, skipped summary stores, the module span) go on a
        // recorder of their own, traced if the driver's budget is: that
        // budget outlives its runs, and a run reports only what it
        // recorded.
        let run = Budget::unlimited();
        run.set_tracing(self.cfg.budget.tracing());
        let module_span = run.span(|| "driver/analyze-module");
        // Integrity first: a corrupted entry must be rejected before any
        // reuse decision looks at it (recompute, never wrong reuse).
        cache.reject_corrupt(&run);

        let graph = CallGraph::build(module);
        let n_sccs = graph.sccs.len();

        // Fingerprints, callee-first, so every component sees its
        // external callees' fingerprints already computed. The driver's
        // context configuration joins each member fingerprint, so
        // changing `context_cap` invalidates the whole cache.
        let mut proc_fps: BTreeMap<String, u64> = BTreeMap::new();
        for members in &graph.sccs {
            let procs: Vec<&Procedure> = members.iter().map(|&i| &module.procs[i]).collect();
            let fp = scc_fingerprint(&procs, &proc_fps);
            for p in &procs {
                proc_fps.insert(
                    p.name.clone(),
                    config_fingerprint(member_fingerprint(fp, &p.name), self.context_cap),
                );
            }
        }

        // Decide reuse per component: every member must have a cache
        // entry whose fingerprint still matches.
        let mut reuse = vec![false; n_sccs];
        for (c, members) in graph.sccs.iter().enumerate() {
            reuse[c] = members.iter().all(|&i| {
                let p = &module.procs[i];
                cache
                    .entries
                    .get(&p.name)
                    .is_some_and(|e| Some(&e.fingerprint) == proc_fps.get(&p.name))
            });
        }

        // Fingerprint-valid context specializations from the previous
        // run seed every job's memo (read-only, identical for every
        // thread count).
        let seed: BTreeMap<String, Vec<Summary>> = cache
            .entries
            .iter()
            .filter(|(name, e)| {
                !e.contexts.is_empty() && proc_fps.get(*name) == Some(&e.fingerprint)
            })
            .map(|(name, e)| (name.clone(), e.contexts.clone()))
            .collect();

        // Seed the summary table and reports with the reused entries.
        let mut summaries: BTreeMap<String, Summary> = BTreeMap::new();
        let mut reports: BTreeMap<String, ProcReport> = BTreeMap::new();
        let mut reused = 0usize;
        for (c, members) in graph.sccs.iter().enumerate() {
            if !reuse[c] {
                continue;
            }
            for &i in members {
                let name = &module.procs[i].name;
                if let Some(e) = cache.entries.get(name) {
                    summaries.insert(name.clone(), e.report.summary.clone());
                    reports.insert(name.clone(), e.report.clone());
                    reused += 1;
                }
            }
        }

        // Schedule the components that need (re)computation.
        let todo: Vec<usize> = (0..n_sccs).filter(|&c| !reuse[c]).collect();
        let recomputed: usize = todo.iter().map(|&c| graph.sccs[c].len()).sum();
        // Per-job scheduling weights, in component-index order: the
        // component's summed size measures damped by its members' recent
        // incident history. A pure function of the module text and the
        // cache, so the apportionment — hence every degradation decision
        // downstream — is identical for every thread count. The flat
        // policy ignores the values and splits equally.
        let weights: Vec<u64> = todo
            .iter()
            .map(|&c| {
                let size = graph.sccs[c]
                    .iter()
                    .fold(SizeMeasures::default(), |acc, &i| {
                        acc.plus(&module.procs[i].measures())
                    });
                let incidents = graph.sccs[c]
                    .iter()
                    .map(|&i| cache.incident_count(&module.procs[i].name))
                    .sum();
                self.cfg.policy.job_weight(&size, incidents)
            })
            .collect();
        let slices = job_slices(&self.cfg.policy, &self.cfg.budget, &weights, todo.len());
        let outputs = self.schedule(module, &graph, &todo, &slices, &seed, summaries);

        // Merge the jobs in component order, whatever order they
        // finished in. Context specializations: the seed first (it was
        // every job's memo base), then each job's store — first writer
        // wins per (proc, entry-key).
        let mut degradation = DegradationReport::default();
        for slice in &slices {
            degradation.merge(&slice.report());
        }
        let mut ctx = CtxStats::default();
        let mut supervision = SupStats::default();
        let mut merged_contexts: BTreeMap<String, BTreeMap<u64, Summary>> = BTreeMap::new();
        for (name, sums) in &seed {
            let slot = merged_contexts.entry(name.clone()).or_default();
            for s in sums {
                slot.entry(s.entry_key()).or_insert_with(|| s.clone());
            }
        }
        for job in outputs {
            ctx += job.ctx;
            supervision += job.sup;
            for r in job.reports {
                reports.insert(r.name.clone(), r);
            }
            for (name, sums) in job.contexts {
                let slot = merged_contexts.entry(name).or_default();
                for s in sums {
                    slot.entry(s.entry_key()).or_insert(s);
                }
            }
        }

        // Refresh the cache: exactly the current module's procedures.
        cache.entries.clear();
        for p in &module.procs {
            let Some(&fingerprint) = proc_fps.get(&p.name) else {
                continue;
            };
            let Some(report) = reports.get(&p.name).cloned() else {
                continue;
            };
            // A quarantined result is never stored: the ⊤ pin is a
            // this-run survival measure, and the next run should
            // recompute the real summary.
            if report.quarantined {
                run.record(
                    Event::new(
                        LossKind::CacheSkippedDegraded,
                        "driver/summary-cache",
                        "quarantined result not persisted",
                    )
                    .scoped(&p.name),
                );
                continue;
            }
            let contexts: Vec<Summary> = merged_contexts
                .remove(&p.name)
                .map(|m| m.into_values().take(self.context_cap).collect())
                .unwrap_or_default();
            cache.entries.insert(
                p.name.clone(),
                CacheEntry::new(fingerprint, report, contexts),
            );
        }
        drop(module_span);
        degradation.merge(&run.report());
        cache.absorb_faults(&degradation.blame);
        // The driver's budget contributes its fuel and flags, but not its
        // events: those may predate this run.
        let main = self.cfg.budget.report();
        degradation.degraded |= main.degraded;
        degradation.exhausted |= main.exhausted;
        degradation.fuel_spent = degradation.fuel_spent.saturating_add(main.fuel_spent);

        let ordered: Vec<ProcReport> = module
            .procs
            .iter()
            .filter_map(|p| reports.remove(&p.name))
            .collect();
        ModuleAnalysis {
            reports: ordered,
            reused,
            recomputed,
            degradation,
            ctx,
            supervision,
        }
    }

    /// Runs the batch's jobs — `todo` lists their components in index
    /// order, `slices` their budget slices — and returns their outputs in
    /// that order. `summaries` holds the reused summaries.
    ///
    /// One mutex-guarded [`Worklist`] drives every worker. The calling
    /// thread is a worker, joined by `min(threads, jobs) - 1` scoped
    /// helpers; each takes the smallest ready job and snapshots its
    /// external callees' summaries under the lock, runs it outside the
    /// lock, then records its summaries, readies its dependents and wakes
    /// every waiting worker. A worker waits only while another holds a
    /// job, so one worker never waits, and it runs the jobs in component
    /// order. Each job's inputs are final before it is ready, so no
    /// output depends on which thread ran it or when.
    fn schedule(
        &self,
        module: &Module,
        graph: &CallGraph,
        todo: &[usize],
        slices: &[Budget],
        seed: &BTreeMap<String, Vec<Summary>>,
        summaries: BTreeMap<String, Summary>,
    ) -> Vec<JobOutput> {
        let jobs = todo.len();
        // Dependency counts among the batch's jobs only; reused
        // dependencies are already in the summary table.
        let job_of: BTreeMap<usize, usize> =
            todo.iter().enumerate().map(|(j, &c)| (c, j)).collect();
        let mut pending = vec![0; jobs];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); jobs];
        for (j, &c) in todo.iter().enumerate() {
            for dep in graph.deps[c].iter().filter_map(|d| job_of.get(d)) {
                pending[j] += 1;
                dependents[*dep].push(j);
            }
        }
        let worklist = Mutex::new(Worklist {
            ready: (0..jobs).filter(|&j| pending[j] == 0).collect(),
            pending,
            summaries,
            outputs: BTreeMap::new(),
        });
        let finished = Condvar::new();
        let lock = || worklist.lock().unwrap_or_else(PoisonError::into_inner);

        let work = || {
            let mut w = lock();
            while w.outputs.len() < jobs {
                let Some(j) = w.ready.pop_first() else {
                    w = finished.wait(w).unwrap_or_else(PoisonError::into_inner);
                    continue;
                };
                let c = todo[j];
                let job = Job {
                    members: &graph.sccs[c],
                    external: external_snapshot(module, &graph.sccs[c], &w.summaries),
                    recursive: graph.is_recursive(c, module),
                    slice: &slices[j],
                };
                drop(w);
                // run_job never unwinds (its crash path quarantines
                // instead), so every job taken is finished and no worker
                // waits on a lost one.
                let out = run_job(self, module, seed, &job);
                w = lock();
                for r in &out.reports {
                    w.summaries.insert(r.name.clone(), r.summary.clone());
                }
                for &d in &dependents[j] {
                    w.pending[d] -= 1;
                    if w.pending[d] == 0 {
                        w.ready.insert(d);
                    }
                }
                w.outputs.insert(j, out);
                finished.notify_all();
            }
        };
        std::thread::scope(|s| {
            for _ in 1..self.threads.min(jobs) {
                s.spawn(work);
            }
            work();
        });
        let w = worklist
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        w.outputs.into_values().collect()
    }
}

/// The per-job budget slices for one batch, `weights` and the returned
/// vector both in `todo` (component-index) order. Delegates to
/// [`BudgetPolicy::job_slices`]; an empty batch still carves one unused
/// slice, so the parent budget's accounting matches a one-job batch.
fn job_slices(policy: &BudgetPolicy, budget: &Budget, weights: &[u64], jobs: usize) -> Vec<Budget> {
    if jobs == 0 {
        return budget.split_weighted(&[1]);
    }
    policy.job_slices(budget, weights)
}

/// The summaries of every procedure the component calls outside itself —
/// transitively: context-sensitive resolution re-analyzes callee bodies,
/// so the summaries of *their* callees must be on hand too. Only
/// procedures already present in the table (i.e. already final) are
/// included; the SCC condensation guarantees that covers the whole
/// external cone.
fn external_snapshot(
    module: &Module,
    members: &[usize],
    summaries: &BTreeMap<String, Summary>,
) -> BTreeMap<String, Summary> {
    let mut out = BTreeMap::new();
    let mut work: Vec<String> = Vec::new();
    for &i in members {
        for callee in module.procs[i].callees() {
            if members.iter().any(|&j| module.procs[j].name == callee) {
                continue;
            }
            work.push(callee);
        }
    }
    while let Some(name) = work.pop() {
        if out.contains_key(&name) {
            continue;
        }
        let Some(s) = summaries.get(&name) else {
            continue;
        };
        out.insert(name.clone(), s.clone());
        if let Some(p) = module.get(&name) {
            for callee in p.callees() {
                if !out.contains_key(&callee) {
                    work.push(callee);
                }
            }
        }
    }
    out
}

fn summary_le<D: AbstractDomain>(d: &D, a: &Summary, b: &Summary) -> bool {
    match (&a.exit, &b.exit) {
        (None, _) => true,
        (Some(ca), None) => d.is_bottom(&d.from_conj(ca)),
        (Some(ca), Some(cb)) => d.le(&d.from_conj(ca), &d.from_conj(cb)),
    }
}

fn summary_combine<D: AbstractDomain>(d: &D, old: &Summary, new: &Summary, widen: bool) -> Summary {
    let exit = match (&old.exit, &new.exit) {
        (None, e) | (e, None) => e.clone(),
        (Some(ca), Some(cb)) => {
            let (ea, eb) = (d.from_conj(ca), d.from_conj(cb));
            let combined = if widen {
                d.widen(&ea, &eb)
            } else {
                d.join(&ea, &eb)
            };
            Some(d.to_conj(&combined))
        }
    };
    Summary {
        params: new.params.clone(),
        entry: new.entry.clone(),
        exit,
    }
}

/// One supervised per-procedure pass: everything a single analysis
/// attempt of one procedure produces. The summary here is always the
/// freshly summarized exit; the recursive recording pass substitutes the
/// stable fixpoint summary afterwards.
struct ProcPass {
    summary: Summary,
    assertions: Vec<AssertionOutcome>,
    diverged: bool,
}

/// The sound result for a quarantined procedure: the ⊤ summary (callers
/// havoc), no assertion verdicts, divergence flagged.
fn quarantined_pass(proc: &Procedure) -> ProcPass {
    ProcPass {
        summary: Summary::top(proc.params.clone()),
        assertions: Vec::new(),
        diverged: true,
    }
}

/// What one component job hands back to the scheduler: its reports, the
/// context specializations it computed, and its counters.
struct JobOutput {
    reports: Vec<ProcReport>,
    contexts: BTreeMap<String, Vec<Summary>>,
    ctx: CtxStats,
    sup: SupStats,
}

/// Runs one component job under crash supervision. The per-procedure
/// [`supervisor::supervise`] boundary inside [`solve_scc`] absorbs the
/// expected faults; this wrapper is the belt-and-braces layer for a
/// panic in the solver machinery itself: the whole solve gets one fresh
/// re-dispatch, and if that crashes too, every member is quarantined to
/// the sound ⊤ summary so dependents can still be scheduled. Keeping the
/// re-dispatch *inside* the job — rather than replacing worker threads —
/// makes the outcome a pure function of the job's inputs and its budget
/// slice, so it cannot depend on which thread ran the component.
fn run_job<D, F>(
    driver: &Driver<D, F>,
    module: &Module,
    seed: &BTreeMap<String, Vec<Summary>>,
    job: &Job<'_>,
) -> JobOutput
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    let (members, slice) = (job.members, job.slice);
    let _span = slice.span(|| {
        format!(
            "driver/solve-scc/{}",
            members
                .first()
                .map_or("<empty>", |&i| module.procs[i].name.as_str())
        )
    });
    // Context counts survive a crashed dispatch: the resolver counts into
    // this cell, which lives outside the crash guard.
    let ctx = Cell::new(CtxStats::default());
    let mut sup = SupStats::default();
    for attempt in 0..2u32 {
        // Each dispatch counts its supervision on its own, added to the
        // job's only on success: a wholesale crash abandons the
        // dispatch's results, so counting its retries/quarantines would
        // leave the batch stats disagreeing with the final reports.
        let mut dispatch = SupStats::default();
        let outcome =
            supervisor::guard(|| solve_scc(driver, module, seed, job, &ctx, &mut dispatch));
        match outcome {
            Ok((reports, contexts)) => {
                sup += dispatch;
                return JobOutput {
                    reports,
                    contexts,
                    ctx: ctx.get(),
                    sup,
                };
            }
            Err(message) => {
                sup.panics_caught += 1;
                for &i in members {
                    let detail =
                        format!("attempt {attempt}: escaped per-procedure supervision: {message}");
                    slice.record(
                        Event::new(LossKind::Panic, "driver/supervisor", detail)
                            .scoped(&module.procs[i].name),
                    );
                }
                if attempt == 0 {
                    sup.retries += 1;
                }
            }
        }
    }
    sup.quarantined += members.len() as u64;
    let reports = members
        .iter()
        .map(|&i| {
            let proc = &module.procs[i];
            slice.record(
                Event::new(
                    LossKind::Quarantine,
                    "driver/supervisor",
                    "component solve crashed twice; summary pinned to \u{22a4}",
                )
                .scoped(&proc.name),
            );
            let pass = quarantined_pass(proc);
            ProcReport {
                name: proc.name.clone(),
                summary: pass.summary,
                assertions: pass.assertions,
                diverged: pass.diverged,
                quarantined: true,
            }
        })
        .collect();
    JobOutput {
        reports,
        contexts: BTreeMap::new(),
        ctx: ctx.get(),
        sup,
    }
}

/// Solves one strongly connected component: non-recursive components
/// take a single pass; recursive ones iterate a Jacobi-style summary
/// fixpoint from optimistic ⊥ summaries — join for the first rounds,
/// widening after — and force every member to ⊤ (flagging divergence) if
/// the round cap is hit. A final recording pass under the stable
/// summaries collects assertion verdicts.
///
/// Every per-procedure pass runs under [`supervisor::supervise`]: a
/// panicking analysis is caught, retried with halved fuel, and — past
/// the retry allowance — quarantined, after which the member contributes
/// the sound ⊤ summary to every later round and its report. The SCC
/// fixpoint still converges (⊤ is the lattice top: joins and the
/// stability check are unaffected) and the other members' summaries
/// remain sound, just weaker where they call the quarantined one.
///
/// Calls resolve through one [`ContextResolver`]: calls within the
/// component read the Jacobi iterates context-insensitively, and under a
/// nonzero context cap calls to *external* (already final) procedures
/// specialize the callee on the caller's entry condition. The job's
/// computed specializations are returned for the incremental cache.
fn solve_scc<D, F>(
    driver: &Driver<D, F>,
    module: &Module,
    seed: &BTreeMap<String, Vec<Summary>>,
    job: &Job<'_>,
    ctx: &Cell<CtxStats>,
    sup: &mut SupStats,
) -> (Vec<ProcReport>, BTreeMap<String, Vec<Summary>>)
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    let (members, external, budget) = (job.members, &job.external, job.slice);
    let domain = (driver.factory)(budget);
    let d = &domain;
    let watchdog = driver
        .supervisor
        .proc_deadline
        .map(|deadline| Watchdog::arm(budget.clone(), deadline));
    // The driver's configuration, governed by one of the job's budgets.
    let job_cfg = |b: &Budget| AnalysisConfig {
        budget: b.clone(),
        ..driver.cfg.clone()
    };
    let ctx_resolver = ContextResolver::new(
        d,
        module,
        external,
        seed,
        driver.context_cap,
        job_cfg(budget),
        ctx,
    );

    // One *attempt* at one procedure: analyze the body (transfers ticking
    // the attempt's budget restriction) and summarize the exit. `local`
    // holds the component members' summaries only (the Jacobi iterates);
    // external summaries are final and read by the resolver.
    let attempt_pass =
        |proc: &Procedure, local: &BTreeMap<String, Summary>, ab: &Budget| -> ProcPass {
            ctx_resolver.set_local(local.clone());
            let analysis = Analyzer::new(d)
                .with_calls(&ctx_resolver)
                .with_config(job_cfg(ab))
                .run(&proc.body);
            ProcPass {
                summary: summarize(d, &analysis.exit, proc),
                assertions: analysis.assertions,
                diverged: analysis.diverged,
            }
        };

    // One *supervised* pass: catch/retry/quarantine around the attempt.
    // A member already quarantined earlier in this job skips re-analysis
    // and keeps contributing its ⊤ pin.
    let mut supervised_pass = |proc: &Procedure,
                               local: &BTreeMap<String, Summary>,
                               quarantined: &mut BTreeSet<String>|
     -> ProcPass {
        if quarantined.contains(&proc.name) {
            return quarantined_pass(proc);
        }
        let _span = budget.span(|| format!("analyze/{}", proc.name));
        // Blame scope: every loss the attempt records is attributed to
        // this procedure (loops nest their `loop#N` labels below it). The
        // attempt's child budget shares the slice's labels.
        let _blame_scope = budget.scope(proc.name.as_str());
        let outcome = supervisor::supervise(
            &proc.name,
            &driver.supervisor,
            budget,
            sup,
            watchdog.as_ref(),
            |ab| {
                ctx_resolver.reset_in_flight();
                attempt_pass(proc, local, ab)
            },
        );
        match outcome {
            Supervised::Done(pass) => pass,
            Supervised::Quarantined => {
                quarantined.insert(proc.name.clone());
                quarantined_pass(proc)
            }
        }
    };

    let mut quarantined: BTreeSet<String> = BTreeSet::new();
    let mut local: BTreeMap<String, Summary> = BTreeMap::new();
    let mut scc_diverged = false;

    if !job.recursive {
        // Callees are all external and final: one pass suffices.
        let mut out = Vec::with_capacity(members.len());
        for &i in members {
            let proc = &module.procs[i];
            let pass = supervised_pass(proc, &local, &mut quarantined);
            out.push(ProcReport {
                name: proc.name.clone(),
                summary: pass.summary,
                assertions: pass.assertions,
                diverged: pass.diverged,
                quarantined: quarantined.contains(&proc.name),
            });
        }
        sup.stalls += u64::from(watchdog.is_some_and(Watchdog::stop));
        return (out, ctx_resolver.into_contexts());
    }

    for &i in members {
        let proc = &module.procs[i];
        local.insert(proc.name.clone(), Summary::bottom(proc.params.clone()));
    }
    let mut round = 0usize;
    loop {
        round += 1;
        // Losses recorded at this level (e.g. the round-cap degrade
        // below) carry the logical Jacobi round.
        budget.set_round(round as u64);
        // Jacobi iteration: every member reads the previous round's
        // table, so the result is independent of member order.
        let mut next: Vec<(String, Summary)> = Vec::with_capacity(members.len());
        for &i in members {
            let proc = &module.procs[i];
            let pass = supervised_pass(proc, &local, &mut quarantined);
            next.push((proc.name.clone(), pass.summary));
        }
        let stable = next
            .iter()
            .all(|(name, new)| local.get(name).is_some_and(|old| summary_le(d, new, old)));
        if stable {
            break;
        }
        if round >= SUMMARY_ROUNDS {
            budget.degrade(
                "driver/summary-fixpoint",
                "recursive component hit the round cap; summaries forced to top",
            );
            for &i in members {
                let proc = &module.procs[i];
                local.insert(proc.name.clone(), Summary::top(proc.params.clone()));
            }
            scc_diverged = true;
            break;
        }
        let widen = round > SUMMARY_WIDEN_DELAY;
        for (name, new) in next {
            let combined = match local.get(&name) {
                Some(old) => summary_combine(d, old, &new, widen),
                None => new,
            };
            local.insert(name, combined);
        }
        if budget.is_exhausted() {
            // Sound bail-out mirroring the intra-procedure loops.
            for &i in members {
                let proc = &module.procs[i];
                local.insert(proc.name.clone(), Summary::top(proc.params.clone()));
            }
            scc_diverged = true;
            break;
        }
    }

    // Recording pass under the stable summaries.
    let mut out = Vec::with_capacity(members.len());
    for &i in members {
        let proc = &module.procs[i];
        let pass = supervised_pass(proc, &local, &mut quarantined);
        let is_quarantined = quarantined.contains(&proc.name);
        let summary = if is_quarantined {
            // The ⊤ pin wins over any stale Jacobi iterate: a quarantine
            // during the fixpoint leaves ⊤ in `local` anyway, and one in
            // the recording pass must still report ⊤ (it is ⊒ the
            // converged summary, so dependents computed against the
            // iterate stay sound).
            Summary::top(proc.params.clone())
        } else {
            match local.get(&proc.name) {
                Some(s) => s.clone(),
                None => pass.summary,
            }
        };
        out.push(ProcReport {
            name: proc.name.clone(),
            summary,
            assertions: pass.assertions,
            diverged: pass.diverged || scc_diverged,
            quarantined: is_quarantined,
        });
    }
    sup.stalls += u64::from(watchdog.is_some_and(Watchdog::stop));
    (out, ctx_resolver.into_contexts())
}
