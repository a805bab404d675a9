//! The batch engine: callee-first summary computation over the call
//! graph, a shared-nothing worker pool for independent components, and
//! the fingerprint-keyed incremental cache.

use crate::callgraph::CallGraph;
use crate::context::{ContextResolver, CtxStats};
use crate::summary::{
    config_fingerprint, member_fingerprint, scc_fingerprint, summarize, Fnv64, Summary,
    SummaryResolver,
};
use crate::supervisor::{self, SupStats, Supervised, SupervisorCfg, Watchdog};
use cai_core::{
    AbstractDomain, BlameTable, Budget, BudgetPolicy, CacheConfig, DegradationReport, Event,
    LossKind, SizeMeasures,
};
use cai_interp::{AnalysisConfig, Analyzer, AssertionOutcome, Module, Procedure};
use cai_obs::provenance;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

/// Per-job context specializations, tagged with the component index so
/// the merge is deterministic regardless of completion order.
type JobContexts = Vec<(usize, BTreeMap<String, Vec<Summary>>)>;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

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
    /// [`Fnv64`] digest of every reusable field above, computed when the
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
fn summary_digest(h: &mut Fnv64, s: &Summary) {
    h.write_u64(s.params.len() as u64);
    for v in &s.params {
        h.write_str(v.name());
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
/// could reuse, digested with the same length-prefixed [`Fnv64`] stream
/// the fingerprints use.
fn entry_checksum(fingerprint: u64, report: &ProcReport, contexts: &[Summary]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(fingerprint);
    h.write_str(&report.name);
    summary_digest(&mut h, &report.summary);
    h.write_u64(report.assertions.len() as u64);
    for a in &report.assertions {
        h.write_str(&a.atom.to_string());
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
/// Hits are keyed on the full procedure name and verified against the
/// entry's integrity checksum before any reuse; a quarantined result is
/// never stored; a full table is cleared wholesale; capacity 0 disables
/// persistence. A run's reuse counts are its
/// [`ModuleAnalysis::reused`] and [`ModuleAnalysis::recomputed`].
/// **Clone semantics**: cloning copies the entries (each clone owns its
/// table — the opposite of `SplitCache`, whose clones share).
#[derive(Clone, Debug)]
pub struct SummaryCache {
    entries: BTreeMap<String, CacheEntry>,
    /// Exponentially decayed per-procedure fault counts (panics, stalls,
    /// quarantines, cache corruptions) from recent runs. The
    /// adaptive [`BudgetPolicy`] damps a procedure's scheduling weight by
    /// this, so chronically faulty procedures stop soaking up fuel that
    /// healthy ones could convert into precision.
    incidents: BTreeMap<String, u64>,
    /// Entry capacity ([`CacheConfig::summary_capacity`]); 0 disables
    /// persistence entirely.
    capacity: usize,
}

impl Default for SummaryCache {
    fn default() -> SummaryCache {
        SummaryCache::with_config(&CacheConfig::default())
    }
}

impl SummaryCache {
    /// An empty cache with the default capacity.
    pub fn new() -> SummaryCache {
        SummaryCache::default()
    }

    /// An empty cache sized by [`CacheConfig::summary_capacity`] — the
    /// constructor [`Driver::analyze`] uses, fed from
    /// `AnalysisConfig::cache`.
    pub fn with_config(cfg: &CacheConfig) -> SummaryCache {
        SummaryCache {
            entries: BTreeMap::new(),
            incidents: BTreeMap::new(),
            capacity: cfg.summary_capacity,
        }
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

    /// Stores a finished entry; a full table is cleared wholesale first,
    /// and capacity 0 stores nothing.
    fn store(&mut self, name: String, entry: CacheEntry) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&name) {
            self.entries.clear();
        }
        self.entries.insert(name, entry);
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

#[derive(Clone, Copy)]
struct SolveCfg {
    widen_delay: usize,
    max_iterations: usize,
    cache: CacheConfig,
    summary_widen_delay: usize,
    summary_rounds: usize,
    context_cap: usize,
    policy: BudgetPolicy,
    sup: SupervisorCfg,
}

/// One unit of work for a worker: a strongly connected component plus a
/// snapshot of its external callees' (already final) summaries and the
/// component's own budget slice (slices are per *job*, not per worker,
/// so the fuel a component sees — and therefore every retry and
/// quarantine decision — is independent of which thread runs it).
struct Job {
    scc: usize,
    members: Vec<usize>,
    external: BTreeMap<String, Summary>,
    recursive: bool,
    slice: Budget,
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
    cfg: AnalysisConfig,
    summary_widen_delay: usize,
    summary_rounds: usize,
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
            summary_widen_delay: 2,
            summary_rounds: 30,
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

    /// Replaces the intra-procedure [`AnalysisConfig`] (widening delay,
    /// iteration cap, budget) wholesale — the same struct
    /// `cai_interp::Analyzer` consumes, so the two entry points share
    /// one set of knobs.
    pub fn with_config(mut self, cfg: AnalysisConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The current intra-procedure configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.cfg
    }

    /// Sets the intra-procedure widening delay (see
    /// [`Analyzer::widen_delay`]).
    pub fn widen_delay(mut self, rounds: usize) -> Self {
        self.cfg.widen_delay = rounds;
        self
    }

    /// Sets the intra-procedure loop iteration cap.
    pub fn max_iterations(mut self, cap: usize) -> Self {
        self.cfg.max_iterations = cap;
        self
    }

    /// Sets the cap on summary-fixpoint rounds for a recursive component
    /// before every member summary is forced to ⊤ (sound, reported via
    /// [`ProcReport::diverged`]).
    pub fn summary_rounds(mut self, cap: usize) -> Self {
        self.summary_rounds = cap.max(1);
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
        let mut cache = SummaryCache::with_config(&self.cfg.cache);
        self.analyze_with_cache(module, &mut cache)
    }

    /// Analyzes `module`, reusing `cache` entries whose fingerprints
    /// still match and refreshing the cache with this run's results.
    /// Entries for procedures no longer in the module are pruned.
    pub fn analyze_with_cache(&self, module: &Module, cache: &mut SummaryCache) -> ModuleAnalysis {
        let _span = cai_obs::span!("driver/analyze-module");
        // The driver's own events of this run (rejected cache entries,
        // skipped summary stores) go on a recorder of their own: the
        // driver's budget outlives its runs, and a run reports only what
        // it recorded.
        let run = Budget::unlimited();
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
        let cfg = SolveCfg {
            widen_delay: self.cfg.widen_delay,
            max_iterations: self.cfg.max_iterations,
            cache: self.cfg.cache,
            summary_widen_delay: self.summary_widen_delay,
            summary_rounds: self.summary_rounds,
            context_cap: self.context_cap,
            policy: self.cfg.policy,
            sup: self.supervisor,
        };
        let mut ctx = CtxStats::default();
        let mut supervision = SupStats::default();
        let (mut degradation, job_contexts) = if self.threads <= 1 || todo.len() <= 1 {
            self.run_sequential(
                module,
                &graph,
                &todo,
                &weights,
                cfg,
                &seed,
                &mut ctx,
                &mut supervision,
                &mut summaries,
                &mut reports,
            )
        } else {
            self.run_parallel(
                module,
                &graph,
                &todo,
                &weights,
                cfg,
                &seed,
                &mut ctx,
                &mut supervision,
                &mut summaries,
                &mut reports,
            )
        };

        // Merge context specializations deterministically: the seed
        // first (it was every job's memo base), then each job's store in
        // component order — first writer wins per (proc, entry-key).
        let mut merged_contexts: BTreeMap<String, BTreeMap<u64, Summary>> = BTreeMap::new();
        for (name, sums) in &seed {
            let slot = merged_contexts.entry(name.clone()).or_default();
            for s in sums {
                slot.entry(s.entry_key()).or_insert_with(|| s.clone());
            }
        }
        for (_, contexts) in job_contexts {
            for (name, sums) in contexts {
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
            cache.store(
                p.name.clone(),
                CacheEntry::new(fingerprint, report, contexts),
            );
        }
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

    #[allow(clippy::too_many_arguments)] // internal: mirrors run_parallel
    fn run_sequential(
        &self,
        module: &Module,
        graph: &CallGraph,
        todo: &[usize],
        weights: &[u64],
        cfg: SolveCfg,
        seed: &BTreeMap<String, Vec<Summary>>,
        ctx: &mut CtxStats,
        supervision: &mut SupStats,
        summaries: &mut BTreeMap<String, Summary>,
        reports: &mut BTreeMap<String, ProcReport>,
    ) -> (DegradationReport, JobContexts) {
        // The same per-job slices the parallel scheduler hands out, in
        // the same (component-index) order, so the fuel each component
        // sees — and every supervision decision derived from it — is
        // identical for every thread count.
        let slices = job_slices(&self.cfg.policy, &self.cfg.budget, weights, todo.len());
        let mut job_contexts = Vec::new();
        for (&c, slice) in todo.iter().zip(&slices) {
            let members = &graph.sccs[c];
            let external = external_snapshot(module, members, summaries);
            let job = run_job(
                &self.factory,
                module,
                members,
                &external,
                seed,
                graph.is_recursive(c, module),
                cfg,
                slice,
            );
            *ctx += job.ctx;
            *supervision += job.sup;
            for r in job.reports {
                summaries.insert(r.name.clone(), r.summary.clone());
                reports.insert(r.name.clone(), r);
            }
            job_contexts.push((c, job.contexts));
        }
        let mut degradation = DegradationReport::default();
        for slice in &slices {
            degradation.merge(&slice.report());
        }
        (degradation, job_contexts)
    }

    /// The shared-nothing worklist: the main thread owns the summary
    /// table and the condensation's dependency counts; workers pull jobs
    /// (component + an immutable snapshot of its external callees'
    /// summaries + the component's budget slice) from a mutex-guarded
    /// queue, finished reports flow back over a channel, and completions
    /// unlock dependent components. Budget slices and domain instances
    /// are per *job*, not per worker, so outcomes cannot depend on which
    /// thread ran a component. Context memo seeds are read-only and
    /// shared; each job's computed contexts come back with its results
    /// and are merged in component order, so the merged store is
    /// identical for every thread count.
    #[allow(clippy::too_many_arguments)] // internal: mirrors run_sequential
    fn run_parallel(
        &self,
        module: &Module,
        graph: &CallGraph,
        todo: &[usize],
        weights: &[u64],
        cfg: SolveCfg,
        seed: &BTreeMap<String, Vec<Summary>>,
        ctx: &mut CtxStats,
        supervision: &mut SupStats,
        summaries: &mut BTreeMap<String, Summary>,
        reports: &mut BTreeMap<String, ProcReport>,
    ) -> (DegradationReport, JobContexts) {
        let workers = self.threads.min(todo.len()).max(1);
        let slices = job_slices(&self.cfg.policy, &self.cfg.budget, weights, todo.len());
        let job_slices: BTreeMap<usize, Budget> =
            todo.iter().copied().zip(slices.iter().cloned()).collect();

        // Dependency counts among the to-be-computed components only;
        // reused dependencies are already in the summary table.
        let todo_set: Vec<bool> = {
            let mut v = vec![false; graph.sccs.len()];
            for &c in todo {
                v[c] = true;
            }
            v
        };
        let mut indegree: BTreeMap<usize, usize> = BTreeMap::new();
        let mut dependents: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &c in todo {
            let pending = graph.deps[c].iter().filter(|&&d| todo_set[d]).count();
            indegree.insert(c, pending);
            for &d in &graph.deps[c] {
                if todo_set[d] {
                    dependents.entry(d).or_default().push(c);
                }
            }
        }

        let queue: Mutex<VecDeque<Job>> = Mutex::new(VecDeque::new());
        let ready = Condvar::new();
        let done = AtomicBool::new(false);
        let (result_tx, result_rx) = mpsc::channel::<(usize, JobOutput)>();

        let push_job = |c: usize, summaries: &BTreeMap<String, Summary>| {
            let members = graph.sccs[c].clone();
            let external = external_snapshot(module, &members, summaries);
            let job = Job {
                scc: c,
                members,
                external,
                recursive: graph.is_recursive(c, module),
                slice: job_slices[&c].clone(),
            };
            queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(job);
            ready.notify_one();
        };

        let mut job_contexts = Vec::new();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = result_tx.clone();
                let queue = &queue;
                let ready = &ready;
                let done = &done;
                let factory = &self.factory;
                s.spawn(move || {
                    'work: loop {
                        let job = {
                            let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                            loop {
                                if let Some(job) = q.pop_front() {
                                    break job;
                                }
                                if done.load(Ordering::Acquire) {
                                    break 'work;
                                }
                                q = ready.wait(q).unwrap_or_else(|e| e.into_inner());
                            }
                        };
                        // run_job never unwinds (its crash path quarantines
                        // instead), so the result send below always happens
                        // and the main thread's `remaining` count never
                        // deadlocks on a lost worker.
                        let out = run_job(
                            factory,
                            module,
                            &job.members,
                            &job.external,
                            seed,
                            job.recursive,
                            cfg,
                            &job.slice,
                        );
                        if tx.send((job.scc, out)).is_err() {
                            break;
                        }
                    }
                    // `thread::scope` returns before this thread's
                    // thread-locals are destroyed, so hand the trace ring
                    // to the sink now: a drain right after the analysis
                    // must see every worker's events.
                    cai_obs::trace::flush();
                });
            }
            drop(result_tx);

            for (&c, &pending) in &indegree {
                if pending == 0 {
                    push_job(c, summaries);
                }
            }
            let mut remaining = todo.len();
            while remaining > 0 {
                let Ok((c, job)) = result_rx.recv() else {
                    break; // all workers gone — nothing more will arrive
                };
                remaining -= 1;
                *ctx += job.ctx;
                *supervision += job.sup;
                for r in job.reports {
                    summaries.insert(r.name.clone(), r.summary.clone());
                    reports.insert(r.name.clone(), r);
                }
                job_contexts.push((c, job.contexts));
                if let Some(deps) = dependents.get(&c) {
                    for &dep in deps {
                        if let Some(count) = indegree.get_mut(&dep) {
                            *count -= 1;
                            if *count == 0 {
                                push_job(dep, summaries);
                            }
                        }
                    }
                }
            }
            done.store(true, Ordering::Release);
            ready.notify_all();
        });

        // Completion order is scheduling-dependent; merge order must not
        // be.
        job_contexts.sort_by_key(|(c, _)| *c);

        let mut degradation = DegradationReport::default();
        for slice in &slices {
            degradation.merge(&slice.report());
        }
        (degradation, job_contexts)
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
#[allow(clippy::too_many_arguments)] // internal solver shared by both schedulers
fn run_job<D, F>(
    factory: &F,
    module: &Module,
    members: &[usize],
    external: &BTreeMap<String, Summary>,
    seed: &BTreeMap<String, Vec<Summary>>,
    recursive: bool,
    cfg: SolveCfg,
    slice: &Budget,
) -> JobOutput
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    let _span = cai_obs::span!(format!(
        "driver/solve-scc/{}",
        members
            .first()
            .map_or("<empty>", |&i| module.procs[i].name.as_str())
    ));
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
        let outcome = supervisor::guard(|| {
            solve_scc(
                factory,
                module,
                members,
                external,
                seed,
                recursive,
                cfg,
                slice,
                &ctx,
                &mut dispatch,
            )
        });
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
/// Under a nonzero context cap, calls to *external* (already final)
/// procedures resolve through a [`ContextResolver`] that specializes the
/// callee on the caller's entry condition; calls within the component
/// keep reading the Jacobi iterates context-insensitively. The job's
/// computed specializations are returned for the incremental cache.
#[allow(clippy::too_many_arguments)] // internal solver shared by both schedulers
fn solve_scc<D, F>(
    factory: &F,
    module: &Module,
    members: &[usize],
    external: &BTreeMap<String, Summary>,
    seed: &BTreeMap<String, Vec<Summary>>,
    recursive: bool,
    cfg: SolveCfg,
    budget: &Budget,
    ctx: &Cell<CtxStats>,
    sup: &mut SupStats,
) -> (Vec<ProcReport>, BTreeMap<String, Vec<Summary>>)
where
    D: AbstractDomain,
    F: Fn(&Budget) -> D + Sync,
{
    let domain = factory(budget);
    let d = &domain;
    let watchdog = cfg
        .sup
        .proc_deadline
        .map(|deadline| Watchdog::arm(budget.clone(), deadline));
    let acfg = AnalysisConfig {
        widen_delay: cfg.widen_delay,
        max_iterations: cfg.max_iterations,
        budget: budget.clone(),
        policy: cfg.policy,
        cache: cfg.cache,
    };
    let ctx_resolver = (cfg.context_cap > 0).then(|| {
        ContextResolver::new(
            d,
            module,
            external,
            seed,
            cfg.context_cap,
            acfg.clone(),
            ctx,
        )
    });

    // One *attempt* at one procedure: analyze the body (transfers ticking
    // the attempt's budget restriction) and summarize the exit. `local`
    // holds the component members' summaries only (the Jacobi iterates);
    // external summaries are final and read separately.
    let attempt_pass =
        |proc: &Procedure, local: &BTreeMap<String, Summary>, ab: &Budget| -> ProcPass {
            let attempt_cfg = AnalysisConfig {
                widen_delay: cfg.widen_delay,
                max_iterations: cfg.max_iterations,
                budget: ab.clone(),
                policy: cfg.policy,
                cache: cfg.cache,
            };
            let analysis = match &ctx_resolver {
                Some(resolver) => {
                    resolver.set_local(local.clone());
                    Analyzer::new(d)
                        .with_calls(resolver)
                        .with_config(attempt_cfg)
                        .run(&proc.body)
                }
                None => {
                    let mut table = external.clone();
                    for (k, v) in local.iter() {
                        table.insert(k.clone(), v.clone());
                    }
                    let resolver = SummaryResolver::new(&table);
                    let analysis = Analyzer::new(d)
                        .with_calls(&resolver)
                        .with_config(attempt_cfg)
                        .run(&proc.body);
                    analysis
                }
            };
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
        let _span = cai_obs::span!(format!("analyze/{}", proc.name));
        // Blame scope: every loss the attempt records is attributed to
        // this procedure (loops nest their `loop#N` labels below it).
        let _blame_scope = provenance::scope(proc.name.as_str());
        let outcome =
            supervisor::supervise(&proc.name, &cfg.sup, budget, sup, watchdog.as_ref(), |ab| {
                if let Some(resolver) = &ctx_resolver {
                    resolver.reset_in_flight();
                }
                attempt_pass(proc, local, ab)
            });
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

    if !recursive {
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
        return (out, take_contexts(ctx_resolver));
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
        provenance::set_round(round as u64);
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
        if round >= cfg.summary_rounds {
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
        let widen = round > cfg.summary_widen_delay;
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
    (out, take_contexts(ctx_resolver))
}

fn take_contexts<D: AbstractDomain>(
    resolver: Option<ContextResolver<'_, D>>,
) -> BTreeMap<String, Vec<Summary>> {
    match resolver {
        Some(r) => r.into_contexts(),
        None => BTreeMap::new(),
    }
}
