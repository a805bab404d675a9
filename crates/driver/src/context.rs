//! Context-sensitive procedure summaries: demand-driven specialization
//! of already-final callees on the entry condition each call site
//! establishes, memoized per `(procedure, entry-key)` with a
//! per-procedure context cap.
//!
//! The driver schedules components callee-first, so when a caller is
//! analyzed every external callee's *body* and ⊤-entry summary are
//! final. The [`ContextResolver`] exploits that: at `x := call f(e…)` it
//! projects the caller's abstract state onto `f`'s formals (see
//! [`entry_context`]), and — if the projection says anything — analyzes
//! `f`'s body *from that entry* instead of instantiating the ⊤-entry
//! summary. Specializations are memoized by the entry's fingerprint;
//! beyond [`context cap`](crate::Driver::context_cap) distinct entries
//! per procedure, further entries are widened together into one overflow
//! context so recursion and polymorphic call sites terminate. Every
//! fallback — cap overflow exhausted, budget starved, cyclic demand,
//! fingerprint collision — degrades to the ⊤-entry summary: precision
//! lost, soundness and termination kept.
//!
//! Calls *within* the component currently being solved stay
//! context-insensitive: their summaries are still Jacobi iterates, not
//! final, so specializing on them would entangle the fixpoint.

use crate::summary::{entry_context, entry_key, instantiate_summary, summarize, Summary};
use cai_core::{AbstractDomain, Event, LossKind};
use cai_interp::{AnalysisConfig, Analyzer, CallResolver, CallSite, Module, Procedure};
use cai_term::Conj;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::AddAssign;

/// Hard ceiling on nested demand-specializations, defending against
/// pathological mutual-recursion chains the per-key cycle check and the
/// context cap do not already cut (they do — this is belt-and-braces).
const MAX_SPECIALIZE_DEPTH: usize = 64;

/// How many times one procedure's overflow context may be recomputed as
/// new entries widen into it before it degrades to the ⊤-entry summary.
const OVERFLOW_RECOMPUTE_CAP: usize = 8;

/// Context-sensitivity counters of one run: each component job counts
/// its own, and the engine sums them into `ModuleAnalysis::ctx`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtxStats {
    /// Entry-keyed specializations computed (including overflow
    /// recomputations).
    pub contexts_created: u64,
    /// Call resolutions answered from the `(proc, entry-key)` memo — the
    /// run's own store or the seeded incremental cache.
    pub memo_hits: u64,
    /// Entries that arrived past the context cap and were widened into
    /// the overflow context.
    pub cap_widenings: u64,
    /// Resolutions that degraded to the ⊤-entry summary (budget starved,
    /// cyclic demand, overflow exhausted, or a fingerprint collision).
    pub top_fallbacks: u64,
}

impl AddAssign for CtxStats {
    fn add_assign(&mut self, other: CtxStats) {
        self.contexts_created += other.contexts_created;
        self.memo_hits += other.memo_hits;
        self.cap_widenings += other.cap_widenings;
        self.top_fallbacks += other.top_fallbacks;
    }
}

/// The per-procedure context store of one solve job.
#[derive(Clone, Debug, Default)]
struct ProcContexts {
    /// Distinct entry contexts, keyed by [`entry_key`] of the entry's
    /// canonical presentation.
    entries: BTreeMap<u64, Summary>,
    /// The overflow slot: entries past the cap widen into this one.
    overflow: Option<Summary>,
    overflow_recomputes: usize,
}

/// A context-aware [`CallResolver`]: resolves calls to procedures of the
/// component being solved through their (iterating, ⊤-entry) local
/// summaries, and calls to already-final external procedures through
/// entry-keyed specializations computed on demand (at cap 0, through
/// their ⊤-entry summaries).
///
/// One resolver serves a whole component job, so its memo persists
/// across the Jacobi rounds and the recording pass; it is seeded with
/// fingerprint-valid specializations from the incremental cache and
/// drained back into it afterwards ([`ContextResolver::into_contexts`]).
pub struct ContextResolver<'a, D: AbstractDomain> {
    domain: &'a D,
    module: &'a Module,
    /// Final ⊤-entry summaries of every procedure outside the component,
    /// transitively (specialization re-analyzes callee bodies, whose own
    /// callees' summaries must be on hand).
    external: &'a BTreeMap<String, Summary>,
    /// The component's own summaries — Jacobi iterates, consulted first
    /// and never specialized.
    local: RefCell<BTreeMap<String, Summary>>,
    cap: usize,
    /// Intra-procedure analyzer knobs for specializations; its budget is
    /// this job's slice and governs the whole mechanism.
    cfg: AnalysisConfig,
    /// The job's counters. They live outside the job's crash guard, so a
    /// dispatch that panics still counts what it did.
    stats: &'a Cell<CtxStats>,
    store: RefCell<BTreeMap<String, ProcContexts>>,
    in_progress: RefCell<Vec<(String, u64)>>,
}

impl<'a, D: AbstractDomain> ContextResolver<'a, D> {
    /// Builds a resolver for one component job. `seed` carries
    /// fingerprint-validated specializations from the incremental cache;
    /// entries beyond `cap` per procedure are ignored (the cap may have
    /// shrunk between runs).
    pub fn new(
        domain: &'a D,
        module: &'a Module,
        external: &'a BTreeMap<String, Summary>,
        seed: &BTreeMap<String, Vec<Summary>>,
        cap: usize,
        cfg: AnalysisConfig,
        stats: &'a Cell<CtxStats>,
    ) -> ContextResolver<'a, D> {
        let mut store: BTreeMap<String, ProcContexts> = BTreeMap::new();
        for (name, sums) in seed {
            if !external.contains_key(name) {
                continue;
            }
            let pc = store.entry(name.clone()).or_default();
            for s in sums {
                if pc.entries.len() >= cap {
                    break;
                }
                if !s.entry.is_empty() {
                    pc.entries.insert(s.entry_key(), s.clone());
                }
            }
        }
        ContextResolver {
            domain,
            module,
            external,
            local: RefCell::new(BTreeMap::new()),
            cap,
            cfg,
            stats,
            store: RefCell::new(store),
            in_progress: RefCell::new(Vec::new()),
        }
    }

    fn count(&self, bump: impl FnOnce(&mut CtxStats)) {
        let mut stats = self.stats.get();
        bump(&mut stats);
        self.stats.set(stats);
    }

    /// Replaces the component-local summary table (called by the solver
    /// before every Jacobi round and the recording pass).
    pub fn set_local(&self, table: BTreeMap<String, Summary>) {
        *self.local.borrow_mut() = table;
    }

    /// Clears the in-flight specialization stack. The supervisor calls
    /// this before every attempt: a panic that unwound mid-specialization
    /// leaves stale in-progress markers behind, and those would make
    /// later resolutions treat the same contexts as cyclic demand and
    /// degrade to the ⊤-entry summary — sound, but an avoidable
    /// precision loss for the retry. The memo store needs no such reset:
    /// it only ever holds fully computed specializations.
    pub fn reset_in_flight(&self) {
        self.in_progress.borrow_mut().clear();
    }

    /// Drains the specializations computed (or seeded and reused) by
    /// this job, per procedure in entry-key order, for merging back into
    /// the incremental cache. Overflow contexts are job-local artifacts
    /// and are not persisted.
    pub fn into_contexts(self) -> BTreeMap<String, Vec<Summary>> {
        self.store
            .into_inner()
            .into_iter()
            .filter(|(_, pc)| !pc.entries.is_empty())
            .map(|(name, pc)| (name, pc.entries.into_values().collect()))
            .collect()
    }

    /// The summary to instantiate for a call to final procedure `proc`
    /// from a site that established `entry`: a memoized or freshly
    /// computed specialization, or `None` for the ⊤-entry summary.
    fn summary_for(&self, proc: &Procedure, entry: Conj) -> Option<Summary> {
        let key = entry_key(&entry);
        {
            let store = self.store.borrow();
            if let Some(s) = store.get(&proc.name).and_then(|pc| pc.entries.get(&key)) {
                if s.entry == entry {
                    self.count(|c| c.memo_hits += 1);
                    return Some(s.clone());
                }
                // A fingerprint collision between distinct entries:
                // refuse to reuse, degrade to the ⊤-entry summary.
                self.cfg.budget.degrade(
                    "driver/context",
                    "entry fingerprint collision; using the ⊤-entry summary",
                );
                self.count(|c| c.top_fallbacks += 1);
                return None;
            }
        }
        if self
            .in_progress
            .borrow()
            .iter()
            .any(|(n, k)| *k == key && n == &proc.name)
        {
            // A cyclic demand through this exact context: the final
            // ⊤-entry summary is the sound bottom-out.
            self.count(|c| c.top_fallbacks += 1);
            return None;
        }
        let over_cap = self
            .store
            .borrow()
            .get(&proc.name)
            .is_some_and(|pc| pc.entries.len() >= self.cap);
        if over_cap {
            return self.overflow_summary(proc, entry);
        }
        let sum = self.specialize(proc, &entry, key)?;
        self.store
            .borrow_mut()
            .entry(proc.name.clone())
            .or_default()
            .entries
            .insert(key, sum.clone());
        self.count(|c| c.contexts_created += 1);
        Some(sum)
    }

    /// Entries past the cap widen together into a single overflow
    /// context, so an unbounded stream of distinct entries (descending
    /// recursion, polymorphic call sites) converges: the overflow entry
    /// ascends under the domain's widening and either stabilizes (memo
    /// hit), widens to ⊤ (the ⊤-entry summary is exact), or exhausts its
    /// recompute allowance (degrade to the ⊤-entry summary).
    fn overflow_summary(&self, proc: &Procedure, entry: Conj) -> Option<Summary> {
        let d = self.domain;
        self.count(|c| c.cap_widenings += 1);
        // The cap is where entry distinctions die: every overflow entry
        // is widened into one context (or all the way to the ⊤-entry
        // summary), so blame the loss on the overflowing procedure.
        self.cfg.budget.record(
            Event::new(
                LossKind::CtxCapOverflow,
                "driver/context",
                "entry widened into the overflow context",
            )
            .scoped(&proc.name),
        );
        let (prev, recomputes) = {
            let store = self.store.borrow();
            let pc = store.get(&proc.name)?;
            (
                pc.overflow.as_ref().map(|s| s.entry.clone()),
                pc.overflow_recomputes,
            )
        };
        let merged = match &prev {
            None => entry,
            Some(prev) => d.to_conj(&d.widen(&d.from_conj(prev), &d.from_conj(&entry))),
        };
        if merged.is_empty() {
            // Widened all the way to ⊤: the ⊤-entry summary *is* the
            // overflow context now.
            return None;
        }
        if prev.as_ref() == Some(&merged) {
            if let Some(s) = self
                .store
                .borrow()
                .get(&proc.name)
                .and_then(|pc| pc.overflow.clone())
            {
                self.count(|c| c.memo_hits += 1);
                return Some(s);
            }
        }
        if recomputes >= OVERFLOW_RECOMPUTE_CAP {
            self.cfg.budget.degrade(
                "driver/context",
                "overflow context kept widening; degraded to the ⊤-entry summary",
            );
            self.count(|c| c.top_fallbacks += 1);
            return None;
        }
        if let Some(pc) = self.store.borrow_mut().get_mut(&proc.name) {
            pc.overflow_recomputes += 1;
        }
        let key = entry_key(&merged);
        let sum = self.specialize(proc, &merged, key)?;
        if let Some(pc) = self.store.borrow_mut().get_mut(&proc.name) {
            pc.overflow = Some(sum.clone());
        }
        self.count(|c| c.contexts_created += 1);
        Some(sum)
    }

    /// Analyzes `proc`'s body from `entry` (instead of ⊤), resolving its
    /// calls through this same resolver, and projects the exit onto the
    /// stable formals and `ret`. `None` means the budget starved the
    /// specialization — the caller degrades to the ⊤-entry summary.
    fn specialize(&self, proc: &Procedure, entry: &Conj, key: u64) -> Option<Summary> {
        let d = self.domain;
        if self.cfg.budget.is_exhausted() {
            self.cfg.budget.degrade(
                "driver/context",
                "specialization degraded to the ⊤-entry summary: budget exhausted",
            );
            self.count(|c| c.top_fallbacks += 1);
            return None;
        }
        if self.in_progress.borrow().len() >= MAX_SPECIALIZE_DEPTH {
            self.cfg.budget.degrade(
                "driver/context",
                "specialization depth cap hit; using the ⊤-entry summary",
            );
            self.count(|c| c.top_fallbacks += 1);
            return None;
        }
        self.in_progress.borrow_mut().push((proc.name.clone(), key));
        // Losses inside the specialization belong to the callee, not to
        // whatever caller scope demanded it.
        let blame_scope = self.cfg.budget.scope(format!("{}@ctx", proc.name));
        let analysis = Analyzer::new(d)
            .with_calls(self)
            .with_config(self.cfg.clone())
            .run_from(&proc.body, d.from_conj(entry));
        drop(blame_scope);
        self.in_progress.borrow_mut().pop();
        Some(summarize(d, &analysis.exit, proc).with_entry(entry.clone()))
    }
}

impl<D: AbstractDomain> CallResolver<D> for ContextResolver<'_, D> {
    fn resolve_call(&self, d: &D, site: CallSite<'_, D>) -> Option<D::Elem> {
        // Component-local callees: their summaries are still iterating —
        // instantiate context-insensitively, exactly like the fixpoint
        // expects.
        {
            let local = self.local.borrow();
            if let Some(base) = local.get(site.name) {
                let base = base.clone();
                drop(local);
                return Some(instantiate_summary(
                    d, site.state, site.dst, site.args, &base,
                ));
            }
        }
        let base = self.external.get(site.name)?;
        let chosen = if self.cap == 0 || base.is_bottom() || d.is_bottom(&site.state) {
            None
        } else if self.cfg.budget.is_exhausted() {
            self.cfg.budget.degrade(
                "driver/context",
                "entry-context computation skipped: budget exhausted",
            );
            self.count(|c| c.top_fallbacks += 1);
            None
        } else {
            self.module
                .get(site.name)
                .and_then(|proc| {
                    entry_context(d, &site.state, &base.params, site.args)
                        .map(|entry| (proc, entry))
                })
                .and_then(|(proc, entry)| self.summary_for(proc, entry))
        };
        let Some(spec) = chosen else {
            return Some(instantiate_summary(
                d, site.state, site.dst, site.args, base,
            ));
        };
        // Instantiate the specialization, but never let it come out
        // weaker than the insensitive transfer: widening inside the
        // specialized body can overshoot, and the acceptance bar is
        // "at least as precise". Meeting two sound post-states is sound.
        let strong = instantiate_summary(d, site.state.clone(), site.dst, site.args, &spec);
        let insens = instantiate_summary(d, site.state, site.dst, site.args, base);
        if d.le(&strong, &insens) {
            Some(strong)
        } else {
            Some(d.meet_all(&strong, d.to_conj(&insens).atoms()))
        }
    }
}
