//! Interprocedural batch analysis for *Combining Abstract Interpreters*.
//!
//! The paper's engine analyzes one procedure at a time. This crate scales
//! it to multi-procedure modules:
//!
//! - [`CallGraph`] condenses a [`Module`](cai_interp::Module)'s call
//!   graph into strongly connected components, scheduled callee-first;
//! - [`Summary`] is an entry-keyed procedure summary — an entry
//!   condition over the formals plus the exit constraint over the stable
//!   formals and `ret`, both stored as domain-independent
//!   [`Conj`](cai_term::Conj)s — applied at call sites by
//!   [`instantiate_summary`]. The empty entry is ⊤, i.e. the classic
//!   context-insensitive summary;
//! - [`ContextResolver`] is every job's
//!   [`CallResolver`](cai_interp::CallResolver) hook. It applies the
//!   component's own summaries as they iterate, and adds context
//!   sensitivity: at each call into an already-final procedure it
//!   projects the caller's abstract state onto the callee's formals
//!   ([`entry_context`]), re-analyzes the callee from that entry, and
//!   memoizes the specialization per `(procedure, entry-key)` — capped
//!   per procedure, with overflow entries widened together so analysis
//!   still terminates. At cap 0 it applies the ⊤-entry summaries only;
//! - [`Driver`] runs the batch off one worklist, which the calling thread
//!   and up to [`threads`](Driver::threads)` - 1` scoped helpers drain,
//!   so independent components run in parallel (every component job owns
//!   its domain instance and [`Budget`](cai_core::Budget) slice; only
//!   immutable summaries cross threads, so results are identical for
//!   every thread count). Each
//!   per-procedure analysis runs *supervised*: panics are caught and
//!   retried with halved fuel ([`Driver::max_retries`]), stragglers are
//!   cancelled by a wall-clock watchdog ([`Driver::proc_deadline`]), and
//!   procedures past their retry allowance are quarantined to the sound
//!   ⊤ summary ([`ProcReport::quarantined`],
//!   [`ModuleAnalysis::supervision`]). Its
//!   [`context_cap`](Driver::context_cap) knob bounds per-procedure
//!   contexts; `context_cap(0)` reproduces the context-insensitive
//!   driver bit-for-bit;
//! - [`SummaryCache`] makes re-analysis incremental: procedures are
//!   fingerprinted over their text, transitive callee cone, and context
//!   configuration; an edit re-analyzes only its dirty cone
//!   ([`ModuleAnalysis::reused`] / [`ModuleAnalysis::recomputed`] count
//!   the split) and fingerprint-valid context specializations are
//!   reused across runs ([`SummaryCache::context_count`]).

mod blame;
mod callgraph;
mod context;
mod engine;
mod summary;
mod supervisor;

pub use blame::{differential, AssertRegression, BlameCause, DifferentialReport};
pub use callgraph::CallGraph;
pub use context::{ContextResolver, CtxStats};
pub use engine::{Driver, ModuleAnalysis, ProcReport, SummaryCache};
pub use summary::{
    config_fingerprint, entry_context, entry_key, instantiate_summary, member_fingerprint,
    scc_fingerprint, summarize, Summary,
};
pub use supervisor::SupStats;
