//! Observability for the analysis stack.
//!
//! `cai-obs` is the one place wall-clock time and diagnostic output are
//! allowed to live (`ci.sh` greps for strays elsewhere). It is
//! dependency-free and offline-friendly, and it is built around a hard
//! determinism contract:
//!
//! > **Observability never influences analysis results.** Counters and spans
//! > are write-only from the analysis's point of view; timestamps are taken
//! > for export only and are never read back into any decision. Runs with
//! > tracing off, on, or on with a different thread count produce
//! > bit-identical summaries (pinned by `tests/obs.rs` at the workspace root).
//!
//! There is no process-wide or per-thread observation state: every
//! count, event, scope label and span belongs to the run that made it.
//! Fuel, events and spans are on the run's budget
//! (`cai_core::DegradationReport`), and so are the scope labels and
//! logical round stamped onto each event (`cai_core::Budget::scope`,
//! `cai_core::Budget::set_round`); operation counts are plain fields of
//! the run's stats (`JoinStats`, `OpStats`, `CtxStats`, `SupStats`).
//!
//! The pieces:
//!
//! * [`trace`] — the [`Span`] record of one timed phase, the bounded
//!   [`Trace`] a run keeps its spans in, and the trace's Chrome
//!   `trace_event` JSON export for `chrome://tracing` / Perfetto. Spans,
//!   like events, are recorded on the run's budget (`cai_core::Budget::span`),
//!   and only while that budget's tracing switch is on.
//! * [`provenance`] — the [`Event`] record of one precision loss or
//!   absorbed fault (widening, budget degradation, context-cap overflow,
//!   quarantine, skipped cache store, defective Alternate, panic, stall,
//!   cache corruption) under its procedure/loop scope, and the ranked,
//!   deterministic [`BlameTable`] fold over a run's events. The events
//!   themselves are recorded, and stamped with their scope and round, on
//!   the run's budget (`cai_core::Budget`).
//! * [`metrics`] — JSON escaping for the blame and trace exports.
//!
//! [`clock::now`] wraps `Instant::now` so governed components (budget
//! deadlines, the supervisor watchdog, span timings) read the clock
//! through one audited door.

pub mod clock;
pub mod metrics;
pub mod provenance;
pub mod trace;

pub use metrics::escape_metric_name;
pub use provenance::{BlameEntry, BlameTable, Event, LossKind};
pub use trace::{Span, Trace};
