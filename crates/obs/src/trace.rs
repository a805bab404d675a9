//! Spans and their Chrome `trace_event` export.
//!
//! A [`Span`] is one timed phase of a run: a name (`join/saturate`,
//! `analyze/p3`), the thread that ran it, and its start and duration as
//! read through [`clock::now`](crate::clock::now). Spans are recorded on
//! the run's own budget (`cai_core::Budget::span`), which keeps them in a
//! bounded [`Trace`] beside its event log; the run's report carries that
//! trace, and [`Trace::to_chrome_json`] prints it. Nothing here is
//! process-global, so two runs in one process never mix their spans.
//! Timestamps surface only in the export: no analysis decision reads one.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use crate::metrics::escape_json;

/// The most spans a [`Trace`] keeps; each further span evicts the oldest
/// one and is counted in [`Trace::dropped`].
pub const MAX_SPANS: usize = 1 << 16;

/// One timed phase of a run.
#[derive(Clone, Debug)]
pub struct Span {
    /// The phase, e.g. `"join/saturate"` or `"analyze/p3"`.
    pub name: String,
    /// The thread that ran it.
    pub thread: ThreadId,
    /// When it began.
    pub start: Instant,
    /// How long it took.
    pub dur: Duration,
}

/// A run's spans in the order they closed: the newest [`MAX_SPANS`], and
/// a count of the older ones evicted to make room. Spans close inside
/// out, so the outermost phases — a procedure's `analyze/…` span, the
/// driver's module run — are the last to be evicted.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The kept spans, oldest first.
    pub spans: VecDeque<Span>,
    /// Spans evicted by the cap.
    pub dropped: usize,
}

impl Trace {
    /// Appends `span`, evicting the oldest span when the trace is full.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() >= MAX_SPANS {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }

    /// Appends `other`'s spans under the same cap and adds its drop count
    /// (used when a run's job slices are merged into one report).
    pub fn merge(&mut self, other: &Trace) {
        for span in &other.spans {
            self.push(span.clone());
        }
        self.dropped += other.dropped;
    }

    /// Renders the spans as Chrome `trace_event` JSON (array form, one
    /// `"ph":"X"` record per span), loadable in `chrome://tracing` or
    /// Perfetto. Records are in start order; threads are numbered 1, 2, …
    /// in the order of their first span, and timestamps count
    /// microseconds from the earliest start, so the export describes
    /// this trace alone.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.start);
        let origin = spans.first().map(|s| s.start);
        let mut threads: Vec<ThreadId> = Vec::new();
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            let tid = match threads.iter().position(|&t| t == s.thread) {
                Some(k) => k + 1,
                None => {
                    threads.push(s.thread);
                    threads.len()
                }
            };
            let ts = origin.map_or(0, |o| micros(s.start.duration_since(o)));
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"cai\",\"ph\":\"X\",\
                 \"ts\":{ts},\"dur\":{},\"pid\":1,\"tid\":{tid}}}",
                escape_json(&s.name),
                micros(s.dur)
            );
        }
        out.push(']');
        out
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, thread: ThreadId, start: Instant, dur_us: u64) -> Span {
        Span {
            name: name.to_string(),
            thread,
            start,
            dur: Duration::from_micros(dur_us),
        }
    }

    #[test]
    fn wraparound_keeps_newest_events() {
        let me = std::thread::current().id();
        let t0 = crate::clock::now();
        let mut t = Trace::default();
        for i in 0..MAX_SPANS + 4 {
            t.push(span(&format!("wrap/{i}"), me, t0, 1));
        }
        assert_eq!(t.spans.len(), MAX_SPANS);
        assert_eq!(t.dropped, 4);
        assert_eq!(t.spans.front().map(|s| s.name.as_str()), Some("wrap/4"));
        let newest = format!("wrap/{}", MAX_SPANS + 3);
        assert_eq!(
            t.spans.back().map(|s| s.name.as_str()),
            Some(newest.as_str())
        );
    }

    #[test]
    fn export_numbers_threads_and_times_from_the_first_span() {
        let here = std::thread::current().id();
        let there = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("thread id probe");
        let t0 = crate::clock::now();
        let mut t = Trace::default();
        // Recorded in closing order: inner spans first.
        t.push(span("inner", there, t0 + Duration::from_micros(30), 5));
        t.push(span("outer", here, t0 + Duration::from_micros(10), 50));
        let json = t.to_chrome_json();
        assert_eq!(
            json,
            "[{\"name\":\"outer\",\"cat\":\"cai\",\"ph\":\"X\",\"ts\":0,\"dur\":50,\"pid\":1,\"tid\":1},\
             {\"name\":\"inner\",\"cat\":\"cai\",\"ph\":\"X\",\"ts\":20,\"dur\":5,\"pid\":1,\"tid\":2}]"
        );
        assert_eq!(Trace::default().to_chrome_json(), "[]");
    }

    #[test]
    fn chrome_json_escapes_names() {
        let mut t = Trace::default();
        t.push(span(
            "weird\"name\\with\nctl",
            std::thread::current().id(),
            crate::clock::now(),
            1,
        ));
        let json = t.to_chrome_json();
        assert!(json.contains("weird\\\"name\\\\with\\nctl"));
    }
}
