//! Span tracing with per-thread ring buffers and Chrome `trace_event` export.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** [`enabled`] is one relaxed atomic load; the
//!    [`span!`](crate::span) macro does not even evaluate its name expression
//!    when the tracer is off.
//! 2. **No global mutex on the hot path.** Each thread owns a ring buffer in
//!    TLS; events are pushed without taking any lock. Rings are flushed into
//!    a global sink when the owner calls [`flush`] or [`drain`], or when the
//!    thread's TLS is destroyed. Bounded capacity drops the *oldest* events,
//!    so a profile always keeps the newest window.
//! 3. **Timestamps stay in the export layer.** Spans capture `Instant`s, but
//!    nothing ever reads them back into analysis decisions; they are turned
//!    into microseconds only when an event is recorded, and surface only in
//!    [`Trace`] exports.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::clock;
use crate::metrics::escape_json;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// Hard bound on buffered events in the global sink.
const MAX_SINK_EVENTS: usize = 1 << 20;

static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Is the tracer on? One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the tracer on or off (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Set the capacity of rings created by threads that have not yet traced.
/// Existing rings keep their capacity.
pub fn set_ring_capacity(cap: usize) {
    RING_CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(clock::now)
}

/// What kind of event a [`TraceEvent`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (`ph: "X"` in Chrome terms).
    Span,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name, e.g. `"join/saturate"`.
    pub name: String,
    /// Stable per-thread id (small integers, assigned in first-trace order).
    pub tid: u64,
    /// Microseconds since the tracer epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Span or instant.
    pub kind: EventKind,
}

struct Ring {
    tid: u64,
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// Flush-on-thread-exit wrapper: the ring's events reach the sink even if the
/// owner never calls [`drain`].
struct LocalRing(Ring);

impl Drop for LocalRing {
    fn drop(&mut self) {
        flush_ring(&mut self.0);
    }
}

thread_local! {
    static RING: RefCell<Option<LocalRing>> = const { RefCell::new(None) };
}

#[derive(Default)]
struct Sink {
    events: Vec<TraceEvent>,
    dropped: u64,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    events: Vec::new(),
    dropped: 0,
});

fn flush_ring(ring: &mut Ring) {
    if ring.buf.is_empty() && ring.dropped == 0 {
        return;
    }
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    sink.dropped += ring.dropped;
    ring.dropped = 0;
    for ev in ring.buf.drain(..) {
        if sink.events.len() >= MAX_SINK_EVENTS {
            sink.dropped += 1;
        } else {
            sink.events.push(ev);
        }
    }
}

fn with_ring(f: impl FnOnce(&mut Ring)) {
    let _ = RING.try_with(|slot| {
        if let Ok(mut slot) = slot.try_borrow_mut() {
            let ring = slot.get_or_insert_with(|| {
                LocalRing(Ring {
                    tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                    cap: RING_CAPACITY.load(Ordering::Relaxed),
                    buf: VecDeque::new(),
                    dropped: 0,
                })
            });
            f(&mut ring.0);
        }
    });
}

/// RAII guard for an open span; records the event when dropped.
///
/// Use the [`span!`](crate::span) / [`spanned!`](crate::spanned) macros
/// rather than constructing this directly — they skip name construction when
/// the tracer is off.
#[derive(Debug)]
pub struct SpanGuard {
    name: String,
    start: Instant,
}

impl SpanGuard {
    /// Open a span now. The caller has already checked [`enabled`].
    #[must_use]
    pub fn enter(name: String) -> SpanGuard {
        // Pin the epoch before the first span starts so ts ≥ 0 always holds.
        let _ = epoch();
        SpanGuard {
            name,
            start: clock::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = clock::now();
        let dur = end.duration_since(self.start);
        let ts_us =
            u64::try_from(self.start.duration_since(epoch()).as_micros()).unwrap_or(u64::MAX);
        let dur_us = u64::try_from(dur.as_micros()).unwrap_or(u64::MAX);
        let name = std::mem::take(&mut self.name);
        with_ring(|ring| {
            let tid = ring.tid;
            ring.push(TraceEvent {
                name,
                tid,
                ts_us,
                dur_us,
                kind: EventKind::Span,
            });
        });
    }
}

/// Record a point-in-time marker. The caller has already checked [`enabled`];
/// prefer the [`instant!`](crate::instant) macro.
pub fn record_instant(name: String) {
    let ts_us = u64::try_from(clock::now().duration_since(epoch()).as_micros()).unwrap_or(u64::MAX);
    with_ring(|ring| {
        let tid = ring.tid;
        ring.push(TraceEvent {
            name,
            tid,
            ts_us,
            dur_us: 0,
            kind: EventKind::Instant,
        });
    });
}

/// Open a span if the tracer is enabled; returns `Option<SpanGuard>`.
///
/// Bind the result (`let _span = span!(...)`) — an unbound guard drops
/// immediately. The name expression is evaluated only when tracing is on, so
/// `span!(format!("analyze/{proc}"))` is free when disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::trace::enabled() {
            Some($crate::trace::SpanGuard::enter(String::from($name)))
        } else {
            None
        }
    };
}

/// Run `$body` inside a span — a drop-in replacement for the old
/// `trace_phase!` macro.
#[macro_export]
macro_rules! spanned {
    ($name:expr, $body:expr) => {{
        let _obs_span = $crate::span!($name);
        $body
    }};
}

/// Record a point-in-time marker with `format!` arguments, only when the
/// tracer is enabled.
#[macro_export]
macro_rules! instant {
    ($($arg:tt)*) => {
        if $crate::trace::enabled() {
            $crate::trace::record_instant(format!($($arg)*));
        }
    };
}

/// Moves the calling thread's buffered events into the global sink, where
/// the next [`drain`] on any thread finds them. A thread that has not
/// traced has no ring, and this creates none.
pub fn flush() {
    let _ = RING.try_with(|slot| {
        if let Some(ring) = slot.borrow_mut().as_mut() {
            flush_ring(&mut ring.0);
        }
    });
}

/// Everything collected so far: the caller's ring plus every ring already
/// in the sink.
///
/// Another thread's ring reaches the sink only when that thread calls
/// [`flush`] or its thread-locals are destroyed. `JoinHandle::join`
/// waits for the latter, but `std::thread::scope` does not, so a scoped
/// thread that traces must [`flush`] before it returns; the driver's
/// workers do.
pub fn drain() -> Trace {
    flush();
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let mut events = std::mem::take(&mut sink.events);
    let dropped = std::mem::replace(&mut sink.dropped, 0);
    drop(sink);
    events.sort_by(|a, b| {
        (a.ts_us, a.tid, a.dur_us, &a.name).cmp(&(b.ts_us, b.tid, b.dur_us, &b.name))
    });
    Trace { events, dropped }
}

/// A drained batch of trace events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events sorted by timestamp (then tid).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound or sink overflow.
    pub dropped: u64,
}

impl Trace {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Render as Chrome `trace_event` JSON (array form), loadable in
    /// `chrome://tracing` or Perfetto.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = escape_json(&ev.name);
            match ev.kind {
                EventKind::Span => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{name}\",\"cat\":\"cai\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                        ev.ts_us, ev.dur_us, ev.tid
                    );
                }
                EventKind::Instant => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{name}\",\"cat\":\"cai\",\"ph\":\"i\",\
                         \"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                        ev.ts_us, ev.tid
                    );
                }
            }
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The tracer state is process-global; serialise tests that toggle it.
    static LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let _ = drain();
        {
            let _span = crate::span!("test/should-not-appear");
        }
        crate::instant!("test/should-not-appear-{}", 1);
        let t = drain();
        assert!(
            !t.events
                .iter()
                .any(|e| e.name.contains("should-not-appear")),
            "disabled tracer must record nothing"
        );
        assert!(crate::span!("off").is_none());
    }

    #[test]
    fn spans_and_instants_are_recorded_and_exported() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let _ = drain();
        {
            let _span = crate::span!(format!("test/span-{}", 7));
            crate::instant!("test/mark");
        }
        set_enabled(false);
        let t = drain();
        let span = t.events.iter().find(|e| e.name == "test/span-7");
        let mark = t.events.iter().find(|e| e.name == "test/mark");
        assert!(span.is_some_and(|e| e.kind == EventKind::Span));
        assert!(mark.is_some_and(|e| e.kind == EventKind::Instant));
        let json = t.to_chrome_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn wraparound_keeps_newest_events() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let _ = drain();
        set_ring_capacity(4);
        let handle = std::thread::spawn(|| {
            for i in 0..20 {
                record_instant(format!("wrap/{i:02}"));
            }
        });
        let _ = handle.join();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        set_enabled(false);
        let t = drain();
        let kept: Vec<&str> = t
            .events
            .iter()
            .filter(|e| e.name.starts_with("wrap/"))
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(kept, vec!["wrap/16", "wrap/17", "wrap/18", "wrap/19"]);
        assert!(
            t.dropped >= 16,
            "dropped={} should count evictions",
            t.dropped
        );
    }

    #[test]
    fn chrome_json_escapes_names() {
        let t = Trace {
            events: vec![TraceEvent {
                name: "weird\"name\\with\nctl".to_string(),
                tid: 1,
                ts_us: 0,
                dur_us: 1,
                kind: EventKind::Span,
            }],
            dropped: 0,
        };
        let json = t.to_chrome_json();
        assert!(json.contains("weird\\\"name\\\\with\\nctl"));
    }
}
