//! The traced run's instrumentation, all of it outside the program: an
//! in-memory span recorder and [`Timed`], a forwarding
//! [`AbstractDomain`] decorator that opens one span per domain call.
//!
//! A span has a name (`layer.op`), start and end, the span that was open
//! on the same thread when it began (its parent), the unit it serves
//! (program, batch or edit step), and the calling thread's allocation
//! counters at both ends. Spans are buffered per thread and handed to a
//! shared list whenever a thread's outermost span closes, so worker
//! threads that exit lose nothing. [`drain`] collects them after a pass;
//! [`aggregate`] turns them into per-name self time and self allocations
//! (a span's own figures minus the part its same-thread children cover).

use crate::alloc;
use cai_core::{AbstractDomain, Partition, TheoryProps};
use cai_term::{Atom, Conj, Sig, Term, Var, VarSet};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A layer of the system, as named in the metrics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Layer {
    Parse,
    Interp,
    Driver,
    Logical,
    Reduced,
    Linarith,
    Uf,
    /// The parity and sign components of Figure 8.
    Numeric,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Parse => "parse",
            Layer::Interp => "interp",
            Layer::Driver => "driver",
            Layer::Logical => "logical",
            Layer::Reduced => "reduced",
            Layer::Linarith => "linarith",
            Layer::Uf => "uf",
            Layer::Numeric => "numeric",
        }
    }

    /// Whether spans of this layer are calls into an abstract domain.
    pub fn is_domain(self) -> bool {
        !matches!(self, Layer::Parse | Layer::Interp | Layer::Driver)
    }
}

/// The operation a span covers. Harness spans around the analyzer,
/// driver and parser entry points use [`Op::Call`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Op {
    Call,
    /// `join`, `widen`, `narrow`.
    Join,
    /// `meet_atom`, `meet_all`, `from_conj`.
    Meet,
    Exists,
    /// `le`, `equal_elems`, `implies_atom`, `is_bottom`.
    Order,
    VarEq,
    /// `alternate`, `alternates`.
    Alternate,
    ToConj,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Call => "call",
            Op::Join => "join",
            Op::Meet => "meet",
            Op::Exists => "exists",
            Op::Order => "order",
            Op::VarEq => "var_eq",
            Op::Alternate => "alternate",
            Op::ToConj => "to_conj",
        }
    }
}

const NO_SPAN: u32 = u32::MAX;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub op: Op,
    /// Sequence number on its thread.
    pub id: u32,
    /// The span open on the same thread when this one began, if any.
    pub parent: Option<u32>,
    pub unit: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    /// Allocations and bytes the thread made while the span was open.
    pub allocs: u64,
    pub bytes: u64,
}

type ThreadLog = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static UNIT: AtomicU32 = AtomicU32::new(0);
static LOGS: Mutex<Vec<ThreadLog>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static OPEN: Cell<u32> = const { Cell::new(NO_SPAN) };
    static NEXT_ID: Cell<u32> = const { Cell::new(0) };
    static BUFFER: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static LOG: ThreadLog = {
        let log = ThreadLog::default();
        LOGS.lock().expect("span list lock poisoned").push(log.clone());
        log
    };
}

/// Turns the harness spans ([`harness_span`]) on or off. [`Timed`]
/// records whenever it is used; only the traced passes build it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Sets the unit that spans opened from now on serve, on every thread.
pub fn set_unit(unit: u32) {
    UNIT.store(unit, Relaxed);
}

/// An open span; it is recorded when dropped.
pub struct SpanGuard {
    layer: Layer,
    op: Op,
    id: u32,
    parent: u32,
    start: u64,
    allocs: u64,
    bytes: u64,
}

/// Opens a span on the calling thread.
pub fn enter(layer: Layer, op: Op) -> SpanGuard {
    let id = NEXT_ID.with(|n| n.replace(n.get() + 1));
    let parent = OPEN.with(|o| o.replace(id));
    let (allocs, bytes) = alloc::thread_counts();
    SpanGuard {
        layer,
        op,
        id,
        parent,
        start: now_ns(),
        allocs,
        bytes,
    }
}

/// A span around an entry point the harness calls (analyzer, driver,
/// parser), recorded only while tracing is enabled.
pub fn harness_span(layer: Layer) -> Option<SpanGuard> {
    ENABLED.load(Relaxed).then(|| enter(layer, Op::Call))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = now_ns();
        let (allocs, bytes) = alloc::thread_counts();
        OPEN.with(|o| o.set(self.parent));
        let span = Span {
            layer: self.layer,
            op: self.op,
            id: self.id,
            parent: (self.parent != NO_SPAN).then_some(self.parent),
            unit: UNIT.load(Relaxed),
            start: self.start,
            end,
            allocs: allocs - self.allocs,
            bytes: bytes - self.bytes,
        };
        BUFFER.with(|b| b.borrow_mut().push(span));
        if self.parent == NO_SPAN {
            let spans = BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()));
            LOG.with(|log| {
                log.lock()
                    .expect("span log lock poisoned")
                    .extend_from_slice(&spans)
            });
        }
    }
}

/// Takes every finished span, grouped by the thread that recorded it.
/// Call it between passes, when no span is open.
pub fn drain() -> Vec<Vec<Span>> {
    let mut logs = LOGS.lock().expect("span list lock poisoned");
    let out = logs
        .iter()
        .map(|log| std::mem::take(&mut *log.lock().expect("span log lock poisoned")))
        .filter(|spans| !spans.is_empty())
        .collect();
    // A log only this list still holds belongs to a thread that exited.
    logs.retain(|log| Arc::strong_count(log) > 1);
    out
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    /// Summed duration, children included.
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    pub self_bytes: u64,
}

/// What a pass's spans add up to.
#[derive(Debug, Default)]
pub struct Aggregate {
    pub by_name: BTreeMap<(Layer, Op), Totals>,
    /// Summed duration of the outermost domain calls: those not nested
    /// in another domain call, on any thread.
    pub outer_domain_ns: u64,
    /// Summed duration of the top-level spans of every thread.
    pub covered_ns: u64,
    /// Summed duration of the top-level harness spans (parser, analyzer
    /// and driver calls, all made from the harness thread).
    pub top_harness_ns: u64,
}

impl Aggregate {
    /// Totals of every op of one layer.
    pub fn layer(&self, layer: Layer) -> Totals {
        let mut t = Totals::default();
        for (_, v) in self.by_name.range((layer, Op::Call)..=(layer, Op::ToConj)) {
            t.calls += v.calls;
            t.total_ns += v.total_ns;
            t.self_ns += v.self_ns;
            t.self_allocs += v.self_allocs;
            t.self_bytes += v.self_bytes;
        }
        t
    }

    pub fn op(&self, layer: Layer, op: Op) -> Totals {
        self.by_name.get(&(layer, op)).copied().unwrap_or_default()
    }

    /// Summed self time of every span.
    pub fn self_ns(&self) -> u64 {
        self.by_name.values().map(|t| t.self_ns).sum()
    }
}

/// Self time and self allocations per span name.
pub fn aggregate(threads: &[Vec<Span>]) -> Aggregate {
    let mut agg = Aggregate::default();
    for spans in threads {
        // Ids on one thread are dense from its first span, so children's
        // totals can be summed into a vector indexed by parent id.
        let base = spans.iter().map(|s| s.id).min().unwrap_or(0);
        let len = spans.iter().map(|s| s.id - base + 1).max().unwrap_or(0) as usize;
        let mut child_ns = vec![0u64; len];
        let mut child_allocs = vec![0u64; len];
        let mut child_bytes = vec![0u64; len];
        let mut layer_of = vec![None; len];
        for s in spans {
            layer_of[(s.id - base) as usize] = Some(s.layer);
            match s.parent {
                Some(p) if p >= base => {
                    let p = (p - base) as usize;
                    child_ns[p] += s.end - s.start;
                    child_allocs[p] += s.allocs;
                    child_bytes[p] += s.bytes;
                }
                _ => {
                    agg.covered_ns += s.end - s.start;
                    if !s.layer.is_domain() {
                        agg.top_harness_ns += s.end - s.start;
                    }
                }
            }
        }
        for s in spans {
            let i = (s.id - base) as usize;
            let t = agg.by_name.entry((s.layer, s.op)).or_default();
            t.calls += 1;
            t.total_ns += s.end - s.start;
            t.self_ns += (s.end - s.start).saturating_sub(child_ns[i]);
            t.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
            t.self_bytes += s.bytes.saturating_sub(child_bytes[i]);
            let parent_is_domain = s
                .parent
                .and_then(|p| p.checked_sub(base))
                .and_then(|p| layer_of.get(p as usize).copied().flatten())
                .is_some_and(Layer::is_domain);
            if s.layer.is_domain() && !parent_is_domain {
                agg.outer_domain_ns += s.end - s.start;
            }
        }
    }
    agg
}

/// The forwarding decorator: every [`AbstractDomain`] method calls the
/// same method of the inner domain, inside a span for the calls that do
/// work. Overriding every method matters: a default method would
/// re-derive the operation from others (`le` from `to_conj` and
/// `implies_atom`, say) and the traced run would measure a different
/// program.
#[derive(Clone, Debug)]
pub struct Timed<D> {
    inner: D,
    layer: Layer,
}

impl<D> Timed<D> {
    pub fn new(inner: D, layer: Layer) -> Timed<D> {
        Timed { inner, layer }
    }

    fn span(&self, op: Op) -> SpanGuard {
        enter(self.layer, op)
    }
}

impl<D: AbstractDomain> AbstractDomain for Timed<D> {
    type Elem = D::Elem;

    fn sig(&self) -> Sig {
        self.inner.sig()
    }

    fn props(&self) -> TheoryProps {
        self.inner.props()
    }

    fn top(&self) -> D::Elem {
        self.inner.top()
    }

    fn bottom(&self) -> D::Elem {
        self.inner.bottom()
    }

    fn is_bottom(&self, e: &D::Elem) -> bool {
        let _s = self.span(Op::Order);
        self.inner.is_bottom(e)
    }

    fn meet_atom(&self, e: &D::Elem, atom: &Atom) -> D::Elem {
        let _s = self.span(Op::Meet);
        self.inner.meet_atom(e, atom)
    }

    fn implies_atom(&self, e: &D::Elem, atom: &Atom) -> bool {
        let _s = self.span(Op::Order);
        self.inner.implies_atom(e, atom)
    }

    fn join(&self, a: &D::Elem, b: &D::Elem) -> D::Elem {
        let _s = self.span(Op::Join);
        self.inner.join(a, b)
    }

    fn exists(&self, e: &D::Elem, vars: &VarSet) -> D::Elem {
        let _s = self.span(Op::Exists);
        self.inner.exists(e, vars)
    }

    fn var_equalities(&self, e: &D::Elem) -> Partition {
        let _s = self.span(Op::VarEq);
        self.inner.var_equalities(e)
    }

    fn alternate(&self, e: &D::Elem, y: Var, avoid: &VarSet) -> Option<Term> {
        let _s = self.span(Op::Alternate);
        self.inner.alternate(e, y, avoid)
    }

    fn alternates(&self, e: &D::Elem, targets: &VarSet, avoid: &VarSet) -> BTreeMap<Var, Term> {
        let _s = self.span(Op::Alternate);
        self.inner.alternates(e, targets, avoid)
    }

    fn widen(&self, a: &D::Elem, b: &D::Elem) -> D::Elem {
        let _s = self.span(Op::Join);
        self.inner.widen(a, b)
    }

    fn narrow(&self, a: &D::Elem, b: &D::Elem) -> D::Elem {
        let _s = self.span(Op::Join);
        self.inner.narrow(a, b)
    }

    fn to_conj(&self, e: &D::Elem) -> Conj {
        let _s = self.span(Op::ToConj);
        self.inner.to_conj(e)
    }

    fn from_conj(&self, c: &Conj) -> D::Elem {
        let _s = self.span(Op::Meet);
        self.inner.from_conj(c)
    }

    fn meet_all(&self, e: &D::Elem, atoms: &[Atom]) -> D::Elem {
        let _s = self.span(Op::Meet);
        self.inner.meet_all(e, atoms)
    }

    fn le(&self, a: &D::Elem, b: &D::Elem) -> bool {
        let _s = self.span(Op::Order);
        self.inner.le(a, b)
    }

    fn equal_elems(&self, a: &D::Elem, b: &D::Elem) -> bool {
        let _s = self.span(Op::Order);
        self.inner.equal_elems(a, b)
    }
}

/// How a pass builds its domains: bare ([`Plain`]) for the untraced
/// passes, each wrapped in [`Timed`] ([`Traced`]) for the traced ones.
pub trait Flavor {
    type W<D: AbstractDomain>: AbstractDomain<Elem = D::Elem>;
    fn wrap<D: AbstractDomain>(d: D, layer: Layer) -> Self::W<D>;
}

pub struct Plain;

impl Flavor for Plain {
    type W<D: AbstractDomain> = D;
    fn wrap<D: AbstractDomain>(d: D, _: Layer) -> D {
        d
    }
}

pub struct Traced;

impl Flavor for Traced {
    type W<D: AbstractDomain> = Timed<D>;
    fn wrap<D: AbstractDomain>(d: D, layer: Layer) -> Timed<D> {
        Timed::new(d, layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt;

    #[derive(Clone, Debug, PartialEq)]
    struct E;

    impl fmt::Display for E {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("e")
        }
    }

    /// A domain that overrides every method and records which ran.
    #[derive(Default)]
    struct Probe {
        calls: RefCell<Vec<&'static str>>,
    }

    impl Probe {
        fn hit(&self, method: &'static str) {
            self.calls.borrow_mut().push(method);
        }
    }

    impl AbstractDomain for Probe {
        type Elem = E;
        fn sig(&self) -> Sig {
            self.hit("sig");
            Sig::empty()
        }
        fn props(&self) -> TheoryProps {
            self.hit("props");
            TheoryProps::nelson_oppen()
        }
        fn top(&self) -> E {
            self.hit("top");
            E
        }
        fn bottom(&self) -> E {
            self.hit("bottom");
            E
        }
        fn is_bottom(&self, _: &E) -> bool {
            self.hit("is_bottom");
            false
        }
        fn meet_atom(&self, _: &E, _: &Atom) -> E {
            self.hit("meet_atom");
            E
        }
        fn implies_atom(&self, _: &E, _: &Atom) -> bool {
            self.hit("implies_atom");
            false
        }
        fn join(&self, _: &E, _: &E) -> E {
            self.hit("join");
            E
        }
        fn exists(&self, _: &E, _: &VarSet) -> E {
            self.hit("exists");
            E
        }
        fn var_equalities(&self, _: &E) -> Partition {
            self.hit("var_equalities");
            Partition::new()
        }
        fn alternate(&self, _: &E, _: Var, _: &VarSet) -> Option<Term> {
            self.hit("alternate");
            None
        }
        fn alternates(&self, _: &E, _: &VarSet, _: &VarSet) -> BTreeMap<Var, Term> {
            self.hit("alternates");
            BTreeMap::new()
        }
        fn widen(&self, _: &E, _: &E) -> E {
            self.hit("widen");
            E
        }
        fn narrow(&self, _: &E, _: &E) -> E {
            self.hit("narrow");
            E
        }
        fn to_conj(&self, _: &E) -> Conj {
            self.hit("to_conj");
            Conj::new()
        }
        fn from_conj(&self, _: &Conj) -> E {
            self.hit("from_conj");
            E
        }
        fn meet_all(&self, _: &E, _: &[Atom]) -> E {
            self.hit("meet_all");
            E
        }
        fn le(&self, _: &E, _: &E) -> bool {
            self.hit("le");
            true
        }
        fn equal_elems(&self, _: &E, _: &E) -> bool {
            self.hit("equal_elems");
            true
        }
    }

    /// Each call on the decorator reaches the same method of the inner
    /// domain, and only that one: a method left to its default would show
    /// up here as the calls the default makes instead.
    #[test]
    fn timed_forwards_every_method() {
        let t = Timed::new(Probe::default(), Layer::Uf);
        let atom = Atom::eq(Term::int(0), Term::int(0));
        let (vars, x, conj) = (VarSet::new(), Var::named("x"), Conj::new());
        let check = |method: &str, call: &dyn Fn()| {
            t.inner.calls.borrow_mut().clear();
            call();
            assert_eq!(*t.inner.calls.borrow(), [method]);
        };
        check("sig", &|| {
            t.sig();
        });
        check("props", &|| {
            t.props();
        });
        check("top", &|| {
            t.top();
        });
        check("bottom", &|| {
            t.bottom();
        });
        check("is_bottom", &|| {
            t.is_bottom(&E);
        });
        check("meet_atom", &|| {
            t.meet_atom(&E, &atom);
        });
        check("implies_atom", &|| {
            t.implies_atom(&E, &atom);
        });
        check("join", &|| {
            t.join(&E, &E);
        });
        check("exists", &|| {
            t.exists(&E, &vars);
        });
        check("var_equalities", &|| {
            t.var_equalities(&E);
        });
        check("alternate", &|| {
            t.alternate(&E, x, &vars);
        });
        check("alternates", &|| {
            t.alternates(&E, &vars, &vars);
        });
        check("widen", &|| {
            t.widen(&E, &E);
        });
        check("narrow", &|| {
            t.narrow(&E, &E);
        });
        check("to_conj", &|| {
            t.to_conj(&E);
        });
        check("from_conj", &|| {
            t.from_conj(&conj);
        });
        check("meet_all", &|| {
            t.meet_all(&E, std::slice::from_ref(&atom));
        });
        check("le", &|| {
            t.le(&E, &E);
        });
        check("equal_elems", &|| {
            t.equal_elems(&E, &E);
        });
    }

    /// Self time is a span's duration minus its same-thread children.
    #[test]
    fn self_time_subtracts_children() {
        let span = |layer, id, parent, start, end| Span {
            layer,
            op: Op::Join,
            id,
            parent,
            unit: 0,
            start,
            end,
            allocs: end - start,
            bytes: 0,
        };
        let spans = vec![
            span(Layer::Linarith, 11, Some(10), 10, 40),
            span(Layer::Uf, 12, Some(10), 50, 60),
            span(Layer::Logical, 10, None, 0, 100),
        ];
        let a = aggregate(&[spans]);
        assert_eq!(a.op(Layer::Logical, Op::Join).self_ns, 60);
        assert_eq!(a.op(Layer::Logical, Op::Join).self_allocs, 60);
        assert_eq!(a.op(Layer::Linarith, Op::Join).self_ns, 30);
        assert_eq!(a.self_ns(), a.covered_ns);
        assert_eq!(a.outer_domain_ns, 100);
    }
}
