//! Procedure summaries: computation, the call transfer that applies them
//! at call sites ([`instantiate_summary`]), and the stable fingerprints
//! keyed by the incremental cache.
//!
//! A summary is the procedure's exit constraint — analyzed from its
//! [`entry`](Summary::entry) condition, the ⊤ entry for the
//! context-insensitive base summary — projected onto its *stable* formals
//! (parameters the body never reassigns, which therefore still denote the
//! entry arguments) and the distinguished [`RETURN_VAR`]. It is stored as
//! a [`Conj`], the domain-independent presentation every
//! [`AbstractDomain`] can round-trip through `from_conj`/`to_conj`, so
//! one summary table serves any domain.

use cai_core::AbstractDomain;
use cai_interp::{Procedure, RETURN_VAR};
use cai_term::{Atom, Conj, Fnv1a, Term, Var, VarSet};
use std::collections::BTreeMap;
use std::hash::Hasher;

/// A procedure summary: the relation between entry arguments and return
/// value, as a conjunction over the stable formals and [`RETURN_VAR`],
/// valid for every call whose arguments satisfy the
/// [`entry`](Summary::entry) condition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Summary {
    /// The full formal parameter list, in declaration order (needed to
    /// bind call arguments positionally).
    pub params: Vec<Var>,
    /// The entry condition over the formals this summary was computed
    /// under: empty (`true`) for the ⊤-entry, context-insensitive base
    /// summary; the caller's projected argument facts for an entry-keyed
    /// specialization (see [`entry_context`]).
    pub entry: Conj,
    /// The exit constraint, or `None` for ⊥ (exit unreachable — the
    /// optimistic starting point of recursive fixpoints).
    pub exit: Option<Conj>,
}

impl Summary {
    /// The ⊥ summary (exit unreachable) for a procedure.
    pub fn bottom(params: Vec<Var>) -> Summary {
        Summary {
            params,
            entry: Conj::new(),
            exit: None,
        }
    }

    /// The ⊤ summary (no information; calls havoc their destination).
    pub fn top(params: Vec<Var>) -> Summary {
        Summary {
            params,
            entry: Conj::new(),
            exit: Some(Conj::new()),
        }
    }

    /// Whether this is the ⊥ summary.
    pub fn is_bottom(&self) -> bool {
        self.exit.is_none()
    }

    /// Records the entry condition this summary was specialized on.
    pub fn with_entry(mut self, entry: Conj) -> Summary {
        self.entry = entry;
        self
    }

    /// The memo key of this summary's entry condition (see [`entry_key`]).
    pub fn entry_key(&self) -> u64 {
        entry_key(&self.entry)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.entry.is_empty() {
            write!(f, "[{}] ", self.entry)?;
        }
        match &self.exit {
            None => f.write_str("false"),
            Some(c) if c.is_empty() => f.write_str("true"),
            Some(c) => write!(f, "{c}"),
        }
    }
}

/// The memo key of an entry condition: the structural fingerprint of its
/// canonical presentation. The ⊤ entry (empty conjunction) gets a fixed
/// key; the context store verifies the stored [`Summary::entry`] against
/// the requested one on every hit, so a fingerprint collision costs a
/// memo reuse (it falls back to the ⊤-entry summary), never soundness.
pub fn entry_key(entry: &Conj) -> u64 {
    entry.fingerprint()
}

/// Projects an analyzed exit element down to a [`Summary`] for `proc`:
/// everything but the stable formals and [`RETURN_VAR`] is existentially
/// quantified away.
pub fn summarize<D: AbstractDomain>(d: &D, exit: &D::Elem, proc: &Procedure) -> Summary {
    let params = proc.params.clone();
    if d.is_bottom(exit) {
        return Summary::bottom(params);
    }
    let assigned = proc.body.assigned_vars();
    let mut keep = VarSet::new();
    for p in &params {
        if !assigned.contains(p) {
            keep.insert(*p);
        }
    }
    keep.insert(Var::named(RETURN_VAR));
    let mentioned = d.to_conj(exit).vars();
    let elim: VarSet = mentioned
        .iter()
        .copied()
        .filter(|v| !keep.contains(v))
        .collect();
    let projected = if elim.is_empty() {
        exit.clone()
    } else {
        d.exists(exit, &elim)
    };
    Summary {
        params,
        entry: Conj::new(),
        exit: Some(d.to_conj(&projected)),
    }
}

/// The entry condition a call site establishes for its callee: the
/// caller's abstract state with each argument bound to its formal's slot,
/// projected via the domain's own `exists` onto the slots alone, renamed
/// to the formals, and renormalized through the domain (`from_conj` then
/// `to_conj`) so syntactically different but domain-equal entries share
/// one presentation — and hence one [`entry_key`] fingerprint.
///
/// Returns `None` when the caller contributes nothing (the ⊤ entry) or
/// the projection degenerates; the caller then uses the ⊤-entry summary.
pub fn entry_context<D: AbstractDomain>(
    d: &D,
    e: &D::Elem,
    params: &[Var],
    args: &[Term],
) -> Option<Conj> {
    if params.is_empty() || d.is_bottom(e) {
        return None;
    }
    let mut cur = e.clone();
    let mut slots = VarSet::new();
    for i in 0..params.len() {
        let slot = param_slot(i);
        slots.insert(slot);
        if let Some(arg) = args.get(i) {
            let bind = Atom::eq(Term::var(slot), arg.clone());
            if d.sig().owns_atom(&bind) {
                cur = d.meet_atom(&cur, &bind);
            }
        }
    }
    let mentioned = d.to_conj(&cur).vars();
    let elim: VarSet = mentioned
        .iter()
        .copied()
        .filter(|v| !slots.contains(v))
        .collect();
    let projected = if elim.is_empty() {
        cur
    } else {
        d.exists(&cur, &elim)
    };
    if d.is_bottom(&projected) {
        return None;
    }
    let mut rename = BTreeMap::new();
    for (i, p) in params.iter().enumerate() {
        rename.insert(param_slot(i), Term::var(*p));
    }
    let entry = d.to_conj(&projected).subst(&rename);
    if entry.is_empty() {
        return None;
    }
    let canon = canonical_conj(&d.to_conj(&d.from_conj(&entry)));
    if canon.is_empty() {
        None
    } else {
        Some(canon)
    }
}

/// A presentation-canonical form of a conjunction: equalities oriented by
/// term order, atoms sorted and deduplicated. Semantically the identity —
/// it only ensures that two domain presentations of the same entry fact
/// (e.g. `a = 1` from the arithmetic component vs `1 = a` from the
/// congruence component) fingerprint identically, so call sites that
/// agree semantically share one memo slot.
fn canonical_conj(c: &Conj) -> Conj {
    let mut atoms: Vec<Atom> = c
        .iter()
        .map(|a| match a {
            Atom::Eq(s, t) if t < s => Atom::eq(t.clone(), s.clone()),
            other => other.clone(),
        })
        .collect();
    atoms.sort();
    atoms.into_iter().collect()
}

/// Driver-internal variable names used while instantiating a summary at a
/// call site. They contain `$`, which the surface syntax cannot produce
/// in an identifier, so they can never collide with program variables;
/// being *fixed* names (rather than gensyms) keeps call resolution
/// deterministic across thread interleavings. All are existentially
/// quantified away before the transfer returns.
fn dst_pre() -> Var {
    Var::named("$dst")
}
fn param_slot(i: usize) -> Var {
    Var::named(&format!("$p{i}"))
}
fn ret_slot() -> Var {
    Var::named("$ret")
}

/// The call transfer: instantiates `sum` for `dst := call f(args)` from
/// state `e`:
///
/// 1. rename `dst` to `$dst` in `e` (the arguments may mention the
///    destination's *pre*-state),
/// 2. meet `$pᵢ = argsᵢ[$dst/dst]` for each argument (binding fresh
///    slots for the formals),
/// 3. meet every atom of the summary with formals renamed to `$pᵢ` and
///    `ret` renamed to `$ret`,
/// 4. meet `dst = $ret`,
/// 5. project out `$dst`, every `$pᵢ`, and `$ret`.
///
/// Atoms outside the domain's signature are skipped (a sound
/// over-approximation, same routing as the analyzer's own transfers). A
/// ⊥ summary yields ⊥ (the call never returns). Every call boundary of
/// the driver — ⊤-entry summaries and entry-keyed specializations alike —
/// goes through this one transfer.
pub fn instantiate_summary<D: AbstractDomain>(
    d: &D,
    e: D::Elem,
    dst: Var,
    args: &[Term],
    sum: &Summary,
) -> D::Elem {
    let Some(exit) = &sum.exit else {
        // The callee's exit is (still) unreachable: so is the
        // post-state of the call.
        return d.bottom();
    };
    if d.is_bottom(&e) {
        return d.bottom();
    }

    // 1. Rename the destination so arguments keep meaning its
    //    pre-state value.
    let mut dst_map = BTreeMap::new();
    dst_map.insert(dst, Term::var(dst_pre()));
    let pre = d.to_conj(&e);
    let mut cur = if pre.vars().contains(&dst) {
        d.from_conj(&pre.subst(&dst_map))
    } else {
        e
    };
    let mut elim: VarSet = [dst_pre()].into_iter().collect();

    // 2. Bind arguments to formal slots.
    let mut freshen = BTreeMap::new();
    for (i, p) in sum.params.iter().enumerate() {
        let slot = param_slot(i);
        freshen.insert(*p, Term::var(slot));
        elim.insert(slot);
        if let Some(arg) = args.get(i) {
            let bind = Atom::eq(Term::var(slot), arg.subst(&dst_map));
            if d.sig().owns_atom(&bind) {
                cur = d.meet_atom(&cur, &bind);
            }
        }
    }

    // 3. Instantiate the summary.
    freshen.insert(Var::named(RETURN_VAR), Term::var(ret_slot()));
    elim.insert(ret_slot());
    for atom in exit.subst(&freshen).iter() {
        if d.sig().owns_atom(atom) {
            cur = d.meet_atom(&cur, atom);
        }
    }

    // 4. The destination takes the return value.
    let take = Atom::eq(Term::var(dst), Term::var(ret_slot()));
    if d.sig().owns_atom(&take) {
        cur = d.meet_atom(&cur, &take);
    }

    // 5. Drop every internal slot.
    d.exists(&cur, &elim)
}

/// Absorbs a string into an FNV-1a stream, length-prefixed so
/// concatenations cannot collide field boundaries. The fingerprints and
/// cache checksums built this way are compared only within one process.
pub(crate) fn write_str(h: &mut Fnv1a, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

/// The fingerprint of one strongly connected component, given the
/// already-computed fingerprints of the procedures it calls *outside*
/// itself: a hash of every member's name, formals, and printed body,
/// plus each external callee's name and fingerprint (callees missing
/// from the table — undefined procedures — hash as a fixed sentinel).
///
/// Because callee fingerprints feed in transitively, a procedure's
/// fingerprint changes exactly when its own text or anything in its
/// callee cone changes — the dirty-cone property the incremental driver
/// relies on. Individual members get distinct fingerprints derived from
/// the component hash and their name (see [`member_fingerprint`]).
pub fn scc_fingerprint(members: &[&Procedure], external_fps: &BTreeMap<String, u64>) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(members.len() as u64);
    for p in members {
        write_str(&mut h, &p.name);
        h.write_u64(p.params.len() as u64);
        for v in &p.params {
            write_str(&mut h, v.name());
        }
        write_str(&mut h, &p.body.to_string());
    }
    let member_names: Vec<&str> = members.iter().map(|p| p.name.as_str()).collect();
    let mut externals: Vec<&String> = Vec::new();
    for p in members {
        for callee in p.callees() {
            if !member_names.contains(&callee.as_str()) {
                if let Some((name, _)) = external_fps.get_key_value(&callee) {
                    if !externals.contains(&name) {
                        externals.push(name);
                    }
                }
            }
        }
    }
    externals.sort_unstable();
    h.write_u64(externals.len() as u64);
    for name in externals {
        write_str(&mut h, name);
        h.write_u64(external_fps.get(name).copied().unwrap_or(0));
    }
    h.finish()
}

/// A member's fingerprint inside its component: the component hash
/// re-keyed by the member's name.
pub fn member_fingerprint(scc_fp: u64, name: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(scc_fp);
    write_str(&mut h, name);
    h.finish()
}

/// Mixes the driver's context-sensitivity configuration into a member
/// fingerprint, so entry-keyed results (the cached report *and* its
/// context specializations) are invalidated when the `context_cap` knob
/// changes — the entry keys join the dirty-cone fingerprint.
pub fn config_fingerprint(member_fp: u64, context_cap: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(member_fp);
    h.write_u64(context_cap as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cai_interp::parse_module;
    use cai_term::parse::Vocab;

    #[test]
    fn fingerprints_are_stable_and_text_sensitive() {
        let vocab = Vocab::standard();
        let m1 = parse_module(&vocab, "proc f(a) { ret := a + 1; }").unwrap();
        let m2 = parse_module(&vocab, "proc f(a) { ret := a + 1; }").unwrap();
        let m3 = parse_module(&vocab, "proc f(a) { ret := a + 2; }").unwrap();
        let ext = BTreeMap::new();
        let fp1 = scc_fingerprint(&[&m1.procs[0]], &ext);
        let fp2 = scc_fingerprint(&[&m2.procs[0]], &ext);
        let fp3 = scc_fingerprint(&[&m3.procs[0]], &ext);
        assert_eq!(fp1, fp2, "identical text, identical fingerprint");
        assert_ne!(fp1, fp3, "different body, different fingerprint");
    }

    #[test]
    fn callee_fingerprint_propagates() {
        let vocab = Vocab::standard();
        let m = parse_module(
            &vocab,
            "proc f(a) { r := call g(a); ret := r; } proc g(a) { ret := a; }",
        )
        .unwrap();
        let f = m.get("f").unwrap();
        let mut ext = BTreeMap::new();
        ext.insert("g".to_string(), 111u64);
        let fp_a = scc_fingerprint(&[f], &ext);
        ext.insert("g".to_string(), 222u64);
        let fp_b = scc_fingerprint(&[f], &ext);
        assert_ne!(fp_a, fp_b, "a changed callee dirties the caller");
    }
}
