//! A congruence-closure e-graph over uninterpreted-function terms.
//!
//! This is the workhorse of the UF domain: deciding implied equalities
//! (`VE_T` and the implication check are congruence closure), extracting
//! `V`-free representatives (for `Q_L` and `Alternate_T`), and providing
//! the per-class term inventory that the product-based join consumes.

use cai_core::Budget;
use cai_term::{FnSym, Term, TermKind, Var};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Index of an e-node.
pub type NodeId = usize;

/// What an e-node is.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum NodeKey {
    /// A variable leaf.
    Var(Var),
    /// An application; children are *original* node ids (canonicalize with
    /// [`EGraph::find`] before comparing).
    App(FnSym, Vec<NodeId>),
    /// An opaque non-UF leaf (e.g. a purified constant that leaked in).
    /// Structurally equal leaves share a node; no axioms apply.
    Leaf(Term),
}

/// The canonical signature used for hash-consing and congruence detection.
type Sig = (FnSym, Vec<NodeId>);

/// A congruence-closure e-graph.
///
/// ```
/// use cai_uf::EGraph;
/// use cai_term::parse::Vocab;
///
/// let vocab = Vocab::standard();
/// let mut g = EGraph::new();
/// let fx = g.add(&vocab.parse_term("F(x)")?);
/// let fy = g.add(&vocab.parse_term("F(y)")?);
/// assert_ne!(g.find(fx), g.find(fy));
/// let (x, y) = (g.add(&vocab.parse_term("x")?), g.add(&vocab.parse_term("y")?));
/// g.merge(x, y);
/// assert_eq!(g.find(fx), g.find(fy)); // congruence
/// # Ok::<(), cai_term::parse::ParseError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct EGraph {
    parent: Vec<NodeId>,
    rank: Vec<u32>,
    keys: Vec<NodeKey>,
    /// For each *root*, the app nodes that use a member of its class as an
    /// argument (moved to the winner on union).
    uses: Vec<Vec<NodeId>>,
    /// Canonical app signature → representative node. Entries go stale
    /// after unions but stale keys (mentioning absorbed roots) can never
    /// collide with a current canonical signature.
    memo: HashMap<Sig, NodeId>,
    var_nodes: HashMap<Var, NodeId>,
    leaf_nodes: HashMap<Term, NodeId>,
}

impl EGraph {
    /// An empty e-graph.
    pub fn new() -> EGraph {
        EGraph::default()
    }

    /// The number of e-nodes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn new_node(&mut self, key: NodeKey) -> NodeId {
        let id = self.keys.len();
        self.keys.push(key);
        self.parent.push(id);
        self.rank.push(0);
        self.uses.push(Vec::new());
        id
    }

    /// The canonical representative of `id`'s class.
    pub fn find(&self, mut id: NodeId) -> NodeId {
        while self.parent[id] != id {
            id = self.parent[id];
        }
        id
    }

    /// Adds a term, returning its node. Purely structural: no merging.
    pub fn add(&mut self, t: &Term) -> NodeId {
        match t.kind() {
            TermKind::Var(v) => {
                if let Some(&id) = self.var_nodes.get(v) {
                    return id;
                }
                let id = self.new_node(NodeKey::Var(*v));
                self.var_nodes.insert(*v, id);
                id
            }
            TermKind::App(f, args) => {
                let ids: Vec<NodeId> = args.iter().map(|a| self.add(a)).collect();
                self.add_app(*f, ids)
            }
            TermKind::Lin(_) => {
                if let Some(&id) = self.leaf_nodes.get(t) {
                    return id;
                }
                let id = self.new_node(NodeKey::Leaf(t.clone()));
                self.leaf_nodes.insert(t.clone(), id);
                id
            }
        }
    }

    /// Adds an application over existing nodes (hash-consed).
    pub fn add_app(&mut self, f: FnSym, args: Vec<NodeId>) -> NodeId {
        let sig: Sig = (f, args.iter().map(|&a| self.find(a)).collect());
        if let Some(&id) = self.memo.get(&sig) {
            return id;
        }
        let id = self.new_node(NodeKey::App(f, args));
        for &a in &sig.1 {
            let root = self.find(a);
            self.uses[root].push(id);
        }
        self.memo.insert(sig, id);
        id
    }

    /// Looks up an application by canonical argument classes *without*
    /// creating it.
    pub fn lookup_app(&self, f: FnSym, canonical_args: &[NodeId]) -> Option<NodeId> {
        self.memo.get(&(f, canonical_args.to_vec())).copied()
    }

    /// The current canonical signature of an app node.
    fn signature(&self, id: NodeId) -> Option<Sig> {
        match &self.keys[id] {
            NodeKey::App(f, args) => Some((*f, args.iter().map(|&a| self.find(a)).collect())),
            _ => None,
        }
    }

    /// Merges the classes of `a` and `b` and restores congruence closure.
    pub fn merge(&mut self, a: NodeId, b: NodeId) {
        let mut work = vec![(a, b)];
        while let Some((a, b)) = work.pop() {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                continue;
            }
            let (winner, loser) = if self.rank[ra] >= self.rank[rb] {
                (ra, rb)
            } else {
                (rb, ra)
            };
            if self.rank[winner] == self.rank[loser] {
                self.rank[winner] += 1;
            }
            self.parent[loser] = winner;
            // Re-canonicalize every user of the absorbed class; congruent
            // pairs feed back into the worklist.
            let moved = std::mem::take(&mut self.uses[loser]);
            for u in &moved {
                // `uses` only ever receives app nodes (see `add_app`), so a
                // non-app entry has no signature and nothing to re-canon.
                let Some(sig) = self.signature(*u) else {
                    continue;
                };
                match self.memo.get(&sig) {
                    Some(&v) => {
                        if self.find(v) != self.find(*u) {
                            work.push((*u, v));
                        }
                    }
                    None => {
                        self.memo.insert(sig, *u);
                    }
                }
            }
            self.uses[winner].extend(moved);
        }
    }

    /// Adds both terms and merges their classes.
    pub fn assert_eq(&mut self, s: &Term, t: &Term) {
        let a = self.add(s);
        let b = self.add(t);
        self.merge(a, b);
    }

    /// Adds both terms and reports whether the closure equates them.
    pub fn proves_eq(&mut self, s: &Term, t: &Term) -> bool {
        let a = self.add(s);
        let b = self.add(t);
        self.find(a) == self.find(b)
    }

    /// The node of a variable, if present.
    pub fn var_node(&self, v: Var) -> Option<NodeId> {
        self.var_nodes.get(&v).copied()
    }

    /// All variables in the graph with their nodes.
    pub fn vars(&self) -> impl Iterator<Item = (Var, NodeId)> + '_ {
        self.var_nodes.iter().map(|(&v, &id)| (v, id))
    }

    /// The key of a node.
    pub fn key(&self, id: NodeId) -> &NodeKey {
        &self.keys[id]
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> std::ops::Range<NodeId> {
        0..self.keys.len()
    }

    /// Groups node ids by class root.
    pub fn classes(&self) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut out: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for id in 0..self.keys.len() {
            out.entry(self.find(id)).or_default().push(id);
        }
        out
    }

    /// Computes, for each class root, a minimal term representative using
    /// only variables accepted by `anchor` (plus opaque leaves). Classes
    /// with no such representative are absent from the result.
    ///
    /// Minimality is by term size, then display string (for determinism).
    /// Representatives larger than `max_size` are discarded, which bounds
    /// the computation on cyclic e-graphs (e.g. `x = F(x)` with `x`
    /// excluded).
    pub fn representatives(
        &self,
        anchor: &dyn Fn(Var) -> bool,
        max_size: usize,
    ) -> BTreeMap<NodeId, Term> {
        self.representatives_budgeted(anchor, max_size, &Budget::unlimited())
    }

    /// [`EGraph::representatives`] governed by a [`Budget`]: each fixpoint
    /// round ticks in proportion to the node count. On exhaustion the map
    /// computed so far is returned — classes still missing a representative
    /// simply stay absent, so callers emit *fewer* equalities (a weaker,
    /// still sound element).
    pub fn representatives_budgeted(
        &self,
        anchor: &dyn Fn(Var) -> bool,
        max_size: usize,
        budget: &Budget,
    ) -> BTreeMap<NodeId, Term> {
        let mut rep: BTreeMap<NodeId, Term> = BTreeMap::new();
        // Seed with anchored variables and leaves.
        for id in 0..self.keys.len() {
            let root = self.find(id);
            let cand = match &self.keys[id] {
                NodeKey::Var(v) if anchor(*v) => Some(Term::var(*v)),
                NodeKey::Leaf(t) => Some(t.clone()),
                _ => None,
            };
            if let Some(t) = cand {
                consider(&mut rep, root, t);
            }
        }
        // Least fixpoint over app nodes.
        loop {
            if !budget.tick(1 + self.keys.len() as u64) {
                budget.degrade(
                    "egraph/representatives",
                    "returned partial representative map",
                );
                return rep;
            }
            let mut changed = false;
            for id in 0..self.keys.len() {
                let NodeKey::App(f, args) = &self.keys[id] else {
                    continue;
                };
                let root = self.find(id);
                let mut child_terms = Vec::with_capacity(args.len());
                let mut ok = true;
                for &a in args {
                    match rep.get(&self.find(a)) {
                        Some(t) => child_terms.push(t.clone()),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let t = Term::app(*f, child_terms);
                if t.size() <= max_size && consider(&mut rep, root, t) {
                    changed = true;
                }
            }
            if !changed {
                return rep;
            }
        }
    }

    /// Emits a canonical generating set of equalities for the closure,
    /// restricted to terms whose variables satisfy `anchor`.
    ///
    /// For every class with a representative: each anchored variable member
    /// equals the representative, and each app member with representable
    /// arguments yields `rep = f(arg-reps)`. Congruence closure of the
    /// result regenerates every representable equality of the input.
    pub fn emit_equalities(
        &self,
        anchor: &dyn Fn(Var) -> bool,
        max_size: usize,
    ) -> Vec<(Term, Term)> {
        self.emit_equalities_budgeted(anchor, max_size, &Budget::unlimited())
    }

    /// [`EGraph::emit_equalities`] governed by a [`Budget`]; exhaustion
    /// yields a generating set for a *subset* of the representable
    /// equalities (weaker, still sound — see
    /// [`EGraph::representatives_budgeted`]).
    pub fn emit_equalities_budgeted(
        &self,
        anchor: &dyn Fn(Var) -> bool,
        max_size: usize,
        budget: &Budget,
    ) -> Vec<(Term, Term)> {
        let rep = self.representatives_budgeted(anchor, max_size, budget);
        let mut out: BTreeSet<(Term, Term)> = BTreeSet::new();
        for id in 0..self.keys.len() {
            let root = self.find(id);
            let Some(r) = rep.get(&root) else {
                continue;
            };
            match &self.keys[id] {
                NodeKey::Var(v) if anchor(*v) => {
                    let t = Term::var(*v);
                    if &t != r {
                        out.insert((t, r.clone()));
                    }
                }
                NodeKey::Var(_) => {}
                NodeKey::Leaf(t) => {
                    if t != r {
                        out.insert((t.clone(), r.clone()));
                    }
                }
                NodeKey::App(f, args) => {
                    let mut child_terms = Vec::with_capacity(args.len());
                    let mut ok = true;
                    for &a in args {
                        match rep.get(&self.find(a)) {
                            Some(t) => child_terms.push(t.clone()),
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    let t = Term::app(*f, child_terms);
                    if t.size() <= max_size && &t != r {
                        out.insert((r.clone(), t));
                    }
                }
            }
        }
        out.into_iter().collect()
    }
}

fn consider(rep: &mut BTreeMap<NodeId, Term>, root: NodeId, cand: Term) -> bool {
    match rep.get(&root) {
        Some(cur) => {
            // Size first; the display string only breaks ties (it is
            // expensive to compute, so avoid it on the common path).
            let (cs, ns) = (cur.size(), cand.size());
            if cs < ns || (cs == ns && *cur <= cand) {
                false
            } else {
                rep.insert(root, cand);
                true
            }
        }
        None => {
            rep.insert(root, cand);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cai_term::parse::Vocab;

    fn graph(eqs: &[(&str, &str)]) -> EGraph {
        let vocab = Vocab::standard();
        let mut g = EGraph::new();
        for (s, t) in eqs {
            let s = vocab.parse_term(s).unwrap();
            let t = vocab.parse_term(t).unwrap();
            g.assert_eq(&s, &t);
        }
        g
    }

    fn proves(g: &mut EGraph, s: &str, t: &str) -> bool {
        let vocab = Vocab::standard();
        let s = vocab.parse_term(s).unwrap();
        let t = vocab.parse_term(t).unwrap();
        g.proves_eq(&s, &t)
    }

    #[test]
    fn congruence_basic() {
        let mut g = graph(&[("x", "y")]);
        assert!(proves(&mut g, "F(x)", "F(y)"));
        assert!(!proves(&mut g, "F(x)", "G(y)"));
    }

    #[test]
    fn congruence_nested() {
        let mut g = graph(&[("a", "b")]);
        assert!(proves(&mut g, "F(F(F(a)))", "F(F(F(b)))"));
    }

    #[test]
    fn transitivity_through_apps() {
        // x = F(a), y = F(b), a = b  =>  x = y.
        let mut g = graph(&[("x", "F(a)"), ("y", "F(b)"), ("a", "b")]);
        assert!(proves(&mut g, "x", "y"));
    }

    #[test]
    fn upward_closure_after_late_merge() {
        // Add F(a), F(b) first, merge a = b later: congruence must fire.
        let vocab = Vocab::standard();
        let mut g = EGraph::new();
        let fa = g.add(&vocab.parse_term("F(a)").unwrap());
        let fb = g.add(&vocab.parse_term("F(b)").unwrap());
        let gfa = g.add(&vocab.parse_term("G(F(a), a)").unwrap());
        let gfb = g.add(&vocab.parse_term("G(F(b), b)").unwrap());
        assert_ne!(g.find(fa), g.find(fb));
        g.assert_eq(
            &vocab.parse_term("a").unwrap(),
            &vocab.parse_term("b").unwrap(),
        );
        assert_eq!(g.find(fa), g.find(fb));
        assert_eq!(g.find(gfa), g.find(gfb));
    }

    #[test]
    fn representatives_prefer_small_anchored_terms() {
        let g = graph(&[("x", "F(u)"), ("u", "v")]);
        let all = |_: Var| true;
        let reps = g.representatives(&all, 64);
        // Every class has a rep; x's class rep is the variable x.
        let xid = g.var_node(Var::named("x")).unwrap();
        assert_eq!(reps[&g.find(xid)].to_string(), "x");
    }

    #[test]
    fn representatives_respect_anchor() {
        // x = F(u): erasing u, the class of u has no representative, but
        // x's class keeps x.
        let g = graph(&[("x", "F(u)")]);
        let anchor = |v: Var| v != Var::named("u");
        let reps = g.representatives(&anchor, 64);
        let uid = g.var_node(Var::named("u")).unwrap();
        assert!(!reps.contains_key(&g.find(uid)));
        let xid = g.var_node(Var::named("x")).unwrap();
        assert_eq!(reps[&g.find(xid)].to_string(), "x");
    }

    #[test]
    fn self_loop_representable_via_var() {
        // x = F(x): rep of the class is x; emission includes x = F(x).
        let g = graph(&[("x", "F(x)")]);
        let all = |_: Var| true;
        let eqs = g.emit_equalities(&all, 64);
        let shown: Vec<String> = eqs.iter().map(|(a, b)| format!("{a} = {b}")).collect();
        assert!(shown.contains(&"x = F(x)".to_owned()), "{shown:?}");
    }

    #[test]
    fn erased_cycle_unrepresentable() {
        // u = F(u) with u erased: no finite representative, nothing emitted.
        let g = graph(&[("u", "F(u)")]);
        let anchor = |v: Var| v != Var::named("u");
        assert!(g.emit_equalities(&anchor, 64).is_empty());
    }

    #[test]
    fn emission_regenerates_closure() {
        let g = graph(&[("x", "F(a)"), ("y", "F(b)"), ("a", "b"), ("z", "G(x, y)")]);
        let all = |_: Var| true;
        let eqs = g.emit_equalities(&all, 64);
        let mut g2 = EGraph::new();
        for (s, t) in &eqs {
            g2.assert_eq(s, t);
        }
        assert!(proves(&mut g2, "x", "y"));
        assert!(proves(&mut g2, "z", "G(y, x)"));
    }

    #[test]
    fn quantification_keeps_derived_equalities() {
        // x = F(u), y = F(u): erasing u keeps x = y.
        let g = graph(&[("x", "F(u)"), ("y", "F(u)")]);
        let anchor = |v: Var| v != Var::named("u");
        let eqs = g.emit_equalities(&anchor, 64);
        let mut g2 = EGraph::new();
        for (s, t) in &eqs {
            g2.assert_eq(s, t);
        }
        assert!(proves(&mut g2, "x", "y"));
        // And u is gone from every emitted term.
        for (s, t) in &eqs {
            assert!(!s.vars().contains(&Var::named("u")));
            assert!(!t.vars().contains(&Var::named("u")));
        }
    }

    #[test]
    fn opaque_leaves_are_structural() {
        let vocab = Vocab::standard();
        let mut g = EGraph::new();
        let a = g.add(&vocab.parse_term("F(x + y)").unwrap());
        let b = g.add(&vocab.parse_term("F(y + x)").unwrap());
        // Normalized linear layer makes these the same leaf.
        assert_eq!(g.find(a), g.find(b));
    }
}
