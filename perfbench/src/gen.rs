//! Seeded input generators, each with its hand-written known answers.
//!
//! Every generated assertion carries the verdict the analysis must give,
//! written down from the program's meaning and the paper's precision
//! claims, never taken from a run of the analyzer. Assertions marked
//! "must not verify" are false on some execution, so no sound analysis
//! may prove them.
//!
//! A seed changes constants, which member of a class is edited and the
//! order of the leaf edits, but not the shape or the number of programs,
//! procedures or edits of each class, so the cost of a pass varies
//! little from seed to seed.

use cai_num::SplitMix64;
use std::fmt::Write as _;

/// Which component theories a program is analyzed over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Theories {
    /// `AffineEq` and `UfDomain` (Figures 1 and 4, the families).
    LinUf,
    /// Parity and sign (Figure 8).
    ParitySign,
}

/// One program of `paper_programs` with its known answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaperProgram {
    pub name: String,
    pub src: String,
    pub theories: Theories,
    /// Verdicts under the logical product, in assertion order.
    pub logical: Vec<bool>,
    /// Verdicts under the reduced product (the §7 baseline).
    pub reduced: Vec<bool>,
}

fn program(
    name: &str,
    src: String,
    theories: Theories,
    logical: &[bool],
    reduced: &[bool],
) -> PaperProgram {
    PaperProgram {
        name: name.to_string(),
        src,
        theories,
        logical: logical.to_vec(),
        reduced: reduced.to_vec(),
    }
}

/// Figures 1, 4 and 8 and the `fig1_family` and `thm6_family` programs
/// of the paper's experiments verbatim, then seeded variants of both
/// family shapes.
///
/// Only the small shapes are seeded. How soon a loop fixpoint of these
/// shapes converges depends on the constants, and a converged-later
/// `k = 2` program costs up to 15 times more (54 to 826 ms for the
/// `fig1_family` shape over eight seeds), so seeding the large shapes
/// would make the pass time a property of the seed.
pub fn paper_programs(seed: u64) -> Vec<PaperProgram> {
    let mut rng = SplitMix64::new(seed);
    let (t, f) = (true, false);
    vec![
        // The paper's ladder: the reduced product misses only the mixed
        // fact d2 = F(d1 + 1).
        program(
            "fig1",
            cai_bench::FIG1.into(),
            Theories::LinUf,
            &[t, t, t, t],
            &[t, t, t, f],
        ),
        // x = F(y + 1) is a mixed fact the reduced product cannot hold;
        // the second assertion needs the strict product (§3).
        program(
            "fig4",
            cai_bench::FIG4.into(),
            Theories::LinUf,
            &[t, f],
            &[f, f],
        ),
        // odd(x) comes from parity alone; positive(x) is lost because the
        // theories share symbols (Figure 8).
        program(
            "fig8",
            cai_bench::FIG8.into(),
            Theories::ParitySign,
            &[t, f],
            &[t, f],
        ),
        // s_i = 2·a_i per group: linear, both products.
        program(
            "fig1_family1",
            cai_bench::fig1_family(1),
            Theories::LinUf,
            &[t],
            &[t],
        ),
        program(
            "fig1_family2",
            cai_bench::fig1_family(2),
            Theories::LinUf,
            &[t, t],
            &[t, t],
        ),
        // a0 = a0.
        program(
            "thm6_family2",
            cai_bench::thm6_family(2),
            Theories::LinUf,
            &[t],
            &[t],
        ),
        program(
            "thm6_family3",
            cai_bench::thm6_family(3),
            Theories::LinUf,
            &[t],
            &[t],
        ),
        fig1_variant("fig1_seeded1", 1, &mut rng),
        thm6_variant("thm6_seeded2", 2, &mut rng),
    ]
}

/// `n` distinct values from `lo..hi`, in seeded order.
fn distinct(rng: &mut SplitMix64, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    sample(rng, (hi - lo) as usize, n)
        .into_iter()
        .map(|i| lo + i as i64)
        .collect()
}

/// The `fig1_family` shape, `k` groups of `a, s, b, t` in one loop, with
/// seeded constants. Per group:
/// - `s = r·a + (m1 − r·m0)`: linear, both products;
/// - `t = F(b + q)`: mixed, of the `d2 = F(d1 + 1)` kind; logical only;
/// - `a = m0`: must not verify (the loop increments `a`);
/// - `t = F(b)`: must not verify (`q ≠ 0` and `F` is uninterpreted).
///
/// Initial values are distinct and nonzero, and so are the arguments of
/// the initial `F` terms: a coincidence would add equalities that make
/// the analysis several times cheaper, so a seed that drew one would
/// measure a different workload.
fn fig1_variant(name: &str, k: usize, rng: &mut SplitMix64) -> PaperProgram {
    let (mut init, mut body, mut asserts) = (String::new(), String::new(), String::new());
    let (mut logical, mut reduced) = (Vec::new(), Vec::new());
    // m0, m1, m2 and m2 + q of every group, all distinct.
    let values = distinct(rng, 4 * k, 1, 30);
    let r = distinct(rng, k, 2, 6);
    for i in 0..k {
        let [m0, m1, m2, w] = [0, 1, 2, 3].map(|j| values[4 * i + j]);
        let (m2, w) = (m2.min(w), m2.max(w));
        let (q, r) = (w - m2, r[i]);
        let _ = writeln!(
            init,
            "a{i} := {m0}; s{i} := {m1}; b{i} := {m2}; t{i} := F({m2} + {q});"
        );
        let _ = writeln!(
            body,
            "  a{i} := a{i} + 1; s{i} := s{i} + {r}; b{i} := F(b{i} + {q}); t{i} := F(t{i} + {q});"
        );
        let _ = writeln!(asserts, "assert(s{i} = {r}*a{i} + {});", m1 - r * m0);
        let _ = writeln!(asserts, "assert(t{i} = F(b{i} + {q}));");
        let _ = writeln!(asserts, "assert(a{i} = {m0});");
        let _ = writeln!(asserts, "assert(t{i} = F(b{i}));");
        logical.extend([true, true, false, false]);
        reduced.extend([true, false, false, false]);
    }
    PaperProgram {
        name: name.to_string(),
        src: format!("{init}while (*) {{\n{body}}}\n{asserts}"),
        theories: Theories::LinUf,
        logical,
        reduced,
    }
}

/// The `thm6_family` shape, `k ≥ 2` linear counters and `k`
/// UF-updated variables in one loop, with seeded starts and steps
/// (distinct, as in [`fig1_variant`]).
/// - `s1·a0 − s0·a1 = s1·m0 − s0·m1` for each adjacent pair: linear,
///   both products;
/// - `u0 = F(a0 + c)`: must not verify (holds only before the loop);
/// - `a0 = m0`: must not verify.
fn thm6_variant(name: &str, k: usize, rng: &mut SplitMix64) -> PaperProgram {
    let m = distinct(rng, k, 1, 20);
    let s = distinct(rng, k, 1, 8);
    // c ≠ 1 keeps the initial F(a + c) apart from the loop's F(u + 1).
    let c = rng.range_i64(2, 8);
    let mut src = String::new();
    for (i, m) in m.iter().enumerate() {
        let _ = writeln!(src, "a{i} := {m}; u{i} := F(a{i} + {c});");
    }
    src.push_str("while (*) {\n");
    for (i, s) in s.iter().enumerate() {
        let _ = writeln!(src, "  a{i} := a{i} + {s}; u{i} := F(u{i} + 1);");
    }
    src.push_str("}\n");
    let mut answers = Vec::new();
    for i in 1..k {
        let _ = writeln!(
            src,
            "assert({}*a{} - {}*a{i} = {});",
            s[i],
            i - 1,
            s[i - 1],
            s[i] * m[i - 1] - s[i - 1] * m[i]
        );
        answers.push(true);
    }
    let _ = writeln!(src, "assert(u0 = F(a0 + {c}));");
    let _ = writeln!(src, "assert(a0 = {});", m[0]);
    answers.extend([false, false]);
    program(name, src, Theories::LinUf, &answers, &answers)
}

/// Procedure classes of the generated module. The counts are fixed; a
/// seed only changes constants.
const LEAVES: usize = 20;
const MIDS: usize = LEAVES / 2;
const ROOTS: usize = MIDS / 2;
const STEPS: usize = 4;
const USERS: usize = 8;
const HEAVIES: usize = 2;

/// An editable module: every procedure's text is a function of the seed
/// and the procedure's current version, so an edit script can move any
/// procedure to a new version or back to an earlier one.
#[derive(Clone, Debug)]
pub struct ModuleGen {
    seed: u64,
    /// Seeded shift of every leaf, mid, step and pair constant.
    offset: i64,
    /// Current version of each editable item (see [`Item`]).
    versions: Vec<u32>,
}

/// What one edit changes: the constant of one procedure (or of the
/// mutually recursive pair, which share it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Item {
    Leaf(usize),
    Mid(usize),
    Step(usize),
    Pair,
    Heavy(usize),
}

impl Item {
    fn index(self) -> usize {
        match self {
            Item::Leaf(i) => i,
            Item::Mid(i) => LEAVES + i,
            Item::Step(i) => LEAVES + MIDS + i,
            Item::Pair => LEAVES + MIDS + STEPS,
            Item::Heavy(i) => LEAVES + MIDS + STEPS + 1 + i,
        }
    }
}

const ITEMS: usize = LEAVES + MIDS + STEPS + 1 + HEAVIES;

/// A module's text and the known verdicts of each procedure, in
/// declaration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleText {
    pub src: String,
    pub answers: Vec<(String, Vec<bool>)>,
}

impl ModuleGen {
    pub fn new(seed: u64) -> ModuleGen {
        ModuleGen {
            seed,
            offset: SplitMix64::new(seed).range_i64(1, 50),
            versions: vec![0; ITEMS],
        }
    }

    pub fn set_version(&mut self, item: Item, version: u32) {
        self.versions[item.index()] = version;
    }

    /// A heavy procedure's constant from `lo..hi`, fixed by seed, item
    /// and slot, that steps through the range with the item's version,
    /// so versions 0, 1 and 2 always differ.
    fn constant(&self, item: Item, slot: u64, lo: i64, hi: i64) -> i64 {
        let key = (item.index() as u64) << 8 | slot;
        let base = SplitMix64::new(self.seed ^ cai_num::prng::mix(key)).range_i64(0, hi - lo);
        lo + (base + i64::from(self.versions[item.index()])) % (hi - lo)
    }

    /// The leaf's returned constant `k`.
    fn leaf_k(&self, i: usize) -> i64 {
        self.unique(Item::Leaf(i), i, LEAVES)
    }

    fn mid_c(&self, j: usize) -> i64 {
        self.unique(Item::Mid(j), j, MIDS)
    }

    fn step_c(&self, j: usize) -> i64 {
        self.unique(Item::Step(j), j, STEPS)
    }

    /// The constant of member `index` of a class of `size` items, distinct
    /// from every other member's and version's: two procedures with the
    /// same text would share split-cache entries, and how many such pairs
    /// a seed drew would change the work of a pass.
    fn unique(&self, item: Item, index: usize, size: usize) -> i64 {
        let version = self.versions[item.index()] as usize;
        self.offset + (index + size * version) as i64
    }

    /// Mid `j` calls leaves `2j` and `2j + 1` and returns their sum
    /// plus its own constant.
    fn mid_ret(&self, j: usize) -> i64 {
        self.leaf_k(2 * j) + self.leaf_k(2 * j + 1) + self.mid_c(j)
    }

    /// The module text with its answers, 52 procedures:
    /// - loop + UF leaves returning a constant;
    /// - mids calling two leaves, roots calling two mids (every leaf and
    ///   mid has one caller, so every edit of a class dirties as many
    ///   procedures);
    /// - callees that reassign their formal, and users calling them with
    ///   constant arguments (only context-sensitive summaries verify the
    ///   users' assertions);
    /// - one mutually recursive pair and its caller;
    /// - two heavy procedures with a Figure 1 loop.
    pub fn text(&self) -> ModuleText {
        let mut src = String::new();
        let mut answers = Vec::new();
        let (t, f) = (true, false);
        for i in 0..LEAVES {
            let k = self.leaf_k(i);
            let _ = writeln!(
                src,
                "proc leaf{i}(a) {{
  x := a + {k}; w := a; y := F(x);
  while (*) {{ x := x + 1; w := w + 1; y := F(x); }}
  assert(y = F(x));
  assert(x = w + {k});
  assert(x = a + {k});
  ret := x - w;
}}"
            );
            // The third is must-not-verify: the loop moves x away from a.
            answers.push((format!("leaf{i}"), vec![t, t, f]));
        }
        for j in 0..MIDS {
            let c = self.mid_c(j);
            let sum = self.mid_ret(j);
            let _ = writeln!(
                src,
                "proc mid{j}(a) {{
  x := call leaf{}(a); y := call leaf{}(a);
  ret := x + y + {c};
  assert(ret = {sum});
  assert(ret = {});
}}",
                2 * j,
                2 * j + 1,
                sum - c
            );
            answers.push((format!("mid{j}"), vec![t, f]));
        }
        for j in 0..ROOTS {
            let (p, q) = (2 * j, 2 * j + 1);
            let sum = self.mid_ret(p) + self.mid_ret(q);
            let _ = writeln!(
                src,
                "proc root{j}(a) {{
  u := call mid{p}(a); v := call mid{q}(u);
  ret := u + v;
  assert(ret = {sum});
}}"
            );
            answers.push((format!("root{j}"), vec![t]));
        }
        for j in 0..STEPS {
            let c = self.step_c(j);
            let _ = writeln!(src, "proc step{j}(a) {{ a := a + {c}; ret := a; }}");
            answers.push((format!("step{j}"), vec![]));
        }
        for j in 0..USERS {
            let s = j % STEPS;
            let c = self.step_c(s);
            let (k1, k2) = (10 * j as i64 + 1, 10 * j as i64 + 2);
            let _ = writeln!(
                src,
                "proc user{j}(b) {{
  x := call step{s}({k1}); y := call step{s}({k2});
  assert(x = {});
  assert(y = {});
  assert(x = {k1});
  ret := x + y + b;
}}",
                k1 + c,
                k2 + c
            );
            // The step callee reassigns its formal, so only an entry-keyed
            // summary specialised to the constant argument proves the first
            // two; the third is must-not-verify (c ≠ 0).
            answers.push((format!("user{j}"), vec![t, t, f]));
        }
        // down(n) = up(n) = n + c on every path.
        let c = self.unique(Item::Pair, 0, 1);
        let _ = writeln!(
            src,
            "proc down(n) {{
  if (*) {{ ret := n + {c}; }} else {{ m := n - 1; r := call up(m); ret := r + 1; }}
}}
proc up(n) {{
  if (*) {{ ret := n + {c}; }} else {{ m := n + 1; r := call down(m); ret := r - 1; }}
}}
proc rec(a) {{
  x := call down(5);
  assert(x = {});
  assert(x = 5);
  ret := x + a;
}}",
            5 + c
        );
        answers.push(("down".into(), vec![]));
        answers.push(("up".into(), vec![]));
        answers.push(("rec".into(), vec![t, f]));
        for h in 0..HEAVIES {
            // b1, c1, c2 and d1 start equal, so the seed moves no equality
            // between the variables and the cost stays the same; `m` keeps
            // the two procedures' texts apart.
            let m = self.unique(Item::Heavy(h), h, HEAVIES);
            let r = self.constant(Item::Heavy(h), 1, 2, 6);
            let q = self.constant(Item::Heavy(h), 2, 1, 6);
            let _ = writeln!(
                src,
                "proc heavy{h}(a) {{
  a1 := 0; a2 := 0; b1 := {m}; b2 := F({m});
  c1 := {m}; c2 := {m}; d1 := {m}; d2 := F({m} + {q});
  while (*) {{
    a1 := a1 + 1; a2 := a2 + {r};
    b1 := F(b1); b2 := F(b2);
    c1 := F(2*c1 - c2); c2 := F(c2);
    d1 := F({q} + d1); d2 := F(d2 + {q});
  }}
  assert(a2 = {r}*a1);
  assert(b2 = F(b1));
  assert(c2 = c1);
  assert(d2 = F(d1 + {q}));
  ret := a;
}}"
            );
            // Figure 1 with seeded constants: the logical product proves all.
            answers.push((format!("heavy{h}"), vec![t, t, t, t]));
        }
        ModuleText { src, answers }
    }
}

/// One step of an edit session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Edit {
    /// Move an item to a version (0 is the original text).
    Set(Item, u32),
    /// Re-analyze the unchanged module (the warm path).
    Unchanged,
}

/// Edits per script, by class. Every leaf is edited once per script; the
/// script returns every item to version 0, so each pass over it starts
/// from the same module text. Leaf edits are the bulk of the script, so
/// `verdict_p50_ms` and `verdict_p90_ms` both fall among them rather
/// than at the edge of a class; the two heavy steps are the slow tail,
/// beyond p90.
const STEP_EPISODES: usize = 1;
const PAIR_EPISODES: usize = 1;
const HEAVY_EPISODES: usize = 1;
const UNCHANGED_STEPS: usize = 3;

/// Leaf episodes, of each kind (see [`edit_script`]), that visit a second
/// new version before returning to version 0.
const LONG_LEAF_EPISODES: usize = 4;

/// A seeded index below `len`.
fn pick(rng: &mut SplitMix64, len: usize) -> usize {
    rng.below(len as u64) as usize
}

/// `n` distinct indices below `len`, in seeded order.
fn sample(rng: &mut SplitMix64, len: usize, n: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..len).collect();
    for i in 0..n {
        let j = i + pick(rng, len - i);
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

/// Draws the script's shape: which leaf episodes are long and how the
/// episodes interleave.
const SHAPE_SEED: u64 = 0x5EED;

/// The seeded edit script. Each episode edits one item to a new version,
/// for some on to a second one, and then back to version 0; episodes are
/// interleaved keeping each episode's steps in order. No two episodes edit
/// the same item, so every step changes the module.
///
/// The seed picks the procedure of each episode (and so every constant);
/// the shape is the same for every seed. Where the heavy edit falls
/// between split-cache evictions decides the peak heap of a pass, and a
/// seeded order made that peak vary by a third from seed to seed.
pub fn edit_script(seed: u64) -> Vec<Edit> {
    let mut rng = SplitMix64::new(seed);
    let mut shape = SplitMix64::new(SHAPE_SEED);
    // Leaves under mids a root calls first, then leaves under mids it
    // calls second; a change to the first mid's result changes the entry
    // context of the second call, so the two kinds cost differently.
    let half = LEAVES / 2;
    let leaves: Vec<usize> = [0, 2]
        .into_iter()
        .flat_map(|first| {
            sample(&mut rng, half, half)
                .into_iter()
                .map(move |i| 4 * (i / 2) + first + i % 2)
        })
        .collect();
    let long_leaves: Vec<usize> = sample(&mut shape, half, LONG_LEAF_EPISODES)
        .into_iter()
        .chain(
            sample(&mut shape, half, LONG_LEAF_EPISODES)
                .into_iter()
                .map(|e| e + half),
        )
        .collect();
    let mids = [2 * pick(&mut rng, ROOTS), 2 * pick(&mut rng, ROOTS) + 1];
    let episode = |item: Item, long: bool| {
        let mut steps = vec![Edit::Set(item, 1)];
        if long {
            steps.push(Edit::Set(item, 2));
        }
        steps.push(Edit::Set(item, 0));
        steps
    };
    let mut episodes: Vec<Vec<Edit>> = Vec::new();
    for (e, &i) in leaves.iter().enumerate() {
        episodes.push(episode(Item::Leaf(i), long_leaves.contains(&e)));
    }
    for i in mids {
        episodes.push(episode(Item::Mid(i), false));
    }
    for i in sample(&mut rng, STEPS, STEP_EPISODES) {
        episodes.push(episode(Item::Step(i), false));
    }
    for _ in 0..PAIR_EPISODES {
        episodes.push(episode(Item::Pair, false));
    }
    // Heavy edits are the slow tail: one short episode per script keeps
    // their share of the steps fixed.
    for h in sample(&mut rng, HEAVIES, HEAVY_EPISODES) {
        episodes.push(vec![
            Edit::Set(Item::Heavy(h), 1),
            Edit::Set(Item::Heavy(h), 0),
        ]);
    }
    for _ in 0..UNCHANGED_STEPS {
        episodes.push(vec![Edit::Unchanged]);
    }
    // Interleave: repeatedly take the next step of an unfinished episode.
    let mut script = Vec::new();
    let mut cursors = vec![0usize; episodes.len()];
    loop {
        let open: Vec<usize> = (0..episodes.len())
            .filter(|&e| cursors[e] < episodes[e].len())
            .collect();
        if open.is_empty() {
            break;
        }
        let e = open[pick(&mut shape, open.len())];
        script.push(episodes[e][cursors[e]]);
        cursors[e] += 1;
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_inputs(seed: u64) -> String {
        let mut out = String::new();
        for p in paper_programs(seed) {
            let _ = write!(out, "{p:?}");
        }
        let mut module = ModuleGen::new(seed);
        let _ = write!(out, "{:?}", module.text());
        for edit in edit_script(seed) {
            if let Edit::Set(item, version) = edit {
                module.set_version(item, version);
            }
            let _ = write!(out, "{edit:?}{:?}", module.text());
        }
        out
    }

    /// The same seed gives byte-identical programs, module texts and edit
    /// script; the pinned digest catches a generator that changes
    /// between commits, which would change the workload under a claim.
    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(all_inputs(42), all_inputs(42));
        assert_ne!(all_inputs(42), all_inputs(43));
        assert_eq!(crate::digest(&all_inputs(42)), PINNED_SEED_42);
    }

    const PINNED_SEED_42: u64 = 8964570748452432960;

    /// The script returns every item to its original version and changes
    /// the module on every step that is not a warm-path step.
    #[test]
    fn script_is_a_round_trip() {
        for seed in 0..20 {
            let mut module = ModuleGen::new(seed);
            let start = module.text();
            let mut previous = start.clone();
            for edit in edit_script(seed) {
                if let Edit::Set(item, version) = edit {
                    module.set_version(item, version);
                    let now = module.text();
                    assert_ne!(now, previous, "seed {seed}: {edit:?} changed nothing");
                    previous = now;
                }
            }
            assert_eq!(module.text(), start, "seed {seed}");
        }
    }

    /// Every procedure and program has one known answer per assertion.
    #[test]
    fn one_answer_per_assertion() {
        for p in paper_programs(7) {
            let n = p.src.matches("assert(").count();
            assert_eq!((p.logical.len(), p.reduced.len()), (n, n), "{}", p.name);
        }
        let text = ModuleGen::new(7).text();
        let n: usize = text.answers.iter().map(|(_, a)| a.len()).sum();
        assert_eq!(text.src.matches("assert(").count(), n);
        assert_eq!(text.src.matches("proc ").count(), text.answers.len());
    }
}
