//! GTED — the general tree edit distance algorithm (Algorithm 1).
//!
//! GTED executes any LRH path strategy in O(n²) space: it looks up the
//! strategy's root-leaf path for the current subtree pair, recurses on the
//! relevant subtrees hanging off that path, then runs the single-path
//! function matching the path type (`∆L`, `∆R`, or `∆I` for heavy paths).
//! When the path lies in the right-hand tree the roles are swapped and the
//! distance matrix is accessed transposed (with delete/insert costs
//! exchanged, which preserves the distance for asymmetric cost models).
//!
//! The executor fills the distance matrix `D` with δ(F_v, G_w) for **every**
//! pair of subtrees — the final entry is the tree edit distance.

use crate::cell::{integer_unit, Cell, Scale};
use crate::cost::{CostModel, CostTables};
use crate::strategy::{PathChoice, Side, StrategyProvider};
use crate::workspace::Workspace;
use crate::{spf_i, spf_lr};
use rted_tree::paths::{relevant_subtrees_into, root_leaf_path_into};
use rted_tree::{NodeId, PathKind, Tree};

/// Instrumentation counters for one GTED run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Relevant subproblems computed (DP cells across all single-path
    /// function invocations). Matches the Fig.-5 cost of the strategy.
    pub subproblems: u64,
    /// Number of `∆L` invocations.
    pub spf_l_calls: u64,
    /// Number of `∆R` invocations.
    pub spf_r_calls: u64,
    /// Number of `∆I` (heavy path) invocations.
    pub spf_i_calls: u64,
}

/// Work-stack codes: `EXPAND` marks a pair awaiting strategy expansion;
/// any other value is the [`PathChoice`] code of a pending single-path
/// function. Encoded so the driver stack is a flat reusable buffer.
const EXPAND: u8 = u8::MAX;

/// A GTED execution over one pair of trees: owns (or borrows from a
/// [`Workspace`]) the distance matrix and the per-tree cost tables, in the
/// cell type [`CostModel::unit`] allows for the pair (`u32` cost units or
/// `f64`; the answers are the same).
pub struct Executor<'a, L, C> {
    cells: Cells<'a, L, C>,
    /// Execution counters.
    pub stats: ExecStats,
}

/// The execution on the cell type chosen for the pair.
enum Cells<'a, L, C> {
    Wide(Gted<'a, L, C, f64>),
    Narrow(Gted<'a, L, C, u32>),
}

/// Runs `$body` on the execution `$x` of either cell type.
macro_rules! on_cells {
    ($cells:expr, |$x:ident| $body:expr) => {
        match $cells {
            Cells::Wide($x) => $body,
            Cells::Narrow($x) => $body,
        }
    };
}

impl<'a, L, C: CostModel<L>> Executor<'a, L, C> {
    /// Prepares a self-contained execution for the pair `(f, g)` under
    /// cost model `cm`. All buffers are freshly allocated and dropped with
    /// the executor; use [`Executor::with_workspace`] to amortize them
    /// across many pairs.
    pub fn new(f: &'a Tree<L>, g: &'a Tree<L>, cm: &'a C) -> Self {
        Self::build(f, g, cm, None)
    }

    /// Prepares an execution whose distance matrix, cost tables and all
    /// single-path-function scratch come from `ws`. Buffers are length-
    /// reset, never freed, and handed back when the executor drops — so a
    /// workspace that has already served a pair of these sizes makes the
    /// whole execution allocation-free.
    pub fn with_workspace(
        f: &'a Tree<L>,
        g: &'a Tree<L>,
        cm: &'a C,
        ws: &'a mut Workspace,
    ) -> Self {
        Self::build(f, g, cm, Some(ws))
    }

    fn build(f: &'a Tree<L>, g: &'a Tree<L>, cm: &'a C, ws: Option<&'a mut Workspace>) -> Self {
        let cells = match integer_unit(f, g, cm) {
            Some(unit) => Cells::Narrow(Gted::new(f, g, cm, Scale::units(unit), ws)),
            None => Cells::Wide(Gted::new(f, g, cm, Scale::REAL, ws)),
        };
        Executor {
            cells,
            stats: ExecStats::default(),
        }
    }

    /// Runs GTED under `strategy` and returns the tree edit distance.
    pub fn run<S: StrategyProvider<L>>(&mut self, strategy: &S) -> f64 {
        let (distance, stats) = on_cells!(&mut self.cells, |x| {
            let d = x.run(strategy);
            (x.sc.real(d), x.stats)
        });
        self.stats = stats;
        distance
    }

    /// The computed tree edit distance (valid after [`Executor::run`]).
    pub fn distance(&self) -> f64 {
        on_cells!(&self.cells, |x| x.sc.real(x.distance()))
    }

    /// Distance between the subtrees rooted at `v` (in `F`) and `w` (in
    /// `G`). All pairs are available after [`Executor::run`].
    pub fn subtree_distance(&self, v: NodeId, w: NodeId) -> f64 {
        on_cells!(&self.cells, |x| x.sc.real(x.d_get(v, w, false)))
    }
}

/// GTED on `T` cells: the executor proper, run directly by RTED and the
/// heavy-path algorithms once the cell type is chosen.
pub(crate) struct Gted<'a, L, C, T: Cell> {
    pub(crate) f: &'a Tree<L>,
    pub(crate) g: &'a Tree<L>,
    pub(crate) cm: &'a C,
    pub(crate) sc: Scale<T>,
    pub(crate) ftab: CostTables<T>,
    pub(crate) gtab: CostTables<T>,
    /// Subtree distance matrix, row-major `[v_F][w_G]`.
    d: Vec<T>,
    /// Scratch source for the single-path functions; `Some` when borrowed
    /// from a caller's workspace, `None` when self-contained. The matrix
    /// and tables are taken from it and returned on drop.
    ws: Option<&'a mut Workspace>,
    /// Owned scratch for the self-contained mode.
    ws_owned: Workspace,
    /// The B side `(root, swapped, right)` whose per-rank rows the
    /// keyroot scratch holds from the last `∆L`/`∆R`, which the next one
    /// on the same side reuses.
    pub(crate) lr_b: Option<(NodeId, bool, bool)>,
    /// Likewise the B side `(root, swapped)` whose `∆I` tables the
    /// workspace holds from the last `∆I`.
    pub(crate) i_b: Option<(NodeId, bool)>,
    /// Execution counters.
    pub(crate) stats: ExecStats,
}

impl<L, C, T: Cell> Gted<'_, L, C, T> {
    /// The scratch workspace serving the single-path functions.
    #[inline]
    pub(crate) fn scratch(&mut self) -> &mut Workspace {
        match self.ws {
            Some(ref mut ws) => ws,
            None => &mut self.ws_owned,
        }
    }
}

impl<'a, L, C: CostModel<L>, T: Cell> Gted<'a, L, C, T> {
    pub(crate) fn new(
        f: &'a Tree<L>,
        g: &'a Tree<L>,
        cm: &'a C,
        sc: Scale<T>,
        ws: Option<&'a mut Workspace>,
    ) -> Self {
        let mut exec = Gted {
            f,
            g,
            cm,
            sc,
            ftab: CostTables::default(),
            gtab: CostTables::default(),
            d: Vec::new(),
            ws,
            ws_owned: Workspace::new(),
            lr_b: None,
            i_b: None,
            stats: ExecStats::default(),
        };
        let b = T::bufs(exec.scratch());
        let mut ftab = std::mem::take(&mut b.ftab);
        let mut gtab = std::mem::take(&mut b.gtab);
        let mut d = std::mem::take(&mut b.d);
        ftab.rebuild(f, cm, sc);
        gtab.rebuild(g, cm, sc);
        d.clear();
        d.resize(f.len() * g.len(), T::UNSET);
        exec.ftab = ftab;
        exec.gtab = gtab;
        exec.d = d;
        exec
    }

    /// Runs GTED under `strategy` and returns the tree edit distance.
    pub(crate) fn run<S: StrategyProvider<L>>(&mut self, strategy: &S) -> T {
        // Iterative driver (strategy recursions can nest O(n) deep on
        // degenerate shapes). Children are expanded before the parent
        // pair's single-path function runs. The stack and the relevant-
        // subtree scratch live in the workspace.
        let mut stack = std::mem::take(&mut self.scratch().stack);
        let mut subs = std::mem::take(&mut self.scratch().subs);
        stack.clear();
        stack.push((self.f.root().0, self.g.root().0, EXPAND));
        while let Some((v, w, code)) = stack.pop() {
            let (v, w) = (NodeId(v), NodeId(w));
            if code == EXPAND {
                let choice = strategy.choose(self.f, self.g, v, w);
                stack.push((v.0, w.0, choice.code()));
                match choice.side {
                    Side::F => {
                        relevant_subtrees_into(self.f, v, choice.kind, &mut subs);
                        for &s in &subs {
                            stack.push((s.0, w.0, EXPAND));
                        }
                    }
                    Side::G => {
                        relevant_subtrees_into(self.g, w, choice.kind, &mut subs);
                        for &s in &subs {
                            stack.push((v.0, s.0, EXPAND));
                        }
                    }
                }
            } else {
                self.run_spf(v, w, PathChoice::from_code(code));
            }
        }
        self.scratch().stack = stack;
        self.scratch().subs = subs;
        self.distance()
    }

    fn run_spf(&mut self, v: NodeId, w: NodeId, choice: PathChoice) {
        match (choice.side, choice.kind) {
            (Side::F, PathKind::Left) => {
                self.stats.spf_l_calls += 1;
                spf_lr::run(self, v, w, false, false);
            }
            (Side::F, PathKind::Right) => {
                self.stats.spf_r_calls += 1;
                spf_lr::run(self, v, w, false, true);
            }
            (Side::F, PathKind::Heavy) => {
                self.stats.spf_i_calls += 1;
                let mut path = std::mem::take(&mut self.scratch().path);
                root_leaf_path_into(self.f, v, PathKind::Heavy, &mut path);
                spf_i::run(self, v, w, &path, false);
                self.scratch().path = path;
            }
            (Side::G, PathKind::Left) => {
                self.stats.spf_l_calls += 1;
                spf_lr::run(self, w, v, true, false);
            }
            (Side::G, PathKind::Right) => {
                self.stats.spf_r_calls += 1;
                spf_lr::run(self, w, v, true, true);
            }
            (Side::G, PathKind::Heavy) => {
                self.stats.spf_i_calls += 1;
                let mut path = std::mem::take(&mut self.scratch().path);
                root_leaf_path_into(self.g, w, PathKind::Heavy, &mut path);
                spf_i::run(self, w, v, &path, true);
                self.scratch().path = path;
            }
        }
    }

    /// The computed tree edit distance (valid after [`Gted::run`]).
    #[inline]
    pub(crate) fn distance(&self) -> T {
        self.d[self.d.len() - 1]
    }

    // ---- orientation-aware accessors used by the single-path functions.
    //
    // A single-path function decomposes the "A side"; `swapped == true`
    // means the A side is the original right-hand tree G, in which case
    // delete/insert roles and the D indexing are transposed.

    #[inline]
    pub(crate) fn tree_a(&self, swapped: bool) -> &'a Tree<L> {
        if swapped {
            self.g
        } else {
            self.f
        }
    }

    #[inline]
    pub(crate) fn tree_b(&self, swapped: bool) -> &'a Tree<L> {
        if swapped {
            self.f
        } else {
            self.g
        }
    }

    /// Cost of deleting A-side node `a` (in the oriented problem).
    #[inline]
    pub(crate) fn del_a(&self, a: NodeId, swapped: bool) -> T {
        if swapped {
            self.gtab.ins[a.idx()]
        } else {
            self.ftab.del[a.idx()]
        }
    }

    /// Cost of inserting B-side node `b`.
    #[inline]
    pub(crate) fn ins_b(&self, b: NodeId, swapped: bool) -> T {
        if swapped {
            self.ftab.del[b.idx()]
        } else {
            self.gtab.ins[b.idx()]
        }
    }

    /// Total delete cost of A-side subtree `a`.
    #[inline]
    pub(crate) fn sub_del_a(&self, a: NodeId, swapped: bool) -> T {
        if swapped {
            self.gtab.sub_ins[a.idx()]
        } else {
            self.ftab.sub_del[a.idx()]
        }
    }

    /// Total insert cost of B-side subtree `b`.
    #[inline]
    pub(crate) fn sub_ins_b(&self, b: NodeId, swapped: bool) -> T {
        if swapped {
            self.ftab.sub_del[b.idx()]
        } else {
            self.gtab.sub_ins[b.idx()]
        }
    }

    /// Rename cost from A-side node `a` to B-side node `b`.
    #[inline]
    pub(crate) fn ren_ab(&self, a: NodeId, b: NodeId, swapped: bool) -> T {
        self.sc.cell(if swapped {
            self.cm.rename(self.f.label(b), self.g.label(a))
        } else {
            self.cm.rename(self.f.label(a), self.g.label(b))
        })
    }

    /// Index of δ(subtree(a), subtree(b)) in `D`, in the current
    /// orientation.
    #[inline]
    fn d_at(&self, a: NodeId, b: NodeId, swapped: bool) -> usize {
        let (v, w) = if swapped { (b, a) } else { (a, b) };
        v.idx() * self.g.len() + w.idx()
    }

    /// Reads δ(subtree(a), subtree(b)) in the current orientation.
    #[inline]
    pub(crate) fn d_get(&self, a: NodeId, b: NodeId, swapped: bool) -> T {
        let d = self.d[self.d_at(a, b, swapped)];
        debug_assert!(!d.is_unset(), "D({a},{b}) read before computed");
        d
    }

    /// δ(subtree(a), subtree(b)) for each `b` of `bs` in the current
    /// orientation, as one contiguous slice: borrowed from `D` when it
    /// holds them in that order (unswapped, `bs` consecutive ascending
    /// nodes), gathered into `buf` otherwise. Entries not computed yet are
    /// unset.
    #[inline]
    pub(crate) fn d_row<'s>(
        &'s self,
        a: NodeId,
        bs: &[NodeId],
        swapped: bool,
        consecutive: bool,
        buf: &'s mut Vec<T>,
    ) -> &'s [T] {
        if consecutive && !swapped {
            let first = self.d_at(a, bs[0], false);
            return &self.d[first..first + bs.len()];
        }
        buf.clear();
        buf.extend(bs.iter().map(|&b| self.d[self.d_at(a, b, swapped)]));
        buf
    }

    /// The matrix and where δ(subtree(a), subtree(b)) lies in it for this
    /// `a`, in the current orientation: at `base + b · step`.
    #[inline]
    pub(crate) fn d_line(&self, a: NodeId, swapped: bool) -> (&[T], usize, usize) {
        let n = self.g.len();
        if swapped {
            (&self.d, a.idx(), n)
        } else {
            (&self.d, a.idx() * n, 1)
        }
    }

    /// Writes δ(subtree(a), subtree(b)) in the current orientation.
    #[inline]
    pub(crate) fn d_set(&mut self, a: NodeId, b: NodeId, swapped: bool, val: T) {
        let at = self.d_at(a, b, swapped);
        self.d[at] = val;
    }
}

impl<L, C, T: Cell> Drop for Gted<'_, L, C, T> {
    fn drop(&mut self) {
        // Hand the matrix and cost tables back to the workspace so the
        // next execution built on it reuses their capacity.
        let d = std::mem::take(&mut self.d);
        let ftab = std::mem::take(&mut self.ftab);
        let gtab = std::mem::take(&mut self.gtab);
        let b = T::bufs(self.scratch());
        b.d = d;
        b.ftab = ftab;
        b.gtab = gtab;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use crate::reference::reference_ted;
    use crate::strategy::{optimal_strategy, DemaineHeavy};
    use crate::zs::zhang_shasha;
    use rted_tree::parse_bracket;

    const CASES: &[(&str, &str)] = &[
        ("{a}", "{b}"),
        ("{a{b}}", "{a}"),
        ("{a{b}{c{d}}}", "{a{b{d}}{c}}"),
        ("{a{b{c}{d}}{e}}", "{x{y}{z{w{q}}}}"),
        ("{A{C}{B{G}{E{F}}{D}}}", "{A{B{D}{E{F}}}{C{G}}}"),
        ("{r{a{x}}{b}}", "{r{a}{b{x}}}"),
        ("{a{a}{a}{a}}", "{a{a{a}}}"),
        ("{a{b{c{d{e}}}}}", "{e{d{c{b{a}}}}}"),
        ("{a{b}{c}{d}{e}{f}}", "{a{b{c{d{e{f}}}}}}"),
    ];

    fn check_strategy<S: StrategyProvider<String>>(s: &S, name: &str) {
        for (a, b) in CASES {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let want = reference_ted(&f, &g, &UnitCost);
            let mut exec = Executor::new(&f, &g, &UnitCost);
            let got = exec.run(s);
            assert_eq!(got, want, "{name}: {a} vs {b}");
        }
    }

    #[test]
    fn const_left_matches_reference() {
        check_strategy(
            &PathChoice {
                side: Side::F,
                kind: PathKind::Left,
            },
            "F-Left",
        );
        check_strategy(
            &PathChoice {
                side: Side::G,
                kind: PathKind::Left,
            },
            "G-Left",
        );
    }

    #[test]
    fn const_right_matches_reference() {
        check_strategy(
            &PathChoice {
                side: Side::F,
                kind: PathKind::Right,
            },
            "F-Right",
        );
        check_strategy(
            &PathChoice {
                side: Side::G,
                kind: PathKind::Right,
            },
            "G-Right",
        );
    }

    #[test]
    fn const_heavy_matches_reference() {
        check_strategy(
            &PathChoice {
                side: Side::F,
                kind: PathKind::Heavy,
            },
            "Klein-H",
        );
        check_strategy(
            &PathChoice {
                side: Side::G,
                kind: PathKind::Heavy,
            },
            "G-Heavy",
        );
    }

    #[test]
    fn demaine_matches_reference() {
        check_strategy(&DemaineHeavy, "Demaine-H");
    }

    #[test]
    fn optimal_strategy_matches_reference() {
        for (a, b) in CASES {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let want = reference_ted(&f, &g, &UnitCost);
            let strat = optimal_strategy(&f, &g);
            let mut exec = Executor::new(&f, &g, &UnitCost);
            let got = exec.run(&strat);
            assert_eq!(got, want, "RTED: {a} vs {b}");
        }
    }

    #[test]
    fn all_subtree_pairs_filled_and_match_zs() {
        for (a, b) in CASES {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let strat = optimal_strategy(&f, &g);
            let mut exec = Executor::new(&f, &g, &UnitCost);
            exec.run(&strat);
            let zs = zhang_shasha(&f, &g, &UnitCost, false);
            for v in f.nodes() {
                for w in g.nodes() {
                    let want = zs.subtree_distance(v.0 + 1, w.0 + 1, g.len() as u32);
                    let got = exec.subtree_distance(v, w);
                    assert_eq!(got, want, "{a} vs {b}, pair ({v},{w})");
                }
            }
        }
    }

    #[test]
    fn measured_subproblems_match_strategy_cost() {
        use crate::strategy::{compute_strategy, FixedChooser};
        for (a, b) in CASES {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            for choice in PathChoice::ALL {
                let predicted = compute_strategy(&f, &g, &FixedChooser(choice)).cost;
                let mut exec = Executor::new(&f, &g, &UnitCost);
                exec.run(&choice);
                assert_eq!(
                    exec.stats.subproblems, predicted,
                    "{a} vs {b}, strategy {choice}"
                );
            }
            // And for the optimal strategy.
            let strat = optimal_strategy(&f, &g);
            let mut exec = Executor::new(&f, &g, &UnitCost);
            exec.run(&strat);
            assert_eq!(exec.stats.subproblems, strat.cost, "{a} vs {b}, RTED");
        }
    }
}
