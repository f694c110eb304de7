//! The classic Zhang–Shasha algorithm (SIAM J. Comput. 1989) — the paper's
//! `Zhang-L` baseline — and its mirrored variant `Zhang-R`.
//!
//! Zhang–Shasha is the GTED instance whose strategy maps every subtree pair
//! to the left (resp. right) root-leaf path of the first tree. Instead of
//! going through the executor, it runs the keyroot-pair loop directly: one
//! keyroot sheet (`keyroot.rs`) per pair of keyroots, over a view-local
//! subtree distance matrix, the way the paper's optimized baseline does. The
//! bounded verifier runs the same loop inside a band. It is used both as a
//! baseline in the benchmarks and as a trusted second implementation in the
//! test suite (validated against the recursive reference, then used to
//! validate GTED on larger inputs).

use crate::cell::{with_cells, Cell, Scale};
use crate::cost::CostModel;
use crate::keyroot::{self, Band, Ranks, SheetHooks};
use crate::view::SubtreeView;
use crate::workspace::Workspace;
use rted_tree::Tree;

/// Result of a Zhang–Shasha run.
#[derive(Debug, Clone)]
pub struct ZsResult {
    /// The tree edit distance.
    pub distance: f64,
    /// Number of relevant subproblems computed (forest-pair DP cells).
    pub subproblems: u64,
    /// `(n_F + 1) × (n_G + 1)` matrix of subtree distances in **view-local**
    /// ranks: `td[x * (n_G + 1) + y]` is the distance between the subtrees
    /// rooted at local ranks `x` and `y` (1-based; row/column 0 unused).
    pub td: Vec<f64>,
}

impl ZsResult {
    /// Distance between the subtrees rooted at local ranks `x` and `y`.
    #[inline]
    pub fn subtree_distance(&self, x: u32, y: u32, ng: u32) -> f64 {
        self.td[(x * (ng + 1) + y) as usize]
    }
}

/// The exact number of cells Zhang–Shasha computes on `(f, g)` with left
/// (`right = false`) or right paths: `|F(F, Γ)| · |F(G, Γ)|`, from the
/// root counts of Lemma 3 in one allocation-free O(|F| + |G|) pass.
pub fn keyroot_cells<L>(f: &Tree<L>, g: &Tree<L>, right: bool) -> u64 {
    relevant_forests(f, right).saturating_mul(relevant_forests(g, right))
}

/// The Zhang–Shasha side with fewer cells on `(f, g)` — `true` for right
/// paths, left on ties — and its cell count.
pub(crate) fn cheaper_side<L>(f: &Tree<L>, g: &Tree<L>) -> (bool, u64) {
    let left = keyroot_cells(f, g, false);
    let right = keyroot_cells(f, g, true);
    if right < left {
        (true, right)
    } else {
        (false, left)
    }
}

/// `|F(T, Γ_L)|` (`Γ_R` when `right`): the sizes of the keyroot subtrees
/// summed, i.e. of the root and of every node whose leftmost (rightmost)
/// leaf differs from its parent's.
fn relevant_forests<L>(t: &Tree<L>, right: bool) -> u64 {
    let leaf = |v| if right { t.rld(v) } else { t.lld(v) };
    t.nodes()
        .filter(|&v| t.parent(v).map_or(true, |p| leaf(v) != leaf(p)))
        .map(|v| u64::from(t.size(v)))
        .sum()
}

/// Runs Zhang–Shasha with left paths (`right = false`, the classic
/// algorithm) or right paths (`right = true`, its mirror).
pub fn zhang_shasha<L, C: CostModel<L>>(f: &Tree<L>, g: &Tree<L>, cm: &C, right: bool) -> ZsResult {
    let mut ws = Workspace::new();
    with_cells!(f, g, cm, |sc| {
        let (distance, subproblems) = zhang_shasha_in(f, g, cm, right, &mut ws, sc);
        ZsResult {
            distance: sc.real(distance),
            subproblems,
            td: Cell::bufs(&mut ws).d.iter().map(|&x| sc.real(x)).collect(),
        }
    })
}

/// The Zhang–Shasha kernel on `T` cells, drawing all buffers from `ws`
/// (allocation-free once the workspace is warm). The subtree-distance
/// matrix is left in the workspace's `d` in the `(n_F + 1) × (n_G + 1)`
/// view-local layout of [`ZsResult`].
pub(crate) fn zhang_shasha_in<L, C: CostModel<L>, T: Cell>(
    f: &Tree<L>,
    g: &Tree<L>,
    cm: &C,
    right: bool,
    ws: &mut Workspace,
    sc: Scale<T>,
) -> (T, u64) {
    let b = T::bufs(ws);
    b.ftab.rebuild(f, cm, sc);
    b.gtab.rebuild(g, cm, sc);
    let (distance, cells, _) = keyroot_pairs(f, g, cm, right, None, ws, sc, |_, _, _, _| true);
    (distance, cells)
}

/// The keyroot-pair loop: one sheet per A-keyroot × B-keyroot pair, in
/// ascending order, so every subtree distance a sheet reads was written
/// by an earlier one. The workspace's `T` cost tables must hold `f`'s and
/// `g`'s costs. `root_row` sees the rows of the root pair's sheet, the
/// last one, and may abandon the run. Returns the root pair's distance,
/// the cells computed and whether the run completed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn keyroot_pairs<L, C, T, R>(
    f: &Tree<L>,
    g: &Tree<L>,
    cm: &C,
    right: bool,
    band: Option<Band>,
    ws: &mut Workspace,
    sc: Scale<T>,
    root_row: R,
) -> (T, u64, bool)
where
    C: CostModel<L>,
    T: Cell,
    R: FnMut(u32, &[T], usize, usize) -> bool,
{
    let fv = SubtreeView::new(f, f.root(), right);
    let gv = SubtreeView::new(g, g.root(), right);
    let ws = T::bufs(ws);
    let (ftab, gtab, s) = (&ws.ftab, &ws.gtab, &mut ws.keyroot);
    s.a.load(&fv, |v| ftab.del[v.idx()]);
    s.b.load(&gv, |w| gtab.ins[w.idx()]);
    fv.keyroots_into(&mut s.a.keyroots);
    gv.keyroots_into(&mut s.b.keyroots);
    let (nf, ng) = (fv.n, gv.n);
    let stride = (ng + 1) as usize;
    let td = &mut ws.d;
    td.clear();
    // Pairs no sheet computes (row and column 0; with a band, the pairs
    // outside it) read as too expensive.
    td.resize((nf as usize + 1) * stride, T::INF);
    let mut hooks = Matrix {
        f,
        g,
        cm,
        sc,
        a: &s.a,
        b: &s.b,
        td,
        stride,
        root: false,
        root_row,
    };
    let mut cells = 0u64;
    let (fd, rows) = (&mut s.fd, &mut s.rows);
    for &i in &s.a.keyroots {
        for &j in &s.b.keyroots {
            hooks.root = i == nf && j == ng;
            let (n, done) = keyroot::sheet(&mut hooks, &s.a, &s.b, (i, j), band, fd, rows);
            cells += n;
            if !done {
                return (T::INF, cells, false);
            }
        }
    }
    (hooks.td[nf as usize * stride + ng as usize], cells, true)
}

/// Zhang–Shasha's sheet hooks: renames by label, subtree distances in the
/// view-local matrix `td`.
struct Matrix<'a, L, C, T, R> {
    f: &'a Tree<L>,
    g: &'a Tree<L>,
    cm: &'a C,
    sc: Scale<T>,
    a: &'a Ranks<T>,
    b: &'a Ranks<T>,
    td: &'a mut Vec<T>,
    stride: usize,
    /// Whether the root pair's sheet is running.
    root: bool,
    root_row: R,
}

impl<L, C, T, R> SheetHooks<T> for Matrix<'_, L, C, T, R>
where
    C: CostModel<L>,
    T: Cell,
    R: FnMut(u32, &[T], usize, usize) -> bool,
{
    #[inline]
    fn rename(&self, x: u32, y: u32) -> T {
        let (v, w) = (self.a.node[x as usize], self.b.node[y as usize]);
        self.sc
            .cell(self.cm.rename(self.f.label(v), self.g.label(w)))
    }

    #[inline]
    fn td_row<'s>(&'s self, x: u32, lj: u32, _j: u32, _buf: &'s mut Vec<T>) -> &'s [T] {
        &self.td[x as usize * self.stride + lj as usize..]
    }

    #[inline]
    fn set_td(&mut self, x: u32, y: u32, v: T) {
        self.td[x as usize * self.stride + y as usize] = v;
    }

    #[inline]
    fn row_done(&mut self, x: u32, row: &[T], lo: usize, hi: usize) -> bool {
        !self.root || (self.root_row)(x, row, lo, hi)
    }
}

/// Convenience wrapper: the Zhang–Shasha (left) distance.
pub fn zs_distance<L, C: CostModel<L>>(f: &Tree<L>, g: &Tree<L>, cm: &C) -> f64 {
    zhang_shasha(f, g, cm, false).distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{PerLabelCost, UnitCost};
    use crate::reference::reference_ted;
    use rted_tree::parse_bracket;

    fn zs(a: &str, b: &str) -> f64 {
        let f = parse_bracket(a).unwrap();
        let g = parse_bracket(b).unwrap();
        zhang_shasha(&f, &g, &UnitCost, false).distance
    }

    #[test]
    fn basic_distances() {
        assert_eq!(zs("{a}", "{a}"), 0.0);
        assert_eq!(zs("{a}", "{b}"), 1.0);
        assert_eq!(zs("{a{b}{c}}", "{a{b}}"), 1.0);
        assert_eq!(zs("{a{b{c}{d}}}", "{a{c}{d}}"), 1.0);
        assert_eq!(zs("{r{a}{b}}", "{r{b}{a}}"), 2.0);
    }

    #[test]
    fn left_and_right_agree() {
        let cases = [
            ("{a{b}{c{d}}}", "{a{b{d}}{c}}"),
            ("{a{b{c}{d}}{e}}", "{x{y}{z{w{q}}}}"),
            ("{A{C}{B{G}{E{F}}{D}}}", "{A{B{D}{E{F}}}{C{G}}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let l = zhang_shasha(&f, &g, &UnitCost, false).distance;
            let r = zhang_shasha(&f, &g, &UnitCost, true).distance;
            assert_eq!(l, r, "{a} vs {b}");
        }
    }

    #[test]
    fn matches_reference_on_fixed_cases() {
        let cases = [
            ("{a{b}{c{d}}}", "{a{b{d}}{c}}"),
            ("{a{b{c}{d}}{e}}", "{x{y}{z{w{q}}}}"),
            ("{a{a}{a}{a}}", "{a{a{a}}}"),
            ("{r{a{x}}{b}}", "{r{a}{b{x}}}"),
            ("{A{C}{B{G}{E{F}}{D}}}", "{B{G}{E{F}}{D}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let want = reference_ted(&f, &g, &UnitCost);
            assert_eq!(
                zhang_shasha(&f, &g, &UnitCost, false).distance,
                want,
                "{a} {b}"
            );
            assert_eq!(
                zhang_shasha(&f, &g, &UnitCost, true).distance,
                want,
                "{a} {b}"
            );
        }
    }

    #[test]
    fn weighted_costs_match_reference() {
        let cm = PerLabelCost::new(1.5, 2.0, 0.75);
        let f = parse_bracket("{a{b{c}}{d}}").unwrap();
        let g = parse_bracket("{a{x}{d{c}}}").unwrap();
        let want = reference_ted(&f, &g, &cm);
        assert_eq!(zhang_shasha(&f, &g, &cm, false).distance, want);
        assert_eq!(zhang_shasha(&f, &g, &cm, true).distance, want);
    }

    #[test]
    fn subproblem_count_matches_keyroot_formula() {
        // #subproblems = |F(F,ΓL)| × |F(G,ΓL)| for the left variant.
        use rted_tree::counts::DecompCounts;
        let f = parse_bracket("{a{b{c}{d}}{e}}").unwrap();
        let g = parse_bracket("{A{C}{B{G}{E{F}}{D}}}").unwrap();
        let cf = DecompCounts::new(&f);
        let cg = DecompCounts::new(&g);
        let run = zhang_shasha(&f, &g, &UnitCost, false);
        assert_eq!(run.subproblems, cf.left_of(f.root()) * cg.left_of(g.root()));
        let run_r = zhang_shasha(&f, &g, &UnitCost, true);
        assert_eq!(
            run_r.subproblems,
            cf.right_of(f.root()) * cg.right_of(g.root())
        );
    }

    #[test]
    fn td_matrix_contains_subtree_distances() {
        let f = parse_bracket("{a{b{c}}{d}}").unwrap();
        let g = parse_bracket("{a{b}{d{c}}}").unwrap();
        let run = zhang_shasha(&f, &g, &UnitCost, false);
        // Left view local rank = postorder id + 1; check every subtree pair
        // against the reference.
        for v in f.nodes() {
            for w in g.nodes() {
                let sf = f.subtree(v);
                let sg = g.subtree(w);
                let want = reference_ted(&sf, &sg, &UnitCost);
                let got = run.subtree_distance(v.0 + 1, w.0 + 1, g.len() as u32);
                assert_eq!(got, want, "subtrees {v} {w}");
            }
        }
    }
}
