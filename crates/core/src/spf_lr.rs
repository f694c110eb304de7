//! Single-path functions `∆L` and `∆R` (§4.3): the Zhang–Shasha keyroot DP
//! restricted to a single root-leaf path.
//!
//! `∆L(F, G, γL(F), D)` computes δ(F_v, G_w) for every node `v` on the
//! **left** path of `F` and every `w` in `G`, given that `D` already holds
//! the distances for all subtrees of `F` hanging off the path (GTED
//! recursed on them first). The A side is one keyroot, the whole subtree,
//! so this is the keyroot-pair loop of Zhang–Shasha with `i` fixed: one
//! [`keyroot::sheet`] of size `|F| × |G_j|` per left-keyroot `j` of `G`,
//! exactly `|F| × |F(G, Γ_L(G))|` relevant subproblems (Lemma 4). The
//! sheet's subtree distances live in the executor's `D`. `∆R` is the same
//! code on the mirrored orientation.

use crate::cost::CostModel;
use crate::gted::Executor;
use crate::keyroot::{self, Ranks, SheetHooks};
use crate::view::SubtreeView;
use rted_tree::NodeId;

/// Runs `∆L` (`right == false`) or `∆R` (`right == true`) for the A-side
/// subtree rooted at `a_root` against the B-side subtree at `b_root`.
///
/// `swapped` selects the orientation of the executor's cost/distance
/// accessors (true when the A side is the original right-hand tree).
pub(crate) fn run<L, C: CostModel<L>>(
    exec: &mut Executor<'_, L, C>,
    a_root: NodeId,
    b_root: NodeId,
    swapped: bool,
    right: bool,
) {
    let va = SubtreeView::new(exec.tree_a(swapped), a_root, right);
    let vb = SubtreeView::new(exec.tree_b(swapped), b_root, right);
    // Scratch comes from the workspace and is handed back below, so
    // repeat executions allocate nothing.
    let mut s = std::mem::take(&mut exec.scratch().keyroot);
    s.a.load(&va, |a| exec.del_a(a, swapped));
    s.b.load(&vb, |b| exec.ins_b(b, swapped));
    vb.keyroots_into(&mut s.b.keyroots);

    let mut hooks = Oriented {
        exec,
        a: &s.a,
        b: &s.b,
        swapped,
        right,
    };
    let (fd, rows) = (&mut s.fd, &mut s.rows);
    for &j in &s.b.keyroots {
        let (cells, _) = keyroot::sheet(&mut hooks, &s.a, &s.b, (va.n, j), None, fd, rows);
        hooks.exec.stats.subproblems += cells;
    }
    exec.scratch().keyroot = s;
}

/// The single-path functions' sheet hooks: costs and subtree distances
/// through the executor's orientation-aware accessors.
struct Oriented<'e, 'a, L, C> {
    exec: &'e mut Executor<'a, L, C>,
    a: &'e Ranks,
    b: &'e Ranks,
    swapped: bool,
    right: bool,
}

impl<L, C: CostModel<L>> SheetHooks for Oriented<'_, '_, L, C> {
    #[inline]
    fn rename(&self, x: u32, y: u32) -> f64 {
        let (a, b) = (self.a.node[x as usize], self.b.node[y as usize]);
        self.exec.ren_ab(a, b, self.swapped)
    }

    /// The row's oriented `D` entries as one contiguous slice (see
    /// [`Executor::d_row`]). Entries this sheet has yet to write are unset
    /// and never read.
    #[inline]
    fn td_row<'s>(&'s self, x: u32, lj: u32, j: u32, buf: &'s mut Vec<f64>) -> &'s [f64] {
        let bs = &self.b.node[lj as usize..=j as usize];
        let a = self.a.node[x as usize];
        self.exec.d_row(a, bs, self.swapped, !self.right, buf)
    }

    #[inline]
    fn set_td(&mut self, x: u32, y: u32, v: f64) {
        let (a, b) = (self.a.node[x as usize], self.b.node[y as usize]);
        self.exec.d_set(a, b, self.swapped, v);
    }
}
