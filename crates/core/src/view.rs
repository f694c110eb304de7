//! Orientation views over subtrees.
//!
//! The left-path and right-path machinery (Zhang–Shasha keyroot DPs, the
//! `∆L`/`∆R` single-path functions) are a single algorithm parameterized by
//! orientation: the right variant is the left variant run on the mirrored
//! tree. A [`SubtreeView`] exposes a subtree in either orientation through
//! one coordinate system — local ranks `1..=n` in (mirror) postorder — so
//! the DP code is written once.

use rted_tree::{NodeId, Tree};

/// A subtree of a tree viewed in left-to-right (`Left`) or right-to-left
/// (`Right`) postorder coordinates.
///
/// Local ranks are 1-based: rank `n` is the subtree root. In the `Left`
/// orientation rank order is postorder and `lml` is the leftmost leaf; in
/// the `Right` orientation rank order is mirror postorder and `lml` is the
/// rightmost leaf (the "leftmost" of the mirrored tree).
#[derive(Clone, Copy)]
pub(crate) struct SubtreeView<'a, L> {
    pub tree: &'a Tree<L>,
    /// Subtree size.
    pub n: u32,
    /// Global rank of local rank 1.
    base: u32,
    right: bool,
}

impl<'a, L> SubtreeView<'a, L> {
    /// Creates a view of the subtree rooted at `root`.
    pub fn new(tree: &'a Tree<L>, root: NodeId, right: bool) -> Self {
        let n = tree.size(root);
        let base = if right {
            tree.rpost(root) + 1 - n
        } else {
            root.0 + 1 - n
        };
        SubtreeView {
            tree,
            n,
            base,
            right,
        }
    }

    /// Node at local rank `r` (1-based).
    #[inline]
    pub fn node(&self, r: u32) -> NodeId {
        debug_assert!((1..=self.n).contains(&r));
        if self.right {
            self.tree.by_rpost(self.base + r - 1)
        } else {
            NodeId(self.base + r - 1)
        }
    }

    /// Local rank of node `v` (must lie in the subtree).
    #[inline]
    pub fn local(&self, v: NodeId) -> u32 {
        if self.right {
            self.tree.rpost(v) - self.base + 1
        } else {
            v.0 - self.base + 1
        }
    }

    /// Local rank of the view-leftmost leaf descendant of the node at local
    /// rank `r` (Zhang–Shasha's `l()` in view coordinates).
    #[inline]
    pub fn lml(&self, r: u32) -> u32 {
        self.local(self.leaf(self.node(r)))
    }

    /// The view-leftmost leaf descendant of `v`.
    #[inline]
    fn leaf(&self, v: NodeId) -> NodeId {
        if self.right {
            self.tree.rld(v)
        } else {
            self.tree.lld(v)
        }
    }

    /// Subtree size of the node at local rank `r`.
    #[cfg(test)]
    pub fn size(&self, r: u32) -> u32 {
        self.tree.size(self.node(r))
    }

    /// Keyroots of the subtree in this orientation, as ascending local
    /// ranks: the subtree root plus every node with a view-left sibling.
    ///
    /// These are exactly the roots of `T(F, Γ)` for the recursive
    /// left-path (resp. right-path) decomposition, so
    /// `Σ_{k ∈ keyroots} size(k) = |F(F, Γ_L)|` (resp. `Γ_R`).
    #[cfg(test)]
    pub fn keyroots(&self) -> Vec<u32> {
        let mut kr = Vec::new();
        self.keyroots_into(&mut kr);
        kr
    }

    /// [`keyroots`](Self::keyroots) writing into a caller-owned buffer
    /// (cleared first), so hot loops can reuse one allocation.
    pub fn keyroots_into(&self, kr: &mut Vec<u32>) {
        // A non-root node is a keyroot iff it is not the view-first child
        // of its parent, i.e. its view-leftmost leaf differs from the
        // parent's.
        kr.clear();
        kr.extend((1..self.n).filter(|&r| {
            let v = self.node(r);
            let p = self
                .tree
                .parent(v)
                .expect("non-root subtree node has a parent");
            self.leaf(v) != self.leaf(p)
        }));
        kr.push(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rted_tree::counts::DecompCounts;
    use rted_tree::parse_bracket;

    #[test]
    fn left_view_is_identity() {
        let t = parse_bracket("{a{b{c}{d}}{e}}").unwrap();
        let v = SubtreeView::new(&t, t.root(), false);
        for r in 1..=v.n {
            assert_eq!(v.node(r).0, r - 1);
            assert_eq!(v.local(v.node(r)), r);
        }
        assert_eq!(v.lml(v.n), 1); // leftmost leaf of the root is node 0
    }

    #[test]
    fn right_view_mirrors() {
        // {a{b}{c}}: mirror postorder c, b, a.
        let t = parse_bracket("{a{b}{c}}").unwrap();
        let v = SubtreeView::new(&t, t.root(), true);
        assert_eq!(t.label(v.node(1)), "c");
        assert_eq!(t.label(v.node(2)), "b");
        assert_eq!(t.label(v.node(3)), "a");
        assert_eq!(v.lml(3), 1); // rightmost leaf c
    }

    #[test]
    fn keyroot_sizes_match_decomposition_counts() {
        for s in [
            "{a{b{c}{d}}{e}}",
            "{A{C}{B{G}{E{F}}{D}}}",
            "{a{b{c{d{e}}}}}",
            "{a{b}{c}{d}{e}}",
        ] {
            let t = parse_bracket(s).unwrap();
            let counts = DecompCounts::new(&t);
            for root in t.nodes() {
                let lv = SubtreeView::new(&t, root, false);
                let sum: u64 = lv.keyroots().iter().map(|&k| lv.size(k) as u64).sum();
                assert_eq!(sum, counts.left_of(root), "left, tree {s}, root {root}");
                let rv = SubtreeView::new(&t, root, true);
                let sum: u64 = rv.keyroots().iter().map(|&k| rv.size(k) as u64).sum();
                assert_eq!(sum, counts.right_of(root), "right, tree {s}, root {root}");
            }
        }
    }

    #[test]
    fn subtree_views_use_local_ranks() {
        let t = parse_bracket("{a{b{c}{d}}{e}}").unwrap();
        // Subtree at b = postorder id 2 (c=0,d=1,b=2).
        let v = SubtreeView::new(&t, NodeId(2), false);
        assert_eq!(v.n, 3);
        assert_eq!(t.label(v.node(1)), "c");
        assert_eq!(t.label(v.node(3)), "b");
        let rv = SubtreeView::new(&t, NodeId(2), true);
        assert_eq!(t.label(rv.node(1)), "d");
    }
}
