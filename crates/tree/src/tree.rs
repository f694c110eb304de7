//! The arena tree type and its derived per-node structure.

use crate::NONE;

/// Identifier of a tree node: the 0-based left-to-right postorder rank.
///
/// Postorder ids give every subtree a contiguous id range, which the edit
/// distance dynamic programs exploit heavily.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Error produced when flat postorder arrays do not describe a tree.
///
/// [`Tree::from_postorder_degrees`] returns it, so corrupt serialized data
/// is rejected instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTreeError {
    /// Human-readable description of the structural violation.
    pub message: String,
}

impl std::fmt::Display for FlatTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid flat postorder arrays: {}", self.message)
    }
}

impl std::error::Error for FlatTreeError {}

/// An ordered labeled tree.
///
/// All per-node arrays are indexed by postorder id ([`NodeId`]). The tree is
/// immutable after construction; every derived quantity used by the edit
/// distance algorithms is precomputed once in O(n).
#[derive(Debug, Clone)]
pub struct Tree<L> {
    labels: Vec<L>,
    parent: Vec<u32>,
    /// CSR offsets into `children`; length `n + 1`.
    children_off: Vec<u32>,
    /// Children of each node in left-to-right order, grouped per node.
    children: Vec<u32>,
    size: Vec<u32>,
    depth: Vec<u32>,
    /// Leftmost leaf descendant (`l(v)` in Zhang–Shasha).
    lld: Vec<u32>,
    /// Rightmost leaf descendant.
    rld: Vec<u32>,
    /// Mirror (right-to-left) postorder rank, 0-based.
    rpost: Vec<u32>,
    /// Inverse of `rpost`: node with mirror postorder rank `r`.
    by_rpost: Vec<u32>,
    /// Preorder rank, 0-based.
    pre: Vec<u32>,
    /// Heavy child: the child rooting the largest subtree (leftmost wins
    /// ties); `NONE` for leaves.
    heavy: Vec<u32>,
}

impl<L> Tree<L> {
    /// Builds a tree from its postorder encoding: one label and one child
    /// count (degree) per node, in postorder.
    ///
    /// This is the only constructor: parsers, builders, generators and the
    /// corpus decoder all produce these two arrays. It is the inverse of
    /// [`postorder_degrees`](Self::postorder_degrees) and the canonical wire
    /// format for serialized trees: a node's children are the `degree` most
    /// recent complete subtrees, so the structure is recovered with a single
    /// stack pass. Malformed input is rejected with an error, which makes it
    /// safe to feed with untrusted bytes.
    pub fn from_postorder_degrees(
        post_labels: Vec<L>,
        degrees: &[u32],
    ) -> Result<Self, FlatTreeError> {
        let n = post_labels.len();
        if n == 0 {
            return Err(FlatTreeError {
                message: "tree must have at least one node".into(),
            });
        }
        if degrees.len() != n {
            return Err(FlatTreeError {
                message: format!("{n} labels but {} degrees", degrees.len()),
            });
        }
        // Stack of completed subtree roots, left-to-right: node `i`'s
        // children are exactly the top `degrees[i]` entries, in order. The
        // stack discipline makes children precede parents, gives every
        // non-root node one parent and every subtree a contiguous id range.
        let mut stack: Vec<u32> = Vec::with_capacity(n);
        let mut parent = vec![NONE; n];
        let mut children_off = Vec::with_capacity(n + 1);
        let mut children = Vec::with_capacity(n - 1);
        for (i, &d) in degrees.iter().enumerate() {
            let d = d as usize;
            if stack.len() < d {
                return Err(FlatTreeError {
                    message: format!(
                        "node {i} claims {d} children but only {} subtrees precede it",
                        stack.len()
                    ),
                });
            }
            children_off.push(children.len() as u32);
            let first = stack.len() - d;
            for &c in &stack[first..] {
                parent[c as usize] = i as u32;
            }
            children.extend_from_slice(&stack[first..]);
            stack.truncate(first);
            stack.push(i as u32);
        }
        children_off.push(children.len() as u32);
        if stack.len() != 1 {
            return Err(FlatTreeError {
                message: format!("input is a forest of {} trees, not one tree", stack.len()),
            });
        }
        let mut t = Tree {
            labels: post_labels,
            parent,
            children_off,
            children,
            size: vec![0; n],
            depth: vec![0; n],
            lld: vec![0; n],
            rld: vec![0; n],
            rpost: vec![0; n],
            by_rpost: vec![0; n],
            pre: vec![0; n],
            heavy: vec![NONE; n],
        };
        t.compute_derived();
        Ok(t)
    }

    /// The degree (child count) of every node, in postorder.
    ///
    /// Together with the postorder label sequence this fully determines the
    /// tree shape — see [`from_postorder_degrees`](Self::from_postorder_degrees).
    pub fn postorder_degrees(&self) -> Vec<u32> {
        (0..self.len())
            .map(|v| self.children_off[v + 1] - self.children_off[v])
            .collect()
    }

    fn compute_derived(&mut self) {
        let n = self.len();
        // Sizes, leaf descendants, heavy child: children precede parents in
        // postorder, so a single ascending pass suffices.
        let Tree {
            children,
            children_off,
            size,
            lld,
            rld,
            heavy,
            ..
        } = self;
        for v in 0..n {
            let ch = &children[children_off[v] as usize..children_off[v + 1] as usize];
            match (ch.first(), ch.last()) {
                (Some(&first), Some(&last)) => {
                    let mut sz = 1u32;
                    let mut best = first;
                    for &c in ch {
                        sz += size[c as usize];
                        if size[c as usize] > size[best as usize] {
                            best = c;
                        }
                    }
                    size[v] = sz;
                    lld[v] = lld[first as usize];
                    rld[v] = rld[last as usize];
                    heavy[v] = best;
                }
                _ => {
                    size[v] = 1;
                    lld[v] = v as u32;
                    rld[v] = v as u32;
                }
            }
        }
        // Depth, preorder and mirror postorder via explicit DFS from the root.
        let root = (n - 1) as u32;
        let mut pre_rank = 0u32;
        let mut rpost_rank = 0u32;
        // Stack entries: (node, next child position in right-to-left order).
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        self.depth[root as usize] = 0;
        // Preorder with children visited left-to-right.
        let mut pstack: Vec<u32> = vec![root];
        while let Some(v) = pstack.pop() {
            self.pre[v as usize] = pre_rank;
            pre_rank += 1;
            let (lo, hi) = (
                self.children_off[v as usize] as usize,
                self.children_off[v as usize + 1] as usize,
            );
            for i in (lo..hi).rev() {
                let c = self.children[i];
                self.depth[c as usize] = self.depth[v as usize] + 1;
                pstack.push(c);
            }
        }
        // Mirror postorder: children right-to-left, node after its children.
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let ch = self.children_range(v as usize);
            if *i < ch.len() {
                let c = ch[ch.len() - 1 - *i];
                *i += 1;
                stack.push((c, 0));
            } else {
                self.rpost[v as usize] = rpost_rank;
                self.by_rpost[rpost_rank as usize] = v;
                rpost_rank += 1;
                stack.pop();
            }
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` iff the tree consists of a single node. Trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node (always the last postorder id).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId((self.len() - 1) as u32)
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> &L {
        &self.labels[v.idx()]
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.idx()];
        (p != NONE).then_some(NodeId(p))
    }

    #[inline]
    fn children_range(&self, v: usize) -> &[u32] {
        &self.children[self.children_off[v] as usize..self.children_off[v + 1] as usize]
    }

    /// Children of `v` in left-to-right order.
    #[inline]
    pub fn children(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.children_range(v.idx()).iter().map(|&c| NodeId(c))
    }

    /// Number of children of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.children_range(v.idx()).len()
    }

    /// `true` iff `v` has no children.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.degree(v) == 0
    }

    /// Size of the subtree rooted at `v`.
    #[inline]
    pub fn size(&self, v: NodeId) -> u32 {
        self.size[v.idx()]
    }

    /// Depth of `v` (root has depth 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.idx()]
    }

    /// Leftmost leaf descendant of `v` (Zhang–Shasha's `l(v)`).
    #[inline]
    pub fn lld(&self, v: NodeId) -> NodeId {
        NodeId(self.lld[v.idx()])
    }

    /// Rightmost leaf descendant of `v`.
    #[inline]
    pub fn rld(&self, v: NodeId) -> NodeId {
        NodeId(self.rld[v.idx()])
    }

    /// Mirror (right-to-left) postorder rank of `v`, 0-based.
    #[inline]
    pub fn rpost(&self, v: NodeId) -> u32 {
        self.rpost[v.idx()]
    }

    /// Node with mirror postorder rank `r`.
    #[inline]
    pub fn by_rpost(&self, r: u32) -> NodeId {
        NodeId(self.by_rpost[r as usize])
    }

    /// Preorder rank of `v`, 0-based.
    #[inline]
    pub fn preorder(&self, v: NodeId) -> u32 {
        self.pre[v.idx()]
    }

    /// Heavy child of `v`: the child rooting the largest subtree (leftmost
    /// wins ties), or `None` for leaves.
    #[inline]
    pub fn heavy_child(&self, v: NodeId) -> Option<NodeId> {
        let h = self.heavy[v.idx()];
        (h != NONE).then_some(NodeId(h))
    }

    /// First (postorder-smallest) node of the subtree rooted at `v`.
    ///
    /// The subtree of `v` occupies the contiguous postorder id range
    /// `[subtree_first(v), v]`.
    #[inline]
    pub fn subtree_first(&self, v: NodeId) -> NodeId {
        NodeId(v.0 + 1 - self.size[v.idx()])
    }

    /// `true` iff `x` lies in the subtree rooted at `v` (including `v`).
    #[inline]
    pub fn in_subtree(&self, x: NodeId, v: NodeId) -> bool {
        self.subtree_first(v) <= x && x <= v
    }

    /// All node ids in postorder (`0..n`).
    #[inline]
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// Nodes of the subtree rooted at `v`, in postorder.
    #[inline]
    pub fn subtree_nodes(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> {
        (self.subtree_first(v).0..v.0 + 1).map(NodeId)
    }

    /// Maximum node depth.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes().filter(|&v| self.is_leaf(v)).count()
    }

    /// Maximum fanout (degree) over all nodes.
    pub fn max_fanout(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Returns the mirrored tree (children reversed at every node).
    ///
    /// Node ids change: the node with mirror postorder rank `r` in `self`
    /// becomes node `r` of the result.
    pub fn mirrored(&self) -> Tree<L>
    where
        L: Clone,
    {
        // Mirror postorder with unchanged degrees: decoding takes each
        // node's children in the order they complete, right to left.
        let (labels, degrees): (Vec<L>, Vec<u32>) = (0..self.len() as u32)
            .map(|r| {
                let v = self.by_rpost(r);
                (self.label(v).clone(), self.degree(v) as u32)
            })
            .unzip();
        Self::rebuilt(labels, &degrees)
    }

    /// Extracts the subtree rooted at `v` as a standalone tree.
    pub fn subtree(&self, v: NodeId) -> Tree<L>
    where
        L: Clone,
    {
        let (labels, degrees): (Vec<L>, Vec<u32>) = self
            .subtree_nodes(v)
            .map(|u| (self.label(u).clone(), self.degree(u) as u32))
            .unzip();
        Self::rebuilt(labels, &degrees)
    }

    /// Maps labels through `f`, preserving structure.
    pub fn map_labels<M>(&self, f: impl FnMut(&L) -> M) -> Tree<M> {
        Tree::rebuilt(
            self.labels.iter().map(f).collect(),
            &self.postorder_degrees(),
        )
    }

    /// Decodes arrays taken from a well-formed tree.
    fn rebuilt(labels: Vec<L>, degrees: &[u32]) -> Self {
        Self::from_postorder_degrees(labels, degrees)
            .expect("postorder degrees read from a tree describe a tree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_bracket;

    fn t(s: &str) -> Tree<String> {
        parse_bracket(s).unwrap()
    }

    #[test]
    fn single_node() {
        let t = t("{a}");
        assert_eq!(t.len(), 1);
        assert_eq!(t.root(), NodeId(0));
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.size(t.root()), 1);
        assert_eq!(t.lld(t.root()), NodeId(0));
        assert_eq!(t.rpost(NodeId(0)), 0);
    }

    #[test]
    fn paper_example_tree() {
        // Figure 1 of the paper: root a with children b, d(->c), e.
        // Postorder: b=0, c=1, d=2, e=3, a=4.
        let t = t("{a{b}{d{c}}{e}}");
        assert_eq!(t.len(), 5);
        assert_eq!(t.label(NodeId(4)), "a");
        assert_eq!(t.label(NodeId(0)), "b");
        assert_eq!(t.label(NodeId(2)), "d");
        assert_eq!(t.size(NodeId(4)), 5);
        assert_eq!(t.size(NodeId(2)), 2);
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(2)));
        assert_eq!(t.parent(NodeId(4)), None);
        assert_eq!(t.lld(NodeId(4)), NodeId(0));
        assert_eq!(t.rld(NodeId(4)), NodeId(3));
        assert_eq!(t.lld(NodeId(2)), NodeId(1));
        // Heavy child of the root is d (subtree size 2).
        assert_eq!(t.heavy_child(NodeId(4)), Some(NodeId(2)));
        // Depths.
        assert_eq!(t.depth(NodeId(4)), 0);
        assert_eq!(t.depth(NodeId(1)), 2);
    }

    #[test]
    fn mirror_postorder() {
        // {a{b}{c}}: postorder b=0, c=1, a=2. Mirror postorder: c=0, b=1, a=2.
        let t = t("{a{b}{c}}");
        assert_eq!(t.rpost(NodeId(1)), 0); // c first in mirror order
        assert_eq!(t.rpost(NodeId(0)), 1);
        assert_eq!(t.rpost(NodeId(2)), 2);
        assert_eq!(t.by_rpost(0), NodeId(1));
    }

    #[test]
    fn mirrored_tree_roundtrip() {
        let t = t("{a{b{d}{e}}{c}}");
        let m = t.mirrored();
        assert_eq!(m.len(), t.len());
        // Mirror of mirror is the original structure.
        let mm = m.mirrored();
        for v in t.nodes() {
            assert_eq!(t.label(v), mm.label(v));
            assert_eq!(t.degree(v), mm.degree(v));
        }
        // Root label preserved; leftmost child of mirror is rightmost of t.
        assert_eq!(m.label(m.root()), "a");
        let first_child = m.children(m.root()).next().unwrap();
        assert_eq!(m.label(first_child), "c");
    }

    #[test]
    fn subtree_extraction() {
        let t = t("{a{b{d}{e}}{c}}");
        // Node with label b has postorder id 2 (d=0, e=1, b=2, c=3, a=4).
        let sub = t.subtree(NodeId(2));
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.label(sub.root()), "b");
        assert_eq!(sub.leaf_count(), 2);
    }

    #[test]
    fn subtree_range_and_membership() {
        let t = t("{a{b{d}{e}}{c}}");
        assert_eq!(t.subtree_first(NodeId(2)), NodeId(0));
        assert!(t.in_subtree(NodeId(1), NodeId(2)));
        assert!(!t.in_subtree(NodeId(3), NodeId(2)));
    }

    #[test]
    fn preorder_ranks() {
        // {a{b{d}{e}}{c}}: preorder a,b,d,e,c ; postorder d,e,b,c,a.
        let t = t("{a{b{d}{e}}{c}}");
        assert_eq!(t.preorder(NodeId(4)), 0); // a
        assert_eq!(t.preorder(NodeId(2)), 1); // b
        assert_eq!(t.preorder(NodeId(0)), 2); // d
        assert_eq!(t.preorder(NodeId(1)), 3); // e
        assert_eq!(t.preorder(NodeId(3)), 4); // c
    }

    #[test]
    fn degree_roundtrip() {
        for s in ["{a}", "{a{b}{c}}", "{a{b{d}{e}}{c}}", "{a{b}{d{c}}{e}}"] {
            let t = t(s);
            let labels: Vec<String> = t.nodes().map(|v| t.label(v).clone()).collect();
            let degrees = t.postorder_degrees();
            let back = Tree::from_postorder_degrees(labels, &degrees).unwrap();
            assert_eq!(crate::parse::to_bracket(&back), s);
        }
    }

    #[test]
    fn degree_decode_rejects_malformed() {
        // Empty input.
        assert!(Tree::<u8>::from_postorder_degrees(vec![], &[]).is_err());
        // Length mismatch.
        assert!(Tree::from_postorder_degrees(vec![1u8, 2], &[0]).is_err());
        // Node 0 cannot have a child (nothing precedes it).
        assert!(Tree::from_postorder_degrees(vec![1u8, 2], &[1, 1]).is_err());
        // Forest: two completed subtrees left on the stack.
        assert!(Tree::from_postorder_degrees(vec![1u8, 2], &[0, 0]).is_err());
    }
}
