//! Synthetic tree shapes of the paper's evaluation (Fig. 7).
//!
//! The shapes are adversarial for specific decomposition strategies:
//!
//! * **left branch (LB)** — a left-leaning caterpillar: every spine node
//!   has the next spine node as its *leftmost* child and a leaf to the
//!   right. Zhang-L is optimal; Zhang-R degenerates (Theorem 2's Ω(n³)
//!   instance pairs LB with RB);
//! * **right branch (RB)** — the mirror image; Zhang-R is optimal;
//! * **full binary (FB)** — both Zhang variants are optimal, Demaine-H
//!   computes asymptotically more subproblems (its `∆I` pays for the full
//!   decomposition of the second tree);
//! * **zig-zag (ZZ)** — spine alternating sides; Demaine-H is optimal;
//! * **mixed (MX)** — quarters of all four shapes under one root: no fixed
//!   strategy is good everywhere in the tree;
//! * **random** — random attachment with the paper's bounds (max depth 15,
//!   max fanout 6).
//!
//! All generators are deterministic in `(n, seed)` and produce exactly `n`
//! nodes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rted_tree::Tree;

/// Default label alphabet size: small enough that equal labels are common,
/// matching the paper's synthetic setup where renames are frequently free.
pub const DEFAULT_ALPHABET: u32 = 8;

/// The six synthetic shapes of Fig. 7 (plus bounded-random).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Left-leaning caterpillar (`LB`).
    LeftBranch,
    /// Right-leaning caterpillar (`RB`).
    RightBranch,
    /// Complete binary tree (`FB`).
    FullBinary,
    /// Alternating caterpillar (`ZZ`).
    ZigZag,
    /// Quarters of LB/RB/FB/ZZ under a common root (`MX`).
    Mixed,
    /// Random attachment, depth ≤ 15, fanout ≤ 6 (`Random`).
    Random,
}

impl Shape {
    /// All shapes, in the paper's order.
    pub const ALL: [Shape; 6] = [
        Shape::LeftBranch,
        Shape::RightBranch,
        Shape::FullBinary,
        Shape::ZigZag,
        Shape::Random,
        Shape::Mixed,
    ];

    /// Short name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Shape::LeftBranch => "LB",
            Shape::RightBranch => "RB",
            Shape::FullBinary => "FB",
            Shape::ZigZag => "ZZ",
            Shape::Mixed => "MX",
            Shape::Random => "Random",
        }
    }

    /// Generates a tree with exactly `n` nodes (`n ≥ 1`); labels are drawn
    /// from [`DEFAULT_ALPHABET`] with the given `seed`.
    pub fn generate(self, n: usize, seed: u64) -> Tree<u32> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000);
        let t = self.generate_structure(n, &mut rng);
        relabel_random(&t, DEFAULT_ALPHABET, seed)
    }

    /// Generates only the structure (labels all zero).
    pub fn generate_structure(self, n: usize, rng: &mut StdRng) -> Tree<u32> {
        assert!(n >= 1);
        match self {
            Shape::LeftBranch => branch_tree(n, false),
            Shape::RightBranch => branch_tree(n, true),
            Shape::FullBinary => complete_binary(n),
            Shape::ZigZag => zigzag(n),
            Shape::Mixed => mixed(n),
            Shape::Random => random_tree(n, 15, 6, rng),
        }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Flat adjacency under construction (root id 0, children left to right);
/// converted to a postorder tree once.
pub(crate) struct Adj {
    children: Vec<Vec<u32>>,
}

impl Adj {
    pub(crate) fn with_root() -> Adj {
        Adj {
            children: vec![Vec::new()],
        }
    }

    pub(crate) fn add_child(&mut self, parent: u32) -> u32 {
        let id = self.children.len() as u32;
        self.children.push(Vec::new());
        self.children[parent as usize].push(id);
        id
    }

    /// Converts to a [`Tree`] with all labels zero.
    pub(crate) fn into_tree(self) -> Tree<u32> {
        self.into_labelled(|_| 0)
    }

    /// Converts to a [`Tree`] whose node `v` (in insertion order) carries
    /// `label(v)`: an iterative postorder walk that emits each node's
    /// label and child count.
    fn into_labelled<L>(self, label: impl Fn(u32) -> L) -> Tree<L> {
        let n = self.children.len();
        let mut labels: Vec<L> = Vec::with_capacity(n);
        let mut degrees: Vec<u32> = Vec::with_capacity(n);
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let ch = &self.children[v as usize];
            if *i < ch.len() {
                let c = ch[*i];
                *i += 1;
                stack.push((c, 0));
            } else {
                labels.push(label(v));
                degrees.push(ch.len() as u32);
                stack.pop();
            }
        }
        Tree::from_postorder_degrees(labels, &degrees)
            .expect("a postorder walk of an adjacency emits a tree's degrees")
    }
}

/// Builds a tree from random-attachment choices: node `i` (insertion
/// order, `i ≥ 1`) becomes the next child of node `choices[i-1] % i`, and
/// node `i` carries `labels[i]`. Every ordered tree shape with
/// `labels.len()` nodes is reachable, and every choice vector gives a
/// valid tree, which makes this the generator for property tests.
///
/// # Panics
///
/// Panics if `labels` is empty or `choices` holds fewer than
/// `labels.len() - 1` entries.
pub fn tree_from_choices<L: Clone>(labels: &[L], choices: &[u32]) -> Tree<L> {
    let mut adj = Adj::with_root();
    for i in 1..labels.len() {
        adj.add_child(choices[i - 1] % i as u32);
    }
    adj.into_labelled(|v| labels[v as usize].clone())
}

/// Caterpillar: spine node has `[spine, leaf]` children (left branch) or
/// `[leaf, spine]` (right branch).
fn branch_tree(n: usize, right: bool) -> Tree<u32> {
    let mut adj = Adj::with_root();
    let mut remaining = n - 1;
    let mut spine = 0u32;
    while remaining > 0 {
        if remaining == 1 {
            adj.add_child(spine);
            remaining -= 1;
        } else {
            // Add spine child and leaf in shape order.
            if right {
                adj.add_child(spine);
                spine = adj.add_child(spine);
            } else {
                let next = adj.add_child(spine);
                adj.add_child(spine);
                spine = next;
            }
            remaining -= 2;
        }
    }
    adj.into_tree()
}

/// Complete binary tree in heap layout (every level full except the last,
/// filled left to right).
fn complete_binary(n: usize) -> Tree<u32> {
    let mut adj = Adj {
        children: (0..n).map(|_| Vec::new()).collect(),
    };
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                adj.children[i].push(c as u32);
            }
        }
    }
    adj.into_tree()
}

/// Alternating caterpillar: the spine child alternates between the left
/// and right position at successive depths.
fn zigzag(n: usize) -> Tree<u32> {
    let mut adj = Adj::with_root();
    let mut remaining = n - 1;
    let mut spine = 0u32;
    let mut zig = false;
    while remaining > 0 {
        if remaining == 1 {
            adj.add_child(spine);
            remaining -= 1;
        } else {
            if zig {
                adj.add_child(spine);
                spine = adj.add_child(spine);
            } else {
                let next = adj.add_child(spine);
                adj.add_child(spine);
                spine = next;
            }
            zig = !zig;
            remaining -= 2;
        }
    }
    adj.into_tree()
}

/// Quarters of LB / RB / FB / ZZ under a common root.
fn mixed(n: usize) -> Tree<u32> {
    if n <= 5 {
        return branch_tree(n, false);
    }
    let part = (n - 1) / 4;
    let sizes = [part, part, part, n - 1 - 3 * part];
    let subs = [
        branch_tree(sizes[0].max(1), false),
        branch_tree(sizes[1].max(1), true),
        complete_binary(sizes[2].max(1)),
        zigzag(sizes[3].max(1)),
    ];
    // Graft the four subtrees under a new root.
    let mut degrees: Vec<u32> = Vec::with_capacity(n);
    for s in &subs {
        degrees.extend(s.postorder_degrees());
    }
    degrees.push(subs.len() as u32);
    Tree::from_postorder_degrees(vec![0; degrees.len()], &degrees)
        .expect("concatenated subtrees under one root form a tree")
}

/// Random attachment tree: each new node is attached to a uniformly random
/// existing node that still has depth < `max_depth` and fanout <
/// `max_fanout` (the paper's bounds are 15 and 6).
pub fn random_tree(n: usize, max_depth: u32, max_fanout: usize, rng: &mut StdRng) -> Tree<u32> {
    let mut adj = Adj::with_root();
    let mut depth = vec![0u32; 1];
    // Open slots: node ids eligible for more children.
    let mut open: Vec<u32> = vec![0];
    for _ in 1..n {
        let slot = rng.random_range(0..open.len());
        let parent = open[slot];
        let id = adj.add_child(parent);
        depth.push(depth[parent as usize] + 1);
        if adj.children[parent as usize].len() >= max_fanout {
            open.swap_remove(slot);
        }
        if depth[id as usize] < max_depth {
            open.push(id);
        }
        assert!(
            !open.is_empty(),
            "tree capacity exhausted: raise depth/fanout bounds"
        );
    }
    adj.into_tree()
}

/// Returns a copy of `tree` with labels drawn uniformly from
/// `[0, alphabet)`, deterministic in `seed`.
pub fn relabel_random(tree: &Tree<u32>, alphabet: u32, seed: u64) -> Tree<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_1234);
    tree.map_labels(|_| rng.random_range(0..alphabet))
}

/// Applies `k` random edits (relabels) to produce a near-duplicate of
/// `tree` — used to build similarity-join inputs with known-close pairs.
pub fn perturb_labels(tree: &Tree<u32>, k: usize, alphabet: u32, seed: u64) -> Tree<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut labels: Vec<u32> = tree.nodes().map(|v| *tree.label(v)).collect();
    for _ in 0..k {
        let i = rng.random_range(0..labels.len());
        labels[i] = rng.random_range(0..alphabet);
    }
    Tree::from_postorder_degrees(labels, &tree.postorder_degrees())
        .expect("a tree's own degrees describe a tree")
}

/// Structural statistics of a tree (used to validate the generators and to
/// report dataset profiles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeProfile {
    /// Node count.
    pub size: usize,
    /// Maximum depth.
    pub depth: u32,
    /// Average node depth.
    pub avg_depth: f64,
    /// Maximum fanout.
    pub max_fanout: usize,
    /// Number of leaves.
    pub leaves: usize,
}

/// Computes the [`TreeProfile`] of a tree.
pub fn profile<L>(tree: &Tree<L>) -> TreeProfile {
    let n = tree.len();
    let total_depth: u64 = tree.nodes().map(|v| tree.depth(v) as u64).sum();
    TreeProfile {
        size: n,
        depth: tree.max_depth(),
        avg_depth: total_depth as f64 / n as f64,
        max_fanout: tree.max_fanout(),
        leaves: tree.leaf_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choices_attach_in_insertion_order() {
        let bracket = |t: Tree<u8>| rted_tree::to_bracket(&t);
        assert_eq!(bracket(tree_from_choices(&[5], &[9])), "{5}");
        assert_eq!(bracket(tree_from_choices(&[0, 1, 2], &[0, 0])), "{0{1}{2}}");
        assert_eq!(bracket(tree_from_choices(&[0, 1, 2], &[4, 7])), "{0{1{2}}}");
        assert_eq!(
            bracket(tree_from_choices(&[0, 1, 2, 3], &[0, 2, 0])),
            "{0{1}{2}{3}}"
        );
    }

    #[test]
    fn exact_sizes() {
        for shape in Shape::ALL {
            for n in [1, 2, 3, 5, 10, 37, 100, 501] {
                let t = shape.generate(n, 42);
                assert_eq!(t.len(), n, "{shape} size {n}");
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        for shape in Shape::ALL {
            let a = shape.generate(64, 7);
            let b = shape.generate(64, 7);
            assert_eq!(
                rted_tree::to_bracket(&a.map_labels(|l| l.to_string())),
                rted_tree::to_bracket(&b.map_labels(|l| l.to_string()))
            );
        }
    }

    #[test]
    fn left_branch_structure() {
        // Odd n: every internal node has exactly two children; leftmost
        // child continues the spine; (n+1)/2 leaves; depth (n-1)/2.
        let t = Shape::LeftBranch.generate(21, 0);
        assert_eq!(t.leaf_count(), 11);
        assert_eq!(t.max_depth(), 10);
        // Leftmost leaf is at max depth: the spine is the left path.
        assert_eq!(t.depth(t.lld(t.root())), t.max_depth());
    }

    #[test]
    fn right_branch_is_mirror_of_left() {
        let l = Shape::LeftBranch.generate(33, 0);
        let r = Shape::RightBranch.generate(33, 0);
        let lm = l.mirrored();
        for v in lm.nodes() {
            assert_eq!(lm.degree(v), r.degree(v));
            assert_eq!(lm.size(v), r.size(v));
        }
    }

    #[test]
    fn full_binary_depth() {
        let t = Shape::FullBinary.generate(127, 0);
        assert_eq!(t.max_depth(), 6);
        assert_eq!(t.leaf_count(), 64);
    }

    #[test]
    fn zigzag_alternates() {
        let t = Shape::ZigZag.generate(41, 0);
        assert_eq!(t.max_depth(), 20);
        // Each spine node has two children, one a leaf.
        let p = profile(&t);
        assert_eq!(p.max_fanout, 2);
    }

    #[test]
    fn random_respects_bounds() {
        for seed in 0..5 {
            let t = Shape::Random.generate(400, seed);
            let p = profile(&t);
            assert!(p.depth <= 15, "depth {}", p.depth);
            assert!(p.max_fanout <= 6, "fanout {}", p.max_fanout);
        }
    }

    #[test]
    fn mixed_contains_four_parts() {
        let t = Shape::Mixed.generate(101, 0);
        assert_eq!(t.degree(t.root()), 4);
    }

    #[test]
    fn perturbed_tree_same_structure() {
        let t = Shape::Random.generate(50, 3);
        let p = perturb_labels(&t, 5, DEFAULT_ALPHABET, 9);
        assert_eq!(p.len(), t.len());
        for v in t.nodes() {
            assert_eq!(t.degree(v), p.degree(v));
        }
    }
}
