//! Lower bounds on the unit-cost tree edit distance.
//!
//! §7 of the paper surveys bounds (string edit distance on serializations,
//! binary branches, pq-grams) used to prune exact computations in
//! similarity joins. This module provides a family of cheap sound bounds,
//! unified under the [`LowerBound`] trait so similarity-search engines can
//! stage them into a filter pipeline (cheapest first):
//!
//! * **size bound** — `|‖F‖ − ‖G‖| ≤ TED(F, G)`: any mapping leaves at
//!   least the size difference unmapped;
//! * **depth bound** — `|depth(F) − depth(G)| ≤ TED(F, G)`: a delete moves
//!   the deleted node's descendants up one level, so the maximum depth
//!   changes by at most 1 per edit operation (inserts symmetrically, and
//!   renames not at all);
//! * **leaf bound** — `|leaves(F) − leaves(G)| ≤ TED(F, G)`: deleting a
//!   leaf removes one leaf but may turn its parent into a leaf, deleting
//!   an internal node splices its children in place — either way the leaf
//!   count changes by at most 1 per operation;
//! * **degree bound** — `|internal(F) − internal(G)| ≤ TED(F, G)` where
//!   `internal` counts nodes of degree ≥ 1: each operation creates or
//!   destroys at most one internal node;
//! * **label histogram bound** — `max(‖F‖, ‖G‖) − |hist(F) ∩ hist(G)| ≤
//!   TED(F, G)`: a mapping of `m` pairs with `r` renames costs
//!   `(‖F‖ − m) + (‖G‖ − m) + r`; since at most `|hist ∩|` pairs can be
//!   rename-free, the cost is at least `‖F‖ + ‖G‖ − m − |hist ∩|` ≥
//!   `max(‖F‖, ‖G‖) − |hist ∩|`.
//!
//! * **pq-gram bound** — `max(⌈Δ_pre/2p⌉, ⌈Δ_post/2q⌉) ≤ TED(F, G)` over
//!   the serialized pq-gram profiles of [`crate::pqgram`]: each tree edit
//!   is one string edit on either traversal, and one string edit perturbs
//!   at most `w` length-`w` grams — the only stage sensitive to label
//!   *arrangement*, not just label counts and shape statistics.
//!
//! All bounds are valid for any cost model whose deletes/inserts cost ≥ 1;
//! the histogram and pq-gram bounds additionally need renames of distinct
//! labels to cost ≥ 1 (both hold for [`crate::UnitCost`]).
//!
//! Every stage reads precomputed per-tree data from a [`TreeSketch`], so a
//! corpus can be analyzed once at build time and probed millions of times.

use crate::pqgram::{PqGramProfile, PqParams, PqScratch};
use rted_tree::Tree;
use std::collections::HashMap;

/// The size lower bound `|‖F‖ − ‖G‖|`.
#[inline]
pub fn size_lower_bound<L>(f: &Tree<L>, g: &Tree<L>) -> f64 {
    (f.len() as f64 - g.len() as f64).abs()
}

/// A label multiset, precomputed once per tree for repeated join probes.
#[derive(Debug, Clone)]
pub struct LabelHistogram<L> {
    counts: HashMap<L, u32>,
    size: usize,
}

impl<L: Eq + std::hash::Hash + Clone> LabelHistogram<L> {
    /// Builds the histogram of `tree`'s labels.
    pub fn new(tree: &Tree<L>) -> Self {
        let mut counts: HashMap<L, u32> = HashMap::with_capacity(tree.len());
        for v in tree.nodes() {
            *counts.entry(tree.label(v).clone()).or_insert(0) += 1;
        }
        LabelHistogram {
            counts,
            size: tree.len(),
        }
    }

    /// Rebuilds a histogram from stored `(label, count)` pairs, e.g. when
    /// loading a serialized corpus. The tree size is derived from the
    /// counts, so the histogram is consistent by construction; pairs with a
    /// zero count are dropped (they must never influence the intersection).
    ///
    /// Additions saturate instead of overflowing: the pairs may come from
    /// untrusted bytes, and a saturated total then fails the caller's
    /// `size() == n` consistency check rather than panicking here.
    pub fn from_counts(pairs: impl IntoIterator<Item = (L, u32)>) -> Self {
        let mut counts: HashMap<L, u32> = HashMap::new();
        let mut size = 0usize;
        for (label, count) in pairs {
            if count == 0 {
                continue;
            }
            size = size.saturating_add(count as usize);
            let slot = counts.entry(label).or_insert(0);
            *slot = slot.saturating_add(count);
        }
        LabelHistogram { counts, size }
    }

    /// Number of nodes in the underlying tree.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of distinct labels.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The `(label, count)` pairs, in arbitrary order. Serializers must
    /// impose their own canonical order (e.g. by interned label id) if they
    /// need deterministic output.
    pub fn counts(&self) -> impl Iterator<Item = (&L, u32)> {
        self.counts.iter().map(|(l, &c)| (l, c))
    }

    /// Size of the multiset intersection with `other`.
    pub fn intersection(&self, other: &LabelHistogram<L>) -> usize {
        // Iterate the smaller map.
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        small
            .iter()
            .map(|(l, &c)| c.min(large.get(l).copied().unwrap_or(0)) as usize)
            .sum()
    }

    /// The histogram lower bound between the two underlying trees.
    pub fn lower_bound(&self, other: &LabelHistogram<L>) -> f64 {
        let common = self.intersection(other);
        (self.size.max(other.size) - common) as f64
    }
}

/// The combined (max over all [`standard_bounds`] stages) lower bound.
pub fn lower_bound<L: Eq + std::hash::Hash + Clone>(f: &Tree<L>, g: &Tree<L>) -> f64 {
    let (sf, sg) = (TreeSketch::new(f), TreeSketch::new(g));
    // Hand-enumerated (no boxing) but must mirror standard_bounds();
    // `lower_bound_matches_standard_stages` guards against drift.
    LowerBound::<L>::bound(&SizeBound, &sf, &sg)
        .max(LowerBound::<L>::bound(&DepthBound, &sf, &sg))
        .max(LowerBound::<L>::bound(&LeafBound, &sf, &sg))
        .max(LowerBound::<L>::bound(&DegreeBound, &sf, &sg))
        .max(HistogramBound.bound(&sf, &sg))
        .max(LowerBound::<L>::bound(&PqGramBound, &sf, &sg))
}

/// Per-tree summary computed once in O(n), consumed by every
/// [`LowerBound`] stage. Corpus indexes build one sketch per tree at
/// insert time and never touch the tree again during filtering.
#[derive(Debug, Clone)]
pub struct TreeSketch<L> {
    /// Node count `‖T‖`.
    pub size: usize,
    /// Maximum node depth (root = 0).
    pub max_depth: u32,
    /// Number of leaves.
    pub leaves: usize,
    /// Number of internal (degree ≥ 1) nodes.
    pub internal: usize,
    /// Label multiset.
    pub histogram: LabelHistogram<L>,
    /// Serialized pq-gram profile (see [`crate::pqgram`]).
    pub pq: PqGramProfile,
}

impl<L: Eq + std::hash::Hash + Clone> TreeSketch<L> {
    /// Analyzes `tree` once, under the default pq-gram params.
    pub fn new(tree: &Tree<L>) -> Self {
        Self::with_pq(tree, PqParams::default(), &mut PqScratch::default())
    }

    /// [`new`](Self::new) with explicit pq-gram params, drawing profile
    /// scratch from `scratch` — the bulk path for corpus builds, which
    /// analyze thousands of trees through one reusable arena.
    pub fn with_pq(tree: &Tree<L>, params: PqParams, scratch: &mut PqScratch) -> Self {
        let leaves = tree.leaf_count();
        TreeSketch {
            size: tree.len(),
            max_depth: tree.max_depth(),
            leaves,
            internal: tree.len() - leaves,
            histogram: LabelHistogram::new(tree),
            pq: PqGramProfile::compute_in(tree, params, scratch),
        }
    }

    /// Reassembles a sketch from previously computed parts (a deserialized
    /// corpus entry), skipping the O(n) tree analysis.
    ///
    /// `internal` is derived from `size − leaves` rather than stored, and
    /// the histogram carries its own node count; callers loading untrusted
    /// data should verify `histogram.size() == size` and `leaves <= size`
    /// before trusting the bounds computed from the sketch.
    pub fn from_parts(
        size: usize,
        max_depth: u32,
        leaves: usize,
        histogram: LabelHistogram<L>,
        pq: PqGramProfile,
    ) -> Self {
        TreeSketch {
            size,
            max_depth,
            leaves,
            internal: size.saturating_sub(leaves),
            histogram,
            pq,
        }
    }
}

/// A sound lower bound on `TED(F, G)` computed from two [`TreeSketch`]es.
///
/// Implementations must guarantee `bound(f, g) ≤ TED(F, G)` for every tree
/// pair under any cost model with delete/insert costs ≥ 1 and (for
/// label-sensitive bounds) renames of distinct labels ≥ 1.
pub trait LowerBound<L> {
    /// Stage name used in filter statistics.
    fn name(&self) -> &'static str;

    /// The lower bound value for the pair of sketched trees.
    fn bound(&self, f: &TreeSketch<L>, g: &TreeSketch<L>) -> f64;
}

/// `|‖F‖ − ‖G‖|` — see module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeBound;

impl<L> LowerBound<L> for SizeBound {
    fn name(&self) -> &'static str {
        "size"
    }
    fn bound(&self, f: &TreeSketch<L>, g: &TreeSketch<L>) -> f64 {
        (f.size as f64 - g.size as f64).abs()
    }
}

/// `|depth(F) − depth(G)|` — see module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DepthBound;

impl<L> LowerBound<L> for DepthBound {
    fn name(&self) -> &'static str {
        "depth"
    }
    fn bound(&self, f: &TreeSketch<L>, g: &TreeSketch<L>) -> f64 {
        (f.max_depth as f64 - g.max_depth as f64).abs()
    }
}

/// `|leaves(F) − leaves(G)|` — see module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeafBound;

impl<L> LowerBound<L> for LeafBound {
    fn name(&self) -> &'static str {
        "leaf"
    }
    fn bound(&self, f: &TreeSketch<L>, g: &TreeSketch<L>) -> f64 {
        (f.leaves as f64 - g.leaves as f64).abs()
    }
}

/// `|internal(F) − internal(G)|` over degree-≥-1 nodes — see module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegreeBound;

impl<L> LowerBound<L> for DegreeBound {
    fn name(&self) -> &'static str {
        "degree"
    }
    fn bound(&self, f: &TreeSketch<L>, g: &TreeSketch<L>) -> f64 {
        (f.internal as f64 - g.internal as f64).abs()
    }
}

/// `max(‖F‖, ‖G‖) − |hist(F) ∩ hist(G)|` — see module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramBound;

impl<L: Eq + std::hash::Hash + Clone> LowerBound<L> for HistogramBound {
    fn name(&self) -> &'static str {
        "histogram"
    }
    fn bound(&self, f: &TreeSketch<L>, g: &TreeSketch<L>) -> f64 {
        f.histogram.lower_bound(&g.histogram)
    }
}

/// `max(⌈Δ_pre/2p⌉, ⌈Δ_post/2q⌉)` over the serialized pq-gram profiles —
/// see module docs and [`crate::pqgram`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PqGramBound;

impl<L> LowerBound<L> for PqGramBound {
    fn name(&self) -> &'static str {
        "pqgram"
    }
    fn bound(&self, f: &TreeSketch<L>, g: &TreeSketch<L>) -> f64 {
        f.pq.lower_bound(&g.pq)
    }
}

/// The standard filter staging: every bound, cheapest first. The histogram
/// and pq-gram bounds go last — they are the stages that are not O(1) per
/// pair (the pq-gram merge is O(n) over sorted arrays, cache-friendlier
/// than the histogram's hash probes but sensitive to more structure, so it
/// runs after the histogram has had its chance).
pub fn standard_bounds<L: Eq + std::hash::Hash + Clone>(
) -> Vec<Box<dyn LowerBound<L> + Send + Sync>> {
    vec![
        Box::new(SizeBound),
        Box::new(DepthBound),
        Box::new(LeafBound),
        Box::new(DegreeBound),
        Box::new(HistogramBound),
        Box::new(PqGramBound),
    ]
}

/// A trivial upper bound: delete all of `F`, insert all of `G` — except
/// the root pair can always be mapped, so `‖F‖ + ‖G‖ − 2 + [roots differ]`
/// bounds the unit-cost distance from above.
pub fn upper_bound<L: PartialEq>(f: &Tree<L>, g: &Tree<L>) -> f64 {
    let rename = if f.label(f.root()) == g.label(g.root()) {
        0.0
    } else {
        1.0
    };
    (f.len() + g.len()) as f64 - 2.0 + rename
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rted::ted;
    use rted_tree::parse_bracket;

    #[test]
    fn bounds_bracket_the_distance_on_samples() {
        let cases = [
            ("{a}", "{a}"),
            ("{a{b}{c}}", "{a{b}{c}}"),
            ("{a{b}{c}}", "{x{y}{z}}"),
            ("{a{b{c}{d}}{e}}", "{a{e}{b{c}{d}}}"),
            ("{a{a}{a}{a}{a}}", "{a{a{a{a{a}}}}}"),
            ("{a{b}}", "{c{d{e}{f}}{g}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let d = ted(&f, &g);
            let lo = lower_bound(&f, &g);
            let hi = upper_bound(&f, &g);
            assert!(lo <= d, "{a} vs {b}: lb {lo} > {d}");
            assert!(d <= hi, "{a} vs {b}: ub {hi} < {d}");
        }
    }

    #[test]
    fn histogram_bound_beats_size_bound_on_disjoint_labels() {
        // Same sizes, disjoint labels: size bound is 0, histogram bound n.
        let f = parse_bracket("{a{b}{c}}").unwrap();
        let g = parse_bracket("{x{y}{z}}").unwrap();
        assert_eq!(size_lower_bound(&f, &g), 0.0);
        assert_eq!(lower_bound(&f, &g), 3.0);
        assert_eq!(ted(&f, &g), 3.0); // bound is tight here
    }

    #[test]
    fn histogram_intersection_is_multiset() {
        let f = parse_bracket("{a{a}{a}{b}}").unwrap();
        let g = parse_bracket("{a{a}{b}{b}}").unwrap();
        let hf = LabelHistogram::new(&f);
        let hg = LabelHistogram::new(&g);
        assert_eq!(hf.intersection(&hg), 3); // two a's + one b
        assert_eq!(hf.lower_bound(&hg), 1.0);
    }

    #[test]
    fn structural_stage_values() {
        // {a{b{c}}} : size 3, depth 2, 1 leaf, 2 internal.
        // {a{b}{c}} : size 3, depth 1, 2 leaves, 1 internal.
        let f = parse_bracket("{a{b{c}}}").unwrap();
        let g = parse_bracket("{a{b}{c}}").unwrap();
        let (sf, sg) = (TreeSketch::new(&f), TreeSketch::new(&g));
        assert_eq!(LowerBound::<String>::bound(&SizeBound, &sf, &sg), 0.0);
        assert_eq!(LowerBound::<String>::bound(&DepthBound, &sf, &sg), 1.0);
        assert_eq!(LowerBound::<String>::bound(&LeafBound, &sf, &sg), 1.0);
        assert_eq!(LowerBound::<String>::bound(&DegreeBound, &sf, &sg), 1.0);
        let d = ted(&f, &g);
        assert!(d >= 1.0);
    }

    #[test]
    fn every_stage_below_distance_on_samples() {
        let cases = [
            ("{a}", "{a{b}{c}{d}}"),
            ("{a{b{c{d}}}}", "{a{b}{c}{d}}"),
            ("{a{b}{c}}", "{x{y{z}}}"),
            ("{a{a{a}}{a}}", "{b{b}{b{b}}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let d = ted(&f, &g);
            let (sf, sg) = (TreeSketch::new(&f), TreeSketch::new(&g));
            for stage in standard_bounds::<String>() {
                let lb = stage.bound(&sf, &sg);
                assert!(
                    lb <= d,
                    "{} bound {lb} > ted {d} on {a} vs {b}",
                    stage.name()
                );
            }
        }
    }

    #[test]
    fn lower_bound_matches_standard_stages() {
        // Drift guard: lower_bound() hand-enumerates the stages for
        // allocation-free probing; it must stay the max over
        // standard_bounds(), or a newly added stage would be silently
        // missing from the combined bound.
        let cases = [
            ("{a{b}{c}}", "{x{y{z}}}"),
            ("{a{b{c{d}}}}", "{a{b}{c}{d}}"),
            ("{a}", "{a{a}{a}{a}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let (sf, sg) = (TreeSketch::new(&f), TreeSketch::new(&g));
            let folded = standard_bounds::<String>()
                .iter()
                .map(|s| s.bound(&sf, &sg))
                .fold(0.0, f64::max);
            assert_eq!(lower_bound(&f, &g), folded, "{a} vs {b}");
        }
    }

    #[test]
    fn bounds_on_random_trees() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n1 = rng.random_range(1..30usize);
            let n2 = rng.random_range(1..30usize);
            let mk = |n: usize, rng: &mut StdRng| {
                let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
                for i in 1..n {
                    let p = rng.random_range(0..i) as u32;
                    children[p as usize].push(i as u32);
                }
                let mut degrees = Vec::with_capacity(n);
                let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
                while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                    let ch = &children[v as usize];
                    if *i < ch.len() {
                        let c = ch[*i];
                        *i += 1;
                        stack.push((c, 0));
                    } else {
                        degrees.push(ch.len() as u32);
                        stack.pop();
                    }
                }
                let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..5u32)).collect();
                Tree::from_postorder_degrees(labels, &degrees).unwrap()
            };
            let f = mk(n1, &mut rng);
            let g = mk(n2, &mut rng);
            let d = ted(&f, &g);
            assert!(lower_bound(&f, &g) <= d, "seed {seed}");
            assert!(d <= upper_bound(&f, &g), "seed {seed}");
        }
    }
}
