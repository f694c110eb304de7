//! Vantage-point tree candidate generation under the TED metric.
//!
//! Unit-cost tree edit distance is a true metric (non-negative, symmetric,
//! zero iff equal, triangle inequality — property-tested in the workspace
//! root), so the corpus can be organized for sub-linear search: a
//! **vantage-point tree** picks one corpus tree per node, splits the rest
//! by their exact distance to it at the median radius `mu` — the sorted
//! lower half (distances `≤ mu`) inside, the upper half (`≥ mu`) outside,
//! split by *index* so each side gets half the subset even when distances
//! tie (an all-equidistant cluster of near-duplicates must not degenerate
//! into an O(n)-deep spine) — and recurses. A query with threshold `tau`
//! then needs one exact distance `d = TED(q, vantage)` per visited node
//! to discard whole branches:
//!
//! * every tree in the inside branch is at distance `≤ mu` from the
//!   vantage, so its distance to `q` is at least `d − mu` — skip the
//!   branch when `d − mu ≥ tau`;
//! * every outside tree is at distance `≥ mu`, so its distance to `q` is
//!   at least `mu − d` — skip when `mu − d ≥ tau`.
//!
//! (Both exclusions are sound for the strict `< tau` match rule: a tree
//! at distance exactly `tau` is not a match.)
//!
//! The filter pipeline cooperates with the traversal: before paying for
//! an exact routing distance, the cheap sketch bounds are consulted
//! against `mu + tau` — when a bound already proves the vantage is that
//! far, the vantage cannot match, the inside branch is prunable, and the
//! outside branch must be taken anyway, so the exact computation is
//! skipped entirely.
//!
//! # Incremental maintenance
//!
//! VP trees do not support cheap structural insertion, so the tree
//! borrows the store's compaction-accounting pattern: removals of built
//! ids become **tombstones** — the tree keeps the removed entry as a
//! routing corpse (its pairwise distances are still valid metric facts)
//! but never reports it — inserts go to a **pending overflow** scanned
//! linearly, and when the combined churn exceeds a fraction of the built
//! size the tree is dropped and lazily rebuilt on the next query. The
//! trigger is multiplicative (no division, no firing on an empty corpus),
//! exactly like the serve layer's compaction threshold, and the rebuild
//! also frees the corpses.
//!
//! # Exactness
//!
//! Traversal prunes only branches whose every tree provably violates the
//! threshold (or current top-k radius), so `range`/`top_k` results are
//! **byte-identical** to the linear scan — property-tested in
//! `crates/index/tests/candidates.rs` — while the number of trees even
//! looked at falls with the query's selectivity. Routing distances are
//! unit-cost tree edit distances from [`rted_core::ted_within`] (under the
//! index's pinned algorithm, if any), which form a metric.

use crate::corpus::{CorpusEntry, TreeCorpus};
use crate::filter::FilterPipeline;
use crate::verify::CountedVerifier;
use crate::{candidates::MetricStats, Neighbor, OrdF64, SearchStats};
use rted_core::bounds::TreeSketch;
use rted_core::{ted_within, Algorithm, UnitCost, Workspace};
use rted_tree::Tree;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Absent child sentinel.
const NONE_IDX: u32 = u32::MAX;

/// Tuning of the metric candidate generator.
#[derive(Debug, Clone, Copy)]
pub struct MetricConfig {
    /// Subsets at most this large become leaf buckets (scanned through
    /// the filter pipeline instead of split further). Clamped to ≥ 1.
    pub leaf_size: usize,
    /// Drop and lazily rebuild the tree when
    /// `pending + tombstones > rebuild_fraction × max(built, 1)` —
    /// the multiplicative churn trigger.
    pub rebuild_fraction: f64,
}

impl Default for MetricConfig {
    fn default() -> Self {
        MetricConfig {
            leaf_size: 4,
            rebuild_fraction: 0.25,
        }
    }
}

#[derive(Clone)]
enum VpNode {
    /// A vantage point: `mu` is the median distance of its subset, the
    /// inside (`≤ mu`) branch is `left`, the outside (`≥ mu`) is `right`
    /// (ties may sit on either side — the split is by sorted index, so
    /// both invariants are non-strict and the tree stays balanced).
    Inner {
        /// Corpus id of the vantage tree.
        id: u32,
        /// Median distance splitting the subset.
        mu: f64,
        /// Inside branch (`≤ mu`), or [`NONE_IDX`].
        left: u32,
        /// Outside branch (`≥ mu`), or [`NONE_IDX`].
        right: u32,
    },
    /// A bucket of ids in `bucket[start .. start + len]`.
    Leaf {
        /// Offset into the bucket array.
        start: u32,
        /// Bucket length.
        len: u32,
    },
}

/// A vantage-point tree over the live ids of a corpus at build time, plus
/// the tombstone/pending bookkeeping that keeps it exact under mutation.
/// Cloning is cheap relative to a rebuild (id vectors plus `Arc` corpse
/// handles — no exact distances), so snapshot forks carry the tree over.
#[derive(Clone)]
pub struct VpTree<L> {
    nodes: Vec<VpNode>,
    root: u32,
    bucket: Vec<u32>,
    /// Built ids removed since build, keeping the removed entry as a
    /// routing corpse: still a valid vantage, never reported.
    dead: HashMap<u32, Arc<CorpusEntry<L>>>,
    /// Ids inserted since build: scanned linearly alongside the tree.
    pending: Vec<u32>,
    /// Live count at build time (the churn trigger's denominator).
    built: usize,
    /// Exact TED computations the build spent (amortized over queries;
    /// not part of any per-query counter).
    build_ted: usize,
}

impl<L: Eq + std::hash::Hash + Clone> VpTree<L> {
    /// Builds the tree over every live id of `corpus`, spending
    /// O(n log n) exact unit-cost distances through [`ted_within`] (under
    /// `algorithm` when pinned) and `ws`. Deterministic:
    /// subsets are kept id-sorted and the vantage is always the smallest
    /// id, so the same corpus always produces the same tree.
    pub fn build(
        corpus: &TreeCorpus<L>,
        algorithm: Option<Algorithm>,
        ws: &mut Workspace,
        config: &MetricConfig,
    ) -> VpTree<L> {
        let ids: Vec<u32> = corpus.iter().map(|(id, _)| id as u32).collect();
        let built = ids.len();
        let mut tree = VpTree {
            nodes: Vec::new(),
            root: NONE_IDX,
            bucket: Vec::new(),
            dead: HashMap::new(),
            pending: Vec::new(),
            built,
            build_ted: 0,
        };
        let leaf = config.leaf_size.max(1);
        tree.root = tree.split(ids, corpus, algorithm, ws, leaf);
        tree
    }

    fn split(
        &mut self,
        subset: Vec<u32>,
        corpus: &TreeCorpus<L>,
        algorithm: Option<Algorithm>,
        ws: &mut Workspace,
        leaf: usize,
    ) -> u32 {
        if subset.is_empty() {
            return NONE_IDX;
        }
        if subset.len() <= leaf {
            let start = self.bucket.len() as u32;
            let len = subset.len() as u32;
            self.bucket.extend_from_slice(&subset);
            let idx = self.nodes.len() as u32;
            self.nodes.push(VpNode::Leaf { start, len });
            return idx;
        }
        let vantage = subset[0];
        let vtree = corpus.tree(vantage as usize);
        let mut dists: Vec<(f64, u32)> = subset[1..]
            .iter()
            .map(|&id| {
                let tree = corpus.tree(id as usize);
                let run = ted_within(vtree, tree, &UnitCost, f64::INFINITY, algorithm, ws);
                self.build_ted += 1;
                (run.result.value(), id)
            })
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Split at the median *index*, not the median value: value-based
        // partitioning makes no progress when distances tie (a cluster of
        // identical trees would recurse one element at a time, O(n) deep
        // and O(n²) build distances), while the index split halves the
        // subset unconditionally — depth stays O(log n). Both sides'
        // invariants are non-strict (`≤ mu` / `≥ mu`), which the
        // traversal's exclusion rules already accommodate.
        let mid = (dists.len() - 1) / 2;
        let mu = dists[mid].0;
        let mut inside: Vec<u32> = dists[..=mid].iter().map(|d| d.1).collect();
        let mut outside: Vec<u32> = dists[mid + 1..].iter().map(|d| d.1).collect();
        // Subsets stay id-sorted so vantage choice is order-independent.
        inside.sort_unstable();
        outside.sort_unstable();
        // Reserve this node's slot before recursing (children follow it).
        let idx = self.nodes.len() as u32;
        self.nodes.push(VpNode::Inner {
            id: vantage,
            mu,
            left: NONE_IDX,
            right: NONE_IDX,
        });
        let left = self.split(inside, corpus, algorithm, ws, leaf);
        let right = self.split(outside, corpus, algorithm, ws, leaf);
        if let VpNode::Inner {
            left: l, right: r, ..
        } = &mut self.nodes[idx as usize]
        {
            *l = left;
            *r = right;
        }
        idx
    }

    /// Records an insert since build (overflow, scanned linearly).
    pub fn note_insert(&mut self, id: usize) {
        self.pending.push(id as u32);
    }

    /// Records a removal since build: a pending id is simply dropped, a
    /// built id becomes a tombstone whose entry is retained for routing.
    pub fn note_remove(&mut self, id: usize, entry: Arc<CorpusEntry<L>>) {
        let id = id as u32;
        if let Some(pos) = self.pending.iter().position(|&p| p == id) {
            self.pending.remove(pos);
        } else {
            self.dead.insert(id, entry);
        }
    }

    /// Pending inserts plus tombstones — the churn the rebuild threshold
    /// compares against the built size.
    pub fn churn(&self) -> usize {
        self.pending.len() + self.dead.len()
    }

    /// Whether accumulated churn exceeds `fraction × max(built, 1)` and
    /// the tree should be dropped for a lazy rebuild.
    pub fn should_rebuild(&self, fraction: f64) -> bool {
        self.churn() as f64 > fraction * (self.built.max(1) as f64)
    }

    /// Live count at build time.
    pub fn built_len(&self) -> usize {
        self.built
    }

    /// Ids inserted since build (the linear overflow).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Built ids tombstoned since build.
    pub fn tombstones(&self) -> usize {
        self.dead.len()
    }

    /// Exact TED computations the build spent.
    pub fn build_ted(&self) -> usize {
        self.build_ted
    }

    #[inline]
    fn alive(&self, id: u32) -> bool {
        !self.dead.contains_key(&id)
    }

    /// The entry behind `id` — live from the corpus, or the retained
    /// corpse of a tombstoned vantage.
    #[inline]
    fn entry_of<'a>(&'a self, corpus: &'a TreeCorpus<L>, id: u32) -> &'a CorpusEntry<L> {
        match self.dead.get(&id) {
            Some(corpse) => corpse.as_ref(),
            None => corpus.entry(id as usize),
        }
    }

    /// All live ids with `TED(query, tree) < tau`, appended to `out`
    /// (unsorted).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn range(
        &self,
        corpus: &TreeCorpus<L>,
        query: &Tree<L>,
        qsketch: &TreeSketch<L>,
        tau: f64,
        pipeline: &FilterPipeline<L>,
        verifier: &CountedVerifier<'_>,
        ws: &mut Workspace,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        debug_assert!(tau.is_finite() && tau > 0.0);
        let mut metric = MetricStats::default();
        // (node, lower bound on every distance within the region) —
        // checked at pop time because an ancestor's routing distance can
        // prove a whole region out before any of it is visited.
        let mut stack: Vec<(u32, f64)> = Vec::new();
        if self.root != NONE_IDX {
            stack.push((self.root, 0.0));
        }
        while let Some((node, lo)) = stack.pop() {
            if lo >= tau {
                continue;
            }
            match self.nodes[node as usize] {
                VpNode::Leaf { start, len } => {
                    for &id in &self.bucket[start as usize..(start + len) as usize] {
                        metric.nodes_visited += 1;
                        if !self.alive(id) {
                            continue;
                        }
                        let sketch = corpus.sketch(id as usize);
                        if let Some(stage) = pipeline.prune_stage(qsketch, sketch, tau) {
                            stats.filter.record(stage, 1);
                            continue;
                        }
                        if let Some(d) =
                            verifier.pair(query, corpus.tree(id as usize), tau, ws, stats)
                        {
                            if d < tau {
                                out.push(Neighbor {
                                    id: id as usize,
                                    distance: d,
                                });
                            }
                        }
                    }
                }
                VpNode::Inner {
                    id,
                    mu,
                    left,
                    right,
                } => {
                    metric.nodes_visited += 1;
                    let ventry = self.entry_of(corpus, id);
                    // Bound-guided routing: a cheap proof that
                    // d(q, vantage) ≥ mu + tau settles everything — the
                    // vantage cannot match, the inside branch is
                    // prunable, the outside branch is mandatory — without
                    // paying for the exact distance.
                    if pipeline
                        .prune_stage(qsketch, ventry.sketch(), mu + tau)
                        .is_some()
                    {
                        metric.routing_skipped += 1;
                        if right != NONE_IDX {
                            stack.push((right, lo));
                        }
                        continue;
                    }
                    // Routing needs the true distance to the vantage to
                    // bound both branches: an unbudgeted verification.
                    let d = verifier
                        .pair(query, ventry.tree(), f64::INFINITY, ws, stats)
                        .expect("an infinite budget is never exceeded");
                    metric.routing_ted += 1;
                    if d < tau && self.alive(id) {
                        out.push(Neighbor {
                            id: id as usize,
                            distance: d,
                        });
                    }
                    if right != NONE_IDX {
                        stack.push((right, lo.max(mu - d)));
                    }
                    if left != NONE_IDX {
                        stack.push((left, lo.max(d - mu)));
                    }
                }
            }
        }
        // The overflow: everything inserted since build, scanned like one
        // linear leaf.
        for &id in &self.pending {
            metric.pending_scanned += 1;
            let sketch = corpus.sketch(id as usize);
            if let Some(stage) = pipeline.prune_stage(qsketch, sketch, tau) {
                stats.filter.record(stage, 1);
                continue;
            }
            if let Some(d) = verifier.pair(query, corpus.tree(id as usize), tau, ws, stats) {
                if d < tau {
                    out.push(Neighbor {
                        id: id as usize,
                        distance: d,
                    });
                }
            }
        }
        stats.metric.merge(&metric);
    }

    /// The `k` nearest live trees by `(distance, id)` — identical to the
    /// linear best-first scan, returned sorted.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn top_k(
        &self,
        corpus: &TreeCorpus<L>,
        query: &Tree<L>,
        qsketch: &TreeSketch<L>,
        k: usize,
        pipeline: &FilterPipeline<L>,
        verifier: &CountedVerifier<'_>,
        ws: &mut Workspace,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        debug_assert!(k > 0);
        let mut metric = MetricStats::default();
        // Max-heap on (distance, id): the top is the worst of the best k.
        let k_eff = k.min(corpus.len());
        let mut heap: BinaryHeap<(OrdF64, usize)> = BinaryHeap::with_capacity(k_eff + 1);

        // The overflow first: it seeds a finite radius before the
        // traversal starts pruning.
        for &id in &self.pending {
            metric.pending_scanned += 1;
            let r = Self::radius(&heap, k_eff);
            if r.is_finite() {
                if let Some(stage) =
                    pipeline.prune_stage_strict(qsketch, corpus.sketch(id as usize), r)
                {
                    stats.filter.record(stage, 1);
                    continue;
                }
            }
            // The current radius is the budget: a candidate proven beyond
            // the k-th distance would be popped right back out, so it is
            // simply not admitted (ties at the radius come back `Exact`
            // and still win the id tie-break) — the heap evolves exactly
            // as on the unbudgeted path.
            if let Some(d) = verifier.pair(query, corpus.tree(id as usize), r, ws, stats) {
                Self::admit(&mut heap, k_eff, d, id as usize);
            }
        }

        let mut stack: Vec<(u32, f64)> = Vec::new();
        if self.root != NONE_IDX {
            stack.push((self.root, 0.0));
        }
        while let Some((node, lo)) = stack.pop() {
            let r = Self::radius(&heap, k_eff);
            // Every distance in this region is at least `lo`; once the
            // heap is full, a region strictly beyond the current radius
            // cannot contribute (ties on the k-th distance lose on id
            // only against equal distances, never against `> r`).
            if r.is_finite() && lo > r {
                continue;
            }
            match self.nodes[node as usize] {
                VpNode::Leaf { start, len } => {
                    for &id in &self.bucket[start as usize..(start + len) as usize] {
                        metric.nodes_visited += 1;
                        if !self.alive(id) {
                            continue;
                        }
                        let r = Self::radius(&heap, k_eff);
                        if r.is_finite() {
                            if let Some(stage) =
                                pipeline.prune_stage_strict(qsketch, corpus.sketch(id as usize), r)
                            {
                                stats.filter.record(stage, 1);
                                continue;
                            }
                        }
                        if let Some(d) =
                            verifier.pair(query, corpus.tree(id as usize), r, ws, stats)
                        {
                            Self::admit(&mut heap, k_eff, d, id as usize);
                        }
                    }
                }
                VpNode::Inner {
                    id,
                    mu,
                    left,
                    right,
                } => {
                    metric.nodes_visited += 1;
                    let ventry = self.entry_of(corpus, id);
                    let r = Self::radius(&heap, k_eff);
                    // Bound-guided routing, strict against the shrinking
                    // radius: a proof of d > mu + r rules the vantage and
                    // the whole inside branch out and mandates outside.
                    if r.is_finite()
                        && pipeline
                            .prune_stage_strict(qsketch, ventry.sketch(), mu + r)
                            .is_some()
                    {
                        metric.routing_skipped += 1;
                        if right != NONE_IDX {
                            stack.push((right, lo));
                        }
                        continue;
                    }
                    let d = verifier
                        .pair(query, ventry.tree(), f64::INFINITY, ws, stats)
                        .expect("an infinite budget is never exceeded");
                    metric.routing_ted += 1;
                    if self.alive(id) {
                        Self::admit(&mut heap, k_eff, d, id as usize);
                    }
                    // Near branch last → popped (and searched) first, so
                    // the radius shrinks before the far branch's pop-time
                    // check runs.
                    let lo_in = lo.max(d - mu);
                    let lo_out = lo.max(mu - d);
                    if d < mu {
                        if right != NONE_IDX {
                            stack.push((right, lo_out));
                        }
                        if left != NONE_IDX {
                            stack.push((left, lo_in));
                        }
                    } else {
                        if left != NONE_IDX {
                            stack.push((left, lo_in));
                        }
                        if right != NONE_IDX {
                            stack.push((right, lo_out));
                        }
                    }
                }
            }
        }
        stats.metric.merge(&metric);
        heap.into_sorted_vec()
            .into_iter()
            .map(|(OrdF64(distance), id)| Neighbor { id, distance })
            .collect()
    }

    /// The current search radius: the k-th best distance once the heap is
    /// full, unbounded before.
    fn radius(heap: &BinaryHeap<(OrdF64, usize)>, k_eff: usize) -> f64 {
        if heap.len() == k_eff {
            heap.peek()
                .map(|&(OrdF64(d), _)| d)
                .unwrap_or(f64::INFINITY)
        } else {
            f64::INFINITY
        }
    }

    /// Folds one verified candidate into the best-k heap.
    fn admit(heap: &mut BinaryHeap<(OrdF64, usize)>, k_eff: usize, distance: f64, id: usize) {
        heap.push((OrdF64(distance), id));
        if heap.len() > k_eff {
            heap.pop();
        }
    }
}
