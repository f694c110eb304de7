//! Property tests for the candidate-generation subsystem: the metric
//! (vantage-point) tree must return **byte-identical** `range`/`top_k`
//! results to the linear scan on any corpus — before and after
//! insert/remove churn, across the tombstone and overflow machinery and
//! threshold rebuilds — and the pq-gram stage must be a sound lower
//! bound against exact RTED.

use proptest::prelude::*;
use rted_core::bounds::{LowerBound, PqGramBound, TreeSketch};
use rted_core::ted;
use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted_index::{MetricConfig, TreeIndex};
use rted_tree::Tree;

fn arb_shape_tree(max: usize) -> impl Strategy<Value = Tree<u32>> {
    (0..Shape::ALL.len(), 1..=max, any::<u32>())
        .prop_map(|(s, n, seed)| Shape::ALL[s].generate(n, seed as u64))
}

/// A corpus with a planted near-duplicate so queries have close pairs.
fn arb_corpus(max_trees: usize, max_nodes: usize) -> impl Strategy<Value = Vec<Tree<u32>>> {
    proptest::collection::vec(arb_shape_tree(max_nodes), 2..=max_trees).prop_map(|mut trees| {
        let dup = perturb_labels(&trees[0], 1, DEFAULT_ALPHABET, 99);
        trees.push(dup);
        trees
    })
}

/// An insert/remove script applied identically to both indexes.
type Churn = Vec<(bool, u32, Tree<u32>)>;

fn arb_churn(max_ops: usize, max_nodes: usize) -> impl Strategy<Value = Churn> {
    proptest::collection::vec(
        (any::<bool>(), any::<u32>(), arb_shape_tree(max_nodes)),
        0..=max_ops,
    )
}

/// Applies the same mutation script to an index, returning the live ids
/// it ended with.
fn apply_churn(index: &mut TreeIndex<u32>, ops: &Churn) {
    for (is_remove, pick, tree) in ops {
        if *is_remove && index.corpus().len() > 1 {
            let live: Vec<usize> = index.corpus().iter().map(|(id, _)| id).collect();
            index.remove(live[*pick as usize % live.len()]);
        } else {
            index.insert(tree.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Metric-tree range ≡ linear range, for any tau, including after
    /// churn (tombstones, pending overflow, threshold rebuilds).
    #[test]
    fn metric_range_identical_to_linear(
        corpus in arb_corpus(7, 18),
        ops in arb_churn(8, 14),
        q in arb_shape_tree(18),
        tau_int in 0..25usize,
    ) {
        let tau = tau_int as f64;
        let mut linear = TreeIndex::build(corpus.iter().cloned());
        let mut metric = TreeIndex::build(corpus.iter().cloned()).with_metric_tree(true);
        // Force a build *before* the churn so tombstones and the pending
        // overflow (not just a fresh build) are exercised.
        let _ = metric.range(&q, 3.0);
        apply_churn(&mut linear, &ops);
        apply_churn(&mut metric, &ops);

        let a = linear.range(&q, tau);
        let b = metric.range(&q, tau);
        prop_assert_eq!(&a.neighbors, &b.neighbors, "tau {}", tau);
        prop_assert_eq!(a.stats.candidates, b.stats.candidates);
        // The metric path reports its own counters.
        if tau > 0.0 {
            prop_assert!(
                b.stats.metric.nodes_visited + b.stats.metric.pending_scanned > 0
            );
        }
        prop_assert_eq!(a.stats.metric, rted_index::MetricStats::default());
    }

    /// Metric-tree top-k ≡ linear top-k (exact (distance, id) ordering,
    /// tie-breaks included), for any k, including after churn.
    #[test]
    fn metric_top_k_identical_to_linear(
        corpus in arb_corpus(7, 18),
        ops in arb_churn(8, 14),
        q in arb_shape_tree(18),
        k in 1..10usize,
    ) {
        let mut linear = TreeIndex::build(corpus.iter().cloned());
        let mut metric = TreeIndex::build(corpus.iter().cloned()).with_metric_tree(true);
        let _ = metric.top_k(&q, 2);
        apply_churn(&mut linear, &ops);
        apply_churn(&mut metric, &ops);

        let a = linear.top_k(&q, k);
        let b = metric.top_k(&q, k);
        prop_assert_eq!(&a.neighbors, &b.neighbors, "k {}", k);
        prop_assert_eq!(a.neighbors.len(), k.min(linear.corpus().len()));
    }

    /// An aggressive churn threshold (rebuild after every mutation) and a
    /// degenerate leaf size must not change any answer.
    #[test]
    fn metric_config_extremes_are_invisible(
        corpus in arb_corpus(6, 14),
        ops in arb_churn(5, 10),
        q in arb_shape_tree(14),
        tau_int in 1..15usize,
    ) {
        let tau = tau_int as f64;
        let mut linear = TreeIndex::build(corpus.iter().cloned());
        let mut eager = TreeIndex::build(corpus.iter().cloned())
            .with_metric_tree(true)
            .with_metric_config(MetricConfig { leaf_size: 1, rebuild_fraction: 0.0 });
        let _ = eager.range(&q, tau);
        apply_churn(&mut linear, &ops);
        apply_churn(&mut eager, &ops);
        prop_assert_eq!(&linear.range(&q, tau).neighbors, &eager.range(&q, tau).neighbors);
        prop_assert_eq!(&linear.top_k(&q, 4).neighbors, &eager.top_k(&q, 4).neighbors);
    }

    /// The pq-gram stage never exceeds exact RTED (dedicated, beyond the
    /// all-stages sweep in bound_soundness.rs: adversarially *similar*
    /// pairs, where an unsound bound would actually drop matches).
    #[test]
    fn pqgram_bound_is_sound_on_near_duplicates(
        base in arb_shape_tree(30),
        edits in 1..5usize,
        seed in any::<u32>(),
    ) {
        let near = perturb_labels(&base, edits, DEFAULT_ALPHABET, seed as u64);
        let d = ted(&base, &near);
        let (sf, sg) = (TreeSketch::new(&base), TreeSketch::new(&near));
        let lb = LowerBound::<u32>::bound(&PqGramBound, &sf, &sg);
        prop_assert!(lb <= d, "pqgram lb {lb} > exact ted {d}");
    }
}

/// Unbounded queries fall back to the linear scan (no pruning is possible
/// at tau = ∞, and n full traversals would be strictly worse), and
/// tau ≤ 0 stays empty.
#[test]
fn metric_edge_cases_match_linear() {
    let trees: Vec<Tree<u32>> = (0..8)
        .map(|i| Shape::ALL[i % Shape::ALL.len()].generate(10 + i, i as u64))
        .collect();
    let linear = TreeIndex::build(trees.iter().cloned());
    let metric = TreeIndex::build(trees.iter().cloned()).with_metric_tree(true);
    let q = Shape::Mixed.generate(12, 99);

    let (a, b) = (
        linear.range(&q, f64::INFINITY),
        metric.range(&q, f64::INFINITY),
    );
    assert_eq!(a.neighbors, b.neighbors);
    assert_eq!(b.stats.metric, rted_index::MetricStats::default());

    for tau in [0.0, -2.0] {
        assert!(metric.range(&q, tau).neighbors.is_empty());
    }
    assert!(metric.top_k(&q, 0).neighbors.is_empty());
    // Joins always scan linearly (and agree).
    let (ja, jb) = (linear.join(f64::INFINITY), metric.join(f64::INFINITY));
    assert_eq!(ja.matches, jb.matches);
    assert_eq!(jb.stats.metric, rted_index::MetricStats::default());

    // Empty corpus: no build, no panic.
    let empty = TreeIndex::build(Vec::<Tree<u32>>::new()).with_metric_tree(true);
    assert!(empty.range(&q, 5.0).neighbors.is_empty());
    assert!(empty.top_k(&q, 3).neighbors.is_empty());
    assert_eq!(empty.metric_snapshot().built, 0);
}

/// A forest of identical trees — every pairwise distance 0, the
/// worst case for value-based vantage splits — must neither degenerate
/// into an O(n)-deep spine (O(n²) build distances) nor change answers.
#[test]
fn equidistant_corpus_does_not_degenerate() {
    let base = Shape::Random.generate(12, 5);
    let trees: Vec<Tree<u32>> = (0..64).map(|_| base.clone()).collect();
    let linear = TreeIndex::build(trees.iter().cloned());
    let metric = TreeIndex::build(trees.iter().cloned()).with_metric_tree(true);
    let a = linear.range(&base, 1.0);
    let b = metric.range(&base, 1.0);
    assert_eq!(a.neighbors, b.neighbors);
    assert_eq!(b.neighbors.len(), 64);
    // Balanced (index-median) splits: ~n·log n build distances, not n²/2.
    let build = metric.metric_snapshot().build_ted;
    assert!(
        build < 64 * 10,
        "build spent {build} exact distances — vantage split degenerated"
    );
    assert_eq!(
        linear.top_k(&base, 7).neighbors,
        metric.top_k(&base, 7).neighbors
    );
}

/// Swapping the verifier invalidates a built metric tree: routing must
/// never compare fresh distances against radii recorded under another
/// verifier's geometry.
#[test]
fn verifier_swap_rebuilds_the_metric_tree() {
    use rted_core::Algorithm;
    let trees: Vec<Tree<u32>> = (0..12)
        .map(|i| Shape::ALL[i % Shape::ALL.len()].generate(8 + i, i as u64))
        .collect();
    let q = Shape::Mixed.generate(10, 3);
    let metric = TreeIndex::build(trees.iter().cloned()).with_metric_tree(true);
    let _ = metric.range(&q, 5.0); // build under the default verifier
    assert!(metric.metric_snapshot().built > 0);
    let metric = metric.with_algorithm(Algorithm::ZhangL);
    assert_eq!(
        metric.metric_snapshot().built,
        0,
        "with_algorithm must drop the stale tree"
    );
    let linear = TreeIndex::build(trees.iter().cloned()).with_algorithm(Algorithm::ZhangL);
    assert_eq!(
        linear.range(&q, 5.0).neighbors,
        metric.range(&q, 5.0).neighbors
    );
}

/// The snapshot reflects build, overflow, tombstones, and churn-triggered
/// drops.
#[test]
fn metric_snapshot_tracks_lifecycle() {
    let trees: Vec<Tree<u32>> = (0..10)
        .map(|i| Shape::ALL[i % Shape::ALL.len()].generate(8 + i, i as u64))
        .collect();
    let mut index = TreeIndex::build(trees.iter().cloned())
        .with_metric_tree(true)
        .with_metric_config(MetricConfig {
            leaf_size: 2,
            rebuild_fraction: 0.5,
        });
    let snap = index.metric_snapshot();
    assert!(snap.enabled);
    assert_eq!(snap.built, 0, "tree is built lazily");

    let q = Shape::Mixed.generate(10, 7);
    let res = index.range(&q, 4.0);
    assert!(res.stats.metric.nodes_visited > 0);
    let snap = index.metric_snapshot();
    assert_eq!(snap.built, 10);
    assert!(snap.build_ted > 0);

    // One insert + one remove: absorbed incrementally (churn 2 ≤ 0.5×10).
    let id = index.insert(Shape::Random.generate(9, 42));
    assert!(index.remove(0));
    let snap = index.metric_snapshot();
    assert_eq!(snap.built, 10);
    assert_eq!(snap.pending, 1);
    assert_eq!(snap.tombstones, 1);

    // Queries still answer correctly mid-churn (the inserted tree is
    // reachable via the overflow, the removed one is gone).
    let hit = index.range(index.corpus().tree(id), 1.0);
    assert!(hit.neighbors.iter().any(|n| n.id == id));
    assert!(!index.range(&q, 1e9).neighbors.iter().any(|n| n.id == 0));

    // Push churn past the threshold: the tree drops, then lazily rebuilds
    // over the current live set.
    for i in 0..5 {
        index.insert(Shape::Random.generate(7 + i, 100 + i as u64));
    }
    let snap = index.metric_snapshot();
    assert_eq!(snap.built, 0, "churn threshold must drop the tree");
    let _ = index.top_k(&q, 3);
    let snap = index.metric_snapshot();
    assert_eq!(snap.built, index.corpus().len());
    assert_eq!(snap.pending, 0);
    assert_eq!(snap.tombstones, 0);
}
