//! The budget-aware default verification must be invisible in results:
//! every query answered through the per-pair kernel dispatch of
//! `rted_core::ted_within` (the `TreeIndex` default, which hands the query
//! threshold to the band-limited early-exit kernel) is **byte-identical**
//! to the same query with RTED pinned — on any corpus, any threshold, any
//! k. Only the counters may differ: the bounded path may report early
//! exits and bounded time, never different neighbors.

use proptest::prelude::*;
use rted_core::Algorithm;
use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted_index::TreeIndex;
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

/// An index forced onto the pure exact path: `with_algorithm` pins RTED,
/// which always completes the full computation.
fn exact_index(trees: &[Tree<u32>]) -> TreeIndex<u32> {
    TreeIndex::build(trees.iter().cloned()).with_algorithm(Algorithm::Rted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// range: identical neighbors *and* identical partition counters —
    /// an early-exited verification still counts as verified, so the
    /// pruned + verified = candidates invariant is unchanged.
    #[test]
    fn bounded_range_identical_to_exact(
        corpus in arb_corpus(7, 18),
        q in arb_shape_tree(18),
        tau_int in 0..25usize,
    ) {
        let tau = tau_int as f64;
        let bounded = TreeIndex::build(corpus.iter().cloned());
        let exact = exact_index(&corpus);
        let a = bounded.range(&q, tau);
        let b = exact.range(&q, tau);
        prop_assert_eq!(&a.neighbors, &b.neighbors, "tau {}", tau);
        prop_assert_eq!(a.stats.candidates, b.stats.candidates);
        prop_assert_eq!(a.stats.verified, b.stats.verified);
        prop_assert_eq!(&a.stats.filter, &b.stats.filter);
        prop_assert_eq!(b.stats.early_exits, 0, "exact path never early-exits");
    }

    /// top_k: the shrinking radius becomes the verification budget batch
    /// by batch; the (distance, id) ordering and tie-breaks must come out
    /// bit-for-bit identical.
    #[test]
    fn bounded_top_k_identical_to_exact(
        corpus in arb_corpus(7, 18),
        q in arb_shape_tree(18),
        k in 1..10usize,
    ) {
        let bounded = TreeIndex::build(corpus.iter().cloned());
        let exact = exact_index(&corpus);
        let a = bounded.top_k(&q, k);
        let b = exact.top_k(&q, k);
        prop_assert_eq!(&a.neighbors, &b.neighbors, "k {}", k);
        prop_assert_eq!(a.stats.verified, b.stats.verified);
    }

    /// join: same pairs, same distances, same order, same partition.
    #[test]
    fn bounded_join_identical_to_exact(
        corpus in arb_corpus(7, 16),
        tau_int in 1..20usize,
    ) {
        let tau = tau_int as f64;
        let bounded = TreeIndex::build(corpus.iter().cloned());
        let exact = exact_index(&corpus);
        let a = bounded.join(tau);
        let b = exact.join(tau);
        prop_assert_eq!(&a.matches, &b.matches, "tau {}", tau);
        prop_assert_eq!(a.stats.verified, b.stats.verified);
        prop_assert_eq!(&a.stats.filter, &b.stats.filter);
    }
}

/// In a selective regime (tight threshold, far-apart trees that survive
/// the sketch filters) the bounded kernel actually exits early, the new
/// counters move, and the work saved is visible in `subproblems`.
#[test]
fn selective_range_reports_early_exits_and_less_work() {
    // Same-size trees with disjoint label sets: the size stage cannot
    // prune them, but their distance is far above tau = 1.
    let trees: Vec<Tree<u32>> = (0..12)
        .map(|i| Shape::Random.generate(40, 1000 + i as u64))
        .collect();
    let q = Shape::Random.generate(40, 7777);
    let bounded = TreeIndex::build(trees.iter().cloned()).unfiltered();
    let exact = TreeIndex::build(trees.iter().cloned())
        .unfiltered()
        .with_algorithm(Algorithm::Rted);

    let a = bounded.range(&q, 1.0);
    let b = exact.range(&q, 1.0);
    assert_eq!(a.neighbors, b.neighbors);
    assert_eq!(a.stats.verified, b.stats.verified);
    assert!(
        a.stats.early_exits > 0,
        "tight budget on distant pairs must trigger early exits"
    );
    assert!(a.stats.bounded_time > std::time::Duration::ZERO);
    assert!(
        a.stats.subproblems < b.stats.subproblems,
        "bounded verification must compute fewer DP cells \
         ({} vs {})",
        a.stats.subproblems,
        b.stats.subproblems
    );
    assert_eq!(b.stats.early_exits, 0);

    // The lifetime totals surface the same signals.
    let t = bounded.totals();
    assert_eq!(t.verify_early_exits, a.stats.early_exits as u64);
    assert!(t.verify_bounded_ns > 0);
    assert!(t.verify_bounded_ns <= t.ted_ns);
}

/// `explain`'s `budgeted` reports what the verifier runs under a finite
/// τ: the bounded kernel whenever the per-pair dispatch is in charge, and
/// never once an algorithm is pinned or the query has no budget.
#[test]
fn explain_budgeted_follows_the_verifier() {
    let trees: Vec<Tree<u32>> = (0..10)
        .map(|i| Shape::ALL[i % Shape::ALL.len()].generate(6 + i, i as u64))
        .collect();
    let index = TreeIndex::build(trees.iter().cloned());
    assert!(
        index.explain(true).budgeted,
        "the dispatch runs the bounded kernel under a finite tau"
    );
    assert!(
        !index.explain(false).budgeted,
        "no budget, no bounded kernel"
    );
    let pinned = index.with_algorithm(Algorithm::Rted);
    assert!(
        !pinned.explain(true).budgeted,
        "a pinned algorithm never runs the bounded kernel"
    );
}
