//! Integration tests of the search engine on the paper's mixed-shape
//! workload: filter effectiveness, pinned algorithms, and the exact
//! acceptance semantics of each query API.

use rted_core::Algorithm;
use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted_index::{ExecPolicy, FilterPipeline, TreeIndex};
use rted_tree::Tree;

/// The acceptance corpus: all six shapes at mixed sizes plus perturbed
/// near-duplicates — trees of different shapes and sizes, so every filter
/// stage has something to prune.
fn shapes_mixed_corpus() -> Vec<Tree<u32>> {
    let mut trees = Vec::new();
    for (i, shape) in Shape::ALL.iter().enumerate() {
        for (j, n) in [30usize, 45, 60].into_iter().enumerate() {
            let base = shape.generate(n, (10 * i + j) as u64);
            trees.push(perturb_labels(
                &base,
                2,
                DEFAULT_ALPHABET,
                (i + 7 * j) as u64,
            ));
            trees.push(base);
        }
    }
    trees
}

#[test]
fn filtered_and_brute_force_join_byte_identical() {
    let corpus = shapes_mixed_corpus();
    for tau in [3.0, 8.0, 20.0] {
        let filtered = TreeIndex::build(corpus.iter().cloned());
        let brute = TreeIndex::build(corpus.iter().cloned()).unfiltered();
        let a = filtered.join(tau);
        let b = brute.join(tau);
        assert_eq!(a.matches, b.matches, "tau {tau}");
        assert!(a.stats.filter.total_pruned() > 0, "no pruning at tau {tau}");
        assert_eq!(
            a.stats.verified as u64 + a.stats.filter.total_pruned(),
            a.stats.candidates as u64,
            "counters must partition the pair set at tau {tau}"
        );
        assert_eq!(b.stats.filter.total_pruned(), 0);
    }
}

#[test]
fn filtered_and_brute_force_range_byte_identical() {
    let corpus = shapes_mixed_corpus();
    let query = perturb_labels(&corpus[1], 1, DEFAULT_ALPHABET, 123);
    for tau in [2.0, 6.0, 15.0] {
        let filtered = TreeIndex::build(corpus.iter().cloned());
        let brute = TreeIndex::build(corpus.iter().cloned()).unfiltered();
        let a = filtered.range(&query, tau);
        let b = brute.range(&query, tau);
        assert_eq!(a.neighbors, b.neighbors, "tau {tau}");
        assert!(a.stats.filter.total_pruned() > 0, "no pruning at tau {tau}");
        assert!(a.stats.verified < corpus.len());
        assert_eq!(b.stats.verified, corpus.len());
    }
}

#[test]
fn top_k_finds_planted_duplicates_first() {
    let corpus = shapes_mixed_corpus();
    // Tree 1 is the base whose perturbed copy is tree 0.
    let query = corpus[1].clone();
    let index = TreeIndex::build(corpus.iter().cloned());
    let res = index.top_k(&query, 2);
    assert_eq!(res.neighbors.len(), 2);
    // The base itself is the exact match; its duplicate is close.
    assert_eq!(res.neighbors[0].id, 1);
    assert_eq!(res.neighbors[0].distance, 0.0);
    assert_eq!(res.neighbors[1].id, 0);
    assert!(res.neighbors[1].distance <= 2.0);
    // The shrinking radius must have pruned most of the corpus.
    assert!(res.stats.filter.total_pruned() > 0);
    assert!(res.stats.verified < corpus.len());
}

#[test]
fn top_k_is_sorted_and_matches_brute_force_ranking() {
    let corpus = shapes_mixed_corpus();
    let query = Shape::Random.generate(40, 999);
    let index = TreeIndex::build(corpus.iter().cloned());
    let brute = TreeIndex::build(corpus.iter().cloned()).unfiltered();
    for k in [1, 4, corpus.len(), corpus.len() + 5] {
        let a = index.top_k(&query, k);
        let b = brute.top_k(&query, k);
        assert_eq!(a.neighbors, b.neighbors, "k {k}");
        assert_eq!(a.neighbors.len(), k.min(corpus.len()));
        for w in a.neighbors.windows(2) {
            assert!(
                (w[0].distance, w[0].id) < (w[1].distance, w[1].id),
                "top-k not sorted by (distance, id)"
            );
        }
    }
}

#[test]
fn every_algorithm_verifier_agrees() {
    let corpus = shapes_mixed_corpus();
    let base = TreeIndex::build(corpus.iter().cloned()).join(6.0);
    for alg in Algorithm::ALL {
        let index = TreeIndex::build(corpus.iter().cloned()).with_algorithm(alg);
        let res = index.join(6.0);
        assert_eq!(res.matches, base.matches, "{alg}");
    }
}

#[test]
fn thread_counts_do_not_change_results() {
    let corpus = shapes_mixed_corpus();
    let query = perturb_labels(&corpus[5], 3, DEFAULT_ALPHABET, 31);
    let serial = TreeIndex::build(corpus.iter().cloned()).with_policy(ExecPolicy {
        threads: 1,
        chunk: 4,
    });
    let threaded = TreeIndex::build(corpus.iter().cloned()).with_policy(ExecPolicy {
        threads: 3,
        chunk: 4,
    });
    assert_eq!(
        serial.range(&query, 9.0).neighbors,
        threaded.range(&query, 9.0).neighbors
    );
    assert_eq!(
        serial.top_k(&query, 5).neighbors,
        threaded.top_k(&query, 5).neighbors
    );
    let (a, b) = (serial.join(7.0), threaded.join(7.0));
    assert_eq!(a.matches, b.matches);
    assert_eq!(a.stats.filter, b.stats.filter);
    assert_eq!(a.stats.subproblems, b.stats.subproblems);
}

#[test]
fn stage_counters_name_the_stages() {
    let corpus = shapes_mixed_corpus();
    let index = TreeIndex::build(corpus.iter().cloned());
    let res = index.join(5.0);
    let names: Vec<&str> = res.stats.filter.stages.iter().map(|s| s.stage).collect();
    assert_eq!(
        names,
        ["size", "depth", "leaf", "degree", "histogram", "pqgram"]
    );
    // The size stage dominates on a size-mixed corpus.
    assert!(res.stats.filter.stages[0].pruned > 0);
}

#[test]
fn counters_follow_documented_stage_order_when_size_is_not_first() {
    use rted_core::bounds::{DepthBound, SizeBound};
    // With `size` second, the depth stage (first) must claim every pair
    // it can prune — the sorted-size shortcut only replaces the size
    // stage when it is the pipeline's first stage.
    let corpus = shapes_mixed_corpus();
    let pipeline = FilterPipeline::from_stages(vec![Box::new(DepthBound), Box::new(SizeBound)]);
    let index = TreeIndex::build(corpus.iter().cloned()).with_pipeline(pipeline);
    let brute = TreeIndex::build(corpus.iter().cloned()).unfiltered();
    let res = index.join(5.0);
    assert_eq!(res.matches, brute.join(5.0).matches);
    // Depth differences abound on this corpus (caterpillars vs full
    // binary), so the first-listed stage must get credit.
    let names: Vec<&str> = res.stats.filter.stages.iter().map(|s| s.stage).collect();
    assert_eq!(names, ["depth", "size"]);
    assert!(res.stats.filter.stages[0].pruned > 0);
    // The query side honors the same ordering.
    let query = Shape::LeftBranch.generate(40, 5);
    let qres = index.range(&query, 5.0);
    assert_eq!(qres.neighbors, brute.range(&query, 5.0).neighbors);
    assert!(qres.stats.filter.stages[0].pruned > 0);
}

#[test]
fn zero_and_negative_tau_return_empty_without_panicking() {
    // Regression: tau <= 0 used to make the size-window cuts cross and
    // panic on a backwards slice when a corpus tree matched the query's
    // size exactly.
    let corpus = shapes_mixed_corpus();
    let query = corpus[1].clone(); // exact duplicate of a corpus tree
    let index = TreeIndex::build(corpus.iter().cloned());
    for tau in [0.0, -3.0] {
        let res = index.range(&query, tau);
        assert!(res.neighbors.is_empty(), "tau {tau}");
        assert_eq!(res.stats.verified, 0, "tau {tau}");
        assert!(index.join(tau).matches.is_empty(), "tau {tau}");
    }
}

#[test]
fn empty_and_degenerate_inputs() {
    let empty: Vec<Tree<u32>> = Vec::new();
    let index = TreeIndex::build(empty);
    let query = Shape::FullBinary.generate(7, 1);
    assert!(index.range(&query, 5.0).neighbors.is_empty());
    assert!(index.top_k(&query, 3).neighbors.is_empty());
    assert!(index.join(5.0).matches.is_empty());

    let single = TreeIndex::build(vec![Shape::FullBinary.generate(7, 1)]);
    assert!(single.join(100.0).matches.is_empty());
    let res = single.range(&query, 100.0);
    assert_eq!(res.neighbors.len(), 1);
    assert_eq!(res.neighbors[0].distance, 0.0);
    assert!(single.top_k(&query, 0).neighbors.is_empty());
}

#[test]
fn custom_pipeline_from_stages() {
    use rted_core::bounds::{DepthBound, HistogramBound};
    let corpus = shapes_mixed_corpus();
    let pipeline =
        FilterPipeline::from_stages(vec![Box::new(DepthBound), Box::new(HistogramBound)]);
    let index = TreeIndex::build(corpus.iter().cloned()).with_pipeline(pipeline);
    let brute = TreeIndex::build(corpus.iter().cloned()).unfiltered();
    // No size stage: the index must not use the size window, and results
    // still match brute force.
    assert!(index.pipeline().stage_index("size").is_none());
    let (a, b) = (index.join(6.0), brute.join(6.0));
    assert_eq!(a.matches, b.matches);
    assert!(a.stats.filter.total_pruned() > 0);
}
