//! Asserts the documented [`SearchStats`] counter semantics per query
//! type (see the struct docs): on the linear paths the counters
//! partition the candidate set exactly — `pruned + verified ==
//! candidates`. Also checks that lifetime totals fold per-query stats
//! faithfully.

use rted_datasets::shapes::Shape;
use rted_index::{QueryResult, SearchStats, TreeIndex};
use rted_tree::Tree;

fn corpus(n: usize) -> Vec<Tree<u32>> {
    (0..n)
        .map(|i| Shape::ALL[i % Shape::ALL.len()].generate(6 + i % 9, i as u64))
        .collect()
}

/// `pruned + verified == candidates`: the linear-path partition.
fn assert_partition(stats: &SearchStats, what: &str) {
    assert_eq!(
        stats.filter.total_pruned() + stats.verified as u64,
        stats.candidates as u64,
        "{what}: pruned + verified must partition the candidates"
    );
}

#[test]
fn linear_range_partitions_candidates() {
    let index = TreeIndex::build(corpus(24));
    let query = Shape::Mixed.generate(9, 999);
    for tau in [1.0, 4.0, 10.0] {
        let res = index.range(&query, tau);
        assert_eq!(res.stats.candidates, 24);
        assert_partition(&res.stats, "range");
    }
}

#[test]
fn linear_top_k_partitions_candidates() {
    let index = TreeIndex::build(corpus(24));
    let query = Shape::Random.generate(8, 123);
    for k in [1, 3, 24, 100] {
        let res: QueryResult = index.top_k(&query, k);
        assert_eq!(res.stats.candidates, 24);
        assert_partition(&res.stats, "top_k");
    }
}

#[test]
fn linear_join_partitions_unordered_pairs() {
    let n = 18;
    let index = TreeIndex::build(corpus(n));
    for tau in [2.0, 5.0] {
        let out = index.join(tau);
        assert_eq!(out.stats.candidates, n * (n - 1) / 2);
        assert_partition(&out.stats, "join");
    }
}

/// Per-query stats fold into lifetime totals exactly.
#[test]
fn totals_fold_per_query_stats() {
    let index = TreeIndex::build(corpus(20));
    let query = Shape::Mixed.generate(9, 7);

    let r1 = index.range(&query, 3.0);
    let r2 = index.range(&query, 6.0);
    let k1 = index.top_k(&query, 4);
    let j1 = index.join(3.0);

    let t = index.totals();
    assert_eq!(t.range_queries, 2);
    assert_eq!(t.topk_queries, 1);
    assert_eq!(t.join_queries, 1);
    assert_eq!(t.distance_calls, 0);

    let all = [&r1.stats, &r2.stats, &k1.stats, &j1.stats];
    let verified: u64 = all.iter().map(|s| s.verified as u64).sum();
    let subproblems: u64 = all.iter().map(|s| s.subproblems).sum();
    let candidates: u64 = all.iter().map(|s| s.candidates as u64).sum();
    assert_eq!(t.verified, verified);
    assert_eq!(t.subproblems, subproblems);
    assert_eq!(t.candidates, candidates);

    // Per-stage totals line up with the pipeline's stage order and sum
    // the per-query counters.
    assert_eq!(t.stages.len(), index.pipeline().stages().len());
    for (i, stage) in t.stages.iter().enumerate() {
        assert_eq!(stage.stage, index.pipeline().stages()[i].name());
        let expected: u64 = all.iter().map(|s| s.filter.stages[i].pruned).sum();
        assert_eq!(stage.pruned, expected, "stage {}", stage.stage);
    }

    // Verification took measurable exact-TED time, and the totals carry
    // it (ted_ns counts strategy + distance phases).
    assert!(verified > 0);
    assert!(t.ted_ns > 0);
    assert!(all.iter().any(|s| s.ted_time.as_nanos() > 0));

    // distance_within records the distance-call counter, not `verified`.
    let f = Shape::Mixed.generate(8, 1);
    let g = Shape::Random.generate(8, 2);
    let mut ws = rted_core::Workspace::new();
    index.distance_within(&f, &g, f64::INFINITY, &mut ws);
    let t2 = index.totals();
    assert_eq!(t2.distance_calls, 1);
    assert_eq!(t2.verified, t.verified);
    assert!(t2.subproblems > t.subproblems);
}
