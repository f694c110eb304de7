//! Asserts the documented [`SearchStats`] counter semantics per query
//! type (see the struct docs): the counters partition the candidate set
//! exactly — `pruned + verified == candidates` — for every `range`,
//! `top_k` and `join`, edge cases included. Also checks that lifetime
//! totals fold per-query stats faithfully, that verified pairs partition
//! across the kernel arms, and that filter stages keep their
//! construction order.

use rted_core::Algorithm;
use rted_datasets::shapes::Shape;
use rted_index::{QueryResult, SearchStats, TreeIndex};
use rted_tree::Tree;

fn corpus(n: usize) -> Vec<Tree<u32>> {
    (0..n)
        .map(|i| Shape::ALL[i % Shape::ALL.len()].generate(6 + i % 9, i as u64))
        .collect()
}

/// `pruned + verified == candidates`: the partition every query keeps.
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

/// The partition holds at the edges: `k = 0` (no candidate considered),
/// `tau = ∞` (no stage can prune, so everything is verified), `tau = 0`
/// (nothing can match), and an empty corpus — with and without filters.
#[test]
fn edge_cases_partition_candidates() {
    let n = 16;
    let query = Shape::Mixed.generate(9, 5);
    for index in [
        TreeIndex::build(corpus(n)),
        TreeIndex::build(corpus(n)).unfiltered(),
    ] {
        let none = index.top_k(&query, 0);
        assert!(none.neighbors.is_empty());
        assert_eq!(none.stats.candidates, 0);
        assert_eq!(none.stats.verified, 0);
        assert_partition(&none.stats, "top_k k = 0");

        let all = index.range(&query, f64::INFINITY);
        assert_eq!(all.neighbors.len(), n);
        assert_eq!(all.stats.verified, n, "tau = inf verifies every tree");
        assert_partition(&all.stats, "range tau = inf");
        assert_partition(&index.range(&query, 0.0).stats, "range tau = 0");

        let join = index.join(f64::INFINITY);
        assert_eq!(join.stats.candidates, n * (n - 1) / 2);
        assert_eq!(join.stats.verified, join.stats.candidates);
        assert_partition(&join.stats, "join tau = inf");

        let all_k = index.top_k(&query, n + 3);
        assert_eq!(all_k.neighbors.len(), n);
        assert_partition(&all_k.stats, "top_k k > n");
    }

    let empty = TreeIndex::build(Vec::<Tree<u32>>::new());
    for tau in [0.0, 3.0, f64::INFINITY] {
        let res = empty.range(&query, tau);
        assert!(res.neighbors.is_empty());
        assert_eq!(res.stats.candidates, 0);
        assert_partition(&res.stats, "empty range");
        let join = empty.join(tau);
        assert!(join.matches.is_empty());
        assert_eq!(join.stats.candidates, 0);
        assert_partition(&join.stats, "empty join");
    }
    for k in [0, 3] {
        let res = empty.top_k(&query, k);
        assert!(res.neighbors.is_empty());
        assert_eq!(res.stats.candidates, 0);
        assert_partition(&res.stats, "empty top_k");
    }
    let t = empty.totals();
    assert_eq!((t.range_queries, t.topk_queries, t.join_queries), (3, 2, 3));
    assert_eq!(t.candidates, 0);
}

/// Budgeted and unbudgeted queries over a corpus mixing small trees with
/// zig-zag ones must split their verifications across dispatch arms —
/// and every counter family must partition exactly: candidates into
/// per-stage prunes plus verified, verified into the three
/// `plan_*_pairs` arms, early exits within the bounded arm, bounded wall
/// time within total TED time.
#[test]
fn mixed_verifier_dispatch_partitions_the_totals() {
    let q = Shape::Mixed.generate(16, 9);
    let mut trees: Vec<Tree<u32>> = Vec::new();
    for i in 0..6u64 {
        // 4·16 = 64 cells → the exact rule (Zhang–Shasha) under any
        // budget; 26·16 = 416 → bounded kernel under a finite budget.
        // Without one, the rule runs Zhang–Shasha on the 4- and 26-node
        // trees and RTED on the zig-zag ones, whose Zhang–Shasha cells
        // exceed 30 · |q| · |ZZ|.
        trees.push(Shape::ALL[i as usize % Shape::ALL.len()].generate(4, i));
        trees.push(Shape::ALL[i as usize % Shape::ALL.len()].generate(26, 100 + i));
    }
    for i in 0..2u64 {
        let zigzag = Shape::ZigZag.generate(130, 200 + i);
        assert_eq!(Algorithm::cheapest_exact(&q, &zigzag), Algorithm::Rted);
        trees.push(zigzag);
    }
    let index = TreeIndex::build(trees.iter().cloned());

    // τ wide enough that the size stage keeps both small size groups in
    // play, finite so verification above 256 cells is budget-aware.
    let res = index.range(&q, 40.0);
    let t = index.totals();
    assert!(t.plan_zs_pairs > 0, "no pair took the Zhang–Shasha arm");
    assert!(t.plan_bounded_pairs > 0, "no pair took the bounded arm");
    assert_eq!(
        t.verified,
        t.plan_zs_pairs + t.plan_bounded_pairs + t.plan_rted_pairs,
        "verified pairs must partition across the dispatch arms"
    );
    let pruned: u64 = t.stages.iter().map(|s| s.pruned).sum();
    assert_eq!(t.candidates, pruned + t.verified);
    assert!(t.verify_early_exits <= t.plan_bounded_pairs);
    assert!(t.verify_bounded_ns <= t.ted_ns);
    assert!(t.verify_bounded_ns > 0);
    assert_eq!(res.stats.verified as u64, t.verified);

    // A tight budget makes the bounded arm abandon over-budget pairs:
    // early exits appear, and stay bounded by the arm's pair count.
    let _ = index.range(&q, 12.0);
    let t = index.totals();
    assert!(
        t.verify_early_exits > 0,
        "tight budget produced no early exit"
    );
    assert!(t.verify_early_exits <= t.plan_bounded_pairs);

    // An unbudgeted query sends each pair to the kernel the rule picks:
    // Zhang–Shasha for the small trees, full RTED for the zig-zag ones;
    // the bounded-arm counter must not move.
    let (bounded_before, zs_before, rted_before) =
        (t.plan_bounded_pairs, t.plan_zs_pairs, t.plan_rted_pairs);
    let _ = index.range(&q, f64::INFINITY);
    let t = index.totals();
    assert!(
        t.plan_zs_pairs > zs_before,
        "unbudgeted small pairs must take Zhang–Shasha"
    );
    assert!(
        t.plan_rted_pairs > rted_before,
        "unbudgeted zig-zag pairs must take full RTED"
    );
    assert_eq!(t.plan_bounded_pairs, bounded_before);
    assert_eq!(
        t.verified,
        t.plan_zs_pairs + t.plan_bounded_pairs + t.plan_rted_pairs
    );
}

/// `explain` reports the pipeline's stage order and the verifier, and
/// records nothing: the totals after any number of probes equal a fresh
/// index's.
#[test]
fn explain_reports_and_records_like_a_query() {
    let trees: Vec<Tree<u32>> = (0..10)
        .map(|i| Shape::ALL[i % Shape::ALL.len()].generate(6 + i, i as u64))
        .collect();
    let index = TreeIndex::build(trees.iter().cloned());
    let fresh = index.totals();
    let report = index.explain(true);
    assert_eq!(report.stage_order.first().copied(), Some("size"));
    assert!(report.budgeted);
    assert!(!index.explain(false).budgeted);
    assert_eq!(index.totals(), fresh, "explain must not record");
}

/// Filter stages always run in construction order: after many queries
/// with a lopsided prune profile `explain` still reports the
/// construction order, and every lifetime stage counter is the
/// positional sum of the queries' per-stage counts.
#[test]
fn stage_order_is_fixed() {
    let trees: Vec<Tree<u32>> = (0..12)
        .map(|i| Shape::Mixed.generate(10 + i, i as u64))
        .collect();
    let index = TreeIndex::build(trees.iter().cloned());
    let construction: Vec<&str> = index.pipeline().stages().iter().map(|s| s.name()).collect();

    // Mixed-shape trees at a tight and a loose threshold give the
    // non-trivial stages lopsided prune counts.
    let mut summed = vec![0u64; construction.len()];
    for tree in &trees {
        for tau in [2.0, 8.0] {
            let res = index.range(tree, tau);
            for (sum, stage) in summed.iter_mut().zip(&res.stats.filter.stages) {
                *sum += stage.pruned;
            }
        }
    }
    assert!(summed.iter().filter(|&&p| p > 0).count() > 1);
    assert_eq!(index.explain(true).stage_order, construction);
    let t = index.totals();
    let names: Vec<&str> = t.stages.iter().map(|s| s.stage).collect();
    assert_eq!(names, construction);
    let lifetime: Vec<u64> = t.stages.iter().map(|s| s.pruned).collect();
    assert_eq!(lifetime, summed, "stage credit lines up by position");
}
