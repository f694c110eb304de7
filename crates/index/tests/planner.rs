//! The adaptive query planner's contract: **plans never change
//! answers**. A planner-steered index must return byte-identical
//! `range`/`top_k`/`join` results to both fixed configurations
//! (all-linear and all-metric candidate generation), across corpora,
//! churn, thresholds, and warm-up histories; the planner's verifier
//! dispatch must partition the work counters exactly; and the striped
//! top-k driver must replay the union index's schedule counter-for-
//! counter.

use proptest::prelude::*;
use rted_core::Algorithm;
use rted_datasets::shapes::Shape;
use rted_index::{SearchStats, TreeIndex};
use rted_plan::CandidateGen;
use rted_tree::Tree;

fn arb_shape_tree(max: usize) -> impl Strategy<Value = Tree<u32>> {
    (0..Shape::ALL.len(), 1..=max, any::<u32>())
        .prop_map(|(s, n, seed)| Shape::ALL[s].generate(n, seed as u64))
}

/// An insert/remove script applied identically to every index under
/// comparison.
type Churn = Vec<(bool, u32, Tree<u32>)>;

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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Planner-on answers ≡ all-linear answers ≡ all-metric answers,
    /// for range, top-k and join, after a warm-up history long enough to
    /// cross the cold-start, baseline-probe and exploit phases of the
    /// generator crossover, and after churn on top.
    #[test]
    fn planned_queries_identical_to_both_fixed_configs(
        corpus in proptest::collection::vec(arb_shape_tree(16), 2..=8),
        ops in proptest::collection::vec((any::<bool>(), any::<u32>(), arb_shape_tree(14)), 0..6),
        q in arb_shape_tree(16),
        tau_int in 0..20usize,
        k in 1..6usize,
    ) {
        let tau = if tau_int == 0 { f64::INFINITY } else { tau_int as f64 };
        let mut linear = TreeIndex::build(corpus.iter().cloned());
        let mut metric = TreeIndex::build(corpus.iter().cloned()).with_metric_tree(true);
        let mut planned = TreeIndex::build(corpus.iter().cloned())
            .with_metric_tree(true)
            .with_planner(true);

        // Warm the planner past its decision thresholds: both arms get
        // sampled, so the comparison below exercises *steered* plans,
        // not the cold-start passthrough.
        for (i, (_, entry)) in planned.corpus().iter().take(9).enumerate().collect::<Vec<_>>() {
            let probe = entry.tree().clone();
            let _ = planned.range(&probe, 2.0 + i as f64);
        }
        let _ = metric.range(&q, 3.0);
        apply_churn(&mut linear, &ops);
        apply_churn(&mut metric, &ops);
        apply_churn(&mut planned, &ops);

        let p = planned.range(&q, tau);
        prop_assert_eq!(&p.neighbors, &linear.range(&q, tau).neighbors);
        prop_assert_eq!(&p.neighbors, &metric.range(&q, tau).neighbors);

        let p = planned.top_k(&q, k);
        prop_assert_eq!(&p.neighbors, &linear.top_k(&q, k).neighbors);
        prop_assert_eq!(&p.neighbors, &metric.top_k(&q, k).neighbors);

        let p = planned.join(tau);
        prop_assert_eq!(&p.matches, &linear.join(tau).matches);
        prop_assert_eq!(&p.matches, &metric.join(tau).matches);
    }
}

/// One budgeted query over a corpus mixing tiny trees (size product at
/// or below the Zhang–Shasha cutoff) with large ones must split its
/// verifications across dispatch arms — and every counter family must
/// partition exactly: candidates into per-stage prunes plus verified,
/// verified into the three `plan_*_pairs` arms, early exits within the
/// bounded arm, bounded wall time within total TED time.
#[test]
fn mixed_verifier_dispatch_partitions_the_totals() {
    let mut trees: Vec<Tree<u32>> = Vec::new();
    for i in 0..6u64 {
        // 4·16 = 64 cells → Zhang–Shasha; 26·16 = 416 → bounded kernel
        // under a finite budget, full RTED without one.
        trees.push(Shape::ALL[i as usize % Shape::ALL.len()].generate(4, i));
        trees.push(Shape::ALL[i as usize % Shape::ALL.len()].generate(26, 100 + i));
    }
    let index = TreeIndex::build(trees.iter().cloned()).with_planner(true);
    let q = Shape::Mixed.generate(16, 9);

    // τ wide enough that the size stage keeps both size groups in play,
    // finite so verification above the cutoff is budget-aware.
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

    // An unbudgeted query sends the same large pairs to full RTED
    // instead; the bounded-arm counter must not move.
    let bounded_before = t.plan_bounded_pairs;
    let _ = index.range(&q, f64::INFINITY);
    let t = index.totals();
    assert!(
        t.plan_rted_pairs > 0,
        "unbudgeted large pairs must take full RTED"
    );
    assert_eq!(t.plan_bounded_pairs, bounded_before);
    assert_eq!(
        t.verified,
        t.plan_zs_pairs + t.plan_bounded_pairs + t.plan_rted_pairs
    );
}

/// `explain` is gated exactly like a real query: with the planner off it
/// reports the fixed plan and records nothing; with it on it records a
/// decision and honours the configured generator on cold start.
#[test]
fn explain_reports_and_records_like_a_query() {
    let trees: Vec<Tree<u32>> = (0..10)
        .map(|i| Shape::ALL[i % Shape::ALL.len()].generate(6 + i, i as u64))
        .collect();

    let fixed = TreeIndex::build(trees.iter().cloned());
    let report = fixed.explain(true);
    assert_eq!(report.stage_order.first().copied(), Some("size"));
    let t = fixed.totals();
    assert_eq!(
        t.plan_linear + t.plan_metric,
        0,
        "explain must not record while off"
    );

    let planned = TreeIndex::build(trees.iter().cloned()).with_planner(true);
    let report = planned.explain(true);
    assert!(report.budgeted);
    // Metric trees disabled → the metric arm is ineligible.
    assert_eq!(report.candidate_gen, CandidateGen::Linear);
    assert_eq!(planned.totals().plan_linear, 1);
    assert_eq!(report.observed_queries, 0);

    // Cold start honours the configured generator (metric enabled,
    // unsampled → metric), but only for budgeted queries: τ = ∞ cannot
    // route.
    let metric = TreeIndex::build(trees.iter().cloned())
        .with_metric_tree(true)
        .with_planner(true);
    assert_eq!(metric.explain(true).candidate_gen, CandidateGen::Metric);
    assert_eq!(metric.explain(false).candidate_gen, CandidateGen::Linear);
    let t = metric.totals();
    assert_eq!((t.plan_metric, t.plan_linear), (1, 1));
}

/// `budgeted` reports what the verifier runs under a finite τ: the
/// bounded kernel whenever the per-pair dispatch is in charge, with or
/// without the planner, and never once an algorithm is pinned.
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
    let pinned = index.with_algorithm(Algorithm::Rted);
    assert!(
        !pinned.explain(true).budgeted,
        "a pinned algorithm never runs the bounded kernel"
    );
}

/// Filter stages always run in construction order: after many queries
/// with a lopsided prune profile the planner still reports the
/// construction order, applies no reorder, and every lifetime stage
/// counter is the positional sum of the queries' per-stage counts.
#[test]
fn stage_order_is_fixed() {
    let trees: Vec<Tree<u32>> = (0..12)
        .map(|i| Shape::Mixed.generate(10 + i, i as u64))
        .collect();
    let fixed = TreeIndex::build(trees.iter().cloned());
    let planned = TreeIndex::build(trees.iter().cloned()).with_planner(true);
    let construction: Vec<&str> = planned
        .pipeline()
        .stages()
        .iter()
        .map(|s| s.name())
        .collect();

    // Mixed-shape trees at a tight and a loose threshold give the
    // non-trivial stages lopsided prune counts.
    let mut summed = vec![0u64; construction.len()];
    for (i, (_, entry)) in fixed.corpus().iter().enumerate().collect::<Vec<_>>() {
        let probe = entry.tree().clone();
        for tau in [2.0, 8.0] {
            let res = planned.range(&probe, tau);
            assert_eq!(
                res.neighbors,
                fixed.range(&probe, tau).neighbors,
                "probe {i} diverged at tau {tau}"
            );
            for (sum, stage) in summed.iter_mut().zip(&res.stats.filter.stages) {
                *sum += stage.pruned;
            }
        }
    }
    let report = planned.explain(true);
    assert_eq!(report.stage_order, construction);
    let t = planned.totals();
    assert_eq!(t.plan_reorders, 0);
    let names: Vec<&str> = t.stages.iter().map(|s| s.stage).collect();
    assert_eq!(names, construction);
    let lifetime: Vec<u64> = t.stages.iter().map(|s| s.pruned).collect();
    assert_eq!(lifetime, summed, "stage credit lines up by position");
}

/// The striped drivers are counter-identical to one index holding the
/// union corpus under global ids — for top-k the neighbour set *and* the
/// work counters (`verified`, `early_exits`, `subproblems`) replay the
/// same batch schedule; range and join match answers and every counter
/// — and each query is recorded once, into the driver shard.
#[test]
fn striped_top_k_replays_the_union_schedule() {
    let n = 3;
    let trees: Vec<Tree<u32>> = (0..13)
        .map(|g| Shape::ALL[g % Shape::ALL.len()].generate(5 + g, g as u64))
        .collect();
    let union = TreeIndex::build(trees.iter().cloned());
    // Global id g lives on shard g % n as local id g / n.
    let mut shard_trees: Vec<Vec<Tree<u32>>> = vec![Vec::new(); n];
    for (g, t) in trees.iter().enumerate() {
        shard_trees[g % n].push(t.clone());
    }
    let shards: Vec<TreeIndex<u32>> = shard_trees.into_iter().map(TreeIndex::build).collect();
    let refs: Vec<&TreeIndex<u32>> = shards.iter().collect();
    let q = Shape::Mixed.generate(9, 77);

    for k in [1, 4, 13, 20] {
        let a = union.top_k(&q, k);
        let b = TreeIndex::top_k_striped(&refs, &q, k);
        assert_eq!(a.neighbors, b.neighbors, "k {k}");
        assert_eq!(a.stats.candidates, b.stats.candidates, "k {k}");
        assert_eq!(a.stats.verified, b.stats.verified, "k {k}");
        assert_eq!(a.stats.early_exits, b.stats.early_exits, "k {k}");
        assert_eq!(a.stats.subproblems, b.stats.subproblems, "k {k}");
    }
    assert_eq!(
        shards[0].totals().topk_queries,
        4,
        "driver records each query once"
    );
    assert_eq!(shards[1].totals().topk_queries, 0);
    assert_eq!(shards[2].totals().topk_queries, 0);

    // Range and join run the same central driver: the answers and every
    // work counter equal the union index's, under global ids.
    for tau in [0.5, 3.0, 6.0, f64::INFINITY] {
        let a = union.range(&q, tau);
        let b = TreeIndex::range_striped(&refs, &q, tau);
        assert_eq!(a.neighbors, b.neighbors, "range tau {tau}");
        assert_same_work(&a.stats, &b.stats, &format!("range tau {tau}"));
    }
    for tau in [2.0, 6.0, f64::INFINITY] {
        let a = union.join(tau);
        let b = TreeIndex::join_striped(&refs, tau);
        assert_eq!(a.matches, b.matches, "join tau {tau}");
        assert_same_work(&a.stats, &b.stats, &format!("join tau {tau}"));
    }
    assert_eq!(shards[0].totals().range_queries, 4);
    assert_eq!(shards[0].totals().join_queries, 3);
    for shard in &shards[1..] {
        assert_eq!(shard.totals().range_queries, 0);
        assert_eq!(shard.totals().join_queries, 0);
    }

    // With every shard planner-steered the answers still match a
    // planner-steered union index.
    let union_p = TreeIndex::build(trees.iter().cloned()).with_planner(true);
    let shards_p: Vec<TreeIndex<u32>> = shards.into_iter().map(|s| s.with_planner(true)).collect();
    let refs_p: Vec<&TreeIndex<u32>> = shards_p.iter().collect();
    let a = union_p.top_k(&q, 5);
    let b = TreeIndex::top_k_striped(&refs_p, &q, 5);
    assert_eq!(a.neighbors, b.neighbors);
    assert_eq!(a.stats.verified, b.stats.verified);
}

/// Asserts two runs did the same work: candidates, verifications, early
/// exits, subproblems and every per-stage prune count.
fn assert_same_work(a: &SearchStats, b: &SearchStats, what: &str) {
    assert_eq!(a.candidates, b.candidates, "{what}");
    assert_eq!(a.verified, b.verified, "{what}");
    assert_eq!(a.early_exits, b.early_exits, "{what}");
    assert_eq!(a.subproblems, b.subproblems, "{what}");
    assert_eq!(a.filter, b.filter, "{what}");
}
