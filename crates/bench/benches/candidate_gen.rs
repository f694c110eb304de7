//! Candidate generation: the linear size-window scan versus metric
//! (vantage-point tree) traversal, across query selectivities.
//!
//! The corpus is the metric tree's target workload: clusters of
//! near-duplicates with **uniform tree size** over the small default
//! alphabet, so the size window admits everything and the label-based
//! bounds are weak. Three regimes emerge, all printed as counters next
//! to the timings:
//!
//! * **tiny τ** — the pipeline bounds already prune nearly every
//!   candidate; the linear scan verifies a handful and the metric tree's
//!   routing distances are pure overhead;
//! * **the bound-blind selective band** — τ exceeds what the cheap
//!   bounds can prove, yet only one cluster actually matches: the linear
//!   scan must verify the *whole corpus* while triangle-inequality
//!   routing settles everything with a few vantage distances. This is
//!   the regime the subsystem exists for, and the advantage (fewer exact
//!   TED computations at a τ that is still small relative to the corpus
//!   spread) is asserted so CI fails if it ever regresses;
//! * **τ beyond the spread** — everything matches and must be verified
//!   either way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted_index::TreeIndex;
use rted_tree::Tree;
use std::hint::black_box;

/// Clusters of label-perturbed near-duplicates, all of one size: the
/// size stage is blind, histograms nearly agree, exact distances are
/// small inside a cluster and large across.
fn clustered_corpus(clusters: usize, per_cluster: usize, tree_size: usize) -> Vec<Tree<u32>> {
    let mut trees = Vec::new();
    for c in 0..clusters {
        let base = Shape::Random.generate(tree_size, c as u64);
        trees.push(base.clone());
        for j in 1..per_cluster {
            trees.push(perturb_labels(
                &base,
                1 + j % 3,
                DEFAULT_ALPHABET,
                (c * 100 + j) as u64,
            ));
        }
    }
    trees
}

fn candidate_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_gen");
    group.sample_size(10);
    let trees = clustered_corpus(8, 8, 36);
    let query = perturb_labels(&trees[0], 1, DEFAULT_ALPHABET, 999);

    let linear = TreeIndex::build(trees.iter().cloned());
    let metric = TreeIndex::build(trees.iter().cloned()).with_metric_tree(true);
    // Pay the one-time vantage-point build outside every timing loop (it
    // is amortized over the query stream in production).
    let _ = metric.range(&query, 2.0);
    let build_ted = metric.metric_snapshot().build_ted;
    eprintln!(
        "candidate_gen: corpus {} trees, vp build spent {build_ted} exact distances (one-time)",
        trees.len()
    );

    // τ = 24 is the asserted bound-blind selective point: far below the
    // inter-cluster spread (only the query's own cluster matches) yet
    // beyond the cheap bounds' reach (the linear scan verifies the whole
    // corpus).
    let asserted_tau = 24.0;
    let mut asserted_counts = None;
    for tau in [3.0, 6.0, 12.0, 24.0] {
        let lin = linear.range(&query, tau);
        let met = metric.range(&query, tau);
        assert_eq!(lin.neighbors, met.neighbors, "paths disagree at tau {tau}");
        eprintln!(
            "candidate_gen: tau={tau:<4} matches={:<3} linear_exact={:<3} metric_exact={:<3} \
             (visited {}, bound-skipped {})",
            lin.neighbors.len(),
            lin.stats.verified,
            met.stats.verified,
            met.stats.metric.nodes_visited,
            met.stats.metric.routing_skipped,
        );
        if tau == asserted_tau {
            // Still selective: most of the corpus must NOT match, or the
            // comparison would be vacuous.
            assert!(lin.neighbors.len() * 4 < trees.len());
            asserted_counts = Some((lin.stats.verified, met.stats.verified));
        }
        group.bench_with_input(BenchmarkId::new("range_linear", tau), &tau, |b, &tau| {
            b.iter(|| black_box(linear.range(&query, tau).neighbors.len()));
        });
        group.bench_with_input(BenchmarkId::new("range_metric", tau), &tau, |b, &tau| {
            b.iter(|| black_box(metric.range(&query, tau).neighbors.len()));
        });
    }
    // The bound-blind selective band is the metric tree's reason to
    // exist: it must beat the size-window path on exact computations.
    let (lin_exact, met_exact) = asserted_counts.expect("asserted tau benched");
    assert!(
        met_exact < lin_exact,
        "metric path verified {met_exact} exactly, linear {lin_exact} — \
         the VP tree no longer pays off in the selective band"
    );

    for k in [1usize, 5] {
        group.bench_with_input(BenchmarkId::new("topk_linear", k), &k, |b, &k| {
            b.iter(|| black_box(linear.top_k(&query, k).neighbors.len()));
        });
        group.bench_with_input(BenchmarkId::new("topk_metric", k), &k, |b, &k| {
            b.iter(|| black_box(metric.top_k(&query, k).neighbors.len()));
        });
    }

    // Joins always scan linearly (the per-tree metric join lost in every
    // regime); the rows keep the join's cost next to range/top-k.
    for tau in [4.0, 24.0] {
        group.bench_with_input(BenchmarkId::new("join_linear", tau), &tau, |b, &tau| {
            b.iter(|| black_box(linear.join(tau).matches.len()));
        });
    }

    group.finish();
}

criterion_group!(benches, candidate_gen);
criterion_main!(benches);
