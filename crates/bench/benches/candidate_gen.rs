//! Candidate generation: the linear size-window scan across query
//! selectivities, for `range`, `top_k` and `join`.
//!
//! The corpus defeats the cheap filters on purpose: clusters of
//! near-duplicates with **uniform tree size** over the small default
//! alphabet, so the size window admits everything and the label-based
//! bounds are weak. Three regimes, printed as counters next to the
//! timings:
//!
//! * **tiny τ** — the pipeline bounds already prune nearly every
//!   candidate; the scan verifies a handful;
//! * **the bound-blind selective band** — τ exceeds what the cheap
//!   bounds can prove, yet only one cluster actually matches: the scan
//!   verifies the *whole corpus*, and the bounded verifier's early exit
//!   is what keeps the non-matches cheap;
//! * **τ beyond the spread** — everything matches and must be verified.

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

    for tau in [3.0, 6.0, 12.0, 24.0] {
        let res = linear.range(&query, tau);
        eprintln!(
            "candidate_gen: tau={tau:<4} matches={:<3} verified={:<3} early_exits={}",
            res.neighbors.len(),
            res.stats.verified,
            res.stats.early_exits,
        );
        group.bench_with_input(BenchmarkId::new("range_linear", tau), &tau, |b, &tau| {
            b.iter(|| black_box(linear.range(&query, tau).neighbors.len()));
        });
    }

    for k in [1usize, 5] {
        group.bench_with_input(BenchmarkId::new("topk_linear", k), &k, |b, &k| {
            b.iter(|| black_box(linear.top_k(&query, k).neighbors.len()));
        });
    }

    for tau in [4.0, 24.0] {
        group.bench_with_input(BenchmarkId::new("join_linear", tau), &tau, |b, &tau| {
            b.iter(|| black_box(linear.join(tau).matches.len()));
        });
    }

    group.finish();
}

criterion_group!(benches, candidate_gen);
criterion_main!(benches);
