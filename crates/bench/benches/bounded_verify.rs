//! Budget-aware verification: the band-limited `ted_at_most_run` kernel
//! versus the full RTED computation, per pair and end-to-end.
//!
//! Two claims are measured — and the deterministic halves of them
//! asserted, so CI fails if the kernel stops paying for itself:
//!
//! * **per pair, selective regime** — on distant same-size trees with a
//!   tight budget, the kernel certifies `exceeds` from the band frontier
//!   after a fraction of the DP cells the full computation fills (the
//!   ratio is asserted at ≥2×, the timing recorded in the JSON);
//! * **end-to-end** — a range/top-k query through the default
//!   [`TreeIndex`] (bounded verifier) returns byte-identical neighbors
//!   to the pure exact-RTED verifier while computing strictly fewer
//!   subproblems whenever the threshold leaves non-matching survivors.
//!
//! The corpus is the `candidate_gen` workload: uniform-size clusters of
//! near-duplicates, so the cheap bounds are blind and every surviving
//! candidate reaches the verifier — exactly where the budget matters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rted_core::{ted_at_most_run, Algorithm, BoundedResult, UnitCost, Workspace};
use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted_index::TreeIndex;
use rted_tree::Tree;
use std::hint::black_box;

/// Clusters of label-perturbed near-duplicates, all of one size — see
/// `candidate_gen.rs` for why this shape defeats the filter pipeline.
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

fn bounded_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounded_verify");
    group.sample_size(10);
    let cm = UnitCost;
    let mut ws = Workspace::new();

    // Per-pair: independently generated random trees of equal size are
    // far apart, so τ = 2 is deeply selective and the frontier abandons
    // within the first few sheets.
    for n in [32usize, 64, 128] {
        let f = Shape::Random.generate(n, 11);
        let g = Shape::Random.generate(n, 1_000_000 + n as u64);
        let exact = Algorithm::Rted.run_in(&f, &g, &cm, &mut ws);
        let tight = ted_at_most_run(&f, &g, &cm, 2.0, &mut ws);
        assert!(
            matches!(tight.result, BoundedResult::Exceeds(_)),
            "independently random size-{n} trees must exceed tau = 2"
        );
        assert!(tight.early_exit);
        assert!(
            tight.subproblems * 2 <= exact.subproblems,
            "exceeds path must be >=2x cheaper in DP cells at n = {n}: \
             bounded {} vs exact {}",
            tight.subproblems,
            exact.subproblems
        );
        // A met budget must stay exact: the kernel is a verifier, not an
        // approximation.
        let loose = ted_at_most_run(&f, &g, &cm, exact.distance, &mut ws);
        assert_eq!(loose.result, BoundedResult::Exact(exact.distance));
        eprintln!(
            "bounded_verify: n={n:<4} exact {} cells | tau=2 exceeds after {} cells \
             | tau=d exact after {} cells",
            exact.subproblems, tight.subproblems, loose.subproblems
        );
        group.bench_with_input(BenchmarkId::new("pair_full_rted", n), &n, |b, _| {
            b.iter(|| black_box(Algorithm::Rted.run_in(&f, &g, &cm, &mut ws).distance));
        });
        group.bench_with_input(BenchmarkId::new("pair_at_most_2", n), &n, |b, _| {
            b.iter(|| black_box(ted_at_most_run(&f, &g, &cm, 2.0, &mut ws).result.value()));
        });
    }

    // End-to-end: the default (bounded) index against the pure exact
    // verifier on the filter-blind clustered corpus.
    let trees = clustered_corpus(8, 8, 36);
    let query = perturb_labels(&trees[0], 1, DEFAULT_ALPHABET, 999);
    let bounded = TreeIndex::build(trees.iter().cloned());
    let exact = TreeIndex::build(trees.iter().cloned()).with_algorithm(Algorithm::Rted);
    for tau in [6.0, 24.0] {
        let a = bounded.range(&query, tau);
        let b = exact.range(&query, tau);
        assert_eq!(a.neighbors, b.neighbors, "paths disagree at tau {tau}");
        eprintln!(
            "bounded_verify: tau={tau:<4} matches={:<3} verified={:<3} \
             bounded_cells={:<8} exact_cells={:<8} early_exits={}",
            a.neighbors.len(),
            a.stats.verified,
            a.stats.subproblems,
            b.stats.subproblems,
            a.stats.early_exits
        );
        if a.stats.verified > a.neighbors.len() {
            // Non-matching survivors reached the verifier: the budget
            // must have saved work on them.
            assert!(a.stats.early_exits > 0, "no early exits at tau {tau}");
            assert!(
                a.stats.subproblems < b.stats.subproblems,
                "bounded range computed no fewer cells at tau {tau}: {} vs {}",
                a.stats.subproblems,
                b.stats.subproblems
            );
        }
        group.bench_with_input(BenchmarkId::new("range_bounded", tau), &tau, |b, &tau| {
            b.iter(|| black_box(bounded.range(&query, tau).neighbors.len()));
        });
        group.bench_with_input(BenchmarkId::new("range_exact", tau), &tau, |b, &tau| {
            b.iter(|| black_box(exact.range(&query, tau).neighbors.len()));
        });
    }

    for k in [1usize, 5] {
        assert_eq!(
            bounded.top_k(&query, k).neighbors,
            exact.top_k(&query, k).neighbors,
            "top-{k} paths disagree"
        );
        group.bench_with_input(BenchmarkId::new("topk_bounded", k), &k, |b, &k| {
            b.iter(|| black_box(bounded.top_k(&query, k).neighbors.len()));
        });
        group.bench_with_input(BenchmarkId::new("topk_exact", k), &k, |b, &k| {
            b.iter(|| black_box(exact.top_k(&query, k).neighbors.len()));
        });
    }

    group.finish();
}

criterion_group!(benches, bounded_verify);
criterion_main!(benches);
