//! k-nearest-neighbour search over an indexed tree corpus.
//!
//! Builds a mixed-shape corpus with planted near-duplicates, indexes it
//! once (per-tree analysis happens at insert time), then answers top-k and
//! range queries — showing how the staged lower-bound filters cut the
//! number of exact RTED computations.
//!
//! ```text
//! cargo run --release --example knn_search -- [corpus_size] [tree_size] [k]
//! ```

use rted::datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted::index::TreeIndex;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let corpus_size: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(60);
    let tree_size: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(80);
    let k: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    // A corpus cycling through all six shapes, sizes jittered around
    // `tree_size`, labels from the default alphabet.
    let mut trees = Vec::with_capacity(corpus_size);
    for i in 0..corpus_size {
        let shape = Shape::ALL[i % Shape::ALL.len()];
        let n = tree_size + (i * 7) % 25;
        trees.push(shape.generate(n, i as u64));
    }
    // Plant a cluster of near-duplicates of tree 0, so the query has known
    // close neighbours — once the k-th best distance is small, the filter
    // stages can prune the far tail without computing its exact distances.
    let query_base = trees[0].clone();
    for edits in 1..=k.max(2) {
        trees.push(perturb_labels(
            &query_base,
            edits,
            DEFAULT_ALPHABET,
            4242 + edits as u64,
        ));
    }

    let index = TreeIndex::build(trees);
    println!(
        "indexed {} trees (~{} nodes each), {} filter stages, {} threads\n",
        index.corpus().len(),
        tree_size,
        index.pipeline().stages().len(),
        index.policy().threads,
    );

    let query = perturb_labels(&query_base, 1, DEFAULT_ALPHABET, 7);

    println!("top-{k} nearest neighbours of a perturbed copy of tree 0:");
    let knn = index.top_k(&query, k);
    for n in &knn.neighbors {
        println!("  tree {:>4}  distance {}", n.id, n.distance);
    }
    report(&knn.stats);

    let tau = 10.0;
    println!("\nrange query, tau = {tau}:");
    let res = index.range(&query, tau);
    for n in &res.neighbors {
        println!("  tree {:>4}  distance {}", n.id, n.distance);
    }
    report(&res.stats);

    // The same query without filters verifies every corpus tree exactly.
    let brute = index.corpus().len();
    println!(
        "\nfilters verified {} of {} candidates exactly ({}x fewer exact TED runs)",
        res.stats.verified,
        brute,
        brute.checked_div(res.stats.verified).unwrap_or(brute),
    );
}

fn report(stats: &rted::index::SearchStats) {
    let pruned: Vec<String> = stats
        .filter
        .stages
        .iter()
        .filter(|s| s.pruned > 0)
        .map(|s| format!("{}={}", s.stage, s.pruned))
        .collect();
    println!(
        "  [{} candidates | verified {} | pruned {} | {:?}]",
        stats.candidates,
        stats.verified,
        if pruned.is_empty() {
            "none".to_string()
        } else {
            pruned.join(" ")
        },
        stats.time,
    );
}
