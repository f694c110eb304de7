//! Similarity join over a mixed-shape tree collection — the workload of
//! Table 1, shown as an application: find all near-duplicate pairs in a
//! collection containing base trees and perturbed copies.
//!
//! ```text
//! cargo run --release --example similarity_join -- [size] [tau]
//! ```

use rted::core::Algorithm;
use rted::datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted::index::{ExecPolicy, FilterPipeline, TreeIndex};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let size: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(120);
    let tau: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8.0);

    // Build a collection: one tree per shape plus a near-duplicate of each.
    let mut trees = Vec::new();
    let mut names = Vec::new();
    for (i, shape) in Shape::ALL.iter().enumerate() {
        let base = shape.generate(size, 10 + i as u64);
        let dup = perturb_labels(&base, 3, DEFAULT_ALPHABET, 99 + i as u64);
        names.push(format!("{shape}"));
        trees.push(base);
        names.push(format!("{shape}~copy"));
        trees.push(dup);
    }

    println!(
        "self-join over {} trees of ~{size} nodes, tau = {tau} (RTED, size-bound pruning on)",
        trees.len()
    );
    let index = TreeIndex::build(trees)
        .with_pipeline(FilterPipeline::size_only())
        .with_policy(ExecPolicy::serial())
        .with_algorithm(Algorithm::Rted);
    let res = index.join(tau);

    let stats = &res.stats;
    println!(
        "computed {} pairs ({} pruned) in {:?}, {} subproblems",
        stats.verified,
        stats.filter.total_pruned(),
        stats.time,
        stats.subproblems
    );
    println!("\nmatches (distance < {tau}):");
    for m in &res.matches {
        println!(
            "  {:12} ~ {:12}  distance {}",
            names[m.left], names[m.right], m.distance
        );
    }
    // Every perturbed copy must match its base.
    let found = Shape::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            res.matches
                .iter()
                .any(|m| (m.left, m.right) == (2 * i, 2 * i + 1))
        })
        .count();
    println!("\n{found}/{} base~copy pairs found", Shape::ALL.len());
}
