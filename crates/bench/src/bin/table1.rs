//! Table 1 reproduction: similarity self-join over one tree of each shape
//! {LB, RB, FB, ZZ, Random}, reporting per-algorithm total runtime and
//! total number of relevant subproblems.
//!
//! The join computes all 10 cross-shape pairs; fixed-strategy algorithms
//! degenerate on mismatched shape pairs (e.g. Zhang-L on LB×RB) while RTED
//! adapts per pair.
//!
//! ```text
//! cargo run --release -p rted-bench --bin table1 -- [--size 500] [--tau 1e18]
//! ```
//! The paper uses ~1000-node trees; `--size 1000` reproduces that scale.

use rted_bench::{human_count, print_table, Args};
use rted_core::Algorithm;
use rted_datasets::Shape;
use rted_index::{ExecPolicy, FilterPipeline, TreeIndex};

fn main() {
    let args = Args::capture();
    let size = args.get("size", 500usize);
    let tau = args.get("tau", f64::INFINITY);

    let shapes = [
        Shape::LeftBranch,
        Shape::RightBranch,
        Shape::FullBinary,
        Shape::ZigZag,
        Shape::Random,
    ];
    let trees: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| s.generate(size, 100 + i as u64))
        .collect();

    println!("# Table 1: self-join on {{LB, RB, FB, ZZ, Random}}, {size} nodes each, tau = {tau}");
    let header: Vec<String> = ["Algorithm", "Time [s]", "#Rel. subproblems", "Matches"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    // No filter and one thread: every pair is computed exactly, and the
    // times stay comparable to the paper's single-threaded measurements.
    let index = TreeIndex::build(trees)
        .with_pipeline(FilterPipeline::none())
        .with_policy(ExecPolicy::serial());
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let res = index.fork().with_algorithm(alg).join(tau);
        rows.push(vec![
            alg.name().to_string(),
            format!("{:.2}", res.stats.time.as_secs_f64()),
            human_count(res.stats.subproblems),
            res.matches.len().to_string(),
        ]);
    }
    print_table(&header, &rows);
}
