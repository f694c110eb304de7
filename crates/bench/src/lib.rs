//! Shared harness for the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one figure or table of the paper's
//! evaluation (§8). This library holds the shared pieces: a tiny CLI
//! argument reader, aligned table printing, and workload construction
//! helpers. See EXPERIMENTS.md at the workspace root for recorded outputs.

use std::time::{Duration, Instant};

/// Reads `--key value` style options from `std::env::args`, with defaults.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// The value following `--name`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }
}

/// Times a closure once.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a subproblem count the way the paper's plots label axes
/// (`12.3M`, `4.5G`).
pub fn human_count(n: u64) -> String {
    let nf = n as f64;
    if nf >= 1e9 {
        format!("{:.2}G", nf / 1e9)
    } else if nf >= 1e6 {
        format!("{:.2}M", nf / 1e6)
    } else if nf >= 1e3 {
        format!("{:.1}k", nf / 1e3)
    } else {
        format!("{n}")
    }
}

/// Prints an aligned table: a header row then data rows.
pub fn print_table(header: &[String], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        width[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:>w$}", cell, w = width[i]));
        }
        println!("{s}");
    };
    line(header);
    println!(
        "{}",
        "-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        line(row);
    }
}

/// Evenly spaced sizes `step, 2·step, …, ≤ max`.
pub fn size_series(max: usize, step: usize) -> Vec<usize> {
    (1..).map(|i| i * step).take_while(|&s| s <= max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_count_formats() {
        assert_eq!(human_count(950), "950");
        assert_eq!(human_count(12_300), "12.3k");
        assert_eq!(human_count(12_300_000), "12.30M");
        assert_eq!(human_count(4_500_000_000), "4.50G");
    }

    #[test]
    fn size_series_bounds() {
        assert_eq!(size_series(1000, 250), vec![250, 500, 750, 1000]);
        assert_eq!(size_series(100, 40), vec![40, 80]);
    }

    // Table 1's self-join, run the way `table1` runs it: serial, one
    // algorithm pinned on a fork of the index.

    use rted_core::Algorithm;
    use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
    use rted_index::{ExecPolicy, FilterPipeline, JoinOutcome, TreeIndex};
    use rted_tree::Tree;

    /// Trees of different shapes and sizes; tree 1 is a near-duplicate of
    /// tree 0.
    fn sample_trees() -> Vec<Tree<u32>> {
        let base = Shape::Random.generate(40, 1);
        vec![
            base.clone(),
            perturb_labels(&base, 2, DEFAULT_ALPHABET, 7),
            Shape::LeftBranch.generate(40, 2),
            Shape::RightBranch.generate(40, 3),
            Shape::FullBinary.generate(15, 4),
        ]
    }

    fn pinned_join(
        trees: &[Tree<u32>],
        pipeline: FilterPipeline<u32>,
        tau: f64,
        algorithm: Algorithm,
    ) -> JoinOutcome {
        let index = TreeIndex::build(trees.iter().cloned())
            .with_pipeline(pipeline)
            .with_policy(ExecPolicy::serial());
        index.fork().with_algorithm(algorithm).join(tau)
    }

    #[test]
    fn join_finds_close_pairs() {
        let trees = sample_trees();
        let res = pinned_join(&trees, FilterPipeline::none(), 4.0, Algorithm::Rted);
        assert_eq!(res.stats.verified, 10);
        // The perturbed copy must match its base.
        assert!(res.matches.iter().any(|m| m.left == 0 && m.right == 1));
        // The small FB tree is far from everything of size 40.
        assert!(!res
            .matches
            .iter()
            .any(|m| m.right == 4 && m.distance >= 4.0));
    }

    #[test]
    fn all_algorithms_same_matches() {
        let trees = sample_trees();
        let base = pinned_join(&trees, FilterPipeline::none(), 10.0, Algorithm::ZhangL);
        for alg in Algorithm::ALL {
            let res = pinned_join(&trees, FilterPipeline::none(), 10.0, alg);
            assert_eq!(res.matches, base.matches, "{alg}");
        }
    }

    #[test]
    fn size_pruning_preserves_matches() {
        let trees = sample_trees();
        let full = pinned_join(&trees, FilterPipeline::none(), 5.0, Algorithm::Rted);
        let pruned = pinned_join(&trees, FilterPipeline::size_only(), 5.0, Algorithm::Rted);
        assert_eq!(full.matches, pruned.matches);
        let pairs_pruned = pruned.stats.filter.total_pruned();
        assert!(pairs_pruned > 0);
        assert_eq!(pruned.stats.verified as u64 + pairs_pruned, 10);
    }

    #[test]
    fn histogram_pruned_join_preserves_matches() {
        let trees = sample_trees();
        let full = pinned_join(&trees, FilterPipeline::none(), 6.0, Algorithm::Rted);
        let pruned = pinned_join(&trees, FilterPipeline::standard(), 6.0, Algorithm::Rted);
        assert_eq!(full.matches, pruned.matches);
        // The histogram bound dominates the size bound, so it prunes at
        // least as many pairs.
        let size_only = pinned_join(&trees, FilterPipeline::size_only(), 6.0, Algorithm::Rted);
        assert!(pruned.stats.filter.total_pruned() >= size_only.stats.filter.total_pruned());
    }

    #[test]
    fn measured_subproblems_match_predicted() {
        let trees = sample_trees();
        let mut ws = rted_core::Workspace::new();
        for alg in Algorithm::ALL {
            let res = pinned_join(&trees, FilterPipeline::none(), 1.0, alg);
            let mut predicted = 0;
            for i in 0..trees.len() {
                for j in i + 1..trees.len() {
                    predicted += alg.predicted_subproblems_in(&trees[i], &trees[j], &mut ws);
                }
            }
            assert_eq!(res.stats.subproblems, predicted, "{alg}");
        }
    }
}
