//! Tree edit distance similarity joins (§8, Table 1 of the paper).
//!
//! A similarity self-join over a collection `T` of trees matches every pair
//! `(T_i, T_j)`, `i < j`, with `TED(T_i, T_j) < τ`. The join is the
//! paper's stress test for robustness: it pairs trees of *different*
//! shapes, so any fixed decomposition strategy degenerates on some pairs
//! while RTED adapts per pair.
//!
//! This crate is now a thin compatibility layer over the
//! [`rted_index`] search engine: [`self_join`] builds a [`TreeIndex`]
//! (analyzing each tree once), picks a filter pipeline matching the
//! requested pruning mode, and runs the index's sorted-by-size join.
//! Function signatures and result semantics are unchanged — with pruning
//! off every pair is verified exactly, and execution stays serial so the
//! wall-clock numbers of the paper-reproduction binaries (Table 1,
//! Fig. 8) remain comparable to the paper's single-threaded
//! measurements — but the trait bounds tightened (`L: Send + Sync +
//! 'static`, `C: Sync`) because the engine is built for scoped threads.
//!
//! Each call clones the slice into a fresh index and analyzes it; for
//! repeated joins, parallel execution, or mixed query workloads over the
//! same corpus, build one [`TreeIndex`] directly and reuse it.

use rted_core::{Algorithm, CostModel};
use rted_index::{ExecPolicy, FilterPipeline, JoinOutcome, TedVerifier, TreeIndex};
use rted_tree::Tree;
use std::time::Duration;

/// One matched pair of a join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinMatch {
    /// Index of the first tree in the input collection.
    pub left: usize,
    /// Index of the second tree (always > `left`).
    pub right: usize,
    /// Their tree edit distance.
    pub distance: f64,
}

/// Aggregate result of a similarity self-join.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Pairs within the threshold.
    pub matches: Vec<JoinMatch>,
    /// Total number of pairs compared exactly.
    pub pairs_computed: usize,
    /// Pairs skipped by the size lower bound (0 unless pruning enabled).
    pub pairs_pruned: usize,
    /// Total relevant subproblems computed over all pairs.
    pub subproblems: u64,
    /// Total wall-clock time of the distance computations.
    pub time: Duration,
}

/// Configuration of a similarity self-join.
#[derive(Debug, Clone, Copy)]
pub struct JoinConfig {
    /// Distance threshold: pairs with `TED < tau` match.
    pub tau: f64,
    /// Algorithm used for the exact distances.
    pub algorithm: Algorithm,
    /// Skip pairs whose size difference already exceeds `tau` (valid for
    /// cost models with all delete/insert costs ≥ 1, e.g. unit costs).
    pub size_prune: bool,
}

impl Default for JoinConfig {
    fn default() -> Self {
        JoinConfig {
            tau: f64::INFINITY,
            algorithm: Algorithm::Rted,
            size_prune: false,
        }
    }
}

/// Converts an index [`JoinOutcome`] into the legacy [`JoinResult`].
fn outcome_to_result(outcome: JoinOutcome) -> JoinResult {
    JoinResult {
        matches: outcome
            .matches
            .iter()
            .map(|m| JoinMatch {
                left: m.left,
                right: m.right,
                distance: m.distance,
            })
            .collect(),
        pairs_computed: outcome.stats.verified,
        pairs_pruned: outcome.stats.filter.total_pruned() as usize,
        subproblems: outcome.stats.subproblems,
        time: outcome.stats.time,
    }
}

/// Runs a similarity self-join over `trees` under `config`.
///
/// Implemented on the [`rted_index`] engine: trees are analyzed once into
/// a corpus and the join traverses them in size order (so the optional
/// size bound early-breaks instead of testing every pair). Execution is
/// deliberately single-threaded so timings stay comparable to the
/// paper's serial measurements — build a [`TreeIndex`] directly for
/// parallel joins. Matches are reported sorted by `(left, right)` — the
/// same order as the historical nested-loop scan.
pub fn self_join<L, C>(trees: &[Tree<L>], cm: &C, config: &JoinConfig) -> JoinResult
where
    L: Eq + std::hash::Hash + Clone + Send + Sync + 'static,
    C: CostModel<L> + Sync,
{
    let pipeline = if config.size_prune {
        FilterPipeline::size_only()
    } else {
        FilterPipeline::none()
    };
    // Serial on purpose: this wrapper backs the paper-reproduction
    // binaries (Table 1, Fig. 8), whose wall-clock numbers must stay
    // comparable to the single-threaded measurements of the paper. Build
    // a TreeIndex directly for parallel joins.
    let index = TreeIndex::build(trees.iter().cloned())
        .with_pipeline(pipeline)
        .with_policy(ExecPolicy::serial());
    let verifier = TedVerifier {
        algorithm: Some(config.algorithm),
        cost_model: cm,
    };
    outcome_to_result(index.join_with(config.tau, &verifier))
}

/// Total *predicted* subproblems of a self-join under `algorithm` (via the
/// Fig.-5 cost formula; no distances computed). This is the analytic
/// counterpart of [`JoinResult::subproblems`].
pub fn predicted_join_subproblems<L>(trees: &[Tree<L>], algorithm: Algorithm) -> u64 {
    // One workspace serves every pair: after the first strategy run the
    // whole sweep is allocation-free.
    let mut ws = rted_core::Workspace::new();
    let mut total = 0u64;
    for i in 0..trees.len() {
        for j in i + 1..trees.len() {
            total += algorithm.predicted_subproblems_in(&trees[i], &trees[j], &mut ws);
        }
    }
    total
}

/// Similarity self-join with the full filter pipeline (§7's bound idea):
/// every pair runs the staged lower bounds — size, depth, leaf, degree,
/// label histogram — and only survivors are verified exactly.
///
/// Sound for cost models where deletes/inserts cost ≥ 1 and renames of
/// distinct labels cost ≥ 1 (e.g. unit costs).
pub fn self_join_pruned<L, C>(
    trees: &[Tree<L>],
    cm: &C,
    tau: f64,
    algorithm: Algorithm,
) -> JoinResult
where
    L: Eq + std::hash::Hash + Clone + Send + Sync + 'static,
    C: CostModel<L> + Sync,
{
    // Serial for the same timing-comparability reason as `self_join`.
    let index = TreeIndex::build(trees.iter().cloned()).with_policy(ExecPolicy::serial());
    let verifier = TedVerifier {
        algorithm: Some(algorithm),
        cost_model: cm,
    };
    outcome_to_result(index.join_with(tau, &verifier))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rted_core::UnitCost;
    use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};

    fn sample_trees() -> Vec<rted_tree::Tree<u32>> {
        let base = Shape::Random.generate(40, 1);
        vec![
            base.clone(),
            perturb_labels(&base, 2, DEFAULT_ALPHABET, 7),
            Shape::LeftBranch.generate(40, 2),
            Shape::RightBranch.generate(40, 3),
            Shape::FullBinary.generate(15, 4),
        ]
    }

    #[test]
    fn join_finds_close_pairs() {
        let trees = sample_trees();
        let cfg = JoinConfig {
            tau: 4.0,
            algorithm: Algorithm::Rted,
            size_prune: false,
        };
        let res = self_join(&trees, &UnitCost, &cfg);
        assert_eq!(res.pairs_computed, 10);
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
        let base = self_join(
            &trees,
            &UnitCost,
            &JoinConfig {
                tau: 10.0,
                algorithm: Algorithm::ZhangL,
                size_prune: false,
            },
        );
        for alg in Algorithm::ALL {
            let res = self_join(
                &trees,
                &UnitCost,
                &JoinConfig {
                    tau: 10.0,
                    algorithm: alg,
                    size_prune: false,
                },
            );
            assert_eq!(res.matches, base.matches, "{alg}");
        }
    }

    #[test]
    fn size_pruning_preserves_matches() {
        let trees = sample_trees();
        let full = self_join(
            &trees,
            &UnitCost,
            &JoinConfig {
                tau: 5.0,
                algorithm: Algorithm::Rted,
                size_prune: false,
            },
        );
        let pruned = self_join(
            &trees,
            &UnitCost,
            &JoinConfig {
                tau: 5.0,
                algorithm: Algorithm::Rted,
                size_prune: true,
            },
        );
        assert_eq!(full.matches, pruned.matches);
        assert!(pruned.pairs_pruned > 0);
        assert_eq!(pruned.pairs_computed + pruned.pairs_pruned, 10);
    }

    #[test]
    fn histogram_pruned_join_preserves_matches() {
        let trees = sample_trees();
        let full = self_join(
            &trees,
            &UnitCost,
            &JoinConfig {
                tau: 6.0,
                algorithm: Algorithm::Rted,
                size_prune: false,
            },
        );
        let pruned = self_join_pruned(&trees, &UnitCost, 6.0, Algorithm::Rted);
        assert_eq!(full.matches, pruned.matches);
        // The histogram bound dominates the size bound, so it prunes at
        // least as many pairs.
        let size_only = self_join(
            &trees,
            &UnitCost,
            &JoinConfig {
                tau: 6.0,
                algorithm: Algorithm::Rted,
                size_prune: true,
            },
        );
        assert!(pruned.pairs_pruned >= size_only.pairs_pruned);
    }

    #[test]
    fn measured_subproblems_match_predicted() {
        let trees = sample_trees();
        for alg in Algorithm::ALL {
            let res = self_join(
                &trees,
                &UnitCost,
                &JoinConfig {
                    tau: 1.0,
                    algorithm: alg,
                    size_prune: false,
                },
            );
            let predicted = predicted_join_subproblems(&trees, alg);
            assert_eq!(res.subproblems, predicted, "{alg}");
        }
    }
}
