//! Shape-matched simulators for the paper's three real-world datasets.
//!
//! The originals (SwissProt, TreeBank, TreeFam exports from 2011) are not
//! redistributable, so we substitute generators that match the shape
//! statistics §8 reports. The TED algorithms read labels only through
//! equality, so tree *shape* (size, depth, fanout, balance) is the entire
//! behaviourally relevant signal for subproblem counts and runtimes:
//!
//! | dataset   | paper statistics                                     |
//! |-----------|------------------------------------------------------|
//! | SwissProt | 50 000 flat XML trees: max depth 4, max fanout 346, avg size 187 |
//! | TreeBank  | 56 385 deep small syntax trees: avg depth 10.4, max 35, avg size 68 |
//! | TreeFam   | 16 138 phylogenies: avg depth 14, max 158, avg fanout 2, avg size 95, sizes up to thousands |

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rted_tree::Tree;

use crate::shapes::{relabel_random, Adj};

/// A SwissProt-like tree: depth ≤ 4, wide fan-out near the root, roughly
/// `target_size` nodes. Structure: root → entries → fields → values.
pub fn swissprot_like(target_size: usize, seed: u64) -> Tree<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5155_0001);
    let n = target_size.max(2);
    let mut adj = Adj::with_root();
    let mut depth = vec![0u32; 1];
    // Level-biased attachment: favour shallow parents heavily so the tree
    // stays flat with large fanouts, hard-capped at depth 3 below the root.
    let mut count = 1usize;
    let mut by_level: Vec<Vec<u32>> = vec![vec![0], vec![], vec![], vec![]];
    while count < n {
        // Choose a level: most mass on levels 0–2 (yields depth ≤ 4 trees
        // with the bulk of nodes at depth 2–3, like flat XML records).
        let lvl = match rng.random_range(0..100) {
            0..=4 => 0usize,
            5..=39 => 1,
            _ => 2,
        };
        let lvl = lvl.min(by_level.len() - 2);
        let parents = &by_level[lvl];
        if parents.is_empty() {
            // Fall back to the root until the level fills up.
            let id = adj.add_child(0);
            depth.push(1);
            by_level[1].push(id);
            count += 1;
            continue;
        }
        let p = parents[rng.random_range(0..parents.len())];
        let id = adj.add_child(p);
        let d = depth[p as usize] + 1;
        depth.push(d);
        if (d as usize) < by_level.len() - 1 {
            by_level[d as usize].push(id);
        }
        count += 1;
    }
    finish(adj, seed)
}

/// A TreeBank-like tree: small, deep and narrow, like natural-language
/// syntax trees (unary/binary productions dominate).
pub fn treebank_like(target_size: usize, seed: u64) -> Tree<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7b7b_0002);
    let n = target_size.max(1);
    let mut adj = Adj::with_root();
    let mut depth = vec![0u32; 1];
    // Grammar-style growth: expand a frontier; each expansion adds 1–3
    // children with probabilities biased to 1–2, bounded by depth 35.
    let mut frontier: Vec<u32> = vec![0];
    let mut count = 1usize;
    while count < n && !frontier.is_empty() {
        let idx = rng.random_range(0..frontier.len());
        let p = frontier.swap_remove(idx);
        let d = depth[p as usize];
        if d >= 34 {
            continue;
        }
        let k = match rng.random_range(0..10) {
            0..=4 => 1usize, // unary chains make trees deep
            5..=8 => 2,
            _ => 3,
        };
        let k = k.min(n - count);
        for _ in 0..k {
            let id = adj.add_child(p);
            depth.push(d + 1);
            frontier.push(id);
            count += 1;
        }
    }
    // If the frontier died early (depth bound), pad under the root.
    while count < n {
        adj.add_child(0);
        depth.push(1);
        count += 1;
    }
    finish(adj, seed)
}

/// A TreeFam-like phylogeny: an ordered binary tree over `target_size`
/// total nodes with uniformly random splits — uniform splits produce the
/// unbalanced, deep topologies (long chains) typical of gene trees.
pub fn treefam_like(target_size: usize, seed: u64) -> Tree<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7f7f_0003);
    let n = target_size.max(1);
    let mut adj = Adj::with_root();
    // Recursive splitting, iteratively: (node, size) where size counts the
    // node itself plus its future descendants.
    let mut stack: Vec<(u32, usize)> = vec![(0, n)];
    while let Some((v, size)) = stack.pop() {
        if size <= 1 {
            continue;
        }
        if size == 2 {
            adj.add_child(v);
            continue;
        }
        // Binary split of the remaining size - 1 nodes.
        let rest = size - 1;
        let left = rng.random_range(1..rest);
        let l = adj.add_child(v);
        let r = adj.add_child(v);
        stack.push((l, left));
        stack.push((r, rest - left));
    }
    finish(adj, seed)
}

/// Converts the adjacency to a postorder tree, then labels it.
fn finish(adj: Adj, seed: u64) -> Tree<u32> {
    relabel_random(&adj.into_tree(), 64, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::profile;

    #[test]
    fn swissprot_profile() {
        let mut sizes = 0usize;
        for seed in 0..20 {
            let t = swissprot_like(187, seed);
            let p = profile(&t);
            assert!(p.depth <= 4, "depth {}", p.depth);
            assert!(p.size >= 150);
            sizes += p.size;
        }
        assert!(sizes / 20 >= 150);
    }

    #[test]
    fn treebank_profile() {
        let mut depth_sum = 0f64;
        for seed in 0..30 {
            let t = treebank_like(68, seed);
            let p = profile(&t);
            assert!(p.depth <= 35);
            assert_eq!(p.size, 68);
            depth_sum += p.depth as f64;
        }
        let avg_max_depth = depth_sum / 30.0;
        // Deep for their size: paper reports avg node depth 10.4 over the
        // dataset; our max-depth average should be in that region.
        assert!(avg_max_depth > 7.0, "avg max depth {avg_max_depth}");
    }

    #[test]
    fn treefam_profile() {
        for seed in 0..10 {
            let t = treefam_like(500, seed);
            let p = profile(&t);
            assert_eq!(p.size, 500);
            assert!(p.max_fanout <= 2, "fanout {}", p.max_fanout);
            assert!(p.depth >= 10, "too balanced: depth {}", p.depth);
        }
    }

    #[test]
    fn exact_size_control_for_partitioned_sampling() {
        // Table 2 partitions TreeFam by size; generator must hit targets.
        for target in [100, 499, 750, 1500] {
            let t = treefam_like(target, 1);
            assert_eq!(t.len(), target);
        }
    }
}
