//! Property tests for [`Workspace`] reuse: one workspace threaded through
//! an arbitrary sequence of tree pairs must produce distances and
//! subproblem counts identical to a fresh self-contained run per pair —
//! for every algorithm, in both operand orders, and under an asymmetric
//! cost model (where swapping operands genuinely changes the answer).

use proptest::prelude::*;
use rted_core::{Algorithm, PerLabelCost, UnitCost, Workspace};
use rted_tree::Tree;

/// Builds a tree from random-attachment choices: node `i` (insertion
/// order, `i ≥ 1`) becomes the next child of node `choices[i-1] % i`.
fn tree_from_choices(labels: &[u8], choices: &[u32]) -> Tree<u8> {
    let n = labels.len();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 1..n {
        let p = choices[i - 1] % i as u32;
        children[p as usize].push(i as u32);
    }
    // Postorder walk: emit each node's label and child count.
    let mut post_labels = Vec::with_capacity(n);
    let mut degrees = Vec::with_capacity(n);
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        let ch = &children[v as usize];
        if *i < ch.len() {
            let c = ch[*i];
            *i += 1;
            stack.push((c, 0));
        } else {
            post_labels.push(labels[v as usize]);
            degrees.push(ch.len() as u32);
            stack.pop();
        }
    }
    Tree::from_postorder_degrees(post_labels, &degrees).unwrap()
}

fn arb_tree(max: usize) -> impl Strategy<Value = Tree<u8>> {
    (1..=max).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<u32>(), n.max(2) - 1),
            proptest::collection::vec(0u8..3, n),
        )
            .prop_map(move |(choices, labels)| tree_from_choices(&labels, &choices))
    })
}

/// A random sequence of pairs with wildly varying sizes, so the reused
/// buffers shrink and grow between pairs.
fn arb_pair_sequence() -> impl Strategy<Value = Vec<(Tree<u8>, Tree<u8>)>> {
    proptest::collection::vec((arb_tree(14), arb_tree(14)), 2..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reused_workspace_matches_fresh_per_pair(pairs in arb_pair_sequence()) {
        // An asymmetric model: delete ≠ insert, so d(f, g) ≠ d(g, f) in
        // general and any orientation mix-up in the reused buffers would
        // surface as a mismatch.
        let asym = PerLabelCost::new(1.5, 2.0, 0.75);
        let mut ws = Workspace::new();
        for (f, g) in &pairs {
            for alg in Algorithm::ALL {
                let fresh = alg.run(f, g, &UnitCost);
                let reused = alg.run_in(f, g, &UnitCost, &mut ws);
                prop_assert_eq!(reused.distance, fresh.distance, "{} unit", alg);
                prop_assert_eq!(reused.subproblems, fresh.subproblems, "{} unit", alg);

                // Swapped operand order through the same workspace.
                let fresh_swapped = alg.run(g, f, &UnitCost);
                let reused_swapped = alg.run_in(g, f, &UnitCost, &mut ws);
                prop_assert_eq!(reused_swapped.distance, fresh_swapped.distance, "{} unit swapped", alg);

                let fresh_asym = alg.run(f, g, &asym);
                let reused_asym = alg.run_in(f, g, &asym, &mut ws);
                prop_assert_eq!(reused_asym.distance, fresh_asym.distance, "{} asym", alg);
                let fresh_asym_swapped = alg.run(g, f, &asym);
                let reused_asym_swapped = alg.run_in(g, f, &asym, &mut ws);
                prop_assert_eq!(
                    reused_asym_swapped.distance,
                    fresh_asym_swapped.distance,
                    "{} asym swapped", alg
                );
            }
        }
    }

    #[test]
    fn reused_executor_workspace_matches_fresh(f in arb_tree(12), g in arb_tree(12)) {
        use rted_core::{compute_strategy_in, Executor, OptimalChooser};
        let mut ws = Workspace::new();
        // Two back-to-back executions on one workspace, interleaved with a
        // strategy computation that also borrows it.
        for _ in 0..2 {
            let strategy = compute_strategy_in(&f, &g, &OptimalChooser, &mut ws);
            let fresh = {
                let mut exec = Executor::new(&f, &g, &UnitCost);
                exec.run(&strategy)
            };
            let reused = {
                let mut exec = Executor::with_workspace(&f, &g, &UnitCost, &mut ws);
                exec.run(&strategy)
            };
            prop_assert_eq!(reused, fresh);
            ws.recycle(strategy);
        }
    }
}
