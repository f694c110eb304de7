//! Property tests for the edit-mapping pipeline: every extracted mapping
//! must be a *valid* Tai mapping whose cost — recomputed operation by
//! operation — equals the RTED distance for the pair, under both the
//! unit model and an asymmetric per-label model. The workspace-reused
//! extraction must agree with the self-contained one exactly.

use proptest::prelude::*;
use rted_core::{edit_mapping, edit_mapping_in, Algorithm, PerLabelCost, UnitCost, Workspace};
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

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mapping_cost_equals_rted_distance(f in arb_tree(16), g in arb_tree(16)) {
        // Unit model: the script's recomputed cost is the tree edit
        // distance RTED reports — the mapping is an optimality witness.
        let m = edit_mapping(&f, &g, &UnitCost);
        let rted = Algorithm::Rted.run(&f, &g, &UnitCost).distance;
        prop_assert_eq!(m.cost, rted);
        prop_assert_eq!(m.cost_under(&f, &g, &UnitCost), rted);
        prop_assert!(m.validate(&f, &g).is_ok(), "{:?}", m.validate(&f, &g));

        // Asymmetric model (delete ≠ insert ≠ rename): the backtrace must
        // hold for arbitrary float costs, in both operand orders.
        let asym = PerLabelCost::new(1.5, 2.0, 0.75);
        for (a, b) in [(&f, &g), (&g, &f)] {
            let m = edit_mapping(a, b, &asym);
            let rted = Algorithm::Rted.run(a, b, &asym).distance;
            prop_assert!(close(m.cost, rted), "cost {} vs rted {}", m.cost, rted);
            prop_assert!(
                close(m.cost_under(a, b, &asym), rted),
                "recomputed {} vs rted {}",
                m.cost_under(a, b, &asym),
                rted
            );
            prop_assert!(m.validate(a, b).is_ok(), "{:?}", m.validate(a, b));
        }
    }

    #[test]
    fn workspace_reused_mapping_matches_fresh(
        pairs in proptest::collection::vec((arb_tree(12), arb_tree(12)), 2..5)
    ) {
        // One workspace threaded through a size-varying pair sequence:
        // ops and cost must be identical to the throwaway-workspace path,
        // and the resolved script must foot with the mapping counts.
        let asym = PerLabelCost::new(1.5, 2.0, 0.75);
        let mut ws = Workspace::new();
        for (f, g) in &pairs {
            let fresh = edit_mapping(f, g, &UnitCost);
            let reused = edit_mapping_in(f, g, &UnitCost, &mut ws);
            prop_assert_eq!(&reused, &fresh);
            let fresh = edit_mapping(f, g, &asym);
            let reused = edit_mapping_in(f, g, &asym, &mut ws);
            prop_assert_eq!(&reused, &fresh);

            let script = reused.script(f, g);
            prop_assert!(close(script.cost, reused.cost));
            prop_assert_eq!(script.ops.len(), reused.ops.len());
            prop_assert_eq!(
                script.deletes + script.inserts + script.renames + script.keeps,
                script.ops.len()
            );
            prop_assert_eq!(script.deletes, reused.deletions().count());
            prop_assert_eq!(script.inserts, reused.insertions().count());
            prop_assert_eq!(script.renames + script.keeps, reused.pairs().count());
        }
    }
}
