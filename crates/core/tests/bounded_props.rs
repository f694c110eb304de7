//! Property tests for the bounded kernel: on both sides of the threshold
//! `ted_at_most_run` must agree with exact RTED — `Exact(d)` with `d` equal to
//! the true distance whenever `d ≤ τ`, and `Exceeds(b)` with a lower bound
//! `b ≤ d` whenever `d > τ` — under the unit model and an asymmetric
//! per-label model, in both operand orders, through one shared workspace
//! (so the warm-buffer path is what gets exercised). The per-pair kernel
//! choice of `ted_within` must be as exact as the kernels it picks from.

use proptest::prelude::*;
use rted_core::{
    ted_at_most_run, ted_within, Algorithm, BoundedResult, CostModel, Kernel, PerLabelCost,
    UnitCost, Workspace,
};
use rted_datasets::shapes::Shape;
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

/// Budgets straddling the true distance `d`, plus absolute edge cases.
fn budgets(d: f64) -> [f64; 8] {
    [
        0.0,
        d * 0.25,
        (d - 1.0).max(0.0),
        (d - 0.5).max(0.0),
        d,
        d + 0.5,
        d * 2.0 + 1.0,
        f64::INFINITY,
    ]
}

fn check_pair<C: CostModel<u8>>(f: &Tree<u8>, g: &Tree<u8>, cm: &C, ws: &mut Workspace) {
    let d = Algorithm::Rted.run(f, g, cm).distance;
    for tau in budgets(d) {
        let run = ted_at_most_run(f, g, cm, tau, ws);
        match run.result {
            BoundedResult::Exact(got) => {
                assert!(d <= tau, "Exact below budget tau={tau} but d={d}");
                assert_eq!(got, d, "exact value must match RTED at tau={tau}");
                assert!(!run.early_exit, "Exact results cannot be early exits");
            }
            BoundedResult::Exceeds(lb) => {
                assert!(d > tau, "Exceeds at tau={tau} but d={d}");
                assert!(lb <= d, "bound {lb} above true distance {d} at tau={tau}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bounded_agrees_with_rted_on_both_threshold_sides(
        f in arb_tree(14),
        g in arb_tree(14),
    ) {
        let mut ws = Workspace::new();
        let asym = PerLabelCost::new(1.5, 2.0, 0.75);
        // Both cost models, both operand orders, one shared workspace.
        for (a, b) in [(&f, &g), (&g, &f)] {
            check_pair(a, b, &UnitCost, &mut ws);
            check_pair(a, b, &asym, &mut ws);
        }
    }

    #[test]
    fn abandoned_runs_never_outwork_the_full_kernel(
        f in arb_tree(14),
        g in arb_tree(14),
    ) {
        let mut ws = Workspace::new();
        let full = ted_at_most_run(&f, &g, &UnitCost, f64::INFINITY, &mut ws);
        for tau in [0.0, 1.0, 3.0] {
            let run = ted_at_most_run(&f, &g, &UnitCost, tau, &mut ws);
            prop_assert!(
                run.subproblems <= full.subproblems,
                "bounded run did more work ({}) than the exact kernel ({})",
                run.subproblems,
                full.subproblems
            );
        }
    }
}

fn arb_shape_tree(max: usize) -> impl Strategy<Value = Tree<u32>> {
    (0..Shape::ALL.len(), 1..=max, any::<u32>())
        .prop_map(|(s, n, seed)| Shape::ALL[s].generate(n, seed as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ted_within` is exact under a non-unit cost model too: on pairs
    /// that take both exact arms of the rule, in both operand orders, at
    /// budgets around the distance, a within-budget answer is
    /// bit-identical to pinned RTED and an over-budget answer certifies a
    /// lower bound.
    #[test]
    fn ted_within_matches_rted_under_per_label_costs(
        small in arb_shape_tree(12),
        large in (0..Shape::ALL.len(), 17..=40usize, any::<u32>())
            .prop_map(|(s, n, seed)| Shape::ALL[s].generate(n, seed as u64)),
        zigzag in (40..=44usize, any::<u32>())
            .prop_map(|(n, seed)| Shape::ZigZag.generate(n, seed as u64)),
    ) {
        let cm = PerLabelCost::new(1.5, 2.0, 0.75);
        let rted = Some(Algorithm::Rted);
        let mut ws = Workspace::new();
        let mut arms = Vec::new();
        for (f, g) in [
            (&small, &large),
            (&large, &small),
            (&small, &small),
            (&large, &large),
            (&small, &zigzag),
            (&zigzag, &large),
            (&zigzag, &zigzag),
        ] {
            let d = ted_within(f, g, &cm, f64::INFINITY, rted, &mut ws).result.value();
            for tau in [0.0, d - 1.0, d, d + 1.0, f64::INFINITY] {
                let run = ted_within(f, g, &cm, tau, None, &mut ws);
                if tau == f64::INFINITY {
                    arms.push(run.kernel);
                }
                let got = run.result;
                if d <= tau {
                    prop_assert_eq!(
                        got.value().to_bits(), d.to_bits(),
                        "{}x{} cells, tau {}: {:?} vs exact {}",
                        f.len(), g.len(), tau, got, d
                    );
                    prop_assert!(got.is_exact());
                } else {
                    prop_assert!(matches!(got, BoundedResult::Exceeds(b) if b <= d),
                        "{}x{} cells, tau {}: {:?} vs exact {}", f.len(), g.len(), tau, got, d);
                }
            }
        }
        // The sampled pairs take both exact arms of the rule.
        prop_assert!(arms.contains(&Some(Kernel::ZhangShasha)), "{:?}", arms);
        prop_assert!(arms.contains(&Some(Kernel::Rted)), "{:?}", arms);
    }
}
