//! Property-based tests: arbitrary small trees, full oracle chain.
//!
//! Trees are generated from arbitrary random-attachment choices
//! (`tree_from_choices`), which reach every ordered tree shape, including
//! shapes no hand-written generator produces.

use proptest::prelude::*;
use rted::core::reference::reference_ted;
use rted::core::strategy::PathChoice;
use rted::core::{Algorithm, Executor, PerLabelCost, UnitCost};
use rted::datasets::shapes::tree_from_choices;
use rted::tree::Tree;

/// Strategy: an arbitrary ordered tree with 1..=max nodes and labels from a
/// 3-symbol alphabet.
fn arb_tree(max: usize) -> impl Strategy<Value = Tree<u8>> {
    (1..=max).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<u32>(), n.max(2) - 1),
            proptest::collection::vec(0u8..3, n),
        )
            .prop_map(move |(choices, labels)| tree_from_choices(&labels, &choices))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_algorithm_matches_reference(f in arb_tree(9), g in arb_tree(9)) {
        let want = reference_ted(&f, &g, &UnitCost);
        for alg in Algorithm::ALL {
            let got = alg.run(&f, &g, &UnitCost).distance;
            prop_assert_eq!(got, want, "{}", alg);
        }
    }

    #[test]
    fn every_gted_strategy_matches_reference(f in arb_tree(8), g in arb_tree(8)) {
        let want = reference_ted(&f, &g, &UnitCost);
        for choice in PathChoice::ALL {
            let mut exec = Executor::new(&f, &g, &UnitCost);
            let got = exec.run(&choice);
            prop_assert_eq!(got, want, "{}", choice);
        }
    }

    #[test]
    fn weighted_model_matches_reference(f in arb_tree(7), g in arb_tree(7)) {
        let cm = PerLabelCost::new(2.0, 1.0, 0.5);
        let want = reference_ted(&f, &g, &cm);
        let got = Algorithm::Rted.run(&f, &g, &cm).distance;
        prop_assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn rted_within_bounds_and_symmetric(f in arb_tree(16), g in arb_tree(16)) {
        let d = Algorithm::Rted.run(&f, &g, &UnitCost).distance;
        let rev = Algorithm::Rted.run(&g, &f, &UnitCost).distance;
        prop_assert_eq!(d, rev);
        prop_assert!(d >= (f.len() as f64 - g.len() as f64).abs());
        prop_assert!(d <= (f.len() + g.len()) as f64);
    }

    #[test]
    fn measured_count_equals_cost_formula(f in arb_tree(14), g in arb_tree(14)) {
        for alg in Algorithm::ALL {
            let run = alg.run(&f, &g, &UnitCost);
            prop_assert_eq!(run.subproblems, alg.predicted_subproblems(&f, &g), "{}", alg);
        }
    }

    #[test]
    fn optimal_cost_is_minimal(f in arb_tree(12), g in arb_tree(12)) {
        use rted::core::strategy::{compute_strategy, FixedChooser};
        let opt = rted::core::optimal_strategy(&f, &g).cost;
        for choice in PathChoice::ALL {
            let c = compute_strategy(&f, &g, &FixedChooser(choice)).cost;
            prop_assert!(opt <= c, "{} beats optimal", choice);
        }
    }
}
