//! Golden work counters of the keyroot kernels.
//!
//! The planner, the index's verifier stats and the end-to-end benchmark's
//! `core.*` metrics all read these counters, so they are pinned to exact
//! values here rather than only bounded: the relevant-subproblem count of
//! every algorithm, the in-band cells, outcome and early-exit flag of the
//! bounded verifier at four budgets under two cost models, the cells an
//! edit-mapping extraction adds to the workspace's lifetime counter, and
//! the kernel [`Algorithm::cheapest_exact`] picks. Lemma 3's root counts
//! must reproduce both Zhang–Shasha cell counts exactly.
//!
//! Klein-H runs only the heavy-path function `∆I`, which shares no code
//! with the keyroot sheet behind Zhang–Shasha, `∆L`/`∆R`, the bounded
//! verifier and the backtrace, so its distances check that sheet
//! independently on trees too large for the recursive reference.

use rted::core::zs::keyroot_cells;
use rted::core::{
    edit_mapping_in, ted_at_most_run, Algorithm, BoundedResult, CostModel, PerLabelCost, UnitCost,
    Workspace,
};
use rted::datasets::Shape;
use rted::tree::Tree;

/// Outcome of one bounded run: `(exact, value, cells, early_exit)`.
type Bounded = (bool, f64, u64, bool);

/// Pinned counters of one pair under one cost model.
#[derive(Debug, PartialEq)]
struct PerCost {
    distance: f64,
    /// Bounded runs at τ = 0.5, d/2, d and d + 1.
    bounded: [Bounded; 4],
    /// Cells `edit_mapping_in` adds to the lifetime subproblem count:
    /// its distance kernel's plus the backtrace's.
    mapping_cells: u64,
}

/// Pinned counters of one pair.
#[derive(Debug, PartialEq)]
struct Golden {
    pair: &'static str,
    /// `run_in(..).subproblems` in `Algorithm::ALL` order (the same under
    /// both cost models).
    subproblems: [u64; 5],
    /// The exact kernel `distance` and `diff` run on this pair.
    rule: Algorithm,
    unit: PerCost,
    asym: PerCost,
}

fn pairs() -> Vec<(&'static str, Tree<u32>, Tree<u32>)> {
    vec![
        (
            "Mixed/60x55",
            Shape::Mixed.generate(60, 1),
            Shape::Mixed.generate(55, 2),
        ),
        (
            "Mixed/25x70",
            Shape::Mixed.generate(25, 3),
            Shape::Mixed.generate(70, 4),
        ),
        (
            "FullBinary/200",
            Shape::FullBinary.generate(200, 7),
            Shape::FullBinary.generate(200, 8),
        ),
        (
            "ZigZag/200",
            Shape::ZigZag.generate(200, 7),
            Shape::ZigZag.generate(200, 8),
        ),
        (
            "Random/200",
            Shape::Random.generate(200, 7),
            Shape::Random.generate(200, 8),
        ),
    ]
}

/// Runs every algorithm, the bounded verifier and the backtrace on one
/// pair; returns the pinned counters and the five subproblem counts.
fn per_cost<C: CostModel<u32>>(
    f: &Tree<u32>,
    g: &Tree<u32>,
    cm: &C,
    ws: &mut Workspace,
) -> (PerCost, [u64; 5]) {
    let runs = Algorithm::ALL.map(|alg| alg.run_in(f, g, cm, ws));
    // `Algorithm::ALL` order: Zhang-L, Zhang-R, Klein-H, Demaine-H, RTED.
    let d = runs[2].distance;
    for (alg, run) in Algorithm::ALL.iter().zip(&runs) {
        if *alg != Algorithm::DemaineH {
            assert_eq!(run.distance, d, "{alg} disagrees with Klein-H");
        }
    }
    let bounded = [0.5, d / 2.0, d, d + 1.0].map(|tau| {
        let run = ted_at_most_run(f, g, cm, tau, ws);
        let exact = matches!(run.result, BoundedResult::Exact(_));
        (exact, run.result.value(), run.subproblems, run.early_exit)
    });
    let before = ws.lifetime_stats().subproblems;
    let mapping = edit_mapping_in(f, g, cm, ws);
    assert_eq!(mapping.cost, d, "edit mapping cost disagrees with Klein-H");
    let counters = PerCost {
        distance: d,
        bounded,
        mapping_cells: ws.lifetime_stats().subproblems - before,
    };
    (counters, runs.map(|run| run.subproblems))
}

fn measure() -> Vec<Golden> {
    let asym = PerLabelCost::new(1.5, 2.0, 0.75);
    let mut ws = Workspace::new();
    pairs()
        .into_iter()
        .map(|(pair, f, g)| {
            let (unit, subproblems) = per_cost(&f, &g, &UnitCost, &mut ws);
            let (asym, asym_subproblems) = per_cost(&f, &g, &asym, &mut ws);
            assert_eq!(
                asym_subproblems, subproblems,
                "{pair}: cells depend on costs"
            );
            // Zhang-L and Zhang-R lead `Algorithm::ALL`.
            for (right, alg) in [false, true].into_iter().zip(Algorithm::ALL) {
                assert_eq!(
                    keyroot_cells(&f, &g, right),
                    subproblems[right as usize],
                    "{pair}: root counts disagree with {alg}"
                );
            }
            Golden {
                pair,
                subproblems,
                rule: Algorithm::cheapest_exact(&f, &g),
                unit,
                asym,
            }
        })
        .collect()
}

/// Exact values; a kernel change that moves any of them changes what the
/// planner, the verifier stats and the benchmark's `core.*` metrics see.
const GOLDEN: &[Golden] = &[
    Golden {
        pair: "Mixed/60x55",
        subproblems: [34825, 37698, 179248, 99354, 24427],
        rule: Algorithm::ZhangL,
        unit: PerCost {
            distance: 50.0,
            bounded: [
                (false, 5.0, 0, true),
                (false, 25.0, 25668, true),
                (true, 50.0, 33940, false),
                (true, 50.0, 34124, false),
            ],
            mapping_cells: 39166,
        },
        asym: PerCost {
            distance: 42.75,
            bounded: [
                (false, 7.5, 0, true),
                (false, 21.375, 21246, true),
                (true, 42.75, 26561, false),
                (true, 42.75, 26712, false),
            ],
            mapping_cells: 39333,
        },
    },
    Golden {
        pair: "Mixed/25x70",
        subproblems: [14136, 15660, 111748, 28852, 9990],
        rule: Algorithm::ZhangL,
        unit: PerCost {
            distance: 61.0,
            bounded: [
                (false, 45.0, 0, true),
                (false, 45.0, 0, true),
                (true, 61.0, 13898, false),
                (true, 61.0, 13938, false),
            ],
            mapping_cells: 16259,
        },
        asym: PerCost {
            distance: 102.0,
            bounded: [
                (false, 90.0, 0, true),
                (false, 90.0, 0, true),
                (true, 102.0, 13443, false),
                (true, 102.0, 13443, false),
            ],
            mapping_cells: 16259,
        },
    },
    Golden {
        pair: "FullBinary/200",
        subproblems: [540225, 667489, 13926045, 5858791, 540225],
        rule: Algorithm::ZhangL,
        unit: PerCost {
            distance: 170.0,
            bounded: [
                (false, 0.5, 19507, true),
                (false, 85.0, 405981, true),
                (true, 170.0, 519169, false),
                (true, 170.0, 520131, false),
            ],
            mapping_cells: 594532,
        },
        asym: PerCost {
            distance: 127.5,
            bounded: [
                (false, 0.5, 19507, true),
                (false, 63.75, 302316, true),
                (true, 127.5, 402569, false),
                (true, 127.5, 403553, false),
            ],
            mapping_cells: 594538,
        },
    },
    Golden {
        pair: "ZigZag/200",
        subproblems: [26522500, 27552001, 3019900, 2049601, 2049601],
        rule: Algorithm::Rted,
        unit: PerCost {
            distance: 165.0,
            bounded: [
                (false, 0.5, 179002, true),
                (false, 82.5, 20216243, true),
                (true, 165.0, 26311672, false),
                (true, 165.0, 26327956, false),
            ],
            mapping_cells: 2780306,
        },
        asym: PerCost {
            distance: 127.5,
            bounded: [
                (false, 0.5, 179002, true),
                (false, 63.75, 11100228, true),
                (true, 127.5, 18843166, false),
                (true, 127.5, 18937686, false),
            ],
            mapping_cells: 2736451,
        },
    },
    Golden {
        pair: "Random/200",
        subproblems: [367965, 951393, 10317240, 4614089, 345837],
        rule: Algorithm::ZhangL,
        unit: PerCost {
            distance: 221.0,
            bounded: [
                (false, 0.5, 16133, true),
                (false, 110.5, 282112, true),
                (true, 221.0, 367965, false),
                (true, 221.0, 367965, false),
            ],
            mapping_cells: 408541,
        },
        asym: PerCost {
            distance: 299.25,
            bounded: [
                (false, 0.5, 16133, true),
                (false, 149.625, 252638, true),
                (true, 299.25, 352062, false),
                (true, 299.25, 352451, false),
            ],
            mapping_cells: 408595,
        },
    },
];

#[test]
fn work_counters_match_golden_values() {
    let got = measure();
    assert_eq!(got.len(), GOLDEN.len(), "measured:\n{got:?}");
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want, "pair {}", want.pair);
    }
}
