//! The two cell types give the same bits. Under a cost model with a
//! dyadic unit every kernel runs on `u32` cells counting units; wrapped in
//! [`NoUnit`], the same model runs the `f64` instantiation of the same
//! code. Distances, budgeted outcomes, subproblem counts, kernels and edit
//! scripts must not tell them apart. Pinned figures of the `f64` kernels
//! guard the banded sheets' `+∞` sentinel and the fit test, and a
//! capacity figure the halved cell size.

use proptest::prelude::*;
use rted_core::{
    edit_mapping_in, ted_at_most_run, ted_within, Algorithm, BoundedResult, CostModel,
    PerLabelCost, UnitCost, Workspace,
};
use rted_datasets::Shape;
use rted_tree::Tree;

/// `C` with its unit hidden: every cost delegates, `unit()` is `None`,
/// so every kernel runs on `f64` cells.
struct NoUnit<C>(C);

impl<L, C: CostModel<L>> CostModel<L> for NoUnit<C> {
    fn delete(&self, label: &L) -> f64 {
        self.0.delete(label)
    }
    fn insert(&self, label: &L) -> f64 {
        self.0.insert(label)
    }
    fn rename(&self, from: &L, to: &L) -> f64 {
        self.0.rename(from, to)
    }
}

fn arb_shape_tree(min: usize, max: usize) -> impl Strategy<Value = Tree<u32>> {
    (0..Shape::ALL.len(), min..=max, any::<u32>())
        .prop_map(|(s, n, seed)| Shape::ALL[s].generate(n, seed as u64))
}

/// Everything the library answers for `(f, g)` under `cm`, as bits:
/// `ted_within` at `τ = ∞` and at `taus`, and the edit mapping.
fn answers<C: CostModel<u32>>(
    f: &Tree<u32>,
    g: &Tree<u32>,
    cm: &C,
    taus: &[f64],
    ws: &mut Workspace,
) -> Vec<String> {
    let mut out = Vec::new();
    for &tau in std::iter::once(&f64::INFINITY).chain(taus) {
        let run = ted_within(f, g, cm, tau, None, ws);
        let (kind, value) = match run.result {
            BoundedResult::Exact(d) => ("exact", d),
            BoundedResult::Exceeds(b) => ("exceeds", b),
        };
        out.push(format!(
            "tau={tau}: {kind} {:#x} cells={} early={} kernel={:?}",
            value.to_bits(),
            run.subproblems,
            run.early_exit,
            run.kernel
        ));
    }
    let m = edit_mapping_in(f, g, cm, ws);
    out.push(format!("mapping {:#x} {:?}", m.cost.to_bits(), m.ops));
    out
}

/// Both instantiations on `(f, g)` under `cm`, at budgets around the
/// distance.
fn check_pair<C: CostModel<u32>>(f: &Tree<u32>, g: &Tree<u32>, cm: C, ws: &mut Workspace) {
    assert!(cm.unit().is_some());
    let d = ted_within(f, g, &cm, f64::INFINITY, None, ws)
        .result
        .value();
    let taus = [0.0, (d / 2.0).floor(), d - 0.25, d, d + 1.0];
    let narrow = answers(f, g, &cm, &taus, ws);
    let wide = answers(f, g, &NoUnit(cm), &taus, ws);
    assert_eq!(narrow, wide);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn both_cell_types_give_the_same_bits(
        f in arb_shape_tree(1, 70),
        g in arb_shape_tree(1, 70),
        zz in (30..=60usize, any::<u32>(), any::<u32>()).prop_map(|(n, s, t)| {
            (Shape::ZigZag.generate(n, s as u64), Shape::ZigZag.generate(n, t as u64))
        }),
    ) {
        let mut ws = Workspace::new();
        for (f, g) in [(&f, &g), (&zz.0, &zz.1)] {
            check_pair(f, g, UnitCost, &mut ws);
            check_pair(f, g, PerLabelCost::new(1.5, 2.0, 0.75), &mut ws);
        }
    }
}

#[test]
fn zigzag_pairs_take_rted_on_both_cell_types() {
    // The property's ZZ pairs exercise ∆I; make sure this one does.
    let (f, g) = (
        Shape::ZigZag.generate(200, 7),
        Shape::ZigZag.generate(200, 8),
    );
    assert_eq!(Algorithm::cheapest_exact(&f, &g), Algorithm::Rted);
    check_pair(&f, &g, UnitCost, &mut Workspace::new());
    check_pair(
        &f,
        &g,
        PerLabelCost::new(1.5, 2.0, 0.75),
        &mut Workspace::new(),
    );
}

#[test]
fn banded_sheets_keep_the_infinite_sentinel() {
    // At τ ≤ 2 the bands are a few cells wide: in-band cells read
    // out-of-band +∞ fences plus +∞ subtree distances. The cell counts
    // are those of the f64-only kernels this crate had before integer
    // cells; a wrapped u32 sum would show as a small distance.
    let want = [
        ("LB", [(0.0, 22501), (1.0, 22805), (2.0, 23117)]),
        ("ZZ", [(0.0, 590377), (1.0, 1742935), (2.0, 2889803)]),
    ];
    let mut ws = Workspace::new();
    for (name, rows) in want {
        let shape = if name == "LB" {
            Shape::LeftBranch
        } else {
            Shape::ZigZag
        };
        let (f, g) = (shape.generate(300, 7), shape.generate(300, 8));
        for (tau, cells) in rows {
            let unit = ted_at_most_run(&f, &g, &UnitCost, tau, &mut ws);
            let wide = ted_at_most_run(&f, &g, &NoUnit(UnitCost), tau, &mut ws);
            assert_eq!(unit, wide, "{name} tau={tau}");
            assert_eq!(unit.result, BoundedResult::Exceeds(tau), "{name} tau={tau}");
            assert_eq!(unit.subproblems, cells, "{name} tau={tau}");
        }
    }
}

#[test]
fn a_total_over_the_headroom_runs_on_f64() {
    // Deletes of 2²⁸ units: the pair's total overflows the integer
    // cells' headroom, so the model runs as if it had no unit. The
    // figures are those of the f64-only kernels this crate had before.
    let big = PerLabelCost::new((1u64 << 28) as f64, 1.0, 1.0);
    assert_eq!(CostModel::<u32>::unit(&big), Some(1.0));
    let (f, g) = (Shape::Random.generate(60, 3), Shape::Random.generate(50, 4));
    let mut ws = Workspace::new();
    let taus = [0.0, 3e9, 1e10];
    assert_eq!(
        answers(&f, &g, &big, &taus, &mut ws),
        answers(&f, &g, &NoUnit(big), &taus, &mut ws)
    );
    let d = 6174015525.0;
    for (tau, result, cells) in [
        (f64::INFINITY, BoundedResult::Exact(d), 17466),
        (0.0, BoundedResult::Exceeds(2684354560.0), 0),
        (3e9, BoundedResult::Exceeds(3e9), 11936),
        (1e10, BoundedResult::Exact(d), 15908),
    ] {
        let run = ted_within(&f, &g, &big, tau, None, &mut ws);
        assert_eq!((run.result, run.subproblems), (result, cells), "tau={tau}");
    }
    assert_eq!(edit_mapping_in(&f, &g, &big, &mut ws).cost, d);
}

#[test]
fn integer_cells_halve_the_workspace() {
    // Bytes per |F|·|G| cell after one 500 × 500 unit-cost Zhang-L run
    // on f64 cells, as the crate had before integer cells: the matrix and
    // the keyroot sheet, 8 bytes a cell each.
    const F64_BYTES_PER_CELL: f64 = 16.286;
    let (f, g) = (
        Shape::Random.generate(500, 1),
        Shape::Random.generate(500, 2),
    );
    assert_eq!(Algorithm::cheapest_exact(&f, &g), Algorithm::ZhangL);
    let cells = (f.len() * g.len()) as f64;
    let (mut narrow, mut wide) = (Workspace::new(), Workspace::new());
    Algorithm::ZhangL.run_in(&f, &g, &UnitCost, &mut narrow);
    Algorithm::ZhangL.run_in(&f, &g, &NoUnit(UnitCost), &mut wide);
    let narrow = narrow.capacity_bytes() as f64 / cells;
    let wide = wide.capacity_bytes() as f64 / cells;
    assert!(
        (wide - F64_BYTES_PER_CELL).abs() < 0.01,
        "f64 cells: {wide:.3} bytes per cell"
    );
    assert!(
        narrow <= 0.55 * F64_BYTES_PER_CELL,
        "u32 cells: {narrow:.3} bytes per cell"
    );
}
