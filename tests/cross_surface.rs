//! One exact distance on every surface: on random pairs of every Fig. 7
//! shape, `ted`/`ted_with`, `ted_within` at an unbounded budget, the cost
//! of `edit_mapping`, and (unit costs) the served `distance` answer agree
//! bit for bit. Each surface runs the same per-pair kernel rule, so they
//! agree even under costs such as 0.1, where Zhang-L, Zhang-R and RTED
//! round the last place differently. The command-line `distance` and
//! `diff` are held to the same value by `scripts/index_roundtrip.sh`.

use proptest::prelude::*;
use rted::core::{
    edit_mapping, ted, ted_with, ted_within, CostModel, Kernel, PerLabelCost, UnitCost, Workspace,
};
use rted::datasets::Shape;
use rted::serve::{Request, Response, Server, ServerConfig, TreeRef};
use rted::tree::Tree;

fn arb_shape_tree(min: usize, max: usize) -> impl Strategy<Value = Tree<String>> {
    (0..Shape::ALL.len(), min..=max, any::<u32>()).prop_map(|(s, n, seed)| {
        Shape::ALL[s]
            .generate(n, seed as u64)
            .map_labels(|l| l.to_string())
    })
}

/// The library surfaces under `cm`, all bit-identical; returns the
/// distance and the kernel the rule picked.
fn library_distance<C: CostModel<String>>(
    f: &Tree<String>,
    g: &Tree<String>,
    cm: &C,
    ws: &mut Workspace,
) -> (f64, Option<Kernel>) {
    let d = ted_with(f, g, cm);
    let run = ted_within(f, g, cm, f64::INFINITY, None, ws);
    assert!(run.result.is_exact(), "{run:?}");
    assert_eq!(
        run.result.value().to_bits(),
        d.to_bits(),
        "ted_within vs ted_with"
    );
    let mapped = edit_mapping(f, g, cm).cost;
    assert_eq!(
        mapped.to_bits(),
        d.to_bits(),
        "edit_mapping vs ted_with: {mapped} vs {d}"
    );
    (d, run.kernel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_surface_reports_the_same_distance(
        a in arb_shape_tree(1, 60),
        b in arb_shape_tree(1, 60),
        zz in (40..=48usize, any::<u32>(), any::<u32>()).prop_map(|(n, s, t)| {
            let zz = |seed: u32| Shape::ZigZag.generate(n, seed as u64).map_labels(|l| l.to_string());
            (zz(s), zz(t))
        }),
    ) {
        let corpus = [a, b, zz.0, zz.1];
        let pairs = [(0, 1), (1, 0), (0, 0), (2, 3), (0, 2), (3, 1)];
        let server = Server::in_memory(
            corpus.to_vec(),
            ServerConfig { workers: 1, compact_fraction: None, ..ServerConfig::default() },
        );
        let mut ws = Workspace::new();
        let mut kernels = Vec::new();
        for (i, j) in pairs {
            let (f, g) = (&corpus[i], &corpus[j]);
            let (d, kernel) = library_distance(f, g, &UnitCost, &mut ws);
            kernels.push(kernel);
            prop_assert_eq!(ted(f, g).to_bits(), d.to_bits());
            let served = match server.call(Request::Distance {
                left: TreeRef::Id(i),
                right: TreeRef::Id(j),
                at_most: f64::INFINITY,
            }) {
                Response::Distance(d) => d,
                other => panic!("pair ({i},{j}): {other:?}"),
            };
            prop_assert_eq!(served.to_bits(), d.to_bits(), "pair ({},{}): {} vs {}", i, j, served, d);

            library_distance(f, g, &PerLabelCost::new(1.5, 2.0, 0.75), &mut ws);
            library_distance(f, g, &PerLabelCost::new(0.1, 0.2, 0.3), &mut ws);
        }
        server.shutdown();
        // The sampled pairs take both exact arms of the rule.
        prop_assert!(kernels.contains(&Some(Kernel::ZhangShasha)), "{:?}", kernels);
        prop_assert!(kernels.contains(&Some(Kernel::Rted)), "{:?}", kernels);
    }
}
