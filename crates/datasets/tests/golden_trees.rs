//! Golden hashes of every generator's and parser's output.
//!
//! The end-to-end benchmark and the figure binaries draw their inputs from
//! these generators, so a change to how trees are built must leave every
//! generated tree byte-identical. Each group folds the bracket notation of
//! its trees into one FNV-1a hash; the constants were recorded from the
//! generators as they stood before tree construction moved to postorder
//! labels and degrees.

use rted_datasets::realworld::{swissprot_like, treebank_like, treefam_like};
use rted_datasets::shapes::{perturb_labels, DEFAULT_ALPHABET};
use rted_datasets::xml::parse_xml;
use rted_datasets::Shape;
use rted_tree::{to_bracket, Tree};

/// FNV-1a over the bracket notation of each tree, one `\n` after each.
fn fold<L: std::fmt::Display>(trees: impl IntoIterator<Item = Tree<L>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in trees {
        for b in to_bracket(&t).bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const SIZES: [usize; 6] = [1, 2, 5, 17, 100, 301];
const SEEDS: [u64; 3] = [1, 2, 3];

#[test]
fn shapes_unchanged() {
    let expected: [(Shape, u64); 6] = [
        (Shape::LeftBranch, 0xca91_dfbb_8fe4_bff5),
        (Shape::RightBranch, 0x4b9f_91a4_01c9_d31d),
        (Shape::FullBinary, 0x6960_2734_f87c_1ff9),
        (Shape::ZigZag, 0x4525_2903_d4d1_574f),
        (Shape::Random, 0xb663_c898_07a6_6c23),
        (Shape::Mixed, 0xd7d6_a94d_2521_5499),
    ];
    for (shape, want) in expected {
        let got = fold(
            SIZES
                .iter()
                .flat_map(|&n| SEEDS.iter().map(move |&s| shape.generate(n, s))),
        );
        assert_eq!(got, want, "{shape}: {got:#x}");
    }
}

#[test]
fn perturbed_labels_unchanged() {
    let got = fold(Shape::ALL.iter().flat_map(|&shape| {
        SEEDS
            .iter()
            .map(move |&s| perturb_labels(&shape.generate(100, s), 7, DEFAULT_ALPHABET, 1000 + s))
    }));
    assert_eq!(got, 0x02fc_7403_9951_9ab1, "{got:#x}");
}

#[test]
fn realworld_simulators_unchanged() {
    type Simulator = fn(usize, u64) -> Tree<u32>;
    let cases: [(&str, Simulator, usize, u64); 3] = [
        ("swissprot", swissprot_like, 187, 0x51e7_37d3_5aa5_2f6b),
        ("treebank", treebank_like, 68, 0x8fba_3156_7b31_5f31),
        ("treefam", treefam_like, 500, 0xeb79_2b07_0849_2b77),
    ];
    for (name, make, size, want) in cases {
        let got = fold(SEEDS.iter().map(|&s| make(size, s)));
        assert_eq!(got, want, "{name}: {got:#x}");
    }
}

#[test]
fn xml_fixtures_unchanged() {
    let docs = [
        "<a><b/><c>hello</c></a>",
        r#"<a x="1"><b y="2"/></a>"#,
        "<?xml version=\"1.0\"?><!-- hi --><a><b/></a>",
        "<a>\n  <b/>\n</a>",
        "<a> split <!-- c --> text <b/>tail</a>",
    ];
    let got = fold(docs.iter().map(|d| parse_xml(d).unwrap()));
    assert_eq!(got, 0x1606_7a77_6428_b6f4, "{got:#x}");
}
