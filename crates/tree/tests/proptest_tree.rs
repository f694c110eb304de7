//! Property-based tests of the tree arena invariants and the
//! decomposition-counting lemmas on arbitrary ordered trees.

use proptest::prelude::*;
use rted_tree::counts::DecompCounts;
use rted_tree::decompose::{
    canonical_pairs, full_decomposition, recursive_relevant_forests, relevant_forest_sequence,
};
use rted_tree::paths::{root_leaf_path, PathKind};
use rted_tree::{parse_bracket, to_bracket, NodeId, Tree};

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
            proptest::collection::vec(0u8..5, n),
        )
            .prop_map(move |(choices, labels)| tree_from_choices(&labels, &choices))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn structural_invariants(t in arb_tree(40)) {
        let n = t.len();
        // Root is the last postorder node and has maximal size.
        prop_assert_eq!(t.root(), NodeId(n as u32 - 1));
        prop_assert_eq!(t.size(t.root()) as usize, n);
        let mut total_children = 0usize;
        for v in t.nodes() {
            // Subtree ranges are consistent.
            let first = t.subtree_first(v);
            prop_assert!(first <= v);
            let sz: u32 = 1 + t.children(v).map(|c| t.size(c)).sum::<u32>();
            prop_assert_eq!(sz, t.size(v));
            // lld is the subtree's first node; rld the node before v... no:
            // rld is the last leaf, which is v-1 if v is internal? Only for
            // the rightmost path; check the defining property instead.
            prop_assert_eq!(t.lld(v), first);
            prop_assert!(t.is_leaf(t.rld(v)) && t.in_subtree(t.rld(v), v));
            // Children are ordered and inside the subtree.
            let ch: Vec<NodeId> = t.children(v).collect();
            for w in ch.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for c in &ch {
                prop_assert!(t.in_subtree(*c, v));
                prop_assert_eq!(t.parent(*c), Some(v));
            }
            total_children += ch.len();
        }
        prop_assert_eq!(total_children, n - 1);
    }

    #[test]
    fn mirror_is_involution(t in arb_tree(30)) {
        let mm = t.mirrored().mirrored();
        prop_assert_eq!(t.len(), mm.len());
        for v in t.nodes() {
            prop_assert_eq!(t.label(v), mm.label(v));
            prop_assert_eq!(t.degree(v), mm.degree(v));
            prop_assert_eq!(t.size(v), mm.size(v));
        }
    }

    #[test]
    fn mirror_swaps_postorders(t in arb_tree(30)) {
        let m = t.mirrored();
        // Node with mirror-postorder rank r in t is node r in m, and its
        // mirror-postorder in m is its postorder in t.
        for v in t.nodes() {
            let in_m = NodeId(t.rpost(v));
            prop_assert_eq!(m.rpost(in_m), v.0);
            prop_assert_eq!(t.label(v), m.label(in_m));
        }
    }

    #[test]
    fn bracket_roundtrip(t in arb_tree(25)) {
        let s = to_bracket(&t.map_labels(|l| l.to_string()));
        let back = parse_bracket(&s).unwrap();
        prop_assert_eq!(back.len(), t.len());
        for v in t.nodes() {
            let expect = t.label(v).to_string();
            prop_assert_eq!(back.label(v), &expect);
            prop_assert_eq!(back.degree(v), t.degree(v));
        }
    }

    #[test]
    fn lemma_counts_match_enumeration(t in arb_tree(14)) {
        let counts = DecompCounts::new(&t);
        let root = t.root();
        prop_assert_eq!(full_decomposition(&t, root).len() as u64, counts.full_of(root));
        prop_assert_eq!(
            recursive_relevant_forests(&t, root, PathKind::Left).len() as u64,
            counts.left_of(root)
        );
        prop_assert_eq!(
            recursive_relevant_forests(&t, root, PathKind::Right).len() as u64,
            counts.right_of(root)
        );
        // Lemma 2 for all three path kinds.
        for kind in PathKind::ALL {
            prop_assert_eq!(
                relevant_forest_sequence(&t, root, kind).len() as u32,
                t.size(root)
            );
        }
        // Canonical pairs biject with the full decomposition.
        prop_assert_eq!(canonical_pairs(&t, root).len() as u64, counts.full_of(root));
    }

    #[test]
    fn heavy_path_decomposition_is_smallest_average(t in arb_tree(20)) {
        // The heavy path maximizes the subtree kept on the path at each
        // step, so its relevant subtrees are never larger than n/2.
        let path = root_leaf_path(&t, t.root(), PathKind::Heavy);
        for (i, &p) in path.iter().enumerate().skip(1) {
            let parent = path[i - 1];
            for c in t.children(parent) {
                if c != p {
                    prop_assert!(t.size(c) <= t.size(p), "heavy child not maximal");
                }
            }
        }
    }

    #[test]
    fn subtree_extraction_consistent(t in arb_tree(25)) {
        for v in t.nodes() {
            if v.0 % 3 != 0 { continue; }
            let sub = t.subtree(v);
            prop_assert_eq!(sub.len() as u32, t.size(v));
            prop_assert_eq!(sub.label(sub.root()), t.label(v));
            prop_assert_eq!(sub.max_depth(), {
                t.subtree_nodes(v).map(|x| t.depth(x)).max().unwrap() - t.depth(v)
            });
        }
    }
}
