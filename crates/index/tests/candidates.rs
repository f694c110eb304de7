//! Candidate generation: the striped linear driver must replay one
//! union index's work counter for counter under global ids, and the
//! pq-gram stage must be a sound lower bound against exact RTED.

use proptest::prelude::*;
use rted_core::bounds::{LowerBound, PqGramBound, TreeSketch};
use rted_core::ted;
use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted_index::{SearchStats, TreeIndex};
use rted_tree::Tree;

fn arb_shape_tree(max: usize) -> impl Strategy<Value = Tree<u32>> {
    (0..Shape::ALL.len(), 1..=max, any::<u32>())
        .prop_map(|(s, n, seed)| Shape::ALL[s].generate(n, seed as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pq-gram stage never exceeds exact RTED (dedicated, beyond the
    /// all-stages sweep in bound_soundness.rs: adversarially *similar*
    /// pairs, where an unsound bound would actually drop matches).
    #[test]
    fn pqgram_bound_is_sound_on_near_duplicates(
        base in arb_shape_tree(30),
        edits in 1..5usize,
        seed in any::<u32>(),
    ) {
        let near = perturb_labels(&base, edits, DEFAULT_ALPHABET, seed as u64);
        let d = ted(&base, &near);
        let (sf, sg) = (TreeSketch::new(&base), TreeSketch::new(&near));
        let lb = LowerBound::<u32>::bound(&PqGramBound, &sf, &sg);
        prop_assert!(lb <= d, "pqgram lb {lb} > exact ted {d}");
    }
}

/// The striped drivers are counter-identical to one index holding the
/// union corpus under global ids — for top-k the neighbour set *and* the
/// work counters (`verified`, `early_exits`, `subproblems`) replay the
/// same batch schedule; range and join match answers and every counter
/// — and each query is recorded once, into the driver shard.
#[test]
fn striped_top_k_replays_the_union_schedule() {
    let n = 3;
    let trees: Vec<Tree<u32>> = (0..13)
        .map(|g| Shape::ALL[g % Shape::ALL.len()].generate(5 + g, g as u64))
        .collect();
    let union = TreeIndex::build(trees.iter().cloned());
    // Global id g lives on shard g % n as local id g / n.
    let mut shard_trees: Vec<Vec<Tree<u32>>> = vec![Vec::new(); n];
    for (g, t) in trees.iter().enumerate() {
        shard_trees[g % n].push(t.clone());
    }
    let shards: Vec<TreeIndex<u32>> = shard_trees.into_iter().map(TreeIndex::build).collect();
    let refs: Vec<&TreeIndex<u32>> = shards.iter().collect();
    let q = Shape::Mixed.generate(9, 77);

    for k in [1, 4, 13, 20] {
        let a = union.top_k(&q, k);
        let b = TreeIndex::top_k_striped(&refs, &q, k);
        assert_eq!(a.neighbors, b.neighbors, "k {k}");
        assert_eq!(a.stats.candidates, b.stats.candidates, "k {k}");
        assert_eq!(a.stats.verified, b.stats.verified, "k {k}");
        assert_eq!(a.stats.early_exits, b.stats.early_exits, "k {k}");
        assert_eq!(a.stats.subproblems, b.stats.subproblems, "k {k}");
    }
    assert_eq!(
        shards[0].totals().topk_queries,
        4,
        "driver records each query once"
    );
    assert_eq!(shards[1].totals().topk_queries, 0);
    assert_eq!(shards[2].totals().topk_queries, 0);

    // Range and join run the same central driver: the answers and every
    // work counter equal the union index's, under global ids.
    for tau in [0.5, 3.0, 6.0, f64::INFINITY] {
        let a = union.range(&q, tau);
        let b = TreeIndex::range_striped(&refs, &q, tau);
        assert_eq!(a.neighbors, b.neighbors, "range tau {tau}");
        assert_same_work(&a.stats, &b.stats, &format!("range tau {tau}"));
    }
    for tau in [2.0, 6.0, f64::INFINITY] {
        let a = union.join(tau);
        let b = TreeIndex::join_striped(&refs, tau);
        assert_eq!(a.matches, b.matches, "join tau {tau}");
        assert_same_work(&a.stats, &b.stats, &format!("join tau {tau}"));
    }
    assert_eq!(shards[0].totals().range_queries, 4);
    assert_eq!(shards[0].totals().join_queries, 3);
    for shard in &shards[1..] {
        assert_eq!(shard.totals().range_queries, 0);
        assert_eq!(shard.totals().join_queries, 0);
    }
}

/// Asserts two runs did the same work: candidates, verifications, early
/// exits, subproblems and every per-stage prune count.
fn assert_same_work(a: &SearchStats, b: &SearchStats, what: &str) {
    assert_eq!(a.candidates, b.candidates, "{what}");
    assert_eq!(a.verified, b.verified, "{what}");
    assert_eq!(a.early_exits, b.early_exits, "{what}");
    assert_eq!(a.subproblems, b.subproblems, "{what}");
    assert_eq!(a.filter, b.filter, "{what}");
}
