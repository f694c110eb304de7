//! Seeded inputs and the reference answers they are checked against.
//!
//! Every input is a pure function of the workload seed. Reference
//! answers never use the index or RTED's strategy: distances come from
//! Zhang–Shasha (left paths, or right paths when the mirror needs fewer
//! cells — the two are the same recurrence on mirrored trees), and
//! search answers from a filter-free scan.

use rted_core::{Algorithm, UnitCost, Workspace};
use rted_datasets::realworld::{swissprot_like, treebank_like, treefam_like};
use rted_datasets::shapes::{perturb_labels, Shape, DEFAULT_ALPHABET};
use rted_tree::{to_bracket, NodeId, Tree};
use std::path::Path;

/// splitmix64: a small, fixed generator, so inputs never depend on a
/// library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The tree families of the paper's experiments: the six Fig. 7 shapes
/// and three real-data look-alikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Shape(Shape),
    SwissProt,
    TreeBank,
    TreeFam,
}

pub const KINDS: [Kind; 9] = [
    Kind::Shape(Shape::LeftBranch),
    Kind::Shape(Shape::RightBranch),
    Kind::Shape(Shape::FullBinary),
    Kind::Shape(Shape::ZigZag),
    Kind::Shape(Shape::Mixed),
    Kind::Shape(Shape::Random),
    Kind::SwissProt,
    Kind::TreeBank,
    Kind::TreeFam,
];

impl Kind {
    pub fn generate(self, n: usize, seed: u64) -> Tree<String> {
        let t = match self {
            Kind::Shape(s) => s.generate(n, seed),
            Kind::SwissProt => swissprot_like(n, seed),
            Kind::TreeBank => treebank_like(n, seed),
            Kind::TreeFam => treefam_like(n, seed),
        };
        t.map_labels(|l| l.to_string())
    }
}

/// A small "document-like" tree for the search workloads: a random shape
/// or a real-data look-alike (the `i`-th tree takes family `i mod 4`) of
/// `n` nodes, labels `prefix` + digit.
pub fn small_tree(rng: &mut Rng, i: usize, n: usize, prefix: &str) -> Tree<String> {
    let seed = rng.next_u64();
    let t = match i % 4 {
        0 => swissprot_like(n, seed),
        1 => treebank_like(n, seed),
        2 => treefam_like(n, seed),
        _ => Shape::Random.generate(n, seed),
    };
    t.map_labels(|l| format!("{prefix}{l}"))
}

/// A near duplicate: `edits` label changes (drawn from the same alphabet,
/// so some are no-ops).
pub fn near_duplicate(
    rng: &mut Rng,
    t: &Tree<String>,
    edits: (usize, usize),
    prefix: &str,
) -> Tree<String> {
    let edits = rng.between(edits.0, edits.1);
    let numeric = t.map_labels(|l| l.trim_start_matches(prefix).parse::<u32>().unwrap_or(0));
    perturb_labels(&numeric, edits, DEFAULT_ALPHABET, rng.next_u64())
        .map_labels(|l| format!("{prefix}{l}"))
}

/// `n` trees in near-duplicate clusters, shuffled: cluster `k` has
/// `cycle[k mod len]` members, all `size(k)` nodes, each member one to
/// `max_edits` label changes away from the cluster's first tree.
pub fn clustered(
    rng: &mut Rng,
    n: usize,
    cycle: &[usize],
    size: impl Fn(usize) -> usize,
    max_edits: usize,
) -> Vec<Tree<String>> {
    let mut trees = Vec::with_capacity(n);
    let mut k = 0;
    while trees.len() < n {
        let base = small_tree(rng, k, size(k), "");
        for _ in 1..cycle[k % cycle.len()].min(n - trees.len()) {
            trees.push(near_duplicate(rng, &base, (1, max_edits), ""));
        }
        trees.push(base);
        k += 1;
    }
    rng.shuffle(&mut trees);
    trees
}

/// Writes one bracket tree per line and returns the file's bytes.
pub fn write_corpus(path: &Path, trees: &[Tree<String>]) -> Result<Vec<u8>, String> {
    let mut text = String::new();
    for t in trees {
        text.push_str(&to_bracket(t));
        text.push('\n');
    }
    std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text.into_bytes())
}

/// Sum of subtree sizes over the keyroots of one Zhang–Shasha variant:
/// the root plus every node with a sibling on the `right`/left side.
/// The DP's cell count is the product of the two trees' sums.
pub fn keyroot_mass(t: &Tree<String>, right: bool) -> u64 {
    let mut mass = u64::from(t.size(t.root()));
    for v in t.nodes() {
        let kids: Vec<NodeId> = t.children(v).collect();
        let n = kids.len();
        for (i, &c) in kids.iter().enumerate() {
            let has_sibling = if right { i + 1 < n } else { i > 0 };
            if has_sibling {
                mass += u64::from(t.size(c));
            }
        }
    }
    mass
}

/// The Zhang–Shasha variant with fewer cells for this pair, and its cells.
pub fn cheaper_zs(f: &Tree<String>, g: &Tree<String>) -> (Algorithm, u64) {
    let left = keyroot_mass(f, false) * keyroot_mass(g, false);
    let right = keyroot_mass(f, true) * keyroot_mass(g, true);
    if right < left {
        (Algorithm::ZhangR, right)
    } else {
        (Algorithm::ZhangL, left)
    }
}

/// Reference distance: Zhang–Shasha, never RTED.
pub fn reference_distance(f: &Tree<String>, g: &Tree<String>, ws: &mut Workspace) -> f64 {
    cheaper_zs(f, g).0.run_in(f, g, &UnitCost, ws).distance
}

/// Maps `f` over `items` on two threads (the container's core count),
/// each with its own workspace; order is preserved.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T, &mut Workspace) -> R + Sync,
) -> Vec<R> {
    let half = items.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = items
            .chunks(half.max(1))
            .map(|chunk| {
                let f = &f;
                s.spawn(move || {
                    let mut ws = Workspace::new();
                    chunk.iter().map(|x| f(x, &mut ws)).collect::<Vec<R>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// A tree's size and label counts: enough for the one lower bound the
/// reference answers use to skip exact computations.
pub struct Counts {
    size: usize,
    labels: Vec<(String, u32)>,
}

impl Counts {
    pub fn of(t: &Tree<String>) -> Counts {
        let mut labels: Vec<(String, u32)> = Vec::new();
        let mut all: Vec<&String> = t.nodes().map(|v| t.label(v)).collect();
        all.sort_unstable();
        for l in all {
            match labels.last_mut() {
                Some((last, n)) if last == l => *n += 1,
                _ => labels.push((l.clone(), 1)),
            }
        }
        Counts {
            size: t.len(),
            labels,
        }
    }

    /// `max(|F|, |G|) − common labels` never exceeds the unit-cost
    /// distance: an optimal mapping pairs at most `min(|F|, |G|)` nodes,
    /// and only pairs with equal labels are free.
    pub fn lower_bound(&self, o: &Counts) -> f64 {
        let (mut i, mut j, mut common) = (0, 0, 0);
        while i < self.labels.len() && j < o.labels.len() {
            let (a, b) = (&self.labels[i], &o.labels[j]);
            match a.0.cmp(&b.0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += a.1.min(b.1) as usize;
                    i += 1;
                    j += 1;
                }
            }
        }
        (self.size.max(o.size) - common) as f64
    }
}

pub fn counts(trees: &[Tree<String>]) -> Vec<Counts> {
    trees.iter().map(Counts::of).collect()
}

/// Exact distances from `query` to every corpus tree that can be within
/// `tau` or among the `k` nearest; `None` for trees the lower bound rules
/// out of both. Trees are visited in lower-bound order, so the top `k`
/// (by distance, then id) is settled once the next bound exceeds the
/// k-th distance.
pub fn scan(
    query: &Tree<String>,
    corpus: &[Tree<String>],
    counts: &[Counts],
    tau: f64,
    k: usize,
    ws: &mut Workspace,
) -> Vec<Option<f64>> {
    let q = Counts::of(query);
    let mut order: Vec<(f64, usize)> = counts
        .iter()
        .enumerate()
        .map(|(i, c)| (q.lower_bound(c), i))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut dists = vec![None; corpus.len()];
    let mut best = std::collections::BinaryHeap::new();
    for (lb, i) in order {
        let settled = best.len() >= k
            && best
                .peek()
                .is_none_or(|&(d, _): &(u64, usize)| f64::from_bits(d) < lb);
        if lb >= tau && settled {
            break;
        }
        let d = reference_distance(query, &corpus[i], ws);
        dists[i] = Some(d);
        best.push((d.to_bits(), i));
        if best.len() > k {
            best.pop();
        }
    }
    dists
}

/// Range answer: ids with distance `< tau`, ascending.
pub fn range_answer(dists: &[Option<f64>], tau: f64) -> Vec<(usize, f64)> {
    dists
        .iter()
        .enumerate()
        .filter_map(|(id, d)| d.filter(|&d| d < tau).map(|d| (id, d)))
        .collect()
}

/// Top-k answer: by `(distance, id)`.
pub fn topk_answer(dists: &[Option<f64>], k: usize) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = dists
        .iter()
        .enumerate()
        .filter_map(|(id, d)| d.map(|d| (id, d)))
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

/// Self-join answer: pairs `(i, j)`, `i < j`, with distance `< tau`,
/// sorted; exact distances for every pair the lower bound leaves open.
pub fn join_answer(
    trees: &[Tree<String>],
    counts: &[Counts],
    tau: f64,
) -> Vec<(usize, usize, f64)> {
    let rows: Vec<usize> = (0..trees.len()).collect();
    par_map(&rows, |&i, ws| {
        let mut found = Vec::new();
        for j in i + 1..trees.len() {
            let gap = trees[i].len().abs_diff(trees[j].len()) as f64;
            if gap < tau && counts[i].lower_bound(&counts[j]) < tau {
                let d = reference_distance(&trees[i], &trees[j], ws);
                if d < tau {
                    found.push((i, j, d));
                }
            }
        }
        found
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rted_tree::parse_bracket;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 2);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(1, 2);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(1, 3).next_u64(), a[0]);
        let mut r = Rng::new(9, 0);
        assert!((0..1000).all(|_| r.between(3, 5) >= 3 && r.between(3, 5) <= 5));
    }

    #[test]
    fn keyroot_mass_predicts_zhang_shasha_cells() {
        let f = parse_bracket("{a{b{c}{d}}{e}{f{g}}}").unwrap();
        let g = parse_bracket("{x{y}{z{w}}}").unwrap();
        for (alg, right) in [(Algorithm::ZhangL, false), (Algorithm::ZhangR, true)] {
            let run = alg.run(&f, &g, &UnitCost);
            assert_eq!(
                run.subproblems,
                keyroot_mass(&f, right) * keyroot_mass(&g, right)
            );
        }
    }

    #[test]
    fn answers_follow_the_protocol_orders() {
        let d = [Some(2.0), Some(1.0), None, Some(1.0), Some(5.0)];
        assert_eq!(range_answer(&d, 2.0), vec![(1, 1.0), (3, 1.0)]);
        assert_eq!(topk_answer(&d, 3), vec![(1, 1.0), (3, 1.0), (0, 2.0)]);
    }

    #[test]
    fn bounded_scan_matches_a_full_scan() {
        let mut rng = Rng::new(5, 0);
        let mut corpus: Vec<Tree<String>> = (0..60)
            .map(|i| small_tree(&mut rng, i, 8 + i % 13, ""))
            .collect();
        for i in 0..20 {
            let t = near_duplicate(&mut rng, &corpus[i], (1, 2), "");
            corpus.push(t);
        }
        let c = counts(&corpus);
        let mut ws = Workspace::new();
        for q in corpus.iter().take(12) {
            let full: Vec<Option<f64>> =
                corpus.iter().map(|t| Some(rted_core::ted(q, t))).collect();
            for (i, t) in corpus.iter().enumerate() {
                assert!(Counts::of(q).lower_bound(&c[i]) <= rted_core::ted(q, t));
            }
            let part = scan(q, &corpus, &c, 3.0, 5, &mut ws);
            assert_eq!(range_answer(&part, 3.0), range_answer(&full, 3.0));
            assert_eq!(topk_answer(&part, 5), topk_answer(&full, 5));
        }
        let full_join: Vec<(usize, usize, f64)> = (0..corpus.len())
            .flat_map(|i| (i + 1..corpus.len()).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, rted_core::ted(&corpus[i], &corpus[j])))
            .filter(|m| m.2 < 3.0)
            .collect();
        assert_eq!(join_answer(&corpus, &c, 3.0), full_join);
    }
}
