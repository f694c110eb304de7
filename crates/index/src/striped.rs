//! The query drivers — `range`, `top_k` and `join` — over one index or a
//! striped (sharded) corpus. Each is one linear pass over the size-sorted
//! corpus view: there is no other candidate generator.
//!
//! The sharded serving layer splits one logical corpus over `N` shard
//! indexes by the [`Stripes`] layout: global id `g` lives on shard
//! `g % N` as local id `g / N`. Every query runs one centralized driver
//! over all shards instead of one leg per shard:
//!
//! * `range` walks the shards' size windows as one candidate list;
//! * `top_k` walks the merged `(|size − q|, side, global id)` visit
//!   order with a geometric batch schedule and a batch-start radius —
//!   the radius after `k` hits belongs to the union, not to any shard;
//! * `join` walks the merged `(size, global id)` view, which *is* the
//!   union index's size-sorted view, so cross-shard pairs need no
//!   separate bipartite pass.
//!
//! Answers are reported under global ids, and the neighbour or match
//! set **and every counter** are byte-identical to an unsharded index
//! holding the union, for any shard count and thread count. `shards[0]`
//! is the driver of every query: its filter pipeline, pinned algorithm,
//! execution policy, workspace pool and lifetime totals serve the whole
//! query, which is recorded once, into the driver's totals (the shards
//! of one service share one configuration). The single-index
//! [`TreeIndex::range`], [`TreeIndex::top_k`] and [`TreeIndex::join`]
//! are the same drivers over one shard.

use crate::corpus::CorpusEntry;
use crate::exec::map_chunks_with;
use crate::totals::QueryKind;
use crate::{
    zeroed_stats, JoinOutcome, JoinPair, Neighbor, OrdF64, QueryResult, SearchStats, TreeIndex,
};
use rted_tree::Tree;
use std::collections::BinaryHeap;
use std::time::Instant;

/// How a corpus is striped over `N` shards: global id `g` lives on shard
/// `g % N` as local id `g / N`, so freshly assigned ids stay dense per
/// shard and the mapping needs no routing table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stripes {
    shards: usize,
}

impl Stripes {
    /// The layout over `shards` stripes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a striped corpus needs at least one shard");
        Stripes { shards }
    }

    /// Global id → `(shard, local id)`.
    pub fn route(self, global: usize) -> (usize, usize) {
        (global % self.shards, global / self.shards)
    }

    /// `(shard, local id)` → global id.
    pub fn global(self, shard: usize, local: usize) -> usize {
        local * self.shards + shard
    }
}

/// One candidate of a striped query: where it lives and how big it is.
#[derive(Clone, Copy)]
struct Cand {
    /// Global id — the merge/tie-break key and the reported id.
    global: usize,
    /// Owning shard (index into the `shards` slice).
    shard: u32,
    /// Id within the owning shard's corpus.
    local: u32,
    /// Subtree size (copied out of the sketch once).
    size: usize,
}

impl Cand {
    fn of<L>(shards: &[&TreeIndex<L>], shard: usize, local: u32) -> Cand {
        Cand {
            global: Stripes::new(shards.len()).global(shard, local as usize),
            shard: shard as u32,
            local,
            size: shards[shard].corpus.sketch(local as usize).size,
        }
    }

    fn entry<'a, L>(self, shards: &[&'a TreeIndex<L>]) -> &'a CorpusEntry<L> {
        shards[self.shard as usize]
            .corpus
            .entry(self.local as usize)
    }
}

/// The driver shard of a striped query.
fn driver<'a, L>(shards: &[&'a TreeIndex<L>]) -> &'a TreeIndex<L> {
    shards
        .first()
        .expect("a striped query needs at least one shard")
}

/// Folds per-chunk worker outputs into the query's counters, returning
/// the found items in chunk order.
fn gather<T>(stats: &mut SearchStats, chunks: Vec<(SearchStats, Vec<T>)>) -> Vec<T> {
    let mut all = Vec::new();
    for (out, found) in chunks {
        stats.merge(&out);
        all.extend(found);
    }
    all
}

impl<L> TreeIndex<L>
where
    L: Eq + std::hash::Hash + Clone + Send + Sync + 'static,
{
    /// All trees across `shards` with `TED(query, tree) < tau`, sorted by
    /// **global** id — exactly the result (and counters) of
    /// [`range`](Self::range) on one index holding the union corpus under
    /// global ids.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn range_striped(shards: &[&TreeIndex<L>], query: &Tree<L>, tau: f64) -> QueryResult {
        let driver = driver(shards);
        let pipeline = &*driver.pipeline;
        let start = Instant::now();
        let qsketch = Self::query_sketch(shards, query);
        let mut stats = zeroed_stats(shards.iter().map(|s| s.corpus.len()).sum(), pipeline);

        // The size-sorted windows are the size stage, run as index
        // arithmetic instead of a per-candidate check.
        let size_stage = pipeline.leading_size_stage();
        let mut window = Vec::new();
        for (s, shard) in shards.iter().enumerate() {
            let w = match size_stage {
                Some(_) => shard.corpus.size_window(qsketch.size, tau),
                None => shard.corpus.by_size(),
            };
            window.extend(w.iter().map(|&local| Cand::of(shards, s, local)));
        }
        if let Some(idx) = size_stage {
            stats
                .filter
                .record(idx, (stats.candidates - window.len()) as u64);
        }

        // With `tau = ∞` no finite bound can reach the threshold: skip the
        // per-candidate stage evaluation entirely.
        let filters_active = tau != f64::INFINITY;
        let verifier = driver.counted();
        let chunks = map_chunks_with(
            &window,
            &driver.policy,
            || driver.scratch.take(),
            |ws, _, chunk| {
                let mut out = zeroed_stats(0, pipeline);
                let mut found = Vec::new();
                for cand in chunk {
                    let entry = cand.entry(shards);
                    if filters_active {
                        if let Some(stage) = pipeline.prune_stage(&qsketch, entry.sketch(), tau) {
                            out.filter.record(stage, 1);
                            continue;
                        }
                    }
                    // The verifier gets the query threshold: a pair whose
                    // distance provably exceeds `tau` cannot match, so the
                    // bounded kernel may stop early. Matching stays strict
                    // (`d < tau`); `Some(d)` guarantees `d ≤ tau` exactly.
                    if let Some(d) = verifier.pair(query, entry.tree(), tau, ws.get(), &mut out) {
                        if d < tau {
                            found.push(Neighbor {
                                id: cand.global,
                                distance: d,
                            });
                        }
                    }
                }
                (out, found)
            },
        );

        let mut neighbors = gather(&mut stats, chunks);
        neighbors.sort_by_key(|n| n.id);
        driver.record(QueryKind::Range, start, &mut stats);
        QueryResult { neighbors, stats }
    }

    /// The `k` nearest trees across all `shards` by exact distance (ties
    /// broken by **global** id), sorted by `(distance, id)` — exactly
    /// the result (and counters) of [`top_k`](Self::top_k) on one index
    /// holding the union corpus under global ids. Best-first batches over
    /// the merged size-distance order.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn top_k_striped(shards: &[&TreeIndex<L>], query: &Tree<L>, k: usize) -> QueryResult {
        let driver = driver(shards);
        let pipeline = &*driver.pipeline;
        let start = Instant::now();
        let qsketch = Self::query_sketch(shards, query);
        // A query for no neighbours considers no candidate.
        let candidates = if k == 0 {
            0
        } else {
            shards.iter().map(|s| s.corpus.len()).sum()
        };
        let mut stats = zeroed_stats(candidates, pipeline);
        if candidates == 0 {
            driver.record(QueryKind::TopK, start, &mut stats);
            return QueryResult {
                neighbors: Vec::new(),
                stats,
            };
        }

        // Candidates ordered by |size − query size|: walk outward from the
        // query's position in the merged size-sorted view.
        let order = merged_by_size_distance(shards, qsketch.size);
        let size_stage = pipeline.leading_size_stage();

        // Max-heap on (distance, id): the top is the worst of the best k.
        // Capacity (and the batch schedule below) is sized from the
        // *effective* k — the heap can never hold more than the corpus —
        // so an absurd requested k (e.g. from an untrusted service
        // request) cannot force a huge up-front allocation or abort.
        let k_eff = k.min(order.len());
        let mut heap: BinaryHeap<(OrdF64, usize)> = BinaryHeap::with_capacity(k_eff + 1);
        // Batches grow geometrically: a small first batch establishes a
        // finite radius quickly (so later batches can prune), while later
        // batches amortize dispatch. Sizes depend only on `k` and the
        // chunk setting — never on the thread count — so prune counters
        // (not just results) are reproducible across policies.
        let mut batch = (2 * k_eff).max(16);
        let batch_cap = (driver.policy.chunk.max(1) * 4).max(batch);
        let verifier = driver.counted();
        let mut pos = 0;
        while pos < order.len() {
            let radius = if heap.len() == k {
                heap.peek()
                    .map(|&(OrdF64(d), _)| d)
                    .unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            };

            // Select this batch's survivors at the current radius. Pruning
            // is strict (`bound > radius`) because a candidate tying the
            // k-th distance can still win the id tie-break.
            let mut survivors: Vec<Cand> = Vec::new();
            let batch_end = (pos + batch).min(order.len());
            batch = (batch * 2).min(batch_cap);
            // Until the heap holds k entries the radius is infinite and no
            // finite bound can prune; skip the stage evaluation.
            if radius == f64::INFINITY {
                while pos < batch_end {
                    survivors.push(order[pos]);
                    pos += 1;
                }
            }
            while pos < batch_end {
                let cand = order[pos];
                if let Some(idx) = size_stage {
                    let size_lb = (cand.size as f64 - qsketch.size as f64).abs();
                    if size_lb > radius {
                        // Candidates are size-ordered: everything after
                        // this one is at least as far. Prune the tail.
                        stats.filter.record(idx, (order.len() - pos) as u64);
                        pos = order.len();
                        break;
                    }
                }
                match pipeline.prune_stage_strict(&qsketch, cand.entry(shards).sketch(), radius) {
                    Some(stage) => stats.filter.record(stage, 1),
                    None => survivors.push(cand),
                }
                pos += 1;
            }

            // Verify the survivors in parallel, then fold them into the
            // best-k heap in deterministic (batch) order. The batch-start
            // radius is the verification budget: once the heap is full, a
            // candidate that provably exceeds the current k-th distance
            // would be popped right back out, so `Exceeds` survivors are
            // simply not folded — the heap evolves identically to the
            // exact path (a tie at the radius is still returned `Exact`
            // and can win the id tie-break). The budget is fixed per batch
            // — never the mid-batch shrinking radius — so counters and
            // results are reproducible across thread counts.
            let chunks = map_chunks_with(
                &survivors,
                &driver.policy,
                || driver.scratch.take(),
                |ws, _, chunk| {
                    let mut out = zeroed_stats(0, pipeline);
                    let mut found = Vec::new();
                    for cand in chunk {
                        let tree = cand.entry(shards).tree();
                        if let Some(d) = verifier.pair(query, tree, radius, ws.get(), &mut out) {
                            found.push((cand.global, d));
                        }
                    }
                    (out, found)
                },
            );
            for (id, distance) in gather(&mut stats, chunks) {
                heap.push((OrdF64(distance), id));
                if heap.len() > k {
                    heap.pop();
                }
            }
        }

        let neighbors: Vec<Neighbor> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|(OrdF64(distance), id)| Neighbor { id, distance })
            .collect();
        driver.record(QueryKind::TopK, start, &mut stats);
        QueryResult { neighbors, stats }
    }

    /// The similarity self-join over the union of `shards`: every pair of
    /// **global** ids `(i, j)`, `i < j`, with `TED < tau`, sorted by
    /// `(left, right)` — exactly the result (and counters) of
    /// [`join`](Self::join) on one index holding the union corpus. A
    /// size-sorted pair walk, parallelized over chunks of outer positions
    /// of the merged view.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn join_striped(shards: &[&TreeIndex<L>], tau: f64) -> JoinOutcome {
        let driver = driver(shards);
        let pipeline = &*driver.pipeline;
        let start = Instant::now();
        let by_size = merged_by_size(shards);
        let n = by_size.len();
        let mut stats = zeroed_stats(n.saturating_sub(1) * n / 2, pipeline);
        let size_stage = pipeline.leading_size_stage();
        // With `tau = ∞` no finite bound can reach the threshold: skip the
        // per-pair stage evaluation entirely.
        let filters_active = tau != f64::INFINITY;
        let verifier = driver.counted();

        let chunks = map_chunks_with(
            &by_size,
            &driver.policy,
            || driver.scratch.take(),
            |ws, chunk_start, chunk| {
                let mut out = zeroed_stats(0, pipeline);
                let mut found = Vec::new();
                for (off, &a) in chunk.iter().enumerate() {
                    let p = chunk_start + off;
                    let ea = a.entry(shards);
                    for (q, &b) in by_size.iter().enumerate().skip(p + 1) {
                        if let Some(idx) = size_stage {
                            // Sizes ascend along `by_size`: once the size bound
                            // prunes, it prunes the rest of the inner loop.
                            if (b.size as f64 - a.size as f64) >= tau {
                                out.filter.record(idx, (n - q) as u64);
                                break;
                            }
                        }
                        let eb = b.entry(shards);
                        if filters_active {
                            if let Some(stage) = pipeline.prune_stage(ea.sketch(), eb.sketch(), tau)
                            {
                                out.filter.record(stage, 1);
                                continue;
                            }
                        }
                        // Verify in global-id order: asymmetric verifiers
                        // (e.g. Klein-H) count subproblems differently per
                        // operand order, and the historical join ran (i, j)
                        // with i < j.
                        let ((left, el), (right, er)) = if a.global < b.global {
                            ((a, ea), (b, eb))
                        } else {
                            ((b, eb), (a, ea))
                        };
                        if let Some(d) =
                            verifier.pair(el.tree(), er.tree(), tau, ws.get(), &mut out)
                        {
                            if d < tau {
                                found.push(JoinPair {
                                    left: left.global,
                                    right: right.global,
                                    distance: d,
                                });
                            }
                        }
                    }
                }
                (out, found)
            },
        );

        let mut matches = gather(&mut stats, chunks);
        matches.sort_by_key(|m| (m.left, m.right));
        driver.record(QueryKind::Join, start, &mut stats);
        JoinOutcome { matches, stats }
    }
}

/// All live trees across all shards sorted by `(size, global id)` —
/// exactly the union index's `by_size` view under global ids.
fn merged_by_size<L>(shards: &[&TreeIndex<L>]) -> Vec<Cand>
where
    L: Eq + std::hash::Hash + Clone + Send + Sync + 'static,
{
    let mut by_size: Vec<Cand> = Vec::with_capacity(shards.iter().map(|s| s.corpus.len()).sum());
    for (s, shard) in shards.iter().enumerate() {
        by_size.extend(
            shard
                .corpus
                .by_size()
                .iter()
                .map(|&local| Cand::of(shards, s, local)),
        );
    }
    by_size.sort_by_key(|c| (c.size, c.global));
    by_size
}

/// The merged best-first visit order: all live trees across all shards
/// by `(|size − center|, below-side-first, global id)` — exactly the
/// single-index walk over the union corpus.
fn merged_by_size_distance<L>(shards: &[&TreeIndex<L>], center: usize) -> Vec<Cand>
where
    L: Eq + std::hash::Hash + Clone + Send + Sync + 'static,
{
    let by_size = merged_by_size(shards);
    let split = by_size.partition_point(|c| c.size < center);
    let mut order = Vec::with_capacity(by_size.len());
    let (mut lo, mut hi) = (split, split);
    while lo > 0 || hi < by_size.len() {
        let below = (lo > 0).then(|| center - by_size[lo - 1].size);
        let above = (hi < by_size.len()).then(|| by_size[hi].size - center);
        // Prefer the smaller size gap; on ties, the smaller size (the
        // "below" side) — any fixed rule works, it only has to be
        // deterministic.
        match (below, above) {
            (Some(b), Some(a)) if b <= a => {
                lo -= 1;
                order.push(by_size[lo]);
            }
            (Some(_), None) => {
                lo -= 1;
                order.push(by_size[lo]);
            }
            (_, Some(_)) => {
                order.push(by_size[hi]);
                hi += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    order
}
