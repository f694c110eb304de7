//! Deterministic linear top-k over one index or a striped (sharded)
//! corpus.
//!
//! The sharded serving layer splits one logical corpus over `N` shard
//! indexes, global id `g` living on shard `g % N` as local id `g / N`.
//! Range queries and joins scatter-gather trivially — every per-pair
//! decision depends only on the pair — but top-k is a *global* argmin:
//! the search radius after `k` hits belongs to the union, not to any
//! shard. Running one radius-racing `top_k` per shard against a shared
//! atomic budget gives exact results, but per-shard work counters that
//! depend on cross-thread publication timing.
//!
//! One centralized best-first batch driver runs instead, over the merged
//! candidate view: a `(|size − q|, side, global id)` visit order, a
//! geometric batch schedule and a batch-start radius — so the neighbour
//! set **and every counter** are byte-identical to an unsharded index
//! holding the union, for any shard count and thread count. The
//! single-index [`TreeIndex::top_k`] is the same driver over one shard.

use crate::exec::map_chunks_with;
use crate::filter::FilterPipeline;
use crate::totals::QueryKind;
use crate::verify::CountedVerifier;
use crate::{zeroed_stats, Neighbor, OrdF64, QueryResult, TreeIndex};
use rted_tree::Tree;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One merged-view candidate: where it lives and how big it is.
#[derive(Clone, Copy)]
struct Cand {
    /// Global id (`local * N + shard`) — the merge/tie-break key.
    global: usize,
    /// Owning shard (index into the `shards` slice).
    shard: u32,
    /// Id within the owning shard's corpus.
    local: u32,
    /// Subtree size (copied out of the sketch once).
    size: usize,
}

impl<L> TreeIndex<L>
where
    L: Eq + std::hash::Hash + Clone + Send + Sync + 'static,
{
    /// The `k` nearest trees across all `shards` by exact distance (ties
    /// broken by **global** id), sorted by `(distance, id)` — exactly
    /// the result (and counters) of [`top_k`](Self::top_k) on one index
    /// holding the union corpus under global ids.
    ///
    /// `shards[0]` is the driver: its filter pipeline (planner-reordered
    /// if enabled), execution policy, workspace pool and lifetime totals
    /// serve the whole query; each surviving pair is verified by its
    /// owning shard's verifier. The query is recorded once, into the
    /// driver's totals and linear-arm observations.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn top_k_striped(shards: &[&TreeIndex<L>], query: &Tree<L>, k: usize) -> QueryResult {
        assert!(!shards.is_empty(), "top_k_striped needs at least one shard");
        if shards.len() == 1 {
            return shards[0].top_k(query, k);
        }
        Self::top_k_linear(shards, query, k, &shards[0].planned_pipeline())
    }

    /// The best-first batch driver behind every linear top-k, over one
    /// index (`top_k`) or many (`top_k_striped`). With one shard the
    /// global id is the local id, so this is the plain single-index
    /// search.
    pub(crate) fn top_k_linear(
        shards: &[&TreeIndex<L>],
        query: &Tree<L>,
        k: usize,
        pipeline: &FilterPipeline<L>,
    ) -> QueryResult {
        let driver = shards[0];
        let start = Instant::now();
        let qsketch = driver.query_sketch(query);
        let candidates = shards.iter().map(|s| s.corpus.len()).sum();
        let mut stats = zeroed_stats(candidates, pipeline);
        if k == 0 || candidates == 0 {
            stats.time = start.elapsed();
            driver.observe_linear(&stats);
            driver.totals.record_query(QueryKind::TopK, &stats);
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
                let sketch = shards[cand.shard as usize]
                    .corpus
                    .sketch(cand.local as usize);
                if let Some(idx) = size_stage {
                    let size_lb = (sketch.size as f64 - qsketch.size as f64).abs();
                    if size_lb > radius {
                        // Candidates are size-ordered: everything after
                        // this one is at least as far. Prune the tail.
                        stats.filter.record(idx, (order.len() - pos) as u64);
                        pos = order.len();
                        break;
                    }
                }
                match pipeline.prune_stage_strict(&qsketch, sketch, radius) {
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
            let chunk_outs = map_chunks_with(
                &survivors,
                &driver.policy,
                || driver.scratch.take(),
                |ws, _, chunk| {
                    let mut out = zeroed_stats(0, pipeline);
                    let mut found = Vec::new();
                    for cand in chunk {
                        let shard = shards[cand.shard as usize];
                        let verifier = CountedVerifier {
                            verifier: &shard.verifier,
                            totals: &driver.totals,
                        };
                        let tree = shard.corpus.tree(cand.local as usize);
                        if let Some(d) = verifier.pair(query, tree, radius, ws.get(), &mut out) {
                            found.push((cand.global, d));
                        }
                    }
                    (out, found)
                },
            );
            for (out, found) in chunk_outs {
                stats.merge(&out);
                for (id, distance) in found {
                    heap.push((OrdF64(distance), id));
                    if heap.len() > k {
                        heap.pop();
                    }
                }
            }
        }

        let neighbors: Vec<Neighbor> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|(OrdF64(distance), id)| Neighbor { id, distance })
            .collect();
        stats.time = start.elapsed();
        driver.observe_linear(&stats);
        driver.totals.record_query(QueryKind::TopK, &stats);
        QueryResult { neighbors, stats }
    }
}

/// The merged best-first visit order: all live trees across all shards
/// by `(|size − center|, below-side-first, global id)` — exactly the
/// single-index walk over the union corpus, whose `by_size` view is
/// sorted by `(size, global id)`.
fn merged_by_size_distance<L>(shards: &[&TreeIndex<L>], center: usize) -> Vec<Cand>
where
    L: Eq + std::hash::Hash + Clone + Send + Sync + 'static,
{
    let n = shards.len();
    let mut by_size: Vec<Cand> = Vec::with_capacity(shards.iter().map(|s| s.corpus.len()).sum());
    for (s, shard) in shards.iter().enumerate() {
        for &local in shard.corpus.by_size() {
            by_size.push(Cand {
                global: local as usize * n + s,
                shard: s as u32,
                local,
                size: shard.corpus.sketch(local as usize).size,
            });
        }
    }
    by_size.sort_by_key(|c| (c.size, c.global));

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
