//! Lifetime query totals: per-query [`SearchStats`]
//! folded into cumulative atomic counters on the index.
//!
//! Every query already produces exact per-run counters; operating the
//! engine needs the same signals *aggregated across the index's
//! lifetime* — per-stage prune selectivity, verification counts,
//! exact-TED time — without any query holding a lock or allocating to
//! report them. [`IndexTotals`] is a fixed set of [`rted_obs::Counter`]s
//! recorded into at the end of each query (a handful of relaxed
//! `fetch_add`s) and snapshotted on demand by the serving layer's
//! `metrics` request and `rted index info --stats`.

use crate::filter::{FilterPipeline, StagePrune};
use crate::SearchStats;
use rted_core::Kernel;
use rted_obs::Counter;
use std::time::Duration;

/// Which query API a recorded run came through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// [`TreeIndex::range`](crate::TreeIndex::range).
    Range,
    /// [`TreeIndex::top_k`](crate::TreeIndex::top_k).
    TopK,
    /// [`TreeIndex::join`](crate::TreeIndex::join).
    Join,
}

/// Cumulative counters across every query an index has answered.
///
/// All fields are lock-free atomics: recording happens inside query
/// methods taking `&self`, concurrently with other queries, and costs a
/// few relaxed `fetch_add`s — no allocation, so the serving layer's
/// zero-allocation distance path stays intact with recording on.
#[derive(Debug)]
pub struct IndexTotals {
    range_queries: Counter,
    topk_queries: Counter,
    join_queries: Counter,
    /// Point-to-point `distance_within` calls (the serving layer's `distance`
    /// request path), not part of any query's `verified` count.
    distance_calls: Counter,
    /// Point-to-point `diff_in` calls (the serving layer's `diff` request
    /// path); their DP cells land in `subproblems` like distance calls.
    diff_calls: Counter,
    /// Wall-clock time of whole queries, summed (ns).
    query_ns: Counter,
    /// Candidates considered, summed (corpus size per `range`/`top_k`
    /// query, unordered pairs per `join`).
    candidates: Counter,
    /// Per-stage prune totals, aligned with the pipeline's stage order.
    stage_names: Vec<&'static str>,
    stage_prunes: Vec<Counter>,
    /// Exact TED verifications, summed.
    verified: Counter,
    /// Relevant subproblems computed by the verifier, summed.
    subproblems: Counter,
    /// Time inside exact TED (strategy + distance phases), summed (ns).
    ted_ns: Counter,
    /// Budget-aware verifications that stopped early because the budget
    /// was provably blown (a subset of `verified` + `distance_calls`).
    verify_early_exits: Counter,
    /// Wall time inside budget-aware verifications, summed (ns) — a
    /// subset of `ted_ns`.
    verify_bounded_ns: Counter,
    /// Pairs the per-pair dispatch sent to Zhang–Shasha.
    plan_zs_pairs: Counter,
    /// Pairs the per-pair dispatch sent to the bounded-τ kernel.
    plan_bounded_pairs: Counter,
    /// Pairs the per-pair dispatch sent to full RTED.
    plan_rted_pairs: Counter,
}

impl IndexTotals {
    /// Zeroed totals whose stage counters mirror `pipeline`'s stages.
    pub fn for_pipeline<L>(pipeline: &FilterPipeline<L>) -> Self {
        let stage_names: Vec<&'static str> = pipeline.stages().iter().map(|s| s.name()).collect();
        IndexTotals {
            range_queries: Counter::new(),
            topk_queries: Counter::new(),
            join_queries: Counter::new(),
            distance_calls: Counter::new(),
            diff_calls: Counter::new(),
            query_ns: Counter::new(),
            candidates: Counter::new(),
            stage_prunes: stage_names.iter().map(|_| Counter::new()).collect(),
            stage_names,
            verified: Counter::new(),
            subproblems: Counter::new(),
            ted_ns: Counter::new(),
            verify_early_exits: Counter::new(),
            verify_bounded_ns: Counter::new(),
            plan_zs_pairs: Counter::new(),
            plan_bounded_pairs: Counter::new(),
            plan_rted_pairs: Counter::new(),
        }
    }

    /// Folds one completed query's counters in.
    pub fn record_query(&self, kind: QueryKind, stats: &SearchStats) {
        match kind {
            QueryKind::Range => self.range_queries.inc(),
            QueryKind::TopK => self.topk_queries.inc(),
            QueryKind::Join => self.join_queries.inc(),
        }
        self.query_ns.add(duration_ns(stats.time));
        self.candidates.add(stats.candidates as u64);
        // Every query runs the pipeline these totals were built for, so
        // per-stage credit lines up by position.
        for (counter, stage) in self.stage_prunes.iter().zip(&stats.filter.stages) {
            counter.add(stage.pruned);
        }
        self.verified.add(stats.verified as u64);
        self.subproblems.add(stats.subproblems);
        self.ted_ns.add(duration_ns(stats.ted_time));
        self.verify_early_exits.add(stats.early_exits as u64);
        self.verify_bounded_ns.add(duration_ns(stats.bounded_time));
    }

    /// Folds one point-to-point distance computation in (the serving
    /// layer's `distance` request). `spent` is wall time inside the
    /// verification; under a finite budget it also counts toward
    /// `bounded_ns`, and an early exit is counted.
    #[inline]
    pub fn record_distance(
        &self,
        subproblems: u64,
        spent: Duration,
        budgeted: bool,
        early_exit: bool,
    ) {
        self.distance_calls.inc();
        self.subproblems.add(subproblems);
        let ns = duration_ns(spent);
        self.ted_ns.add(ns);
        if budgeted {
            self.verify_bounded_ns.add(ns);
            if early_exit {
                self.verify_early_exits.inc();
            }
        }
    }

    /// Folds one edit-script extraction in (the serving layer's `diff`
    /// request). `subproblems` counts the distance kernel's DP plus the
    /// backtrace's re-run forest sheets; `ted_time` is wall time inside
    /// the extraction.
    #[inline]
    pub fn record_diff(&self, subproblems: u64, ted_time: Duration) {
        self.diff_calls.inc();
        self.subproblems.add(subproblems);
        self.ted_ns.add(duration_ns(ted_time));
    }

    /// Notes the kernel the per-pair dispatch ran. Lock-free and
    /// allocation-free: called from verification worker threads.
    #[inline]
    pub(crate) fn record_kernel(&self, kernel: Kernel) {
        match kernel {
            Kernel::ZhangShasha => self.plan_zs_pairs.inc(),
            Kernel::Bounded => self.plan_bounded_pairs.inc(),
            Kernel::Rted => self.plan_rted_pairs.inc(),
        }
    }

    /// A point-in-time copy of every total.
    pub fn snapshot(&self) -> TotalsSnapshot {
        TotalsSnapshot {
            range_queries: self.range_queries.get(),
            topk_queries: self.topk_queries.get(),
            join_queries: self.join_queries.get(),
            distance_calls: self.distance_calls.get(),
            diff_calls: self.diff_calls.get(),
            query_ns: self.query_ns.get(),
            candidates: self.candidates.get(),
            stages: self
                .stage_names
                .iter()
                .zip(&self.stage_prunes)
                .map(|(&stage, c)| StagePrune {
                    stage,
                    pruned: c.get(),
                })
                .collect(),
            verified: self.verified.get(),
            subproblems: self.subproblems.get(),
            ted_ns: self.ted_ns.get(),
            verify_early_exits: self.verify_early_exits.get(),
            verify_bounded_ns: self.verify_bounded_ns.get(),
            plan_zs_pairs: self.plan_zs_pairs.get(),
            plan_bounded_pairs: self.plan_bounded_pairs.get(),
            plan_rted_pairs: self.plan_rted_pairs.get(),
            ..TotalsSnapshot::default()
        }
    }
}

/// Saturating nanoseconds of a duration (u64 holds ~584 years).
#[inline]
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Point-in-time copy of an index's [`IndexTotals`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TotalsSnapshot {
    /// `range` queries answered.
    pub range_queries: u64,
    /// `top_k` queries answered.
    pub topk_queries: u64,
    /// `join` queries answered.
    pub join_queries: u64,
    /// Point-to-point `distance_within` calls.
    pub distance_calls: u64,
    /// Point-to-point `diff_in` (edit-script) calls.
    pub diff_calls: u64,
    /// Total query wall-clock time (ns).
    pub query_ns: u64,
    /// Candidates considered, summed over queries.
    pub candidates: u64,
    /// Cumulative per-stage prune counts, in pipeline stage order.
    pub stages: Vec<StagePrune>,
    /// Exact TED computations spent verifying.
    pub verified: u64,
    /// Relevant subproblems computed, summed.
    pub subproblems: u64,
    /// Time inside exact TED (ns), over queries *and* distance calls.
    pub ted_ns: u64,
    /// Budget-aware verifications that stopped early (budget provably
    /// blown), over queries *and* `distance … at_most` calls.
    pub verify_early_exits: u64,
    /// Wall time inside budget-aware verifications (ns) — a subset of
    /// `ted_ns`.
    pub verify_bounded_ns: u64,
    /// Pairs the per-pair dispatch sent to Zhang–Shasha.
    pub plan_zs_pairs: u64,
    /// Pairs the per-pair dispatch sent to the bounded-τ kernel.
    pub plan_bounded_pairs: u64,
    /// Pairs the per-pair dispatch sent to full RTED.
    pub plan_rted_pairs: u64,
    // Kept only because perfbench calls it (see the block at the end of
    // the crate root): the next four fields are always 0.
    /// Always 0: there is no metric tree.
    pub metric_routing_ted: u64,
    /// Always 0: there is one candidate generator.
    pub plan_linear: u64,
    /// Always 0: there is no metric tree.
    pub plan_metric: u64,
    /// Always 0: filter stages run in construction order.
    pub plan_reorders: u64,
}

impl TotalsSnapshot {
    /// Sums another snapshot in — the scatter-gather aggregation for a
    /// sharded index, whose `metrics` surface reports one service-wide
    /// `index_*` family over all shards. Stage counters align by position
    /// when both sides carry stages (shards share one pipeline
    /// configuration); a default (stage-less) accumulator adopts the
    /// other side's stages, so folding starts from
    /// `TotalsSnapshot::default()`.
    pub fn merge(&mut self, other: &TotalsSnapshot) {
        self.range_queries += other.range_queries;
        self.topk_queries += other.topk_queries;
        self.join_queries += other.join_queries;
        self.distance_calls += other.distance_calls;
        self.diff_calls += other.diff_calls;
        self.query_ns += other.query_ns;
        self.candidates += other.candidates;
        if self.stages.is_empty() {
            self.stages = other.stages.clone();
        } else {
            debug_assert_eq!(self.stages.len(), other.stages.len());
            for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
                mine.pruned += theirs.pruned;
            }
        }
        self.verified += other.verified;
        self.subproblems += other.subproblems;
        self.ted_ns += other.ted_ns;
        self.verify_early_exits += other.verify_early_exits;
        self.verify_bounded_ns += other.verify_bounded_ns;
        self.plan_zs_pairs += other.plan_zs_pairs;
        self.plan_bounded_pairs += other.plan_bounded_pairs;
        self.plan_rted_pairs += other.plan_rted_pairs;
    }

    /// Appends every total to an observability snapshot under stable
    /// `index_*` metric names (per-stage prunes as
    /// `index_prune_<stage>_total`).
    pub fn push_metrics(&self, snap: &mut rted_obs::Snapshot) {
        use rted_obs::MetricValue::Counter as C;
        snap.push("index_range_queries_total", C(self.range_queries));
        snap.push("index_topk_queries_total", C(self.topk_queries));
        snap.push("index_join_queries_total", C(self.join_queries));
        snap.push("index_distance_calls_total", C(self.distance_calls));
        snap.push("index_diff_calls_total", C(self.diff_calls));
        snap.push("index_query_ns_total", C(self.query_ns));
        snap.push("index_candidates_total", C(self.candidates));
        for stage in &self.stages {
            snap.push(
                format!("index_prune_{}_total", stage.stage),
                C(stage.pruned),
            );
        }
        snap.push("index_verified_total", C(self.verified));
        snap.push("index_subproblems_total", C(self.subproblems));
        snap.push("index_ted_ns_total", C(self.ted_ns));
        snap.push("index_verify_early_exit_total", C(self.verify_early_exits));
        snap.push("index_verify_bounded_ns", C(self.verify_bounded_ns));
        snap.push("index_plan_zs_pairs_total", C(self.plan_zs_pairs));
        snap.push("index_plan_bounded_pairs_total", C(self.plan_bounded_pairs));
        snap.push("index_plan_rted_pairs_total", C(self.plan_rted_pairs));
    }
}
