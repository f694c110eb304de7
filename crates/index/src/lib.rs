//! `rted-index` — an indexed, parallel similarity-search engine over tree
//! corpora.
//!
//! The paper's similarity join (§8, Table 1) is the stress test for
//! RTED's robustness, but a production search engine cannot afford an
//! O(n²·TED) all-pairs scan. This crate turns joins and queries into
//! filter-dominated scans:
//!
//! * a [`TreeCorpus`] analyzes every tree **once** at build time
//!   ([`rted_core::bounds::TreeSketch`]: size, depth, leaf/internal
//!   counts, label histogram) and keeps a size-sorted view;
//! * a staged [`FilterPipeline`] of sound [`rted_core::bounds::LowerBound`]
//!   stages (size → depth → leaf → degree → histogram) prunes candidate
//!   pairs before any exact computation, recording per-stage counters;
//! * surviving candidates are verified by [`rted_core::ted_within`] under
//!   unit costs, which runs the cheapest exact kernel per pair — a
//!   band-limited early-exit kernel under a finite budget (above 256
//!   cells), otherwise the cheapest of Zhang-L, Zhang-R and RTED by the
//!   pair's exact cell counts ([`rted_core::Algorithm::cheapest_exact`])
//!   — or one pinned [`rted_core::Algorithm`]
//!   ([`TreeIndex::with_algorithm`]). Queries hand it their threshold
//!   (`tau` for `range`/`join`, the current radius for `top_k`), so it may
//!   abandon a pair the moment the budget is provably blown — results are
//!   byte-identical to exact verification, only "no" answers get cheaper;
//! * a chunked executor ([`exec::map_chunks`]) spreads verification over
//!   scoped threads; results are bit-identical for any thread count;
//! * an optional **adaptive planner** ([`TreeIndex::with_planner`], the
//!   `rted-plan` crate) re-decides, per query, the candidate generator
//!   (linear vs. metric-tree) from observed per-arm costs. Every planned
//!   choice is answer-invariant by construction — see
//!   [`TreeIndex::explain`] for the decision record.
//!
//! Three query APIs cover the common workloads: [`TreeIndex::range`]
//! (all trees within a distance threshold), [`TreeIndex::top_k`]
//! (k nearest neighbours, best-first with a shrinking radius), and
//! [`TreeIndex::join`] (the all-pairs similarity self-join, with a
//! sorted-by-size traversal that early-breaks on the size bound).
//!
//! Matching is strict, as in the paper's join: a tree matches iff
//! `TED < tau`, and a stage prunes iff its bound reaches `tau`.
//!
//! The standard filter stages are sound for cost models charging ≥ 1 per
//! delete/insert and ≥ 1 per rename of distinct labels: the unit costs
//! the index verifies under.
//!
//! # Example
//!
//! ```
//! use rted_index::TreeIndex;
//! use rted_tree::parse_bracket;
//!
//! let corpus = vec![
//!     parse_bracket("{a{b}{c}}").unwrap(),
//!     parse_bracket("{a{b}{d}}").unwrap(),
//!     parse_bracket("{x{y{z{w}}}}").unwrap(),
//! ];
//! let index = TreeIndex::build(corpus);
//!
//! let query = parse_bracket("{a{b}{c}}").unwrap();
//! let res = index.range(&query, 2.0);
//! let ids: Vec<usize> = res.neighbors.iter().map(|n| n.id).collect();
//! assert_eq!(ids, vec![0, 1]); // the deep {x...} tree is filtered out
//! assert!(res.stats.filter.total_pruned() > 0);
//!
//! let knn = index.top_k(&query, 2);
//! assert_eq!(knn.neighbors[0].id, 0);
//! assert_eq!(knn.neighbors[0].distance, 0.0);
//! ```

pub mod candidates;
pub mod corpus;
pub mod exec;
pub mod filter;
pub mod persist;
pub mod store;
mod striped;
pub mod totals;
mod verify;

pub use candidates::{MetricConfig, MetricSnapshot, MetricStats, VpTree};
pub use corpus::{CorpusEntry, TreeCorpus};
pub use exec::{map_chunks, map_chunks_with, ExecPolicy, PooledWorkspace, WorkspacePool};
pub use filter::{FilterPipeline, FilterStats, StagePrune};
pub use persist::{encode_corpus, salvage_corpus, CorpusFile, PersistError, RepairReport, Salvage};
pub use store::{CorpusLog, CorpusStore, Recovery, WalObs};
pub use striped::Stripes;
pub use totals::{IndexTotals, QueryKind, TotalsSnapshot};

use crate::verify::CountedVerifier;
use rted_core::bounds::TreeSketch;
use rted_core::{ted_within, Algorithm, BoundedRun, UnitCost};
use rted_plan::CandidateGen;
use rted_tree::Tree;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Total-order wrapper for (never-NaN) distances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One query answer: a corpus tree and its exact distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Corpus id of the matched tree.
    pub id: usize,
    /// Exact tree edit distance.
    pub distance: f64,
}

/// One matched pair of a self-join (`left < right`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPair {
    /// Smaller corpus id.
    pub left: usize,
    /// Larger corpus id.
    pub right: usize,
    /// Exact tree edit distance.
    pub distance: f64,
}

/// Counters for one query run.
///
/// # Exact counter semantics per query type
///
/// * **`range`, linear path** — `candidates` is the corpus size, and the
///   counters partition it: every live tree is either pruned by exactly
///   one stage or verified, so
///   `filter.total_pruned() + verified == candidates`.
/// * **`top_k`, linear path** — same partition as `range` (`candidates`
///   is the corpus size; the sorted-size early-break books the whole
///   skipped tail on the size stage, so nothing goes uncounted).
/// * **`join`, linear path** — `candidates` is the number of unordered
///   pairs, `n·(n−1)/2`, and the partition holds pair-wise:
///   `filter.total_pruned() + verified == candidates` (the per-row size
///   early-break books the remainder of each inner loop).
/// * **metric-tree paths** (`range`/`top_k`) — `candidates` keeps the
///   meaning above, but pruned/verified count **work done, not a
///   partition**: routing distances to vantage points are included in
///   `verified` (see [`MetricStats::routing_ted`]), bound-settled
///   vantages are counted in neither, and regions proven out by the
///   triangle inequality vanish without touching any counter — so
///   pruned + verified may be far *below* `candidates`.
///
/// The linear-path partition invariants are asserted in the
/// `stats_semantics` integration test.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Candidates considered: corpus size for `range`/`top_k`, number of
    /// unordered pairs for `join`.
    pub candidates: usize,
    /// Per-stage prune counters.
    pub filter: FilterStats,
    /// Exact distance computations performed (on the metric-tree path
    /// this includes routing distances to vantage points).
    pub verified: usize,
    /// Relevant subproblems computed by exact verification, summed.
    pub subproblems: u64,
    /// Metric-tree traversal counters (all zero on the linear path).
    pub metric: MetricStats,
    /// Time spent inside exact TED computations (strategy + distance
    /// phases, summed over all verifications of the query; budget-aware
    /// verifications contribute their wall time).
    pub ted_time: Duration,
    /// Budget-aware verifications that stopped before completing because
    /// the budget was provably blown (a subset of `verified`: an
    /// early-exited verification still counts as one verification).
    pub early_exits: usize,
    /// Wall time inside verifications with a finite budget — a subset of
    /// `ted_time`.
    pub bounded_time: Duration,
    /// Wall-clock time of the whole query.
    pub time: Duration,
}

impl SearchStats {
    /// Folds another run's counters into this one — e.g. a worker
    /// chunk's into its query's. Work counters sum; `time` takes the
    /// maximum (concurrent runs overlap, so the slowest is the wall time).
    pub fn merge(&mut self, other: &SearchStats) {
        self.candidates += other.candidates;
        self.filter.merge(&other.filter);
        self.verified += other.verified;
        self.subproblems += other.subproblems;
        self.metric.merge(&other.metric);
        self.ted_time += other.ted_time;
        self.early_exits += other.early_exits;
        self.bounded_time += other.bounded_time;
        self.time = self.time.max(other.time);
    }
}

/// Result of a [`TreeIndex::range`] or [`TreeIndex::top_k`] query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matches: sorted by id for `range`, by `(distance, id)` for `top_k`.
    pub neighbors: Vec<Neighbor>,
    /// Run counters.
    pub stats: SearchStats,
}

/// Result of a [`TreeIndex::join`].
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// Matched pairs, sorted by `(left, right)`.
    pub matches: Vec<JoinPair>,
    /// Run counters (`candidates` counts unordered pairs).
    pub stats: SearchStats,
}

/// The similarity-search engine: corpus + filter pipeline + verification
/// setting + execution policy.
///
/// Built once over an immutable corpus; all queries take `&self` and are
/// safe to issue concurrently. [`fork`](Self::fork) produces a
/// copy-on-write sibling for epoch-style snapshot publication: the corpus
/// (cheap `Arc`-per-entry clones), metric tree and pinned algorithm are
/// copied, while the pipeline, workspace pool, and lifetime totals stay
/// shared —
/// so counters and warm scratch survive a snapshot swap.
pub struct TreeIndex<L> {
    corpus: TreeCorpus<L>,
    pipeline: Arc<FilterPipeline<L>>,
    /// The pinned exact algorithm, or `None` for the per-pair dispatch of
    /// [`ted_within`].
    algorithm: Option<Algorithm>,
    policy: ExecPolicy,
    /// Recycled verification scratch, shared by all queries: one
    /// [`Workspace`](rted_core::Workspace) per concurrent worker, warm
    /// after the first query, so verification stops heap-allocating.
    scratch: Arc<WorkspacePool>,
    /// Whether `range`/`top_k` route through the metric tree (joins
    /// always scan linearly).
    metric_enabled: bool,
    metric_config: MetricConfig,
    /// The lazily built vantage-point tree (`None` = not built yet, or
    /// dropped by the churn threshold). Behind an `RwLock` so concurrent
    /// queries share a built tree; only the build takes the write lock.
    metric: RwLock<Option<VpTree<L>>>,
    /// Lifetime query totals (lock-free; recorded by every query; shared
    /// across snapshot forks so a swap never resets counters).
    totals: Arc<IndexTotals>,
    /// Planner observations, shared across snapshot forks like the
    /// totals so what the planner has learned survives an epoch swap.
    /// Fed by every query even while the planner is disabled, so
    /// [`explain`](Self::explain) and a later
    /// [`with_planner(true)`](Self::with_planner) start informed.
    plan: Arc<rted_plan::Observations>,
    /// Whether queries go through the adaptive planner (off by default;
    /// the CLI and serving layers opt in).
    planner_enabled: bool,
}

/// Recovers the guard from a poisoned lock: a panicking query left the
/// tree structurally intact (it only ever mutates under `&mut self` or
/// during the one-shot build), and refusing to read it again would
/// escalate one failed query into a dead index.
fn relock<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Zeroed counters for one query (or one worker chunk of it, merged
/// into the query's with [`SearchStats::merge`]).
fn zeroed_stats<L>(candidates: usize, pipeline: &FilterPipeline<L>) -> SearchStats {
    SearchStats {
        candidates,
        filter: FilterStats::for_pipeline(pipeline),
        ..SearchStats::default()
    }
}

impl<L> TreeIndex<L>
where
    L: Eq + std::hash::Hash + Clone + Send + Sync + 'static,
{
    /// Builds an index with the standard filter pipeline, the per-pair
    /// kernel dispatch of [`ted_within`] under unit costs, and the default
    /// execution policy.
    pub fn build(trees: impl IntoIterator<Item = Tree<L>>) -> Self {
        Self::from_corpus(TreeCorpus::build(trees))
    }

    /// Wraps an existing corpus — e.g. one loaded from disk via
    /// [`CorpusStore`] or [`CorpusFile`] — without re-analyzing any tree.
    pub fn from_corpus(corpus: TreeCorpus<L>) -> Self {
        let pipeline = FilterPipeline::standard();
        let totals = Arc::new(IndexTotals::for_pipeline(&pipeline));
        TreeIndex {
            corpus,
            pipeline: Arc::new(pipeline),
            algorithm: None,
            policy: ExecPolicy::default(),
            scratch: Arc::new(WorkspacePool::new()),
            metric_enabled: false,
            metric_config: MetricConfig::default(),
            metric: RwLock::new(None),
            totals,
            plan: Arc::default(),
            planner_enabled: false,
        }
    }

    /// A copy-on-write sibling of this index: the next epoch's snapshot.
    ///
    /// The corpus clones (one `Arc` bump per entry — no tree is re-analyzed)
    /// and a built metric tree is carried over verbatim, while the filter
    /// pipeline, workspace pool, and lifetime totals are
    /// **shared** with the original. A writer mutates the fork and
    /// publishes it with a single `Arc` pointer swap; readers holding the
    /// previous snapshot are never disturbed.
    pub fn fork(&self) -> Self {
        TreeIndex {
            corpus: self.corpus.clone(),
            pipeline: Arc::clone(&self.pipeline),
            algorithm: self.algorithm,
            policy: self.policy,
            scratch: Arc::clone(&self.scratch),
            metric_enabled: self.metric_enabled,
            metric_config: self.metric_config,
            metric: RwLock::new(relock(self.metric.read()).clone()),
            totals: Arc::clone(&self.totals),
            plan: Arc::clone(&self.plan),
            planner_enabled: self.planner_enabled,
        }
    }

    /// Inserts a tree into the corpus, returning its stable id. O(log n)
    /// index maintenance plus one O(n)-in-tree-size analysis; concurrent
    /// queries are excluded by the `&mut` borrow, nothing is rebuilt
    /// (a built metric tree absorbs the insert into its linear overflow).
    pub fn insert(&mut self, tree: Tree<L>) -> usize {
        self.insert_entry(CorpusEntry::analyze(tree))
    }

    /// Removes tree `id` from the corpus. Returns `false` if the id was
    /// not live. The id is never reused; results of later queries simply
    /// stop mentioning it. A built metric tree tombstones the id, keeping
    /// the removed entry as a routing corpse until the churn threshold
    /// triggers a rebuild.
    pub fn remove(&mut self, id: usize) -> bool {
        match self.corpus.remove(id) {
            None => false,
            Some(entry) => {
                let slot = relock(self.metric.get_mut());
                if let Some(tree) = slot.as_mut() {
                    tree.note_remove(id, entry);
                    if tree.should_rebuild(self.metric_config.rebuild_fraction) {
                        *slot = None;
                    }
                }
                true
            }
        }
    }

    /// Inserts an already-analyzed entry, returning its stable id — the
    /// path for callers that had to build the entry before committing the
    /// in-memory mutation (a durable log appends the analyzed entry
    /// first, so tree and sketch are computed exactly once).
    pub fn insert_entry(&mut self, entry: CorpusEntry<L>) -> usize {
        let id = self.corpus.id_bound();
        self.insert_entry_at(id, Arc::new(entry));
        id
    }

    /// Inserts an already-analyzed, shared entry at an **explicit id**,
    /// padding skipped ids with permanent holes — the sharded serving
    /// layer's insert path, where global ids are striped across shards and
    /// recovery can leave a shard's local id sequence with gaps (see
    /// [`TreeCorpus::insert_arc_at`]). Panics if `id` names a live entry.
    pub fn insert_entry_at(&mut self, id: usize, entry: Arc<CorpusEntry<L>>) {
        self.corpus.insert_arc_at(id, entry);
        let slot = relock(self.metric.get_mut());
        if let Some(tree) = slot.as_mut() {
            tree.note_insert(id);
            if tree.should_rebuild(self.metric_config.rebuild_fraction) {
                *slot = None;
            }
        }
    }

    /// Budget-aware distance between two trees through [`ted_within`]
    /// under this index's pinned algorithm (if any), drawing scratch from
    /// `ws` — the serving layer's
    /// per-worker, allocation-free `distance` path (neither tree needs to
    /// be in the corpus). Returns the exact distance when it is ≤ `tau`
    /// (always, for `tau = ∞`), or a certified lower bound the moment the
    /// budget is provably blown; finite budgets land in the
    /// `index_verify_bounded_ns` / `index_verify_early_exit_total`
    /// metrics.
    pub fn distance_within(
        &self,
        f: &Tree<L>,
        g: &Tree<L>,
        tau: f64,
        ws: &mut rted_core::Workspace,
    ) -> BoundedRun {
        let started = Instant::now();
        let run = ted_within(f, g, &UnitCost, tau, self.algorithm, ws);
        self.totals.record_distance(
            run.subproblems,
            started.elapsed(),
            tau != f64::INFINITY,
            run.early_exit,
        );
        run
    }

    /// Optimal edit mapping between two trees under **unit costs**,
    /// drawing scratch from `ws` — the serving layer's per-worker `diff`
    /// path (neither tree needs to be in the corpus). Under unit costs
    /// the mapping's cost equals the distance
    /// [`distance_within`](Self::distance_within) reports for the same pair, so a served edit script is
    /// always consistent with a served `distance`.
    pub fn diff_in(
        &self,
        f: &Tree<L>,
        g: &Tree<L>,
        ws: &mut rted_core::Workspace,
    ) -> rted_core::EditMapping {
        let before = ws.lifetime_stats().subproblems;
        let started = Instant::now();
        let mapping = rted_core::edit_mapping_in(f, g, &rted_core::UnitCost, ws);
        let cells = ws.lifetime_stats().subproblems - before;
        self.totals.record_diff(cells, started.elapsed());
        mapping
    }

    /// Edit script turning corpus tree `left` into corpus tree `right`
    /// (unit costs), through a pooled workspace. `None` when either id is
    /// not live.
    pub fn diff(&self, left: usize, right: usize) -> Option<rted_core::EditScript>
    where
        L: std::fmt::Display,
    {
        let f = self.corpus.get(left)?.tree();
        let g = self.corpus.get(right)?.tree();
        let mut ws = self.scratch.take();
        let mapping = self.diff_in(f, g, ws.get());
        Some(mapping.script(f, g))
    }

    /// Cumulative counters over every query this index has answered —
    /// the signals `rted serve`'s `metrics` surface and `rted index info
    /// --stats` report (see [`totals::IndexTotals`]).
    pub fn totals(&self) -> TotalsSnapshot {
        self.totals.snapshot()
    }

    /// Replaces the filter pipeline. Lifetime per-stage totals and
    /// planner observations are reset to match the new stages.
    pub fn with_pipeline(mut self, pipeline: FilterPipeline<L>) -> Self {
        self.totals = Arc::new(IndexTotals::for_pipeline(&pipeline));
        self.plan = Arc::default();
        self.pipeline = Arc::new(pipeline);
        self
    }

    /// Disables all filtering (every candidate is verified exactly).
    pub fn unfiltered(self) -> Self {
        self.with_pipeline(FilterPipeline::none())
    }

    /// Verifies every pair with `algorithm` under unit costs instead of
    /// the per-pair dispatch — the oracle configuration.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        // Metric routing compares fresh distances against the mu radii
        // recorded at build time; a tree built under a different algorithm
        // would prune with stale geometry. Drop it for a lazy rebuild.
        *relock(self.metric.get_mut()) = None;
        self
    }

    /// Enables (or disables) metric-tree candidate generation:
    /// `range` with a finite threshold and `top_k` route through a
    /// vantage-point tree over the corpus (built lazily by the first
    /// eligible query, maintained incrementally under mutation) instead
    /// of the linear size-window scan. Results are **identical** either
    /// way; only the number of candidates examined changes — see
    /// [`candidates::metric`].
    ///
    /// Relies on the index's distances being a *metric* (true for unit
    /// costs). Joins, and striped queries over several shards,
    /// always take the linear path. Metric traversal
    /// runs on one workspace (sequential) —
    /// [`with_threads`](Self::with_threads) parallelism applies to the
    /// linear path only.
    pub fn with_metric_tree(mut self, enabled: bool) -> Self {
        self.metric_enabled = enabled;
        self
    }

    /// Replaces the metric-tree tuning (leaf size, churn threshold).
    pub fn with_metric_config(mut self, config: MetricConfig) -> Self {
        self.metric_config = config;
        *relock(self.metric.get_mut()) = None;
        self
    }

    /// Enables (or disables) the adaptive query planner.
    ///
    /// With the planner on, each `range`/`top_k` query re-decides its
    /// **candidate generator** — linear size-window scan vs. metric-tree
    /// routing (when [`with_metric_tree`](Self::with_metric_tree) made
    /// the metric path available) — by observed exact-TED computations
    /// per candidate on each arm. Filter stages always run in the
    /// pipeline's construction order.
    ///
    /// Every choice is answer-invariant: results are byte-identical to
    /// any fixed configuration, only the work changes. Observations are
    /// collected even while disabled, so enabling the planner later (or
    /// asking [`explain`](Self::explain)) starts from real signals.
    pub fn with_planner(mut self, enabled: bool) -> Self {
        self.planner_enabled = enabled;
        self
    }

    /// Whether the adaptive planner is steering queries.
    pub fn planner_enabled(&self) -> bool {
        self.planner_enabled
    }

    /// The decision record for a hypothetical next query: which candidate
    /// generator the planner would pick (`budgeted` says whether the
    /// query would carry a finite `tau`, and so run the bounded kernel
    /// on pairs above 256 cells),
    /// the pipeline's stage order, and the observed per-arm rates that
    /// drove the choice. Records the probed decision into the
    /// `index_plan_*` counters like a real planned query.
    pub fn explain(&self, budgeted: bool) -> rted_plan::PlanReport {
        let metric_eligible = self.metric_enabled && budgeted && !self.corpus.is_empty();
        rted_plan::PlanReport {
            candidate_gen: self.plan_query(metric_eligible),
            stage_order: self.pipeline.stages().iter().map(|s| s.name()).collect(),
            budgeted: budgeted && self.algorithm.is_none(),
            linear_rate: self.plan.linear.rate(),
            metric_rate: self.plan.metric.rate(),
            observed_queries: self.plan.linear.queries() + self.plan.metric.queries(),
        }
    }

    /// One query's candidate generator. With the planner disabled this is
    /// exactly the historical fixed behavior (the configured generator).
    fn plan_query(&self, metric_eligible: bool) -> CandidateGen {
        if !self.planner_enabled {
            return if metric_eligible {
                CandidateGen::Metric
            } else {
                CandidateGen::Linear
            };
        }
        let gen = self.plan.choose(metric_eligible);
        self.totals.record_plan(gen);
        gen
    }

    /// This index's verification, counting its kernel choices into the
    /// index totals.
    fn counted(&self) -> CountedVerifier<'_> {
        CountedVerifier {
            algorithm: self.algorithm,
            totals: &self.totals,
        }
    }

    /// A point-in-time view of the metric-tree state (never triggers a
    /// build).
    pub fn metric_snapshot(&self) -> MetricSnapshot {
        let guard = relock(self.metric.read());
        match guard.as_ref() {
            None => MetricSnapshot {
                enabled: self.metric_enabled,
                ..MetricSnapshot::default()
            },
            Some(tree) => MetricSnapshot {
                enabled: self.metric_enabled,
                built: tree.built_len(),
                pending: tree.pending_len(),
                tombstones: tree.tombstones(),
                build_ted: tree.build_ted(),
            },
        }
    }

    /// Sets the number of worker threads (1 = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.policy.threads = threads.max(1);
        self
    }

    /// Replaces the whole execution policy.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The underlying corpus.
    pub fn corpus(&self) -> &TreeCorpus<L> {
        &self.corpus
    }

    /// The active filter pipeline.
    pub fn pipeline(&self) -> &FilterPipeline<L> {
        &self.pipeline
    }

    /// The active execution policy.
    pub fn policy(&self) -> &ExecPolicy {
        &self.policy
    }

    /// All corpus trees with `TED(query, tree) < tau`, sorted by id.
    ///
    /// With [`with_metric_tree`](Self::with_metric_tree) enabled and a
    /// finite positive `tau`, candidates come from the vantage-point tree
    /// instead of the linear size window — identical results, fewer
    /// candidates examined. With [`with_planner`](Self::with_planner) the
    /// generator is re-decided from observed costs instead (still
    /// identical results). This is the striped driver
    /// ([`range_striped`](Self::range_striped)) over this one index.
    pub fn range(&self, query: &Tree<L>, tau: f64) -> QueryResult {
        Self::range_striped(&[self], query, tau)
    }

    /// The query's sketch, profiled with the **corpus's** pq-gram params
    /// (the first live entry across `shards`): profiles under different
    /// gram lengths are incomparable (zero bound), so a re-profiled
    /// corpus — `recompute_profiles`, the CLI's `--pq` — must have its
    /// queries profiled to match or the pqgram stage would silently stop
    /// pruning.
    fn query_sketch(shards: &[&TreeIndex<L>], query: &Tree<L>) -> TreeSketch<L> {
        let params = shards
            .iter()
            .find_map(|s| s.corpus.iter().next())
            .map(|(_, e)| e.sketch().pq.params())
            .unwrap_or_default();
        TreeSketch::with_pq(query, params, &mut rted_core::PqScratch::default())
    }

    /// Stamps a query's wall time and records it once, into this
    /// (driver) index's totals and the planner arm that answered it
    /// (observed even while the planner is disabled).
    fn record(&self, kind: QueryKind, arm: CandidateGen, start: Instant, stats: &mut SearchStats) {
        stats.time = start.elapsed();
        let obs = match arm {
            CandidateGen::Linear => &self.plan.linear,
            CandidateGen::Metric => &self.plan.metric,
        };
        obs.observe(stats.candidates as u64, stats.verified as u64);
        self.totals.record_query(kind, stats);
    }

    /// The `k` nearest corpus trees by exact distance (ties broken by id),
    /// sorted by `(distance, id)`.
    ///
    /// Best-first: candidates are visited in order of size difference from
    /// the query, and once `k` neighbours are known the search radius
    /// shrinks to the current k-th distance, letting the filter stages and
    /// the sorted-size early-break prune the tail. The neighbour set is
    /// identical for every thread count; with filters disabled every
    /// candidate is verified. The linear path is the striped driver
    /// ([`top_k_striped`](Self::top_k_striped)) over this one index.
    pub fn top_k(&self, query: &Tree<L>, k: usize) -> QueryResult {
        Self::top_k_striped(&[self], query, k)
    }

    /// The similarity self-join: every pair `(i, j)`, `i < j`, with
    /// `TED < tau`, sorted by `(left, right)`.
    ///
    /// Pairs are enumerated in size-sorted order, so the size stage becomes
    /// an early-break of the inner loop; remaining stages and exact
    /// verification run per surviving pair, parallelized over chunks of
    /// outer positions. Joins always take this linear path: a metric-tree
    /// join (one routed range query per tree) lost to it in every measured
    /// regime. This is the striped driver
    /// ([`join_striped`](Self::join_striped)) over this one index.
    pub fn join(&self, tau: f64) -> JoinOutcome {
        Self::join_striped(&[self], tau)
    }

    /// Runs `f` against the metric tree, building it first if needed (the
    /// build draws a workspace from the shared pool and uses the index's
    /// own pinned algorithm, so routing and verification distances agree).
    fn with_metric<R>(&self, f: impl FnOnce(&VpTree<L>) -> R) -> R {
        {
            let guard = relock(self.metric.read());
            if let Some(tree) = guard.as_ref() {
                return f(tree);
            }
        }
        {
            let mut guard = relock(self.metric.write());
            if guard.is_none() {
                let mut ws = self.scratch.take();
                *guard = Some(VpTree::build(
                    &self.corpus,
                    self.algorithm,
                    ws.get(),
                    &self.metric_config,
                ));
            }
        }
        // Between the write guard dropping and this read, no one can take
        // the tree away: drops happen only under `&mut self`.
        let guard = relock(self.metric.read());
        f(guard.as_ref().expect("tree built above"))
    }

    /// [`range`](Self::range) through the vantage-point tree.
    fn range_metric(&self, query: &Tree<L>, tau: f64) -> QueryResult {
        let start = Instant::now();
        let qsketch = Self::query_sketch(&[self], query);
        let mut stats = zeroed_stats(self.corpus.len(), &self.pipeline);
        let mut neighbors = Vec::new();
        self.with_metric(|vp| {
            let mut ws = self.scratch.take();
            vp.range(
                &self.corpus,
                query,
                &qsketch,
                tau,
                &self.pipeline,
                &self.counted(),
                ws.get(),
                &mut neighbors,
                &mut stats,
            );
        });
        neighbors.sort_by_key(|n| n.id);
        self.record(QueryKind::Range, CandidateGen::Metric, start, &mut stats);
        QueryResult { neighbors, stats }
    }

    /// [`top_k`](Self::top_k) through the vantage-point tree.
    fn top_k_metric(&self, query: &Tree<L>, k: usize) -> QueryResult {
        let start = Instant::now();
        let qsketch = Self::query_sketch(&[self], query);
        let mut stats = zeroed_stats(self.corpus.len(), &self.pipeline);
        let neighbors = self.with_metric(|vp| {
            let mut ws = self.scratch.take();
            vp.top_k(
                &self.corpus,
                query,
                &qsketch,
                k,
                &self.pipeline,
                &self.counted(),
                ws.get(),
                &mut stats,
            )
        });
        self.record(QueryKind::TopK, CandidateGen::Metric, start, &mut stats);
        QueryResult { neighbors, stats }
    }
}
