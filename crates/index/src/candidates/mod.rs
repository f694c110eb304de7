//! Structure-sensitive candidate generation.
//!
//! The engine's original candidate source is the **linear size window**:
//! a contiguous slice of the size-sorted corpus view that the size lower
//! bound cannot prune, scanned candidate by candidate through the filter
//! pipeline. That scan is O(live) per query no matter how selective the
//! query is. This module adds the two cooperating layers that push
//! selective queries below O(live):
//!
//! * [`pqgram`] — the index-side face of the serialized pq-gram profiles
//!   (`rted_core::pqgram`): per-tree gram multisets stored in every
//!   [`TreeSketch`](rted_core::bounds::TreeSketch), persisted by the
//!   corpus format, and evaluated as the pipeline's final, strongest
//!   stage. Profiles shrink the *survivor set* of whatever candidate
//!   source runs.
//! * [`metric`] — a vantage-point tree over the corpus under the exact
//!   (unit-cost) tree edit distance, which is a metric. It *replaces* the
//!   linear scan for `range`/`top_k` when enabled (joins always scan
//!   linearly, see `TreeIndex::join`): triangle-inequality pruning
//!   discards whole subtrees of the corpus per routing distance, so the
//!   number of trees even *looked at* falls with the query's selectivity.
//!
//! The two layers cooperate: during metric traversal the filter pipeline
//! (pq-grams included) is consulted before every exact routing distance —
//! when a cheap bound already proves the vantage point is far, the exact
//! computation is skipped and the traversal descends with bound
//! information alone.
//!
//! [`MetricStats`] surfaces what the metric layer did for one query, next
//! to the familiar per-stage prune counters.

pub mod metric;
pub mod pqgram;

pub use metric::{MetricConfig, VpTree};

/// Per-query counters of the metric-tree candidate generator. All zero
/// when a query ran on the linear scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricStats {
    /// Vantage points and leaf-bucket entries the traversal examined.
    pub nodes_visited: usize,
    /// Exact TED computations spent on routing decisions (distances to
    /// vantage points). These double as verification for the vantage
    /// point itself, and are included in `SearchStats::verified`.
    pub routing_ted: usize,
    /// Vantage points whose exact routing distance was skipped because a
    /// cheap pipeline bound already settled every traversal decision.
    pub routing_skipped: usize,
    /// Overflow (post-build insert) entries scanned linearly.
    pub pending_scanned: usize,
}

impl MetricStats {
    /// Accumulates another run's counters: a traversal's into its query's
    /// stats, or one query's into another through `SearchStats::merge`.
    pub fn merge(&mut self, other: &MetricStats) {
        self.nodes_visited += other.nodes_visited;
        self.routing_ted += other.routing_ted;
        self.routing_skipped += other.routing_skipped;
        self.pending_scanned += other.pending_scanned;
    }
}

/// A point-in-time view of an index's metric-tree state — what a serving
/// layer's `status` report surfaces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// Whether metric candidate generation is enabled on the index.
    pub enabled: bool,
    /// Ids the current tree was built over (0 when not yet built — the
    /// tree is built lazily by the first eligible query — or after a
    /// churn-triggered drop).
    pub built: usize,
    /// Post-build inserts in the linear overflow.
    pub pending: usize,
    /// Built ids tombstoned since build.
    pub tombstones: usize,
    /// Exact TED computations the current build spent.
    pub build_ted: usize,
}
