//! # rted — Robust Tree Edit Distance
//!
//! A complete Rust implementation of **RTED** (Pawlik & Augsten, *RTED: A
//! Robust Algorithm for the Tree Edit Distance*, PVLDB 5(4), 2011), together
//! with the general path-strategy executor **GTED**, the optimal LRH
//! strategy computation, and all competitor algorithms the paper evaluates
//! (Zhang–Shasha left/right, Klein, Demaine).
//!
//! This crate is a thin facade re-exporting the workspace crates:
//!
//! * [`tree`] — ordered labeled trees, paths, decompositions
//!   ([`rted_tree`]);
//! * [`core`] — cost models, algorithms, strategies ([`rted_core`]);
//! * [`datasets`] — synthetic shapes and dataset simulators
//!   ([`rted_datasets`]);
//! * [`index`] — the indexed, parallel similarity-search engine over tree
//!   corpora: threshold (`range`), k-nearest-neighbour (`top_k`) and
//!   self-join queries, each one linear scan behind staged lower-bound
//!   filters (including the serialized pq-gram stage) ([`rted_index`]);
//! * [`obs`] — lock-free, allocation-free-at-record-time metrics:
//!   counters, gauges, log₂ latency histograms, Prometheus-style text
//!   exposition ([`rted_obs`]);
//! * [`serve`] — the crash-safe, long-lived query service over a
//!   persistent corpus: request queue + worker pool, torn-tail recovery
//!   on startup, background compaction, scrape-able telemetry
//!   ([`rted_serve`]).
//!
//! # Quick start
//!
//! ```
//! use rted::{parse_bracket, ted};
//!
//! let f = parse_bracket("{a{b}{c{d}}}").unwrap();
//! let g = parse_bracket("{a{b{d}}{c}}").unwrap();
//! // Unit-cost tree edit distance, through the cheapest exact kernel
//! // for the pair (Zhang-L, Zhang-R or RTED).
//! assert_eq!(ted(&f, &g), 2.0);
//! ```
//!
//! # Indexed similarity search
//!
//! ```
//! use rted::index::TreeIndex;
//! use rted::parse_bracket;
//!
//! let corpus = vec![
//!     parse_bracket("{a{b}{c}}").unwrap(),
//!     parse_bracket("{a{b}{d}}").unwrap(),
//!     parse_bracket("{x{y{z{w}}}}").unwrap(),
//! ];
//! let index = TreeIndex::build(corpus);
//! let query = parse_bracket("{a{b}{c}}").unwrap();
//!
//! // All trees within distance 2 of the query, cheap filters first.
//! let hits = index.range(&query, 2.0);
//! assert_eq!(hits.neighbors.len(), 2);
//!
//! // The two nearest neighbours.
//! let knn = index.top_k(&query, 2);
//! assert_eq!(knn.neighbors[0].distance, 0.0);
//! ```

pub use rted_core as core;
pub use rted_datasets as datasets;
pub use rted_index as index;
pub use rted_obs as obs;
pub use rted_serve as serve;
pub use rted_tree as tree;

pub use rted_core::{
    edit_mapping, ted, Algorithm, CostModel, EditMapping, EditOp, PerLabelCost, RunStats, UnitCost,
};
pub use rted_index::TreeIndex;
pub use rted_tree::{parse_bracket, to_bracket, NodeId, PathKind, Tree, TreeBuilder};

/// Structural diffing: optimal edit mappings and resolved edit scripts.
///
/// One coherent import for the diff surface — the same types the CLI's
/// `rted diff`, the serve protocol's `{"op":"diff"}`, and
/// [`TreeIndex::diff`] traffic in:
///
/// ```
/// use rted::diff::{edit_mapping, EditScript};
/// use rted::{parse_bracket, UnitCost};
///
/// let old = parse_bracket("{a{b}{c}}").unwrap();
/// let new = parse_bracket("{a{b}{x}}").unwrap();
/// let script: EditScript = edit_mapping(&old, &new, &UnitCost).script(&old, &new);
/// assert_eq!(script.cost, 1.0);
/// assert_eq!(script.renames, 1);
/// ```
///
/// [`edit_mapping`] is a thin wrapper over
/// [`edit_mapping_in`](rted_core::edit_mapping_in) with a throwaway
/// workspace; hold a [`rted_core::Workspace`] and call the `_in` variant
/// to extract many scripts allocation-free.
pub mod diff {
    pub use rted_core::{edit_mapping, edit_mapping_in, EditMapping, EditOp, EditScript, ScriptOp};
}
