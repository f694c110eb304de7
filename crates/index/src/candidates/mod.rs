//! Candidate filtering beyond the cheap sketch bounds.
//!
//! Candidates come from one source, the **linear size window**: a
//! contiguous slice of the size-sorted corpus view that the size lower
//! bound cannot prune, scanned candidate by candidate through the filter
//! pipeline. [`pqgram`] is the index-side face of the serialized pq-gram
//! profiles (`rted_core::pqgram`): per-tree gram multisets stored in
//! every [`TreeSketch`](rted_core::bounds::TreeSketch), persisted by the
//! corpus format, and evaluated as the pipeline's final, strongest stage.
//! Profiles shrink the survivor set the scan hands to verification.

pub mod pqgram;
