//! Ordered labeled trees and their decomposition structure.
//!
//! This crate is the tree substrate for the RTED tree edit distance
//! reproduction (Pawlik & Augsten, VLDB 2011). It provides:
//!
//! * [`Tree`] — an arena-backed ordered labeled tree whose node identity is
//!   the left-to-right **postorder rank**, with all derived per-node data the
//!   edit distance algorithms need (subtree sizes, depths, leftmost and
//!   rightmost leaf descendants, mirror postorder, preorder, heavy child);
//! * [`Tree::from_postorder_degrees`] — the one constructor, from postorder
//!   labels and child counts; [`build::TreeBuilder`] and [`parse`] (the
//!   bracket notation `{a{b}{c}}`) feed it;
//! * [`paths`] — root-leaf paths (left, right, heavy) and the relevant
//!   subtrees `F − γ` of a path (Definition 2 of the paper);
//! * [`decompose`] — explicit enumeration of the full decomposition `A(F)`
//!   (Definition 1) and of relevant subforests `F(F, γ)` (Definition 3),
//!   used to validate the closed-form counts;
//! * [`counts`] — O(n) closed-form decomposition counts per subtree
//!   (Lemmas 1–3): `|A(F_v)|`, `|F(F_v, Γ_L)|`, `|F(F_v, Γ_R)|`.
//!
//! # Node identity
//!
//! Nodes are identified by [`NodeId`], the 0-based left-to-right postorder
//! rank. Postorder ids make the edit distance DPs pure index arithmetic: the
//! nodes of the subtree rooted at `v` are exactly the contiguous id range
//! `[v + 1 - size(v), v]`.

pub mod build;
pub mod counts;
pub mod decompose;
pub mod parse;
pub mod paths;
mod tree;

pub use build::TreeBuilder;
pub use parse::{parse_bracket, to_bracket, ParseError};
pub use paths::PathKind;
pub use tree::{FlatTreeError, NodeId, Tree};

/// Sentinel used in parent/heavy-child arrays for "no node".
pub(crate) const NONE: u32 = u32::MAX;
