//! Tree edit distance algorithms from *RTED: A Robust Algorithm for the Tree
//! Edit Distance* (Pawlik & Augsten, PVLDB 5(4), 2011).
//!
//! The crate implements the paper's complete algorithmic stack:
//!
//! * [`cost`] — edit cost models ([`UnitCost`], [`PerLabelCost`], or any
//!   [`CostModel`] implementation);
//! * [`reference`](crate::reference) — the recursive formula of Fig. 2,
//!   memoized on explicit forests (the correctness oracle of the tests);
//! * [`zs`] — the classic Zhang–Shasha algorithm (left and right variants),
//!   i.e. the paper's optimized `Zhang-L` / `Zhang-R` baselines, around the
//!   one keyroot sheet routine that also serves `∆L`/`∆R`, [`bounded`] and
//!   the [`mapping`] backtrace;
//! * [`strategy`] — the cost formula of Fig. 5 and `OptStrategy`
//!   (Algorithm 2), generalized over a pluggable chooser so the same O(n²)
//!   engine also computes the exact subproblem counts of every fixed
//!   competitor strategy (Zhang-L/R, Klein-H, Demaine-H);
//! * [`baseline`] — the O(n³) baseline strategy algorithm of §6.1, kept as
//!   an executable specification for Algorithm 2;
//! * [`gted`] — the GTED executor (Algorithm 1) running any LRH strategy in
//!   O(n²) space, built on three single-path functions: `∆L`/`∆R`
//!   (keyroot sheets) and `∆I` (the Demaine-style heavy-path DP over the
//!   canonical forest encoding);
//! * [`rted`] — the [`Algorithm`] enum running all five algorithms of the
//!   paper's evaluation uniformly, RTED (optimal strategy + GTED) among
//!   them, with run statistics; [`Algorithm::cheapest_exact`] picks the
//!   cheapest of Zhang-L, Zhang-R and RTED per pair from Lemma 3's root
//!   counts;
//! * [`bounded`] — the budgeted question "is `ted ≤ τ`, and what is it?":
//!   the band-limited early-exit kernel, and [`ted_within`], the one call
//!   that answers it per pair with the cheapest kernel (the bounded one
//!   under a finite budget, otherwise [`Algorithm::cheapest_exact`]'s).
//!   The exact distance is the unbounded case: [`ted`] and [`ted_with`]
//!   call [`ted_within`] at `τ = ∞`.
//!
//! # Example
//!
//! ```
//! use rted_core::{ted, Algorithm, UnitCost};
//! use rted_tree::parse_bracket;
//!
//! let f = parse_bracket("{a{b}{c{d}}}").unwrap();
//! let g = parse_bracket("{a{b{d}}{c}}").unwrap();
//! assert_eq!(ted(&f, &g), 2.0);
//!
//! // All algorithms agree on the distance; they differ in how many
//! // subproblems they compute.
//! for alg in Algorithm::ALL {
//!     let run = alg.run(&f, &g, &UnitCost);
//!     assert_eq!(run.distance, 2.0);
//! }
//! ```

pub mod baseline;
pub mod bounded;
pub mod bounds;
pub mod cost;
pub mod gted;
pub mod mapping;
pub mod pqgram;
pub mod reference;
pub mod rted;
pub mod strategy;
mod view;
pub mod workspace;
pub mod zs;

mod keyroot;
mod spf_i;
mod spf_lr;

pub use bounded::{ted_at_most_run, ted_within, BoundedResult, BoundedRun, Kernel};
pub use bounds::{LowerBound, TreeSketch};
pub use cost::{CostModel, PerLabelCost, UnitCost};
pub use gted::{ExecStats, Executor};
pub use mapping::{edit_mapping, edit_mapping_in, EditMapping, EditOp, EditScript, ScriptOp};
pub use pqgram::{PqGramProfile, PqParams, PqScratch};
pub use rted::{ted, ted_with, Algorithm, RunStats, RTED_CELL_RATIO};
pub use strategy::{
    compute_strategy_in, optimal_strategy, strategy_cost, Chooser, DemaineChooser, FixedChooser,
    OptimalChooser, PathChoice, Side, Strategy, StrategyProvider, SubsetChooser,
};
pub use workspace::{Workspace, WorkspaceStats};
