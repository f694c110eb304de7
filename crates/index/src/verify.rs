//! Exact verification of surviving candidate pairs.
//!
//! Filters only ever prune pairs that provably cannot match; every
//! survivor gets an exact distance from [`rted_core::ted_within`] under
//! unit costs: one pinned algorithm when the index has one
//! ([`TreeIndex::with_algorithm`](crate::TreeIndex::with_algorithm)),
//! otherwise the cheapest kernel per pair — the bounded early-exit kernel
//! under a finite budget (pairs of at most 256 cells excepted), else the
//! one rule `distance` and `diff` share,
//! [`Algorithm::cheapest_exact`](rted_core::Algorithm::cheapest_exact).

use crate::totals::IndexTotals;
use crate::SearchStats;
use rted_core::{ted_within, Algorithm, BoundedResult, UnitCost, Workspace};
use rted_tree::Tree;
use std::time::Instant;

/// An index's verification settings paired with the totals its kernel
/// choices are counted into: the one per-pair verify-and-count step of
/// every query path (linear, striped, metric leaves and vantage routing).
pub(crate) struct CountedVerifier<'a> {
    /// The pinned exact algorithm, or `None` for per-pair dispatch.
    pub(crate) algorithm: Option<Algorithm>,
    pub(crate) totals: &'a IndexTotals,
}

impl CountedVerifier<'_> {
    /// Verifies one pair within `tau`, folding its counters into `stats`.
    /// Returns `Some(d)` — the exact distance — iff `d ≤ tau`; `None`
    /// means the pair provably exceeds the budget (and, since matching is
    /// strict, can never match). With `tau = ∞` the result is always
    /// `Some`.
    pub(crate) fn pair<L: PartialEq>(
        &self,
        f: &Tree<L>,
        g: &Tree<L>,
        tau: f64,
        ws: &mut Workspace,
        stats: &mut SearchStats,
    ) -> Option<f64> {
        let started = Instant::now();
        let run = ted_within(f, g, &UnitCost, tau, self.algorithm, ws);
        let spent = started.elapsed();
        stats.verified += 1;
        stats.subproblems += run.subproblems;
        stats.ted_time += spent;
        if tau != f64::INFINITY {
            stats.bounded_time += spent;
            stats.early_exits += usize::from(run.early_exit);
        }
        if let Some(kernel) = run.kernel {
            self.totals.record_kernel(kernel);
        }
        match run.result {
            BoundedResult::Exact(d) => Some(d),
            BoundedResult::Exceeds(_) => None,
        }
    }
}
