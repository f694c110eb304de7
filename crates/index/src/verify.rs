//! Exact verification of surviving candidate pairs.
//!
//! Filters only ever prune pairs that provably cannot match; every
//! survivor is handed to a [`Verifier`] for an exact distance. The index
//! verifies with [`TedVerifier`], which either pins one of the paper's
//! algorithms or — the default — picks the cheapest kernel per pair: the
//! bounded early-exit kernel under a finite budget (pairs of at most 256
//! cells excepted), otherwise the one rule `distance` and `diff` share,
//! [`Algorithm::cheapest_exact`]. Any [`CostModel`] plugs in, including
//! borrowed ones, since `CostModel` is implemented for references.

use crate::totals::IndexTotals;
use crate::SearchStats;
use rted_core::{ted_at_most_run, Algorithm, BoundedResult, CostModel, UnitCost, Workspace};
use rted_tree::Tree;
use std::time::Instant;

/// A budgeted pair whose size product `|f| · |g|` is at most this skips
/// the bounded kernel and runs [`Algorithm::cheapest_exact`]'s pick, so
/// when it blows the budget its certified lower bound is its exact
/// distance, not the budget. The serve `distance … at_most` answer for
/// such pairs depends on it (`scripts/serve_roundtrip.sh` stage 4b).
const SMALL_PAIR_CELLS: u64 = 256;

/// The exact kernel a [`TedVerifier`] without a pinned algorithm chose
/// for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Zhang–Shasha, left or right paths ([`Algorithm::cheapest_exact`]
    /// found one side cheaper than RTED).
    ZhangShasha,
    /// The bounded-τ early-exit kernel (a finite budget exists).
    Bounded,
    /// Full RTED ([`Algorithm::cheapest_exact`] found both Zhang–Shasha
    /// sides too expensive).
    Rted,
}

/// Outcome of one verification (see [`Verifier::verify_within`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedVerify {
    /// Exact distance (when within budget) or a certified lower bound.
    pub result: BoundedResult,
    /// DP cells computed by this verification.
    pub subproblems: u64,
    /// `true` when the verifier stopped before completing the computation
    /// because the budget was provably blown.
    pub early_exit: bool,
    /// The kernel the per-pair dispatch ran; `None` when the verifier
    /// pins one algorithm.
    pub kernel: Option<Kernel>,
}

/// Computes tree edit distances for candidate pairs.
///
/// Implementations must be thread-safe: the parallel executor calls
/// `verify_within` concurrently from worker threads, each worker passing
/// its own [`Workspace`].
pub trait Verifier<L>: Send + Sync {
    /// Budget-aware verification: the query only needs to know whether the
    /// pair is within distance `tau` (and the exact distance when it is),
    /// so the verifier may stop the moment the budget is provably blown.
    /// `tau = ∞` asks for the exact distance.
    ///
    /// Whenever the distance is ≤ `tau` the result must be
    /// [`BoundedResult::Exact`] with the same value an exact algorithm
    /// computes — query results must not depend on which kernel ran.
    fn verify_within(
        &self,
        f: &Tree<L>,
        g: &Tree<L>,
        tau: f64,
        ws: &mut Workspace,
    ) -> BoundedVerify;
}

/// The index's verifier, generic over the cost model.
///
/// With `algorithm: Some(a)` every pair runs the exact algorithm `a` (the
/// oracle, and the paper's Table 1). With `None` — RTED's dynamic
/// strategy selection lifted one level up — each pair runs the cheapest
/// member of the exact family:
///
/// * the **bounded-τ early-exit kernel** when `tau` is finite
///   (abandonment makes "no" answers nearly free), on the Zhang–Shasha
///   side with fewer cells, unless `|f| · |g|` is at most 256 cells;
/// * otherwise the kernel [`Algorithm::cheapest_exact`] picks from Lemma
///   3's root counts: **Zhang–Shasha** (left or right paths) unless its
///   cells exceed [`RTED_CELL_RATIO`](rted_core::RTED_CELL_RATIO) times
///   `|f| · |g|`, **full RTED** then.
///
/// All arms compute the same exact distance (Zhang–Shasha is one fixed
/// LRH strategy; the bounded kernel returns `Exact(d)` identical to RTED
/// whenever `d ≤ τ`), so results never depend on the arm — only the work
/// does.
#[derive(Debug, Clone, Copy, Default)]
pub struct TedVerifier<C = UnitCost> {
    /// The pinned exact algorithm, or `None` for per-pair dispatch.
    pub algorithm: Option<Algorithm>,
    /// The cost model (owned or borrowed — `CostModel` is implemented for
    /// references).
    pub cost_model: C,
}

impl<L, C: CostModel<L> + Send + Sync> Verifier<L> for TedVerifier<C> {
    fn verify_within(
        &self,
        f: &Tree<L>,
        g: &Tree<L>,
        tau: f64,
        ws: &mut Workspace,
    ) -> BoundedVerify {
        let small = (f.len() as u64).saturating_mul(g.len() as u64) <= SMALL_PAIR_CELLS;
        let (algorithm, kernel) = match self.algorithm {
            Some(algorithm) => (algorithm, None),
            None if tau != f64::INFINITY && !small => {
                let run = ted_at_most_run(f, g, &self.cost_model, tau, ws);
                return BoundedVerify {
                    result: run.result,
                    subproblems: run.subproblems,
                    early_exit: run.early_exit,
                    kernel: Some(Kernel::Bounded),
                };
            }
            None => match Algorithm::cheapest_exact(f, g) {
                Algorithm::Rted => (Algorithm::Rted, Some(Kernel::Rted)),
                zs => (zs, Some(Kernel::ZhangShasha)),
            },
        };
        let run = algorithm.run_in(f, g, &self.cost_model, ws);
        BoundedVerify {
            result: if run.distance <= tau {
                BoundedResult::Exact(run.distance)
            } else {
                // The exact distance is the tightest possible lower bound.
                BoundedResult::Exceeds(run.distance)
            },
            subproblems: run.subproblems,
            early_exit: false,
            kernel,
        }
    }
}

/// A verifier paired with the index totals its kernel choices are
/// counted into: the one per-pair verify-and-count step of every query
/// path (linear, striped, metric leaves and vantage routing).
pub(crate) struct CountedVerifier<'a, L> {
    pub(crate) verifier: &'a dyn Verifier<L>,
    pub(crate) totals: &'a IndexTotals,
}

impl<L> CountedVerifier<'_, L> {
    /// Verifies one pair within `tau`, folding its counters into `stats`.
    /// Returns `Some(d)` — the exact distance — iff `d ≤ tau`; `None`
    /// means the pair provably exceeds the budget (and, since matching is
    /// strict, can never match). With `tau = ∞` the result is always
    /// `Some`.
    pub(crate) fn pair(
        &self,
        f: &Tree<L>,
        g: &Tree<L>,
        tau: f64,
        ws: &mut Workspace,
        stats: &mut SearchStats,
    ) -> Option<f64> {
        let started = Instant::now();
        let bv = self.verifier.verify_within(f, g, tau, ws);
        let spent = started.elapsed();
        stats.verified += 1;
        stats.subproblems += bv.subproblems;
        stats.ted_time += spent;
        if tau != f64::INFINITY {
            stats.bounded_time += spent;
            stats.early_exits += usize::from(bv.early_exit);
        }
        if let Some(kernel) = bv.kernel {
            self.totals.record_kernel(kernel);
        }
        match bv.result {
            BoundedResult::Exact(d) => Some(d),
            BoundedResult::Exceeds(_) => None,
        }
    }
}
