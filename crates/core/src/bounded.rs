//! Bounded tree edit distance: decide `ted(F, G) ≤ τ` without paying for
//! the full DP when the answer is "no".
//!
//! Index queries always verify candidates against a known budget (τ for
//! range/join, the current radius for top-k), so the verifier can stop the
//! moment the budget is provably blown. Following the bounded-TED
//! literature (Jin 2021; Nogler–Saha–Xu 2024), [`ted_at_most_run`] runs
//! Zhang–Shasha's keyroot-pair loop over the shared keyroot sheet, on the
//! side (left or right paths) with fewer cells by Lemma 3's root counts,
//! with three budget devices stacked on the exact recurrence:
//!
//! 1. **Size pre-bound.** `|n_F − n_G|` surplus nodes must be deleted (or
//!    inserted), each costing at least the cheapest per-node delete
//!    (insert) cost, so pairs whose size gap alone exceeds τ are rejected
//!    in O(n) without touching the DP.
//! 2. **Banding.** In sheet-local coordinates (mirror postorder ranks on
//!    the right side; the argument is the same in either order) `x' = x − l_i + 1`,
//!    `y' = y − l_j + 1`, the exact forest distance of the prefix pair
//!    `(x', y')` is at least `(x' − y')⁺ · min_del` and
//!    `(y' − x')⁺ · min_ins`: the surplus prefix nodes have no possible
//!    partners. Cells outside the band `x' − y' ≤ ⌊τ/min_del⌋ ∧
//!    y' − x' ≤ ⌊τ/min_ins⌋` therefore exceed τ and are never computed —
//!    they read as `+∞`, which keeps every computed cell an
//!    *over*-approximation that is **exact whenever the true value is
//!    ≤ τ** (an optimal derivation of a ≤ τ cell only passes through ≤ τ,
//!    hence in-band, cells, because every DP addition is non-negative).
//! 3. **Frontier abandonment.** In the final sheet (the root keyroot
//!    pair — the lone full `n_F × n_G` sheet, and the only one whose
//!    subtree-distance writes nobody reads later), each row's cells are
//!    augmented with a completion lower bound
//!    `comp(x, y) = ((n_F−x) − (n_G−y))⁺·min_del + ((n_G−y) −
//!    (n_F−x))⁺·min_ins`. If an optimal mapping of cost `d ≤ τ` exists,
//!    its restriction to the postorder prefixes `F[1..x]` and `G[1..c]`
//!    (with `c` the largest partner rank used by `F[1..x]`) is a valid
//!    prefix alignment, so **every** row `x` contains a cell with
//!    `fd(x, c) + comp(x, c) ≤ d` — order preservation forces the
//!    remaining nodes to map among themselves, which is what `comp`
//!    undercounts. A row whose minimum augmented entry exceeds τ therefore
//!    certifies `ted > τ`, and the kernel abandons the pair. (The check is
//!    deliberately *not* applied to earlier sheets: abandoning one midway
//!    would leave subtree distances unwritten that later sheets still
//!    read.)
//!
//! The result is [`BoundedResult::Exact`] — bit-identical to the exact
//! algorithms — whenever the distance is within budget, and
//! [`BoundedResult::Exceeds`] with a certified lower bound otherwise. This
//! module keeps only the pre-bound, the band widths and the frontier
//! check; the sheet routine fills the band. All scratch comes from the
//! [`Workspace`], so warm calls stay allocation-free.
//!
//! [`ted_within`] is the one distance call every caller goes through
//! (index verification, vantage-point routing, the served and the
//! command-line `distance`, and at `τ = ∞` the exact [`ted`](crate::ted)
//! and [`ted_with`](crate::ted_with)). It picks the kernel per pair: the
//! bounded kernel under a finite budget on pairs above 256 cells,
//! otherwise [`Algorithm::cheapest_exact`]'s pick, and it reports the
//! pick as [`BoundedRun::kernel`].

use crate::cost::CostModel;
use crate::keyroot::Band;
use crate::rted::Algorithm;
use crate::workspace::Workspace;
use crate::zs::{cheaper_side, keyroot_pairs};
use rted_tree::Tree;

/// A budgeted pair whose size product `|f| · |g|` is at most this skips
/// the bounded kernel in [`ted_within`] and runs
/// [`Algorithm::cheapest_exact`]'s pick, so when it blows the budget its
/// certified lower bound is its exact distance, not the budget. The
/// served and command-line `distance … at_most` answers for such pairs
/// depend on it (`scripts/serve_roundtrip.sh` stage 4b).
const SMALL_PAIR_CELLS: u64 = 256;

/// The kernel [`ted_within`] ran for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Zhang–Shasha, left or right paths ([`Algorithm::cheapest_exact`]
    /// found one side cheaper than RTED).
    ZhangShasha,
    /// The bounded-τ early-exit kernel ([`ted_at_most_run`]).
    Bounded,
    /// Full RTED ([`Algorithm::cheapest_exact`] found both Zhang–Shasha
    /// sides too expensive).
    Rted,
}

/// Outcome of a budgeted distance computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedResult {
    /// The distance is within budget; the payload is the exact distance
    /// (identical to what the exact algorithms compute).
    Exact(f64),
    /// The distance exceeds the budget; the payload is a certified lower
    /// bound on the true distance (at least the budget itself whenever the
    /// DP ran, possibly larger when the size pre-bound already decides).
    Exceeds(f64),
}

impl BoundedResult {
    /// `true` for [`BoundedResult::Exact`].
    #[inline]
    pub fn is_exact(&self) -> bool {
        matches!(self, BoundedResult::Exact(_))
    }

    /// The payload: the exact distance or the lower bound.
    #[inline]
    pub fn value(&self) -> f64 {
        match *self {
            BoundedResult::Exact(d) => d,
            BoundedResult::Exceeds(b) => b,
        }
    }
}

/// A bounded run with its work counters (see [`ted_at_most_run`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedRun {
    /// The budgeted outcome.
    pub result: BoundedResult,
    /// In-band DP cells actually computed (the analogue of the exact
    /// algorithms' relevant-subproblem count).
    pub subproblems: u64,
    /// `true` when the kernel exited before running the DP to completion:
    /// the size pre-bound rejected the pair outright, or a final-sheet
    /// frontier certified `ted > τ` mid-DP. A completed DP whose corner
    /// merely lands above τ is not an early exit.
    pub early_exit: bool,
    /// The kernel that ran; `None` when the caller pinned an algorithm.
    pub kernel: Option<Kernel>,
}

/// The budgeted distance of `(f, g)` under `cm`, through the cheapest
/// kernel for the pair: the one call behind every budgeted and exact
/// distance the index, the server and the command line answer.
///
/// The kernel is chosen in this order:
///
/// 1. a `pinned` algorithm runs as given ([`BoundedRun::kernel`] is
///    `None`);
/// 2. a pair of at most 256 cells (`|f| · |g|`), or any pair at
///    `tau = ∞`, runs [`Algorithm::cheapest_exact`]'s kernel;
/// 3. every other pair runs the bounded kernel ([`ted_at_most_run`]).
///
/// An exact kernel answers `Exceeds(d)` with the exact distance `d` when
/// `d > tau`, the tightest bound there is. Every kernel returns the same
/// `Exact(d)` whenever `d ≤ tau`, so the choice changes only the work
/// (bit for bit when the costs are dyadic, as unit costs are; costs such
/// as 0.1 can round differently in the last place from kernel to
/// kernel, which is why every exact surface goes through this one rule).
///
/// ```
/// use rted_core::{ted_within, BoundedResult, Kernel, UnitCost, Workspace};
/// use rted_tree::parse_bracket;
///
/// let f = parse_bracket("{a{b}{c}}").unwrap();
/// let g = parse_bracket("{x{y}{z}}").unwrap();
/// let run = ted_within(&f, &g, &UnitCost, 1.0, None, &mut Workspace::new());
/// assert_eq!(run.result, BoundedResult::Exceeds(3.0));
/// assert_eq!(run.kernel, Some(Kernel::ZhangShasha));
/// ```
pub fn ted_within<L, C: CostModel<L>>(
    f: &Tree<L>,
    g: &Tree<L>,
    cm: &C,
    tau: f64,
    pinned: Option<Algorithm>,
    ws: &mut Workspace,
) -> BoundedRun {
    let small = (f.len() as u64).saturating_mul(g.len() as u64) <= SMALL_PAIR_CELLS;
    let (algorithm, kernel) = match pinned {
        Some(algorithm) => (algorithm, None),
        None if tau != f64::INFINITY && !small => return ted_at_most_run(f, g, cm, tau, ws),
        None => match Algorithm::cheapest_exact(f, g) {
            Algorithm::Rted => (Algorithm::Rted, Some(Kernel::Rted)),
            zs => (zs, Some(Kernel::ZhangShasha)),
        },
    };
    let run = algorithm.run_in(f, g, cm, ws);
    BoundedRun {
        result: if run.distance <= tau {
            BoundedResult::Exact(run.distance)
        } else {
            BoundedResult::Exceeds(run.distance)
        },
        subproblems: run.subproblems,
        early_exit: false,
        kernel,
    }
}

/// The bounded kernel alone, with its work counters, for [`ted_within`]
/// and benchmarks: decides whether `ted(f, g) ≤ tau` under cost model
/// `cm`, drawing all scratch from `ws` (allocation-free once the
/// workspace is warm).
///
/// The result is [`BoundedResult::Exact`] with the true distance when it
/// is ≤ `tau`, and [`BoundedResult::Exceeds`] with a lower bound `b ≤
/// ted(f, g)` otherwise. A non-finite `tau` (`+∞`) widens the band past
/// every sheet: the exact Zhang–Shasha DP. Either way the DP runs on the
/// Zhang–Shasha side with fewer cells (left on ties), and
/// [`BoundedRun::kernel`] is `Some(Kernel::Bounded)`. `tau` must not be
/// NaN.
pub fn ted_at_most_run<L, C: CostModel<L>>(
    f: &Tree<L>,
    g: &Tree<L>,
    cm: &C,
    tau: f64,
    ws: &mut Workspace,
) -> BoundedRun {
    assert!(!tau.is_nan(), "distance budget must not be NaN");
    if tau < 0.0 {
        // Distances are non-negative, so nothing fits a negative budget.
        return finish(ws, BoundedResult::Exceeds(0.0), 0, true);
    }

    ws.ftab.rebuild(f, cm);
    ws.gtab.rebuild(g, cm);
    let (nf, ng) = (f.len() as u32, g.len() as u32);

    // Cheapest single delete / insert: the weights behind the size
    // pre-bound, the band widths, and the completion bounds.
    let min_del = ws.ftab.del.iter().copied().fold(f64::INFINITY, f64::min);
    let min_ins = ws.gtab.ins.iter().copied().fold(f64::INFINITY, f64::min);

    // Size pre-bound: the surplus nodes of the larger tree have no
    // partners, so each costs at least one cheapest delete (insert).
    let lb_size = completion(nf, ng, min_del, min_ins);
    if lb_size > tau {
        return finish(ws, BoundedResult::Exceeds(lb_size), 0, true);
    }

    // Band half-widths: a prefix pair carrying more than ⌊τ/min_del⌋
    // surplus F-nodes (⌊τ/min_ins⌋ surplus G-nodes) already costs more
    // than τ. A zero min cost (`τ/0` is `+∞` or NaN, which `min` drops)
    // or `τ = ∞` makes the band wider than any sheet: a plain, still
    // exact, DP.
    let half_width = |unit: f64| (tau / unit).min(Band::WIDE as f64).floor() as i64;
    let band = Band {
        del: half_width(min_del),
        ins: half_width(min_ins),
    };

    // The frontier check on the root sheet (whose local ranks are the
    // view's): a row with no cell of `fd + comp ≤ τ` certifies `ted > τ`.
    let frontier = |x: u32, row: &[f64], lo: usize, hi: usize| {
        let pot = (lo..=hi)
            .map(|y| row[y] + completion(nf - x, ng - y as u32, min_del, min_ins))
            .fold(f64::INFINITY, f64::min);
        pot <= tau
    };
    let (right, _) = cheaper_side(f, g);
    let (corner, subproblems, completed) = keyroot_pairs(f, g, cm, right, Some(band), ws, frontier);
    let result = if completed && corner <= tau {
        // In-budget cells are exact (see the module docs).
        BoundedResult::Exact(corner)
    } else {
        BoundedResult::Exceeds(lb_size.max(tau))
    };
    finish(ws, result, subproblems, !completed)
}

/// Counts a finished run in `ws` and packages it.
fn finish(ws: &mut Workspace, result: BoundedResult, subproblems: u64, early: bool) -> BoundedRun {
    ws.note_run(subproblems);
    BoundedRun {
        result,
        subproblems,
        early_exit: early,
        kernel: Some(Kernel::Bounded),
    }
}

/// Cheapest possible cost of aligning `rem_f` remaining F-nodes with
/// `rem_g` remaining G-nodes: the surplus side has no partners.
#[inline]
fn completion(rem_f: u32, rem_g: u32, min_del: f64, min_ins: f64) -> f64 {
    if rem_f >= rem_g {
        (rem_f - rem_g) as f64 * min_del
    } else {
        (rem_g - rem_f) as f64 * min_ins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{PerLabelCost, UnitCost};
    use crate::zs::zs_distance;
    use rted_tree::parse_bracket;

    fn check_both_sides<C: CostModel<String>>(a: &str, b: &str, cm: &C) {
        let f = parse_bracket(a).unwrap();
        let g = parse_bracket(b).unwrap();
        let d = zs_distance(&f, &g, cm);
        let mut ws = Workspace::new();
        for tau in [
            0.0,
            d * 0.5,
            (d - 0.25).max(0.0),
            d,
            d + 0.25,
            d * 2.0 + 1.0,
            f64::INFINITY,
        ] {
            match ted_at_most_run(&f, &g, cm, tau, &mut ws).result {
                BoundedResult::Exact(got) => {
                    assert!(d <= tau, "{a} vs {b}: Exact below budget {tau} but d={d}");
                    assert_eq!(got, d, "{a} vs {b} at tau={tau}");
                }
                BoundedResult::Exceeds(lb) => {
                    assert!(d > tau, "{a} vs {b}: Exceeds at tau={tau} but d={d}");
                    assert!(lb <= d, "{a} vs {b}: bound {lb} above true distance {d}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_exact_on_fixed_cases() {
        let cases = [
            ("{a}", "{a}"),
            ("{a}", "{b}"),
            ("{a{b}{c}}", "{a{b}}"),
            ("{a{b{c}{d}}}", "{a{c}{d}}"),
            ("{r{a}{b}}", "{r{b}{a}}"),
            ("{a{b}{c{d}}}", "{a{b{d}}{c}}"),
            ("{a{b{c}{d}}{e}}", "{x{y}{z{w{q}}}}"),
            ("{A{C}{B{G}{E{F}}{D}}}", "{A{B{D}{E{F}}}{C{G}}}"),
            ("{a{a}{a}{a}}", "{a{a{a}}}"),
            ("{a{b{c{d{e}}}}}", "{a{b}{c}{d}{e}}"),
        ];
        for (a, b) in cases {
            check_both_sides(a, b, &UnitCost);
            check_both_sides(a, b, &PerLabelCost::new(1.5, 2.0, 0.75));
        }
    }

    #[test]
    fn size_gap_rejects_without_dp() {
        let f = parse_bracket("{a{b}{c}{d}{e}{f}{g}{h}}").unwrap();
        let g = parse_bracket("{a}").unwrap();
        let mut ws = Workspace::new();
        let run = ted_at_most_run(&f, &g, &UnitCost, 3.0, &mut ws);
        assert_eq!(run.result, BoundedResult::Exceeds(7.0));
        assert_eq!(run.subproblems, 0);
        assert!(run.early_exit);
    }

    #[test]
    fn negative_budget_always_exceeds() {
        let f = parse_bracket("{a}").unwrap();
        let run = ted_at_most_run(&f, &f, &UnitCost, -1.0, &mut Workspace::new());
        assert_eq!(run.result, BoundedResult::Exceeds(0.0));
        assert!(run.early_exit);
    }

    #[test]
    fn infinite_budget_is_exact() {
        let f = parse_bracket("{a{b{c}{d}}{e}}").unwrap();
        let g = parse_bracket("{x{y}{z{w{q}}}}").unwrap();
        let d = zs_distance(&f, &g, &UnitCost);
        let run = ted_at_most_run(&f, &g, &UnitCost, f64::INFINITY, &mut Workspace::new());
        assert_eq!(run.result, BoundedResult::Exact(d));
        assert!(!run.early_exit);
    }

    #[test]
    fn tight_budget_at_exact_distance_is_exact() {
        let f = parse_bracket("{a{b}{c{d}}}").unwrap();
        let g = parse_bracket("{a{b{d}}{c}}").unwrap();
        let d = zs_distance(&f, &g, &UnitCost);
        let res = ted_at_most_run(&f, &g, &UnitCost, d, &mut Workspace::new()).result;
        assert_eq!(res, BoundedResult::Exact(d));
    }

    #[test]
    fn equal_size_distant_pair_abandons_early() {
        // Same sizes (no size pre-bound), totally different labels: the
        // final-sheet frontier should fire well before the corner.
        let f = parse_bracket("{a{a{a}{a}}{a{a}{a}}{a{a}{a}}}").unwrap();
        let g = parse_bracket("{z{z{z}{z}}{z{z}{z}}{z{z}{z}}}").unwrap();
        let d = zs_distance(&f, &g, &UnitCost);
        let mut ws = Workspace::new();
        let run = ted_at_most_run(&f, &g, &UnitCost, 1.0, &mut ws);
        match run.result {
            BoundedResult::Exceeds(lb) => assert!(lb <= d),
            other => panic!("expected Exceeds, got {other:?}"),
        }
        assert!(run.early_exit, "frontier should abandon this pair");
        let full = ted_at_most_run(&f, &g, &UnitCost, f64::INFINITY, &mut ws);
        assert!(
            run.subproblems < full.subproblems,
            "abandoned run must do less work ({} vs {})",
            run.subproblems,
            full.subproblems
        );
    }

    #[test]
    fn ted_within_picks_the_kernel_by_the_rule() {
        use rted_datasets::shapes::Shape;
        let mut ws = Workspace::new();
        // A 3×3 pair is small: the exact rule runs and certifies the
        // exact distance, not the budget.
        let f = parse_bracket("{a{b}{c}}").unwrap();
        let g = parse_bracket("{x{y}{z}}").unwrap();
        let run = ted_within(&f, &g, &UnitCost, 1.0, None, &mut ws);
        assert_eq!(run.kernel, Some(Kernel::ZhangShasha));
        assert_eq!(run.result, BoundedResult::Exceeds(3.0));

        let zz = (
            Shape::ZigZag.generate(200, 7),
            Shape::ZigZag.generate(200, 8),
        );
        let run = ted_within(&zz.0, &zz.1, &UnitCost, f64::INFINITY, None, &mut ws);
        assert_eq!(run.kernel, Some(Kernel::Rted));
        assert!(run.result.is_exact());

        let rnd = (
            Shape::Random.generate(200, 7),
            Shape::Random.generate(200, 8),
        );
        let run = ted_within(&rnd.0, &rnd.1, &UnitCost, 2.0, None, &mut ws);
        assert_eq!(run.kernel, Some(Kernel::Bounded));

        let pinned = Some(Algorithm::KleinH);
        let run = ted_within(&rnd.0, &rnd.1, &UnitCost, 2.0, pinned, &mut ws);
        assert_eq!(run.kernel, None);
        assert!(!run.early_exit);
    }

    #[test]
    fn zero_rename_cost_keeps_band_sound() {
        // Free renames: distances can be far below the unit band's guess.
        let cm = PerLabelCost::new(1.0, 1.0, 0.0);
        check_both_sides("{a{b}{c{d}}}", "{x{y{z}}{w}}", &cm);
    }
}
