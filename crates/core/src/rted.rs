//! RTED — the robust tree edit distance algorithm (§6) — and the
//! [`Algorithm`] enum running every competitor of the paper's evaluation
//! through a uniform interface.
//!
//! RTED computes the optimal LRH strategy with Algorithm 2, then runs GTED
//! under it. Its subproblem count is, by construction, at most that of any
//! LRH competitor (Zhang-L/R, Klein-H, Demaine-H) on every input. Per
//! subproblem it costs more than Zhang–Shasha, so [`ted`] and [`ted_with`]
//! do not pin it: they run [`Algorithm::cheapest_exact`]'s pick through
//! [`ted_within`], the rule behind every distance the crate reports.

use crate::bounded::ted_within;
use crate::cell::{with_cells, Cell, Scale};
use crate::cost::CostModel;
use crate::gted::{ExecStats, Gted};
use crate::strategy::{
    compute_strategy_in, DemaineChooser, DemaineHeavy, FixedChooser, OptimalChooser, PathChoice,
    Side,
};
use crate::workspace::Workspace;
use crate::zs::{cheaper_side, zhang_shasha_in};
use rted_tree::{PathKind, Tree};
use std::time::{Duration, Instant};

/// Statistics of one distance computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// The tree edit distance.
    pub distance: f64,
    /// Relevant subproblems actually computed (instrumented DP cells).
    pub subproblems: u64,
    /// Time spent computing the strategy (zero for fixed-strategy
    /// algorithms, which need no strategy phase).
    pub strategy_time: Duration,
    /// Time spent in the distance computation proper.
    pub distance_time: Duration,
    /// Executor counters (zeroed for the standalone Zhang–Shasha runs).
    pub exec: ExecStats,
}

/// How many Zhang–Shasha cells one RTED `|F| · |G|` unit is worth: the
/// exact kernel rule [`Algorithm::cheapest_exact`] runs the cheaper
/// Zhang–Shasha side unless its cells exceed `RTED_CELL_RATIO · |F| · |G|`.
///
/// RTED's strategy computation alone is O(|F| · |G|), and its GTED run
/// (heavy paths, transposed reads) costs more per cell than the keyroot
/// loop. On 120 pairs of 100–500-node trees of every Fig. 7 shape (the
/// end-to-end `pairs` workload's sizes; release, minimum of 3 runs),
/// RTED took 235 ns per `|F| · |G|` and Zhang–Shasha 7.7 ns per cell: a
/// ratio of 30. The mean time per pair was 2.1% above picking the
/// fastest kernel per pair at 30, within 2.4% anywhere from 25 to 40,
/// 25% above at 4.4 and 30% above with RTED everywhere. On every
/// `kernel_split` shape (FB, LB, Random, ZZ at 100 and 300 nodes) the
/// rule picks the fastest of the three kernels.
///
/// Re-checked once every kernel ran on `u32` cells under unit costs: on
/// 120 such pairs (release, minimum of 3), RTED took 95 ns per
/// `|F| · |G|` against 156 before, and Zhang–Shasha 2.9 ns per cell
/// against 6.0, a ratio of 32 against 26. Anywhere from 20 to 50 the mean
/// time per pair stays within 3% of picking the fastest kernel per pair
/// (2.0% at 30), and every `kernel_split` shape still gets its fastest
/// kernel, so the constant stays.
pub const RTED_CELL_RATIO: u64 = 30;

/// The five algorithms evaluated in §8 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Zhang & Shasha's algorithm: always decomposes with left paths
    /// (classic keyroot implementation, hard-coded strategy).
    ZhangL,
    /// The symmetric right-path variant of Zhang & Shasha.
    ZhangR,
    /// Klein's algorithm: heavy paths, always in the left-hand tree.
    KleinH,
    /// Demaine et al.: heavy paths in the larger tree (worst-case optimal).
    DemaineH,
    /// RTED: the optimal LRH strategy computed by Algorithm 2, run by GTED.
    Rted,
}

impl Algorithm {
    /// All five, in the paper's presentation order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::ZhangL,
        Algorithm::ZhangR,
        Algorithm::KleinH,
        Algorithm::DemaineH,
        Algorithm::Rted,
    ];

    /// The display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::ZhangL => "Zhang-L",
            Algorithm::ZhangR => "Zhang-R",
            Algorithm::KleinH => "Klein-H",
            Algorithm::DemaineH => "Demaine-H",
            Algorithm::Rted => "RTED",
        }
    }

    /// Runs the algorithm on `(f, g)` under `cm`, with timing and counters.
    ///
    /// Self-contained (all scratch is freshly allocated and freed); batch
    /// callers should use [`Algorithm::run_in`] with a reused
    /// [`Workspace`] instead.
    pub fn run<L, C: CostModel<L>>(self, f: &Tree<L>, g: &Tree<L>, cm: &C) -> RunStats {
        self.run_in(f, g, cm, &mut Workspace::new())
    }

    /// The cheapest exact kernel for `(f, g)` among Zhang-L, Zhang-R and
    /// RTED. Lemma 3's root counts give each Zhang–Shasha side's exact
    /// cell count in one allocation-free O(|F| + |G|) pass; the cheaper
    /// side (left on ties) runs unless its cells exceed
    /// [`RTED_CELL_RATIO`]` · |F| · |G|`, and RTED runs otherwise. All
    /// three compute the same distance, so the choice changes only the
    /// work.
    ///
    /// ```
    /// use rted_core::Algorithm;
    /// use rted_tree::parse_bracket;
    ///
    /// // Left paths split this left-leaning tree into fewer subforests
    /// // (7 against 9), and its mirror image the other way round.
    /// let f = parse_bracket("{a{b{c}{d}}{e}}").unwrap();
    /// let g = parse_bracket("{a{e}{b{d}{c}}}").unwrap();
    /// assert_eq!(Algorithm::cheapest_exact(&f, &f), Algorithm::ZhangL);
    /// assert_eq!(Algorithm::cheapest_exact(&g, &g), Algorithm::ZhangR);
    /// ```
    pub fn cheapest_exact<L>(f: &Tree<L>, g: &Tree<L>) -> Algorithm {
        let (right, cells) = cheaper_side(f, g);
        let product = (f.len() as u64).saturating_mul(g.len() as u64);
        if cells > RTED_CELL_RATIO.saturating_mul(product) {
            Algorithm::Rted
        } else if right {
            Algorithm::ZhangR
        } else {
            Algorithm::ZhangL
        }
    }

    /// [`Algorithm::run`] drawing every buffer — distance matrix, cost
    /// tables, strategy rows and single-path-function scratch — from `ws`.
    ///
    /// Results are bit-identical to [`Algorithm::run`]. Once the
    /// workspace has served a pair of these (or larger) sizes, the whole
    /// computation performs **zero** heap allocations.
    pub fn run_in<L, C: CostModel<L>>(
        self,
        f: &Tree<L>,
        g: &Tree<L>,
        cm: &C,
        ws: &mut Workspace,
    ) -> RunStats {
        let stats = self.compute_in(f, g, cm, ws);
        ws.note_run(stats.subproblems);
        stats
    }

    /// [`Algorithm::run_in`] without folding the run into the workspace's
    /// counters, on the cell type the pair allows.
    fn compute_in<L, C: CostModel<L>>(
        self,
        f: &Tree<L>,
        g: &Tree<L>,
        cm: &C,
        ws: &mut Workspace,
    ) -> RunStats {
        with_cells!(f, g, cm, |sc| self.compute_cells(f, g, cm, ws, sc))
    }

    /// [`Algorithm::compute_in`] on `T` cells. Leaves the subtree
    /// distances in the workspace's `T` buffers: Zhang–Shasha's view-local
    /// `td` or GTED's `D` (see `mapping.rs`).
    pub(crate) fn compute_cells<L, C: CostModel<L>, T: Cell>(
        self,
        f: &Tree<L>,
        g: &Tree<L>,
        cm: &C,
        ws: &mut Workspace,
        sc: Scale<T>,
    ) -> RunStats {
        match self {
            Algorithm::ZhangL | Algorithm::ZhangR => {
                let start = Instant::now();
                let (distance, subproblems) =
                    zhang_shasha_in(f, g, cm, self == Algorithm::ZhangR, ws, sc);
                RunStats {
                    distance: sc.real(distance),
                    subproblems,
                    strategy_time: Duration::ZERO,
                    distance_time: start.elapsed(),
                    exec: ExecStats::default(),
                }
            }
            Algorithm::KleinH => run_gted_in(
                f,
                g,
                cm,
                &PathChoice {
                    side: Side::F,
                    kind: PathKind::Heavy,
                },
                ws,
                sc,
            ),
            Algorithm::DemaineH => run_gted_in(f, g, cm, &DemaineHeavy, ws, sc),
            Algorithm::Rted => {
                let t0 = Instant::now();
                let strategy = compute_strategy_in(f, g, &OptimalChooser, ws);
                let strategy_time = t0.elapsed();
                let mut stats = run_gted_in(f, g, cm, &strategy, ws, sc);
                stats.strategy_time = strategy_time;
                // Hand the choice matrix back so the next run reuses it.
                ws.recycle(strategy);
                stats
            }
        }
    }

    /// The exact number of relevant subproblems this algorithm computes on
    /// `(f, g)`, via the Fig.-5 cost formula (no distance computation).
    pub fn predicted_subproblems<L>(self, f: &Tree<L>, g: &Tree<L>) -> u64 {
        self.predicted_subproblems_in(f, g, &mut Workspace::new())
    }

    /// [`Algorithm::predicted_subproblems`] drawing scratch from `ws`, for
    /// batch callers evaluating the cost formula over many pairs.
    pub fn predicted_subproblems_in<L>(self, f: &Tree<L>, g: &Tree<L>, ws: &mut Workspace) -> u64 {
        let strategy = match self {
            Algorithm::ZhangL => compute_strategy_in(
                f,
                g,
                &FixedChooser(PathChoice {
                    side: Side::F,
                    kind: PathKind::Left,
                }),
                ws,
            ),
            Algorithm::ZhangR => compute_strategy_in(
                f,
                g,
                &FixedChooser(PathChoice {
                    side: Side::F,
                    kind: PathKind::Right,
                }),
                ws,
            ),
            Algorithm::KleinH => compute_strategy_in(
                f,
                g,
                &FixedChooser(PathChoice {
                    side: Side::F,
                    kind: PathKind::Heavy,
                }),
                ws,
            ),
            Algorithm::DemaineH => compute_strategy_in(f, g, &DemaineChooser, ws),
            Algorithm::Rted => compute_strategy_in(f, g, &OptimalChooser, ws),
        };
        let cost = strategy.cost;
        ws.recycle(strategy);
        cost
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn run_gted_in<L, C, T, S>(
    f: &Tree<L>,
    g: &Tree<L>,
    cm: &C,
    strategy: &S,
    ws: &mut Workspace,
    sc: Scale<T>,
) -> RunStats
where
    C: CostModel<L>,
    T: Cell,
    S: crate::strategy::StrategyProvider<L>,
{
    let start = Instant::now();
    let mut exec = Gted::new(f, g, cm, sc, Some(ws));
    let distance = exec.run(strategy);
    RunStats {
        distance: sc.real(distance),
        subproblems: exec.stats.subproblems,
        strategy_time: Duration::ZERO,
        distance_time: start.elapsed(),
        exec: exec.stats,
    }
}

/// The unit-cost tree edit distance, through [`ted_within`]'s kernel
/// rule at an unbounded budget: [`Algorithm::cheapest_exact`]'s pick.
pub fn ted<L: PartialEq>(f: &Tree<L>, g: &Tree<L>) -> f64 {
    ted_with(f, g, &crate::cost::UnitCost)
}

/// The tree edit distance under a custom cost model, through
/// [`ted_within`]'s kernel rule at an unbounded budget: the same value
/// the index, the server, `rted diff` and every budgeted call report.
pub fn ted_with<L, C: CostModel<L>>(f: &Tree<L>, g: &Tree<L>, cm: &C) -> f64 {
    ted_within(f, g, cm, f64::INFINITY, None, &mut Workspace::new())
        .result
        .value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UnitCost;
    use rted_tree::parse_bracket;

    #[test]
    fn all_algorithms_agree() {
        let cases = [
            ("{a{b}{c{d}}}", "{a{b{d}}{c}}"),
            ("{A{C}{B{G}{E{F}}{D}}}", "{A{B{D}{E{F}}}{C{G}}}"),
            ("{a{b{c{d{e}}}}}", "{e{d{c{b{a}}}}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let runs: Vec<RunStats> = Algorithm::ALL
                .iter()
                .map(|alg| alg.run(&f, &g, &UnitCost))
                .collect();
            for (alg, r) in Algorithm::ALL.iter().zip(&runs) {
                assert_eq!(
                    r.distance, runs[0].distance,
                    "{alg} disagrees on {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn rted_subproblems_minimal() {
        let cases = [
            ("{a{b{c}{d}}{e}}", "{x{y}{z{w{q}}}}"),
            ("{a{b{c{d{e}}}}}", "{a{b}{c}{d}{e}}"),
        ];
        for (a, b) in cases {
            let f = parse_bracket(a).unwrap();
            let g = parse_bracket(b).unwrap();
            let rted = Algorithm::Rted.predicted_subproblems(&f, &g);
            for alg in Algorithm::ALL {
                let p = alg.predicted_subproblems(&f, &g);
                assert!(rted <= p, "{alg}: {p} < RTED {rted} on {a} vs {b}");
            }
        }
    }

    #[test]
    fn measured_matches_predicted_for_every_algorithm() {
        let f = parse_bracket("{a{b{c}{d}}{e{f}{g{h}}}}").unwrap();
        let g = parse_bracket("{A{C}{B{G}{E{F}}{D}}}").unwrap();
        for alg in Algorithm::ALL {
            let run = alg.run(&f, &g, &UnitCost);
            let predicted = alg.predicted_subproblems(&f, &g);
            assert_eq!(run.subproblems, predicted, "{alg}");
        }
    }

    #[test]
    fn ted_helper() {
        let f = parse_bracket("{a{b}{c{d}}}").unwrap();
        let g = parse_bracket("{a{b{d}}{c}}").unwrap();
        assert_eq!(ted(&f, &g), 2.0);
    }
}
