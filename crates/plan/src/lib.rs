//! `rted-plan` — the adaptive query planner's decision core.
//!
//! RTED's central idea is *dynamic strategy selection*: compute, per
//! input, the decomposition strategy with the fewest subproblems instead
//! of committing to one algorithm shape (Pawlik & Augsten, PVLDB 2011,
//! §5). This crate lifts the same idea from one distance computation to
//! the whole query pipeline. A query has two analogous degrees of
//! freedom, both of which the index historically fixed at construction
//! time:
//!
//! 1. **Candidate generation** — linear size-window scan vs.
//!    metric-tree (vantage-point) routing;
//! 2. **Verification** — the bounded-τ early-exit kernel when the query
//!    supplies a budget and the pair has more than 256 cells, otherwise
//!    the cheapest of Zhang-L, Zhang-R and RTED by the pair's exact cell
//!    counts (`rted_core`'s `Algorithm::cheapest_exact`).
//!
//! Every choice is *answer-invariant* by construction: all verifier
//! arms compute the same exact distance and both candidate generators
//! return the same neighbour set. The planner can therefore never
//! change a result, only the work done to produce it; `rted-index`
//! proptests byte-equality against both fixed configurations. Filter
//! stages always run in the pipeline's construction order.
//!
//! This crate is dependency-free and holds the pure decision logic plus
//! the lock-free observation accumulators; `rted-index` owns the
//! integration (counters), and `rted_core::ted_within` makes the per-pair
//! kernel choice on every query.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which candidate generator a plan selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateGen {
    /// The sorted-size linear scan (window + staged filters).
    Linear,
    /// Vantage-point-tree routing.
    Metric,
}

impl CandidateGen {
    /// Stable lowercase name, used in metrics and wire reports.
    pub fn name(self) -> &'static str {
        match self {
            CandidateGen::Linear => "linear",
            CandidateGen::Metric => "metric",
        }
    }
}

/// Lock-free accumulators for one candidate-generation arm.
#[derive(Debug, Default)]
pub struct ArmStats {
    queries: AtomicU64,
    candidates: AtomicU64,
    verified: AtomicU64,
}

impl ArmStats {
    /// Folds one completed query in (relaxed atomics; recording races
    /// only ever blur the cost estimate, never an answer).
    pub fn observe(&self, candidates: u64, verified: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.candidates.fetch_add(candidates, Ordering::Relaxed);
        self.verified.fetch_add(verified, Ordering::Relaxed);
    }

    /// Queries observed on this arm.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Exact TED computations per candidate — the arm's dominant cost,
    /// `None` until the arm has been sampled. On the metric arm this
    /// includes routing distances, so the two arms are compared on the
    /// same unit: exact distance computations bought per candidate.
    pub fn rate(&self) -> Option<f64> {
        let q = self.queries();
        let c = self.candidates.load(Ordering::Relaxed);
        if q == 0 || c == 0 {
            return None;
        }
        Some(self.verified.load(Ordering::Relaxed) as f64 / c as f64)
    }
}

/// What the planner has seen: one [`ArmStats`] per candidate generator,
/// fed by every query regardless of which component chose the arm — so
/// the crossover estimate keeps learning even while the planner is
/// disabled or overridden.
#[derive(Debug, Default)]
pub struct Observations {
    /// Linear-scan arm.
    pub linear: ArmStats,
    /// Metric-tree arm.
    pub metric: ArmStats,
}

impl Observations {
    /// Chooses the candidate generator for the next query.
    ///
    /// `metric_eligible` is whether the metric path is even available
    /// for this query (metric trees enabled, a finite positive budget
    /// or `k > 0`, non-empty corpus). The rule is deterministic for a
    /// serial query sequence:
    ///
    /// 1. metric ineligible → **linear** (the only sound plan);
    /// 2. metric unsampled → **metric** (the cold start honours the
    ///    *configured* generator — a caller who enabled metric trees
    ///    asked for routing, and the run doubles as the arm's first
    ///    sample, so one-shot processes behave exactly as configured);
    /// 3. linear unsampled → **linear** (one baseline probe);
    /// 4. otherwise → the arm with fewer exact TED computations per
    ///    candidate; ties go **linear** (cheaper constants, and its
    ///    verification parallelizes).
    pub fn choose(&self, metric_eligible: bool) -> CandidateGen {
        if !metric_eligible {
            return CandidateGen::Linear;
        }
        match (self.linear.rate(), self.metric.rate()) {
            (_, None) => CandidateGen::Metric,
            (None, Some(_)) => CandidateGen::Linear,
            (Some(lin), Some(met)) => {
                if met < lin {
                    CandidateGen::Metric
                } else {
                    CandidateGen::Linear
                }
            }
        }
    }
}

/// The decision record for one query (or one `explain` probe): what ran
/// (or would run) and the signals that drove it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Chosen candidate generator.
    pub candidate_gen: CandidateGen,
    /// Filter stages in execution order.
    pub stage_order: Vec<&'static str>,
    /// Whether verification runs the bounded-τ early-exit kernel (a
    /// finite budget exists) instead of the cheapest exact kernel of
    /// each pair; pairs of at most 256 cells run the exact kernel either
    /// way.
    pub budgeted: bool,
    /// Observed linear-arm cost (exact TEDs per candidate), if sampled.
    pub linear_rate: Option<f64>,
    /// Observed metric-arm cost (exact TEDs per candidate), if sampled.
    pub metric_rate: Option<f64>,
    /// Queries observed across both arms.
    pub observed_queries: u64,
}

impl PlanReport {
    /// One human-readable line per decision, for CLI reports.
    pub fn summary_lines(&self) -> Vec<String> {
        let rate = |r: Option<f64>| match r {
            None => "unsampled".to_string(),
            Some(v) => format!("{v:.4} ted/candidate"),
        };
        vec![
            format!(
                "candidate_gen {} (linear {}, metric {}, {} queries observed)",
                self.candidate_gen.name(),
                rate(self.linear_rate),
                rate(self.metric_rate),
                self.observed_queries,
            ),
            format!(
                "verifier {}",
                if self.budgeted {
                    "bounded-tau kernel"
                } else {
                    "cheapest of zhang-l, zhang-r, rted"
                },
            ),
            format!("stage_order {}", self.stage_order.join(",")),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_honours_config_cold_then_probes_then_exploits() {
        let obs = Observations::default();
        // Ineligible queries are always linear, sampled or not.
        assert_eq!(obs.choose(false), CandidateGen::Linear);
        // Cold start on an eligible query: the configured (metric)
        // generator, which doubles as the metric arm's first sample.
        assert_eq!(obs.choose(true), CandidateGen::Metric);
        obs.metric.observe(100, 10);
        // Metric sampled, linear untried: one baseline probe.
        assert_eq!(obs.choose(true), CandidateGen::Linear);
        obs.linear.observe(100, 40);
        // Metric measured cheaper: exploit it (but never when ineligible).
        assert_eq!(obs.choose(true), CandidateGen::Metric);
        assert_eq!(obs.choose(false), CandidateGen::Linear);
        // Flood the metric arm with bad samples: the crossover flips back.
        obs.metric.observe(100, 95);
        obs.metric.observe(100, 95);
        assert_eq!(obs.choose(true), CandidateGen::Linear);
    }

    #[test]
    fn rate_is_none_until_observed() {
        let arm = ArmStats::default();
        assert_eq!(arm.rate(), None);
        arm.observe(200, 50);
        assert_eq!(arm.rate(), Some(0.25));
        assert_eq!(arm.queries(), 1);
    }

    #[test]
    fn ties_go_linear() {
        let obs = Observations::default();
        obs.linear.observe(100, 30);
        obs.metric.observe(100, 30);
        assert_eq!(obs.choose(true), CandidateGen::Linear);
    }

    #[test]
    fn summary_lines_name_every_decision() {
        let report = PlanReport {
            candidate_gen: CandidateGen::Metric,
            stage_order: vec!["size", "leaf"],
            budgeted: true,
            linear_rate: Some(0.5),
            metric_rate: Some(0.125),
            observed_queries: 12,
        };
        let lines = report.summary_lines();
        assert!(lines[0].contains("candidate_gen metric"));
        assert!(lines[1].contains("bounded-tau"));
        let exact = PlanReport {
            budgeted: false,
            ..report
        };
        assert!(exact.summary_lines()[1].contains("cheapest of zhang-l, zhang-r, rted"));
        assert!(lines[2].contains("size,leaf"));
    }
}
