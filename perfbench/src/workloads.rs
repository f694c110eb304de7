//! What every workload shares: the run context, the outcome it reports,
//! server set-up and answer checking.

use crate::report::{median, quantile, Metric};
use crate::wire::{Op, Sample, Server};
use rted_serve::json::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One benchmark invocation.
pub struct Ctx {
    pub rted: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
    /// Where a traced run writes its spans (kept after the run).
    pub spans: PathBuf,
}

impl Ctx {
    pub fn file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// Everything a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub measured_s: f64,
    /// `(op, latency in ms)` of every answered request.
    pub latencies: Vec<(Op, f64)>,
    pub peak_rss_mb: f64,
    pub recover_s: Option<f64>,
    pub corpus_fnv: u64,
    pub requests_fnv: u64,
    /// One summary per round: per round of identical calls (`oneshot`),
    /// or per tenth of the timed phase (server workloads).
    pub rounds: Vec<Round>,
    /// The fastest answered latency in ms of each distinct call, for a
    /// workload whose calls repeat every round (`oneshot`); empty
    /// otherwise.
    pub best_ms: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

/// Slices of a server workload's timed phase.
pub const WINDOWS: usize = 10;

/// Throughput and latency quantiles of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    pub throughput: f64,
    pub p50: f64,
    pub p90: f64,
}

impl Round {
    /// A round's answered requests (with latencies in ms) and its wall
    /// time. Without answers the latencies are NaN.
    pub fn of(done: &[(Op, f64)], secs: f64) -> Round {
        let mut sorted: Vec<f64> = done.iter().map(|l| l.1).collect();
        sorted.sort_by(f64::total_cmp);
        let q = |p| {
            if sorted.is_empty() {
                f64::NAN
            } else {
                quantile(&sorted, p)
            }
        };
        Round {
            throughput: done.len() as f64 / secs,
            p50: q(0.5),
            p90: q(0.9),
        }
    }
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts every sample as attempted and checks each answer.
    pub fn check_samples(
        &mut self,
        samples: &[Sample],
        mut check: impl FnMut(&Sample, &Value) -> Result<(), String>,
    ) {
        for s in samples {
            self.attempted += 1;
            let Some(text) = &s.response else {
                self.fail(format!("{}: no answer (connection failed)", s.op.name()));
                continue;
            };
            self.latencies.push((s.op, s.latency_ns as f64 / 1e6));
            let verdict = match rted_serve::json::parse(text) {
                Err(e) => Err(format!("unparsable answer {e}")),
                Ok(v) if !is_ok(&v) => Err(format!("error answer {}", clip(text))),
                Ok(v) => check(s, &v),
            };
            if let Err(e) = verdict {
                self.fail(format!("{} #{}: {e}", s.op.name(), s.key));
            }
        }
    }

    /// Splits the timed phase, which began at `t0`, into [`WINDOWS`] equal
    /// slices and summarizes each answered request's slice as a round.
    pub fn windows(&mut self, samples: &[Sample], t0: Instant) {
        let width = self.measured_s / WINDOWS as f64;
        let mut slices = vec![Vec::new(); WINDOWS];
        for s in samples.iter().filter(|s| s.response.is_some()) {
            let k = ((s.end - t0).as_secs_f64() / width) as usize;
            slices[k.min(WINDOWS - 1)].push((s.op, s.latency_ns as f64 / 1e6));
        }
        self.rounds = slices.iter().map(|done| Round::of(done, width)).collect();
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    ///
    /// With [`Outcome::best_ms`]: the median and p90 of the distinct
    /// calls' fastest times, and throughput as a client running the calls
    /// one after another at those times (calls ÷ their summed time).
    ///
    /// Otherwise: the best quartile of rounds (the 75th percentile of
    /// round throughputs, the 25th of round p50s and p90s). The host runs
    /// whole seconds at a time up to 1.7× slower; such a figure moves only
    /// when three quarters of a run were slow, while a slower program is
    /// slower in every round.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let setup = Metric::new("setup_s", median(&self.setup_s), "s");
        if !self.best_ms.is_empty() {
            let mut calls = self.best_ms.clone();
            calls.sort_by(f64::total_cmp);
            let total_s = calls.iter().sum::<f64>() / 1e3;
            return vec![
                setup,
                Metric::new("throughput_rps", calls.len() as f64 / total_s, "1/s"),
                Metric::new("p50_ms", quantile(&calls, 0.5), "ms"),
                Metric::new("p90_ms", quantile(&calls, 0.9), "ms"),
            ];
        }
        // A round without answers has a throughput (0) but no latencies.
        let at = |f: fn(&Round) -> f64, q: f64| {
            let mut v: Vec<f64> = self.rounds.iter().map(f).filter(|v| !v.is_nan()).collect();
            v.sort_by(f64::total_cmp);
            if v.is_empty() {
                0.0
            } else {
                quantile(&v, q)
            }
        };
        vec![
            setup,
            Metric::new("throughput_rps", at(|r| r.throughput, 0.75), "1/s"),
            Metric::new("p50_ms", at(|r| r.p50, 0.25), "ms"),
            Metric::new("p90_ms", at(|r| r.p90, 0.25), "ms"),
        ]
    }
}

pub fn is_ok(v: &Value) -> bool {
    v.get("ok") == Some(&Value::Bool(true))
}

pub fn clip(s: &str) -> &str {
    &s[..s.len().min(160)]
}

/// `neighbors` of a range/topk answer as `(id, distance)`.
pub fn neighbors(v: &Value) -> Option<Vec<(usize, f64)>> {
    v.get("neighbors")?
        .as_arr()?
        .iter()
        .map(|n| Some((n.get("id")?.as_usize()?, n.get("distance")?.as_f64()?)))
        .collect()
}

/// `matches` of a join answer as `(left, right, distance)`.
pub fn matches(v: &Value) -> Option<Vec<(usize, usize, f64)>> {
    v.get("matches")?
        .as_arr()?
        .iter()
        .map(|m| {
            Some((
                m.get("left")?.as_usize()?,
                m.get("right")?.as_usize()?,
                m.get("distance")?.as_f64()?,
            ))
        })
        .collect()
}

pub fn expect_eq<T: PartialEq + std::fmt::Debug>(got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let (g, w) = (format!("{got:?}"), format!("{want:?}"));
        Err(format!("got {} want {}", clip(&g), clip(&w)))
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Set-up of a server workload, [`SETUPS`] times: `prepare` (e.g. `rted
/// index build`) then `rted serve` until its first `status` answer. Every
/// server but the last is shut down; each set-up time is recorded.
pub fn set_up_server(
    ctx: &Ctx,
    mut prepare: impl FnMut() -> Result<f64, String>,
    serve_args: &[String],
    out: &mut Outcome,
) -> Result<Server, String> {
    let mut last = None;
    for rep in 0..SETUPS {
        if let Some(server) = last.take() {
            Server::shutdown(server);
        }
        let prepared = prepare()?;
        let log = ctx.file(&format!("serve-{rep}.log"));
        let (server, up) = Server::start(&ctx.rted, serve_args, &log)?;
        out.setup_s.push(prepared + up);
        last = Some(server);
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Fingerprint of a request list.
pub fn requests_fnv<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut bytes = Vec::new();
    for l in lines {
        bytes.extend_from_slice(l.as_bytes());
        bytes.push(b'\n');
    }
    crate::report::fnv1a(&bytes)
}

pub fn copy_file(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to)
        .map(|_| ())
        .map_err(|e| format!("copy {}: {e}", from.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::error_rate;

    fn sample(key: usize, response: Option<&str>) -> Sample {
        Sample {
            op: Op::Distance,
            key,
            latency_ns: 2_000_000,
            end: Instant::now(),
            response: response.map(str::to_string),
        }
    }

    #[test]
    fn wrong_refused_and_lost_answers_all_count_as_failed() {
        let samples = [
            sample(0, Some("{\"ok\":true,\"distance\":3}")),
            sample(1, Some("{\"ok\":true,\"distance\":4}")), // wrong
            sample(2, Some("{\"ok\":false,\"error\":\"distance: no id 9\"}")),
            sample(3, None), // connection failed
            sample(4, Some("not json")),
        ];
        let mut out = Outcome::default();
        out.check_samples(&samples, |s, v| {
            expect_eq(&v.get("distance").and_then(Value::as_f64), &Some(3.0))
                .map_err(|e| format!("{} {e}", s.key))
        });
        assert_eq!((out.attempted, out.failed), (5, 4));
        assert_eq!(error_rate(out.attempted, out.failed), 0.8);
        // Every answered request is timed, failed or not; a lost one is not.
        assert_eq!(out.latencies.len(), 4);
        assert_eq!(out.failures.len(), 4);
        // A durability violation adds to the same count.
        out.attempted += 1;
        out.fail("durability: id 7: acknowledged insert lost".into());
        assert_eq!(error_rate(out.attempted, out.failed), 5.0 / 6.0);
    }

    #[test]
    fn end_to_end_figures_come_from_the_best_quartile_of_rounds() {
        let mut out = Outcome {
            setup_s: vec![0.3, 0.1, 0.2],
            ..Outcome::default()
        };
        let done: Vec<(Op, f64)> = (1..=10).map(|i| (Op::Range, f64::from(i))).collect();
        let fast = Round::of(&done, 2.0);
        assert_eq!(
            fast,
            Round {
                throughput: 5.0,
                p50: 5.0,
                p90: 9.0
            }
        );
        // Two slow rounds out of four move none of the figures.
        let slowed: Vec<(Op, f64)> = done.iter().map(|&(op, ms)| (op, ms * 1.7)).collect();
        let slow = Round::of(&slowed, 3.4);
        out.rounds = vec![slow, fast, slow, fast];
        let m = out.end_to_end();
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "throughput_rps", "p50_ms", "p90_ms"]);
        let values: Vec<f64> = m.iter().map(|m| m.value).collect();
        assert_eq!(values, [0.2, 5.0, 5.0, 9.0]);
    }

    #[test]
    fn per_call_figures_come_from_each_calls_fastest_time() {
        let out = Outcome {
            setup_s: vec![0.1],
            best_ms: vec![400.0, 100.0, 200.0, 300.0],
            // Rounds are ignored once fastest times are known.
            rounds: vec![Round {
                throughput: 1.0,
                p50: 9.0,
                p90: 9.0,
            }],
            ..Outcome::default()
        };
        let values: Vec<f64> = out.end_to_end().iter().map(|m| m.value).collect();
        // Four calls in 1 s; nearest-rank median and p90.
        assert_eq!(values, [0.1, 4.0, 200.0, 400.0]);
    }

    #[test]
    fn windows_slice_the_timed_phase() {
        let t0 = Instant::now();
        let at = |ms: u64, latency_ms: u64, ok: bool| Sample {
            op: Op::Range,
            key: 0,
            latency_ns: latency_ms * 1_000_000,
            end: t0 + std::time::Duration::from_millis(ms),
            response: ok.then(|| "{}".to_string()),
        };
        let mut out = Outcome {
            measured_s: 1.0,
            setup_s: vec![0.1],
            ..Outcome::default()
        };
        // Ten windows of 100 ms; the last answer lands exactly at the end.
        let samples = [
            at(10, 4, true),
            at(50, 6, true),
            at(150, 8, true),
            at(990, 2, false),
            at(1000, 3, true),
        ];
        out.windows(&samples, t0);
        assert_eq!(out.rounds.len(), WINDOWS);
        assert_eq!(
            out.rounds[0],
            Round {
                throughput: 20.0,
                p50: 4.0,
                p90: 6.0
            }
        );
        assert_eq!(
            out.rounds[1],
            Round {
                throughput: 10.0,
                p50: 8.0,
                p90: 8.0
            }
        );
        assert_eq!(out.rounds[5].throughput, 0.0);
        assert!(out.rounds[5].p50.is_nan() && out.rounds[5].p90.is_nan());
        assert_eq!(
            out.rounds[9],
            Round {
                throughput: 10.0,
                p50: 3.0,
                p90: 3.0
            }
        );
        // Empty windows count against throughput only.
        let m = out.end_to_end();
        assert_eq!((m[1].value, m[2].value), (10.0, 3.0));
    }
}
