//! Kernel split: strategy time, DP time, DP cells and ns per cell of the
//! keyroot kernels, per shape × size × algorithm, on a warm workspace.
//!
//! Five runs per pair:
//!
//! * `ZS-L` / `ZS-R` — the Zhang–Shasha keyroot-pair loop
//!   ([`Algorithm::ZhangL`] / [`Algorithm::ZhangR`]);
//! * `GTED-L` / `GTED-R` — GTED under the fixed strategy "left (right)
//!   path of F everywhere", so every cell comes from the single-path
//!   functions `∆L` / `∆R` (public [`Executor`] + [`PathChoice`]);
//! * `RTED` — Algorithm 2's strategy, then GTED with `∆L`/`∆R`/`∆I`.
//!
//! Each figure is the minimum over the samples (up to 10, at least 3 —
//! see [`BUDGET`] — or 2 with `RTED_BENCH_QUICK`); `ns_per_cell` is the minimum DP time over the DP
//! cells. With `RTED_BENCH_JSON_DIR` set the rows are also written to
//! `<dir>/BENCH_kernel_split.json` in the criterion-shim layout
//! (`min_ns` = strategy + DP) plus the split fields, so `bench_diff`
//! reads it like every other bench file. `RTED_BENCH_FILTER` keeps only
//! the rows whose `kernel_split/<shape>/<n>/<algorithm>` label contains
//! the filter.
//!
//! ```bash
//! cargo bench -p rted-bench --bench kernel_split
//! ```

use rted_core::{Algorithm, Executor, PathChoice, RunStats, Side, UnitCost, Workspace};
use rted_datasets::Shape;
use rted_tree::{PathKind, Tree};
use std::time::{Duration, Instant};

const ALGORITHMS: [&str; 5] = ["ZS-L", "ZS-R", "GTED-L", "GTED-R", "RTED"];

/// Sampling stops early once a row has used this much time and has at
/// least three samples (the half-billion-cell rows take seconds per run).
const BUDGET: Duration = Duration::from_secs(3);

/// One timed run: `(strategy, dp, cells)`.
fn run_once(
    alg: &str,
    f: &Tree<u32>,
    g: &Tree<u32>,
    ws: &mut Workspace,
) -> (Duration, Duration, u64) {
    let split = |run: RunStats| (run.strategy_time, run.distance_time, run.subproblems);
    let gted = |kind: PathKind, ws: &mut Workspace| {
        let start = Instant::now();
        let mut exec = Executor::with_workspace(f, g, &UnitCost, ws);
        std::hint::black_box(exec.run(&PathChoice {
            side: Side::F,
            kind,
        }));
        (Duration::ZERO, start.elapsed(), exec.stats.subproblems)
    };
    match alg {
        "ZS-L" => split(Algorithm::ZhangL.run_in(f, g, &UnitCost, ws)),
        "ZS-R" => split(Algorithm::ZhangR.run_in(f, g, &UnitCost, ws)),
        "GTED-L" => gted(PathKind::Left, ws),
        "GTED-R" => gted(PathKind::Right, ws),
        "RTED" => split(Algorithm::Rted.run_in(f, g, &UnitCost, ws)),
        _ => unreachable!("unknown algorithm {alg}"),
    }
}

struct Row {
    label: String,
    mean_ns: u128,
    min_ns: u128,
    max_ns: u128,
    strategy_ns: u128,
    dp_ns: u128,
    cells: u64,
    samples: usize,
}

impl Row {
    fn ns_per_cell(&self) -> f64 {
        self.dp_ns as f64 / self.cells.max(1) as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"group\": \"kernel_split\", \"bench\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \
             \"max_ns\": {}, \"samples\": {}, \"strategy_ns\": {}, \"dp_ns\": {}, \"cells\": {}, \
             \"ns_per_cell\": {:.3}}}",
            self.label,
            self.mean_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.strategy_ns,
            self.dp_ns,
            self.cells,
            self.ns_per_cell()
        )
    }
}

fn main() {
    let quick = std::env::var("RTED_BENCH_QUICK").is_ok_and(|v| v != "0");
    let samples = if quick { 2 } else { 10 };
    let filter = std::env::var("RTED_BENCH_FILTER").unwrap_or_default();
    let mut ws = Workspace::new();
    let mut rows = Vec::new();
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>8}",
        "kernel_split", "strategy_ns", "dp_ns", "cells", "ns/cell"
    );
    for shape in [
        Shape::FullBinary,
        Shape::LeftBranch,
        Shape::Random,
        Shape::ZigZag,
    ] {
        for n in [100usize, 300] {
            let f = shape.generate(n, 7);
            let g = shape.generate(n, 8);
            for alg in ALGORITHMS {
                let label = format!("{}/{n}/{alg}", shape.name());
                if !format!("kernel_split/{label}").contains(&filter) {
                    continue;
                }
                // Warm-up: buffers grow to this pair's sizes.
                let (_, _, cells) = run_once(alg, &f, &g, &mut ws);
                let started = Instant::now();
                let mut runs = Vec::new();
                while runs.len() < samples && (runs.len() < 3 || started.elapsed() < BUDGET) {
                    runs.push(run_once(alg, &f, &g, &mut ws));
                }
                let samples = runs.len();
                let totals: Vec<u128> = runs.iter().map(|r| (r.0 + r.1).as_nanos()).collect();
                let row = Row {
                    label,
                    mean_ns: totals.iter().sum::<u128>() / samples as u128,
                    min_ns: *totals.iter().min().unwrap(),
                    max_ns: *totals.iter().max().unwrap(),
                    strategy_ns: runs.iter().map(|r| r.0.as_nanos()).min().unwrap(),
                    dp_ns: runs.iter().map(|r| r.1.as_nanos()).min().unwrap(),
                    cells,
                    samples,
                };
                println!(
                    "{:<28} {:>12} {:>12} {:>12} {:>8.2}",
                    row.label,
                    row.strategy_ns,
                    row.dp_ns,
                    row.cells,
                    row.ns_per_cell()
                );
                rows.push(row);
            }
        }
    }
    if let Some(dir) = std::env::var_os("RTED_BENCH_JSON_DIR") {
        let body: Vec<String> = rows.iter().map(|r| format!("  {}", r.json())).collect();
        let path = std::path::Path::new(&dir).join("BENCH_kernel_split.json");
        std::fs::create_dir_all(&dir).expect("create the JSON directory");
        std::fs::write(&path, format!("[\n{}\n]\n", body.join(",\n")))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
}
