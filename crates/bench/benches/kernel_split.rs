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
//! Three more rows per pair measure the kernel-choice rule:
//!
//! * `best-fixed` — the fastest of ZS-L, ZS-R and RTED on this machine,
//!   picked by a quick probe (the minimum of two runs each), as the
//!   `planner` bench picks its best fixed plan;
//! * `best-fixed+auto` — [`Algorithm::cheapest_exact`] and the kernel it
//!   picks, timed together (the rule's counting pass is the strategy
//!   time); CI gates its geometric-mean ratio to `best-fixed` with
//!   `bench_diff --suffix-gate "+auto"`;
//! * `diff` — [`edit_mapping_in`]: the rule's kernel plus the backtrace,
//!   with the cells both add to the workspace's counter.
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

use rted_core::{
    edit_mapping_in, Algorithm, Executor, PathChoice, RunStats, Side, UnitCost, Workspace,
};
use rted_datasets::Shape;
use rted_tree::{PathKind, Tree};
use std::time::{Duration, Instant};

const ROWS: [&str; 8] = [
    "ZS-L",
    "ZS-R",
    "GTED-L",
    "GTED-R",
    "RTED",
    "best-fixed",
    "best-fixed+auto",
    "diff",
];

/// The exact kernels `best-fixed` chooses from, by row name.
const FIXED: [(&str, Algorithm); 3] = [
    ("ZS-L", Algorithm::ZhangL),
    ("ZS-R", Algorithm::ZhangR),
    ("RTED", Algorithm::Rted),
];

/// Sampling stops early once a row has used this much time and has at
/// least three samples (the half-billion-cell rows take seconds per run).
const BUDGET: Duration = Duration::from_secs(3);

/// One timed run of a row other than `best-fixed`: `(strategy, dp,
/// cells)`.
fn run_once(
    row: &str,
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
    match row {
        "GTED-L" => gted(PathKind::Left, ws),
        "GTED-R" => gted(PathKind::Right, ws),
        "best-fixed+auto" => {
            let start = Instant::now();
            let alg = Algorithm::cheapest_exact(f, g);
            let rule = start.elapsed();
            let (strategy, dp, cells) = split(alg.run_in(f, g, &UnitCost, ws));
            (rule + strategy, dp, cells)
        }
        "diff" => {
            let before = ws.lifetime_stats().subproblems;
            let start = Instant::now();
            std::hint::black_box(edit_mapping_in(f, g, &UnitCost, ws));
            let spent = start.elapsed();
            (
                Duration::ZERO,
                spent,
                ws.lifetime_stats().subproblems - before,
            )
        }
        _ => {
            let (_, alg) = FIXED.into_iter().find(|&(name, _)| name == row).unwrap();
            split(alg.run_in(f, g, &UnitCost, ws))
        }
    }
}

/// The fastest of [`FIXED`] on `(f, g)`: the minimum of two runs each.
fn fastest_fixed(f: &Tree<u32>, g: &Tree<u32>, ws: &mut Workspace) -> &'static str {
    let time = |name: &str, ws: &mut Workspace| {
        let (strategy, dp, _) = run_once(name, f, g, ws);
        strategy + dp
    };
    FIXED
        .into_iter()
        .map(|(name, _)| (time(name, ws).min(time(name, ws)), name))
        .min()
        .map(|(_, name)| name)
        .unwrap()
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
    kernel: Option<&'static str>,
}

impl Row {
    fn ns_per_cell(&self) -> f64 {
        self.dp_ns as f64 / self.cells.max(1) as f64
    }

    fn json(&self) -> String {
        let kernel = self
            .kernel
            .map(|k| format!(", \"kernel\": \"{k}\""))
            .unwrap_or_default();
        format!(
            "{{\"group\": \"kernel_split\", \"bench\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \
             \"max_ns\": {}, \"samples\": {}, \"strategy_ns\": {}, \"dp_ns\": {}, \"cells\": {}, \
             \"ns_per_cell\": {:.3}{kernel}}}",
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
            for name in ROWS {
                let label = format!("{}/{n}/{name}", shape.name());
                if !format!("kernel_split/{label}").contains(&filter) {
                    continue;
                }
                // The kernel the row picks, if it picks one; `best-fixed`
                // then runs as that kernel's row.
                let kernel = match name {
                    "best-fixed" => Some(fastest_fixed(&f, &g, &mut ws)),
                    "best-fixed+auto" | "diff" => {
                        let rule = Algorithm::cheapest_exact(&f, &g);
                        FIXED.into_iter().find(|&(_, a)| a == rule).map(|k| k.0)
                    }
                    _ => None,
                };
                let runs_as = if name == "best-fixed" {
                    kernel.unwrap()
                } else {
                    name
                };
                // Warm-up: buffers grow to this pair's sizes.
                let (_, _, cells) = run_once(runs_as, &f, &g, &mut ws);
                let started = Instant::now();
                let mut runs = Vec::new();
                while runs.len() < samples && (runs.len() < 3 || started.elapsed() < BUDGET) {
                    runs.push(run_once(runs_as, &f, &g, &mut ws));
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
                    kernel,
                };
                println!(
                    "{:<28} {:>12} {:>12} {:>12} {:>8.2} {}",
                    row.label,
                    row.strategy_ns,
                    row.dp_ns,
                    row.cells,
                    row.ns_per_cell(),
                    row.kernel.unwrap_or_default()
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
