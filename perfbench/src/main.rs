//! `perfbench`: the end-to-end benchmark of the shipped `rted` binary.
//!
//! ```text
//! perfbench --rted PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's inputs from the seed, drives the binary
//! (`rted index build`, `rted serve --tcp`, one-shot `rted join/search/topk`),
//! checks every answer, and prints a report followed by one JSON result
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! an additional in-process traced run with `--trace 1`. Exits non-zero
//! when any answer is wrong. See `README.md` next to this crate.

mod churn;
mod inputs;
mod oneshot;
mod pairs;
mod report;
mod search;
mod trace;
mod traced;
mod wire;
mod workloads;

use report::{error_rate, result_line, summarize};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

pub const WORKLOADS: [&str; 4] = ["pairs", "search", "churn", "oneshot"];

fn parse_args() -> Result<(Ctx, String), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let workload = flag("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            WORKLOADS.join(" | ")
        ));
    }
    let number = |name: &str| -> Result<f64, String> {
        flag(name)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or(format!("bad {name}"))
    };
    let seed: u64 = flag("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds = number("--seconds")?;
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other}")),
    };
    let rted = PathBuf::from(flag("--rted")?);
    if !rted.is_file() {
        return Err(format!("no rted binary at {}", rted.display()));
    }
    let work = wire::work_dir(&workload, seed)?;
    let spans = work.with_file_name(format!("spans-{workload}-{seed}.jsonl"));
    Ok((
        Ctx {
            rted,
            seed,
            seconds: seconds.max(0.5),
            trace,
            work,
            spans,
        },
        workload,
    ))
}

fn report(workload: &str, ctx: &Ctx, out: &Outcome) {
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!(
        "inputs corpus_fnv={:016x} requests_fnv={:016x}",
        out.corpus_fnv, out.requests_fnv
    );
    for m in out.end_to_end() {
        let n = match m.name.as_str() {
            "setup_s" => format!("n={}", out.setup_s.len()),
            _ => format!("n={} in {} rounds", out.latencies.len(), out.rounds.len()),
        };
        println!("{:<24} {:>14.4} {:<5} {n}", m.name, m.value, m.unit);
    }
    println!("{:<24} {:>14.4} MB    n=1", "peak_rss_mb", out.peak_rss_mb);
    let mut ops: Vec<_> = out.latencies.iter().map(|l| l.0).collect();
    ops.sort();
    ops.dedup();
    for op in ops {
        let v: Vec<f64> = out
            .latencies
            .iter()
            .filter(|l| l.0 == op)
            .map(|l| l.1)
            .collect();
        let s = summarize(&v).expect("op has samples");
        let name = op.name();
        println!(
            "{:<24} {:>14.4} ms    n={}",
            format!("{name}_p50_ms"),
            s.p50,
            s.n
        );
        if let Some((p, v)) = s.tail {
            let label = format!("{name}_p{}_ms", format!("{p}").replace('.', "_"));
            println!("{label:<24} {v:>14.4} ms    n={}", s.n);
        }
    }
    if let Some(r) = out.recover_s {
        println!("{:<24} {:>14.4} s     n=1", "recover_s", r);
    }
    println!(
        "{:<24} {:>14.6} ratio n={} ({} failed)",
        "error_rate",
        error_rate(out.attempted, out.failed),
        out.attempted,
        out.failed
    );
    for f in &out.failures {
        println!("failure: {f}");
    }
    for m in &out.layers {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let (ctx, workload) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "pairs" => pairs::run(&ctx),
        "search" => search::run(&ctx),
        "churn" => churn::run(&ctx),
        _ => oneshot::run(&ctx),
    };
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&workload, &ctx, &out);
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics = if ctx.trace {
        out.layers.clone()
    } else {
        out.end_to_end()
    };
    match result_line(correct, out.attempted.max(1), out.failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        let _ = std::fs::remove_dir_all(&ctx.work);
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
