//! `oneshot`: one `rted join FILE --tau T`, `rted search FILE Q --tau T`
//! or `rted topk FILE Q` process at a time, every flag at its default.
//! Each call pays index build, pq-gram profiling, the lazy metric-tree
//! build and the planner's cold start.

use crate::inputs::{self, near_duplicate, par_map, small_tree, Rng};
use crate::trace::{self, close, Tracer};
use crate::traced::{self, IndexWork, Layers, Pass};
use crate::wire::{self, Op};
use crate::workloads::{self, expect_eq, Ctx, Outcome, Round};
use rted_index::{TotalsSnapshot, TreeCorpus, TreeIndex};
use rted_serve::{parse_request_line, render_response_with, Response};
use rted_tree::{parse_bracket, to_bracket, Tree};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CORPORA: [usize; 4] = [80, 140, 220, 300];
/// Per corpus: a perturbed member and a fresh tree that matches nothing
/// (both searched), and another perturbed member (top-k).
const QUERIES: usize = 3;
const TAU: f64 = 3.0;
/// The distinct calls: one join, then per corpus two searches and one
/// top-k.
const DISTINCT: usize = 1 + QUERIES * CORPORA.len();
/// Rounds generated. Every round runs each distinct call once, in its own
/// shuffled order; a run stops at the end of the round during which its
/// time is up.
const ROUNDS: usize = 128;
/// The corpus joined: the 140-tree one, where the default metric join
/// costs far more than the linear join. It is the slowest call (about
/// 1.5× the next), so `p50_ms` and `p90_ms` fall on searches, whose cost
/// varies less from seed to seed than a join's. A join of the largest
/// corpus runs for over a second and would dominate every round.
const JOIN_CORPUS: usize = 1;
/// The CLI's default `--k`.
const K: usize = 5;

struct Corpus {
    file: PathBuf,
    trees: Vec<Tree<String>>,
    queries: Vec<Tree<String>>,
}

/// One invocation: corpus, op, query (for search/topk), and its index
/// among the distinct calls.
#[derive(Clone, Copy)]
struct Call {
    corpus: usize,
    op: Op,
    query: usize,
    key: usize,
}

fn generate(ctx: &Ctx) -> Result<(Vec<Corpus>, Vec<Call>, u64), String> {
    let mut rng = Rng::new(ctx.seed, 4);
    let mut bytes = Vec::new();
    let mut corpora = Vec::new();
    for (c, &n) in CORPORA.iter().enumerate() {
        let trees = inputs::clustered(&mut rng, n, &[1, 2, 3, 4], |k| 26 + k % 9, 2);
        let queries = (0..QUERIES)
            .map(|q| {
                if q == 1 {
                    small_tree(&mut rng, q, 26 + q % 9, "")
                } else {
                    let t = &trees[rng.below(n)];
                    near_duplicate(&mut rng, t, (1, 1), "")
                }
            })
            .collect();
        let file = ctx.file(&format!("corpus{c}.txt"));
        bytes.extend(inputs::write_corpus(&file, &trees)?);
        corpora.push(Corpus {
            file,
            trees,
            queries,
        });
    }
    let mut distinct = vec![Call {
        corpus: JOIN_CORPUS,
        op: Op::Join,
        query: 0,
        key: 0,
    }];
    for corpus in 0..CORPORA.len() {
        for (query, op) in [Op::Range, Op::Range, Op::TopK].into_iter().enumerate() {
            let key = distinct.len();
            distinct.push(Call {
                corpus,
                op,
                query,
                key,
            });
        }
    }
    debug_assert_eq!(distinct.len(), DISTINCT);
    let mut calls = Vec::new();
    for _ in 0..ROUNDS {
        let mut round = distinct.clone();
        rng.shuffle(&mut round);
        calls.append(&mut round);
    }
    Ok((corpora, calls, crate::report::fnv1a(&bytes)))
}

fn args(call: &Call, corpora: &[Corpus]) -> Vec<String> {
    let c = &corpora[call.corpus];
    let file = wire::path_arg(&c.file);
    let q = || to_bracket(&c.queries[call.query]);
    match call.op {
        Op::Join => vec!["join".into(), file, "--tau".into(), TAU.to_string()],
        Op::Range => vec!["search".into(), file, q(), "--tau".into(), TAU.to_string()],
        _ => vec!["topk".into(), file, q()],
    }
}

/// The protocol line equivalent to a call, for the traced run.
fn line(call: &Call, corpora: &[Corpus]) -> String {
    let q = || to_bracket(&corpora[call.corpus].queries[call.query]);
    match call.op {
        Op::Join => format!("{{\"op\":\"join\",\"tau\":{TAU}}}"),
        Op::Range => format!("{{\"op\":\"range\",\"tree\":\"{}\",\"tau\":{TAU}}}", q()),
        _ => format!("{{\"op\":\"topk\",\"tree\":\"{}\",\"k\":{K}}}", q()),
    }
}

/// Parses tab-separated numeric output lines.
fn rows(stdout: &str) -> Option<Vec<Vec<f64>>> {
    stdout
        .lines()
        .map(|l| l.split('\t').map(|x| x.parse().ok()).collect())
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (corpora, calls, corpus_fnv) = generate(ctx)?;
    let mut out = Outcome {
        corpus_fnv,
        ..Outcome::default()
    };
    let lines: Vec<String> = calls.iter().map(|c| args(c, &corpora).join(" ")).collect();
    out.requests_fnv = workloads::requests_fnv(lines.iter().map(String::as_str));

    // Reference answers as CLI output rows.
    let mut want_join = Vec::new();
    let mut want_scan = Vec::new();
    for c in &corpora {
        let counts = inputs::counts(&c.trees);
        want_join.push(
            inputs::join_answer(&c.trees, &counts, TAU)
                .into_iter()
                .map(|(l, r, d)| vec![l as f64, r as f64, d])
                .collect::<Vec<_>>(),
        );
        want_scan.push(par_map(&c.queries, |q, ws| {
            inputs::scan(q, &c.trees, &counts, TAU, K, ws)
        }));
    }
    let want = |call: &Call| -> Vec<Vec<f64>> {
        let d = &want_scan[call.corpus][call.query];
        let pairs = match call.op {
            Op::Join => return want_join[call.corpus].clone(),
            Op::Range => inputs::range_answer(d, TAU),
            _ => inputs::topk_answer(d, K),
        };
        pairs.into_iter().map(|(i, d)| vec![i as f64, d]).collect()
    };

    // Set-up: `rted index build` of every corpus (the persistent form of
    // the work each call repeats), `SETUPS` times.
    for _ in 0..workloads::SETUPS {
        let mut total = 0.0;
        for (c, corpus) in corpora.iter().enumerate() {
            total += wire::index_build(
                &ctx.rted,
                &ctx.file(&format!("corpus{c}.idx")),
                &corpus.file,
            )?;
        }
        out.setup_s.push(total);
    }

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let mut walls = Vec::new();
    let mut i = 0;
    let mut round_start = (t0, 0);
    let mut best = [f64::INFINITY; DISTINCT];
    while i % DISTINCT != 0 || Instant::now() < deadline {
        let call = calls[i % calls.len()];
        i += 1;
        out.attempted += 1;
        match wire::run_cli(&ctx.rted, &args(&call, &corpora)) {
            Err(e) => out.fail(e),
            Ok((stdout, secs)) => {
                out.latencies.push((call.op, secs * 1e3));
                best[call.key] = best[call.key].min(secs * 1e3);
                walls.push(secs);
                if let Err(e) = expect_eq(&rows(&stdout), &Some(want(&call))) {
                    out.fail(format!("{}: {e}", lines[(i - 1) % calls.len()]));
                }
            }
        }
        if i % DISTINCT == 0 {
            let done = &out.latencies[round_start.1..];
            out.rounds
                .push(Round::of(done, round_start.0.elapsed().as_secs_f64()));
            round_start = (Instant::now(), out.latencies.len());
        }
    }
    out.measured_s = t0.elapsed().as_secs_f64();
    out.best_ms = best.into_iter().filter(|b| b.is_finite()).collect();
    out.peak_rss_mb = wire::children_peak_rss_mb();

    if ctx.trace {
        let mut l = Layers::default();
        let mut probe = Vec::new();
        for (c, corpus) in corpora.iter().enumerate() {
            for (q, d) in corpus.queries.iter().zip(&want_scan[c]) {
                probe.push((q, &corpus.trees[inputs::topk_answer(d, 1)[0].0]));
            }
        }
        traced::core_probe(&probe, TAU, u64::MAX, &mut l);
        let largest = corpora.last().expect("corpora");
        traced::index_probe(&largest.trees, &mut l);
        let idx = ctx.file(&format!("corpus{}.idx", corpora.len() - 1));
        traced::open_probe(&idx, &ctx.file("probe.idx"), &mut l)?;
        traced::wal_probe(&largest.trees, &ctx.file("wal.idx"), &mut l)?;
        l.store_bytes_per_live_byte = traced::bytes_per_live_byte(&idx)?;
        let mut tracer = Tracer::new();
        let pass = replay(&corpora, &calls, walls.len(), &mut tracer, &mut l)?;
        // The replay repeats the first calls of the timed phase: compare
        // them with their own process wall times.
        let matched = &walls[..pass.call.count as usize];
        let wall_mean = matched.iter().sum::<f64>() / matched.len().max(1) as f64 * 1e9;
        l.serve_call_ns = pass.call.mean();
        l.serve_wire_overhead_ns = wall_mean - pass.call.mean();
        l.trace_overhead_share = pass.traced.mean() / pass.plain.mean().max(1.0) - 1.0;
        l.set_self_shares(&tracer);
        tracer.write_jsonl(&ctx.spans).map_err(|e| e.to_string())?;
        out.layers = l.metrics();
    }
    Ok(out)
}

/// One in-process execution of a call.
struct Run {
    request_ns: f64,
    parse_ns: f64,
    call_ns: f64,
    render_ns: f64,
    bytes: usize,
    answered: usize,
    build_ted: usize,
    work: IndexWork,
}

/// Runs one call in process, as the CLI runs it: load the corpus file,
/// build the index with the CLI's defaults (metric tree and planner on),
/// answer, render — with spans when `tracer` is given.
fn run_call(
    corpora: &[Corpus],
    call: &Call,
    rid: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Run, String> {
    let open =
        |tracer: &mut Option<&mut Tracer>, name, parent| trace::open(tracer, name, rid, parent);
    let text = line(call, corpora);
    let t_req = Instant::now();
    let root = open(&mut tracer, "request", None);
    let span = open(&mut tracer, "proto.parse", root);
    let t = Instant::now();
    let (id, parsed) = parse_request_line(&text);
    parsed.map_err(|e| format!("own line {text}: {e}"))?;
    let parse_ns = t.elapsed().as_nanos() as f64;
    close(&mut tracer, span);

    let t_call = Instant::now();
    let call_span = open(&mut tracer, "serve.call", root);
    let build = open(&mut tracer, "index.build", call_span);
    let source = std::fs::read_to_string(&corpora[call.corpus].file).map_err(|e| e.to_string())?;
    let trees = source
        .lines()
        .map(parse_bracket)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let index = TreeIndex::from_corpus(TreeCorpus::build(trees))
        .with_metric_tree(true)
        .with_planner(true);
    close(&mut tracer, build);
    let query_span = open(&mut tracer, "index.query", call_span);
    let q = &corpora[call.corpus].queries[call.query];
    let (response, ted) = match call.op {
        Op::Join => {
            let r = index.join(TAU);
            let (candidates, verified) = (r.stats.candidates, r.stats.verified);
            let matches = r.matches;
            (
                Response::Matches {
                    matches,
                    candidates,
                    verified,
                },
                r.stats.ted_time,
            )
        }
        op => {
            let r = if op == Op::Range {
                index.range(q, TAU)
            } else {
                index.top_k(q, K)
            };
            (
                Response::Neighbors {
                    neighbors: r.neighbors,
                    candidates: r.stats.candidates,
                    verified: r.stats.verified,
                },
                r.stats.ted_time,
            )
        }
    };
    close(&mut tracer, query_span);
    close(&mut tracer, call_span);
    let call_ns = t_call.elapsed().as_nanos() as f64;
    if let (Some(t), Some(s)) = (tracer.as_mut(), query_span) {
        t.derived("core.ted", s, 0, ted.as_nanos() as u64);
    }

    let span = open(&mut tracer, "proto.render", root);
    let t = Instant::now();
    let rendered = render_response_with(&response, id.as_ref());
    let render_ns = t.elapsed().as_nanos() as f64;
    close(&mut tracer, span);
    close(&mut tracer, root);
    Ok(Run {
        request_ns: t_req.elapsed().as_nanos() as f64,
        parse_ns,
        call_ns,
        render_ns,
        bytes: rendered.len(),
        answered: traced::answers(&response),
        build_ted: index.metric_snapshot().build_ted,
        work: IndexWork::between(&TotalsSnapshot::default(), &index.totals()),
    })
}

/// Replays the first calls (at most `limit`) in process. Every call runs
/// once traced (the per-layer metrics) and once untraced, before or after
/// the traced run in turn (the baseline for tracing overhead).
fn replay(
    corpora: &[Corpus],
    calls: &[Call],
    limit: usize,
    tracer: &mut Tracer,
    l: &mut Layers,
) -> Result<Pass, String> {
    let started = Instant::now();
    let mut pass = Pass::default();
    let (mut parse_ns, mut render_ns, mut bytes) = (0.0, 0.0, 0.0);
    let (mut answered, mut build_ted) = (0.0, 0.0);
    let mut work = IndexWork::default();
    let mut n = 0;
    while n < limit && started.elapsed() < traced::REPLAY_BUDGET {
        let call = &calls[n % calls.len()];
        let rid = n as u64;
        if n % 2 == 0 {
            pass.plain
                .add(run_call(corpora, call, rid, None)?.request_ns);
        }
        let r = run_call(corpora, call, rid, Some(&mut *tracer))?;
        if n % 2 == 1 {
            pass.plain
                .add(run_call(corpora, call, rid, None)?.request_ns);
        }
        pass.traced.add(r.request_ns);
        pass.call.add(r.call_ns);
        parse_ns += r.parse_ns;
        render_ns += r.render_ns;
        bytes += r.bytes as f64;
        answered += r.answered as f64;
        build_ted += r.build_ted as f64;
        work.add(&r.work);
        n += 1;
    }
    pass.wall = started.elapsed();
    let k = n.max(1) as f64;
    l.proto_parse_ns = parse_ns / k;
    l.proto_render_ns = render_ns / k;
    l.proto_response_bytes = bytes / k;
    traced::set_index_metrics(&work, k, answered, l);
    l.index_metric_build_ted = build_ted / k;
    Ok(pass)
}
