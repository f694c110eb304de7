//! `search`: inline-tree `range`, `topk` and an occasional `join` over a
//! corpus of small near-duplicate clusters, on a two-shard service with
//! the serve defaults. Candidate generation, the filter pipeline, the
//! planner and scatter-gather across shards do most of the work.

use crate::inputs::{self, near_duplicate, par_map, small_tree, Rng};
use crate::traced::{self, InProcess, Layers};
use crate::wire::{self, Cycle, Op, Req, Server};
use crate::workloads::{self, expect_eq, matches, neighbors, Ctx, Outcome};
use rted_tree::{to_bracket, Tree};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TREES: usize = 2000;
const CLUSTER_SIZES: [usize; 10] = [1, 1, 1, 2, 2, 3, 4, 6, 9, 14];
/// Queries: perturbed corpus members (every op), then fresh trees that
/// match nothing (range only — a top-k for them verifies most of the
/// corpus, and a handful of such requests would decide the whole run).
const PERTURBED: usize = 64;
const FRESH: usize = 16;
const BLOCKS: usize = 80;
/// Strict thresholds: a tiny one the lower bounds settle, and one the
/// bounds cannot decide for most candidates.
const TINY_TAU: f64 = 3.0;
const BLIND_TAU: f64 = 20.0;
const JOIN_TAU: f64 = 2.0;
pub const SHARDS: usize = 2;

/// The request mix of every block of 50 requests (each block shuffled),
/// so any run executes nearly the same mix. The heavy requests cost up to
/// 15× more than one another (a top-10 over an 80-node query against one
/// over a 20-node query); kept below a tenth of the mix, they move
/// throughput while the median and p90 stay on the range queries.
const MIX: [(Kind, usize); 5] = [
    (Kind::RangeTiny, 46),
    (Kind::RangeBlind, 1),
    (Kind::Top1, 1),
    (Kind::Top10, 1),
    (Kind::Join, 1),
];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    RangeTiny,
    RangeBlind,
    Top1,
    Top10,
    Join,
}

struct Input {
    trees: Vec<Tree<String>>,
    queries: Vec<Tree<String>>,
    reqs: Vec<Req>,
    kinds: Vec<Kind>,
    /// The query each request names (ignored for a join).
    query: Vec<usize>,
}

fn generate(seed: u64) -> Input {
    let mut rng = Rng::new(seed, 2);
    let trees = inputs::clustered(&mut rng, TREES, &CLUSTER_SIZES, |k| 20 + k * 37 % 61, 3);
    let queries: Vec<Tree<String>> = (0..PERTURBED + FRESH)
        .map(|q| {
            if q < PERTURBED {
                let t = &trees[rng.below(TREES)];
                near_duplicate(&mut rng, t, (1, 2), "")
            } else {
                small_tree(&mut rng, q, 20 + q * 37 % 61, "")
            }
        })
        .collect();
    let mut schedule = Vec::new();
    for _ in 0..BLOCKS {
        let mut block: Vec<Kind> = MIX
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        rng.shuffle(&mut block);
        schedule.append(&mut block);
    }
    let (mut reqs, mut kinds, mut query) = (Vec::new(), Vec::new(), Vec::new());
    for kind in schedule {
        let q = match kind {
            Kind::RangeTiny | Kind::RangeBlind => rng.below(PERTURBED + FRESH),
            _ => rng.below(PERTURBED),
        };
        let tree = to_bracket(&queries[q]);
        let (op, line) = match kind {
            Kind::RangeTiny => (Op::Range, range_line(&tree, TINY_TAU)),
            Kind::RangeBlind => (Op::Range, range_line(&tree, BLIND_TAU)),
            Kind::Top1 => (Op::TopK, topk_line(&tree, 1)),
            Kind::Top10 => (Op::TopK, topk_line(&tree, 10)),
            Kind::Join => (Op::Join, format!("{{\"op\":\"join\",\"tau\":{JOIN_TAU}}}")),
        };
        kinds.push(kind);
        query.push(q);
        reqs.push(Req {
            op,
            line,
            key: reqs.len(),
        });
    }
    Input {
        trees,
        queries,
        reqs,
        kinds,
        query,
    }
}

fn range_line(tree: &str, tau: f64) -> String {
    format!("{{\"op\":\"range\",\"tree\":\"{tree}\",\"tau\":{tau}}}")
}

fn topk_line(tree: &str, k: usize) -> String {
    format!("{{\"op\":\"topk\",\"tree\":\"{tree}\",\"k\":{k}}}")
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let input = generate(ctx.seed);
    let mut out = Outcome::default();
    let corpus = ctx.file("corpus.txt");
    out.corpus_fnv = crate::report::fnv1a(&inputs::write_corpus(&corpus, &input.trees)?);
    out.requests_fnv = workloads::requests_fnv(input.reqs.iter().map(|r| r.line.as_str()));

    // Reference answers: every query against the corpus, and the join.
    let counts = inputs::counts(&input.trees);
    let numbered: Vec<(usize, &Tree<String>)> = input.queries.iter().enumerate().collect();
    let dists: Vec<Vec<Option<f64>>> = par_map(&numbered, |&(q, tree), ws| {
        let k = if q < PERTURBED { 10 } else { 0 };
        inputs::scan(tree, &input.trees, &counts, BLIND_TAU, k, ws)
    });
    let join = inputs::join_answer(&input.trees, &counts, JOIN_TAU);
    let query = &input.query;

    // `rted serve FILE` stripes tree i to shard i % N under global id i.
    let args = vec![
        wire::path_arg(&corpus),
        "--shards".to_string(),
        SHARDS.to_string(),
    ];
    let server = workloads::set_up_server(ctx, || Ok(0.0), &args, &mut out)?;
    let reqs = Arc::new(input.reqs);
    let stream = |pos, step| Cycle {
        reqs: Arc::clone(&reqs),
        pos,
        step,
    };
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let (_, samples) = wire::closed_loop(&server.addr, vec![stream(0, 2), stream(1, 2)], deadline);
    out.measured_s = t0.elapsed().as_secs_f64();
    out.windows(&samples, t0);
    out.peak_rss_mb = server.peak_rss_mb();
    Server::shutdown(server);

    out.check_samples(&samples, |s, v| {
        let d = &dists[query[s.key]];
        match input.kinds[s.key] {
            Kind::RangeTiny => expect_eq(&neighbors(v), &Some(inputs::range_answer(d, TINY_TAU))),
            Kind::RangeBlind => expect_eq(&neighbors(v), &Some(inputs::range_answer(d, BLIND_TAU))),
            Kind::Top1 => expect_eq(&neighbors(v), &Some(inputs::topk_answer(d, 1))),
            Kind::Top10 => expect_eq(&neighbors(v), &Some(inputs::topk_answer(d, 10))),
            Kind::Join => expect_eq(&matches(v), &Some(join.clone())),
        }
    });

    if ctx.trace {
        let mut l = Layers::default();
        // Kernel probe: each query against its nearest corpus tree.
        let probe: Vec<_> = input
            .queries
            .iter()
            .zip(&dists)
            .take(PERTURBED)
            .map(|(q, d)| (q, &input.trees[inputs::topk_answer(d, 1)[0].0]))
            .collect();
        traced::core_probe(&probe, TINY_TAU, u64::MAX, &mut l);
        traced::index_probe(&input.trees, &mut l);
        let index = ctx.file("corpus.idx");
        wire::index_build(&ctx.rted, &index, &corpus)?;
        traced::open_probe(&index, &ctx.file("probe.idx"), &mut l)?;
        traced::wal_probe(&input.trees, &ctx.file("wal.idx"), &mut l)?;
        l.store_bytes_per_live_byte = traced::bytes_per_live_byte(&index)?;
        let ip = InProcess::striped(&input.trees, SHARDS);
        traced::serve_traced(&ip, || Box::new(stream(0, 1)), &samples, &ctx.spans, &mut l)?;
        ip.server.shutdown();
        out.layers = l.metrics();
    }
    Ok(out)
}
