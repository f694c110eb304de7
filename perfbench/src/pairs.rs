//! `pairs`: id-to-id `distance` and `diff` between large trees of every
//! shape, on a one-shard durable service. The kernel does nearly all the
//! work; filters and candidate generation are bypassed.

use crate::inputs::{self, par_map, Kind, Rng, KINDS};
use crate::traced::{self, InProcess, Layers};
use crate::wire::{self, Cycle, Op, Req, Server};
use crate::workloads::{self, expect_eq, Ctx, Outcome};
use rted_tree::Tree;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TREES: usize = 200;
const PAIRS: usize = 160;
const BLOCKS: usize = 40;
/// `diff` extracts its script with the left-path Zhang–Shasha DP; pairs
/// above this many of its cells are served `distance` only.
const DIFF_CELLS: u64 = 40_000_000;
/// Bounded-kernel budget for the core probe.
const PROBE_TAU: f64 = 150.0;

struct Input {
    trees: Vec<Tree<String>>,
    pairs: Vec<(usize, usize)>,
    reqs: Vec<Req>,
}

fn size_range(kind: Kind) -> (usize, usize) {
    match kind {
        // Zig-zag and mixed trees defeat both Zhang–Shasha variants; they
        // stay smaller so the reference answers stay affordable.
        Kind::Shape(rted_datasets::Shape::ZigZag) => (100, 200),
        Kind::Shape(rted_datasets::Shape::Mixed) => (100, 300),
        _ => (100, 500),
    }
}

/// Ranks per kind: tree `i` is rank `i / 9` of kind `i mod 9`, its size
/// growing with the rank.
const RANKS: usize = TREES / KINDS.len();

fn generate(seed: u64) -> Input {
    let mut rng = Rng::new(seed, 1);
    let generated: Vec<Tree<String>> = (0..TREES)
        .map(|i| {
            let kind = KINDS[i % KINDS.len()];
            let (lo, hi) = size_range(kind);
            let n = lo + (hi - lo) * (i / KINDS.len()).min(RANKS - 1) / (RANKS - 1);
            kind.generate(n, rng.next_u64())
        })
        .collect();
    // Ids are a seeded shuffle; which (kind, size) meets which is not: the
    // seed changes labels and random structure, never the pair recipe,
    // so every seed has nearly the same mix of cell counts.
    let mut id_of: Vec<usize> = (0..TREES).collect();
    rng.shuffle(&mut id_of);
    let mut placed: Vec<(usize, Tree<String>)> = generated
        .into_iter()
        .enumerate()
        .map(|(i, t)| (id_of[i], t))
        .collect();
    placed.sort_by_key(|p| p.0);
    let trees: Vec<Tree<String>> = placed.into_iter().map(|p| p.1).collect();
    let nk = KINDS.len();
    let pairs: Vec<(usize, usize)> = (0..PAIRS)
        .map(|p| {
            let (a, shift) = (p / 2 % nk, p / 2 / nk);
            let b = if p % 2 == 0 {
                a
            } else {
                (a + 1 + shift % (nk - 1)) % nk
            };
            let ra = (p * 7 + shift) % RANKS;
            let rb = (ra + 1 + (p * 5 + shift) % (RANKS - 1)) % RANKS;
            (id_of[ra * nk + a], id_of[rb * nk + b])
        })
        .collect();
    let diffable: Vec<usize> = (0..PAIRS)
        .filter(|&p| {
            let (i, j) = pairs[p];
            inputs::keyroot_mass(&trees[i], false) * inputs::keyroot_mass(&trees[j], false)
                <= DIFF_CELLS
        })
        .collect();
    // Blocks of ten requests, eight `distance` and two `diff` in shuffled
    // order; each op walks its own shuffled pass over its pairs, so any
    // run covers nearly the same pairs in nearly the same mix.
    let mut by_distance: Vec<usize> = (0..PAIRS).collect();
    let mut by_diff = diffable;
    rng.shuffle(&mut by_distance);
    rng.shuffle(&mut by_diff);
    let (mut next_distance, mut next_diff) = (0, 0);
    let mut reqs = Vec::with_capacity(BLOCKS * 10);
    for _ in 0..BLOCKS {
        let mut block = [Op::Distance; 10];
        block[..2].fill(Op::Diff);
        rng.shuffle(&mut block);
        for op in block {
            let key = if op == Op::Diff {
                next_diff += 1;
                by_diff[(next_diff - 1) % by_diff.len()]
            } else {
                next_distance += 1;
                by_distance[(next_distance - 1) % PAIRS]
            };
            let (l, r) = pairs[key];
            reqs.push(Req {
                op,
                line: format!("{{\"op\":\"{}\",\"left\":{l},\"right\":{r}}}", op.name()),
                key,
            });
        }
    }
    Input { trees, pairs, reqs }
}

fn stream(reqs: &Arc<Vec<Req>>, pos: usize, step: usize) -> Cycle {
    Cycle {
        reqs: Arc::clone(reqs),
        pos,
        step,
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let input = generate(ctx.seed);
    let mut out = Outcome::default();
    let corpus = ctx.file("corpus.txt");
    let index = ctx.file("corpus.idx");
    out.corpus_fnv = crate::report::fnv1a(&inputs::write_corpus(&corpus, &input.trees)?);
    out.requests_fnv = workloads::requests_fnv(input.reqs.iter().map(|r| r.line.as_str()));
    let want: Vec<f64> = par_map(&input.pairs, |&(i, j), ws| {
        inputs::reference_distance(&input.trees[i], &input.trees[j], ws)
    });

    let args: Vec<String> = vec![
        "--index".into(),
        wire::path_arg(&index),
        "--shards".into(),
        "1".into(),
    ];
    let server = workloads::set_up_server(
        ctx,
        || wire::index_build(&ctx.rted, &index, &corpus),
        &args,
        &mut out,
    )?;
    let reqs = Arc::new(input.reqs);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let (_, samples) = wire::closed_loop(
        &server.addr,
        vec![stream(&reqs, 0, 2), stream(&reqs, 1, 2)],
        deadline,
    );
    out.measured_s = t0.elapsed().as_secs_f64();
    out.windows(&samples, t0);
    out.peak_rss_mb = server.peak_rss_mb();
    Server::shutdown(server);

    out.check_samples(&samples, |s, v| {
        let d = v.get("distance").and_then(|d| d.as_f64());
        expect_eq(&d, &Some(want[s.key]))?;
        if s.op == Op::Diff {
            let (i, j) = input.pairs[s.key];
            let sum = v.get("summary").ok_or("diff without summary")?;
            let count = |k: &str| sum.get(k).and_then(|x| x.as_usize()).unwrap_or(usize::MAX);
            let (keep, rename) = (count("keeps"), count("renames"));
            expect_eq(&(keep + rename + count("deletes")), &input.trees[i].len())?;
            expect_eq(&(keep + rename + count("inserts")), &input.trees[j].len())?;
        }
        Ok(())
    });

    if ctx.trace {
        let mut l = Layers::default();
        let probe: Vec<_> = input
            .pairs
            .iter()
            .take(48)
            .map(|&(i, j)| (&input.trees[i], &input.trees[j]))
            .collect();
        traced::core_probe(&probe, PROBE_TAU, DIFF_CELLS, &mut l);
        traced::index_probe(&input.trees, &mut l);
        traced::open_probe(&index, &ctx.file("probe.idx"), &mut l)?;
        traced::wal_probe(&input.trees, &ctx.file("wal.idx"), &mut l)?;
        let replica = ctx.file("replay.idx");
        workloads::copy_file(&index, &replica)?;
        let ip = InProcess::durable(&replica)?;
        traced::serve_traced(
            &ip,
            || Box::new(stream(&reqs, 0, 1)),
            &samples,
            &ctx.spans,
            &mut l,
        )?;
        ip.server.shutdown();
        l.store_bytes_per_live_byte = traced::bytes_per_live_byte(&replica)?;
        out.layers = l.metrics();
    }
    Ok(out)
}
