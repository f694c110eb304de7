//! `churn`: small `insert` batches and `remove`s of earlier inserts
//! beside inline `range` queries and id `distance`, on a durable
//! one-shard service with the default compaction fraction. Covers the
//! write-ahead log, snapshot forks, per-insert sketching and background
//! compaction; ends with a `kill -9` while writes are in flight, a
//! restart, and a check that every acknowledged write survived.
//!
//! Inserted trees use labels no base tree or query has, so their
//! distance to any query is at least their size (≥ 30, far above the
//! range threshold): range and distance answers over the fixed base
//! corpus stay exact whatever the writes interleave with.

use crate::inputs::{self, near_duplicate, par_map, small_tree, Rng};
use crate::traced::{self, hist_delta, InProcess, Layers};
use crate::wire::{self, Conn, Op, Req, Server, Stream};
use crate::workloads::{self, expect_eq, neighbors, Ctx, Outcome};
use rted_serve::json::{self, Value};
use rted_tree::{to_bracket, Tree};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE: usize = 1000;
const POOL: usize = 256;
const RANGE_QUERIES: usize = 32;
const DISTANCE_PAIRS: usize = 64;
const BATCH: usize = 16;
const TAU: f64 = 3.0;
/// Each connection's repeating request pattern.
const PATTERN: [Op; 12] = [
    Op::Range,
    Op::Insert,
    Op::Distance,
    Op::Range,
    Op::Remove,
    Op::Range,
    Op::Distance,
    Op::Range,
    Op::Insert,
    Op::Range,
    Op::Remove,
    Op::Distance,
];

struct Input {
    base: Vec<Tree<String>>,
    queries: Vec<Tree<String>>,
    pairs: Vec<(usize, usize)>,
    shared: Arc<Lines>,
}

/// The request lines streams draw from.
struct Lines {
    ranges: Vec<String>,
    distances: Vec<String>,
    pool: Vec<String>,
}

fn generate(seed: u64) -> Input {
    let mut rng = Rng::new(seed, 3);
    let base: Vec<Tree<String>> = (0..BASE)
        .map(|i| small_tree(&mut rng, i, 30 + i % 11, ""))
        .collect();
    let pool: Vec<String> = (0..POOL)
        .map(|i| {
            format!(
                "\"{}\"",
                to_bracket(&small_tree(&mut rng, i, 30 + i % 11, "x"))
            )
        })
        .collect();
    let queries: Vec<Tree<String>> = (0..RANGE_QUERIES)
        .map(|_| {
            let t = &base[rng.below(BASE)];
            near_duplicate(&mut rng, t, (1, 2), "")
        })
        .collect();
    let pairs: Vec<(usize, usize)> = (0..DISTANCE_PAIRS)
        .map(|_| (rng.below(BASE), rng.below(BASE)))
        .collect();
    let ranges = queries
        .iter()
        .map(|q| {
            format!(
                "{{\"op\":\"range\",\"tree\":\"{}\",\"tau\":{TAU}}}",
                to_bracket(q)
            )
        })
        .collect();
    let distances = pairs
        .iter()
        .map(|(l, r)| format!("{{\"op\":\"distance\",\"left\":{l},\"right\":{r}}}"))
        .collect();
    Input {
        base,
        queries,
        pairs,
        shared: Arc::new(Lines {
            ranges,
            distances,
            pool,
        }),
    }
}

/// One connection's requests. Removes take the oldest batch this
/// connection inserted and saw acknowledged.
struct Churn {
    lines: Arc<Lines>,
    rng: Rng,
    pos: usize,
    pool_pos: usize,
    writes_only: bool,
    live: VecDeque<Vec<usize>>,
    removed: Vec<usize>,
    /// A write sent but not (yet) acknowledged.
    pending: Option<Req>,
    pending_ids: Vec<usize>,
}

impl Churn {
    fn new(lines: &Arc<Lines>, seed: u64, conn: u64) -> Churn {
        Churn {
            lines: Arc::clone(lines),
            rng: Rng::new(seed, 30 + conn),
            pos: conn as usize * PATTERN.len() / 2,
            pool_pos: conn as usize * POOL / 2,
            writes_only: false,
            live: VecDeque::new(),
            removed: Vec::new(),
            pending: None,
            pending_ids: Vec::new(),
        }
    }

    fn inserted_live(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().flatten().copied()
    }
}

impl Stream for Churn {
    fn next(&mut self) -> Req {
        let mut op = PATTERN[self.pos % PATTERN.len()];
        self.pos += 1;
        if self.writes_only && !matches!(op, Op::Insert | Op::Remove) {
            op = if self.live.len() > 2 {
                Op::Remove
            } else {
                Op::Insert
            };
        }
        if op == Op::Remove && self.live.is_empty() {
            op = Op::Distance;
        }
        let req = match op {
            Op::Range => {
                let key = self.rng.below(self.lines.ranges.len());
                Req {
                    op,
                    line: self.lines.ranges[key].clone(),
                    key,
                }
            }
            Op::Distance => {
                let key = self.rng.below(self.lines.distances.len());
                Req {
                    op,
                    line: self.lines.distances[key].clone(),
                    key,
                }
            }
            Op::Insert => {
                let trees: Vec<&str> = (0..BATCH)
                    .map(|i| self.lines.pool[(self.pool_pos + i) % POOL].as_str())
                    .collect();
                self.pool_pos += BATCH;
                Req {
                    op,
                    line: format!("{{\"op\":\"insert\",\"trees\":[{}]}}", trees.join(",")),
                    key: BATCH,
                }
            }
            _ => {
                let ids = self.live.pop_front().expect("checked non-empty");
                let list: Vec<String> = ids.iter().map(usize::to_string).collect();
                let req = Req {
                    op,
                    line: format!("{{\"op\":\"remove\",\"ids\":[{}]}}", list.join(",")),
                    key: ids.len(),
                };
                self.pending_ids = ids;
                req
            }
        };
        if matches!(req.op, Op::Insert | Op::Remove) {
            self.pending = Some(req.clone());
        }
        req
    }

    fn answered(&mut self, req: &Req, response: &str) {
        if !matches!(req.op, Op::Insert | Op::Remove) {
            return;
        }
        self.pending = None;
        let Ok(v) = json::parse(response) else { return };
        if !workloads::is_ok(&v) {
            // A refused remove leaves its ids live.
            if req.op == Op::Remove {
                self.live.push_front(std::mem::take(&mut self.pending_ids));
            }
            return;
        }
        match req.op {
            Op::Insert => {
                let ids: Vec<usize> = v
                    .get("ids")
                    .and_then(Value::as_arr)
                    .map(|a| a.iter().filter_map(Value::as_usize).collect())
                    .unwrap_or_default();
                self.live.push_back(ids);
            }
            _ => self.removed.append(&mut self.pending_ids),
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let input = generate(ctx.seed);
    let mut out = Outcome::default();
    let corpus = ctx.file("corpus.txt");
    let index = ctx.file("corpus.idx");
    out.corpus_fnv = crate::report::fnv1a(&inputs::write_corpus(&corpus, &input.base)?);
    let lines = &input.shared;
    out.requests_fnv = workloads::requests_fnv(
        lines
            .ranges
            .iter()
            .chain(&lines.distances)
            .chain(&lines.pool)
            .map(String::as_str),
    );
    let counts = inputs::counts(&input.base);
    let range_want: Vec<Vec<(usize, f64)>> = par_map(&input.queries, |q, ws| {
        inputs::range_answer(&inputs::scan(q, &input.base, &counts, TAU, 0, ws), TAU)
    });
    let dist_want: Vec<f64> = par_map(&input.pairs, |&(i, j), ws| {
        inputs::reference_distance(&input.base[i], &input.base[j], ws)
    });

    let args = vec!["--index".to_string(), wire::path_arg(&index)];
    let server = workloads::set_up_server(
        ctx,
        || wire::index_build(&ctx.rted, &index, &corpus),
        &args,
        &mut out,
    )?;
    let streams = vec![
        Churn::new(lines, ctx.seed, 0),
        Churn::new(lines, ctx.seed, 1),
    ];
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let (mut streams, samples) = wire::closed_loop(&server.addr, streams, deadline);
    out.measured_s = t0.elapsed().as_secs_f64();
    out.windows(&samples, t0);
    out.peak_rss_mb = server.peak_rss_mb();
    let live_before = status_live(&server.addr)?;

    out.check_samples(&samples, |s, v| match s.op {
        Op::Range => expect_eq(&neighbors(v), &Some(range_want[s.key].clone())),
        Op::Distance => expect_eq(
            &v.get("distance").and_then(Value::as_f64),
            &Some(dist_want[s.key]),
        ),
        Op::Insert => expect_eq(
            &v.get("ids").and_then(Value::as_arr).map(<[Value]>::len),
            &Some(s.key),
        ),
        _ => expect_eq(&v.get("removed").and_then(Value::as_usize), &Some(s.key)),
    });
    let expected_live = BASE
        + streams
            .iter()
            .map(|s| s.inserted_live().count())
            .sum::<usize>();
    out.attempted += 1;
    if live_before != expected_live {
        out.fail(format!(
            "live count {live_before}, expected {expected_live}"
        ));
    }

    // Writes in flight, then kill -9.
    let mut writer = streams.swap_remove(0);
    writer.writes_only = true;
    let addr = server.addr.clone();
    let burst = std::thread::spawn(move || {
        if let Ok(mut conn) = Conn::open(&addr) {
            loop {
                let req = writer.next();
                match conn.call(&req.line) {
                    Ok(r) => writer.answered(&req, &r),
                    Err(_) => break,
                }
            }
        }
        writer
    });
    std::thread::sleep(Duration::from_millis(300));
    let mut server = server;
    server.kill();
    let writer = burst.join().map_err(|_| "writer thread panicked")?;
    streams.push(writer);

    let (server, recover) = Server::start(&ctx.rted, &args, &ctx.file("recover.log"))?;
    out.recover_s = Some(recover);
    check_durability(&server.addr, &streams, &mut out)?;
    Server::shutdown(server);

    if ctx.trace {
        let mut l = Layers::default();
        let probe: Vec<_> = input
            .pairs
            .iter()
            .map(|&(i, j)| (&input.base[i], &input.base[j]))
            .collect();
        traced::core_probe(&probe, TAU, u64::MAX, &mut l);
        traced::index_probe(&input.base, &mut l);
        let fresh = ctx.file("fresh.idx");
        wire::index_build(&ctx.rted, &fresh, &corpus)?;
        traced::open_probe(&fresh, &ctx.file("probe.idx"), &mut l)?;
        let ip = InProcess::durable(&fresh)?;
        let mut client = ip.server.client();
        let before = traced::metrics(&mut client);
        let seed = ctx.seed;
        traced::serve_traced(
            &ip,
            || Box::new(Churn::new(lines, seed, 0)),
            &samples,
            &ctx.spans,
            &mut l,
        )?;
        // Let the maintenance thread finish a compaction it may have begun.
        std::thread::sleep(Duration::from_millis(250));
        let after = traced::metrics(&mut client);
        drop(client);
        ip.server.shutdown();
        l.store_wal_append_ns = hist_delta(&before, &after, "wal_append_ns").mean();
        l.store_wal_fsync_ns = hist_delta(&before, &after, "wal_fsync_ns").mean();
        l.store_compactions = hist_delta(&before, &after, "serve_compactions_total").sum;
        l.store_bytes_reclaimed = hist_delta(&before, &after, "wal_bytes_reclaimed_total").sum;
        l.store_bytes_per_live_byte = traced::bytes_per_live_byte(&fresh)?;
        out.layers = l.metrics();
    }
    Ok(out)
}

fn status_live(addr: &str) -> Result<usize, String> {
    let text = Conn::open(addr)
        .and_then(|mut c| c.call("{\"op\":\"status\"}"))
        .map_err(|e| format!("status: {e}"))?;
    json::parse(&text)
        .ok()
        .and_then(|v| v.get("status")?.get("live")?.as_usize())
        .ok_or(format!("bad status answer {}", workloads::clip(&text)))
}

/// After the restart: every acknowledged insert is present, every
/// acknowledged remove absent, and the live count is what the
/// acknowledged writes imply, give or take the one write per connection
/// that was in flight at the kill.
fn check_durability(addr: &str, streams: &[Churn], out: &mut Outcome) -> Result<(), String> {
    // An id `distance` to itself answers 0 when the id is live and an
    // error otherwise.
    let expect: Vec<(usize, bool)> = streams
        .iter()
        .flat_map(|s| {
            let live = s.inserted_live().map(|id| (id, true));
            live.chain(s.removed.iter().map(|&id| (id, false)))
        })
        .collect();
    let lines: Vec<String> = expect
        .iter()
        .map(|(id, _)| format!("{{\"op\":\"distance\",\"left\":{id},\"right\":{id}}}"))
        .collect();
    let answers = Conn::open(addr)
        .and_then(|mut c| c.pipeline(&lines))
        .map_err(|e| format!("durability probes: {e}"))?;
    if answers.len() != lines.len() {
        return Err(format!(
            "{} of {} probes answered",
            answers.len(),
            lines.len()
        ));
    }
    for (i, &(id, live)) in expect.iter().enumerate() {
        out.attempted += 1;
        let present = answers
            .get(i)
            .and_then(|a| json::parse(a).ok())
            .is_some_and(|v| workloads::is_ok(&v));
        if present != live {
            let what = if live {
                "acknowledged insert lost"
            } else {
                "acknowledged remove undone"
            };
            out.fail(format!("durability: id {id}: {what}"));
        }
    }
    let live = status_live(addr)?;
    let acked = BASE
        + streams
            .iter()
            .map(|s| s.inserted_live().count())
            .sum::<usize>();
    // An unacknowledged insert may have landed; an unacknowledged remove
    // may not have (its ids are counted in neither direction above).
    let hi = acked
        + streams
            .iter()
            .map(|s| match s.pending.as_ref().map(|r| r.op) {
                Some(Op::Insert) => BATCH,
                Some(Op::Remove) => s.pending_ids.len(),
                _ => 0,
            })
            .sum::<usize>();
    out.attempted += 1;
    if !(acked..=hi).contains(&live) {
        out.fail(format!(
            "durability: {live} live after restart, expected {acked}..={hi}"
        ));
    }
    Ok(())
}
