//! The traced run: the workload's request stream replayed through
//! in-process public calls into `rted_serve`, `rted_index` and
//! `rted_core`, with spans around each call, plus probes of the layers
//! on the workload's own data. Every workload reports the same list of
//! per-layer metrics; a layer a workload does not exercise reads 0 (only
//! counts and shares can: every time is measured on every workload).

use crate::report::{median, Metric};
use crate::trace::{close, open, self_time_by_layer, SpanId, Tracer};
use crate::wire::{Op, Req, Sample, Stream};
use rted_core::{edit_mapping_in, ted_at_most_run, Algorithm, UnitCost, Workspace};
use rted_index::{CorpusStore, Recovery, TotalsSnapshot, TreeIndex};
use rted_obs::{MetricValue, Snapshot};
use rted_serve::{
    parse_request_line, render_response_with, Request, Response, Server, ServerConfig,
};
use rted_tree::Tree;
use std::path::Path;
use std::time::{Duration, Instant};

pub const STAGES: [&str; 6] = ["size", "depth", "leaf", "degree", "histogram", "pqgram"];

/// Every per-layer metric, by layer.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub core_strategy_ns: f64,
    pub core_dp_ns: f64,
    pub core_cells: f64,
    pub core_rted_over_zs: f64,
    pub core_mapping_ns: f64,
    pub core_bounded_cells: f64,
    pub core_early_exit_ratio: f64,
    pub index_build_ns: f64,
    pub index_fork_ns: f64,
    pub index_query_ns: f64,
    pub index_ted_ns: f64,
    pub index_filter_share: f64,
    pub index_candidates: f64,
    pub index_pruned: [f64; 6],
    pub index_verified: f64,
    pub index_match_per_verified: f64,
    pub index_metric_build_ted: f64,
    pub index_metric_routing_ted: f64,
    pub plan: [f64; 6],
    pub serve_call_ns: f64,
    pub serve_wire_overhead_ns: f64,
    pub serve_queue_wait_share: f64,
    pub serve_worker_busy_share: f64,
    pub serve_scatter_share: f64,
    pub proto_parse_ns: f64,
    pub proto_render_ns: f64,
    pub proto_response_bytes: f64,
    pub store_open_ns: f64,
    pub store_wal_append_ns: f64,
    pub store_wal_fsync_ns: f64,
    pub store_compactions: f64,
    pub store_bytes_reclaimed: f64,
    pub store_bytes_per_live_byte: f64,
    /// Self time per layer as a share of traced request time.
    pub self_share: [f64; 5],
    pub trace_overhead_share: f64,
}

pub const SELF_LAYERS: [&str; 5] = ["core", "index", "serve", "proto", "harness"];
const PLAN_NAMES: [&str; 6] = [
    "plan.zs_pairs",
    "plan.bounded_pairs",
    "plan.rted_pairs",
    "plan.linear_queries",
    "plan.metric_queries",
    "plan.reorders",
];

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let mut m = vec![
            Metric::new("core.strategy_ns", self.core_strategy_ns, "ns"),
            Metric::new("core.dp_ns", self.core_dp_ns, "ns"),
            Metric::new("core.cells", self.core_cells, "count"),
            Metric::new(
                "core.ns_per_cell",
                (self.core_strategy_ns + self.core_dp_ns) / self.core_cells.max(1.0),
                "ns",
            ),
            Metric::new("core.rted_over_zs", self.core_rted_over_zs, "ratio"),
            Metric::new("core.mapping_ns", self.core_mapping_ns, "ns"),
            Metric::new("core.bounded_cells", self.core_bounded_cells, "count"),
            Metric::new("core.early_exit_ratio", self.core_early_exit_ratio, "ratio"),
            Metric::new("index.build_ns", self.index_build_ns, "ns"),
            Metric::new("index.fork_ns", self.index_fork_ns, "ns"),
            Metric::new("index.query_ns", self.index_query_ns, "ns"),
            Metric::new("index.ted_ns", self.index_ted_ns, "ns"),
            Metric::new("index.filter_share", self.index_filter_share, "ratio"),
            Metric::new("index.candidates", self.index_candidates, "count"),
        ];
        for (stage, v) in STAGES.iter().zip(self.index_pruned) {
            m.push(Metric::new(format!("index.pruned.{stage}"), v, "count"));
        }
        m.extend([
            Metric::new("index.verified", self.index_verified, "count"),
            Metric::new(
                "index.match_per_verified",
                self.index_match_per_verified,
                "ratio",
            ),
            Metric::new(
                "index.metric_build_ted",
                self.index_metric_build_ted,
                "count",
            ),
            Metric::new(
                "index.metric_routing_ted",
                self.index_metric_routing_ted,
                "count",
            ),
        ]);
        for (name, v) in PLAN_NAMES.iter().zip(self.plan) {
            m.push(Metric::new(*name, v, "count"));
        }
        m.extend([
            Metric::new("serve.call_ns", self.serve_call_ns, "ns"),
            Metric::new("serve.wire_overhead_ns", self.serve_wire_overhead_ns, "ns"),
            Metric::new(
                "serve.queue_wait_share",
                self.serve_queue_wait_share,
                "ratio",
            ),
            Metric::new(
                "serve.worker_busy_share",
                self.serve_worker_busy_share,
                "ratio",
            ),
            Metric::new("serve.scatter_share", self.serve_scatter_share, "ratio"),
            Metric::new("proto.parse_ns", self.proto_parse_ns, "ns"),
            Metric::new("proto.render_ns", self.proto_render_ns, "ns"),
            Metric::new("proto.response_bytes", self.proto_response_bytes, "bytes"),
            Metric::new("store.open_ns", self.store_open_ns, "ns"),
            Metric::new("store.wal_append_ns", self.store_wal_append_ns, "ns"),
            Metric::new("store.wal_fsync_ns", self.store_wal_fsync_ns, "ns"),
            Metric::new("store.compactions", self.store_compactions, "count"),
            Metric::new("store.bytes_reclaimed", self.store_bytes_reclaimed, "bytes"),
            Metric::new(
                "store.bytes_per_live_byte",
                self.store_bytes_per_live_byte,
                "ratio",
            ),
        ]);
        for (layer, v) in SELF_LAYERS.iter().zip(self.self_share) {
            m.push(Metric::new(format!("self.{layer}_share"), v, "ratio"));
        }
        m.push(Metric::new(
            "trace.overhead_share",
            self.trace_overhead_share,
            "ratio",
        ));
        m
    }

    /// Self-time shares from the traced spans.
    pub fn set_self_shares(&mut self, tracer: &Tracer) {
        let by_layer = self_time_by_layer(&tracer.spans);
        let total: u64 = tracer
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        for (slot, layer) in self.self_share.iter_mut().zip(SELF_LAYERS) {
            *slot = by_layer.get(layer).copied().unwrap_or(0) as f64 / total.max(1) as f64;
        }
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn time_ns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (ns(t0.elapsed()), out)
}

/// Kernel probe over the workload's pairs: RTED's strategy/DP split and
/// cells, RTED against the cheaper Zhang–Shasha variant, the edit-mapping
/// kernel (on pairs whose left-path DP stays under `mapping_cells`) and
/// the bounded kernel at `tau`.
pub fn core_probe(
    pairs: &[(&Tree<String>, &Tree<String>)],
    tau: f64,
    mapping_cells: u64,
    l: &mut Layers,
) {
    let mut ws = Workspace::new();
    let n = pairs.len().max(1) as f64;
    let (mut rted_ns, mut zs_ns, mut mapped, mut exits) = (0.0, 0.0, 0usize, 0usize);
    for &(f, g) in pairs {
        Algorithm::Rted.run_in(f, g, &UnitCost, &mut ws); // warm the workspace
        let run = Algorithm::Rted.run_in(f, g, &UnitCost, &mut ws);
        l.core_strategy_ns += ns(run.strategy_time);
        l.core_dp_ns += ns(run.distance_time);
        l.core_cells += run.subproblems as f64;
        rted_ns += ns(run.strategy_time + run.distance_time);
        let zs = crate::inputs::cheaper_zs(f, g)
            .0
            .run_in(f, g, &UnitCost, &mut ws);
        zs_ns += ns(zs.distance_time);
        if crate::inputs::keyroot_mass(f, false) * crate::inputs::keyroot_mass(g, false)
            <= mapping_cells
        {
            l.core_mapping_ns += time_ns(|| edit_mapping_in(f, g, &UnitCost, &mut ws)).0;
            mapped += 1;
        }
        let b = ted_at_most_run(f, g, &UnitCost, tau, &mut ws);
        l.core_bounded_cells += b.subproblems as f64;
        exits += usize::from(b.early_exit);
    }
    l.core_strategy_ns /= n;
    l.core_dp_ns /= n;
    l.core_cells /= n;
    l.core_rted_over_zs = rted_ns / zs_ns.max(1.0);
    l.core_mapping_ns /= mapped.max(1) as f64;
    l.core_bounded_cells /= n;
    l.core_early_exit_ratio = exits as f64 / n;
}

/// Index probe: building the in-memory index over the workload's trees
/// (`TreeCorpus` analysis + `TreeIndex::from_corpus`) and forking it.
pub fn index_probe(trees: &[Tree<String>], l: &mut Layers) {
    let builds: Vec<f64> = (0..3)
        .map(|_| time_ns(|| TreeIndex::build(trees.to_vec())).0)
        .collect();
    l.index_build_ns = median(&builds);
    let index = TreeIndex::build(trees.to_vec());
    let forks: Vec<f64> = (0..21).map(|_| time_ns(|| index.fork()).0).collect();
    l.index_fork_ns = median(&forks);
}

/// Store probe: opening a copy of the workload's corpus file.
pub fn open_probe(index_file: &Path, scratch: &Path, l: &mut Layers) -> Result<(), String> {
    let mut opens = Vec::new();
    for _ in 0..3 {
        crate::workloads::copy_file(index_file, scratch)?;
        let (t, store) = time_ns(|| CorpusStore::open_with(scratch, Recovery::Repair));
        store.map_err(|e| e.to_string())?;
        opens.push(t);
    }
    l.store_open_ns = median(&opens);
    let _ = std::fs::remove_file(scratch);
    Ok(())
}

/// Size of a corpus file over the size of a freshly written file holding
/// only its live trees: the space compaction would reclaim, plus one.
pub fn bytes_per_live_byte(file: &Path) -> Result<f64, String> {
    let on_disk = std::fs::metadata(file).map_err(|e| e.to_string())?.len();
    let live = rted_index::CorpusFile::read(file)
        .and_then(|f| f.corpus_owned())
        .map_err(|e| e.to_string())?;
    Ok(on_disk as f64 / rted_index::encode_corpus(&live).len() as f64)
}

/// Write-path probe for workloads without writes: a durable in-process
/// service over the first trees of the workload inserts and removes a
/// few small batches of them.
pub fn wal_probe(trees: &[Tree<String>], file: &Path, l: &mut Layers) -> Result<(), String> {
    let base: Vec<Tree<String>> = trees.iter().take(32).cloned().collect();
    let store = CorpusStore::create(file, base.clone()).map_err(|e| e.to_string())?;
    let (corpus, log) = store.into_parts();
    let server = Server::start(TreeIndex::from_corpus(corpus), Some(log), config());
    let mut client = server.client();
    let before = metrics(&mut client);
    for batch in base.chunks(4).take(8) {
        let ids = match client.call(Request::Insert {
            trees: batch.to_vec(),
        }) {
            Response::Inserted(ids) => ids,
            other => return Err(format!("probe insert: {other:?}")),
        };
        client.call(Request::Remove { ids });
    }
    let after = metrics(&mut client);
    server.shutdown();
    let _ = std::fs::remove_file(file);
    let d = |name: &str| hist_delta(&before, &after, name);
    l.store_wal_append_ns = d("wal_append_ns").mean();
    l.store_wal_fsync_ns = d("wal_fsync_ns").mean();
    Ok(())
}

/// The service configuration `rted serve --workers 2` uses.
pub fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

pub fn metrics(client: &mut rted_serve::Client) -> Snapshot {
    match client.call(Request::Metrics {
        format: rted_serve::MetricsFormat::Json,
    }) {
        Response::Metrics(s) => s,
        _ => Snapshot::default(),
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Delta {
    pub count: f64,
    pub sum: f64,
}

impl Delta {
    pub fn mean(self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }
}

/// Change of a histogram (count, sum) or counter (sum) between snapshots.
pub fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> Delta {
    let read = |s: &Snapshot| match s.get(name) {
        Some(MetricValue::Histogram(h)) => (h.count as f64, h.sum as f64),
        Some(MetricValue::Counter(c)) => (0.0, *c as f64),
        Some(MetricValue::Gauge(g)) => (0.0, *g as f64),
        None => (0.0, 0.0),
    };
    let (c0, s0) = read(before);
    let (c1, s1) = read(after);
    Delta {
        count: c1 - c0,
        sum: s1 - s0,
    }
}

/// Index totals summed over shard forks (forks share their original's
/// lifetime counters, so they see the service's queries).
pub fn totals(forks: &[TreeIndex<String>]) -> TotalsSnapshot {
    let mut t = TotalsSnapshot::default();
    for f in forks {
        t.merge(&f.totals());
    }
    t
}

/// The index work one request did, from two totals snapshots.
#[derive(Debug, Default, Clone, Copy)]
pub struct IndexWork {
    pub queries: f64,
    pub query_ns: f64,
    pub ted_ns: f64,
    pub candidates: f64,
    pub pruned: [f64; 6],
    pub verified: f64,
    pub routing_ted: f64,
    pub plan: [f64; 6],
}

impl IndexWork {
    pub fn between(a: &TotalsSnapshot, b: &TotalsSnapshot) -> IndexWork {
        let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
        let mut pruned = [0.0; 6];
        for (slot, stage) in pruned.iter_mut().zip(STAGES) {
            let get = |t: &TotalsSnapshot| {
                t.stages
                    .iter()
                    .find(|s| s.stage == stage)
                    .map_or(0, |s| s.pruned)
            };
            *slot = d(get(a), get(b));
        }
        IndexWork {
            queries: d(
                a.range_queries + a.topk_queries + a.join_queries,
                b.range_queries + b.topk_queries + b.join_queries,
            ),
            query_ns: d(a.query_ns, b.query_ns),
            ted_ns: d(a.ted_ns, b.ted_ns),
            candidates: d(a.candidates, b.candidates),
            pruned,
            verified: d(a.verified, b.verified),
            routing_ted: d(a.metric_routing_ted, b.metric_routing_ted),
            plan: [
                d(a.plan_zs_pairs, b.plan_zs_pairs),
                d(a.plan_bounded_pairs, b.plan_bounded_pairs),
                d(a.plan_rted_pairs, b.plan_rted_pairs),
                d(a.plan_linear, b.plan_linear),
                d(a.plan_metric, b.plan_metric),
                d(a.plan_reorders, b.plan_reorders),
            ],
        }
    }

    pub fn add(&mut self, o: &IndexWork) {
        self.queries += o.queries;
        self.query_ns += o.query_ns;
        self.ted_ns += o.ted_ns;
        self.candidates += o.candidates;
        self.verified += o.verified;
        self.routing_ted += o.routing_ted;
        for i in 0..6 {
            self.pruned[i] += o.pruned[i];
            self.plan[i] += o.plan[i];
        }
    }

    /// Time in the index layer: whole queries, or the kernel call of a
    /// point operation (`distance`/`diff`), which the index records as
    /// TED time only.
    pub fn index_ns(&self) -> f64 {
        if self.queries > 0.0 {
            self.query_ns
        } else {
            self.ted_ns
        }
    }
}

/// Answers (neighbours or matches) in a response — the useful outcomes
/// of its verifications.
pub fn answers(r: &Response) -> usize {
    match r {
        Response::Neighbors { neighbors, .. } => neighbors.len(),
        Response::Matches { matches, .. } => matches.len(),
        _ => 0,
    }
}

/// Folds the index work of a pass into per-request layer metrics.
pub fn set_index_metrics(work: &IndexWork, requests: f64, answered: f64, l: &mut Layers) {
    let n = requests.max(1.0);
    let q = work.queries.max(1.0);
    l.index_query_ns = work.index_ns() / n;
    l.index_ted_ns = work.ted_ns / n;
    l.index_filter_share = if work.queries > 0.0 {
        (work.query_ns - work.ted_ns).max(0.0) / work.query_ns.max(1.0)
    } else {
        0.0
    };
    l.index_candidates = work.candidates / q;
    for i in 0..6 {
        l.index_pruned[i] = work.pruned[i] / q;
        l.plan[i] = work.plan[i] / n;
    }
    l.index_verified = work.verified / q;
    l.index_match_per_verified = answered / work.verified.max(1.0);
    l.index_metric_routing_ted = work.routing_ted / q;
}

/// One replay's timings.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall: Duration,
    /// Whole-request time of the untraced and the traced run of each
    /// paired request.
    pub plain: Delta,
    pub traced: Delta,
    /// `Client::call` time of every request.
    pub call: Delta,
}

impl Delta {
    pub fn add(&mut self, v: f64) {
        self.count += 1.0;
        self.sum += v;
    }
}

/// An in-process service like the one `rted serve` runs, plus forks of
/// its shard indexes (for their shared lifetime totals).
pub struct InProcess {
    pub server: Server,
    pub forks: Vec<TreeIndex<String>>,
}

impl InProcess {
    /// `rted serve --index FILE` with one shard: the store's corpus behind
    /// a planner-enabled index, mutations logged to the file.
    pub fn durable(file: &Path) -> Result<InProcess, String> {
        let (store, _) =
            CorpusStore::open_with(file, Recovery::Repair).map_err(|e| e.to_string())?;
        let (corpus, log) = store.into_parts();
        let index = TreeIndex::from_corpus(corpus)
            .with_threads(1)
            .with_metric_tree(false)
            .with_planner(true);
        let forks = vec![index.fork()];
        let server = Server::start_shards(vec![(index, Some(log))], config());
        Ok(InProcess { server, forks })
    }

    /// `rted serve FILE --shards N`: tree `i` is global id `i`, striped
    /// to shard `i % N`.
    pub fn striped(trees: &[Tree<String>], shards: usize) -> InProcess {
        let mut stripes: Vec<Vec<Tree<String>>> = vec![Vec::new(); shards];
        for (i, t) in trees.iter().enumerate() {
            stripes[i % shards].push(t.clone());
        }
        let indexes: Vec<TreeIndex<String>> = stripes
            .into_iter()
            .map(|s| {
                TreeIndex::build(s)
                    .with_threads(1)
                    .with_metric_tree(false)
                    .with_planner(true)
            })
            .collect();
        let forks = indexes.iter().map(TreeIndex::fork).collect();
        let cfg = ServerConfig { shards, ..config() };
        let server = Server::start_shards(indexes.into_iter().map(|i| (i, None)).collect(), cfg);
        InProcess { server, forks }
    }
}

/// One execution of a request in the replay.
struct Exec {
    request_ns: f64,
    parse_ns: f64,
    call_ns: f64,
    render_ns: f64,
    line: String,
    response: Response,
    did: IndexWork,
    call_span: Option<SpanId>,
}

/// Parses, calls and renders one request, with spans when `tracer` is
/// given.
fn exec(
    ip: &InProcess,
    client: &mut rted_serve::Client,
    req: &Req,
    rid: u64,
    mut tracer: Option<&mut Tracer>,
) -> Exec {
    let t_req = Instant::now();
    let root = open(&mut tracer, "request", rid, None);
    let span = open(&mut tracer, "proto.parse", rid, root);
    let (parse_ns, (id, parsed)) = time_ns(|| parse_request_line(&req.line));
    close(&mut tracer, span);
    let request = parsed.expect("the benchmark's own request lines parse");
    let before = totals(&ip.forks);
    let call_span = open(&mut tracer, "serve.call", rid, root);
    let (call_ns, response) = time_ns(|| client.call(request));
    close(&mut tracer, call_span);
    let did = IndexWork::between(&before, &totals(&ip.forks));
    let span = open(&mut tracer, "proto.render", rid, root);
    let (render_ns, line) = time_ns(|| render_response_with(&response, id.as_ref()));
    close(&mut tracer, span);
    close(&mut tracer, root);
    Exec {
        request_ns: ns(t_req.elapsed()),
        parse_ns,
        call_ns,
        render_ns,
        line,
        response,
        did,
        call_span,
    }
}

/// Replays requests through the in-process service for `budget` of wall
/// time. Every request runs once traced: a `request` span with
/// `proto.parse`, `serve.call` and `proto.render` children, the index and
/// kernel work inside the call added from the index's own counters as
/// derived children of `serve.call`. Read requests also run once
/// untraced, before or after the traced run in turn, as the baseline for
/// tracing overhead.
pub fn replay(
    ip: &InProcess,
    stream: &mut dyn Stream,
    budget: Duration,
    tracer: &mut Tracer,
    l: &mut Layers,
) -> Pass {
    let mut client = ip.server.client();
    let started = Instant::now();
    let mut pass = Pass::default();
    let (mut parse_ns, mut render_ns, mut bytes, mut answered) = (0.0, 0.0, 0.0, 0.0);
    let mut work = IndexWork::default();
    let mut calls: Vec<(SpanId, Op, IndexWork)> = Vec::new();
    let mut n = 0;
    while started.elapsed() < budget {
        let req: Req = stream.next();
        let paired = !matches!(req.op, Op::Insert | Op::Remove);
        let rid = n as u64;
        let plain_first = n % 2 == 0;
        if paired && plain_first {
            pass.plain
                .add(exec(ip, &mut client, &req, rid, None).request_ns);
        }
        let e = exec(ip, &mut client, &req, rid, Some(&mut *tracer));
        if paired && !plain_first {
            pass.plain
                .add(exec(ip, &mut client, &req, rid, None).request_ns);
        }
        if paired {
            pass.traced.add(e.request_ns);
        }
        stream.answered(&req, &e.line);
        pass.call.add(e.call_ns);
        parse_ns += e.parse_ns;
        render_ns += e.render_ns;
        bytes += e.line.len() as f64;
        answered += answers(&e.response) as f64;
        work.add(&e.did);
        calls.push((e.call_span.expect("traced"), req.op, e.did));
        n += 1;
    }
    pass.wall = started.elapsed();
    // Derived children of each call: the index layer's share (whole
    // query, or the point operation's kernel call), and the kernel's TED
    // time inside it.
    for (call, op, did) in calls {
        let parent = if matches!(op, Op::Distance | Op::Diff) {
            call
        } else {
            tracer.derived("index.query", call, 0, did.index_ns() as u64)
        };
        tracer.derived("core.ted", parent, 0, did.ted_ns as u64);
    }
    let k = n.max(1) as f64;
    l.proto_parse_ns = parse_ns / k;
    l.proto_render_ns = render_ns / k;
    l.proto_response_bytes = bytes / k;
    set_index_metrics(&work, k, answered, l);
    pass
}

/// The serve-layer shares of one traced pass, from the service's own
/// telemetry: queue wait per unit of call time, worker busy time per
/// unit of worker capacity, scatter-leg time per unit of handler time.
pub fn set_serve_shares(
    before: &Snapshot,
    after: &Snapshot,
    pass: &Pass,
    shards: usize,
    l: &mut Layers,
) {
    let queue = hist_delta(before, after, "serve_queue_wait_ns");
    let busy = hist_delta(before, after, "serve_worker_busy_ns_total");
    let handler: f64 = rted_serve::REQUEST_TYPE_NAMES
        .iter()
        .map(|op| hist_delta(before, after, &format!("serve_latency_{op}_ns")).sum)
        .sum();
    let scatter: f64 = (0..shards)
        .map(|k| hist_delta(before, after, &format!("serve_shard{k}_scatter_ns")).sum)
        .sum();
    let calls = pass.call.sum + pass.plain.sum;
    l.serve_queue_wait_share = queue.sum / calls.max(1.0);
    l.serve_worker_busy_share = busy.sum / (config().workers as f64 * ns(pass.wall)).max(1.0);
    l.serve_scatter_share = scatter / handler.max(1.0);
}

/// Wall-time budget of the in-process replay.
pub const REPLAY_BUDGET: Duration = Duration::from_secs(5);

/// The traced phase of a serve workload: a short warm-up, then one
/// replay.
pub fn serve_traced(
    ip: &InProcess,
    mut make_stream: impl FnMut() -> Box<dyn Stream>,
    wire: &[Sample],
    spans_out: &Path,
    l: &mut Layers,
) -> Result<(), String> {
    // Warm the service's workspaces so the replay pays no first-touch costs.
    let warm = Duration::from_millis(300);
    replay(
        ip,
        &mut *make_stream(),
        warm,
        &mut Tracer::new(),
        &mut Layers::default(),
    );
    let mut client = ip.server.client();
    let before = metrics(&mut client);
    let mut tracer = Tracer::new();
    let pass = replay(ip, &mut *make_stream(), REPLAY_BUDGET, &mut tracer, l);
    let after = metrics(&mut client);
    l.serve_call_ns = pass.call.mean();
    let wire_mean_ns =
        wire.iter().map(|s| s.latency_ns as f64).sum::<f64>() / wire.len().max(1) as f64;
    l.serve_wire_overhead_ns = wire_mean_ns - pass.call.mean();
    set_serve_shares(&before, &after, &pass, ip.forks.len(), l);
    l.trace_overhead_share = pass.traced.mean() / pass.plain.mean().max(1.0) - 1.0;
    l.set_self_shares(&tracer);
    tracer.write_jsonl(spans_out).map_err(|e| e.to_string())
}
