//! The long-lived query service: request queue, fixed worker pool,
//! sharded corpus with copy-on-write snapshots, durable mutations, and
//! threshold-driven background compaction.
//!
//! # Architecture
//!
//! ```text
//! Client::call ──▶ queue (Mutex<VecDeque> + Condvar) ──▶ worker 0..W
//!                                                          │ owns one Workspace
//!                                                          ▼ for its lifetime
//!            shard 0..N: RwLock<Arc<TreeIndex>>  ◀── readers pin (Arc::clone)
//!                 │    ▲ publish = one pointer swap
//!                 ▼    │
//!            Mutex<Option<CorpusLog>> per shard  ◀── maintenance thread
//!                 ▲
//!            Mutex<()> writer — serializes mutations across shards
//! ```
//!
//! * **Snapshot isolation.** Each shard's current epoch is an
//!   `Arc<TreeIndex>` behind an `RwLock` that is only ever held for the
//!   duration of a pointer clone or swap — nanoseconds. Queries *pin* a
//!   snapshot (`Arc::clone`) and run entirely against it; writers fork
//!   the pinned snapshot (O(live) pointer copies — trees, pipeline
//!   and scratch pool are all `Arc`-shared), apply the
//!   mutation, and publish with a single swap. Compaction rewrites a
//!   pinned epoch. **No query ever waits on a mutation or a
//!   compaction** — the only contended wait left in the system is the
//!   writer mutex between two mutations.
//! * **Sharding.** The corpus is striped over N independent
//!   [`TreeIndex`] shards by the [`Stripes`] layout: global id `g`
//!   lives on shard `g % N` as local id `g / N`, so freshly assigned ids
//!   stay dense per shard and the mapping needs no routing table.
//!   `range`, `topk` and `join` each run one centralized striped driver
//!   ([`TreeIndex::range_striped`], [`TreeIndex::top_k_striped`],
//!   [`TreeIndex::join_striped`]) over pinned snapshots of all shards,
//!   with shard 0 driving, for any N including 1: answers and counters
//!   are those of one index holding the union, reported under global
//!   ids. `distance`/`diff` and mutations route to exactly the shards
//!   their ids live on.
//! * **Queries** (`range`, `topk`, `distance`, `diff`, `join`) run
//!   concurrently across workers against pinned snapshots. Each worker
//!   borrows one [`Workspace`] from the shared [`WorkspacePool`] for
//!   its whole lifetime, so the id-to-id `distance` path performs
//!   **zero heap allocations** per request once warm (enforced by a
//!   counting-allocator test); striped queries allocate only their
//!   candidate lists and result buffers.
//! * **Mutations** take the writer mutex and build one batch per shard:
//!   `insert` assigns global ids and stripes the trees, `remove` keeps
//!   the ids [`TreeCorpus::live_unique`] finds on each shard. One
//!   `commit` routine then locks every affected shard's log in ascending
//!   shard order, pins their snapshots, appends every batch to its
//!   [`CorpusLog`] **first** (fsynced segment, then header), and only
//!   after every append succeeded forks, applies and publishes each
//!   shard — the log locks are held across the swap so compaction can
//!   never rewrite an epoch that is about to be superseded. An I/O
//!   failure answers the request with an error and publishes nothing;
//!   WAL segments already appended to *other* shards in the same batch
//!   are unacknowledged residue, exactly as if the process had crashed
//!   mid-batch, which a compaction of those shards drops.
//! * **Compaction** is one per-shard routine, `compact_shard`: it takes
//!   that shard's log lock, pins the current epoch and rewrites the
//!   file, so queries and other shards keep flowing and only mutations
//!   touching that shard wait. A dedicated maintenance thread, woken by
//!   mutations and a timer, runs it on every shard with the
//!   `compact_fraction × live` tombstone-backlog trigger; the `compact`
//!   request runs it unconditionally. `serve_compactions_total` counts
//!   file rewrites, one per shard file.
//! * **Shutdown** ([`Server::shutdown`], also on drop) closes the
//!   queue, lets the workers drain every already-accepted request,
//!   then joins all threads.
//!
//! Lock order is **writer, then shard logs ascending** for mutations;
//! compaction takes a single shard log lock and nothing else; snapshot
//! `RwLock`s nest innermost and are never held across work. That
//! ordering keeps the three thread groups deadlock-free.

use crate::metrics::{ns_since, ServeMetrics};
use crate::proto::{MetricsFormat, Request, Response, StatusReport, TreeRef};
use rted_core::{Workspace, WorkspaceStats};
use rted_index::{
    CorpusEntry, CorpusFile, CorpusLog, CorpusStore, PersistError, QueryResult, Recovery,
    RepairReport, Stripes, TotalsSnapshot, TreeCorpus, TreeIndex, WorkspacePool,
};
use rted_tree::Tree;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Recovers the guard from a poisoned lock. The service treats poisoning
/// as survivable: a panicking request handler is answered with an error
/// response (see `worker_loop`) and the shared structures it held are
/// structurally valid Rust values — refusing to ever lock them again
/// would escalate one failed request into a dead service.
pub(crate) fn relock<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Pre-reserved request-queue slots: submissions beyond this still
/// succeed but may grow the queue (one allocation).
const QUEUE_CAPACITY: usize = 1024;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing requests (each owns a workspace).
    pub workers: usize,
    /// Threads *within* one query (`TreeIndex` execution policy). Used
    /// by [`Server::open`] and [`Server::in_memory`] as
    /// `max(query_threads, shards)`, so a striped query keeps an N-way
    /// fan-out; the executor spawns only when a query has at least two
    /// 64-candidate chunks. The default of 1 is right for a 1-shard
    /// server: concurrency comes from the worker pool.
    pub query_threads: usize,
    /// Independent shards the corpus is striped over (clamped to ≥ 1).
    /// Used by [`Server::open`] and [`Server::in_memory`];
    /// [`Server::start`] serves the single index it is given.
    pub shards: usize,
    /// Compact a shard when its `file_tombstones >
    /// compact_fraction × max(live, 1)`; `None` disables background
    /// compaction.
    pub compact_fraction: Option<f64>,
    /// How often the maintenance thread re-checks the trigger even
    /// without a mutation wake-up.
    pub maintenance_interval: Duration,
    /// Route `range`/`topk` queries through the vantage-point tree
    /// (built lazily by the first eligible query, maintained
    /// incrementally across inserts/removes). Only 1-shard servers use
    /// it: a striped query over N ≥ 2 shards always scans linearly.
    /// Results are identical to the linear scan; only the work per query
    /// changes. Off by default — the build spends O(n log n) exact
    /// distances, which only pays off for query-heavy, selective
    /// workloads.
    pub metric_tree: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
            query_threads: 1,
            shards: 1,
            compact_fraction: Some(0.25),
            maintenance_interval: Duration::from_millis(100),
            metric_tree: false,
        }
    }
}

/// A completion slot: the worker publishes the response here and wakes
/// the submitting client.
#[derive(Default)]
struct Gate {
    slot: Mutex<Option<Response>>,
    ready: Condvar,
}

struct Job {
    request: Request,
    gate: Arc<Gate>,
    /// When the job entered the queue — the worker that pops it records
    /// the queue wait into the telemetry histogram.
    enqueued_at: Instant,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// One stripe of the corpus: its current published epoch and its
/// durable log.
struct Shard {
    /// The published snapshot. The lock is held only for `Arc::clone`
    /// (readers) or the publish swap (writers) — never across work.
    snapshot: RwLock<Arc<TreeIndex<String>>>,
    /// `None` = in-memory service (no durability). Mutations hold this
    /// across WAL append *and* snapshot publish; compaction holds it
    /// across the rewrite — so a compactor can never persist an epoch
    /// a concurrent mutation is superseding.
    log: Mutex<Option<CorpusLog>>,
}

pub(crate) struct Shared {
    shards: Vec<Shard>,
    /// Serializes mutations (insert/remove) across all shards, so a
    /// batch spanning shards commits as one unit and `next_global`
    /// needs no CAS loop. Queries never touch it.
    writer: Mutex<()>,
    /// Next global id to assign. Only mutated under `writer`.
    next_global: AtomicU64,
    /// The TCP front-end's bound address, surfaced through `status`.
    pub(crate) tcp_addr: Mutex<Option<String>>,
    queue: Mutex<QueueState>,
    have_jobs: Condvar,
    /// Mutation wake-up flag for the maintenance thread.
    maint_pending: Mutex<bool>,
    maint_wake: Condvar,
    /// One workspace per worker, borrowed for the worker's lifetime.
    pool: WorkspacePool,
    workers: usize,
    requests: AtomicU64,
    /// Pre-registered telemetry handles; every record is a few relaxed
    /// atomic ops, so instrumenting the hot path costs no allocation.
    pub(crate) metrics: ServeMetrics,
}

impl Shared {
    fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// Global id → `(shard, local id)`.
    fn route(&self, global: usize) -> (usize, usize) {
        Stripes::new(self.nshards()).route(global)
    }

    /// Pins shard `s`'s current epoch: an `Arc::clone` under a
    /// momentary read lock — no allocation, and the returned snapshot
    /// stays valid (and immutable) however many mutations or
    /// compactions run while the caller uses it.
    fn pin(&self, s: usize) -> Arc<TreeIndex<String>> {
        Arc::clone(&*relock(self.shards[s].snapshot.read()))
    }

    fn wake_maintenance(&self) {
        *relock(self.maint_pending.lock()) = true;
        self.maint_wake.notify_all();
    }
}

/// A handle for submitting requests. Each client owns one completion
/// slot, reused across calls — so a warm client issuing id-to-id
/// `distance` requests allocates nothing at all.
pub struct Client {
    shared: Arc<Shared>,
    gate: Arc<Gate>,
}

impl Client {
    /// Submits `request` and blocks for its response. Returns an error
    /// response (without blocking) if the server is shutting down.
    pub fn call(&mut self, request: Request) -> Response {
        *relock(self.gate.slot.lock()) = None;
        {
            let mut q = relock(self.shared.queue.lock());
            if q.closed {
                return Response::Error("server is shutting down".into());
            }
            q.jobs.push_back(Job {
                request,
                gate: Arc::clone(&self.gate),
                enqueued_at: Instant::now(),
            });
        }
        self.shared.metrics.queue_depth.add(1);
        self.shared.have_jobs.notify_one();
        let mut slot = relock(self.gate.slot.lock());
        while slot.is_none() {
            slot = relock(self.gate.ready.wait(slot));
        }
        slot.take().expect("loop exits only on Some")
    }
}

/// The running service: worker pool + maintenance thread over N
/// snapshot-isolated shards and (optionally) their durable logs.
pub struct Server {
    pub(crate) shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    maintenance: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a 1-shard service over a pre-built index. Pass the log
    /// half of a [`CorpusStore`] (see [`CorpusStore::into_parts`]) to
    /// make mutations durable; `None` serves purely from memory. The
    /// index is used as configured — set its algorithm/pipeline/threads
    /// first. (`cfg.shards` is ignored here: a pre-built index is one
    /// stripe by construction; use [`Server::open`] or
    /// [`Server::in_memory`] for sharded layouts.)
    pub fn start(index: TreeIndex<String>, log: Option<CorpusLog>, cfg: ServerConfig) -> Server {
        Server::start_shards(vec![(index, log)], cfg)
    }

    /// Starts the service over pre-assembled shards (index + optional
    /// log per stripe, in shard order). Shard `s` of `N` holds the
    /// trees whose global ids are `≡ s (mod N)`, as local ids
    /// `global / N`.
    pub fn start_shards(
        shards: Vec<(TreeIndex<String>, Option<CorpusLog>)>,
        cfg: ServerConfig,
    ) -> Server {
        assert!(!shards.is_empty(), "a server needs at least one shard");
        let n = shards.len();
        let workers = cfg.workers.max(1);
        let persistent = shards.iter().any(|(_, log)| log.is_some());
        let metrics = ServeMetrics::new(n);
        // Recover the global id cursor from the per-shard local bounds:
        // local bound b on shard s means the global id of local b-1 was
        // assigned, so the cursor resumes past the max over shards —
        // crash holes in any one stripe never cause global id reuse.
        let stripes = Stripes::new(n);
        let next_global = shards
            .iter()
            .enumerate()
            .filter_map(|(s, (index, _))| {
                let bound = index.corpus().id_bound();
                (bound > 0).then(|| stripes.global(s, bound - 1) as u64 + 1)
            })
            .max()
            .unwrap_or(0);
        let shards = shards
            .into_iter()
            .map(|(index, log)| Shard {
                snapshot: RwLock::new(Arc::new(index)),
                // Hand each WAL its latency/reclaim handles before it
                // goes behind the lock, so every durable append is
                // timed from the start.
                log: Mutex::new(log.map(|mut log| {
                    log.set_obs(metrics.wal_obs());
                    log
                })),
            })
            .collect();
        let shared = Arc::new(Shared {
            shards,
            writer: Mutex::new(()),
            next_global: AtomicU64::new(next_global),
            tcp_addr: Mutex::new(None),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(QUEUE_CAPACITY),
                closed: false,
            }),
            have_jobs: Condvar::new(),
            maint_pending: Mutex::new(false),
            maint_wake: Condvar::new(),
            pool: WorkspacePool::new(),
            workers,
            requests: AtomicU64::new(0),
            metrics,
        });
        let threads = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let maintenance = match cfg.compact_fraction {
            Some(fraction) if persistent => {
                let shared = Arc::clone(&shared);
                let interval = cfg.maintenance_interval;
                Some(std::thread::spawn(move || {
                    maintenance_loop(&shared, fraction, interval)
                }))
            }
            _ => None,
        };
        Server {
            shared,
            threads,
            maintenance,
        }
    }

    /// Opens (and if torn, recovers) the corpus files for a
    /// `cfg.shards`-stripe layout rooted at `path` and starts a durable
    /// service over them. Shard 0 lives at `path` itself; shard `k > 0`
    /// at `path.shard{k}`. The returned report sums recovery over every
    /// stripe.
    ///
    /// Shard files store *local* ids (global = local × N + shard), so a
    /// layout is only readable under the shard count it was written
    /// with. The open checks it: missing stripe files are created empty
    /// only while shard 0 has never assigned an id (a fresh layout), and
    /// a [`PersistError`] naming both counts refuses a stripe file
    /// missing beside a non-empty shard 0, or a `path.shard{N}` file
    /// beyond the requested `N`. A refused open modifies no stripe file.
    pub fn open(
        path: impl AsRef<Path>,
        recovery: Recovery,
        cfg: ServerConfig,
    ) -> Result<(Server, RepairReport), PersistError> {
        let path = path.as_ref();
        let n = cfg.shards.max(1);
        // Checked before any file is opened, so a refusal repairs nothing.
        let missing = (1..n).any(|k| !shard_path(path, k).exists());
        if shard_path(path, n).exists() || (missing && CorpusFile::read(path)?.header().next_id > 0)
        {
            let found = 1 + (1..).take_while(|&k| shard_path(path, k).exists()).count();
            return Err(PersistError::Io(format!(
                "{} is a {found}-shard layout and cannot be served with {n} shard(s)",
                path.display()
            )));
        }
        let mut shards = Vec::with_capacity(n);
        let mut merged = RepairReport {
            segments_recovered: 0,
            bytes_dropped: 0,
            header_rewritten: false,
            live: 0,
            next_id: 0,
        };
        for k in 0..n {
            let shard_file = shard_path(path, k);
            let store = if k == 0 || shard_file.exists() {
                let (store, report) = CorpusStore::open_with(&shard_file, recovery)?;
                merged.segments_recovered += report.segments_recovered;
                merged.bytes_dropped += report.bytes_dropped;
                merged.header_rewritten |= report.header_rewritten;
                merged.live += report.live;
                store
            } else {
                CorpusStore::create(&shard_file, std::iter::empty())?
            };
            let (corpus, log) = store.into_parts();
            shards.push((shard_index(TreeIndex::from_corpus(corpus), &cfg), Some(log)));
        }
        let server = Server::start_shards(shards, cfg);
        merged.next_id = server.shared.next_global.load(Ordering::Relaxed);
        Ok((server, merged))
    }

    /// Starts a non-durable service over trees held only in memory
    /// (useful for tests and ephemeral corpora), striped over
    /// `cfg.shards` stripes: tree `i` gets global id `i`, exactly as a
    /// 1-shard build would assign.
    pub fn in_memory(trees: impl IntoIterator<Item = Tree<String>>, cfg: ServerConfig) -> Server {
        let n = cfg.shards.max(1);
        let layout = Stripes::new(n);
        let mut stripes: Vec<Vec<Tree<String>>> = (0..n).map(|_| Vec::new()).collect();
        for (i, tree) in trees.into_iter().enumerate() {
            stripes[layout.route(i).0].push(tree);
        }
        let shards = stripes
            .into_iter()
            .map(|stripe| (shard_index(TreeIndex::build(stripe), &cfg), None))
            .collect();
        Server::start_shards(shards, cfg)
    }

    /// A new client handle (its completion slot is the one allocation;
    /// reuse the client to amortize it away).
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            gate: Arc::new(Gate::default()),
        }
    }

    /// One-shot convenience: submit through a fresh client.
    pub fn call(&self, request: Request) -> Response {
        self.client().call(request)
    }

    /// The shard count this server is striped over.
    pub fn shards(&self) -> usize {
        self.shared.nshards()
    }

    /// Graceful shutdown: stops accepting, drains every already-queued
    /// request (their clients still get responses), then joins all
    /// threads. Dropping the server does the same.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut q = relock(self.shared.queue.lock());
            q.closed = true;
        }
        self.shared.have_jobs.notify_all();
        // Through the pending flag, not a bare notify: if the
        // maintenance thread is mid-compaction rather than parked, a
        // notify alone would be missed and shutdown would stall a full
        // maintenance interval.
        self.shared.wake_maintenance();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(m) = self.maintenance.take() {
            let _ = m.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One shard of a `cfg.shards`-stripe layout, configured by `cfg`: the
/// adaptive planner picks each query's candidate generator (answers are
/// byte-identical to any fixed choice), the query fan-out is at least
/// the shard count, and the vantage-point tree is enabled only on a
/// 1-shard layout (striped queries over several shards always scan
/// linearly, so it would never be used).
fn shard_index(index: TreeIndex<String>, cfg: &ServerConfig) -> TreeIndex<String> {
    index
        .with_threads(cfg.query_threads.max(cfg.shards))
        .with_metric_tree(cfg.metric_tree && cfg.shards <= 1)
        .with_planner(true)
}

/// Shard `k`'s backing file under a root path: the root itself for
/// shard 0 (so 1-shard layouts are plain corpus files), `.shard{k}`
/// suffixed siblings otherwise.
fn shard_path(path: &Path, k: usize) -> PathBuf {
    if k == 0 {
        return path.to_path_buf();
    }
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".shard{k}"));
    PathBuf::from(os)
}

fn worker_loop(shared: &Shared) {
    // This worker's scratch for its whole lifetime: every request it
    // serves reuses the same warm buffers.
    let mut ws = shared.pool.take();
    // Workspace lifetime counters published so far — the core layer
    // stays free of atomics; this worker folds the deltas upward after
    // each request.
    let mut published = WorkspaceStats::default();
    loop {
        let job = {
            let mut q = relock(shared.queue.lock());
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                q = relock(shared.have_jobs.wait(q));
            }
        };
        let Some(job) = job else { break };
        shared.metrics.queue_depth.add(-1);
        shared
            .metrics
            .queue_wait_ns
            .record(ns_since(job.enqueued_at));
        let kind = job.request.kind();
        // A panicking handler must not strand its client (the gate would
        // never fill and `Client::call` would block forever) nor kill
        // this worker: catch the unwind and answer with an error. Locks
        // the handler poisoned on the way out are recovered by `relock`.
        let request = job.request;
        let started = Instant::now();
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle(shared, ws.get(), request)
        }))
        .unwrap_or_else(|_| Response::Error("internal error: request handler panicked".into()));
        let elapsed = ns_since(started);
        if let Some(kind) = kind {
            shared.metrics.latency_of(kind).record(elapsed);
        }
        shared.metrics.worker_busy_ns.add(elapsed);
        if matches!(response, Response::Error(_)) {
            shared.metrics.errors.inc();
        }
        let stats = ws.get().lifetime_stats();
        shared
            .metrics
            .core_ted_runs
            .add(stats.ted_runs - published.ted_runs);
        shared
            .metrics
            .core_subproblems
            .add(stats.subproblems - published.subproblems);
        shared
            .metrics
            .core_rows_peak
            .raise_to(i64::try_from(stats.strategy_rows_peak).unwrap_or(i64::MAX));
        published = stats;
        shared.requests.fetch_add(1, Ordering::Relaxed);
        *relock(job.gate.slot.lock()) = Some(response);
        job.gate.ready.notify_one();
    }
}

/// Runs one striped query over pinned snapshots of every shard. The
/// driver fans the work out over its own threads, so every shard takes
/// part in the one pass and gets one query mark, one depth bump and the
/// pass's wall time.
fn striped<T>(shared: &Shared, query: impl FnOnce(&[&TreeIndex<String>]) -> T) -> T {
    let n = shared.nshards();
    shared.metrics.scatter_fanout.record(n as u64);
    let pins: Vec<Arc<TreeIndex<String>>> = (0..n).map(|s| shared.pin(s)).collect();
    let refs: Vec<&TreeIndex<String>> = pins.iter().map(Arc::as_ref).collect();
    for s in 0..n {
        shared.metrics.shard(s).depth.add(1);
    }
    let started = Instant::now();
    let out = query(&refs);
    let elapsed = ns_since(started);
    for s in 0..n {
        let m = shared.metrics.shard(s);
        m.scatter_ns.record(elapsed);
        m.queries.inc();
        m.depth.add(-1);
    }
    out
}

/// A `range`/`topk` answer on the wire.
fn neighbors(res: QueryResult) -> Response {
    Response::Neighbors {
        neighbors: res.neighbors,
        candidates: res.stats.candidates,
        verified: res.stats.verified,
    }
}

fn handle(shared: &Shared, ws: &mut Workspace, request: Request) -> Response {
    match request {
        Request::Range { tree, tau } => neighbors(striped(shared, |pins| {
            TreeIndex::range_striped(pins, &tree, tau)
        })),
        Request::TopK { tree, k } => neighbors(striped(shared, |pins| {
            TreeIndex::top_k_striped(pins, &tree, k)
        })),
        Request::Join { tau } => {
            let out = striped(shared, |pins| TreeIndex::join_striped(pins, tau));
            Response::Matches {
                matches: out.matches,
                candidates: out.stats.candidates,
                verified: out.stats.verified,
            }
        }
        Request::Distance {
            left,
            right,
            at_most,
        } => with_operands(shared, &left, &right, |index, f, g| {
            // τ = ∞ is the exact distance; a finite budget lets the
            // bounded kernel stop the moment it is provably blown,
            // answering with a certified lower bound instead.
            match index.distance_within(f, g, at_most, ws).result {
                rted_core::BoundedResult::Exact(d) => Response::Distance(d),
                rted_core::BoundedResult::Exceeds(lb) => Response::DistanceExceeds(lb),
            }
        }),
        Request::Diff { left, right } => with_operands(shared, &left, &right, |index, f, g| {
            Response::Diff(index.diff_in(f, g, ws).script(f, g))
        }),
        Request::Insert { trees } => {
            // Analyze outside every lock — the expensive part.
            let entries: Vec<Arc<CorpusEntry<String>>> = trees
                .into_iter()
                .map(|tree| Arc::new(CorpusEntry::analyze(tree)))
                .collect();
            let _writer = relock(shared.writer.lock());
            let base = shared.next_global.load(Ordering::Relaxed) as usize;
            let ids: Vec<usize> = (base..base + entries.len()).collect();
            let mut stripes: Vec<Vec<_>> = vec![Vec::new(); shared.nshards()];
            for (&id, entry) in ids.iter().zip(entries) {
                let (s, local) = shared.route(id);
                stripes[s].push((local, entry));
            }
            let appended = commit(
                shared,
                "insert",
                &stripes,
                |log, before, batch| {
                    let entries: Vec<_> = batch.iter().map(|(l, e)| (*l, e.as_ref())).collect();
                    log.append_trees(before, &entries)
                },
                |next, batch| {
                    for (local, entry) in batch {
                        next.insert_entry_at(*local, Arc::clone(entry));
                    }
                },
            );
            match appended {
                Ok(()) => {
                    shared
                        .next_global
                        .store((base + ids.len()) as u64, Ordering::Relaxed);
                    Response::Inserted(ids)
                }
                Err(msg) => Response::Error(msg),
            }
        }
        Request::Remove { ids } => {
            let _writer = relock(shared.writer.lock());
            let mut stripes = vec![Vec::new(); shared.nshards()];
            for &id in &ids {
                let (s, local) = shared.route(id);
                stripes[s].push(local);
            }
            // Pinned under the writer mutex, these snapshots are the
            // epochs `commit` will mutate, so the liveness check holds.
            let batches: Vec<Vec<usize>> = (stripes.iter().enumerate())
                .map(|(s, locals)| shared.pin(s).corpus().live_unique(locals))
                .collect();
            let appended = commit(
                shared,
                "remove",
                &batches,
                |log, before, ids| log.append_tombstones(before, ids),
                |next, ids| {
                    for &local in ids {
                        next.remove(local);
                    }
                },
            );
            match appended {
                Ok(()) => Response::Removed(batches.iter().map(Vec::len).sum()),
                Err(msg) => Response::Error(msg),
            }
        }
        Request::Status => {
            let n = shared.nshards();
            let pins: Vec<Arc<TreeIndex<String>>> = (0..n).map(|s| shared.pin(s)).collect();
            let shard_live: Vec<usize> = pins.iter().map(|p| p.corpus().len()).collect();
            let live: usize = shard_live.iter().sum();
            let (mut segments, mut file_tombstones, mut persistent) = (0, 0, false);
            let mut shard_tombstones = Vec::with_capacity(n);
            for shard in &shared.shards {
                let log = relock(shard.log.lock());
                persistent |= log.is_some();
                segments += log.as_ref().map_or(0, CorpusLog::segment_count);
                let tombs = log.as_ref().map_or(0, CorpusLog::tombstone_count);
                file_tombstones += tombs;
                shard_tombstones.push(tombs);
            }
            let (mut metric_built, mut metric_pending, mut metric_tombstones) = (0, 0, 0);
            let mut metric_tree = false;
            for pin in &pins {
                let metric = pin.metric_snapshot();
                metric_tree |= metric.enabled;
                metric_built += metric.built;
                metric_pending += metric.pending;
                metric_tombstones += metric.tombstones;
            }
            // Global id accounting: the stripe mapping means the global
            // id space is exactly [0, next_global), and every id not
            // live on its shard is a hole.
            let id_bound = shared.next_global.load(Ordering::Relaxed) as usize;
            Response::Status(StatusReport {
                live,
                id_bound,
                holes: id_bound - live,
                persistent,
                segments,
                file_tombstones,
                workers: shared.workers,
                shards: n,
                shard_live,
                shard_tombstones,
                tcp: relock(shared.tcp_addr.lock()).clone(),
                requests: shared.requests.load(Ordering::Relaxed),
                compactions: shared.metrics.compactions.get(),
                metric_tree,
                metric_built,
                metric_pending,
                metric_tombstones,
                uptime_secs: shared.metrics.uptime_secs(),
                requests_by_type: shared.metrics.per_type_counts(),
            })
        }
        Request::Compact => {
            let mut reclaimable = None;
            for s in 0..shared.nshards() {
                match compact_shard(shared, s, None) {
                    Ok(None) => {}
                    Ok(Some(r)) => reclaimable = Some(r | reclaimable.unwrap_or(false)),
                    Err(e) => return Response::Error(format!("compaction failed: {e}")),
                }
            }
            match reclaimable {
                Some(r) => Response::Compacted(r),
                None => Response::Error("service is not persistent (nothing to compact)".into()),
            }
        }
        Request::Metrics { format } => {
            // The service registry plus every shard's lifetime totals,
            // merged into one service-wide `index_*` family.
            let mut snap = shared.metrics.snapshot();
            let mut totals = TotalsSnapshot::default();
            for s in 0..shared.nshards() {
                totals.merge(&shared.pin(s).totals());
            }
            totals.push_metrics(&mut snap);
            snap.push(
                "serve_requests_total",
                rted_obs::MetricValue::Counter(shared.requests.load(Ordering::Relaxed)),
            );
            match format {
                MetricsFormat::Json => Response::Metrics(snap),
                MetricsFormat::Prometheus => Response::MetricsText(snap.render_prometheus()),
            }
        }
        Request::Explain { tau } => {
            // All shards share one configuration and the same planner
            // constants; shard 0 drives every striped query and holds
            // the observations that steer them, so its decision record
            // is the service's.
            Response::Plan(shared.pin(0).explain(tau != f64::INFINITY))
        }
        Request::Shutdown => {
            Response::Error("shutdown is handled by the connection front-end".into())
        }
    }
}

/// Resolves the two operands of a point-to-point op (`distance`,
/// `diff`) and runs `op` on them with the index that records the call.
/// Each id operand is routed to its shard, and at most two snapshots are
/// pinned — `Arc::clone`s, so the warm id-to-id path stays
/// allocation-free. A dead id is answered with an error; the recording
/// index is the left operand's shard, else the right's, else shard 0.
fn with_operands(
    shared: &Shared,
    left: &TreeRef,
    right: &TreeRef,
    op: impl FnOnce(&TreeIndex<String>, &Tree<String>, &Tree<String>) -> Response,
) -> Response {
    let route = |r: &TreeRef| match r {
        TreeRef::Id(id) => Some(shared.route(*id)),
        TreeRef::Inline(_) => None,
    };
    let (lroute, rroute) = (route(left), route(right));
    let lpin = lroute.map(|(s, _)| shared.pin(s));
    let rpin = match (rroute, &lpin, lroute) {
        (Some((s, _)), Some(pin), Some((ls, _))) if s == ls => Some(Arc::clone(pin)),
        (Some((s, _)), _, _) => Some(shared.pin(s)),
        (None, _, _) => None,
    };
    let (left_tree, right_tree) = match (
        operand(left, lpin.as_deref(), lroute),
        operand(right, rpin.as_deref(), rroute),
    ) {
        (Ok(f), Ok(g)) => (f, g),
        (Err(id), _) | (_, Err(id)) => {
            return Response::Error(format!("no live tree with id {id}"))
        }
    };
    if let Some((s, _)) = lroute {
        shared.metrics.shard(s).queries.inc();
    }
    if let Some((s, _)) = rroute {
        if lroute.map_or(true, |(ls, _)| ls != s) {
            shared.metrics.shard(s).queries.inc();
        }
    }
    match lpin.as_deref().or(rpin.as_deref()) {
        Some(index) => op(index, left_tree, right_tree),
        None => op(&shared.pin(0), left_tree, right_tree),
    }
}

/// The tree behind one operand: inline, or the live entry its route
/// names in the pinned shard (`Err(id)` when that id is not live).
fn operand<'a>(
    r: &'a TreeRef,
    pin: Option<&'a TreeIndex<String>>,
    route: Option<(usize, usize)>,
) -> Result<&'a Tree<String>, usize> {
    match (r, pin, route) {
        (TreeRef::Inline(t), _, _) => Ok(t),
        (TreeRef::Id(id), Some(pin), Some((_, local))) => match pin.corpus().get(local) {
            Some(entry) => Ok(entry.tree()),
            None => Err(*id),
        },
        _ => unreachable!("id operands always route"),
    }
}

/// Commits one `op` mutation, given as one batch per shard in shard order
/// (empty batches are skipped); the caller holds the writer mutex. Every
/// affected shard's log is locked in ascending shard order and its
/// snapshot pinned; `append` writes every batch to its log **first**
/// (fsynced segment, then header); only once every append has succeeded
/// is each shard forked, mutated by `apply` and published, and the
/// maintenance thread woken. On an append failure nothing is published
/// and the error is the request's answer. Segments already appended to
/// earlier shards stay in their files unacknowledged, exactly as if the
/// process had crashed mid-batch: compacting those shards drops them,
/// and until then a retried batch (or, for an insert, any next insert,
/// which reuses the ids) appends the same local ids to them a second
/// time, which strict open rejects. The log locks are held across the publish, so compaction never
/// rewrites an epoch that is about to be superseded.
fn commit<T>(
    shared: &Shared,
    op: &str,
    batches: &[Vec<T>],
    append: impl Fn(&mut CorpusLog, &TreeCorpus<String>, &[T]) -> Result<(), PersistError>,
    apply: impl Fn(&mut TreeIndex<String>, &[T]),
) -> Result<(), String> {
    let affected: Vec<usize> = (0..batches.len())
        .filter(|&s| !batches[s].is_empty())
        .collect();
    let mut logs: Vec<_> = (affected.iter())
        .map(|&s| relock(shared.shards[s].log.lock()))
        .collect();
    let pins: Vec<_> = affected.iter().map(|&s| shared.pin(s)).collect();
    for ((log, pin), &s) in logs.iter_mut().zip(&pins).zip(&affected) {
        if let Some(log) = log.as_mut() {
            append(log, pin.corpus(), &batches[s])
                .map_err(|e| format!("{op} not applied (durable append failed): {e}"))?;
        }
    }
    for (&s, pin) in affected.iter().zip(&pins) {
        let mut next = pin.fork();
        apply(&mut next, &batches[s]);
        *relock(shared.shards[s].snapshot.write()) = Arc::new(next);
    }
    drop(logs);
    shared.wake_maintenance();
    Ok(())
}

/// Rewrites one shard's file from its current epoch — compaction. With
/// a `trigger` fraction the rewrite runs only when the file's tombstone
/// backlog exceeds `trigger × max(live, 1)` (the background pass: no
/// division, no firing on an empty store, no perpetual re-firing on the
/// corpus's permanent id holes); `None` rewrites unconditionally (the
/// `compact` request). Holds only this shard's log lock: queries run
/// against pinned snapshots and never notice, mutations touching other
/// shards flow freely. Every successful rewrite counts once in
/// `serve_compactions_total`. Returns `Ok(None)` when the shard is not
/// durable or the trigger does not fire, else whether the rewritten file
/// had anything to reclaim. A failed rewrite leaves the old file intact
/// (temp file + rename).
fn compact_shard(
    shared: &Shared,
    s: usize,
    trigger: Option<f64>,
) -> Result<Option<bool>, PersistError> {
    let mut log = relock(shared.shards[s].log.lock());
    let Some(log) = log.as_mut() else {
        return Ok(None);
    };
    // Pin under the log lock: mutations hold it across their publish, so
    // this epoch is the one the file must converge to.
    let pin = shared.pin(s);
    let backlog = log.tombstone_count();
    if trigger
        .is_some_and(|f| backlog == 0 || backlog as f64 <= f * pin.corpus().len().max(1) as f64)
    {
        return Ok(None);
    }
    let reclaimable = backlog > 0 || log.segment_count() > 1;
    log.rewrite(pin.corpus())?;
    shared.metrics.compactions.inc();
    Ok(Some(reclaimable))
}

fn maintenance_loop(shared: &Shared, fraction: f64, interval: Duration) {
    loop {
        {
            // Consume the pending flag *before* deciding to park: a
            // wake-up that arrived while the last compaction pass (or
            // shutdown) was in flight is acted on immediately instead of
            // being lost to a missed notify and costing a full interval.
            let mut pending = relock(shared.maint_pending.lock());
            if !*pending {
                pending = relock(shared.maint_wake.wait_timeout(pending, interval)).0;
            }
            *pending = false;
        }
        if relock(shared.queue.lock()).closed {
            break;
        }
        for s in 0..shared.nshards() {
            // A failed rewrite keeps its backlog; the next pass retries.
            let _ = compact_shard(shared, s, Some(fraction));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rted_tree::parse_bracket;

    fn trees(specs: &[&str]) -> Vec<Tree<String>> {
        specs.iter().map(|s| parse_bracket(s).unwrap()).collect()
    }

    /// The snapshot-isolation guarantee, asserted at the lock level: a
    /// query completes while a writer *and* a compactor hold every
    /// mutation-side lock in the system. Under the old
    /// `RwLock<TreeIndex>` design this deadlocked (the query needed the
    /// read lock a writer held); under snapshots the query only ever
    /// takes a momentary snapshot read lock that nothing holds across
    /// work.
    #[test]
    fn queries_never_wait_on_writers_or_compaction() {
        let server = Server::in_memory(
            trees(&["{a{b}}", "{a{c}}", "{b}", "{a{b}{c}}", "{c{d}}"]),
            ServerConfig {
                workers: 2,
                shards: 2,
                ..ServerConfig::default()
            },
        );
        // Simulate an in-flight mutation (writer mutex) and an
        // in-flight compaction on every shard (log locks).
        let writer_guard = relock(server.shared.writer.lock());
        let log_guards: Vec<_> = server
            .shared
            .shards
            .iter()
            .map(|s| relock(s.log.lock()))
            .collect();
        let mut client = server.client();
        let (tx, rx) = std::sync::mpsc::channel();
        let query = std::thread::spawn(move || {
            let resp = client.call(Request::Range {
                tree: parse_bracket("{a{b}}").unwrap(),
                tau: 2.0,
            });
            let _ = tx.send(resp);
        });
        let resp = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("range query blocked on writer/compaction locks");
        match resp {
            Response::Neighbors { candidates, .. } => assert_eq!(candidates, 5),
            other => panic!("unexpected response: {other:?}"),
        }
        query.join().unwrap();
        drop(log_guards);
        drop(writer_guard);
    }

    /// Striped routing: global ids assigned across shards behave
    /// exactly like 1-shard ids from the client's point of view.
    #[test]
    fn striped_ids_stay_global() {
        let server = Server::in_memory(
            trees(&["{a}", "{b}", "{c}"]),
            ServerConfig {
                workers: 1,
                shards: 3,
                ..ServerConfig::default()
            },
        );
        // Initial build: tree i has global id i.
        match server.call(Request::Distance {
            left: TreeRef::Id(0),
            right: TreeRef::Id(2),
            at_most: f64::INFINITY,
        }) {
            Response::Distance(d) => assert_eq!(d, 1.0),
            other => panic!("{other:?}"),
        }
        // Inserts keep assigning dense global ids.
        match server.call(Request::Insert {
            trees: trees(&["{d}", "{e}"]),
        }) {
            Response::Inserted(ids) => assert_eq!(ids, vec![3, 4]),
            other => panic!("{other:?}"),
        }
        match server.call(Request::Status) {
            Response::Status(s) => {
                assert_eq!(s.live, 5);
                assert_eq!(s.id_bound, 5);
                assert_eq!(s.holes, 0);
                assert_eq!(s.shards, 3);
                // 0,3 → shard 0; 1,4 → shard 1; 2 → shard 2.
                assert_eq!(s.shard_live, vec![2, 2, 1]);
            }
            other => panic!("{other:?}"),
        }
        // Remove by global id, then the hole is visible globally.
        match server.call(Request::Remove { ids: vec![1] }) {
            Response::Removed(r) => assert_eq!(r, 1),
            other => panic!("{other:?}"),
        }
        match server.call(Request::Status) {
            Response::Status(s) => {
                assert_eq!((s.live, s.id_bound, s.holes), (4, 5, 1));
                assert_eq!(s.shard_live, vec![2, 1, 1]);
            }
            other => panic!("{other:?}"),
        }
        match server.call(Request::Distance {
            left: TreeRef::Id(1),
            right: TreeRef::Id(0),
            at_most: f64::INFINITY,
        }) {
            Response::Error(e) => assert!(e.contains("no live tree with id 1"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    /// A pinned snapshot answers consistently even while mutations
    /// publish new epochs: queries in flight during an insert see
    /// either the old or the new corpus, never a torn mix.
    #[test]
    fn snapshots_isolate_queries_from_mutations() {
        let server = Server::in_memory(
            trees(&["{a}", "{b}"]),
            ServerConfig {
                workers: 2,
                shards: 2,
                ..ServerConfig::default()
            },
        );
        // Pin the current epoch of both shards directly.
        let pre: Vec<_> = (0..2).map(|s| server.shared.pin(s)).collect();
        match server.call(Request::Insert {
            trees: trees(&["{c}", "{d}", "{e}"]),
        }) {
            Response::Inserted(ids) => assert_eq!(ids, vec![2, 3, 4]),
            other => panic!("{other:?}"),
        }
        // The pinned pre-insert epochs still see exactly one tree each.
        assert_eq!(pre[0].corpus().len(), 1);
        assert_eq!(pre[1].corpus().len(), 1);
        // New queries see all five.
        match server.call(Request::Range {
            tree: parse_bracket("{a}").unwrap(),
            tau: f64::INFINITY,
        }) {
            Response::Neighbors { candidates, .. } => assert_eq!(candidates, 5),
            other => panic!("{other:?}"),
        }
    }
}
