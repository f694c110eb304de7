//! End-to-end service tests: concurrent clients against a durable
//! corpus, a kill mid-update-batch with restart-and-recover, graceful
//! shutdown draining, and threshold-driven background compaction.

use rted_core::{Algorithm, UnitCost, Workspace};
use rted_datasets::Shape;
use rted_index::{CorpusStore, Recovery};
use rted_serve::{Request, Response, Server, ServerConfig, TreeRef};
use rted_tree::{parse_bracket, to_bracket, Tree};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rted-serve-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn gen_trees(count: usize, seed0: u64) -> Vec<Tree<String>> {
    (0..count)
        .map(|i| {
            let shape = Shape::ALL[i % Shape::ALL.len()];
            shape
                .generate(6 + i % 13, seed0 + i as u64)
                .map_labels(|l| l.to_string())
        })
        .collect()
}

fn cfg(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        compact_fraction: None,
        ..ServerConfig::default()
    }
}

/// The reference answer: brute-force RTED range query over the live
/// `(id, tree)` pairs of a freshly loaded corpus — what a restarted
/// service must agree with.
fn brute_range(
    live: &[(usize, Tree<String>)],
    query: &Tree<String>,
    tau: f64,
) -> Vec<(usize, f64)> {
    let mut ws = Workspace::new();
    live.iter()
        .map(|(id, tree)| {
            let run = Algorithm::Rted.run_in(query, tree, &UnitCost, &mut ws);
            (*id, run.distance)
        })
        .filter(|&(_, d)| d < tau)
        .collect()
}

fn live_pairs(path: &PathBuf) -> Vec<(usize, Tree<String>)> {
    CorpusStore::open(path)
        .unwrap()
        .corpus()
        .iter()
        .map(|(id, e)| (id, e.tree().clone()))
        .collect()
}

#[test]
fn concurrent_clients_agree_with_brute_force() {
    let path = scratch("concurrent.idx");
    let trees = gen_trees(24, 100);
    CorpusStore::create(&path, trees.clone()).unwrap();
    let (server, report) = Server::open(&path, Recovery::Strict, cfg(4)).unwrap();
    assert_eq!(report.bytes_dropped, 0);

    let live: Vec<(usize, Tree<String>)> = trees.iter().cloned().enumerate().collect();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let server = &server;
            let live = &live;
            scope.spawn(move || {
                let mut client = server.client();
                for q in 0..6 {
                    let query = Shape::ALL[(t + q) % 6]
                        .generate(8 + q, (t * 31 + q) as u64)
                        .map_labels(|l| l.to_string());
                    let tau = 4.0 + q as f64;
                    let expected = brute_range(live, &query, tau);
                    match client.call(Request::Range { tree: query, tau }) {
                        Response::Neighbors { neighbors, .. } => {
                            let got: Vec<(usize, f64)> =
                                neighbors.iter().map(|n| (n.id, n.distance)).collect();
                            assert_eq!(got, expected, "client {t} query {q}");
                        }
                        other => panic!("client {t}: {other:?}"),
                    }
                }
                // Distance fast path agrees with a direct kernel run.
                let mut ws = Workspace::new();
                let expect = Algorithm::Rted
                    .run_in(&live[t].1, &live[t + 5].1, &UnitCost, &mut ws)
                    .distance;
                match client.call(Request::Distance {
                    left: TreeRef::Id(t),
                    right: TreeRef::Id(t + 5),
                    at_most: f64::INFINITY,
                }) {
                    Response::Distance(d) => assert_eq!(d, expect),
                    other => panic!("{other:?}"),
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn mutations_are_durable_and_queryable() {
    let path = scratch("durable.idx");
    CorpusStore::create(&path, gen_trees(8, 300)).unwrap();
    let (server, _) = Server::open(&path, Recovery::Strict, cfg(2)).unwrap();
    let mut client = server.client();

    let added = gen_trees(5, 400);
    let ids = match client.call(Request::Insert {
        trees: added.clone(),
    }) {
        Response::Inserted(ids) => ids,
        other => panic!("{other:?}"),
    };
    assert_eq!(ids, vec![8, 9, 10, 11, 12]);
    match client.call(Request::Remove {
        ids: vec![1, 3, 3, 77],
    }) {
        Response::Removed(n) => assert_eq!(n, 2),
        other => panic!("{other:?}"),
    }
    // Unknown ids in distance answer with an error, not a crash.
    match client.call(Request::Distance {
        left: TreeRef::Id(1),
        right: TreeRef::Id(0),
        at_most: f64::INFINITY,
    }) {
        Response::Error(msg) => assert!(msg.contains("id 1"), "{msg}"),
        other => panic!("{other:?}"),
    }
    match client.call(Request::Status) {
        Response::Status(s) => {
            assert_eq!(s.live, 11);
            assert_eq!(s.id_bound, 13);
            assert_eq!(s.holes, 2);
            assert!(s.persistent);
            assert_eq!(s.segments, 3);
            assert_eq!(s.file_tombstones, 2);
            assert_eq!(s.workers, 2);
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();

    // Every mutation survived the restart (strict open: the file is clean).
    let reopened = live_pairs(&path);
    let ids: Vec<usize> = reopened.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
    assert_eq!(to_bracket(&reopened[6].1), to_bracket(&added[0]));
}

/// The acceptance scenario: the service dies mid-update-batch (simulated
/// by tearing the file exactly as an interrupted append would), restarts
/// in repair mode, and answers queries identically to a brute-force pass
/// over an independently loaded corpus.
#[test]
fn kill_mid_update_restart_recovers_and_answers_identically() {
    let path = scratch("kill-restart.idx");
    CorpusStore::create(&path, gen_trees(12, 500)).unwrap();

    // A served update batch that fully commits...
    let (server, _) = Server::open(&path, Recovery::Strict, cfg(2)).unwrap();
    let mut client = server.client();
    match client.call(Request::Insert {
        trees: gen_trees(4, 600),
    }) {
        Response::Inserted(ids) => assert_eq!(ids.len(), 4),
        other => panic!("{other:?}"),
    }
    match client.call(Request::Remove { ids: vec![2, 9] }) {
        Response::Removed(n) => assert_eq!(n, 2),
        other => panic!("{other:?}"),
    }
    server.shutdown();
    let committed = std::fs::read(&path).unwrap();

    // ...then the crash: the next batch's segment is half-written (tail
    // torn mid-append, header still the committed one).
    let mut torn = committed.clone();
    torn.extend_from_slice(&committed[48..48 + 57]);
    std::fs::write(&path, &torn).unwrap();

    // Strict startup refuses; repair startup recovers the committed state.
    assert!(Server::open(&path, Recovery::Strict, cfg(2)).is_err());
    let (server, report) = Server::open(&path, Recovery::Repair, cfg(3)).unwrap();
    assert_eq!(report.bytes_dropped, 57);
    assert_eq!(report.segments_recovered, 3);

    // The recovered service answers exactly like a brute-force pass over
    // the independently (strictly) re-loaded corpus — repair made the
    // file clean again, so `live_pairs` is itself the fresh rebuild.
    let live = live_pairs(&path);
    assert_eq!(live.len(), 14); // 12 + 4 inserted − 2 removed
    let mut client = server.client();
    for (qi, seed) in [(0usize, 700u64), (1, 701), (2, 702)] {
        let query = Shape::ALL[qi]
            .generate(9 + qi, seed)
            .map_labels(|l| l.to_string());
        for tau in [3.0, 6.0, f64::INFINITY] {
            let expected = brute_range(&live, &query, tau);
            match client.call(Request::Range {
                tree: query.clone(),
                tau,
            }) {
                Response::Neighbors { neighbors, .. } => {
                    let got: Vec<(usize, f64)> =
                        neighbors.iter().map(|n| (n.id, n.distance)).collect();
                    assert_eq!(got, expected, "query {qi} tau {tau}");
                }
                other => panic!("{other:?}"),
            }
        }
    }
    // And the recovered service keeps accepting durable updates.
    match client.call(Request::Insert {
        trees: vec![parse_bracket("{after{recovery}}").unwrap()],
    }) {
        Response::Inserted(ids) => assert_eq!(ids, vec![16]),
        other => panic!("{other:?}"),
    }
    server.shutdown();
    assert_eq!(live_pairs(&path).len(), 15);
}

#[test]
fn absurd_top_k_returns_everything_instead_of_aborting() {
    // One hostile request line must not be able to kill the service: a k
    // near 2^53 passes protocol validation, and the index must clamp its
    // allocations to the corpus size rather than aborting on a
    // petabyte-sized heap reservation.
    let server = Server::in_memory(gen_trees(9, 1200), cfg(1));
    let mut client = server.client();
    match client.call(Request::TopK {
        tree: parse_bracket("{a{b}}").unwrap(),
        k: (1u64 << 53) as usize - 1,
    }) {
        Response::Neighbors { neighbors, .. } => assert_eq!(neighbors.len(), 9),
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_requests() {
    // One worker, several queued queries: closing the queue must not
    // drop them — every already-submitted client gets a real response.
    let server = Server::in_memory(gen_trees(16, 800), cfg(1));
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let mut client = server.client();
            std::thread::spawn(move || {
                let query = Shape::ALL[i % 6]
                    .generate(10, 900 + i as u64)
                    .map_labels(|l| l.to_string());
                client.call(Request::Range {
                    tree: query,
                    tau: 8.0,
                })
            })
        })
        .collect();
    // Let the submissions land in the queue, then shut down.
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();
    for h in handles {
        match h.join().unwrap() {
            Response::Neighbors { .. } => {}
            Response::Error(msg) => assert_eq!(msg, "server is shutting down"),
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn background_compaction_fires_on_tombstone_backlog() {
    let path = scratch("autocompact.idx");
    CorpusStore::create(&path, gen_trees(10, 1000)).unwrap();
    let config = ServerConfig {
        workers: 2,
        compact_fraction: Some(0.25),
        maintenance_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let (server, _) = Server::open(&path, Recovery::Strict, config).unwrap();
    let mut client = server.client();
    // 4 tombstones over 6 live = 0.67 > 0.25: the trigger must fire.
    match client.call(Request::Remove {
        ids: vec![0, 1, 2, 3],
    }) {
        Response::Removed(n) => assert_eq!(n, 4),
        other => panic!("{other:?}"),
    }
    let mut compacted = false;
    for _ in 0..400 {
        match client.call(Request::Status) {
            Response::Status(s) => {
                if s.compactions >= 1 {
                    assert_eq!(s.file_tombstones, 0, "compaction must clear the backlog");
                    assert_eq!(s.segments, 1);
                    assert_eq!(s.live, 6);
                    // The id holes survive — they are not the trigger.
                    assert_eq!(s.holes, 4);
                    compacted = true;
                    break;
                }
            }
            other => panic!("{other:?}"),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(compacted, "background compaction never fired");
    server.shutdown();

    // The compacted file strict-opens with all ids preserved.
    let live = live_pairs(&path);
    let ids: Vec<usize> = live.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, vec![4, 5, 6, 7, 8, 9]);
}

#[test]
fn empty_store_never_triggers_compaction_or_divides_by_zero() {
    let path = scratch("empty.idx");
    CorpusStore::create(&path, Vec::<Tree<String>>::new()).unwrap();
    let config = ServerConfig {
        workers: 1,
        compact_fraction: Some(0.01),
        maintenance_interval: Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let (server, _) = Server::open(&path, Recovery::Strict, config).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let mut client = server.client();
    match client.call(Request::Status) {
        Response::Status(s) => {
            assert_eq!(s.live, 0);
            assert_eq!(s.compactions, 0, "empty store must not compact");
        }
        other => panic!("{other:?}"),
    }
    // Queries on the empty corpus are well-defined.
    match client.call(Request::Range {
        tree: parse_bracket("{a}").unwrap(),
        tau: 5.0,
    }) {
        Response::Neighbors { neighbors, .. } => assert!(neighbors.is_empty()),
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn metrics_surface_reflects_served_traffic() {
    use rted_serve::{MetricsFormat, REQUEST_TYPE_NAMES};

    let path = scratch("metrics.idx");
    CorpusStore::create(&path, gen_trees(8, 50)).unwrap();
    let (server, _) = Server::open(&path, Recovery::Strict, cfg(2)).unwrap();
    let mut client = server.client();

    let query = gen_trees(1, 99).pop().unwrap();
    // One unbounded tau guarantees the filters pass candidates through
    // to exact verification, so verified-work counters move.
    for tau in [4.0, 4.0, f64::INFINITY] {
        match client.call(Request::Range {
            tree: query.clone(),
            tau,
        }) {
            Response::Neighbors { .. } => {}
            other => panic!("{other:?}"),
        }
    }
    match client.call(Request::Distance {
        left: TreeRef::Id(0),
        right: TreeRef::Id(1),
        at_most: f64::INFINITY,
    }) {
        Response::Distance(_) => {}
        other => panic!("{other:?}"),
    }
    match client.call(Request::Insert {
        trees: gen_trees(2, 500),
    }) {
        Response::Inserted(ids) => assert_eq!(ids.len(), 2),
        other => panic!("{other:?}"),
    }
    // One deliberate failure for the error counter.
    match client.call(Request::Distance {
        left: TreeRef::Id(9999),
        right: TreeRef::Id(0),
        at_most: f64::INFINITY,
    }) {
        Response::Error(_) => {}
        other => panic!("{other:?}"),
    }

    // Status: per-type counts derive from the same histograms as the
    // latency summaries; `requests` covers everything handled so far.
    match client.call(Request::Status) {
        Response::Status(s) => {
            let by = |name: &str| {
                s.requests_by_type[REQUEST_TYPE_NAMES.iter().position(|n| *n == name).unwrap()]
            };
            assert_eq!(by("range"), 3);
            assert_eq!(by("distance"), 2);
            assert_eq!(by("insert"), 1);
            assert_eq!(by("status"), 0, "status sees the count before itself");
            assert_eq!(s.requests, 6);
        }
        other => panic!("{other:?}"),
    }

    // The structured snapshot: serve latency histograms, WAL append and
    // fsync timings (the insert was durable), index totals, core
    // counters fed up from the worker workspaces.
    let snap = match client.call(Request::Metrics {
        format: MetricsFormat::Json,
    }) {
        Response::Metrics(snap) => snap,
        other => panic!("{other:?}"),
    };
    let hist = |name: &str| match snap.get(name) {
        Some(rted_obs::MetricValue::Histogram(h)) => *h,
        other => panic!("{name}: {other:?}"),
    };
    let counter = |name: &str| match snap.get(name) {
        Some(rted_obs::MetricValue::Counter(v)) => *v,
        other => panic!("{name}: {other:?}"),
    };
    let range = hist("serve_latency_range_ns");
    assert_eq!(range.count, 3);
    assert!(range.sum > 0 && range.max >= range.p50);
    assert_eq!(hist("serve_latency_distance_ns").count, 2);
    assert_eq!(hist("serve_queue_wait_ns").count, 8);
    assert_eq!(hist("wal_append_ns").count, 1);
    assert!(hist("wal_fsync_ns").count >= 2, "two fsyncs per append");
    assert_eq!(counter("serve_errors_total"), 1);
    assert!(counter("serve_worker_busy_ns_total") > 0);
    assert!(
        counter("core_ted_runs_total") >= 1,
        "distance ran on a worker workspace"
    );
    assert_eq!(counter("index_range_queries_total"), 3);
    assert_eq!(counter("index_distance_calls_total"), 1);
    assert!(counter("index_verified_total") > 0);
    // 7 = 3 range + 2 distance + 1 insert + 1 status; the in-flight
    // metrics request counts only after its own handler returns.
    assert_eq!(counter("serve_requests_total"), 7);

    // The Prometheus rendering of the same state is exposed verbatim.
    match client.call(Request::Metrics {
        format: MetricsFormat::Prometheus,
    }) {
        Response::MetricsText(text) => {
            assert!(
                text.contains("# TYPE serve_latency_range_ns summary"),
                "{text}"
            );
            assert!(text.contains("serve_latency_range_ns_count 3"), "{text}");
            assert!(text.contains("index_range_queries_total 3"), "{text}");
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn diff_scripts_are_served_and_agree_with_distance() {
    use rted_serve::{MetricsFormat, REQUEST_TYPE_NAMES};

    let server = Server::in_memory(gen_trees(12, 4200), cfg(2));
    let mut client = server.client();

    // Every corpus pair in a small sample: the served script's cost must
    // equal the served distance for the same operands — the edit script
    // is a witness for the number, not a second opinion.
    for (left, right) in [(0usize, 1usize), (2, 3), (4, 4), (5, 9)] {
        let d = match client.call(Request::Distance {
            left: TreeRef::Id(left),
            right: TreeRef::Id(right),
            at_most: f64::INFINITY,
        }) {
            Response::Distance(d) => d,
            other => panic!("{other:?}"),
        };
        match client.call(Request::Diff {
            left: TreeRef::Id(left),
            right: TreeRef::Id(right),
        }) {
            Response::Diff(script) => {
                assert_eq!(script.cost, d, "pair ({left},{right})");
                // Unit costs: every non-keep op contributes exactly 1.
                assert_eq!(script.changes() as f64, d, "pair ({left},{right})");
                assert_eq!(
                    script.deletes + script.inserts + script.renames + script.keeps,
                    script.ops.len()
                );
                if left == right {
                    assert_eq!(script.changes(), 0, "self-diff must be all keeps");
                }
            }
            other => panic!("{other:?}"),
        }
    }

    // Mixed operands: one corpus id, one inline tree.
    match client.call(Request::Diff {
        left: TreeRef::Inline(parse_bracket("{a{b}{c}}").unwrap()),
        right: TreeRef::Inline(parse_bracket("{a{b}{x}}").unwrap()),
    }) {
        Response::Diff(script) => {
            assert_eq!(script.cost, 1.0);
            assert_eq!(script.renames, 1);
            assert_eq!(script.keeps, 2);
        }
        other => panic!("{other:?}"),
    }

    // Dead ids fail like distance does, without killing the service.
    match client.call(Request::Diff {
        left: TreeRef::Id(9999),
        right: TreeRef::Id(0),
    }) {
        Response::Error(msg) => assert!(msg.contains("9999"), "{msg}"),
        other => panic!("{other:?}"),
    }

    // The new op is visible on every telemetry surface: status per-type
    // counts and the latency histogram / index counter pair.
    match client.call(Request::Status) {
        Response::Status(s) => {
            let diff_slot = REQUEST_TYPE_NAMES
                .iter()
                .position(|n| *n == "diff")
                .unwrap();
            assert_eq!(
                s.requests_by_type[diff_slot], 6,
                "4 id pairs + inline + dead-id"
            );
        }
        other => panic!("{other:?}"),
    }
    match client.call(Request::Metrics {
        format: MetricsFormat::Json,
    }) {
        Response::Metrics(snap) => {
            match snap.get("serve_latency_diff_ns") {
                Some(rted_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, 6),
                other => panic!("{other:?}"),
            }
            match snap.get("index_diff_calls_total") {
                Some(rted_obs::MetricValue::Counter(v)) => {
                    assert_eq!(*v, 5, "dead-id never reached the index")
                }
                other => panic!("{other:?}"),
            }
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

#[test]
fn bounded_distance_answers_exact_or_certified_exceeds() {
    use rted_serve::MetricsFormat;
    // Tree 0 and 1 are near-identical; tree 2 is a deep chain far from
    // both — tight budgets must reject it with a certified lower bound.
    let trees: Vec<Tree<String>> = ["{a{b}{c}}", "{a{b}{d}}", "{x{y{z{w{v{u}}}}}}"]
        .iter()
        .map(|t| parse_bracket(t).unwrap())
        .collect();
    let server = Server::in_memory(trees.clone(), cfg(1));
    let mut client = server.client();

    // Exact reference distances.
    let mut ws = Workspace::new();
    let d01 = Algorithm::Rted
        .run_in(&trees[0], &trees[1], &UnitCost, &mut ws)
        .distance;
    let d02 = Algorithm::Rted
        .run_in(&trees[0], &trees[2], &UnitCost, &mut ws)
        .distance;

    // Generous budget: the exact distance comes back, bit-identical.
    match client.call(Request::Distance {
        left: TreeRef::Id(0),
        right: TreeRef::Id(1),
        at_most: d01 + 1.0,
    }) {
        Response::Distance(d) => assert_eq!(d, d01),
        other => panic!("{other:?}"),
    }
    // A budget exactly at the distance is still within it.
    match client.call(Request::Distance {
        left: TreeRef::Id(0),
        right: TreeRef::Id(1),
        at_most: d01,
    }) {
        Response::Distance(d) => assert_eq!(d, d01),
        other => panic!("{other:?}"),
    }
    // Blown budget: a certified lower bound, never above the true
    // distance, at least the budget.
    match client.call(Request::Distance {
        left: TreeRef::Id(0),
        right: TreeRef::Id(2),
        at_most: 1.0,
    }) {
        Response::DistanceExceeds(lb) => {
            assert!(lb >= 1.0, "lower bound {lb} below budget");
            assert!(lb <= d02, "lower bound {lb} above exact distance {d02}");
        }
        other => panic!("{other:?}"),
    }
    // Inline trees work on the budgeted path too.
    match client.call(Request::Distance {
        left: TreeRef::Inline(parse_bracket("{a}").unwrap()),
        right: TreeRef::Inline(parse_bracket("{a{b{c{d}}}}").unwrap()),
        at_most: 0.5,
    }) {
        Response::DistanceExceeds(lb) => assert!(lb >= 0.5),
        other => panic!("{other:?}"),
    }
    // Pairs that small verify exactly; above 256 cells a budgeted
    // request runs the bounded kernel, which abandons a blown budget
    // early (here on the size pre-bound).
    let chain = |n: usize| parse_bracket(&format!("{}{}", "{a".repeat(n), "}".repeat(n))).unwrap();
    match client.call(Request::Distance {
        left: TreeRef::Inline(chain(17)),
        right: TreeRef::Inline(chain(40)),
        at_most: 1.0,
    }) {
        Response::DistanceExceeds(lb) => assert!(lb >= 1.0),
        other => panic!("{other:?}"),
    }

    // The early-exit and bounded-time counters surface in metrics.
    match client.call(Request::Metrics {
        format: MetricsFormat::Json,
    }) {
        Response::Metrics(snap) => {
            match snap.get("index_verify_early_exit_total") {
                Some(rted_obs::MetricValue::Counter(v)) => {
                    assert!(*v >= 1, "expected early exits, saw {v}")
                }
                other => panic!("{other:?}"),
            }
            match snap.get("index_verify_bounded_ns") {
                Some(rted_obs::MetricValue::Counter(v)) => assert!(*v > 0),
                other => panic!("{other:?}"),
            }
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

/// The `explain` op surfaces the planner's decision record, and planned
/// queries feed the `index_plan_*` counters.
#[test]
fn explain_reports_planner_decisions() {
    use rted_serve::MetricsFormat;
    let server = Server::in_memory(
        gen_trees(12, 900),
        ServerConfig {
            workers: 1,
            shards: 2,
            ..ServerConfig::default()
        },
    );
    let mut client = server.client();
    // A budgeted probe: no metric tree, so the generator is linear; the
    // default verifier is intact, so a finite tau plans the bounded arm.
    match client.call(Request::Explain { tau: 2.0 }) {
        Response::Plan(report) => {
            assert_eq!(report.candidate_gen.name(), "linear");
            assert!(report.budgeted);
            assert_eq!(report.stage_order[0], "size");
            assert_eq!(report.stage_order.len(), 6);
        }
        other => panic!("{other:?}"),
    }
    // An unbudgeted probe plans the cheapest exact kernel per pair.
    match client.call(Request::Explain { tau: f64::INFINITY }) {
        Response::Plan(report) => assert!(!report.budgeted),
        other => panic!("{other:?}"),
    }
    // Planned queries count their decisions.
    match client.call(Request::Range {
        tree: gen_trees(1, 901).pop().unwrap(),
        tau: 2.0,
    }) {
        Response::Neighbors { .. } => {}
        other => panic!("{other:?}"),
    }
    match client.call(Request::Metrics {
        format: MetricsFormat::Json,
    }) {
        Response::Metrics(snap) => {
            let counter = |name: &str| match snap.get(name) {
                Some(rted_obs::MetricValue::Counter(v)) => *v,
                other => panic!("{name}: {other:?}"),
            };
            // Two explain probes + one range over two shards.
            assert!(counter("index_plan_linear_total") >= 3);
            assert_eq!(counter("index_plan_metric_total"), 0);
        }
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

/// `path.shard{k}` — where `Server::open` keeps stripe `k > 0`.
fn stripe_file(path: &std::path::Path, k: usize) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".shard{k}"));
    PathBuf::from(os)
}

fn status(client: &mut rted_serve::Client) -> rted_serve::StatusReport {
    match client.call(Request::Status) {
        Response::Status(s) => s,
        other => panic!("{other:?}"),
    }
}

fn sharded(shards: usize) -> ServerConfig {
    ServerConfig { shards, ..cfg(1) }
}

/// Shard files store local ids, so a layout read under another shard
/// count would renumber ids or hide acknowledged writes. `open` refuses
/// both directions — narrowing and widening — with an error naming both
/// counts, and leaves every file as it was; a fresh layout still opens
/// under any count.
#[test]
fn open_refuses_a_layout_written_under_another_shard_count() {
    // Shard 0 and stripes 1..4, `None` where a file does not exist.
    let images = |path: &PathBuf| -> Vec<Option<Vec<u8>>> {
        let stripes = (1..4).map(|k| stripe_file(path, k));
        std::iter::once(path.clone())
            .chain(stripes)
            .map(|f| std::fs::read(f).ok())
            .collect()
    };
    let refused = |path: &PathBuf, shards: usize, found: usize| {
        let before = images(path);
        match Server::open(path, Recovery::Repair, sharded(shards)) {
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains(&format!("{found}-shard layout")), "{msg}");
                assert!(msg.contains(&format!("with {shards} shard")), "{msg}");
            }
            Ok(_) => panic!("a {found}-shard layout opened with {shards} shards"),
        }
        assert!(
            before == images(path),
            "a refused open changed the layout's files"
        );
    };

    // Widening: a built 1-shard file must not be read as 2 stripes
    // (every local id would be reported as 2·l).
    let one = scratch("layout-1.idx");
    let _ = std::fs::remove_file(stripe_file(&one, 1));
    CorpusStore::create(&one, gen_trees(4, 4000)).unwrap();
    refused(&one, 2, 1);
    let (server, _) = Server::open(&one, Recovery::Strict, sharded(1)).unwrap();
    let s = status(&mut server.client());
    assert_eq!((s.live, s.id_bound), (4, 4));
    server.shutdown();

    // Narrowing: a 2-shard layout with ids must not drop its stripe
    // (acknowledged writes on shard 1 would vanish); widening it to 3
    // must not invent an empty stripe either.
    let two = scratch("layout-2.idx");
    for k in 1..4 {
        let _ = std::fs::remove_file(stripe_file(&two, k));
    }
    CorpusStore::create(&two, Vec::<Tree<String>>::new()).unwrap();
    let (server, _) = Server::open(&two, Recovery::Strict, sharded(2)).unwrap();
    match server.call(Request::Insert {
        trees: gen_trees(4, 4100),
    }) {
        Response::Inserted(ids) => assert_eq!(ids, vec![0, 1, 2, 3]),
        other => panic!("{other:?}"),
    }
    server.shutdown();
    refused(&two, 1, 2);
    refused(&two, 3, 2);
    let (server, _) = Server::open(&two, Recovery::Strict, sharded(2)).unwrap();
    let s = status(&mut server.client());
    assert_eq!((s.live, s.id_bound, s.shard_live), (4, 4, vec![2, 2]));
    server.shutdown();
}

/// `serve_compactions_total` counts file rewrites: a manual `compact`
/// on a durable 2-shard server rewrites two files and counts two.
#[test]
fn manual_compact_counts_one_per_rewritten_shard_file() {
    let path = scratch("compact-count.idx");
    let _ = std::fs::remove_file(stripe_file(&path, 1));
    CorpusStore::create(&path, Vec::<Tree<String>>::new()).unwrap();
    let (server, _) = Server::open(&path, Recovery::Strict, sharded(2)).unwrap();
    let mut client = server.client();
    match client.call(Request::Insert {
        trees: gen_trees(4, 4200),
    }) {
        Response::Inserted(ids) => assert_eq!(ids, vec![0, 1, 2, 3]),
        other => panic!("{other:?}"),
    }
    assert_eq!(status(&mut client).compactions, 0);
    match client.call(Request::Compact) {
        Response::Compacted(_) => {}
        other => panic!("{other:?}"),
    }
    assert_eq!(status(&mut client).compactions, 2);
    match client.call(Request::Metrics {
        format: rted_serve::MetricsFormat::Json,
    }) {
        Response::Metrics(snap) => match snap.get("serve_compactions_total") {
            Some(rted_obs::MetricValue::Counter(v)) => assert_eq!(*v, 2),
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
    server.shutdown();
}

/// A durable append that fails answers `… not applied (durable append
/// failed)` and publishes nothing, on one shard or across two; once
/// `compact` has recreated the lost file (dropping any segment the
/// batch left on the other shard), the retry gets the same ids.
#[test]
fn failed_durable_append_publishes_nothing_and_retry_reuses_ids() {
    for shards in [1, 2] {
        let path = scratch(&format!("append-fails-{shards}.idx"));
        let _ = std::fs::remove_file(stripe_file(&path, 1));
        CorpusStore::create(&path, Vec::<Tree<String>>::new()).unwrap();
        let (server, _) = Server::open(&path, Recovery::Strict, sharded(shards)).unwrap();
        let mut client = server.client();
        match client.call(Request::Insert {
            trees: gen_trees(4, 4300),
        }) {
            Response::Inserted(ids) => assert_eq!(ids, vec![0, 1, 2, 3]),
            other => panic!("{other:?}"),
        }
        // The append's open fails on a deleted file: the only stripe of
        // a 1-shard layout, or only shard 1 of a 2-shard one.
        let victim = if shards == 1 {
            path.clone()
        } else {
            stripe_file(&path, 1)
        };
        std::fs::remove_file(&victim).unwrap();
        // Ids 4 and 5 span both stripes of the 2-shard layout.
        let fresh = vec![
            parse_bracket("{fresh{a}{b}}").unwrap(),
            parse_bracket("{fresh{c}{d}}").unwrap(),
        ];
        let insert = Request::Insert {
            trees: fresh.clone(),
        };
        match client.call(insert.clone()) {
            Response::Error(msg) => assert!(
                msg.starts_with("insert not applied (durable append failed): "),
                "{msg}"
            ),
            other => panic!("{other:?}"),
        }
        let remove = Request::Remove { ids: vec![0, 1] };
        match client.call(remove.clone()) {
            Response::Error(msg) => assert!(
                msg.starts_with("remove not applied (durable append failed): "),
                "{msg}"
            ),
            other => panic!("{other:?}"),
        }
        let s = status(&mut client);
        assert_eq!((s.live, s.id_bound, s.holes), (4, 4, 0), "{shards} shards");
        match client.call(Request::Range {
            tree: fresh[0].clone(),
            tau: 0.5,
        }) {
            Response::Neighbors { neighbors, .. } => assert!(neighbors.is_empty()),
            other => panic!("{other:?}"),
        }

        match client.call(Request::Compact) {
            Response::Compacted(_) => {}
            other => panic!("{other:?}"),
        }
        assert!(victim.exists(), "compact must recreate the lost file");
        match client.call(insert) {
            Response::Inserted(ids) => assert_eq!(ids, vec![4, 5], "{shards} shards"),
            other => panic!("{other:?}"),
        }
        match client.call(remove) {
            Response::Removed(n) => assert_eq!(n, 2),
            other => panic!("{other:?}"),
        }
        server.shutdown();

        // The files hold exactly the acknowledged state.
        let (server, _) = Server::open(&path, Recovery::Strict, sharded(shards)).unwrap();
        let mut client = server.client();
        let s = status(&mut client);
        assert_eq!((s.live, s.id_bound), (4, 6), "{shards} shards");
        match client.call(Request::Range {
            tree: fresh[0].clone(),
            tau: 0.5,
        }) {
            Response::Neighbors { neighbors, .. } => {
                let ids: Vec<usize> = neighbors.iter().map(|n| n.id).collect();
                assert_eq!(ids, vec![4]);
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }
}

/// A header without the required profile flag is refused at startup even
/// in repair mode, and the file is left byte for byte as it was.
#[test]
fn repair_open_refuses_a_header_without_the_profile_flag() {
    let path = scratch("flagless.idx");
    CorpusStore::create(&path, gen_trees(3, 900)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[12] &= !0x01;
    let checksum = rted_index::persist::fnv1a(&bytes[..40]);
    bytes[40..48].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert!(Server::open(&path, Recovery::Repair, cfg(1)).is_err());
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
}
