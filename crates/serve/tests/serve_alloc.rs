//! The serving layer's allocation contract, enforced end-to-end: a
//! server **recovered from a torn file** answers warm id-to-id
//! `distance` requests with **zero heap allocations per request** — the
//! whole path (client submit → queue → worker pop → index read lock →
//! RTED through the worker's lifetime workspace → response publish →
//! client wake) runs on pre-allocated state.
//!
//! A counting global allocator tallies every `alloc`/`realloc` across
//! all threads; the test warms the path, snapshots the counter, issues a
//! batch of requests, and demands the counter did not move. The count is
//! process-wide, not per thread, because one request crosses the client,
//! queue and worker threads; so this must stay the binary's only test, or
//! the harness would run a sibling in parallel and charge its traffic here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::SeqCst)
}

use rted_index::{CorpusStore, Recovery};
use rted_serve::{Request, Response, Server, ServerConfig, TreeRef};
use rted_tree::{parse_bracket, Tree};

/// Deterministic mixed-shape tree of roughly `n` nodes.
fn mixed_tree(n: usize, salt: u64) -> Tree<String> {
    let mut s = String::from("{r");
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut open = 0usize;
    let mut emitted = 1usize;
    while emitted < n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let roll = (state >> 59) as usize;
        if roll < 5 && open > 0 {
            s.push('}');
            open -= 1;
        } else {
            s.push_str(&format!("{{l{}", roll % 3));
            open += 1;
            emitted += 1;
        }
    }
    for _ in 0..open {
        s.push('}');
    }
    s.push('}');
    parse_bracket(&s).unwrap()
}

#[test]
fn warm_distance_requests_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("rted-serve-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("alloc.idx");

    // A persistent corpus whose file gets torn, so the server under test
    // is exactly the recovery-path server of the acceptance criteria.
    let trees: Vec<Tree<String>> = (0..8).map(|i| mixed_tree(30 + 5 * i, i as u64)).collect();
    CorpusStore::create(&path, trees).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mut torn = bytes.clone();
    torn.extend_from_slice(&bytes[48..48 + 31]); // half-written next append
    std::fs::write(&path, &torn).unwrap();

    let config = ServerConfig {
        workers: 1, // one worker = its one workspace serves every request
        compact_fraction: None,
        ..ServerConfig::default()
    };
    let (server, report) = Server::open(&path, Recovery::Repair, config).unwrap();
    assert_eq!(report.bytes_dropped, 31);

    let mut client = server.client();
    let pairs: [(usize, usize); 4] = [(0, 1), (2, 5), (6, 3), (7, 4)];

    // Warm-up: every pair once, so the worker's workspace has grown to
    // the high-water mark of the batch (and the client's gate, the
    // queue's ring and the lazily-initialized lock/condvar state exist).
    let mut expected = Vec::new();
    for &(l, r) in &pairs {
        match client.call(Request::Distance {
            left: TreeRef::Id(l),
            right: TreeRef::Id(r),
            at_most: f64::INFINITY,
        }) {
            Response::Distance(d) => expected.push(d),
            other => panic!("{other:?}"),
        }
    }

    // Measured runs: many requests, zero new allocations, same answers.
    let before = allocations();
    for round in 0..25 {
        for (i, &(l, r)) in pairs.iter().enumerate() {
            match client.call(Request::Distance {
                left: TreeRef::Id(l),
                right: TreeRef::Id(r),
                at_most: f64::INFINITY,
            }) {
                Response::Distance(d) => assert_eq!(d, expected[i], "round {round}"),
                other => panic!("{other:?}"),
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm distance requests performed {} heap allocations over 100 requests",
        after - before
    );

    // Sanity: the server still works for allocating request kinds too.
    match client.call(Request::Status) {
        Response::Status(s) => assert_eq!(s.live, 8),
        other => panic!("{other:?}"),
    }

    // The zero-allocation batch ran with instrumentation ON, not
    // disabled: the distance latency histogram must have recorded every
    // one of those requests (warm-up + 100 measured).
    match client.call(Request::Metrics {
        format: rted_serve::MetricsFormat::Json,
    }) {
        Response::Metrics(snap) => match snap.get("serve_latency_distance_ns") {
            Some(rted_obs::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 104, "metrics were not recording during the batch");
                assert!(h.sum > 0);
            }
            other => panic!("serve_latency_distance_ns: {other:?}"),
        },
        other => panic!("{other:?}"),
    }
    server.shutdown();
}
