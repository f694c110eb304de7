//! Property tests for sharded serving: a server striped over any shard
//! count must answer **byte-identically** to a 1-shard server — same
//! neighbors, same order, same candidate counters, same rendered
//! response lines — across random corpora, random insert/remove
//! scripts, and random queries.
//!
//! Why bytes and not just values: `range`, `topk` and `join` each run
//! one striped driver over all shards, which walks the merged candidate
//! view of the union corpus under global ids, and the per-pair filter
//! decisions are pure functions of the operands, so nothing about the
//! answer may depend on the stripe layout. That includes the work
//! counters (`candidates`, `verified`): the driver replays the
//! single-index schedule and records each query once, so no masking —
//! every byte and every service-wide `index_*` query total must match.

use proptest::prelude::*;
use rted_datasets::shapes::Shape;
use rted_serve::{render_response, Request, Server, ServerConfig};
use rted_tree::Tree;

fn arb_tree(max: usize) -> impl Strategy<Value = Tree<String>> {
    (0..Shape::ALL.len(), 1..=max, any::<u32>()).prop_map(|(s, n, seed)| {
        Shape::ALL[s]
            .generate(n, seed as u64)
            .map_labels(|l| l.to_string())
    })
}

fn cfg(shards: usize) -> ServerConfig {
    ServerConfig {
        workers: 2,
        shards,
        ..ServerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_answers_are_byte_identical_to_one_shard(
        initial in proptest::collection::vec(arb_tree(10), 1..=7),
        script in proptest::collection::vec((any::<bool>(), any::<u32>(), arb_tree(10)), 0..6),
        shards in 2..=4usize,
        q in arb_tree(10),
        tau_int in 0..12usize,
        k in 1..5usize,
        picks in proptest::collection::vec(any::<u32>(), 4),
    ) {
        let reference = Server::in_memory(initial.clone(), cfg(1));
        let sharded = Server::in_memory(initial.clone(), cfg(shards));
        let mut ref_client = reference.client();
        let mut sh_client = sharded.client();

        // Drive both servers through the same mutation script: both
        // assign identical global ids (the stripe mapping is invisible
        // at the protocol level), so every later id-based request means
        // the same trees on both.
        let mut id_bound = initial.len();
        for (is_remove, pick, tree) in script {
            let request = if is_remove {
                // May hit a dead id — then both servers skip it alike.
                Request::Remove { ids: vec![pick as usize % id_bound] }
            } else {
                id_bound += 1;
                Request::Insert { trees: vec![tree] }
            };
            let a = render_response(&ref_client.call(request.clone()));
            let b = render_response(&sh_client.call(request));
            prop_assert_eq!(a, b);
        }

        let tau = if tau_int == 0 { f64::INFINITY } else { tau_int as f64 / 2.0 };

        // range and join: full-line byte identity, counters included.
        for request in [Request::Range { tree: q.clone(), tau }, Request::Join { tau }] {
            let a = render_response(&ref_client.call(request.clone()));
            let b = render_response(&sh_client.call(request));
            prop_assert_eq!(a, b);
        }

        // topk: full-line byte identity too — the striped driver's
        // `verified` count replays the unsharded batch schedule exactly.
        let request = Request::TopK { tree: q.clone(), k };
        let a = render_response(&ref_client.call(request.clone()));
        let b = render_response(&sh_client.call(request));
        prop_assert_eq!(a, b);

        // Routed ops on arbitrary (possibly dead) ids: identical
        // answers *and* identical errors.
        let id = |i: usize| picks[i] as usize % id_bound;
        for (left, right) in [(id(0), id(1)), (id(2), id(3))] {
            let request = Request::Diff {
                left: rted_serve::TreeRef::Id(left),
                right: rted_serve::TreeRef::Id(right),
            };
            let a = render_response(&ref_client.call(request.clone()));
            let b = render_response(&sh_client.call(request));
            prop_assert_eq!(a, b);
        }
        let request = Request::Distance {
            left: rted_serve::TreeRef::Id(id(0)),
            right: rted_serve::TreeRef::Id(id(3)),
            at_most: tau,
        };
        let a = render_response(&ref_client.call(request.clone()));
        let b = render_response(&sh_client.call(request));
        prop_assert_eq!(a, b);

        // The service-wide query totals do not depend on the layout: a
        // striped query is recorded once, however many shards it spans.
        let metrics = |client: &mut rted_serve::Client| match client.call(Request::Metrics {
            format: rted_serve::MetricsFormat::Json,
        }) {
            rted_serve::Response::Metrics(snap) => snap,
            other => panic!("metrics answered {other:?}"),
        };
        let (a, b) = (metrics(&mut ref_client), metrics(&mut sh_client));
        for name in [
            "index_range_queries_total",
            "index_topk_queries_total",
            "index_join_queries_total",
            "index_candidates_total",
            "index_verified_total",
        ] {
            prop_assert_eq!(a.get(name), b.get(name), "{}", name);
        }

        reference.shutdown();
        sharded.shutdown();
    }
}
