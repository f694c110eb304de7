//! The service's pre-registered metric handles.
//!
//! Everything the server records at request time lives here as typed
//! [`Arc`] handles into one [`rted_obs::Registry`], created once at
//! startup. Recording is a handful of relaxed atomic operations — no
//! locks, no allocation — so the instrumented id-to-id `distance` path
//! stays zero-allocation per request (the alloc test asserts this with
//! metrics *on*).
//!
//! Latency histograms double as per-request-type counters: a
//! histogram's `count` is exactly the number of requests of that type
//! served, so `status` derives its per-type breakdown from the same
//! atoms the latency summaries use.
//!
//! A sharded server additionally carries one [`ShardMetrics`] block per
//! shard (`serve_shard{K}_*` names) plus a `serve_scatter_fanout`
//! histogram recording how many shards each striped query
//! (`range`/`top_k`/`join`) passed over. The per-shard names are
//! minted once at startup (the registry wants `&'static str`, so they
//! are leaked — a few dozen bytes per shard for the process lifetime).

use crate::proto::{OpKind, REQUEST_TYPE_NAMES};
use rted_obs::{Counter, Gauge, Histogram, Registry, Snapshot};
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds since `started`, saturating into a `u64`.
pub(crate) fn ns_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-shard recording handles: every query that touches a shard (a
/// striped query's one pass over all shards, or the routed shard of
/// `distance`/`diff`) bumps that shard's counters, so an operator can
/// see skew between shards directly.
#[derive(Debug)]
pub(crate) struct ShardMetrics {
    /// Queries this shard took part in.
    pub queries: Arc<Counter>,
    /// Wall time of striped query passes over this shard (ns).
    pub scatter_ns: Arc<Histogram>,
    /// Striped query passes currently executing over this shard.
    pub depth: Arc<Gauge>,
}

/// All service metric handles, pre-registered so request-time recording
/// never touches the registry.
#[derive(Debug)]
pub(crate) struct ServeMetrics {
    registry: Registry,
    started: Instant,
    /// Wall-clock handler latency per request type (queue wait excluded).
    pub latency: [Arc<Histogram>; 11],
    /// Time requests spent queued before a worker picked them up.
    pub queue_wait_ns: Arc<Histogram>,
    /// Requests currently queued (not yet picked up).
    pub queue_depth: Arc<Gauge>,
    /// Cumulative time workers spent inside handlers.
    pub worker_busy_ns: Arc<Counter>,
    /// WAL segment-append latency (lock-to-durable, fsyncs included).
    pub wal_append_ns: Arc<Histogram>,
    /// Individual WAL fsync latency (two per durable append).
    pub wal_fsync_ns: Arc<Histogram>,
    /// Bytes reclaimed by store rewrites (compactions).
    pub wal_bytes_reclaimed: Arc<Counter>,
    /// Shard-file compaction rewrites (threshold-driven + explicit; a
    /// `compact` request on N durable shards counts N).
    pub compactions: Arc<Counter>,
    /// Connections currently open on the front-end.
    pub connections_open: Arc<Gauge>,
    /// Connections accepted since start.
    pub connections_total: Arc<Counter>,
    /// Connections ended for a request line over `MAX_REQUEST_BYTES`.
    pub oversize_lines: Arc<Counter>,
    /// TCP connections ended for a wrong auth token.
    pub auth_failures: Arc<Counter>,
    /// Requests whose wall time crossed the front-end's `--slow-ms`.
    pub slow_queries: Arc<Counter>,
    /// Requests answered with an error response.
    pub errors: Arc<Counter>,
    /// Exact TED runs executed by worker workspaces.
    pub core_ted_runs: Arc<Counter>,
    /// Single-tree subproblems summed over those runs.
    pub core_subproblems: Arc<Counter>,
    /// High-water strategy-row pool size across all worker workspaces.
    pub core_rows_peak: Arc<Gauge>,
    /// Shards each striped query passed over (1 on an unsharded
    /// server).
    pub scatter_fanout: Arc<Histogram>,
    /// Per-shard blocks, indexed by shard number.
    shards: Vec<ShardMetrics>,
    /// Seconds since the server started (set at snapshot time).
    uptime_secs: Arc<Gauge>,
}

impl ServeMetrics {
    pub(crate) fn new(shards: usize) -> Self {
        let mut r = Registry::new();
        let latency =
            REQUEST_TYPE_NAMES.map(|name| r.histogram(leak(format!("serve_latency_{name}_ns"))));
        let shard_blocks = (0..shards.max(1))
            .map(|k| ShardMetrics {
                queries: r.counter(leak(format!("serve_shard{k}_queries_total"))),
                scatter_ns: r.histogram(leak(format!("serve_shard{k}_scatter_ns"))),
                depth: r.gauge(leak(format!("serve_shard{k}_depth"))),
            })
            .collect();
        ServeMetrics {
            latency,
            queue_wait_ns: r.histogram("serve_queue_wait_ns"),
            queue_depth: r.gauge("serve_queue_depth"),
            worker_busy_ns: r.counter("serve_worker_busy_ns_total"),
            wal_append_ns: r.histogram("wal_append_ns"),
            wal_fsync_ns: r.histogram("wal_fsync_ns"),
            wal_bytes_reclaimed: r.counter("wal_bytes_reclaimed_total"),
            compactions: r.counter("serve_compactions_total"),
            connections_open: r.gauge("serve_connections_open"),
            connections_total: r.counter("serve_connections_total"),
            oversize_lines: r.counter("serve_oversize_lines_total"),
            auth_failures: r.counter("serve_auth_failures_total"),
            slow_queries: r.counter("serve_slow_queries_total"),
            errors: r.counter("serve_errors_total"),
            core_ted_runs: r.counter("core_ted_runs_total"),
            core_subproblems: r.counter("core_subproblems_total"),
            core_rows_peak: r.gauge("core_strategy_rows_peak"),
            scatter_fanout: r.histogram("serve_scatter_fanout"),
            shards: shard_blocks,
            uptime_secs: r.gauge("serve_uptime_secs"),
            registry: r,
            started: Instant::now(),
        }
    }

    /// The latency histogram for one request kind.
    pub(crate) fn latency_of(&self, kind: OpKind) -> &Histogram {
        &self.latency[kind as usize]
    }

    /// The per-shard block for shard `k`.
    pub(crate) fn shard(&self, k: usize) -> &ShardMetrics {
        &self.shards[k]
    }

    /// Seconds since the server started.
    pub(crate) fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Per-type request counts, in [`REQUEST_TYPE_NAMES`] order (which is
    /// [`OpKind`] discriminant order).
    pub(crate) fn per_type_counts(&self) -> [u64; 11] {
        let mut out = [0u64; 11];
        for (slot, h) in out.iter_mut().zip(self.latency.iter()) {
            *slot = h.count();
        }
        out
    }

    /// The WAL observation handles, for [`rted_index::CorpusLog::set_obs`].
    pub(crate) fn wal_obs(&self) -> rted_index::WalObs {
        rted_index::WalObs {
            append: Arc::clone(&self.wal_append_ns),
            fsync: Arc::clone(&self.wal_fsync_ns),
            bytes_reclaimed: Arc::clone(&self.wal_bytes_reclaimed),
        }
    }

    /// Freezes every metric, stamping the uptime gauge first.
    pub(crate) fn snapshot(&self) -> Snapshot {
        let uptime = i64::try_from(self.uptime_secs()).unwrap_or(i64::MAX);
        self.uptime_secs.set(uptime);
        self.registry.snapshot()
    }
}

/// Mints a `&'static str` metric name at startup (the registry holds
/// names for the process lifetime anyway; op and shard counts are
/// small).
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_type_counts_follow_latency_histograms() {
        let m = ServeMetrics::new(1);
        assert_eq!(m.per_type_counts(), [0; 11]);
        m.latency_of(OpKind::Distance).record(100);
        m.latency_of(OpKind::Distance).record(200);
        m.latency_of(OpKind::Status).record(50);
        m.latency_of(OpKind::Join).record(75);
        let counts = m.per_type_counts();
        assert_eq!(counts[OpKind::Distance as usize], 2);
        assert_eq!(counts[OpKind::Status as usize], 1);
        assert_eq!(counts[OpKind::Join as usize], 1);
        assert_eq!(counts[OpKind::Range as usize], 0);
        // The wire names and the histogram slots stay aligned.
        assert_eq!(OpKind::Distance.name(), "distance");
        assert_eq!(OpKind::Join.name(), "join");
        assert_eq!(OpKind::Explain.name(), "explain");
        assert_eq!(REQUEST_TYPE_NAMES.len(), m.latency.len());
    }

    #[test]
    fn latency_histograms_register_in_name_order() {
        let snap = ServeMetrics::new(1).snapshot();
        let names: Vec<&str> = (snap.metrics.iter())
            .map(|(name, _)| name.as_ref())
            .filter(|name: &&str| name.starts_with("serve_latency_"))
            .collect();
        assert_eq!(
            names,
            [
                "serve_latency_range_ns",
                "serve_latency_topk_ns",
                "serve_latency_distance_ns",
                "serve_latency_insert_ns",
                "serve_latency_remove_ns",
                "serve_latency_status_ns",
                "serve_latency_compact_ns",
                "serve_latency_metrics_ns",
                "serve_latency_diff_ns",
                "serve_latency_join_ns",
                "serve_latency_explain_ns",
            ]
        );
    }

    #[test]
    fn snapshot_carries_registered_names() {
        let m = ServeMetrics::new(1);
        m.latency_of(OpKind::Range).record(10);
        m.errors.inc();
        let snap = m.snapshot();
        assert!(snap.get("serve_latency_range_ns").is_some());
        assert!(snap.get("serve_errors_total").is_some());
        assert!(snap.get("serve_uptime_secs").is_some());
        // Prometheus rendering of the full registry round-trips.
        assert!(snap
            .render_prometheus()
            .contains("serve_latency_range_ns_count 1"));
    }

    #[test]
    fn shard_blocks_register_labelled_names() {
        let m = ServeMetrics::new(3);
        m.shard(0).queries.inc();
        m.shard(2).scatter_ns.record(500);
        m.shard(1).depth.add(1);
        m.scatter_fanout.record(3);
        let snap = m.snapshot();
        assert!(snap.get("serve_shard0_queries_total").is_some());
        assert!(snap.get("serve_shard1_depth").is_some());
        assert!(snap.get("serve_shard2_scatter_ns").is_some());
        assert!(snap.get("serve_scatter_fanout").is_some());
        let text = snap.render_prometheus();
        assert!(text.contains("serve_shard0_queries_total 1"));
        assert!(text.contains("serve_scatter_fanout_count 1"));
    }
}
