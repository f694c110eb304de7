//! The typed request/response protocol and its newline-delimited JSON
//! encoding.
//!
//! One request per line, one response per line, in order. Trees travel in
//! bracket notation (`{a{b}{c}}`) — the repo's lingua franca — inside
//! JSON strings. Parsing is strict: unknown `op`s, unknown keys, and
//! malformed trees are rejected with a one-line error response rather
//! than guessed at, mirroring the CLI's unknown-flag policy.
//!
//! The full surface, one row per op — request fields on the left,
//! response members (beyond the leading `"ok":true`) on the right. This
//! table is the protocol reference; the enum variants below carry only
//! type-level notes.
//!
//! | op         | request fields                           | response members                                                             |
//! |------------|------------------------------------------|------------------------------------------------------------------------------|
//! | `range`    | `tree` (string), `tau` (number, omit = unbounded) | `neighbors` (array of `{id, distance}`), `candidates`, `verified`    |
//! | `topk`     | `tree` (string), `k` (number, default 5) | `neighbors` (array of `{id, distance}`), `candidates`, `verified`            |
//! | `distance` | `left`, `right` (each: id number or tree string), `at_most` (number, omit = exact) | `distance` (number); with a finite `at_most` budget the answer may instead be `exceeds` (`true`) + `lower_bound` (number) when the distance provably exceeds the budget — above 256 cells the bounded kernel stops early instead of finishing the computation |
//! | `diff`     | `left`, `right` (each: id number or tree string) | `distance`, `ops` (array of script steps: `{"op":"delete","node",` `"label"}`, `{"op":"insert","node","label"}`, `{"op":"rename","from","to","old","new"}`, `{"op":"keep","from","to","label"}`), `summary` (`{deletes, inserts, renames, keeps}`) |
//! | `join`     | `tau` (number, omit = unbounded)         | `matches` (array of `{left, right, distance}`, `left < right`), `candidates` (unordered pairs), `verified` |
//! | `insert`   | `trees` (array of tree strings)          | `ids` (assigned ids, ascending)                                              |
//! | `remove`   | `ids` (array of id numbers)              | `removed` (count actually live)                                              |
//! | `status`   | —                                        | `status` object: `uptime_secs`, `live`, `id_bound`, `holes`, `segments`, `file_tombstones`, `workers`, `shards`, `requests`, `compactions`, `requests_by_type` (per-op counts), `ops` (supported op names, for feature detection), `shard_live` / `shard_tombstones` (per-shard arrays), `tcp` (bound TCP address, present only when the TCP front-end is up), `persistent` |
//! | `compact`  | —                                        | `compacted` (bool: anything reclaimed)                                       |
//! | `explain`  | `tau` (number, omit = unbudgeted)        | `plan` object: `stage_order` (array), `budgeted` — what a query with this `tau` would run |
//! | `metrics`  | `format` (`"json"` \| `"prometheus"`)    | `metrics` object (name → value or histogram summary) / `exposition` (string) |
//! | `shutdown` | —                                        | `bye` (then the stream ends)                                                 |
//!
//! Error responses are `{"ok":false,"error":"<op>: <message>"}` for every
//! op; the connection stays usable.
//!
//! # Pipelining
//!
//! Every request additionally accepts an optional `id` member (a JSON
//! number or string), echoed verbatim as the first member of the
//! response — including error responses, whenever the line was
//! well-formed enough to recover it. Responses stay in request order per
//! connection, but with ids a client can keep many requests in flight
//! and match answers without counting lines:
//!
//! ```text
//! {"op":"distance","left":0,"right":1,"id":7}  → {"id":7,"ok":true,"distance":3}
//! {"op":"status","id":"s1"}                    → {"id":"s1","ok":true,"status":{...}}
//! ```

use crate::json::{self, write_array, write_escaped, write_number, write_object, Members, Value};
use rted_index::Neighbor;
use rted_tree::{parse_bracket, Tree};

/// One operand of a `distance` request: a corpus tree by id, or an
/// inline tree.
///
/// The inline variant dominates the enum's size; that is deliberate —
/// boxing it would shrink the by-id variant a few words at the cost of
/// an extra allocation whenever a tree *is* inlined, and the id-only
/// fast path must construct with zero allocations either way.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum TreeRef {
    /// A live corpus id.
    Id(usize),
    /// An inline tree (parsed from bracket notation on the wire).
    Inline(Tree<String>),
}

/// A query or mutation the service executes.
///
/// Tree-carrying variants dominate the size (several `Vec` headers);
/// kept inline rather than boxed so building an id-to-id `Distance`
/// request — the allocation-free hot path — costs nothing, and queue
/// slots are pre-reserved anyway.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Request {
    /// All corpus trees with `TED < tau` of `tree`.
    Range {
        /// The query tree.
        tree: Tree<String>,
        /// Strict threshold (`f64::INFINITY` = unbounded).
        tau: f64,
    },
    /// The `k` nearest corpus trees to `tree`.
    TopK {
        /// The query tree.
        tree: Tree<String>,
        /// Neighbour count.
        k: usize,
    },
    /// Distance between two operands. With both operands given as ids
    /// this is the service's allocation-free fast path. A finite
    /// `at_most` budget lets pairs above 256 cells run the bounded
    /// early-exit kernel: the exact distance comes back whenever it is ≤
    /// the budget, a certified lower bound otherwise.
    Distance {
        /// Left operand.
        left: TreeRef,
        /// Right operand.
        right: TreeRef,
        /// Verification budget (`f64::INFINITY` = exact, the default).
        at_most: f64,
    },
    /// Optimal edit script between two operands (unit costs); the
    /// response's `distance` equals what `distance` reports for the same
    /// pair. Runs on the same worker path as `distance`; warm workspaces
    /// allocate only the returned script.
    Diff {
        /// Left operand (the "before" tree).
        left: TreeRef,
        /// Right operand (the "after" tree).
        right: TreeRef,
    },
    /// All corpus pairs with `TED < tau` (the similarity self-join over
    /// the whole corpus; one striped pass over all shards).
    Join {
        /// Strict threshold (`f64::INFINITY` = unbounded).
        tau: f64,
    },
    /// Insert trees; responds with their assigned ids.
    Insert {
        /// Trees to add.
        trees: Vec<Tree<String>>,
    },
    /// Remove ids (non-live ids are skipped, as in the store API).
    Remove {
        /// Ids to remove.
        ids: Vec<usize>,
    },
    /// Service counters and corpus/store state.
    Status,
    /// What a query carrying this `tau` would run: the filter stage order
    /// and whether verification is budgeted. Answered from shard 0 (all
    /// shards share one configuration).
    Explain {
        /// The hypothetical query's budget (`f64::INFINITY` = none).
        tau: f64,
    },
    /// Force a compaction now (persistent services only).
    Compact,
    /// The full telemetry snapshot: counters, gauges, and latency
    /// histogram summaries across serve, WAL, index, and core layers.
    Metrics {
        /// Rendering requested by the client.
        format: MetricsFormat,
    },
    /// Transport-level: stop the front-end ([`crate::front`]), which
    /// intercepts this; submitting it to a worker queue answers with an
    /// error.
    Shutdown,
}

/// How a `metrics` response is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Structured values: `{"metrics":{name: value | summary, ...}}`.
    #[default]
    Json,
    /// Prometheus text exposition, carried as one JSON string member
    /// (`exposition`) so the NDJSON framing is preserved.
    Prometheus,
}

/// A client-chosen request correlator: any JSON number or string, echoed
/// verbatim as the response's first member. Transport-level — the typed
/// [`Request`]/[`Response`] API never sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestId {
    /// A JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
}

impl RequestId {
    /// Appends the id as JSON: a number, or an escaped string.
    pub(crate) fn render(&self, out: &mut String) {
        match self {
            RequestId::Num(n) => write_number(*n, out),
            RequestId::Str(s) => write_escaped(s, out),
        }
    }
}

/// Corpus, store and service counters for a `status` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusReport {
    /// Live trees across all shards.
    pub live: usize,
    /// One past the largest global id ever assigned.
    pub id_bound: usize,
    /// Reserved-but-vacant global ids (never shrinks; ids are not
    /// reused).
    pub holes: usize,
    /// Whether a durable store backs the service.
    pub persistent: bool,
    /// Segments across all backing files (0 when in-memory).
    pub segments: usize,
    /// Tombstone records across all backing files — the compaction
    /// backlog (0 when in-memory).
    pub file_tombstones: usize,
    /// Worker threads.
    pub workers: usize,
    /// Independent `TreeIndex` shards the corpus is striped over.
    pub shards: usize,
    /// Live trees per shard, indexed by shard number.
    pub shard_live: Vec<usize>,
    /// File tombstones per shard (all zero when in-memory).
    pub shard_tombstones: Vec<usize>,
    /// The TCP front-end's bound address, when one is up.
    pub tcp: Option<String>,
    /// Requests served since start.
    pub requests: u64,
    /// Shard-file compaction rewrites since start (threshold-driven +
    /// explicit; one per rewritten file).
    pub compactions: u64,
    /// Seconds since the server started.
    pub uptime_secs: u64,
    /// Requests served per type, in [`REQUEST_TYPE_NAMES`] order.
    pub requests_by_type: [u64; 11],
}

/// The single source of truth for worker-served op names: the order of
/// [`StatusReport::requests_by_type`], of the `requests_by_type` object
/// and `ops` list in a rendered `status` response, and of the server's
/// per-op latency histograms. `shutdown` is transport-level and is not
/// listed. New ops are appended so existing indices (and metric names
/// derived from them) never shift.
pub const REQUEST_TYPE_NAMES: [&str; 11] = [
    "range", "topk", "distance", "insert", "remove", "status", "compact", "metrics", "diff",
    "join", "explain",
];

/// A worker-served op, in [`REQUEST_TYPE_NAMES`] order: its discriminant
/// is the slot of its name, its `requests_by_type` count and its latency
/// histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Range,
    TopK,
    Distance,
    Insert,
    Remove,
    Status,
    Compact,
    Metrics,
    Diff,
    Join,
    Explain,
}

impl OpKind {
    const ALL: [OpKind; 11] = [
        OpKind::Range,
        OpKind::TopK,
        OpKind::Distance,
        OpKind::Insert,
        OpKind::Remove,
        OpKind::Status,
        OpKind::Compact,
        OpKind::Metrics,
        OpKind::Diff,
        OpKind::Join,
        OpKind::Explain,
    ];

    /// The op's wire name.
    pub(crate) fn name(self) -> &'static str {
        REQUEST_TYPE_NAMES[self as usize]
    }

    fn from_name(name: &str) -> Option<OpKind> {
        let slot = REQUEST_TYPE_NAMES.iter().position(|n| *n == name)?;
        Some(OpKind::ALL[slot])
    }
}

impl Request {
    /// The op this request is, or `None` for the transport-level
    /// `shutdown`.
    pub(crate) fn kind(&self) -> Option<OpKind> {
        Some(match self {
            Request::Range { .. } => OpKind::Range,
            Request::TopK { .. } => OpKind::TopK,
            Request::Distance { .. } => OpKind::Distance,
            Request::Diff { .. } => OpKind::Diff,
            Request::Join { .. } => OpKind::Join,
            Request::Insert { .. } => OpKind::Insert,
            Request::Remove { .. } => OpKind::Remove,
            Request::Status => OpKind::Status,
            Request::Compact => OpKind::Compact,
            Request::Explain { .. } => OpKind::Explain,
            Request::Metrics { .. } => OpKind::Metrics,
            Request::Shutdown => return None,
        })
    }
}

/// The service's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Matches for `range`/`topk`, plus that query's filter counters.
    Neighbors {
        /// The matched trees.
        neighbors: Vec<Neighbor>,
        /// Candidates considered.
        candidates: usize,
        /// Exact verifications performed.
        verified: usize,
    },
    /// Exact distance for `distance` (within any requested budget).
    Distance(f64),
    /// Budget-exceeded answer for `distance` with a finite `at_most`:
    /// the payload is a certified lower bound on the true distance
    /// (always ≥ the budget; the exact distance is strictly above it).
    DistanceExceeds(f64),
    /// Edit script for `diff` (its `cost` is rendered as `distance`).
    Diff(rted_core::EditScript),
    /// Matched pairs for `join`, plus that join's filter counters.
    Matches {
        /// Matched pairs, sorted by `(left, right)` with `left < right`.
        matches: Vec<rted_index::JoinPair>,
        /// Unordered candidate pairs considered.
        candidates: usize,
        /// Exact verifications performed.
        verified: usize,
    },
    /// Assigned ids for `insert`.
    Inserted(Vec<usize>),
    /// Count of trees actually removed for `remove`.
    Removed(usize),
    /// Answer to `status`.
    Status(StatusReport),
    /// Answer to `compact` (`false` when there was nothing to reclaim).
    Compacted(bool),
    /// Answer to `explain`: what a query would run.
    Plan(rted_index::PlanReport),
    /// Answer to `metrics` with `format: "json"`: every registered
    /// metric as a structured value.
    Metrics(rted_obs::Snapshot),
    /// Answer to `metrics` with `format: "prometheus"`: the text
    /// exposition, shipped as a single JSON string member.
    MetricsText(String),
    /// Acknowledgement of `shutdown`, sent by [`crate::front`].
    Bye,
    /// Any failure. The service stays up; only this request failed.
    Error(String),
}

fn field_err(op: &str, msg: impl std::fmt::Display) -> String {
    format!("{op}: {msg}")
}

fn tree_field(v: &Value, op: &str, key: &str) -> Result<Tree<String>, String> {
    let text = v
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| field_err(op, format_args!("needs a \"{key}\" tree string")))?;
    parse_bracket(text).map_err(|e| field_err(op, format_args!("bad tree in \"{key}\": {e}")))
}

fn tree_ref_field(v: &Value, op: &str, key: &str) -> Result<TreeRef, String> {
    match v.get(key) {
        Some(Value::Str(text)) => {
            Ok(TreeRef::Inline(parse_bracket(text).map_err(|e| {
                field_err(op, format_args!("bad tree in \"{key}\": {e}"))
            })?))
        }
        Some(n @ Value::Num(_)) => n.as_usize().map(TreeRef::Id).ok_or_else(|| {
            field_err(
                op,
                format_args!("\"{key}\" id must be a non-negative integer"),
            )
        }),
        _ => Err(field_err(
            op,
            format_args!("needs \"{key}\" as an id (number) or a tree (string)"),
        )),
    }
}

/// An optional threshold (`tau`, `at_most`): absent means unbounded
/// (`f64::INFINITY`); anything but a number is refused.
fn threshold_field(v: &Value, op: &str, key: &str) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(f64::INFINITY),
        Some(t) => t
            .as_f64()
            .filter(|t| !t.is_nan())
            .ok_or_else(|| field_err(op, format_args!("\"{key}\" must be a number"))),
    }
}

/// The array field `key`, each element read by `item` (`needs` is the
/// error when the field is missing or not an array). An element's error
/// is reported after its position, as `"key"[i]<error>`.
fn array_field<T>(
    v: &Value,
    op: &str,
    key: &str,
    needs: &str,
    item: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| field_err(op, needs))?;
    (items.iter().enumerate())
        .map(|(i, x)| item(x).map_err(|e| field_err(op, format_args!("\"{key}\"[{i}]{e}"))))
        .collect()
}

/// Rejects keys the operation does not understand — a typoed `"taau"`
/// must not silently run an unbounded query. `op` and the transport-level
/// `id` are accepted everywhere.
fn expect_keys(v: &Value, op: &str, allowed: &[&str]) -> Result<(), String> {
    for key in v.keys().into_iter().flatten() {
        if key != "op" && key != "id" && !allowed.contains(&key) {
            return Err(field_err(op, format_args!("unknown key \"{key}\"")));
        }
    }
    Ok(())
}

/// Parses one request line, separating the optional transport-level `id`
/// from the operation. The id comes back even when the operation itself
/// is malformed — as long as the line was valid JSON with a well-typed
/// `id` — so error responses stay correlatable for pipelined clients.
pub fn parse_request_line(line: &str) -> (Option<RequestId>, Result<Request, String>) {
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return (None, Err(e)),
    };
    let id = match v.get("id") {
        None => None,
        Some(Value::Num(n)) => Some(RequestId::Num(*n)),
        Some(Value::Str(s)) => Some(RequestId::Str(s.clone())),
        Some(_) => return (None, Err("\"id\" must be a number or a string".to_string())),
    };
    (id, parse_request_value(&v))
}

/// Parses one request line, ignoring any `id` member (the id-aware entry
/// point is [`parse_request_line`]).
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_request_line(line).1
}

fn parse_request_value(v: &Value) -> Result<Request, String> {
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request needs an \"op\" field")?;
    let Some(kind) = OpKind::from_name(op) else {
        if op == "shutdown" {
            expect_keys(v, op, &[])?;
            return Ok(Request::Shutdown);
        }
        return Err(format!(
            "unknown op \"{op}\" ({} | shutdown)",
            REQUEST_TYPE_NAMES.join(" | ")
        ));
    };
    match kind {
        OpKind::Range => {
            expect_keys(v, op, &["tree", "tau"])?;
            let tau = threshold_field(v, op, "tau")?;
            Ok(Request::Range {
                tree: tree_field(v, op, "tree")?,
                tau,
            })
        }
        OpKind::TopK => {
            expect_keys(v, op, &["tree", "k"])?;
            let k = match v.get("k") {
                None => 5,
                Some(k) => k
                    .as_usize()
                    .ok_or_else(|| field_err(op, "\"k\" must be a non-negative integer"))?,
            };
            Ok(Request::TopK {
                tree: tree_field(v, op, "tree")?,
                k,
            })
        }
        OpKind::Distance => {
            expect_keys(v, op, &["left", "right", "at_most"])?;
            let at_most = threshold_field(v, op, "at_most")?;
            Ok(Request::Distance {
                left: tree_ref_field(v, op, "left")?,
                right: tree_ref_field(v, op, "right")?,
                at_most,
            })
        }
        OpKind::Diff => {
            expect_keys(v, op, &["left", "right"])?;
            Ok(Request::Diff {
                left: tree_ref_field(v, op, "left")?,
                right: tree_ref_field(v, op, "right")?,
            })
        }
        OpKind::Join => {
            expect_keys(v, op, &["tau"])?;
            Ok(Request::Join {
                tau: threshold_field(v, op, "tau")?,
            })
        }
        OpKind::Insert => {
            expect_keys(v, op, &["trees"])?;
            let needs = "needs a \"trees\" array of tree strings";
            let trees = array_field(v, op, "trees", needs, |item| {
                let text = item.as_str().ok_or(" is not a string")?;
                parse_bracket(text).map_err(|e| format!(": {e}"))
            })?;
            Ok(Request::Insert { trees })
        }
        OpKind::Remove => {
            expect_keys(v, op, &["ids"])?;
            let ids = array_field(v, op, "ids", "needs an \"ids\" array", |item| {
                item.as_usize().ok_or_else(|| " is not an id".into())
            })?;
            Ok(Request::Remove { ids })
        }
        OpKind::Status => {
            expect_keys(v, op, &[])?;
            Ok(Request::Status)
        }
        OpKind::Compact => {
            expect_keys(v, op, &[])?;
            Ok(Request::Compact)
        }
        OpKind::Metrics => {
            expect_keys(v, op, &["format"])?;
            let format = match v.get("format").map(Value::as_str) {
                None | Some(Some("json")) => MetricsFormat::Json,
                Some(Some("prometheus")) => MetricsFormat::Prometheus,
                Some(_) => {
                    return Err(field_err(
                        op,
                        "\"format\" must be \"json\" or \"prometheus\"",
                    ))
                }
            };
            Ok(Request::Metrics { format })
        }
        OpKind::Explain => {
            expect_keys(v, op, &["tau"])?;
            Ok(Request::Explain {
                tau: threshold_field(v, op, "tau")?,
            })
        }
    }
}

/// Renders one response as a single JSON line (no trailing newline),
/// without a request id — see [`render_response_with`].
pub fn render_response(response: &Response) -> String {
    render_response_with(response, None)
}

/// Renders one response as a single JSON line, echoing `id` (when given)
/// as the first member so pipelined clients can correlate answers.
pub fn render_response_with(response: &Response, id: Option<&RequestId>) -> String {
    let mut out = String::new();
    write_object(&mut out, |o| {
        if let Some(id) = id {
            id.render(o.key("id"));
        }
        o.bool("ok", !matches!(response, Response::Error(_)));
        render_members(response, o);
    });
    out
}

/// The members of one response after `"ok"`.
fn render_members(response: &Response, o: &mut Members) {
    match response {
        Response::Neighbors {
            neighbors,
            candidates,
            verified,
        } => {
            write_array(o.key("neighbors"), |a| {
                for n in neighbors {
                    write_object(a.item(), |e| {
                        e.num("id", n.id as f64);
                        e.num("distance", n.distance);
                    });
                }
            });
            o.num("candidates", *candidates as f64);
            o.num("verified", *verified as f64);
        }
        Response::Distance(d) => o.num("distance", *d),
        Response::DistanceExceeds(lb) => {
            o.bool("exceeds", true);
            o.num("lower_bound", *lb);
        }
        Response::Diff(script) => render_script(script, o),
        Response::Matches {
            matches,
            candidates,
            verified,
        } => {
            write_array(o.key("matches"), |a| {
                for m in matches {
                    write_object(a.item(), |e| {
                        e.num("left", m.left as f64);
                        e.num("right", m.right as f64);
                        e.num("distance", m.distance);
                    });
                }
            });
            o.num("candidates", *candidates as f64);
            o.num("verified", *verified as f64);
        }
        Response::Inserted(ids) => write_counts(o.key("ids"), ids),
        Response::Removed(n) => o.num("removed", *n as f64),
        Response::Status(s) => write_object(o.key("status"), |st| render_status(s, st)),
        Response::Compacted(reclaimed) => o.bool("compacted", *reclaimed),
        Response::Plan(report) => write_object(o.key("plan"), |p| {
            write_array(p.key("stage_order"), |a| {
                for name in &report.stage_order {
                    write_escaped(name, a.item());
                }
            });
            p.bool("budgeted", report.budgeted);
        }),
        Response::Metrics(snap) => write_object(o.key("metrics"), |m| {
            for (name, value) in &snap.metrics {
                let out = m.key(name);
                match value {
                    rted_obs::MetricValue::Counter(v) => write_number(*v as f64, out),
                    rted_obs::MetricValue::Gauge(v) => write_number(*v as f64, out),
                    rted_obs::MetricValue::Histogram(h) => write_object(out, |f| {
                        f.num("count", h.count as f64);
                        f.num("sum", h.sum as f64);
                        f.num("p50", h.p50 as f64);
                        f.num("p95", h.p95 as f64);
                        f.num("p99", h.p99 as f64);
                        f.num("max", h.max as f64);
                    }),
                }
            }
        }),
        Response::MetricsText(text) => o.str("exposition", text),
        Response::Bye => o.bool("bye", true),
        Response::Error(msg) => o.str("error", msg),
    }
}

/// An array of counts or ids.
fn write_counts(out: &mut String, values: &[usize]) {
    write_array(out, |a| {
        for &n in values {
            write_number(n as f64, a.item());
        }
    });
}

/// The members of a `status` object.
fn render_status(s: &StatusReport, st: &mut Members) {
    for (key, value) in [
        ("uptime_secs", s.uptime_secs as f64),
        ("live", s.live as f64),
        ("id_bound", s.id_bound as f64),
        ("holes", s.holes as f64),
        ("segments", s.segments as f64),
        ("file_tombstones", s.file_tombstones as f64),
        ("workers", s.workers as f64),
        ("shards", s.shards as f64),
        ("requests", s.requests as f64),
        ("compactions", s.compactions as f64),
    ] {
        st.num(key, value);
    }
    write_object(st.key("requests_by_type"), |t| {
        for (name, count) in REQUEST_TYPE_NAMES.iter().zip(&s.requests_by_type) {
            t.num(name, *count as f64);
        }
    });
    // The supported-op list, so clients can feature-detect new ops
    // (`shutdown` included: it is accepted on the wire even though the
    // transport answers it itself).
    write_array(st.key("ops"), |a| {
        for name in REQUEST_TYPE_NAMES.iter().chain(&["shutdown"]) {
            write_escaped(name, a.item());
        }
    });
    // Per-shard breakdowns (aligned by shard number), then the TCP bind
    // address when a TCP front-end is up — clients probe it the same
    // way they probe `ops`.
    write_counts(st.key("shard_live"), &s.shard_live);
    write_counts(st.key("shard_tombstones"), &s.shard_tombstones);
    if let Some(addr) = &s.tcp {
        st.str("tcp", addr);
    }
    st.bool("persistent", s.persistent);
}

/// The members of a `diff` answer: `distance`, `ops` and `summary`.
fn render_script(script: &rted_core::EditScript, o: &mut Members) {
    use rted_core::ScriptOp;
    o.num("distance", script.cost);
    write_array(o.key("ops"), |a| {
        for op in &script.ops {
            write_object(a.item(), |e| match op {
                ScriptOp::Delete { node, label } => {
                    e.str("op", "delete");
                    e.num("node", *node as f64);
                    e.str("label", label);
                }
                ScriptOp::Insert { node, label } => {
                    e.str("op", "insert");
                    e.num("node", *node as f64);
                    e.str("label", label);
                }
                ScriptOp::Rename { from, to, old, new } => {
                    e.str("op", "rename");
                    e.num("from", *from as f64);
                    e.num("to", *to as f64);
                    e.str("old", old);
                    e.str("new", new);
                }
                ScriptOp::Keep { from, to, label } => {
                    e.str("op", "keep");
                    e.num("from", *from as f64);
                    e.num("to", *to as f64);
                    e.str("label", label);
                }
            });
        }
    });
    write_object(o.key("summary"), |s| {
        s.num("deletes", script.deletes as f64);
        s.num("inserts", script.inserts as f64);
        s.num("renames", script.renames as f64);
        s.num("keeps", script.keeps as f64);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rted_tree::to_bracket;

    #[test]
    fn requests_parse() {
        match parse_request(r#"{"op":"range","tree":"{a{b}}","tau":2}"#).unwrap() {
            Request::Range { tree, tau } => {
                assert_eq!(to_bracket(&tree), "{a{b}}");
                assert_eq!(tau, 2.0);
            }
            other => panic!("{other:?}"),
        }
        // tau omitted = unbounded.
        match parse_request(r#"{"op":"range","tree":"{a}"}"#).unwrap() {
            Request::Range { tau, .. } => assert_eq!(tau, f64::INFINITY),
            other => panic!("{other:?}"),
        }
        match parse_request(r#"{"op":"distance","left":3,"right":"{x{y}}"}"#).unwrap() {
            Request::Distance {
                left: TreeRef::Id(3),
                right: TreeRef::Inline(t),
                at_most,
            } => {
                assert_eq!(to_bracket(&t), "{x{y}}");
                // at_most omitted = exact.
                assert_eq!(at_most, f64::INFINITY);
            }
            other => panic!("{other:?}"),
        }
        match parse_request(r#"{"op":"distance","left":0,"right":1,"at_most":2.5}"#).unwrap() {
            Request::Distance { at_most, .. } => assert_eq!(at_most, 2.5),
            other => panic!("{other:?}"),
        }
        match parse_request(r#"{"op":"diff","left":"{a{b}}","right":2}"#).unwrap() {
            Request::Diff {
                left: TreeRef::Inline(t),
                right: TreeRef::Id(2),
            } => assert_eq!(to_bracket(&t), "{a{b}}"),
            other => panic!("{other:?}"),
        }
        match parse_request(r#"{"op":"join","tau":2}"#).unwrap() {
            Request::Join { tau } => assert_eq!(tau, 2.0),
            other => panic!("{other:?}"),
        }
        // tau omitted = unbounded join.
        match parse_request(r#"{"op":"join"}"#).unwrap() {
            Request::Join { tau } => assert_eq!(tau, f64::INFINITY),
            other => panic!("{other:?}"),
        }
        match parse_request(r#"{"op":"insert","trees":["{a}","{b{c}}"]}"#).unwrap() {
            Request::Insert { trees } => assert_eq!(trees.len(), 2),
            other => panic!("{other:?}"),
        }
        match parse_request(r#"{"op":"remove","ids":[4,0]}"#).unwrap() {
            Request::Remove { ids } => assert_eq!(ids, vec![4, 0]),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"op":"status"}"#).unwrap(),
            Request::Status
        ));
        match parse_request(r#"{"op":"explain","tau":3}"#).unwrap() {
            Request::Explain { tau } => assert_eq!(tau, 3.0),
            other => panic!("{other:?}"),
        }
        // tau omitted = unbudgeted plan probe.
        match parse_request(r#"{"op":"explain"}"#).unwrap() {
            Request::Explain { tau } => assert_eq!(tau, f64::INFINITY),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
        // metrics: format defaults to json.
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics {
                format: MetricsFormat::Json
            }
        ));
        assert!(matches!(
            parse_request(r#"{"op":"metrics","format":"prometheus"}"#).unwrap(),
            Request::Metrics {
                format: MetricsFormat::Prometheus
            }
        ));
    }

    #[test]
    fn request_ids_parse_and_echo() {
        // Every op accepts an optional id (number or string).
        let (id, req) = parse_request_line(r#"{"op":"status","id":7}"#);
        assert_eq!(id, Some(RequestId::Num(7.0)));
        assert!(matches!(req, Ok(Request::Status)));
        let (id, req) = parse_request_line(r#"{"id":"q-1","op":"range","tree":"{a}","tau":2}"#);
        assert_eq!(id, Some(RequestId::Str("q-1".into())));
        assert!(req.is_ok());
        // No id: nothing echoed.
        let (id, req) = parse_request_line(r#"{"op":"compact"}"#);
        assert_eq!(id, None);
        assert!(req.is_ok());
        // The id survives an op-level error, so pipelined clients can
        // correlate failures.
        let (id, req) = parse_request_line(r#"{"op":"fly","id":3}"#);
        assert_eq!(id, Some(RequestId::Num(3.0)));
        assert!(req.is_err());
        // A mistyped id is itself an error (and cannot be echoed).
        let (id, req) = parse_request_line(r#"{"op":"status","id":[1]}"#);
        assert_eq!(id, None);
        assert!(req.is_err());

        // Echo: first member, verbatim, on success and on error.
        assert_eq!(
            render_response_with(&Response::Distance(3.0), Some(&RequestId::Num(7.0))),
            r#"{"id":7,"ok":true,"distance":3}"#
        );
        assert_eq!(
            render_response_with(
                &Response::Error("bad".into()),
                Some(&RequestId::Str("q \"1\"".into()))
            ),
            r#"{"id":"q \"1\"","ok":false,"error":"bad"}"#
        );
        // Id-less rendering is unchanged.
        assert_eq!(
            render_response_with(&Response::Bye, None),
            render_response(&Response::Bye)
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "not json",
            r#"{"tree":"{a}"}"#,                       // no op
            r#"{"op":"fly"}"#,                         // unknown op
            r#"{"op":"range","tree":"{a}","taau":2}"#, // typoed key
            r#"{"op":"range","tree":"{a"}"#,           // malformed tree
            r#"{"op":"range"}"#,                       // missing tree
            r#"{"op":"topk","tree":"{a}","k":-1}"#,    // negative k
            r#"{"op":"distance","left":true,"right":0}"#,
            r#"{"op":"distance","left":0,"right":1,"at_most":"2"}"#, // non-numeric budget
            r#"{"op":"distance","left":0,"right":1,"atmost":2}"#,    // typoed key
            r#"{"op":"diff","left":0}"#,                             // missing right
            r#"{"op":"diff","left":0,"right":1,"costs":"1,1,1"}"#,   // unknown key
            r#"{"op":"join","tau":"2"}"#,                            // non-numeric tau
            r#"{"op":"join","k":3}"#,                                // unknown key
            r#"{"op":"insert","trees":"{a}"}"#,                      // not an array
            r#"{"op":"remove","ids":[1.5]}"#,
            r#"{"op":"status","x":1}"#,
            r#"{"op":"metrics","format":"xml"}"#, // unsupported format
            r#"{"op":"metrics","fmt":"json"}"#,   // typoed key
            r#"{"op":"explain","tau":"2"}"#,      // non-numeric tau
            r#"{"op":"explain","k":5}"#,          // unknown key
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn responses_render_as_json_lines() {
        let line = render_response(&Response::Neighbors {
            neighbors: vec![
                Neighbor {
                    id: 0,
                    distance: 0.0,
                },
                Neighbor {
                    id: 7,
                    distance: 2.5,
                },
            ],
            candidates: 10,
            verified: 3,
        });
        assert_eq!(
            line,
            r#"{"ok":true,"neighbors":[{"id":0,"distance":0},{"id":7,"distance":2.5}],"candidates":10,"verified":3}"#
        );
        assert_eq!(
            render_response(&Response::Error("bad \"op\"".into())),
            r#"{"ok":false,"error":"bad \"op\""}"#
        );
        // The budget-exceeded answer renders byte-stably (0.0 as "0").
        assert_eq!(
            render_response(&Response::DistanceExceeds(3.0)),
            r#"{"ok":true,"exceeds":true,"lower_bound":3}"#
        );
        // Every shape is valid JSON on one line.
        for resp in [
            Response::Distance(3.0),
            Response::DistanceExceeds(2.5),
            Response::Inserted(vec![5, 6]),
            Response::Removed(2),
            Response::Compacted(true),
            Response::Bye,
            Response::Matches {
                matches: vec![rted_index::JoinPair {
                    left: 0,
                    right: 2,
                    distance: 1.0,
                }],
                candidates: 3,
                verified: 2,
            },
            Response::Status(StatusReport {
                live: 3,
                id_bound: 5,
                holes: 2,
                persistent: true,
                segments: 2,
                file_tombstones: 1,
                workers: 4,
                shards: 2,
                shard_live: vec![2, 1],
                shard_tombstones: vec![1, 0],
                tcp: Some("127.0.0.1:4433".into()),
                requests: 99,
                compactions: 1,
                uptime_secs: 12,
                requests_by_type: [40, 5, 50, 1, 1, 1, 1, 0, 2, 4, 3],
            }),
            Response::Plan(rted_index::PlanReport {
                stage_order: vec!["size", "depth"],
                budgeted: true,
            }),
        ] {
            let line = render_response(&resp);
            assert!(!line.contains('\n'));
            crate::json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn status_renders_uptime_and_per_type_counts() {
        let line = render_response(&Response::Status(StatusReport {
            live: 3,
            id_bound: 5,
            holes: 2,
            persistent: false,
            segments: 0,
            file_tombstones: 0,
            workers: 1,
            shards: 3,
            shard_live: vec![1, 1, 1],
            shard_tombstones: vec![0, 0, 0],
            tcp: None,
            requests: 46,
            compactions: 0,
            uptime_secs: 7,
            requests_by_type: [40, 5, 0, 0, 0, 1, 0, 0, 3, 2, 1],
        }));
        assert!(line.contains(r#""uptime_secs":7"#), "{line}");
        assert!(line.contains(r#""shards":3"#), "{line}");
        assert!(
            line.contains(r#""requests_by_type":{"range":40,"topk":5,"distance":0,"insert":0,"remove":0,"status":1,"compact":0,"metrics":0,"diff":3,"join":2,"explain":1}"#),
            "{line}"
        );
        // Feature detection: the supported-op list is rendered verbatim
        // from REQUEST_TYPE_NAMES plus the transport-level shutdown.
        assert!(
            line.contains(r#""ops":["range","topk","distance","insert","remove","status","compact","metrics","diff","join","explain","shutdown"]"#),
            "{line}"
        );
        // Per-shard arrays render aligned by shard number; the tcp
        // member is absent without a TCP front-end...
        assert!(
            line.contains(r#""shard_live":[1,1,1],"shard_tombstones":[0,0,0],"persistent":false}"#),
            "{line}"
        );
        assert!(!line.contains(r#""tcp""#), "{line}");
        // ...and present, as a string, with one.
        let report = StatusReport {
            tcp: Some("127.0.0.1:4433".into()),
            ..render_and_reparse_seed()
        };
        let line = render_response(&Response::Status(report));
        assert!(line.contains(r#","tcp":"127.0.0.1:4433","#), "{line}");
    }

    /// A small valid report for tests that tweak one field.
    fn render_and_reparse_seed() -> StatusReport {
        StatusReport {
            live: 0,
            id_bound: 0,
            holes: 0,
            persistent: false,
            segments: 0,
            file_tombstones: 0,
            workers: 1,
            shards: 1,
            shard_live: vec![0],
            shard_tombstones: vec![0],
            tcp: None,
            requests: 0,
            compactions: 0,
            uptime_secs: 0,
            requests_by_type: [0; 11],
        }
    }

    #[test]
    fn plan_responses_render_decision_records() {
        let line = render_response(&Response::Plan(rted_index::PlanReport {
            stage_order: vec!["size", "leaf", "depth"],
            budgeted: false,
        }));
        assert_eq!(
            line,
            r#"{"ok":true,"plan":{"stage_order":["size","leaf","depth"],"budgeted":false}}"#
        );
        crate::json::parse(&line).unwrap();
    }

    #[test]
    fn diff_responses_render_scripts() {
        use rted_core::{edit_mapping, UnitCost};
        let f = parse_bracket("{a{b}{c}}").unwrap();
        let g = parse_bracket("{a{b}{x}}").unwrap();
        let script = edit_mapping(&f, &g, &UnitCost).script(&f, &g);
        let line = render_response(&Response::Diff(script.clone()));
        assert_eq!(
            line,
            r#"{"ok":true,"distance":1,"ops":[{"op":"keep","from":0,"to":0,"label":"b"},{"op":"rename","from":1,"to":1,"old":"c","new":"x"},{"op":"keep","from":2,"to":2,"label":"a"}],"summary":{"deletes":0,"inserts":0,"renames":1,"keeps":2}}"#
        );
        crate::json::parse(&line).unwrap();
    }

    #[test]
    fn diff_takes_one_pair_per_request() {
        // There is one `diff` form: a batch of pairs is refused like any
        // other unknown key; pipelined single diffs do the same work.
        for line in [
            r#"{"op":"diff","pairs":[[0,1],[2,0]]}"#,
            r#"{"op":"diff","left":0,"right":1,"pairs":[[0,1]]}"#,
        ] {
            assert_eq!(
                parse_request(line).unwrap_err(),
                r#"diff: unknown key "pairs""#
            );
        }
    }

    #[test]
    fn op_kinds_follow_the_name_list() {
        for (slot, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, slot);
            assert_eq!(OpKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OpKind::from_name("shutdown"), None);
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#).unwrap().kind(), None);
        let diff = parse_request(r#"{"op":"diff","left":0,"right":1}"#).unwrap();
        assert_eq!(diff.kind().map(OpKind::name), Some("diff"));
        // The unknown-op message lists every name, in order.
        assert_eq!(
            parse_request(r#"{"op":"fly"}"#).unwrap_err(),
            "unknown op \"fly\" (range | topk | distance | insert | remove | status | \
             compact | metrics | diff | join | explain | shutdown)"
        );
    }

    #[test]
    fn metrics_responses_render_as_json_lines() {
        let mut snap = rted_obs::Snapshot::default();
        snap.push("serve_errors_total", rted_obs::MetricValue::Counter(2));
        snap.push("serve_queue_depth", rted_obs::MetricValue::Gauge(-1));
        snap.push(
            "serve_latency_distance_ns",
            rted_obs::MetricValue::Histogram(rted_obs::HistogramSnapshot {
                count: 3,
                sum: 600,
                p50: 255,
                p95: 255,
                p99: 255,
                max: 250,
            }),
        );
        let line = render_response(&Response::Metrics(snap));
        assert_eq!(
            line,
            r#"{"ok":true,"metrics":{"serve_errors_total":2,"serve_queue_depth":-1,"serve_latency_distance_ns":{"count":3,"sum":600,"p50":255,"p95":255,"p99":255,"max":250}}}"#
        );
        let text = render_response(&Response::MetricsText("a 1\nb 2\n".into()));
        assert_eq!(text, r#"{"ok":true,"exposition":"a 1\nb 2\n"}"#);
        assert!(!text.contains('\n'));
        crate::json::parse(&text).unwrap();
    }
}
