//! `rted-serve` — a crash-safe, long-lived TED query service.
//!
//! The RTED paper's robustness argument is about worst-case *memory and
//! time*; a service built on it must extend that robustness to *state*:
//! stay up across client churn, survive its own crashes without losing
//! the corpus, and keep the hot path allocation-free. This crate ties
//! the previous layers together into that service:
//!
//! * [`rted_index::TreeIndex`] answers `range` / `top_k` / `distance`
//!   queries behind the staged filter pipeline;
//! * [`rted_index::CorpusLog`] makes `insert` / `remove` durable
//!   (fsynced segment appends *before* the in-memory mutation);
//! * on startup the corpus is **recovered from disk** — including
//!   tail-scan repair of a file torn by a crash mid-update
//!   ([`rted_index::Recovery::Repair`]) — instead of rebuilt;
//! * a fixed worker pool drains a request queue, each worker owning one
//!   [`rted_core::Workspace`] for its lifetime, so the id-to-id
//!   `distance` path is zero-allocation per request once warm;
//! * a background maintenance task compacts the store off the query
//!   path when the tombstone backlog crosses a configurable fraction of
//!   the live count.
//!
//! * the corpus can be **striped over N independent shards**
//!   ([`ServerConfig::shards`]), each with its own log, epoch-based
//!   copy-on-write snapshot, and compaction; queries pin a snapshot
//!   (`Arc::clone`) and never wait on mutations or compaction, while
//!   `range`/`top_k`/`join` run one striped driver over all shards with
//!   answers and counters byte-identical to a 1-shard server.
//!
//! Two surfaces expose it: the typed library API ([`Server::start`],
//! [`Client::call`], graceful [`Server::shutdown`] draining in-flight
//! requests) and the line-protocol front-end ([`front`], which the
//! `rted serve` CLI runs) — a newline-delimited JSON protocol
//! ([`proto`]) over stdin/stdout, a Unix socket, or an authenticated TCP
//! listener, so many client processes (local or remote) can share one
//! resident corpus. [`front`] also holds the matching client half.
//!
//! # Example
//!
//! ```
//! use rted_serve::{Request, Response, Server, ServerConfig};
//! use rted_tree::parse_bracket;
//!
//! let server = Server::in_memory(
//!     vec![
//!         parse_bracket("{a{b}{c}}").unwrap(),
//!         parse_bracket("{a{b}{d}}").unwrap(),
//!     ],
//!     ServerConfig::default(),
//! );
//! let mut client = server.client();
//! let query = parse_bracket("{a{b}{c}}").unwrap();
//! match client.call(Request::Range { tree: query, tau: 2.0 }) {
//!     Response::Neighbors { neighbors, .. } => {
//!         assert_eq!(neighbors.len(), 2);
//!         assert_eq!(neighbors[0].distance, 0.0);
//!     }
//!     other => panic!("{other:?}"),
//! }
//! server.shutdown(); // drains in-flight requests, joins all threads
//! ```

pub mod front;
pub mod json;
mod metrics;
pub mod proto;
mod server;

pub use proto::{
    parse_request, parse_request_line, render_response, render_response_with, MetricsFormat,
    Request, RequestId, Response, StatusReport, TreeRef, REQUEST_TYPE_NAMES,
};
pub use server::{Client, Server, ServerConfig};

// Re-exported so front-ends can name recovery modes, reports, and
// result-row types without depending on rted-index directly.
pub use rted_index::{JoinPair, Neighbor, PersistError, Recovery, RepairReport};
