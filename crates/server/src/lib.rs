//! # reach-server
//!
//! A threaded HTTP/1.1 query service over warm reachability indexes.
//!
//! The survey's headline economics — seconds to build an index, then
//! microseconds per query (§5) — only pay off when the index outlives
//! a single process invocation. This crate keeps the index warm behind
//! a long-lived service built entirely on `std::net`:
//!
//! * `POST /query` — one `<s> <t>` pair, answered `true`/`false`;
//! * `POST /batch` — newline-separated pairs, evaluated through
//!   `reach-core`'s sharded [`QueryEngine`](reach_core::QueryEngine);
//! * `POST /lcr` — one `<s> <t> <l1,l2,…|*>` label-constrained pair
//!   (when started with an LCR index);
//! * `GET /healthz`, `GET /metrics` — liveness and a text exposition
//!   of request counts, per-endpoint latency histograms, batch sizes,
//!   scratch-pool overflows, and the build report;
//! * `POST /admin/shutdown` — graceful drain.
//!
//! Architecture: one listener thread feeds a **bounded** connection
//! queue drained by a fixed worker pool; overload returns `429`/`413`
//! instead of falling over, and responses are byte-identical at every
//! worker count. See `DESIGN.md` §5d.

#![forbid(unsafe_code)]

pub mod body;
#[doc(hidden)]
pub mod client;
pub mod http;
pub mod metrics;
pub mod server;

pub use metrics::{Endpoint, Histogram, IdleWait, Metrics};
pub use server::{start, ServerConfig, ServerHandle, Services};
