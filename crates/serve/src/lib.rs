#![warn(missing_docs)]

//! `qmatch-serve`: a long-running match server with a durable schema
//! registry.
//!
//! The library half of `qmatch serve`. A [`server::Server`] fronts a
//! sharded [`registry::Registry`] — named schemas ingested over HTTP,
//! compiled once, prepared into per-shard session artifacts, and matched
//! many times — so the prepare-once/match-many economics of
//! [`qmatch_core::MatchSession`] survive across *processes*, not just
//! within one CLI invocation. With a data directory configured, they also
//! survive across *restarts*: every `PUT` is appended to a write-ahead
//! log ([`persist`]) that compacts into snapshots and replays on boot.
//!
//! Everything is built on `std` only (the deployment target has no crate
//! registry access): [`http`] is a hand-rolled HTTP/1.1 parser/serializer,
//! [`reactor`] an epoll readiness loop over raw `libc` FFI (nonblocking
//! accept, per-connection parse state machines, slow-loris deadlines,
//! bounded match-queue backpressure), [`shard`] the shared-nothing
//! registry partitions and their worker loops, [`json`] a writer/escaper,
//! and [`metrics`] lock-free counters with a Prometheus-flavoured
//! exposition.
//!
//! # Topology
//!
//! One reactor thread owns every socket. Parsed requests dispatch by
//! [`handlers::disposition`]: cheap endpoints run inline; `PUT` and
//! `/match` queue to the owner shard (`fnv1a(name) % shards`); topk
//! scatters to every shard and the last to finish merges the partial
//! rankings through a total-order heap. The queue is bounded
//! (`queue_depth`): saturated servers answer `429` with `Retry-After`,
//! and jobs that outlive their deadline budget answer `503`.
//!
//! # Endpoints
//!
//! Every endpoint is versioned under `/v1/`; any other path answers 404
//! `not_found`.
//!
//! | Route | Meaning |
//! |---|---|
//! | `PUT /v1/schemas/{name}` | ingest an XSD body under `name` (limits enforced, WAL-logged) |
//! | `GET /v1/schemas` | list registered schemas and label-cache stats |
//! | `POST /v1/match?source=A&target=B` | match two registered schemas (`algo=`, `explain=1`, `threshold=`, `precision=`) |
//! | `POST /v1/match/topk?source=A&k=N` | rank `A` against the whole registry by root QoM (scatter-gather) |
//! | `GET /v1/metrics` | plain-text counters, including queue-wait and scatter histograms |
//! | `GET /v1/healthz` | liveness |
//!
//! Every response carries an `X-Request-Id` header — the client's own, or
//! a server-minted `q-N` — threaded through the queue/shard/request trace
//! spans, and a [`metrics::PhaseSink`] installed on every shard session
//! feeds per-phase span data (prepares, label-matrix builds, wavefront
//! passes) into `GET /v1/metrics`.
//!
//! Match responses are deterministic functions of the registry and the
//! query (no counters inside), and every number is rendered with
//! [`json::fmt_f64`] — so they are bit-identical to library results,
//! across concurrent clients, across shard counts, and across restarts.

pub mod handlers;
pub mod http;
pub mod json;
pub mod metrics;
pub mod persist;
pub mod reactor;
pub mod registry;
pub mod server;
pub mod shard;

pub use handlers::ServeState;
pub use json::fmt_f64;
pub use metrics::{Endpoint, Metrics};
pub use persist::Persist;
pub use registry::{Registered, Registry, SchemaInfo};
pub use server::{install_signal_handlers, signal_received, Server, ServerConfig, ShutdownHandle};
pub use shard::Shard;
