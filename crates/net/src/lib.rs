//! `fairrank-net`: the network tier over the fair-ranking service —
//! dependency-free HTTP/1.1 serving, single-writer replication, and the
//! load harness that measures both.
//!
//! The paper's query model ("Designing Fair Ranking Schemes", Asudeh et
//! al., SIGMOD 2019) is an online service: a ranker proposes a scoring
//! function, the index answers with a satisfactory nearby one. The
//! `fairrank-serve` crate takes that to a process-local async pipeline;
//! this crate takes it across the process boundary:
//!
//! * [`HttpServer`] ([`server`]) — a hand-rolled HTTP/1.1 front end
//!   (accept loop → connection-thread pool, keep-alive, fixed-length
//!   bodies) speaking a minimal JSON protocol ([`json`]) over
//!   [`FairRankService`](fairrank_serve::FairRankService). Endpoints:
//!   `POST /suggest`, `POST /suggest_batch`, `GET /stats`,
//!   `GET /healthz`. Overload surfaces as 503 with an honest
//!   `Retry-After` derived from the service's live depth gauge and the
//!   p95 of observed latency.
//! * [`ReplicatedWriter`] / [`Replica`] ([`replication`]) — a
//!   single-writer, N-reader deployment: replicas bootstrap from a
//!   dataset + ranker snapshot and tail a versioned `TAG_UPDATE_LOG`
//!   stream, all length-prefixed TCP frames of the sealed
//!   [`fairrank::persist`] artifacts.
//! * `netbench` (the crate's binary) — spawns writer + N replicas over
//!   loopback, drives load, and records `net.*` series into
//!   `BENCH_baseline.json`.
//!
//! The tier inherits the stack's core guarantee and proves it end to
//! end: an answer served over HTTP — from the writer or from any
//! replica at the same version — is **bit-identical** to calling
//! [`FairRanker::respond_batch`](fairrank::FairRanker::respond_batch)
//! directly (gated by `tests/net_equivalence.rs`; the f64 round-trip
//! that makes JSON exact is documented in [`json`]). The parsers never
//! panic on malformed input (fuzzed in `tests/net_fuzz.rs`).

pub mod health;
pub mod http;
pub mod json;
pub mod replication;
pub mod server;

pub use health::{HealthHandle, StaleInfo};
pub use replication::{Replica, ReplicaOptions, ReplicatedWriter};
pub use server::{Client, ClientResponse, HttpServer, ServerConfig};
