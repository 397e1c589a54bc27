//! Single-writer / N-reader replication over length-prefixed TCP.
//!
//! ```text
//!   ReplicatedWriter                         Replica (×N)
//!   ┌───────────────────────┐   connect   ┌──────────────────────────┐
//!   │ FairRankService (rw)  │◀────────────│ TcpStream                │
//!   │  apply(updates):      │  dataset    │ bootstrap:               │
//!   │   service.update(…)   │──frame─────▶│  decode_dataset          │
//!   │   broadcast update    │  ranker     │  FairRanker::from_bytes  │
//!   │   log frame           │──frame─────▶│  build FairRankService   │
//!   └───────────┬───────────┘             │ tail thread:             │
//!               │  TAG_UPDATE_LOG frames  │  decode_update_log       │
//!               ╰────────────────────────▶│  check base == version   │
//!                                         │  service.update_batch    │
//!                                         └──────────────────────────┘
//! ```
//!
//! **Wire format.** Every message is one frame: a `u32` little-endian
//! payload length, then the payload. A replica's bootstrap is two
//! frames — the writer's [`Dataset`] (`TAG_DATASET` codec) and a
//! whole-ranker snapshot (`TAG_RANKER` envelope, carrying the update
//! counter) — followed by a stream of `TAG_UPDATE_LOG` frames, each a
//! versioned batch of [`DatasetUpdate`]s. All three payloads are the
//! sealed, checksummed artifacts from [`fairrank::persist`]; a flipped
//! bit on the wire is caught by the decoder, not applied to the index.
//!
//! **Consistency.** The writer serializes *apply + broadcast* and
//! *snapshot + subscribe* under one lock, so a replica that bootstraps
//! at version `V` receives exactly the frames with `base_version ≥ V`,
//! gap-free. Replicas verify `base_version` against their own
//! [`FairRankService::version`] before applying and never apply across
//! a mismatch — a diverged replica keeps serving its last good snapshot
//! rather than serving wrong answers.
//!
//! **Liveness.** A replica whose tail dies (stream error, version gap,
//! writer restart) immediately marks its [`Replica::health`] handle
//! stale — wire that handle into the replica's
//! [`ServerConfig`](crate::ServerConfig) and `/healthz` turns non-200,
//! so load balancers rotate the frozen replica out instead of trusting
//! a process that is up but behind. With
//! [`ReplicaOptions::reconnect`] (the default) a supervisor then
//! re-dials the writer under capped exponential backoff and performs a
//! **full re-bootstrap** — fresh dataset + snapshot frames swapped in
//! via [`FairRankService::replace_ranker`] — because after a gap no
//! incremental frame sequence can reconcile the local index.
//!
//! Fairness oracles are code, not data, so they do not travel: a
//! replica reconstructs its oracle from the shipped dataset via the
//! caller's factory closure — the same pattern as
//! [`FairRanker::from_bytes`].
//!
//! [`FairRanker::from_bytes`]: fairrank::FairRanker::from_bytes

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fairrank::persist::{decode_dataset, decode_update_log, encode_dataset, encode_update_log};
use fairrank::{DatasetUpdate, FairRanker, UpdateOutcome};
use fairrank_datasets::Dataset;
use fairrank_fairness::FairnessOracle;
use fairrank_serve::{FairRankService, ServiceError};
use fairrank_telemetry::{Counter, Gauge, Histogram, Registry, Stopwatch};

/// Reject frames larger than this (a defense against a corrupted or
/// hostile length prefix, not a protocol limit).
const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Polling granularity for the replica tail loop and the writer
/// acceptor: how quickly they notice shutdown.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Reconnect backoff bounds: first retry after 50 ms, doubling to a
/// 2 s ceiling.
const RECONNECT_MIN: Duration = Duration::from_millis(50);
const RECONNECT_MAX: Duration = Duration::from_secs(2);

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)
}

/// Blocking frame read (bootstrap path — no shutdown polling).
fn read_frame_blocking(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    stream.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Replica-side replication instrumentation, registered in the
/// replica's service registry so its `/metrics` covers the tail.
struct ReplMetrics {
    /// Re-dial attempts after a dead tail (whether or not they land).
    reconnect_attempts: Counter,
    /// Completed bootstrap handshakes — the initial connect plus every
    /// successful re-bootstrap after a gap.
    bootstraps: Counter,
    /// The writer version this replica has applied up to.
    last_applied: Gauge,
    /// Time to apply one update-log frame locally — the replica's
    /// contribution to apply lag (network skew rides on top).
    apply_us: Histogram,
}

impl ReplMetrics {
    fn register(registry: &Registry) -> ReplMetrics {
        ReplMetrics {
            reconnect_attempts: registry.counter(
                "fairrank_replication_reconnect_attempts_total",
                "Re-dial attempts after a dead replication tail.",
                &[],
            ),
            bootstraps: registry.counter(
                "fairrank_replication_bootstraps_total",
                "Completed bootstrap handshakes (initial connect included).",
                &[],
            ),
            last_applied: registry.gauge(
                "fairrank_replication_last_applied_version",
                "Writer version this replica has applied up to.",
                &[],
            ),
            apply_us: registry.histogram(
                "fairrank_replication_apply_duration_us",
                "Microseconds to apply one replicated update-log frame.",
                &[],
            ),
        }
    }
}

struct WriterShared {
    service: Arc<FairRankService>,
    shutdown: AtomicBool,
    /// Guards apply+broadcast and snapshot+subscribe: holding it across
    /// both is what makes a bootstrap snapshot and the subsequent frame
    /// stream gap-free.
    subscribers: Mutex<Vec<TcpStream>>,
    /// Live subscriber count, exported through the writer's registry.
    subscribers_gauge: Gauge,
}

/// The writer end of a replicated deployment: owns the only
/// [`FairRankService`] that accepts [`DatasetUpdate`]s, and ships every
/// applied batch to subscribed [`Replica`]s.
pub struct ReplicatedWriter {
    shared: Arc<WriterShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl ReplicatedWriter {
    /// Start accepting replica subscriptions on `addr` (use
    /// `"127.0.0.1:0"` for an ephemeral port).
    ///
    /// # Errors
    /// [`std::io::Error`] if the listener cannot bind.
    pub fn bind(service: Arc<FairRankService>, addr: &str) -> std::io::Result<ReplicatedWriter> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let subscribers_gauge = service.telemetry().gauge(
            "fairrank_replication_subscribers",
            "Replicas currently subscribed to this writer's update log.",
            &[],
        );
        let shared = Arc::new(WriterShared {
            service,
            shutdown: AtomicBool::new(false),
            subscribers: Mutex::new(Vec::new()),
            subscribers_gauge,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fairrank-repl-accept".to_string())
                .spawn(move || accept_replicas(&listener, &shared))
                .expect("spawn replication acceptor")
        };
        Ok(ReplicatedWriter {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The address replicas connect to.
    #[must_use]
    pub fn replication_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The writer's serving service (shareable with an
    /// [`HttpServer`](crate::HttpServer)).
    #[must_use]
    pub fn service(&self) -> Arc<FairRankService> {
        Arc::clone(&self.shared.service)
    }

    /// Currently subscribed replicas.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.shared
            .subscribers
            .lock()
            .expect("subscriber lock poisoned")
            .len()
    }

    /// Apply a batch of updates to the writer's service and ship the
    /// applied prefix to every subscriber as one `TAG_UPDATE_LOG` frame.
    ///
    /// # Errors
    /// As [`FairRankService::update`]: stops at the first failing
    /// update. Everything before it is already applied locally **and**
    /// broadcast, so replicas stay converged with the writer even on
    /// the error path.
    pub fn apply(&self, updates: &[DatasetUpdate]) -> Result<Vec<UpdateOutcome>, ServiceError> {
        let mut subscribers = self
            .shared
            .subscribers
            .lock()
            .expect("subscriber lock poisoned");
        let base = self.shared.service.version();
        let mut outcomes = Vec::with_capacity(updates.len());
        let mut result = Ok(());
        for update in updates {
            match self.shared.service.update(update.clone()) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if !outcomes.is_empty() {
            let frame = encode_update_log(base, &updates[..outcomes.len()]);
            // Drop subscribers whose connection broke; replicas re-seed
            // by reconnecting.
            subscribers.retain_mut(|stream| write_frame(stream, &frame).is_ok());
            self.shared.subscribers_gauge.set(subscribers.len() as i64);
        }
        result.map(|()| outcomes)
    }

    /// Stop accepting subscriptions and close every subscriber stream
    /// (replicas keep serving their last applied version). Dropping the
    /// writer does the same.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.shared
            .subscribers
            .lock()
            .expect("subscriber lock poisoned")
            .clear();
        self.shared.subscribers_gauge.set(0);
    }
}

impl Drop for ReplicatedWriter {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_replicas(listener: &TcpListener, shared: &WriterShared) {
    loop {
        let Ok((mut stream, _peer)) = listener.accept() else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Snapshot-and-subscribe atomically with respect to `apply`:
        // the handshake frames reflect version V, and the first log
        // frame this subscriber sees has base_version == V (or later
        // snapshots of a quiet writer).
        let mut subscribers = shared.subscribers.lock().expect("subscriber lock poisoned");
        let ranker = shared.service.snapshot();
        let handshake_ok = write_frame(&mut stream, &encode_dataset(ranker.dataset()))
            .and_then(|()| write_frame(&mut stream, &ranker.to_bytes()))
            .is_ok();
        if handshake_ok {
            subscribers.push(stream);
            shared.subscribers_gauge.set(subscribers.len() as i64);
        }
    }
}

/// Configuration for a [`Replica`]'s local serving tier.
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// Worker threads for the replica's [`FairRankService`] (`0` = one
    /// per core). Default 2 — replicas share a host in test and bench
    /// topologies.
    pub workers: usize,
    /// When the tail dies (stream error, version gap, writer restart),
    /// keep re-dialing the writer under capped exponential backoff
    /// (50 ms doubling to 2 s) and re-bootstrap from a fresh snapshot.
    /// Default true; `false` restores the stop-on-death behavior, with
    /// the [`Replica::health`] handle still marking the replica stale.
    pub reconnect: bool,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            workers: 2,
            reconnect: true,
        }
    }
}

/// A read-only replica: bootstraps from a writer's snapshot, tails its
/// update log, and serves queries from its own [`FairRankService`] at
/// whatever version it has reached. If the tail dies it marks its
/// [`Replica::health`] handle stale and (by default) keeps re-dialing
/// the writer, re-bootstrapping in full once it answers.
pub struct Replica {
    service: Arc<FairRankService>,
    shutdown: Arc<AtomicBool>,
    error: Arc<Mutex<Option<String>>>,
    health: crate::health::HealthHandle,
    tail: Option<JoinHandle<()>>,
}

/// Dial the writer and run the bootstrap handshake: dataset frame,
/// ranker snapshot frame, oracle reconstruction, tail-ready stream
/// (read timeout armed).
fn bootstrap(
    addr: SocketAddr,
    oracle_factory: &(impl Fn(&Dataset) -> Box<dyn FairnessOracle> + ?Sized),
) -> std::io::Result<(TcpStream, FairRanker)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let dataset_bytes = read_frame_blocking(&mut stream)?;
    let dataset =
        decode_dataset(&dataset_bytes).map_err(|e| invalid_data(format!("dataset: {e}")))?;
    let ranker_bytes = read_frame_blocking(&mut stream)?;
    let oracle = oracle_factory(&dataset);
    let ranker = FairRanker::from_bytes(&ranker_bytes, dataset, oracle)
        .map_err(|e| invalid_data(format!("ranker snapshot: {e}")))?;
    stream.set_read_timeout(Some(POLL_TICK))?;
    Ok((stream, ranker))
}

impl Replica {
    /// Connect to a [`ReplicatedWriter`], bootstrap (dataset frame +
    /// ranker snapshot frame), rebuild the fairness oracle via
    /// `oracle_factory`, and start tailing the update log.
    ///
    /// The factory is kept for the replica's lifetime: every
    /// re-bootstrap after a dead tail rebuilds the oracle against the
    /// freshly shipped dataset, exactly as the first connect did.
    ///
    /// # Errors
    /// [`std::io::Error`] on connection failure or a malformed
    /// handshake (decode failures surface as `InvalidData`). Only the
    /// *initial* bootstrap fails fast; later failures go through the
    /// reconnect policy.
    pub fn connect(
        addr: SocketAddr,
        oracle_factory: impl Fn(&Dataset) -> Box<dyn FairnessOracle> + Send + 'static,
        options: ReplicaOptions,
    ) -> std::io::Result<Replica> {
        let (stream, ranker) = bootstrap(addr, &oracle_factory)?;
        let service = Arc::new(
            FairRankService::builder(ranker)
                .workers(options.workers)
                .build(),
        );

        let metrics = ReplMetrics::register(&service.telemetry());
        metrics.bootstraps.inc();
        metrics.last_applied.set(service.version() as i64);

        let shutdown = Arc::new(AtomicBool::new(false));
        let error = Arc::new(Mutex::new(None));
        let health = crate::health::HealthHandle::new();
        let tail = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let error = Arc::clone(&error);
            let health = health.clone();
            let reconnect = options.reconnect;
            std::thread::Builder::new()
                .name("fairrank-repl-tail".to_string())
                .spawn(move || {
                    supervise_tail(
                        addr,
                        stream,
                        &oracle_factory,
                        &service,
                        &shutdown,
                        &error,
                        &health,
                        reconnect,
                        &metrics,
                    );
                })
                .expect("spawn replica tail")
        };
        Ok(Replica {
            service,
            shutdown,
            error,
            health,
            tail: Some(tail),
        })
    }

    /// The replica's serving service (shareable with an
    /// [`HttpServer`](crate::HttpServer)).
    #[must_use]
    pub fn service(&self) -> Arc<FairRankService> {
        Arc::clone(&self.service)
    }

    /// The replica's staleness flag: stale from the moment the tail
    /// dies until a re-bootstrap completes. Wire this into the
    /// [`ServerConfig`](crate::ServerConfig) of the HTTP server fronting
    /// this replica so `/healthz` reports staleness instead of a bare
    /// liveness 200.
    #[must_use]
    pub fn health(&self) -> crate::health::HealthHandle {
        self.health.clone()
    }

    /// The dataset version this replica has applied up to — what its
    /// `/healthz` reports, and what converges to the writer's version
    /// once the log drains.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.service.version()
    }

    /// Why the last tail session ended abnormally (decode failure,
    /// version gap, apply failure). `None` while healthy, after a clean
    /// writer disconnect, and again after a successful re-bootstrap
    /// clears it.
    #[must_use]
    pub fn error(&self) -> Option<String> {
        self.error.lock().expect("error lock poisoned").clone()
    }

    /// Stop tailing (the local service keeps serving its last applied
    /// version until dropped). Dropping the replica does the same.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.tail.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Split the first frame (`4 + len` bytes) off the front of `buf` in
/// one move: the tail of the buffer becomes the new `buf`, the head is
/// returned still carrying its 4-byte length prefix (callers decode
/// from `frame[4..]`). No per-byte copying — the old
/// `drain(..).skip(4).collect()` here walked every payload byte through
/// an iterator *and* shifted the remainder down.
fn take_frame(buf: &mut Vec<u8>, len: usize) -> Vec<u8> {
    debug_assert!(buf.len() >= 4 + len, "frame not fully buffered");
    let rest = buf.split_off(4 + len);
    std::mem::replace(buf, rest)
}

/// Why one tail session over one connection ended.
enum TailEnd {
    /// [`Replica::shutdown`] asked us to stop.
    Shutdown,
    /// The writer closed the stream (shutdown or restart).
    WriterClosed,
    /// Stream error, corrupt frame, version gap, or apply failure.
    Failed(String),
}

/// Tail one connection's update log until it ends; never applies a
/// frame across a version mismatch.
fn tail_session(
    stream: &mut TcpStream,
    service: &FairRankService,
    shutdown: &AtomicBool,
    metrics: &ReplMetrics,
) -> TailEnd {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 64 * 1024];
    loop {
        // Drain complete frames already buffered.
        while buf.len() >= 4 {
            let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_BYTES {
                return TailEnd::Failed(format!("oversized update frame ({len} bytes)"));
            }
            if buf.len() < 4 + len {
                break;
            }
            let frame = take_frame(&mut buf, len);
            let (base_version, updates) = match decode_update_log(&frame[4..]) {
                Ok(decoded) => decoded,
                Err(e) => {
                    return TailEnd::Failed(format!("corrupt update frame: {e}"));
                }
            };
            let local = service.version();
            if base_version != local {
                return TailEnd::Failed(format!(
                    "version gap: writer frame applies at {base_version}, replica is at {local}"
                ));
            }
            let apply = Stopwatch::start();
            if let Err(e) = service.update_batch(updates) {
                return TailEnd::Failed(format!("update apply failed: {e}"));
            }
            apply.record(&metrics.apply_us);
            metrics.last_applied.set(service.version() as i64);
        }
        if shutdown.load(Ordering::SeqCst) {
            return TailEnd::Shutdown;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return TailEnd::WriterClosed,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => {
                return TailEnd::Failed(format!("replication stream error: {e}"));
            }
        }
    }
}

/// Sleep `total` in shutdown-polling slices; true if shutdown arrived.
fn sleep_interruptible(shutdown: &AtomicBool, total: Duration) -> bool {
    let mut remaining = total;
    while !remaining.is_zero() {
        if shutdown.load(Ordering::SeqCst) {
            return true;
        }
        let tick = remaining.min(POLL_TICK);
        std::thread::sleep(tick);
        remaining = remaining.saturating_sub(tick);
    }
    shutdown.load(Ordering::SeqCst)
}

/// Run tail sessions forever: tail until the connection dies, mark the
/// replica stale, and (under the reconnect policy) re-dial with capped
/// exponential backoff and re-bootstrap in full — a fresh snapshot
/// swapped in via [`FairRankService::replace_ranker`], because after a
/// gap no frame sequence can reconcile the local index incrementally.
#[allow(clippy::too_many_arguments)]
fn supervise_tail(
    addr: SocketAddr,
    mut stream: TcpStream,
    oracle_factory: &(impl Fn(&Dataset) -> Box<dyn FairnessOracle> + ?Sized),
    service: &FairRankService,
    shutdown: &AtomicBool,
    error: &Mutex<Option<String>>,
    health: &crate::health::HealthHandle,
    reconnect: bool,
    metrics: &ReplMetrics,
) {
    loop {
        let reason = match tail_session(&mut stream, service, shutdown, metrics) {
            TailEnd::Shutdown => return,
            TailEnd::WriterClosed => "writer closed the replication stream".to_string(),
            TailEnd::Failed(msg) => {
                *error.lock().expect("error lock poisoned") = Some(msg.clone());
                msg
            }
        };
        // Stale from the instant the tail dies: the service keeps
        // serving, but /healthz must stop saying "current".
        health.mark_stale(&reason, service.version());
        if !reconnect {
            return;
        }
        let mut backoff = RECONNECT_MIN;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Full re-bootstrap: fresh dataset + snapshot, oracle
            // rebuilt against the new dataset, whole ranker swapped.
            metrics.reconnect_attempts.inc();
            if let Ok((new_stream, ranker)) = bootstrap(addr, oracle_factory) {
                if service.replace_ranker(ranker).is_ok() {
                    stream = new_stream;
                    *error.lock().expect("error lock poisoned") = None;
                    health.mark_fresh();
                    metrics.bootstraps.inc();
                    metrics.last_applied.set(service.version() as i64);
                    break;
                }
            }
            if sleep_interruptible(shutdown, backoff) {
                return;
            }
            backoff = (backoff * 2).min(RECONNECT_MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::take_frame;

    /// Frame-drain equivalence: feeding many small frames through
    /// `take_frame` yields byte-identical payloads to the reference
    /// per-byte drain, across every buffering split.
    #[test]
    fn take_frame_matches_reference_drain_on_many_small_frames() {
        // Build 64 frames with varied small payloads (including empty).
        let mut wire: Vec<u8> = Vec::new();
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for i in 0..64u32 {
            let payload: Vec<u8> = (0..(i % 7) as u8 * 3)
                .map(|b| b.wrapping_mul(31) ^ i as u8)
                .collect();
            wire.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
            wire.extend_from_slice(&payload);
            expected.push(payload);
        }
        // Drive the same drain loop the tail uses, delivering the wire
        // bytes in awkward chunk sizes so frames straddle reads.
        for chunk_size in [1usize, 3, 5, 17, wire.len()] {
            let mut buf: Vec<u8> = Vec::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            for chunk in wire.chunks(chunk_size) {
                buf.extend_from_slice(chunk);
                while buf.len() >= 4 {
                    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
                    if buf.len() < 4 + len {
                        break;
                    }
                    let frame = take_frame(&mut buf, len);
                    assert_eq!(frame.len(), 4 + len, "prefix retained");
                    got.push(frame[4..].to_vec());
                }
            }
            assert!(buf.is_empty(), "chunk {chunk_size}: residue left");
            assert_eq!(got, expected, "chunk {chunk_size}");
        }
    }
}
