//! The HTTP front door over [`FairRankService`].
//!
//! ```text
//!  TcpListener ──accept──▶ FIFO connection queue ──▶ worker threads
//!                                                      │ per conn:
//!                                                      │ read → parse
//!                                                      │ → route →
//!                                                      ▼ respond
//!                  FairRankService::suggest_timeout(...)   (/suggest)
//!                  FairRankService::submit_timeout(...)    (/suggest_batch)
//! ```
//!
//! One acceptor thread feeds a small fixed pool of connection threads
//! (keep-alive: each thread owns its connection until the peer closes,
//! so the pool size bounds concurrent *connections*, and the service's
//! own queue bounds concurrent *requests*). Accepted connections wait
//! in arrival order. A `/suggest` connection thread blocks on its own
//! answer, so it serves the service's queue itself while a batch slot
//! is free (see [`FairRankService::suggest_timeout`]). Endpoints:
//!
//! * `POST /suggest` — one [`SuggestRequest`] in, one suggestion out.
//! * `POST /suggest_batch` — `{"requests":[…]}` in,
//!   `{"suggestions":[…]}` out, submitted as a burst: whatever queues
//!   behind busy workers drains together, up to the service's
//!   `max_batch`.
//! * `GET /stats` — live [`ServiceStats`] (including the `in_flight`
//!   gauge) as JSON.
//! * `GET /healthz` — liveness plus the serving dataset version; a
//!   replica's version advances as it tails the writer's update log,
//!   which is how deployments observe convergence.
//! * `GET /metrics` — Prometheus text exposition over the service's
//!   metric registry (request counters, per-stage latency histograms,
//!   replication counters, build timers). `/stats` is a JSON
//!   view over the *same* registry cells, so the two cannot drift.
//!
//! **Backpressure → 503.** A [`ServiceError::Overloaded`] rejection
//! carries the queue capacity and live depth; the server multiplies
//! depth by the **p95** of observed request latency to emit an honest
//! `Retry-After` — seconds until the backlog plausibly drains at tail
//! service rate — instead of a constant.
//!
//! [`SuggestRequest`]: fairrank::SuggestRequest

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fairrank_serve::{FairRankService, ServiceError, ServiceStats};
use fairrank_telemetry::{Counter, Histogram, Registry, Stopwatch};

use crate::http::{parse_request, write_response, Request, MAX_HEAD_BYTES};
use crate::json::{decode_request, encode_request, encode_suggestion, Json};

/// Tuning knobs for [`HttpServer::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection worker threads (each owns one keep-alive connection at
    /// a time). Default 4.
    pub threads: usize,
    /// Per-request admission deadline passed to
    /// [`FairRankService::suggest_timeout`] and
    /// [`FairRankService::submit_timeout`]: how long a request may wait
    /// for queue space before the server answers 503. Default 20 ms.
    pub submit_timeout: Duration,
    /// Staleness flag feeding `/healthz` — wire a
    /// [`Replica::health`](crate::Replica::health) handle here so a dead
    /// replication tail turns health checks non-200 instead of the
    /// replica silently serving frozen answers. `None` (the default,
    /// right for a writer or a standalone server) reports healthy
    /// whenever the process is up.
    pub health: Option<crate::health::HealthHandle>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            submit_timeout: Duration::from_millis(20),
            health: None,
        }
    }
}

/// Polling granularity for blocked reads: how quickly an idle
/// connection notices server shutdown.
const READ_TICK: Duration = Duration::from_millis(50);

/// Endpoint names for the `fairrank_http_requests_total` label; every
/// request maps to exactly one (unknown paths count as `other`).
const ENDPOINTS: [&str; 6] = [
    "suggest",
    "suggest_batch",
    "stats",
    "healthz",
    "metrics",
    "other",
];
/// Status classes for the `code` label. The server only emits 2xx, 4xx,
/// and 5xx statuses.
const CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

/// Pre-registered HTTP-tier metric handles — registration happens once
/// at bind, so the per-request path is pure atomics with no registry
/// lookups.
struct HttpMetrics {
    /// `requests[endpoint * CLASSES.len() + class]`.
    requests: Vec<Counter>,
    /// Request latency (admission → answer encoded) per serving
    /// endpoint. Always recorded: the overload `Retry-After` estimate
    /// reads its p95.
    suggest_us: Histogram,
    suggest_batch_us: Histogram,
}

impl HttpMetrics {
    fn register(registry: &Registry) -> HttpMetrics {
        let mut requests = Vec::with_capacity(ENDPOINTS.len() * CLASSES.len());
        for endpoint in ENDPOINTS {
            for class in CLASSES {
                requests.push(registry.counter(
                    "fairrank_http_requests_total",
                    "HTTP requests served, by endpoint and status class.",
                    &[("endpoint", endpoint), ("code", class)],
                ));
            }
        }
        let duration = |endpoint: &str| {
            registry.histogram(
                "fairrank_http_request_duration_us",
                "Request latency in microseconds from admission to encoded \
                 answer, by endpoint; the overload Retry-After derives from \
                 this histogram's p95.",
                &[("endpoint", endpoint)],
            )
        };
        HttpMetrics {
            requests,
            suggest_us: duration("suggest"),
            suggest_batch_us: duration("suggest_batch"),
        }
    }
}

struct ServerShared {
    service: Arc<FairRankService>,
    submit_timeout: Duration,
    health: Option<crate::health::HealthHandle>,
    shutdown: AtomicBool,
    /// Pending accepted connections awaiting a worker, oldest first.
    conns: Mutex<VecDeque<TcpStream>>,
    conn_ready: Condvar,
    /// The service's metric registry; the HTTP tier registers its own
    /// families here so one `GET /metrics` scrape covers the stack.
    telemetry: Arc<Registry>,
    http: HttpMetrics,
    /// Wire-side stage spans (`net_parse`/`net_write` series of the
    /// shared `fairrank_stage_duration_us` family); `None` under
    /// `telemetry-off` so no clocks are read.
    stage_parse: Option<Histogram>,
    stage_write: Option<Histogram>,
}

impl ServerShared {
    /// Seconds until `depth` outstanding requests plausibly drain at the
    /// observed service rate, clamped to `[1, 30]`.
    ///
    /// The per-request estimate is the **p95** of observed request
    /// latency (suggest and suggest_batch merged): a mean under bimodal
    /// load — index-decided floods punctuated by oracle-pass stragglers —
    /// under-advises clients, while a tail quantile drains the backlog
    /// with high probability. Before any request has completed (nothing
    /// in the histograms), the clamp floor of 1 s applies —
    /// deterministically.
    fn retry_after_secs(&self, depth: usize) -> u64 {
        let mut snap = self.http.suggest_us.snapshot();
        snap.merge(&self.http.suggest_batch_us.snapshot());
        if snap.is_empty() {
            return 1;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let per_request_us = (snap.quantile(0.95) as u64).max(1);
        let micros = (depth as u64).saturating_mul(per_request_us);
        micros.div_ceil(1_000_000).clamp(1, 30)
    }

    /// Count one served request by endpoint and status class, sniffing
    /// the status digit from the serialized response head
    /// (`HTTP/1.1 NNN …`) so every branch of `route` is covered without
    /// threading a status back out.
    fn note_request(&self, method: &str, path: &str, response: &[u8]) {
        let endpoint = match (method, path) {
            ("POST", "/suggest") => 0,
            ("POST", "/suggest_batch") => 1,
            ("GET", "/stats") => 2,
            ("GET", "/healthz") => 3,
            ("GET", "/metrics") => 4,
            _ => 5,
        };
        let class = match response.get(9) {
            Some(b'2') => 0,
            Some(b'4') => 1,
            _ => 2,
        };
        self.http.requests[endpoint * CLASSES.len() + class].inc();
    }
}

/// A running HTTP front end. Bind with [`HttpServer::bind`], stop with
/// [`HttpServer::shutdown`] (dropping also shuts down).
pub struct HttpServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and start serving `service`.
    ///
    /// # Errors
    /// [`std::io::Error`] if the listener cannot bind.
    pub fn bind(
        service: Arc<FairRankService>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let telemetry = service.telemetry();
        let http = HttpMetrics::register(&telemetry);
        let stage = |name: &str| {
            fairrank_telemetry::ENABLED.then(|| {
                telemetry.histogram(
                    "fairrank_stage_duration_us",
                    "Serving pipeline stage durations in microseconds, labeled by stage.",
                    &[("stage", name)],
                )
            })
        };
        let shared = Arc::new(ServerShared {
            service,
            submit_timeout: config.submit_timeout,
            health: config.health,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(VecDeque::new()),
            conn_ready: Condvar::new(),
            stage_parse: stage("net_parse"),
            stage_write: stage("net_write"),
            telemetry,
            http,
        });
        let workers = (0..config.threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fairrank-net-{i}"))
                    .spawn(move || connection_worker(&shared))
                    .expect("spawn connection worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fairrank-net-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(HttpServer {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves the port when bound to `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections, unwind the worker pool, and join
    /// every server thread. In-flight responses are finished; idle
    /// keep-alive connections are closed at the next read tick.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection to self.
        let _ = TcpStream::connect(self.addr);
        self.shared.conn_ready.notify_all();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &ServerShared) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let mut conns = shared.conns.lock().expect("conn queue poisoned");
                conns.push_back(stream);
                drop(conns);
                shared.conn_ready.notify_one();
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (e.g. fd pressure); keep going.
            }
        }
    }
}

fn connection_worker(shared: &ServerShared) {
    loop {
        let stream = {
            let mut conns = shared.conns.lock().expect("conn queue poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(stream) = conns.pop_front() {
                    break stream;
                }
                conns = shared.conn_ready.wait(conns).expect("conn queue poisoned");
            }
        };
        serve_connection(shared, stream);
    }
}

/// Keep-alive loop over one connection: read, parse, route, respond,
/// until the peer closes, an error forces a close, or the server shuts
/// down.
fn serve_connection(shared: &ServerShared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Serve every complete request already buffered (pipelining).
        loop {
            // Only a completed parse records: attempts over a partial
            // buffer are re-parsed (from scratch) once more bytes land,
            // so counting them would double-bill the stage.
            let parse_sw = Stopwatch::start_if(shared.stage_parse.is_some());
            match parse_request(&buf) {
                Ok(Some((req, consumed))) => {
                    if let Some(h) = &shared.stage_parse {
                        parse_sw.record(h);
                    }
                    buf.drain(..consumed);
                    let keep_alive = req.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
                    let mut out = Vec::with_capacity(256);
                    route(shared, &req, keep_alive, &mut out);
                    shared.note_request(&req.method, &req.path, &out);
                    let write_sw = Stopwatch::start_if(shared.stage_write.is_some());
                    if stream.write_all(&out).is_err() {
                        return;
                    }
                    if let Some(h) = &shared.stage_write {
                        write_sw.record(h);
                    }
                    if !keep_alive {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let (status, reason) = e.status();
                    let body = error_body(e.message());
                    let mut out = Vec::with_capacity(128);
                    write_response(&mut out, status, reason, &[], body.as_bytes(), false);
                    let _ = stream.write_all(&out);
                    return;
                }
            }
        }
        if buf.len() > MAX_HEAD_BYTES + crate::http::MAX_BODY_BYTES {
            // parse_request caps declared sizes, so this is unreachable
            // in practice; a hard cap keeps a misbehaving peer from
            // growing the buffer without bound regardless.
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn error_body(message: &str) -> String {
    Json::Obj(vec![("error".to_string(), Json::Str(message.to_string()))]).to_text()
}

fn route(shared: &ServerShared, req: &Request, keep_alive: bool, out: &mut Vec<u8>) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/suggest") => suggest_one(shared, &req.body, keep_alive, out),
        ("POST", "/suggest_batch") => suggest_batch(shared, &req.body, keep_alive, out),
        ("GET", "/stats") => {
            let body = stats_json(&shared.service.stats());
            write_response(out, 200, "OK", &JSON_CT, body.as_bytes(), keep_alive);
        }
        ("GET", "/metrics") => {
            // `stats()` refreshes the derived gauges (queue depth,
            // version) in the registry; the counters
            // are the very cells `/stats` reports, so the two views
            // cannot drift. Build timers live in the process-global
            // registry — append every global family this service's
            // registry doesn't already expose.
            let _ = shared.service.stats();
            let mut body = shared.telemetry.render();
            let local: std::collections::HashSet<String> =
                shared.telemetry.family_names().into_iter().collect();
            body.push_str(&fairrank_telemetry::global().render_excluding(&local));
            write_response(out, 200, "OK", &PROM_CT, body.as_bytes(), keep_alive);
        }
        ("GET", "/healthz") => {
            // A stale replica is alive but frozen: answer 503 so load
            // balancers rotate it out, with the last applied version and
            // the cause so operators can see how far behind it is.
            let stale = shared.health.as_ref().and_then(|h| h.staleness());
            #[allow(clippy::cast_precision_loss)]
            let mut fields = vec![
                (
                    "status".to_string(),
                    Json::Str(if stale.is_some() { "stale" } else { "ok" }.to_string()),
                ),
                ("stale".to_string(), Json::Bool(stale.is_some())),
                (
                    "version".to_string(),
                    Json::Num(shared.service.version() as f64),
                ),
            ];
            if let Some(info) = stale {
                #[allow(clippy::cast_precision_loss)]
                fields.push((
                    "last_applied".to_string(),
                    Json::Num(info.last_applied as f64),
                ));
                fields.push(("reason".to_string(), Json::Str(info.reason)));
                let body = Json::Obj(fields).to_text();
                write_response(
                    out,
                    503,
                    "Service Unavailable",
                    &JSON_CT,
                    body.as_bytes(),
                    keep_alive,
                );
            } else {
                let body = Json::Obj(fields).to_text();
                write_response(out, 200, "OK", &JSON_CT, body.as_bytes(), keep_alive);
            }
        }
        ("GET" | "POST", _) => {
            let body = error_body("no such endpoint");
            write_response(out, 404, "Not Found", &JSON_CT, body.as_bytes(), keep_alive);
        }
        _ => {
            let body = error_body("method not allowed");
            write_response(
                out,
                405,
                "Method Not Allowed",
                &JSON_CT,
                body.as_bytes(),
                keep_alive,
            );
        }
    }
}

const JSON_CT: [(&str, &str); 1] = [("content-type", "application/json")];
const PROM_CT: [(&str, &str); 1] = [("content-type", "text/plain; version=0.0.4; charset=utf-8")];

/// Decode a request body; on failure, write the 400 and return `None`.
fn parse_body(body: &[u8], keep_alive: bool, out: &mut Vec<u8>) -> Option<Json> {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => {
            let body = error_body("request body is not valid utf-8");
            write_response(
                out,
                400,
                "Bad Request",
                &JSON_CT,
                body.as_bytes(),
                keep_alive,
            );
            return None;
        }
    };
    match Json::parse(text) {
        Ok(doc) => Some(doc),
        Err(e) => {
            let body = error_body(&e.to_string());
            write_response(
                out,
                400,
                "Bad Request",
                &JSON_CT,
                body.as_bytes(),
                keep_alive,
            );
            None
        }
    }
}

fn suggest_one(shared: &ServerShared, body: &[u8], keep_alive: bool, out: &mut Vec<u8>) {
    let Some(doc) = parse_body(body, keep_alive, out) else {
        return;
    };
    let request = match decode_request(&doc) {
        Ok(request) => request,
        Err(e) => {
            let body = error_body(&e.to_string());
            write_response(
                out,
                400,
                "Bad Request",
                &JSON_CT,
                body.as_bytes(),
                keep_alive,
            );
            return;
        }
    };
    let started = Instant::now();
    match shared
        .service
        .suggest_timeout(request, shared.submit_timeout)
    {
        Ok(suggestion) => {
            let elapsed = started.elapsed();
            shared
                .http
                .suggest_us
                .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
            let body = encode_suggestion(&suggestion);
            write_response(out, 200, "OK", &JSON_CT, body.as_bytes(), keep_alive);
        }
        Err(e) => service_error_response(shared, &e, keep_alive, out),
    }
}

fn suggest_batch(shared: &ServerShared, body: &[u8], keep_alive: bool, out: &mut Vec<u8>) {
    let Some(doc) = parse_body(body, keep_alive, out) else {
        return;
    };
    let Some(items) = doc.get("requests").and_then(Json::as_arr) else {
        let body = error_body("\"requests\" must be an array");
        write_response(
            out,
            400,
            "Bad Request",
            &JSON_CT,
            body.as_bytes(),
            keep_alive,
        );
        return;
    };
    let mut requests = Vec::with_capacity(items.len());
    for item in items {
        match decode_request(item) {
            Ok(request) => requests.push(request),
            Err(e) => {
                let body = error_body(&e.to_string());
                write_response(
                    out,
                    400,
                    "Bad Request",
                    &JSON_CT,
                    body.as_bytes(),
                    keep_alive,
                );
                return;
            }
        }
    }
    // Submit the whole burst before awaiting anything: each submission
    // wakes a pool worker, so the burst is served in parallel, and the
    // waits below help serve it.
    let started = Instant::now();
    let mut futures = Vec::with_capacity(requests.len());
    for request in requests {
        match shared
            .service
            .submit_timeout(request, shared.submit_timeout)
        {
            Ok(future) => futures.push(future),
            Err(e) => {
                // Futures already admitted are abandoned; their answers
                // complete into dropped receivers, which the service
                // treats as callers that stopped caring.
                service_error_response(shared, &e, keep_alive, out);
                return;
            }
        }
    }
    let mut suggestions = Vec::with_capacity(futures.len());
    for future in futures {
        match future.wait() {
            Ok(suggestion) => suggestions.push(suggestion),
            Err(e) => {
                service_error_response(shared, &e, keep_alive, out);
                return;
            }
        }
    }
    let elapsed = started.elapsed();
    shared
        .http
        .suggest_batch_us
        .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    let mut body = String::from("{\"suggestions\":[");
    for (i, suggestion) in suggestions.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&encode_suggestion(suggestion));
    }
    body.push_str("]}");
    write_response(out, 200, "OK", &JSON_CT, body.as_bytes(), keep_alive);
}

fn service_error_response(
    shared: &ServerShared,
    error: &ServiceError,
    keep_alive: bool,
    out: &mut Vec<u8>,
) {
    match error {
        ServiceError::Overloaded { depth, .. } => {
            let retry = shared.retry_after_secs(*depth).to_string();
            let body = error_body(&error.to_string());
            write_response(
                out,
                503,
                "Service Unavailable",
                &[
                    ("content-type", "application/json"),
                    ("retry-after", &retry),
                ],
                body.as_bytes(),
                keep_alive,
            );
        }
        ServiceError::Closed => {
            let body = error_body("service is shutting down");
            write_response(
                out,
                503,
                "Service Unavailable",
                &JSON_CT,
                body.as_bytes(),
                keep_alive,
            );
        }
        ServiceError::Rank(e) => {
            let body = error_body(&e.to_string());
            write_response(
                out,
                400,
                "Bad Request",
                &JSON_CT,
                body.as_bytes(),
                keep_alive,
            );
        }
        _ => {
            // A fixed body: the error text (a panic message, say) is for
            // the service's own callers and logs, not for remote clients.
            let body = error_body("internal error");
            write_response(
                out,
                500,
                "Internal Server Error",
                &JSON_CT,
                body.as_bytes(),
                keep_alive,
            );
        }
    }
}

#[allow(clippy::cast_precision_loss)]
fn stats_json(stats: &ServiceStats) -> String {
    Json::Obj(vec![
        ("queued".to_string(), Json::Num(stats.queued as f64)),
        ("in_flight".to_string(), Json::Num(stats.in_flight as f64)),
        ("submitted".to_string(), Json::Num(stats.submitted as f64)),
        ("completed".to_string(), Json::Num(stats.completed as f64)),
        ("batches".to_string(), Json::Num(stats.batches as f64)),
        ("rejected".to_string(), Json::Num(stats.rejected as f64)),
        ("workers".to_string(), Json::Num(stats.workers as f64)),
    ])
    .to_text()
}

/// A tiny synchronous client for the wire protocol — what the load
/// harness, the examples, and the equivalence tests speak through. One
/// instance owns one keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A decoded response: status code plus body bytes and the
/// `Retry-After` header when present.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Parsed `Retry-After` seconds, when the server sent one.
    pub retry_after: Option<u64>,
}

impl Client {
    /// Open a keep-alive connection to `addr`.
    ///
    /// # Errors
    /// [`std::io::Error`] if the connection fails.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1024),
        })
    }

    /// Issue one request and block for the response.
    ///
    /// # Errors
    /// [`std::io::Error`] on connection failure or a malformed response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        use std::io::Write as _;
        let mut out = Vec::with_capacity(128 + body.len());
        let _ = write!(
            out,
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        out.extend_from_slice(body);
        self.stream.write_all(&out)?;
        self.read_response()
    }

    /// `POST /suggest` for `request`; returns the raw response (200
    /// bodies decode with [`crate::json::decode_suggestion`]).
    ///
    /// # Errors
    /// [`std::io::Error`] on connection failure or a malformed response.
    pub fn suggest(
        &mut self,
        request: &fairrank::SuggestRequest,
    ) -> std::io::Result<ClientResponse> {
        let body = encode_request(request);
        self.request("POST", "/suggest", body.as_bytes())
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let malformed = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response");
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(head_len) = self
                .buf
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|i| i + 4)
            {
                let head = String::from_utf8(self.buf[..head_len - 4].to_vec())
                    .map_err(|_| malformed())?;
                let mut lines = head.split("\r\n");
                let status: u16 = lines
                    .next()
                    .and_then(|l| l.split(' ').nth(1))
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(malformed)?;
                let mut content_length = 0usize;
                let mut retry_after = None;
                for line in lines {
                    if let Some((name, value)) = line.split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            content_length = value.trim().parse().map_err(|_| malformed())?;
                        } else if name.eq_ignore_ascii_case("retry-after") {
                            retry_after = value.trim().parse().ok();
                        }
                    }
                }
                while self.buf.len() < head_len + content_length {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(malformed());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                let body = self.buf[head_len..head_len + content_length].to_vec();
                self.buf.drain(..head_len + content_length);
                return Ok(ClientResponse {
                    status,
                    body,
                    retry_after,
                });
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(malformed());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
