//! The network tier must be invisible in the answers — the CI gate for
//! `fairrank-net`:
//!
//! * answers fetched over loopback HTTP are **bit-identical** to direct
//!   [`FairRanker::respond_batch`] on the same snapshot;
//! * a replica bootstrapped over the replication stream answers
//!   bit-identically to the writer at the same version;
//! * replicas catch up after a burst of live updates and converge to
//!   the writer's version (reported through `/healthz`);
//! * overload maps to 503 with a `Retry-After` hint, not to dropped
//!   connections or wrong answers;
//! * connections waiting for a connection thread are served oldest
//!   first;
//! * a panic while serving answers 500 with a fixed body, and the
//!   server keeps answering.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fairrank::geometry::HALF_PI;
use fairrank::{DatasetUpdate, FairRanker, Strategy, SuggestOptions, SuggestRequest, Suggestion};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, FnOracle, Proportionality};
use fairrank_net::json::{decode_suggestion, encode_request, Json};
use fairrank_net::{Client, HttpServer, Replica, ReplicaOptions, ReplicatedWriter, ServerConfig};
use fairrank_serve::FairRankService;

fn oracle_for(ds: &Dataset) -> Box<dyn FairnessOracle> {
    let attr = ds.type_attribute("group").unwrap();
    let k = (ds.len() / 4).max(4);
    Box::new(Proportionality::new(attr, k).with_max_count(0, (k * 3).div_ceil(5)))
}

fn build_ranker(n: usize, seed: u64) -> FairRanker {
    let ds = generic::uniform(n, 2, 0.9, seed);
    let oracle = oracle_for(&ds);
    FairRanker::builder(ds, oracle)
        .strategy(Strategy::TwoD)
        .build()
        .unwrap()
}

fn fan(count: usize) -> Vec<SuggestRequest> {
    (0..count)
        .map(|i| {
            let t = (i as f64 + 0.5) / count as f64 * HALF_PI;
            let mut req = SuggestRequest::new(vec![0.2 + 1.5 * t.cos(), 0.2 + 0.8 * t.sin()]);
            // Exercise top-k materialization over the wire too.
            if i % 3 == 0 {
                req = req.with_top_k(5);
            }
            req
        })
        .collect()
}

fn http_suggest(client: &mut Client, req: &SuggestRequest) -> Suggestion {
    let resp = client.suggest(req).expect("http request");
    assert_eq!(
        resp.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&resp.body)
    );
    let text = std::str::from_utf8(&resp.body).expect("utf-8 body");
    decode_suggestion(&Json::parse(text).expect("json body")).expect("suggestion shape")
}

fn assert_bit_identical(got: &Suggestion, want: &Suggestion, context: &str) {
    assert_eq!(got, want, "{context}");
    // PartialEq on f64 treats 0.0 == -0.0; the wire guarantee is
    // stronger — exact bits.
    for (g, w) in got.weights.iter().zip(&want.weights) {
        assert_eq!(g.to_bits(), w.to_bits(), "{context}: weight bits diverged");
    }
}

/// Loopback HTTP answers, one at a time and batched, are bit-identical
/// to the direct synchronous path on the same snapshot.
#[test]
fn http_answers_match_direct() {
    let ranker = build_ranker(48, 71);
    let reqs = fan(30);
    let direct = ranker.snapshot().respond_batch(&reqs).unwrap();
    let service = Arc::new(FairRankService::builder(ranker).workers(2).build());
    let server = HttpServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // One request per round trip.
    for (req, want) in reqs.iter().zip(&direct) {
        let got = http_suggest(&mut client, req);
        assert_bit_identical(&got, want, &format!("single {req:?}"));
    }

    // The whole fan as one /suggest_batch body.
    let mut body = String::from("{\"requests\":[");
    for (i, req) in reqs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&encode_request(req));
    }
    body.push_str("]}");
    let resp = client
        .request("POST", "/suggest_batch", body.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let suggestions = doc.get("suggestions").and_then(Json::as_arr).unwrap();
    assert_eq!(suggestions.len(), direct.len());
    for ((item, want), req) in suggestions.iter().zip(&direct).zip(&reqs) {
        let got = decode_suggestion(item).unwrap();
        assert_bit_identical(&got, want, &format!("batched {req:?}"));
    }
    server.shutdown();
}

/// `/stats` exposes live counters (including the in-flight gauge) and
/// `/healthz` the serving version; unknown routes 404, wrong methods
/// 405, and semantic 400s leave the connection usable.
#[test]
fn stats_healthz_and_routing() {
    let service = Arc::new(
        FairRankService::builder(build_ranker(30, 72))
            .workers(1)
            .build(),
    );
    let server =
        HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let _ = http_suggest(&mut client, &SuggestRequest::new(vec![1.0, 0.3]));
    let resp = client.request("GET", "/stats", b"").unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(doc.get("submitted").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("completed").and_then(Json::as_u64), Some(1));
    assert!(doc.get("in_flight").and_then(Json::as_u64).is_some());

    let resp = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("version").and_then(Json::as_u64), Some(0));

    let resp = client.request("GET", "/nope", b"").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.request("DELETE", "/suggest", b"").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client
        .request("POST", "/suggest", br#"{"query":[1.0,-0.5]}"#)
        .unwrap();
    assert_eq!(resp.status, 400, "negative weight must 400");
    let resp = client
        .request("POST", "/suggest", br#"{"query":[1.0,2.0,3.0]}"#)
        .unwrap();
    assert_eq!(resp.status, 400, "dimension mismatch must 400");
    let _ = http_suggest(&mut client, &SuggestRequest::new(vec![0.5, 0.5]));
    server.shutdown();
}

/// Saturating a deliberately slow, tiny-queued service over HTTP yields
/// 503s carrying a `Retry-After` hint — and every accepted request is
/// still answered.
#[test]
fn overload_maps_to_503_with_retry_after() {
    // A sleeping oracle makes service time, not protocol overhead, the
    // bottleneck: 8 concurrent clients against a 1-worker/1-batch
    // service with a 2-slot queue must shed load. The requests take the
    // audit path, which asks the oracle; the 2-D index would otherwise
    // decide them without it.
    let ds = generic::uniform(12, 2, 0.9, 73);
    let oracle = FnOracle::new("slow-top-half", |ranking: &[u32]| {
        std::thread::sleep(Duration::from_millis(2));
        ranking[0].is_multiple_of(2) || ranking[1].is_multiple_of(2)
    });
    let ranker = FairRanker::builder(ds, Box::new(oracle))
        .strategy(Strategy::TwoD)
        .build()
        .unwrap();
    let service = Arc::new(
        FairRankService::builder(ranker)
            .workers(1)
            .max_batch(1)
            .queue_capacity(2)
            .build(),
    );
    let server = HttpServer::bind(
        service,
        "127.0.0.1:0",
        ServerConfig {
            threads: 8,
            submit_timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let req = SuggestRequest::new(vec![1.0, 0.2 + 0.1 * f64::from(i)])
                        .with_options(SuggestOptions::default().index_fastpath(false));
                    let mut served = 0u64;
                    let mut shed = 0u64;
                    for _ in 0..10 {
                        let resp = client.suggest(&req).unwrap();
                        match resp.status {
                            200 => served += 1,
                            503 => {
                                let retry = resp.retry_after.expect("503 must carry retry-after");
                                assert!((1..=30).contains(&retry), "retry-after {retry}");
                                shed += 1;
                            }
                            other => panic!("unexpected status {other}"),
                        }
                    }
                    (served, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let served: u64 = outcomes.iter().map(|(s, _)| s).sum();
    let shed: u64 = outcomes.iter().map(|(_, r)| r).sum();
    assert!(served > 0, "some requests must get through");
    assert!(shed > 0, "8 clients x 2ms oracle x 2-slot queue must shed");
    server.shutdown();
}

/// Regression: waiting connections are served in arrival order. With one
/// connection thread held by client X, A connects and sends a request,
/// then B connects, sends one and stays open and idle. When X closes, A
/// must be answered. (Served newest-first, B would take the thread and
/// its idle keep-alive would starve A.)
#[test]
fn waiting_connections_are_served_oldest_first() {
    let service = Arc::new(
        FairRankService::builder(build_ranker(20, 74))
            .workers(1)
            .build(),
    );
    let server = HttpServer::bind(
        service,
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let healthz = b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n";

    let mut x = Client::connect(addr).unwrap();
    assert_eq!(x.request("GET", "/healthz", b"").unwrap().status, 200);
    // A's handshake completes before B's starts, so the listener's
    // accept queue, and the acceptor, see A first.
    let mut a = TcpStream::connect(addr).unwrap();
    a.write_all(healthz).unwrap();
    let mut b = TcpStream::connect(addr).unwrap();
    b.write_all(healthz).unwrap();
    // Give the acceptor time to queue both before the thread frees up;
    // were it slower, only A would be waiting and the check would pass
    // trivially, never wrongly.
    std::thread::sleep(Duration::from_millis(100));
    drop(x);

    a.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut head = [0u8; 12];
    a.read_exact(&mut head)
        .expect("the oldest waiting connection must be served first");
    assert_eq!(&head, b"HTTP/1.1 200");
    drop(b);
    server.shutdown();
}

/// A panic while serving (here in the oracle) fails that request with
/// 500 and a fixed body: the panic text is for the service's own callers,
/// not for remote clients. The next request is answered normally.
#[test]
fn serving_panic_maps_to_500_without_its_message() {
    let ds = generic::uniform(20, 2, 0.9, 75);
    let fair = oracle_for(&ds);
    let armed = Arc::new(AtomicBool::new(false));
    let trigger = Arc::clone(&armed);
    let oracle = FnOracle::new("exploding", move |ranking: &[u32]| {
        assert!(!trigger.load(Ordering::SeqCst), "secret oracle detail");
        fair.is_satisfactory(ranking)
    });
    let ranker = FairRanker::builder(ds, Box::new(oracle))
        .strategy(Strategy::TwoD)
        .build()
        .unwrap();
    let reference = ranker.snapshot();
    let service = Arc::new(FairRankService::builder(ranker).workers(1).build());
    let server = HttpServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // An audit request, so the oracle is asked: the 2-D index would
    // decide a default request without it.
    let req = SuggestRequest::new(vec![1.0, 0.4])
        .with_options(SuggestOptions::default().index_fastpath(false));

    armed.store(true, Ordering::SeqCst);
    let resp = client.suggest(&req).unwrap();
    let body = String::from_utf8_lossy(&resp.body);
    assert_eq!(resp.status, 500, "body: {body}");
    assert!(body.contains("internal error"), "body: {body}");
    assert!(
        !body.contains("secret"),
        "the panic text reached the client: {body}"
    );

    armed.store(false, Ordering::SeqCst);
    let got = http_suggest(&mut client, &req);
    assert_bit_identical(&got, &reference.respond(&req).unwrap(), "after the panic");
    server.shutdown();
}

fn healthz_version(addr: SocketAddr) -> u64 {
    let mut client = Client::connect(addr).unwrap();
    let resp = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(resp.status, 200);
    Json::parse(std::str::from_utf8(&resp.body).unwrap())
        .unwrap()
        .get("version")
        .and_then(Json::as_u64)
        .unwrap()
}

fn await_version(replica: &Replica, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.version() < target {
        assert!(
            Instant::now() < deadline,
            "replica stuck at {} (target {target}, error {:?})",
            replica.version(),
            replica.error()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Replication: a replica bootstrapped from the writer answers
/// bit-identically at the same version, catches up through an update
/// burst, and reports convergence through `/healthz`.
#[test]
fn replica_matches_writer_and_catches_up() {
    let writer_service = Arc::new(
        FairRankService::builder(build_ranker(40, 74))
            .workers(2)
            .build(),
    );
    let writer = ReplicatedWriter::bind(Arc::clone(&writer_service), "127.0.0.1:0").unwrap();
    let replica = Replica::connect(
        writer.replication_addr(),
        oracle_for,
        ReplicaOptions::default(),
    )
    .unwrap();
    assert_eq!(replica.version(), 0);

    let reqs = fan(24);
    let writer_http = HttpServer::bind(
        Arc::clone(&writer_service),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let replica_http =
        HttpServer::bind(replica.service(), "127.0.0.1:0", ServerConfig::default()).unwrap();

    // Same version, bit-identical answers — writer vs replica vs direct.
    let direct = writer_service.snapshot().respond_batch(&reqs).unwrap();
    let mut writer_client = Client::connect(writer_http.local_addr()).unwrap();
    let mut replica_client = Client::connect(replica_http.local_addr()).unwrap();
    for (req, want) in reqs.iter().zip(&direct) {
        let from_writer = http_suggest(&mut writer_client, req);
        let from_replica = http_suggest(&mut replica_client, req);
        assert_bit_identical(&from_writer, want, "writer vs direct");
        assert_bit_identical(&from_replica, want, "replica vs direct");
    }

    // Burst of live updates through the writer; the replica tails the
    // update log and applies them in order.
    let updates: Vec<DatasetUpdate> = (0..6)
        .map(|i| DatasetUpdate::Insert {
            scores: vec![0.25 + 0.1 * f64::from(i), 0.65],
            groups: vec![u32::from(i % 2 == 0)],
        })
        .collect();
    let outcomes = writer.apply(&updates).unwrap();
    assert_eq!(outcomes.len(), 6);
    let target = writer_service.version();
    assert_eq!(target, 6);
    await_version(&replica, target);
    assert_eq!(healthz_version(replica_http.local_addr()), target);
    assert_eq!(replica.error(), None);

    // Converged: answers at the new version are bit-identical again.
    let direct = writer_service.snapshot().respond_batch(&reqs).unwrap();
    for (req, want) in reqs.iter().zip(&direct) {
        assert_eq!(want.version, target);
        let from_replica = http_suggest(&mut replica_client, req);
        assert_bit_identical(&from_replica, want, "replica vs direct post-update");
    }

    // A second burst with mixed update kinds, applied after a late
    // replica bootstraps mid-history: both replicas converge.
    let late = Replica::connect(
        writer.replication_addr(),
        oracle_for,
        ReplicaOptions::default(),
    )
    .unwrap();
    let more = vec![
        DatasetUpdate::Rescore {
            item: 0,
            scores: vec![0.9, 0.1],
        },
        DatasetUpdate::Remove { item: 3 },
    ];
    writer.apply(&more).unwrap();
    let target = writer_service.version();
    await_version(&replica, target);
    await_version(&late, target);
    let direct = writer_service.snapshot().respond_batch(&reqs).unwrap();
    let late_http =
        HttpServer::bind(late.service(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut late_client = Client::connect(late_http.local_addr()).unwrap();
    for (req, want) in reqs.iter().zip(&direct) {
        let a = http_suggest(&mut replica_client, req);
        let b = http_suggest(&mut late_client, req);
        assert_bit_identical(&a, want, "original replica after second burst");
        assert_bit_identical(&b, want, "late-joining replica");
    }

    late_http.shutdown();
    replica_http.shutdown();
    writer_http.shutdown();
    late.shutdown();
    replica.shutdown();
    writer.shutdown();
}

/// A byte-pumping TCP proxy with a *stable* front address and a
/// swappable backend. The replica under test connects to the front; the
/// test can then kill the writer behind it and bring up a new one on a
/// fresh port without the replica's reconnect target ever changing
/// (re-binding the old port races TIME_WAIT and other tests).
struct SwitchProxy {
    addr: SocketAddr,
    backend: Arc<std::sync::Mutex<SocketAddr>>,
    stop: Arc<std::sync::atomic::AtomicBool>,
}

impl SwitchProxy {
    fn start(backend: SocketAddr) -> SwitchProxy {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let backend = Arc::new(std::sync::Mutex::new(backend));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let backend = Arc::clone(&backend);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        return;
                    }
                    let Ok(client) = conn else { return };
                    let target = *backend.lock().unwrap();
                    // Writer down: drop the connection so the replica's
                    // bootstrap fails and its backoff keeps retrying.
                    let Ok(upstream) = std::net::TcpStream::connect(target) else {
                        continue;
                    };
                    let pump = |mut from: std::net::TcpStream, mut to: std::net::TcpStream| {
                        std::thread::spawn(move || {
                            let _ = std::io::copy(&mut from, &mut to);
                            let _ = to.shutdown(std::net::Shutdown::Both);
                            let _ = from.shutdown(std::net::Shutdown::Both);
                        })
                    };
                    pump(client.try_clone().unwrap(), upstream.try_clone().unwrap());
                    pump(upstream, client);
                }
            });
        }
        SwitchProxy {
            addr,
            backend,
            stop,
        }
    }

    fn set_backend(&self, addr: SocketAddr) {
        *self.backend.lock().unwrap() = addr;
    }

    fn shutdown(&self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        // Unblock the accept loop.
        let _ = std::net::TcpStream::connect(self.addr);
    }
}

fn healthz_doc(client: &mut Client) -> (u16, Json) {
    let resp = client.request("GET", "/healthz", b"").unwrap();
    let doc = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    (resp.status, doc)
}

/// Regression: the writer dies mid-stream, the replica surfaces the
/// staleness through `/healthz` (503 + `stale: true` + the last applied
/// version), and once a writer is back — with *more* history than the
/// replica ever saw, so the update log alone cannot catch it up — the
/// replica re-bootstraps on its own and converges bit-identically.
#[test]
fn replica_survives_writer_restart_with_gap() {
    let writer_service = Arc::new(
        FairRankService::builder(build_ranker(36, 75))
            .workers(2)
            .build(),
    );
    let writer = ReplicatedWriter::bind(Arc::clone(&writer_service), "127.0.0.1:0").unwrap();
    let proxy = SwitchProxy::start(writer.replication_addr());
    let replica = Replica::connect(proxy.addr, oracle_for, ReplicaOptions::default()).unwrap();
    let replica_http = HttpServer::bind(
        replica.service(),
        "127.0.0.1:0",
        ServerConfig {
            health: Some(replica.health()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut health_client = Client::connect(replica_http.local_addr()).unwrap();

    // Healthy tail: a first burst replicates, /healthz reports fresh.
    let burst = |from: u32, count: u32| -> Vec<DatasetUpdate> {
        (from..from + count)
            .map(|i| DatasetUpdate::Insert {
                scores: vec![0.2 + 0.05 * f64::from(i), 0.7],
                groups: vec![i % 2],
            })
            .collect()
    };
    writer.apply(&burst(0, 4)).unwrap();
    await_version(&replica, writer_service.version());
    let (status, doc) = healthz_doc(&mut health_client);
    assert_eq!(status, 200);
    assert_eq!(doc.get("stale").and_then(Json::as_bool), Some(false));

    // Kill the writer mid-life. The replica must notice the dead tail
    // and surface it: 503, stale: true, and the version it got stuck at.
    let stuck_at = replica.version();
    writer.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    let stale_doc = loop {
        assert!(Instant::now() < deadline, "/healthz never reported stale");
        let (status, doc) = healthz_doc(&mut health_client);
        if status == 503 {
            break doc;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        stale_doc.get("status").and_then(Json::as_str),
        Some("stale")
    );
    assert_eq!(stale_doc.get("stale").and_then(Json::as_bool), Some(true));
    assert_eq!(
        stale_doc.get("last_applied").and_then(Json::as_u64),
        Some(stuck_at)
    );
    assert!(stale_doc.get("reason").and_then(Json::as_str).is_some());

    // Restart: a new writer on a fresh port, seeded with the same
    // history *plus* updates the replica never saw — a log gap only a
    // full re-bootstrap can cross.
    let restarted_service = Arc::new(
        FairRankService::builder(build_ranker(36, 75))
            .workers(2)
            .build(),
    );
    restarted_service.update_batch(burst(0, 4)).unwrap();
    restarted_service.update_batch(burst(4, 3)).unwrap();
    let restarted = ReplicatedWriter::bind(Arc::clone(&restarted_service), "127.0.0.1:0").unwrap();
    proxy.set_backend(restarted.replication_addr());

    // The replica reconnects, re-bootstraps, and converges on its own.
    await_version(&replica, restarted_service.version());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, doc) = healthz_doc(&mut health_client);
        if status == 200 {
            assert_eq!(doc.get("stale").and_then(Json::as_bool), Some(false));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "/healthz stuck stale after resync"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(replica.error(), None);

    // Live replication works again after the resync, and answers are
    // bit-identical to the restarted writer's.
    restarted.apply(&burst(7, 2)).unwrap();
    await_version(&replica, restarted_service.version());
    let reqs = fan(16);
    let direct = restarted_service.snapshot().respond_batch(&reqs).unwrap();
    let mut replica_client = Client::connect(replica_http.local_addr()).unwrap();
    for (req, want) in reqs.iter().zip(&direct) {
        let got = http_suggest(&mut replica_client, req);
        assert_bit_identical(&got, want, "replica vs restarted writer");
    }

    replica_http.shutdown();
    replica.shutdown();
    restarted.shutdown();
    proxy.shutdown();
}
