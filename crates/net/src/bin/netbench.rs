//! `netbench`: the network-tier load harness.
//!
//! Spawns the whole deployment in-process over loopback — a writer
//! [`FairRankService`] behind an [`HttpServer`], then writer + N
//! replicas — and measures:
//!
//! * `net.saturation_rps` — closed-loop max throughput of one server
//!   (8 keep-alive connections hammering `POST /suggest`).
//! * `net.p50_us` / `net.p99_us` — request latency under paced load at
//!   ~50% of saturation, measured from each request's *scheduled* send
//!   time so queueing delay counts (open-loop style; a coordinated-
//!   omission-free number).
//! * `net.replicas_{1,2,4}_rps` — aggregate closed-loop throughput of a
//!   replicated deployment after convergence, clients spread across the
//!   replica endpoints. The scaling series is the acceptance criterion:
//!   aggregate throughput must grow with replica count.
//! * `telemetry.overhead_pct` — 2-D throughput cost of the stage
//!   timing layer: the same workload against `.telemetry(true)` vs
//!   `.telemetry(false)` services. The guard fails (exit 1) above 3%.
//!
//! Latency samples buffer into the telemetry crate's mergeable
//! log-linear [`HistogramSnapshot`] (bounded memory at any request
//! count, ≤6.25% relative bucket error) instead of an unbounded
//! `Vec<f64>`; per-connection snapshots merge before the quantile read.
//!
//! Results merge into `BENCH_baseline.json` (pass a different path as
//! the first argument), preserving every series other benches recorded.
//!
//! [`FairRankService`]: fairrank_serve::FairRankService

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fairrank::{FairRanker, Strategy, SuggestRequest};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, Proportionality};
use fairrank_net::json::{encode_request, merge_into_baseline};
use fairrank_net::{Client, HttpServer, Replica, ReplicaOptions, ReplicatedWriter, ServerConfig};
use fairrank_serve::FairRankService;
use fairrank_telemetry::HistogramSnapshot;

const DATASET_N: usize = 400;
const SATURATION_CONNS: usize = 8;
const MEASURE: Duration = Duration::from_millis(1500);

fn oracle_for(ds: &Dataset) -> Box<dyn FairnessOracle> {
    let attr = ds.type_attribute("group").expect("synthetic group attr");
    let k = DATASET_N / 10;
    Box::new(Proportionality::new(attr, k).with_max_count(0, k / 2 + k / 4))
}

fn build_service(workers: usize) -> Arc<FairRankService> {
    build_service_telemetry(workers, true)
}

fn build_service_telemetry(workers: usize, telemetry: bool) -> Arc<FairRankService> {
    let ds = generic::uniform(DATASET_N, 2, 0.9, 42);
    let oracle = oracle_for(&ds);
    let ranker = FairRanker::builder(ds, oracle)
        .strategy(Strategy::TwoD)
        .build()
        .expect("build ranker");
    Arc::new(
        FairRankService::builder(ranker)
            .workers(workers)
            .max_batch(16)
            .telemetry(telemetry)
            .build(),
    )
}

/// A fan of valid request bodies, pre-encoded so clients measure the
/// wire, not the encoder.
fn request_bodies(count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let t = (i as f64 + 0.5) / count as f64 * std::f64::consts::FRAC_PI_2;
            encode_request(&SuggestRequest::new(vec![0.05 + t.cos(), 0.05 + t.sin()]))
        })
        .collect()
}

/// Closed-loop throughput: `conns` keep-alive connections issue
/// requests back-to-back against `addrs` (round-robin by thread) for
/// the measurement window. Returns successful requests per second.
fn closed_loop_rps(addrs: &[SocketAddr], conns: usize) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let bodies = Arc::new(request_bodies(64));
    let handles: Vec<_> = (0..conns)
        .map(|i| {
            let addr = addrs[i % addrs.len()];
            let stop = Arc::clone(&stop);
            let served = Arc::clone(&served);
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut j = i;
                while !stop.load(Ordering::Relaxed) {
                    let body = &bodies[j % bodies.len()];
                    j += 1;
                    match client.request("POST", "/suggest", body.as_bytes()) {
                        Ok(resp) if resp.status == 200 => {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(resp) if resp.status == 503 => {
                            // Overloaded: honor a (scaled-down) retry
                            // hint rather than hot-spinning the 503 path.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Ok(resp) => panic!("unexpected status {}", resp.status),
                        Err(_) => break,
                    }
                }
            })
        })
        .collect();
    let started = Instant::now();
    std::thread::sleep(MEASURE);
    stop.store(true, Ordering::Relaxed);
    let elapsed = started.elapsed();
    for handle in handles {
        handle.join().expect("client thread");
    }
    served.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()
}

/// Paced load at `target_rps` split across `conns` connections;
/// latency is measured from each request's scheduled send slot, so time
/// spent queued behind a slow server counts against it. Each connection
/// records into its own [`HistogramSnapshot`] (bounded memory however
/// long the run); the merged histogram is returned — merge order cannot
/// matter, which the telemetry CI gate proves by property.
fn paced_latency_histogram(addr: SocketAddr, conns: usize, target_rps: f64) -> HistogramSnapshot {
    let per_conn_interval = Duration::from_secs_f64(conns as f64 / target_rps.max(1.0));
    let bodies = Arc::new(request_bodies(64));
    let handles: Vec<_> = (0..conns)
        .map(|i| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies = HistogramSnapshot::empty();
                let started = Instant::now();
                let mut slot = per_conn_interval.mul_f64(i as f64 / conns as f64);
                let mut j = i;
                while slot < MEASURE {
                    if let Some(wait) = slot.checked_sub(started.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let body = &bodies[j % bodies.len()];
                    j += 1;
                    let ok = matches!(
                        client.request("POST", "/suggest", body.as_bytes()),
                        Ok(resp) if resp.status == 200
                    );
                    if ok {
                        let done = started.elapsed();
                        latencies.record((done - slot).as_micros() as u64);
                    }
                    slot += per_conn_interval;
                }
                latencies
            })
        })
        .collect();
    let mut all = HistogramSnapshot::empty();
    for handle in handles {
        all.merge(&handle.join().expect("client thread"));
    }
    all
}

/// Writer + `n` replicas over loopback: apply an update burst, wait for
/// convergence, then measure aggregate closed-loop throughput across
/// all endpoints (writer excluded — the series isolates replica
/// scaling).
fn replicated_rps(n: usize) -> f64 {
    let writer_service = build_service(2);
    let writer = ReplicatedWriter::bind(Arc::clone(&writer_service), "127.0.0.1:0")
        .expect("bind replication");
    let replicas: Vec<Replica> = (0..n)
        .map(|_| {
            Replica::connect(
                writer.replication_addr(),
                oracle_for,
                ReplicaOptions::default(),
            )
            .expect("replica connect")
        })
        .collect();
    // A small live-update burst, then convergence: every replica must
    // reach the writer's version before the measurement starts.
    let updates: Vec<fairrank::DatasetUpdate> = (0..4)
        .map(|i| fairrank::DatasetUpdate::Insert {
            scores: vec![0.3 + 0.1 * f64::from(i), 0.6],
            groups: vec![1],
        })
        .collect();
    writer.apply(&updates).expect("apply update burst");
    let target = writer_service.version();
    let deadline = Instant::now() + Duration::from_secs(10);
    while replicas.iter().any(|r| r.version() < target) {
        assert!(Instant::now() < deadline, "replicas failed to converge");
        std::thread::sleep(Duration::from_millis(5));
    }
    let servers: Vec<HttpServer> = replicas
        .iter()
        .map(|r| {
            HttpServer::bind(
                r.service(),
                "127.0.0.1:0",
                ServerConfig {
                    threads: 4,
                    ..ServerConfig::default()
                },
            )
            .expect("bind replica http")
        })
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(HttpServer::local_addr).collect();
    // Offered load scales with the deployment (4 connections per
    // replica) so the load generator never becomes the bottleneck that
    // flattens the scaling series.
    let rps = closed_loop_rps(&addrs, 4 * n);
    for server in servers {
        server.shutdown();
    }
    for replica in replicas {
        replica.shutdown();
    }
    writer.shutdown();
    rps
}

/// 2-D throughput with the stage timing layer on vs off, as a
/// percentage lost to telemetry. Best-of-two windows per leg damp
/// scheduler noise; the 2-D index decides every request without the
/// oracle — the worst case for timing overhead, since there is no
/// oracle work to hide it behind.
fn telemetry_overhead_pct() -> (f64, f64, f64) {
    let mut best = [0f64; 2];
    for (slot, timing) in [(0usize, true), (1usize, false)] {
        let service = build_service_telemetry(2, timing);
        let server = HttpServer::bind(
            service,
            "127.0.0.1:0",
            ServerConfig {
                threads: 4,
                ..ServerConfig::default()
            },
        )
        .expect("bind http");
        let addr = server.local_addr();
        let _ = closed_loop_rps(&[addr], 2); // warm up
        best[slot] = closed_loop_rps(&[addr], 4).max(closed_loop_rps(&[addr], 4));
        server.shutdown();
    }
    let (on, off) = (best[0], best[1]);
    let pct = ((off - on) / off.max(1.0) * 100.0).max(0.0);
    (on, off, pct)
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.json".to_string());

    // --- single-server saturation + latency -----------------------------
    let service = build_service(2);
    let server = HttpServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            threads: SATURATION_CONNS,
            ..ServerConfig::default()
        },
    )
    .expect("bind http");
    let addr = server.local_addr();

    // Short warmup settles the latency histogram.
    let _ = closed_loop_rps(&[addr], 2);
    let saturation = closed_loop_rps(&[addr], SATURATION_CONNS);
    println!("net.saturation_rps       {saturation:>12.0}");

    let latencies = paced_latency_histogram(addr, 4, saturation * 0.5);
    let p50 = latencies.quantile(0.50);
    let p99 = latencies.quantile(0.99);
    println!("net.p50_us               {p50:>12.1}   (paced at 50% of saturation)");
    println!("net.p99_us               {p99:>12.1}");
    server.shutdown();
    drop(service);

    // --- replica scaling -------------------------------------------------
    let mut replica_series = Vec::new();
    for n in [1usize, 2, 4] {
        let rps = replicated_rps(n);
        println!("net.replicas_{n}_rps       {rps:>12.0}");
        replica_series.push((n, rps));
    }

    // --- telemetry overhead guard ---------------------------------------
    let (on_rps, off_rps, overhead_pct) = telemetry_overhead_pct();
    println!("telemetry.overhead_pct   {overhead_pct:>12.2}   (on {on_rps:.0} rps, off {off_rps:.0} rps)");

    let series: Vec<(&str, f64)> = vec![
        ("net.saturation_rps", round3(saturation)),
        ("net.p50_us", round3(p50)),
        ("net.p99_us", round3(p99)),
        ("net.replicas_1_rps", round3(replica_series[0].1)),
        ("net.replicas_2_rps", round3(replica_series[1].1)),
        ("net.replicas_4_rps", round3(replica_series[2].1)),
        ("telemetry.overhead_pct", round3(overhead_pct)),
    ];
    merge_into_baseline(&path, &series);
    println!("recorded {} series into {path}", series.len());

    if overhead_pct > 3.0 {
        eprintln!("FAIL: telemetry overhead {overhead_pct:.2}% exceeds the 3% budget");
        std::process::exit(1);
    }
}
