//! Telemetry must be free in the answers — the CI gate for
//! `fairrank-telemetry` as wired through the serving stack:
//!
//! * histogram snapshot merging is associative and commutative, and
//!   quantiles are monotone in `q` (properties the scrape pipeline
//!   relies on when shards and threads are merged in any order);
//! * answers over loopback HTTP are **bit-identical** with stage
//!   timing enabled and disabled — this file runs in both feature
//!   legs (default and `telemetry-off`), so the guarantee covers the
//!   compile-time kill switch too;
//! * `GET /metrics` parses back line by line and its counters agree
//!   with the `/stats` JSON view over the same registry;
//! * the decision-path counters of the serving oracle pass
//!   (`fairrank_verdict_rankings_total{path}`,
//!   `fairrank_verdict_items_total`) count on `/metrics` in both legs;
//! * a cold-start overload answers 503 with a *deterministic*
//!   `Retry-After: 1` (empty latency histogram).

use std::sync::Arc;
use std::time::Duration;

use fairrank::approximate::BuildOptions;
use fairrank::geometry::HALF_PI;
use fairrank::{FairRanker, Strategy, SuggestOptions, SuggestRequest, Suggestion};
use fairrank_datasets::synthetic::generic;
use fairrank_datasets::Dataset;
use fairrank_fairness::{FairnessOracle, FnOracle, Proportionality};
use fairrank_net::json::{decode_suggestion, Json};
use fairrank_net::{Client, HttpServer, ServerConfig};
use fairrank_serve::FairRankService;
use fairrank_telemetry::HistogramSnapshot;
use proptest::prelude::*;

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
            SuggestRequest::new(vec![0.2 + 1.5 * t.cos(), 0.2 + 0.8 * t.sin()])
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

// ---------------------------------------------------------------------
// Histogram snapshot algebra
// ---------------------------------------------------------------------

fn snap_of(values: &[u64]) -> HistogramSnapshot {
    let mut s = HistogramSnapshot::empty();
    for &v in values {
        s.record(v);
    }
    s
}

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging shard snapshots in any grouping or order yields the same
    /// histogram — what lets the scrape path fold per-thread snapshots
    /// without coordinating a canonical order.
    fn merge_is_associative_and_commutative(
        a in prop::collection::vec(0u64..=u64::MAX, 0..64),
        b in prop::collection::vec(0u64..=u64::MAX, 0..64),
        c in prop::collection::vec(0u64..=u64::MAX, 0..64),
    ) {
        let (sa, sb, sc) = (snap_of(&a), snap_of(&b), snap_of(&c));
        prop_assert_eq!(merged(&sa, &sb), merged(&sb, &sa));
        prop_assert_eq!(
            merged(&merged(&sa, &sb), &sc),
            merged(&sa, &merged(&sb, &sc))
        );
        // Merging is counting: totals add exactly.
        prop_assert_eq!(
            merged(&sa, &sb).count(),
            sa.count() + sb.count()
        );
    }

    /// Quantiles are monotone non-decreasing in `q`, and pinned to real
    /// bucket bounds: q=0 and q=1 bracket every recorded value's bucket.
    fn quantiles_monotone_in_q(
        values in prop::collection::vec(0u64..=u64::MAX, 1..128),
        qs in prop::collection::vec(0.0f64..=1.0, 2..8),
    ) {
        let s = snap_of(&values);
        let mut qs = qs;
        qs.sort_by(f64::total_cmp);
        let results: Vec<f64> = qs.iter().map(|&q| s.quantile(q)).collect();
        for pair in results.windows(2) {
            prop_assert!(
                pair[0] <= pair[1],
                "quantile not monotone: {} > {}", pair[0], pair[1]
            );
        }
        let lo = s.quantile(0.0);
        let hi = s.quantile(1.0);
        let max = *values.iter().max().unwrap();
        prop_assert!(lo <= hi, "q0 {lo} above q1 {hi}");
        prop_assert!(
            hi >= max as f64 * (1.0 - 1.0 / 16.0),
            "q1 {hi} below max sample {max}"
        );
    }
}

// ---------------------------------------------------------------------
// Bit-identity across the telemetry toggle
// ---------------------------------------------------------------------

/// The same ranker served with stage timing on and off answers
/// bit-identically to the direct synchronous path. Run under
/// `--features fairrank-telemetry/telemetry-off` this also proves the
/// compiled-out leg serves the same bytes as the default build did —
/// telemetry never touches the answer path.
#[test]
fn http_answers_identical_with_telemetry_on_and_off() {
    let reqs = fan(24);
    let direct = build_ranker(48, 91)
        .snapshot()
        .respond_batch(&reqs)
        .unwrap();

    for timing in [true, false] {
        let service = Arc::new(
            FairRankService::builder(build_ranker(48, 91))
                .workers(2)
                .telemetry(timing)
                .build(),
        );
        let server = HttpServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (req, want) in reqs.iter().zip(&direct) {
            let got = http_suggest(&mut client, req);
            assert_eq!(got, *want, "timing={timing} {req:?}");
            for (g, w) in got.weights.iter().zip(&want.weights) {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "timing={timing}: weight bits diverged"
                );
            }
        }
        server.shutdown();
    }
}

// ---------------------------------------------------------------------
// /metrics agrees with /stats
// ---------------------------------------------------------------------

/// Parse Prometheus text exposition line by line into
/// `(series-with-labels, value)` pairs, asserting every line is either
/// a well-formed comment or a well-formed sample.
fn parse_prom(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "unknown comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable sample value in line: {line}");
        });
        out.push((series.to_string(), value));
    }
    out
}

fn sample(samples: &[(String, f64)], series: &str) -> Option<f64> {
    samples
        .iter()
        .find(|(name, _)| name == series)
        .map(|(_, v)| *v)
}

/// True if any sample belongs to `family` — matching the bare name, a
/// labeled series, or the `_bucket`/`_sum`/`_count` histogram suffixes.
fn family_present(samples: &[(String, f64)], family: &str) -> bool {
    samples.iter().any(|(name, _)| name.starts_with(family))
}

/// On a quiesced service, `/metrics` and `/stats` are two views over
/// the same registry: every shared counter agrees exactly.
#[test]
fn metrics_endpoint_agrees_with_stats_json() {
    let service = Arc::new(
        FairRankService::builder(build_ranker(40, 92))
            .workers(2)
            .build(),
    );
    let server =
        HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Serial round trips quiesce the pipeline between requests.
    let reqs = fan(6);
    for req in reqs.iter().chain(reqs.iter()) {
        let _ = http_suggest(&mut client, req);
    }

    let resp = client.request("GET", "/stats", b"").unwrap();
    assert_eq!(resp.status, 200);
    let stats = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();

    let resp = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(resp.status, 200);
    let text = std::str::from_utf8(&resp.body).expect("metrics body is utf-8");
    let samples = parse_prom(text);
    assert!(!samples.is_empty(), "metrics body rendered no samples");

    let stat = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap() as f64;
    assert_eq!(
        sample(&samples, "fairrank_service_submitted_total"),
        Some(stat("submitted"))
    );
    assert_eq!(
        sample(&samples, "fairrank_service_completed_total"),
        Some(stat("completed"))
    );
    assert_eq!(
        sample(&samples, "fairrank_service_rejected_total"),
        Some(stat("rejected"))
    );
    assert_eq!(sample(&samples, "fairrank_service_in_flight"), Some(0.0));
    assert_eq!(stat("submitted"), 12.0);
    assert_eq!(stat("completed"), 12.0);

    // HTTP request counters cover the suggest traffic (the /metrics
    // request itself is counted after rendering, so it is absent).
    let suggests = sample(
        &samples,
        "fairrank_http_requests_total{code=\"2xx\",endpoint=\"suggest\"}",
    );
    assert_eq!(suggests, Some(12.0));
    assert!(family_present(
        &samples,
        "fairrank_http_request_duration_us"
    ));

    // Stage-timing families exist exactly when the timing layer is
    // compiled in; counters above exist in both legs.
    assert_eq!(
        family_present(&samples, "fairrank_stage_duration_us"),
        fairrank_telemetry::ENABLED,
        "stage timer presence must track the telemetry-off feature"
    );
    server.shutdown();
}

/// The serving oracle pass counts its verdict rankings by path on
/// `/metrics`: queries inside a grid cell's top-k partition as `cell`,
/// audit requests (`index_fastpath = false`) as `full`, and the items
/// each scored. The counters live in the process-global registry, which
/// other tests of this binary feed too, so the checks are on deltas.
#[test]
fn verdict_path_counters_count_on_metrics() {
    let ds = generic::uniform(300, 3, 0.8, 93);
    let n = ds.len() as f64;
    let oracle = oracle_for(&ds);
    let ranker = FairRanker::builder(ds, oracle)
        .strategy(Strategy::MdApprox)
        .approx_options(BuildOptions {
            n_cells: 120,
            max_hyperplanes: Some(150),
            ..Default::default()
        })
        .build_threads(1)
        .build()
        .unwrap();
    let fast: Vec<SuggestRequest> = (0..8)
        .map(|i| {
            let t = (f64::from(i) + 0.5) / 8.0;
            SuggestRequest::new(vec![0.3 + t, 1.0 - 0.6 * t, 0.5])
        })
        .collect();
    let covered = fast
        .iter()
        .filter(|r| {
            ranker
                .backend()
                .top_k_partition(&r.query)
                .is_some_and(|p| p.covers(&r.query))
        })
        .count() as f64;
    assert!(covered > 0.0, "no query falls inside a partition");
    let audit: Vec<SuggestRequest> = fast
        .iter()
        .cloned()
        .map(|r| r.with_options(SuggestOptions::default().index_fastpath(false)))
        .collect();

    let service = Arc::new(FairRankService::builder(ranker).workers(1).build());
    let server =
        HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let scrape = |client: &mut Client| {
        let resp = client.request("GET", "/metrics", b"").unwrap();
        assert_eq!(resp.status, 200);
        let samples = parse_prom(std::str::from_utf8(&resp.body).unwrap());
        let get = |series: &str| sample(&samples, series).unwrap_or(0.0);
        (
            get("fairrank_verdict_rankings_total{path=\"cell\"}"),
            get("fairrank_verdict_rankings_total{path=\"full\"}"),
            get("fairrank_verdict_items_total"),
        )
    };
    let before = scrape(&mut client);
    for req in fast.iter().chain(&audit) {
        let _ = http_suggest(&mut client, req);
    }
    let after = scrape(&mut client);
    let (cell, full, items) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    assert!(cell >= covered, "cell rankings {cell} < {covered}");
    assert!(full >= audit.len() as f64, "full rankings {full}");
    assert!(items >= n * audit.len() as f64, "items {items}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Deterministic cold-start Retry-After
// ---------------------------------------------------------------------

/// Before any request has completed, the latency histogram is empty,
/// so an overloaded service's `Retry-After` is the clamp floor —
/// exactly 1 second, deterministically. This pins the p95-based hint's
/// cold-start behavior in both feature legs.
#[test]
fn cold_start_overload_retry_after_is_exactly_one() {
    // A 100 ms oracle guarantees no request completes before the
    // rejections land: 3 concurrent one-shot clients against a
    // 1-worker / 1-slot queue shed at least one request within a few
    // milliseconds of connecting. The requests take the audit path,
    // which asks the oracle; the 2-D index would otherwise decide them
    // without it.
    let ds = generic::uniform(12, 2, 0.9, 93);
    let oracle = FnOracle::new("very-slow-top-half", |ranking: &[u32]| {
        std::thread::sleep(Duration::from_millis(100));
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
            .queue_capacity(1)
            .build(),
    );
    let server = HttpServer::bind(
        service,
        "127.0.0.1:0",
        ServerConfig {
            threads: 4,
            submit_timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let outcomes: Vec<(u64, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let req = SuggestRequest::new(vec![1.0, 0.2 + 0.1 * f64::from(i)])
                        .with_options(SuggestOptions::default().index_fastpath(false));
                    let resp = client.suggest(&req).unwrap();
                    match resp.status {
                        200 => (1u64, Vec::new()),
                        503 => {
                            let retry = resp.retry_after.expect("503 must carry retry-after");
                            (0, vec![retry])
                        }
                        other => panic!("unexpected status {other}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let served: u64 = outcomes.iter().map(|(s, _)| s).sum();
    let retries: Vec<u64> = outcomes.iter().flat_map(|(_, r)| r.clone()).collect();
    assert!(served >= 1, "some requests must get through");
    assert!(
        !retries.is_empty(),
        "3 clients x 100ms oracle x 1-slot queue must shed"
    );
    for retry in retries {
        assert_eq!(
            retry, 1,
            "cold-start Retry-After must be the deterministic clamp floor"
        );
    }
    server.shutdown();
}
