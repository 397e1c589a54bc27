//! The traced run's in-process ladder: each layer's public entry point
//! timed from here, on the workload's own index and query stream, from the
//! scoring kernel up to the in-process service.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fairrank::{DatasetUpdate, FairRanker, QueryCtx, Strategy, SuggestRequest, UpdateOutcome};
use fairrank_datasets::{kernels, RankWorkspace};
use fairrank_fairness::{FairnessOracle, Proportionality};
use fairrank_net::json::{decode_suggestion, encode_request, encode_suggestion, Json};
use fairrank_serve::FairRankService;
use fairrank_telemetry::{Counter, Histogram, HistogramSnapshot, Registry};

use crate::inputs::{self, Rng, Stream};
use crate::stats::{delta_summary, median, summarize};
use crate::workloads::{Workload, LAYER_QUERIES};

/// Named per-layer values, appended in measurement order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Microseconds per call of `f(i)` for each item `i`, each timed over `reps`
/// back-to-back calls so sub-microsecond layers stay above clock resolution.
fn per_call_us(items: usize, reps: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..items)
        .map(|i| {
            let t = Instant::now();
            for _ in 0..reps {
                f(i);
            }
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect()
}

/// Repetitions that make one timed sample of an `O(n·d)` pass last about
/// 20 µs.
fn reps_for(n: usize, d: usize) -> usize {
    (20_000 / (n * d).max(1)).clamp(1, 256)
}

fn push_summary(out: &mut Metrics, p50: &'static str, tail: &'static str, samples: &[f64]) {
    let s = summarize(samples);
    out.push((p50, s.map_or(0.0, |s| s.p50)));
    out.push((tail, s.map_or(0.0, |s| s.tail)));
}

/// Datasets, fairness, backend and ranker layers, timed on a snapshot of
/// the serving ranker.
pub fn ranker_layers(
    ranker: &FairRanker,
    oracle: &Proportionality,
    queries: &[Vec<f64>],
) -> Metrics {
    let ds = ranker.dataset();
    let (n, d) = (ds.len(), ds.dim());
    let qs = &queries[..LAYER_QUERIES.min(queries.len())];
    let reps = reps_for(n, d);
    let mut out = Metrics::new();

    let mut scores = Vec::new();
    let t = per_call_us(qs.len(), reps, |i| {
        kernels::score_all_into(ds, &qs[i], &mut scores);
        black_box(&scores);
    });
    out.push(("kernels.score_all_us", median(&t)));
    // Computed traffic of one pass: every column read once, the scores
    // written once.
    out.push(("kernels.score_all_bytes", (8 * n * (d + 1)) as f64));

    let bound = oracle.top_k_bound();
    let mut ws = RankWorkspace::new();
    let t = per_call_us(qs.len(), reps, |i| {
        black_box(ws.rank_with_bound(ds, &qs[i], bound));
    });
    out.push(("rank.topk_us", median(&t)));

    let rankings: Vec<Vec<u32>> = qs.iter().map(|q| ds.rank(q)).collect();
    let t = per_call_us(qs.len(), reps, |i| {
        black_box(oracle.is_satisfactory(&rankings[i]));
    });
    out.push(("oracle.verdict_us", median(&t)));

    let backend = ranker.backend();
    let t = per_call_us(qs.len(), 16, |i| {
        black_box(backend.known_fairness(&qs[i]));
    });
    out.push(("backend.known_fairness_us", median(&t)));
    let decided = qs
        .iter()
        .filter(|q| backend.known_fairness(q).is_some())
        .count();
    out.push((
        "backend.known_fairness_decided_ratio",
        decided as f64 / qs.len() as f64,
    ));

    let unfair: Vec<&Vec<f64>> = qs
        .iter()
        .zip(&rankings)
        .filter(|(_, r)| !oracle.is_satisfactory(r))
        .map(|(q, _)| q)
        .collect();
    let ctx = QueryCtx { ds, oracle };
    let t = per_call_us(unfair.len(), 1, |i| {
        black_box(
            backend
                .suggest_unfair(unfair[i], &ctx)
                .expect("valid query"),
        );
    });
    push_summary(
        &mut out,
        "backend.suggest_unfair_p50_us",
        "backend.suggest_unfair_tail_us",
        &t,
    );

    let reqs: Vec<SuggestRequest> = qs.iter().map(|q| SuggestRequest::new(q.clone())).collect();
    let t = per_call_us(reqs.len(), 1, |i| {
        black_box(ranker.respond(&reqs[i]).expect("valid query"));
    });
    push_summary(
        &mut out,
        "ranker.respond_p50_us",
        "ranker.respond_tail_us",
        &t,
    );

    // The service hands micro-batches of up to 16 requests to
    // respond_batch.
    let chunk = 16;
    let t = Instant::now();
    let answers: Vec<_> = reqs
        .chunks(chunk)
        .flat_map(|c| ranker.respond_batch(c).expect("valid queries"))
        .collect();
    out.push((
        "ranker.respond_batch_us_per_query",
        t.elapsed().as_secs_f64() * 1e6 / reqs.len() as f64,
    ));
    let decided = answers.iter().filter(|a| a.stats.index_decided).count();
    out.push((
        "ranker.index_decided_ratio",
        decided as f64 / answers.len() as f64,
    ));

    let t = per_call_us(reqs.len(), 64, |i| {
        black_box(encode_request(&reqs[i]));
    });
    out.push(("json.encode_request_us", median(&t)));
    let texts: Vec<String> = answers.iter().map(encode_suggestion).collect();
    let t = per_call_us(texts.len(), 16, |i| {
        let doc = Json::parse(&texts[i]).expect("valid json");
        black_box(decode_suggestion(&doc).expect("valid suggestion"));
    });
    out.push(("json.decode_suggestion_us", median(&t)));
    out
}

/// Live-update cost on a fork of the serving ranker: the fork shares the
/// service's generation, so each update takes the same copy-on-write path
/// the service's writer does.
pub fn update_layers(w: &Workload, service: &FairRankService, seed: u64) -> Metrics {
    let mut fork = service.snapshot();
    let updates = inputs::updates(
        fork.dataset(),
        &mut Rng::new(seed, Stream::LayerUpdates),
        4 * w.layer_updates,
    );
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut incremental = 0usize;
    for u in &updates {
        let kind = match u {
            DatasetUpdate::Insert { .. } => 0,
            DatasetUpdate::Rescore { .. } => 1,
            _ => 2,
        };
        let t = Instant::now();
        let outcome = fork.update(u.clone()).expect("valid update");
        by_kind[kind].push(t.elapsed().as_secs_f64() * 1e6);
        incremental += usize::from(outcome == UpdateOutcome::Incremental);
    }
    vec![
        ("ranker.update_insert_us", median(&by_kind[0])),
        ("ranker.update_rescore_us", median(&by_kind[1])),
        ("ranker.update_remove_us", median(&by_kind[2])),
        (
            "ranker.update_incremental_ratio",
            incremental as f64 / updates.len() as f64,
        ),
    ]
}

/// The in-process service with one caller: submit, wait, repeat.
pub fn service_layer(service: &FairRankService, queries: &[Vec<f64>]) -> Metrics {
    let qs = &queries[..LAYER_QUERIES.min(queries.len())];
    let t = per_call_us(qs.len(), 1, |i| {
        black_box(
            service
                .suggest(SuggestRequest::new(qs[i].clone()))
                .expect("service answers"),
        );
    });
    let mut out = Metrics::new();
    push_summary(
        &mut out,
        "service.suggest_p50_us",
        "service.suggest_tail_us",
        &t,
    );
    out
}

/// The exact backend's side set-up: COMPAS at n = 25 projected to three
/// attributes under the paper's FM1, small enough for the arrangement.
const EXACT_N: usize = 25;
const EXACT_ATTRS: &[usize] = &[0, 1, 2];
const EXACT_CAP: f64 = 0.60;
/// Unfair queries MDBASELINE is timed on; each searches every region.
const EXACT_QUERIES: usize = 8;

/// The exact backend's layers, measured beside a workload that serves
/// another backend: builds the exact index of the side set-up (its build
/// phases land in the registry [`build_phases`] reads) and times
/// MDBASELINE on fixed unfair queries.
pub fn exact_side() -> Result<Metrics, String> {
    let ds = inputs::dataset(EXACT_N, EXACT_ATTRS);
    let oracle = inputs::oracle(&ds, EXACT_CAP);
    let mut rng = Rng::new(inputs::PROBE_SEED, Stream::Queries);
    let unfair = inputs::mixed_stream(&ds, &oracle, &mut rng, EXACT_QUERIES, (0, 1))?;
    let ranker = FairRanker::builder(Arc::clone(&ds), Box::new(oracle.clone()))
        .strategy(Strategy::MdExact)
        .build()
        .map_err(|e| format!("exact side index: {e}"))?;
    let ctx = QueryCtx {
        ds: &ds,
        oracle: &oracle,
    };
    let t = per_call_us(unfair.len(), 1, |i| {
        black_box(
            ranker
                .backend()
                .suggest_unfair(&unfair[i], &ctx)
                .expect("valid query"),
        );
    });
    let mut out = Metrics::new();
    push_summary(
        &mut out,
        "md_exact.suggest_unfair_p50_us",
        "md_exact.suggest_unfair_tail_us",
        &t,
    );
    Ok(out)
}

/// Mean per-phase build time in seconds, read from the build-phase
/// histogram the program records into the process-global registry.
pub fn build_phases() -> Metrics {
    const PHASES: &[(&str, &str, &str)] = &[
        ("build.twod.events_s", "twod", "events"),
        ("build.twod.sweep_s", "twod", "sweep"),
        ("build.md_exact.hyperplanes_s", "md_exact", "hyperplanes"),
        ("build.md_exact.regions_s", "md_exact", "regions"),
        ("build.md_exact.verify_s", "md_exact", "verify"),
        ("build.md_approx.hyperplanes_s", "md_approx", "hyperplanes"),
        ("build.md_approx.cellplanes_s", "md_approx", "cellplanes"),
        ("build.md_approx.markcells_s", "md_approx", "markcells"),
        ("build.md_approx.coloring_s", "md_approx", "coloring"),
    ];
    PHASES
        .iter()
        .map(|&(name, backend, phase)| {
            let snap = fairrank_telemetry::global()
                .histogram(
                    "fairrank_build_phase_duration_us",
                    "",
                    &[("backend", backend), ("phase", phase)],
                )
                .snapshot();
            let mean_us = if snap.is_empty() { 0.0 } else { snap.mean() };
            (name, mean_us / 1e6)
        })
        .collect()
}

/// Histogram handles of the program's registries, snapshotted around the
/// traced serving phase.
pub struct RegistryProbe {
    hists: Vec<(&'static str, &'static str, Histogram, HistogramSnapshot)>,
    counters: Vec<(&'static str, Counter, u64)>,
}

const STAGES: &[(&str, &str)] = &[
    (
        "service.stage.queue_wait_p50_us",
        "service.stage.queue_wait_tail_us",
    ),
    (
        "service.stage.coalesce_p50_us",
        "service.stage.coalesce_tail_us",
    ),
    (
        "service.stage.cache_lookup_p50_us",
        "service.stage.cache_lookup_tail_us",
    ),
    (
        "service.stage.fastpath_p50_us",
        "service.stage.fastpath_tail_us",
    ),
    (
        "service.stage.oracle_pass_p50_us",
        "service.stage.oracle_pass_tail_us",
    ),
    ("http.stage.net_parse_p50_us", ""),
    ("http.stage.net_write_p50_us", ""),
];
const STAGE_LABELS: &[&str] = &[
    "queue_wait",
    "coalesce",
    "cache_lookup",
    "fastpath",
    "oracle_pass",
    "net_parse",
    "net_write",
];

impl RegistryProbe {
    pub fn start(reg: &Registry, endpoint: &'static str) -> RegistryProbe {
        let mut hists = Vec::new();
        for (&(p50, tail), &stage) in STAGES.iter().zip(STAGE_LABELS) {
            let h = reg.histogram("fairrank_stage_duration_us", "", &[("stage", stage)]);
            let snap = h.snapshot();
            hists.push((p50, tail, h, snap));
        }
        let h = reg.histogram(
            "fairrank_http_request_duration_us",
            "",
            &[("endpoint", endpoint)],
        );
        let snap = h.snapshot();
        hists.push((
            "http.server_duration_p50_us",
            "http.server_duration_tail_us",
            h,
            snap,
        ));
        let counters = [
            "fairrank_service_submitted_total",
            "fairrank_service_completed_total",
            "fairrank_service_batches_total",
            "fairrank_service_rejected_total",
            "fairrank_cache_hits_total",
            "fairrank_cache_misses_total",
        ]
        .into_iter()
        .map(|name| {
            let c = reg.counter(name, "", &[]);
            let v = c.get();
            (name, c, v)
        })
        .collect();
        RegistryProbe { hists, counters }
    }

    pub fn finish(self, out: &mut Metrics) {
        for (p50, tail, h, before) in &self.hists {
            let s = delta_summary(before, &h.snapshot());
            out.push((p50, s.map_or(0.0, |s| s.p50)));
            if !tail.is_empty() {
                out.push((tail, s.map_or(0.0, |s| s.tail)));
            }
        }
        let delta = |name: &str| {
            self.counters
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |(_, c, v)| (c.get() - v) as f64)
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let (submitted, completed) = (
            delta("fairrank_service_submitted_total"),
            delta("fairrank_service_completed_total"),
        );
        let rejected = delta("fairrank_service_rejected_total");
        let (hits, misses) = (
            delta("fairrank_cache_hits_total"),
            delta("fairrank_cache_misses_total"),
        );
        out.push((
            "service.batch_size_mean",
            ratio(completed, delta("fairrank_service_batches_total")),
        ));
        out.push(("service.cache_hit_ratio", ratio(hits, hits + misses)));
        out.push((
            "service.rejected_ratio",
            ratio(rejected, submitted + rejected),
        ));
    }
}
