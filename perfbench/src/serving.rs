//! The serving stack under test and the reference it is checked against:
//! set-up through the real front door, the wire form of the query stream,
//! and the probe-set check with its verdict-mix guard.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fairrank::approximate::BuildOptions;
use fairrank::{FairRanker, KnownFairness, Strategy, SuggestRequest, Suggestion};
use fairrank_datasets::Dataset;
use fairrank_net::json::{encode_request, encode_suggestion, Json};
use fairrank_net::{HttpServer, ServerConfig};
use fairrank_serve::FairRankService;

use crate::client::Conn;
use crate::inputs;
use crate::load::Req;
use crate::metrics::Report;
use crate::workloads::{Backend, Workload, PROBES};

/// Probe queries per `/suggest_batch` request of the probe check.
const PROBE_CHUNK: usize = 64;

/// A serving stack on loopback: `HttpServer` over `FairRankService` over
/// `FairRanker`, all at their defaults.
pub(crate) struct Instance {
    pub(crate) service: Arc<FairRankService>,
    server: HttpServer,
    pub(crate) addr: SocketAddr,
}

impl Instance {
    pub(crate) fn stop(self) {
        self.server.shutdown();
        drop(self.service);
    }
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(resp) = Conn::open(addr).and_then(|mut c| c.request("GET", "/healthz", b"")) {
            if resp.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("server never answered GET /healthz with 200".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Build the index, start the service and bind the server; the clock runs
/// from handing the dataset and oracle to the builder until the first 200
/// on `GET /healthz`.
pub(crate) fn setup(w: &Workload, ds: &Arc<Dataset>) -> Result<(Instance, f64), String> {
    let oracle = Box::new(inputs::oracle(ds, w.cap));
    let started = Instant::now();
    let builder = FairRanker::builder(Arc::clone(ds), oracle);
    let builder = match w.backend {
        Backend::TwoD => builder.strategy(Strategy::TwoD),
        Backend::MdApprox {
            n_cells,
            max_hyperplanes,
        } => builder
            .strategy(Strategy::MdApprox)
            .approx_options(BuildOptions {
                n_cells,
                max_hyperplanes: Some(max_hyperplanes),
                ..Default::default()
            }),
    };
    let ranker = builder.build().map_err(|e| format!("index build: {e}"))?;
    let inst = serve(FairRankService::builder(ranker).build())?;
    Ok((inst, started.elapsed().as_secs_f64()))
}

/// Bind a loopback server over `service` and wait until it answers.
pub(crate) fn serve(service: FairRankService) -> Result<Instance, String> {
    let service = Arc::new(service);
    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    wait_healthy(addr)?;
    Ok(Instance {
        service,
        server,
        addr,
    })
}

/// `respond_batch` over `reqs`, on this thread so that the allocations it
/// leaves behind, and with them `peak_rss_mb`, are the same on every run.
fn reference(ranker: &FairRanker, reqs: &[SuggestRequest]) -> Vec<Suggestion> {
    ranker.respond_batch(reqs).expect("valid queries")
}

fn batch_body(items: impl Iterator<Item = String>, key: &str) -> Vec<u8> {
    let mut body = format!("{{\"{key}\":[");
    for (i, item) in items.enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&item);
    }
    body.push_str("]}");
    body.into_bytes()
}

/// The stream as wire requests, each with its reference answer from
/// `respond_batch` on `ranker`.
pub(crate) fn stream_requests(ranker: &FairRanker, queries: &[Vec<f64>]) -> Vec<Req> {
    let reqs: Vec<SuggestRequest> = queries
        .iter()
        .map(|q| SuggestRequest::new(q.clone()))
        .collect();
    let answers = reference(ranker, &reqs);
    reqs.iter()
        .zip(&answers)
        .map(|(r, a)| Req {
            body: encode_request(r).into_bytes(),
            expected: encode_suggestion(a).into_bytes(),
        })
        .collect()
}

/// Answer the fixed probe set over HTTP and check every answer
/// bit-for-bit against `respond_batch` on `ranker` (a snapshot at the
/// serving version). Returns the reference answers.
pub(crate) fn check_probes(
    addr: SocketAddr,
    ranker: &FairRanker,
    report: &mut Report,
) -> Vec<Suggestion> {
    let probes = inputs::probes(ranker.dataset().dim(), PROBES);
    let answers = reference(ranker, &probes);
    let mut conn = Conn::open(addr).ok();
    for (reqs, expect) in probes.chunks(PROBE_CHUNK).zip(answers.chunks(PROBE_CHUNK)) {
        let body = batch_body(reqs.iter().map(encode_request), "requests");
        let want = batch_body(expect.iter().map(encode_suggestion), "suggestions");
        report.tally.attempted += 1;
        let ok = conn
            .as_mut()
            .and_then(|c| c.request("POST", "/suggest_batch", &body).ok())
            .is_some_and(|r| r.status == 200 && r.body == want);
        if !ok {
            report.tally.failed += 1;
            report.fault(format!(
                "probe answers at version {} differ from respond_batch",
                ranker.version()
            ));
        }
    }
    answers
}

/// Record the probe set's verdict mix and fail the run when it is
/// degenerate. Returns the mean distance of the suggested answers.
pub(crate) fn verdict_mix(answers: &[Suggestion], report: &mut Report) -> f64 {
    let (mut fair, mut infeasible, mut distances) = (0usize, 0usize, Vec::new());
    for a in answers {
        match a.fairness {
            KnownFairness::AlreadyFair => fair += 1,
            KnownFairness::Suggested { distance } => distances.push(distance),
            KnownFairness::Infeasible => infeasible += 1,
        }
    }
    report.note(
        "verdict_mix",
        Json::Obj(vec![
            ("fair".into(), Json::Num(fair as f64)),
            ("suggested".into(), Json::Num(distances.len() as f64)),
            ("infeasible".into(), Json::Num(infeasible as f64)),
        ]),
    );
    if fair == 0 || distances.is_empty() {
        report.fault(format!(
            "degenerate verdict mix: {fair} fair, {} suggested, {infeasible} infeasible",
            distances.len()
        ));
    }
    distances.iter().sum::<f64>() / distances.len().max(1) as f64
}
