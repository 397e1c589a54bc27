//! One run of one workload: set-up, the correctness and verdict-mix checks,
//! then either the load phases (untraced) or the per-layer ladder (traced).

use std::sync::Arc;
use std::time::Instant;

use fairrank::DatasetUpdate;
use fairrank_datasets::Dataset;
use fairrank_net::json::Json;
use fairrank_serve::FairRankService;

use crate::client::Conn;
use crate::inputs::{self, Rng, Stream};
use crate::layers::{self, RegistryProbe};
use crate::load::{closed_loop, Tally};
use crate::metrics::Report;
use crate::phases::{paced, saturation, Cursor, Paced};
use crate::serving::{check_probes, serve, setup, stream_requests, verdict_mix, Instance};
use crate::stats::{self, median, quantile, summarize};
use crate::workloads::{Backend, Workload, CONNS, LAYER_QUERIES, PATH};

/// Shares of `--seconds` given to each load phase.
const WARMUP_SHARE: f64 = 0.04;
const NOMINAL_SHARE: f64 = 0.5;
const SATURATION_SHARE: f64 = 0.15;
const RUNG_SHARE: f64 = 0.05;
const OVERHEAD_SHARE: f64 = 0.06;
/// Rounds the nominal-rate and saturation phases are split into.
const ROUNDS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn summary_json(s: Option<stats::Summary>) -> Json {
    let Some(s) = s else {
        return Json::Obj(vec![("samples".into(), Json::Num(0.0))]);
    };
    Json::Obj(vec![
        ("samples".into(), Json::Num(s.n as f64)),
        ("p50".into(), Json::Num(s.p50)),
        ("tail".into(), Json::Num(s.tail)),
        ("tail_pct".into(), Json::Num(s.tail_pct)),
    ])
}

/// Context every result carries: host, seed, and the workload's parameters.
fn context(w: &Workload, args: &Args, report: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    report.note("workload", Json::Str(w.name.into()));
    report.note("why", Json::Str(w.why.into()));
    report.note("seed", Json::Num(args.seed as f64));
    report.note("seconds", Json::Num(args.seconds));
    report.note("trace", Json::Bool(args.trace));
    report.note("nproc", Json::Num(nproc as f64));
    report.note("params", Json::Str(format!("{w:?}")));
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Prepared {
    ds: Arc<Dataset>,
    queries: Vec<Vec<f64>>,
    updates: Vec<DatasetUpdate>,
}

fn prepare(w: &Workload, args: &Args) -> Result<Prepared, String> {
    let ds = inputs::dataset(w.n, w.attrs);
    let oracle = inputs::oracle(&ds, w.cap);
    let mut rng = Rng::new(args.seed, Stream::Queries);
    let queries = inputs::mixed_stream(&ds, &oracle, &mut rng, w.blocks, w.mix)?;
    let updates = inputs::updates(
        &ds,
        &mut Rng::new(args.seed, Stream::Updates),
        w.maintenance_updates,
    );
    Ok(Prepared {
        ds,
        queries,
        updates,
    })
}

pub fn run(w: &Workload, args: &Args) -> Result<(), String> {
    let prepared = prepare(w, args)?;
    let mut report = Report::new();
    context(w, args, &mut report);
    if args.trace {
        traced(w, args, &prepared, &mut report)?;
        report.print(crate::metrics::PER_LAYER);
    } else {
        untraced(w, args, &prepared, &mut report)?;
        report.print(crate::metrics::END_TO_END);
    }
    Ok(())
}

/// The end-to-end metrics.
fn untraced(w: &Workload, args: &Args, p: &Prepared, report: &mut Report) -> Result<(), String> {
    let s = args.seconds;
    let mut setups = Vec::new();
    let mut inst: Option<Instance> = None;
    let mut hwm = Vec::new();
    for _ in 0..w.setups {
        if let Some(old) = inst.take() {
            old.stop();
        }
        let (fresh, secs) = setup(w, &p.ds)?;
        setups.push(secs);
        inst = Some(fresh);
        hwm.push(peak_rss_mb());
    }
    let inst = inst.expect("at least one set-up");
    // Peak memory of the process through its first set-up: index build,
    // service start and server bind. Later set-ups and serving add what
    // the allocator kept from earlier ones, which moves by tens of percent
    // between identical runs, so it is context only.
    report.set("peak_rss_mb", hwm[0]);
    report.set("setup_s", median(&setups));
    let ranker = inst.service.snapshot();
    report.set("index_bytes", ranker.to_bytes().len() as f64);
    let probes = check_probes(inst.addr, &ranker, report);
    let distance = verdict_mix(&probes, report);
    report.set("suggest_distance_mean_rad", distance);

    let stream = stream_requests(&ranker, &p.queries);
    drop(ranker);
    hwm.push(peak_rss_mb());
    let mut cursor = Cursor {
        next: 0,
        align: w.block_len(),
    };
    let (path, addr, conns) = (PATH, inst.addr, CONNS);
    let warm = closed_loop(addr, path, &stream, cursor.next, s * WARMUP_SHARE, conns);
    cursor.take(warm.tally.attempted as usize);
    report.tally.add(warm.tally);

    // The nominal-rate and saturation phases run in rounds spread over the
    // run, the last after the ladder, so that a slow spell of the shared
    // host lands in a minority of their rounds.
    let mut nominal = Vec::new();
    let mut sat = Vec::new();
    let mut round = |cursor: &mut Cursor, tally: &mut Tally| {
        let part = paced(
            addr,
            &stream,
            cursor,
            w.nominal_rate,
            s * NOMINAL_SHARE / ROUNDS as f64,
        );
        tally.add(part.tally());
        nominal.push(part);
        let (rates, t) = saturation(addr, &stream, cursor, s * SATURATION_SHARE / ROUNDS as f64);
        tally.add(t);
        sat.extend(rates);
    };
    for _ in 1..ROUNDS {
        round(&mut cursor, &mut report.tally);
    }

    // Binary search for the highest rung that holds the SLO, assuming a
    // rung that fails fails at every higher rate too. A rung that fails is
    // tried once more, so that one stall of the shared host cannot fail it
    // alone.
    let rungs = w.rungs();
    let (mut lo, mut hi) = (0usize, rungs.len());
    let mut slo = 0.0;
    let mut tried = Vec::new();
    while lo < hi {
        let mid = (lo + hi) / 2;
        let mut ok = false;
        for _ in 0..2 {
            let run = paced(addr, &stream, &mut cursor, rungs[mid], s * RUNG_SHARE);
            report.tally.add(run.tally());
            ok = run.passes(rungs[mid]);
            tried.push(Json::Arr(vec![
                Json::Num(rungs[mid]),
                Json::Bool(ok),
                Json::Num(run.tail()),
            ]));
            if ok {
                break;
            }
        }
        if ok {
            slo = rungs[mid];
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    round(&mut cursor, &mut report.tally);

    // The median over every nominal-rate request. The tail, the median
    // over the windows of all rounds of each window's p99, is context
    // here: on a shared host its spread across runs exceeds any bound a
    // regression check could use, so it is a per-layer metric of the
    // traced run.
    let all: Vec<f64> = nominal
        .iter()
        .flat_map(|r| r.pooled(|w| &w.latency_us))
        .collect();
    let windows: Vec<stats::Summary> = nominal.iter().flat_map(Paced::summaries).collect();
    let tails: Vec<f64> = windows.iter().map(|s| s.tail).collect();
    report.set("latency_p50_us", median(&all));
    report.note("latency_tail_us", Json::Num(median(&tails)));
    report.note(
        "latency_windows",
        Json::Arr(windows.into_iter().map(|s| summary_json(Some(s))).collect()),
    );
    let late: Vec<f64> = nominal
        .iter()
        .flat_map(|r| r.pooled(|w| &w.late_us))
        .collect();
    report.note("loadgen_late_p99_us", Json::Num(quantile(&late, 0.99)));
    report.set("saturation_rps", median(&sat));
    report.note(
        "saturation_windows",
        Json::Arr(sat.iter().map(|&r| Json::Num(r)).collect()),
    );
    report.set("slo_rps", slo);
    report.note("slo_rungs_rate_ok_tail", Json::Arr(tried));
    hwm.push(peak_rss_mb());
    report.note(
        "vmhwm_mb_after_setups_checks_load",
        Json::Arr(hwm.into_iter().map(Json::Num).collect()),
    );

    if report.tally.failed > 0 {
        report.fault(format!(
            "{} of {} operations failed",
            report.tally.failed, report.tally.attempted
        ));
    }
    inst.stop();
    Ok(())
}

/// Time each update on the idle server, through the service's writer path.
fn maintenance(
    service: &FairRankService,
    updates: &[DatasetUpdate],
    report: &mut Report,
) -> Vec<f64> {
    let mut latency = Vec::new();
    for u in updates {
        report.tally.attempted += 1;
        let t = Instant::now();
        match service.update(u.clone()) {
            Ok(_) => latency.push(t.elapsed().as_secs_f64() * 1e6),
            Err(_) => report.tally.failed += 1,
        }
    }
    latency
}

/// The per-layer metrics.
fn traced(w: &Workload, args: &Args, p: &Prepared, report: &mut Report) -> Result<(), String> {
    let s = args.seconds;
    let (inst, _) = setup(w, &p.ds)?;
    // The m-D workload also measures the exact backend beside its own, so
    // the exact builder and MDBASELINE are timed on a workload that is
    // cheap to serve; its build phases must land before the registry is
    // read.
    let side = if matches!(w.backend, Backend::MdApprox { .. }) {
        layers::exact_side()?
    } else {
        vec![
            ("md_exact.suggest_unfair_p50_us", 0.0),
            ("md_exact.suggest_unfair_tail_us", 0.0),
        ]
    };
    report.extend(side);
    report.extend(layers::build_phases());
    let ranker = inst.service.snapshot();
    let probes = check_probes(inst.addr, &ranker, report);
    verdict_mix(&probes, report);
    let oracle = inputs::oracle(ranker.dataset(), w.cap);
    report.extend(layers::ranker_layers(&ranker, &oracle, &p.queries));
    let stream = stream_requests(&ranker, &p.queries);
    drop(ranker);
    report.extend(layers::service_layer(&inst.service, &p.queries));

    let (path, addr, conns) = (PATH, inst.addr, CONNS);
    let bodies = LAYER_QUERIES.clamp(1, stream.len());
    let mut one = Vec::with_capacity(bodies);
    let mut conn = Conn::open(addr).ok();
    for req in &stream[..bodies] {
        report.tally.attempted += 1;
        let t = Instant::now();
        let ok = conn
            .as_mut()
            .and_then(|c| c.request("POST", path, &req.body).ok())
            .is_some_and(|r| req.accepts(&r));
        one.push(t.elapsed().as_secs_f64() * 1e6);
        report.tally.failed += u64::from(!ok);
    }
    drop(conn);
    let one = summarize(&one);
    report.set("http.one_conn_p50_us", one.map_or(0.0, |s| s.p50));
    report.set("http.one_conn_tail_us", one.map_or(0.0, |s| s.tail));

    let mut cursor = Cursor {
        next: 0,
        align: w.block_len(),
    };
    let warm = closed_loop(addr, path, &stream, cursor.next, s * WARMUP_SHARE, conns);
    cursor.take(warm.tally.attempted as usize);
    report.tally.add(warm.tally);
    let probe = RegistryProbe::start(&inst.service.telemetry(), "suggest");
    let nominal = paced(
        addr,
        &stream,
        &mut cursor,
        w.nominal_rate,
        s * NOMINAL_SHARE,
    );
    report.tally.add(nominal.tally());
    let mut stages = layers::Metrics::new();
    probe.finish(&mut stages);
    report.extend(stages);
    let t = nominal.tally();
    report.set(
        "http.status_503_ratio",
        t.status_503 as f64 / t.attempted.max(1) as f64,
    );
    report.set("latency_tail_us", nominal.tail());
    report.set(
        "loadgen.late_p99_us",
        quantile(&nominal.pooled(|w| &w.late_us), 0.99),
    );
    report.note(
        "latency",
        summary_json(summarize(&nominal.pooled(|w| &w.latency_us))),
    );

    // Tracing overhead: closed-loop throughput of the serving instance,
    // whose service times every stage, against a second instance over the
    // same generation with stage timing off, in ABBA order so a steady
    // drift of the host cancels. Both answer from the same generation, so
    // the stream's reference answers hold for both; the updates timed
    // below come after.
    let plain = serve(
        FairRankService::builder(inst.service.snapshot())
            .telemetry(false)
            .build(),
    )?;
    let warm = closed_loop(
        plain.addr,
        path,
        &stream,
        cursor.next,
        s * WARMUP_SHARE,
        conns,
    );
    report.tally.add(warm.tally);
    let mut rates = [Vec::new(), Vec::new()];
    for timed in [true, false, false, true] {
        let target = if timed { addr } else { plain.addr };
        let run = closed_loop(
            target,
            path,
            &stream,
            cursor.next,
            s * OVERHEAD_SHARE,
            conns,
        );
        cursor.take(run.tally.attempted as usize);
        report.tally.add(run.tally);
        rates[usize::from(timed)].push(run.rate());
    }
    plain.stop();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (off, on) = (mean(&rates[0]), mean(&rates[1]));
    report.set("trace.overhead_pct", 100.0 * (off - on) / off);
    report.note(
        "overhead_rps_off_on",
        Json::Arr(vec![Json::Num(off), Json::Num(on)]),
    );

    // Update latency through the service's writer path, on the idle
    // server.
    let update_us = maintenance(&inst.service, &p.updates, report);
    let upd = summarize(&update_us);
    report.set("service.update_p50_us", upd.map_or(0.0, |s| s.p50));
    report.set("service.update_tail_us", upd.map_or(0.0, |s| s.tail));
    report.note("update", summary_json(upd));

    report.extend(layers::update_layers(w, &inst.service, args.seed));
    if report.tally.failed > 0 {
        report.fault(format!(
            "{} of {} operations failed",
            report.tally.failed, report.tally.attempted
        ));
    }
    inst.stop();
    Ok(())
}
