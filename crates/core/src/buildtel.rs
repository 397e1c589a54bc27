//! Offline-build timers, exported through the process-global telemetry
//! registry ([`fairrank_telemetry::global`]).
//!
//! Builds happen per process (or per replace), not per request, so
//! these take the registry lock on every record instead of caching
//! handles. Under the `telemetry-off` feature the [`Stopwatch`] is
//! inert and no timer family is ever registered — `/metrics` simply has
//! no `fairrank_build_*duration_us` series in that leg. The LP,
//! oracle-call and probe-item counters are counts, not clocks, and stay
//! live in both legs.
//!
//! Families:
//! * `fairrank_build_duration_us{backend}` — whole-build wall time per
//!   strategy dispatch;
//! * `fairrank_build_phase_duration_us{backend,phase}` — per-phase wall
//!   time inside each builder (2-D: `events`/`sweep`; exact: `hyperplanes`/
//!   `regions`/`verify`; approximate: `hyperplanes`/`cellplanes`/
//!   `markcells`/`coloring`);
//! * `fairrank_build_lp_solves_total{backend}` — arrangement LPs solved by
//!   the m-D builders (`md_exact`: SATREGIONS' arrangement; `md_approx`:
//!   MARKCELL's per-cell arrangements, including update re-searches);
//! * `fairrank_build_oracle_calls_total{backend}` — oracle verdicts the
//!   m-D builders asked for (`md_exact`: one per SATREGIONS witness;
//!   `md_approx`: MARKCELL's probes, including update re-checks and
//!   re-searches);
//! * `fairrank_build_probe_items_total{backend}` — items scored across
//!   those `md_approx` probes. Divided by the oracle calls it is the mean
//!   number of items a probe ranked; against the dataset size `n` it shows
//!   how much ranking work the per-cell probe-set restriction saved.

use fairrank_telemetry::Stopwatch;

const PHASE_FAMILY: &str = "fairrank_build_phase_duration_us";
const PHASE_HELP: &str =
    "Microseconds spent in one offline index-build phase, by backend and phase.";
const TOTAL_FAMILY: &str = "fairrank_build_duration_us";
const TOTAL_HELP: &str = "Microseconds for one whole offline index build, by backend.";

const LP_FAMILY: &str = "fairrank_build_lp_solves_total";
const LP_HELP: &str = "Arrangement LPs solved by offline m-D index builds, by backend.";

/// Add one build's arrangement LP count to the global registry.
pub(crate) fn count_lp_solves(backend: &'static str, solves: u64) {
    fairrank_telemetry::global()
        .counter(LP_FAMILY, LP_HELP, &[("backend", backend)])
        .add(solves);
}

const ORACLE_FAMILY: &str = "fairrank_build_oracle_calls_total";
const ORACLE_HELP: &str = "Oracle verdicts asked for by offline m-D index builds, by backend.";

/// Add one build's oracle calls to the global registry.
pub(crate) fn count_oracle_calls(backend: &'static str, calls: u64) {
    fairrank_telemetry::global()
        .counter(ORACLE_FAMILY, ORACLE_HELP, &[("backend", backend)])
        .add(calls);
}

const PROBE_ITEMS_FAMILY: &str = "fairrank_build_probe_items_total";
const PROBE_ITEMS_HELP: &str =
    "Items scored across the oracle probes of offline grid builds, by backend.";

/// Add one build's scored probe items to the global registry.
pub(crate) fn count_probe_items(backend: &'static str, items: u64) {
    fairrank_telemetry::global()
        .counter(
            PROBE_ITEMS_FAMILY,
            PROBE_ITEMS_HELP,
            &[("backend", backend)],
        )
        .add(items);
}

/// Record one finished phase into the global registry.
fn record_phase(backend: &str, phase: &str, micros: u64) {
    fairrank_telemetry::global()
        .histogram(
            PHASE_FAMILY,
            PHASE_HELP,
            &[("backend", backend), ("phase", phase)],
        )
        .record(micros);
}

/// A running phase timer; [`finish`](PhaseTimer::finish) records it.
/// Inert (never registers anything) under `telemetry-off`.
pub(crate) struct PhaseTimer {
    sw: Stopwatch,
    backend: &'static str,
    phase: &'static str,
}

impl PhaseTimer {
    pub(crate) fn start(backend: &'static str, phase: &'static str) -> PhaseTimer {
        PhaseTimer {
            sw: Stopwatch::start(),
            backend,
            phase,
        }
    }

    pub(crate) fn finish(self) {
        if let Some(us) = self.sw.elapsed_us() {
            record_phase(self.backend, self.phase, us);
        }
    }
}

/// A running whole-build timer for one strategy dispatch.
pub(crate) struct BuildTimer {
    sw: Stopwatch,
    backend: &'static str,
}

impl BuildTimer {
    pub(crate) fn start(backend: &'static str) -> BuildTimer {
        BuildTimer {
            sw: Stopwatch::start(),
            backend,
        }
    }

    pub(crate) fn finish(self) {
        if let Some(us) = self.sw.elapsed_us() {
            fairrank_telemetry::global()
                .histogram(TOTAL_FAMILY, TOTAL_HELP, &[("backend", self.backend)])
                .record(us);
        }
    }
}

/// Mirror an already-measured phase duration (the approximate builder
/// keeps its own [`BuildStats`](crate::approximate::BuildStats) clocks;
/// this re-exports them without double-timing). Gated on the compiled
/// timing layer so the `telemetry-off` leg registers nothing.
pub(crate) fn mirror_phase(backend: &'static str, phase: &'static str, d: std::time::Duration) {
    if fairrank_telemetry::ENABLED {
        record_phase(backend, phase, d.as_micros() as u64);
    }
}
