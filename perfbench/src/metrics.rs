//! The metric catalogue and the result line. `BENCHMARK.json` carries the
//! same names and units with their bounds; a test keeps the two in step.

use fairrank_net::json::Json;

use crate::load::Tally;

/// End-to-end metrics: what a user of the server sees. Reported by the
/// untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("saturation_rps", "1/s"),
    ("slo_rps", "1/s"),
    ("suggest_distance_mean_rad", "rad"),
    ("index_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.score_all_us", "us"),
    ("kernels.score_all_bytes", "bytes"),
    ("rank.topk_us", "us"),
    ("oracle.verdict_us", "us"),
    ("backend.known_fairness_us", "us"),
    ("backend.known_fairness_decided_ratio", "ratio"),
    ("backend.suggest_unfair_p50_us", "us"),
    ("backend.suggest_unfair_tail_us", "us"),
    ("md_exact.suggest_unfair_p50_us", "us"),
    ("md_exact.suggest_unfair_tail_us", "us"),
    ("ranker.respond_p50_us", "us"),
    ("ranker.respond_tail_us", "us"),
    ("ranker.respond_batch_us_per_query", "us"),
    ("ranker.index_decided_ratio", "ratio"),
    ("ranker.update_insert_us", "us"),
    ("ranker.update_rescore_us", "us"),
    ("ranker.update_remove_us", "us"),
    ("ranker.update_incremental_ratio", "ratio"),
    ("build.twod.events_s", "s"),
    ("build.twod.sweep_s", "s"),
    ("build.md_exact.hyperplanes_s", "s"),
    ("build.md_exact.regions_s", "s"),
    ("build.md_exact.verify_s", "s"),
    ("build.md_approx.hyperplanes_s", "s"),
    ("build.md_approx.cellplanes_s", "s"),
    ("build.md_approx.markcells_s", "s"),
    ("build.md_approx.coloring_s", "s"),
    ("service.suggest_p50_us", "us"),
    ("service.suggest_tail_us", "us"),
    ("service.stage.queue_wait_p50_us", "us"),
    ("service.stage.queue_wait_tail_us", "us"),
    ("service.stage.coalesce_p50_us", "us"),
    ("service.stage.coalesce_tail_us", "us"),
    ("service.stage.cache_lookup_p50_us", "us"),
    ("service.stage.cache_lookup_tail_us", "us"),
    ("service.stage.fastpath_p50_us", "us"),
    ("service.stage.fastpath_tail_us", "us"),
    ("service.stage.oracle_pass_p50_us", "us"),
    ("service.stage.oracle_pass_tail_us", "us"),
    ("service.batch_size_mean", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.rejected_ratio", "ratio"),
    ("service.update_p50_us", "us"),
    ("service.update_tail_us", "us"),
    ("json.encode_request_us", "us"),
    ("json.decode_suggestion_us", "us"),
    ("http.one_conn_p50_us", "us"),
    ("http.one_conn_tail_us", "us"),
    ("http.stage.net_parse_p50_us", "us"),
    ("http.stage.net_write_p50_us", "us"),
    ("http.server_duration_p50_us", "us"),
    ("http.server_duration_tail_us", "us"),
    ("http.status_503_ratio", "ratio"),
    ("latency_tail_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Everything one run reports.
pub struct Report {
    pub values: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// Why the run's answers are not correct; empty when they are.
    pub faults: Vec<String>,
    /// Run context: host, seed, workload parameters, sample counts.
    pub context: Vec<(String, Json)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            values: Vec::new(),
            tally: Tally::default(),
            faults: Vec::new(),
            context: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn extend(&mut self, values: Vec<(&'static str, f64)>) {
        self.values.extend(values);
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.context.push((key.to_string(), value));
    }

    pub fn fault(&mut self, fault: String) {
        self.faults.push(fault);
    }

    /// Print every metric of `catalogue` by name with its unit, the run
    /// context, and last the result line.
    pub fn print(self, catalogue: &[(&'static str, &'static str)]) {
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            let value = self
                .values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name:<40} {value:>16.4} {unit}");
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            ));
        }
        #[allow(clippy::cast_precision_loss)]
        let error_rate = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        println!("{:<40} {error_rate:>16.4} ratio", "error_rate");
        for fault in &self.faults {
            println!("FAULT: {fault}");
        }
        println!("{}", Json::Obj(self.context).to_text());
        #[allow(clippy::cast_precision_loss)]
        let result = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.faults.is_empty())),
            (
                "attempted".to_string(),
                Json::Num(self.tally.attempted.max(1) as f64),
            ),
            ("failed".to_string(), Json::Num(self.tally.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        println!("{}", result.to_text());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The name rule every metric obeys.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid json")
    }

    fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn every_metric_name_obeys_the_rule() {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(!valid_name("latency p50"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(names_units(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), owned(PER_LAYER));
        // The listed workloads are the defined ones, with the same reasons.
        let field = |w: &Json, f: &str| w.get(f).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
