//! The sharded metrics registry and the Prometheus text encoder.
//!
//! A [`Registry`] maps *family name* → (help, kind, label-set → series).
//! Registration takes one shard lock; the handles it returns
//! ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared atomics, so
//! the hot path never touches the registry again — call sites stash
//! the handle once and update it lock-free forever after.
//!
//! Rendering walks every shard under its lock, collects families into
//! sorted order, and emits Prometheus text exposition format 0.0.4
//! (`# HELP` / `# TYPE` lines, escaped label values, histograms as
//! cumulative `le` buckets plus `_sum`/`_count`). Output order is
//! deterministic: families by name, series by label set.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::histogram::{bucket_bound, Histogram};

/// A monotonically increasing counter. Cloning shares the cell.
///
/// Counters stay live even under the `telemetry-off` feature: a
/// relaxed `fetch_add` is the cheapest instrumentation there is, and
/// serving statistics (`ServiceStats`, `/stats`) are defined in terms
/// of these counts — compiling them out would change observable
/// behavior, which the no-op mode must never do.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not yet in any registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An integer gauge (set/add/sub). Cloning shares the cell.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A detached gauge (not yet in any registry).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// What a family holds; fixed at first registration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    help: String,
    kind: Kind,
    /// Keyed by the *rendered* label block (`{k="v",…}` or the empty
    /// string), which is already sorted by label key — BTreeMap then
    /// gives deterministic series order for free.
    series: BTreeMap<String, Series>,
}

const SHARDS: usize = 8;

/// A sharded metric registry.
///
/// Each serving component owns (or is injected with) a registry;
/// process-wide concerns such as index-build timers use [`global()`].
/// Family names are sharded by FNV-1a hash, so two unrelated
/// subsystems registering at once rarely contend — and after
/// registration they never lock at all.
pub struct Registry {
    shards: Vec<Mutex<HashMap<String, Family>>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

/// Renders a label set as `{k="v",…}` with Prometheus escaping, or ""
/// for the empty set. Labels are sorted by key for determinism.
fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        debug_assert!(valid_name(k), "invalid label name {k:?}");
        let _ = write!(out, "{k}=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Prometheus metric/label name grammar: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Family>> {
        &self.shards[(fnv1a(name) % SHARDS as u64) as usize]
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        fresh: impl FnOnce() -> Series,
    ) -> Series {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let mut shard = self.shard(name).lock().expect("registry shard poisoned");
        let family = shard.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric family {name} registered twice with different kinds \
             ({:?} vs {kind:?})",
            family.kind
        );
        family
            .series
            .entry(label_block(labels))
            .or_insert_with(fresh)
            .clone()
    }

    /// Returns the counter for `(name, labels)`, creating the family
    /// and series on first use. Subsequent calls (from any component
    /// sharing this registry) return a handle to the *same* cell.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, help, Kind::Counter, labels, || {
            Series::Counter(Counter::new())
        }) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Returns the gauge for `(name, labels)`, creating it on first use.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, help, Kind::Gauge, labels, || {
            Series::Gauge(Gauge::new())
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Returns the histogram for `(name, labels)`, creating it on
    /// first use.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, help, Kind::Histogram, labels, || {
            Series::Histogram(Histogram::new())
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers an *existing* counter handle under `(name, labels)` —
    /// for components that construct their counters detached and bind
    /// them to a registry later. If the
    /// series already exists, the existing cell wins and `handle` is
    /// left detached.
    pub fn bind_counter(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: &Counter) {
        self.get_or_insert(name, help, Kind::Counter, labels, || {
            Series::Counter(handle.clone())
        });
    }

    /// Registers an existing gauge handle; see [`bind_counter`].
    ///
    /// [`bind_counter`]: Registry::bind_counter
    pub fn bind_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], handle: &Gauge) {
        self.get_or_insert(name, help, Kind::Gauge, labels, || {
            Series::Gauge(handle.clone())
        });
    }

    /// The names of every registered family, for deduplicating a
    /// multi-registry exposition (see [`render_excluding`]).
    ///
    /// [`render_excluding`]: Registry::render_excluding
    pub fn family_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for shard in &self.shards {
            names.extend(
                shard
                    .lock()
                    .expect("registry shard poisoned")
                    .keys()
                    .cloned(),
            );
        }
        names.sort();
        names
    }

    /// Renders the whole registry as Prometheus text exposition.
    pub fn render(&self) -> String {
        self.render_excluding(&HashSet::new())
    }

    /// Renders every family whose name is not in `skip`. Used to
    /// concatenate a service registry with the process-global one
    /// without emitting a family twice (invalid exposition).
    pub fn render_excluding(&self, skip: &HashSet<String>) -> String {
        // Collect into sorted order first so output is deterministic
        // regardless of shard assignment.
        type FamilySnapshot = (String, Kind, Vec<(String, Series)>);
        let mut families: BTreeMap<String, FamilySnapshot> = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("registry shard poisoned");
            for (name, family) in shard.iter() {
                if skip.contains(name) {
                    continue;
                }
                families.insert(
                    name.clone(),
                    (
                        family.help.clone(),
                        family.kind,
                        family
                            .series
                            .iter()
                            .map(|(k, v)| (k.clone(), v.clone()))
                            .collect(),
                    ),
                );
            }
        }
        let mut out = String::new();
        for (name, (help, kind, series)) in &families {
            let _ = writeln!(out, "# HELP {name} {}", help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
            for (labels, s) in series {
                match s {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {}", c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(out, "{name}{labels} {}", g.get());
                    }
                    Series::Histogram(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

/// Emits one histogram series: sparse cumulative `le` buckets (only
/// bucket bounds that hold at least one sample, which keeps the 976
/// fixed buckets from bloating the exposition), a `+Inf` bucket, and
/// `_sum`/`_count`.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let snap = h.snapshot();
    let mut cum = 0u64;
    // Splice `le` into the existing label block: `{a="b"}` reopens as
    // `{a="b",` so `le="…"}` closes it; no labels means a fresh `{`.
    let opener: String = if labels.is_empty() {
        "{".to_string()
    } else {
        format!("{},", &labels[..labels.len() - 1])
    };
    for (idx, &c) in snap.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let _ = writeln!(
            out,
            "{name}_bucket{opener}le=\"{}\"}} {cum}",
            bucket_bound(idx)
        );
    }
    let _ = writeln!(out, "{name}_bucket{opener}le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "{name}_sum{labels} {}", snap.sum());
    let _ = writeln!(out, "{name}_count{labels} {cum}");
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry. Seconds-scale, process-wide concerns —
/// index build timers in particular — record here; per-service metrics
/// live in each service's own registry so tests and co-hosted services
/// never bleed counts into each other.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_and_render_deterministically() {
        let reg = Registry::new();
        let a = reg.counter("fairrank_test_total", "A test counter.", &[("which", "a")]);
        let a2 = reg.counter(
            "fairrank_test_total",
            "ignored on re-register",
            &[("which", "a")],
        );
        a.inc();
        a2.add(2);
        assert_eq!(a.get(), 3, "same (name, labels) must share one cell");
        let g = reg.gauge("fairrank_test_depth", "A test gauge.", &[]);
        g.set(-4);
        let text = reg.render();
        assert!(text.contains("# TYPE fairrank_test_total counter"));
        assert!(text.contains("fairrank_test_total{which=\"a\"} 3"));
        assert!(text.contains("fairrank_test_depth -4"));
        assert_eq!(text, reg.render(), "render must be deterministic");
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("fairrank_test_us", "A test histogram.", &[("stage", "x")]);
        h.record(3);
        h.record(3);
        h.record(1_000);
        let text = reg.render();
        assert!(text.contains("# TYPE fairrank_test_us histogram"));
        assert!(text.contains("fairrank_test_us_bucket{stage=\"x\",le=\"3\"} 2"));
        assert!(text.contains("le=\"+Inf\"} 3"));
        assert!(text.contains("fairrank_test_us_sum{stage=\"x\"} 1006"));
        assert!(text.contains("fairrank_test_us_count{stage=\"x\"} 3"));
    }

    #[test]
    fn bind_and_exclusion() {
        let reg = Registry::new();
        let mine = Counter::new();
        mine.add(7);
        reg.bind_counter("fairrank_bound_total", "Bound.", &[], &mine);
        assert!(reg.render().contains("fairrank_bound_total 7"));
        let skip: HashSet<String> = reg.family_names().into_iter().collect();
        assert!(reg.render_excluding(&skip).is_empty());
    }

    #[test]
    fn label_values_are_escaped() {
        let block = label_block(&[("msg", "a\"b\\c\nd")]);
        assert_eq!(block, "{msg=\"a\\\"b\\\\c\\nd\"}");
    }
}
