//! Metrics registry: counters, gauges, and fixed-log-scale-bucket
//! histograms, exportable as a Prometheus-style text snapshot.
//!
//! Naming scheme: `magis_<crate>_<name>` (`magis_core_expansions`,
//! `magis_serve_job_seconds`, …), with optional labels rendered into
//! the metric name (`magis_core_candidate_outcomes{family="remat",
//! outcome="accept"}`). All handles are cheap `Arc`-backed atomics:
//! look a metric up once (e.g. in a `OnceLock`) and increment
//! lock-free afterwards.
//!
//! # Determinism
//!
//! The optimizer updates metrics on its driver / merge thread only
//! (its workers run code that records nothing), so counters and gauges
//! are bit-identical across `--threads 1` vs `N`; histograms of
//! wall-clock durations are explicitly *wall-time* metrics and may
//! differ. Updates are dropped inside a [`crate::gate::suppress`]
//! region.
//!
//! [`Registry::reset`] zeroes values without invalidating handles, so
//! cached `OnceLock` handles keep working across test-local resets.

use crate::gate;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (dropped while suppressed).
    #[inline]
    pub fn add(&self, n: u64) {
        if !gate::suppressed() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value (dropped while suppressed).
    #[inline]
    pub fn set(&self, v: f64) {
        if !gate::suppressed() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: powers of two from 2^-30 (~1 ns when
/// observing seconds) up to 2^32, plus an implicit `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 63;

/// Smallest bucket bound exponent: bucket `i` has upper bound
/// `2^(i + BUCKET_MIN_EXP)`.
pub const BUCKET_MIN_EXP: i32 = -30;

/// Upper bound (`le`) of bucket `i`.
pub fn bucket_bound(i: usize) -> f64 {
    (2.0f64).powi(i as i32 + BUCKET_MIN_EXP)
}

fn bucket_index(v: f64) -> usize {
    if v <= 0.0 || !v.is_finite() {
        // Non-positive and non-finite observations land in the first /
        // last bucket respectively rather than being dropped.
        return if v.is_nan() || v > 0.0 { HISTOGRAM_BUCKETS - 1 } else { 0 };
    }
    let idx = v.log2().ceil() as i64 - BUCKET_MIN_EXP as i64;
    let idx = idx.clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize;
    // Float rounding can land one bucket low; nudge until `v <= le`.
    if v > bucket_bound(idx) && idx + 1 < HISTOGRAM_BUCKETS {
        idx + 1
    } else {
        idx
    }
}

#[derive(Default)]
struct HistoInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// A histogram over fixed log-scale (power-of-two) buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistoInner>);

impl Histogram {
    /// Records one observation (dropped while suppressed).
    pub fn observe(&self, v: f64) {
        if gate::suppressed() {
            return;
        }
        let inner = &self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        // f64 sum via CAS loop (no fetch-add for float bits).
        let _ = inner.sum_bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            Some((f64::from_bits(bits) + v).to_bits())
        });
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// `(count, sum)` of all observations.
    pub fn totals(&self) -> (u64, f64) {
        (self.0.count.load(Ordering::Relaxed), f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)))
    }
}

/// Everything a [`Registry`] knows at one instant, with metric kinds
/// kept separate so tests can compare exactly the deterministic
/// (count-type) subset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by full metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by full metric name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram `(count, sum)` by full metric name.
    pub histograms: BTreeMap<String, (u64, f64)>,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistoInner>>,
}

/// A named collection of metrics. Most code uses the process-global
/// [`default_registry`] through the free functions [`counter`],
/// [`gauge`], and [`histogram`].
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// A new empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        debug_assert!(valid_name(name), "bad metric name '{name}'");
        let mut inner = self.inner.lock().unwrap();
        Counter(inner.counters.entry(name.to_string()).or_default().clone())
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        debug_assert!(valid_name(name), "bad metric name '{name}'");
        let mut inner = self.inner.lock().unwrap();
        Gauge(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())))
                .clone(),
        )
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        debug_assert!(valid_name(name), "bad metric name '{name}'");
        let mut inner = self.inner.lock().unwrap();
        Histogram(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| {
                    Arc::new(HistoInner {
                        buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                        ..HistoInner::default()
                    })
                })
                .clone(),
        )
    }

    /// Zeroes every registered value **without** dropping the metric
    /// handles: `OnceLock`-cached [`Counter`]s etc. stay valid.
    pub fn reset(&self) {
        let inner = self.inner.lock().unwrap();
        for c in inner.counters.values() {
            c.store(0, Ordering::Relaxed);
        }
        for g in inner.gauges.values() {
            g.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for h in inner.histograms.values() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        }
    }

    /// Captures a typed [`Snapshot`] of all values.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        (
                            h.count.load(Ordering::Relaxed),
                            f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                        ),
                    )
                })
                .collect(),
        }
    }

    /// Renders a Prometheus-style text exposition of all metrics,
    /// sorted by name. Histograms emit cumulative `_bucket{le="…"}`
    /// lines up to the last non-empty bucket, plus `le="+Inf"`,
    /// `_sum`, and `_count`.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        // One `# TYPE` line per family: labeled series of the same
        // family sort adjacently (BTreeMap order), so tracking the
        // last-emitted family suffices.
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let fam = family(name);
            if fam != last_family {
                out.push_str(&format!("# TYPE {fam} {kind}\n"));
                last_family = fam.to_string();
            }
        };
        for (name, v) in &inner.counters {
            type_line(&mut out, name, "counter");
            out.push_str(&format!("{name} {}\n", v.load(Ordering::Relaxed)));
        }
        for (name, v) in &inner.gauges {
            type_line(&mut out, name, "gauge");
            out.push_str(&format!("{name} {:?}\n", f64::from_bits(v.load(Ordering::Relaxed))));
        }
        for (name, h) in &inner.histograms {
            type_line(&mut out, name, "histogram");
            let counts: Vec<u64> =
                h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
            let last = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            let mut cum = 0u64;
            for (i, &c) in counts.iter().take(last).enumerate() {
                cum += c;
                out.push_str(&format!(
                    "{}le=\"{:?}\"}} {cum}\n",
                    bucket_prefix(name),
                    bucket_bound(i)
                ));
            }
            let count = h.count.load(Ordering::Relaxed);
            out.push_str(&format!("{}le=\"+Inf\"}} {count}\n", bucket_prefix(name)));
            out.push_str(&format!(
                "{} {:?}\n{} {count}\n",
                suffixed(name, "_sum"),
                f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                suffixed(name, "_count")
            ));
        }
        out
    }
}

/// Metric family of a (possibly labeled) full name: everything before
/// the `{`.
fn family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Bucket-line prefix up to (but not including) the `le` label, which
/// the caller appends along with the closing `}`: `m{a="b"}` →
/// `m_bucket{a="b",` and `m` → `m_bucket{`.
fn bucket_prefix(name: &str) -> String {
    match name.split_once('{') {
        Some((base, rest)) => format!("{base}_bucket{{{},", rest.trim_end_matches('}')),
        None => format!("{name}_bucket{{"),
    }
}

/// Inserts `suffix` into the metric family part, before any labels:
/// `m{a="b"}` + `_sum` → `m_sum{a="b"}`.
fn suffixed(name: &str, suffix: &str) -> String {
    match name.split_once('{') {
        Some((base, rest)) => format!("{base}{suffix}{{{rest}"),
        None => format!("{name}{suffix}"),
    }
}

fn valid_name(name: &str) -> bool {
    let fam = family(name);
    !fam.is_empty()
        && fam
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !fam.starts_with(|c: char| c.is_ascii_digit())
}

/// Builds a labeled metric name: `labeled("m", &[("k", "v")])` →
/// `m{k="v"}`. Label keys are sorted so the same label set always
/// produces the same metric name; values are escaped.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut ls: Vec<(&str, &str)> = labels.to_vec();
    ls.sort();
    let body: Vec<String> = ls
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

static DEFAULT: OnceLock<Registry> = OnceLock::new();

/// The process-global registry.
pub fn default_registry() -> &'static Registry {
    DEFAULT.get_or_init(Registry::new)
}

/// Gets or creates a counter in the [`default_registry`].
pub fn counter(name: &str) -> Counter {
    default_registry().counter(name)
}

/// Gets or creates a gauge in the [`default_registry`].
pub fn gauge(name: &str) -> Gauge {
    default_registry().gauge(name)
}

/// Gets or creates a histogram in the [`default_registry`].
pub fn histogram(name: &str) -> Histogram {
    default_registry().histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("magis_test_ops");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same underlying value.
        assert_eq!(r.counter("magis_test_ops").get(), 5);
        let g = r.gauge("magis_test_level");
        g.set(2.5);
        assert_eq!(r.gauge("magis_test_level").get(), 2.5);
        let s = r.snapshot();
        assert_eq!(s.counters["magis_test_ops"], 5);
        assert_eq!(s.gauges["magis_test_level"], 2.5);
    }

    #[test]
    fn histogram_buckets_are_log_scale_and_cumulative() {
        let r = Registry::new();
        let h = r.histogram("magis_test_seconds");
        for v in [1e-6, 1e-6, 0.5, 3.0, 0.0] {
            h.observe(v);
        }
        let (count, sum) = h.totals();
        assert_eq!(count, 5);
        assert!((sum - (2e-6 + 0.5 + 3.0)).abs() < 1e-12);
        // Every observation lands in a bucket whose bound admits it.
        for v in [1e-9f64, 1e-6, 1.0, 4096.0] {
            let i = bucket_index(v);
            assert!(v <= bucket_bound(i), "{v} vs le={}", bucket_bound(i));
            assert!(i == 0 || v > bucket_bound(i - 1), "{v} should not fit bucket {}", i - 1);
        }
        let text = r.render();
        assert!(text.contains("# TYPE magis_test_seconds histogram"));
        assert!(text.contains("magis_test_seconds_count 5"));
        assert!(text.contains("le=\"+Inf\"} 5"));
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let r = Registry::new();
        r.counter("magis_test_b").add(2);
        r.counter("magis_test_a").inc();
        r.gauge("magis_test_g").set(1.25);
        let text = r.render();
        let a = text.find("magis_test_a 1").unwrap();
        let b = text.find("magis_test_b 2").unwrap();
        assert!(a < b, "sorted by name");
        assert!(text.contains("# TYPE magis_test_a counter"));
        assert!(text.contains("# TYPE magis_test_g gauge\nmagis_test_g 1.25"));
    }

    #[test]
    fn reset_keeps_handles_alive() {
        let r = Registry::new();
        let c = r.counter("magis_test_kept");
        c.add(7);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.snapshot().counters["magis_test_kept"], 1);
    }

    #[test]
    fn labels_are_canonical() {
        assert_eq!(labeled("m", &[]), "m");
        assert_eq!(
            labeled("m", &[("z", "1"), ("a", "x\"y")]),
            "m{a=\"x\\\"y\",z=\"1\"}"
        );
        let r = Registry::new();
        r.counter(&labeled("magis_test_out", &[("family", "remat")])).inc();
        let text = r.render();
        assert!(text.contains("# TYPE magis_test_out counter"));
        assert!(text.contains("magis_test_out{family=\"remat\"} 1"));
    }

    #[test]
    fn labeled_histogram_bucket_lines_keep_labels() {
        let r = Registry::new();
        r.histogram(&labeled("magis_test_h", &[("k", "v")])).observe(0.5);
        let text = r.render();
        assert!(text.contains("magis_test_h_bucket{k=\"v\",le="), "{text}");
    }

    #[test]
    fn suppression_gates_all_kinds() {
        let r = Registry::new();
        let c = r.counter("magis_test_sup");
        let g = r.gauge("magis_test_supg");
        let h = r.histogram("magis_test_suph");
        crate::gate::suppress(|| {
            c.inc();
            g.set(9.0);
            h.observe(1.0);
        });
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.totals().0, 0);
    }
}
