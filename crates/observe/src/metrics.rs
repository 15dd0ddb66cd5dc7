//! The metrics registry: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Recording goes through the free functions [`count`], [`gauge`],
//! [`observe_us`], and the RAII [`Timer`] / [`Stamp`] helpers; a
//! [`Snapshot`] of everything recorded so far comes from [`snapshot`].
//!
//! Histograms use one fixed, process-wide bucket layout — a 1-2-5
//! ladder from 1 µs to 10 s ([`bucket_bounds_us`]) plus an overflow
//! bucket — so snapshots from different components merge and compare
//! directly, and quantile estimates are **exact whenever the observed
//! values sit on bucket boundaries** (each bucket's reported value is
//! its inclusive upper bound).
//!
//! The data model in this module ([`Snapshot`], [`MetricValue`],
//! [`HistogramSnapshot`]) is always compiled so readers of persisted
//! metrics work in every build; the recording half follows the crate's
//! `enabled`-feature contract (see the crate docs).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Histogram bucket upper bounds in microseconds: a 1-2-5 ladder from
/// 1 µs to 10 s. Values above the last bound land in an overflow
/// bucket reported at the last bound (saturated).
const BOUNDS_US: [u64; 22] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
];

/// Number of histogram buckets, including the overflow bucket.
pub(crate) const BUCKETS: usize = BOUNDS_US.len() + 1;

/// The fixed histogram bucket upper bounds, in microseconds.
///
/// Every histogram in the registry (and every persisted
/// [`HistogramSnapshot`]) uses exactly these bounds plus one overflow
/// bucket, so bucket arrays are comparable across components and
/// campaigns.
pub fn bucket_bounds_us() -> &'static [u64] {
    &BOUNDS_US
}

/// Index of the bucket an observation falls into.
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
pub(crate) fn bucket_index(us: u64) -> usize {
    BOUNDS_US
        .iter()
        .position(|bound| us <= *bound)
        .unwrap_or(BOUNDS_US.len())
}

/// One histogram's recorded distribution: total count, total sum, and
/// per-bucket counts (`buckets.len() == bucket_bounds_us().len() + 1`,
/// the extra slot being the overflow bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values, in microseconds.
    pub sum_us: u64,
    /// Observation count per bucket (last slot = overflow).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty histogram with the standard bucket layout.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum_us: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// The estimated `q`-quantile (`0 < q <= 1`), in microseconds.
    ///
    /// Returns the inclusive upper bound of the bucket holding the
    /// `ceil(q * count)`-th observation, so the estimate is **exact**
    /// when observations sit on bucket boundaries. Overflow
    /// observations report the last bound (saturated). Returns 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, bucket_count) in self.buckets.iter().enumerate() {
            seen += bucket_count;
            if seen >= rank {
                return BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or(BOUNDS_US[BOUNDS_US.len() - 1]);
            }
        }
        BOUNDS_US[BOUNDS_US.len() - 1]
    }
}

/// The recorded value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A last-write-wins level.
    Gauge(i64),
    /// A fixed-bucket latency/size distribution.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The metric kind as a lowercase noun (`counter`, `gauge`,
    /// `histogram`) — the stable vocabulary used in reports and in
    /// persisted metric documents.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time copy of the whole registry, keyed by metric name.
///
/// Snapshots are plain data: they can be built from persisted metric
/// documents just as well as from the live registry, and both render
/// identically — which is what makes the `simart metrics` golden test
/// byte-exact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Metric name → recorded value, sorted by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Renders the deterministic text report (one line per metric,
    /// sorted by name, histograms summarized as count/sum/p50/p95/p99).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "counter    {name} = {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "gauge      {name} = {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "histogram  {name}: count {}, sum {}us, p50 {}us, p95 {}us, p99 {}us",
                        h.count,
                        h.sum_us,
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                    );
                }
            }
        }
        let _ = writeln!(out, "metrics: {} recorded", self.metrics.len());
        out
    }

    /// Renders the snapshot as a compact single-line JSON array, one
    /// object per metric, sorted by name.
    pub fn render_json(&self) -> String {
        let mut parts = Vec::with_capacity(self.metrics.len());
        for (key, value) in &self.metrics {
            let mut name = String::new();
            simart_codec::json::write_string(&mut name, key);
            parts.push(match value {
                MetricValue::Counter(v) => {
                    format!("{{\"name\":{name},\"kind\":\"counter\",\"value\":{v}}}")
                }
                MetricValue::Gauge(v) => {
                    format!("{{\"name\":{name},\"kind\":\"gauge\",\"value\":{v}}}")
                }
                MetricValue::Histogram(h) => {
                    let buckets = h
                        .buckets
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                    format!(
                        "{{\"name\":{name},\"kind\":\"histogram\",\"count\":{},\
                         \"sum_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\
                         \"buckets\":[{buckets}]}}",
                        h.count,
                        h.sum_us,
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                    )
                }
            });
        }
        format!("[{}]", parts.join(","))
    }
}

#[cfg(feature = "enabled")]
mod recording {
    use super::{bucket_index, HistogramSnapshot, MetricValue, Snapshot, BUCKETS};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
    use std::sync::{OnceLock, RwLock};
    use std::time::Instant;

    enum Cell {
        Counter(AtomicU64),
        Gauge(AtomicI64),
        Histogram(HistCell),
    }

    struct HistCell {
        count: AtomicU64,
        sum_us: AtomicU64,
        buckets: [AtomicU64; BUCKETS],
    }

    impl HistCell {
        fn new() -> HistCell {
            HistCell {
                count: AtomicU64::new(0),
                sum_us: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }
        }
    }

    // Cells are leaked on first use so the hot path after lookup is a
    // plain atomic op with no lock held. The registry is tiny (tens of
    // static names), so the leak is bounded.
    fn registry() -> &'static RwLock<HashMap<&'static str, &'static Cell>> {
        static REGISTRY: OnceLock<RwLock<HashMap<&'static str, &'static Cell>>> = OnceLock::new();
        REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
    }

    fn cell(name: &'static str, make: impl FnOnce() -> Cell) -> &'static Cell {
        if let Some(cell) = registry()
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return cell;
        }
        let mut map = registry().write().unwrap_or_else(|e| e.into_inner());
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(make())))
    }

    /// Adds `n` to the named counter (creating it at zero first).
    pub fn count(name: &'static str, n: u64) {
        if !crate::is_enabled() {
            return;
        }
        if let Cell::Counter(v) = cell(name, || Cell::Counter(AtomicU64::new(0))) {
            v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sets the named gauge to `v` (last write wins).
    pub fn gauge(name: &'static str, v: i64) {
        if !crate::is_enabled() {
            return;
        }
        if let Cell::Gauge(g) = cell(name, || Cell::Gauge(AtomicI64::new(0))) {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Records one observation of `us` microseconds into the named
    /// histogram.
    pub fn observe_us(name: &'static str, us: u64) {
        if !crate::is_enabled() {
            return;
        }
        if let Cell::Histogram(h) = cell(name, || Cell::Histogram(HistCell::new())) {
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum_us.fetch_add(us, Ordering::Relaxed);
            h.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies the current registry contents into an immutable
    /// [`Snapshot`].
    pub fn snapshot() -> Snapshot {
        let mut metrics = std::collections::BTreeMap::new();
        for (name, cell) in registry().read().unwrap_or_else(|e| e.into_inner()).iter() {
            let value = match cell {
                Cell::Counter(v) => MetricValue::Counter(v.load(Ordering::Relaxed)),
                Cell::Gauge(v) => MetricValue::Gauge(v.load(Ordering::Relaxed)),
                Cell::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                    count: h.count.load(Ordering::Relaxed),
                    sum_us: h.sum_us.load(Ordering::Relaxed),
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                }),
            };
            metrics.insert((*name).to_owned(), value);
        }
        Snapshot { metrics }
    }

    /// Clears the registry (the leaked cells are dropped from the map
    /// but intentionally not reclaimed).
    pub fn reset_metrics() {
        registry()
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// RAII histogram timer (enabled build): measures from creation to
    /// drop and records into the named histogram.
    #[derive(Debug)]
    pub struct Timer {
        armed: Option<(&'static str, Instant)>,
    }

    /// Starts a [`Timer`] that records into the named histogram when
    /// dropped. Disarmed (never reads the clock) outside a capture
    /// window.
    pub fn timer(name: &'static str) -> Timer {
        let armed = crate::is_enabled().then(|| (name, Instant::now()));
        Timer { armed }
    }

    impl Drop for Timer {
        fn drop(&mut self) {
            if let Some((name, start)) = self.armed.take() {
                observe_us(name, start.elapsed().as_micros() as u64);
            }
        }
    }

    /// A monotonic timestamp captured with [`Stamp::now`] (enabled
    /// build): carries a real [`Instant`] when taken inside a capture
    /// window.
    #[derive(Debug, Clone, Copy)]
    pub struct Stamp {
        taken: Option<Instant>,
    }

    impl Stamp {
        /// Captures the current instant, or a disarmed stamp outside a
        /// capture window.
        pub fn now() -> Stamp {
            Stamp {
                taken: crate::is_enabled().then(Instant::now),
            }
        }

        /// Microseconds since the stamp was taken, if it was armed.
        pub fn elapsed_us(&self) -> Option<u64> {
            self.taken.map(|t| t.elapsed().as_micros() as u64)
        }

        /// Records the elapsed time into the named histogram (no-op if
        /// the stamp was disarmed).
        pub fn observe_into(&self, name: &'static str) {
            if let Some(us) = self.elapsed_us() {
                observe_us(name, us);
            }
        }
    }
}

#[cfg(feature = "enabled")]
pub(crate) use recording::reset_metrics;
#[cfg(feature = "enabled")]
pub use recording::{count, gauge, observe_us, snapshot, timer, Stamp, Timer};

/// No-op stand-ins compiled without the `enabled` feature: the whole
/// metrics surface folds to nothing.
#[cfg(not(feature = "enabled"))]
mod disabled {
    use super::Snapshot;

    /// No-op without the `enabled` feature.
    #[inline(always)]
    pub fn count(_name: &'static str, _n: u64) {}

    /// No-op without the `enabled` feature.
    #[inline(always)]
    pub fn gauge(_name: &'static str, _v: i64) {}

    /// No-op without the `enabled` feature.
    #[inline(always)]
    pub fn observe_us(_name: &'static str, _us: u64) {}

    /// Always empty without the `enabled` feature.
    #[inline(always)]
    pub fn snapshot() -> Snapshot {
        Snapshot::default()
    }

    #[inline(always)]
    pub(crate) fn reset_metrics() {}

    /// Zero-sized no-op timer compiled without the `enabled` feature.
    #[derive(Debug)]
    pub struct Timer;

    /// No-op without the `enabled` feature: never reads the clock.
    #[inline(always)]
    pub fn timer(_name: &'static str) -> Timer {
        Timer
    }

    /// Zero-sized no-op timestamp compiled without the `enabled`
    /// feature.
    #[derive(Debug, Clone, Copy)]
    pub struct Stamp;

    impl Stamp {
        /// No-op without the `enabled` feature: never reads the clock.
        #[inline(always)]
        pub fn now() -> Stamp {
            Stamp
        }

        /// Always `None` without the `enabled` feature.
        #[inline(always)]
        pub fn elapsed_us(&self) -> Option<u64> {
            None
        }

        /// No-op without the `enabled` feature.
        #[inline(always)]
        pub fn observe_into(&self, _name: &'static str) {}
    }
}

#[cfg(not(feature = "enabled"))]
pub(crate) use disabled::reset_metrics;
#[cfg(not(feature = "enabled"))]
pub use disabled::{count, gauge, observe_us, snapshot, timer, Stamp, Timer};

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values_us: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::empty();
        for &v in values_us {
            h.count += 1;
            h.sum_us += v;
            h.buckets[bucket_index(v)] += 1;
        }
        h
    }

    #[test]
    fn bucket_index_maps_bounds_inclusively() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(10_000_000), BOUNDS_US.len() - 1);
        assert_eq!(bucket_index(10_000_001), BOUNDS_US.len());
    }

    /// The satellite-task guarantee: quantiles are exact when the
    /// observations sit on bucket boundaries.
    #[test]
    fn quantiles_are_exact_at_bucket_boundaries() {
        // 100 observations of exactly 100us: every quantile is 100us.
        let h = hist_of(&[100; 100]);
        for q in [0.01, 0.50, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 100, "q={q}");
        }

        // 90 at 10us, 5 at 1000us, 5 at 5000us — boundaries exact:
        let mut values = vec![10u64; 90];
        values.extend([1_000; 5]);
        values.extend([5_000; 5]);
        let h = hist_of(&values);
        assert_eq!(h.quantile(0.50), 10);
        assert_eq!(h.quantile(0.90), 10);
        assert_eq!(h.quantile(0.95), 1_000);
        assert_eq!(h.quantile(0.99), 5_000);
        assert_eq!(h.quantile(1.0), 5_000);
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(
            HistogramSnapshot::empty().quantile(0.5),
            0,
            "empty histogram"
        );
        // One observation above every bound saturates at the last bound.
        let h = hist_of(&[20_000_000]);
        assert_eq!(h.quantile(0.5), 10_000_000);
        // Values inside a bucket report the bucket's upper bound.
        let h = hist_of(&[3]);
        assert_eq!(h.quantile(0.5), 5);
    }

    #[test]
    fn snapshot_renders_deterministically() {
        let mut snapshot = Snapshot::default();
        snapshot
            .metrics
            .insert("b.counter".to_owned(), MetricValue::Counter(7));
        snapshot
            .metrics
            .insert("a.gauge".to_owned(), MetricValue::Gauge(-3));
        snapshot.metrics.insert(
            "c.hist_us".to_owned(),
            MetricValue::Histogram(hist_of(&[100; 4])),
        );
        assert_eq!(
            snapshot.render_text(),
            "gauge      a.gauge = -3\n\
             counter    b.counter = 7\n\
             histogram  c.hist_us: count 4, sum 400us, p50 100us, p95 100us, p99 100us\n\
             metrics: 3 recorded\n"
        );
        let json = snapshot.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"a.gauge\",\"kind\":\"gauge\",\"value\":-3"));
        assert!(json.contains("\"kind\":\"histogram\",\"count\":4,\"sum_us\":400"));
        assert!(!json.contains('\n'), "compact single line");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn registry_records_inside_capture_window() {
        crate::enable();
        count("m.test.counter", 2);
        count("m.test.counter", 3);
        gauge("m.test.gauge", 9);
        observe_us("m.test.hist_us", 1_000);
        observe_us("m.test.hist_us", 1_000);
        crate::disable();
        // Outside the window nothing lands.
        count("m.test.counter", 100);
        let snap = snapshot();
        assert_eq!(
            snap.metrics.get("m.test.counter"),
            Some(&MetricValue::Counter(5))
        );
        assert_eq!(
            snap.metrics.get("m.test.gauge"),
            Some(&MetricValue::Gauge(9))
        );
        match snap.metrics.get("m.test.hist_us") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!((h.count, h.sum_us), (2, 2_000));
                assert_eq!(h.quantile(0.5), 1_000);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn timer_and_stamp_record_elapsed_time() {
        crate::enable();
        {
            let _t = timer("m.timer.hist_us");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stamp = Stamp::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        stamp.observe_into("m.stamp.hist_us");
        crate::disable();
        for name in ["m.timer.hist_us", "m.stamp.hist_us"] {
            match snapshot().metrics.get(name) {
                Some(MetricValue::Histogram(h)) => {
                    assert_eq!(h.count, 1, "{name}");
                    assert!(h.sum_us >= 1_000, "{name}: {}us", h.sum_us);
                }
                other => panic!("{name}: expected histogram, got {other:?}"),
            }
        }
    }
}
