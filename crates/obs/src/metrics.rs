//! Lock-free instruments and the registry that exposes them.
//!
//! All instruments update with `Relaxed` atomics: per-event cost is one RMW
//! (two for a histogram), there is no locking, and readers see a value that
//! is exact once the writers have quiesced — which is when snapshots are
//! taken (end of a run, end of a campaign cell).  Torn *cross-instrument*
//! consistency mid-run is explicitly not promised; per-instrument totals
//! are.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{escape_json_into, format_f64_into};

/// A monotonically increasing counter (events, updates, tries).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed gauge (queue depths, in-flight cells).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Log2Histogram`]: bucket `b` holds values whose
/// bit length is `b` (bucket 0 holds exactly the value 0), so 65 buckets
/// cover the whole `u64` range.
pub const LOG2_BUCKETS: usize = 65;

/// A fixed-bucket base-2 histogram over `u64` observations (latencies in
/// nanoseconds, batch sizes).
///
/// Recording is two relaxed RMWs — no allocation, no lock, no floating
/// point — which is what makes it safe inside the engine's chunk closures.
/// Bucket `b` covers `[2^(b-1), 2^b - 1]` (bucket 0 is the single value 0),
/// so quantiles are exact to a factor of 2: plenty to tell a 40 µs
/// checkpoint flush from a 40 ms one.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// The bucket index of `value`: its bit length.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `b`.
    pub fn bucket_upper_bound(b: usize) -> u64 {
        debug_assert!(b < LOG2_BUCKETS);
        if b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (wrapping on overflow, like Prometheus' `_sum`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| self.sum() as f64 / count as f64)
    }

    /// The per-bucket counts, index = bit length of the observed value.
    pub fn bucket_counts(&self) -> [u64; LOG2_BUCKETS] {
        std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed))
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q ∈ [0, 1]`),
    /// `None` when empty — exact to a factor of 2 by construction.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper_bound(b));
            }
        }
        Some(u64::MAX)
    }
}

/// The tries/accepts pair a metered rejection sampler reports into: one
/// accepted draw may burn many candidate tries (expected `1/p` on implicit
/// `G(n, p)`), and `tries / accepts` is exactly the number the ROADMAP's
/// SIMD/geometric-skipping item needs as its baseline.
///
/// The counters are shared `Arc`s so the same instruments can live in a
/// [`MetricsRegistry`] and in the engine's observer, which adds one work
/// unit's totals (a synchronous chunk or an asynchronous round) at a time.
#[derive(Debug, Clone)]
pub struct SamplerMeter {
    tries: Arc<Counter>,
    accepts: Arc<Counter>,
    lane_drawn: Arc<Counter>,
    lane_consumed: Arc<Counter>,
}

impl Default for SamplerMeter {
    fn default() -> Self {
        SamplerMeter::new()
    }
}

impl SamplerMeter {
    /// A free-standing meter (not registered anywhere).
    pub fn new() -> Self {
        SamplerMeter {
            tries: Arc::new(Counter::new()),
            accepts: Arc::new(Counter::new()),
            lane_drawn: Arc::new(Counter::new()),
            lane_consumed: Arc::new(Counter::new()),
        }
    }

    /// A meter over counters that already live in a registry (the lane
    /// counters stay free-standing unless [`Self::with_lane_counters`]
    /// replaces them too).
    pub fn from_counters(tries: Arc<Counter>, accepts: Arc<Counter>) -> Self {
        SamplerMeter {
            tries,
            accepts,
            lane_drawn: Arc::new(Counter::new()),
            lane_consumed: Arc::new(Counter::new()),
        }
    }

    /// Routes the batch-lane occupancy counters through registry-owned
    /// instruments as well.
    pub fn with_lane_counters(mut self, drawn: Arc<Counter>, consumed: Arc<Counter>) -> Self {
        self.lane_drawn = drawn;
        self.lane_consumed = consumed;
        self
    }

    /// Records `accepts` accepted draws that consumed `tries` candidate
    /// tries in total.
    #[inline]
    pub fn record(&self, tries: u64, accepts: u64) {
        self.tries.add(tries);
        self.accepts.add(accepts);
    }

    /// Records a whole batched-sampler lane's worth of work at once:
    /// `consumed` candidate tries producing `accepts` accepted draws, out
    /// of `drawn` candidates pre-drawn into the lane.  Tries/accepts
    /// totals stay identical to the scalar path recording the same work;
    /// the extra drawn/consumed pair is what makes wasted-lane overhead
    /// (the discarded tail) visible.
    #[inline]
    pub fn record_lane(&self, consumed: u64, accepts: u64, drawn: u64) {
        self.tries.add(consumed);
        self.accepts.add(accepts);
        self.lane_drawn.add(drawn);
        self.lane_consumed.add(consumed);
    }

    /// Total candidate tries.
    pub fn tries(&self) -> u64 {
        self.tries.get()
    }

    /// Total accepted draws.
    pub fn accepts(&self) -> u64 {
        self.accepts.get()
    }

    /// Total candidates pre-drawn into batch lanes (0 on scalar-only runs).
    pub fn lane_drawn(&self) -> u64 {
        self.lane_drawn.get()
    }

    /// Total lane candidates consumed as tries; `lane_drawn − lane_consumed`
    /// is the discarded draw-ahead tail.
    pub fn lane_consumed(&self) -> u64 {
        self.lane_consumed.get()
    }

    /// Mean tries per accepted draw, `None` before any draw.
    pub fn tries_per_draw(&self) -> Option<f64> {
        let accepts = self.accepts();
        (accepts > 0).then(|| self.tries() as f64 / accepts as f64)
    }

    /// Batch-lane occupancy: fraction of pre-drawn candidates actually
    /// consumed as tries (`None` before any lane ran).  `1 − occupancy` is
    /// the draw-ahead waste the batched sampler trades for SIMD width.
    pub fn lane_occupancy(&self) -> Option<f64> {
        let drawn = self.lane_drawn();
        (drawn > 0).then(|| self.lane_consumed() as f64 / drawn as f64)
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Log2Histogram>),
}

struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A named set of instruments with deterministic exposition.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a lock and allocates;
/// do it at setup time and hold the returned `Arc` — recording through the
/// handle is lock-free.  Registering a name twice returns the existing
/// instrument (and panics if the kind differs: that is a programming error,
/// not a runtime condition).  Exposition walks entries in registration
/// order, so snapshots of the same program are byte-stable given the same
/// instrument values.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        wrap: impl FnOnce(Arc<T>) -> Instrument,
        unwrap: impl Fn(&Instrument) -> Option<Arc<T>>,
        fresh: impl FnOnce() -> T,
    ) -> Arc<T> {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name '{name}'"
        );
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            return unwrap(&entry.instrument)
                .unwrap_or_else(|| panic!("metric '{name}' already registered with another kind"));
        }
        let instrument = Arc::new(fresh());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            instrument: wrap(instrument.clone()),
        });
        instrument
    }

    /// Registers (or fetches) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(
            name,
            help,
            Instrument::Counter,
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::new,
        )
    }

    /// Registers (or fetches) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(
            name,
            help,
            Instrument::Gauge,
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::new,
        )
    }

    /// Registers (or fetches) a log2 histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Log2Histogram> {
        self.register(
            name,
            help,
            Instrument::Histogram,
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Log2Histogram::new,
        )
    }

    /// Renders every instrument in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` preamble per metric; histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum`/`_count`).
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for entry in entries.iter() {
            let name = &entry.name;
            out.push_str(&format!("# HELP {name} {}\n", entry.help));
            match &entry.instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
                }
                Instrument::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let counts = h.bucket_counts();
                    let top = counts
                        .iter()
                        .rposition(|&c| c > 0)
                        .map_or(0, |b| b.min(LOG2_BUCKETS - 2));
                    let mut cumulative = 0u64;
                    for (b, &c) in counts.iter().enumerate().take(top + 1) {
                        cumulative += c;
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            Log2Histogram::bucket_upper_bound(b)
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                        h.count(),
                        h.sum(),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// Renders every instrument as one compact JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`, keys in
    /// registration order.  Histograms expose `count`, `sum`, `mean` and
    /// the non-empty `[bit_length, count]` bucket pairs.
    pub fn snapshot_json(&self) -> String {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for entry in entries.iter() {
            match &entry.instrument {
                Instrument::Counter(c) => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    escape_json_into(&entry.name, &mut counters);
                    counters.push_str(&format!(":{}", c.get()));
                }
                Instrument::Gauge(g) => {
                    if !gauges.is_empty() {
                        gauges.push(',');
                    }
                    escape_json_into(&entry.name, &mut gauges);
                    gauges.push_str(&format!(":{}", g.get()));
                }
                Instrument::Histogram(h) => {
                    if !histograms.is_empty() {
                        histograms.push(',');
                    }
                    escape_json_into(&entry.name, &mut histograms);
                    histograms.push_str(&format!(":{{\"count\":{},\"sum\":{}", h.count(), h.sum()));
                    histograms.push_str(",\"mean\":");
                    match h.mean() {
                        Some(mean) => format_f64_into(mean, &mut histograms),
                        None => histograms.push_str("null"),
                    }
                    histograms.push_str(",\"buckets\":[");
                    let mut first = true;
                    for (b, &c) in h.bucket_counts().iter().enumerate() {
                        if c > 0 {
                            if !first {
                                histograms.push(',');
                            }
                            first = false;
                            histograms.push_str(&format!("[{b},{c}]"));
                        }
                    }
                    histograms.push_str("]}");
                }
            }
        }
        format!("{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        let h = Log2Histogram::new();
        for v in [0u64, 1, 3, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 2);
        assert_eq!(counts[10], 1);
        assert_eq!(h.quantile_upper_bound(0.5), Some(3));
        assert_eq!(h.quantile_upper_bound(1.0), Some(1023));
        assert_eq!(Log2Histogram::new().quantile_upper_bound(0.5), None);
    }

    #[test]
    fn sampler_meter_reports_tries_per_draw() {
        let meter = SamplerMeter::new();
        assert_eq!(meter.tries_per_draw(), None);
        meter.record(4, 2);
        assert_eq!(meter.tries(), 4);
        assert_eq!(meter.accepts(), 2);
        assert_eq!(meter.tries_per_draw(), Some(2.0));
    }

    #[test]
    fn sampler_meter_tracks_lane_occupancy() {
        let meter = SamplerMeter::new();
        assert_eq!(meter.lane_occupancy(), None);
        // A lane that drew 64 candidates, consumed 48 of them as tries and
        // produced 30 accepted draws — tries/accepts identical to the
        // scalar path, occupancy 0.75.
        meter.record_lane(48, 30, 64);
        assert_eq!(meter.tries(), 48);
        assert_eq!(meter.accepts(), 30);
        assert_eq!(meter.lane_drawn(), 64);
        assert_eq!(meter.lane_consumed(), 48);
        assert_eq!(meter.lane_occupancy(), Some(0.75));
        // Scalar recording leaves the lane counters untouched.
        meter.record(2, 1);
        assert_eq!(meter.tries(), 50);
        assert_eq!(meter.lane_drawn(), 64);
    }

    #[test]
    fn registry_deduplicates_by_name_and_exposes_in_order() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("updates_total", "updates applied");
        let b = registry.counter("updates_total", "updates applied");
        a.add(5);
        assert_eq!(b.get(), 5, "same name must return the same counter");
        registry.gauge("cells_in_flight", "cells running").set(2);
        registry
            .histogram("round_wall_ns", "per-round wall time")
            .record(1500);

        let prom = registry.render_prometheus();
        assert!(prom.contains("# TYPE updates_total counter"));
        assert!(prom.contains("updates_total 5"));
        assert!(prom.contains("cells_in_flight 2"));
        assert!(prom.contains("# TYPE round_wall_ns histogram"));
        assert!(prom.contains("round_wall_ns_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("round_wall_ns_sum 1500"));
        // Registration order is preserved.
        let updates = prom.find("updates_total").unwrap();
        let cells = prom.find("cells_in_flight").unwrap();
        assert!(updates < cells);

        let json = registry.snapshot_json();
        assert_eq!(
            json,
            "{\"counters\":{\"updates_total\":5},\"gauges\":{\"cells_in_flight\":2},\
             \"histograms\":{\"round_wall_ns\":{\"count\":1,\"sum\":1500,\"mean\":1500.0,\
             \"buckets\":[[11,1]]}}}"
        );
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn registry_rejects_kind_mismatches() {
        let registry = MetricsRegistry::new();
        registry.counter("x", "");
        registry.gauge("x", "");
    }

    #[test]
    fn registry_snapshot_is_valid_with_no_instruments() {
        let json = MetricsRegistry::new().snapshot_json();
        assert_eq!(json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
    }

    #[test]
    fn histogram_prometheus_rendering_is_cumulative() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", "latency");
        h.record(1);
        h.record(2);
        h.record(2);
        let prom = registry.render_prometheus();
        assert!(prom.contains("lat_bucket{le=\"1\"} 1"));
        assert!(prom.contains("lat_bucket{le=\"3\"} 3"));
        assert!(prom.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("lat_count 3"));
    }
}
