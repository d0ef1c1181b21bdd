//! Engine observability: the [`Observer`] hook and its two implementations.
//!
//! An [`Observer`] is attached with [`crate::engine::Engine::with_observer`]
//! and receives read-only notifications as a run executes: one call per
//! round, one per synchronous worker chunk, the adversary's final tally, and
//! — through [`Observer::sampler_meter`] — the neighbour sampler's tries and
//! accepts, added once per work unit.
//!
//! # The must-not-perturb contract
//!
//! Observability **reads** a simulation; it never participates in one.  An
//! observer implementation must not:
//!
//! * consume or reseed any RNG the engine passes near it (observers are
//!   never handed one — keep it that way);
//! * influence control flow (every hook returns `()` and the engine ignores
//!   observer state when choosing code paths);
//! * block on the hot path (the provided [`MetricsObserver`] uses only
//!   relaxed atomics).
//!
//! The engine enforces the sampling half of the contract structurally:
//! metered and unmetered engines run the same kernels.  Each work unit (a
//! synchronous chunk or an asynchronous round) ends with its sampler totals
//! — derived on the closed-form and CSR routes, which draw one `next_u64`
//! per sample, read from the draw-ahead lane's counters, or counted by a
//! forwarding adapter over the unit's stream — and only then does the engine
//! add them to the meter.  Counting never draws, so a meter never changes
//! which kernel runs or what it draws.  Consequently a run with any observer
//! installed is **bit-identical** to the same run without one — at any
//! thread count, on either schedule, with or without an adversary.  The
//! `observability` integration suite pins this.
//!
//! With [`NoopObserver`] (the default — `Engine::new` pins it), every hook
//! is an empty inlineable function and [`Observer::enabled`] is a constant
//! `false`, so the timing guards (`enabled().then(Instant::now)`) fold away
//! and the hot path is exactly the pre-observability machine code.

use std::time::Instant;

use bo3_obs::{Counter, Gauge, Log2Histogram, MetricsRegistry, SamplerMeter};
use std::sync::Arc;

use crate::adversary::AdversaryCounters;

/// Read-only instrumentation hooks threaded through [`crate::engine::Engine`].
///
/// All methods have no-op defaults; implement only what you need.  See the
/// [module docs](crate::observe) for the must-not-perturb-RNG contract every
/// implementation is bound by: an observer may never consume randomness,
/// alter control flow or block, so installing one cannot change a run's
/// result.
pub trait Observer: Sync {
    /// Whether the engine should bother collecting timing for this observer.
    ///
    /// `false` (the [`NoopObserver`]) lets the engine skip the
    /// `Instant::now` pair around rounds and chunks entirely, keeping the
    /// unobserved hot path untouched.
    fn enabled(&self) -> bool;

    /// One completed round: its index, the number of vertex updates it
    /// performed, and its wall time.  Not called when
    /// [`Observer::enabled`] is `false`.
    fn on_round(&self, round: u64, updates: u64, wall_ns: u64) {
        let _ = (round, updates, wall_ns);
    }

    /// One completed synchronous worker chunk (called from worker threads —
    /// implementations must be thread-safe).  Not called when
    /// [`Observer::enabled`] is `false`.
    fn on_chunk(&self, chunk: u64, updates: u64, wall_ns: u64) {
        let _ = (chunk, updates, wall_ns);
    }

    /// The adversary's final tally for a completed run (only called on
    /// adversarial runs).
    fn on_adversary(&self, counters: &AdversaryCounters) {
        let _ = counters;
    }

    /// The meter the engine adds each work unit's sampler totals to —
    /// tries, accepts and, on the draw-ahead lane, its occupancy — once per
    /// synchronous chunk or asynchronous round, never per draw.  `None`
    /// (the default) skips the addition; either answer runs the same
    /// kernels.
    fn sampler_meter(&self) -> Option<&SamplerMeter> {
        None
    }
}

/// The default observer: nothing is recorded, nothing is timed.
///
/// [`Observer::enabled`] is a constant `false` and every hook an empty
/// `#[inline]` body, so an `Engine<T>` (which defaults to this observer)
/// monomorphizes to exactly the uninstrumented hot path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// An [`Observer`] recording into a [`bo3_obs::MetricsRegistry`]:
///
/// * `engine_rounds_total`, `engine_updates_total` — run progress;
/// * `engine_round_wall_ns` / `engine_chunk_wall_ns` — log2 latency
///   histograms for rounds and synchronous worker chunks;
/// * `sampler_tries_total` / `sampler_accepts_total` — neighbour-sampling
///   effort (tries per accepted draw is the implicit-graph throughput-gap
///   diagnostic: 1 on the closed forms and CSR, about `1/p` on `G(n, p)`);
/// * `sampler_lane_drawn_total` / `sampler_lane_consumed_total` —
///   batch-lane occupancy of the draw-ahead sampler (consumed ÷ drawn; the
///   gap is the discarded pre-draw tail);
/// * `adversary_dropped_samples_total`, `adversary_partition_rounds_total`,
///   `adversary_zealots` / `adversary_byzantine` — what an attached
///   adversary did.
///
/// All instruments are relaxed atomics; the recording path takes no lock
/// and consumes no randomness.  The registry is exposed via
/// [`MetricsObserver::registry`] for Prometheus-text or JSON-snapshot
/// exposition after (or during) a run.
pub struct MetricsObserver {
    registry: MetricsRegistry,
    rounds: Arc<Counter>,
    updates: Arc<Counter>,
    chunks: Arc<Counter>,
    round_wall_ns: Arc<Log2Histogram>,
    chunk_wall_ns: Arc<Log2Histogram>,
    meter: SamplerMeter,
    adv_dropped: Arc<Counter>,
    adv_partition_rounds: Arc<Counter>,
    adv_zealots: Arc<Gauge>,
    adv_byzantine: Arc<Gauge>,
}

impl MetricsObserver {
    /// A fresh observer with its own registry.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let rounds = registry.counter("engine_rounds_total", "Completed dynamics rounds");
        let updates = registry.counter("engine_updates_total", "Vertex updates performed");
        let chunks = registry.counter("engine_chunks_total", "Synchronous worker chunks executed");
        let round_wall_ns = registry.histogram("engine_round_wall_ns", "Round wall time (ns)");
        let chunk_wall_ns =
            registry.histogram("engine_chunk_wall_ns", "Synchronous chunk wall time (ns)");
        let meter = SamplerMeter::from_counters(
            registry.counter(
                "sampler_tries_total",
                "Rejection-sampling candidate tries in implicit topologies",
            ),
            registry.counter(
                "sampler_accepts_total",
                "Accepted neighbour draws in implicit topologies",
            ),
        )
        .with_lane_counters(
            registry.counter(
                "sampler_lane_drawn_total",
                "Candidates pre-drawn into batched sampler lanes",
            ),
            registry.counter(
                "sampler_lane_consumed_total",
                "Lane candidates consumed as tries (drawn minus consumed is the discarded tail)",
            ),
        );
        let adv_dropped = registry.counter(
            "adversary_dropped_samples_total",
            "Neighbour samples lost to the message-drop adversary",
        );
        let adv_partition_rounds = registry.counter(
            "adversary_partition_rounds_total",
            "Rounds spent inside an adversarial partition window",
        );
        let adv_zealots = registry.gauge("adversary_zealots", "Zealot vertices configured");
        let adv_byzantine = registry.gauge("adversary_byzantine", "Byzantine vertices configured");
        MetricsObserver {
            registry,
            rounds,
            updates,
            chunks,
            round_wall_ns,
            chunk_wall_ns,
            meter,
            adv_dropped,
            adv_partition_rounds,
            adv_zealots,
            adv_byzantine,
        }
    }

    /// The registry behind this observer, for exposition
    /// ([`MetricsRegistry::render_prometheus`] /
    /// [`MetricsRegistry::snapshot_json`]) or for registering further
    /// instruments alongside the engine's.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Completed rounds recorded so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.get()
    }

    /// Vertex updates recorded so far.
    pub fn updates(&self) -> u64 {
        self.updates.get()
    }

    /// Mean rejection-sampling tries per accepted neighbour draw, when any
    /// draws were metered (`None` only before any sampling protocol ran;
    /// 1 on the closed forms and CSR, which never reject).
    pub fn tries_per_draw(&self) -> Option<f64> {
        self.meter.tries_per_draw()
    }

    /// The underlying sampler meter.
    pub fn meter(&self) -> &SamplerMeter {
        &self.meter
    }
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for MetricsObserver {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn on_round(&self, _round: u64, updates: u64, wall_ns: u64) {
        self.rounds.inc();
        self.updates.add(updates);
        self.round_wall_ns.record(wall_ns);
    }

    #[inline]
    fn on_chunk(&self, _chunk: u64, _updates: u64, wall_ns: u64) {
        self.chunks.inc();
        self.chunk_wall_ns.record(wall_ns);
    }

    fn on_adversary(&self, counters: &AdversaryCounters) {
        self.adv_dropped.add(counters.dropped_samples);
        self.adv_partition_rounds.add(counters.partition_rounds);
        self.adv_zealots.set(counters.zealots as i64);
        self.adv_byzantine.set(counters.byzantine as i64);
    }

    #[inline]
    fn sampler_meter(&self) -> Option<&SamplerMeter> {
        Some(&self.meter)
    }
}

/// Starts a wall-clock timer only when `observer` wants one — the guard the
/// engine wraps around rounds and chunks so the [`NoopObserver`] path folds
/// to nothing.
#[inline(always)]
pub(crate) fn maybe_now<O: Observer>(observer: &O) -> Option<Instant> {
    if observer.enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_is_disabled_and_meterless() {
        let obs = NoopObserver;
        assert!(!obs.enabled());
        assert!(obs.sampler_meter().is_none());
        // Default hooks accept calls without effect.
        obs.on_round(0, 10, 5);
        obs.on_chunk(0, 10, 5);
    }

    #[test]
    fn metrics_observer_accumulates_rounds_and_chunks() {
        let obs = MetricsObserver::new();
        assert!(obs.enabled());
        obs.on_round(0, 100, 1_000);
        obs.on_round(1, 100, 2_000);
        obs.on_chunk(0, 64, 500);
        assert_eq!(obs.rounds(), 2);
        assert_eq!(obs.updates(), 200);
        let json = obs.registry().snapshot_json();
        assert!(json.contains("\"engine_rounds_total\":2"));
        assert!(json.contains("\"engine_chunks_total\":1"));
        let prom = obs.registry().render_prometheus();
        assert!(prom.contains("engine_round_wall_ns_count 2"));
    }

    #[test]
    fn adversary_tally_lands_in_the_registry() {
        let obs = MetricsObserver::new();
        obs.on_adversary(&AdversaryCounters {
            zealots: 3,
            byzantine: 1,
            dropped_samples: 42,
            partition_rounds: 7,
        });
        let json = obs.registry().snapshot_json();
        assert!(json.contains("\"adversary_dropped_samples_total\":42"));
        assert!(json.contains("\"adversary_partition_rounds_total\":7"));
        assert!(json.contains("\"adversary_zealots\":3"));
    }

    #[test]
    fn sampler_meter_is_wired_into_the_registry() {
        let obs = MetricsObserver::new();
        let meter = obs.sampler_meter().unwrap();
        meter.record(6, 2);
        assert_eq!(obs.tries_per_draw(), Some(3.0));
        let json = obs.registry().snapshot_json();
        assert!(json.contains("\"sampler_tries_total\":6"));
        assert!(json.contains("\"sampler_accepts_total\":2"));
    }

    #[test]
    fn lane_occupancy_counters_are_wired_into_the_registry() {
        let obs = MetricsObserver::new();
        let meter = obs.sampler_meter().unwrap();
        meter.record_lane(20, 10, 32);
        assert_eq!(meter.lane_occupancy(), Some(0.625));
        let json = obs.registry().snapshot_json();
        assert!(json.contains("\"sampler_lane_drawn_total\":32"));
        assert!(json.contains("\"sampler_lane_consumed_total\":20"));
        // Lane recording feeds the same tries/accepts totals as scalar
        // recording would have.
        assert!(json.contains("\"sampler_tries_total\":20"));
        assert!(json.contains("\"sampler_accepts_total\":10"));
    }
}
