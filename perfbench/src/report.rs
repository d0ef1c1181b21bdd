//! Metric catalogue, the per-run report and its JSON rendering.

use std::collections::BTreeMap;

use bo3_core::configio::Json;

use crate::stats::Spread;

/// End-to-end metrics: every untraced run prints all of them, in these
/// units.  `BENCHMARK.json` lists the same names (the self-test checks).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("consensus_s_p90", "s"),
    ("updates_per_s_p10", "updates/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
    ("job_latency_ms_p90", "ms"),
    ("update_gap_ms_p90", "ms"),
];

/// Per-layer metrics: every traced run prints all of them.  A layer that
/// does not run on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.topology_mb", "MB"),
    ("experiment.validate_s", "s"),
    ("init.sample_ms", "ms"),
    ("engine.round_ms_p50", "ms"),
    ("engine.round_ms_p90", "ms"),
    ("engine.async_round_ms_p50", "ms"),
    ("engine.chunks_per_round", "count"),
    ("engine.chunk_us_p50", "us"),
    ("state.repack_ms", "ms"),
    ("state.writeback_ms", "ms"),
    ("stop.check_ms", "ms"),
    ("sampler.tries_per_accept", "tries/accept"),
    ("sampler.lane_occupancy", "fraction"),
    ("sampler.batched_over_scalar", "ratio"),
    ("sampler.implicit_over_complete", "ratio"),
    ("checkpoint.pack_ms", "ms"),
    ("checkpoint.unpack_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_job", "bytes"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.job_wall_ms_p50", "ms"),
    ("serve.max_queue_depth", "count"),
    ("obs.metered_over_noop", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The per-layer metrics only the served workload measures; every other
/// per-layer metric is measured only by the engine workloads.
pub const SERVED_LAYERS: &[&str] = &[
    "checkpoint.pack_ms",
    "checkpoint.unpack_ms",
    "wire.encode_us",
    "wire.decode_us",
    "wire.bytes_per_job",
    "serve.submit_rtt_ms",
    "serve.queue_wait_ms_p50",
    "serve.job_wall_ms_p50",
    "serve.max_queue_depth",
];

/// The catalogue a run of the given mode must fill.
pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Replicas or jobs attempted (each one output check).
    pub attempted: u64,
    /// Attempted replicas or jobs that errored or failed their check.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    spreads: BTreeMap<&'static str, Spread>,
}

impl Report {
    /// Records a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets to 0 the per-layer metrics whose layer is not on the path of a
    /// served (`served = true`) or engine workload.
    pub fn zero_layers_off_path(&mut self, served: bool) {
        for &(name, _) in PER_LAYER {
            if SERVED_LAYERS.contains(&name) != served {
                self.set(name, 0.0);
            }
        }
    }

    /// Records a metric's value together with the samples it came from.
    pub fn set_with(&mut self, name: &'static str, value: f64, samples: &[f64]) {
        self.set(name, value);
        self.spreads.insert(name, Spread::of(samples));
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one attempted replica or job and whether its check passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// A check on the run as a whole (a floor, a missing measurement).
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// The last stdout line: `correct`, `attempted`, `failed` and every
    /// metric of `catalogue` with its unit.  A metric nothing measured is
    /// reported as a problem and printed as 0.
    pub fn result_line(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push((
                name.to_string(),
                obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            ));
        }
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_json_string()
    }

    /// Median, quartiles and sample counts of every metric that came from
    /// more than one sample.
    pub fn spreads_json(&self) -> Json {
        let spreads = self.spreads.iter().map(|(name, s)| {
            let spread = obj(vec![
                ("q1", Json::Float(s.q1)),
                ("median", Json::Float(s.median)),
                ("q3", Json::Float(s.q3)),
                ("samples", Json::UInt(s.samples as u64)),
            ]);
            (name.to_string(), spread)
        });
        Json::Obj(spreads.collect())
    }
}

/// A JSON object from its fields, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
