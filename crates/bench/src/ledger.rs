//! The performance ledger: one writer, one schema and one A/B round timer
//! for every `BENCH_*.json` except the E18 phase surfaces.
//!
//! A [`Ledger`] renders `experiment`, `mode` (`"quick"` or `"full"`),
//! `available_parallelism`, flat `metrics` (a number, or `null` when not
//! measured), `rows` (flat objects keyed by `scenario`), `floors`
//! (`{metric, value, floor}`: lower bounds on ratios of two sides timed on
//! one machine) and `observer` (a `MetricsRegistry` snapshot, or `null`).
//!
//! [`interleaved_ratio`] times A/B floors.  Of two back-to-back runs of one
//! round, the second finds the reads cached and runs up to ~2× faster, so
//! a median of raw pair ratios lands on either side of that gap; pairing
//! each round with the next, opposite-order one cancels the order.

use std::path::Path;
use std::time::Instant;

use bo3_core::campaign::atomic_write;
use bo3_core::configio::Json;
use bo3_core::prelude::*;

/// The document one producer writes as `BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct Ledger {
    experiment: String,
    quick: bool,
    metrics: Vec<(String, Json)>,
    rows: Vec<Json>,
    floors: Vec<(String, f64, f64)>,
    observer: Json,
}

/// A number cell: `null` when it was not measured, an integer when it is
/// whole, a float otherwise.
pub fn num(value: impl Into<Option<f64>>) -> Json {
    match value.into() {
        Some(v) if v.fract() == 0.0 && (0.0..9.0e15).contains(&v) => Json::UInt(v as u64),
        Some(v) => Json::Float(v),
        None => Json::Null,
    }
}

impl Ledger {
    /// An empty ledger for `experiment`, run in quick mode when `quick`.
    pub fn new(experiment: &str, quick: bool) -> Ledger {
        Ledger {
            experiment: experiment.to_string(),
            quick,
            metrics: Vec::new(),
            rows: Vec::new(),
            floors: Vec::new(),
            observer: Json::Null,
        }
    }

    /// Records the scalar result `name` (`None` records `null`).
    pub fn metric(&mut self, name: &str, value: impl Into<Option<f64>>) -> &mut Ledger {
        self.metrics.push((name.to_string(), num(value)));
        self
    }

    /// Records the metric `name` and its committed lower bound `floor`.
    pub fn floor(&mut self, name: &str, value: f64, floor: f64) -> &mut Ledger {
        self.floors.push((name.to_string(), value, floor));
        self.metric(name, value)
    }

    /// Appends the table row `scenario` with its `cells`.
    pub fn row<'a>(
        &mut self,
        scenario: &str,
        cells: impl IntoIterator<Item = (&'a str, Json)>,
    ) -> &mut Ledger {
        let head = ("scenario", Json::Str(scenario.to_string()));
        let row = std::iter::once(head).chain(cells);
        self.rows
            .push(Json::Obj(row.map(|(k, v)| (k.to_string(), v)).collect()));
        self
    }

    /// Attaches a `MetricsRegistry::snapshot_json` document as `observer`.
    pub fn observer(&mut self, snapshot_json: &str) -> &mut Ledger {
        self.observer = Json::parse(snapshot_json).expect("a registry snapshot is JSON");
        self
    }

    /// The document in the ledger schema.
    pub fn document(&self) -> Json {
        let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
        let floors = self.floors.iter().map(|(metric, value, floor)| {
            let metric = ("metric".to_string(), Json::Str(metric.clone()));
            let value = ("value".to_string(), num(*value));
            Json::Obj(vec![metric, value, ("floor".to_string(), num(*floor))])
        });
        let mode = if self.quick { "quick" } else { "full" };
        let field = |key: &str, value: Json| (key.to_string(), value);
        Json::Obj(vec![
            field("experiment", Json::Str(self.experiment.clone())),
            field("mode", Json::Str(mode.into())),
            field("available_parallelism", num(parallelism as f64)),
            field("metrics", Json::Obj(self.metrics.clone())),
            field("rows", Json::Arr(self.rows.clone())),
            field("floors", Json::Arr(floors.collect())),
            field("observer", self.observer.clone()),
        ])
    }

    /// Every floor the reading broke, as `metric = value < floor`.
    pub fn broken_floors(&self) -> Vec<String> {
        let broken = self
            .floors
            .iter()
            .filter(|(_, v, floor)| v.is_nan() || v < floor);
        broken
            .map(|(metric, v, floor)| format!("{metric} = {v:.3} < {floor}"))
            .collect()
    }

    /// Writes the document as `file` at the workspace root and prints it,
    /// then panics naming every broken floor, so a failing reading stays
    /// on disk.
    pub fn write(&self, file: &str) {
        let text = self.document().to_json_string() + "\n";
        let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file);
        atomic_write(&path, &text).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("{file}:\n{text}");
        let broken = self.broken_floors();
        assert!(broken.is_empty(), "{file}: {}", broken.join("; "));
    }
}

/// What [`interleaved_ratio`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interleaved {
    /// Side A's speed over side B's: the order-balanced wall ratio B / A.
    pub ratio: f64,
    /// Median wall seconds of side A's rounds.
    pub a_wall_p50: f64,
    /// Median wall seconds of side B's rounds.
    pub b_wall_p50: f64,
}

/// Times `pairs` A/B round pairs and returns side A's speed over side B's.
///
/// `a(r)` and `b(r)` run round `r` and return its wall seconds and its
/// output; the outputs of every pair must be equal.  One untimed warm-up
/// pair (round `u64::MAX`) runs first.  Round `r` runs A first when `r` is
/// even; the estimate is the median, over the pairs `(2i, 2i + 1)`, of the
/// geometric mean of their two wall ratios B / A.
///
/// # Panics
///
/// When `pairs` is zero or odd, or when the two sides of a pair disagree.
pub fn interleaved_ratio<T: PartialEq + std::fmt::Debug>(
    pairs: u64,
    mut a: impl FnMut(u64) -> (f64, T),
    mut b: impl FnMut(u64) -> (f64, T),
) -> Interleaved {
    assert!(
        pairs > 0 && pairs.is_multiple_of(2),
        "an order-balanced estimate needs an even number of pairs, got {pairs}"
    );
    let mut pair = |round: u64| {
        let ((a_wall, a_out), (b_wall, b_out)) = if round.is_multiple_of(2) {
            let a_side = a(round);
            (a_side, b(round))
        } else {
            let b_side = b(round);
            (a(round), b_side)
        };
        assert_eq!(a_out, b_out, "the two sides disagree on round {round}");
        (a_wall, b_wall)
    };
    pair(u64::MAX);
    let walls: Vec<(f64, f64)> = (0..pairs).map(pair).collect();
    let ratio = |(a, b): (f64, f64)| b / a.max(1e-12);
    let balanced = walls
        .chunks_exact(2)
        .map(|p| (ratio(p[0]) * ratio(p[1])).sqrt());
    Interleaved {
        ratio: median(balanced.collect()),
        a_wall_p50: median(walls.iter().map(|w| w.0).collect()),
        b_wall_p50: median(walls.iter().map(|w| w.1).collect()),
    }
}

/// Wall seconds and opinions of seeded synchronous Best-of-Three round
/// `round` from `init` through `engine`, written into `out`: one side of
/// an [`interleaved_ratio`] pair.
pub fn seeded_round<T: Topology, O: Observer>(
    engine: &Engine<T, O>,
    init: &Configuration,
    out: &mut Vec<Opinion>,
    seed: u64,
    round: u64,
) -> (f64, Vec<Opinion>) {
    let start = Instant::now();
    engine.step_seeded(&ProtocolSpec::BestOfThree, init, out, seed, round);
    (start.elapsed().as_secs_f64(), out.clone())
}

/// The upper median.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obsprobe::probe_spec;
    use bo3_core::prelude::TopologySpec;
    use std::cell::{Cell, RefCell};

    #[test]
    fn the_balanced_estimate_cancels_the_warm_cache_order() {
        // Side B takes twice side A's wall; whichever side runs second in
        // a pair finds its reads cached and takes 0.4 of its wall.
        let (last, log) = (Cell::new(None), RefCell::new(Vec::new()));
        let wall = |round: u64, base: f64| {
            let second = last.replace(Some(round)) == Some(round);
            let wall = if second { 0.4 * base } else { base };
            log.borrow_mut().push(wall);
            (wall, round)
        };
        let timing = interleaved_ratio(64, |r| wall(r, 1.0), |r| wall(r, 2.0));
        assert!((timing.ratio - 2.0).abs() < 1e-9, "{timing:?}");
        assert_eq!((timing.a_wall_p50, timing.b_wall_p50), (1.0, 2.0));
        // The plain median of the pair ratios B / A, in run order after the
        // warm-up pair, lands on one side of the gap.
        let log = log.into_inner();
        let raw = log[2..].chunks(2).enumerate();
        let raw = raw.map(|(r, w)| if r % 2 == 0 { w[1] / w[0] } else { w[0] / w[1] });
        let plain = median(raw.collect());
        assert!((plain - 2.0).abs() > 1.0, "plain median {plain}");
    }

    #[test]
    #[should_panic(expected = "disagree on round")]
    fn unequal_outputs_panic() {
        interleaved_ratio(2, |r| (1.0, r), |r| (1.0, r.wrapping_add(1)));
    }

    #[test]
    #[should_panic(expected = "even number of pairs")]
    fn an_odd_pair_count_panics() {
        interleaved_ratio(3, |r| (1.0, r), |r| (1.0, r));
    }

    #[test]
    fn the_document_parses_with_every_key_and_names_broken_floors() {
        let probe = probe_spec(&TopologySpec::Complete { n: 64 }, 3, 1);
        let mut ledger = Ledger::new("e99_test", true);
        ledger
            .metric("speedup", 1.5)
            .metric("unmeasured", None)
            .row("k64", [("n", num(64.0))])
            .floor("holds", 1.2, 1.05)
            .floor("breaks", 0.95, 1.05)
            .observer(&probe.snapshot_json);
        let doc = Json::parse(&ledger.document().to_json_string()).unwrap();
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("e99_test"));
        assert_eq!(doc.get("mode").unwrap().as_str(), Some("quick"));
        assert!(doc.get("available_parallelism").unwrap().as_u64() >= Some(1));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("speedup").unwrap().as_f64(), Some(1.5));
        assert_eq!(metrics.get("unmeasured"), Some(&Json::Null));
        assert_eq!(metrics.get("breaks").unwrap().as_f64(), Some(0.95));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("scenario").unwrap().as_str(), Some("k64"));
        assert_eq!(rows[0].get("n").unwrap().as_u64(), Some(64));
        let floors = doc.get("floors").unwrap().as_array().unwrap();
        assert_eq!(floors.len(), 2);
        for key in ["metric", "value", "floor"] {
            assert!(floors[1].get(key).is_some(), "floor lacks {key}");
        }
        let observer = doc.get("observer").unwrap();
        for key in ["counters", "gauges", "histograms"] {
            assert!(observer.get(key).is_some(), "observer lacks {key}");
        }
        assert_eq!(ledger.broken_floors(), ["breaks = 0.950 < 1.05"]);
    }
}
