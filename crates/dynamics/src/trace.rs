//! Per-round trajectory recording.
//!
//! Experiments E6 and E11 compare the measured blue-fraction trajectory with
//! the paper's recursions, so the trace stores exactly the quantities that
//! appear there: the blue count, the blue fraction `b_t`, and the red bias
//! `δ_t = 1/2 − b_t`.

use crate::opinion::{blue_fraction, Configuration};

/// The state summary of a single round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round index (`0` is the initial configuration).
    pub round: usize,
    /// Number of blue vertices.
    pub blue_count: usize,
    /// Number of red vertices.
    pub red_count: usize,
    /// Blue fraction `b_t`.
    pub blue_fraction: f64,
    /// Red bias `δ_t = 1/2 − b_t` (negative when blue is the majority).
    pub red_bias: f64,
}

impl RoundRecord {
    /// Summarises a configuration at the given round index.
    pub fn of(round: usize, config: &Configuration) -> Self {
        RoundRecord::counted(round, config.blue_count(), config.len())
    }

    /// Summarises a state of `n` vertices of which `blue` are blue.
    pub(crate) fn counted(round: usize, blue: usize, n: usize) -> Self {
        let blue_fraction = blue_fraction(blue, n);
        RoundRecord {
            round,
            blue_count: blue,
            red_count: n - blue,
            blue_fraction,
            red_bias: 0.5 - blue_fraction,
        }
    }
}

/// A full per-round trajectory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<RoundRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace {
            records: Vec::new(),
        }
    }

    /// Rebuilds a trace from already-summarised rounds — the checkpoint
    /// deserialisation path (`bo3_core::campaign` stores traces as record
    /// arrays).
    pub fn from_records(records: Vec<RoundRecord>) -> Self {
        Trace { records }
    }

    /// Records the state of `config` as round `round`.
    pub fn record(&mut self, round: usize, config: &Configuration) {
        self.records.push(RoundRecord::of(round, config));
    }

    /// Records a state of `n` vertices of which `blue` are blue as round
    /// `round` (the engine's form: it counts its packed state once).
    pub(crate) fn record_counted(&mut self, round: usize, blue: usize, n: usize) {
        self.records.push(RoundRecord::counted(round, blue, n));
    }

    /// All records in round order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Number of recorded rounds (including round 0).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The blue-fraction trajectory `b_0, b_1, …`.
    pub fn blue_fractions(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.blue_fraction).collect()
    }

    /// The red-bias trajectory `δ_0, δ_1, …`.
    pub fn red_biases(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.red_bias).collect()
    }

    /// The last record, if any.
    pub fn last(&self) -> Option<&RoundRecord> {
        self.records.last()
    }

    /// The first round at which the blue fraction is ≤ `threshold`, if any.
    pub fn first_round_below(&self, threshold: f64) -> Option<usize> {
        self.records
            .iter()
            .find(|r| r.blue_fraction <= threshold)
            .map(|r| r.round)
    }

    /// Maximum absolute one-round change of the blue fraction — a cheap
    /// diagnostic for "is anything still happening".
    pub fn max_step_change(&self) -> f64 {
        self.records
            .windows(2)
            .map(|w| (w[1].blue_fraction - w[0].blue_fraction).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opinion::Opinion;

    fn config_with_blue(n: usize, blue: usize) -> Configuration {
        let mut c = Configuration::all_red(n);
        for v in 0..blue {
            c.set(v, Opinion::Blue);
        }
        c
    }

    #[test]
    fn round_record_summary() {
        let c = config_with_blue(10, 4);
        let r = RoundRecord::of(3, &c);
        assert_eq!(r.round, 3);
        assert_eq!(r.blue_count, 4);
        assert_eq!(r.red_count, 6);
        assert!((r.blue_fraction - 0.4).abs() < 1e-12);
        assert!((r.red_bias - 0.1).abs() < 1e-12);
    }

    #[test]
    fn trace_accumulates_in_order() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        for (round, blue) in [(0usize, 5usize), (1, 3), (2, 1), (3, 0)] {
            t.record(round, &config_with_blue(10, blue));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.blue_fractions(), vec![0.5, 0.3, 0.1, 0.0]);
        assert_eq!(t.last().unwrap().blue_count, 0);
        assert_eq!(t.records()[1].round, 1);
    }

    #[test]
    fn first_round_below_finds_the_threshold_crossing() {
        let mut t = Trace::new();
        for (round, blue) in [(0usize, 5usize), (1, 4), (2, 2), (3, 0)] {
            t.record(round, &config_with_blue(10, blue));
        }
        assert_eq!(t.first_round_below(0.25), Some(2));
        assert_eq!(t.first_round_below(0.0), Some(3));
        assert_eq!(t.first_round_below(-0.1), None);
    }

    #[test]
    fn red_bias_trajectory_and_step_change() {
        let mut t = Trace::new();
        t.record(0, &config_with_blue(10, 6));
        t.record(1, &config_with_blue(10, 3));
        let biases = t.red_biases();
        assert!((biases[0] + 0.1).abs() < 1e-12);
        assert!((biases[1] - 0.2).abs() < 1e-12);
        assert!((t.max_step_change() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::new();
        assert_eq!(t.last(), None);
        assert_eq!(t.first_round_below(0.5), None);
        assert_eq!(t.max_step_change(), 0.0);
        assert_eq!(t.len(), 0);
    }
}
