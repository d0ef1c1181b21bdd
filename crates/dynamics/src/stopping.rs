//! Stopping conditions for a dynamics run.

use crate::opinion::{blue_fraction, consensus, Configuration, Opinion};

/// When to stop a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingCondition {
    /// Hard cap on the number of rounds.
    pub max_rounds: usize,
    /// Stop as soon as every vertex holds the same opinion.
    pub stop_on_consensus: bool,
    /// Optionally stop as soon as the blue fraction drops to or below this
    /// threshold (useful for "time to near-extinction" measurements where
    /// full consensus would add a long deterministic tail).
    pub blue_fraction_floor: Option<f64>,
}

impl StoppingCondition {
    /// Stop at consensus, with the given round cap.
    pub fn consensus_within(max_rounds: usize) -> Self {
        StoppingCondition {
            max_rounds,
            stop_on_consensus: true,
            blue_fraction_floor: None,
        }
    }

    /// Run exactly `rounds` rounds regardless of the configuration.
    pub fn fixed_rounds(rounds: usize) -> Self {
        StoppingCondition {
            max_rounds: rounds,
            stop_on_consensus: false,
            blue_fraction_floor: None,
        }
    }

    /// Stop when the blue fraction reaches `floor` (or consensus, or the cap).
    pub fn blue_extinction(max_rounds: usize, floor: f64) -> Self {
        StoppingCondition {
            max_rounds,
            stop_on_consensus: true,
            blue_fraction_floor: Some(floor),
        }
    }

    /// Whether the run should stop *now*, given the current configuration.
    pub fn should_stop(&self, config: &Configuration, rounds_done: usize) -> Option<StopReason> {
        self.stop_at(config.blue_count(), config.len(), rounds_done)
    }

    /// [`StoppingCondition::should_stop`] for `blue` blue vertices of `n`:
    /// the engine's check, fed by its one popcount per round.
    pub(crate) fn stop_at(&self, blue: usize, n: usize, rounds_done: usize) -> Option<StopReason> {
        if self.stop_on_consensus {
            if let Some(winner) = consensus(blue, n) {
                return Some(StopReason::Consensus(winner));
            }
        }
        if let Some(floor) = self.blue_fraction_floor {
            if blue_fraction(blue, n) <= floor {
                return Some(StopReason::BlueFractionFloor);
            }
        }
        if rounds_done >= self.max_rounds {
            return Some(StopReason::RoundLimit);
        }
        None
    }
}

impl Default for StoppingCondition {
    fn default() -> Self {
        StoppingCondition::consensus_within(10_000)
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every vertex holds the same opinion.
    Consensus(Opinion),
    /// The blue fraction reached the configured floor.
    BlueFractionFloor,
    /// The round cap was hit without meeting any other condition.
    RoundLimit,
}

impl StopReason {
    /// The consensus winner, when the run ended in consensus.
    pub fn winner(&self) -> Option<Opinion> {
        match self {
            StopReason::Consensus(w) => Some(*w),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_stops_immediately() {
        let cond = StoppingCondition::consensus_within(100);
        let cfg = Configuration::all_red(5);
        assert_eq!(
            cond.should_stop(&cfg, 0),
            Some(StopReason::Consensus(Opinion::Red))
        );
        assert_eq!(
            cond.should_stop(&cfg, 0).unwrap().winner(),
            Some(Opinion::Red)
        );
    }

    #[test]
    fn fixed_rounds_ignores_consensus() {
        let cond = StoppingCondition::fixed_rounds(10);
        let cfg = Configuration::all_blue(5);
        assert_eq!(cond.should_stop(&cfg, 3), None);
        assert_eq!(cond.should_stop(&cfg, 10), Some(StopReason::RoundLimit));
    }

    #[test]
    fn round_limit_applies_without_consensus() {
        let cond = StoppingCondition::consensus_within(5);
        let mut cfg = Configuration::all_red(4);
        cfg.set(0, Opinion::Blue);
        assert_eq!(cond.should_stop(&cfg, 4), None);
        assert_eq!(cond.should_stop(&cfg, 5), Some(StopReason::RoundLimit));
    }

    #[test]
    fn blue_floor_triggers() {
        let cond = StoppingCondition::blue_extinction(100, 0.3);
        let mut cfg = Configuration::all_red(10);
        for v in 0..5 {
            cfg.set(v, Opinion::Blue);
        }
        assert_eq!(cond.should_stop(&cfg, 1), None);
        cfg.set(0, Opinion::Red);
        cfg.set(1, Opinion::Red);
        // 3/10 <= 0.3
        assert_eq!(
            cond.should_stop(&cfg, 1),
            Some(StopReason::BlueFractionFloor)
        );
    }

    #[test]
    fn default_is_consensus_with_generous_cap() {
        let d = StoppingCondition::default();
        assert!(d.stop_on_consensus);
        assert_eq!(d.max_rounds, 10_000);
        assert_eq!(d.blue_fraction_floor, None);
    }

    #[test]
    fn winner_of_non_consensus_reasons_is_none() {
        assert_eq!(StopReason::RoundLimit.winner(), None);
        assert_eq!(StopReason::BlueFractionFloor.winner(), None);
    }
}
