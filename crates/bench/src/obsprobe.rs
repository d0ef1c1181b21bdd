//! Shared observability probe for the perf-snapshot benches.
//!
//! [`probe_spec`] is a short, seeded, fully deterministic engine run with a
//! [`MetricsObserver`] installed.  It returns the rejection-sampling tally
//! (tries vs accepted draws) plus the whole registry snapshot, which the
//! benches record as their ledger's `observer` (see [`crate::ledger`]).
//! The observer contract guarantees the probe *reads* the simulation
//! without perturbing it, so the numbers describe exactly the draws an
//! unobserved run would have made.
//!
//! Tries-per-accepted-draw is a property of the topology's neighbour
//! sampler, not of run length: closed-form topologies (complete, bipartite,
//! multipartite, CSR rows) draw in one try by construction, while the
//! frozen-hash `G(n, p)` / SBM samplers rejection-sample and land near the
//! geometric mean `1/p̄` of their row densities.  A couple of rounds is
//! therefore enough to pin the statistic.

use bo3_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a probe run measured: the rejection-sampling tally and the full
/// registry snapshot of the observed engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Candidate draws attempted by the neighbour sampler.
    pub tries: u64,
    /// Draws accepted (one per returned neighbour).
    pub accepts: u64,
    /// The observer registry's JSON snapshot (counters, gauges, histograms).
    pub snapshot_json: String,
}

impl Probe {
    /// Mean tries per accepted draw, `None` when no draw was made (every
    /// route meters, so this only happens with no sampling protocol).
    /// Closed-form and CSR rows read exactly 1.
    pub fn tries_per_draw(&self) -> Option<f64> {
        (self.accepts > 0).then(|| self.tries as f64 / self.accepts as f64)
    }
}

/// Runs `rounds` seeded synchronous Best-of-Three rounds on `spec` with a
/// [`MetricsObserver`] installed and returns the [`Probe`].
///
/// Deterministic in `(spec, seed, rounds)`: the topology is built from
/// `seed`, the initial condition is the paper's `δ = 0.1` Bernoulli start
/// sampled from `seed`, and every round draws from the engine's
/// `(seed, round, chunk)` streams.
pub fn probe_spec(spec: &TopologySpec, seed: u64, rounds: u64) -> Probe {
    let topo = spec.build(seed).expect("probe topology");
    let n = topo.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample_n(n, &mut rng)
        .expect("probe init");
    let sim = Engine::new(topo)
        .expect("probe engine")
        .with_observer(MetricsObserver::new());
    let mut scratch = Vec::new();
    for round in 0..rounds {
        sim.step_seeded(&ProtocolSpec::BestOfThree, &init, &mut scratch, seed, round);
    }
    let meter = sim.observer().meter();
    Probe {
        tries: meter.tries(),
        accepts: meter.accepts(),
        snapshot_json: sim.observer().registry().snapshot_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_topologies_probe_at_one_try_per_draw() {
        let probe = probe_spec(&TopologySpec::Complete { n: 512 }, 7, 2);
        assert_eq!(probe.tries, probe.accepts);
        assert_eq!(probe.tries_per_draw(), Some(1.0));
        // Two rounds of Best-of-Three: three draws per vertex per round.
        assert_eq!(probe.accepts, 2 * 3 * 512);
    }

    #[test]
    fn rejection_sampling_probes_above_one_try_per_draw() {
        let probe = probe_spec(&TopologySpec::ImplicitGnp { n: 512, p: 0.5 }, 7, 2);
        assert!(probe.tries > probe.accepts);
        let rate = probe.tries_per_draw().unwrap();
        // p = 1/2 rejects roughly every other candidate.
        assert!((1.5..3.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn sampler_tallies_are_deterministic() {
        // The draw counts replay exactly; the chunk wall-time histogram in
        // the snapshot is the one legitimately non-deterministic part.
        let spec = TopologySpec::ImplicitSbm {
            n: 400,
            blocks: 2,
            p_in: 0.7,
            p_out: 0.2,
        };
        let (a, b) = (probe_spec(&spec, 11, 3), probe_spec(&spec, 11, 3));
        assert_eq!((a.tries, a.accepts), (b.tries, b.accepts));
        assert_eq!(a.tries_per_draw(), b.tries_per_draw());
    }
}
