//! Shared scenario helpers for the cross-crate integration tests.
//!
//! The integration tests exercise end-to-end paths that span several crates
//! (generate a graph → run dynamics → compare against theory → verify with
//! the DAG dual); the builders here keep each test focused on the property it
//! checks rather than on wiring.

use bo3_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A canonical "inside Theorem 1" scenario: a dense random graph and a small
/// bias that the theorem still covers.
pub fn dense_scenario(n: usize, seed: u64) -> (CsrGraph, f64) {
    let graph = GraphSpec::DenseForAlpha { n, alpha: 0.75 }
        .generate(&mut StdRng::seed_from_u64(seed))
        .expect("dense graph generation");
    (graph, 0.08)
}

/// A canonical "outside Theorem 1" scenario: a constant-degree torus.
pub fn sparse_scenario(side: usize) -> CsrGraph {
    GraphSpec::Torus2d {
        rows: side,
        cols: side,
    }
    .generate(&mut StdRng::seed_from_u64(0))
    .expect("torus generation")
}

/// Runs a single traced Best-of-Three trajectory from the paper's initial
/// condition and returns the run result.
pub fn traced_run(graph: &CsrGraph, delta: f64, seed: u64) -> RunResult {
    let sim = Engine::on_graph(graph).expect("engine").with_trace(true);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = InitialCondition::BernoulliWithBias { delta }
        .sample(graph, &mut rng)
        .expect("initial condition");
    sim.run(&BestOfThree::new(), init, &mut rng).expect("run")
}

/// Steps a run by hand: applies `round` (which advances the configuration
/// by round `r`, in place) from `initial` until `stopping` fires, recording
/// the trace, and reports the trajectory as a traced, honest run would.
/// This is the loop a caller driving an engine's step entry points writes,
/// so comparing its result with the matching run pins that steps compose
/// to runs.
pub fn step_to_end(
    stopping: &StoppingCondition,
    initial: Configuration,
    mut round: impl FnMut(&mut Configuration, u64),
) -> RunResult {
    let mut config = initial;
    let initial_blue_fraction = config.blue_fraction();
    let mut trace = Trace::new();
    trace.record(0, &config);
    let mut rounds = 0usize;
    let reason = loop {
        if let Some(reason) = stopping.should_stop(&config, rounds) {
            break reason;
        }
        round(&mut config, rounds as u64);
        rounds += 1;
        trace.record(rounds, &config);
    };
    RunResult {
        stop_reason: reason,
        winner: reason.winner(),
        rounds,
        initial_blue_fraction,
        final_blue_fraction: config.blue_fraction(),
        trace: Some(trace),
        adversary: None,
    }
}

/// Convenience: the mean consensus time of a small Monte-Carlo batch of the
/// given protocol on `graph`.
pub fn mean_consensus_time(
    graph: &CsrGraph,
    protocol: ProtocolSpec,
    delta: f64,
    replicas: usize,
    seed: u64,
) -> Option<f64> {
    let mc = MonteCarlo {
        protocol,
        initial: InitialCondition::BernoulliWithBias { delta },
        schedule: Schedule::Synchronous,
        stopping: StoppingCondition::consensus_within(1_000_000),
        replicas,
        master_seed: seed,
        threads: 0,
        adversary: Vec::new(),
    };
    mc.run(graph).expect("monte carlo").mean_rounds()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builders_produce_usable_graphs() {
        let (g, delta) = dense_scenario(500, 1);
        assert_eq!(g.num_vertices(), 500);
        assert!(delta > 0.0 && delta < 0.5);
        let t = sparse_scenario(10);
        assert_eq!(t.num_vertices(), 100);
    }

    #[test]
    fn traced_run_produces_a_trace() {
        let (g, delta) = dense_scenario(300, 2);
        let run = traced_run(&g, delta, 3);
        assert!(run.trace.is_some());
        assert!(run.reached_consensus());
    }
}
