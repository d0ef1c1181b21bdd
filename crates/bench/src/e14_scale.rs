//! E14 — million-node Best-of-Three on implicit topologies.
//!
//! The paper's regime is *dense* graphs, exactly where materialised CSR
//! adjacency is most wasteful: `Θ(n²)` memory caps every materialised
//! experiment near `n ≈ 10⁴–10⁵`.  This experiment runs Best-of-Three to
//! consensus on the implicit topology layer (`bo3_graph::topology`) at
//! `n = 10⁶` — complete graph, `G(n, p)` and an SBM phase-transition slice —
//! where the whole topology is a few machine words and the working set is
//! the `O(n)` opinion buffers.  Each row reports the topology's actual
//! memory footprint next to the bytes a CSR of the same graph would need,
//! plus consensus rounds and sustained vertex-updates/second.
//!
//! The SBM slice sweeps assortativity at fixed average degree with one
//! community initially all blue: with `p_in ≈ p_out` the graph behaves like
//! `G(n, p)` and reaches global consensus fast; as `p_in / p_out` grows the
//! communities decouple and the dynamics polarise (each block keeps its
//! colour until the round cap) — the phase structure of Shimizu–Shiraga's
//! Best-of-Two/Three SBM analysis, resolvable sharply only at large `n`.

use std::time::Instant;

use bo3_core::prelude::*;
use bo3_core::report::Table;

use crate::Scale;

/// Master seed for the whole experiment.
const SEED: u64 = 0xE14;

/// The `n` used for the headline implicit scenarios at each scale.  Quick
/// mode already runs a full million vertices — the implicit layer makes
/// that CI-feasible — and paper mode doubles down.
pub fn headline_n(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 1_000_000,
        Scale::Paper => 4_000_000,
    }
}

/// Outcome of one timed consensus run on a topology.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Topology label.
    pub label: String,
    /// Number of vertices.
    pub n: usize,
    /// Bytes the topology representation actually uses.
    pub topology_bytes: usize,
    /// Bytes a materialised CSR of the same (expected) graph would need.
    pub csr_equivalent_bytes: u128,
    /// Rounds executed.
    pub rounds: usize,
    /// Consensus winner (`None` when a non-consensus stop fired first).
    pub winner: Option<Opinion>,
    /// Short stop label for tables and snapshots: `"red"`, `"blue"`,
    /// `"floor"` (blue-fraction floor) or `"cap"` (round limit).
    pub stop: &'static str,
    /// Final blue fraction.
    pub final_blue_fraction: f64,
    /// Wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Sustained vertex updates per second (`n · rounds / wall`).
    pub updates_per_sec: f64,
    /// Mean rejection-sampler tries per accepted neighbour draw, measured
    /// by a short metered probe on the same topology (1 on the closed
    /// forms and CSR; `None` only if the probe made no draw).
    pub tries_per_draw: Option<f64>,
}

impl ScenarioResult {
    /// `true` when the run ended in red consensus.
    pub fn red_won(&self) -> bool {
        self.winner == Some(Opinion::Red)
    }
}

/// Runs Best-of-Three on `spec` from `initial` until `stopping` fires,
/// timed, as one single-replica [`Experiment`] using every available core.
///
/// [`TopologySpec::expected_degree`] sizes the CSR-equivalent footprint
/// ([`bo3_graph::csr_bytes`] of `n` vertices and `n·d̄` directed arcs).
/// The wall clock covers the whole experiment — topology build,
/// initial-condition sampling and all rounds — so `updates_per_sec` is
/// end-to-end scenario throughput, a few percent below the engine-only
/// figure the pre-Scenario-API snapshots reported.
pub fn run_consensus(
    spec: TopologySpec,
    initial: &InitialCondition,
    stopping: StoppingCondition,
    seed: u64,
) -> ScenarioResult {
    let label = spec.label();
    let n = spec.num_vertices();
    let expected_degree = spec
        .expected_degree()
        .expect("E14 runs implicit topologies, whose mean degree is closed-form");
    // One metered round pins the sampler's try rate (a property of the
    // topology, not of run length) before the unobserved timed run.
    let tries_per_draw = crate::obsprobe::probe_spec(&spec, seed, 1).tries_per_draw();
    let experiment = Experiment::on(spec)
        .named(format!("E14/{label}"))
        .protocol(ProtocolSpec::BestOfThree)
        .initial(initial.clone())
        .stopping(stopping)
        .replicas(1)
        .seed(seed)
        .threads(0);
    let start = Instant::now();
    let result = experiment.run().expect("scale run");
    let wall = start.elapsed().as_secs_f64();
    let outcome = result.report.outcomes[0];
    let arcs = (n as f64 * expected_degree).round() as usize;
    let stop = match outcome.winner {
        Some(Opinion::Red) => "red",
        Some(Opinion::Blue) => "blue",
        // `should_stop` checks the floor before the round cap, so a
        // winner-less run with the final fraction at or below a configured
        // floor stopped there, not at the cap.
        None => match stopping.blue_fraction_floor {
            Some(floor) if outcome.final_blue_fraction <= floor => "floor",
            _ => "cap",
        },
    };
    ScenarioResult {
        label,
        n,
        topology_bytes: result.topology_memory_bytes,
        csr_equivalent_bytes: bo3_graph::csr_bytes(n, arcs),
        rounds: outcome.rounds,
        winner: outcome.winner,
        stop,
        final_blue_fraction: outcome.final_blue_fraction,
        wall_seconds: wall,
        updates_per_sec: if wall > 0.0 {
            (outcome.rounds as u128 * n as u128) as f64 / wall
        } else {
            0.0
        },
        tries_per_draw,
    }
}

/// The headline scenarios (implicit complete and `G(n, p)`) at size `n`:
/// the paper's initial condition, run to consensus.
pub fn headline_scenarios(n: usize) -> Vec<ScenarioResult> {
    let delta = 0.15;
    let initial = InitialCondition::BernoulliWithBias { delta };
    let stopping = StoppingCondition::consensus_within(10_000);
    vec![
        run_consensus(TopologySpec::Complete { n }, &initial, stopping, SEED),
        run_consensus(
            TopologySpec::ImplicitGnp { n, p: 0.5 },
            &initial,
            stopping,
            SEED + 1,
        ),
    ]
}

/// The assortativity ratios `p_in / p_out` swept by the SBM slice (average
/// degree held fixed across the slice).
///
/// The two-community mean-field map `b_i ← g(α·b_i + (1−α)·b_j)` with
/// `g(p) = 3p² − 2p³` and own-block sample fraction `α = p_in/(p_in+p_out)`
/// has a stable polarized fixed point only for `α ≳ 0.83` (ratio ≳ 5), so
/// the sweep straddles that transition: the low end reaches global
/// consensus like `G(n, p)`, the high end locks into polarisation.
pub fn sbm_ratios(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![1.0, 3.0, 9.0],
        Scale::Paper => vec![1.0, 2.0, 3.0, 4.5, 6.0, 9.0],
    }
}

/// One point of the SBM phase slice: two blocks of `n / 2`, average edge
/// probability `p_avg` split by `ratio = p_in / p_out`, one block initially
/// all blue, capped at `max_rounds`.
pub fn sbm_point(n: usize, p_avg: f64, ratio: f64, max_rounds: usize) -> ScenarioResult {
    // p_avg is the mean of p_in and p_out, so degree stays ~constant as the
    // ratio varies and only the community structure changes.  Probabilities
    // are rounded to 1e-9 so labels and CSV stay readable.
    let p_out = (2.0e9 * p_avg / (1.0 + ratio)).round() / 1e9;
    let p_in = (1e9 * ratio * p_out).round() / 1e9;
    run_consensus(
        TopologySpec::ImplicitSbm {
            n,
            blocks: 2,
            p_in,
            p_out,
        },
        &InitialCondition::PrefixBlue { blue: n / 2 },
        StoppingCondition::consensus_within(max_rounds),
        SEED + (ratio * 1000.0) as u64,
    )
}

/// The SBM phase-transition slice at each scale.
pub fn sbm_slice(scale: Scale) -> Vec<ScenarioResult> {
    let n = match scale {
        Scale::Quick => 100_000,
        Scale::Paper => 1_000_000,
    };
    sbm_ratios(scale)
        .into_iter()
        .map(|ratio| sbm_point(n, 0.4, ratio, 64))
        .collect()
}

/// Formats scenario results as the experiment table.
pub fn results_table(title: &str, results: &[ScenarioResult]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "scenario",
            "n",
            "topo_bytes",
            "csr_bytes",
            "rounds",
            "stop",
            "blue_end",
            "wall_s",
            "updates/s",
            "tries/draw",
        ],
    );
    for r in results {
        table.push_row(vec![
            r.label.clone(),
            r.n.to_string(),
            r.topology_bytes.to_string(),
            r.csr_equivalent_bytes.to_string(),
            r.rounds.to_string(),
            r.stop.to_string(),
            format!("{:.4}", r.final_blue_fraction),
            format!("{:.2}", r.wall_seconds),
            format!("{:.0}", r.updates_per_sec),
            fmt_opt_f64(r.tries_per_draw),
        ]);
    }
    table
}

/// Runs the full experiment at `scale` and returns the table.
pub fn run(scale: Scale) -> Table {
    let mut results = headline_scenarios(headline_n(scale));
    results.extend(sbm_slice(scale));
    results_table(
        &format!(
            "E14: implicit-topology scale (Best-of-3, n = {})",
            headline_n(scale)
        ),
        &results,
    )
}

/// The headline checks, parameterised by `n` so tests can run a smaller
/// instance in debug builds while the bench asserts the full million:
/// red sweeps both headline scenarios, the SBM slice polarises only at the
/// assortative end, and no topology uses more than a kilobyte.
pub fn verify(n: usize, sbm_n: usize) -> bool {
    for r in headline_scenarios(n) {
        if !r.red_won() || r.topology_bytes > 1024 {
            return false;
        }
        // The implicit representation must undercut the CSR equivalent by
        // orders of magnitude — the entire point of the subsystem.
        if (r.topology_bytes as u128) * 1000 > r.csr_equivalent_bytes {
            return false;
        }
    }
    let uniform = sbm_point(sbm_n, 0.4, 1.0, 64);
    let assortative = sbm_point(sbm_n, 0.4, 9.0, 64);
    // Uniform mixing: global consensus well before the cap.  Strong
    // communities: the blue block holds, so the cap fires with blue alive.
    uniform.winner.is_some()
        && assortative.winner.is_none()
        && assortative.final_blue_fraction > 0.25
}

#[cfg(test)]
mod tests {
    use super::*;

    // Debug-build sizes: big enough to span many 4096-vertex kernel chunks
    // and make the memory comparison meaningful, small enough for `cargo
    // test`.  The release-build bench (`benches/e14_scale.rs`, run by the
    // CI scale-smoke job) executes the real n = 10⁶ quick mode.
    const TEST_N: usize = 100_000;
    const TEST_SBM_N: usize = 20_000;

    #[test]
    fn headline_and_sbm_slice_behave_as_predicted() {
        assert!(verify(TEST_N, TEST_SBM_N));
    }

    #[test]
    fn table_has_one_row_per_scenario() {
        let results = [
            headline_scenarios(TEST_N),
            vec![sbm_point(TEST_SBM_N, 0.4, 2.0, 16)],
        ]
        .concat();
        let table = results_table("E14 smoke", &results);
        assert_eq!(table.num_rows(), 3);
        let csv = table.to_csv();
        assert!(csv.contains("implicit_complete"));
        assert!(csv.contains("implicit_gnp"));
        assert!(csv.contains("implicit_sbm"));
    }

    #[test]
    fn consensus_throughput_is_recorded() {
        let r = run_consensus(
            TopologySpec::Complete { n: TEST_N },
            &InitialCondition::BernoulliWithBias { delta: 0.2 },
            StoppingCondition::consensus_within(1_000),
            1,
        );
        assert!(r.red_won());
        assert!(r.rounds > 0);
        assert!(r.updates_per_sec > 0.0);
        assert_eq!(r.n, TEST_N);
    }
}
