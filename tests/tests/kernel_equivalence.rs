//! Equivalence suite for the monomorphized kernel path.
//!
//! The kernels in `crates/dynamics/src/kernel.rs` promise two things
//! (documented there as the determinism contract):
//!
//! 1. **Draw-for-draw `dyn` compatibility** — handed the same RNG, the
//!    kernel path and the generic `dyn Protocol` fallback consume the same
//!    stream and produce bit-identical results.  Pinned here by running
//!    every built-in protocol through the caller-RNG entry points twice —
//!    once normally (kernel path) and once wrapped in `DynOnly` (which
//!    hides the `ProtocolSpec` and forces the `dyn` path) — on three graph
//!    families and both schedules.
//! 2. **Sequential == parallel on the seeded path** — within each dispatch
//!    path, the seeded sequential stepper and the parallel stepper are
//!    bit-identical at any thread count.  The determinism regression suite
//!    covers the kernel path (all built-ins); here we pin the `dyn`
//!    fallback path the same way via `DynOnly`.

use bo3_core::prelude::*;
use bo3_graph::{ScalarSampled, Shape};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MASTER_SEED: u64 = 0xE13;

/// The built-in protocols with their display names; each runs its kernel
/// as is, and its `dyn` reference wrapped in `DynOnly`.
fn protocols() -> Vec<(&'static str, ProtocolSpec)> {
    let keep = TieRule::KeepOwn;
    let random = TieRule::Random;
    vec![
        ("voter", ProtocolSpec::Voter),
        (
            "best-of-2 (keep)",
            ProtocolSpec::BestOfTwo { tie_rule: keep },
        ),
        (
            "best-of-2 (random)",
            ProtocolSpec::BestOfTwo { tie_rule: random },
        ),
        ("best-of-3", ProtocolSpec::BestOfThree),
        (
            "best-of-6 (random)",
            ProtocolSpec::BestOfK {
                k: 6,
                tie_rule: random,
            },
        ),
        (
            "best-of-5 (keep)",
            ProtocolSpec::BestOfK {
                k: 5,
                tie_rule: keep,
            },
        ),
        (
            "local-majority",
            ProtocolSpec::LocalMajority { tie_rule: keep },
        ),
    ]
}

/// The graph families the contract is pinned on.  The Erdős–Rényi instance
/// spans multiple 4096-vertex chunks so chunked RNG derivation is exercised;
/// the bipartite graph adds structured (oscillation-prone) dynamics.
fn graphs() -> Vec<(&'static str, CsrGraph)> {
    let mut rng = StdRng::seed_from_u64(40);
    vec![
        ("complete", bo3_graph::generators::complete(900)),
        (
            "erdos-renyi",
            bo3_graph::generators::erdos_renyi_gnp(9_000, 0.01, &mut rng).expect("gnp"),
        ),
        (
            "bipartite",
            bo3_graph::generators::complete_bipartite(400, 500).expect("bipartite"),
        ),
    ]
}

fn biased_init(graph: &CsrGraph, seed: u64) -> Configuration {
    let mut rng = StdRng::seed_from_u64(seed);
    InitialCondition::BernoulliWithBias { delta: 0.05 }
        .sample(graph, &mut rng)
        .expect("initial condition")
}

/// On both schedules.  The asynchronous `dyn` loop reads the live state one
/// vertex at a time, so on the Erdős–Rényi graph (71 blocks of the CSR
/// gather per round, the last one short) this pins the asynchronous
/// gather's block-wise reads against it draw for draw.
#[test]
fn kernel_and_dyn_paths_are_bit_identical_given_the_same_rng() {
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        for (graph_name, graph) in &graphs() {
            let init = biased_init(graph, 3);
            let sim = Engine::on_graph(graph)
                .expect("engine")
                .with_schedule(schedule)
                .with_stopping(StoppingCondition::fixed_rounds(10))
                .with_trace(true);
            for (name, spec) in protocols() {
                // Identically seeded caller RNGs: the two paths must consume
                // them draw-for-draw and end bit-identical.
                let mut rng_kernel = StdRng::seed_from_u64(MASTER_SEED);
                let mut rng_dyn = StdRng::seed_from_u64(MASTER_SEED);
                let via_kernel = sim
                    .run(&spec, init.clone(), &mut rng_kernel)
                    .expect("kernel-path run");
                let via_dyn = sim
                    .run(&DynOnly(spec), init.clone(), &mut rng_dyn)
                    .expect("dyn-path run");
                assert_eq!(
                    via_kernel, via_dyn,
                    "{name} on {graph_name} ({schedule:?}): kernel and dyn runs diverged"
                );
            }
        }
    }
}

#[test]
fn unseeded_stepper_also_matches_across_paths() {
    // `Engine::step_synchronous` (the entry point used by the duality
    // checker and the E3 bench) must consume the caller's RNG identically
    // on both paths, round after round.
    let graph = bo3_graph::generators::complete(700);
    let init = biased_init(&graph, 7);
    let sim = Engine::on_graph(&graph).expect("engine");
    for (name, spec) in protocols() {
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut next_a = Vec::new();
        let mut next_b = Vec::new();
        for _ in 0..5 {
            sim.step_synchronous(&spec, &init, &mut next_a, &mut rng_a);
            sim.step_synchronous(&DynOnly(spec), &init, &mut next_b, &mut rng_b);
            assert_eq!(next_a, next_b, "{name}: one-step outputs diverged");
        }
    }
}

#[test]
fn dyn_fallback_path_honours_the_seeded_determinism_contract() {
    // The determinism regression suite pins sequential == parallel for the
    // built-ins (kernel path); this pins the same contract for protocols
    // without a kernel — the `dyn` fallback that `DynOnly` takes —
    // including sequential `run_seeded` against the parallel stepper.
    for (graph_name, graph) in &graphs() {
        let init = biased_init(graph, 5);
        for (name, spec) in protocols() {
            let dyn_side = &DynOnly(spec);
            let sequential = Engine::on_graph(graph)
                .expect("engine")
                .with_stopping(StoppingCondition::fixed_rounds(8))
                .with_trace(true)
                .run_seeded(dyn_side, init.clone(), MASTER_SEED)
                .expect("sequential dyn run");
            for threads in [1usize, 4] {
                let parallel = Engine::on_graph(graph)
                    .expect("engine")
                    .with_threads(threads)
                    .with_stopping(StoppingCondition::fixed_rounds(8))
                    .with_trace(true)
                    .run_seeded(dyn_side, init.clone(), MASTER_SEED)
                    .expect("parallel dyn run");
                assert_eq!(
                    sequential, parallel,
                    "{name} on {graph_name}: dyn path diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn csr_topology_is_bit_identical_to_the_csr_kernel_path() {
    // The topology-generic engine over `CsrTopology` must reproduce the
    // seeded CSR kernel path bit for bit: same per-(seed, round, chunk) RNG
    // streams, same Lemire-reduced draws, same results — on every graph
    // family and every built-in protocol.  This pins the Topology layer as
    // a pure refactoring of the materialised path.
    for (graph_name, graph) in &graphs() {
        let init = biased_init(graph, 17);
        let via_graph_engine = |spec: ProtocolSpec| {
            Engine::on_graph(graph)
                .expect("engine")
                .with_stopping(StoppingCondition::fixed_rounds(8))
                .with_trace(true)
                .run_seeded(&spec, init.clone(), MASTER_SEED)
                .expect("seeded run")
        };
        let via_topology_engine = |spec: ProtocolSpec, threads: usize| {
            Engine::new(bo3_graph::CsrTopology::new(graph))
                .expect("engine")
                .with_threads(threads)
                .with_stopping(StoppingCondition::fixed_rounds(8))
                .with_trace(true)
                .run_seeded(&spec, init.clone(), MASTER_SEED)
                .expect("topology run")
        };
        for (name, spec) in protocols() {
            let reference = via_graph_engine(spec);
            for threads in [1usize, 4] {
                assert_eq!(
                    reference,
                    via_topology_engine(spec, threads),
                    "{name} on {graph_name}: CsrTopology diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn implicit_complete_matches_the_materialised_complete_graph() {
    // The `Complete` topology and a materialised K_n must be the *same
    // seeded experiment*: the kernels synthesise identical rows from both,
    // so whole runs agree bit for bit — adjacency allocation is the only
    // difference.  (`n` spans multiple chunks to exercise the chunked RNG.)
    let n = 9_500;
    let graph = bo3_graph::generators::complete(n);
    let init = biased_init(&graph, 19);
    for (name, spec) in protocols() {
        let materialised = Engine::on_graph(&graph)
            .expect("engine")
            .with_stopping(StoppingCondition::fixed_rounds(6))
            .with_trace(true)
            .run_seeded(&spec, init.clone(), MASTER_SEED)
            .expect("materialised run");
        let implicit = Engine::new(bo3_graph::Complete::new(n).expect("topology"))
            .expect("engine")
            .with_stopping(StoppingCondition::fixed_rounds(6))
            .with_trace(true)
            .run_seeded(&spec, init.clone(), MASTER_SEED)
            .expect("implicit run");
        assert_eq!(
            materialised, implicit,
            "{name}: implicit K_n diverged from materialised K_n"
        );
    }
}

#[test]
fn implicit_gnp_agrees_with_its_own_materialisation() {
    // An implicit G(n, p) names a frozen edge set; materialising that same
    // edge set and running the (differently-sampled) CSR path must agree on
    // the dynamics' *distributional* behaviour, and the local-majority
    // protocol — which enumerates neighbourhoods instead of sampling — must
    // agree bit for bit, since both paths see identical rows.
    let topo = bo3_graph::ImplicitGnp::new(2_500, 0.3, 23).expect("implicit gnp");
    let graph = topo.materialize().expect("materialise");
    let init = biased_init(&graph, 29);
    let kind = ProtocolSpec::LocalMajority {
        tie_rule: TieRule::KeepOwn,
    };
    let materialised = Engine::on_graph(&graph)
        .expect("engine")
        .with_stopping(StoppingCondition::fixed_rounds(4))
        .with_trace(true)
        .run_seeded(
            &ProtocolSpec::LocalMajority {
                tie_rule: TieRule::KeepOwn,
            },
            init.clone(),
            MASTER_SEED,
        )
        .expect("materialised run");
    let implicit = Engine::new(topo)
        .expect("engine")
        .with_stopping(StoppingCondition::fixed_rounds(4))
        .with_trace(true)
        .run_seeded(&kind, init, MASTER_SEED)
        .expect("implicit run");
    assert_eq!(
        materialised, implicit,
        "local majority must agree bit-for-bit between implicit and materialised G(n,p)"
    );
}

#[test]
fn full_convergence_agrees_between_paths() {
    // Beyond fixed-round trajectories: let Best-of-3 run to consensus on a
    // multi-chunk graph and require identical stop reason, winner, round
    // count and trace across dispatch paths (shared caller RNG) and across
    // engines (seeded kernel path, sequential vs 8 threads).
    let mut rng = StdRng::seed_from_u64(41);
    let graph = bo3_graph::generators::erdos_renyi_gnp(9_000, 0.02, &mut rng).expect("gnp");
    let init = biased_init(&graph, 11);
    let sim = Engine::on_graph(&graph).expect("engine").with_trace(true);

    let mut rng_kernel = StdRng::seed_from_u64(MASTER_SEED);
    let via_kernel = sim
        .run(&ProtocolSpec::BestOfThree, init.clone(), &mut rng_kernel)
        .expect("kernel-path run");
    assert!(via_kernel.reached_consensus(), "scenario must converge");
    let mut rng_dyn = StdRng::seed_from_u64(MASTER_SEED);
    let via_dyn = sim
        .run(
            &DynOnly(ProtocolSpec::BestOfThree),
            init.clone(),
            &mut rng_dyn,
        )
        .expect("dyn-path run");
    assert_eq!(via_kernel, via_dyn, "kernel vs dyn convergence diverged");

    let seq = sim
        .run_seeded(&ProtocolSpec::BestOfThree, init.clone(), MASTER_SEED)
        .expect("sequential kernel run");
    assert!(seq.reached_consensus(), "seeded scenario must converge");
    let par = Engine::on_graph(&graph)
        .expect("engine")
        .with_threads(8)
        .with_trace(true)
        .run_seeded(&ProtocolSpec::BestOfThree, init, MASTER_SEED)
        .expect("parallel kernel run");
    assert_eq!(seq, par, "sequential vs parallel kernel diverged");
}

#[test]
fn caller_rng_steps_compose_to_the_run_and_count_rounds() {
    // Stepping the caller-RNG step entry points round by round under the
    // stopping condition, with an identically seeded RNG, must reproduce
    // `run` on either schedule — the loop a hand-driven graph-backed
    // replica writes — and the observer must count every stepped round.
    fn check<T: Topology>(topo: &T, label: &str) {
        let n = topo.n();
        let stopping = StoppingCondition::consensus_within(200);
        let initial = {
            let mut rng = StdRng::seed_from_u64(43);
            InitialCondition::BernoulliWithBias { delta: 0.1 }
                .sample_n(n, &mut rng)
                .expect("initial condition")
        };
        let protocol = ProtocolSpec::BestOfThree;
        for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
            let ctx = format!("{label}/{}", schedule.label());
            let reference = Engine::new(topo)
                .expect("engine")
                .with_schedule(schedule)
                .with_stopping(stopping)
                .with_trace(true)
                .run(
                    &protocol,
                    initial.clone(),
                    &mut StdRng::seed_from_u64(MASTER_SEED),
                )
                .expect("reference run");
            assert!(reference.reached_consensus(), "{ctx}: run must converge");
            let engine = Engine::new(topo)
                .expect("engine")
                .with_observer(MetricsObserver::new());
            let mut rng = StdRng::seed_from_u64(MASTER_SEED);
            let mut next = Vec::new();
            let mut scratch = AsyncScratch::new();
            let stepped =
                bo3_integration::step_to_end(
                    &stopping,
                    initial.clone(),
                    |config, _| match schedule {
                        Schedule::Synchronous => {
                            engine.step_synchronous(&protocol, config, &mut next, &mut rng);
                            config.overwrite_from(&next);
                        }
                        Schedule::AsynchronousRandomOrder => {
                            engine.step_asynchronous_with(&protocol, config, &mut scratch, &mut rng)
                        }
                    },
                );
            assert_eq!(stepped, reference, "{ctx}: steps diverged from the run");
            assert_eq!(
                engine.observer().rounds(),
                reference.rounds as u64,
                "{ctx}: rounds"
            );
        }
    }
    check(&Complete::new(SHAPE_N).expect("complete"), "complete");
    check(
        &ImplicitGnp::new(SHAPE_N, 0.5, 7).expect("gnp"),
        "implicit_gnp",
    );
    let mut rng = StdRng::seed_from_u64(47);
    let graph = bo3_graph::generators::erdos_renyi_gnp(SHAPE_N, 0.2, &mut rng).expect("gnp");
    check(&CsrTopology::new(&graph), "csr");
}

// ---------------------------------------------------------------------------
// Shape routing: the engine reads `Topology::shape()` once per chunk (sync)
// or round (async) and runs the concrete family.  Whatever the wrapper, the
// run must be the concrete family's run, bit for bit.
// ---------------------------------------------------------------------------

/// Vertex count of the shape-routing cases: small enough that local
/// majority's full-row walks stay cheap in a debug build.
const SHAPE_N: usize = 1_200;

/// Every `TopologySpec` family, built, plus a materialised complete graph
/// (whose shape is the synthesised `Complete`, not `Csr`).
fn built_topologies() -> Vec<(&'static str, BuiltTopology)> {
    built_topologies_at(SHAPE_N)
}

/// [`built_topologies`] with `n` vertices each (the bipartite and
/// multipartite block sizes scale with `n`).
fn built_topologies_at(n: usize) -> Vec<(&'static str, BuiltTopology)> {
    let specs = [
        ("complete", TopologySpec::Complete { n }),
        (
            "bipartite",
            TopologySpec::CompleteBipartite {
                a: 5 * n / 12,
                b: n - 5 * n / 12,
            },
        ),
        (
            "multipartite",
            TopologySpec::CompleteMultipartite {
                blocks: vec![n / 4, n / 3, n - n / 4 - n / 3],
            },
        ),
        ("gnp", TopologySpec::ImplicitGnp { n, p: 0.3 }),
        (
            "sbm",
            TopologySpec::ImplicitSbm {
                n,
                blocks: 2,
                p_in: 0.4,
                p_out: 0.1,
            },
        ),
        (
            "materialised gnp",
            TopologySpec::Materialised(GraphSpec::ErdosRenyiGnp { n, p: 0.05 }),
        ),
        (
            "materialised complete",
            TopologySpec::Materialised(GraphSpec::Complete { n }),
        ),
    ];
    specs
        .into_iter()
        .map(|(label, spec)| (label, spec.build(MASTER_SEED).expect("topology builds")))
        .collect()
}

/// Every adversary mechanism at once, for an `n`-vertex topology.
fn adversary_stack(n: usize) -> Adversary {
    Adversary::build(
        &[
            AdversarySpec::Zealots { fraction: 0.05 },
            AdversarySpec::Byzantine { fraction: 0.05 },
            AdversarySpec::Drop { q: 0.1 },
            AdversarySpec::Partition {
                from_round: 1,
                until_round: 3,
                blocks: 2,
            },
        ],
        n,
        MASTER_SEED ^ 0xAD,
    )
    .expect("adversary stack")
}

/// Runs the routing matrix on one topology: both schedules × seeded and
/// caller-RNG × honest and adversarial, for a lane-eligible protocol, a
/// tie-coin protocol and (where rows are cheap) local majority.
fn routing_matrix<T: Topology>(topo: &T) -> Vec<RunResult> {
    let init = {
        let mut rng = StdRng::seed_from_u64(31);
        InitialCondition::BernoulliWithBias { delta: 0.05 }
            .sample_n(topo.n(), &mut rng)
            .expect("initial condition")
    };
    let mut protocols = vec![
        ProtocolSpec::BestOfThree,
        ProtocolSpec::BestOfTwo {
            tie_rule: TieRule::Random,
        },
    ];
    let expensive_rows = matches!(
        topo.shape(),
        Shape::ImplicitGnp(_) | Shape::ImplicitSbm(_) | Shape::Opaque
    );
    if !expensive_rows {
        protocols.push(ProtocolSpec::LocalMajority {
            tie_rule: TieRule::Random,
        });
    }
    let mut results = Vec::new();
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        for adversarial in [false, true] {
            let mut engine = Engine::new(topo)
                .expect("engine")
                .with_schedule(schedule)
                .with_stopping(StoppingCondition::fixed_rounds(4))
                .with_trace(true);
            if adversarial {
                engine = engine.with_adversary(adversary_stack(topo.n()));
            }
            for protocol in &protocols {
                results.push(
                    engine
                        .run_seeded(protocol, init.clone(), MASTER_SEED)
                        .expect("seeded run"),
                );
                let mut rng = StdRng::seed_from_u64(MASTER_SEED);
                results.push(
                    engine
                        .run(protocol, init.clone(), &mut rng)
                        .expect("caller-RNG run"),
                );
            }
        }
    }
    results
}

#[test]
fn built_topologies_run_bit_identical_to_their_concrete_family() {
    for (label, built) in &built_topologies() {
        let via_built = routing_matrix(built);
        let via_family = match built {
            BuiltTopology::Complete(t) => routing_matrix(t),
            BuiltTopology::CompleteBipartite(t) => routing_matrix(t),
            BuiltTopology::CompleteMultipartite(t) => routing_matrix(t),
            BuiltTopology::ImplicitGnp(t) => routing_matrix(t),
            BuiltTopology::ImplicitSbm(t) => routing_matrix(t),
            BuiltTopology::Materialised(g) => routing_matrix(&CsrTopology::new(g)),
        };
        assert_eq!(via_built.len(), via_family.len());
        for (i, (a, b)) in via_built.iter().zip(&via_family).enumerate() {
            assert_eq!(a, b, "{label}: case {i} diverged from the concrete family");
        }
        // A materialised K_n runs the synthesised-row family on every
        // path, adversarial and asynchronous included.
        if let BuiltTopology::Materialised(g) = built {
            if g.is_complete() {
                let implicit = Complete::new(g.num_vertices()).expect("complete");
                assert_eq!(
                    via_built,
                    routing_matrix(&implicit),
                    "{label}: diverged from the implicit complete graph"
                );
            }
        }
    }
}

#[test]
fn shapes_name_the_family_and_wrappers_are_opaque() {
    for (label, built) in &built_topologies() {
        let shape = built.shape();
        match (built, shape) {
            (BuiltTopology::Complete(t), Shape::Complete(s, None)) => assert_eq!(&s, t),
            (BuiltTopology::CompleteBipartite(t), Shape::CompleteBipartite(s)) => assert_eq!(s, t),
            (BuiltTopology::CompleteMultipartite(t), Shape::CompleteMultipartite(s)) => {
                assert_eq!(s, t)
            }
            (BuiltTopology::ImplicitGnp(t), Shape::ImplicitGnp(s)) => assert_eq!(s, t),
            (BuiltTopology::ImplicitSbm(t), Shape::ImplicitSbm(s)) => assert_eq!(s, t),
            (BuiltTopology::Materialised(g), Shape::Csr(s)) => {
                assert!(!g.is_complete() && std::ptr::eq(s, g), "{label}")
            }
            (BuiltTopology::Materialised(g), Shape::Complete(s, Some(sg))) => {
                assert!(g.is_complete() && s.n() == g.num_vertices(), "{label}");
                assert!(std::ptr::eq(sg, g), "{label}")
            }
            (_, shape) => panic!("{label}: unexpected shape {shape:?}"),
        }
        // References forward; the wrapper that samples through itself is
        // opaque.
        assert_eq!((&built).shape(), shape, "{label}");
        assert_eq!(ScalarSampled(built).shape(), Shape::Opaque, "{label}");
    }
}

#[test]
fn local_majority_through_an_opaque_wrapper_matches_the_bare_family() {
    // An opaque wrapper counts as not complete, so local majority walks
    // its rows where the bare complete graph takes one popcount: the same
    // counts, hence the same run, seeded and caller-RNG, on both schedules.
    fn runs<T: Topology>(topo: T) -> Vec<RunResult> {
        let n = topo.n();
        let init = {
            let mut rng = StdRng::seed_from_u64(43);
            InitialCondition::BernoulliWithBias { delta: 0.02 }
                .sample_n(n, &mut rng)
                .expect("initial condition")
        };
        let protocol = ProtocolSpec::LocalMajority {
            tie_rule: TieRule::Random,
        };
        let mut results = Vec::new();
        for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
            let engine = Engine::new(&topo)
                .expect("engine")
                .with_schedule(schedule)
                .with_stopping(StoppingCondition::fixed_rounds(3))
                .with_trace(true);
            let seeded = engine.run_seeded(&protocol, init.clone(), MASTER_SEED);
            results.push(seeded.expect("seeded run"));
            let mut rng = StdRng::seed_from_u64(MASTER_SEED);
            results.push(engine.run(&protocol, init.clone(), &mut rng).expect("run"));
        }
        results
    }
    let complete = Complete::new(301).expect("complete");
    assert_eq!(runs(ScalarSampled(complete)), runs(complete), "complete");
    let graph = GraphSpec::ErdosRenyiGnp { n: 300, p: 0.2 }
        .generate(&mut StdRng::seed_from_u64(44))
        .expect("graph");
    assert_eq!(
        runs(ScalarSampled(CsrTopology::new(&graph))),
        runs(CsrTopology::new(&graph)),
        "csr"
    );
}

#[test]
fn an_opaque_wrapper_keeps_a_metered_round_off_the_lane() {
    // One metered seeded round: the unwrapped G(n, p) takes the draw-ahead
    // lane (and reports its occupancy), the `ScalarSampled` wrapper stays
    // on the scalar sampler — with the same output.
    fn metered_round<T: Topology>(topo: T, init: &Configuration) -> (Vec<Opinion>, Option<f64>) {
        let engine = Engine::new(topo)
            .expect("engine")
            .with_observer(MetricsObserver::new());
        let mut next = Vec::new();
        engine.step_seeded(&ProtocolSpec::BestOfThree, init, &mut next, MASTER_SEED, 0);
        (next, engine.observer().meter().lane_occupancy())
    }
    let gnp = ImplicitGnp::new(5_000, 0.5, 7).expect("gnp");
    let init = {
        let mut rng = StdRng::seed_from_u64(37);
        InitialCondition::BernoulliWithBias { delta: 0.1 }
            .sample_n(gnp.n(), &mut rng)
            .expect("initial condition")
    };
    let (lane_next, lane_occupancy) = metered_round(gnp, &init);
    let (scalar_next, scalar_occupancy) = metered_round(ScalarSampled(gnp), &init);
    assert_eq!(lane_next, scalar_next, "the wrapper changed the round");
    assert!(lane_occupancy.is_some(), "G(n, p) must take the lane");
    assert_eq!(
        scalar_occupancy, None,
        "ScalarSampled must not take the lane"
    );
}

// ---------------------------------------------------------------------------
// Route fingerprints: every route's output, folded per case into one `u64`
// and checked against a table recorded once.  The suites above compare
// routes with each other; this one pins them to fixed values, so a change
// that moves an entry changes what that route computes.
// ---------------------------------------------------------------------------

/// Vertex count of the fingerprint cases: just above one `CHUNK_SIZE`, so
/// every seeded synchronous round draws from two chunk streams.
const FINGERPRINT_N: usize = bo3_dynamics::parallel::CHUNK_SIZE + 104;

/// Rounds per fingerprint case: the partition window `[1, 3)` opens and
/// heals inside them.
const FINGERPRINT_ROUNDS: usize = 4;

/// Folds one word into a running fingerprint (SplitMix64's finaliser).
fn fold(h: u64, word: u64) -> u64 {
    let mut z = (h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One case's fingerprint: the trace's blue counts, the round count, the
/// winner, the adversary counters and the sampler's tries and accepts.
fn fingerprint(result: &RunResult, tries: u64, accepts: u64) -> u64 {
    let trace = result.trace.as_ref().expect("traced run");
    let mut h = trace
        .records()
        .iter()
        .fold(0, |h, r| fold(h, r.blue_count as u64));
    h = fold(h, result.rounds as u64);
    h = fold(
        h,
        match result.winner {
            None => 0,
            Some(Opinion::Red) => 1,
            Some(Opinion::Blue) => 2,
        },
    );
    if let Some(adv) = &result.adversary {
        for word in [
            adv.zealots as u64,
            adv.byzantine as u64,
            adv.dropped_samples,
            adv.partition_rounds,
        ] {
            h = fold(h, word);
        }
    }
    fold(fold(h, tries), accepts)
}

/// The routing matrix of [`routing_matrix`] on one topology, fingerprinted
/// case by case: both schedules × honest and the full adversary stack ×
/// Best-of-3, Best-of-2 (random tie) and local majority where a round of it
/// is allowed at any size (on `Shape::Csr`, and on an honest
/// `Shape::Complete`, where it is a popcount) × seeded and caller-RNG, each
/// on a fresh metered engine.
fn fingerprint_routes<T: Topology>(label: &str, topo: &T, table: &mut Vec<(String, u64)>) {
    let init = {
        let mut rng = StdRng::seed_from_u64(31);
        InitialCondition::BernoulliWithBias { delta: 0.05 }
            .sample_n(topo.n(), &mut rng)
            .expect("initial condition")
    };
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        for adversarial in [false, true] {
            let mut protocols = vec![
                ("best-of-3", ProtocolSpec::BestOfThree),
                (
                    "best-of-2-random",
                    ProtocolSpec::BestOfTwo {
                        tie_rule: TieRule::Random,
                    },
                ),
            ];
            let local_majority_allowed = match topo.shape() {
                Shape::Csr(_) => true,
                Shape::Complete(..) => !adversarial,
                _ => false,
            };
            if local_majority_allowed {
                protocols.push((
                    "local-majority",
                    ProtocolSpec::LocalMajority {
                        tie_rule: TieRule::Random,
                    },
                ));
            }
            for (name, protocol) in &protocols {
                for seeded in [true, false] {
                    let mut engine = Engine::new(topo)
                        .expect("engine")
                        .with_schedule(schedule)
                        .with_stopping(StoppingCondition::fixed_rounds(FINGERPRINT_ROUNDS))
                        .with_trace(true)
                        .with_observer(MetricsObserver::new());
                    if adversarial {
                        engine = engine.with_adversary(adversary_stack(topo.n()));
                    }
                    let result = if seeded {
                        engine.run_seeded(protocol, init.clone(), MASTER_SEED)
                    } else {
                        let mut rng = StdRng::seed_from_u64(MASTER_SEED);
                        engine.run(protocol, init.clone(), &mut rng)
                    }
                    .expect("run");
                    let meter = engine.observer().meter();
                    let case = format!(
                        "{label}/{}/{}/{name}/{}",
                        schedule.label(),
                        if adversarial { "adversarial" } else { "honest" },
                        if seeded { "seeded" } else { "caller" }
                    );
                    table.push((case, fingerprint(&result, meter.tries(), meter.accepts())));
                }
            }
        }
    }
}

/// Every case of the fingerprint table: the seven built `TopologySpec`s
/// plus a `ScalarSampled` G(n, p), so all seven `Shape`s are routed.
fn route_fingerprints() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    for (label, built) in &built_topologies_at(FINGERPRINT_N) {
        fingerprint_routes(label, built, &mut table);
    }
    let gnp = ImplicitGnp::new(FINGERPRINT_N, 0.3, 7).expect("gnp");
    fingerprint_routes("scalar-sampled gnp", &ScalarSampled(gnp), &mut table);
    table
}

/// Recorded once from the kernels' output; see the section comment.
#[rustfmt::skip]
const RECORDED_FINGERPRINTS: &[(&str, u64)] = &[
    ("complete/synchronous/honest/best-of-3/seeded", 0xf30e68a870786285),
    ("complete/synchronous/honest/best-of-3/caller", 0x4e9a13e27a971c1b),
    ("complete/synchronous/honest/best-of-2-random/seeded", 0x7fc9a6d5f7a0a344),
    ("complete/synchronous/honest/best-of-2-random/caller", 0xe43d911e3428ab5f),
    ("complete/synchronous/honest/local-majority/seeded", 0xeb38c10dc952ff28),
    ("complete/synchronous/honest/local-majority/caller", 0xeb38c10dc952ff28),
    ("complete/synchronous/adversarial/best-of-3/seeded", 0x80133acf9560759d),
    ("complete/synchronous/adversarial/best-of-3/caller", 0x106c751d73827b1d),
    ("complete/synchronous/adversarial/best-of-2-random/seeded", 0x61fb8eae3a020277),
    ("complete/synchronous/adversarial/best-of-2-random/caller", 0x0095fcccdce760f4),
    ("complete/asynchronous/honest/best-of-3/seeded", 0x908d94ac8954d08c),
    ("complete/asynchronous/honest/best-of-3/caller", 0xf31550475b8a3767),
    ("complete/asynchronous/honest/best-of-2-random/seeded", 0x702f37f3ade42d14),
    ("complete/asynchronous/honest/best-of-2-random/caller", 0x4a0b35f6cca1d744),
    ("complete/asynchronous/honest/local-majority/seeded", 0xeb38c10dc952ff28),
    ("complete/asynchronous/honest/local-majority/caller", 0xeb38c10dc952ff28),
    ("complete/asynchronous/adversarial/best-of-3/seeded", 0xedbd53aa5aa51cec),
    ("complete/asynchronous/adversarial/best-of-3/caller", 0x89b6b22a9ee1e70e),
    ("complete/asynchronous/adversarial/best-of-2-random/seeded", 0xf88f6b9b1a760e15),
    ("complete/asynchronous/adversarial/best-of-2-random/caller", 0x77a9633db2bd2dae),
    ("bipartite/synchronous/honest/best-of-3/seeded", 0x60fe3ca380b1af44),
    ("bipartite/synchronous/honest/best-of-3/caller", 0xdaac6e85a67d647a),
    ("bipartite/synchronous/honest/best-of-2-random/seeded", 0x470ccb3d775098d5),
    ("bipartite/synchronous/honest/best-of-2-random/caller", 0xf92202b342cd08b9),
    ("bipartite/synchronous/adversarial/best-of-3/seeded", 0x5f66c8d969dcefaa),
    ("bipartite/synchronous/adversarial/best-of-3/caller", 0xeca4de292a441cea),
    ("bipartite/synchronous/adversarial/best-of-2-random/seeded", 0x6d97979db018a856),
    ("bipartite/synchronous/adversarial/best-of-2-random/caller", 0xe06901958c7cdeed),
    ("bipartite/asynchronous/honest/best-of-3/seeded", 0xe1a2d06b6368b71a),
    ("bipartite/asynchronous/honest/best-of-3/caller", 0xe383c223ee3013d9),
    ("bipartite/asynchronous/honest/best-of-2-random/seeded", 0x29360821bb6c4b2c),
    ("bipartite/asynchronous/honest/best-of-2-random/caller", 0xb5ad13097438674e),
    ("bipartite/asynchronous/adversarial/best-of-3/seeded", 0xf9b250938be2f41d),
    ("bipartite/asynchronous/adversarial/best-of-3/caller", 0x74fcfb4c19c8a596),
    ("bipartite/asynchronous/adversarial/best-of-2-random/seeded", 0x6ae9f7ca63ba5cc2),
    ("bipartite/asynchronous/adversarial/best-of-2-random/caller", 0x5e63d197f5a69d5d),
    ("multipartite/synchronous/honest/best-of-3/seeded", 0x56e963be6bd7ae7a),
    ("multipartite/synchronous/honest/best-of-3/caller", 0x2e8cf0f20630156a),
    ("multipartite/synchronous/honest/best-of-2-random/seeded", 0xb5012600c907f960),
    ("multipartite/synchronous/honest/best-of-2-random/caller", 0xf57ca1077c9d9252),
    ("multipartite/synchronous/adversarial/best-of-3/seeded", 0x4bc91f44fc6b67ce),
    ("multipartite/synchronous/adversarial/best-of-3/caller", 0xb7fd52ffa2349ede),
    ("multipartite/synchronous/adversarial/best-of-2-random/seeded", 0xb19d0c50b7d50a03),
    ("multipartite/synchronous/adversarial/best-of-2-random/caller", 0x169b4ffb9e904d7b),
    ("multipartite/asynchronous/honest/best-of-3/seeded", 0x719d551167046e61),
    ("multipartite/asynchronous/honest/best-of-3/caller", 0x460a48b5a337aafb),
    ("multipartite/asynchronous/honest/best-of-2-random/seeded", 0x24162478b60ebb28),
    ("multipartite/asynchronous/honest/best-of-2-random/caller", 0xef5df0147a379382),
    ("multipartite/asynchronous/adversarial/best-of-3/seeded", 0x0047cdbd3d6d917b),
    ("multipartite/asynchronous/adversarial/best-of-3/caller", 0xaf50f7aa049d8c4e),
    ("multipartite/asynchronous/adversarial/best-of-2-random/seeded", 0x35d1d736205e093a),
    ("multipartite/asynchronous/adversarial/best-of-2-random/caller", 0xd5f3be4bbfba7273),
    ("gnp/synchronous/honest/best-of-3/seeded", 0x3678628b0057e415),
    ("gnp/synchronous/honest/best-of-3/caller", 0xa48728963f940fab),
    ("gnp/synchronous/honest/best-of-2-random/seeded", 0x45210019a56cb065),
    ("gnp/synchronous/honest/best-of-2-random/caller", 0xd94a062cf6da98fe),
    ("gnp/synchronous/adversarial/best-of-3/seeded", 0x9f0cd6c8a29adf23),
    ("gnp/synchronous/adversarial/best-of-3/caller", 0x4a0261eb271fdd4a),
    ("gnp/synchronous/adversarial/best-of-2-random/seeded", 0x10b2fb3dcb475926),
    ("gnp/synchronous/adversarial/best-of-2-random/caller", 0xcdf35cb7894c4d20),
    ("gnp/asynchronous/honest/best-of-3/seeded", 0x4aa0aaa5d0bf0c82),
    ("gnp/asynchronous/honest/best-of-3/caller", 0x899c3dcf6ac9d7aa),
    ("gnp/asynchronous/honest/best-of-2-random/seeded", 0x18caf5f1534869ed),
    ("gnp/asynchronous/honest/best-of-2-random/caller", 0xbf9eab759a76897c),
    ("gnp/asynchronous/adversarial/best-of-3/seeded", 0x2e23ec0c8fe8d0a9),
    ("gnp/asynchronous/adversarial/best-of-3/caller", 0xf2740183caf1ca5b),
    ("gnp/asynchronous/adversarial/best-of-2-random/seeded", 0x3801acc720b1bf17),
    ("gnp/asynchronous/adversarial/best-of-2-random/caller", 0x8e099b73146c8097),
    ("sbm/synchronous/honest/best-of-3/seeded", 0xf3e7405cc858ea76),
    ("sbm/synchronous/honest/best-of-3/caller", 0xc39e8986b1bdacb1),
    ("sbm/synchronous/honest/best-of-2-random/seeded", 0xa93e47fc212d5f8b),
    ("sbm/synchronous/honest/best-of-2-random/caller", 0x2d7ff2518eb9b1c6),
    ("sbm/synchronous/adversarial/best-of-3/seeded", 0x9b54cc8afcc9a557),
    ("sbm/synchronous/adversarial/best-of-3/caller", 0x00ea23ca02f5adaa),
    ("sbm/synchronous/adversarial/best-of-2-random/seeded", 0x81ca6639ec0c811f),
    ("sbm/synchronous/adversarial/best-of-2-random/caller", 0x8841cb44563e61b4),
    ("sbm/asynchronous/honest/best-of-3/seeded", 0xdd77884d1dc34820),
    ("sbm/asynchronous/honest/best-of-3/caller", 0xcd7786f33de600fd),
    ("sbm/asynchronous/honest/best-of-2-random/seeded", 0x3a3fa92097bd166a),
    ("sbm/asynchronous/honest/best-of-2-random/caller", 0x8b517a3dd1769f82),
    ("sbm/asynchronous/adversarial/best-of-3/seeded", 0xcd4091dad5765e62),
    ("sbm/asynchronous/adversarial/best-of-3/caller", 0x769fc49a6dee6c33),
    ("sbm/asynchronous/adversarial/best-of-2-random/seeded", 0x744b8bc62b533dd4),
    ("sbm/asynchronous/adversarial/best-of-2-random/caller", 0x17678e2409e0009f),
    ("materialised gnp/synchronous/honest/best-of-3/seeded", 0xbfaf6154d25a393c),
    ("materialised gnp/synchronous/honest/best-of-3/caller", 0xa6b348ccaf551ae0),
    ("materialised gnp/synchronous/honest/best-of-2-random/seeded", 0x964f17abb23cc23c),
    ("materialised gnp/synchronous/honest/best-of-2-random/caller", 0x9f856d525d2a745d),
    ("materialised gnp/synchronous/honest/local-majority/seeded", 0x07816750421ce43a),
    ("materialised gnp/synchronous/honest/local-majority/caller", 0x44cbddb97ae7dc48),
    ("materialised gnp/synchronous/adversarial/best-of-3/seeded", 0xd0c94400a25098cc),
    ("materialised gnp/synchronous/adversarial/best-of-3/caller", 0x43070a0309d92ba6),
    ("materialised gnp/synchronous/adversarial/best-of-2-random/seeded", 0x56529092c5953d40),
    ("materialised gnp/synchronous/adversarial/best-of-2-random/caller", 0x1c0fcba0505dcda9),
    ("materialised gnp/synchronous/adversarial/local-majority/seeded", 0xb621a8c51589b6b7),
    ("materialised gnp/synchronous/adversarial/local-majority/caller", 0x3f80f913f95ee86e),
    ("materialised gnp/asynchronous/honest/best-of-3/seeded", 0x608776bb932fecbb),
    ("materialised gnp/asynchronous/honest/best-of-3/caller", 0x462bbc9b22de0146),
    ("materialised gnp/asynchronous/honest/best-of-2-random/seeded", 0x4275b773b822f42e),
    ("materialised gnp/asynchronous/honest/best-of-2-random/caller", 0xccacc154cd9be5f2),
    ("materialised gnp/asynchronous/honest/local-majority/seeded", 0xdf770d430478eb1c),
    ("materialised gnp/asynchronous/honest/local-majority/caller", 0xa23412ab8f6c8358),
    ("materialised gnp/asynchronous/adversarial/best-of-3/seeded", 0x1f43c96807f4c91a),
    ("materialised gnp/asynchronous/adversarial/best-of-3/caller", 0x94502d871f90eb7c),
    ("materialised gnp/asynchronous/adversarial/best-of-2-random/seeded", 0xefdaf93f95917e98),
    ("materialised gnp/asynchronous/adversarial/best-of-2-random/caller", 0xea9e2d22bca0dee7),
    ("materialised gnp/asynchronous/adversarial/local-majority/seeded", 0xebda36b18156ad1c),
    ("materialised gnp/asynchronous/adversarial/local-majority/caller", 0xee74047c982129b8),
    ("materialised complete/synchronous/honest/best-of-3/seeded", 0xf30e68a870786285),
    ("materialised complete/synchronous/honest/best-of-3/caller", 0x4e9a13e27a971c1b),
    ("materialised complete/synchronous/honest/best-of-2-random/seeded", 0x7fc9a6d5f7a0a344),
    ("materialised complete/synchronous/honest/best-of-2-random/caller", 0xe43d911e3428ab5f),
    ("materialised complete/synchronous/honest/local-majority/seeded", 0xeb38c10dc952ff28),
    ("materialised complete/synchronous/honest/local-majority/caller", 0xeb38c10dc952ff28),
    ("materialised complete/synchronous/adversarial/best-of-3/seeded", 0x80133acf9560759d),
    ("materialised complete/synchronous/adversarial/best-of-3/caller", 0x106c751d73827b1d),
    ("materialised complete/synchronous/adversarial/best-of-2-random/seeded", 0x61fb8eae3a020277),
    ("materialised complete/synchronous/adversarial/best-of-2-random/caller", 0x0095fcccdce760f4),
    ("materialised complete/asynchronous/honest/best-of-3/seeded", 0x908d94ac8954d08c),
    ("materialised complete/asynchronous/honest/best-of-3/caller", 0xf31550475b8a3767),
    ("materialised complete/asynchronous/honest/best-of-2-random/seeded", 0x702f37f3ade42d14),
    ("materialised complete/asynchronous/honest/best-of-2-random/caller", 0x4a0b35f6cca1d744),
    ("materialised complete/asynchronous/honest/local-majority/seeded", 0xeb38c10dc952ff28),
    ("materialised complete/asynchronous/honest/local-majority/caller", 0xeb38c10dc952ff28),
    ("materialised complete/asynchronous/adversarial/best-of-3/seeded", 0xedbd53aa5aa51cec),
    ("materialised complete/asynchronous/adversarial/best-of-3/caller", 0x89b6b22a9ee1e70e),
    ("materialised complete/asynchronous/adversarial/best-of-2-random/seeded", 0xf88f6b9b1a760e15),
    ("materialised complete/asynchronous/adversarial/best-of-2-random/caller", 0x77a9633db2bd2dae),
    ("scalar-sampled gnp/synchronous/honest/best-of-3/seeded", 0x5a7276db83eb2198),
    ("scalar-sampled gnp/synchronous/honest/best-of-3/caller", 0xca1010b84c824e12),
    ("scalar-sampled gnp/synchronous/honest/best-of-2-random/seeded", 0x6e62278a77a1e0b6),
    ("scalar-sampled gnp/synchronous/honest/best-of-2-random/caller", 0xef9727455dcdbb0f),
    ("scalar-sampled gnp/synchronous/adversarial/best-of-3/seeded", 0x85e46b9472b2a9ad),
    ("scalar-sampled gnp/synchronous/adversarial/best-of-3/caller", 0xcc64509ed580234e),
    ("scalar-sampled gnp/synchronous/adversarial/best-of-2-random/seeded", 0x2ae45bbea8e84dce),
    ("scalar-sampled gnp/synchronous/adversarial/best-of-2-random/caller", 0x990545771958ad97),
    ("scalar-sampled gnp/asynchronous/honest/best-of-3/seeded", 0xcb2cac5f169f7fa3),
    ("scalar-sampled gnp/asynchronous/honest/best-of-3/caller", 0x836953ed9c53d29c),
    ("scalar-sampled gnp/asynchronous/honest/best-of-2-random/seeded", 0xf685bcaff2a25a36),
    ("scalar-sampled gnp/asynchronous/honest/best-of-2-random/caller", 0xd347e5c1aa1fcb97),
    ("scalar-sampled gnp/asynchronous/adversarial/best-of-3/seeded", 0x18764d490412ebb2),
    ("scalar-sampled gnp/asynchronous/adversarial/best-of-3/caller", 0x145e2a40b36f378b),
    ("scalar-sampled gnp/asynchronous/adversarial/best-of-2-random/seeded", 0xe2ca8fa83b512a6b),
    ("scalar-sampled gnp/asynchronous/adversarial/best-of-2-random/caller", 0x2850e9206b911371),
];

#[test]
fn route_fingerprints_match_the_recorded_table() {
    let table = route_fingerprints();
    let mut mismatched = table.len() != RECORDED_FINGERPRINTS.len();
    for (i, (case, value)) in table.iter().enumerate() {
        if RECORDED_FINGERPRINTS.get(i) != Some(&(case.as_str(), *value)) {
            eprintln!("mismatch: {case} = {value:#018x}");
            mismatched = true;
        }
    }
    if mismatched {
        eprintln!("recomputed table:");
        for (case, value) in &table {
            eprintln!("    (\"{case}\", {value:#018x}),");
        }
        panic!("route fingerprints differ from the recorded table");
    }
}
