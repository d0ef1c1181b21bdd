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
//!    hides the `ProtocolKind` and forces the `dyn` path) — on three graph
//!    families.
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

/// A protocol's display name, its kernel-path build and a `DynOnly` copy.
type ProtocolPair = (
    &'static str,
    Box<dyn Protocol + Sync>,
    Box<dyn Protocol + Sync>,
);

/// The built-in protocols, each alongside a `DynOnly`-wrapped copy.
fn protocol_pairs() -> Vec<ProtocolPair> {
    vec![
        (
            "voter",
            Box::new(Voter::new()),
            Box::new(DynOnly(Voter::new())),
        ),
        (
            "best-of-2 (keep)",
            Box::new(BestOfTwo::keep_own()),
            Box::new(DynOnly(BestOfTwo::keep_own())),
        ),
        (
            "best-of-2 (random)",
            Box::new(BestOfTwo::new(TieRule::Random)),
            Box::new(DynOnly(BestOfTwo::new(TieRule::Random))),
        ),
        (
            "best-of-3",
            Box::new(BestOfThree::new()),
            Box::new(DynOnly(BestOfThree::new())),
        ),
        (
            "best-of-6 (random)",
            Box::new(BestOfK::new(6, TieRule::Random)),
            Box::new(DynOnly(BestOfK::new(6, TieRule::Random))),
        ),
        (
            "best-of-5 (keep)",
            Box::new(BestOfK::new(5, TieRule::KeepOwn)),
            Box::new(DynOnly(BestOfK::new(5, TieRule::KeepOwn))),
        ),
        (
            "local-majority",
            Box::new(LocalMajority::keep_own()),
            Box::new(DynOnly(LocalMajority::keep_own())),
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

#[test]
fn kernel_and_dyn_paths_are_bit_identical_given_the_same_rng() {
    for (graph_name, graph) in &graphs() {
        let init = biased_init(graph, 3);
        let sim = Engine::on_graph(graph)
            .expect("engine")
            .with_stopping(StoppingCondition::fixed_rounds(10))
            .with_trace(true);
        for (name, kernel_side, dyn_side) in &protocol_pairs() {
            // Identically seeded caller RNGs: the two paths must consume
            // them draw-for-draw and end bit-identical.
            let mut rng_kernel = StdRng::seed_from_u64(MASTER_SEED);
            let mut rng_dyn = StdRng::seed_from_u64(MASTER_SEED);
            let via_kernel = sim
                .run(kernel_side.as_ref(), init.clone(), &mut rng_kernel)
                .expect("kernel-path run");
            let via_dyn = sim
                .run(dyn_side.as_ref(), init.clone(), &mut rng_dyn)
                .expect("dyn-path run");
            assert_eq!(
                via_kernel, via_dyn,
                "{name} on {graph_name}: kernel and dyn runs diverged"
            );
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
    for (name, kernel_side, dyn_side) in &protocol_pairs() {
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut next_a = Vec::new();
        let mut next_b = Vec::new();
        for _ in 0..5 {
            sim.step_synchronous(kernel_side.as_ref(), &init, &mut next_a, &mut rng_a);
            sim.step_synchronous(dyn_side.as_ref(), &init, &mut next_b, &mut rng_b);
            assert_eq!(next_a, next_b, "{name}: one-step outputs diverged");
        }
    }
}

#[test]
fn dyn_fallback_path_honours_the_seeded_determinism_contract() {
    // The determinism regression suite pins sequential == parallel for the
    // built-ins (kernel path); this pins the same contract for protocols
    // without a kernel — the `dyn` fallback that custom registry protocols
    // take — including sequential `run_seeded` against the parallel stepper.
    for (graph_name, graph) in &graphs() {
        let init = biased_init(graph, 5);
        for (name, _, dyn_side) in &protocol_pairs() {
            let sequential = Engine::on_graph(graph)
                .expect("engine")
                .with_stopping(StoppingCondition::fixed_rounds(8))
                .with_trace(true)
                .run_seeded(dyn_side.as_ref(), init.clone(), MASTER_SEED)
                .expect("sequential dyn run");
            for threads in [1usize, 4] {
                let parallel = Engine::on_graph(graph)
                    .expect("engine")
                    .with_threads(threads)
                    .with_stopping(StoppingCondition::fixed_rounds(8))
                    .with_trace(true)
                    .run_seeded(dyn_side.as_ref(), init.clone(), MASTER_SEED)
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
        let via_graph_engine = |protocol: &dyn Protocol| {
            Engine::on_graph(graph)
                .expect("engine")
                .with_stopping(StoppingCondition::fixed_rounds(8))
                .with_trace(true)
                .run_seeded(protocol, init.clone(), MASTER_SEED)
                .expect("seeded run")
        };
        let via_topology_engine = |kind: ProtocolKind, threads: usize| {
            Engine::new(bo3_graph::CsrTopology::new(graph))
                .expect("engine")
                .with_threads(threads)
                .with_stopping(StoppingCondition::fixed_rounds(8))
                .with_trace(true)
                .run_seeded_kind(kind, init.clone(), MASTER_SEED)
                .expect("topology run")
        };
        for (name, kernel_side, _) in &protocol_pairs() {
            let kind = kernel_side.kind().expect("built-in protocol");
            let reference = via_graph_engine(kernel_side.as_ref());
            for threads in [1usize, 4] {
                assert_eq!(
                    reference,
                    via_topology_engine(kind, threads),
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
    for (name, kernel_side, _) in &protocol_pairs() {
        let kind = kernel_side.kind().expect("built-in protocol");
        let materialised = Engine::on_graph(&graph)
            .expect("engine")
            .with_stopping(StoppingCondition::fixed_rounds(6))
            .with_trace(true)
            .run_seeded(kernel_side.as_ref(), init.clone(), MASTER_SEED)
            .expect("materialised run");
        let implicit = Engine::new(bo3_graph::Complete::new(n).expect("topology"))
            .expect("engine")
            .with_stopping(StoppingCondition::fixed_rounds(6))
            .with_trace(true)
            .run_seeded_kind(kind, init.clone(), MASTER_SEED)
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
    let kind = ProtocolKind::LocalMajority(TieRule::KeepOwn);
    let materialised = Engine::on_graph(&graph)
        .expect("engine")
        .with_stopping(StoppingCondition::fixed_rounds(4))
        .with_trace(true)
        .run_seeded(&LocalMajority::keep_own(), init.clone(), MASTER_SEED)
        .expect("materialised run");
    let implicit = Engine::new(topo)
        .expect("engine")
        .with_stopping(StoppingCondition::fixed_rounds(4))
        .with_trace(true)
        .run_seeded_kind(kind, init, MASTER_SEED)
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
        .run(&BestOfThree::new(), init.clone(), &mut rng_kernel)
        .expect("kernel-path run");
    assert!(via_kernel.reached_consensus(), "scenario must converge");
    let mut rng_dyn = StdRng::seed_from_u64(MASTER_SEED);
    let via_dyn = sim
        .run(&DynOnly(BestOfThree::new()), init.clone(), &mut rng_dyn)
        .expect("dyn-path run");
    assert_eq!(via_kernel, via_dyn, "kernel vs dyn convergence diverged");

    let seq = sim
        .run_seeded(&BestOfThree::new(), init.clone(), MASTER_SEED)
        .expect("sequential kernel run");
    assert!(seq.reached_consensus(), "seeded scenario must converge");
    let par = Engine::on_graph(&graph)
        .expect("engine")
        .with_threads(8)
        .with_trace(true)
        .run_seeded(&BestOfThree::new(), init, MASTER_SEED)
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
        let protocol = BestOfThree::new();
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
    let specs = [
        ("complete", TopologySpec::Complete { n: SHAPE_N }),
        (
            "bipartite",
            TopologySpec::CompleteBipartite { a: 500, b: 700 },
        ),
        (
            "multipartite",
            TopologySpec::CompleteMultipartite {
                blocks: vec![300, 400, 500],
            },
        ),
        ("gnp", TopologySpec::ImplicitGnp { n: SHAPE_N, p: 0.3 }),
        (
            "sbm",
            TopologySpec::ImplicitSbm {
                n: SHAPE_N,
                blocks: 2,
                p_in: 0.4,
                p_out: 0.1,
            },
        ),
        (
            "materialised gnp",
            TopologySpec::Materialised(GraphSpec::ErdosRenyiGnp {
                n: SHAPE_N,
                p: 0.05,
            }),
        ),
        (
            "materialised complete",
            TopologySpec::Materialised(GraphSpec::Complete { n: SHAPE_N }),
        ),
    ];
    specs
        .into_iter()
        .map(|(label, spec)| (label, spec.build(MASTER_SEED).expect("topology builds")))
        .collect()
}

/// Every adversary mechanism at once.
fn adversary_stack() -> Adversary {
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
        SHAPE_N,
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
    let mut protocols: Vec<Box<dyn Protocol>> = vec![
        Box::new(BestOfThree::new()),
        Box::new(BestOfTwo::new(TieRule::Random)),
    ];
    let expensive_rows = matches!(
        topo.shape(),
        Shape::ImplicitGnp(_) | Shape::ImplicitSbm(_) | Shape::Opaque
    );
    if !expensive_rows {
        protocols.push(Box::new(LocalMajority::new(TieRule::Random)));
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
                engine = engine.with_adversary(adversary_stack());
            }
            for protocol in &protocols {
                let kind = protocol.kind().expect("built-in protocol");
                results.push(
                    engine
                        .run_seeded_kind(kind, init.clone(), MASTER_SEED)
                        .expect("seeded run"),
                );
                let mut rng = StdRng::seed_from_u64(MASTER_SEED);
                results.push(
                    engine
                        .run(protocol.as_ref(), init.clone(), &mut rng)
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
            (BuiltTopology::Complete(t), Shape::Complete(s)) => assert_eq!(&s, t),
            (BuiltTopology::CompleteBipartite(t), Shape::CompleteBipartite(s)) => assert_eq!(s, t),
            (BuiltTopology::CompleteMultipartite(t), Shape::CompleteMultipartite(s)) => {
                assert_eq!(s, t)
            }
            (BuiltTopology::ImplicitGnp(t), Shape::ImplicitGnp(s)) => assert_eq!(s, t),
            (BuiltTopology::ImplicitSbm(t), Shape::ImplicitSbm(s)) => assert_eq!(s, t),
            (BuiltTopology::Materialised(g), Shape::Csr(s)) => {
                assert!(!g.is_complete() && std::ptr::eq(s, g), "{label}")
            }
            (BuiltTopology::Materialised(g), Shape::Complete(s)) => {
                assert!(g.is_complete() && s.n() == g.num_vertices(), "{label}")
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
        let protocol = LocalMajority::new(TieRule::Random);
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
        engine.step_seeded_kind(ProtocolKind::BestOfThree, init, &mut next, MASTER_SEED, 0);
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
