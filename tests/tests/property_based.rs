//! Property-based tests (proptest) on the invariants the whole stack relies
//! on: CSR validity of every generator, configuration bookkeeping,
//! packed-snapshot/configuration agreement, majority monotonicity, the
//! sprinkling coupling, and recursion monotonicity.

use bo3_core::prelude::*;
use bo3_dag::colouring::colour_dag;
use bo3_dag::sprinkling::sprinkle;
use bo3_dag::voting_dag::VotingDag;
use bo3_theory::binomial::{best_of_k_blue_odd, best_of_three_blue};
use bo3_theory::recursion::{ideal_step, sprinkling_step};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A strategy over small random graph specifications that always produce a
/// connected graph with no isolated vertices.
fn graph_spec_strategy() -> impl Strategy<Value = GraphSpec> {
    prop_oneof![
        (3usize..40).prop_map(|n| GraphSpec::Complete { n }),
        (3usize..60).prop_map(|n| GraphSpec::Cycle { n }),
        (4usize..40).prop_map(|n| GraphSpec::Wheel { n }),
        (2usize..12, 2usize..12).prop_map(|(a, b)| GraphSpec::CompleteBipartite { a, b }),
        (1usize..7).prop_map(|dim| GraphSpec::Hypercube { dim }),
        (3usize..8, 3usize..8).prop_map(|(r, c)| GraphSpec::Torus2d { rows: r, cols: c }),
        (3usize..10, 0usize..4).prop_map(|(clique, bridge)| GraphSpec::Barbell { clique, bridge }),
        (2usize..20, 1usize..30, 1usize..3).prop_map(|(core, periphery, attach)| {
            GraphSpec::CorePeriphery {
                core,
                periphery,
                attach: attach.min(core),
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_graphs_satisfy_csr_invariants(spec in graph_spec_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = spec.generate(&mut rng).unwrap();
        // Round-tripping through the validating constructor re-checks
        // sortedness, symmetry, self-loop freedom and offset consistency.
        let (n, offsets, neighbours) = g.clone().into_csr();
        let rebuilt = CsrGraph::from_csr(n, offsets, neighbours).unwrap();
        prop_assert_eq!(rebuilt, g);
    }

    #[test]
    fn builder_matches_a_btreeset_reference_in_any_push_order(
        n in 0usize..60,
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), 1usize..4), 0..250),
        span in any::<u64>(),
        order in 0u8..4,
    ) {
        // Endpoints come from `0..span`, so vertices from `span` up (and
        // any the draws miss) are isolated; a draw pushes its edge once to
        // three times, in both orientations.
        let span = if n == 0 { 0 } else { 1 + (span % n as u64) };
        let mut edges = Vec::new();
        for &(a, b, copies) in &raw {
            if span < 2 {
                break;
            }
            let (u, v) = ((a % span) as usize, (b % span) as usize);
            if u != v {
                for copy in 0..copies {
                    edges.push(if copy % 2 == 0 { (u, v) } else { (v, u) });
                }
            }
        }
        match order {
            // The skip-sampling generator's order: larger endpoint first,
            // then the smaller one, each ascending, every pair once.
            0 => {
                for e in &mut edges {
                    *e = (e.0.max(e.1), e.0.min(e.1));
                }
                edges.sort_unstable();
                edges.dedup();
            }
            1 => edges.reverse(),
            // The block models' order: smaller endpoint first, then the
            // larger one, each ascending, duplicates kept.
            3 => {
                for e in &mut edges {
                    *e = (e.0.min(e.1), e.0.max(e.1));
                }
                edges.sort_unstable();
            }
            _ => {}
        }

        let mut reference = vec![std::collections::BTreeSet::new(); n];
        for &(u, v) in &edges {
            reference[u].insert(v);
            reference[v].insert(u);
        }
        let mut offsets = vec![0usize];
        let mut neighbours = Vec::new();
        for row in &reference {
            neighbours.extend(row.iter().map(|&w| w as u32));
            offsets.push(neighbours.len());
        }

        let g = bo3_graph::GraphBuilder::from_edge_list(n, &edges).unwrap();
        let (got_offsets, got_neighbours) = g.as_csr();
        prop_assert_eq!(got_offsets, offsets.as_slice());
        prop_assert_eq!(got_neighbours, neighbours.as_slice());
        prop_assert_eq!(CsrGraph::from_csr(n, offsets, neighbours).unwrap(), g);
    }

    #[test]
    fn configuration_counts_stay_consistent(ops in proptest::collection::vec((0usize..50, any::<bool>()), 1..200)) {
        let mut cfg = Configuration::all_red(50);
        for (v, blue) in ops {
            cfg.set(v, if blue { Opinion::Blue } else { Opinion::Red });
            let recount = cfg.as_slice().iter().filter(|o| o.is_blue()).count();
            prop_assert_eq!(recount, cfg.blue_count());
            prop_assert_eq!(cfg.blue_count() + cfg.red_count(), 50);
        }
    }

    #[test]
    fn majority_maps_are_monotone_and_bounded(p in 0.0f64..1.0, q in 0.0f64..1.0) {
        let (lo, hi) = if p <= q { (p, q) } else { (q, p) };
        // Monotonicity in the input probability.
        prop_assert!(best_of_three_blue(lo) <= best_of_three_blue(hi) + 1e-12);
        prop_assert!(best_of_k_blue_odd(5, lo) <= best_of_k_blue_odd(5, hi) + 1e-12);
        // Range stays inside [0, 1].
        for x in [lo, hi] {
            let y = best_of_three_blue(x);
            prop_assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn sprinkling_recursion_dominates_ideal_recursion(p in 0.0f64..0.5, eps in 0.0f64..0.2) {
        prop_assert!(sprinkling_step(p, eps) + 1e-12 >= ideal_step(p));
        // And it is monotone in eps.
        prop_assert!(sprinkling_step(p, eps) <= sprinkling_step(p, eps + 0.05) + 1e-12);
    }

    #[test]
    fn initial_condition_exact_count_is_exact(n in 1usize..200, blue_frac in 0.0f64..1.0, seed in any::<u64>()) {
        let n = n.max(2);
        let blue = ((n as f64) * blue_frac) as usize;
        let g = bo3_graph::generators::complete(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = InitialCondition::ExactCount { blue }.sample(&g, &mut rng).unwrap();
        prop_assert_eq!(cfg.blue_count(), blue);
        prop_assert_eq!(cfg.len(), n);
    }

    #[test]
    fn sprinkled_dags_are_collision_free_and_dominate(
        n in 3usize..12,
        height in 1usize..5,
        seed in any::<u64>(),
        p_blue in 0.0f64..1.0,
    ) {
        let g = bo3_graph::generators::complete(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = VotingDag::sample(&g, 0, height, &mut rng).unwrap();
        let sprinkled = sprinkle(&dag, height).unwrap();
        prop_assert!(sprinkled.is_collision_free());
        let leaves: Vec<Opinion> = (0..dag.num_leaves())
            .map(|i| {
                // Deterministic pseudo-random colouring derived from the seed.
                let x = (seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64 * 1442695040888963407)) as f64
                    / u64::MAX as f64;
                if x < p_blue { Opinion::Blue } else { Opinion::Red }
            })
            .collect();
        let base = colour_dag(&dag, &leaves).unwrap();
        let prime = sprinkled.colour(&leaves).unwrap();
        for t in 0..=dag.height() {
            for i in 0..dag.level(t).len() {
                prop_assert!(base.colours[t][i].as_value() <= prime.colours[t][i].as_value());
            }
        }
    }

    #[test]
    fn packed_snapshot_matches_unpacked_configuration(blues in proptest::collection::vec(any::<bool>(), 0..300)) {
        let opinions: Vec<Opinion> = blues
            .iter()
            .map(|&b| if b { Opinion::Blue } else { Opinion::Red })
            .collect();
        let cfg = Configuration::new(opinions.clone());
        let snap = PackedSnapshot::from_opinions(&opinions);
        prop_assert_eq!(snap.len(), cfg.len());
        prop_assert_eq!(snap.blue_count(), cfg.blue_count());
        prop_assert!((snap.blue_fraction() - cfg.blue_fraction()).abs() < 1e-12);
        for v in 0..cfg.len() {
            prop_assert_eq!(snap.get(v), cfg.get(v));
            prop_assert_eq!(snap.is_blue(v), cfg.get(v).is_blue());
        }
    }

    #[test]
    fn packed_snapshot_tracks_configuration_under_mutation(
        n in 1usize..200,
        ops in proptest::collection::vec((any::<u64>(), any::<bool>()), 1..150),
    ) {
        let mut cfg = Configuration::all_red(n);
        let mut snap = PackedSnapshot::all_red(n);
        prop_assert_eq!(snap.blue_count(), 0);
        for (raw_v, blue) in ops {
            let v = (raw_v % n as u64) as usize;
            let opinion = if blue { Opinion::Blue } else { Opinion::Red };
            cfg.set(v, opinion);
            snap.set(v, opinion);
            prop_assert_eq!(snap.blue_count(), cfg.blue_count());
            prop_assert_eq!(snap.get(v), cfg.get(v));
        }
        // Repacking from the mutated configuration reproduces the same bits.
        let mut repacked = PackedSnapshot::all_red(0);
        repacked.repack_from(cfg.as_slice());
        prop_assert_eq!(repacked, snap);
    }

    #[test]
    fn implicit_gnp_matches_the_materialized_generator_distributionally(
        n in 60usize..160,
        p_milli in 150u32..850,
        seed in any::<u64>(),
    ) {
        use bo3_graph::{ImplicitGnp, Topology};
        let p = p_milli as f64 / 1000.0;
        let topo = ImplicitGnp::new(n, p, seed).unwrap();
        let g = topo.materialize().unwrap();

        // The frozen edge set satisfies every CSR invariant.
        let (nn, offsets, neighbours) = g.clone().into_csr();
        prop_assert_eq!(CsrGraph::from_csr(nn, offsets, neighbours).unwrap(), g.clone());

        // Exact agreement between the implicit views and the materialisation.
        for v in 0..n {
            prop_assert_eq!(topo.degree(v), g.degree(v));
        }

        // Distributional agreement with the materialised erdos_renyi_gnp
        // generator: both draw Binomial(C(n,2), p) edge counts, so the two
        // realisations must sit within a few standard deviations of the
        // shared mean (5.5 sigma each side keeps the flake rate negligible
        // across the proptest case budget).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let reference = bo3_graph::generators::erdos_renyi_gnp(n, p, &mut rng).unwrap();
        let pairs = (n * (n - 1) / 2) as f64;
        let mean = p * pairs;
        let sd = (pairs * p * (1.0 - p)).sqrt();
        for (label, edges) in [("implicit", g.num_edges()), ("materialized", reference.num_edges())] {
            prop_assert!(
                (edges as f64 - mean).abs() <= 5.5 * sd + 1.0,
                "{} G({}, {}) has {} edges, expected {} +- {}",
                label, n, p, edges, mean, sd
            );
        }

        // Neighbour sampling lands on actual neighbours of the frozen set.
        let mut draw_rng = StdRng::seed_from_u64(seed ^ 0x5A17);
        for v in 0..n.min(16) {
            if g.degree(v) > 0 {
                let w = topo.sample_neighbour(v, &mut draw_rng);
                prop_assert!(g.has_edge(v, w), "sampled non-neighbour {} of {}", w, v);
            }
        }
    }

    #[test]
    fn run_results_are_internally_consistent(n in 50usize..300, delta_milli in 10u32..300, seed in any::<u64>()) {
        let delta = delta_milli as f64 / 1000.0;
        let g = bo3_graph::generators::complete(n);
        let sim = Engine::on_graph(&g).unwrap().with_trace(true);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = InitialCondition::BernoulliWithBias { delta: delta.min(0.49) }
            .sample(&g, &mut rng)
            .unwrap();
        let run = sim.run(&ProtocolSpec::BestOfThree, init, &mut rng).unwrap();
        let trace = run.trace.as_ref().unwrap();
        prop_assert_eq!(trace.len(), run.rounds + 1);
        // The final trace record agrees with the reported final blue fraction.
        let last = trace.last().unwrap();
        prop_assert!((last.blue_fraction - run.final_blue_fraction).abs() < 1e-12);
        // Consensus implies an all-one-colour final fraction.
        if let Some(winner) = run.winner {
            match winner {
                Opinion::Red => prop_assert_eq!(run.final_blue_fraction, 0.0),
                Opinion::Blue => prop_assert_eq!(run.final_blue_fraction, 1.0),
            }
        }
    }
}
