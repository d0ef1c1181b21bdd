//! Voting protocols: the paper's Best-of-Three and the baselines it is
//! compared against in the introduction, all described by one type,
//! [`ProtocolSpec`].
//!
//! | Variant | Paper reference | Behaviour |
//! |---|---|---|
//! | [`ProtocolSpec::Voter`] (Best-of-1) | §1 | copy one random neighbour |
//! | [`ProtocolSpec::BestOfTwo`] | \[4], \[8] | two samples; tie → keep own / random |
//! | [`ProtocolSpec::BestOfThree`] | this paper | three samples; strict majority |
//! | [`ProtocolSpec::BestOfK`] | \[1], \[2] | `k` samples with either tie rule |
//! | [`ProtocolSpec::LocalMajority`] | classic deterministic baseline | full-neighbourhood majority |
//!
//! A [`ProtocolSpec`] is plain data: configurations and reports name it
//! (its JSON codec lives in `bo3_core::configio`), and the engine
//! monomorphizes a kernel per variant ([`crate::kernel`]).  It also
//! implements [`Protocol`], the object-safe per-vertex update: its
//! [`Protocol::update`] is the `dyn` reference the kernels are pinned
//! against draw for draw.  An update reads its [`UpdateContext`]: the
//! previous round's state as the engine holds it, a [`PackedSnapshot`]
//! (one bit per vertex), whose [`PackedSnapshot::is_blue`] answers
//! `ξ_t(w)`, and the materialised [`CsrGraph`] whose rows it samples.

use rand::{Rng, RngCore};

use bo3_graph::{CsrGraph, VertexId};

use crate::kernel::PackedSnapshot;
use crate::opinion::Opinion;

/// How a protocol resolves a tied sample (only relevant for even sample sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieRule {
    /// Keep the vertex's current opinion.
    KeepOwn,
    /// Adopt a uniformly random opinion among the tied ones.
    Random,
}

/// A voting protocol: the paper's Best-of-3 or one of its baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Best-of-1, the classical voter model: every vertex copies the opinion
    /// of a single uniformly random neighbour.
    ///
    /// The paper recalls that this protocol reaches consensus on connected
    /// non-bipartite graphs but the winning colour is only proportional to
    /// its initial degree-weighted share — it does **not** amplify the
    /// majority, and its consensus time is polynomial rather than (double)
    /// logarithmic.  This is the baseline experiments E3 and E5 quantify
    /// against.
    Voter,
    /// Best-of-2 ("two choices" voting): every vertex samples two neighbours
    /// with replacement; if they agree it adopts their colour, otherwise the
    /// tie rule decides (keep own opinion, the convention of
    /// Cooper–Elsässer–Radzik \[4], or pick at random, in which case the
    /// protocol degenerates to the voter model in distribution).
    BestOfTwo {
        /// How a 1–1 sample is resolved.
        tie_rule: TieRule,
    },
    /// Best-of-3, the paper's protocol: each round every vertex samples three
    /// neighbours uniformly **with replacement** and adopts the majority
    /// colour among the three samples.  With an odd sample there is never a
    /// tie, so no tie rule is needed — exactly the model of Section 2 of the
    /// paper.
    BestOfThree,
    /// Best-of-k: sample `k` neighbours uniformly with replacement and adopt
    /// the majority colour; the tie rule decides even-`k` ties.
    ///
    /// Odd `k ≥ 5` is the regime of Abdullah & Draief (\[1] in the paper),
    /// whose result needs a *large* initial bias; experiment E12 contrasts it
    /// with the paper's `k = 3` at small `δ`.  `k = 1`, `2` and `3` reproduce
    /// the dedicated variants exactly (in distribution).  The engine runs
    /// `k` in `1..=`[`crate::kernel::MAX_BEST_OF_K`].
    BestOfK {
        /// Sample size.
        k: usize,
        /// How ties are resolved (relevant only for even `k`).
        tie_rule: TieRule,
    },
    /// Local majority: every vertex reads its **entire** neighbourhood and
    /// adopts the majority colour (ties resolved by the tie rule).
    ///
    /// This is the deterministic limit of Best-of-k as `k → ∞` and serves as
    /// a "full information" upper baseline: it converges extremely fast on
    /// dense graphs but requires `deg(v)` reads per vertex per round instead
    /// of 3, the communication cost the sampling protocols are designed to
    /// avoid.
    LocalMajority {
        /// How exact ties are resolved.
        tie_rule: TieRule,
    },
}

impl ProtocolSpec {
    /// The protocol's display name, as reports, E3's table and its CSV
    /// print it.
    pub fn name(&self) -> String {
        match *self {
            ProtocolSpec::Voter => "voter (best-of-1)".into(),
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::KeepOwn,
            } => "best-of-2 (keep on tie)".into(),
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random,
            } => "best-of-2 (random tie)".into(),
            ProtocolSpec::BestOfThree => "best-of-3".into(),
            ProtocolSpec::BestOfK { k, tie_rule } => match tie_rule {
                TieRule::KeepOwn => format!("best-of-{k} (keep on tie)"),
                TieRule::Random => format!("best-of-{k} (random tie)"),
            },
            ProtocolSpec::LocalMajority { .. } => "local-majority (full neighbourhood)".into(),
        }
    }

    /// The spec as a boxed [`Protocol`].  Only perfbench still calls it;
    /// everything else passes `&spec` where a `&dyn Protocol` is wanted.
    pub fn build(&self) -> Box<dyn Protocol> {
        Box::new(*self)
    }

    /// The spec itself, the kernel it runs.  Only perfbench still calls it;
    /// [`Protocol::kind`] is the same answer behind `&dyn Protocol`.
    pub fn kind(&self) -> ProtocolSpec {
        *self
    }
}

/// Everything a protocol may look at when updating one vertex.
pub struct UpdateContext<'a> {
    /// The vertex being updated.
    pub vertex: VertexId,
    /// The vertex's opinion in the previous round.
    pub current: Opinion,
    /// The previous round's state `ξ_t`, packed.
    pub previous: &'a PackedSnapshot,
    /// The materialised graph: the protocol reads `vertex`'s row of it.
    pub graph: &'a CsrGraph,
}

/// A per-vertex voting update, callable through `&dyn Protocol`.
///
/// The engine calls [`Protocol::update`] once per vertex per round; the
/// returned opinion becomes `ξ_{t+1}(v)`.  Implementations must only read
/// `ctx.previous` (the snapshot of round `t`), which is what makes the
/// update synchronous.  [`ProtocolSpec`] is the implementation that
/// matters; the only other one is [`crate::kernel::DynOnly`], which hides a
/// spec's kernel so a test or bench can run its `dyn` reference.
pub trait Protocol: Send + Sync {
    /// Computes the next opinion of `ctx.vertex`.
    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion;

    /// The built-in protocol whose kernel runs this one, if any.
    ///
    /// Protocols returning `Some` are routed through the static-dispatch
    /// kernels in [`crate::kernel`] by the engine; the default `None` keeps
    /// a protocol on the generic `dyn` path, which needs a materialised
    /// graph.  A `Some(spec)` must match `spec`'s [`Protocol::update`]
    /// draw for draw (same stream, same result) — the kernel-equivalence
    /// suite pins this.
    fn kind(&self) -> Option<ProtocolSpec> {
        None
    }
}

impl Protocol for ProtocolSpec {
    /// The `dyn` reference: a sampling variant counts blue among its `k`
    /// samples (`count_blue_samples`), local majority over the whole row;
    /// then `resolve_majority` decides, drawing a tie coin only on a tie
    /// under [`TieRule::Random`].
    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion {
        let (k, tie_rule) = match *self {
            ProtocolSpec::Voter => (1, TieRule::KeepOwn),
            ProtocolSpec::BestOfTwo { tie_rule } => (2, tie_rule),
            ProtocolSpec::BestOfThree => (3, TieRule::KeepOwn),
            ProtocolSpec::BestOfK { k, tie_rule } => (k, tie_rule),
            ProtocolSpec::LocalMajority { tie_rule } => {
                let row = ctx.graph.neighbours(ctx.vertex);
                let blues = row
                    .iter()
                    .filter(|&&w| ctx.previous.is_blue(w as usize))
                    .count();
                return resolve_majority(blues, row.len(), ctx.current, tie_rule, rng);
            }
        };
        let blues = count_blue_samples(ctx, k, rng);
        resolve_majority(blues, k, ctx.current, tie_rule, rng)
    }

    fn kind(&self) -> Option<ProtocolSpec> {
        Some(*self)
    }
}

/// Counts blue among `k` uniform with-replacement samples of `v`'s
/// neighbours.
pub(crate) fn count_blue_samples(
    ctx: &UpdateContext<'_>,
    k: usize,
    rng: &mut dyn RngCore,
) -> usize {
    // The row (and with it the degree) is hoisted out of the k-sample loop;
    // each sample is one `gen_range` draw plus one slice read.  The draw
    // sequence must stay bit-identical to the kernels in [`crate::kernel`].
    let row = ctx.graph.neighbours(ctx.vertex);
    let mut blues = 0usize;
    for _ in 0..k {
        let w = row[rng.gen_range(0..row.len())] as usize;
        blues += usize::from(ctx.previous.is_blue(w));
    }
    blues
}

/// Resolves a sample of size `k` with `blues` blue votes under the given tie
/// rule: the `dyn` reference's decision, and the kernels' too.
pub(crate) fn resolve_majority<R: RngCore + ?Sized>(
    blues: usize,
    k: usize,
    current: Opinion,
    tie_rule: TieRule,
    rng: &mut R,
) -> Opinion {
    let reds = k - blues;
    match blues.cmp(&reds) {
        std::cmp::Ordering::Greater => Opinion::Blue,
        std::cmp::Ordering::Less => Opinion::Red,
        std::cmp::Ordering::Equal => match tie_rule {
            TieRule::KeepOwn => current,
            TieRule::Random => {
                if rng.gen::<bool>() {
                    Opinion::Blue
                } else {
                    Opinion::Red
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::MAX_BEST_OF_K;
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const KEEP: TieRule = TieRule::KeepOwn;

    /// `n` opinions: the first `blue` vertices blue, the rest red.
    fn blue_prefix(n: usize, blue: usize) -> Vec<Opinion> {
        (0..n)
            .map(|v| {
                if v < blue {
                    Opinion::Blue
                } else {
                    Opinion::Red
                }
            })
            .collect()
    }

    /// The context updating `vertex` of `graph` in state `previous`.
    fn ctx<'a>(
        graph: &'a CsrGraph,
        previous: &'a PackedSnapshot,
        vertex: usize,
    ) -> UpdateContext<'a> {
        UpdateContext {
            vertex,
            current: previous.get(vertex),
            previous,
            graph,
        }
    }

    /// The share of `trials` updates of `vertex` under `spec` that come out
    /// blue, all drawn from `rng`.
    fn blue_rate(
        spec: ProtocolSpec,
        graph: &CsrGraph,
        opinions: &[Opinion],
        vertex: usize,
        trials: usize,
        rng: &mut StdRng,
    ) -> f64 {
        let previous = PackedSnapshot::from_opinions(opinions);
        let ctx = ctx(graph, &previous, vertex);
        let blue = (0..trials)
            .filter(|_| spec.update(&ctx, rng).is_blue())
            .count();
        blue as f64 / trials as f64
    }

    /// One of each variant and tie rule, with an odd and an even Best-of-k.
    const VARIANTS: [ProtocolSpec; 8] = [
        ProtocolSpec::Voter,
        ProtocolSpec::BestOfTwo { tie_rule: KEEP },
        ProtocolSpec::BestOfTwo {
            tie_rule: TieRule::Random,
        },
        ProtocolSpec::BestOfThree,
        ProtocolSpec::BestOfK {
            k: 5,
            tie_rule: KEEP,
        },
        ProtocolSpec::BestOfK {
            k: 4,
            tie_rule: TieRule::Random,
        },
        ProtocolSpec::LocalMajority { tie_rule: KEEP },
        ProtocolSpec::LocalMajority {
            tie_rule: TieRule::Random,
        },
    ];

    /// Best-of-k sample sizes the name tests cover, up to the engine's cap.
    const NAMED_KS: [usize; 7] = [1, 2, 3, 4, 9, 11, MAX_BEST_OF_K];

    // The `*_metadata` tests pin each variant's exact display name: it
    // lands in `ExperimentResult::protocol_name` and in E3's table and CSV.

    #[test]
    fn voter_metadata() {
        assert_eq!(ProtocolSpec::Voter.name(), "voter (best-of-1)");
    }

    #[test]
    fn best_of_two_metadata_and_tie_rule() {
        assert_eq!(
            ProtocolSpec::BestOfTwo { tie_rule: KEEP }.name(),
            "best-of-2 (keep on tie)"
        );
        assert_eq!(
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random
            }
            .name(),
            "best-of-2 (random tie)"
        );
    }

    #[test]
    fn best_of_three_metadata() {
        assert_eq!(ProtocolSpec::BestOfThree.name(), "best-of-3");
    }

    #[test]
    fn best_of_k_metadata() {
        let best_of = |k, tie_rule| ProtocolSpec::BestOfK { k, tie_rule }.name();
        assert_eq!(best_of(5, KEEP), "best-of-5 (keep on tie)");
        assert_eq!(best_of(4, TieRule::Random), "best-of-4 (random tie)");
    }

    #[test]
    fn local_majority_metadata() {
        for tie_rule in [KEEP, TieRule::Random] {
            assert_eq!(
                ProtocolSpec::LocalMajority { tie_rule }.name(),
                "local-majority (full neighbourhood)"
            );
        }
    }

    #[test]
    fn names_are_consistent_with_protocols() {
        // A sampling variant's name carries its sample size.
        assert!(ProtocolSpec::Voter.name().ends_with("(best-of-1)"));
        for tie_rule in [KEEP, TieRule::Random] {
            assert!(ProtocolSpec::BestOfTwo { tie_rule }
                .name()
                .starts_with("best-of-2 ("));
            for k in NAMED_KS {
                let name = ProtocolSpec::BestOfK { k, tie_rule }.name();
                assert!(name.starts_with(&format!("best-of-{k} (")), "{name}");
            }
        }
        assert!(ProtocolSpec::BestOfThree.name().starts_with("best-of-3"));
    }

    #[test]
    fn best_of_k_names_carry_the_tie_rule() {
        for k in NAMED_KS {
            let keep = ProtocolSpec::BestOfK { k, tie_rule: KEEP }.name();
            let random = ProtocolSpec::BestOfK {
                k,
                tie_rule: TieRule::Random,
            }
            .name();
            assert!(keep.ends_with(" (keep on tie)"), "{keep}");
            assert!(random.ends_with(" (random tie)"), "{random}");
        }
    }

    #[test]
    fn spec_kind_matches_the_built_protocol_kind() {
        // The boxed spec and the identity `kind` both name the spec's own
        // kernel.
        for spec in VARIANTS {
            assert_eq!(spec.kind(), spec);
            assert_eq!(spec.build().kind(), Some(spec.kind()), "{spec:?}");
        }
    }

    #[test]
    fn specs_build_the_right_protocols() {
        // The boxed protocol is the spec: the same update, draw for draw.
        let graph = generators::complete(12);
        let previous = PackedSnapshot::from_opinions(&blue_prefix(12, 5));
        for spec in VARIANTS {
            let built = spec.build();
            let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
            for v in 0..12 {
                let ctx = ctx(&graph, &previous, v);
                assert_eq!(
                    built.update(&ctx, &mut a),
                    spec.update(&ctx, &mut b),
                    "{spec:?} vertex {v}"
                );
            }
            assert_eq!(a.next_u64(), b.next_u64(), "{spec:?}");
        }
    }

    #[test]
    fn resolve_majority_without_ties() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            resolve_majority(3, 3, Opinion::Red, TieRule::KeepOwn, &mut rng),
            Opinion::Blue
        );
        assert_eq!(
            resolve_majority(0, 3, Opinion::Blue, TieRule::KeepOwn, &mut rng),
            Opinion::Red
        );
        assert_eq!(
            resolve_majority(2, 5, Opinion::Blue, TieRule::Random, &mut rng),
            Opinion::Red
        );
    }

    #[test]
    fn resolve_majority_tie_keep_own() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            resolve_majority(1, 2, Opinion::Red, TieRule::KeepOwn, &mut rng),
            Opinion::Red
        );
        assert_eq!(
            resolve_majority(1, 2, Opinion::Blue, TieRule::KeepOwn, &mut rng),
            Opinion::Blue
        );
    }

    #[test]
    fn resolve_majority_tie_random_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut blue = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if resolve_majority(2, 4, Opinion::Red, TieRule::Random, &mut rng).is_blue() {
                blue += 1;
            }
        }
        let frac = blue as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.03, "blue fraction on ties {frac}");
    }

    #[test]
    fn count_blue_samples_matches_neighbourhood_composition() {
        // Star centre: all its neighbours are leaves. Colour all leaves blue.
        let g = generators::star(10).unwrap();
        let mut opinions = vec![Opinion::Blue; 10];
        opinions[0] = Opinion::Red;
        let previous = PackedSnapshot::from_opinions(&opinions);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(count_blue_samples(&ctx(&g, &previous, 0), 7, &mut rng), 7);

        // A leaf's only neighbour is the red centre.
        assert_eq!(count_blue_samples(&ctx(&g, &previous, 3), 5, &mut rng), 0);
    }

    #[test]
    fn copies_a_neighbour_opinion() {
        let g = generators::cycle(6).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        // Vertex 0's neighbours are 1 and 5; make both blue.
        let mut opinions = vec![Opinion::Red; 6];
        opinions[1] = Opinion::Blue;
        opinions[5] = Opinion::Blue;
        let previous = PackedSnapshot::from_opinions(&opinions);
        let ctx = ctx(&g, &previous, 0);
        for _ in 0..10 {
            assert_eq!(ProtocolSpec::Voter.update(&ctx, &mut rng), Opinion::Blue);
        }
    }

    #[test]
    fn adoption_probability_equals_neighbourhood_fraction() {
        // On the complete graph the voter's probability of turning blue
        // equals the blue fraction among the other vertices — no
        // amplification at all, which is exactly what distinguishes the
        // voter model from Best-of-3.
        let n = 1000;
        let blue_count = 300;
        let observed = blue_rate(
            ProtocolSpec::Voter,
            &generators::complete(n),
            &blue_prefix(n, blue_count),
            n - 1,
            30_000,
            &mut StdRng::seed_from_u64(1),
        );
        let expected = blue_count as f64 / (n - 1) as f64;
        assert!((observed - expected).abs() < 0.01, "observed {observed}");
    }

    #[test]
    fn unanimous_samples_override_current_opinion() {
        let g = generators::star(6).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut opinions = vec![Opinion::Blue; 6];
        opinions[0] = Opinion::Red;
        let previous = PackedSnapshot::from_opinions(&opinions);
        let ctx = ctx(&g, &previous, 0);
        let p = ProtocolSpec::BestOfTwo { tie_rule: KEEP };
        for _ in 0..20 {
            assert_eq!(p.update(&ctx, &mut rng), Opinion::Blue);
        }
    }

    #[test]
    fn keep_own_update_probability_matches_formula() {
        // Best-of-2 keep-own: P(turn blue) = p² + 2p(1−p)·[current is blue].
        let n = 1500;
        let g = generators::complete(n);
        let p_blue = 0.3;
        let opinions = blue_prefix(n, (n as f64 * p_blue) as usize);
        let mut rng = StdRng::seed_from_u64(1);
        let protocol = ProtocolSpec::BestOfTwo { tie_rule: KEEP };
        let trials = 30_000;

        // Red vertex: only the p² term.
        let observed = blue_rate(protocol, &g, &opinions, n - 1, trials, &mut rng);
        assert!(
            (observed - p_blue * p_blue).abs() < 0.01,
            "red vertex: observed {observed}"
        );

        // Blue vertex: p² + 2p(1−p).
        let observed = blue_rate(protocol, &g, &opinions, 0, trials, &mut rng);
        let expected = p_blue * p_blue + 2.0 * p_blue * (1.0 - p_blue);
        assert!(
            (observed - expected).abs() < 0.012,
            "blue vertex: observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn unanimous_neighbourhoods_are_deterministic() {
        let g = generators::star(8).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let p = ProtocolSpec::BestOfThree;

        // All leaves blue: the centre must adopt blue.
        let mut opinions = vec![Opinion::Blue; 8];
        opinions[0] = Opinion::Red;
        let opinions = PackedSnapshot::from_opinions(&opinions);
        let ctx_blue = ctx(&g, &opinions, 0);
        for _ in 0..20 {
            assert_eq!(p.update(&ctx_blue, &mut rng), Opinion::Blue);
        }

        // All leaves red: the centre must adopt red even if it is blue.
        let mut opinions = vec![Opinion::Red; 8];
        opinions[0] = Opinion::Blue;
        let opinions = PackedSnapshot::from_opinions(&opinions);
        let ctx_red = ctx(&g, &opinions, 0);
        for _ in 0..20 {
            assert_eq!(p.update(&ctx_red, &mut rng), Opinion::Red);
        }
    }

    #[test]
    fn leaf_copies_the_centre() {
        // A leaf of the star has a single neighbour (the centre), so all
        // three samples hit it and the leaf adopts the centre's colour.
        let g = generators::star(5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut opinions = vec![Opinion::Blue; 5];
        opinions[0] = Opinion::Red;
        let opinions = PackedSnapshot::from_opinions(&opinions);
        let ctx = ctx(&g, &opinions, 3);
        assert_eq!(
            ProtocolSpec::BestOfThree.update(&ctx, &mut rng),
            Opinion::Red
        );
    }

    #[test]
    fn update_probability_matches_majority_formula() {
        // On the complete graph K_n with a fraction p of blue vertices, a red
        // vertex turns blue under Best-of-3 with probability ≈ 3p²(1−p) + p³
        // (sampling its n−1 neighbours ≈ sampling the whole population for
        // large n).
        let n = 2000;
        let p_blue = 0.3;
        let observed = blue_rate(
            ProtocolSpec::BestOfThree,
            &generators::complete(n),
            &blue_prefix(n, (n as f64 * p_blue) as usize),
            n - 1,
            40_000,
            &mut StdRng::seed_from_u64(2),
        );
        let expected = bo3_theory::binomial::best_of_three_blue(p_blue);
        assert!(
            (observed - expected).abs() < 0.01,
            "observed {observed}, expected {expected}"
        );
    }

    /// Best-of-`k` keep-own's blue rate for a vertex of opinion `current`
    /// on `K_1500` with a `p_blue` share blue.
    fn empirical_blue_probability(k: usize, p_blue: f64, current: Opinion, seed: u64) -> f64 {
        let n = 1500;
        let opinions = blue_prefix(n, (n as f64 * p_blue).round() as usize);
        let vertex = if current.is_blue() { 0 } else { n - 1 };
        let spec = ProtocolSpec::BestOfK { k, tie_rule: KEEP };
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::complete(n);
        blue_rate(spec, &g, &opinions, vertex, 30_000, &mut rng)
    }

    #[test]
    fn k3_matches_the_paper_majority_map() {
        let observed = empirical_blue_probability(3, 0.3, Opinion::Red, 0);
        let expected = bo3_theory::binomial::best_of_three_blue(0.3);
        assert!((observed - expected).abs() < 0.01, "observed {observed}");
    }

    #[test]
    fn k5_suppresses_the_minority_harder_than_k3() {
        let k3 = empirical_blue_probability(3, 0.35, Opinion::Red, 1);
        let k5 = empirical_blue_probability(5, 0.35, Opinion::Red, 2);
        let k9 = empirical_blue_probability(9, 0.35, Opinion::Red, 3);
        assert!(k5 < k3, "k5 {k5} !< k3 {k3}");
        assert!(k9 < k5, "k9 {k9} !< k5 {k5}");
    }

    #[test]
    fn k1_matches_the_voter_model() {
        let observed = empirical_blue_probability(1, 0.3, Opinion::Red, 4);
        assert!((observed - 0.3).abs() < 0.012, "observed {observed}");
    }

    #[test]
    fn even_k_uses_the_tie_rule() {
        // With keep-own, a red vertex never changes on a tied sample, so
        // with k = 2 and half the population blue its blue probability is
        // exactly p².
        let observed = empirical_blue_probability(2, 0.5, Opinion::Red, 5);
        assert!((observed - 0.25).abs() < 0.012, "observed {observed}");
    }

    #[test]
    fn deterministic_majority_is_followed() {
        let g = generators::complete(9);
        let mut rng = StdRng::seed_from_u64(0);
        let p = ProtocolSpec::LocalMajority { tie_rule: KEEP };
        // 5 blue, 4 red: a red vertex sees 5 blue / 3 red neighbours.
        let opinions = PackedSnapshot::from_opinions(&blue_prefix(9, 5));
        assert_eq!(p.update(&ctx(&g, &opinions, 8), &mut rng), Opinion::Blue);
        // A blue vertex sees 4 blue / 4 red: tie, keeps own (blue).
        assert_eq!(p.update(&ctx(&g, &opinions, 0), &mut rng), Opinion::Blue);
    }

    #[test]
    fn random_tie_rule_flips_a_coin() {
        // Vertex 0's neighbours on C_4 are 1 (blue) and 3 (red): a tie.
        let opinions = [Opinion::Red, Opinion::Blue, Opinion::Red, Opinion::Red];
        let frac = blue_rate(
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::Random,
            },
            &generators::cycle(4).unwrap(),
            &opinions,
            0,
            4000,
            &mut StdRng::seed_from_u64(1),
        );
        assert!((frac - 0.5).abs() < 0.05, "tie coin fraction {frac}");
    }

    #[test]
    fn converges_in_one_round_on_dense_unanimous_majorities() {
        // On the complete graph with a 2/3 blue majority every vertex sees a
        // blue majority, so one synchronous local-majority round reaches
        // blue consensus.
        let g = generators::complete(30);
        let p = ProtocolSpec::LocalMajority { tie_rule: KEEP };
        let opinions = PackedSnapshot::from_opinions(&blue_prefix(30, 20));
        let mut rng = StdRng::seed_from_u64(2);
        for v in 0..30 {
            assert_eq!(p.update(&ctx(&g, &opinions, v), &mut rng), Opinion::Blue);
        }
    }
}
