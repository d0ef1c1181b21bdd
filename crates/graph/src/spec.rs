//! Serialisable topology descriptions — the configuration layer's view of a
//! graph, whether materialised or implicit.
//!
//! [`TopologySpec`] is to graphs what `ProtocolSpec` is to protocols: a
//! plain-data value (its JSON codec lives in `bo3_core::configio`) that
//! names a family instance and can be turned into a live object with
//! [`TopologySpec::build`].  It unifies the two worlds that previously had
//! separate entry points:
//!
//! * the *implicit* families of [`crate::topology`] (`Complete`,
//!   `CompleteBipartite`, `CompleteMultipartite`, `ImplicitGnp`,
//!   `ImplicitSbm`), which never allocate adjacency and scale to `n = 10⁶`
//!   and beyond;
//! * every materialised generator of [`crate::generators`], wrapped as
//!   [`TopologySpec::Materialised`] — CSR materialisation becomes an
//!   internal detail of `build`, not a separate code path in every caller.
//!
//! `Topology` is deliberately not object-safe (neighbour sampling is generic
//! over the RNG so the dynamics kernels can monomorphize it away), so the
//! `build` mirror of `ProtocolSpec::build` returns the closed enum
//! [`BuiltTopology`] instead of a `Box<dyn Topology>`: callers get one owned
//! value implementing [`Topology`] and the kernels keep static dispatch.
//!
//! # Seeding contract
//!
//! `build(seed)` freezes all topology randomness under `seed`:
//!
//! * hash-defined families use `seed` directly as their pairwise-hash seed,
//!   so the same `(spec, seed)` always names the same edge set;
//! * materialised generators draw from
//!   `StdRng::seed_from_u64(seed ^ GRAPH_SEED_SALT)` — the exact derivation
//!   the pre-redesign `Experiment::build_graph` used, so seeded experiment
//!   graphs are bit-identical across the API migration.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::csr::{CsrGraph, VertexId};
use crate::degree::DegreeStats;
use crate::error::Result;
use crate::generators::GraphSpec;
use crate::oracle::DegreeOracle;
use crate::topology::{
    Complete, CompleteBipartite, CompleteMultipartite, CsrTopology, ImplicitGnp, ImplicitSbm,
    Shape, Topology,
};

/// Salt XOR-ed into the seed handed to materialised generators.
///
/// This is the constant the pre-redesign `bo3_core::Experiment::build_graph`
/// used; keeping it here (and using it in [`TopologySpec::build`]) is what
/// makes seeded materialised graphs — and therefore seeded Monte-Carlo
/// reports — bit-identical across the Scenario API redesign.
pub const GRAPH_SEED_SALT: u64 = 0xA5A5_5A5A_DEAD_BEEF;

/// A serialisable description of a topology instance.
///
/// The first five variants are adjacency-free: a few machine words that
/// scale to millions of vertices.  [`TopologySpec::Materialised`] wraps any
/// [`GraphSpec`] generator behind the same interface, so one configuration
/// type spans every graph the repository can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The complete graph `K_n`, represented implicitly (no adjacency).
    Complete {
        /// Number of vertices (`n ≥ 2`).
        n: usize,
    },
    /// The complete bipartite graph `K_{a,b}`, represented implicitly.
    CompleteBipartite {
        /// Left side size (`a ≥ 1`).
        a: usize,
        /// Right side size (`b ≥ 1`).
        b: usize,
    },
    /// The complete multipartite graph over the given block sizes,
    /// represented implicitly.
    CompleteMultipartite {
        /// Non-empty block sizes (at least two blocks).
        blocks: Vec<usize>,
    },
    /// Implicit Erdős–Rényi `G(n, p)`: edges frozen by a pairwise hash of
    /// the build seed, never stored.
    ImplicitGnp {
        /// Number of vertices (`n ≥ 2`).
        n: usize,
        /// Edge probability in `(0, 1]` (the dense regime).
        p: f64,
    },
    /// Implicit planted-partition SBM over the same hash scheme.
    ImplicitSbm {
        /// Number of vertices (`n ≥ 2`).
        n: usize,
        /// Number of equal blocks (must divide `n`).
        blocks: usize,
        /// Within-block edge probability.
        p_in: f64,
        /// Across-block edge probability.
        p_out: f64,
    },
    /// Any materialised generator family, built as a [`CsrGraph`].
    Materialised(GraphSpec),
}

impl From<GraphSpec> for TopologySpec {
    fn from(spec: GraphSpec) -> Self {
        TopologySpec::Materialised(spec)
    }
}

impl TopologySpec {
    /// Instantiates the described topology, freezing all randomness under
    /// `seed` (see the module docs for the exact derivation).
    pub fn build(&self, seed: u64) -> Result<BuiltTopology> {
        Ok(match self {
            TopologySpec::Complete { n } => BuiltTopology::Complete(Complete::new(*n)?),
            TopologySpec::CompleteBipartite { a, b } => {
                BuiltTopology::CompleteBipartite(CompleteBipartite::new(*a, *b)?)
            }
            TopologySpec::CompleteMultipartite { blocks } => {
                BuiltTopology::CompleteMultipartite(CompleteMultipartite::new(blocks)?)
            }
            TopologySpec::ImplicitGnp { n, p } => {
                BuiltTopology::ImplicitGnp(ImplicitGnp::new(*n, *p, seed)?)
            }
            TopologySpec::ImplicitSbm {
                n,
                blocks,
                p_in,
                p_out,
            } => BuiltTopology::ImplicitSbm(ImplicitSbm::new(*n, *blocks, *p_in, *p_out, seed)?),
            TopologySpec::Materialised(graph_spec) => {
                let mut rng = StdRng::seed_from_u64(seed ^ GRAPH_SEED_SALT);
                BuiltTopology::Materialised(graph_spec.generate(&mut rng)?)
            }
        })
    }

    /// Number of vertices the built topology will have (without building
    /// it), saturating at `usize::MAX`, a count no topology can have.
    pub fn num_vertices(&self) -> usize {
        match self {
            TopologySpec::Complete { n }
            | TopologySpec::ImplicitGnp { n, .. }
            | TopologySpec::ImplicitSbm { n, .. } => *n,
            TopologySpec::CompleteBipartite { a, b } => a.saturating_add(*b),
            TopologySpec::CompleteMultipartite { blocks } => {
                blocks.iter().fold(0, |n: usize, &s| n.saturating_add(s))
            }
            TopologySpec::Materialised(spec) => spec.num_vertices(),
        }
    }

    /// `true` for the adjacency-free families (everything except
    /// [`TopologySpec::Materialised`]).
    pub fn is_implicit(&self) -> bool {
        !matches!(self, TopologySpec::Materialised(_))
    }

    /// `true` for the hash-defined families ([`TopologySpec::ImplicitGnp`],
    /// [`TopologySpec::ImplicitSbm`]), whose per-vertex degrees exist only
    /// as a `Θ(n)` count over the frozen edge set — the families for which
    /// dense whole-graph analyses degrade to `Skipped` rather than run.
    pub fn is_hash_defined(&self) -> bool {
        matches!(
            self,
            TopologySpec::ImplicitGnp { .. } | TopologySpec::ImplicitSbm { .. }
        )
    }

    /// A short human-readable label for reports and bench ids, matching the
    /// built topology's label for the implicit families and the generator's
    /// label for materialised ones.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Complete { n } => format!("implicit_complete(n={n})"),
            TopologySpec::CompleteBipartite { a, b } => format!("implicit_bipartite({a},{b})"),
            TopologySpec::CompleteMultipartite { blocks } => format!(
                "implicit_multipartite(blocks={},n={})",
                blocks.len(),
                self.num_vertices()
            ),
            TopologySpec::ImplicitGnp { n, p } => format!("implicit_gnp(n={n},p={p})"),
            TopologySpec::ImplicitSbm {
                n,
                blocks,
                p_in,
                p_out,
            } => format!("implicit_sbm(n={n},blocks={blocks},p_in={p_in},p_out={p_out})"),
            TopologySpec::Materialised(spec) => spec.label(),
        }
    }

    /// The mean degree the built topology will have, without building it:
    /// exact for the closed-form families, the expectation for the
    /// hash-defined ones.  `None` for materialised specs, whose degree
    /// sequence is realised only by the generator.
    ///
    /// This is the single source of truth the scale experiment's
    /// CSR-equivalent memory column and the dense-regime validation share.
    pub fn expected_degree(&self) -> Option<f64> {
        match self {
            TopologySpec::Complete { n } => Some((n.saturating_sub(1)) as f64),
            TopologySpec::CompleteBipartite { a, b } => {
                Some(2.0 * (*a as f64) * (*b as f64) / (a + b) as f64)
            }
            TopologySpec::CompleteMultipartite { blocks } => {
                let n: usize = blocks.iter().sum();
                let sq_sum: usize = blocks.iter().map(|&s| s * s).sum();
                Some((n * n - sq_sum) as f64 / n as f64)
            }
            TopologySpec::ImplicitGnp { n, p } => Some(p * (n.saturating_sub(1)) as f64),
            TopologySpec::ImplicitSbm {
                n,
                blocks,
                p_in,
                p_out,
            } => {
                let block_size = n / blocks.max(&1);
                Some((block_size.saturating_sub(1)) as f64 * p_in + (n - block_size) as f64 * p_out)
            }
            TopologySpec::Materialised(_) => None,
        }
    }

    /// Exact degree statistics in closed form, for the families whose degree
    /// multiset is determined by the parameters alone (`Complete`,
    /// `CompleteBipartite`, `CompleteMultipartite`): the built family's
    /// exact degree-oracle classes, merged by degree.
    ///
    /// Hash-defined and materialised families return `None`: their degree
    /// sequences are realised only at build time (and for hash-defined
    /// families even then cost `Θ(n)` per vertex to read).  So do
    /// parameters the family constructor refuses, and families whose degree
    /// sum does not fit `usize`.
    pub fn closed_form_degree_stats(&self) -> Option<DegreeStats> {
        if !self.is_implicit() || self.is_hash_defined() {
            return None;
        }
        let DegreeOracle::Exact(classes) = self.build(0).ok()?.degree_oracle()? else {
            return None;
        };
        let mut groups: Vec<(usize, usize)> = classes.iter().map(|c| (c.degree, c.len())).collect();
        groups.sort_unstable();
        groups.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        let sum = groups
            .iter()
            .try_fold(0usize, |sum, &(d, c)| sum.checked_add(d.checked_mul(c)?))?;
        Some(stats_from_degree_groups(&groups, sum))
    }
}

/// Exact [`DegreeStats`] from a sorted multiset of `(degree, count)` groups
/// whose degree sum is `sum`.
fn stats_from_degree_groups(groups: &[(usize, usize)], sum: usize) -> DegreeStats {
    debug_assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));
    let n: usize = groups.iter().map(|&(_, c)| c).sum();
    debug_assert!(n > 0);
    let min = groups.first().map(|&(d, _)| d).unwrap_or(0);
    let max = groups.last().map(|&(d, _)| d).unwrap_or(0);
    let mean = sum as f64 / n as f64;
    // The k-th (0-indexed) smallest degree, by walking cumulative counts.
    let kth = |k: usize| -> usize {
        let mut seen = 0usize;
        for &(d, c) in groups {
            seen += c;
            if k < seen {
                return d;
            }
        }
        max
    };
    let median = if n % 2 == 1 {
        kth(n / 2) as f64
    } else {
        (kth(n / 2 - 1) + kth(n / 2)) as f64 / 2.0
    };
    let variance = groups
        .iter()
        .map(|&(d, c)| c as f64 * (d as f64 - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    DegreeStats {
        n,
        m: sum / 2,
        min,
        max,
        mean,
        median,
        variance,
    }
}

/// A built topology: one owned value spanning every [`TopologySpec`]
/// variant, implementing [`Topology`] by delegating to the concrete family.
///
/// This is the closed-enum mirror of `ProtocolSpec::build`'s
/// `Box<dyn Protocol>` — an enum rather than a box because [`Topology`] is
/// not object-safe (see the module docs).  Every trait method re-matches
/// the variant, which is fine outside loops but not per neighbour draw, so
/// the dynamics engine never samples through this type: it reads
/// [`Topology::shape`] once per chunk or round, which forwards to the
/// variant's own family ([`Shape::Csr`], or [`Shape::Complete`] carrying
/// the graph for a materialised complete graph), and runs its kernels on
/// that.  [`Topology::as_graph`] is `Some` exactly for
/// [`BuiltTopology::Materialised`].
#[derive(Debug, Clone)]
pub enum BuiltTopology {
    /// Implicit `K_n`.
    Complete(Complete),
    /// Implicit `K_{a,b}`.
    CompleteBipartite(CompleteBipartite),
    /// Implicit complete multipartite graph.
    CompleteMultipartite(CompleteMultipartite),
    /// Implicit (frozen-hash) `G(n, p)`.
    ImplicitGnp(ImplicitGnp),
    /// Implicit (frozen-hash) planted-partition SBM.
    ImplicitSbm(ImplicitSbm),
    /// A materialised graph, owned.
    Materialised(CsrGraph),
}

macro_rules! delegate_topology {
    ($self:ident, $topo:ident => $body:expr) => {
        match $self {
            BuiltTopology::Complete($topo) => $body,
            BuiltTopology::CompleteBipartite($topo) => $body,
            BuiltTopology::CompleteMultipartite($topo) => $body,
            BuiltTopology::ImplicitGnp($topo) => $body,
            BuiltTopology::ImplicitSbm($topo) => $body,
            BuiltTopology::Materialised(g) => {
                let $topo = CsrTopology::new(g);
                $body
            }
        }
    };
}

impl Topology for BuiltTopology {
    fn shape(&self) -> Shape<'_> {
        match self {
            BuiltTopology::Complete(t) => t.shape(),
            BuiltTopology::CompleteBipartite(t) => t.shape(),
            BuiltTopology::CompleteMultipartite(t) => t.shape(),
            BuiltTopology::ImplicitGnp(t) => t.shape(),
            BuiltTopology::ImplicitSbm(t) => t.shape(),
            BuiltTopology::Materialised(g) => Shape::of_graph(g),
        }
    }

    fn n(&self) -> usize {
        delegate_topology!(self, t => t.n())
    }

    fn degree(&self, v: VertexId) -> usize {
        delegate_topology!(self, t => t.degree(v))
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        delegate_topology!(self, t => t.has_edge(u, v))
    }

    #[inline(always)]
    fn sample_neighbour<R: RngCore + ?Sized>(&self, v: VertexId, rng: &mut R) -> VertexId {
        delegate_topology!(self, t => t.sample_neighbour(v, rng))
    }

    fn for_each_neighbour<F: FnMut(VertexId)>(&self, v: VertexId, f: F) {
        delegate_topology!(self, t => t.for_each_neighbour(v, f))
    }

    fn memory_bytes(&self) -> usize {
        delegate_topology!(self, t => t.memory_bytes())
    }

    fn label(&self) -> String {
        delegate_topology!(self, t => t.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::topology::materialize;
    use rand::Rng;

    fn all_variants() -> Vec<TopologySpec> {
        vec![
            TopologySpec::Complete { n: 12 },
            TopologySpec::CompleteBipartite { a: 5, b: 7 },
            TopologySpec::CompleteMultipartite {
                blocks: vec![3, 4, 5],
            },
            TopologySpec::ImplicitGnp { n: 40, p: 0.5 },
            TopologySpec::ImplicitSbm {
                n: 40,
                blocks: 2,
                p_in: 0.7,
                p_out: 0.2,
            },
            TopologySpec::Materialised(GraphSpec::ErdosRenyiGnp { n: 40, p: 0.4 }),
        ]
    }

    #[test]
    fn every_variant_builds_and_reports_consistent_n() {
        for spec in all_variants() {
            let built = spec.build(7).unwrap();
            assert_eq!(built.n(), spec.num_vertices(), "{}", spec.label());
            assert!(!spec.label().is_empty());
            assert!(built.memory_bytes() > 0);
        }
    }

    #[test]
    fn build_is_deterministic_in_the_seed() {
        for spec in all_variants() {
            let a = spec.build(21).unwrap();
            let b = spec.build(21).unwrap();
            // Frozen edge sets: identical adjacency on both builds.
            for u in 0..a.n() {
                for v in 0..a.n() {
                    assert_eq!(a.has_edge(u, v), b.has_edge(u, v), "{}", spec.label());
                }
            }
        }
    }

    #[test]
    fn materialised_build_matches_the_pre_redesign_seed_derivation() {
        // The exact StdRng(seed ^ GRAPH_SEED_SALT) stream the old
        // Experiment::build_graph used — the bit-identity anchor.
        let spec = GraphSpec::ErdosRenyiGnp { n: 200, p: 0.2 };
        let seed = 7u64;
        let mut rng = StdRng::seed_from_u64(seed ^ GRAPH_SEED_SALT);
        let expected = spec.generate(&mut rng).unwrap();
        let built = TopologySpec::Materialised(spec).build(seed).unwrap();
        assert_eq!(built.as_graph().unwrap(), &expected);
    }

    #[test]
    fn built_complete_matches_the_implicit_topology() {
        let built = TopologySpec::Complete { n: 9 }.build(0).unwrap();
        assert!(matches!(built.shape(), Shape::Complete(_, None)));
        assert_eq!(
            materialize(&built).unwrap(),
            generators::complete(9),
            "built K_n must be K_n"
        );
    }

    #[test]
    fn built_topology_sampling_matches_the_concrete_family() {
        let spec = TopologySpec::ImplicitGnp { n: 50, p: 0.5 };
        let built = spec.build(3).unwrap();
        let concrete = ImplicitGnp::new(50, 0.5, 3).unwrap();
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for v in 0..50 {
            assert_eq!(
                built.sample_neighbour(v, &mut a),
                concrete.sample_neighbour(v, &mut b)
            );
        }
    }

    #[test]
    fn materialised_sampling_stays_on_the_gen_range_stream() {
        let built = TopologySpec::Materialised(GraphSpec::Complete { n: 23 })
            .build(14)
            .unwrap();
        let g = built.as_graph().unwrap().clone();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for v in 0..23 {
            let via_built = built.sample_neighbour(v, &mut a);
            let via_gen_range = g.neighbour_at(v, b.gen_range(0..g.degree(v)));
            assert_eq!(via_built, via_gen_range);
        }
    }

    #[test]
    fn invalid_parameters_surface_as_typed_errors() {
        assert!(TopologySpec::Complete { n: 1 }.build(0).is_err());
        assert!(TopologySpec::CompleteBipartite { a: 0, b: 3 }
            .build(0)
            .is_err());
        assert!(TopologySpec::CompleteMultipartite { blocks: vec![4] }
            .build(0)
            .is_err());
        // A vertex count past `usize` fails the build and saturates the
        // count and the label instead of overflowing.
        let half = 1usize << (usize::BITS - 1);
        let bipartite = TopologySpec::CompleteBipartite {
            a: half,
            b: half + 6,
        };
        let multipartite = TopologySpec::CompleteMultipartite {
            blocks: vec![half, half, 4],
        };
        for spec in [&bipartite, &multipartite] {
            assert!(spec.build(0).is_err(), "{spec:?}");
            assert_eq!(spec.num_vertices(), usize::MAX, "{spec:?}");
        }
        assert!(multipartite
            .label()
            .ends_with(&format!("n={})", usize::MAX)));
        let torus = TopologySpec::Materialised(GraphSpec::Torus2d {
            rows: half,
            cols: 2,
        });
        assert_eq!(torus.num_vertices(), usize::MAX);
        let hypercube = TopologySpec::Materialised(GraphSpec::Hypercube { dim: 64 });
        assert_eq!(hypercube.num_vertices(), usize::MAX);
        assert!(TopologySpec::ImplicitGnp { n: 10, p: 0.0 }
            .build(0)
            .is_err());
        assert!(TopologySpec::ImplicitSbm {
            n: 10,
            blocks: 3,
            p_in: 0.5,
            p_out: 0.1
        }
        .build(0)
        .is_err());
    }

    #[test]
    fn classification_helpers() {
        assert!(TopologySpec::Complete { n: 5 }.is_implicit());
        assert!(!TopologySpec::Complete { n: 5 }.is_hash_defined());
        assert!(TopologySpec::ImplicitGnp { n: 5, p: 0.5 }.is_hash_defined());
        assert!(TopologySpec::ImplicitSbm {
            n: 6,
            blocks: 2,
            p_in: 0.5,
            p_out: 0.5
        }
        .is_hash_defined());
        let mat = TopologySpec::from(GraphSpec::Complete { n: 5 });
        assert!(!mat.is_implicit());
        assert!(!mat.is_hash_defined());
        assert_eq!(mat.label(), "complete(n=5)");
    }

    #[test]
    fn closed_form_degree_stats_match_the_materialised_truth() {
        let cases = vec![
            TopologySpec::Complete { n: 11 },
            TopologySpec::CompleteBipartite { a: 4, b: 9 },
            TopologySpec::CompleteBipartite { a: 6, b: 6 },
            TopologySpec::CompleteMultipartite {
                blocks: vec![2, 5, 5, 9],
            },
        ];
        for spec in cases {
            let exact = spec.closed_form_degree_stats().expect("closed form");
            let built = spec.build(0).unwrap();
            let graph = materialize(&built).unwrap();
            let measured = DegreeStats::of(&graph).unwrap();
            assert_eq!(exact.n, measured.n, "{}", spec.label());
            assert_eq!(exact.m, measured.m, "{}", spec.label());
            assert_eq!(exact.min, measured.min, "{}", spec.label());
            assert_eq!(exact.max, measured.max, "{}", spec.label());
            assert!(
                (exact.mean - measured.mean).abs() < 1e-9,
                "{}",
                spec.label()
            );
            assert!(
                (exact.median - measured.median).abs() < 1e-9,
                "{}",
                spec.label()
            );
            assert!(
                (exact.variance - measured.variance).abs() < 1e-9,
                "{}",
                spec.label()
            );
        }
    }

    #[test]
    fn closed_form_degree_stats_refuse_a_degree_sum_past_usize() {
        let half = 1usize << (usize::BITS - 2);
        let spec = TopologySpec::CompleteBipartite { a: half, b: half };
        assert_eq!(spec.closed_form_degree_stats(), None);
    }

    #[test]
    fn expected_degree_matches_the_realised_mean() {
        // Exact for closed forms; within Monte-Carlo range for hash-defined.
        let cases = vec![
            TopologySpec::Complete { n: 40 },
            TopologySpec::CompleteBipartite { a: 10, b: 30 },
            TopologySpec::CompleteMultipartite {
                blocks: vec![10, 15, 25],
            },
            TopologySpec::ImplicitGnp { n: 300, p: 0.5 },
            TopologySpec::ImplicitSbm {
                n: 300,
                blocks: 3,
                p_in: 0.6,
                p_out: 0.2,
            },
        ];
        for spec in cases {
            let expected = spec.expected_degree().expect("implicit family");
            let graph = materialize(&spec.build(5).unwrap()).unwrap();
            let realised = 2.0 * graph.num_edges() as f64 / graph.num_vertices() as f64;
            let tolerance = if spec.is_hash_defined() {
                // ~5 sigma of the mean-degree fluctuation.
                5.0 * (expected / graph.num_vertices() as f64).sqrt().max(0.1)
            } else {
                1e-9
            };
            assert!(
                (expected - realised).abs() <= tolerance,
                "{}: expected {expected}, realised {realised}",
                spec.label()
            );
        }
        assert!(TopologySpec::Materialised(GraphSpec::Complete { n: 9 })
            .expected_degree()
            .is_none());
    }

    #[test]
    fn hash_defined_and_materialised_families_have_no_closed_form() {
        assert!(TopologySpec::ImplicitGnp { n: 10, p: 0.5 }
            .closed_form_degree_stats()
            .is_none());
        assert!(TopologySpec::ImplicitSbm {
            n: 10,
            blocks: 2,
            p_in: 0.5,
            p_out: 0.1
        }
        .closed_form_degree_stats()
        .is_none());
        assert!(TopologySpec::Materialised(GraphSpec::Complete { n: 10 })
            .closed_form_degree_stats()
            .is_none());
    }

    #[test]
    fn num_vertices_covers_every_materialised_family() {
        let cases = vec![
            (GraphSpec::Complete { n: 9 }, 9),
            (GraphSpec::Hypercube { dim: 4 }, 16),
            (GraphSpec::Torus2d { rows: 3, cols: 5 }, 15),
            (GraphSpec::Grid2d { rows: 2, cols: 7 }, 14),
            (
                GraphSpec::Barbell {
                    clique: 5,
                    bridge: 3,
                },
                13,
            ),
            (
                GraphSpec::CorePeriphery {
                    core: 4,
                    periphery: 10,
                    attach: 2,
                },
                14,
            ),
            (GraphSpec::CompleteBipartite { a: 3, b: 4 }, 7),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        for (spec, expected) in cases {
            assert_eq!(spec.num_vertices(), expected, "{}", spec.label());
            let g = spec.generate(&mut rng).unwrap();
            assert_eq!(g.num_vertices(), expected, "{}", spec.label());
        }
    }
}

/// Graph fingerprints: every [`GraphSpec`] family built through
/// [`TopologySpec::build`] at a fixed seed, its CSR arrays folded into one
/// `u64` and checked against a table recorded once.  This pins the output
/// of every generator and of [`crate::builder::GraphBuilder`]: a change to
/// either that moves an entry changes the graphs seeded experiments run on.
#[cfg(test)]
mod fingerprints {
    use super::*;

    /// The seed every case is built at.
    const SEED: u64 = 0x005E_ED0F_6A7E;

    /// Folds one word into a running fingerprint (SplitMix64's finaliser).
    fn fold(h: u64, word: u64) -> u64 {
        let mut z = (h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every `GraphSpec` variant, with `ErdosRenyiGnm` on both its direct
    /// (`m` at most half the pairs) and complement branches.
    fn cases() -> Vec<(&'static str, GraphSpec)> {
        vec![
            ("complete", GraphSpec::Complete { n: 40 }),
            ("cycle", GraphSpec::Cycle { n: 50 }),
            ("path", GraphSpec::Path { n: 50 }),
            ("star", GraphSpec::Star { n: 50 }),
            ("wheel", GraphSpec::Wheel { n: 50 }),
            (
                "complete bipartite",
                GraphSpec::CompleteBipartite { a: 13, b: 20 },
            ),
            ("gnp", GraphSpec::ErdosRenyiGnp { n: 300, p: 0.05 }),
            ("gnm direct", GraphSpec::ErdosRenyiGnm { n: 200, m: 800 }),
            (
                "gnm complement",
                GraphSpec::ErdosRenyiGnm { n: 60, m: 1_500 },
            ),
            (
                "dense for alpha",
                GraphSpec::DenseForAlpha { n: 500, alpha: 0.6 },
            ),
            ("random regular", GraphSpec::RandomRegular { n: 120, d: 7 }),
            (
                "chung-lu",
                GraphSpec::ChungLuPowerLaw {
                    n: 300,
                    exponent: 2.5,
                    min_weight: 3.0,
                    max_weight: 40.0,
                },
            ),
            ("hypercube", GraphSpec::Hypercube { dim: 7 }),
            ("torus", GraphSpec::Torus2d { rows: 9, cols: 11 }),
            ("grid", GraphSpec::Grid2d { rows: 9, cols: 11 }),
            (
                "planted partition",
                GraphSpec::PlantedPartition {
                    n: 240,
                    blocks: 3,
                    p_in: 0.2,
                    p_out: 0.02,
                },
            ),
            (
                "barbell",
                GraphSpec::Barbell {
                    clique: 12,
                    bridge: 5,
                },
            ),
            (
                "core-periphery",
                GraphSpec::CorePeriphery {
                    core: 30,
                    periphery: 90,
                    attach: 3,
                },
            ),
        ]
    }

    /// One graph's fingerprint: `n`, then every offset, then every
    /// neighbour, each folded as a `u64` word.
    fn fingerprint(graph: &CsrGraph) -> u64 {
        let (offsets, neighbours) = graph.as_csr();
        offsets
            .iter()
            .map(|&o| o as u64)
            .chain(neighbours.iter().map(|&w| u64::from(w)))
            .fold(fold(0, graph.num_vertices() as u64), fold)
    }

    fn graph_fingerprints() -> Vec<(&'static str, u64)> {
        cases()
            .into_iter()
            .map(|(label, spec)| {
                match TopologySpec::Materialised(spec)
                    .build(SEED)
                    .expect("graph builds")
                {
                    BuiltTopology::Materialised(graph) => (label, fingerprint(&graph)),
                    _ => unreachable!("a materialised spec builds a CSR graph"),
                }
            })
            .collect()
    }

    /// Recorded once from the generators' output; see the module docs.
    #[rustfmt::skip]
    const RECORDED: &[(&str, u64)] = &[
        ("complete", 0x67550f3beb27069b),
        ("cycle", 0x8c4b29b76d4e340c),
        ("path", 0xe21698a557e8bdd9),
        ("star", 0x63aabc7f2609f5a2),
        ("wheel", 0x4fb552350383df76),
        ("complete bipartite", 0xd3ce60450423e8fc),
        ("gnp", 0xdfbeaa3130ececc4),
        ("gnm direct", 0x112a11cacc8aa755),
        ("gnm complement", 0x44be6254d558cf5f),
        ("dense for alpha", 0xbbeb5d947df2a8eb),
        ("random regular", 0xa80aa29ee7795f0c),
        ("chung-lu", 0x259f4fc2400f83cd),
        ("hypercube", 0xfaf51efc47508188),
        ("torus", 0xaf6be4dbcfe20fc0),
        ("grid", 0xb36582eb05f0ce72),
        ("planted partition", 0xcee6c6ffedac997f),
        ("barbell", 0x08c7ddeb3a1c8bfb),
        ("core-periphery", 0xd9d011b630ab1775),
    ];

    #[test]
    fn graph_fingerprints_match_the_recorded_table() {
        let table = graph_fingerprints();
        if table != RECORDED {
            eprintln!("recomputed table:");
            for (label, value) in &table {
                eprintln!("        (\"{label}\", {value:#018x}),");
            }
            panic!("graph fingerprints differ from the recorded table");
        }
    }
}
