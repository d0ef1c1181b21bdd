//! Graph generators.
//!
//! Theorem 1 quantifies over *all* graphs with minimum degree `n^α`; these
//! generators produce representative members of that family (complete,
//! dense Erdős–Rényi, random regular, dense SBM, core–periphery, …) as well
//! as deliberately out-of-scope graphs (cycles, paths, sparse ER, barbells
//! with a thin bridge) used by the degree-sweep and robustness experiments.

mod barbell;
mod chung_lu;
mod classic;
mod complete;
mod core_periphery;
mod erdos_renyi;
mod grid;
mod hypercube;
mod regular;
mod sbm;

pub use barbell::barbell;
pub use chung_lu::{chung_lu, power_law_weights};
pub use classic::{complete_bipartite, cycle, path, star, wheel};
pub use complete::complete;
pub use core_periphery::core_periphery;
pub use erdos_renyi::{dense_gnp_for_alpha, erdos_renyi_gnm, erdos_renyi_gnp};
pub use grid::{grid_2d, torus_2d};
pub use hypercube::hypercube;
pub use regular::random_regular;
pub use sbm::{planted_block_of, planted_partition, stochastic_block_model};

use rand::Rng;

use crate::csr::CsrGraph;
use crate::error::Result;

/// A serialisable description of a graph family instance, so experiment
/// configurations can name the graph they ran on.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are documented on the variants themselves
pub enum GraphSpec {
    /// Complete graph `K_n`.
    Complete { n: usize },
    /// Cycle `C_n`.
    Cycle { n: usize },
    /// Path `P_n`.
    Path { n: usize },
    /// Star `K_{1,n-1}`.
    Star { n: usize },
    /// Wheel on `n` vertices.
    Wheel { n: usize },
    /// Complete bipartite `K_{a,b}`.
    CompleteBipartite { a: usize, b: usize },
    /// Erdős–Rényi `G(n, p)`.
    ErdosRenyiGnp { n: usize, p: f64 },
    /// Erdős–Rényi `G(n, m)`.
    ErdosRenyiGnm { n: usize, m: usize },
    /// Dense `G(n, p)` with `p` chosen so the expected degree is `n^alpha`.
    DenseForAlpha { n: usize, alpha: f64 },
    /// Random `d`-regular graph.
    RandomRegular { n: usize, d: usize },
    /// Chung–Lu graph with power-law expected degrees.
    ChungLuPowerLaw {
        n: usize,
        exponent: f64,
        min_weight: f64,
        max_weight: f64,
    },
    /// Hypercube of the given dimension (`n = 2^dim`).
    Hypercube { dim: usize },
    /// 2-dimensional torus (`rows x cols`).
    Torus2d { rows: usize, cols: usize },
    /// 2-dimensional grid (`rows x cols`), no wrap-around.
    Grid2d { rows: usize, cols: usize },
    /// Planted partition model with `blocks` equal blocks.
    PlantedPartition {
        n: usize,
        blocks: usize,
        p_in: f64,
        p_out: f64,
    },
    /// Barbell: two cliques of size `clique` joined by a path of `bridge` vertices.
    Barbell { clique: usize, bridge: usize },
    /// Core–periphery: dense core of `core` vertices, `periphery` satellite vertices.
    CorePeriphery {
        core: usize,
        periphery: usize,
        attach: usize,
    },
}

impl GraphSpec {
    /// Instantiates the described graph, drawing randomness from `rng` for
    /// the random families (deterministic families ignore `rng`).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CsrGraph> {
        match *self {
            GraphSpec::Complete { n } => Ok(complete(n)),
            GraphSpec::Cycle { n } => cycle(n),
            GraphSpec::Path { n } => path(n),
            GraphSpec::Star { n } => star(n),
            GraphSpec::Wheel { n } => wheel(n),
            GraphSpec::CompleteBipartite { a, b } => complete_bipartite(a, b),
            GraphSpec::ErdosRenyiGnp { n, p } => erdos_renyi_gnp(n, p, rng),
            GraphSpec::ErdosRenyiGnm { n, m } => erdos_renyi_gnm(n, m, rng),
            GraphSpec::DenseForAlpha { n, alpha } => dense_gnp_for_alpha(n, alpha, rng),
            GraphSpec::RandomRegular { n, d } => random_regular(n, d, rng),
            GraphSpec::ChungLuPowerLaw {
                n,
                exponent,
                min_weight,
                max_weight,
            } => {
                let weights = power_law_weights(n, exponent, min_weight, max_weight)?;
                chung_lu(&weights, rng)
            }
            GraphSpec::Hypercube { dim } => hypercube(dim),
            GraphSpec::Torus2d { rows, cols } => torus_2d(rows, cols),
            GraphSpec::Grid2d { rows, cols } => grid_2d(rows, cols),
            GraphSpec::PlantedPartition {
                n,
                blocks,
                p_in,
                p_out,
            } => planted_partition(n, blocks, p_in, p_out, rng),
            GraphSpec::Barbell { clique, bridge } => barbell(clique, bridge),
            GraphSpec::CorePeriphery {
                core,
                periphery,
                attach,
            } => core_periphery(core, periphery, attach, rng),
        }
    }

    /// Number of vertices the generated graph will have, without generating
    /// it (every family's vertex count is a closed form of its parameters),
    /// saturating at `usize::MAX`.
    pub fn num_vertices(&self) -> usize {
        match *self {
            GraphSpec::Complete { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::Path { n }
            | GraphSpec::Star { n }
            | GraphSpec::Wheel { n }
            | GraphSpec::ErdosRenyiGnp { n, .. }
            | GraphSpec::ErdosRenyiGnm { n, .. }
            | GraphSpec::DenseForAlpha { n, .. }
            | GraphSpec::RandomRegular { n, .. }
            | GraphSpec::ChungLuPowerLaw { n, .. }
            | GraphSpec::PlantedPartition { n, .. } => n,
            GraphSpec::CompleteBipartite { a, b } => a.saturating_add(b),
            GraphSpec::Hypercube { dim } if dim < usize::BITS as usize => 1 << dim,
            GraphSpec::Hypercube { .. } => usize::MAX,
            GraphSpec::Torus2d { rows, cols } | GraphSpec::Grid2d { rows, cols } => {
                rows.saturating_mul(cols)
            }
            GraphSpec::Barbell { clique, bridge } => {
                clique.saturating_mul(2).saturating_add(bridge)
            }
            GraphSpec::CorePeriphery {
                core, periphery, ..
            } => core.saturating_add(periphery),
        }
    }

    /// A short human-readable label for reports and bench names.
    pub fn label(&self) -> String {
        match *self {
            GraphSpec::Complete { n } => format!("complete(n={n})"),
            GraphSpec::Cycle { n } => format!("cycle(n={n})"),
            GraphSpec::Path { n } => format!("path(n={n})"),
            GraphSpec::Star { n } => format!("star(n={n})"),
            GraphSpec::Wheel { n } => format!("wheel(n={n})"),
            GraphSpec::CompleteBipartite { a, b } => format!("complete_bipartite({a},{b})"),
            GraphSpec::ErdosRenyiGnp { n, p } => format!("gnp(n={n},p={p})"),
            GraphSpec::ErdosRenyiGnm { n, m } => format!("gnm(n={n},m={m})"),
            GraphSpec::DenseForAlpha { n, alpha } => format!("dense_gnp(n={n},alpha={alpha})"),
            GraphSpec::RandomRegular { n, d } => format!("random_regular(n={n},d={d})"),
            GraphSpec::ChungLuPowerLaw { n, exponent, .. } => {
                format!("chung_lu(n={n},gamma={exponent})")
            }
            GraphSpec::Hypercube { dim } => format!("hypercube(dim={dim})"),
            GraphSpec::Torus2d { rows, cols } => format!("torus({rows}x{cols})"),
            GraphSpec::Grid2d { rows, cols } => format!("grid({rows}x{cols})"),
            GraphSpec::PlantedPartition {
                n,
                blocks,
                p_in,
                p_out,
            } => {
                format!("planted_partition(n={n},k={blocks},p_in={p_in},p_out={p_out})")
            }
            GraphSpec::Barbell { clique, bridge } => {
                format!("barbell(clique={clique},bridge={bridge})")
            }
            GraphSpec::CorePeriphery {
                core,
                periphery,
                attach,
            } => {
                format!("core_periphery(core={core},periphery={periphery},attach={attach})")
            }
        }
    }
}

/// Structure checks for the graph tests: the exact diameter and the
/// 2-colourability of small connected graphs, by breadth-first search.
#[cfg(test)]
pub(crate) mod checks {
    use std::collections::VecDeque;

    use crate::csr::CsrGraph;

    /// BFS distances from `source`; panics if some vertex is unreachable.
    fn distances(graph: &CsrGraph, source: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; graph.num_vertices()];
        dist[source] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            for &w in graph.neighbours(v) {
                let w = w as usize;
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        assert!(dist.iter().all(|&d| d != usize::MAX), "disconnected graph");
        dist
    }

    /// The exact diameter: the greatest distance over a BFS from every vertex.
    pub(crate) fn diameter(graph: &CsrGraph) -> usize {
        graph
            .vertices()
            .flat_map(|v| distances(graph, v))
            .max()
            .unwrap_or(0)
    }

    /// `true` when no edge joins two vertices of equal BFS depth parity.
    pub(crate) fn is_bipartite(graph: &CsrGraph) -> bool {
        let depth = distances(graph, 0);
        graph.edges().all(|(u, v)| depth[u] % 2 != depth[v] % 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spec_generates_every_family() {
        let mut rng = StdRng::seed_from_u64(77);
        let specs = vec![
            GraphSpec::Complete { n: 10 },
            GraphSpec::Cycle { n: 10 },
            GraphSpec::Path { n: 10 },
            GraphSpec::Star { n: 10 },
            GraphSpec::Wheel { n: 10 },
            GraphSpec::CompleteBipartite { a: 4, b: 6 },
            GraphSpec::ErdosRenyiGnp { n: 40, p: 0.3 },
            GraphSpec::ErdosRenyiGnm { n: 40, m: 100 },
            GraphSpec::DenseForAlpha { n: 100, alpha: 0.7 },
            GraphSpec::RandomRegular { n: 30, d: 4 },
            GraphSpec::ChungLuPowerLaw {
                n: 50,
                exponent: 2.5,
                min_weight: 3.0,
                max_weight: 20.0,
            },
            GraphSpec::Hypercube { dim: 4 },
            GraphSpec::Torus2d { rows: 5, cols: 6 },
            GraphSpec::Grid2d { rows: 5, cols: 6 },
            GraphSpec::PlantedPartition {
                n: 40,
                blocks: 4,
                p_in: 0.6,
                p_out: 0.1,
            },
            GraphSpec::Barbell {
                clique: 8,
                bridge: 2,
            },
            GraphSpec::CorePeriphery {
                core: 10,
                periphery: 20,
                attach: 3,
            },
        ];
        for spec in specs {
            let g = spec.generate(&mut rng).unwrap();
            assert!(
                g.num_vertices() > 0,
                "{} produced an empty graph",
                spec.label()
            );
            assert!(!spec.label().is_empty());
        }
    }

    #[test]
    fn labels_mention_key_parameters() {
        assert!(GraphSpec::Complete { n: 9 }.label().contains("n=9"));
        assert!(GraphSpec::RandomRegular { n: 10, d: 3 }
            .label()
            .contains("d=3"));
        assert!(GraphSpec::Hypercube { dim: 5 }.label().contains("dim=5"));
    }
}
