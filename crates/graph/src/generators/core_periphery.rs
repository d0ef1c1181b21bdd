//! Core–periphery graphs: a dense clique core with sparsely attached satellites.
//!
//! These graphs have a *heterogeneous* degree profile whose minimum degree is
//! set by the periphery attachment count, letting experiments separate "the
//! minimum degree is large" from "the graph is dense on average".

use rand::Rng;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// A clique core of `core` vertices (`0..core`) plus `periphery` satellite
/// vertices, each attached to `attach` distinct uniformly random core
/// vertices. Requires `core ≥ 2`, `attach ≥ 1`, and `attach ≤ core`.
pub fn core_periphery<R: Rng + ?Sized>(
    core: usize,
    periphery: usize,
    attach: usize,
    rng: &mut R,
) -> Result<CsrGraph> {
    if core < 2 {
        return Err(GraphError::InvalidParameter {
            reason: format!("core must have at least 2 vertices, got {core}"),
        });
    }
    if attach == 0 || attach > core {
        return Err(GraphError::InvalidParameter {
            reason: format!("attach must satisfy 1 <= attach <= core, got {attach} (core {core})"),
        });
    }
    let n = core + periphery;
    let mut b = GraphBuilder::with_capacity(n, core * (core - 1) / 2 + periphery * attach);

    for u in 0..core {
        for v in (u + 1)..core {
            b.push_edge(u, v)?;
        }
    }

    // Partial Fisher–Yates to pick `attach` distinct core anchors per satellite.
    let mut anchors: Vec<usize> = (0..core).collect();
    for s in 0..periphery {
        let satellite = core + s;
        for i in 0..attach {
            let j = rng.gen_range(i..core);
            anchors.swap(i, j);
            b.push_edge(satellite, anchors[i])?;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(core_periphery(1, 5, 1, &mut rng).is_err());
        assert!(core_periphery(5, 5, 0, &mut rng).is_err());
        assert!(core_periphery(5, 5, 6, &mut rng).is_err());
    }

    #[test]
    fn counts_are_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = core_periphery(10, 20, 3, &mut rng).unwrap();
        assert_eq!(g.num_vertices(), 30);
        assert_eq!(g.num_edges(), 45 + 60);
    }

    #[test]
    fn satellites_have_exactly_attach_degree() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = core_periphery(12, 15, 4, &mut rng).unwrap();
        for s in 12..27 {
            assert_eq!(g.degree(s), 4);
            for &w in g.neighbours(s) {
                assert!(w < 12, "satellite {s} attached to non-core vertex {w}");
            }
        }
    }

    #[test]
    fn core_is_a_clique_and_graph_is_connected() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = core_periphery(8, 10, 2, &mut rng).unwrap();
        for u in 0..8 {
            for v in 0..8 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn zero_periphery_is_just_a_clique() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = core_periphery(6, 0, 2, &mut rng).unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 15);
    }

    #[test]
    fn minimum_degree_is_attach_when_periphery_nonempty() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = core_periphery(20, 30, 5, &mut rng).unwrap();
        assert_eq!(DegreeStats::of(&g).unwrap().min, 5);
    }
}
