//! The boolean hypercube `Q_dim`.
//!
//! A classic regular graph with logarithmic degree — *below* the paper's
//! density threshold — used by the COBRA-walk experiment (E8) and as a
//! stress case for the degree sweep.

use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// Hypercube of dimension `dim`: vertices are the `2^dim` bit strings, with
/// an edge between strings at Hamming distance 1.
pub fn hypercube(dim: usize) -> Result<CsrGraph> {
    if dim == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "hypercube dimension must be at least 1".into(),
        });
    }
    if dim > 28 {
        return Err(GraphError::InvalidParameter {
            reason: format!("hypercube dimension {dim} too large (limit 28)"),
        });
    }
    let n = 1usize << dim;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbours = Vec::with_capacity(n * dim);
    offsets.push(0);
    for v in 0..n {
        // Flipping bit b gives the neighbours; collect then sort.
        let mut row: Vec<u32> = (0..dim).map(|b| (v ^ (1 << b)) as u32).collect();
        row.sort_unstable();
        neighbours.extend_from_slice(&row);
        offsets.push(neighbours.len());
    }
    Ok(CsrGraph::from_csr_unchecked(n, offsets, neighbours))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::checks::{diameter, is_bipartite};
    use crate::traversal::is_connected;

    #[test]
    fn rejects_degenerate_dimensions() {
        assert!(hypercube(0).is_err());
        assert!(hypercube(40).is_err());
    }

    #[test]
    fn dimension_one_is_an_edge() {
        let g = hypercube(1).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn counts_and_regularity() {
        for dim in 1..=6 {
            let g = hypercube(dim).unwrap();
            let n = 1 << dim;
            assert_eq!(g.num_vertices(), n);
            assert_eq!(g.num_edges(), n * dim / 2);
            for v in g.vertices() {
                assert_eq!(g.degree(v), dim);
            }
        }
    }

    #[test]
    fn adjacency_is_hamming_distance_one() {
        let g = hypercube(4).unwrap();
        for u in g.vertices() {
            for v in g.vertices() {
                let adjacent = (u ^ v).count_ones() == 1;
                assert_eq!(g.has_edge(u, v), adjacent, "u={u}, v={v}");
            }
        }
    }

    #[test]
    fn structural_properties() {
        let g = hypercube(5).unwrap();
        assert!(is_connected(&g));
        assert!(is_bipartite(&g));
        assert_eq!(diameter(&g), 5);
    }
}
