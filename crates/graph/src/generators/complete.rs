//! The complete graph `K_n`.

use crate::csr::CsrGraph;

/// Complete graph on `n` vertices.
///
/// This is the topology studied by most of the prior Best-of-k literature
/// (\[2], \[8] in the paper); the paper's contribution is precisely to move
/// beyond it, so `K_n` serves as the reference point in every comparison.
pub fn complete(n: usize) -> CsrGraph {
    let mut offsets = Vec::with_capacity(n + 1);
    let mut neighbours = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
    offsets.push(0);
    for v in 0..n {
        for w in 0..n {
            if w != v {
                // Exact: for `n > 2³²` the capacity above already failed.
                neighbours.push(w as u32);
            }
        }
        offsets.push(neighbours.len());
    }
    CsrGraph::from_csr_unchecked(n, offsets, neighbours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_counts() {
        for n in [0usize, 1, 2, 5, 20] {
            let g = complete(n);
            assert_eq!(g.num_vertices(), n);
            assert_eq!(g.num_edges(), n * n.saturating_sub(1) / 2);
            for v in g.vertices() {
                assert_eq!(g.degree(v), n - 1);
            }
        }
    }

    #[test]
    fn every_pair_is_adjacent() {
        let g = complete(7);
        for u in 0..7 {
            for v in 0..7 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn neighbour_rows_are_sorted_and_self_free() {
        let g = complete(6);
        for v in g.vertices() {
            let row = g.neighbours(v);
            assert!(row.windows(2).all(|w| w[0] < w[1]));
            assert!(!row.contains(&(v as u32)));
        }
    }
}
