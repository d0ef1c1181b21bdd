//! 2-dimensional grids and tori.
//!
//! Constant-degree lattices sit at the opposite extreme from the paper's
//! dense regime; the degree-sweep and robustness experiments use them to
//! show where the `O(log log n)` behaviour breaks down.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

fn index(rows: usize, cols: usize, r: usize, c: usize) -> usize {
    debug_assert!(r < rows && c < cols);
    r * cols + c
}

/// `rows × cols` grid with 4-neighbour adjacency and no wrap-around.
pub fn grid_2d(rows: usize, cols: usize) -> Result<CsrGraph> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("grid dimensions must be positive, got {rows}x{cols}"),
        });
    }
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = index(rows, cols, r, c);
            if c + 1 < cols {
                b.push_edge(v, index(rows, cols, r, c + 1))?;
            }
            if r + 1 < rows {
                b.push_edge(v, index(rows, cols, r + 1, c))?;
            }
        }
    }
    b.build()
}

/// `rows × cols` torus: 4-neighbour adjacency with wrap-around. Requires both
/// dimensions to be at least 3 so the graph is simple (no parallel edges).
pub fn torus_2d(rows: usize, cols: usize) -> Result<CsrGraph> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("torus dimensions must be at least 3, got {rows}x{cols}"),
        });
    }
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = index(rows, cols, r, c);
            let right = index(rows, cols, r, (c + 1) % cols);
            let down = index(rows, cols, (r + 1) % rows, c);
            b.push_edge(v, right)?;
            b.push_edge(v, down)?;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::checks::diameter;
    use crate::traversal::is_connected;

    #[test]
    fn rejects_degenerate_dimensions() {
        assert!(grid_2d(0, 5).is_err());
        assert!(grid_2d(5, 0).is_err());
        assert!(torus_2d(2, 5).is_err());
        assert!(torus_2d(5, 2).is_err());
    }

    #[test]
    fn grid_edge_count_and_degrees() {
        let g = grid_2d(4, 5).unwrap();
        assert_eq!(g.num_vertices(), 20);
        // Edges: rows*(cols-1) + cols*(rows-1) = 4*4 + 5*3 = 31.
        assert_eq!(g.num_edges(), 31);
        // Corner has degree 2, edge vertex 3, interior 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(6), 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn single_row_grid_is_a_path() {
        let g = grid_2d(1, 6).unwrap();
        assert_eq!(g.num_edges(), 5);
        assert_eq!(diameter(&g), 5);
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus_2d(5, 7).unwrap();
        assert_eq!(g.num_vertices(), 35);
        assert_eq!(g.num_edges(), 2 * 35);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn torus_wraps_around() {
        let g = torus_2d(4, 4).unwrap();
        // Vertex (0,0) is adjacent to (0,3) and (3,0) thanks to wrap-around.
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(0, 12));
    }

    #[test]
    fn torus_diameter() {
        let g = torus_2d(6, 6).unwrap();
        assert_eq!(diameter(&g), 6);
    }
}
