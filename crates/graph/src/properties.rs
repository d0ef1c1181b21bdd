//! Miscellaneous structural properties used to characterise experiment inputs.

use crate::csr::CsrGraph;

/// Edge density `m / (n choose 2)`; `0.0` for graphs with fewer than two vertices.
pub fn density(graph: &CsrGraph) -> f64 {
    let n = graph.num_vertices();
    if n < 2 {
        return 0.0;
    }
    let possible = n as f64 * (n as f64 - 1.0) / 2.0;
    graph.num_edges() as f64 / possible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn density_of_complete_graph_is_one() {
        let g = generators::complete(12);
        assert!((density(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_of_empty_and_tiny_graphs() {
        assert_eq!(density(&GraphBuilder::new(0).build().unwrap()), 0.0);
        assert_eq!(density(&GraphBuilder::new(1).build().unwrap()), 0.0);
        let g = GraphBuilder::new(4).build().unwrap();
        assert_eq!(density(&g), 0.0);
    }
}
