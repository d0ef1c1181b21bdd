//! Degree statistics.
//!
//! The main theorem is parameterised by the *minimum degree* written as
//! `d = n^α`; [`DegreeStats::alpha`] recovers the exponent α so experiments
//! can be expressed directly in the paper's terms.

use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// Summary statistics of a graph's degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: f64,
    /// Population variance of the degree sequence.
    pub variance: f64,
}

impl DegreeStats {
    /// Computes degree statistics; errors on the empty graph.
    pub fn of(graph: &CsrGraph) -> Result<Self> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let mut degrees: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
        degrees.sort_unstable();
        let min = degrees[0];
        let max = degrees[n - 1];
        let sum: usize = degrees.iter().sum();
        let mean = sum as f64 / n as f64;
        let median = if n % 2 == 1 {
            degrees[n / 2] as f64
        } else {
            (degrees[n / 2 - 1] + degrees[n / 2]) as f64 / 2.0
        };
        let variance = degrees
            .iter()
            .map(|&d| (d as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        Ok(DegreeStats {
            n,
            m: graph.num_edges(),
            min,
            max,
            mean,
            median,
            variance,
        })
    }

    /// The exponent `α` such that the minimum degree equals `n^α`.
    ///
    /// Theorem 1 requires `α = Ω(1/ log log n)`.  Returns `None` when the
    /// graph has a single vertex (α is undefined) or the minimum degree is 0.
    pub fn alpha(&self) -> Option<f64> {
        if self.n <= 1 || self.min == 0 {
            return None;
        }
        Some((self.min as f64).ln() / (self.n as f64).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn stats_of_complete_graph() {
        let g = generators::complete(10);
        let s = DegreeStats::of(&g).unwrap();
        assert_eq!(s.n, 10);
        assert_eq!(s.m, 45);
        assert_eq!(s.min, 9);
        assert_eq!(s.max, 9);
        assert!((s.mean - 9.0).abs() < 1e-12);
        assert!((s.median - 9.0).abs() < 1e-12);
        assert!(s.variance.abs() < 1e-12);
    }

    #[test]
    fn stats_of_star() {
        let g = generators::star(5).unwrap();
        let s = DegreeStats::of(&g).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn stats_error_on_empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(matches!(DegreeStats::of(&g), Err(GraphError::EmptyGraph)));
    }

    #[test]
    fn alpha_of_complete_graph_is_near_one() {
        let g = generators::complete(1000);
        let s = DegreeStats::of(&g).unwrap();
        let alpha = s.alpha().unwrap();
        assert!(alpha > 0.99 && alpha <= 1.0, "alpha = {alpha}");
    }

    #[test]
    fn alpha_undefined_for_single_vertex_or_isolated() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(DegreeStats::of(&g).unwrap().alpha(), None);
        let g2 = GraphBuilder::new(3)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(DegreeStats::of(&g2).unwrap().alpha(), None);
    }
}
