//! Barbell graphs: two cliques joined by a path.
//!
//! The barbell has a huge minimum degree inside the cliques but a
//! bottleneck of constant width, making it the canonical example where
//! counting-based analyses ([4], [5]) fail and where initial-opinion
//! *placement* (one clique all blue) matters; the robustness tests use it to
//! show which parts of Theorem 1's hypothesis are load-bearing.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// Two cliques of `clique` vertices each, joined by a path of `bridge`
/// intermediate vertices (`bridge = 0` joins the cliques by a single edge).
///
/// Vertex numbering: `0..clique` is the left clique, `clique..2*clique` the
/// right clique, and `2*clique..2*clique+bridge` the bridge path from left to
/// right. Requires `clique ≥ 3`.
pub fn barbell(clique: usize, bridge: usize) -> Result<CsrGraph> {
    if clique < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("barbell cliques need at least 3 vertices, got {clique}"),
        });
    }
    let n = 2 * clique + bridge;
    let mut b = GraphBuilder::with_capacity(n, clique * (clique - 1) + bridge + 1);

    for u in 0..clique {
        for v in (u + 1)..clique {
            b.push_edge(u, v)?;
            b.push_edge(clique + u, clique + v)?;
        }
    }

    // Attachment points: vertex clique-1 on the left, vertex clique on the right.
    let left_port = clique - 1;
    let right_port = clique;
    if bridge == 0 {
        b.push_edge(left_port, right_port)?;
    } else {
        let first_bridge = 2 * clique;
        b.push_edge(left_port, first_bridge)?;
        for i in 0..bridge - 1 {
            b.push_edge(first_bridge + i, first_bridge + i + 1)?;
        }
        b.push_edge(first_bridge + bridge - 1, right_port)?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::checks::diameter;
    use crate::traversal::is_connected;

    #[test]
    fn rejects_tiny_cliques() {
        assert!(barbell(2, 0).is_err());
    }

    #[test]
    fn zero_bridge_barbell() {
        let g = barbell(4, 0).unwrap();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 2 * 6 + 1);
        assert!(is_connected(&g));
        assert!(g.has_edge(3, 4));
    }

    #[test]
    fn bridged_barbell_counts() {
        let g = barbell(5, 3).unwrap();
        assert_eq!(g.num_vertices(), 13);
        assert_eq!(g.num_edges(), 2 * 10 + 4);
        assert!(is_connected(&g));
    }

    #[test]
    fn clique_vertices_have_clique_degrees() {
        let g = barbell(6, 2).unwrap();
        // Non-port clique vertices have degree clique-1; ports have +1.
        assert_eq!(g.degree(0), 5);
        assert_eq!(g.degree(5), 6); // left port
        assert_eq!(g.degree(6), 6); // right port
        assert_eq!(g.degree(12), 2); // bridge vertex
    }

    #[test]
    fn diameter_grows_with_bridge() {
        let short = barbell(4, 0).unwrap();
        let long = barbell(4, 6).unwrap();
        assert!(diameter(&long) > diameter(&short));
        assert_eq!(diameter(&short), 3);
        assert_eq!(diameter(&long), 9);
    }

    #[test]
    fn cliques_are_complete_internally() {
        let g = barbell(5, 1).unwrap();
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
        for u in 5..10 {
            for v in 5..10 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
        // No direct edges between the cliques when a bridge vertex exists.
        assert!(!g.has_edge(4, 5));
    }
}
