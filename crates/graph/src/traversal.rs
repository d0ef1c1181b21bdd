//! The connectivity check every experiment input passes.
//!
//! Consensus-time experiments are meaningless on a disconnected graph, so
//! every experiment validates its materialised input with [`is_connected`]
//! before running the dynamics.

use std::collections::VecDeque;

use crate::csr::{CsrGraph, VertexId};

/// `true` when the graph is connected (the empty graph counts as connected).
///
/// One breadth-first search from vertex 0 that counts the vertices it
/// reaches, stopping as soon as it has reached all of them.
pub fn is_connected(graph: &CsrGraph) -> bool {
    let n = graph.num_vertices();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    seen[0] = true;
    let mut reached = 1;
    let mut queue = VecDeque::from([0]);
    while reached < n {
        let Some(v) = queue.pop_front() else {
            return false;
        };
        for &w in graph.neighbours(v) {
            let w = w as VertexId;
            if !seen[w] {
                seen[w] = true;
                reached += 1;
                queue.push_back(w);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;
    use crate::generators::checks::is_bipartite;

    #[test]
    fn disconnected_graphs_are_not_connected() {
        let two_edges = GraphBuilder::new(5)
            .add_edges([(0, 1), (2, 3)])
            .unwrap()
            .build()
            .unwrap();
        assert!(!is_connected(&two_edges));
        // Vertex 0 isolated, the rest a path.
        let isolated_source = GraphBuilder::new(4)
            .add_edges([(1, 2), (2, 3)])
            .unwrap()
            .build()
            .unwrap();
        assert!(!is_connected(&isolated_source));
        assert!(is_connected(&generators::path(5).unwrap()));
    }

    #[test]
    fn complete_graph_is_connected_not_bipartite() {
        let g = generators::complete(6);
        assert!(is_connected(&g));
        assert!(!is_bipartite(&g));
    }

    #[test]
    fn complete_bipartite_is_bipartite() {
        let g = generators::complete_bipartite(4, 7).unwrap();
        assert!(is_bipartite(&g));
        assert!(is_connected(&g));
    }

    #[test]
    fn empty_and_trivial_graphs_are_connected() {
        assert!(is_connected(&GraphBuilder::new(0).build().unwrap()));
        assert!(is_connected(&GraphBuilder::new(1).build().unwrap()));
        assert!(!is_connected(&GraphBuilder::new(2).build().unwrap()));
    }
}
