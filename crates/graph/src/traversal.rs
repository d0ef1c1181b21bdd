//! Breadth-first traversal and global structure checks.
//!
//! The voter-model baseline only reaches consensus on connected,
//! non-bipartite graphs, and consensus-time experiments are meaningless on a
//! disconnected graph, so every experiment validates its input with these
//! routines before running the dynamics.

use std::collections::VecDeque;

use crate::csr::{CsrGraph, VertexId};
use crate::error::{GraphError, Result};

/// Result of a single-source BFS.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Distance from the source, `usize::MAX` for unreachable vertices.
    pub dist: Vec<usize>,
    /// BFS parent, `usize::MAX` for the source and unreachable vertices.
    pub parent: Vec<usize>,
    /// Vertices in the order they were dequeued.
    pub order: Vec<VertexId>,
}

/// Breadth-first search from `source`.
pub fn bfs(graph: &CsrGraph, source: VertexId) -> Result<BfsResult> {
    let n = graph.num_vertices();
    if source >= n {
        return Err(GraphError::VertexOutOfRange { vertex: source, n });
    }
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in graph.neighbours(v) {
            let w = w as VertexId;
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                parent[w] = v;
                queue.push_back(w);
            }
        }
    }
    Ok(BfsResult {
        dist,
        parent,
        order,
    })
}

/// Connected components; returns `(component_id_per_vertex, component_count)`.
pub fn connected_components(graph: &CsrGraph) -> (Vec<usize>, usize) {
    let n = graph.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = count;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in graph.neighbours(v) {
                let w = w as VertexId;
                if comp[w] == usize::MAX {
                    comp[w] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// `true` when the graph is connected (the empty graph counts as connected).
pub fn is_connected(graph: &CsrGraph) -> bool {
    if graph.num_vertices() == 0 {
        return true;
    }
    connected_components(graph).1 == 1
}

/// `true` when the graph is bipartite (2-colourable).
pub fn is_bipartite(graph: &CsrGraph) -> bool {
    let n = graph.num_vertices();
    let mut colour = vec![u8::MAX; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if colour[start] != u8::MAX {
            continue;
        }
        colour[start] = 0;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in graph.neighbours(v) {
                let w = w as VertexId;
                if colour[w] == u8::MAX {
                    colour[w] = 1 - colour[v];
                    queue.push_back(w);
                } else if colour[w] == colour[v] {
                    return false;
                }
            }
        }
    }
    true
}

/// Eccentricity of `v`: the greatest BFS distance to any reachable vertex.
pub fn eccentricity(graph: &CsrGraph, v: VertexId) -> Result<usize> {
    let res = bfs(graph, v)?;
    Ok(res
        .dist
        .iter()
        .copied()
        .filter(|&d| d != usize::MAX)
        .max()
        .unwrap_or(0))
}

/// Exact diameter by running BFS from every vertex. `O(n·m)`; only for the
/// small graphs used in tests and examples. Errors on disconnected graphs.
pub fn diameter_exact(graph: &CsrGraph) -> Result<usize> {
    if graph.num_vertices() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if !is_connected(graph) {
        return Err(GraphError::InvalidParameter {
            reason: "diameter undefined on a disconnected graph".into(),
        });
    }
    let mut best = 0usize;
    for v in graph.vertices() {
        best = best.max(eccentricity(graph, v)?);
    }
    Ok(best)
}

/// Lower bound on the diameter via the double-sweep heuristic (two BFS
/// passes). Cheap enough for the large graphs used in benches.
pub fn diameter_double_sweep(graph: &CsrGraph, start: VertexId) -> Result<usize> {
    let first = bfs(graph, start)?;
    let far = first
        .dist
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != usize::MAX)
        .max_by_key(|(_, &d)| d)
        .map(|(v, _)| v)
        .unwrap_or(start);
    eccentricity(graph, far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5).unwrap();
        let r = bfs(&g, 0).unwrap();
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.order[0], 0);
        assert_eq!(r.parent[0], usize::MAX);
        assert_eq!(r.parent[3], 2);
    }

    #[test]
    fn bfs_rejects_bad_source() {
        let g = generators::path(3).unwrap();
        assert!(bfs(&g, 10).is_err());
    }

    #[test]
    fn bfs_marks_unreachable_vertices() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        let r = bfs(&g, 0).unwrap();
        assert_eq!(r.dist[2], usize::MAX);
        assert_eq!(r.dist[3], usize::MAX);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = GraphBuilder::new(5)
            .add_edges([(0, 1), (2, 3)])
            .unwrap()
            .build()
            .unwrap();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn complete_graph_is_connected_not_bipartite() {
        let g = generators::complete(6);
        assert!(is_connected(&g));
        assert!(!is_bipartite(&g));
    }

    #[test]
    fn even_cycle_is_bipartite_odd_is_not() {
        assert!(is_bipartite(&generators::cycle(8).unwrap()));
        assert!(!is_bipartite(&generators::cycle(9).unwrap()));
    }

    #[test]
    fn complete_bipartite_is_bipartite() {
        let g = generators::complete_bipartite(4, 7).unwrap();
        assert!(is_bipartite(&g));
        assert!(is_connected(&g));
    }

    #[test]
    fn empty_and_trivial_graphs_are_connected_and_bipartite() {
        let empty = GraphBuilder::new(0).build().unwrap();
        assert!(is_connected(&empty));
        assert!(is_bipartite(&empty));
        let single = GraphBuilder::new(1).build().unwrap();
        assert!(is_connected(&single));
        assert!(is_bipartite(&single));
    }

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter_exact(&generators::path(6).unwrap()).unwrap(), 5);
        assert_eq!(diameter_exact(&generators::cycle(8).unwrap()).unwrap(), 4);
        assert_eq!(diameter_exact(&generators::complete(9)).unwrap(), 1);
    }

    #[test]
    fn diameter_errors_on_disconnected() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        assert!(diameter_exact(&g).is_err());
    }

    #[test]
    fn double_sweep_finds_path_diameter() {
        let g = generators::path(20).unwrap();
        // Starting from the middle, the double sweep still reaches an endpoint.
        assert_eq!(diameter_double_sweep(&g, 10).unwrap(), 19);
    }

    #[test]
    fn eccentricity_of_star_centre_and_leaf() {
        let g = generators::star(10).unwrap();
        assert_eq!(eccentricity(&g, 0).unwrap(), 1);
        assert_eq!(eccentricity(&g, 3).unwrap(), 2);
    }

    #[test]
    fn hypercube_diameter_is_dimension() {
        let g = generators::hypercube(4).unwrap();
        assert_eq!(diameter_exact(&g).unwrap(), 4);
        assert!(is_bipartite(&g));
    }
}
