//! Compressed sparse row (CSR) storage for undirected simple graphs.
//!
//! The voting dynamics spend essentially all of their time doing two things:
//! reading `degree(v)` and sampling uniform random neighbours of `v`.  A CSR
//! layout keeps each adjacency list contiguous in memory, so both operations
//! are a single offset lookup plus an indexed read, with no pointer chasing
//! and no per-vertex allocation.
//!
//! Rows hold `u32` neighbour ids, half the bytes of `usize` ids: on the
//! dense graphs the paper targets the rows are `Θ(n²)` and every other
//! array is `O(n)`, so the rows are the graph's footprint.  Readers widen
//! an id to [`VertexId`] where they read it.  [`crate::builder::GraphBuilder`]
//! queues edges as `u32` pairs, as many bytes as the rows they become, and
//! builds grouped input's rows inside that queue: one copy of the rows, not
//! two.

use crate::error::{GraphError, Result};

/// Vertex identifier. Vertices are always `0..n`.
pub type VertexId = usize;

/// Most vertices a CSR graph may have: its rows store `u32` ids, which name
/// `0..2³²`.
const MAX_CSR_VERTICES: usize = (u32::MAX as usize).saturating_add(1);

/// Bytes of the CSR arrays of a graph with `n` vertices and `arcs` directed
/// arcs (twice its edges): `n + 1` `usize` offsets and one `u32` id per arc.
///
/// [`CsrGraph::memory_bytes`] counts a built graph with it, and estimates
/// of graphs too large to build use it too, so it is exact in `u128` for
/// any `(n, arcs)`.
pub fn csr_bytes(n: usize, arcs: usize) -> u128 {
    let offset = std::mem::size_of::<usize>() as u128;
    let id = std::mem::size_of::<u32>() as u128;
    (n as u128 + 1) * offset + arcs as u128 * id
}

/// Refuses more than [`MAX_CSR_VERTICES`] vertices with
/// [`GraphError::TooLarge`] naming `operation`; otherwise returns `n + 1`,
/// the length of the offset array.
pub(crate) fn offset_slots(n: usize, operation: &'static str) -> Result<usize> {
    n.checked_add(1)
        .filter(|_| n <= MAX_CSR_VERTICES)
        .ok_or(GraphError::TooLarge {
            n,
            limit: MAX_CSR_VERTICES,
            operation,
        })
}

/// An undirected simple graph in compressed sparse row form.
///
/// Invariants maintained by every constructor in this crate:
///
/// * `n ≤ 2³²`, so every vertex id fits the `u32` rows;
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, `offsets[n] == neighbours.len()`,
///   and `offsets` is non-decreasing;
/// * the `u32` neighbour row of every vertex is sorted and free of
///   duplicates;
/// * there are no self-loops;
/// * adjacency is symmetric: `u ∈ N(v)` iff `v ∈ N(u)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    n: usize,
    offsets: Vec<usize>,
    neighbours: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays, validating every invariant.
    ///
    /// Prefer [`crate::builder::GraphBuilder`] or a generator unless the CSR
    /// arrays are already at hand (e.g. deserialised from disk).
    ///
    /// Refuses more than 2³² vertices with [`GraphError::TooLarge`], and
    /// checks the whole offset array before it reads any row.
    pub fn from_csr(n: usize, offsets: Vec<usize>, neighbours: Vec<u32>) -> Result<Self> {
        let slots = offset_slots(n, "a CSR graph")?;
        if offsets.len() != slots {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "offsets must have length n+1 = {slots}, got {}",
                    offsets.len()
                ),
            });
        }
        if offsets[0] != 0 || offsets[n] != neighbours.len() {
            return Err(GraphError::InvalidParameter {
                reason: "offsets must start at 0 and end at neighbours.len()".into(),
            });
        }
        if let Some(v) = (0..n).find(|&v| offsets[v] > offsets[v + 1]) {
            return Err(GraphError::InvalidParameter {
                reason: format!("offsets must be non-decreasing (vertex {v})"),
            });
        }
        for v in 0..n {
            let row = &neighbours[offsets[v]..offsets[v + 1]];
            for (i, &w) in row.iter().enumerate() {
                if w as usize >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: w as usize,
                        n,
                    });
                }
                if w as usize == v {
                    return Err(GraphError::SelfLoop { vertex: v });
                }
                if i > 0 && row[i - 1] >= w {
                    return Err(GraphError::InvalidParameter {
                        reason: format!("neighbour row of vertex {v} must be strictly increasing"),
                    });
                }
            }
        }
        let g = CsrGraph {
            n,
            offsets,
            neighbours,
        };
        // Symmetry check: every edge must appear in both directions.
        for v in 0..n {
            for &w in g.neighbours(v) {
                if !g.has_edge(w as usize, v) {
                    return Err(GraphError::InvalidParameter {
                        reason: format!(
                            "adjacency not symmetric: {v}->{w} present but {w}->{v} missing"
                        ),
                    });
                }
            }
        }
        Ok(g)
    }

    /// Builds a graph from CSR arrays **without** validation.
    ///
    /// Used by the builder and the generators, which construct the arrays so
    /// that the invariants hold by construction.
    pub(crate) fn from_csr_unchecked(n: usize, offsets: Vec<usize>, neighbours: Vec<u32>) -> Self {
        debug_assert!(n <= MAX_CSR_VERTICES);
        debug_assert_eq!(offsets.len(), n + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), neighbours.len());
        CsrGraph {
            n,
            offsets,
            neighbours,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbours.len() / 2
    }

    /// `true` when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `true` when this is the complete graph `K_n`, in `O(1)`.
    ///
    /// A validated CSR graph is simple (sorted rows, no duplicates, no self
    /// loops), so it holds `n(n-1)/2` edges **iff** every pair is adjacent.
    /// Hot paths use this to synthesise neighbour rows arithmetically
    /// (`neighbour_at(v, i) == i + (i >= v)`) instead of reading the
    /// `Θ(n²)`-sized adjacency — see the kernel module in `bo3-dynamics`.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.n >= 2 && self.neighbours.len() == self.n * (self.n - 1)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        debug_assert!(v < self.n);
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted neighbour slice of `v`, as `u32` ids.
    #[inline]
    pub fn neighbours(&self, v: VertexId) -> &[u32] {
        debug_assert!(v < self.n);
        &self.neighbours[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The `i`-th neighbour of `v` (0-based, in sorted order).
    ///
    /// This is the hot path of neighbour sampling: drawing a uniform index in
    /// `0..degree(v)` and reading this slot samples a uniform neighbour.
    #[inline]
    pub fn neighbour_at(&self, v: VertexId, i: usize) -> VertexId {
        debug_assert!(i < self.degree(v));
        self.neighbours[self.offsets[v] + i] as VertexId
    }

    /// Whether the undirected edge `{u, v}` is present. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u >= self.n || v >= self.n {
            return false;
        }
        // `v < n ≤ 2³²`, so the narrowing is exact.
        self.neighbours(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.n
    }

    /// Iterator over every undirected edge `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbours(u)
                .iter()
                .map(|&v| v as VertexId)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Refuses a graph with an isolated vertex, naming the first one in a
    /// [`GraphError::IsolatedVertex`]: such a vertex has no neighbour to
    /// sample and no random-walk step to take.
    pub fn check_no_isolated_vertex(&self) -> Result<()> {
        match (0..self.n).find(|&v| self.degree(v) == 0) {
            Some(vertex) => Err(GraphError::IsolatedVertex { vertex }),
            None => Ok(()),
        }
    }

    /// Bytes of memory held by the CSR arrays (plus the struct header), as
    /// [`csr_bytes`] counts them.
    ///
    /// This is the materialised-adjacency footprint the implicit topologies
    /// in [`crate::topology`] exist to avoid — `Θ(n²)` on the dense graphs
    /// the paper targets — and is what the scale experiment reports
    /// alongside each topology's own `memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        // The arrays exist, so their byte count fits `usize`.
        std::mem::size_of::<Self>() + csr_bytes(self.n, self.neighbours.len()) as usize
    }

    /// Returns the raw CSR arrays `(offsets, neighbours)`.
    pub fn as_csr(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.neighbours)
    }

    /// Consumes the graph and returns the raw CSR arrays.
    pub fn into_csr(self) -> (usize, Vec<usize>, Vec<u32>) {
        (self.n, self.offsets, self.neighbours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::degree::DegreeStats;
    use crate::generators;

    fn triangle() -> CsrGraph {
        GraphBuilder::new(3)
            .add_edges([(0, 1), (1, 2), (0, 2)])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn triangle_basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbours(1), &[0, 2]);
        let stats = DegreeStats::of(&g).unwrap();
        assert_eq!((stats.min, stats.max, stats.m), (2, 2, 3));
        assert!((stats.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn is_complete_detection_and_row_synthesis() {
        assert!(triangle().is_complete());
        for n in [2usize, 5, 17] {
            let g = generators::complete(n);
            assert!(g.is_complete(), "K_{n}");
            // The arithmetic row used by the dynamics kernels must agree
            // with the stored CSR row entry for entry.
            for v in g.vertices() {
                for i in 0..g.degree(v) {
                    assert_eq!(g.neighbour_at(v, i), i + usize::from(i >= v));
                }
            }
        }
        let mut near = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)] {
            near = near.add_edge(u, v).unwrap();
        }
        let near = near.build().unwrap();
        assert!(!near.is_complete(), "K_4 minus one edge");
        assert!(!generators::cycle(5).unwrap().is_complete());
        let single = GraphBuilder::new(1).build().unwrap();
        assert!(!single.is_complete());
    }

    #[test]
    fn has_edge_and_neighbour_at() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 5));
        assert_eq!(g.neighbour_at(2, 0), 0);
        assert_eq!(g.neighbour_at(2, 1), 1);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn from_csr_validates_offsets_length() {
        let err = CsrGraph::from_csr(2, vec![0, 1], vec![1]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter { .. }));
        // Every offset is checked before a row is read: row 0 would end
        // past the neighbour array.
        let err = CsrGraph::from_csr(2, vec![0, 5, 3], vec![1, 0, 0]).unwrap_err();
        assert!(
            matches!(err, GraphError::InvalidParameter { .. }),
            "{err:?}"
        );
        // More vertices than `u32` ids can name are refused before `n + 1`
        // is computed.
        let limit = (u32::MAX as usize).saturating_add(1);
        for n in [usize::MAX, limit.saturating_add(1)] {
            let err = CsrGraph::from_csr(n, vec![0], vec![]).unwrap_err();
            assert!(
                matches!(err, GraphError::TooLarge { n: m, limit: l, .. } if m == n && l == limit),
                "{n}: {err:?}"
            );
        }
        if cfg!(target_pointer_width = "64") {
            let err = CsrGraph::from_csr(limit, vec![0], vec![]).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidParameter { .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn from_csr_rejects_self_loop() {
        let err = CsrGraph::from_csr(2, vec![0, 1, 2], vec![0, 0]).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { vertex: 0 }));
    }

    #[test]
    fn from_csr_rejects_asymmetric_adjacency() {
        // 0 -> 1 present but 1 -> 0 missing.
        let err = CsrGraph::from_csr(3, vec![0, 1, 1, 1], vec![1]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter { .. }));
    }

    #[test]
    fn from_csr_rejects_out_of_range_neighbour() {
        let err = CsrGraph::from_csr(2, vec![0, 1, 2], vec![5, 0]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 5, n: 2 }
        ));
    }

    #[test]
    fn from_csr_accepts_valid_graph() {
        let g = CsrGraph::from_csr(3, vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1]).unwrap();
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(g.is_empty());
        assert_eq!(DegreeStats::of(&g), Err(GraphError::EmptyGraph));
    }

    #[test]
    fn clone_equals_the_original() {
        let g = generators::complete(5);
        let h = g.clone();
        assert_eq!(g, h);
    }

    #[test]
    fn memory_bytes_scales_with_the_adjacency() {
        let small = generators::complete(10);
        let big = generators::complete(100);
        // K_n stores n+1 offsets, one word each, and n(n-1) directed arcs,
        // one `u32` each.
        let arcs_and_offsets = |n: usize| (n + 1) * std::mem::size_of::<usize>() + n * (n - 1) * 4;
        assert_eq!(
            small.memory_bytes() - std::mem::size_of::<CsrGraph>(),
            arcs_and_offsets(10)
        );
        assert_eq!(
            big.memory_bytes() - std::mem::size_of::<CsrGraph>(),
            arcs_and_offsets(100)
        );
        // Quadratic growth: K_100 takes over 80 times K_10's bytes (the
        // header and offsets weigh more beside 4-byte arcs than 8-byte ones).
        assert!(big.memory_bytes() > 80 * small.memory_bytes());
    }

    #[test]
    fn into_csr_and_back() {
        let g = triangle();
        let (n, offs, neigh) = g.clone().into_csr();
        let h = CsrGraph::from_csr(n, offs, neigh).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn check_no_isolated_vertex_names_the_first_isolated_vertex() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        let err = g.check_no_isolated_vertex().unwrap_err();
        assert!(matches!(err, GraphError::IsolatedVertex { vertex: 2 }));
        let g = GraphBuilder::new(4)
            .add_edge(0, 3)
            .unwrap()
            .build()
            .unwrap();
        let err = g.check_no_isolated_vertex().unwrap_err();
        assert!(matches!(err, GraphError::IsolatedVertex { vertex: 1 }));
        triangle().check_no_isolated_vertex().unwrap();
    }
}
