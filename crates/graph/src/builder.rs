//! Incremental construction of [`CsrGraph`]s from edge lists.

use crate::csr::{offset_slots, CsrGraph, VertexId};
use crate::error::{GraphError, Result};

/// Accumulates undirected edges and produces a validated [`CsrGraph`].
///
/// Duplicate edges are merged; self-loops are rejected at insertion time.
/// The queue is one flat `u32` array, edge `i` in slots `2i` and `2i + 1`,
/// exactly as long as the rows it becomes, so a vertex id must fit in 32
/// bits: [`GraphBuilder::push_edge`] refuses a larger one with
/// [`GraphError::TooLarge`].  [`GraphBuilder::build`] is a counting sort,
/// linear in `n` and the queued edges apart from sorting the rows that
/// arrive out of order.  For `m` queued edges it peaks at `8m + 24(n + 1)`
/// bytes when the pairs arrive grouped by first endpoint, as `G(n, p)`, the
/// block models, Chung–Lu and the grids push them, and at `16m + 24(n + 1)`
/// otherwise.
///
/// ```
/// use bo3_graph::builder::GraphBuilder;
///
/// let g = GraphBuilder::new(4)
///     .add_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
///     .unwrap()
///     .build()
///     .unwrap();
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(0), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<u32>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder and pre-allocates room for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m.saturating_mul(2)),
        }
    }

    /// Number of vertices this builder targets.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges currently queued (before deduplication).
    pub fn queued_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// Adds a single undirected edge `{u, v}`.
    pub fn add_edge(mut self, u: VertexId, v: VertexId) -> Result<Self> {
        self.push_edge(u, v)?;
        Ok(self)
    }

    /// Adds many undirected edges at once.
    pub fn add_edges<I>(mut self, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in edges {
            self.push_edge(u, v)?;
        }
        Ok(self)
    }

    /// In-place variant of [`GraphBuilder::add_edge`] for loop-heavy callers
    /// (generators) that do not want to thread ownership through `?`.
    ///
    /// Refuses an endpoint outside `0..n`, a self-loop, and an endpoint id
    /// above `u32::MAX` ([`GraphError::TooLarge`]), queueing nothing.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) -> Result<()> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        let (Ok(u), Ok(v)) = (u32::try_from(u), u32::try_from(v)) else {
            return Err(GraphError::TooLarge {
                n: self.n,
                limit: u32::MAX as usize,
                operation: "queueing an edge whose endpoint id exceeds u32::MAX",
            });
        };
        self.edges.extend_from_slice(&[u, v]);
        Ok(())
    }

    /// Finalises the builder into a [`CsrGraph`].
    ///
    /// A counting sort in `O(n + m + Σ_v d_v log d_v)` time, for `m` queued
    /// edges and `d_v` queued edges at `v`.  One pass counts every row's
    /// entries and every vertex's *run*, the pairs pushed with it first, and
    /// notes whether first endpoints never decrease in push order.  Such
    /// *grouped* input becomes the rows inside the queue:
    ///
    /// 1. keep each pair's second endpoint in the first `m` slots;
    /// 2. move each vertex's run to its row's start, last vertex first;
    /// 3. write every edge's other half after the runs, in increasing order.
    ///
    /// Any other order is scattered, in push order, into the rows of a second
    /// array.  A last pass sorts each row that is out of order, drops its
    /// repeated neighbours and moves it left over the gap earlier duplicates
    /// left.  Grouped rows arrive sorted when the larger endpoint is pushed
    /// first (the skip-sampling `G(n, p)`), and as two sorted runs that one
    /// rotation orders when the smaller one is (the block models, Chung–Lu,
    /// the grids).  The output is the same sorted, deduplicated, symmetric
    /// CSR for any order and orientation of the same edge set.
    ///
    /// At its peak the build holds `8m` bytes of queue, which grouped input
    /// turns into the rows, `8(n + 1)` of offsets and `16n` of run counts and
    /// cursors; the scatter adds `8m` of rows.
    ///
    /// Refuses more than 2³² vertices, more than `u32` ids can name, with
    /// [`GraphError::TooLarge`] before allocating anything.
    pub fn build(self) -> Result<CsrGraph> {
        let GraphBuilder { n, mut edges } = self;
        let slots = offset_slots(n, "a CSR build")?;

        // Count row `v`'s entries into `offsets[v]` and its run into
        // `runs[v]`, then replace the counts by their exclusive prefix sums:
        // `offsets[v]` is row `v`'s start.  Only grouped input reads the
        // runs, so counting them stops at the first decrease.
        let mut offsets = vec![0usize; slots];
        let mut runs = vec![0usize; n];
        let mut grouped = true;
        let mut previous = 0;
        for pair in edges.chunks_exact(2) {
            let (u, v) = (pair[0] as usize, pair[1] as usize);
            offsets[u] += 1;
            offsets[v] += 1;
            grouped &= previous <= u;
            previous = u;
            if grouped {
                runs[u] += 1;
            }
        }
        let mut total = 0;
        for slot in &mut offsets {
            let count = *slot;
            *slot = total;
            total += count;
        }

        let mut neighbours = if grouped {
            // Vertex `v`'s run of second endpoints starts where the runs of
            // the vertices before it end.  A row starts no earlier than its
            // run, so moving the last run first overwrites no unread one.
            let m = edges.len() / 2;
            for i in 0..m {
                edges[i] = edges[2 * i + 1];
            }
            let mut run_end = m;
            for v in (0..n).rev() {
                let run_start = run_end - runs[v];
                edges.copy_within(run_start..run_end, offsets[v]);
                run_end = run_start;
            }
            let mut cursors: Vec<usize> = (0..n).map(|v| offsets[v] + runs[v]).collect();
            for u in 0..n {
                for i in offsets[u]..offsets[u] + runs[u] {
                    let v = edges[i] as usize;
                    // `u < n ≤ 2³²`, so the narrowing is exact.
                    edges[cursors[v]] = u as u32;
                    cursors[v] += 1;
                }
            }
            edges
        } else {
            let mut cursors = offsets.clone();
            let mut neighbours = vec![0u32; total];
            for pair in edges.chunks_exact(2) {
                let (u, v) = (pair[0] as usize, pair[1] as usize);
                neighbours[cursors[u]] = pair[1];
                cursors[u] += 1;
                neighbours[cursors[v]] = pair[0];
                cursors[v] += 1;
            }
            drop(edges);
            neighbours
        };

        // Sort and deduplicate the rows in place, compacting them leftwards;
        // `offsets[v + 1]` becomes row `v`'s end once row `v` is done.
        let mut kept = 0;
        let mut row_start = 0;
        for v in 0..n {
            let row_end = offsets[v + 1];
            let row = &mut neighbours[row_start..row_end];
            if kept == row_start && row.windows(2).all(|pair| pair[0] < pair[1]) {
                // Sorted, distinct and already in place.
                kept = row_end;
            } else {
                match row.windows(2).position(|pair| pair[0] > pair[1]) {
                    None => {}
                    // Two sorted runs, the second below the first.
                    Some(i) if row[i + 1..].is_sorted() && row.last() <= row.first() => {
                        row.rotate_left(i + 1)
                    }
                    Some(_) => row.sort_unstable(),
                }
                let first = kept;
                for i in row_start..row_end {
                    let w = neighbours[i];
                    if kept == first || neighbours[kept - 1] != w {
                        neighbours[kept] = w;
                        kept += 1;
                    }
                }
            }
            offsets[v + 1] = kept;
            row_start = row_end;
        }
        neighbours.truncate(kept);
        neighbours.shrink_to_fit();

        Ok(CsrGraph::from_csr_unchecked(n, offsets, neighbours))
    }

    /// Builds directly from a list of edges.
    pub fn from_edge_list(n: usize, edges: &[(VertexId, VertexId)]) -> Result<CsrGraph> {
        GraphBuilder::with_capacity(n, edges.len())
            .add_edges(edges.iter().copied())?
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_path() {
        let g = GraphBuilder::new(3)
            .add_edges([(0, 1), (1, 2)])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbours(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn duplicate_edges_are_merged() {
        let g = GraphBuilder::new(2)
            .add_edges([(0, 1), (1, 0), (0, 1)])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);

        // Row 0 holds neighbour 1 twice, so every later row moves left.
        let g = GraphBuilder::new(5)
            .add_edges([
                (3, 1),
                (1, 0),
                (4, 1),
                (0, 1),
                (1, 3),
                (4, 2),
                (3, 4),
                (1, 3),
            ])
            .unwrap()
            .build()
            .unwrap();
        let (offsets, neighbours) = g.as_csr();
        assert_eq!(offsets, &[0, 1, 4, 5, 7, 10]);
        assert_eq!(neighbours, &[1, 0, 3, 4, 4, 1, 4, 1, 2, 3]);
    }

    #[test]
    fn rejects_self_loop() {
        let err = GraphBuilder::new(2).add_edge(1, 1).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { vertex: 1 }));
    }

    #[test]
    fn rejects_out_of_range_vertex() {
        let err = GraphBuilder::new(2).add_edge(0, 2).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 2, n: 2 }
        ));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn refuses_an_endpoint_id_past_u32_without_allocating() {
        let mut b = GraphBuilder::new(1 << 33);
        let err = b.push_edge(0, 1 << 32).unwrap_err();
        assert!(matches!(
            err,
            GraphError::TooLarge {
                n,
                limit,
                ..
            } if n == 1 << 33 && limit == u32::MAX as usize
        ));
        assert_eq!(b.edges.capacity(), 0);
        b.push_edge(u32::MAX as usize, 0).unwrap();
        assert_eq!(b.queued_edges(), 1);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn refuses_more_vertices_than_u32_ids_before_allocating() {
        for n in [(1 << 32) + 1, 1 << 40, usize::MAX] {
            let err = GraphBuilder::new(n).build().unwrap_err();
            assert!(
                matches!(err, GraphError::TooLarge { n: m, limit, .. } if m == n && limit == 1 << 32),
                "{n}: {err:?}"
            );
        }
    }

    #[test]
    fn neighbour_rows_are_sorted() {
        let g = GraphBuilder::new(5)
            .add_edges([(4, 2), (2, 0), (2, 3), (2, 1)])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(g.neighbours(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn from_edge_list_helper() {
        let g = GraphBuilder::from_edge_list(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let g = GraphBuilder::new(4)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbours(3), &[] as &[u32]);
    }

    #[test]
    fn zero_vertex_build() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn queued_edges_counts_before_dedup() {
        let b = GraphBuilder::new(3).add_edges([(0, 1), (0, 1)]).unwrap();
        assert_eq!(b.queued_edges(), 2);
        assert_eq!(b.num_vertices(), 3);
    }

    #[test]
    fn push_edge_in_place() {
        let mut b = GraphBuilder::with_capacity(3, 3);
        b.push_edge(0, 1).unwrap();
        b.push_edge(2, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }
}
