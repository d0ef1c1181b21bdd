//! The random voting-DAG of Section 2.
//!
//! The opinion `ξ_T(v₀)` is determined by the opinions at time `T − 1` of
//! three random neighbours of `v₀`, which are in turn determined by opinions
//! at `T − 2`, and so on down to time 0.  Unrolling this recursion produces a
//! layered DAG `H` whose level `t` contains the pair `(v, t)` for every graph
//! vertex `v` queried at time `t`; each non-leaf node stores the three
//! (with-replacement) samples that determine its opinion.
//!
//! [`VotingDag::sample`] realises `H` for a given root and height exactly as
//! the paper describes — top level down, deduplicating queried vertices
//! within a level — and [`crate::colouring`] then reproduces the colouring
//! process `X_H`.

use std::collections::HashMap;

use rand::Rng;

use bo3_graph::{CsrGraph, VertexId};

use crate::error::{DagError, Result};

/// Branching factor of the Best-of-Three voting-DAG.
pub const BRANCHING: usize = 3;

/// One level of a voting-DAG.
///
/// `vertices[i]` is the graph vertex of node `i` at this level;
/// `samples[i]` (absent at level 0) are the indices **into the level below**
/// of the three with-replacement samples that determine node `i`'s opinion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagLevel {
    /// Graph vertex associated with each node of this level.
    pub vertices: Vec<VertexId>,
    /// For non-leaf levels, the three sampled child indices of each node.
    pub samples: Vec<[usize; BRANCHING]>,
}

impl DagLevel {
    /// Number of nodes at this level.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` when the level has no nodes (never the case in a sampled DAG).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// A realised voting-DAG of `height + 1` levels (level `height` is the root,
/// level 0 the leaves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VotingDag {
    root_vertex: VertexId,
    /// `levels[0]` are the leaves (time 0); `levels[height]` is the root.
    levels: Vec<DagLevel>,
}

impl VotingDag {
    /// Samples the random voting-DAG `H_{v₀}` of the given `height` (number
    /// of time steps `T`; the DAG has `height + 1` levels).
    pub fn sample<R: Rng + ?Sized>(
        graph: &CsrGraph,
        root: VertexId,
        height: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let n = graph.num_vertices();
        if root >= n {
            return Err(DagError::RootOutOfRange { root, n });
        }

        let mut levels: Vec<DagLevel> = Vec::with_capacity(height + 1);
        // Build from the top (root) downwards, then reverse.
        let mut current = DagLevel {
            vertices: vec![root],
            samples: Vec::new(),
        };

        for _ in 0..height {
            let mut below_vertices: Vec<VertexId> = Vec::new();
            let mut below_index: HashMap<VertexId, usize> = HashMap::new();
            let mut samples: Vec<[usize; BRANCHING]> = Vec::with_capacity(current.len());

            for &v in &current.vertices {
                let deg = graph.degree(v);
                if deg == 0 {
                    return Err(DagError::InvalidGraph {
                        reason: format!("vertex {v} has no neighbours to sample"),
                    });
                }
                let mut sample = [0usize; BRANCHING];
                for slot in &mut sample {
                    let w = graph.neighbour_at(v, rng.gen_range(0..deg));
                    let idx = *below_index.entry(w).or_insert_with(|| {
                        below_vertices.push(w);
                        below_vertices.len() - 1
                    });
                    *slot = idx;
                }
                samples.push(sample);
            }

            // `current` becomes a finished internal level; its samples refer to
            // the level we just created below it.
            levels.push(DagLevel {
                vertices: std::mem::take(&mut current.vertices),
                samples,
            });
            current = DagLevel {
                vertices: below_vertices,
                samples: Vec::new(),
            };
        }
        // `current` is now level 0 (the leaves).
        levels.push(current);
        levels.reverse();

        Ok(VotingDag {
            root_vertex: root,
            levels,
        })
    }

    /// The graph vertex at the root.
    pub fn root_vertex(&self) -> VertexId {
        self.root_vertex
    }

    /// The number of time steps `T` the DAG spans (levels − 1).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// All levels, leaves first.
    pub fn levels(&self) -> &[DagLevel] {
        &self.levels
    }

    /// The level at index `t` (0 = leaves).
    pub fn level(&self, t: usize) -> &DagLevel {
        &self.levels[t]
    }

    /// Number of leaves (nodes at level 0).
    pub fn num_leaves(&self) -> usize {
        self.levels[0].len()
    }

    /// Total number of nodes across all levels.
    pub fn num_nodes(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// `true` when every level has no repeated samples — i.e. the DAG is a
    /// ternary tree (every node at level `t < height` is referenced by
    /// exactly one sample slot).
    pub fn is_ternary_tree(&self) -> bool {
        for t in 1..self.levels.len() {
            let level = &self.levels[t];
            let below_len = self.levels[t - 1].len();
            let mut seen = vec![false; below_len];
            for sample in &level.samples {
                for &idx in sample {
                    if seen[idx] {
                        return false;
                    }
                    seen[idx] = true;
                }
            }
        }
        true
    }

    /// The number of nodes the idealised ternary tree would have at each
    /// level; useful to quantify how much coalescing happened.
    pub fn ternary_reference_sizes(&self) -> Vec<usize> {
        let h = self.height();
        (0..=h).map(|t| BRANCHING.pow((h - t) as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_out_of_range_root() {
        let g = generators::complete(5);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            VotingDag::sample(&g, 9, 3, &mut rng),
            Err(DagError::RootOutOfRange { root: 9, n: 5 })
        ));
    }

    #[test]
    fn zero_height_dag_is_just_the_root() {
        let g = generators::complete(5);
        let mut rng = StdRng::seed_from_u64(1);
        let dag = VotingDag::sample(&g, 2, 0, &mut rng).unwrap();
        assert_eq!(dag.height(), 0);
        assert_eq!(dag.num_leaves(), 1);
        assert_eq!(dag.num_nodes(), 1);
        assert_eq!(dag.level(0).vertices, vec![2]);
        assert!(dag.is_ternary_tree());
    }

    #[test]
    fn structure_invariants_hold_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::erdos_renyi_gnp(200, 0.2, &mut rng).unwrap();
        let dag = VotingDag::sample(&g, 7, 5, &mut rng).unwrap();
        assert_eq!(dag.root_vertex(), 7);
        assert_eq!(dag.height(), 5);
        assert_eq!(dag.levels().len(), 6);
        // The root level has exactly one node with three samples.
        let root_level = dag.level(5);
        assert_eq!(root_level.len(), 1);
        assert_eq!(root_level.samples.len(), 1);
        // Leaves carry no samples.
        assert!(dag.level(0).samples.is_empty());
        // Every sample index points inside the level below; every sampled
        // vertex is a graph neighbour of the sampling vertex.
        for t in 1..=5 {
            let level = dag.level(t);
            let below = dag.level(t - 1);
            assert_eq!(level.samples.len(), level.len());
            for (i, sample) in level.samples.iter().enumerate() {
                let v = level.vertices[i];
                for &idx in sample {
                    assert!(idx < below.len());
                    assert!(
                        g.has_edge(v, below.vertices[idx]),
                        "sampled a non-neighbour"
                    );
                }
            }
            // Level sizes never exceed the ternary reference.
            assert!(level.len() <= dag.ternary_reference_sizes()[t].max(1));
        }
        // Vertices within a level are distinct (deduplication worked).
        for t in 0..=5 {
            let mut vs = dag.level(t).vertices.clone();
            vs.sort_unstable();
            vs.dedup();
            assert_eq!(vs.len(), dag.level(t).len());
        }
    }

    #[test]
    fn level_sizes_bounded_by_ternary_growth() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::complete(500);
        let dag = VotingDag::sample(&g, 0, 6, &mut rng).unwrap();
        let reference = dag.ternary_reference_sizes();
        for (t, level) in dag.levels().iter().enumerate() {
            assert!(
                level.len() <= reference[t],
                "level {t} has {} nodes, ternary bound {}",
                level.len(),
                reference[t]
            );
        }
        assert_eq!(reference[6], 1);
        assert_eq!(reference[0], 729);
    }

    #[test]
    fn small_graphs_force_heavy_coalescing() {
        // On a triangle only 3 distinct vertices exist, so every level has at
        // most 3 nodes no matter the height.
        let g = generators::complete(3);
        let mut rng = StdRng::seed_from_u64(4);
        let dag = VotingDag::sample(&g, 0, 8, &mut rng).unwrap();
        for level in dag.levels() {
            assert!(level.len() <= 3);
        }
        assert!(!dag.is_ternary_tree());
    }

    #[test]
    fn dense_graphs_usually_give_ternary_trees_at_small_height() {
        // With n = 5000 and height 2 at most 13 vertices are touched, so the
        // probability of any coalescence is tiny; with a fixed seed this is
        // deterministic.
        let g = generators::complete(5000);
        let mut rng = StdRng::seed_from_u64(5);
        let dag = VotingDag::sample(&g, 42, 2, &mut rng).unwrap();
        assert!(dag.is_ternary_tree());
        assert_eq!(dag.num_leaves(), 9);
        assert_eq!(dag.num_nodes(), 13);
    }

    #[test]
    fn same_seed_reproduces_the_same_dag() {
        let g = generators::complete(100);
        let dag1 = VotingDag::sample(&g, 3, 4, &mut StdRng::seed_from_u64(9)).unwrap();
        let dag2 = VotingDag::sample(&g, 3, 4, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(dag1, dag2);
        let dag3 = VotingDag::sample(&g, 3, 4, &mut StdRng::seed_from_u64(10)).unwrap();
        assert_ne!(dag1, dag3);
    }

    #[test]
    fn cobra_view_remark_levels_shrink_towards_root() {
        // Remark 2: level T−t of H is the occupied set of a COBRA walk after
        // t steps; the root level always has exactly one node and leaves the
        // most.
        let g = generators::complete(1000);
        let mut rng = StdRng::seed_from_u64(6);
        let dag = VotingDag::sample(&g, 1, 5, &mut rng).unwrap();
        assert_eq!(dag.level(dag.height()).len(), 1);
        assert!(dag.num_leaves() >= dag.level(dag.height()).len());
    }
}
