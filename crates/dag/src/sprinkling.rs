//! The Sprinkling process of Section 3.
//!
//! Revealing the samples of a voting-DAG level by level (from the top of the
//! analysed range down to level 1), every reveal that hits an
//! already-revealed vertex is *redirected* to a brand-new artificial node
//! whose colour is deterministically **blue** and whose out-degree is 0.
//! The resulting DAG `H′` is collision-free below the starting level, the
//! colours of distinct nodes at a level are independent, and the coupling
//! `X_H(v,t) ≤ X_{H′}(v,t)` (blue = 1) holds pointwise because the
//! substitution can only add blue.
//!
//! [`sprinkle`] performs exactly that transformation on a realised DAG and
//! [`SprinkledDag::colour`] reproduces the associated colouring process, so
//! the monotone-coupling claim and the recursion (2) can be checked
//! experimentally (experiments E7 and E10).

use bo3_dynamics::opinion::Opinion;
use bo3_graph::VertexId;

use crate::error::{DagError, Result};
use crate::voting_dag::{VotingDag, BRANCHING};

/// A node of a sprinkled DAG level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SprinkledNode {
    /// A node of the original DAG, carrying its graph vertex.
    Original {
        /// The graph vertex this node corresponds to.
        vertex: VertexId,
    },
    /// An artificial node added by the Sprinkling process; its colour is
    /// deterministically blue and it has no outgoing samples.
    ForcedBlue,
}

impl SprinkledNode {
    /// `true` for artificial forced-blue nodes.
    pub fn is_forced_blue(&self) -> bool {
        matches!(self, SprinkledNode::ForcedBlue)
    }
}

/// One level of a sprinkled DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprinkledLevel {
    /// The nodes at this level (original nodes first, in the original order,
    /// then any forced-blue nodes appended by the level above).
    pub nodes: Vec<SprinkledNode>,
    /// For levels above 0: the three sample indices of each **original** node
    /// (forced-blue nodes never have samples). `samples[i]` corresponds to
    /// `nodes[i]`, which is original by construction.
    pub samples: Vec<[usize; BRANCHING]>,
}

/// The result of applying the Sprinkling process to a voting-DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprinkledDag {
    levels: Vec<SprinkledLevel>,
    original_leaves: usize,
    forced_blue_added: usize,
}

impl SprinkledDag {
    /// The levels, leaves first.
    pub fn levels(&self) -> &[SprinkledLevel] {
        &self.levels
    }

    /// DAG height (number of time steps).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// Number of original (non-artificial) leaves — these are the nodes that
    /// receive random colours, and there are exactly as many as in the
    /// original DAG.
    pub fn original_leaves(&self) -> usize {
        self.original_leaves
    }

    /// Total number of forced-blue nodes added across all levels.
    pub fn forced_blue_added(&self) -> usize {
        self.forced_blue_added
    }

    /// `true` when no level below the top has a repeated sample target —
    /// the defining property of the sprinkled DAG.
    pub fn is_collision_free(&self) -> bool {
        for t in 1..self.levels.len() {
            let level = &self.levels[t];
            let below_len = self.levels[t - 1].nodes.len();
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

    /// Runs the colouring process on the sprinkled DAG.
    ///
    /// `leaf_colours` supplies the colours of the **original** leaves, in the
    /// original DAG's leaf order (forced-blue nodes ignore it).  This is the
    /// same vector used to colour the original DAG, which is what makes the
    /// coupling argument testable.
    pub fn colour(&self, leaf_colours: &[Opinion]) -> Result<SprinkledColouring> {
        if leaf_colours.len() != self.original_leaves {
            return Err(DagError::LeafColouringMismatch {
                got: leaf_colours.len(),
                expected: self.original_leaves,
            });
        }
        let mut colours: Vec<Vec<Opinion>> = Vec::with_capacity(self.levels.len());
        // Level 0: original leaves take the supplied colours; forced nodes blue.
        let mut level0 = Vec::with_capacity(self.levels[0].nodes.len());
        let mut original_seen = 0usize;
        for node in &self.levels[0].nodes {
            match node {
                SprinkledNode::Original { .. } => {
                    level0.push(leaf_colours[original_seen]);
                    original_seen += 1;
                }
                SprinkledNode::ForcedBlue => level0.push(Opinion::Blue),
            }
        }
        colours.push(level0);

        for t in 1..self.levels.len() {
            let level = &self.levels[t];
            let below = &colours[t - 1];
            let mut this = Vec::with_capacity(level.nodes.len());
            for (i, node) in level.nodes.iter().enumerate() {
                match node {
                    SprinkledNode::Original { .. } => {
                        let sample = &level.samples[i];
                        let blues = sample.iter().filter(|&&idx| below[idx].is_blue()).count();
                        this.push(if blues >= 2 {
                            Opinion::Blue
                        } else {
                            Opinion::Red
                        });
                    }
                    SprinkledNode::ForcedBlue => this.push(Opinion::Blue),
                }
            }
            colours.push(this);
        }
        Ok(SprinkledColouring { colours })
    }
}

/// Colours of every node of a sprinkled DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprinkledColouring {
    /// `colours[t][i]` is the colour of node `i` at level `t`.
    pub colours: Vec<Vec<Opinion>>,
}

impl SprinkledColouring {
    /// The colour of the root.
    pub fn root_colour(&self) -> Opinion {
        *self
            .colours
            .last()
            .and_then(|l| l.first())
            .expect("a sprinkled DAG always has a root")
    }

    /// Number of blue nodes at level `t`.
    pub fn blue_count_at(&self, t: usize) -> usize {
        self.colours[t].iter().filter(|c| c.is_blue()).count()
    }
}

/// Applies the Sprinkling process to every level of `dag` (the paper applies
/// it from a chosen level `T′` down to 1; passing `dag.height()` as
/// `from_level` reproduces that with `T′ = T`, and smaller values leave the
/// upper levels untouched).
pub fn sprinkle(dag: &VotingDag, from_level: usize) -> Result<SprinkledDag> {
    if from_level > dag.height() {
        return Err(DagError::InvalidParameter {
            reason: format!(
                "from_level {from_level} exceeds the DAG height {}",
                dag.height()
            ),
        });
    }

    // Start with a verbatim copy of the original levels.
    let mut levels: Vec<SprinkledLevel> = dag
        .levels()
        .iter()
        .map(|l| SprinkledLevel {
            nodes: l
                .vertices
                .iter()
                .map(|&v| SprinkledNode::Original { vertex: v })
                .collect(),
            samples: l.samples.clone(),
        })
        .collect();
    let mut forced_total = 0usize;

    // Process levels from `from_level` down to 1, exactly as the paper orders
    // the reveals: nodes left to right, samples in slot order.
    for t in (1..=from_level).rev() {
        let below_original_len = dag.level(t - 1).len();
        let mut revealed = vec![false; below_original_len];
        // Indices >= below_original_len are forced-blue nodes appended below.
        let level = &mut levels[t];
        let mut new_below_nodes: Vec<SprinkledNode> = Vec::new();
        for sample in level.samples.iter_mut() {
            for slot in sample.iter_mut() {
                let idx = *slot;
                if idx < below_original_len {
                    if revealed[idx] {
                        // Collision: redirect to a fresh forced-blue node.
                        let new_idx = below_original_len + forced_total_offset(&new_below_nodes);
                        new_below_nodes.push(SprinkledNode::ForcedBlue);
                        *slot = new_idx;
                        forced_total += 1;
                    } else {
                        revealed[idx] = true;
                    }
                }
                // Samples already pointing at forced nodes cannot occur here
                // because forced nodes are only ever added to the level below
                // the one being processed.
            }
        }
        levels[t - 1].nodes.extend(new_below_nodes);
    }

    Ok(SprinkledDag {
        levels,
        original_leaves: dag.num_leaves(),
        forced_blue_added: forced_total,
    })
}

fn forced_total_offset(new_nodes: &[SprinkledNode]) -> usize {
    new_nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colouring::colour_dag;
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_leaves<R: Rng>(n: usize, p_blue: f64, rng: &mut R) -> Vec<Opinion> {
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < p_blue {
                    Opinion::Blue
                } else {
                    Opinion::Red
                }
            })
            .collect()
    }

    #[test]
    fn rejects_bad_from_level_and_bad_leaf_count() {
        let g = generators::complete(20);
        let mut rng = StdRng::seed_from_u64(0);
        let dag = VotingDag::sample(&g, 0, 3, &mut rng).unwrap();
        assert!(sprinkle(&dag, 9).is_err());
        let s = sprinkle(&dag, 3).unwrap();
        assert!(s.colour(&[Opinion::Red]).is_err());
    }

    #[test]
    fn collision_free_dag_is_unchanged() {
        let g = generators::complete(5000);
        let mut rng = StdRng::seed_from_u64(1);
        let dag = VotingDag::sample(&g, 0, 2, &mut rng).unwrap();
        assert!(dag.is_ternary_tree());
        let s = sprinkle(&dag, 2).unwrap();
        assert_eq!(s.forced_blue_added(), 0);
        assert_eq!(s.original_leaves(), dag.num_leaves());
        assert!(s.is_collision_free());
        // Node counts unchanged level by level.
        for (t, level) in s.levels().iter().enumerate() {
            assert_eq!(level.nodes.len(), dag.level(t).len());
        }
    }

    #[test]
    fn sprinkling_makes_the_dag_collision_free() {
        // Small complete graph forces heavy coalescing.
        let g = generators::complete(6);
        let mut rng = StdRng::seed_from_u64(2);
        let dag = VotingDag::sample(&g, 0, 5, &mut rng).unwrap();
        assert!(!dag.is_ternary_tree());
        let s = sprinkle(&dag, 5).unwrap();
        assert!(s.is_collision_free());
        assert!(s.forced_blue_added() > 0);
        assert_eq!(s.height(), 5);
    }

    #[test]
    fn forced_blue_nodes_are_always_blue_in_the_colouring() {
        let g = generators::complete(5);
        let mut rng = StdRng::seed_from_u64(3);
        let dag = VotingDag::sample(&g, 0, 4, &mut rng).unwrap();
        let s = sprinkle(&dag, 4).unwrap();
        let leaves = random_leaves(s.original_leaves(), 0.0, &mut rng); // all red
        let colouring = s.colour(&leaves).unwrap();
        for (t, level) in s.levels().iter().enumerate() {
            for (i, node) in level.nodes.iter().enumerate() {
                if node.is_forced_blue() {
                    assert!(colouring.colours[t][i].is_blue());
                }
            }
        }
    }

    #[test]
    fn monotone_coupling_holds_pointwise() {
        // For the same leaf colouring, every original node's colour in the
        // sprinkled DAG dominates (blue ≥ blue) its colour in the original
        // DAG — the coupling X_H ≤ X_{H'} from Section 3.
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..30 {
            let n = 5 + (trial % 20);
            let g = generators::complete(n);
            let dag = VotingDag::sample(&g, 0, 5, &mut rng).unwrap();
            let s = sprinkle(&dag, 5).unwrap();
            let leaves = random_leaves(dag.num_leaves(), 0.4, &mut rng);
            let base = colour_dag(&dag, &leaves).unwrap();
            let sprinkled = s.colour(&leaves).unwrap();
            for t in 0..=dag.height() {
                for i in 0..dag.level(t).len() {
                    let x = base.colours[t][i].as_value();
                    let x_prime = sprinkled.colours[t][i].as_value();
                    assert!(
                        x <= x_prime,
                        "coupling violated at level {t}, node {i} (trial {trial})"
                    );
                }
            }
            // In particular the root colour dominates.
            assert!(base.root_colour().as_value() <= sprinkled.root_colour().as_value());
        }
    }

    #[test]
    fn partial_sprinkling_leaves_upper_levels_untouched() {
        let g = generators::complete(6);
        let mut rng = StdRng::seed_from_u64(5);
        let dag = VotingDag::sample(&g, 0, 6, &mut rng).unwrap();
        let t_prime = 3;
        let s = sprinkle(&dag, t_prime).unwrap();
        // Levels above t_prime keep their original samples verbatim.
        for t in (t_prime + 1)..=dag.height() {
            assert_eq!(s.levels()[t].samples, dag.level(t).samples);
            assert_eq!(s.levels()[t].nodes.len(), dag.level(t).len());
        }
        // Levels 1..=t_prime are collision-free.
        for t in 1..=t_prime {
            let level = &s.levels()[t];
            let below_len = s.levels()[t - 1].nodes.len();
            let mut seen = vec![false; below_len];
            for sample in &level.samples {
                for &idx in sample {
                    assert!(!seen[idx], "collision left at level {t}");
                    seen[idx] = true;
                }
            }
        }
    }

    #[test]
    fn figure_1_style_two_level_example() {
        // Reproduce the paper's Figure 1 situation: a 2-level DAG whose level-1
        // nodes collide on shared leaves; after sprinkling, each level-1 node
        // has three private children and the added children are forced blue.
        let g = generators::complete(4);
        let mut rng = StdRng::seed_from_u64(6);
        // Sample DAGs until one actually has a collision at level 1 (on K_4
        // this happens almost immediately).
        let dag = loop {
            let d = VotingDag::sample(&g, 0, 2, &mut rng).unwrap();
            if !d.is_ternary_tree() {
                break d;
            }
        };
        let s = sprinkle(&dag, 2).unwrap();
        assert!(s.is_collision_free());
        assert!(s.forced_blue_added() > 0);
        // Every level-1 node still has exactly three samples and the sampled
        // indices are now pairwise distinct across the whole level.
        let level1 = &s.levels()[1];
        let mut all: Vec<usize> = level1.samples.iter().flatten().copied().collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn blue_probability_upper_bounded_by_recursion_two() {
        // Average over DAGs on a moderately dense graph: the fraction of blue
        // roots under sprinkling must not exceed the recursion-(2) bound p_T
        // computed with the same parameters.
        let n = 400usize;
        let d = (n - 1) as f64;
        let g = generators::complete(n);
        let height = 3;
        let delta = 0.15;
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 400;
        let mut blue_roots = 0usize;
        for _ in 0..trials {
            let dag = VotingDag::sample(&g, 0, height, &mut rng).unwrap();
            let s = sprinkle(&dag, height).unwrap();
            let leaves = random_leaves(s.original_leaves(), 0.5 - delta, &mut rng);
            if s.colour(&leaves).unwrap().root_colour().is_blue() {
                blue_roots += 1;
            }
        }
        let measured = blue_roots as f64 / trials as f64;
        let bound = *bo3_theory::recursion::sprinkling_trajectory(delta, height, d)
            .p
            .last()
            .unwrap();
        // Allow Monte-Carlo noise on top of the theoretical upper bound.
        assert!(
            measured <= bound + 0.05,
            "measured {measured} exceeds recursion bound {bound}"
        );
    }
}
