//! Collision accounting (Section 4, Lemma 7).
//!
//! Level `t ≥ 1` of a voting-DAG *involves a collision* when, revealing the
//! samples of its nodes one by one, some sample hits a vertex at level
//! `t − 1` that was already revealed (by an earlier node at level `t`, or by
//! the same node's earlier sample).  Lemma 7 bounds the number of such
//! levels by a `Bin(h, 9^h/d)` variable; these counters produce the measured
//! side of that comparison (experiment E7).

use crate::voting_dag::VotingDag;

/// Collision statistics of one voting-DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollisionStats {
    /// For each level `t ≥ 1` (index `t − 1` in this vector): the number of
    /// sample reveals at that level that hit an already-revealed vertex.
    pub collisions_per_level: Vec<usize>,
    /// Number of levels with at least one collision — the paper's `C`.
    pub collision_levels: usize,
}

impl CollisionStats {
    /// Total number of colliding reveals across all levels.
    pub fn total_collisions(&self) -> usize {
        self.collisions_per_level.iter().sum()
    }

    /// Number of levels analysed (the DAG height).
    pub fn levels(&self) -> usize {
        self.collisions_per_level.len()
    }
}

/// Counts collisions in a realised voting-DAG, revealing samples in node
/// order within each level (the order the paper fixes for the Sprinkling
/// process; the *count of colliding reveals* is order-independent, only the
/// attribution of which reveal "caused" the collision depends on it).
pub fn collision_stats(dag: &VotingDag) -> CollisionStats {
    let mut per_level = Vec::with_capacity(dag.height());
    for t in 1..=dag.height() {
        let level = dag.level(t);
        let below_len = dag.level(t - 1).len();
        let mut revealed = vec![false; below_len];
        let mut collisions = 0usize;
        for sample in &level.samples {
            for &idx in sample {
                if revealed[idx] {
                    collisions += 1;
                } else {
                    revealed[idx] = true;
                }
            }
        }
        per_level.push(collisions);
    }
    let collision_levels = per_level.iter().filter(|&&c| c > 0).count();
    CollisionStats {
        collisions_per_level: per_level,
        collision_levels,
    }
}

/// The empirical probability that a *single* reveal at the given level
/// collides, for comparison with the paper's per-reveal bound
/// `ε = 3^{T−t+1}/d` (equation (2)).
pub fn per_reveal_collision_rate(stats: &CollisionStats, dag: &VotingDag, t: usize) -> f64 {
    assert!(t >= 1 && t <= dag.height());
    let reveals = dag.level(t).len() * crate::voting_dag::BRANCHING;
    if reveals == 0 {
        0.0
    } else {
        stats.collisions_per_level[t - 1] as f64 / reveals as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ternary_tree_has_no_collisions() {
        let g = generators::complete(5000);
        let mut rng = StdRng::seed_from_u64(0);
        let dag = VotingDag::sample(&g, 0, 2, &mut rng).unwrap();
        assert!(dag.is_ternary_tree());
        let stats = collision_stats(&dag);
        assert_eq!(stats.collision_levels, 0);
        assert_eq!(stats.total_collisions(), 0);
        assert_eq!(stats.levels(), 2);
    }

    #[test]
    fn collision_levels_consistent_with_is_ternary_tree() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [3usize, 10, 50, 500] {
            let g = generators::complete(n);
            let dag = VotingDag::sample(&g, 0, 5, &mut rng).unwrap();
            let stats = collision_stats(&dag);
            assert_eq!(
                stats.collision_levels == 0,
                dag.is_ternary_tree(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn tiny_graphs_collide_at_every_deep_level() {
        // On a triangle each level has at most 3 nodes but 3·|level| reveals,
        // so every level beyond the first must involve collisions.
        let g = generators::complete(3);
        let mut rng = StdRng::seed_from_u64(2);
        let dag = VotingDag::sample(&g, 0, 6, &mut rng).unwrap();
        let stats = collision_stats(&dag);
        assert!(
            stats.collision_levels >= 4,
            "levels {:?}",
            stats.collisions_per_level
        );
    }

    #[test]
    fn collision_count_bounded_by_reveals() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::erdos_renyi_gnp(100, 0.3, &mut rng).unwrap();
        let dag = VotingDag::sample(&g, 0, 6, &mut rng).unwrap();
        let stats = collision_stats(&dag);
        for t in 1..=dag.height() {
            let reveals = dag.level(t).len() * 3;
            assert!(stats.collisions_per_level[t - 1] <= reveals);
            let rate = per_reveal_collision_rate(&stats, &dag, t);
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    #[test]
    fn denser_graphs_have_fewer_collision_levels() {
        let mut rng = StdRng::seed_from_u64(4);
        let height = 6;
        let mut rates = Vec::new();
        for n in [20usize, 200, 2000] {
            let g = generators::complete(n);
            // Average over several DAGs to make the comparison stable.
            let mut total = 0usize;
            for _ in 0..20 {
                let dag = VotingDag::sample(&g, 0, height, &mut rng).unwrap();
                total += collision_stats(&dag).collision_levels;
            }
            rates.push(total as f64 / 20.0);
        }
        assert!(rates[0] > rates[1], "rates {rates:?}");
        assert!(rates[1] > rates[2], "rates {rates:?}");
    }

    #[test]
    fn per_reveal_rate_respects_paper_epsilon_on_average() {
        // ε_t = 3^{T−t+1}/d bounds the *conditional* collision probability of
        // one reveal; the empirical per-reveal rate, averaged over many DAGs,
        // must not exceed it (it is usually far smaller).
        let d = 499usize; // complete graph on 500 vertices
        let g = generators::complete(d + 1);
        let height = 4;
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 200;
        let mut total_rate = vec![0.0f64; height];
        for _ in 0..trials {
            let dag = VotingDag::sample(&g, 0, height, &mut rng).unwrap();
            let stats = collision_stats(&dag);
            for t in 1..=height {
                total_rate[t - 1] += per_reveal_collision_rate(&stats, &dag, t);
            }
        }
        for t in 1..=height {
            let avg = total_rate[t - 1] / trials as f64;
            let eps = bo3_theory::recursion::epsilon(height, t, d as f64);
            assert!(
                avg <= eps + 0.01,
                "level {t}: measured {avg} exceeds epsilon {eps}"
            );
        }
    }
}
