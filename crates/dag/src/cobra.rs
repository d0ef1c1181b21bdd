//! COBRA walks (Coalescing–Branching random walks), Remark 2 of the paper.
//!
//! A COBRA walk with branching factor `k` starts with particles on a set of
//! vertices; every step, each particle makes `k − 1` copies of itself and all
//! particles independently move to a uniformly random neighbour; particles
//! meeting at a vertex coalesce into one.  The trajectory of a `k = 3` COBRA
//! walk started at `v₀` is exactly the level structure of the random
//! voting-DAG `H_{v₀}` (read root-to-leaves), which is how the paper connects
//! the two objects.  Experiment E8 reproduces the occupancy growth and the
//! cover time on regular graphs studied in the COBRA-walk literature
//! (references \[3], \[6], \[9]).

use rand::Rng;

use bo3_graph::{CsrGraph, VertexId};

use crate::error::{DagError, Result};

/// The per-step trajectory of one COBRA walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CobraTrajectory {
    /// Branching factor used.
    pub branching: usize,
    /// Number of occupied vertices after each step (`occupancy[0]` is the
    /// initial set size).
    pub occupancy: Vec<usize>,
    /// The first step at which every vertex had been visited at least once,
    /// if coverage was achieved within the step budget.
    pub cover_time: Option<usize>,
}

impl CobraTrajectory {
    /// Number of steps actually simulated.
    pub fn steps(&self) -> usize {
        self.occupancy.len() - 1
    }

    /// Largest occupied-set size observed.
    pub fn peak_occupancy(&self) -> usize {
        self.occupancy.iter().copied().max().unwrap_or(0)
    }
}

/// Runs a COBRA walk with the given `branching` factor (`k ≥ 1`; `k = 1` is
/// the classical coalescing random walk, `k = 3` the paper's dual process).
///
/// The walk starts from `start`, runs for at most `max_steps` steps, and
/// stops early once every vertex has been visited (cover) when
/// `stop_at_cover` is set.
pub fn cobra_walk<R: Rng + ?Sized>(
    graph: &CsrGraph,
    start: VertexId,
    branching: usize,
    max_steps: usize,
    stop_at_cover: bool,
    rng: &mut R,
) -> Result<CobraTrajectory> {
    let n = graph.num_vertices();
    if start >= n {
        return Err(DagError::RootOutOfRange { root: start, n });
    }
    if branching == 0 {
        return Err(DagError::InvalidParameter {
            reason: "branching factor must be at least 1".into(),
        });
    }

    let mut occupied = vec![false; n];
    let mut visited = vec![false; n];
    let mut current: Vec<VertexId> = vec![start];
    occupied[start] = true;
    visited[start] = true;
    let mut visited_count = 1usize;

    let mut occupancy = Vec::with_capacity(max_steps + 1);
    occupancy.push(1);
    let mut cover_time = if visited_count == n { Some(0) } else { None };

    let mut next: Vec<VertexId> = Vec::new();
    for step in 1..=max_steps {
        if cover_time.is_some() && stop_at_cover {
            break;
        }
        next.clear();
        // Each occupied vertex emits `branching` independent moves.
        for &v in &current {
            occupied[v] = false;
            let deg = graph.degree(v);
            if deg == 0 {
                return Err(DagError::InvalidGraph {
                    reason: format!("vertex {v} has no neighbours"),
                });
            }
            for _ in 0..branching {
                let w = graph.neighbour_at(v, rng.gen_range(0..deg));
                next.push(w);
            }
        }
        // Coalesce.
        current.clear();
        for &w in &next {
            if !occupied[w] {
                occupied[w] = true;
                current.push(w);
                if !visited[w] {
                    visited[w] = true;
                    visited_count += 1;
                }
            }
        }
        occupancy.push(current.len());
        if cover_time.is_none() && visited_count == n {
            cover_time = Some(step);
        }
    }

    Ok(CobraTrajectory {
        branching,
        occupancy,
        cover_time,
    })
}

/// Monte-Carlo estimate of the mean cover time of a COBRA walk; walks that do
/// not cover within `max_steps` are excluded and reported separately.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverTimeEstimate {
    /// Mean cover time over the covering walks.
    pub mean_cover_time: Option<f64>,
    /// Number of walks that covered the graph within the budget.
    pub covered: usize,
    /// Total number of walks simulated.
    pub trials: usize,
}

/// Estimates the cover time of a `branching`-COBRA walk from `start`.
pub fn estimate_cover_time<R: Rng + ?Sized>(
    graph: &CsrGraph,
    start: VertexId,
    branching: usize,
    max_steps: usize,
    trials: usize,
    rng: &mut R,
) -> Result<CoverTimeEstimate> {
    let mut times = Vec::new();
    for _ in 0..trials {
        let traj = cobra_walk(graph, start, branching, max_steps, true, rng)?;
        if let Some(t) = traj.cover_time {
            times.push(t as f64);
        }
    }
    let covered = times.len();
    let mean = if covered > 0 {
        Some(times.iter().sum::<f64>() / covered as f64)
    } else {
        None
    };
    Ok(CoverTimeEstimate {
        mean_cover_time: mean,
        covered,
        trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::complete(5);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(cobra_walk(&g, 10, 3, 5, true, &mut rng).is_err());
        assert!(cobra_walk(&g, 0, 0, 5, true, &mut rng).is_err());
    }

    #[test]
    fn trajectory_bookkeeping() {
        let g = generators::complete(30);
        let mut rng = StdRng::seed_from_u64(1);
        let traj = cobra_walk(&g, 0, 3, 10, false, &mut rng).unwrap();
        assert_eq!(traj.branching, 3);
        assert_eq!(traj.steps(), 10);
        assert_eq!(traj.occupancy[0], 1);
        assert!(traj.peak_occupancy() <= 30);
        // Occupancy can at most triple per step.
        for w in traj.occupancy.windows(2) {
            assert!(w[1] <= 3 * w[0]);
        }
    }

    #[test]
    fn k3_cobra_walk_covers_dense_graphs_quickly() {
        let g = generators::complete(200);
        let mut rng = StdRng::seed_from_u64(2);
        let traj = cobra_walk(&g, 0, 3, 100, true, &mut rng).unwrap();
        let cover = traj.cover_time.expect("should cover K_200 easily");
        // log_3(200) ≈ 4.8; coupon-collector effects add a few more rounds.
        assert!(cover < 40, "cover time {cover}");
    }

    #[test]
    fn k1_is_a_single_random_walk() {
        let g = generators::cycle(20).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let traj = cobra_walk(&g, 0, 1, 50, false, &mut rng).unwrap();
        // With branching 1 there is exactly one particle forever.
        assert!(traj.occupancy.iter().all(|&c| c == 1));
    }

    #[test]
    fn branching_speeds_up_covering() {
        let g = generators::hypercube(7).unwrap(); // 128 vertices, degree 7
        let mut rng = StdRng::seed_from_u64(4);
        let est1 = estimate_cover_time(&g, 0, 1, 20_000, 5, &mut rng).unwrap();
        let est3 = estimate_cover_time(&g, 0, 3, 20_000, 5, &mut rng).unwrap();
        assert_eq!(est3.covered, 5);
        let c3 = est3.mean_cover_time.unwrap();
        // The single random walk needs Θ(n log n) steps; the 3-COBRA walk
        // covers in O(log n)-ish time on good expanders. Either the single
        // walk failed to cover within the budget or it was much slower.
        if let Some(c1) = est1.mean_cover_time {
            assert!(c1 > 5.0 * c3, "c1 = {c1}, c3 = {c3}");
        } else {
            assert!(est1.covered < 5);
        }
        assert!(c3 < 200.0, "c3 = {c3}");
    }

    #[test]
    fn cover_time_zero_on_single_vertex_start_when_graph_is_covered() {
        // A complete graph on 1 vertex is not valid for dynamics; use K_2:
        // starting at 0, after one step the particle triples onto vertex 1,
        // covering the graph.
        let g = generators::complete(2);
        let mut rng = StdRng::seed_from_u64(5);
        let traj = cobra_walk(&g, 0, 3, 10, true, &mut rng).unwrap();
        assert_eq!(traj.cover_time, Some(1));
    }

    #[test]
    fn estimate_reports_non_covering_walks() {
        // With a budget of 0 steps nothing ever covers.
        let g = generators::complete(10);
        let mut rng = StdRng::seed_from_u64(6);
        let est = estimate_cover_time(&g, 0, 3, 0, 4, &mut rng).unwrap();
        assert_eq!(est.covered, 0);
        assert_eq!(est.trials, 4);
        assert!(est.mean_cover_time.is_none());
    }

    #[test]
    fn occupancy_matches_voting_dag_levels_in_distribution() {
        // Remark 2: the level sizes of the voting-DAG (from the root down)
        // have the same distribution as the COBRA occupancy sequence. Compare
        // the means of the first few steps on the same graph.
        let g = generators::complete(300);
        let mut rng = StdRng::seed_from_u64(7);
        let steps = 4usize;
        let trials = 300usize;
        let mut dag_means = vec![0.0f64; steps + 1];
        let mut cobra_means = vec![0.0f64; steps + 1];
        for _ in 0..trials {
            let dag = crate::voting_dag::VotingDag::sample(&g, 0, steps, &mut rng).unwrap();
            for (t, mean) in dag_means.iter_mut().enumerate() {
                // Level height-t of the DAG corresponds to COBRA step t.
                *mean += dag.level(steps - t).len() as f64;
            }
            let traj = cobra_walk(&g, 0, 3, steps, false, &mut rng).unwrap();
            for (mean, occupancy) in cobra_means.iter_mut().zip(&traj.occupancy) {
                *mean += *occupancy as f64;
            }
        }
        for t in 0..=steps {
            let a = dag_means[t] / trials as f64;
            let b = cobra_means[t] / trials as f64;
            assert!(
                (a - b).abs() <= 0.15 * a.max(1.0),
                "step {t}: DAG mean {a}, COBRA mean {b}"
            );
        }
    }
}
