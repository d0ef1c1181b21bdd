//! Random `d`-regular graphs via the configuration (pairing) model.
//!
//! Regular graphs are the setting of the Best-of-2 analysis of Cooper,
//! Elsässer & Radzik ([4] in the paper) and the cleanest way to dial the
//! minimum degree exactly to `d = n^α` for the degree-sweep experiment E4.

use rand::Rng;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// Maximum number of restarts of the pairing before switching to repair mode.
const MAX_RESTARTS: usize = 64;
/// Maximum number of repair passes (double-edge swaps) per attempt.
const MAX_REPAIR_SWEEPS: usize = 200;

/// Samples a random simple `d`-regular graph on `n` vertices.
///
/// Uses the configuration model: each vertex gets `d` half-edges ("stubs"),
/// the stubs are paired uniformly at random, and the resulting multigraph is
/// made simple.  For small `d` (relative to `√n`) the pairing is already
/// simple with constant probability and we just restart on failure; for the
/// dense instances used in the paper's regime restarting is hopeless, so
/// defective pairings are *repaired* with uniform double-edge swaps, which
/// preserves regularity and is the standard practical fallback (its bias is
/// negligible for our purposes and irrelevant to the dynamics experiments).
///
/// Requirements: `d < n` and `n·d` even.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<CsrGraph> {
    if d >= n {
        return Err(GraphError::InvalidParameter {
            reason: format!("regular graph needs d < n, got d={d}, n={n}"),
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::Unrealizable {
            reason: format!("n*d must be even, got n={n}, d={d}"),
        });
    }
    if d == 0 {
        return GraphBuilder::new(n).build();
    }
    if d == n - 1 {
        return Ok(super::complete(n));
    }

    for _ in 0..MAX_RESTARTS {
        if let Some(edges) = try_pairing(n, d, rng) {
            return GraphBuilder::with_capacity(n, edges.len())
                .add_edges(edges)?
                .build();
        }
    }
    Err(GraphError::Unrealizable {
        reason: format!("failed to realise a simple {d}-regular graph on {n} vertices"),
    })
}

/// One attempt: pair stubs uniformly, then repair defects by double-edge swaps.
/// Returns `None` if the repair did not converge.
fn try_pairing<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Option<Vec<(usize, usize)>> {
    let total_stubs = n * d;
    let mut stubs: Vec<usize> = (0..total_stubs).map(|s| s / d).collect();
    // Fisher–Yates shuffle of the stub array; consecutive pairs form edges.
    for i in (1..total_stubs).rev() {
        let j = rng.gen_range(0..=i);
        stubs.swap(i, j);
    }
    let mut edges: Vec<(usize, usize)> = stubs
        .chunks_exact(2)
        .map(|c| {
            if c[0] < c[1] {
                (c[0], c[1])
            } else {
                (c[1], c[0])
            }
        })
        .collect();

    // Repair loop: replace self-loops and parallel edges by double-edge swaps.
    use std::collections::HashSet;
    for _ in 0..MAX_REPAIR_SWEEPS {
        let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(edges.len() * 2);
        let mut defects: Vec<usize> = Vec::new();
        for (i, &e) in edges.iter().enumerate() {
            if e.0 == e.1 || !seen.insert(e) {
                defects.push(i);
            }
        }
        if defects.is_empty() {
            return Some(edges);
        }
        let m = edges.len();
        for &i in &defects {
            // Swap the defective edge with a uniformly random partner edge:
            // (a,b),(c,e) -> (a,c),(b,e). Regularity is preserved because
            // every vertex keeps its incidence count.
            let j = rng.gen_range(0..m);
            if i == j {
                continue;
            }
            let (a, b) = edges[i];
            let (c, e) = edges[j];
            let new1 = if a < c { (a, c) } else { (c, a) };
            let new2 = if b < e { (b, e) } else { (e, b) };
            if new1.0 == new1.1 || new2.0 == new2.1 {
                continue;
            }
            edges[i] = new1;
            edges[j] = new2;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_impossible_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_regular(5, 5, &mut rng).is_err()); // d >= n
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd n*d
    }

    #[test]
    fn zero_regular_is_edgeless() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_regular(6, 0, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn full_regular_is_complete() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_regular(8, 7, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 28);
    }

    #[test]
    fn every_vertex_has_degree_d_sparse() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(n, d) in &[(20usize, 3usize), (50, 4), (100, 6), (64, 5)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            for v in g.vertices() {
                assert_eq!(g.degree(v), d, "n={n}, d={d}, v={v}");
            }
            assert_eq!(g.num_edges(), n * d / 2);
        }
    }

    #[test]
    fn every_vertex_has_degree_d_dense() {
        let mut rng = StdRng::seed_from_u64(4);
        // Dense regime: d comparable to n, where restarting alone would fail.
        let (n, d) = (60usize, 30usize);
        let g = random_regular(n, d, &mut rng).unwrap();
        for v in g.vertices() {
            assert_eq!(g.degree(v), d);
        }
    }

    #[test]
    fn regular_graphs_are_simple() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_regular(80, 10, &mut rng).unwrap();
        for v in g.vertices() {
            let row = g.neighbours(v);
            assert!(!row.contains(&(v as u32)), "self-loop at {v}");
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "duplicate neighbour at {v}"
            );
        }
    }

    #[test]
    fn moderately_dense_regular_graphs_are_connected() {
        // Random d-regular graphs with d >= 3 are connected w.h.p.; with a
        // fixed seed this is deterministic.
        let mut rng = StdRng::seed_from_u64(6);
        let g = random_regular(200, 8, &mut rng).unwrap();
        assert!(is_connected(&g));
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(8);
        let g1 = random_regular(40, 4, &mut rng1).unwrap();
        let g2 = random_regular(40, 4, &mut rng2).unwrap();
        assert_ne!(g1, g2);
    }
}
