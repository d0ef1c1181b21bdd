//! Erdős–Rényi random graphs `G(n, p)` and `G(n, m)`.

use rand::Rng;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// `G(n, p)`: every pair of vertices is an edge independently with
/// probability `p`.
///
/// Uses the skip-sampling (geometric-jump) technique so the running time is
/// `O(n + m)` rather than `O(n²)`, which matters for the `n ≈ 5·10⁵` graphs
/// of experiment E1.
pub fn erdos_renyi_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<CsrGraph> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability must lie in [0,1], got {p}"),
        });
    }
    // For p ≤ 2⁻⁵⁴ (p = 0 included), `1 − p` rounds to 1 and `log_q` to 0:
    // every gap would be infinite, so the graph is edgeless.
    let log_q = (1.0 - p).ln();
    if log_q == 0.0 || n < 2 {
        return GraphBuilder::new(n).build();
    }
    if p == 1.0 {
        return Ok(super::complete(n));
    }

    let expected_edges = (p * n as f64 * (n as f64 - 1.0) / 2.0).ceil() as usize;
    let mut builder = GraphBuilder::with_capacity(n, expected_edges);

    // Batagelj–Brandes skip sampling: iterate over the pairs (v, w) with
    // w < v in lexicographic order, jumping ahead by geometrically
    // distributed gaps so only realised edges cost work.
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        let r: f64 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
        w += 1 + (r.ln() / log_q).floor() as i64;
        while v < n && w >= v as i64 {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            builder.push_edge(v, w as usize)?;
        }
    }
    builder.build()
}

/// `G(n, m)`: a graph drawn uniformly among all graphs with exactly `m` edges.
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Result<CsrGraph> {
    let possible = n.saturating_mul(n.saturating_sub(1)) / 2;
    if m > possible {
        return Err(GraphError::InvalidParameter {
            reason: format!("requested {m} edges but only {possible} pairs exist"),
        });
    }
    // Rejection sampling into a set; fine as long as m is at most ~half of
    // the possible pairs, otherwise sample the complement.
    let sample_complement = m > possible / 2;
    let target = if sample_complement { possible - m } else { m };

    let mut chosen = std::collections::HashSet::with_capacity(target * 2);
    while chosen.len() < target {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let e = if u < v { (u, v) } else { (v, u) };
        chosen.insert(e);
    }

    let mut builder = GraphBuilder::with_capacity(n, m);
    if sample_complement {
        for u in 0..n {
            for v in (u + 1)..n {
                if !chosen.contains(&(u, v)) {
                    builder.push_edge(u, v)?;
                }
            }
        }
    } else {
        for (u, v) in chosen {
            builder.push_edge(u, v)?;
        }
    }
    builder.build()
}

/// Dense `G(n, p)` tuned to the paper's regime: `p` is chosen so the expected
/// degree is `n^alpha`, i.e. `p = n^{alpha-1}` (clamped to `[0, 1]`).
///
/// For `alpha ≥ 1/2` the degree concentration is strong enough that the
/// realised minimum degree is `n^{alpha − o(1)}` w.h.p., matching Theorem 1's
/// hypothesis.
pub fn dense_gnp_for_alpha<R: Rng + ?Sized>(n: usize, alpha: f64, rng: &mut R) -> Result<CsrGraph> {
    if !(0.0..=1.0).contains(&alpha) || alpha.is_nan() {
        return Err(GraphError::InvalidParameter {
            reason: format!("alpha must lie in [0,1], got {alpha}"),
        });
    }
    if n < 2 {
        return GraphBuilder::new(n).build();
    }
    let p = (n as f64).powf(alpha - 1.0).clamp(0.0, 1.0);
    erdos_renyi_gnp(n, p, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(erdos_renyi_gnp(10, -0.1, &mut rng).is_err());
        assert!(erdos_renyi_gnp(10, 1.5, &mut rng).is_err());
        assert!(erdos_renyi_gnp(10, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = erdos_renyi_gnp(20, 0.0, &mut rng).unwrap();
        assert_eq!(empty.num_edges(), 0);
        // At or below 2⁻⁵⁴ `1 − p` rounds to 1; at 1e-16, just above, the
        // first gap already passes every pair.  Either way: no edges.
        for p in [1e-16, 5e-17, 1e-17, 1e-300] {
            let tiny = erdos_renyi_gnp(50, p, &mut rng).unwrap();
            assert_eq!((tiny.num_vertices(), tiny.num_edges()), (50, 0), "p = {p}");
        }
        let full = erdos_renyi_gnp(20, 1.0, &mut rng).unwrap();
        assert_eq!(full.num_edges(), 190);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 400;
        let p = 0.1;
        let g = erdos_renyi_gnp(n, p, &mut rng).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.num_edges() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn gnp_is_simple_and_symmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = erdos_renyi_gnp(100, 0.3, &mut rng).unwrap();
        for v in g.vertices() {
            assert!(!g.neighbours(v).contains(&(v as u32)));
            for &w in g.neighbours(v) {
                assert!(g.has_edge(w as usize, v));
            }
        }
    }

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(4);
        for &m in &[0usize, 1, 50, 100, 190] {
            let g = erdos_renyi_gnm(20, m, &mut rng).unwrap();
            assert_eq!(g.num_edges(), m, "m = {m}");
        }
    }

    #[test]
    fn gnm_rejects_too_many_edges() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(erdos_renyi_gnm(5, 11, &mut rng).is_err());
    }

    #[test]
    fn dense_for_alpha_hits_target_degree() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 2000usize;
        let alpha = 0.8;
        let g = dense_gnp_for_alpha(n, alpha, &mut rng).unwrap();
        let target = (n as f64).powf(alpha);
        let avg = g.average_degree();
        assert!(
            (avg - target).abs() < target * 0.15,
            "avg degree {avg}, target {target}"
        );
        // The realised minimum degree should be within a constant factor.
        let min = g.min_degree().unwrap() as f64;
        assert!(min > target * 0.5, "min degree {min}, target {target}");
    }

    #[test]
    fn dense_for_alpha_rejects_bad_alpha() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(dense_gnp_for_alpha(10, -0.2, &mut rng).is_err());
        assert!(dense_gnp_for_alpha(10, 1.2, &mut rng).is_err());
    }

    #[test]
    fn alpha_one_gives_near_complete_graph() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = dense_gnp_for_alpha(50, 1.0, &mut rng).unwrap();
        assert_eq!(g.num_edges(), 50 * 49 / 2);
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(erdos_renyi_gnp(0, 0.5, &mut rng).unwrap().num_vertices(), 0);
        assert_eq!(erdos_renyi_gnp(1, 0.5, &mut rng).unwrap().num_edges(), 0);
        assert_eq!(erdos_renyi_gnm(1, 0, &mut rng).unwrap().num_edges(), 0);
    }
}
