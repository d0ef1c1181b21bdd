//! Chung–Lu random graphs with given expected degrees (power-law option).
//!
//! The paper's closest prior work [1] studies random graphs with a given
//! degree sequence; the Chung–Lu model is the standard tractable stand-in
//! and lets experiment E12 build heterogeneous-degree graphs whose effective
//! minimum degree can be controlled.

use rand::Rng;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// Chung–Lu graph: each pair `{u, v}` is an edge independently with
/// probability `min(1, w_u w_v / Σw)`.
///
/// Runs in `O(n² )` over pairs in the worst case but uses per-row skip
/// sampling on the upper bound `w_u w_max / Σw`, so it is fast whenever the
/// weights are not all close to `Σw / w_max`.
pub fn chung_lu<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> Result<CsrGraph> {
    let n = weights.len();
    if n == 0 {
        return GraphBuilder::new(0).build();
    }
    let mut total = 0.0f64;
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(GraphError::InvalidParameter {
                reason: format!("weight {i} is negative or non-finite: {w}"),
            });
        }
        total += w;
    }
    if total <= 0.0 {
        return GraphBuilder::new(n).build();
    }

    let mut builder = GraphBuilder::new(n);
    for u in 0..n {
        if weights[u] == 0.0 {
            continue;
        }
        // Upper-bound probability for this row (pairs u < v).
        for v in (u + 1)..n {
            let p = (weights[u] * weights[v] / total).min(1.0);
            if p > 0.0 && rng.gen::<f64>() < p {
                builder.push_edge(u, v)?;
            }
        }
    }
    builder.build()
}

/// Expected-degree weights following a bounded power law with exponent
/// `gamma`: `P(W > x) ∝ x^{1-gamma}` truncated to `[min_weight, max_weight]`,
/// discretised deterministically via inverse-CDF at evenly spaced quantiles
/// so the sequence is reproducible without an RNG.
pub fn power_law_weights(
    n: usize,
    gamma: f64,
    min_weight: f64,
    max_weight: f64,
) -> Result<Vec<f64>> {
    if gamma <= 1.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("power-law exponent must exceed 1, got {gamma}"),
        });
    }
    // NaN weights fail both comparisons and are rejected here too.
    let bounds_valid = min_weight > 0.0 && max_weight >= min_weight;
    if !bounds_valid {
        return Err(GraphError::InvalidParameter {
            reason: format!("need 0 < min_weight <= max_weight, got [{min_weight}, {max_weight}]"),
        });
    }
    let a = 1.0 - gamma; // exponent of the CDF power
    let lo = min_weight.powf(a);
    let hi = max_weight.powf(a);
    let mut weights = Vec::with_capacity(n);
    for i in 0..n {
        // Mid-point quantiles avoid hitting the extremes exactly.
        let q = (i as f64 + 0.5) / n as f64;
        let w = (lo + q * (hi - lo)).powf(1.0 / a);
        weights.push(w);
    }
    Ok(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(chung_lu(&[1.0, -1.0], &mut rng).is_err());
        assert!(chung_lu(&[f64::NAN], &mut rng).is_err());
    }

    #[test]
    fn zero_weights_give_empty_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = chung_lu(&[0.0; 10], &mut rng).unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 0);
        let empty = chung_lu(&[], &mut rng).unwrap();
        assert_eq!(empty.num_vertices(), 0);
    }

    #[test]
    fn expected_degrees_are_roughly_met() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 600;
        let weights = vec![20.0; n];
        let g = chung_lu(&weights, &mut rng).unwrap();
        let avg = DegreeStats::of(&g).unwrap().mean;
        // Expected degree ≈ w (1 - w/Σw) ≈ 20.
        assert!((avg - 20.0).abs() < 3.0, "average degree {avg}");
    }

    #[test]
    fn heavier_vertices_get_more_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 500;
        let mut weights = vec![5.0; n];
        weights[0] = 120.0;
        let g = chung_lu(&weights, &mut rng).unwrap();
        let avg = DegreeStats::of(&g).unwrap().mean;
        assert!(
            g.degree(0) as f64 > 4.0 * avg,
            "hub degree {} vs avg {avg}",
            g.degree(0)
        );
    }

    #[test]
    fn power_law_weights_validation() {
        assert!(power_law_weights(10, 0.9, 1.0, 5.0).is_err());
        assert!(power_law_weights(10, 2.5, 0.0, 5.0).is_err());
        assert!(power_law_weights(10, 2.5, 5.0, 1.0).is_err());
    }

    #[test]
    fn power_law_weights_respect_bounds_and_order() {
        let w = power_law_weights(1000, 2.5, 3.0, 50.0).unwrap();
        assert_eq!(w.len(), 1000);
        for &x in &w {
            assert!((3.0 - 1e-9..=50.0 + 1e-9).contains(&x));
        }
        // With gamma > 1 and increasing quantile the weights are monotone.
        assert!(
            w.windows(2).all(|p| p[0] <= p[1] + 1e-12)
                || w.windows(2).all(|p| p[0] >= p[1] - 1e-12)
        );
    }

    #[test]
    fn power_law_tail_is_heavy() {
        let w = power_law_weights(10_000, 2.2, 2.0, 500.0).unwrap();
        let max = w.iter().cloned().fold(f64::MIN, f64::max);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!(max > 10.0 * mean, "max {max}, mean {mean}");
    }

    #[test]
    fn chung_lu_with_power_law_runs() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = power_law_weights(300, 2.5, 4.0, 60.0).unwrap();
        let g = chung_lu(&w, &mut rng).unwrap();
        assert!(g.num_edges() > 0);
        assert_eq!(g.num_vertices(), 300);
    }
}
