//! Spectral estimates for the random-walk transition matrix.
//!
//! The expander-based analyses the paper compares against (\[4], \[5]) phrase
//! their initial-bias conditions in terms of `λ₂`, the second largest
//! absolute eigenvalue of the transition matrix `P = D⁻¹A`.  We estimate it
//! with deflated power iteration on the *lazy* walk `(I + P)/2`, which makes
//! every eigenvalue non-negative and avoids the ±λ oscillation of bipartite
//! graphs; conductance of a sweep cut gives a combinatorial cross-check via
//! Cheeger's inequality.

use rand::Rng;

use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};

/// Options for power iteration.
#[derive(Debug, Clone, Copy)]
pub struct PowerIterationOptions {
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the Rayleigh-quotient change.
    pub tolerance: f64,
}

impl Default for PowerIterationOptions {
    fn default() -> Self {
        PowerIterationOptions {
            max_iters: 500,
            tolerance: 1e-9,
        }
    }
}

/// Multiplies the transition matrix `P = D⁻¹ A` with `x`: `(Px)(v) = mean of x over N(v)`.
fn transition_multiply(graph: &CsrGraph, x: &[f64], out: &mut [f64]) {
    for v in graph.vertices() {
        let row = graph.neighbours(v);
        if row.is_empty() {
            out[v] = 0.0;
            continue;
        }
        let mut acc = 0.0;
        for &w in row {
            acc += x[w];
        }
        out[v] = acc / row.len() as f64;
    }
}

/// Sign convention for the half-walk operators used internally.
#[derive(Clone, Copy)]
enum HalfWalk {
    /// `(I + P)/2` — its dominant non-stationary eigenvalue recovers the
    /// largest eigenvalue of `P` below 1.
    Lazy,
    /// `(I − P)/2` — its dominant eigenvalue recovers the most negative
    /// eigenvalue of `P` (e.g. −1 on bipartite graphs).
    AntiLazy,
}

/// Power iteration for the dominant eigenvalue of a half-walk operator with
/// the stationary component projected out (both operators are self-adjoint
/// and positive semi-definite under the degree inner product, so the
/// iteration converges monotonically without sign oscillation).
fn half_walk_dominant<R: Rng + ?Sized>(
    graph: &CsrGraph,
    which: HalfWalk,
    opts: PowerIterationOptions,
    rng: &mut R,
) -> f64 {
    let n = graph.num_vertices();
    let total_degree = graph.total_degree() as f64;
    let deg: Vec<f64> = graph.vertices().map(|v| graph.degree(v) as f64).collect();

    let project = |x: &mut [f64]| {
        let mean = x
            .iter()
            .zip(deg.iter())
            .map(|(&xi, &di)| xi * di)
            .sum::<f64>()
            / total_degree;
        for xi in x.iter_mut() {
            *xi -= mean;
        }
    };
    let pi_norm = |x: &[f64]| -> f64 {
        x.iter()
            .zip(deg.iter())
            .map(|(&xi, &di)| di * xi * xi)
            .sum::<f64>()
            .sqrt()
    };
    let apply = |x: &[f64], out: &mut [f64]| {
        transition_multiply(graph, x, out);
        match which {
            HalfWalk::Lazy => {
                for v in 0..n {
                    out[v] = 0.5 * (x[v] + out[v]);
                }
            }
            HalfWalk::AntiLazy => {
                for v in 0..n {
                    out[v] = 0.5 * (x[v] - out[v]);
                }
            }
        }
    };

    let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    project(&mut x);
    if pi_norm(&x) <= f64::EPSILON {
        x = (0..n)
            .map(|v| if v % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        project(&mut x);
    }
    let norm = pi_norm(&x).max(f64::MIN_POSITIVE);
    for xi in x.iter_mut() {
        *xi /= norm;
    }

    let mut qx = vec![0.0f64; n];
    let mut mu_prev = 0.0f64;
    for _ in 0..opts.max_iters {
        apply(&x, &mut qx);
        project(&mut qx);
        // Rayleigh quotient <x, Qx>_π with ||x||_π = 1.
        let mu: f64 = (0..n).map(|v| deg[v] * x[v] * qx[v]).sum();
        let norm = pi_norm(&qx);
        if norm <= f64::EPSILON {
            // No mass outside the stationary eigenspace: operator is zero there.
            return mu.max(0.0);
        }
        for q in qx.iter_mut() {
            *q /= norm;
        }
        std::mem::swap(&mut x, &mut qx);
        if (mu - mu_prev).abs() < opts.tolerance {
            return mu;
        }
        mu_prev = mu;
    }
    mu_prev
}

/// Estimates `λ₂(P)`, the second-largest-in-absolute-value eigenvalue of the
/// transition matrix, on a graph with no isolated vertices.
///
/// Runs power iteration twice, on the lazy walk `(I+P)/2` (captures the
/// largest non-principal eigenvalue of `P`) and on the anti-lazy walk
/// `(I−P)/2` (captures the most negative eigenvalue, e.g. −1 on bipartite
/// graphs), and returns the larger magnitude mapped back to `P`'s spectrum.
pub fn lambda2<R: Rng + ?Sized>(
    graph: &CsrGraph,
    opts: PowerIterationOptions,
    rng: &mut R,
) -> Result<f64> {
    let n = graph.num_vertices();
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    // Each power-iteration step touches every arc; on the dense graphs this
    // crate targets that is Θ(n²) per iteration, so refuse huge inputs
    // instead of grinding for hours (million-vertex experiments run on the
    // implicit topology layer, which has closed-form spectra anyway).
    if n > crate::DENSE_ANALYSIS_VERTEX_LIMIT {
        return Err(GraphError::TooLarge {
            n,
            limit: crate::DENSE_ANALYSIS_VERTEX_LIMIT,
            operation: "spectral estimation (lambda2)",
        });
    }
    graph.check_no_isolated_vertex()?;
    if n == 1 {
        return Ok(0.0);
    }
    let mu_plus = half_walk_dominant(graph, HalfWalk::Lazy, opts, rng);
    let mu_minus = half_walk_dominant(graph, HalfWalk::AntiLazy, opts, rng);
    let lambda_high = (2.0 * mu_plus - 1.0).abs();
    let lambda_low = (1.0 - 2.0 * mu_minus).abs();
    Ok(lambda_high.max(lambda_low).min(1.0))
}

/// Conductance `φ(S) = cut(S, V∖S) / min(vol(S), vol(V∖S))` of the vertex set `S`.
pub fn conductance(graph: &CsrGraph, set: &[usize]) -> Result<f64> {
    let n = graph.num_vertices();
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let mut in_set = vec![false; n];
    for &v in set {
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        in_set[v] = true;
    }
    let mut cut = 0usize;
    let mut vol_s = 0usize;
    for v in graph.vertices() {
        if !in_set[v] {
            continue;
        }
        vol_s += graph.degree(v);
        for &w in graph.neighbours(v) {
            if !in_set[w] {
                cut += 1;
            }
        }
    }
    let vol_rest = graph.total_degree() - vol_s;
    let denom = vol_s.min(vol_rest);
    if denom == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "conductance undefined: one side of the cut has zero volume".into(),
        });
    }
    Ok(cut as f64 / denom as f64)
}

/// The initial-bias threshold of Cooper et al. \[5]: red wins w.h.p. when
/// `d(R₀) − d(B₀) ≥ 4 λ₂² d(V)`. Returns that right-hand side so experiments
/// can compare the paper's condition with the expander-based one.
pub fn expander_bias_threshold(graph: &CsrGraph, lambda2: f64) -> f64 {
    4.0 * lambda2 * lambda2 * graph.total_degree() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn l2(g: &CsrGraph, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        lambda2(g, PowerIterationOptions::default(), &mut rng).unwrap()
    }

    #[test]
    fn complete_graph_has_tiny_lambda2() {
        // K_n has λ₂(P) = 1/(n-1).
        let g = generators::complete(50);
        let est = l2(&g, 1);
        assert!((est - 1.0 / 49.0).abs() < 5e-3, "estimate {est}");
    }

    #[test]
    fn cycle_has_lambda2_close_to_one() {
        // C_n has λ₂(P) = cos(2π/n) → 1.
        let g = generators::cycle(100).unwrap();
        let est = l2(&g, 2);
        let exact = (2.0 * std::f64::consts::PI / 100.0).cos();
        assert!((est - exact).abs() < 2e-2, "estimate {est}, exact {exact}");
    }

    #[test]
    fn complete_bipartite_lambda2_detected_via_lazy_walk() {
        // K_{m,m} has an eigenvalue -1 (period 2); |λ₂| = 1.
        let g = generators::complete_bipartite(20, 20).unwrap();
        let est = l2(&g, 3);
        assert!(est > 0.95, "estimate {est}");
    }

    #[test]
    fn lambda2_errors_on_empty_or_isolated() {
        let empty = crate::builder::GraphBuilder::new(0).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(lambda2(&empty, PowerIterationOptions::default(), &mut rng).is_err());
        let iso = crate::builder::GraphBuilder::new(3)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        assert!(lambda2(&iso, PowerIterationOptions::default(), &mut rng).is_err());
    }

    #[test]
    fn lambda2_refuses_huge_graphs_with_a_typed_error() {
        // A long cycle is cheap to build (O(n) memory) but over the
        // dense-analysis limit, so the guard must fire before any work.
        let g = generators::cycle(crate::DENSE_ANALYSIS_VERTEX_LIMIT + 1).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        match lambda2(&g, PowerIterationOptions::default(), &mut rng) {
            Err(GraphError::TooLarge { n, limit, .. }) => {
                assert_eq!(n, crate::DENSE_ANALYSIS_VERTEX_LIMIT + 1);
                assert_eq!(limit, crate::DENSE_ANALYSIS_VERTEX_LIMIT);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn lambda2_is_within_unit_interval_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::erdos_renyi_gnp(200, 0.2, &mut rng).unwrap();
        let est = l2(&g, 4);
        assert!((0.0..=1.0).contains(&est));
        // Dense ER graphs are good expanders: λ₂ should be well below 1.
        assert!(est < 0.5, "estimate {est}");
    }

    #[test]
    fn conductance_of_barbell_bridge_is_small() {
        let g = generators::barbell(30, 1).unwrap();
        // First clique = vertices 0..30.
        let set: Vec<usize> = (0..30).collect();
        let phi = conductance(&g, &set).unwrap();
        assert!(phi < 0.01, "conductance {phi}");
    }

    #[test]
    fn conductance_of_half_complete_graph() {
        let g = generators::complete(20);
        let set: Vec<usize> = (0..10).collect();
        let phi = conductance(&g, &set).unwrap();
        // Each of the 10 vertices has 10 cross edges out of 19 total.
        assert!((phi - 100.0 / 190.0).abs() < 1e-9);
    }

    #[test]
    fn conductance_rejects_degenerate_cuts() {
        let g = generators::complete(5);
        assert!(conductance(&g, &[]).is_err());
        assert!(conductance(&g, &[0, 1, 2, 3, 4]).is_err());
        assert!(conductance(&g, &[7]).is_err());
    }

    #[test]
    fn expander_threshold_scales_with_volume() {
        let g = generators::complete(100);
        let thr = expander_bias_threshold(&g, 0.1);
        assert!((thr - 4.0 * 0.01 * (100.0 * 99.0)).abs() < 1e-6);
    }
}
