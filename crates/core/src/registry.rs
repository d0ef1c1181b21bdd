//! A small named registry of topologies and the protocol comparison set.
//!
//! [`resolve_topology`] resolves topology families by parameterised short
//! names ("complete", "gnp:0.5", "sbm:2:0.6:0.2", …);
//! [`comparison_protocols`] is the canonical set of protocols that E3, the
//! `e3` and `e13` benches and the `protocol_faceoff` example compare.

use bo3_dynamics::prelude::{ProtocolSpec, TieRule};
use bo3_graph::generators::GraphSpec;
use bo3_graph::TopologySpec;

/// Representative topology names understood by [`resolve_topology`]
/// (parameterised forms accept any valid value).
pub const TOPOLOGY_NAMES: &[&str] = &[
    "complete",
    "bipartite",
    "multipartite:3",
    "gnp:0.5",
    "sbm:2:0.6:0.2",
    "dense-alpha:0.7",
    "regular:8",
];

/// Resolves a short topology-family name to its specification at `n`
/// vertices.
///
/// The name fixes the family *shape* and `n` scales it — the same split the
/// experiment sweeps use.  Supported forms (case-insensitive):
///
/// * `complete` — implicit `K_n`;
/// * `bipartite` — implicit balanced `K_{⌈n/2⌉,⌊n/2⌋}`;
/// * `multipartite:<k>` — implicit complete multipartite graph on `k ≥ 2`
///   near-equal blocks;
/// * `gnp:<p>` — implicit `G(n, p)`, `p ∈ (0, 1]`;
/// * `sbm:<k>:<p_in>:<p_out>` — implicit planted partition on `k` blocks
///   (`k` must divide `n` at build time);
/// * `dense-alpha:<a>` — materialised dense `G(n, p)` with expected degree
///   `n^a`;
/// * `regular:<d>` — materialised random `d`-regular graph.
///
/// Returns `None` for unknown names or unparsable parameters.
pub fn resolve_topology(name: &str, n: usize) -> Option<TopologySpec> {
    let lower = name.trim().to_ascii_lowercase();
    match lower.as_str() {
        "complete" | "k_n" | "kn" => Some(TopologySpec::Complete { n }),
        "bipartite" | "complete-bipartite" => Some(TopologySpec::CompleteBipartite {
            a: n.div_ceil(2),
            b: n / 2,
        }),
        other => {
            let (family, params) = other.split_once(':')?;
            match family {
                "multipartite" => {
                    let k: usize = params.parse().ok()?;
                    if k < 2 || n < k {
                        return None;
                    }
                    // k near-equal blocks: the first n % k blocks get the
                    // extra vertex.
                    let blocks = (0..k).map(|i| n / k + usize::from(i < n % k)).collect();
                    Some(TopologySpec::CompleteMultipartite { blocks })
                }
                "gnp" => {
                    let p: f64 = params.parse().ok()?;
                    (p > 0.0 && p <= 1.0).then_some(TopologySpec::ImplicitGnp { n, p })
                }
                "sbm" => {
                    let mut parts = params.split(':');
                    let blocks: usize = parts.next()?.parse().ok()?;
                    let p_in: f64 = parts.next()?.parse().ok()?;
                    let p_out: f64 = parts.next()?.parse().ok()?;
                    if parts.next().is_some()
                        || blocks == 0
                        || !(0.0..=1.0).contains(&p_in)
                        || !(0.0..=1.0).contains(&p_out)
                    {
                        return None;
                    }
                    Some(TopologySpec::ImplicitSbm {
                        n,
                        blocks,
                        p_in,
                        p_out,
                    })
                }
                "dense-alpha" => {
                    let alpha: f64 = params.parse().ok()?;
                    (alpha > 0.0 && alpha <= 1.0).then_some(TopologySpec::Materialised(
                        GraphSpec::DenseForAlpha { n, alpha },
                    ))
                }
                "regular" => {
                    let d: usize = params.parse().ok()?;
                    (d >= 1 && d < n).then_some(TopologySpec::Materialised(
                        GraphSpec::RandomRegular { n, d },
                    ))
                }
                _ => None,
            }
        }
    }
}

/// The protocols compared in experiments E3 and E5, with their display names.
pub fn comparison_protocols() -> Vec<(&'static str, ProtocolSpec)> {
    vec![
        ("voter", ProtocolSpec::Voter),
        (
            "best-of-2",
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::KeepOwn,
            },
        ),
        ("best-of-3", ProtocolSpec::BestOfThree),
        (
            "best-of-5",
            ProtocolSpec::BestOfK {
                k: 5,
                tie_rule: TieRule::KeepOwn,
            },
        ),
        (
            "local-majority",
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::KeepOwn,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_topology_name_resolves_and_builds() {
        for name in TOPOLOGY_NAMES {
            let spec = resolve_topology(name, 24).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(spec.num_vertices(), 24, "{name}");
            assert!(spec.build(1).is_ok(), "{name} failed to build");
        }
    }

    #[test]
    fn topology_names_resolve_to_the_right_families() {
        assert_eq!(
            resolve_topology("complete", 100),
            Some(TopologySpec::Complete { n: 100 })
        );
        assert_eq!(
            resolve_topology(" Bipartite ", 9),
            Some(TopologySpec::CompleteBipartite { a: 5, b: 4 })
        );
        assert_eq!(
            resolve_topology("multipartite:3", 10),
            Some(TopologySpec::CompleteMultipartite {
                blocks: vec![4, 3, 3]
            })
        );
        assert_eq!(
            resolve_topology("gnp:0.25", 50),
            Some(TopologySpec::ImplicitGnp { n: 50, p: 0.25 })
        );
        assert_eq!(
            resolve_topology("sbm:2:0.6:0.2", 40),
            Some(TopologySpec::ImplicitSbm {
                n: 40,
                blocks: 2,
                p_in: 0.6,
                p_out: 0.2
            })
        );
        assert_eq!(
            resolve_topology("dense-alpha:0.7", 1_000),
            Some(TopologySpec::Materialised(GraphSpec::DenseForAlpha {
                n: 1_000,
                alpha: 0.7
            }))
        );
        assert_eq!(
            resolve_topology("regular:8", 100),
            Some(TopologySpec::Materialised(GraphSpec::RandomRegular {
                n: 100,
                d: 8
            }))
        );
    }

    #[test]
    fn invalid_topology_names_and_parameters_fail() {
        assert_eq!(resolve_topology("hyperbolic", 100), None);
        assert_eq!(resolve_topology("gnp:0", 100), None);
        assert_eq!(resolve_topology("gnp:1.5", 100), None);
        assert_eq!(resolve_topology("gnp:x", 100), None);
        assert_eq!(resolve_topology("multipartite:1", 100), None);
        assert_eq!(resolve_topology("multipartite:200", 100), None);
        assert_eq!(resolve_topology("sbm:2:0.6", 100), None);
        assert_eq!(resolve_topology("sbm:2:0.6:0.2:9", 100), None);
        assert_eq!(resolve_topology("sbm:0:0.6:0.2", 100), None);
        assert_eq!(resolve_topology("regular:0", 100), None);
        assert_eq!(resolve_topology("regular:100", 100), None);
        assert_eq!(resolve_topology("dense-alpha:-1", 100), None);
        assert_eq!(resolve_topology("", 100), None);
    }

    #[test]
    fn comparison_set_is_ordered_and_contains_the_paper_protocol() {
        let set = comparison_protocols();
        assert_eq!(set.len(), 5);
        assert_eq!(set[2].1, ProtocolSpec::BestOfThree);
        assert_eq!(set[0].0, "voter");
    }
}
