//! A small named registry of protocols, topologies and standard experiment
//! presets.
//!
//! Benchmark binaries and examples refer to protocols by the short names used
//! in the paper's discussion ("voter", "best-of-2", "best-of-3", …) and to
//! topology families by parameterised short names ("complete", "gnp:0.5",
//! "sbm:2:0.6:0.2", …); the registry resolves both and enumerates the
//! canonical comparison set.

use bo3_dynamics::prelude::{AdversarySpec, ProtocolSpec, TieRule, MAX_BEST_OF_K};
use bo3_graph::generators::GraphSpec;
use bo3_graph::TopologySpec;

use crate::error::CoreError;

/// All protocol names understood by [`resolve_protocol`].
pub const PROTOCOL_NAMES: &[&str] = &[
    "voter",
    "best-of-1",
    "best-of-2",
    "best-of-2-random",
    "best-of-3",
    "best-of-5",
    "best-of-7",
    "best-of-9",
    "local-majority",
];

/// Resolves a short protocol name to its specification.
///
/// Returns `None` for unknown names; `best-of-<k>` is accepted for any
/// `k` in `1..=`[`MAX_BEST_OF_K`] beyond the listed presets.
pub fn resolve_protocol(name: &str) -> Option<ProtocolSpec> {
    let lower = name.trim().to_ascii_lowercase();
    match lower.as_str() {
        "voter" | "best-of-1" | "bo1" => Some(ProtocolSpec::Voter),
        "best-of-2" | "bo2" => Some(ProtocolSpec::BestOfTwo {
            tie_rule: TieRule::KeepOwn,
        }),
        "best-of-2-random" => Some(ProtocolSpec::BestOfTwo {
            tie_rule: TieRule::Random,
        }),
        "best-of-3" | "bo3" => Some(ProtocolSpec::BestOfThree),
        "local-majority" | "majority" => Some(ProtocolSpec::LocalMajority {
            tie_rule: TieRule::KeepOwn,
        }),
        other => {
            let k: usize = other.strip_prefix("best-of-")?.parse().ok()?;
            if !(1..=MAX_BEST_OF_K).contains(&k) {
                None
            } else if k == 3 {
                Some(ProtocolSpec::BestOfThree)
            } else {
                Some(ProtocolSpec::BestOfK {
                    k,
                    tie_rule: TieRule::KeepOwn,
                })
            }
        }
    }
}

/// Representative topology names understood by [`resolve_topology`]
/// (parameterised forms accept any valid value, mirroring `best-of-<k>`).
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
/// vertices, mirroring [`resolve_protocol`].
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

/// Representative adversary names understood by [`resolve_adversary`]
/// (parameterised forms accept any valid value, mirroring
/// [`resolve_topology`]).
pub const ADVERSARY_NAMES: &[&str] = &[
    "zealots:0.05",
    "byzantine:0.05",
    "drop:0.1",
    "partition:4:16",
];

/// Resolves a short adversary name to its specification, mirroring
/// [`resolve_topology`].  Supported forms (case-insensitive):
///
/// * `zealots:<frac>` — seed-derived zealot set, `frac ∈ [0, 1]`;
/// * `byzantine:<frac>` — seed-derived inverted reporters, `frac ∈ [0, 1]`;
/// * `drop:<q>` — per-sample message loss, `q ∈ [0, 1]`;
/// * `partition:<a>:<b>` — sever inter-block messages for rounds `[a, b)`
///   with the default two blocks (`a < b`).
///
/// Returns `None` for unknown names or unparsable / out-of-range parameters —
/// sugar over [`resolve_adversary_checked`], which says *why*.
pub fn resolve_adversary(name: &str) -> Option<AdversarySpec> {
    resolve_adversary_checked(name).ok()
}

/// [`resolve_adversary`] with typed errors: unknown families, malformed
/// numbers and out-of-range parameters (`zealots`/`byzantine`/`drop` outside
/// `[0, 1]`, empty or inverted partition windows) each surface as
/// [`CoreError::InvalidConfig`] naming the offending input.
pub fn resolve_adversary_checked(name: &str) -> Result<AdversarySpec, CoreError> {
    let bad = |reason: String| CoreError::InvalidConfig { reason };
    let lower = name.trim().to_ascii_lowercase();
    let (family, params) = lower
        .split_once(':')
        .ok_or_else(|| bad(format!("adversary '{name}' has no ':<params>' suffix")))?;
    let fraction = |what: &str| -> Result<f64, CoreError> {
        params.parse().map_err(|_| {
            bad(format!(
                "adversary '{name}': {what} '{params}' is not a number"
            ))
        })
    };
    let spec = match family {
        "zealots" => AdversarySpec::Zealots {
            fraction: fraction("fraction")?,
        },
        "byzantine" => AdversarySpec::Byzantine {
            fraction: fraction("fraction")?,
        },
        "drop" => AdversarySpec::Drop { q: fraction("q")? },
        "partition" => {
            let (from, until) = params.split_once(':').ok_or_else(|| {
                bad(format!(
                    "adversary '{name}': expected partition:<from>:<until>"
                ))
            })?;
            let round = |label: &str, text: &str| {
                text.parse::<u64>().map_err(|_| {
                    bad(format!(
                        "adversary '{name}': {label} '{text}' is not a round index"
                    ))
                })
            };
            AdversarySpec::Partition {
                from_round: round("from_round", from)?,
                until_round: round("until_round", until)?,
                blocks: 2,
            }
        }
        other => return Err(bad(format!("unknown adversary family '{other}'"))),
    };
    spec.validate()
        .map_err(|e| bad(format!("adversary '{name}': {e}")))?;
    Ok(spec)
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
    fn every_listed_name_resolves() {
        for name in PROTOCOL_NAMES {
            assert!(resolve_protocol(name).is_some(), "{name} did not resolve");
        }
    }

    #[test]
    fn aliases_and_case_insensitivity() {
        assert_eq!(resolve_protocol("BO3"), Some(ProtocolSpec::BestOfThree));
        assert_eq!(resolve_protocol(" Voter "), Some(ProtocolSpec::Voter));
        assert_eq!(resolve_protocol("best-of-1"), Some(ProtocolSpec::Voter));
        assert_eq!(
            resolve_protocol("best-of-3"),
            Some(ProtocolSpec::BestOfThree)
        );
    }

    #[test]
    fn arbitrary_best_of_k_parses() {
        match resolve_protocol("best-of-11") {
            Some(ProtocolSpec::BestOfK { k: 11, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(resolve_protocol("best-of-0"), None);
        assert!(resolve_protocol(&format!("best-of-{MAX_BEST_OF_K}")).is_some());
        assert_eq!(
            resolve_protocol(&format!("best-of-{}", MAX_BEST_OF_K + 1)),
            None
        );
    }

    #[test]
    fn unknown_names_fail() {
        assert_eq!(resolve_protocol("majority-of-all"), None);
        assert_eq!(resolve_protocol(""), None);
        assert_eq!(resolve_protocol("best-of-x"), None);
    }

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
    fn every_listed_adversary_name_resolves_and_labels_round_trip() {
        for name in ADVERSARY_NAMES {
            let spec = resolve_adversary(name).unwrap_or_else(|| panic!("{name}"));
            // The spec's own label is the registry spelling, so reports and
            // configs agree on naming.
            assert_eq!(&spec.label(), name, "{name}");
        }
    }

    #[test]
    fn adversary_names_resolve_to_the_right_mechanisms() {
        assert_eq!(
            resolve_adversary("zealots:0.1"),
            Some(AdversarySpec::Zealots { fraction: 0.1 })
        );
        assert_eq!(
            resolve_adversary(" Byzantine:0.25 "),
            Some(AdversarySpec::Byzantine { fraction: 0.25 })
        );
        assert_eq!(
            resolve_adversary("drop:0.5"),
            Some(AdversarySpec::Drop { q: 0.5 })
        );
        assert_eq!(
            resolve_adversary("partition:4:16"),
            Some(AdversarySpec::Partition {
                from_round: 4,
                until_round: 16,
                blocks: 2
            })
        );
    }

    #[test]
    fn invalid_adversary_names_and_parameters_fail() {
        assert_eq!(resolve_adversary("saboteur:0.1"), None);
        assert_eq!(resolve_adversary("zealots"), None);
        assert_eq!(resolve_adversary("zealots:1.5"), None);
        assert_eq!(resolve_adversary("zealots:-0.1"), None);
        assert_eq!(resolve_adversary("zealots:x"), None);
        assert_eq!(resolve_adversary("byzantine:2"), None);
        assert_eq!(resolve_adversary("drop:1.01"), None);
        assert_eq!(resolve_adversary("drop:"), None);
        assert_eq!(resolve_adversary("partition:4"), None);
        assert_eq!(resolve_adversary("partition:9:9"), None);
        assert_eq!(resolve_adversary("partition:9:4"), None);
        assert_eq!(resolve_adversary("partition:a:b"), None);
        assert_eq!(resolve_adversary(""), None);
    }

    #[test]
    fn checked_resolution_names_the_offence_per_spelling() {
        let reason = |name: &str| match resolve_adversary_checked(name) {
            Err(CoreError::InvalidConfig { reason }) => reason,
            other => panic!("{name}: expected InvalidConfig, got {other:?}"),
        };
        // Out-of-range numerics, one test per spelling.
        assert!(reason("zealots:1.5").contains("zealots:1.5"));
        assert!(reason("zealots:-0.1").contains("zealots:-0.1"));
        assert!(reason("byzantine:2").contains("byzantine:2"));
        assert!(reason("drop:1.01").contains("drop:1.01"));
        // Malformed numbers name the offending token.
        assert!(reason("zealots:x").contains("'x'"));
        assert!(reason("drop:").contains("not a number"));
        // Degenerate / inverted / negative partition windows.
        assert!(reason("partition:9:9").contains("partition:9:9"));
        assert!(reason("partition:9:4").contains("partition:9:4"));
        assert!(reason("partition:-1:4").contains("not a round index"));
        assert!(reason("partition:4").contains("partition:<from>:<until>"));
        // Unknown families and missing parameters.
        assert!(reason("saboteur:0.1").contains("saboteur"));
        assert!(reason("zealots").contains("no ':<params>'"));
        // Valid spellings still resolve.
        assert!(resolve_adversary_checked("drop:0.25").is_ok());
        assert!(resolve_adversary_checked("partition:0:5").is_ok());
    }

    #[test]
    fn comparison_set_is_ordered_and_contains_the_paper_protocol() {
        let set = comparison_protocols();
        assert_eq!(set.len(), 5);
        assert_eq!(set[2].1, ProtocolSpec::BestOfThree);
        assert_eq!(set[0].0, "voter");
    }
}
