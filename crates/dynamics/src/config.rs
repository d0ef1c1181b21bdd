//! Serialisable protocol descriptions.
//!
//! Experiment configurations (and the CSV reports they produce) need to name
//! the protocol they ran; [`ProtocolSpec`] is the plain-data description
//! that can be turned into a live [`Protocol`] object (its JSON codec lives
//! in `bo3_core::configio`).

use crate::kernel::ProtocolKind;
use crate::protocol::{BestOfK, BestOfThree, BestOfTwo, LocalMajority, Protocol, TieRule, Voter};

/// A serialisable description of a voting protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Best-of-1 (the voter model).
    Voter,
    /// Best-of-2 with the given tie rule.
    BestOfTwo {
        /// How a 1–1 sample is resolved.
        tie_rule: TieRule,
    },
    /// Best-of-3 — the paper's protocol.
    BestOfThree,
    /// Best-of-k for arbitrary `k ≥ 1`.
    BestOfK {
        /// Sample size.
        k: usize,
        /// How ties are resolved (relevant only for even `k`).
        tie_rule: TieRule,
    },
    /// Deterministic full-neighbourhood majority.
    LocalMajority {
        /// How exact ties are resolved.
        tie_rule: TieRule,
    },
}

impl ProtocolSpec {
    /// Instantiates the described protocol.
    pub fn build(&self) -> Box<dyn Protocol> {
        match *self {
            ProtocolSpec::Voter => Box::new(Voter::new()),
            ProtocolSpec::BestOfTwo { tie_rule } => Box::new(BestOfTwo::new(tie_rule)),
            ProtocolSpec::BestOfThree => Box::new(BestOfThree::new()),
            ProtocolSpec::BestOfK { k, tie_rule } => Box::new(BestOfK::new(k, tie_rule)),
            ProtocolSpec::LocalMajority { tie_rule } => Box::new(LocalMajority::new(tie_rule)),
        }
    }

    /// The protocol's display name, computed directly on the spec.
    ///
    /// Pinned against [`Protocol::name`] of the built protocol for every
    /// variant by a unit test below — the previous implementation allocated
    /// a whole `Box<dyn Protocol>` just to read the name.
    pub fn name(&self) -> String {
        match *self {
            ProtocolSpec::Voter => "voter (best-of-1)".into(),
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::KeepOwn,
            } => "best-of-2 (keep on tie)".into(),
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random,
            } => "best-of-2 (random tie)".into(),
            ProtocolSpec::BestOfThree => "best-of-3".into(),
            ProtocolSpec::BestOfK { k, tie_rule } => match tie_rule {
                TieRule::KeepOwn => format!("best-of-{k} (keep on tie)"),
                TieRule::Random => format!("best-of-{k} (random tie)"),
            },
            ProtocolSpec::LocalMajority { .. } => "local-majority (full neighbourhood)".into(),
        }
    }

    /// The kernel the described protocol monomorphizes to.
    ///
    /// Every spec names a built-in protocol, so — unlike the open-world
    /// [`Protocol::kind`] — this is total: Monte-Carlo replicas built from a
    /// spec always run on the kernel path.
    pub fn kind(&self) -> ProtocolKind {
        match *self {
            ProtocolSpec::Voter => ProtocolKind::Voter,
            ProtocolSpec::BestOfTwo { tie_rule } => ProtocolKind::BestOfTwo(tie_rule),
            ProtocolSpec::BestOfThree => ProtocolKind::BestOfThree,
            ProtocolSpec::BestOfK { k, tie_rule } => ProtocolKind::BestOfK { k, tie_rule },
            ProtocolSpec::LocalMajority { tie_rule } => ProtocolKind::LocalMajority(tie_rule),
        }
    }

    /// The standard comparison set used by experiments E3 and E5: voter,
    /// Best-of-2 (keep), Best-of-3, Best-of-5 and local majority.
    pub fn comparison_set() -> Vec<ProtocolSpec> {
        vec![
            ProtocolSpec::Voter,
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::KeepOwn,
            },
            ProtocolSpec::BestOfThree,
            ProtocolSpec::BestOfK {
                k: 5,
                tie_rule: TieRule::KeepOwn,
            },
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::KeepOwn,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_build_the_right_protocols() {
        assert_eq!(ProtocolSpec::Voter.build().sample_size(), 1);
        assert_eq!(
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::KeepOwn
            }
            .build()
            .sample_size(),
            2
        );
        assert_eq!(ProtocolSpec::BestOfThree.build().sample_size(), 3);
        assert_eq!(
            ProtocolSpec::BestOfK {
                k: 7,
                tie_rule: TieRule::Random
            }
            .build()
            .sample_size(),
            7
        );
        assert_eq!(
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::KeepOwn
            }
            .build()
            .sample_size(),
            0
        );
    }

    #[test]
    fn names_are_consistent_with_protocols() {
        assert!(ProtocolSpec::BestOfThree.name().contains("best-of-3"));
        assert!(ProtocolSpec::Voter.name().contains("voter"));
        assert!(ProtocolSpec::BestOfK {
            k: 5,
            tie_rule: TieRule::KeepOwn
        }
        .name()
        .contains("best-of-5"));
    }

    #[test]
    fn spec_name_matches_the_built_protocol_name_for_every_variant() {
        // `ProtocolSpec::name` is computed without building the protocol;
        // this pins it to `Protocol::name` across every variant and tie
        // rule so the two spellings cannot drift.
        let mut specs = ProtocolSpec::comparison_set();
        specs.extend([
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::BestOfK {
                k: 1,
                tie_rule: TieRule::KeepOwn,
            },
            ProtocolSpec::BestOfK {
                k: 4,
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::BestOfK {
                k: 9,
                tie_rule: TieRule::KeepOwn,
            },
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::Random,
            },
        ]);
        for spec in specs {
            assert_eq!(spec.name(), spec.build().name(), "{spec:?}");
        }
    }

    #[test]
    fn spec_kind_matches_the_built_protocol_kind() {
        // `ProtocolSpec::kind` and `Protocol::kind` express the same mapping
        // twice; this pins them together so they cannot drift when a
        // protocol is added.
        let mut specs = ProtocolSpec::comparison_set();
        specs.extend([
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::BestOfK {
                k: 4,
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::Random,
            },
        ]);
        for spec in specs {
            assert_eq!(spec.build().kind(), Some(spec.kind()), "{spec:?}");
        }
    }

    #[test]
    fn comparison_set_contains_the_paper_protocol_and_baselines() {
        let set = ProtocolSpec::comparison_set();
        assert_eq!(set.len(), 5);
        assert!(set.contains(&ProtocolSpec::BestOfThree));
        assert!(set.contains(&ProtocolSpec::Voter));
    }
}
