//! Composable adversaries: zealots, Byzantine reporters, message drop and
//! block partitions layered over the engine's update step.
//!
//! The paper's guarantees assume every vertex is honest and every sampled
//! neighbour answers.  This module asks what happens when they don't, in
//! the shape of the distributed-voting fault literature (cf. Cooper–
//! Elsässer–Radzik on two-choice voting with adversarial vertices):
//!
//! * **Zealots** ([`AdversarySpec::Zealots`] / [`AdversarySpec::ZealotIds`])
//!   — a deterministic vertex set that never updates.  Zealots keep the
//!   opinion the initial condition gave them, consume no RNG draws, and are
//!   still sampled (honestly) by everyone else.
//! * **Byzantine reporters** ([`AdversarySpec::Byzantine`]) — vertices whose
//!   opinion reads *inverted* whenever another vertex samples them.  Their
//!   own stored opinion, their own updates and their own self-reads are
//!   honest; only outbound reports lie.
//! * **Message drop** ([`AdversarySpec::Drop`]) — every neighbour sample is
//!   independently lost with probability `q`; a lost sample falls back to
//!   the reader's **own current opinion** (the reader counts itself where
//!   the absent answer would have gone).
//! * **Block partitions** ([`AdversarySpec::Partition`]) — for rounds
//!   `[from_round, until_round)` every *inter-block* message is severed and
//!   treated exactly like a dropped sample (self-opinion fallback); at
//!   `until_round` the partition heals and messages flow again.  This is
//!   the `set_drop_rate` / `partition_network` / `heal_partitions` shape of
//!   simulation engines for distributed consensus, expressed as data.
//!
//! # Routing
//!
//! The adversary is a neighbour source of the kernels' per-vertex update
//! ([`crate::kernel`]), which the engine wraps around the sampler over the
//! topology's concrete family, per work unit, on either schedule.  Zealots
//! keep their opinion (synchronous) or are skipped (asynchronous), drawing
//! nothing.  Every other read — a sample from the kernel stream, drawn as
//! the honest sampler draws it, or a local-majority row entry — takes one
//! drop coin (only when `q > 0`), then the partition check, then Byzantine
//! inversion.  The drop tally is flushed once per unit.  The draw-ahead
//! lane and the CSR gather never run under an adversary.
//!
//! # Partition semantics on hash-defined edges
//!
//! A partition does **not** rewrite the topology — on an implicit,
//! hash-defined family ([`bo3_graph::ImplicitSbm`], [`bo3_graph::ImplicitGnp`])
//! there is no edge list to cut, and resampling "within the block" would
//! both reweight the neighbour distribution and change the RNG stream
//! length.  Instead the edge is severed at the *message* layer: the sampled
//! neighbour is drawn exactly as in the honest run, and if it lands in a
//! different block while the partition is active, the answer is lost
//! (self-opinion fallback, counted in
//! [`AdversaryCounters::dropped_samples`]).  Blocks are the `blocks`
//! contiguous, equal-length ranges of the vertex id space — on
//! [`bo3_graph::ImplicitSbm`] vertices are numbered block by block, so a
//! partition with the SBM's own block count severs exactly the `p_out`
//! edges.
//!
//! # RNG-stream contract
//!
//! Adversarial randomness never touches the kernel streams.  The engine's
//! per-round update draws (neighbour samples, tie coins) come from the same
//! `(master_seed, round, chunk)` streams as the honest run — see
//! [`crate::kernel::kernel_chunk_rng`] — while the adversary draws its drop
//! coins from its **own** stream per work unit,
//! `(master_seed ⊕ stream_seed ⊕ `[`ADVERSARY_STREAM_SALT`]`, round, chunk)`,
//! one `u64` per neighbour sample whenever `q > 0` (and none at `q = 0`).
//! Zealot and Byzantine membership is not random at run time at all: a
//! fractional set is the deterministic hash-threshold set
//! `{v : h(seed, v) < fraction·2⁶⁴}` — seed-derived, so it exists on
//! implicit graphs without materialising anything.  Consequences:
//!
//! * adversarial runs are **seq == parallel bit-identical**: both the
//!   kernel stream and the adversary stream are pure functions of
//!   `(seed, round, chunk)`, independent of which thread runs the chunk;
//! * a zero-strength adversary (`Zealots { fraction: 0.0 }`,
//!   `Drop { q: 0.0 }`, an empty byzantine set, a healed partition) is
//!   **bit-identical to the unwrapped engine**: the membership sets are
//!   empty, `q = 0` draws no coins, and the kernel stream is consumed
//!   sample-for-sample as in the honest kernels;
//! * with **no adversary configured no adversarial code runs**: the
//!   engine hands the kernels the honest sampler, lane or gather, so the
//!   pinned determinism and kernel-equivalence goldens cannot move.
//!
//! Under the asynchronous schedule the adversary stream for round `t` is
//! the single `(…, t, `[`crate::engine::ASYNC_ROUND_CHUNK`]`)` stream,
//! mirroring the kernel stream's layout (asynchronous rounds are sequential
//! by definition — see [`crate::schedule`]).
//!
//! ```
//! use bo3_dynamics::prelude::*;
//! use bo3_graph::Complete;
//!
//! let n = 2_000;
//! let adversary = Adversary::build(
//!     &[
//!         AdversarySpec::Zealots { fraction: 0.05 },
//!         AdversarySpec::Drop { q: 0.1 },
//!     ],
//!     n,
//!     7,
//! )
//! .unwrap();
//! let engine = Engine::new(Complete::new(n).unwrap())
//!     .unwrap()
//!     .with_stopping(StoppingCondition::fixed_rounds(8))
//!     .with_adversary(adversary);
//! let result = engine
//!     .run_seeded_kind(ProtocolKind::BestOfThree, Configuration::all_red(n), 42)
//!     .unwrap();
//! let counters = result.adversary.unwrap();
//! assert!(counters.zealots > 0);
//! assert!(counters.dropped_samples > 0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use rand::RngCore;

use bo3_graph::Topology;

use crate::error::{DynamicsError, Result};
use crate::kernel::{kernel_chunk_rng, KernelRng, PackedSnapshot, Source};

/// Salt separating the adversary's drop-coin streams from the kernel
/// streams — see the module docs for the full RNG-stream contract.
pub const ADVERSARY_STREAM_SALT: u64 = 0xAD5E_12A1_7B01_5EED;

/// Salt separating the zealot membership hash from the Byzantine one, so
/// the two fractional sets drawn from one adversary seed are independent.
const ZEALOT_MEMBER_SALT: u64 = 0x5EA1_0751_1DEA_D007;

/// See [`ZEALOT_MEMBER_SALT`].
const BYZANTINE_MEMBER_SALT: u64 = 0xB12A_4711_FA11_E12E;

/// One serialisable adversarial mechanism.  A scenario composes a **list**
/// of these (see [`Adversary::build`]); each variant is independent and
/// they stack — e.g. zealots plus message drop.
#[derive(Debug, Clone, PartialEq)]
pub enum AdversarySpec {
    /// A seed-derived hash-threshold set of vertices (expected size
    /// `fraction · n`) that never updates.
    Zealots {
        /// Expected fraction of zealot vertices, in `[0, 1]`.
        fraction: f64,
    },
    /// An explicit list of zealot vertex ids (for scripted scenarios where
    /// *which* vertices hold out matters, e.g. a frozen-blue prefix).
    ZealotIds {
        /// The zealot vertex ids (must be `< n`; duplicates are harmless).
        vertices: Vec<usize>,
    },
    /// A seed-derived hash-threshold set of vertices whose opinion reads
    /// inverted when sampled by others.
    Byzantine {
        /// Expected fraction of Byzantine vertices, in `[0, 1]`.
        fraction: f64,
    },
    /// Independent per-sample message loss with self-opinion fallback.
    Drop {
        /// Probability that any one neighbour sample is dropped, in `[0, 1]`.
        q: f64,
    },
    /// Sever inter-block messages for rounds `[from_round, until_round)`,
    /// then heal — see the module docs for the semantics on hash-defined
    /// edges.
    Partition {
        /// First round (0-based) the partition is active.
        from_round: u64,
        /// First round the partition is healed again (exclusive bound).
        until_round: u64,
        /// Number of contiguous, equal-length vertex blocks (`≥ 2`).
        blocks: usize,
    },
}

impl AdversarySpec {
    /// Checks the variant's own parameter constraints (membership fractions
    /// and drop probabilities in `[0, 1]`, non-empty partition windows with
    /// at least two blocks).  Vertex-id bounds are checked against `n` by
    /// [`Adversary::build`].
    pub fn validate(&self) -> Result<()> {
        let bad = |reason: String| Err(DynamicsError::InvalidParameter { reason });
        match *self {
            AdversarySpec::Zealots { fraction } | AdversarySpec::Byzantine { fraction } => {
                if !(0.0..=1.0).contains(&fraction) {
                    return bad(format!(
                        "adversary membership fraction must be in [0, 1], got {fraction}"
                    ));
                }
            }
            AdversarySpec::ZealotIds { .. } => {}
            AdversarySpec::Drop { q } => {
                if !(0.0..=1.0).contains(&q) {
                    return bad(format!("drop probability must be in [0, 1], got {q}"));
                }
            }
            AdversarySpec::Partition {
                from_round,
                until_round,
                blocks,
            } => {
                if from_round >= until_round {
                    return bad(format!(
                        "partition window [{from_round}, {until_round}) is empty"
                    ));
                }
                if blocks < 2 {
                    return bad(format!("partition needs at least 2 blocks, got {blocks}"));
                }
            }
        }
        Ok(())
    }

    /// Short label for reports, mirroring the registry spellings.
    pub fn label(&self) -> String {
        match self {
            AdversarySpec::Zealots { fraction } => format!("zealots:{fraction}"),
            AdversarySpec::ZealotIds { vertices } => format!("zealot-ids:{}", vertices.len()),
            AdversarySpec::Byzantine { fraction } => format!("byzantine:{fraction}"),
            AdversarySpec::Drop { q } => format!("drop:{q}"),
            AdversarySpec::Partition {
                from_round,
                until_round,
                ..
            } => format!("partition:{from_round}:{until_round}"),
        }
    }
}

/// Typed counters describing what the adversary actually did during a run —
/// surfaced on [`crate::engine::RunResult`] and aggregated across replicas
/// by the Monte-Carlo layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryCounters {
    /// Number of zealot vertices (exact size of the frozen set).
    pub zealots: usize,
    /// Number of Byzantine reporter vertices.
    pub byzantine: usize,
    /// Neighbour samples lost to message drop **or** an active partition
    /// (each fell back to the reader's own opinion).
    pub dropped_samples: u64,
    /// Number of executed rounds during which a partition was active.
    pub partition_rounds: u64,
}

impl AdversaryCounters {
    /// Merges another replica's counters into this one: membership sizes
    /// are per-run constants (kept via `max`), event counts accumulate.
    pub fn merge(&mut self, other: &AdversaryCounters) {
        self.zealots = self.zealots.max(other.zealots);
        self.byzantine = self.byzantine.max(other.byzantine);
        self.dropped_samples += other.dropped_samples;
        self.partition_rounds += other.partition_rounds;
    }
}

/// SplitMix64 finaliser over `(salt, v)` — the deterministic membership
/// hash behind fractional zealot/Byzantine sets.
#[inline]
fn member_hash(salt: u64, v: usize) -> u64 {
    let mut z = salt ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a probability to the `u64`-draw acceptance threshold, exactly like
/// the graph crate's hash-defined edge tests: accept iff `draw < p · 2⁶⁴`.
#[inline]
fn probability_threshold(p: f64) -> u128 {
    ((p * (u64::MAX as f64 + 1.0)) as u128).min(1u128 << 64)
}

/// A deterministic vertex set: a hash-threshold family, an explicit bitset,
/// or the union of both (when fractional and id-list specs compose).
#[derive(Debug, Clone, Default)]
struct VertexSet {
    salt: u64,
    threshold: u128,
    explicit: Option<Vec<u64>>,
    count: usize,
}

impl VertexSet {
    fn build(n: usize, salt: u64, fraction: f64, ids: &[usize]) -> Result<VertexSet> {
        let explicit = if ids.is_empty() {
            None
        } else {
            let mut words = vec![0u64; n.div_ceil(64)];
            for &v in ids {
                if v >= n {
                    return Err(DynamicsError::InvalidParameter {
                        reason: format!("zealot id {v} out of range for n = {n}"),
                    });
                }
                words[v >> 6] |= 1u64 << (v & 63);
            }
            Some(words)
        };
        let mut set = VertexSet {
            salt,
            threshold: probability_threshold(fraction),
            explicit,
            count: 0,
        };
        set.count = if set.threshold == 0 {
            set.explicit
                .as_ref()
                .map_or(0, |w| w.iter().map(|x| x.count_ones() as usize).sum())
        } else {
            (0..n).filter(|&v| set.contains(v)).count()
        };
        Ok(set)
    }

    #[inline]
    fn contains(&self, v: usize) -> bool {
        (self.threshold != 0 && (member_hash(self.salt, v) as u128) < self.threshold)
            || self
                .explicit
                .as_ref()
                .is_some_and(|w| (w[v >> 6] >> (v & 63)) & 1 == 1)
    }
}

/// One partition window: rounds `[from, until)` with `block_size`-wide
/// contiguous vertex blocks.
#[derive(Debug, Clone, Copy)]
struct PartitionWindow {
    from: u64,
    until: u64,
    block_size: usize,
}

impl PartitionWindow {
    #[inline]
    fn active(&self, round: u64) -> bool {
        round >= self.from && round < self.until
    }

    #[inline]
    fn severs(&self, round: u64, u: usize, w: usize) -> bool {
        self.active(round) && u / self.block_size != w / self.block_size
    }
}

/// The runtime adversary: a compiled, topology-sized composition of
/// [`AdversarySpec`]s, attached to an engine via
/// [`crate::engine::Engine::with_adversary`].
///
/// Membership sets are fixed at build time from `seed` (the *membership
/// seed*); drop coins come from per-`(round, chunk)` streams derived from
/// the *stream seed* (defaults to `seed`, override with
/// [`Adversary::with_stream_seed`] to vary coins across replicas while the
/// corrupted vertex set stays put).  See the module docs for the full
/// RNG-stream contract.
#[derive(Debug, Clone)]
pub struct Adversary {
    n: usize,
    stream_seed: u64,
    zealots: VertexSet,
    byzantine: VertexSet,
    drop_threshold: u128,
    partitions: Vec<PartitionWindow>,
}

impl Adversary {
    /// Compiles a list of specs against an `n`-vertex topology.  Multiple
    /// specs of the same mechanism compose: fractional sets take the
    /// largest fraction, id lists union, drop probabilities combine as
    /// independent losses (`1 − ∏(1 − qᵢ)`), and partition windows all
    /// apply.  Fails with a typed error on out-of-range parameters.
    pub fn build(specs: &[AdversarySpec], n: usize, seed: u64) -> Result<Adversary> {
        if n == 0 {
            return Err(DynamicsError::InvalidParameter {
                reason: "adversary needs a non-empty topology".into(),
            });
        }
        let mut zealot_fraction = 0.0f64;
        let mut zealot_ids: Vec<usize> = Vec::new();
        let mut byzantine_fraction = 0.0f64;
        let mut keep = 1.0f64;
        let mut partitions = Vec::new();
        for spec in specs {
            spec.validate()?;
            match spec {
                AdversarySpec::Zealots { fraction } => {
                    zealot_fraction = zealot_fraction.max(*fraction);
                }
                AdversarySpec::ZealotIds { vertices } => zealot_ids.extend(vertices),
                AdversarySpec::Byzantine { fraction } => {
                    byzantine_fraction = byzantine_fraction.max(*fraction);
                }
                AdversarySpec::Drop { q } => keep *= 1.0 - q,
                AdversarySpec::Partition {
                    from_round,
                    until_round,
                    blocks,
                } => partitions.push(PartitionWindow {
                    from: *from_round,
                    until: *until_round,
                    block_size: n.div_ceil(*blocks),
                }),
            }
        }
        Ok(Adversary {
            n,
            stream_seed: seed,
            zealots: VertexSet::build(n, seed ^ ZEALOT_MEMBER_SALT, zealot_fraction, &zealot_ids)?,
            byzantine: VertexSet::build(n, seed ^ BYZANTINE_MEMBER_SALT, byzantine_fraction, &[])?,
            drop_threshold: probability_threshold(1.0 - keep),
            partitions,
        })
    }

    /// Replaces the stream seed feeding the drop-coin streams, leaving the
    /// seed-derived membership sets untouched.
    pub fn with_stream_seed(mut self, stream_seed: u64) -> Self {
        self.stream_seed = stream_seed;
        self
    }

    /// Number of vertices this adversary was compiled for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` when vertex `v` is a zealot (never updates).
    #[inline]
    pub fn is_zealot(&self, v: usize) -> bool {
        self.zealots.contains(v)
    }

    /// `true` when vertex `v` reports its opinion inverted.
    #[inline]
    pub fn is_byzantine(&self, v: usize) -> bool {
        self.byzantine.contains(v)
    }

    /// Exact size of the zealot set.
    pub fn zealot_count(&self) -> usize {
        self.zealots.count
    }

    /// Exact size of the Byzantine set.
    pub fn byzantine_count(&self) -> usize {
        self.byzantine.count
    }

    /// `true` when some partition window is active in `round`.
    pub fn partition_active(&self, round: u64) -> bool {
        self.partitions.iter().any(|p| p.active(round))
    }

    /// Folds a finished run's tallies into typed counters.  Partition
    /// rounds are counted round by round, so overlapping windows count a
    /// round once (one pass over the executed rounds, each of which cost
    /// the run a whole sweep).
    pub(crate) fn counters(&self, rounds: usize, dropped_samples: u64) -> AdversaryCounters {
        let executed = 0..rounds as u64;
        AdversaryCounters {
            zealots: self.zealot_count(),
            byzantine: self.byzantine_count(),
            dropped_samples,
            partition_rounds: executed.filter(|&r| self.partition_active(r)).count() as u64,
        }
    }

    /// One drop coin: draws exactly one `u64` from the adversary stream
    /// when `q > 0`, and nothing at all when `q = 0`.
    #[inline(always)]
    fn sample_dropped<A: RngCore + ?Sized>(&self, adv_rng: &mut A) -> bool {
        self.drop_threshold != 0 && (adv_rng.next_u64() as u128) < self.drop_threshold
    }

    /// `true` when an active partition severs the `u → w` message.
    #[inline(always)]
    fn severed(&self, round: u64, u: usize, w: usize) -> bool {
        self.partitions.iter().any(|p| p.severs(round, u, w))
    }
}

/// The adversary as a neighbour source over the sampler of a concrete
/// family: zealots keep their opinion and draw nothing, and every other
/// read — sampled from the kernel stream exactly as the honest sampler
/// draws it, or one entry of a local-majority row walk — goes through
/// [`Reads::read`].
pub(crate) struct Adversarial<'a, F> {
    family: F,
    reads: Reads<'a>,
}

/// The adversary's state over one work unit: its own drop-coin stream and
/// the unit's drop tally, flushed once, at the unit's end
/// ([`Adversarial::flush`]).
struct Reads<'a> {
    adv: &'a Adversary,
    round: u64,
    adv_rng: KernelRng,
    dropped: u64,
}

impl Reads<'_> {
    /// The colour `v` counts for its read of neighbour `w`: one drop coin
    /// (only when `q > 0`), then the partition check — a lost read falls
    /// back to `v`'s own opinion — then Byzantine inversion.
    #[inline(always)]
    fn read(&mut self, snap: &PackedSnapshot, v: usize, w: usize) -> bool {
        if self.adv.sample_dropped(&mut self.adv_rng) || self.adv.severed(self.round, v, w) {
            self.dropped += 1;
            return snap.is_blue(v);
        }
        snap.is_blue(w) ^ self.adv.is_byzantine(w)
    }
}

impl<'a, F: Topology> Adversarial<'a, F> {
    /// The source for one work unit of `round`, whose drop coins come from
    /// the `(seed, round, chunk)` adversary stream — disjoint from the
    /// kernel streams by [`ADVERSARY_STREAM_SALT`].
    pub(crate) fn new(
        adv: &'a Adversary,
        family: F,
        round: u64,
        (seed, chunk): (u64, u64),
    ) -> Self {
        let seed = seed ^ adv.stream_seed ^ ADVERSARY_STREAM_SALT;
        let (adv_rng, dropped) = (kernel_chunk_rng(seed, round, chunk), 0);
        let reads = Reads {
            adv,
            round,
            adv_rng,
            dropped,
        };
        Adversarial { family, reads }
    }

    /// Adds the unit's drop tally to the run's.
    pub(crate) fn flush(self, total: &AtomicU64) {
        if self.reads.dropped > 0 {
            total.fetch_add(self.reads.dropped, Ordering::Relaxed);
        }
    }
}

impl<F: Topology> Source for Adversarial<'_, F> {
    #[inline(always)]
    fn updates(&self, v: usize) -> bool {
        !self.reads.adv.is_zealot(v)
    }

    #[inline(always)]
    fn sampled_blues<R: RngCore + ?Sized>(
        &mut self,
        snap: &PackedSnapshot,
        v: usize,
        k: usize,
        rng: &mut R,
    ) -> usize {
        let mut blues = 0usize;
        for _ in 0..k {
            let w = self.family.sample_neighbour(v, rng);
            blues += self.reads.read(snap, v, w) as usize;
        }
        blues
    }

    fn row_blues(&mut self, snap: &PackedSnapshot, _: usize, v: usize) -> (usize, usize) {
        let (mut blues, mut reads) = (0usize, 0usize);
        self.family.for_each_neighbour(v, |w| {
            reads += 1;
            blues += self.reads.read(snap, v, w) as usize;
        });
        (blues, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_zealots(f: f64) -> AdversarySpec {
        AdversarySpec::Zealots { fraction: f }
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        for bad in [
            spec_zealots(-0.1),
            spec_zealots(1.5),
            AdversarySpec::Byzantine { fraction: 2.0 },
            AdversarySpec::Drop { q: -0.01 },
            AdversarySpec::Drop { q: 1.01 },
            AdversarySpec::Partition {
                from_round: 5,
                until_round: 5,
                blocks: 2,
            },
            AdversarySpec::Partition {
                from_round: 0,
                until_round: 4,
                blocks: 1,
            },
        ] {
            assert!(
                Adversary::build(std::slice::from_ref(&bad), 100, 0).is_err(),
                "{bad:?} should fail"
            );
        }
        assert!(Adversary::build(
            &[AdversarySpec::ZealotIds {
                vertices: vec![100]
            }],
            100,
            0
        )
        .is_err());
        assert!(Adversary::build(&[], 0, 0).is_err());
    }

    #[test]
    fn fractional_membership_is_seed_derived_and_roughly_sized() {
        let n = 100_000;
        let adv = Adversary::build(&[spec_zealots(0.1)], n, 42).unwrap();
        let expected = n as f64 * 0.1;
        assert!(
            (adv.zealot_count() as f64 - expected).abs() < expected * 0.1,
            "zealot count {} far from {expected}",
            adv.zealot_count()
        );
        // Deterministic in the seed…
        let again = Adversary::build(&[spec_zealots(0.1)], n, 42).unwrap();
        assert_eq!(
            (0..n).filter(|&v| adv.is_zealot(v)).count(),
            (0..n).filter(|&v| again.is_zealot(v)).count()
        );
        assert!((0..n).all(|v| adv.is_zealot(v) == again.is_zealot(v)));
        // …and different seeds give different sets.
        let other = Adversary::build(&[spec_zealots(0.1)], n, 43).unwrap();
        assert!((0..n).any(|v| adv.is_zealot(v) != other.is_zealot(v)));
    }

    #[test]
    fn zero_strength_sets_are_empty_and_draw_no_coins() {
        let adv = Adversary::build(
            &[spec_zealots(0.0), AdversarySpec::Drop { q: 0.0 }],
            10_000,
            7,
        )
        .unwrap();
        assert_eq!(adv.zealot_count(), 0);
        assert_eq!(adv.byzantine_count(), 0);
        assert!(!(0..10_000).any(|v| adv.is_zealot(v) || adv.is_byzantine(v)));
        // q = 0 must not consume the adversary stream.
        struct Panicking;
        impl RngCore for Panicking {
            fn next_u32(&mut self) -> u32 {
                panic!("drop coin drawn at q = 0")
            }
            fn next_u64(&mut self) -> u64 {
                panic!("drop coin drawn at q = 0")
            }
            fn fill_bytes(&mut self, _: &mut [u8]) {
                panic!()
            }
        }
        assert!(!adv.sample_dropped(&mut Panicking));
    }

    #[test]
    fn explicit_ids_union_with_fractions() {
        let n = 1_000;
        let adv = Adversary::build(
            &[
                AdversarySpec::ZealotIds {
                    vertices: vec![1, 3, 3, 5],
                },
                spec_zealots(0.0),
            ],
            n,
            0,
        )
        .unwrap();
        assert_eq!(adv.zealot_count(), 3);
        assert!(adv.is_zealot(1) && adv.is_zealot(3) && adv.is_zealot(5));
        assert!(!adv.is_zealot(0) && !adv.is_zealot(2));
    }

    #[test]
    fn drop_probabilities_compose_independently() {
        let a = Adversary::build(&[AdversarySpec::Drop { q: 1.0 }], 10, 0).unwrap();
        let mut rng = kernel_chunk_rng(1, 2, 3);
        assert!(a.sample_dropped(&mut rng));
        let b = Adversary::build(
            &[
                AdversarySpec::Drop { q: 0.5 },
                AdversarySpec::Drop { q: 0.5 },
            ],
            10,
            0,
        )
        .unwrap();
        assert_eq!(b.drop_threshold, probability_threshold(0.75));
    }

    #[test]
    fn partition_windows_sever_only_cross_block_while_active() {
        let n = 100;
        let adv = Adversary::build(
            &[AdversarySpec::Partition {
                from_round: 2,
                until_round: 5,
                blocks: 2,
            }],
            n,
            0,
        )
        .unwrap();
        assert!(!adv.partition_active(1));
        assert!(adv.partition_active(2));
        assert!(adv.partition_active(4));
        assert!(!adv.partition_active(5));
        // Blocks are [0, 50) and [50, 100).
        assert!(adv.severed(3, 10, 60));
        assert!(adv.severed(3, 60, 10));
        assert!(!adv.severed(3, 10, 40));
        assert!(!adv.severed(1, 10, 60));
        assert!(!adv.severed(5, 10, 60));
    }

    #[test]
    fn counters_clamp_partition_rounds_to_executed_rounds() {
        let adv = Adversary::build(
            &[AdversarySpec::Partition {
                from_round: 2,
                until_round: 10,
                blocks: 2,
            }],
            100,
            0,
        )
        .unwrap();
        assert_eq!(adv.counters(1, 0).partition_rounds, 0);
        assert_eq!(adv.counters(4, 0).partition_rounds, 2);
        assert_eq!(adv.counters(50, 9).partition_rounds, 8);
        assert_eq!(adv.counters(50, 9).dropped_samples, 9);
        // Overlapping windows count each partitioned round once.
        let window = |from_round, until_round| AdversarySpec::Partition {
            from_round,
            until_round,
            blocks: 2,
        };
        let overlapping = Adversary::build(&[window(2, 10), window(5, 15)], 100, 0).unwrap();
        assert_eq!(overlapping.counters(50, 0).partition_rounds, 13);
        assert_eq!(overlapping.counters(8, 0).partition_rounds, 6);
    }

    #[test]
    fn counters_merge_accumulates_events_and_keeps_membership() {
        let mut a = AdversaryCounters {
            zealots: 10,
            byzantine: 4,
            dropped_samples: 100,
            partition_rounds: 3,
        };
        a.merge(&AdversaryCounters {
            zealots: 10,
            byzantine: 4,
            dropped_samples: 50,
            partition_rounds: 2,
        });
        assert_eq!(a.zealots, 10);
        assert_eq!(a.byzantine, 4);
        assert_eq!(a.dropped_samples, 150);
        assert_eq!(a.partition_rounds, 5);
    }

    #[test]
    fn labels_mirror_registry_spellings() {
        assert_eq!(spec_zealots(0.05).label(), "zealots:0.05");
        assert_eq!(
            AdversarySpec::Byzantine { fraction: 0.1 }.label(),
            "byzantine:0.1"
        );
        assert_eq!(AdversarySpec::Drop { q: 0.2 }.label(), "drop:0.2");
        assert_eq!(
            AdversarySpec::Partition {
                from_round: 3,
                until_round: 9,
                blocks: 2
            }
            .label(),
            "partition:3:9"
        );
        assert_eq!(
            AdversarySpec::ZealotIds {
                vertices: vec![1, 2]
            }
            .label(),
            "zealot-ids:2"
        );
    }
}
