//! Voting protocols: the paper's Best-of-Three and the baselines it is
//! compared against in the introduction.
//!
//! | Protocol | Paper reference | Behaviour |
//! |---|---|---|
//! | [`Voter`] (Best-of-1) | §1 | copy one random neighbour |
//! | [`BestOfTwo`] | \[4], \[8] | two samples; tie → keep own / random |
//! | [`BestOfThree`] | this paper | three samples; strict majority |
//! | [`BestOfK`] | \[1], \[2] | `k` samples with either tie rule |
//! | [`LocalMajority`] | classic deterministic baseline | full-neighbourhood majority |
//!
//! All protocols implement [`Protocol`], which is object-safe so the
//! experiment registry in `bo3-core` can hold them behind `Box<dyn Protocol>`.
//! An update reads its [`UpdateContext`]: the previous round's state as the
//! engine holds it, a [`PackedSnapshot`] (one bit per vertex), whose
//! [`PackedSnapshot::is_blue`] answers `ξ_t(w)`, and the materialised
//! [`CsrGraph`] whose rows it samples.

mod best_of_k;
mod best_of_three;
mod best_of_two;
mod local_majority;
mod voter;

pub use best_of_k::BestOfK;
pub use best_of_three::BestOfThree;
pub use best_of_two::BestOfTwo;
pub use local_majority::LocalMajority;
pub use voter::Voter;

use rand::RngCore;

use bo3_graph::{CsrGraph, VertexId};

use crate::kernel::{PackedSnapshot, ProtocolKind};
use crate::opinion::Opinion;

/// How a protocol resolves a tied sample (only relevant for even sample sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieRule {
    /// Keep the vertex's current opinion.
    KeepOwn,
    /// Adopt a uniformly random opinion among the tied ones.
    Random,
}

/// Everything a protocol may look at when updating one vertex.
pub struct UpdateContext<'a> {
    /// The vertex being updated.
    pub vertex: VertexId,
    /// The vertex's opinion in the previous round.
    pub current: Opinion,
    /// The previous round's state `ξ_t`, packed.
    pub previous: &'a PackedSnapshot,
    /// The materialised graph: the protocol reads `vertex`'s row of it.
    pub graph: &'a CsrGraph,
}

/// A synchronous-update voting protocol.
///
/// The engine calls [`Protocol::update`] once per vertex per round; the
/// returned opinion becomes `ξ_{t+1}(v)`.  Implementations must only read
/// `ctx.previous` (the snapshot of round `t`), which is what makes the
/// update synchronous.
pub trait Protocol: Send + Sync {
    /// Human-readable protocol name (used in reports and bench ids).
    fn name(&self) -> String;

    /// Number of neighbour samples drawn per update (0 for protocols that
    /// read the whole neighbourhood).
    fn sample_size(&self) -> usize;

    /// Computes the next opinion of `ctx.vertex`.
    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion;

    /// The built-in kernel this protocol monomorphizes to, if any.
    ///
    /// Protocols returning `Some` are routed through the static-dispatch
    /// kernels in [`crate::kernel`] by both engines; the default `None`
    /// keeps custom registry protocols on the generic `dyn` path.  An
    /// override must match [`Protocol::update`] draw-for-draw (same stream,
    /// same result) — the kernel-equivalence suite pins this.
    fn kind(&self) -> Option<ProtocolKind> {
        None
    }
}

/// Helper shared by the sampling protocols: counts blue among `k` uniform
/// with-replacement samples of `v`'s neighbours.
pub(crate) fn count_blue_samples(
    ctx: &UpdateContext<'_>,
    k: usize,
    rng: &mut dyn RngCore,
) -> usize {
    use rand::Rng;
    // The row (and with it the degree) is hoisted out of the k-sample loop;
    // each sample is one `gen_range` draw plus one slice read.  The draw
    // sequence must stay bit-identical to the kernels in [`crate::kernel`].
    let row = ctx.graph.neighbours(ctx.vertex);
    let mut blues = 0usize;
    let r = rng;
    for _ in 0..k {
        let w = row[r.gen_range(0..row.len())] as usize;
        blues += usize::from(ctx.previous.is_blue(w));
    }
    blues
}

/// Resolves a sample of size `k` with `blues` blue votes under the given tie
/// rule. Exposed for reuse by the protocols and directly tested.
pub(crate) fn resolve_majority<R: RngCore + ?Sized>(
    blues: usize,
    k: usize,
    current: Opinion,
    tie_rule: TieRule,
    rng: &mut R,
) -> Opinion {
    use rand::Rng;
    let reds = k - blues;
    match blues.cmp(&reds) {
        std::cmp::Ordering::Greater => Opinion::Blue,
        std::cmp::Ordering::Less => Opinion::Red,
        std::cmp::Ordering::Equal => match tie_rule {
            TieRule::KeepOwn => current,
            TieRule::Random => {
                let r = rng;
                if r.gen::<bool>() {
                    Opinion::Blue
                } else {
                    Opinion::Red
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn resolve_majority_without_ties() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            resolve_majority(3, 3, Opinion::Red, TieRule::KeepOwn, &mut rng),
            Opinion::Blue
        );
        assert_eq!(
            resolve_majority(0, 3, Opinion::Blue, TieRule::KeepOwn, &mut rng),
            Opinion::Red
        );
        assert_eq!(
            resolve_majority(2, 5, Opinion::Blue, TieRule::Random, &mut rng),
            Opinion::Red
        );
    }

    #[test]
    fn resolve_majority_tie_keep_own() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            resolve_majority(1, 2, Opinion::Red, TieRule::KeepOwn, &mut rng),
            Opinion::Red
        );
        assert_eq!(
            resolve_majority(1, 2, Opinion::Blue, TieRule::KeepOwn, &mut rng),
            Opinion::Blue
        );
    }

    #[test]
    fn resolve_majority_tie_random_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut blue = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if resolve_majority(2, 4, Opinion::Red, TieRule::Random, &mut rng).is_blue() {
                blue += 1;
            }
        }
        let frac = blue as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.03, "blue fraction on ties {frac}");
    }

    #[test]
    fn count_blue_samples_matches_neighbourhood_composition() {
        // Star centre: all its neighbours are leaves. Colour all leaves blue.
        let g = generators::star(10).unwrap();
        let opinions = vec![Opinion::Red]
            .into_iter()
            .chain(std::iter::repeat_n(Opinion::Blue, 9))
            .collect::<Vec<_>>();
        let previous = PackedSnapshot::from_opinions(&opinions);
        let ctx = UpdateContext {
            vertex: 0,
            current: Opinion::Red,
            previous: &previous,
            graph: &g,
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(count_blue_samples(&ctx, 7, &mut rng), 7);

        // A leaf's only neighbour is the red centre.
        let ctx_leaf = UpdateContext {
            vertex: 3,
            current: Opinion::Blue,
            previous: &previous,
            graph: &g,
        };
        assert_eq!(count_blue_samples(&ctx_leaf, 5, &mut rng), 0);
    }
}
