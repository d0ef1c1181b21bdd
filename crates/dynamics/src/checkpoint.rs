//! Cancellable, checkpointable execution: [`RunBudget`], [`RunCheckpoint`]
//! and [`RunOutcome`].
//!
//! Long campaigns (hundreds of grid cells at `n = 10⁶`) must survive
//! interruption: a SIGTERM mid-round, a client's cancel, a crashed
//! process.  The engine's one run driver has *yield points* at every round
//! boundary: a seeded run executed under a [`RunBudget`]
//! ([`crate::engine::Engine::run_seeded_kind_budgeted`]) either completes,
//! or pauses and hands back a typed [`RunCheckpoint`] from which
//! [`crate::engine::Engine::resume`] continues **bit-identically** to an
//! uninterrupted run, at any thread count, on either schedule.  The budget
//! is an argument, not a separate entry point: under
//! [`RunBudget::unlimited`] a run — or a resume — goes to completion.
//!
//! # Why resume can be bit-identical
//!
//! The seeded engine derives every random draw from a pure function of
//! `(master_seed, round, chunk)` — synchronous rounds use one kernel stream
//! per chunk, asynchronous rounds one stream per round (chunk coordinate
//! [`crate::engine::ASYNC_ROUND_CHUNK`]).  No RNG *state* survives across
//! rounds, so a checkpoint needs only the `(seed, round)` coordinates plus
//! the opinion bits: round `r`'s streams are re-derived identically whether
//! or not the process restarted in between.  (The caller-RNG
//! [`crate::engine::Engine::run`] path is *not* checkpointable — its RNG
//! state lives in the caller.)
//!
//! # Checkpoint contents
//!
//! A [`RunCheckpoint`] captures everything the next round reads:
//!
//! * the opinion bits: a copy of the engine's run state, a
//!   [`crate::kernel::PackedSnapshot`], word for word,
//! * the round index (the next round to execute),
//! * the stop-state: the [`StoppingCondition`] under which the run started
//!   (stateless given the configuration and round, so nothing else is
//!   needed),
//! * the adversary's cross-round accumulator (`dropped_samples`; membership
//!   sets are re-derived from the adversary's own seeds),
//! * the `(seed, round, chunk)` RNG contract: just `master_seed` — streams
//!   are re-derived per round,
//! * the partial trace, when tracing was enabled.
//!
//! Capture is that word copy.  Resume takes the words back only if they
//! fit `n` with no bit past it, and a carried trace ends at the round with
//! their blue count: any other checkpoint is a typed error.
//!
//! The JSON encoding of a checkpoint (version 1) lives in
//! `bo3_core::campaign`, next to the atomic-write protocol that makes
//! on-disk checkpoints crash-safe.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::Result;
use crate::kernel::PackedSnapshot;
use crate::opinion::Opinion;
use crate::protocol::ProtocolSpec;
use crate::schedule::Schedule;
use crate::stopping::StoppingCondition;
use crate::trace::Trace;

/// Version of the [`RunCheckpoint`] layout (bumped on incompatible change;
/// the golden snapshot test in `bo3_core::campaign` pins the JSON form).
pub const RUN_CHECKPOINT_VERSION: u32 = 1;

/// How much work a single engine call may perform before yielding.
///
/// All limits are optional and combine disjunctively: the run pauses at
/// the next round boundary once *any* of them fires.  The default is
/// [`RunBudget::unlimited`], under which a run never pauses — it is what
/// the unbudgeted entry points drive with.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Pause after at most this many rounds in this call (`None` = no cap).
    /// A cap of `0` pauses immediately, capturing the pre-round state.
    pub max_rounds_per_slice: Option<usize>,
    /// Pause at the next round boundary once this flag is set — the hook a
    /// SIGINT/SIGTERM handler flips.
    pub cancel_flag: Option<Arc<AtomicBool>>,
    /// A second, independently owned cancellation source checked exactly
    /// like [`RunBudget::cancel_flag`].  A supervising daemon shares one
    /// drain flag across *every* in-flight budget while each job keeps its
    /// own `cancel_flag`, so a graceful shutdown (SIGTERM) pauses all work
    /// within one round slice without disturbing per-job cancellation.
    pub drain_flag: Option<Arc<AtomicBool>>,
}

impl RunBudget {
    /// No limits: budgeted runs complete exactly like unbudgeted ones.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Pause after at most `rounds` rounds per call.
    pub fn rounds_per_slice(rounds: usize) -> Self {
        RunBudget {
            max_rounds_per_slice: Some(rounds),
            ..RunBudget::default()
        }
    }

    /// Sets the cancellation flag (shared with e.g. a signal handler).
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel_flag = Some(flag);
        self
    }

    /// Sets the drain flag — a daemon-owned cancellation source layered
    /// *alongside* the per-run [`RunBudget::cancel_flag`], so one SIGTERM
    /// handler can interrupt every in-flight run at its next round boundary.
    pub fn with_drain_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.drain_flag = Some(flag);
        self
    }

    /// `true` once either cancellation flag is set — the *external*
    /// interruption sources (used by batch drivers to also yield at replica
    /// boundaries, where no round slice applies).
    pub fn interrupted(&self) -> bool {
        if let Some(flag) = &self.cancel_flag {
            if flag.load(Ordering::SeqCst) {
                return true;
            }
        }
        if let Some(flag) = &self.drain_flag {
            if flag.load(Ordering::SeqCst) {
                return true;
            }
        }
        false
    }

    /// `true` when a run that has executed `rounds_this_slice` rounds in the
    /// current call should pause at this round boundary.
    pub(crate) fn should_pause(&self, rounds_this_slice: usize) -> bool {
        if let Some(cap) = self.max_rounds_per_slice {
            if rounds_this_slice >= cap {
                return true;
            }
        }
        self.interrupted()
    }
}

/// A paused seeded run, serialisable and sufficient to continue
/// bit-identically — see the module docs for exactly why the `(seed, round)`
/// pair replaces any RNG state.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// Layout version ([`RUN_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The protocol being run (always a built-in kernel).
    pub protocol: ProtocolSpec,
    /// The update schedule (resume refuses a mismatching engine).
    pub schedule: Schedule,
    /// The stop-state: the stopping condition is stateless given
    /// `(configuration, round)`, so carrying the condition itself captures
    /// it completely.
    pub stopping: StoppingCondition,
    /// The master seed all round streams derive from.
    pub master_seed: u64,
    /// The next round to execute (rounds `0..round` are already applied to
    /// the opinion bits).
    pub round: usize,
    /// Number of vertices.
    pub n: usize,
    /// Packed opinion bits in [`crate::kernel::PackedSnapshot`] layout:
    /// vertex `v` is blue iff bit `v % 64` of word `v / 64` is set; bits at
    /// and beyond `n` are zero.
    pub opinion_words: Vec<u64>,
    /// Blue fraction of the run's round-0 configuration (carried so the
    /// final [`crate::engine::RunResult`] matches the uninterrupted run's).
    pub initial_blue_fraction: f64,
    /// The adversary's cross-round drop tally so far (`0` on honest runs);
    /// all other adversary state is re-derived from its seeds.
    pub dropped_samples: u64,
    /// The partial per-round trace, when tracing was enabled (`trace[r]`
    /// describes the configuration after round `r`).
    pub trace: Option<Trace>,
}

/// The outcome of a budgeted run: finished, or paused at a yield point.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The stopping condition fired; here is the full result.
    Completed(crate::engine::RunResult),
    /// The budget fired first; resume from this checkpoint (boxed — a
    /// checkpoint carries `n` bits of state).
    Paused(Box<RunCheckpoint>),
}

impl RunOutcome {
    /// The completed result, if the run finished.
    pub fn completed(self) -> Option<crate::engine::RunResult> {
        match self {
            RunOutcome::Completed(result) => Some(result),
            RunOutcome::Paused(_) => None,
        }
    }

    /// The checkpoint, if the run paused.
    pub fn paused(self) -> Option<RunCheckpoint> {
        match self {
            RunOutcome::Completed(_) => None,
            RunOutcome::Paused(checkpoint) => Some(*checkpoint),
        }
    }
}

/// Packs an opinion slice into the [`crate::kernel::PackedSnapshot`] bit
/// layout, the form [`RunCheckpoint::opinion_words`] stores.
pub fn pack_opinions(opinions: &[Opinion]) -> Vec<u64> {
    PackedSnapshot::from_opinions(opinions).words().to_vec()
}

/// Unpacks [`pack_opinions`] output, validating the word count and that no
/// bit at or beyond `n` is set.
pub fn unpack_opinions(words: &[u64], n: usize) -> Result<Vec<Opinion>> {
    Ok(PackedSnapshot::from_words(words.to_vec(), n)?
        .opinions()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips_at_awkward_lengths() {
        for n in [0usize, 1, 63, 64, 65, 127, 128, 130] {
            let opinions: Vec<Opinion> = (0..n)
                .map(|v| {
                    if v % 3 == 0 {
                        Opinion::Blue
                    } else {
                        Opinion::Red
                    }
                })
                .collect();
            let words = pack_opinions(&opinions);
            assert_eq!(words.len(), n.div_ceil(64));
            assert_eq!(unpack_opinions(&words, n).unwrap(), opinions, "n = {n}");
        }
    }

    #[test]
    fn unpack_rejects_wrong_word_count_and_stray_bits() {
        assert!(unpack_opinions(&[0, 0], 64).is_err());
        assert!(unpack_opinions(&[], 1).is_err());
        // Bit 10 set with n = 10: beyond the vertex range.
        assert!(unpack_opinions(&[1 << 10], 10).is_err());
        assert!(unpack_opinions(&[(1 << 10) - 1], 10).is_ok());
        // A whole last word has no bit past n.
        assert!(unpack_opinions(&[u64::MAX; 2], 128).is_ok());
    }

    #[test]
    fn unlimited_budget_never_pauses() {
        let budget = RunBudget::unlimited();
        assert!(!budget.should_pause(0));
        assert!(!budget.should_pause(usize::MAX));
        assert!(!budget.interrupted());
    }

    #[test]
    fn slice_budget_pauses_at_the_cap() {
        let budget = RunBudget::rounds_per_slice(3);
        assert!(!budget.should_pause(2));
        assert!(budget.should_pause(3));
        // A zero-round slice pauses before doing anything.
        assert!(RunBudget::rounds_per_slice(0).should_pause(0));
    }

    #[test]
    fn cancel_flag_interrupts() {
        let flag = Arc::new(AtomicBool::new(false));
        let budget = RunBudget::unlimited().with_cancel_flag(flag.clone());
        assert!(!budget.should_pause(10_000));
        flag.store(true, Ordering::SeqCst);
        assert!(budget.should_pause(0));
        assert!(budget.interrupted());
    }

    #[test]
    fn drain_flag_interrupts_independently_of_the_cancel_flag() {
        let cancel = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        let budget = RunBudget::unlimited()
            .with_cancel_flag(cancel.clone())
            .with_drain_flag(drain.clone());
        assert!(!budget.interrupted());
        // The daemon-owned drain flag fires with the per-job flag untouched.
        drain.store(true, Ordering::SeqCst);
        assert!(budget.interrupted());
        assert!(budget.should_pause(0));
        assert!(!cancel.load(Ordering::SeqCst));
        // And vice versa: the per-job flag alone still interrupts.
        drain.store(false, Ordering::SeqCst);
        cancel.store(true, Ordering::SeqCst);
        assert!(budget.interrupted());
    }
}
