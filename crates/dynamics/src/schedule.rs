//! Update schedules.
//!
//! The paper's process is *synchronous*: in round `t + 1` every vertex reads
//! the round-`t` snapshot.  The asynchronous (random sequential) variant is
//! provided as an ablation — it breaks the voting-DAG duality but is the
//! natural model in distributed voting settings (cf. the Best-of-Two
//! distributed-voting literature).  Both schedules are served by the one
//! [`crate::engine::Engine`], on any [`bo3_graph::Topology`].
//!
//! # Seeded determinism semantics
//!
//! Given a fixed `master_seed`, both schedules are **bit-identical across
//! thread counts** — but they get there differently:
//!
//! * [`Schedule::Synchronous`] rounds are data-parallel: the vertex range
//!   splits into fixed-size chunks, chunk `c` of round `t` drawing from its
//!   own `(master_seed, t, c)` stream, so any assignment of chunks to
//!   worker threads produces the same output.
//! * [`Schedule::AsynchronousRandomOrder`] rounds are *sequential by
//!   definition* — each update may read the one before it — so round `t`
//!   draws everything (the uniform order shuffle, then every neighbour
//!   sample and tie coin, in update order) from the single
//!   `(master_seed, t, ASYNC_ROUND_CHUNK)` stream
//!   ([`crate::engine::ASYNC_ROUND_CHUNK`]) and executes on one thread
//!   regardless of the engine's thread knob.  Thread-count invariance
//!   therefore holds trivially: threads never participate, and the round's
//!   randomness is a pure function of `(master_seed, t)`.
//!
//! The schedule-matrix integration suite pins both properties across every
//! `TopologySpec` variant.

/// When vertices read each other's opinions within a round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Schedule {
    /// All vertices update simultaneously from the previous round's snapshot
    /// (the paper's model).
    #[default]
    Synchronous,
    /// Vertices update one at a time in a fresh uniformly random order each
    /// round, each reading the *current* (partially updated) state — see
    /// the module docs for the seeded determinism semantics.
    AsynchronousRandomOrder,
}

impl Schedule {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Schedule::Synchronous => "synchronous",
            Schedule::AsynchronousRandomOrder => "asynchronous",
        }
    }

    /// `true` for the paper's synchronous model.
    pub fn is_synchronous(&self) -> bool {
        matches!(self, Schedule::Synchronous)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_default() {
        assert_eq!(Schedule::Synchronous.label(), "synchronous");
        assert_eq!(Schedule::AsynchronousRandomOrder.label(), "asynchronous");
        assert_eq!(Schedule::default(), Schedule::Synchronous);
        assert!(Schedule::Synchronous.is_synchronous());
        assert!(!Schedule::AsynchronousRandomOrder.is_synchronous());
    }
}
