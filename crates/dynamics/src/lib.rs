//! # bo3-dynamics
//!
//! The voting-dynamics engine for the reproduction of *“Best-of-Three Voting
//! on Dense Graphs”* (Kang & Rivera, SPAA 2019).
//!
//! The crate simulates synchronous (and, as an ablation, asynchronous)
//! opinion dynamics on a [`bo3_graph::CsrGraph`]:
//!
//! * [`opinion`] — the two-party opinion space and configurations `ξ_t`;
//! * [`protocol`] — Best-of-3 (the paper's protocol) plus the baselines the
//!   paper positions itself against: the voter model, Best-of-2, Best-of-k
//!   and deterministic local majority;
//! * [`init`] — initial conditions, from the paper's i.i.d.
//!   `Bernoulli(1/2 − δ)` start to adversarial placements (degree-ranked
//!   ones run on implicit topologies through the graph layer's degree
//!   oracle);
//! * [`engine`] — **the** engine: [`engine::Engine`] is generic over
//!   [`bo3_graph::Topology`] and owns every stepping implementation, one
//!   per [`schedule::Schedule`] (synchronous and asynchronous), seeded or
//!   caller-RNG, sequential or multi-threaded ([`parallel`] holds its chunk
//!   scheduler and RNG stream derivations);
//! * [`kernel`] — the monomorphized hot path: one per-vertex update over
//!   bit-packed snapshots, generic over the update rule and the neighbour
//!   source, driven by one synchronous and one asynchronous sweep;
//! * [`adversary`] — composable adversaries (zealots, Byzantine reporters,
//!   message drop, block partitions), a neighbour source the engine wraps
//!   around the sampler on every schedule and topology;
//! * [`checkpoint`] — cancellable, checkpointable execution: budgeted runs
//!   pause at round boundaries into a typed [`checkpoint::RunCheckpoint`]
//!   and resume bit-identically;
//! * [`montecarlo`] / [`stats`] — repeated-run drivers and the summary
//!   statistics the experiments report;
//! * [`trace`], [`schedule`], [`stopping`], [`config`] — supporting types.
//!
//! ## Quick example
//!
//! ```
//! use bo3_dynamics::prelude::*;
//! use bo3_graph::generators;
//! use rand::SeedableRng;
//!
//! let graph = generators::complete(200);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
//!     .sample(&graph, &mut rng)
//!     .unwrap();
//! let engine = Engine::on_graph(&graph).unwrap();
//! let result = engine.run(&BestOfThree::new(), init, &mut rng).unwrap();
//! assert!(result.red_won());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adversary;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod error;
pub mod init;
pub mod kernel;
pub mod montecarlo;
pub mod observe;
pub mod opinion;
pub mod parallel;
pub mod protocol;
pub mod schedule;
pub mod stats;
pub mod stopping;
pub mod trace;

/// Convenient re-exports of the types most callers need.
pub mod prelude {
    pub use crate::adversary::{
        Adversary, AdversaryCounters, AdversarySpec, ADVERSARY_STREAM_SALT,
    };
    pub use crate::checkpoint::{
        pack_opinions, unpack_opinions, RunBudget, RunCheckpoint, RunOutcome,
        RUN_CHECKPOINT_VERSION,
    };
    pub use crate::config::ProtocolSpec;
    pub use crate::engine::{AsyncScratch, Engine, RunResult, ASYNC_ROUND_CHUNK};
    pub use crate::error::{DynamicsError, Result};
    pub use crate::init::InitialCondition;
    pub use crate::kernel::MAX_BEST_OF_K;
    pub use crate::kernel::{kernel_chunk_rng, DynOnly, KernelRng, PackedSnapshot, ProtocolKind};
    pub use crate::montecarlo::{
        BatchCheckpoint, BatchOutcome, BatchProgress, MonteCarlo, MonteCarloReport, ReplicaOutcome,
        BATCH_CHECKPOINT_VERSION,
    };
    pub use crate::observe::{MetricsObserver, NoopObserver, Observer};
    pub use crate::opinion::{Configuration, Opinion};
    pub use crate::protocol::{
        BestOfK, BestOfThree, BestOfTwo, LocalMajority, Protocol, TieRule, UpdateContext, Voter,
    };
    pub use crate::schedule::Schedule;
    pub use crate::stats::{ProportionEstimate, Summary};
    pub use crate::stopping::{StopReason, StoppingCondition};
    pub use crate::trace::{RoundRecord, Trace};
}

pub use prelude::*;
