//! # bo3-core — Best-of-Three Voting on Dense Graphs
//!
//! Top-level API of the reproduction of *“Best-of-Three Voting on Dense
//! Graphs”* (Nan Kang & Nicolás Rivera, SPAA 2019, arXiv:1903.09524).
//!
//! The paper proves that on any `n`-vertex graph with minimum degree
//! `d = n^α`, `α = Ω(1/ log log n)`, if every vertex is independently blue
//! with probability `1/2 − δ` (red otherwise, `δ ≥ (log d)^{−C}`), then the
//! synchronous Best-of-Three dynamics reaches **red** consensus w.h.p. within
//! `O(log log n) + O(log δ⁻¹)` rounds.  This crate packages the simulator,
//! the proof's combinatorial machinery and the theory-side predictions behind
//! one experiment-oriented API:
//!
//! * [`experiment`] — describe a parameter point builder-style on one
//!   serialisable `TopologySpec` (materialised *or* implicit topology,
//!   protocol, initial condition, Monte-Carlo budget), run it, and get
//!   measurements paired with the paper's prediction;
//! * [`campaign`] — crash-safe grids of experiments: per-cell seeds,
//!   checkpoint/resume at round boundaries, atomic on-disk artefacts, and
//!   retry-with-backoff supervision (the phase-surface campaign driver);
//! * [`configio`] — self-contained JSON (de)serialisation for experiment
//!   configurations, including the pre-redesign `graph:` layout;
//! * [`duality`] — verify the time-reversal duality between the forward
//!   process and the voting-DAG colouring (experiment E9);
//! * [`phases`] — segment measured trajectories into the three phases of
//!   Lemma 4 (experiment E11);
//! * [`registry`] — resolve protocol names and enumerate the comparison set;
//! * [`wire`] — the newline-delimited JSON protocol the `bo3-serve` daemon
//!   speaks (requests, responses, streamed round updates, typed errors);
//! * [`report`] / [`summary`] — plain-text, CSV and markdown tables.
//!
//! The heavy lifting lives in the substrate crates re-exported below:
//! [`bo3_graph`], [`bo3_dynamics`], [`bo3_dag`] and [`bo3_theory`].
//!
//! ## Quickstart
//!
//! ```
//! use bo3_core::prelude::*;
//!
//! // An implicit complete graph: no adjacency is ever materialised, so the
//! // same five lines scale to n = 10⁶ and beyond.
//! let result = Experiment::on(TopologySpec::Complete { n: 2_000 })
//!     .named("doc/quickstart")
//!     .initial(InitialCondition::BernoulliWithBias { delta: 0.1 })
//!     .replicas(8)
//!     .seed(42)
//!     .run()
//!     .unwrap();
//! assert!(result.red_swept());
//! println!("consensus in {:.1} rounds on average", result.mean_rounds().unwrap());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod campaign;
pub mod configio;
pub mod duality;
pub mod error;
pub mod experiment;
pub mod phases;
pub mod registry;
pub mod report;
pub mod summary;
pub mod wire;

// Re-export the substrate crates so downstream users need only one dependency.
pub use bo3_dag;
pub use bo3_dynamics;
pub use bo3_graph;
pub use bo3_theory;

/// One-stop imports for examples, benches and integration tests.
pub mod prelude {
    pub use crate::campaign::{
        atomic_write, cell_seed, is_polarised, Campaign, CampaignManifest, CampaignOutcome,
        CampaignRunner, CellMeta, CellResult, CellStatus, RetryPolicy, CAMPAIGN_MANIFEST_VERSION,
    };
    pub use crate::configio::{FromJson, ToJson};
    pub use crate::duality::{DualityCheck, DualityReport};
    pub use crate::error::{CoreError, Result};
    pub use crate::experiment::{
        Analysis, CooperativeOutcome, Experiment, ExperimentResult, MAX_EXPERIMENT_REPLICAS,
        MAX_EXPERIMENT_THREADS,
    };
    pub use crate::phases::{segment_trace, ObservedPhases, PhaseComparison};
    pub use crate::registry::{
        comparison_protocols, resolve_adversary, resolve_protocol, resolve_topology,
        ADVERSARY_NAMES, TOPOLOGY_NAMES,
    };
    pub use crate::report::{fmt_f64, fmt_opt_f64, Table};
    pub use crate::summary::{results_table, trajectory_table};
    pub use crate::wire::{
        ErrorCode, JobReport, JobState, JobView, Request, Response, RunUpdate, WireError,
    };

    pub use bo3_dynamics::prelude::*;
    pub use bo3_graph::degree::DegreeStats;
    pub use bo3_graph::generators::GraphSpec;
    pub use bo3_graph::{
        BuiltTopology, Complete, CompleteBipartite, CompleteMultipartite, CsrGraph, CsrTopology,
        GraphBuilder, ImplicitGnp, ImplicitSbm, Topology, TopologySpec,
    };
    pub use bo3_theory::prediction::{predict, Prediction};
}
