//! # bo3-graph
//!
//! Graph substrate for the reproduction of *“Best-of-Three Voting on Dense
//! Graphs”* (Kang & Rivera, SPAA 2019).
//!
//! The crate provides everything the voting dynamics and the voting-DAG
//! analysis need from a graph:
//!
//! * [`CsrGraph`] — flat, cache-friendly compressed-sparse-row storage with
//!   `O(1)` degree lookup and `O(1)` indexed neighbour access, the two
//!   operations that dominate the dynamics' running time; its rows hold
//!   `u32` ids, so it has at most 2³² vertices;
//! * [`builder::GraphBuilder`] — incremental construction from edge lists;
//! * [`generators`] — the graph families used by the experiments, from the
//!   complete graph of the prior literature to dense Erdős–Rényi, random
//!   regular, SBM and core–periphery graphs in the paper's `d = n^α` regime,
//!   plus sparse negative controls (cycles, grids, hypercubes, barbells);
//! * [`topology`] — the [`Topology`] trait and its *implicit* (procedural)
//!   implementations: dense graph families defined by arithmetic or a
//!   deterministic pairwise hash, so million-vertex complete / `G(n, p)` /
//!   SBM instances never materialise a single edge; its [`CsrTopology`]
//!   samples materialised rows uniformly with replacement (the paper's
//!   model);
//! * [`degree`], [`traversal`] — the diagnostics used to check that
//!   generated instances satisfy the hypotheses of Theorem 1 (minimum
//!   degree `n^α`) and that experiment inputs are connected.
//!
//! ## Quick example
//!
//! ```
//! use bo3_graph::generators;
//! use bo3_graph::degree::DegreeStats;
//!
//! let g = generators::complete(100);
//! let stats = DegreeStats::of(&g).unwrap();
//! assert_eq!(stats.min, 99);
//! assert!(stats.alpha().unwrap() > 0.95); // d = n^alpha with alpha ~ 1
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod degree;
pub mod error;
pub mod generators;
pub mod lane;
pub mod oracle;
pub mod spec;
pub mod topology;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::{csr_bytes, CsrGraph, VertexId};
pub use error::{GraphError, Result};
pub use lane::{NeighbourLane, PairHashSpec, LANE_WIDTH};
pub use oracle::{DegreeClass, DegreeOracle, DegreeWindow, DEGREE_ORACLE_FAILURE_PROBABILITY};
pub use spec::{BuiltTopology, TopologySpec, GRAPH_SEED_SALT};
pub use topology::{
    Complete, CompleteBipartite, CompleteMultipartite, CsrTopology, ImplicitGnp, ImplicitSbm,
    ScalarSampled, Shape, Topology,
};

/// Largest vertex count the dense whole-graph operations will accept:
/// materialising an implicit topology ([`topology::materialize`]) and, in
/// the dynamics engine, local majority on a topology whose rows it must
/// walk pair by pair.
///
/// These do work proportional to `n²` (or to `m`, which is `Θ(n²)` in the
/// dense regime this crate targets); beyond this size they return
/// [`GraphError::TooLarge`] instead of silently attempting hours of work or
/// terabytes of allocation.  Million-vertex experiments use the implicit
/// [`topology`] layer, whose closed forms need none of them.
pub const DENSE_ANALYSIS_VERTEX_LIMIT: usize = 100_000;
