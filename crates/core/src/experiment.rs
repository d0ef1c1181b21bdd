//! Experiment configuration and execution — the Scenario API.
//!
//! An [`Experiment`] names everything needed to reproduce one data point of
//! an evaluation table: the topology, the protocol, the initial condition,
//! the schedule, the stopping rule, and the Monte-Carlo budget.  Experiments
//! are assembled builder-style from a serialisable
//! [`TopologySpec`]:
//!
//! ```
//! use bo3_core::prelude::*;
//!
//! let result = Experiment::on(TopologySpec::Complete { n: 2_000 })
//!     .protocol(ProtocolSpec::BestOfThree)
//!     .initial(InitialCondition::BernoulliWithBias { delta: 0.15 })
//!     .replicas(4)
//!     .seed(7)
//!     .run()
//!     .unwrap();
//! assert!(result.red_swept());
//! ```
//!
//! Every spec variant — materialised or implicit, synchronous or
//! asynchronous schedule — runs through the **one** topology-generic
//! engine (`bo3_dynamics::Engine`, via `MonteCarlo::run_on_topology`).
//! Materialised specs keep the pre-redesign replica-RNG plumbing, so their
//! seeded reports are bit-identical to the historical graph pipeline, while
//! the implicit families run adjacency-free, which is what lets every
//! experiment scale to `n = 10⁶` and beyond.  Dense whole-graph
//! analyses (degree statistics, the paper-prediction column) *degrade
//! gracefully* on topologies that cannot afford them: the result carries a
//! typed [`Analysis::Skipped`] with the reason instead of failing the run.

use bo3_dynamics::prelude::*;
use bo3_graph::degree::DegreeStats;
use bo3_graph::topology::materialize;
use bo3_graph::traversal::is_connected;
use bo3_graph::{BuiltTopology, CsrGraph, Topology, TopologySpec};
use bo3_theory::prediction::{predict, Prediction};

use crate::error::{CoreError, Result};

/// A dense analysis that either ran or was skipped for a stated reason.
///
/// Implicit topologies make some whole-graph diagnostics either impossible
/// (degree-ranked placements need materialised rows) or unaffordable
/// (reading a hash-defined degree sequence is `Θ(n²)`).  Rather than failing
/// the experiment or silently omitting columns, results carry this typed
/// outcome: [`Analysis::Computed`] with the value, or [`Analysis::Skipped`]
/// with a human-readable reason that reports can print.
#[derive(Debug, Clone, PartialEq)]
pub enum Analysis<T> {
    /// The analysis ran; here is its value.
    Computed(T),
    /// The analysis was intentionally not run.
    Skipped {
        /// Why the analysis was skipped (shown in reports).
        reason: String,
    },
}

impl<T> Analysis<T> {
    /// Shorthand constructor for the skipped case.
    pub fn skipped(reason: impl Into<String>) -> Self {
        Analysis::Skipped {
            reason: reason.into(),
        }
    }

    /// The computed value, when the analysis ran.
    pub fn computed(&self) -> Option<&T> {
        match self {
            Analysis::Computed(value) => Some(value),
            Analysis::Skipped { .. } => None,
        }
    }

    /// Consumes the analysis, yielding the computed value when present.
    pub fn into_computed(self) -> Option<T> {
        match self {
            Analysis::Computed(value) => Some(value),
            Analysis::Skipped { .. } => None,
        }
    }

    /// The skip reason, when the analysis was skipped.
    pub fn skipped_reason(&self) -> Option<&str> {
        match self {
            Analysis::Computed(_) => None,
            Analysis::Skipped { reason } => Some(reason),
        }
    }

    /// `true` when the analysis ran.
    pub fn is_computed(&self) -> bool {
        matches!(self, Analysis::Computed(_))
    }
}

/// The largest worker-thread count an [`Experiment`] may ask for:
/// [`Experiment::validate_config`] refuses more with a typed error, so a
/// config (a campaign manifest, a daemon submission) can never make a run
/// allocate per-worker buckets or spawn threads without bound.  The most
/// any caller passes is 8.
pub const MAX_EXPERIMENT_THREADS: usize = 1024;

/// The largest replica count an [`Experiment`] may ask for:
/// [`Experiment::validate_config`] refuses more with a typed error, so a
/// config can never make a run size its outcome buffers without bound.  The
/// experiments use at most 200.
pub const MAX_EXPERIMENT_REPLICAS: usize = 100_000;

/// A fully specified experiment (one parameter point).
///
/// Construct with [`Experiment::on`] and the builder methods; the fields
/// stay public so configurations remain plain serialisable data.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Short identifier used in reports (e.g. `"E1/n=100000"`).
    pub name: String,
    /// Which topology to run on (materialised or implicit).
    pub topology: TopologySpec,
    /// Which protocol to run.
    pub protocol: ProtocolSpec,
    /// Initial condition for every replica.
    pub initial: InitialCondition,
    /// Update schedule.
    pub schedule: Schedule,
    /// Per-replica stopping rule.
    pub stopping: StoppingCondition,
    /// Number of Monte-Carlo replicas, `1..=`[`MAX_EXPERIMENT_REPLICAS`].
    pub replicas: usize,
    /// Master seed: freezes the topology (hash seed / generator stream) and
    /// derives every replica's RNG stream.
    pub seed: u64,
    /// Worker threads (`0` = available parallelism), at most
    /// [`MAX_EXPERIMENT_THREADS`].
    pub threads: usize,
    /// Adversarial mechanisms layered over every replica (Scenario API v3;
    /// empty = the honest dynamics, exactly the v2 behaviour).
    pub adversary: Vec<AdversarySpec>,
}

impl Experiment {
    /// Starts a builder on the given topology with the defaults of the
    /// paper's setting: Best-of-Three, `Bernoulli(1/2 − 0.1)` initial
    /// opinions, synchronous rounds, stop at consensus within `10⁴` rounds,
    /// 8 replicas, seed 0, all available threads.
    ///
    /// Anything convertible into a [`TopologySpec`] is accepted — in
    /// particular a bare [`bo3_graph::generators::GraphSpec`], which maps
    /// to [`TopologySpec::Materialised`].
    pub fn on(topology: impl Into<TopologySpec>) -> Self {
        let topology = topology.into();
        Experiment {
            name: format!("experiment/{}", topology.label()),
            topology,
            protocol: ProtocolSpec::BestOfThree,
            initial: InitialCondition::BernoulliWithBias { delta: 0.1 },
            schedule: Schedule::Synchronous,
            stopping: StoppingCondition::default(),
            replicas: 8,
            seed: 0,
            threads: 0,
            adversary: Vec::new(),
        }
    }

    /// Sets the report identifier.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the protocol.
    pub fn protocol(mut self, protocol: ProtocolSpec) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the initial condition.
    pub fn initial(mut self, initial: InitialCondition) -> Self {
        self.initial = initial;
        self
    }

    /// Sets the update schedule.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the stopping rule.
    pub fn stopping(mut self, stopping: StoppingCondition) -> Self {
        self.stopping = stopping;
        self
    }

    /// Sets the Monte-Carlo replica count.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread budget (`0` = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Adds one adversarial mechanism (call repeatedly to compose — e.g.
    /// zealots plus message drop; see
    /// [`bo3_dynamics::adversary`] for the composition rules).
    pub fn adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary.push(spec);
        self
    }

    /// The canonical Theorem-1 experiment: Best-of-3 on the given topology
    /// with the paper's `Bernoulli(1/2 − δ)` initial condition.
    pub fn theorem_one(
        name: impl Into<String>,
        topology: impl Into<TopologySpec>,
        delta: f64,
        replicas: usize,
        seed: u64,
    ) -> Self {
        Experiment::on(topology)
            .named(name)
            .initial(InitialCondition::BernoulliWithBias { delta })
            .stopping(StoppingCondition::consensus_within(10_000))
            .replicas(replicas)
            .seed(seed)
    }

    /// Builds the experiment's topology (deterministic in `seed`).
    pub fn build_topology(&self) -> Result<BuiltTopology> {
        Ok(self.topology.build(self.seed)?)
    }

    /// Generates the experiment's graph as materialised CSR adjacency
    /// (deterministic in `seed`; for materialised specs this is exactly the
    /// pre-redesign `build_graph` stream).
    ///
    /// Implicit specs are materialised through their frozen edge set, which
    /// is guarded by `DENSE_ANALYSIS_VERTEX_LIMIT` — million-vertex implicit
    /// topologies return a typed error here; run them with
    /// [`Experiment::run`] instead, which never materialises them.
    pub fn build_graph(&self) -> Result<CsrGraph> {
        match self.build_topology()? {
            BuiltTopology::Materialised(graph) => Ok(graph),
            implicit => Ok(materialize(&implicit)?),
        }
    }

    /// Runs the experiment end to end — every spec variant, either
    /// schedule, through the one topology-generic engine.
    ///
    /// Materialised specs additionally get the whole-graph validations
    /// (connectivity) and measured degree statistics the historical graph
    /// pipeline performed, and keep its replica-RNG plumbing, so their
    /// seeded reports are bit-identical across the engine unification;
    /// implicit specs run adjacency-free with the dense analyses degrading
    /// to typed [`Analysis::Skipped`] outcomes where they cannot run.
    pub fn run(&self) -> Result<ExperimentResult> {
        let built = self.validated_topology()?;
        let degree_stats = self.degree_stats(&built)?;
        let report = self.monte_carlo().run_on_topology(&built)?;
        self.assemble(built.n(), built.memory_bytes(), degree_stats, report)
    }

    /// Checks the configuration without running anything — the same
    /// validation [`Experiment::run`] performs first (parameter ranges and
    /// cross-field consistency; graph-level checks still happen at run
    /// time).  The `bo3-serve` daemon calls this at submit time so a bad
    /// configuration is refused at the socket as a typed `invalid-config`
    /// error instead of being accepted and failing later.
    pub fn validate_config(&self) -> Result<()> {
        self.validate()
    }

    /// Runs the experiment cooperatively: the [`RunBudget`]'s slice cap sets
    /// how often control returns, `on_progress` receives a
    /// [`BatchProgress`] sample at every slice boundary, and flipping the
    /// budget's cancel or drain flag interrupts the run within one slice
    /// (returning [`CooperativeOutcome::Interrupted`] with the batch
    /// checkpoint).
    ///
    /// This is the entry point a long-running service drives.  The progress
    /// callback only observes checkpoints — it never touches replica seeding
    /// or round streams — so a completed result is **bit-identical** to
    /// [`Experiment::run`], whatever the slice size, thread count, or number
    /// of pauses along the way (the service determinism contract, pinned by
    /// the wire-level tests).  Resuming an interrupted run is the caller's
    /// job: feed the checkpoint back through
    /// [`MonteCarlo::run_on_topology_cooperative`] or restart from scratch —
    /// determinism makes both equivalent.
    pub fn run_cooperative(
        &self,
        budget: &RunBudget,
        on_progress: &mut dyn FnMut(&BatchProgress),
    ) -> Result<CooperativeOutcome> {
        let built = self.validated_topology()?;
        let degree_stats = self.degree_stats(&built)?;
        let outcome =
            self.monte_carlo()
                .run_on_topology_cooperative(&built, None, budget, on_progress)?;
        match outcome {
            BatchOutcome::Completed(report) => {
                let result =
                    self.assemble(built.n(), built.memory_bytes(), degree_stats, report)?;
                Ok(CooperativeOutcome::Completed(Box::new(result)))
            }
            BatchOutcome::Paused(ckpt) => Ok(CooperativeOutcome::Interrupted(ckpt)),
        }
    }

    /// Runs the experiment on an already generated graph (useful when
    /// several experiments share one expensive graph instance), through the
    /// same unified engine as [`Experiment::run`].
    pub fn run_on(&self, graph: &CsrGraph) -> Result<ExperimentResult> {
        self.validate()?;
        self.validate_graph(graph)?;
        let degree_stats = DegreeStats::of(graph)?;
        let report = self.monte_carlo().run(graph)?;
        self.assemble(
            graph.num_vertices(),
            graph.memory_bytes(),
            Analysis::Computed(degree_stats),
            report,
        )
    }

    /// The set-up every run path performs before its first replica:
    /// validates the configuration, builds the topology and runs the
    /// whole-graph checks it affords — connectivity on a materialised
    /// graph, the dense-regime guard on an implicit one.
    pub(crate) fn validated_topology(&self) -> Result<BuiltTopology> {
        self.validate()?;
        let built = self.build_topology()?;
        match built.as_graph() {
            Some(graph) => self.validate_graph(graph)?,
            None => self.validate_implicit_regime(built.n())?,
        }
        Ok(built)
    }

    /// Degree statistics of the built topology: measured on a materialised
    /// graph, closed-form where the family has them, otherwise a typed skip.
    fn degree_stats(&self, built: &BuiltTopology) -> Result<Analysis<DegreeStats>> {
        Ok(match built.as_graph() {
            Some(graph) => Analysis::Computed(DegreeStats::of(graph)?),
            None => match self.topology.closed_form_degree_stats() {
                Some(stats) => Analysis::Computed(stats),
                None => Analysis::skipped(format!(
                    "degree statistics of {} are hash-defined (Θ(n) per vertex to read); \
                     materialise the spec to measure them",
                    self.topology.label()
                )),
            },
        })
    }

    /// Assembles the result from the measurements and analyses.
    fn assemble(
        &self,
        n: usize,
        topology_memory_bytes: usize,
        degree_stats: Analysis<DegreeStats>,
        report: MonteCarloReport,
    ) -> Result<ExperimentResult> {
        let prediction = self.prediction_from(n, degree_stats.computed());
        Ok(ExperimentResult {
            name: self.name.clone(),
            topology_label: self.topology.label(),
            protocol_name: self.protocol.name(),
            initial_label: self.initial.label(),
            schedule: self.schedule,
            n,
            topology_memory_bytes,
            degree_stats,
            report,
            prediction,
        })
    }

    /// The whole-graph validations only a materialised graph can afford.
    fn validate_graph(&self, graph: &CsrGraph) -> Result<()> {
        if graph.num_vertices() == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "the experiment graph is empty".into(),
            });
        }
        if !is_connected(graph) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "graph {} is disconnected; consensus experiments require a connected graph",
                    self.topology.label()
                ),
            });
        }
        Ok(())
    }

    fn validate(&self) -> Result<()> {
        if self.replicas == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "an experiment needs at least one replica".into(),
            });
        }
        if self.replicas > MAX_EXPERIMENT_REPLICAS {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "an experiment runs at most {MAX_EXPERIMENT_REPLICAS} replicas, got {}",
                    self.replicas
                ),
            });
        }
        if let ProtocolSpec::BestOfK { k, .. } = self.protocol {
            if !(1..=MAX_BEST_OF_K).contains(&k) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("best-of-k needs k in 1..={MAX_BEST_OF_K}, got k = {k}"),
                });
            }
        }
        if self.threads > MAX_EXPERIMENT_THREADS {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "an experiment runs on at most {MAX_EXPERIMENT_THREADS} threads, got {}",
                    self.threads
                ),
            });
        }
        // The count saturates there: a sum of block or side sizes that
        // overflows `usize` would otherwise wrap to a small graph mid-run.
        if self.topology.num_vertices() == usize::MAX {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "{} has more vertices than usize can count",
                    self.topology.label()
                ),
            });
        }
        Ok(())
    }

    /// Guards the adjacency-free path against graphs it cannot serve.
    ///
    /// The closed-form families are connected by construction, but
    /// hash-defined topologies cannot be connectivity-checked without
    /// `Θ(n²)` work — the check the materialised path performs.  Instead the
    /// two *certain* or overwhelmingly-likely failure modes are rejected
    /// up front with the same typed error the materialised path gives:
    ///
    /// * a multi-block implicit SBM with `p_out = 0` is disconnected by
    ///   construction (disjoint communities);
    /// * an expected degree below `ln n` is the classic `G(n, p)`
    ///   disconnectivity threshold, where neighbour sampling would also
    ///   leave the rejection-sampling regime the implicit families support
    ///   (isolated vertices make sampling panic rather than loop) — sparse
    ///   graphs belong on a materialised spec.
    fn validate_implicit_regime(&self, n: usize) -> Result<()> {
        if let TopologySpec::ImplicitSbm { blocks, p_out, .. } = &self.topology {
            if *blocks > 1 && *p_out == 0.0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "{} is disconnected ({} blocks with p_out = 0); consensus \
                         experiments require a connected graph",
                        self.topology.label(),
                        blocks
                    ),
                });
            }
        }
        if self.topology.is_hash_defined() {
            let expected = self.topology.expected_degree().unwrap_or(0.0);
            let threshold = (n as f64).ln();
            if expected < threshold {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "{} has expected degree {expected:.2}, below the ln(n) ≈ \
                         {threshold:.2} connectivity threshold; the implicit families \
                         support only the dense regime — use a materialised spec for \
                         sparse graphs",
                        self.topology.label()
                    ),
                });
            }
        }
        Ok(())
    }

    pub(crate) fn monte_carlo(&self) -> MonteCarlo {
        MonteCarlo {
            protocol: self.protocol,
            initial: self.initial.clone(),
            schedule: self.schedule,
            stopping: self.stopping,
            replicas: self.replicas,
            master_seed: self.seed,
            threads: self.threads,
            adversary: self.adversary.clone(),
        }
    }

    /// The paper's prediction for this parameter point, or a typed skip.
    fn prediction_from(
        &self,
        n: usize,
        degree_stats: Option<&DegreeStats>,
    ) -> Analysis<Prediction> {
        let delta = match &self.initial {
            InitialCondition::BernoulliWithBias { delta } => *delta,
            other => {
                return Analysis::skipped(format!(
                    "the paper's prediction assumes the Bernoulli(1/2 − δ) initial \
                     condition, not {}",
                    other.label()
                ))
            }
        };
        let alpha = match degree_stats.and_then(|s| s.alpha()) {
            Some(alpha) => alpha,
            None => {
                return Analysis::skipped(format!(
                    "no degree exponent α available for {} (degree statistics skipped \
                     or degenerate)",
                    self.topology.label()
                ))
            }
        };
        Analysis::Computed(predict(n as f64, alpha, delta, 2.0))
    }
}

/// Outcome of a cooperative drive: finished, or interrupted at a yield
/// point by the budget's cancel/drain flag.
#[derive(Debug, Clone, PartialEq)]
pub enum CooperativeOutcome {
    /// The experiment ran to completion — the result is bit-identical to
    /// what [`Experiment::run`] returns.
    Completed(Box<ExperimentResult>),
    /// A cancel or drain flag fired; the batch paused here.
    Interrupted(BatchCheckpoint),
}

impl CooperativeOutcome {
    /// The completed result, when the drive finished.
    pub fn completed(self) -> Option<ExperimentResult> {
        match self {
            CooperativeOutcome::Completed(result) => Some(*result),
            CooperativeOutcome::Interrupted(_) => None,
        }
    }
}

/// The outcome of one experiment: measurements plus the matching analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Experiment identifier.
    pub name: String,
    /// Topology description.
    pub topology_label: String,
    /// Protocol name.
    pub protocol_name: String,
    /// Initial-condition description.
    pub initial_label: String,
    /// Schedule used.
    pub schedule: Schedule,
    /// Number of vertices.
    pub n: usize,
    /// Bytes used to represent the topology (a CSR's adjacency for
    /// materialised specs, a few machine words for implicit ones).
    pub topology_memory_bytes: usize,
    /// Realised degree statistics — computed for materialised and
    /// closed-form topologies, skipped (with the reason) for hash-defined
    /// ones.
    pub degree_stats: Analysis<DegreeStats>,
    /// Monte-Carlo measurements.
    pub report: MonteCarloReport,
    /// The paper's prediction for this parameter point — computed when the
    /// initial condition is the paper's and a degree exponent is available.
    pub prediction: Analysis<Prediction>,
}

impl ExperimentResult {
    /// Mean rounds to consensus, when any replica converged.
    pub fn mean_rounds(&self) -> Option<f64> {
        self.report.mean_rounds()
    }

    /// Fraction of converged replicas won by red.
    pub fn red_win_rate(&self) -> Option<f64> {
        self.report.red_win.map(|p| p.estimate)
    }

    /// Typed adversary counters aggregated over the batch — `Some` exactly
    /// when the experiment declared an adversary (Scenario API v3).
    pub fn adversary_counters(&self) -> Option<AdversaryCounters> {
        self.report.adversary
    }

    /// The degree exponent `α` (`d_min = n^α`), when degree statistics ran.
    pub fn alpha(&self) -> Option<f64> {
        self.degree_stats.computed().and_then(|s| s.alpha())
    }

    /// `true` when every converged replica ended in red consensus — the
    /// Theorem 1 outcome.
    pub fn red_swept(&self) -> bool {
        match self.report.red_win {
            Some(p) => p.successes == p.trials && p.trials > 0,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_graph::generators::GraphSpec;

    #[test]
    fn theorem_one_experiment_runs_and_red_sweeps() {
        let exp =
            Experiment::theorem_one("unit/complete", GraphSpec::Complete { n: 300 }, 0.15, 10, 1);
        let result = exp.run().unwrap();
        assert_eq!(result.name, "unit/complete");
        assert!(result.red_swept());
        assert!(result.mean_rounds().unwrap() < 25.0);
        assert!(result.prediction.is_computed());
        assert_eq!(result.degree_stats.computed().unwrap().min, 299);
        assert!(result.protocol_name.contains("best-of-3"));
    }

    #[test]
    fn builder_defaults_and_setters_cover_every_field() {
        let exp = Experiment::on(TopologySpec::Complete { n: 64 })
            .named("builder/check")
            .protocol(ProtocolSpec::Voter)
            .initial(InitialCondition::ExactCount { blue: 10 })
            .schedule(Schedule::Synchronous)
            .stopping(StoppingCondition::fixed_rounds(3))
            .replicas(2)
            .seed(9)
            .threads(1);
        assert_eq!(exp.name, "builder/check");
        assert_eq!(exp.protocol, ProtocolSpec::Voter);
        assert_eq!(exp.initial, InitialCondition::ExactCount { blue: 10 });
        assert_eq!(exp.stopping, StoppingCondition::fixed_rounds(3));
        assert_eq!(exp.replicas, 2);
        assert_eq!(exp.seed, 9);
        assert_eq!(exp.threads, 1);
        let result = exp.run().unwrap();
        assert_eq!(result.n, 64);
        for outcome in &result.report.outcomes {
            assert!(outcome.rounds <= 3);
        }
    }

    #[test]
    fn implicit_complete_runs_adjacency_free_with_exact_stats() {
        let result = Experiment::on(TopologySpec::Complete { n: 2_000 })
            .named("implicit/complete")
            .initial(InitialCondition::BernoulliWithBias { delta: 0.15 })
            .replicas(6)
            .seed(3)
            .run()
            .unwrap();
        assert!(result.red_swept());
        // Exact closed-form degree stats, no adjacency anywhere.
        assert_eq!(result.degree_stats.computed().unwrap().min, 1_999);
        assert!(result.topology_memory_bytes < 1_024);
        assert!(result.prediction.is_computed());
    }

    #[test]
    fn hash_defined_topologies_skip_dense_analyses_gracefully() {
        let result = Experiment::on(TopologySpec::ImplicitGnp { n: 1_500, p: 0.5 })
            .named("implicit/gnp")
            .initial(InitialCondition::BernoulliWithBias { delta: 0.15 })
            .replicas(4)
            .seed(5)
            .run()
            .unwrap();
        assert!(result.red_swept());
        let reason = result.degree_stats.skipped_reason().unwrap();
        assert!(reason.contains("hash-defined"), "{reason}");
        // No alpha, so the prediction degrades too — with a reason, not an error.
        assert!(result.prediction.skipped_reason().is_some());
        assert!(result.alpha().is_none());
    }

    #[test]
    fn rejects_zero_replicas_and_disconnected_graphs() {
        let exp = Experiment::theorem_one("bad", GraphSpec::Complete { n: 20 }, 0.1, 0, 1);
        assert!(matches!(exp.run(), Err(CoreError::InvalidConfig { .. })));
        // Too many replicas would size the outcome buffers without bound;
        // validation refuses them before anything runs.
        let exp = Experiment::on(TopologySpec::Complete { n: 64 }).threads(1);
        for replicas in [MAX_EXPERIMENT_REPLICAS + 1, 1 << 60] {
            assert!(
                matches!(
                    exp.clone().replicas(replicas).validate_config(),
                    Err(CoreError::InvalidConfig { .. })
                ),
                "replicas = {replicas}"
            );
        }
        assert!(exp
            .replicas(MAX_EXPERIMENT_REPLICAS)
            .validate_config()
            .is_ok());
        // Two disjoint cliques via an SBM with zero cross probability.
        let exp = Experiment::theorem_one(
            "bad2",
            GraphSpec::PlantedPartition {
                n: 20,
                blocks: 2,
                p_in: 1.0,
                p_out: 0.0,
            },
            0.1,
            3,
            1,
        );
        assert!(matches!(exp.run(), Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn rejects_out_of_range_best_of_k_before_building_the_protocol() {
        // A graph-backed replica builds a boxed protocol, whose constructor
        // asserts k >= 1: an out-of-range k is a typed error, not a panic.
        for k in [0, MAX_BEST_OF_K + 1] {
            let exp = Experiment::on(TopologySpec::Materialised(GraphSpec::Complete { n: 30 }))
                .protocol(ProtocolSpec::BestOfK {
                    k,
                    tie_rule: TieRule::KeepOwn,
                })
                .replicas(1);
            assert!(
                matches!(exp.run(), Err(CoreError::InvalidConfig { .. })),
                "k = {k}"
            );
        }
    }

    #[test]
    fn validate_config_refuses_more_threads_than_the_cap() {
        // Validation only: nothing runs, so no thread is started.
        let exp = Experiment::on(TopologySpec::Complete { n: 30 }).replicas(1);
        for threads in [MAX_EXPERIMENT_THREADS + 1, 1 << 40, usize::MAX] {
            assert!(
                matches!(
                    exp.clone().threads(threads).validate_config(),
                    Err(CoreError::InvalidConfig { .. })
                ),
                "threads = {threads}"
            );
        }
        for threads in [0, 1, MAX_EXPERIMENT_THREADS] {
            assert!(exp.clone().threads(threads).validate_config().is_ok());
        }
    }

    #[test]
    fn validate_config_refuses_a_vertex_count_past_usize() {
        // Validation only: a wrapped count would otherwise build a small
        // graph and index past it mid-run.
        let half = 1usize << (usize::BITS - 1);
        for spec in [
            TopologySpec::CompleteBipartite {
                a: half,
                b: half + 6,
            },
            TopologySpec::CompleteMultipartite {
                blocks: vec![half, half, 4],
            },
            TopologySpec::Materialised(GraphSpec::CompleteBipartite { a: half, b: half }),
        ] {
            let exp = Experiment::on(spec.clone()).replicas(1).threads(1);
            assert!(
                matches!(exp.validate_config(), Err(CoreError::InvalidConfig { .. })),
                "{spec:?}"
            );
        }
        let fits = TopologySpec::CompleteBipartite { a: 1 << 20, b: 3 };
        assert!(Experiment::on(fits).replicas(1).validate_config().is_ok());
    }

    #[test]
    fn implicit_path_rejects_certainly_disconnected_and_sparse_specs() {
        // Disjoint communities: the materialised PlantedPartition equivalent
        // errors on the connectivity check; the implicit path must match.
        let disconnected = Experiment::on(TopologySpec::ImplicitSbm {
            n: 1_000,
            blocks: 2,
            p_in: 0.5,
            p_out: 0.0,
        })
        .replicas(1);
        assert!(matches!(
            disconnected.run(),
            Err(CoreError::InvalidConfig { .. })
        ));
        // Sparse G(n, p) below the ln(n) connectivity threshold would panic
        // inside neighbour sampling; it must be a typed error instead.
        let sparse = Experiment::on(TopologySpec::ImplicitGnp {
            n: 100_000,
            p: 1e-5,
        })
        .replicas(1);
        match sparse.run() {
            Err(CoreError::InvalidConfig { reason }) => {
                assert!(reason.contains("dense regime"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // A dense spec at the same n sails through the guard.
        assert!(
            Experiment::on(TopologySpec::ImplicitGnp { n: 2_000, p: 0.3 })
                .initial(InitialCondition::BernoulliWithBias { delta: 0.2 })
                .replicas(1)
                .run()
                .is_ok()
        );
    }

    #[test]
    fn asynchronous_schedule_runs_on_every_spec_kind() {
        // Historically `schedule(AsynchronousRandomOrder)` on an implicit
        // spec returned a typed rejection; the unified engine runs it.
        let implicit = Experiment::on(TopologySpec::Complete { n: 100 })
            .schedule(Schedule::AsynchronousRandomOrder)
            .initial(InitialCondition::BernoulliWithBias { delta: 0.2 })
            .replicas(1);
        assert!(implicit.run().unwrap().red_swept());
        // Materialised specs keep supporting it, as before.
        let materialised = Experiment::on(GraphSpec::Complete { n: 100 })
            .schedule(Schedule::AsynchronousRandomOrder)
            .initial(InitialCondition::BernoulliWithBias { delta: 0.2 })
            .replicas(1);
        assert!(materialised.run().unwrap().red_swept());
    }

    #[test]
    fn graph_generation_is_deterministic_in_the_seed() {
        let exp = Experiment::theorem_one(
            "det",
            GraphSpec::ErdosRenyiGnp { n: 200, p: 0.2 },
            0.1,
            1,
            7,
        );
        let g1 = exp.build_graph().unwrap();
        let g2 = exp.build_graph().unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn build_graph_materialises_small_implicit_topologies() {
        let exp = Experiment::on(TopologySpec::Complete { n: 30 });
        let g = exp.build_graph().unwrap();
        assert_eq!(g.num_vertices(), 30);
        assert_eq!(g.num_edges(), 30 * 29 / 2);
        // ...but refuses past the dense-analysis limit, with a typed error.
        let huge = Experiment::on(TopologySpec::ImplicitGnp {
            n: 1_000_000,
            p: 0.5,
        });
        assert!(matches!(huge.build_graph(), Err(CoreError::Graph(_))));
    }

    #[test]
    fn run_on_shared_graph_matches_run() {
        let exp = Experiment::theorem_one("shared", GraphSpec::Complete { n: 150 }, 0.12, 5, 3);
        let direct = exp.run().unwrap();
        let graph = exp.build_graph().unwrap();
        let shared = exp.run_on(&graph).unwrap();
        assert_eq!(direct.report.outcomes, shared.report.outcomes);
    }

    #[test]
    fn non_paper_initial_conditions_have_no_prediction() {
        let exp = Experiment::theorem_one("nopred", GraphSpec::Complete { n: 100 }, 0.1, 3, 5)
            .initial(InitialCondition::ExactCount { blue: 40 });
        let result = exp.run().unwrap();
        assert!(result
            .prediction
            .skipped_reason()
            .unwrap()
            .contains("initial"));
        assert!(result.red_win_rate().is_some());
    }

    #[test]
    fn voter_baseline_does_not_always_sweep() {
        let exp = Experiment::theorem_one("voter", GraphSpec::Complete { n: 60 }, 0.1, 40, 11)
            .protocol(ProtocolSpec::Voter)
            .initial(InitialCondition::ExactCount { blue: 28 })
            .stopping(StoppingCondition::consensus_within(200_000));
        let result = exp.run().unwrap();
        assert!(!result.red_swept(), "voter unexpectedly swept for red");
    }

    #[test]
    fn cooperative_run_is_bit_identical_to_run_and_streams_progress() {
        let exp = Experiment::on(TopologySpec::ImplicitGnp { n: 1_200, p: 0.4 })
            .named("coop/gnp")
            .initial(InitialCondition::BernoulliWithBias { delta: 0.12 })
            .replicas(4)
            .seed(19)
            .threads(1);
        let direct = exp.run().unwrap();
        let mut samples = 0usize;
        let coop = exp
            .run_cooperative(&RunBudget::rounds_per_slice(1), &mut |_| samples += 1)
            .unwrap()
            .completed()
            .expect("uninterrupted drive completes");
        assert_eq!(direct, coop);
        assert!(samples > exp.replicas, "{samples} progress samples");
    }

    #[test]
    fn cooperative_run_pauses_when_the_drain_flag_fires() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let exp = Experiment::on(TopologySpec::ImplicitGnp { n: 1_200, p: 0.4 })
            .named("coop/drain")
            .initial(InitialCondition::BernoulliWithBias { delta: 0.12 })
            .replicas(4)
            .seed(19)
            .threads(1);
        let drain = Arc::new(AtomicBool::new(false));
        let budget = RunBudget::rounds_per_slice(1).with_drain_flag(drain.clone());
        let setter = drain.clone();
        let outcome = exp
            .run_cooperative(&budget, &mut |_| setter.store(true, Ordering::SeqCst))
            .unwrap();
        match outcome {
            CooperativeOutcome::Interrupted(ckpt) => {
                assert!(ckpt.completed.len() < exp.replicas || ckpt.current.is_some());
            }
            CooperativeOutcome::Completed(_) => panic!("drain flag must interrupt the drive"),
        }
    }

    #[test]
    fn analysis_accessors() {
        let computed: Analysis<usize> = Analysis::Computed(7);
        assert_eq!(computed.computed(), Some(&7));
        assert!(computed.is_computed());
        assert_eq!(computed.skipped_reason(), None);
        assert_eq!(computed.into_computed(), Some(7));
        let skipped: Analysis<usize> = Analysis::skipped("too big");
        assert_eq!(skipped.computed(), None);
        assert_eq!(skipped.skipped_reason(), Some("too big"));
        assert_eq!(skipped.into_computed(), None);
    }
}
