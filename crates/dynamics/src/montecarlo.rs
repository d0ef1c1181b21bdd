//! Monte-Carlo driver: many independent runs of the same experiment.
//!
//! Theorem 1 is a with-high-probability statement, so every experiment
//! estimates probabilities and expectations over repeated runs.  The driver
//! executes replicas across threads with deterministic per-replica seeding;
//! every replica runs on the one topology-generic
//! [`crate::engine::Engine`], whatever the topology and whichever
//! [`Schedule`] — the asynchronous ablation included, on implicit
//! topologies included.
//!
//! Every replica is described by a [`ProtocolSpec`], which always names a
//! built-in protocol ([`ProtocolSpec::kind`] is total), so replicas execute
//! on the monomorphized kernel paths of [`crate::kernel`] rather than the
//! `dyn`-dispatch fallback.
//!
//! # Replica RNG plumbing (the compatibility seam)
//!
//! Two flavours, chosen by whether the topology is graph-backed
//! ([`Topology::as_graph`]):
//!
//! * **graph-backed** — the replica's `StdRng` stream drives the whole run
//!   (initial condition, then every round), exactly the pre-unification
//!   materialised pipeline, so seeded reports over materialised specs are
//!   bit-identical across the engine merge (pinned by the Scenario API
//!   suite);
//! * **adjacency-free** — the replica stream samples the initial condition
//!   and then hands the run one derived `master_seed`, so rounds use the
//!   chunk-seeded engine streams and stay bit-identical at any thread
//!   count.

use rand::RngCore;

use bo3_graph::{CsrGraph, CsrTopology, Topology};

use crate::adversary::{Adversary, AdversaryCounters, AdversarySpec};
use crate::checkpoint::{RunBudget, RunCheckpoint, RunOutcome};
use crate::config::ProtocolSpec;
use crate::engine::{Engine, RunResult};
use crate::error::{DynamicsError, Result};
use crate::init::InitialCondition;
use crate::kernel::count_blue;
use crate::opinion::{blue_fraction, Opinion};
use crate::parallel::{replica_rng, resolve_threads, stream_id};
use crate::schedule::Schedule;
use crate::stats::{ProportionEstimate, Summary};
use crate::stopping::StoppingCondition;

/// Salt separating the adversary's seed space from the replica streams, so
/// an adversarial batch shares no randomness with its honest twin beyond the
/// master seed itself.
const ADVERSARY_SEED_SALT: u64 = 0xADC0_FFEE_5EED_5A17;

/// Version of the [`BatchCheckpoint`] layout (bumped on incompatible change;
/// the golden snapshot test in `bo3_core::campaign` pins the JSON form).
pub const BATCH_CHECKPOINT_VERSION: u32 = 1;

/// A paused Monte-Carlo batch: the replicas already finished plus, when the
/// pause hit mid-run, the current replica's [`RunCheckpoint`].
///
/// Replica seeding is a pure function of `(master_seed, replica)`, so the
/// checkpoint needs no RNG state: resuming re-derives the next replica's
/// streams exactly as an uninterrupted batch would.  Produced and consumed by
/// [`MonteCarlo::run_on_topology_resumable`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCheckpoint {
    /// Layout version ([`BATCH_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Outcomes of the replicas that finished, in replica order — the next
    /// replica to run is `completed.len()`.
    pub completed: Vec<ReplicaOutcome>,
    /// The current replica's mid-run checkpoint, when the pause hit inside a
    /// seeded run (`None` when paused at a replica boundary, which is the
    /// only pause point for graph-backed caller-RNG replicas).
    pub current: Option<RunCheckpoint>,
}

/// The outcome of a resumable batch: finished, or paused at a yield point.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcome {
    /// Every replica ran; here is the aggregate report.
    Completed(MonteCarloReport),
    /// The budget fired first; resume from this checkpoint.
    Paused(BatchCheckpoint),
}

/// A progress sample handed to the [`MonteCarlo::run_on_topology_cooperative`]
/// callback at every slice boundary — the quantities a streaming subscriber
/// wants per round-slice, derived purely from the batch checkpoint (so
/// observing progress can never perturb the run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchProgress {
    /// Replicas already finished.
    pub replicas_done: usize,
    /// Total replicas in the batch.
    pub replicas: usize,
    /// Index of the in-flight replica (`replicas_done` while one is paused
    /// mid-run; equal to `replicas_done` at a replica boundary too).
    pub replica: usize,
    /// Rounds already applied inside the in-flight replica (`0` at a replica
    /// boundary).
    pub round: usize,
    /// Blue fraction of the in-flight replica's paused configuration; at a
    /// replica boundary, the last finished replica's final blue fraction
    /// (`0.0` before any replica ran).
    pub blue_fraction: f64,
}

impl BatchProgress {
    /// Derives the progress sample a paused batch exposes.
    fn of(ckpt: &BatchCheckpoint, replicas: usize) -> Self {
        let replicas_done = ckpt.completed.len();
        match &ckpt.current {
            Some(run) => BatchProgress {
                replicas_done,
                replicas,
                replica: replicas_done,
                round: run.round,
                blue_fraction: blue_fraction(count_blue(&run.opinion_words), run.n),
            },
            None => BatchProgress {
                replicas_done,
                replicas,
                replica: replicas_done,
                round: 0,
                blue_fraction: ckpt
                    .completed
                    .last()
                    .map(|o| o.final_blue_fraction)
                    .unwrap_or(0.0),
            },
        }
    }
}

impl BatchOutcome {
    /// The completed report, if the batch finished.
    pub fn completed(self) -> Option<MonteCarloReport> {
        match self {
            BatchOutcome::Completed(report) => Some(report),
            BatchOutcome::Paused(_) => None,
        }
    }

    /// The checkpoint, if the batch paused.
    pub fn paused(self) -> Option<BatchCheckpoint> {
        match self {
            BatchOutcome::Completed(_) => None,
            BatchOutcome::Paused(checkpoint) => Some(checkpoint),
        }
    }
}

/// Outcome of one Monte-Carlo replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaOutcome {
    /// Replica index (also the seed offset).
    pub replica: usize,
    /// Consensus winner (`None` when the round cap was hit first).
    pub winner: Option<Opinion>,
    /// Rounds executed.
    pub rounds: usize,
    /// Blue fraction of the initial configuration actually sampled.
    pub initial_blue_fraction: f64,
    /// Blue fraction of the final configuration.
    pub final_blue_fraction: f64,
    /// What the adversary did during this replica (`None` on honest runs).
    pub adversary: Option<AdversaryCounters>,
}

/// Aggregate of a Monte-Carlo batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    /// Per-replica outcomes, in replica order.
    pub outcomes: Vec<ReplicaOutcome>,
    /// Fraction of replicas that reached consensus at all.
    pub consensus_rate: f64,
    /// Probability that red (the initial majority in the paper's setting) won,
    /// with a Wilson 95% interval; `None` when no replica reached consensus.
    pub red_win: Option<ProportionEstimate>,
    /// Summary of the consensus times over replicas that reached consensus.
    pub rounds_to_consensus: Option<Summary>,
    /// Adversary counters aggregated across replicas (membership sizes are
    /// per-run constants, event counts sum); `None` on honest batches.
    pub adversary: Option<AdversaryCounters>,
}

impl MonteCarloReport {
    fn from_outcomes(outcomes: Vec<ReplicaOutcome>) -> Self {
        let total = outcomes.len();
        let consensus: Vec<&ReplicaOutcome> =
            outcomes.iter().filter(|o| o.winner.is_some()).collect();
        let consensus_rate = if total == 0 {
            0.0
        } else {
            consensus.len() as f64 / total as f64
        };
        let red_wins = consensus
            .iter()
            .filter(|o| o.winner == Some(Opinion::Red))
            .count();
        let red_win = ProportionEstimate::new(red_wins, consensus.len());
        let rounds: Vec<f64> = consensus.iter().map(|o| o.rounds as f64).collect();
        let rounds_to_consensus = Summary::of(&rounds);
        let mut adversary: Option<AdversaryCounters> = None;
        for counters in outcomes.iter().filter_map(|o| o.adversary.as_ref()) {
            adversary
                .get_or_insert_with(AdversaryCounters::default)
                .merge(counters);
        }
        MonteCarloReport {
            outcomes,
            consensus_rate,
            red_win,
            rounds_to_consensus,
            adversary,
        }
    }

    /// Mean consensus time (rounds), when at least one replica converged.
    pub fn mean_rounds(&self) -> Option<f64> {
        self.rounds_to_consensus.as_ref().map(|s| s.mean)
    }
}

/// A fully described Monte-Carlo experiment on a fixed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarlo {
    /// Which protocol to run.
    pub protocol: ProtocolSpec,
    /// How initial opinions are drawn each replica.
    pub initial: InitialCondition,
    /// Update schedule.
    pub schedule: Schedule,
    /// Stopping condition per replica.
    pub stopping: StoppingCondition,
    /// Number of replicas.
    pub replicas: usize,
    /// Master seed; replica `i` uses the stream `replica_rng(master_seed, i)`.
    pub master_seed: u64,
    /// Number of worker threads (`0` = available parallelism, `1` = sequential).
    pub threads: usize,
    /// Adversarial mechanisms layered over every replica (empty = honest).
    /// Membership sets are identical across replicas (the scenario corrupts
    /// *these* vertices); drop-coin streams vary per replica.
    pub adversary: Vec<AdversarySpec>,
}

impl MonteCarlo {
    /// A reasonable default experiment: Best-of-3, the paper's initial
    /// condition, synchronous updates, consensus within 10⁴ rounds.
    pub fn best_of_three(delta: f64, replicas: usize, master_seed: u64) -> Self {
        MonteCarlo {
            protocol: ProtocolSpec::BestOfThree,
            initial: InitialCondition::BernoulliWithBias { delta },
            schedule: Schedule::Synchronous,
            stopping: StoppingCondition::default(),
            replicas,
            master_seed,
            threads: 0,
            adversary: Vec::new(),
        }
    }

    /// Runs every replica and aggregates the results — sugar for
    /// [`MonteCarlo::run_on_topology`] over the graph's [`CsrTopology`]
    /// adapter.
    pub fn run(&self, graph: &CsrGraph) -> Result<MonteCarloReport> {
        self.run_on_topology(&CsrTopology::new(graph))
    }

    /// Runs every replica on any [`Topology`] — the one Monte-Carlo path:
    /// materialised graphs (via [`CsrTopology`] or a built spec) and the
    /// adjacency-free implicit families, either [`Schedule`], every
    /// [`InitialCondition`] (degree-ranked placements resolve through the
    /// topology's degree oracle where no graph exists).
    pub fn run_on_topology<T: Topology>(&self, topo: &T) -> Result<MonteCarloReport> {
        // Split the worker budget between replica-level parallelism and
        // per-replica round parallelism: with many replicas the efficient
        // direction is across replicas (each replica single-threaded); with
        // few replicas on a huge topology the leftover workers parallelise
        // the round chunks instead.  The engine is bit-identical at any
        // thread count, so this split never changes the report.  Caveats on
        // the intra-replica share: graph-backed replicas ignore it (the
        // caller-RNG compatibility flavour is sequential by construction —
        // one RNG stream drives the whole run), and asynchronous rounds are
        // sequential by definition; only seeded synchronous rounds on
        // adjacency-free topologies actually fan out.
        let threads = resolve_threads(self.threads);
        let outer = threads.min(self.replicas.max(1));
        let intra = (threads / outer).max(1);
        self.run_replicas(outer, &|replica| {
            self.replica_on_topology(topo, replica, intra)
        })
    }

    /// Runs the batch under a [`RunBudget`], resumable from a
    /// [`BatchCheckpoint`] — the crash-safe flavour of
    /// [`MonteCarlo::run_on_topology`].
    ///
    /// Replicas execute sequentially (in replica order) so the pause point is
    /// well defined; the worker budget parallelises round chunks *within*
    /// seeded replicas instead, and the engine is bit-identical at any thread
    /// count, so the report matches [`MonteCarlo::run_on_topology`] exactly.
    /// Seeded (adjacency-free) replicas pause at any round boundary and hand
    /// back a mid-run [`RunCheckpoint`]; graph-backed caller-RNG replicas run
    /// atomically and the batch pauses at the next replica boundary.  A
    /// checkpoint this batch could not have produced — another version,
    /// completed replicas out of order or too many, a mid-run replica past
    /// the last or of another protocol — is a typed error, never a silently
    /// different report.
    pub fn run_on_topology_resumable<T: Topology>(
        &self,
        topo: &T,
        resume: Option<BatchCheckpoint>,
        budget: &RunBudget,
    ) -> Result<BatchOutcome> {
        let (mut outcomes, mut current) = match resume {
            Some(ckpt) => {
                self.check_checkpoint(&ckpt)?;
                (ckpt.completed, ckpt.current)
            }
            None => (Vec::new(), None),
        };
        if topo.as_graph().is_some() && current.is_some() {
            return Err(DynamicsError::InvalidParameter {
                reason: "graph-backed replicas run caller-RNG and are never checkpointed mid-run"
                    .to_string(),
            });
        }
        let threads = resolve_threads(self.threads);
        while outcomes.len() < self.replicas {
            let replica = outcomes.len();
            // A replica boundary is a yield point too: starting a fresh
            // replica after the flag flipped would waste the whole run.
            if current.is_none() && budget.interrupted() {
                return Ok(BatchOutcome::Paused(BatchCheckpoint {
                    version: BATCH_CHECKPOINT_VERSION,
                    completed: outcomes,
                    current: None,
                }));
            }
            match self.replica_run(topo, replica, threads, current.take(), budget)? {
                RunOutcome::Completed(result) => {
                    outcomes.push(Self::outcome_of(replica, result));
                }
                RunOutcome::Paused(ckpt) => {
                    return Ok(BatchOutcome::Paused(BatchCheckpoint {
                        version: BATCH_CHECKPOINT_VERSION,
                        completed: outcomes,
                        current: Some(*ckpt),
                    }));
                }
            }
        }
        Ok(BatchOutcome::Completed(MonteCarloReport::from_outcomes(
            outcomes,
        )))
    }

    /// Refuses a batch checkpoint this batch could not have produced: a
    /// different layout version, more completed replicas than the batch
    /// has, completed replicas out of order, or a mid-run replica beyond
    /// the last one or running another protocol.  Each would otherwise
    /// resume into a silently different report.
    fn check_checkpoint(&self, ckpt: &BatchCheckpoint) -> Result<()> {
        let bad = |reason: String| Err(DynamicsError::InvalidParameter { reason });
        if ckpt.version != BATCH_CHECKPOINT_VERSION {
            return bad(format!(
                "batch checkpoint version {} does not match {}",
                ckpt.version, BATCH_CHECKPOINT_VERSION
            ));
        }
        if ckpt.completed.len() > self.replicas {
            return bad(format!(
                "batch checkpoint holds {} completed replicas but the batch has {}",
                ckpt.completed.len(),
                self.replicas
            ));
        }
        if let Some((i, o)) = ckpt
            .completed
            .iter()
            .enumerate()
            .find(|(i, o)| o.replica != *i)
        {
            return bad(format!(
                "batch checkpoint lists replica {} in completed slot {i}",
                o.replica
            ));
        }
        if ckpt.current.is_some() && ckpt.completed.len() == self.replicas {
            return bad(format!(
                "batch checkpoint carries a mid-run replica but all {} replicas completed",
                self.replicas
            ));
        }
        if let Some(current) = ckpt.current.as_ref() {
            if current.protocol != self.protocol.kind() {
                return bad(format!(
                    "batch checkpoint's mid-run replica runs {:?} but the batch runs {:?}",
                    current.protocol,
                    self.protocol.kind()
                ));
            }
        }
        Ok(())
    }

    /// Drives the batch to completion under a [`RunBudget`], reporting a
    /// [`BatchProgress`] sample at every slice boundary — the cooperative
    /// flavour a long-running service wants: the budget's slice cap sets the
    /// yield cadence, the callback streams progress, and the cancel/drain
    /// flags still interrupt the drive (returning
    /// [`BatchOutcome::Paused`] so the caller can persist or discard the
    /// checkpoint).
    ///
    /// The progress callback only *observes* checkpoints — replica seeding
    /// and round streams are untouched — so the completed report is
    /// bit-identical to [`MonteCarlo::run_on_topology`] (and to
    /// [`MonteCarlo::run_on_topology_resumable`] driven by hand), whatever
    /// the slice size or thread count.
    pub fn run_on_topology_cooperative<T: Topology>(
        &self,
        topo: &T,
        resume: Option<BatchCheckpoint>,
        budget: &RunBudget,
        on_progress: &mut dyn FnMut(&BatchProgress),
    ) -> Result<BatchOutcome> {
        let mut resume = resume;
        loop {
            match self.run_on_topology_resumable(topo, resume.take(), budget)? {
                BatchOutcome::Completed(report) => return Ok(BatchOutcome::Completed(report)),
                BatchOutcome::Paused(ckpt) => {
                    if budget.interrupted() {
                        return Ok(BatchOutcome::Paused(ckpt));
                    }
                    on_progress(&BatchProgress::of(&ckpt, self.replicas));
                    resume = Some(ckpt);
                }
            }
        }
    }

    /// Summarises a finished run as the replica's outcome row.
    fn outcome_of(replica: usize, result: RunResult) -> ReplicaOutcome {
        ReplicaOutcome {
            replica,
            winner: result.winner,
            rounds: result.rounds,
            initial_blue_fraction: result.initial_blue_fraction,
            final_blue_fraction: result.final_blue_fraction,
            adversary: result.adversary,
        }
    }

    /// Shared replica driver: executes `run_one` for every replica index,
    /// sequentially or across the worker pool, preserving replica order.
    /// `workers` is the replica-level worker count, already capped by the
    /// caller (the callers are the only places the thread-budget split is
    /// decided).
    fn run_replicas(
        &self,
        workers: usize,
        run_one: &(dyn Fn(usize) -> Result<ReplicaOutcome> + Sync),
    ) -> Result<MonteCarloReport> {
        if workers <= 1 {
            let mut outcomes = Vec::with_capacity(self.replicas);
            for replica in 0..self.replicas {
                outcomes.push(run_one(replica)?);
            }
            return Ok(MonteCarloReport::from_outcomes(outcomes));
        }

        let next_replica = std::sync::atomic::AtomicUsize::new(0);
        let results: parking_lot::Mutex<Vec<Option<Result<ReplicaOutcome>>>> =
            parking_lot::Mutex::new((0..self.replicas).map(|_| None).collect());

        crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let replica = next_replica.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if replica >= self.replicas {
                        break;
                    }
                    let outcome = run_one(replica);
                    results.lock()[replica] = Some(outcome);
                });
            }
        })
        .expect("Monte-Carlo worker panicked");

        let mut outcomes = Vec::with_capacity(self.replicas);
        for slot in results.into_inner() {
            outcomes.push(slot.expect("replica not executed")?);
        }
        Ok(MonteCarloReport::from_outcomes(outcomes))
    }

    /// Runs a single replica on a topology (deterministic in
    /// `(master_seed, replica)` — and independent of every thread count
    /// involved).
    pub fn run_one_on_topology<T: Topology>(
        &self,
        topo: &T,
        replica: usize,
    ) -> Result<ReplicaOutcome> {
        self.replica_on_topology(topo, replica, 1)
    }

    /// [`MonteCarlo::run_one_on_topology`] with an explicit per-replica
    /// worker count for the round chunks (the outcome does not depend on it;
    /// only the wall clock does).
    fn replica_on_topology<T: Topology>(
        &self,
        topo: &T,
        replica: usize,
        threads: usize,
    ) -> Result<ReplicaOutcome> {
        let outcome = self.replica_run(topo, replica, threads, None, &RunBudget::unlimited())?;
        let result = outcome
            .completed()
            .expect("an unlimited budget never pauses");
        Ok(Self::outcome_of(replica, result))
    }

    /// Runs replica `replica` under `budget`, or resumes it from its
    /// mid-run checkpoint — the one replica set-up behind every batch
    /// driver.  The two RNG flavours are documented in the module docs:
    /// a graph-backed replica's stream drives the whole run (the
    /// pre-unification materialised pipeline, bit for bit), so it runs to
    /// completion whatever the budget; an adjacency-free replica hands the
    /// run one derived master seed, so its rounds use the chunk-seeded
    /// engine streams and pause under the budget.
    fn replica_run<T: Topology>(
        &self,
        topo: &T,
        replica: usize,
        threads: usize,
        resume: Option<RunCheckpoint>,
        budget: &RunBudget,
    ) -> Result<RunOutcome> {
        let mut engine = Engine::new(topo)?
            .with_schedule(self.schedule)
            .with_stopping(self.stopping)
            .with_threads(threads);
        if let Some(adv) = self.adversary_for_replica(topo.n(), replica)? {
            engine = engine.with_adversary(adv);
        }
        if let Some(ckpt) = resume {
            return engine.resume(&ckpt, budget);
        }
        let mut rng = replica_rng(self.master_seed, replica as u64);
        let initial = self.initial.sample_topology(topo, &mut rng)?;
        if topo.as_graph().is_some() {
            // Built from a spec, the boxed protocol reports its
            // `ProtocolKind`, so every round still takes the kernel path.
            // Checked first: building an out-of-range Best-of-k panics.
            engine.check_kind(self.protocol.kind())?;
            let protocol = self.protocol.build();
            let result = engine.run(protocol.as_ref(), initial, &mut rng)?;
            return Ok(RunOutcome::Completed(result));
        }
        let run_seed = rng.next_u64();
        engine.run_seeded_kind_budgeted(self.protocol.kind(), initial, run_seed, budget)
    }

    /// Compiles the adversary list for one replica.  The membership seed is
    /// shared by every replica — the scenario corrupts a fixed vertex set —
    /// while the drop-coin stream seed varies per replica so lossy runs stay
    /// independent across the batch.
    fn adversary_for_replica(&self, n: usize, replica: usize) -> Result<Option<Adversary>> {
        if self.adversary.is_empty() {
            return Ok(None);
        }
        let base = self.master_seed ^ ADVERSARY_SEED_SALT;
        let membership_seed = stream_id(base, 0, 0);
        let stream_seed = stream_id(base, replica as u64, 1);
        Ok(Some(
            Adversary::build(&self.adversary, n, membership_seed)?.with_stream_seed(stream_seed),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_graph::generators;

    #[test]
    fn best_of_three_on_dense_graph_red_wins_every_time() {
        let g = generators::complete(300);
        let mc = MonteCarlo::best_of_three(0.15, 20, 7);
        let report = mc.run(&g).unwrap();
        assert_eq!(report.outcomes.len(), 20);
        assert!((report.consensus_rate - 1.0).abs() < 1e-12);
        let red = report.red_win.unwrap();
        assert_eq!(red.successes, red.trials, "red should win every replica");
        assert!(report.mean_rounds().unwrap() < 25.0);
    }

    #[test]
    fn sequential_and_parallel_execution_agree() {
        let g = generators::complete(150);
        let mut mc = MonteCarlo::best_of_three(0.1, 10, 3);
        mc.threads = 1;
        let seq = mc.run(&g).unwrap();
        mc.threads = 4;
        let par = mc.run(&g).unwrap();
        assert_eq!(seq.outcomes, par.outcomes);
    }

    #[test]
    fn replicas_differ_but_are_reproducible() {
        let g = generators::complete(120);
        let mc = MonteCarlo::best_of_three(0.1, 6, 11);
        let a = mc.run(&g).unwrap();
        let b = mc.run(&g).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        // Initial configurations should differ between replicas.
        let fracs: Vec<f64> = a.outcomes.iter().map(|o| o.initial_blue_fraction).collect();
        assert!(fracs.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
    }

    #[test]
    fn voter_model_report_shows_non_trivial_blue_wins() {
        // With 40% blue initially, the voter model lets blue win a
        // non-negligible fraction of the time (proportional-to-share rule),
        // unlike Best-of-3.
        let g = generators::complete(60);
        let mc = MonteCarlo {
            protocol: ProtocolSpec::Voter,
            initial: InitialCondition::ExactCount { blue: 24 },
            schedule: Schedule::Synchronous,
            stopping: StoppingCondition::consensus_within(200_000),
            replicas: 60,
            master_seed: 5,
            threads: 0,
            adversary: Vec::new(),
        };
        let report = mc.run(&g).unwrap();
        assert!((report.consensus_rate - 1.0).abs() < 1e-12);
        let red = report.red_win.unwrap();
        assert!(red.estimate < 0.95, "red win rate {}", red.estimate);
        assert!(red.estimate > 0.30, "red win rate {}", red.estimate);
    }

    #[test]
    fn round_cap_shows_up_as_missing_winner() {
        let g = generators::complete(100);
        let mc = MonteCarlo {
            protocol: ProtocolSpec::BestOfThree,
            initial: InitialCondition::ExactCount { blue: 50 },
            schedule: Schedule::Synchronous,
            stopping: StoppingCondition::fixed_rounds(1),
            replicas: 5,
            master_seed: 1,
            threads: 1,
            adversary: Vec::new(),
        };
        let report = mc.run(&g).unwrap();
        // One round from a dead heat essentially never reaches consensus.
        assert!(report.consensus_rate < 1.0);
        for o in &report.outcomes {
            assert!(o.rounds <= 1);
        }
    }

    #[test]
    fn topology_monte_carlo_sweeps_red_on_implicit_complete() {
        let topo = bo3_graph::Complete::new(2_000).unwrap();
        let mc = MonteCarlo::best_of_three(0.15, 12, 9);
        let report = mc.run_on_topology(&topo).unwrap();
        assert_eq!(report.outcomes.len(), 12);
        assert!((report.consensus_rate - 1.0).abs() < 1e-12);
        let red = report.red_win.unwrap();
        assert_eq!(red.successes, red.trials, "red should win every replica");
    }

    #[test]
    fn topology_monte_carlo_is_thread_count_independent() {
        let topo = bo3_graph::ImplicitGnp::new(1_500, 0.4, 31).unwrap();
        let mut mc = MonteCarlo::best_of_three(0.12, 8, 5);
        mc.threads = 1;
        let seq = mc.run_on_topology(&topo).unwrap();
        mc.threads = 4;
        let par = mc.run_on_topology(&topo).unwrap();
        assert_eq!(seq.outcomes, par.outcomes);
    }

    #[test]
    fn topology_monte_carlo_runs_the_asynchronous_schedule() {
        // The schedule fork that used to reject this lives nowhere any more:
        // the asynchronous ablation runs adjacency-free, reproducibly.
        let topo = bo3_graph::ImplicitGnp::new(1_000, 0.4, 17).unwrap();
        let mut mc = MonteCarlo::best_of_three(0.15, 4, 3);
        mc.schedule = Schedule::AsynchronousRandomOrder;
        let a = mc.run_on_topology(&topo).unwrap();
        let b = mc.run_on_topology(&topo).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert!((a.consensus_rate - 1.0).abs() < 1e-12);
        let red = a.red_win.unwrap();
        assert_eq!(red.successes, red.trials, "red should win every replica");
        // The single-replica entry point agrees with the batch.
        assert_eq!(mc.run_one_on_topology(&topo, 0).unwrap(), a.outcomes[0]);
    }

    #[test]
    fn degree_ranked_initials_run_on_implicit_topologies() {
        // Pre-oracle this was a typed error; now it places through the
        // degree oracle with no Θ(n) scan and runs end to end.
        let topo = bo3_graph::ImplicitSbm::new(2_000, 2, 0.5, 0.4, 5).unwrap();
        let mc = MonteCarlo {
            protocol: ProtocolSpec::BestOfThree,
            initial: InitialCondition::HighestDegreeBlue { blue: 600 },
            schedule: Schedule::Synchronous,
            stopping: StoppingCondition::consensus_within(10_000),
            replicas: 3,
            master_seed: 9,
            threads: 1,
            adversary: Vec::new(),
        };
        let report = mc.run_on_topology(&topo).unwrap();
        assert!((report.consensus_rate - 1.0).abs() < 1e-12);
        for o in &report.outcomes {
            assert!((o.initial_blue_fraction - 0.3).abs() < 1e-12);
        }
    }

    #[test]
    fn resumable_batch_with_unlimited_budget_matches_plain_run() {
        use crate::checkpoint::RunBudget;

        let topo = bo3_graph::ImplicitGnp::new(1_200, 0.4, 21).unwrap();
        let mut mc = MonteCarlo::best_of_three(0.1, 6, 13);
        mc.threads = 1;
        let plain = mc.run_on_topology(&topo).unwrap();
        let resumable = mc
            .run_on_topology_resumable(&topo, None, &RunBudget::unlimited())
            .unwrap()
            .completed()
            .expect("unlimited budget completes");
        assert_eq!(plain, resumable);
    }

    #[test]
    fn resumable_batch_paused_every_round_matches_plain_run() {
        use crate::checkpoint::RunBudget;

        let topo = bo3_graph::ImplicitGnp::new(900, 0.5, 33).unwrap();
        let mut mc = MonteCarlo::best_of_three(0.08, 4, 17);
        mc.threads = 2;
        let plain = mc.run_on_topology(&topo).unwrap();

        // Drive the whole batch one round at a time through checkpoints.
        let budget = RunBudget::rounds_per_slice(1);
        let mut resume = None;
        let mut slices = 0usize;
        let report = loop {
            match mc
                .run_on_topology_resumable(&topo, resume.take(), &budget)
                .unwrap()
            {
                BatchOutcome::Completed(report) => break report,
                BatchOutcome::Paused(ckpt) => {
                    resume = Some(ckpt);
                    slices += 1;
                    assert!(slices < 100_000, "batch failed to make progress");
                }
            }
        };
        assert_eq!(plain, report);
        assert!(slices > 0, "one-round slices must actually pause");
    }

    #[test]
    fn graph_backed_resumable_batch_pauses_at_replica_boundaries() {
        use crate::checkpoint::RunBudget;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let g = generators::complete(120);
        let topo = bo3_graph::CsrTopology::new(&g);
        let mut mc = MonteCarlo::best_of_three(0.12, 5, 29);
        mc.threads = 1;
        let plain = mc.run_on_topology(&topo).unwrap();

        // A pre-set cancel flag pauses before the first replica …
        let flag = Arc::new(AtomicBool::new(true));
        let budget = RunBudget::unlimited().with_cancel_flag(flag.clone());
        let paused = mc
            .run_on_topology_resumable(&topo, None, &budget)
            .unwrap()
            .paused()
            .expect("pre-set flag pauses immediately");
        assert!(paused.completed.is_empty());
        assert!(
            paused.current.is_none(),
            "graph-backed pauses carry no mid-run state"
        );

        // … and resuming with the flag cleared matches the plain run.
        flag.store(false, Ordering::SeqCst);
        let report = mc
            .run_on_topology_resumable(&topo, Some(paused), &budget)
            .unwrap()
            .completed()
            .expect("cleared flag completes");
        assert_eq!(plain, report);
    }

    #[test]
    fn cooperative_drive_matches_plain_run_and_streams_progress() {
        use crate::checkpoint::RunBudget;

        let topo = bo3_graph::ImplicitGnp::new(900, 0.5, 33).unwrap();
        let mut mc = MonteCarlo::best_of_three(0.08, 4, 17);
        mc.threads = 2;
        let plain = mc.run_on_topology(&topo).unwrap();

        let budget = RunBudget::rounds_per_slice(1);
        let mut samples: Vec<BatchProgress> = Vec::new();
        let report = mc
            .run_on_topology_cooperative(&topo, None, &budget, &mut |p| samples.push(*p))
            .unwrap()
            .completed()
            .expect("uninterrupted cooperative drive completes");
        assert_eq!(plain, report);

        // One-round slices sample every round of every replica; the stream
        // is monotone in (replicas_done, round) and carries live fractions.
        assert!(samples.len() > mc.replicas, "{} samples", samples.len());
        assert!(samples
            .windows(2)
            .all(|w| { (w[1].replicas_done, w[1].round) >= (w[0].replicas_done, w[0].round) }));
        assert!(samples.iter().all(|p| p.replicas == mc.replicas
            && p.replica <= mc.replicas
            && (0.0..=1.0).contains(&p.blue_fraction)));
        // Mid-run samples expose the paused configuration's blue fraction.
        assert!(samples
            .windows(2)
            .any(|w| w[0].replica == w[1].replica && w[0].blue_fraction != w[1].blue_fraction));
    }

    #[test]
    fn cooperative_drive_pauses_on_cancel_and_resumes_to_the_same_report() {
        use crate::checkpoint::RunBudget;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let topo = bo3_graph::ImplicitGnp::new(900, 0.5, 41).unwrap();
        let mut mc = MonteCarlo::best_of_three(0.08, 3, 23);
        mc.threads = 1;
        let plain = mc.run_on_topology(&topo).unwrap();

        // Flip the flag from inside the progress callback: the very next
        // slice boundary must surface the checkpoint instead of continuing.
        let flag = Arc::new(AtomicBool::new(false));
        let budget = RunBudget::rounds_per_slice(1).with_cancel_flag(flag.clone());
        let mut seen = 0usize;
        let setter = flag.clone();
        let paused = mc
            .run_on_topology_cooperative(&topo, None, &budget, &mut |_| {
                seen += 1;
                if seen == 3 {
                    setter.store(true, Ordering::SeqCst);
                }
            })
            .unwrap()
            .paused()
            .expect("cancelled drive pauses");
        assert_eq!(seen, 3, "no progress after the flag flipped");

        // Clearing the flag and resuming completes to the identical report.
        flag.store(false, Ordering::SeqCst);
        let report = mc
            .run_on_topology_cooperative(&topo, Some(paused), &budget, &mut |_| {})
            .unwrap()
            .completed()
            .expect("cleared flag completes");
        assert_eq!(plain, report);
    }

    #[test]
    fn resumable_batch_rejects_bad_checkpoints() {
        use crate::checkpoint::RunBudget;

        let topo = bo3_graph::ImplicitGnp::new(500, 0.5, 3).unwrap();
        let mc = MonteCarlo::best_of_three(0.1, 2, 7);

        let wrong_version = BatchCheckpoint {
            version: BATCH_CHECKPOINT_VERSION + 1,
            completed: Vec::new(),
            current: None,
        };
        assert!(mc
            .run_on_topology_resumable(&topo, Some(wrong_version), &RunBudget::unlimited())
            .is_err());

        let plain = mc.run_on_topology(&topo).unwrap();
        let too_many = BatchCheckpoint {
            version: BATCH_CHECKPOINT_VERSION,
            completed: [plain.outcomes.clone(), plain.outcomes.clone()].concat(),
            current: None,
        };
        assert!(mc
            .run_on_topology_resumable(&topo, Some(too_many), &RunBudget::unlimited())
            .is_err());

        // Completed replicas out of order would resume into a report whose
        // rows no longer match their replica indices.
        let swapped = BatchCheckpoint {
            version: BATCH_CHECKPOINT_VERSION,
            completed: vec![plain.outcomes[1], plain.outcomes[0]],
            current: None,
        };
        assert!(matches!(
            mc.run_on_topology_resumable(&topo, Some(swapped), &RunBudget::unlimited()),
            Err(DynamicsError::InvalidParameter { .. })
        ));

        // A mid-run replica past the last one would be silently dropped.
        let mid_run = mc
            .run_on_topology_resumable(&topo, None, &RunBudget::rounds_per_slice(1))
            .unwrap()
            .paused()
            .expect("one-round slices pause")
            .current
            .expect("the pause hits mid-run");
        let overfull = BatchCheckpoint {
            version: BATCH_CHECKPOINT_VERSION,
            completed: plain.outcomes.clone(),
            current: Some(mid_run.clone()),
        };
        assert!(matches!(
            mc.run_on_topology_resumable(&topo, Some(overfull), &RunBudget::unlimited()),
            Err(DynamicsError::InvalidParameter { .. })
        ));

        // A mid-run replica of another protocol would resume silently into
        // that protocol's run.
        let switched = BatchCheckpoint {
            version: BATCH_CHECKPOINT_VERSION,
            completed: Vec::new(),
            current: Some(RunCheckpoint {
                protocol: crate::kernel::ProtocolKind::Voter,
                ..mid_run
            }),
        };
        assert!(matches!(
            mc.run_on_topology_resumable(&topo, Some(switched), &RunBudget::unlimited()),
            Err(DynamicsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn zero_replicas_is_a_valid_degenerate_batch() {
        let g = generators::complete(30);
        let mc = MonteCarlo::best_of_three(0.1, 0, 0);
        let report = mc.run(&g).unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.consensus_rate, 0.0);
        assert!(report.red_win.is_none());
        assert!(report.rounds_to_consensus.is_none());
    }
}
