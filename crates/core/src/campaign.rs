//! Crash-safe campaign runner: a supervised grid of [`Experiment`] cells
//! with checkpoint/resume, per-cell retry, and atomic on-disk artefacts.
//!
//! A campaign at `n = 10⁶` — hundreds of grid cells × replicas — is hours of
//! compute; it is only runnable if a kill at any instant (SIGKILL included)
//! leaves a directory from which the *same* results are reproduced.  Three
//! mechanisms compose to guarantee that:
//!
//! 1. **Determinism** — every cell's seed is a pure function of
//!    `(campaign_seed, cell_index)` ([`cell_seed`]), and the engine's runs
//!    are bit-identical at any thread count, so re-running a cell from
//!    scratch produces byte-identical artefacts.  Checkpoints are therefore
//!    an *optimisation* (bounding lost work), never a correctness
//!    requirement.
//! 2. **Atomic writes** — every artefact (manifest, cell result, cell
//!    checkpoint) is written write-tmp → fsync → atomic-rename → fsync-dir
//!    ([`atomic_write`]); a reader never observes partial JSON.
//! 3. **Supervision** — on restart the runner skips `Done`/`Skipped` cells,
//!    resumes `InFlight` cells from their checkpoint (or their seed when no
//!    checkpoint was flushed before the kill), and retries failing cells
//!    with capped exponential backoff before recording a typed
//!    [`CellStatus::Skipped`] — graceful degradation, never a crashed
//!    campaign.
//!
//! # On-disk layout (all JSON; manifest version 2)
//!
//! ```text
//! <dir>/manifest.json        CampaignManifest — per-cell statuses + meta
//! <dir>/cell_0007.json       CellResult — summary of a Done cell
//! <dir>/cell_0007.ckpt.json  BatchCheckpoint — mid-flight state (deleted
//!                            when the cell completes)
//! <dir>/metrics.json         MetricsRegistry JSON snapshot (observability)
//! <dir>/metrics.prom         The same registry as Prometheus text
//! <dir>/events.jsonl         Structured runner event log
//! ```
//!
//! The JSON forms are pinned by golden snapshot tests below; future format
//! changes must bump the version constants and show up as compat breaks
//! here.  Version-1 manifests (no per-cell meta) are read transparently —
//! the missing meta is zero-filled and the manifest upgrades to v2 on its
//! next write.
//!
//! # Observability
//!
//! The runner records campaign-level metrics (cells done/skipped, attempts,
//! retries, resumes-from-checkpoint, checkpoint flush latency, per-cell
//! wall time) into a [`bo3_obs::MetricsRegistry`] and a structured
//! [`bo3_obs::EventLog`]; both are flushed atomically to the artefacts
//! above whenever `run` returns.  Deterministic outputs (cell results) are
//! unaffected: wall-clock lives only in the manifest meta and the metrics
//! artefacts, which are exactly the files the byte-diff CI jobs exclude.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bo3_obs::{Counter, EventLog, Field, Gauge, Log2Histogram, MetricsRegistry};

use bo3_dynamics::checkpoint::{RunBudget, RunCheckpoint, RUN_CHECKPOINT_VERSION};
use bo3_dynamics::montecarlo::{BatchCheckpoint, BatchOutcome, BATCH_CHECKPOINT_VERSION};
use bo3_dynamics::prelude::{
    AdversaryCounters, MonteCarloReport, Opinion, ProtocolKind, ProtocolSpec, ReplicaOutcome,
    RoundRecord, Schedule, StoppingCondition, Trace,
};

use crate::configio::{
    float, invalid, need, need_f64, need_u32, need_u64, need_usize, obj, tagged, uint, unit,
    FromJson, Json, ToJson,
};
use crate::error::Result;
use crate::experiment::Experiment;

/// Version of the [`CampaignManifest`] layout (bumped on incompatible
/// change; the golden snapshot tests below pin the JSON form).  Version 2
/// added the per-cell [`CellMeta`] array; version-1 manifests still parse
/// (meta zero-filled).
pub const CAMPAIGN_MANIFEST_VERSION: u32 = 2;

/// Derives the seed of cell `index` from the campaign seed — a splitmix64
/// mix, so neighbouring cells share no stream structure and a cell re-run
/// in isolation reproduces its in-campaign results exactly.
pub fn cell_seed(campaign_seed: u64, index: usize) -> u64 {
    splitmix64(campaign_seed.wrapping_add(splitmix64(index as u64 + 1)))
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Capped exponential backoff for failing cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts before a cell is recorded as [`CellStatus::Skipped`].
    pub max_attempts: u32,
    /// Delay before the second attempt (doubles per retry).
    pub base_delay_ms: u64,
    /// Ceiling on the delay.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 100,
            max_delay_ms: 5_000,
        }
    }
}

impl RetryPolicy {
    /// The delay before attempt `attempt` (0-based; attempt 0 has none).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(20);
        self.base_delay_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_delay_ms)
    }
}

/// Lifecycle of one campaign cell, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum CellStatus {
    /// Never started.
    Pending,
    /// Started (and possibly checkpointed) but not finished — the state a
    /// SIGKILL leaves behind; `attempts` counts failed tries so far.
    InFlight {
        /// Failed attempts so far.
        attempts: u32,
    },
    /// Completed; its [`CellResult`] is on disk.
    Done,
    /// Gave up after the retry budget; the campaign continued without it.
    Skipped {
        /// The last attempt's error.
        reason: String,
    },
}

/// Observability meta recorded per cell in the manifest (v2): attempt /
/// resume counts and accumulated wall time.
///
/// Unlike the statuses and cell results, none of this participates in the
/// determinism story — wall time differs run to run by nature, which is why
/// `manifest.json` is deliberately **not** part of the byte-diffed artefact
/// set (the cell result files are).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellMeta {
    /// Attempts started (first try included), across every process that
    /// touched this directory.
    pub attempts: u32,
    /// Times the cell was resumed from an on-disk checkpoint.
    pub resumes: u32,
    /// Accumulated wall time spent driving this cell, in milliseconds.
    pub wall_ms: u64,
}

/// The campaign's persistent ledger: one status per cell plus enough
/// identity to refuse resuming into a different campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignManifest {
    /// Layout version ([`CAMPAIGN_MANIFEST_VERSION`]).
    pub version: u32,
    /// Campaign name (must match on resume).
    pub name: String,
    /// Campaign seed (must match on resume).
    pub campaign_seed: u64,
    /// Per-cell statuses, indexed like `Campaign::cells`.
    pub statuses: Vec<CellStatus>,
    /// Per-cell observability meta, indexed like `statuses` (zero-filled
    /// when a version-1 manifest is read).
    pub cells: Vec<CellMeta>,
}

/// Deterministic summary of one completed cell — exactly the quantities the
/// phase-surface artefact needs, all pure functions of the cell's
/// Monte-Carlo report (no wall-clock, no host data), so a resumed campaign
/// writes byte-identical cell files.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Cell index within the campaign grid.
    pub index: usize,
    /// The cell experiment's name.
    pub name: String,
    /// Replicas run.
    pub replicas: usize,
    /// Fraction of replicas that reached consensus.
    pub consensus_rate: f64,
    /// Red's win rate over converged replicas (`None` when none converged).
    pub red_win_rate: Option<f64>,
    /// Mean rounds to consensus (`None` when none converged).
    pub mean_rounds: Option<f64>,
    /// Mean final blue fraction over all replicas.
    pub mean_final_blue: f64,
    /// Fraction of replicas that ended polarised ([`is_polarised`]).
    pub polarisation_rate: f64,
}

/// The polarisation proxy used by the phase-surface campaign: a replica is
/// polarised when it hit the round cap with the blocks still split — no
/// winner and a final blue fraction away from both consensus corners.
pub fn is_polarised(outcome: &ReplicaOutcome) -> bool {
    outcome.winner.is_none()
        && outcome.final_blue_fraction > 0.25
        && outcome.final_blue_fraction < 0.75
}

impl CellResult {
    /// Summarises a completed cell's Monte-Carlo report.
    pub fn of(index: usize, name: &str, report: &MonteCarloReport) -> Self {
        let total = report.outcomes.len();
        let mean_final_blue = if total == 0 {
            0.0
        } else {
            report
                .outcomes
                .iter()
                .map(|o| o.final_blue_fraction)
                .sum::<f64>()
                / total as f64
        };
        let polarised = report.outcomes.iter().filter(|o| is_polarised(o)).count();
        let polarisation_rate = if total == 0 {
            0.0
        } else {
            polarised as f64 / total as f64
        };
        CellResult {
            index,
            name: name.to_string(),
            replicas: total,
            consensus_rate: report.consensus_rate,
            red_win_rate: report.red_win.map(|p| p.estimate),
            mean_rounds: report.mean_rounds(),
            mean_final_blue,
            polarisation_rate,
        }
    }
}

/// A grid of cells run under one supervisor.
///
/// Build with [`Campaign::new`] and [`Campaign::add_cell`], which stamps
/// each cell's seed from `(campaign_seed, cell_index)` — the property that
/// makes every cell independently re-runnable.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign name (recorded in the manifest).
    pub name: String,
    /// Campaign seed; cells derive theirs via [`cell_seed`].
    pub seed: u64,
    /// Retry policy for failing cells.
    pub retry: RetryPolicy,
    /// The cells, in run order.
    pub cells: Vec<Experiment>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Campaign {
            name: name.into(),
            seed,
            retry: RetryPolicy::default(),
            cells: Vec::new(),
        }
    }

    /// Appends a cell, overriding its seed with
    /// `cell_seed(self.seed, index)`.
    pub fn add_cell(mut self, cell: Experiment) -> Self {
        let index = self.cells.len();
        self.cells.push(cell.seed(cell_seed(self.seed, index)));
        self
    }

    /// Sets the retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// A fresh manifest with every cell pending.
    pub fn fresh_manifest(&self) -> CampaignManifest {
        CampaignManifest {
            version: CAMPAIGN_MANIFEST_VERSION,
            name: self.name.clone(),
            campaign_seed: self.seed,
            statuses: vec![CellStatus::Pending; self.cells.len()],
            cells: vec![CellMeta::default(); self.cells.len()],
        }
    }
}

/// How a [`CampaignRunner::run`] call ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignOutcome {
    /// Every cell is `Done` or `Skipped`.
    Completed,
    /// The cancel flag fired; the directory is resumable with the same
    /// command.
    Interrupted,
}

/// The runner's campaign-wide instruments: registered once at construction,
/// hammered (relaxed atomics only) while cells run, flushed to
/// `metrics.json` / `metrics.prom` / `events.jsonl` whenever a run returns.
struct RunnerMetrics {
    registry: MetricsRegistry,
    events: EventLog,
    cells_total: Arc<Gauge>,
    cells_done: Arc<Counter>,
    cells_skipped: Arc<Counter>,
    attempts_total: Arc<Counter>,
    retries_total: Arc<Counter>,
    resumes_total: Arc<Counter>,
    checkpoint_flush_ns: Arc<Log2Histogram>,
    cell_wall_ns: Arc<Log2Histogram>,
}

impl RunnerMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let cells_total = registry.gauge("campaign_cells", "Cells in the campaign grid");
        let cells_done = registry.counter("campaign_cells_done_total", "Cells completed");
        let cells_skipped = registry.counter(
            "campaign_cells_skipped_total",
            "Cells abandoned after the retry budget",
        );
        let attempts_total =
            registry.counter("campaign_cell_attempts_total", "Cell attempts started");
        let retries_total = registry.counter(
            "campaign_cell_retries_total",
            "Failed cell attempts that were retried with backoff",
        );
        let resumes_total = registry.counter(
            "campaign_cell_resumes_total",
            "Cell attempts resumed from an on-disk checkpoint",
        );
        let checkpoint_flush_ns = registry.histogram(
            "campaign_checkpoint_flush_ns",
            "Checkpoint atomic-write latency (ns)",
        );
        let cell_wall_ns =
            registry.histogram("campaign_cell_wall_ns", "Per-cell-attempt wall time (ns)");
        RunnerMetrics {
            registry,
            events: EventLog::default(),
            cells_total,
            cells_done,
            cells_skipped,
            attempts_total,
            retries_total,
            resumes_total,
            checkpoint_flush_ns,
            cell_wall_ns,
        }
    }
}

/// Supervises a [`Campaign`] against an on-disk directory.
pub struct CampaignRunner {
    campaign: Campaign,
    dir: PathBuf,
    cancel: Arc<AtomicBool>,
    rounds_per_slice: Option<usize>,
    metrics: RunnerMetrics,
}

impl std::fmt::Debug for CampaignRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignRunner")
            .field("campaign", &self.campaign)
            .field("dir", &self.dir)
            .field("rounds_per_slice", &self.rounds_per_slice)
            .finish_non_exhaustive()
    }
}

impl CampaignRunner {
    /// A runner for `campaign` persisting into `dir` (created on first run).
    pub fn new(campaign: Campaign, dir: impl Into<PathBuf>) -> Self {
        CampaignRunner {
            campaign,
            dir: dir.into(),
            cancel: Arc::new(AtomicBool::new(false)),
            rounds_per_slice: None,
            metrics: RunnerMetrics::new(),
        }
    }

    /// Checkpoint the in-flight cell every `rounds` engine rounds, bounding
    /// the work a SIGKILL can lose (`None` = only on cancellation).
    pub fn rounds_per_slice(mut self, rounds: usize) -> Self {
        self.rounds_per_slice = Some(rounds);
        self
    }

    /// Uses `flag` as the cancel flag instead of the runner's own — lets a
    /// signal handler own the flag (a handler can reach a `static` but not
    /// a runner field).
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = flag;
        self
    }

    /// The cancel flag: set it (e.g. from a SIGINT/SIGTERM handler) and the
    /// runner flushes the current checkpoint at the next round boundary and
    /// returns [`CampaignOutcome::Interrupted`].
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// The campaign being run.
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// Path of cell `index`'s result file.
    pub fn cell_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("cell_{index:04}.json"))
    }

    fn checkpoint_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("cell_{index:04}.ckpt.json"))
    }

    /// Path of the campaign-wide metrics JSON snapshot.
    pub fn metrics_json_path(&self) -> PathBuf {
        self.dir.join("metrics.json")
    }

    /// Path of the campaign-wide Prometheus-text exposition.
    pub fn metrics_prom_path(&self) -> PathBuf {
        self.dir.join("metrics.prom")
    }

    /// Path of the structured runner event log.
    pub fn events_path(&self) -> PathBuf {
        self.dir.join("events.jsonl")
    }

    /// The runner's metrics registry — campaign counters, retry/resume
    /// tallies, checkpoint-flush and cell-wall-time histograms.  Callers may
    /// register further instruments alongside; everything lands in the same
    /// `metrics.json` / `metrics.prom` artefacts.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics.registry
    }

    /// The runner's structured event log (flushed to `events.jsonl`).
    pub fn events(&self) -> &EventLog {
        &self.metrics.events
    }

    /// Atomically writes the three observability artefacts.  Called on
    /// every [`CampaignRunner::run`] return; also callable mid-campaign
    /// (the instruments are cumulative).
    pub fn flush_observability(&self) -> Result<()> {
        atomic_write(
            &self.metrics_json_path(),
            &self.metrics.registry.snapshot_json(),
        )?;
        atomic_write(
            &self.metrics_prom_path(),
            &self.metrics.registry.render_prometheus(),
        )?;
        atomic_write(&self.events_path(), &self.metrics.events.to_jsonl())
    }

    fn write_manifest(&self, manifest: &CampaignManifest) -> Result<()> {
        atomic_write(&self.manifest_path(), &manifest.to_json_string())
    }

    /// Loads the manifest, validating it against this campaign; a fresh one
    /// when the directory has none yet.
    pub fn load_manifest(&self) -> Result<CampaignManifest> {
        let path = self.manifest_path();
        if !path.exists() {
            return Ok(self.campaign.fresh_manifest());
        }
        let manifest = CampaignManifest::from_json_str(&fs::read_to_string(&path)?)?;
        if manifest.version != CAMPAIGN_MANIFEST_VERSION {
            return Err(invalid(format!(
                "manifest version {} does not match {}",
                manifest.version, CAMPAIGN_MANIFEST_VERSION
            )));
        }
        if manifest.name != self.campaign.name
            || manifest.campaign_seed != self.campaign.seed
            || manifest.statuses.len() != self.campaign.cells.len()
        {
            return Err(invalid(format!(
                "directory {} holds campaign '{}' (seed {}, {} cells), not '{}' (seed {}, {} \
                 cells)",
                self.dir.display(),
                manifest.name,
                manifest.campaign_seed,
                manifest.statuses.len(),
                self.campaign.name,
                self.campaign.seed,
                self.campaign.cells.len()
            )));
        }
        Ok(manifest)
    }

    /// Runs (or resumes) the campaign until every cell is `Done`/`Skipped`
    /// or the cancel flag fires.
    pub fn run(&self) -> Result<CampaignOutcome> {
        fs::create_dir_all(&self.dir)?;
        let mut manifest = self.load_manifest()?;
        self.metrics
            .cells_total
            .set(self.campaign.cells.len() as i64);
        for index in 0..self.campaign.cells.len() {
            loop {
                match manifest.statuses[index].clone() {
                    CellStatus::Done | CellStatus::Skipped { .. } => break,
                    CellStatus::Pending | CellStatus::InFlight { .. } => {
                        if self.cancel.load(Ordering::SeqCst) {
                            self.write_manifest(&manifest)?;
                            self.metrics.events.event("campaign_interrupted", &[]);
                            self.flush_observability()?;
                            return Ok(CampaignOutcome::Interrupted);
                        }
                        let attempts = match &manifest.statuses[index] {
                            CellStatus::InFlight { attempts } => *attempts,
                            _ => 0,
                        };
                        let resuming = self.checkpoint_path(index).exists();
                        manifest.statuses[index] = CellStatus::InFlight { attempts };
                        manifest.cells[index].attempts += 1;
                        if resuming {
                            manifest.cells[index].resumes += 1;
                            self.metrics.resumes_total.inc();
                            self.metrics
                                .events
                                .event("cell_resume", &[("cell", Field::U64(index as u64))]);
                        }
                        self.write_manifest(&manifest)?;
                        self.metrics.attempts_total.inc();
                        self.metrics.events.event(
                            "cell_start",
                            &[
                                ("cell", Field::U64(index as u64)),
                                ("attempt", Field::U64(u64::from(attempts) + 1)),
                            ],
                        );
                        let started = Instant::now();
                        let outcome = self.drive_cell(index);
                        let wall_ns = started.elapsed().as_nanos() as u64;
                        self.metrics.cell_wall_ns.record(wall_ns);
                        manifest.cells[index].wall_ms += wall_ns / 1_000_000;
                        match outcome {
                            Ok(CampaignOutcome::Interrupted) => {
                                self.write_manifest(&manifest)?;
                                self.metrics.events.event("campaign_interrupted", &[]);
                                self.flush_observability()?;
                                return Ok(CampaignOutcome::Interrupted);
                            }
                            Ok(CampaignOutcome::Completed) => {
                                manifest.statuses[index] = CellStatus::Done;
                                self.write_manifest(&manifest)?;
                                self.metrics.cells_done.inc();
                                self.metrics.events.event(
                                    "cell_done",
                                    &[
                                        ("cell", Field::U64(index as u64)),
                                        ("wall_ns", Field::U64(wall_ns)),
                                    ],
                                );
                            }
                            Err(error) => {
                                // A failed attempt's checkpoint is not
                                // trustworthy — retry from the cell seed.
                                let _ = fs::remove_file(self.checkpoint_path(index));
                                let attempts = attempts + 1;
                                if attempts >= self.campaign.retry.max_attempts {
                                    manifest.statuses[index] = CellStatus::Skipped {
                                        reason: error.to_string(),
                                    };
                                    self.write_manifest(&manifest)?;
                                    self.metrics.cells_skipped.inc();
                                    self.metrics.events.event(
                                        "cell_skipped",
                                        &[
                                            ("cell", Field::U64(index as u64)),
                                            ("reason", Field::Str(&error.to_string())),
                                        ],
                                    );
                                } else {
                                    manifest.statuses[index] = CellStatus::InFlight { attempts };
                                    self.write_manifest(&manifest)?;
                                    self.metrics.retries_total.inc();
                                    let backoff_ms = self.campaign.retry.delay_ms(attempts);
                                    self.metrics.events.event(
                                        "cell_retry",
                                        &[
                                            ("cell", Field::U64(index as u64)),
                                            ("attempt", Field::U64(u64::from(attempts))),
                                            ("backoff_ms", Field::U64(backoff_ms)),
                                            ("reason", Field::Str(&error.to_string())),
                                        ],
                                    );
                                    std::thread::sleep(std::time::Duration::from_millis(
                                        backoff_ms,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        self.metrics.events.event("campaign_completed", &[]);
        self.flush_observability()?;
        Ok(CampaignOutcome::Completed)
    }

    /// Runs one cell to completion or interruption, checkpointing at every
    /// slice boundary.  `Ok(Completed)` means the cell's result file is on
    /// disk and its checkpoint removed.
    fn drive_cell(&self, index: usize) -> Result<CampaignOutcome> {
        let cell = &self.campaign.cells[index];
        let built = cell.validated_topology()?;
        let mc = cell.monte_carlo();
        let budget = RunBudget {
            max_rounds_per_slice: self.rounds_per_slice,
            cancel_flag: Some(self.cancel.clone()),
            ..RunBudget::default()
        };
        let ckpt_path = self.checkpoint_path(index);
        let mut resume = if ckpt_path.exists() {
            Some(BatchCheckpoint::from_json_str(&fs::read_to_string(
                &ckpt_path,
            )?)?)
        } else {
            None
        };
        loop {
            match mc.run_on_topology_resumable(&built, resume.take(), &budget)? {
                BatchOutcome::Completed(report) => {
                    let result = CellResult::of(index, &cell.name, &report);
                    atomic_write(&self.cell_path(index), &result.to_json_string())?;
                    let _ = fs::remove_file(&ckpt_path);
                    return Ok(CampaignOutcome::Completed);
                }
                BatchOutcome::Paused(checkpoint) => {
                    let flush_started = Instant::now();
                    atomic_write(&ckpt_path, &checkpoint.to_json_string())?;
                    self.metrics
                        .checkpoint_flush_ns
                        .record(flush_started.elapsed().as_nanos() as u64);
                    if self.cancel.load(Ordering::SeqCst) {
                        return Ok(CampaignOutcome::Interrupted);
                    }
                    resume = Some(checkpoint);
                }
            }
        }
    }

    /// Loads every completed cell's result (`None` for skipped or
    /// unfinished cells), indexed like the campaign's cells.
    pub fn load_results(&self) -> Result<Vec<Option<CellResult>>> {
        let mut results = Vec::with_capacity(self.campaign.cells.len());
        for index in 0..self.campaign.cells.len() {
            let path = self.cell_path(index);
            results.push(if path.exists() {
                Some(CellResult::from_json_str(&fs::read_to_string(&path)?)?)
            } else {
                None
            });
        }
        Ok(results)
    }
}

/// Writes `text` to `path` crash-safely: write to `<path>.tmp`, fsync,
/// atomically rename over `path`, then fsync the directory so the rename
/// itself is durable.  A kill at any instant leaves either the old file,
/// the new file, or a stray `.tmp` — never a partial `path`.
pub fn atomic_write(path: &Path, text: &str) -> Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // Directory fsync is what makes the rename durable on POSIX; best
        // effort elsewhere (opening a directory read-only can fail on
        // non-POSIX platforms, and the rename is already atomic there).
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

// --- JSON: campaign types -----------------------------------------------

impl ToJson for RetryPolicy {
    fn to_json(&self) -> Json {
        obj(vec![
            ("max_attempts", Json::UInt(self.max_attempts as u64)),
            ("base_delay_ms", Json::UInt(self.base_delay_ms)),
            ("max_delay_ms", Json::UInt(self.max_delay_ms)),
        ])
    }
}

impl FromJson for RetryPolicy {
    fn from_json(json: &Json) -> Result<Self> {
        Ok(RetryPolicy {
            max_attempts: need_u32(json, "max_attempts", "RetryPolicy")?,
            base_delay_ms: need_u64(json, "base_delay_ms", "RetryPolicy")?,
            max_delay_ms: need_u64(json, "max_delay_ms", "RetryPolicy")?,
        })
    }
}

impl ToJson for CellStatus {
    fn to_json(&self) -> Json {
        match self {
            CellStatus::Pending => unit("Pending"),
            CellStatus::InFlight { attempts } => tagged(
                "InFlight",
                obj(vec![("attempts", Json::UInt(*attempts as u64))]),
            ),
            CellStatus::Done => unit("Done"),
            CellStatus::Skipped { reason } => {
                tagged("Skipped", obj(vec![("reason", Json::Str(reason.clone()))]))
            }
        }
    }
}

impl FromJson for CellStatus {
    fn from_json(json: &Json) -> Result<Self> {
        let (tag, body) = json.as_variant()?;
        match tag {
            "Pending" => Ok(CellStatus::Pending),
            "Done" => Ok(CellStatus::Done),
            "InFlight" => {
                let body = body.ok_or_else(|| invalid("InFlight requires a payload"))?;
                Ok(CellStatus::InFlight {
                    attempts: need_u32(body, "attempts", "InFlight")?,
                })
            }
            "Skipped" => {
                let body = body.ok_or_else(|| invalid("Skipped requires a payload"))?;
                Ok(CellStatus::Skipped {
                    reason: need(body, "reason", "Skipped")?
                        .as_str()
                        .ok_or_else(|| invalid("Skipped.reason must be a string"))?
                        .to_string(),
                })
            }
            other => Err(invalid(format!("unknown CellStatus variant '{other}'"))),
        }
    }
}

impl ToJson for CellMeta {
    fn to_json(&self) -> Json {
        obj(vec![
            ("attempts", Json::UInt(self.attempts as u64)),
            ("resumes", Json::UInt(self.resumes as u64)),
            ("wall_ms", Json::UInt(self.wall_ms)),
        ])
    }
}

impl FromJson for CellMeta {
    fn from_json(json: &Json) -> Result<Self> {
        Ok(CellMeta {
            attempts: need_u32(json, "attempts", "CellMeta")?,
            resumes: need_u32(json, "resumes", "CellMeta")?,
            wall_ms: need_u64(json, "wall_ms", "CellMeta")?,
        })
    }
}

impl ToJson for CampaignManifest {
    fn to_json(&self) -> Json {
        obj(vec![
            ("version", Json::UInt(self.version as u64)),
            ("name", Json::Str(self.name.clone())),
            ("campaign_seed", Json::UInt(self.campaign_seed)),
            (
                "statuses",
                Json::Arr(self.statuses.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(|m| m.to_json()).collect()),
            ),
        ])
    }
}

impl FromJson for CampaignManifest {
    fn from_json(json: &Json) -> Result<Self> {
        let version = need_u32(json, "version", "CampaignManifest")?;
        if version == 0 || version > CAMPAIGN_MANIFEST_VERSION {
            return Err(invalid(format!(
                "CampaignManifest version {version} is not supported (newest is \
                 {CAMPAIGN_MANIFEST_VERSION})"
            )));
        }
        let statuses = need(json, "statuses", "CampaignManifest")?
            .as_array()
            .ok_or_else(|| invalid("CampaignManifest.statuses must be an array"))?
            .iter()
            .map(CellStatus::from_json)
            .collect::<Result<Vec<_>>>()?;
        // Version 1 predates the per-cell meta array: zero-fill and upgrade,
        // so the next write persists as v2.
        let cells = match json.get("cells") {
            None | Some(Json::Null) => vec![CellMeta::default(); statuses.len()],
            Some(array) => {
                let metas = array
                    .as_array()
                    .ok_or_else(|| invalid("CampaignManifest.cells must be an array"))?
                    .iter()
                    .map(CellMeta::from_json)
                    .collect::<Result<Vec<_>>>()?;
                if metas.len() != statuses.len() {
                    return Err(invalid(format!(
                        "CampaignManifest.cells has {} entries but statuses has {}",
                        metas.len(),
                        statuses.len()
                    )));
                }
                metas
            }
        };
        Ok(CampaignManifest {
            version: CAMPAIGN_MANIFEST_VERSION,
            name: need(json, "name", "CampaignManifest")?
                .as_str()
                .ok_or_else(|| invalid("CampaignManifest.name must be a string"))?
                .to_string(),
            campaign_seed: need_u64(json, "campaign_seed", "CampaignManifest")?,
            statuses,
            cells,
        })
    }
}

fn opt_float(value: Option<f64>) -> Json {
    match value {
        Some(v) => float(v),
        None => Json::Null,
    }
}

fn opt_f64(json: &Json, key: &str, ty: &str) -> Result<Option<f64>> {
    match need(json, key, ty)? {
        Json::Null => Ok(None),
        other => other
            .as_f64()
            .map(Some)
            .ok_or_else(|| invalid(format!("{ty}.{key} must be a number or null"))),
    }
}

impl ToJson for CellResult {
    fn to_json(&self) -> Json {
        obj(vec![
            ("index", uint(self.index)),
            ("name", Json::Str(self.name.clone())),
            ("replicas", uint(self.replicas)),
            ("consensus_rate", float(self.consensus_rate)),
            ("red_win_rate", opt_float(self.red_win_rate)),
            ("mean_rounds", opt_float(self.mean_rounds)),
            ("mean_final_blue", float(self.mean_final_blue)),
            ("polarisation_rate", float(self.polarisation_rate)),
        ])
    }
}

impl FromJson for CellResult {
    fn from_json(json: &Json) -> Result<Self> {
        Ok(CellResult {
            index: need_usize(json, "index", "CellResult")?,
            name: need(json, "name", "CellResult")?
                .as_str()
                .ok_or_else(|| invalid("CellResult.name must be a string"))?
                .to_string(),
            replicas: need_usize(json, "replicas", "CellResult")?,
            consensus_rate: need_f64(json, "consensus_rate", "CellResult")?,
            red_win_rate: opt_f64(json, "red_win_rate", "CellResult")?,
            mean_rounds: opt_f64(json, "mean_rounds", "CellResult")?,
            mean_final_blue: need_f64(json, "mean_final_blue", "CellResult")?,
            polarisation_rate: need_f64(json, "polarisation_rate", "CellResult")?,
        })
    }
}

impl ToJson for Campaign {
    fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("seed", Json::UInt(self.seed)),
            ("retry", self.retry.to_json()),
            (
                "cells",
                Json::Arr(self.cells.iter().map(|c| c.to_json()).collect()),
            ),
        ])
    }
}

impl FromJson for Campaign {
    fn from_json(json: &Json) -> Result<Self> {
        Ok(Campaign {
            name: need(json, "name", "Campaign")?
                .as_str()
                .ok_or_else(|| invalid("Campaign.name must be a string"))?
                .to_string(),
            seed: need_u64(json, "seed", "Campaign")?,
            retry: RetryPolicy::from_json(need(json, "retry", "Campaign")?)?,
            cells: need(json, "cells", "Campaign")?
                .as_array()
                .ok_or_else(|| invalid("Campaign.cells must be an array"))?
                .iter()
                .map(Experiment::from_json)
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

// --- JSON: checkpoint types ---------------------------------------------
//
// `ProtocolKind` serialises through the existing `ProtocolSpec` impl —
// `ProtocolSpec::kind` is total and `kind_to_spec` below inverts it, so the
// checkpoint's protocol field reads exactly like a config file's.

fn kind_to_spec(kind: ProtocolKind) -> ProtocolSpec {
    match kind {
        ProtocolKind::Voter => ProtocolSpec::Voter,
        ProtocolKind::BestOfTwo(tie_rule) => ProtocolSpec::BestOfTwo { tie_rule },
        ProtocolKind::BestOfThree => ProtocolSpec::BestOfThree,
        ProtocolKind::BestOfK { k, tie_rule } => ProtocolSpec::BestOfK { k, tie_rule },
        ProtocolKind::LocalMajority(tie_rule) => ProtocolSpec::LocalMajority { tie_rule },
    }
}

fn opinion_json(winner: Option<Opinion>) -> Json {
    match winner {
        Some(Opinion::Red) => Json::Str("Red".to_string()),
        Some(Opinion::Blue) => Json::Str("Blue".to_string()),
        None => Json::Null,
    }
}

fn opinion_from(json: &Json) -> Result<Option<Opinion>> {
    match json {
        Json::Null => Ok(None),
        Json::Str(s) if s == "Red" => Ok(Some(Opinion::Red)),
        Json::Str(s) if s == "Blue" => Ok(Some(Opinion::Blue)),
        other => Err(invalid(format!(
            "winner must be \"Red\", \"Blue\" or null, got {}",
            other.to_json_string()
        ))),
    }
}

impl ToJson for AdversaryCounters {
    fn to_json(&self) -> Json {
        obj(vec![
            ("zealots", uint(self.zealots)),
            ("byzantine", uint(self.byzantine)),
            ("dropped_samples", Json::UInt(self.dropped_samples)),
            ("partition_rounds", Json::UInt(self.partition_rounds)),
        ])
    }
}

impl FromJson for AdversaryCounters {
    fn from_json(json: &Json) -> Result<Self> {
        Ok(AdversaryCounters {
            zealots: need_usize(json, "zealots", "AdversaryCounters")?,
            byzantine: need_usize(json, "byzantine", "AdversaryCounters")?,
            dropped_samples: need_u64(json, "dropped_samples", "AdversaryCounters")?,
            partition_rounds: need_u64(json, "partition_rounds", "AdversaryCounters")?,
        })
    }
}

impl ToJson for ReplicaOutcome {
    fn to_json(&self) -> Json {
        obj(vec![
            ("replica", uint(self.replica)),
            ("winner", opinion_json(self.winner)),
            ("rounds", uint(self.rounds)),
            ("initial_blue_fraction", float(self.initial_blue_fraction)),
            ("final_blue_fraction", float(self.final_blue_fraction)),
            (
                "adversary",
                match &self.adversary {
                    Some(counters) => counters.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl FromJson for ReplicaOutcome {
    fn from_json(json: &Json) -> Result<Self> {
        Ok(ReplicaOutcome {
            replica: need_usize(json, "replica", "ReplicaOutcome")?,
            winner: opinion_from(need(json, "winner", "ReplicaOutcome")?)?,
            rounds: need_usize(json, "rounds", "ReplicaOutcome")?,
            initial_blue_fraction: need_f64(json, "initial_blue_fraction", "ReplicaOutcome")?,
            final_blue_fraction: need_f64(json, "final_blue_fraction", "ReplicaOutcome")?,
            adversary: match need(json, "adversary", "ReplicaOutcome")? {
                Json::Null => None,
                counters => Some(AdversaryCounters::from_json(counters)?),
            },
        })
    }
}

impl ToJson for RoundRecord {
    fn to_json(&self) -> Json {
        obj(vec![
            ("round", uint(self.round)),
            ("blue_count", uint(self.blue_count)),
            ("red_count", uint(self.red_count)),
            ("blue_fraction", float(self.blue_fraction)),
            ("red_bias", float(self.red_bias)),
        ])
    }
}

impl FromJson for RoundRecord {
    fn from_json(json: &Json) -> Result<Self> {
        Ok(RoundRecord {
            round: need_usize(json, "round", "RoundRecord")?,
            blue_count: need_usize(json, "blue_count", "RoundRecord")?,
            red_count: need_usize(json, "red_count", "RoundRecord")?,
            blue_fraction: need_f64(json, "blue_fraction", "RoundRecord")?,
            red_bias: need_f64(json, "red_bias", "RoundRecord")?,
        })
    }
}

impl ToJson for RunCheckpoint {
    fn to_json(&self) -> Json {
        obj(vec![
            ("version", Json::UInt(self.version as u64)),
            ("protocol", kind_to_spec(self.protocol).to_json()),
            ("schedule", self.schedule.to_json()),
            ("stopping", self.stopping.to_json()),
            ("master_seed", Json::UInt(self.master_seed)),
            ("round", uint(self.round)),
            ("n", uint(self.n)),
            (
                "opinion_words",
                Json::Arr(self.opinion_words.iter().map(|&w| Json::UInt(w)).collect()),
            ),
            ("initial_blue_fraction", float(self.initial_blue_fraction)),
            ("dropped_samples", Json::UInt(self.dropped_samples)),
            (
                "trace",
                match &self.trace {
                    Some(trace) => Json::Arr(trace.records().iter().map(|r| r.to_json()).collect()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl FromJson for RunCheckpoint {
    fn from_json(json: &Json) -> Result<Self> {
        let version = need_u32(json, "version", "RunCheckpoint")?;
        if version != RUN_CHECKPOINT_VERSION {
            return Err(invalid(format!(
                "RunCheckpoint version {version} does not match {RUN_CHECKPOINT_VERSION}"
            )));
        }
        Ok(RunCheckpoint {
            version,
            protocol: ProtocolSpec::from_json(need(json, "protocol", "RunCheckpoint")?)?.kind(),
            schedule: Schedule::from_json(need(json, "schedule", "RunCheckpoint")?)?,
            stopping: StoppingCondition::from_json(need(json, "stopping", "RunCheckpoint")?)?,
            master_seed: need_u64(json, "master_seed", "RunCheckpoint")?,
            round: need_usize(json, "round", "RunCheckpoint")?,
            n: need_usize(json, "n", "RunCheckpoint")?,
            opinion_words: need(json, "opinion_words", "RunCheckpoint")?
                .as_array()
                .ok_or_else(|| invalid("RunCheckpoint.opinion_words must be an array"))?
                .iter()
                .map(|w| {
                    w.as_u64()
                        .ok_or_else(|| invalid("RunCheckpoint.opinion_words must hold u64 words"))
                })
                .collect::<Result<Vec<u64>>>()?,
            initial_blue_fraction: need_f64(json, "initial_blue_fraction", "RunCheckpoint")?,
            dropped_samples: need_u64(json, "dropped_samples", "RunCheckpoint")?,
            trace: match need(json, "trace", "RunCheckpoint")? {
                Json::Null => None,
                records => Some(Trace::from_records(
                    records
                        .as_array()
                        .ok_or_else(|| invalid("RunCheckpoint.trace must be an array or null"))?
                        .iter()
                        .map(RoundRecord::from_json)
                        .collect::<Result<Vec<_>>>()?,
                )),
            },
        })
    }
}

impl ToJson for BatchCheckpoint {
    fn to_json(&self) -> Json {
        obj(vec![
            ("version", Json::UInt(self.version as u64)),
            (
                "completed",
                Json::Arr(self.completed.iter().map(|o| o.to_json()).collect()),
            ),
            (
                "current",
                match &self.current {
                    Some(checkpoint) => checkpoint.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl FromJson for BatchCheckpoint {
    fn from_json(json: &Json) -> Result<Self> {
        let version = need_u32(json, "version", "BatchCheckpoint")?;
        if version != BATCH_CHECKPOINT_VERSION {
            return Err(invalid(format!(
                "BatchCheckpoint version {version} does not match {BATCH_CHECKPOINT_VERSION}"
            )));
        }
        Ok(BatchCheckpoint {
            version,
            completed: need(json, "completed", "BatchCheckpoint")?
                .as_array()
                .ok_or_else(|| invalid("BatchCheckpoint.completed must be an array"))?
                .iter()
                .map(ReplicaOutcome::from_json)
                .collect::<Result<Vec<_>>>()?,
            current: match need(json, "current", "BatchCheckpoint")? {
                Json::Null => None,
                checkpoint => Some(RunCheckpoint::from_json(checkpoint)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use bo3_dynamics::prelude::TieRule;
    use bo3_graph::TopologySpec;

    fn quick_cell(name: &str, n: usize) -> Experiment {
        Experiment::on(TopologySpec::Complete { n })
            .named(name)
            .initial(bo3_dynamics::prelude::InitialCondition::BernoulliWithBias { delta: 0.15 })
            .replicas(3)
            .threads(1)
    }

    fn quick_campaign(name: &str) -> Campaign {
        Campaign::new(name, 99)
            .add_cell(quick_cell("cell/a", 400))
            .add_cell(quick_cell("cell/b", 500))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bo3_campaign_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let a = cell_seed(7, 0);
        assert_eq!(a, cell_seed(7, 0));
        let seeds: Vec<u64> = (0..50).map(|i| cell_seed(7, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "cell seeds must not collide");
        assert_ne!(cell_seed(7, 0), cell_seed(8, 0));
    }

    #[test]
    fn retry_policy_backoff_is_capped_exponential() {
        let retry = RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 100,
            max_delay_ms: 450,
        };
        assert_eq!(retry.delay_ms(0), 0);
        assert_eq!(retry.delay_ms(1), 100);
        assert_eq!(retry.delay_ms(2), 200);
        assert_eq!(retry.delay_ms(3), 400);
        assert_eq!(retry.delay_ms(4), 450);
        assert_eq!(retry.delay_ms(30), 450);
    }

    #[test]
    fn campaign_runs_to_completion_and_is_idempotent() {
        let dir = temp_dir("complete");
        let runner = CampaignRunner::new(quick_campaign("unit/complete"), &dir);
        assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);
        let manifest = runner.load_manifest().unwrap();
        assert!(manifest.statuses.iter().all(|s| *s == CellStatus::Done));
        let results = runner.load_results().unwrap();
        assert_eq!(results.len(), 2);
        let first = results[0].clone().unwrap();
        assert_eq!(first.replicas, 3);
        assert!((first.consensus_rate - 1.0).abs() < 1e-12);

        // Re-running skips every Done cell and leaves the artefacts
        // byte-identical.
        let before = fs::read_to_string(runner.cell_path(0)).unwrap();
        assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);
        assert_eq!(fs::read_to_string(runner.cell_path(0)).unwrap(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_cell_retries_then_skips_and_the_campaign_continues() {
        let dir = temp_dir("skip");
        // replicas(0) fails validation on every attempt.
        let campaign = Campaign::new("unit/skip", 5)
            .add_cell(quick_cell("cell/bad", 300).replicas(0))
            .add_cell(quick_cell("cell/good", 300))
            .retry(RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 0,
                max_delay_ms: 0,
            });
        let runner = CampaignRunner::new(campaign, &dir);
        assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);
        let manifest = runner.load_manifest().unwrap();
        match &manifest.statuses[0] {
            CellStatus::Skipped { reason } => assert!(reason.contains("replica"), "{reason}"),
            other => panic!("expected Skipped, got {other:?}"),
        }
        assert_eq!(manifest.statuses[1], CellStatus::Done);
        let results = runner.load_results().unwrap();
        assert!(results[0].is_none());
        assert!(results[1].is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupting_between_cells_resumes_to_identical_artefacts() {
        let dir_oneshot = temp_dir("oneshot");
        let runner = CampaignRunner::new(quick_campaign("unit/resume"), &dir_oneshot);
        assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);

        // Interrupted run: cancel immediately (pauses before any cell), then
        // clear and resume — a fresh runner, as a restarted process would.
        let dir_resumed = temp_dir("resumed");
        let interrupted = CampaignRunner::new(quick_campaign("unit/resume"), &dir_resumed);
        interrupted.cancel_flag().store(true, Ordering::SeqCst);
        assert_eq!(interrupted.run().unwrap(), CampaignOutcome::Interrupted);
        let resumed = CampaignRunner::new(quick_campaign("unit/resume"), &dir_resumed);
        assert_eq!(resumed.run().unwrap(), CampaignOutcome::Completed);

        for index in 0..2 {
            assert_eq!(
                fs::read_to_string(runner.cell_path(index)).unwrap(),
                fs::read_to_string(resumed.cell_path(index)).unwrap(),
                "cell {index}"
            );
        }
        let _ = fs::remove_dir_all(&dir_oneshot);
        let _ = fs::remove_dir_all(&dir_resumed);
    }

    #[test]
    fn completed_campaign_writes_observability_artefacts_and_cell_meta() {
        let dir = temp_dir("obs");
        let runner = CampaignRunner::new(quick_campaign("unit/obs"), &dir);
        assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);

        let manifest = runner.load_manifest().unwrap();
        assert_eq!(manifest.version, CAMPAIGN_MANIFEST_VERSION);
        assert_eq!(manifest.cells.len(), 2);
        for meta in &manifest.cells {
            assert_eq!(meta.attempts, 1);
            assert_eq!(meta.resumes, 0);
        }

        let json = fs::read_to_string(runner.metrics_json_path()).unwrap();
        assert!(json.contains("\"campaign_cells_done_total\":2"));
        assert!(json.contains("\"campaign_cell_attempts_total\":2"));
        assert!(json.contains("\"counters\""));
        let prom = fs::read_to_string(runner.metrics_prom_path()).unwrap();
        assert!(prom.contains("# TYPE campaign_cells_done_total counter"));
        assert!(prom.contains("campaign_cell_wall_ns_count 2"));
        let events = fs::read_to_string(runner.events_path()).unwrap();
        assert_eq!(
            events
                .lines()
                .filter(|l| l.contains("\"event\":\"cell_done\""))
                .count(),
            2
        );
        assert!(events.ends_with('\n'));
        assert!(events.contains("\"event\":\"campaign_completed\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_attempts_are_counted_in_cell_meta_and_events() {
        let dir = temp_dir("obs_retry");
        let campaign = Campaign::new("unit/obs_retry", 5)
            .add_cell(quick_cell("cell/bad", 300).replicas(0))
            .retry(RetryPolicy {
                max_attempts: 2,
                base_delay_ms: 0,
                max_delay_ms: 0,
            });
        let runner = CampaignRunner::new(campaign, &dir);
        assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);
        let manifest = runner.load_manifest().unwrap();
        assert_eq!(manifest.cells[0].attempts, 2);
        let json = fs::read_to_string(runner.metrics_json_path()).unwrap();
        assert!(json.contains("\"campaign_cell_retries_total\":1"));
        assert!(json.contains("\"campaign_cells_skipped_total\":1"));
        let events = fs::read_to_string(runner.events_path()).unwrap();
        assert!(events.contains("\"event\":\"cell_retry\""));
        assert!(events.contains("\"event\":\"cell_skipped\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_refuses_a_different_campaign() {
        let dir = temp_dir("mismatch");
        let runner = CampaignRunner::new(quick_campaign("unit/mismatch"), &dir);
        assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);
        let other = CampaignRunner::new(Campaign::new("unit/other", 99), &dir);
        assert!(matches!(other.run(), Err(CoreError::InvalidConfig { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_without_leaving_tmp() {
        let dir = temp_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.json");
        atomic_write(&path, "{\"a\":1}").unwrap();
        atomic_write(&path, "{\"a\":2}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"a\":2}");
        assert!(!path.with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    // --- golden snapshots -----------------------------------------------

    #[test]
    fn golden_v2_manifest_snapshot() {
        let manifest = CampaignManifest {
            version: 2,
            name: "e18/quick".to_string(),
            campaign_seed: 42,
            statuses: vec![
                CellStatus::Done,
                CellStatus::InFlight { attempts: 1 },
                CellStatus::Pending,
                CellStatus::Skipped {
                    reason: "boom".to_string(),
                },
            ],
            cells: vec![
                CellMeta {
                    attempts: 1,
                    resumes: 0,
                    wall_ms: 12,
                },
                CellMeta {
                    attempts: 2,
                    resumes: 1,
                    wall_ms: 7,
                },
                CellMeta::default(),
                CellMeta {
                    attempts: 3,
                    resumes: 0,
                    wall_ms: 4,
                },
            ],
        };
        let expected = "{\"version\":2,\"name\":\"e18/quick\",\"campaign_seed\":42,\
                        \"statuses\":[\"Done\",{\"InFlight\":{\"attempts\":1}},\"Pending\",\
                        {\"Skipped\":{\"reason\":\"boom\"}}],\
                        \"cells\":[{\"attempts\":1,\"resumes\":0,\"wall_ms\":12},\
                        {\"attempts\":2,\"resumes\":1,\"wall_ms\":7},\
                        {\"attempts\":0,\"resumes\":0,\"wall_ms\":0},\
                        {\"attempts\":3,\"resumes\":0,\"wall_ms\":4}]}";
        assert_eq!(manifest.to_json_string(), expected);
        assert_eq!(CampaignManifest::from_json_str(expected).unwrap(), manifest);
    }

    #[test]
    fn v1_manifest_upgrades_with_zeroed_meta() {
        let v1 = "{\"version\":1,\"name\":\"e18/quick\",\"campaign_seed\":42,\
                  \"statuses\":[\"Done\",\"Pending\"]}";
        let manifest = CampaignManifest::from_json_str(v1).unwrap();
        assert_eq!(manifest.version, CAMPAIGN_MANIFEST_VERSION);
        assert_eq!(manifest.statuses.len(), 2);
        assert_eq!(manifest.cells, vec![CellMeta::default(); 2]);
        // A future (unknown) version is a typed error, not a zero-fill.
        let v9 = "{\"version\":9,\"name\":\"x\",\"campaign_seed\":0,\"statuses\":[]}";
        assert!(matches!(
            CampaignManifest::from_json_str(v9),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn golden_v1_cell_result_snapshot() {
        let result = CellResult {
            index: 7,
            name: "sync/uniform/r5/d0.1".to_string(),
            replicas: 8,
            consensus_rate: 0.75,
            red_win_rate: Some(1.0),
            mean_rounds: None,
            mean_final_blue: 0.25,
            polarisation_rate: 0.125,
        };
        let expected = "{\"index\":7,\"name\":\"sync/uniform/r5/d0.1\",\"replicas\":8,\
                        \"consensus_rate\":0.75,\"red_win_rate\":1.0,\"mean_rounds\":null,\
                        \"mean_final_blue\":0.25,\"polarisation_rate\":0.125}";
        assert_eq!(result.to_json_string(), expected);
        assert_eq!(CellResult::from_json_str(expected).unwrap(), result);
    }

    #[test]
    fn golden_v1_checkpoint_snapshot() {
        let checkpoint = BatchCheckpoint {
            version: 1,
            completed: vec![ReplicaOutcome {
                replica: 0,
                winner: Some(Opinion::Red),
                rounds: 9,
                initial_blue_fraction: 0.375,
                final_blue_fraction: 0.0,
                adversary: Some(AdversaryCounters {
                    zealots: 4,
                    byzantine: 0,
                    dropped_samples: 17,
                    partition_rounds: 0,
                }),
            }],
            current: Some(RunCheckpoint {
                version: 1,
                protocol: ProtocolKind::BestOfThree,
                schedule: Schedule::Synchronous,
                stopping: StoppingCondition::consensus_within(100),
                master_seed: 123456789,
                round: 3,
                n: 70,
                opinion_words: vec![0xDEAD_BEEF, 0x3F],
                initial_blue_fraction: 0.4,
                dropped_samples: 2,
                trace: None,
            }),
        };
        let expected = "{\"version\":1,\"completed\":[{\"replica\":0,\"winner\":\"Red\",\
                        \"rounds\":9,\"initial_blue_fraction\":0.375,\"final_blue_fraction\":0.0,\
                        \"adversary\":{\"zealots\":4,\"byzantine\":0,\"dropped_samples\":17,\
                        \"partition_rounds\":0}}],\"current\":{\"version\":1,\
                        \"protocol\":\"BestOfThree\",\"schedule\":\"Synchronous\",\
                        \"stopping\":{\"max_rounds\":100,\"stop_on_consensus\":true,\
                        \"blue_fraction_floor\":null},\"master_seed\":123456789,\"round\":3,\
                        \"n\":70,\"opinion_words\":[3735928559,63],\
                        \"initial_blue_fraction\":0.4,\"dropped_samples\":2,\"trace\":null}}";
        assert_eq!(checkpoint.to_json_string(), expected);
        assert_eq!(
            BatchCheckpoint::from_json_str(expected).unwrap(),
            checkpoint
        );
    }

    #[test]
    fn checkpoint_with_trace_round_trips() {
        let checkpoint = RunCheckpoint {
            version: 1,
            protocol: ProtocolKind::BestOfTwo(TieRule::Random),
            schedule: Schedule::AsynchronousRandomOrder,
            stopping: StoppingCondition::fixed_rounds(5),
            master_seed: u64::MAX,
            round: 2,
            n: 4,
            opinion_words: vec![0b1010],
            initial_blue_fraction: 0.5,
            dropped_samples: 0,
            trace: Some(Trace::from_records(vec![
                RoundRecord {
                    round: 0,
                    blue_count: 2,
                    red_count: 2,
                    blue_fraction: 0.5,
                    red_bias: 0.0,
                },
                RoundRecord {
                    round: 1,
                    blue_count: 1,
                    red_count: 3,
                    blue_fraction: 0.25,
                    red_bias: 0.25,
                },
            ])),
        };
        let text = checkpoint.to_json_string();
        assert_eq!(RunCheckpoint::from_json_str(&text).unwrap(), checkpoint);
        // The 64-bit extremes survive (no float round-trip for seeds).
        assert!(text.contains(&u64::MAX.to_string()));
    }

    #[test]
    fn version_mismatches_are_typed_errors() {
        assert!(CampaignManifest::from_json_str(
            "{\"version\":1,\"name\":\"x\",\"campaign_seed\":0,\"statuses\":[]}"
        )
        .is_ok());
        let bumped = "{\"version\":2,\"completed\":[],\"current\":null}";
        assert!(matches!(
            BatchCheckpoint::from_json_str(bumped),
            Err(CoreError::InvalidConfig { .. })
        ));
        let bad_run = "{\"version\":9,\"protocol\":\"BestOfThree\",\
                       \"schedule\":\"Synchronous\",\"stopping\":{\"max_rounds\":1,\
                       \"stop_on_consensus\":true,\"blue_fraction_floor\":null},\
                       \"master_seed\":0,\"round\":0,\"n\":0,\"opinion_words\":[],\
                       \"initial_blue_fraction\":0.5,\"dropped_samples\":0,\"trace\":null}";
        assert!(matches!(
            RunCheckpoint::from_json_str(bad_run),
            Err(CoreError::InvalidConfig { .. })
        ));
        // 2^32 + 1 must not wrap to the supported version 1.
        let wrapped = "{\"version\":4294967297,\"name\":\"x\",\"campaign_seed\":0,\"statuses\":[]}";
        assert!(matches!(
            CampaignManifest::from_json_str(wrapped),
            Err(CoreError::InvalidConfig { .. })
        ));
        let wrapped = "{\"version\":4294967297,\"completed\":[],\"current\":null}";
        assert!(matches!(
            BatchCheckpoint::from_json_str(wrapped),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn campaign_config_round_trips_through_json() {
        let campaign = quick_campaign("unit/json").retry(RetryPolicy {
            max_attempts: 7,
            base_delay_ms: 10,
            max_delay_ms: 100,
        });
        let text = campaign.to_json_string();
        assert_eq!(Campaign::from_json_str(&text).unwrap(), campaign);
    }
}
