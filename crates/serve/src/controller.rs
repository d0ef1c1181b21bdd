//! The controller: workers that drive claimed jobs through
//! [`bo3_core::experiment::Experiment::run_cooperative`] and publish
//! progress to subscribers.
//!
//! Each worker claims one job at a time from the [`Scheduler`], builds a
//! [`RunBudget`] carrying **three** interrupt sources — the slice cap (how
//! often progress streams), the job's own cancel flag, and the daemon-wide
//! drain flag — and runs the experiment to completion, cancellation or
//! failure.  Campaign-cell jobs inherit their campaign's
//! [`bo3_core::campaign::RetryPolicy`] and re-attempt with the same
//! exponential backoff the crash-safe [`bo3_core::campaign::CampaignRunner`]
//! uses; since replica seeding is a pure function of the experiment's seed,
//! a retry from scratch is observationally identical to a resume.  A run
//! that panics fails its attempt with the panic's message, like a run that
//! returns an error, and the worker goes on to claim the next job.
//!
//! ## Determinism
//!
//! The controller clones the submitted experiment with `threads = 1` before
//! running: job-level parallelism comes from the worker pool (the daemon's
//! core budget), not from per-job thread fan-out, so eight concurrent jobs
//! on an eight-worker daemon use eight cores rather than 8 × n.  The engine
//! pins results to be thread-count independent, so this changes wall time
//! only — every report stays bit-identical to an in-process
//! [`bo3_core::experiment::Experiment::run`] at any thread setting.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bo3_core::prelude::{
    BatchProgress, CellResult, CooperativeOutcome, JobReport, JobState, Response, RunBudget,
    RunUpdate, ToJson,
};
use bo3_obs::{Counter, EventLog, Field, Gauge, Log2Histogram, MetricsRegistry};

use crate::scheduler::{JobSpec, Scheduler, StreamMsg};

/// Every instrument the daemon exposes, registered once against the single
/// [`MetricsRegistry`] that `GET /metrics` renders.
pub struct ServiceMetrics {
    /// Jobs accepted over the daemon's lifetime (experiments + cells).
    pub jobs_accepted: Arc<Counter>,
    /// Jobs finished successfully.
    pub jobs_done: Arc<Counter>,
    /// Jobs that exhausted their attempts with an engine error.
    pub jobs_failed: Arc<Counter>,
    /// Jobs cancelled by a client or by the drain.
    pub jobs_cancelled: Arc<Counter>,
    /// Jobs currently executing on a worker.
    pub jobs_running: Arc<Gauge>,
    /// Jobs waiting for a worker.
    pub queue_depth: Arc<Gauge>,
    /// Wall time of finished jobs, nanoseconds.
    pub job_wall_ns: Arc<Log2Histogram>,
    /// Approximate per-round wall time, nanoseconds (slice latency divided
    /// by the slice's round cap).
    pub round_ns: Arc<Log2Histogram>,
}

impl ServiceMetrics {
    /// Registers (or re-fetches — the registry dedups by name) every
    /// instrument.
    pub fn register(registry: &MetricsRegistry) -> Self {
        ServiceMetrics {
            jobs_accepted: registry.counter(
                "service_jobs_accepted_total",
                "Jobs accepted by the daemon (experiments and campaign cells)",
            ),
            jobs_done: registry
                .counter("service_jobs_done_total", "Jobs that finished successfully"),
            jobs_failed: registry.counter(
                "service_jobs_failed_total",
                "Jobs that exhausted their retry attempts with an error",
            ),
            jobs_cancelled: registry.counter(
                "service_jobs_cancelled_total",
                "Jobs cancelled by a client or by the shutdown drain",
            ),
            jobs_running: registry.gauge(
                "service_jobs_running",
                "Jobs currently executing on a worker",
            ),
            queue_depth: registry.gauge("service_queue_depth", "Jobs waiting for a worker"),
            job_wall_ns: registry.histogram(
                "service_job_wall_ns",
                "Wall time of finished jobs in nanoseconds",
            ),
            round_ns: registry.histogram(
                "service_round_ns",
                "Approximate per-round wall time in nanoseconds",
            ),
        }
    }
}

/// One worker's claim-and-run loop; returns when the daemon drains.
pub fn worker_loop(
    scheduler: &Scheduler,
    metrics: &ServiceMetrics,
    events: &EventLog,
    rounds_per_slice: usize,
) {
    while let Some((id, cancel, spec)) = scheduler.claim() {
        metrics.queue_depth.set(scheduler.queue_depth() as i64);
        metrics.jobs_running.add(1);
        run_job(
            scheduler,
            metrics,
            events,
            rounds_per_slice,
            id,
            &cancel,
            &spec,
        );
        metrics.jobs_running.add(-1);
    }
}

/// Drives one claimed job to a terminal state.
fn run_job(
    scheduler: &Scheduler,
    metrics: &ServiceMetrics,
    events: &EventLog,
    rounds_per_slice: usize,
    id: u64,
    cancel: &Arc<AtomicBool>,
    spec: &JobSpec,
) {
    let started = Instant::now();
    let (max_attempts, retry) = match spec {
        JobSpec::Experiment(_) => (1u32, None),
        JobSpec::CampaignCell { retry, .. } => (retry.max_attempts.max(1), Some(*retry)),
    };
    // The worker pool is the core budget: per-job thread fan-out off.
    let experiment = spec.experiment().clone().threads(1);
    let budget = RunBudget {
        max_rounds_per_slice: Some(rounds_per_slice.max(1)),
        cancel_flag: Some(cancel.clone()),
        drain_flag: Some(scheduler.drain.clone()),
    };
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let mut last_slice = Instant::now();
        let mut on_progress = |p: &BatchProgress| {
            let now = Instant::now();
            let slice_ns = now.duration_since(last_slice).as_nanos() as u64;
            last_slice = now;
            metrics
                .round_ns
                .record(slice_ns / rounds_per_slice.max(1) as u64);
            let update = Response::Update(RunUpdate {
                job: id,
                replicas_done: p.replicas_done,
                replicas: p.replicas,
                replica: p.replica,
                round: p.round,
                blue_fraction: p.blue_fraction,
                stop_reason: None,
            });
            scheduler.publish(
                id,
                &StreamMsg {
                    line: update.to_json_string(),
                    terminal: false,
                },
            );
        };
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            experiment.run_cooperative(&budget, &mut on_progress)
        }));
        let outcome = match attempt {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(payload) => Err(panic_message(payload.as_ref())),
        };
        match outcome {
            Ok(CooperativeOutcome::Completed(result)) => {
                let report = result.report.clone();
                let all_converged = report.outcomes.iter().all(|o| o.winner.is_some());
                let stop_reason = if all_converged {
                    "consensus"
                } else {
                    "round-limit"
                };
                let last = report.outcomes.last();
                let final_update = Response::Update(RunUpdate {
                    job: id,
                    replicas_done: report.outcomes.len(),
                    replicas: report.outcomes.len(),
                    replica: report.outcomes.len(),
                    round: last.map_or(0, |o| o.rounds),
                    blue_fraction: last.map_or(0.0, |o| o.final_blue_fraction),
                    stop_reason: Some(stop_reason.to_string()),
                });
                scheduler.publish(
                    id,
                    &StreamMsg {
                        line: final_update.to_json_string(),
                        terminal: false,
                    },
                );
                let cell = match spec {
                    JobSpec::CampaignCell { index, .. } => {
                        Some(CellResult::of(*index, &experiment.name, &report))
                    }
                    JobSpec::Experiment(_) => None,
                };
                let done = Response::Done {
                    job: id,
                    result: Box::new(JobReport {
                        name: result.name.clone(),
                        n: result.n,
                        report,
                        cell,
                    }),
                };
                scheduler.finish(id, JobState::Done, &done, None);
                metrics.jobs_done.inc();
                metrics.job_wall_ns.record(elapsed_ns(started));
                events.event(
                    "job_done",
                    &[
                        ("job", Field::U64(id)),
                        ("attempts", Field::U64(u64::from(attempts))),
                        ("stop_reason", Field::Str(stop_reason)),
                    ],
                );
                return;
            }
            Ok(CooperativeOutcome::Interrupted(_ckpt)) => {
                // Either the client cancelled or the daemon is draining; the
                // checkpoint is dropped — determinism makes a rerun
                // equivalent to a resume, and the daemon holds no disk state.
                scheduler.finish(
                    id,
                    JobState::Cancelled,
                    &Response::Cancelled { job: id },
                    None,
                );
                metrics.jobs_cancelled.inc();
                metrics.job_wall_ns.record(elapsed_ns(started));
                let cause = if cancel.load(Ordering::SeqCst) {
                    "client-cancel"
                } else {
                    "drain"
                };
                events.event(
                    "job_cancelled",
                    &[("job", Field::U64(id)), ("cause", Field::Str(cause))],
                );
                return;
            }
            Err(message) => {
                if attempts < max_attempts && !scheduler.draining() {
                    let delay = retry.as_ref().map_or(0, |r| r.delay_ms(attempts));
                    events.event(
                        "job_retry",
                        &[
                            ("job", Field::U64(id)),
                            ("attempt", Field::U64(u64::from(attempts))),
                            ("delay_ms", Field::U64(delay)),
                        ],
                    );
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                    continue;
                }
                scheduler.finish(
                    id,
                    JobState::Failed,
                    &Response::Failed {
                        job: id,
                        error: message.clone(),
                    },
                    Some(message.clone()),
                );
                metrics.jobs_failed.inc();
                metrics.job_wall_ns.record(elapsed_ns(started));
                events.event(
                    "job_failed",
                    &[("job", Field::U64(id)), ("error", Field::Str(&message))],
                );
                return;
            }
        }
    }
}

/// The failure message of an attempt whose run panicked.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let detail = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload");
    format!("run panicked: {detail}")
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
