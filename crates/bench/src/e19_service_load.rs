//! E19: service load generator — throughput and stream latency of the
//! `bo3-serve` daemon under concurrent mixed submissions.
//!
//! Starts an in-process daemon on an ephemeral port, fans a mixed batch of
//! experiments (implicit complete, implicit `G(n, p)`, bipartite) at it
//! from several client connections at once, streams every job to its
//! terminal line, and measures:
//!
//! * **jobs/s** — accepted-to-done throughput over the whole batch;
//! * **stream latency** — p50/p99 of the inter-arrival gaps between a
//!   job's streamed round updates (how fresh a subscriber's view is);
//! * **queue depth** — the deepest backlog the scheduler saw, sampled from
//!   the daemon's own `service_queue_depth` gauge;
//! * **determinism** — every served report is compared (`==`, which for
//!   the config-IO float layout means bit-identical) against an in-process
//!   [`Experiment::run`] of the same config.
//!
//! The binary writes `BENCH_service.json` at the workspace root through
//! [`crate::ledger`] so the service's performance trajectory is tracked
//! across changes, with the daemon's own registry snapshot as its observer.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bo3_core::prelude::*;
use bo3_core::report::Table;
use bo3_serve::{Client, Service, ServiceConfig, ServiceHandle};

use crate::ledger::Ledger;
use crate::Scale;

/// One measured load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Jobs submitted (= jobs finished; determinism checks all of them).
    pub jobs: usize,
    /// Concurrent client connections used to submit and stream.
    pub clients: usize,
    /// Daemon worker threads.
    pub workers: usize,
    /// Wall time for the whole batch, seconds.
    pub wall_seconds: f64,
    /// Accepted-to-done throughput.
    pub jobs_per_sec: f64,
    /// Median gap between consecutive streamed updates of a job, ms.
    pub p50_update_gap_ms: f64,
    /// 99th-percentile gap, ms.
    pub p99_update_gap_ms: f64,
    /// Total streamed round updates observed.
    pub updates: usize,
    /// Deepest queue backlog sampled during the run.
    pub max_queue_depth: i64,
    /// Served reports that compared `==` against the in-process run.
    pub deterministic: usize,
    /// The daemon's registry snapshot after the run.
    pub metrics_snapshot: String,
}

/// The mixed workload: small enough for CI, varied enough to exercise the
/// implicit samplers and the materialised path side by side.
fn workload(scale: Scale) -> Vec<Experiment> {
    let (reps, copies) = match scale {
        Scale::Quick => (2usize, 2usize),
        Scale::Paper => (8, 8),
    };
    let n_scale = match scale {
        Scale::Quick => 1usize,
        Scale::Paper => 10,
    };
    let shapes: Vec<(&str, TopologySpec)> = vec![
        (
            "complete",
            TopologySpec::Complete {
                n: 30_000 * n_scale,
            },
        ),
        (
            "gnp",
            TopologySpec::ImplicitGnp {
                n: 20_000 * n_scale,
                p: 0.2,
            },
        ),
        (
            "bipartite",
            TopologySpec::CompleteBipartite {
                a: 10_000 * n_scale,
                b: 10_000 * n_scale,
            },
        ),
    ];
    let mut jobs = Vec::new();
    for copy in 0..copies {
        for (tag, spec) in &shapes {
            let idx = jobs.len();
            jobs.push(
                Experiment::on(spec.clone())
                    .named(format!("e19/{tag}/{copy}"))
                    .initial(InitialCondition::BernoulliWithBias { delta: 0.15 })
                    .replicas(reps)
                    .seed(0xE19_0000 + idx as u64),
            );
        }
    }
    jobs
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let pos = (q * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[pos.min(sorted_ms.len() - 1)]
}

/// Runs the load against `handle`, returning the measured report.
fn drive(handle: &ServiceHandle, scale: Scale, clients: usize) -> Result<LoadReport> {
    let jobs = workload(scale);
    let total = jobs.len();
    let addr = handle.local_addr();
    let max_depth = Arc::new(AtomicI64::new(0));
    let depth_gauge = handle.metrics().queue_depth.clone();

    let started = Instant::now();
    let mut threads = Vec::new();
    for (worker_idx, chunk) in jobs.chunks(total.div_ceil(clients)).enumerate() {
        let chunk: Vec<Experiment> = chunk.to_vec();
        let max_depth = Arc::clone(&max_depth);
        let depth_gauge = Arc::clone(&depth_gauge);
        threads.push(std::thread::spawn(
            move || -> Result<(Vec<f64>, usize, usize)> {
                let mut client = Client::connect(addr)?;
                let mut gaps_ms = Vec::new();
                let mut deterministic = 0usize;
                let mut updates = 0usize;
                // Submit the whole chunk first so the queue actually backs up…
                let mut ids = Vec::new();
                for experiment in &chunk {
                    ids.push(client.submit(experiment)?);
                    max_depth.fetch_max(depth_gauge.get(), Ordering::SeqCst);
                }
                // …then stream every job to its terminal line.
                for (experiment, job) in chunk.iter().zip(ids) {
                    let mut stream = Client::connect(addr)?;
                    stream.send(&Request::Stream { job })?;
                    let mut last = Instant::now();
                    let report = loop {
                        max_depth.fetch_max(depth_gauge.get(), Ordering::SeqCst);
                        match stream.recv()? {
                            Response::Update(_) => {
                                let now = Instant::now();
                                gaps_ms.push(now.duration_since(last).as_secs_f64() * 1e3);
                                last = now;
                                updates += 1;
                            }
                            Response::Done { result, .. } => break result,
                            other => {
                                return Err(CoreError::Report {
                                    reason: format!(
                                        "job {job} ({}) ended abnormally: {}",
                                        experiment.name,
                                        other.to_json_string()
                                    ),
                                })
                            }
                        }
                    };
                    let direct = experiment.run()?;
                    if report.report == direct.report {
                        deterministic += 1;
                    }
                }
                let _ = worker_idx;
                Ok((gaps_ms, deterministic, updates))
            },
        ));
    }
    let mut gaps_ms: Vec<f64> = Vec::new();
    let mut deterministic = 0usize;
    let mut updates = 0usize;
    for thread in threads {
        let (gaps, det, ups) = thread.join().expect("load client thread")?;
        gaps_ms.extend(gaps);
        deterministic += det;
        updates += ups;
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    gaps_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite gaps"));
    Ok(LoadReport {
        jobs: total,
        clients,
        workers: 0, // stamped by the caller
        wall_seconds,
        jobs_per_sec: total as f64 / wall_seconds.max(1e-9),
        p50_update_gap_ms: percentile(&gaps_ms, 0.50),
        p99_update_gap_ms: percentile(&gaps_ms, 0.99),
        updates,
        max_queue_depth: max_depth.load(Ordering::SeqCst),
        deterministic,
        metrics_snapshot: String::new(), // stamped by the caller
    })
}

/// Starts a daemon, runs the load, drains, and returns the report.
pub fn run(scale: Scale) -> Result<LoadReport> {
    let workers = match scale {
        Scale::Quick => 4,
        Scale::Paper => 8,
    };
    let clients = workers;
    // Slice of one round: every round boundary publishes an update, so the
    // p50/p99 gaps below measure genuine per-round stream latency.
    let handle = Service::start(ServiceConfig {
        workers,
        rounds_per_slice: 1,
        ..ServiceConfig::default()
    })
    .map_err(CoreError::from)?;
    let mut report = drive(&handle, scale, clients)?;
    report.workers = workers;
    report.metrics_snapshot = handle.registry().snapshot_json();
    handle.drain_and_join();
    Ok(report)
}

/// The report as a one-row table.
pub fn table(report: &LoadReport) -> Table {
    let mut table = Table::new(
        "E19: service load (bo3-serve daemon)",
        &[
            "jobs",
            "clients",
            "workers",
            "wall_s",
            "jobs_per_s",
            "p50_gap_ms",
            "p99_gap_ms",
            "updates",
            "max_queue",
            "bit_identical",
        ],
    );
    table.push_row(vec![
        report.jobs.to_string(),
        report.clients.to_string(),
        report.workers.to_string(),
        format!("{:.3}", report.wall_seconds),
        format!("{:.2}", report.jobs_per_sec),
        format!("{:.3}", report.p50_update_gap_ms),
        format!("{:.3}", report.p99_update_gap_ms),
        report.updates.to_string(),
        report.max_queue_depth.to_string(),
        format!("{}/{}", report.deterministic, report.jobs),
    ]);
    table
}

/// The `BENCH_service.json` ledger of `report`.
pub fn ledger(report: &LoadReport, quick: bool) -> Ledger {
    let mut ledger = Ledger::new("e19_service_load", quick);
    ledger
        .metric("jobs", report.jobs as f64)
        .metric("clients", report.clients as f64)
        .metric("workers", report.workers as f64)
        .metric("wall_seconds", report.wall_seconds)
        .metric("jobs_per_sec", report.jobs_per_sec)
        .metric("p50_update_gap_ms", report.p50_update_gap_ms)
        .metric("p99_update_gap_ms", report.p99_update_gap_ms)
        .metric("updates", report.updates as f64)
        .metric("max_queue_depth", report.max_queue_depth as f64)
        .metric("bit_identical_jobs", report.deterministic as f64)
        .metric("total_jobs", report.jobs as f64)
        .observer(&report.metrics_snapshot);
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_load_is_deterministic_and_measured() {
        let report = run(Scale::Quick).unwrap();
        assert_eq!(report.deterministic, report.jobs, "served != in-process");
        assert!(report.jobs_per_sec > 0.0);
        assert!(report.updates > 0);
        assert!(report.metrics_snapshot.contains("service_jobs_done_total"));
        let doc = ledger(&report, true).document();
        let metrics = doc.get("metrics").unwrap();
        let identical = metrics.get("bit_identical_jobs").unwrap().as_u64();
        assert_eq!(identical, metrics.get("total_jobs").unwrap().as_u64());
        assert_eq!(table(&report).num_rows(), 1);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
