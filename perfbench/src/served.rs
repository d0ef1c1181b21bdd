//! The `served` workload: an in-process `bo3_serve` daemon with one worker
//! and one-round slices, driven by two closed-loop clients.
//!
//! Each client submits a job, streams it (`Request::Stream`) to its `Done`
//! line, and only then submits its next job.  Jobs alternate implicit
//! `K_n` and implicit `G(n, 1/2)`, two replicas each, over a small set of
//! seeds, so that after the timed window every distinct job can be re-run
//! in-process once with `Experiment::run` and compared with each report the
//! daemon served for it.
//!
//! With one worker and a FIFO queue, job `k` starts when job `k − 1`
//! finishes (or when it is accepted, if the worker was idle), so the client
//! timestamps split each job's latency into queue wait and daemon-side
//! wall time without any tracing in the daemon.

use std::time::{Duration, Instant};

use bo3_core::bo3_dynamics::checkpoint::{pack_opinions, unpack_opinions};
use bo3_core::configio::Json;
use bo3_core::prelude::*;
// The prelude's `Result` fixes the error type; this module reports strings.
use bo3_serve::{http_get, Client, Service, ServiceConfig, ServiceHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::result::Result;

use crate::engine::{outcome_ok, predicted_rounds, validate};
use crate::report::Report;
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;

/// The served workload's shape: the two job sizes, and how many daemon
/// starts a run times.
#[derive(Debug, Clone)]
pub struct ServedWorkload {
    /// Vertices of the implicit `K_n` jobs.
    pub complete_n: usize,
    /// Vertices of the implicit `G(n, 1/2)` jobs.
    pub gnp_n: usize,
    /// Daemon starts per run, half before the timed window and half after
    /// it; `setup_s` is their median.
    pub setups: usize,
    pub expect_winner: Opinion,
}

/// Daemon worker threads (the box has two vCPUs that behave as one core;
/// the two clients use the second).
pub const WORKERS: usize = 1;

/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;

/// Replicas per job.
const REPLICAS: usize = 2;

/// Initial red bias of every job: both job sizes then take 9 rounds.
const DELTA: f64 = 0.06;

/// Distinct seeds per topology; job `j` of a client uses seed
/// `j / 2 mod VARIANTS` (offset per client).
const VARIANTS: usize = 8;

impl ServedWorkload {
    fn topology(&self, kind: usize) -> TopologySpec {
        if kind == 0 {
            TopologySpec::Complete { n: self.complete_n }
        } else {
            TopologySpec::ImplicitGnp {
                n: self.gnp_n,
                p: 0.5,
            }
        }
    }

    /// The experiment a client submits for `(kind, variant)`.
    fn job(&self, seed: u64, kind: usize, variant: usize) -> Experiment {
        let tag = ["kn", "gnp"][kind];
        Experiment::on(self.topology(kind))
            .named(format!("perfbench/served/{tag}/{variant}"))
            .initial(InitialCondition::BernoulliWithBias { delta: DELTA })
            .stopping(StoppingCondition::consensus_within(10_000))
            .replicas(REPLICAS)
            .seed(splitmix64(seed ^ ((kind as u64) << 32) ^ variant as u64))
            .threads(1)
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One exchanged NDJSON line, kept by the traced run for the wire replay.
enum Line {
    Request(Request),
    Response(Response),
}

impl Line {
    fn encode(&self) -> String {
        match self {
            Line::Request(r) => r.to_json_string(),
            Line::Response(r) => r.to_json_string(),
        }
    }

    fn decodes(&self, text: &str) -> bool {
        match self {
            Line::Request(_) => Request::from_json_str(text).is_ok(),
            Line::Response(_) => Response::from_json_str(text).is_ok(),
        }
    }
}

/// One job as its client saw it.
struct JobRecord {
    kind: usize,
    variant: usize,
    id: u64,
    submitted: Instant,
    accepted: Instant,
    done: Instant,
    /// Arrival time of every streamed `Update` line.
    updates: Vec<Instant>,
    /// The served report, or why the job did not finish.
    outcome: Result<Box<JobReport>, String>,
    /// Traced runs only: the exchanged lines and the daemon's queue-depth
    /// gauge read from `/metrics.json` after `Done`.
    lines: Vec<Line>,
    queue_depth: i64,
}

/// Starts the daemon and waits until it answers `Ping`.
fn start_daemon() -> Result<(ServiceHandle, Client), String> {
    let handle = Service::start(ServiceConfig {
        workers: WORKERS,
        rounds_per_slice: 1,
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut client = Client::connect(handle.local_addr()).map_err(|e| e.to_string())?;
    client.ping().map_err(|e| e.to_string())?;
    Ok((handle, client))
}

/// Starts and drains the daemon `count` times, recording each start's
/// wall time in `walls`.
fn time_starts(count: usize, walls: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..count {
        let start = Instant::now();
        let (handle, client) = start_daemon()?;
        walls.push(start.elapsed().as_secs_f64());
        drop(client);
        handle.drain_and_join();
    }
    Ok(())
}

fn queue_depth(addr: std::net::SocketAddr) -> i64 {
    http_get(addr, "/metrics.json")
        .ok()
        .and_then(|body| Json::parse(&body).ok())
        .and_then(|json| {
            json.get("gauges")
                .and_then(|g| g.get("service_queue_depth"))
                .and_then(Json::as_f64)
        })
        .map_or(0, |v| v as i64)
}

/// One client's closed loop until `deadline`.
fn client_loop(
    w: &ServedWorkload,
    seed: u64,
    addr: std::net::SocketAddr,
    client_index: usize,
    deadline: Instant,
    traced: bool,
) -> Result<Vec<JobRecord>, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut j = 0usize;
    while Instant::now() < deadline {
        let kind = (client_index + j) % 2;
        let variant = (j / 2 + client_index * VARIANTS / 2) % VARIANTS;
        let experiment = w.job(seed, kind, variant);
        let submitted = Instant::now();
        let id = client.submit(&experiment).map_err(|e| e.to_string())?;
        let accepted = Instant::now();
        let stream = Request::Stream { job: id };
        client.send(&stream).map_err(|e| e.to_string())?;
        let mut updates = Vec::new();
        let mut lines = Vec::new();
        let outcome = loop {
            let response = client.recv().map_err(|e| e.to_string())?;
            let now = Instant::now();
            let terminal = match &response {
                Response::Update(_) => {
                    updates.push(now);
                    None
                }
                Response::Done { result, .. } => Some(Ok(result.clone())),
                other => Some(Err(format!("job {id} ended: {}", other.to_json_string()))),
            };
            if traced {
                lines.push(Line::Response(response));
            }
            if let Some(outcome) = terminal {
                break outcome;
            }
        };
        let done = Instant::now();
        let mut depth = 0;
        if traced {
            depth = queue_depth(addr);
            lines.insert(0, Line::Request(Request::Submit(Box::new(experiment))));
            lines.insert(1, Line::Response(Response::Accepted { job: id }));
            lines.insert(2, Line::Request(stream));
        }
        records.push(JobRecord {
            kind,
            variant,
            id,
            submitted,
            accepted,
            done,
            updates,
            outcome,
            lines,
            queue_depth: depth,
        });
        j += 1;
    }
    Ok(records)
}

/// Everything one window measured.
struct Window {
    records: Vec<JobRecord>,
    setup_walls: Vec<f64>,
    metrics_json: Option<Json>,
}

/// Times `setups` daemon starts — the one the clients use among them,
/// the others split between before and after the window, so they see the
/// machine at two moments — and runs the clients for `seconds`, then
/// drains the daemon and joins every thread.
fn run_window(
    w: &ServedWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Option<Window> {
    let mut setup_walls = Vec::new();
    let before = w.setups / 2;
    let started = time_starts(before, &mut setup_walls).and_then(|()| {
        let start = Instant::now();
        let daemon = start_daemon()?;
        setup_walls.push(start.elapsed().as_secs_f64());
        Ok(daemon)
    });
    let (handle, ping) = match started {
        Ok(daemon) => daemon,
        Err(e) => {
            report.check(false, || format!("daemon start failed: {e}"));
            return None;
        }
    };
    drop(ping);
    let addr = handle.local_addr();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let results: Vec<Result<Vec<JobRecord>, String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client_loop(w, seed, addr, c, deadline, traced)))
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect()
    });
    let metrics_json = traced
        .then(|| http_get(addr, "/metrics.json").ok())
        .flatten()
        .and_then(|body| Json::parse(&body).ok());
    handle.drain_and_join();
    let after = w.setups.saturating_sub(before + 1);
    if let Err(e) = time_starts(after, &mut setup_walls) {
        report.require(false, || format!("daemon start failed: {e}"));
    }
    let mut records = Vec::new();
    for result in results {
        match result {
            Ok(r) => records.extend(r),
            Err(e) => report.check(false, || format!("client failed: {e}")),
        }
    }
    records.sort_by_key(|r| r.id);
    Some(Window {
        records,
        setup_walls,
        metrics_json,
    })
}

/// Queue wait and daemon-side wall time (seconds) of each record, in
/// order: job `k` starts when the single FIFO worker frees up, i.e. at the
/// later of its own acceptance and job `k − 1`'s `Done`.
fn split_latency(records: &[JobRecord]) -> Vec<(f64, f64)> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let previous_done =
                (i > 0 && records[i - 1].id + 1 == r.id).then(|| records[i - 1].done);
            let start = previous_done.map_or(r.accepted, |d| d.max(r.accepted));
            (
                (start - r.accepted).as_secs_f64(),
                (r.done - start).as_secs_f64(),
            )
        })
        .collect()
}

/// The output checks, after the timed window: every job finished, every
/// replica reached the expected consensus within the predicted rounds, and
/// every served report equals an in-process `Experiment::run` of the same
/// configuration (run once per distinct job).
fn check_jobs(w: &ServedWorkload, seed: u64, records: &[JobRecord], report: &mut Report) {
    let predicted: Vec<Option<usize>> = (0..2)
        .map(|kind| {
            let spec = w.topology(kind);
            let built = spec.build(0).ok()?;
            let alpha = validate(&spec, &built).ok()?;
            predicted_rounds(built.n(), alpha, DELTA)
        })
        .collect();
    let mut references: std::collections::BTreeMap<
        (usize, usize),
        Result<ExperimentResult, String>,
    > = std::collections::BTreeMap::new();
    for r in records {
        let served = match &r.outcome {
            Ok(served) => served,
            Err(e) => {
                report.check(false, || format!("job {}: {e}", r.id));
                continue;
            }
        };
        let reference = references.entry((r.kind, r.variant)).or_insert_with(|| {
            w.job(seed, r.kind, r.variant)
                .run()
                .map_err(|e| e.to_string())
        });
        let identical = matches!(reference, Ok(x) if x.report == served.report && x.n == served.n);
        let replicas_ok = served.report.outcomes.len() == REPLICAS
            && served
                .report
                .outcomes
                .iter()
                .all(|o| outcome_ok(o.winner, o.rounds, w.expect_winner, predicted[r.kind]));
        report.check(identical && replicas_ok, || {
            format!(
                "job {} ({}/{}): identical to in-process run = {identical}, replicas as expected = {replicas_ok}",
                r.id, r.kind, r.variant
            )
        });
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Gaps (ms) between consecutive streamed updates of every job.
fn update_gaps_ms(records: &[JobRecord]) -> Vec<f64> {
    records
        .iter()
        .flat_map(|r| r.updates.windows(2).map(|p| ms(p[1] - p[0])))
        .collect()
}

/// The untraced run: every end-to-end metric.
pub fn run(w: &ServedWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let Some(window) = run_window(w, seed, seconds, false, &mut report) else {
        return report;
    };
    let records = &window.records;
    report.set_with("setup_s", median(&window.setup_walls), &window.setup_walls);
    let split = split_latency(records);
    let (mut per_replica, mut rates, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    for (r, &(_, wall)) in records.iter().zip(&split) {
        if let Ok(served) = &r.outcome {
            per_replica.push(wall / REPLICAS as f64);
            latencies.push(ms(r.done - r.submitted));
            let rounds: usize = served.report.outcomes.iter().map(|o| o.rounds).sum();
            rates.push((rounds * served.n) as f64 / wall.max(1e-12));
        }
    }
    let gaps = update_gaps_ms(records);
    report.set_with("consensus_s_p90", quantile(&per_replica, 0.9), &per_replica);
    report.set_with("updates_per_s_p10", quantile(&rates, 0.1), &rates);
    report.set_with("job_latency_ms_p90", quantile(&latencies, 0.9), &latencies);
    report.set_with("update_gap_ms_p90", quantile(&gaps, 0.9), &gaps);
    check_jobs(w, seed, records, &mut report);
    report
}

/// The traced run: the served workload's per-layer metrics.  Job phases
/// become spans from the client timestamps; the wire codec and the
/// checkpoint packing are replayed on what each job exchanged.
pub fn run_traced(w: &ServedWorkload, seed: u64, seconds: f64) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    // The daemon runs the engine layers internally, out of this benchmark's
    // reach.
    report.zero_layers_off_path(true);
    let Some(window) = run_window(w, seed, seconds, true, &mut report) else {
        return (report, tracer);
    };
    let records = &window.records;
    let split = split_latency(records);
    for (r, &(queued, _)) in records.iter().zip(&split) {
        let root = tracer.record("job", r.id, None, r.submitted, r.done);
        tracer.record("serve.submit", r.id, Some(root), r.submitted, r.accepted);
        let claimed = r.accepted + Duration::from_secs_f64(queued);
        tracer.record("serve.queue_wait", r.id, Some(root), r.accepted, claimed);
        tracer.record("serve.job_wall", r.id, Some(root), claimed, r.done);
    }
    let submit: Vec<f64> = records
        .iter()
        .map(|r| ms(r.accepted - r.submitted))
        .collect();
    let queue: Vec<f64> = split.iter().map(|s| s.0 * 1e3).collect();
    let wall: Vec<f64> = split.iter().map(|s| s.1 * 1e3).collect();
    report.set_with("serve.submit_rtt_ms", median(&submit), &submit);
    report.set_with("serve.queue_wait_ms_p50", median(&queue), &queue);
    report.set_with("serve.job_wall_ms_p50", median(&wall), &wall);
    let max_depth = records.iter().map(|r| r.queue_depth).max().unwrap_or(0);
    report.set("serve.max_queue_depth", max_depth as f64);

    // Wire replay: encode and decode every line each job exchanged.
    let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for r in records {
        let start = Instant::now();
        let texts: Vec<String> = r.lines.iter().map(Line::encode).collect();
        let encoded = Instant::now();
        let decoded = r.lines.iter().zip(&texts).all(|(l, t)| l.decodes(t));
        let end = Instant::now();
        tracer.record("wire.encode", r.id, None, start, encoded);
        tracer.record("wire.decode", r.id, None, encoded, end);
        report.require(decoded, || {
            format!("job {}: a replayed line did not decode", r.id)
        });
        encode.push((encoded - start).as_secs_f64() * 1e6);
        decode.push((end - encoded).as_secs_f64() * 1e6);
        bytes.push(texts.iter().map(|t| t.len() + 1).sum::<usize>() as f64);
    }
    report.set_with("wire.encode_us", median(&encode), &encode);
    report.set_with("wire.decode_us", median(&decode), &decode);
    report.set_with("wire.bytes_per_job", median(&bytes), &bytes);

    // Checkpoint replay: the daemon packs a job's opinions at every slice
    // boundary and unpacks them to resume; time one of each per job.
    let configs: Vec<Configuration> = (0..2)
        .map(|kind| {
            let n = w.topology(kind).num_vertices();
            InitialCondition::BernoulliWithBias { delta: DELTA }
                .sample_n(n, &mut StdRng::seed_from_u64(seed))
                .expect("Bernoulli start on a positive vertex count")
        })
        .collect();
    let (mut pack, mut unpack) = (Vec::new(), Vec::new());
    for r in records {
        let config = &configs[r.kind];
        let t = Instant::now();
        let words = tracer.span("checkpoint.pack", r.id, None, || {
            pack_opinions(config.as_slice())
        });
        pack.push(ms(t.elapsed()));
        let t = Instant::now();
        let back = tracer.span("checkpoint.unpack", r.id, None, || {
            unpack_opinions(&words, config.len())
        });
        unpack.push(ms(t.elapsed()));
        report.require(back.as_deref().ok() == Some(config.as_slice()), || {
            format!("job {}: checkpoint words did not round-trip", r.id)
        });
    }
    // Jobs alternate two sizes, so the per-job samples are two clusters: a
    // mean describes the mix where a median would sit between them.
    report.set_with("checkpoint.pack_ms", mean(&pack), &pack);
    report.set_with("checkpoint.unpack_ms", mean(&unpack), &unpack);

    // The daemon's own count of finished jobs must match the clients'.
    let served = records.iter().filter(|r| r.outcome.is_ok()).count() as f64;
    let done_total = window
        .metrics_json
        .as_ref()
        .and_then(|j| j.get("counters"))
        .and_then(|c| c.get("service_jobs_done_total"))
        .and_then(Json::as_f64);
    report.require(done_total == Some(served), || {
        format!("/metrics.json counts {done_total:?} finished jobs, the clients {served}")
    });
    check_jobs(w, seed, records, &mut report);
    (report, tracer)
}
