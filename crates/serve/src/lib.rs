//! # bo3-serve — voting as a service
//!
//! A long-running experiment daemon for the Kang–Rivera reproduction: submit
//! [`bo3_core::experiment::Experiment`]s (or whole
//! [`bo3_core::campaign::Campaign`]s) over a plain TCP socket, stream their
//! round-by-round progress, and scrape Prometheus metrics — with **zero**
//! dependencies beyond the workspace's own crates and `std`.
//!
//! ## Architecture
//!
//! The daemon is three layers with a strict split of responsibilities:
//!
//! * [`transport`] — owns the sockets and nothing else: the accept loop,
//!   newline-delimited-JSON framing over the [`bo3_core::wire`] envelope,
//!   request parsing, typed protocol errors, and a minimal HTTP `GET`
//!   surface for `/metrics` scrapers.  Transport threads never run
//!   experiments and only ever hold the scheduler lock briefly, so a slow
//!   client cannot stall the engine.
//! * [`scheduler`] — the single source of truth: a fair FIFO queue and the
//!   job table, with per-job cancellation flags, subscription fan-out and
//!   TTL eviction of finished jobs.  Concurrency is bounded by the worker
//!   pool (the daemon's core budget), never by queue length.
//! * [`controller`] — the workers: each claims one job at a time and drives
//!   it through [`bo3_core::experiment::Experiment::run_cooperative`] under
//!   a [`bo3_dynamics::checkpoint::RunBudget`] that carries the round-slice
//!   cap, the job's cancel flag **and** the daemon-wide drain flag.
//!
//! ## Determinism contract
//!
//! A result served over the socket is **bit-identical** to what
//! [`bo3_core::experiment::Experiment::run`] returns in-process for the
//! same config — whatever the worker count, slice size, queue position or
//! concurrent load.  This falls out of two invariants: every RNG draw in
//! the engine is a pure function of `(master_seed, round, chunk)`, and the
//! service's progress callbacks only *observe* round-boundary checkpoints.
//! The wire format preserves the equality because the config-IO float
//! writer is shortest-round-trip lossless.  Wire-level tests pin all of it.
//!
//! ## Graceful shutdown
//!
//! SIGTERM (or a wire-level `shutdown` request) triggers a first-class
//! drain: the daemon stops accepting, cancels queued jobs, and raises one
//! shared drain flag that every in-flight `RunBudget` checks at round
//! boundaries — so all workers stop within a single round slice, every
//! subscriber receives a terminal line, and the process exits 0.  The drain
//! deadline and completion are recorded in the event log.
//!
//! ## Quickstart
//!
//! ```
//! use bo3_serve::{Client, Service, ServiceConfig};
//! use bo3_core::prelude::*;
//!
//! let handle = Service::start(ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let experiment = Experiment::on(TopologySpec::Complete { n: 500 })
//!     .named("doc/served")
//!     .replicas(2)
//!     .seed(11);
//! let job = client.submit(&experiment).unwrap();
//! let report = client.wait_done(job).unwrap();
//! assert_eq!(report.report, experiment.run().unwrap().report); // bit-identical
//! handle.drain_and_join();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod controller;
pub mod scheduler;
pub mod transport;

pub use client::{http_get, Client};
pub use controller::ServiceMetrics;
pub use scheduler::{JobSpec, Scheduler};

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bo3_obs::{EventLog, Field, MetricsRegistry};

use transport::ServerCtx;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port `0` picks an ephemeral port (the handle reports
    /// the actual one).
    pub addr: String,
    /// Worker threads — the number of experiments that run concurrently.
    /// `0` means the machine's available parallelism.
    pub workers: usize,
    /// Rounds per engine slice: how often progress streams, cancellation is
    /// polled and the drain flag is honoured.
    pub rounds_per_slice: usize,
    /// How long finished jobs stay queryable before lazy eviction.
    pub job_ttl: Duration,
    /// Drain budget recorded in the event log at shutdown; the drain is
    /// expected (and asserted in CI) to finish well inside it.
    pub drain_grace: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            rounds_per_slice: 64,
            job_ttl: Duration::from_secs(600),
            drain_grace: Duration::from_secs(30),
        }
    }
}

impl ServiceConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    }
}

/// The daemon entry point; [`Service::start`] returns a [`ServiceHandle`].
pub struct Service;

impl Service {
    /// Binds the listener, spawns the worker pool and the accept loop, and
    /// returns the handle the owner drives shutdown through.
    pub fn start(config: ServiceConfig) -> std::io::Result<ServiceHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = Arc::new(ServiceMetrics::register(&registry));
        let events = Arc::new(EventLog::new(1 << 16));
        let scheduler = Arc::new(Scheduler::new(config.job_ttl));
        let shutdown_requested = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Mutex::new(Vec::new()));

        let worker_count = config.resolved_workers();
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let scheduler = Arc::clone(&scheduler);
            let metrics = Arc::clone(&metrics);
            let events = Arc::clone(&events);
            let slice = config.rounds_per_slice;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("bo3-serve-worker-{i}"))
                    .spawn(move || controller::worker_loop(&scheduler, &metrics, &events, slice))?,
            );
        }

        let ctx = Arc::new(ServerCtx {
            scheduler: Arc::clone(&scheduler),
            metrics: Arc::clone(&metrics),
            registry: Arc::clone(&registry),
            events: Arc::clone(&events),
            shutdown_requested: Arc::clone(&shutdown_requested),
        });
        let accept = {
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("bo3-serve-accept".into())
                .spawn(move || transport::accept_loop(listener, ctx, connections))?
        };

        events.event(
            "service_started",
            &[
                ("workers", Field::U64(worker_count as u64)),
                (
                    "rounds_per_slice",
                    Field::U64(config.rounds_per_slice as u64),
                ),
            ],
        );
        Ok(ServiceHandle {
            local_addr,
            scheduler,
            metrics,
            registry,
            events,
            shutdown_requested,
            drain_grace: config.drain_grace,
            accept: Some(accept),
            workers,
            connections,
        })
    }
}

/// Owner's handle on a running daemon.
pub struct ServiceHandle {
    local_addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    metrics: Arc<ServiceMetrics>,
    registry: Arc<MetricsRegistry>,
    events: Arc<EventLog>,
    shutdown_requested: Arc<AtomicBool>,
    drain_grace: Duration,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServiceHandle {
    /// The address the daemon actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The daemon's metrics registry (`GET /metrics` renders this).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The daemon's instruments.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// The daemon's scheduler (used by in-process tests).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Whether a client asked the daemon to shut down over the wire.  The
    /// process's main loop polls this and calls [`ServiceHandle::trigger_drain`],
    /// keeping the wire path and the SIGTERM path identical.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Begins the graceful drain: stop accepting, cancel queued jobs, raise
    /// the shared drain flag every in-flight [`bo3_dynamics::checkpoint::RunBudget`]
    /// polls.  Records the drain deadline in the event log.  Idempotent.
    pub fn trigger_drain(&self) {
        if self.scheduler.draining() {
            return;
        }
        self.events.event(
            "drain_begin",
            &[
                ("grace_ms", Field::U64(self.drain_grace.as_millis() as u64)),
                (
                    "deadline_ns",
                    Field::U64(self.events.elapsed_ns().saturating_add(
                        u64::try_from(self.drain_grace.as_nanos()).unwrap_or(u64::MAX),
                    )),
                ),
            ],
        );
        let cancelled = self.scheduler.begin_drain();
        self.events.event(
            "drain_queued_cancelled",
            &[("jobs", Field::U64(cancelled.len() as u64))],
        );
    }

    /// Joins every thread (accept loop, workers, connections).  Call after
    /// [`ServiceHandle::trigger_drain`]; blocks until the drain completes
    /// and records whether it beat the grace deadline.
    pub fn join(mut self) {
        let started = Instant::now();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.connections.lock().expect("connection registry");
            guard.drain(..).collect()
        };
        for conn in handles {
            let _ = conn.join();
        }
        let elapsed = started.elapsed();
        self.events.event(
            "drain_complete",
            &[
                ("drain_ms", Field::U64(elapsed.as_millis() as u64)),
                ("within_grace", Field::Bool(elapsed <= self.drain_grace)),
            ],
        );
    }

    /// [`ServiceHandle::trigger_drain`] + [`ServiceHandle::join`], and the
    /// event log is returned for the caller to persist.
    pub fn drain_and_join(self) -> String {
        self.trigger_drain();
        let events = Arc::clone(&self.events);
        self.join();
        events.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_core::prelude::*;

    fn quick(name: &str, seed: u64) -> Experiment {
        Experiment::on(TopologySpec::Complete { n: 400 })
            .named(name)
            .initial(InitialCondition::BernoulliWithBias { delta: 0.2 })
            .replicas(2)
            .seed(seed)
    }

    fn tiny_service() -> ServiceHandle {
        Service::start(ServiceConfig {
            workers: 2,
            rounds_per_slice: 4,
            ..ServiceConfig::default()
        })
        .unwrap()
    }

    /// A job that holds a worker for seconds: the voter model on a complete
    /// graph needs Θ(n) rounds, so the drain / cancel paths always catch it
    /// mid-run.
    fn blocker(seed: u64) -> Experiment {
        Experiment::on(TopologySpec::Complete { n: 4_000 })
            .named("serve/blocker")
            .protocol(ProtocolSpec::Voter)
            .initial(InitialCondition::BernoulliWithBias { delta: 1e-6 })
            .stopping(StoppingCondition::consensus_within(1_000_000))
            .replicas(8)
            .seed(seed)
    }

    #[test]
    fn served_results_are_bit_identical_to_in_process_runs() {
        // One worker: the blocker occupies it, so the target job is still
        // queued when we subscribe — the update stream is race-free.
        let handle = Service::start(ServiceConfig {
            workers: 1,
            rounds_per_slice: 4,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        let hold = client.submit(&blocker(9)).unwrap();
        let experiment = quick("serve/unit", 33);
        let job = client.submit(&experiment).unwrap();
        let subscription = handle.scheduler().subscribe(job).unwrap();
        let rx = subscription.live.expect("queued job gives a live channel");
        client.cancel(hold).unwrap();
        let served = client.wait_done(job).unwrap();
        let direct = experiment.run().unwrap();
        assert_eq!(served.report, direct.report);
        assert_eq!(served.n, direct.n);
        // The stream saw the terminal stop-reason update, then the done line.
        let mut lines = Vec::new();
        while let Ok(msg) = rx.recv_timeout(Duration::from_secs(10)) {
            let terminal = msg.terminal;
            lines.push(msg.line);
            if terminal {
                break;
            }
        }
        assert!(lines.len() >= 2);
        assert!(lines[lines.len() - 2].contains("\"stop_reason\":\"consensus\""));
        assert!(lines[lines.len() - 1].contains("\"type\":\"done\""));
        // A late subscriber over the wire gets the terminal line straight away.
        let mut late = Client::connect(handle.local_addr()).unwrap();
        let (late_updates, terminal) = late.stream(job).unwrap();
        assert!(late_updates.is_empty());
        assert!(matches!(terminal, Response::Done { .. }));
        handle.drain_and_join();
    }

    #[test]
    fn invalid_configs_are_refused_at_the_socket() {
        let handle = tiny_service();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        let bad = quick("serve/bad", 1).replicas(0);
        let err = client.submit(&bad).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
        // The connection survives a refusal.
        client.ping().unwrap();
        // So does one of a replica count no run could size its buffers for.
        let huge = quick("serve/huge", 1).replicas(1 << 60).threads(1);
        let err = client.submit(&huge).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
        client.ping().unwrap();
        handle.drain_and_join();
    }

    #[test]
    fn drain_cancels_in_flight_jobs_within_a_slice_and_logs_the_deadline() {
        let handle = Service::start(ServiceConfig {
            workers: 1,
            rounds_per_slice: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        let job = client.submit(&blocker(5)).unwrap();
        // Give the worker a moment to claim the job, then pull the plug.
        std::thread::sleep(Duration::from_millis(200));
        let events = handle.drain_and_join();
        assert!(events.contains("drain_begin"));
        assert!(events.contains("deadline_ns"));
        assert!(events.contains("drain_complete"));
        // The job ended cancelled, not stuck.
        let mut line_has_cancel = events.contains("job_cancelled");
        // It may also have been cancelled while still queued.
        line_has_cancel |= events.contains("drain_queued_cancelled");
        assert!(line_has_cancel);
        let _ = job;
    }

    #[test]
    fn shutdown_request_raises_the_flag_for_the_owner() {
        let handle = tiny_service();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        assert!(!handle.shutdown_requested());
        client.shutdown().unwrap();
        assert!(handle.shutdown_requested());
        handle.drain_and_join();
    }

    #[test]
    fn http_surface_serves_prometheus_and_json() {
        let handle = tiny_service();
        let prom = http_get(handle.local_addr(), "/metrics").unwrap();
        assert!(prom.contains("# TYPE service_jobs_accepted_total counter"));
        assert!(prom.contains("service_queue_depth"));
        let json = http_get(handle.local_addr(), "/metrics.json").unwrap();
        assert!(json.contains("\"counters\""));
        let status = http_get(handle.local_addr(), "/status").unwrap();
        assert!(status.contains("\"type\":\"status\""));
        assert!(http_get(handle.local_addr(), "/nope").is_err());
        handle.drain_and_join();
    }
}
