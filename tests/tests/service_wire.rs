//! Wire-level integration suite for the `bo3-serve` daemon.
//!
//! Pins the service determinism contract from `ISSUE`/`ROADMAP`: a result
//! served over the socket is **bit-identical** (`==` on the config-IO
//! round-trip types) to an in-process [`Experiment::run`] of the same JSON —
//! at 1, 2 and 8 server worker threads, while other jobs run concurrently —
//! plus cancel-mid-run, malformed-request handling, campaign fan-out parity
//! and the graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bo3_core::prelude::*;
use bo3_serve::{Client, Service, ServiceConfig, ServiceHandle};

fn service(workers: usize, rounds_per_slice: usize) -> ServiceHandle {
    Service::start(ServiceConfig {
        workers,
        rounds_per_slice,
        ..ServiceConfig::default()
    })
    .expect("daemon starts on an ephemeral port")
}

/// The experiment every determinism test round-trips: implicit `G(n, p)`,
/// so the adjacency-free sampler path is what travels the socket.
fn gnp_experiment(seed: u64) -> Experiment {
    Experiment::on(TopologySpec::ImplicitGnp { n: 3_000, p: 0.3 })
        .named(format!("wiretest/gnp/{seed}"))
        .initial(InitialCondition::BernoulliWithBias { delta: 0.15 })
        .replicas(3)
        .seed(seed)
}

/// Background traffic: implicit `K_n`, implicit `G(n, p)`, implicit
/// `K_{a,b}` and a materialised dense `G(n, p)`, whose CSR the daemon
/// builds from the seed just as the in-process run does.
fn mixed_experiment(i: u64) -> Experiment {
    match i % 4 {
        0 => Experiment::on(TopologySpec::Complete { n: 2_500 })
            .named(format!("wiretest/mix/{i}"))
            .initial(InitialCondition::BernoulliWithBias { delta: 0.2 })
            .replicas(2)
            .seed(100 + i),
        1 => gnp_experiment(100 + i),
        2 => Experiment::on(TopologySpec::CompleteBipartite { a: 1_200, b: 1_300 })
            .named(format!("wiretest/mix/{i}"))
            .initial(InitialCondition::BernoulliWithBias { delta: 0.1 })
            .replicas(2)
            .seed(100 + i),
        _ => Experiment::on(TopologySpec::Materialised(GraphSpec::DenseForAlpha {
            n: 1_500,
            alpha: 0.8,
        }))
        .named(format!("wiretest/mix/{i}"))
        .initial(InitialCondition::BernoulliWithBias { delta: 0.1 })
        .replicas(2)
        .seed(100 + i),
    }
}

/// A job slow enough (voter model: Θ(n) rounds) that cancel and drain
/// always catch it mid-run.
fn slow_experiment(seed: u64) -> Experiment {
    Experiment::on(TopologySpec::Complete { n: 4_000 })
        .named("wiretest/slow")
        .protocol(ProtocolSpec::Voter)
        .initial(InitialCondition::BernoulliWithBias { delta: 1e-6 })
        .stopping(StoppingCondition::consensus_within(1_000_000))
        .replicas(8)
        .seed(seed)
}

/// Same experiment JSON over the socket at several worker counts, always
/// concurrent with a batch of other jobs: every served report must compare
/// bit-identical to the in-process run, and to each other across daemons.
#[test]
fn served_reports_are_bit_identical_across_worker_counts_under_load() {
    let target = gnp_experiment(7);
    let direct = target.run().expect("in-process run");
    // The JSON that travels the wire is the config-IO layout, so pin the
    // round-trip too: parse back what we serialise and compare.
    let reparsed = Experiment::from_json_str(&target.to_json_string()).expect("round-trip");
    assert_eq!(reparsed, target);

    for workers in [1usize, 2, 8] {
        let handle = service(workers, 16);
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        // Fill the queue with concurrent traffic first…
        let mut noise = Vec::new();
        for i in 0..8u64 {
            noise.push(client.submit(&mixed_experiment(i)).expect("submit noise"));
        }
        // …then the job under test, competing for the same workers.
        let job = client.submit(&target).expect("submit target");
        let served = client.wait_done(job).expect("served result");
        assert_eq!(
            served.report, direct.report,
            "socket result differs from in-process run at {workers} workers"
        );
        assert_eq!(served.n, direct.n);
        assert!(served.cell.is_none());
        // The noise jobs are deterministic too — spot-check them all.
        for (i, noise_job) in noise.into_iter().enumerate() {
            let mut streamer = Client::connect(handle.local_addr()).expect("connect");
            let report = streamer.wait_done(noise_job).expect("noise result");
            let expected = mixed_experiment(i as u64).run().expect("direct noise run");
            assert_eq!(
                report.report, expected.report,
                "noise job {i} diverged at {workers} workers"
            );
        }
        handle.drain_and_join();
    }
}

/// Eight experiments at once on an eight-worker daemon: all served
/// concurrently (the running gauge must reach the worker count) and all
/// bit-identical to their in-process twins.
#[test]
fn eight_concurrent_experiments_all_deterministic() {
    let handle = service(8, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let jobs: Vec<(u64, Experiment)> = (0..8u64)
        .map(|i| {
            let e = mixed_experiment(i);
            (client.submit(&e).expect("submit"), e)
        })
        .collect();
    let mut peak_running = 0i64;
    for _ in 0..50 {
        peak_running = peak_running.max(handle.metrics().jobs_running.get());
        std::thread::sleep(Duration::from_millis(2));
    }
    for (job, experiment) in jobs {
        let served = client.wait_done(job).expect("served");
        let direct = experiment.run().expect("direct");
        assert_eq!(served.report, direct.report, "job {job} diverged");
    }
    assert!(
        peak_running >= 2,
        "expected concurrent execution, saw peak {peak_running}"
    );
    handle.drain_and_join();
}

/// Cancelling mid-run stops the job within a round slice and streams the
/// terminal `cancelled` line to subscribers.
#[test]
fn cancel_mid_run_terminates_within_a_slice() {
    let handle = service(1, 1);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let job = client.submit(&slow_experiment(3)).expect("submit");
    // Let the worker claim it, then cancel from a second connection.
    std::thread::sleep(Duration::from_millis(150));
    let mut canceller = Client::connect(handle.local_addr()).expect("connect");
    canceller.cancel(job).expect("cancel");
    let (_updates, terminal) = client.stream(job).expect("stream");
    assert!(
        matches!(terminal, Response::Cancelled { job: j } if j == job),
        "expected cancelled, got {}",
        terminal.to_json_string()
    );
    // The worker is free again: a quick job still round-trips exactly.
    let quick = gnp_experiment(21);
    let next = client.submit(&quick).expect("submit after cancel");
    let served = client.wait_done(next).expect("post-cancel job");
    assert_eq!(served.report, quick.run().expect("direct").report);
    handle.drain_and_join();
}

/// Malformed and invalid requests get typed errors and never kill the
/// connection or the daemon.
#[test]
fn malformed_requests_get_typed_errors_and_keep_the_connection() {
    let handle = service(1, 16);
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let probes: &[(&str, &str)] = &[
        ("this is not json", "bad-request"),
        ("{}", "bad-request"),
        ("{\"type\":\"launch\"}", "bad-request"),
        ("{\"type\":\"submit\"}", "bad-request"),
        ("{\"type\":\"stream\"}", "bad-request"),
        ("{\"type\":\"cancel\",\"job\":99}", "unknown-job"),
        ("{\"type\":\"stream\",\"job\":99}", "unknown-job"),
    ];
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    for (line, want_code) in probes {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        stream.flush().expect("flush");
        let mut answer = String::new();
        std::io::BufRead::read_line(&mut reader, &mut answer).expect("read");
        let response = Response::from_json_str(answer.trim()).expect("typed response");
        match response {
            Response::Error(e) => assert_eq!(
                e.code.as_str(),
                *want_code,
                "probe {line:?} answered {answer:?}"
            ),
            other => panic!("probe {line:?} got non-error {}", other.to_json_string()),
        }
    }
    // A line nested far past the parser's cap is one more bad request —
    // not a stack overflow that aborts the daemon with every queued job —
    // and the connection keeps answering.
    let mut exchange = |line: &str| {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        stream.flush().expect("flush");
        let mut answer = String::new();
        std::io::BufRead::read_line(&mut reader, &mut answer).expect("read");
        Response::from_json_str(answer.trim()).expect("typed response")
    };
    match exchange(&"[".repeat(100_000)) {
        Response::Error(e) => assert_eq!(e.code.as_str(), "bad-request"),
        other => panic!("deep nesting got non-error {}", other.to_json_string()),
    }
    assert_eq!(exchange("{\"type\":\"ping\"}"), Response::Pong);
    // An ~8 MiB line is one more bad request, and reading it must take time
    // linear in its length: a reader that rescans its whole buffer after
    // every socket read needs tens of seconds for a line this long in a
    // debug build.  The clock runs from the first byte written to the
    // answer read.
    let started = Instant::now();
    let answer = exchange(&"x".repeat(8 << 20));
    let elapsed = started.elapsed();
    match answer {
        Response::Error(e) => assert_eq!(e.code.as_str(), "bad-request"),
        other => panic!("8 MiB line got non-error {}", other.to_json_string()),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "an 8 MiB line took {elapsed:?} to answer"
    );
    assert_eq!(exchange("{\"type\":\"ping\"}"), Response::Pong);
    Client::connect(handle.local_addr())
        .expect("fresh connection after deep nesting")
        .ping()
        .expect("ping on a fresh connection");
    // An invalid (but well-formed) config is its own error code.
    let bad = gnp_experiment(1).replicas(0);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let err = client.submit(&bad).expect_err("refused");
    assert!(matches!(err, CoreError::InvalidConfig { .. }));
    // So is a Best-of-k sample size outside 1..=MAX_BEST_OF_K, refused at
    // submission instead of taking a worker down.
    let bad_k = gnp_experiment(1).protocol(ProtocolSpec::BestOfK {
        k: 0,
        tie_rule: TieRule::KeepOwn,
    });
    let err = client.submit(&bad_k).expect_err("k = 0 refused");
    assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err:?}");
    // Daemon is still healthy.
    client.ping().expect("ping after abuse");
    handle.drain_and_join();
}

/// A spec whose vertex count overflows `usize` is refused at submission
/// with a typed error; it never reaches a worker, which stays free for the
/// next job.
#[test]
fn an_overflowing_vertex_count_is_refused_and_the_next_job_completes() {
    let handle = service(1, 16);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let half = 1usize << (usize::BITS - 1);
    for spec in [
        TopologySpec::CompleteBipartite {
            a: half,
            b: half + 6,
        },
        TopologySpec::CompleteMultipartite {
            blocks: vec![half, half, 4],
        },
    ] {
        let err = client
            .submit(&Experiment::on(spec.clone()).replicas(1))
            .expect_err("refused");
        assert!(
            matches!(err, CoreError::InvalidConfig { .. }),
            "{spec:?}: {err:?}"
        );
    }
    let next = Experiment::on(TopologySpec::Complete { n: 1_000 })
        .named("wiretest/after-overflow")
        .replicas(2)
        .seed(5);
    let job = client.submit(&next).expect("submit");
    let served = client.wait_done(job).expect("served");
    assert_eq!(served.report, next.run().expect("direct").report);
    handle.drain_and_join();
}

/// A run that panics fails its job with a typed `failed` response instead of
/// killing its worker: on a one-worker daemon the next job still completes,
/// equal to the in-process run.
#[test]
fn a_panicking_run_fails_its_job_and_the_worker_serves_the_next() {
    let handle = service(1, 16);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    // n = 2⁶³ is representable, so the spec passes validation and the
    // submit; the run then panics sizing its initial state.
    let quarter = 1usize << (usize::BITS - 2);
    let doomed = client
        .submit(
            &Experiment::on(TopologySpec::CompleteBipartite {
                a: quarter,
                b: quarter,
            })
            .replicas(1),
        )
        .expect("submit");
    let next = Experiment::on(TopologySpec::Complete { n: 1_000 })
        .named("wiretest/after-panic")
        .replicas(2)
        .seed(5);
    let job = client.submit(&next).expect("submit");
    assert_eq!(terminal_state(&mut client, doomed), JobState::Failed);
    assert_eq!(terminal_state(&mut client, job), JobState::Done);
    match client.stream(doomed).expect("stream").1 {
        Response::Failed { error, .. } => assert!(error.contains("panicked"), "{error}"),
        other => panic!("expected a failed response, got {other:?}"),
    }
    let served = client.wait_done(job).expect("served");
    assert_eq!(served.report, next.run().expect("direct").report);
    handle.drain_and_join();
}

/// Polls `status` until `job` is done, failed or cancelled; fails the test
/// after a minute instead of hanging on a wedged worker.
fn terminal_state(client: &mut Client, job: u64) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let Response::Status { jobs, .. } = client.status(Some(job)).expect("status") else {
            unreachable!("status answers with a status response");
        };
        let state = jobs[0].state;
        if matches!(
            state,
            JobState::Done | JobState::Failed | JobState::Cancelled
        ) {
            return state;
        }
        assert!(Instant::now() < deadline, "job {job} still {state:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `submit-campaign` fans every cell out as a job whose report (and
/// attached `CellResult`) matches driving the same cells directly.
#[test]
fn campaign_cells_served_match_direct_cell_runs() {
    let campaign = Campaign::new("wiretest/campaign", 41)
        .add_cell(
            Experiment::on(TopologySpec::Complete { n: 2_000 })
                .named("cell/a")
                .initial(InitialCondition::BernoulliWithBias { delta: 0.2 })
                .replicas(2),
        )
        .add_cell(
            Experiment::on(TopologySpec::ImplicitGnp { n: 2_500, p: 0.4 })
                .named("cell/b")
                .initial(InitialCondition::BernoulliWithBias { delta: 0.1 })
                .replicas(2),
        );
    let handle = service(2, 16);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let (name, jobs) = client.submit_campaign(&campaign).expect("submit campaign");
    assert_eq!(name, "wiretest/campaign");
    assert_eq!(jobs.len(), campaign.cells.len());
    for (index, job) in jobs.into_iter().enumerate() {
        let served = client.wait_done(job).expect("cell served");
        let direct = campaign.cells[index].run().expect("cell direct");
        assert_eq!(served.report, direct.report, "cell {index} diverged");
        let cell = served
            .cell
            .as_ref()
            .expect("campaign jobs carry CellResult");
        assert_eq!(cell.index, index);
        assert_eq!(
            *cell,
            CellResult::of(index, &campaign.cells[index].name, &direct.report)
        );
    }
    handle.drain_and_join();
}

/// SIGTERM semantics through the in-process API: drain stops acceptance,
/// cancels queued and running jobs within a slice, streams terminal lines,
/// and the event log records the deadline.
#[test]
fn drain_is_graceful_and_logged() {
    let handle = service(1, 1);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let running = client.submit(&slow_experiment(9)).expect("submit running");
    let queued = client.submit(&slow_experiment(10)).expect("submit queued");
    std::thread::sleep(Duration::from_millis(150));
    handle.trigger_drain();
    // Draining daemons refuse new work with the typed shutting-down error.
    let refused = client.submit(&gnp_experiment(2));
    match refused {
        Err(CoreError::Report { reason }) => {
            assert!(reason.contains("shutting-down"), "wrong refusal: {reason}")
        }
        other => panic!("submit during drain: {other:?}"),
    }
    // Both jobs come back cancelled over the wire.
    for job in [running, queued] {
        let (_u, terminal) = client.stream(job).expect("stream drained job");
        assert!(
            matches!(terminal, Response::Cancelled { job: j } if j == job),
            "job {job}: {}",
            terminal.to_json_string()
        );
    }
    let events = handle.drain_and_join();
    assert!(events.contains("\"event\":\"drain_begin\""));
    assert!(events.contains("deadline_ns"));
    assert!(events.contains("\"event\":\"drain_complete\""));
    assert!(events.contains("\"within_grace\":true"));
}

/// The HTTP surface: Prometheus text on `/metrics` with the service
/// instruments present, JSON elsewhere.
#[test]
fn metrics_endpoint_serves_all_service_instruments() {
    let handle = service(2, 16);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let quick = gnp_experiment(5);
    let job = client.submit(&quick).expect("submit");
    client.wait_done(job).expect("done");
    let prom = bo3_serve::http_get(handle.local_addr(), "/metrics").expect("GET /metrics");
    for instrument in [
        "service_jobs_accepted_total",
        "service_jobs_done_total",
        "service_jobs_failed_total",
        "service_jobs_cancelled_total",
        "service_jobs_running",
        "service_queue_depth",
        "service_job_wall_ns",
        "service_round_ns",
    ] {
        assert!(
            prom.contains(&format!("# TYPE {instrument}")),
            "missing {instrument} in:\n{prom}"
        );
    }
    assert!(prom.contains("service_jobs_done_total 1"));
    // The NDJSON metrics request serves the same registry as JSON.
    let snapshot = client.metrics().expect("metrics request");
    let rendered = snapshot.to_json_string();
    assert!(rendered.contains("service_jobs_done_total"));
    // An HTTP read of a bogus path is a 404, not a hang or a crash.
    let mut raw = TcpStream::connect(handle.local_addr()).expect("connect");
    raw.write_all(b"GET /bogus HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    let mut body = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    raw.read_to_string(&mut body).expect("read");
    assert!(body.starts_with("HTTP/1.1 404"));
    handle.drain_and_join();
}
