//! The transport: accept loop, connection framing and request dispatch.
//!
//! Every connection speaks one of two things, decided by its first line:
//!
//! * **NDJSON** — one [`Request`] per line, answered with one or more
//!   [`Response`] lines (a `stream` request answers with many).  Malformed
//!   lines get a typed [`Response::Error`] and the connection stays open;
//!   the framing never panics on hostile input.
//! * **HTTP GET** — a minimal read-only surface for scrapers:
//!   `GET /metrics` (Prometheus text), `GET /metrics.json` (the registry's
//!   JSON snapshot) and `GET /status` (the job table as JSON).  One request
//!   per connection, `Connection: close` semantics.
//!
//! Reads poll with a 100 ms timeout and re-check the daemon's drain flag,
//! so a SIGTERM unblocks every connection thread within one poll interval
//! even when clients hold their sockets open.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bo3_core::configio::Json;
use bo3_core::prelude::{FromJson, Request, Response, ToJson, WireError};
use bo3_core::wire::ErrorCode;
use bo3_obs::{EventLog, Field, MetricsRegistry};

use crate::controller::ServiceMetrics;
use crate::scheduler::Scheduler;

/// Everything a connection thread needs, shared by reference count.
pub struct ServerCtx {
    /// The job table / queue.
    pub scheduler: Arc<Scheduler>,
    /// The daemon's instruments.
    pub metrics: Arc<ServiceMetrics>,
    /// The registry behind `GET /metrics`.
    pub registry: Arc<MetricsRegistry>,
    /// The daemon's event log.
    pub events: Arc<EventLog>,
    /// Raised by a wire-level `shutdown` request; the daemon's main loop
    /// polls it and triggers the same drain path as SIGTERM.
    pub shutdown_requested: Arc<AtomicBool>,
}

/// Cap on one request line (64 MiB) — large enough for any campaign the
/// bench suite ships, small enough that a hostile peer cannot balloon the
/// daemon's memory through an endless unterminated line.
const MAX_LINE_BYTES: usize = 64 << 20;

/// Reads `\n`-terminated lines off a socket with a poll-based timeout so the
/// drain flag is honoured even while idle.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Prefix of `buf` already searched for `\n`, so each byte is scanned
    /// once and reading a line stays linear in its length.
    scanned: usize,
}

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
        }
    }

    /// The next line (without its terminator), or `None` on EOF, oversized
    /// input, or when `stop` turns true while idle.
    fn next_line(&mut self, stop: &dyn Fn() -> bool) -> Option<String> {
        let mut chunk = [0u8; 4096];
        loop {
            let from = self.scanned;
            if let Some(i) = self.buf[from..].iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(from + i + 1);
                self.scanned = 0;
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Some(String::from_utf8_lossy(&line).into_owned());
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_LINE_BYTES {
                return None;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if stop() {
                        return None;
                    }
                }
                Err(_) => return None,
            }
        }
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

fn respond(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    write_line(stream, &response.to_json_string())
}

fn error_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error(WireError::new(code, message))
}

/// Handles one accepted connection to completion.
pub fn handle_connection(stream: TcpStream, ctx: &ServerCtx) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader::new(stream);
    let stop = || ctx.scheduler.draining();
    let Some(first) = reader.next_line(&stop) else {
        return;
    };
    if first.starts_with("GET ") || first.starts_with("HEAD ") {
        serve_http(&first, &mut reader, &mut writer, ctx);
        return;
    }
    let mut line = Some(first);
    loop {
        let Some(current) = line.take().or_else(|| reader.next_line(&stop)) else {
            return;
        };
        if current.trim().is_empty() {
            continue;
        }
        if handle_request_line(current.trim(), &mut writer, ctx).is_err() {
            return; // peer hung up mid-write
        }
    }
}

fn handle_request_line(line: &str, writer: &mut TcpStream, ctx: &ServerCtx) -> io::Result<()> {
    let request = match Request::from_json_str(line) {
        Ok(req) => req,
        Err(e) => {
            return respond(
                writer,
                &error_response(ErrorCode::BadRequest, e.to_string()),
            );
        }
    };
    match request {
        Request::Submit(experiment) => {
            if let Err(e) = experiment.validate_config() {
                return respond(
                    writer,
                    &error_response(ErrorCode::InvalidConfig, e.to_string()),
                );
            }
            match ctx.scheduler.submit(experiment) {
                Ok(job) => {
                    ctx.metrics.jobs_accepted.inc();
                    ctx.metrics
                        .queue_depth
                        .set(ctx.scheduler.queue_depth() as i64);
                    ctx.events
                        .event("job_accepted", &[("job", Field::U64(job))]);
                    respond(writer, &Response::Accepted { job })
                }
                Err(e) => respond(writer, &Response::Error(e)),
            }
        }
        Request::SubmitCampaign(campaign) => {
            for cell in &campaign.cells {
                if let Err(e) = cell.validate_config() {
                    return respond(
                        writer,
                        &error_response(
                            ErrorCode::InvalidConfig,
                            format!("cell '{}': {e}", cell.name),
                        ),
                    );
                }
            }
            match ctx.scheduler.submit_campaign(*campaign) {
                Ok((name, jobs)) => {
                    ctx.metrics.jobs_accepted.add(jobs.len() as u64);
                    ctx.metrics
                        .queue_depth
                        .set(ctx.scheduler.queue_depth() as i64);
                    ctx.events.event(
                        "campaign_accepted",
                        &[
                            ("campaign", Field::Str(&name)),
                            ("cells", Field::U64(jobs.len() as u64)),
                        ],
                    );
                    respond(writer, &Response::CampaignAccepted { name, jobs })
                }
                Err(e) => respond(writer, &Response::Error(e)),
            }
        }
        Request::Status { job } => match ctx.scheduler.status(job) {
            Ok(status) => respond(writer, &status),
            Err(e) => respond(writer, &Response::Error(e)),
        },
        Request::Stream { job } => serve_stream(job, writer, ctx),
        Request::Cancel { job } => match ctx.scheduler.cancel(job) {
            Ok(()) => respond(writer, &Response::Ok),
            Err(e) => respond(writer, &Response::Error(e)),
        },
        Request::Metrics => {
            let snapshot = Json::parse(&ctx.registry.snapshot_json()).unwrap_or(Json::Null);
            respond(writer, &Response::Metrics { snapshot })
        }
        Request::Ping => respond(writer, &Response::Pong),
        Request::Shutdown => {
            ctx.shutdown_requested.store(true, Ordering::SeqCst);
            respond(writer, &Response::Ok)
        }
    }
}

/// Streams a job: forwards every published line until the terminal one.
fn serve_stream(job: u64, writer: &mut TcpStream, ctx: &ServerCtx) -> io::Result<()> {
    let subscription = match ctx.scheduler.subscribe(job) {
        Ok(s) => s,
        Err(e) => return respond(writer, &Response::Error(e)),
    };
    for msg in &subscription.backlog {
        write_line(writer, &msg.line)?;
        if msg.terminal {
            return Ok(());
        }
    }
    let Some(rx) = subscription.live else {
        return Ok(());
    };
    // Every job reaches a terminal line — a drain cancels queued and
    // running jobs alike — so this loop always ends; the idle guard only
    // covers a scheduler that was torn down under us.
    let mut idle_polls = 0u32;
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(msg) => {
                idle_polls = 0;
                write_line(writer, &msg.line)?;
                if msg.terminal {
                    return Ok(());
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if ctx.scheduler.draining() {
                    idle_polls += 1;
                    if idle_polls > 50 {
                        return Ok(());
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Minimal HTTP/1.0-style answers for scrapers; one request per connection.
fn serve_http(
    request_line: &str,
    reader: &mut LineReader,
    writer: &mut TcpStream,
    ctx: &ServerCtx,
) {
    // Drain the header block so well-behaved clients see a clean close.
    let stop = || ctx.scheduler.draining();
    while let Some(header) = reader.next_line(&stop) {
        if header.trim().is_empty() {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            ctx.registry.render_prometheus(),
        ),
        "/metrics.json" => ("200 OK", "application/json", ctx.registry.snapshot_json()),
        "/status" => (
            "200 OK",
            "application/json",
            ctx.scheduler
                .status(None)
                .map(|s| s.to_json_string())
                .unwrap_or_else(|e| Response::Error(e).to_json_string()),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no such path: {path}\n"),
        ),
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = writer.write_all(head.as_bytes());
    let _ = writer.write_all(body.as_bytes());
    let _ = writer.flush();
}

/// The accept loop: non-blocking accept polled against the drain flag; one
/// thread per connection, handles parked in `connections` so the drain can
/// join them.
pub fn accept_loop(
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    loop {
        if ctx.scheduler.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let ctx = Arc::clone(&ctx);
                let handle = std::thread::spawn(move || handle_connection(stream, &ctx));
                connections
                    .lock()
                    .expect("connection registry")
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}
