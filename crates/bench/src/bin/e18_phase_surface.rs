//! E18: crash-safe SBM phase-surface campaign — polarisation thresholds
//! vs mean-field theory, resumable after SIGINT/SIGTERM/SIGKILL.
//!
//! Usage:
//! ```text
//! cargo run --release -p bo3-bench --bin e18_phase_surface -- \
//!     [--scale quick|paper] [--dir <campaign-dir>] [--slice <rounds>] [--status]
//! ```
//!
//! `BO3_QUICK=1` forces the quick grid whatever `--scale` says (CI uses
//! this).  The campaign directory (default `e18_campaign`) holds the
//! manifest, per-cell results and checkpoints; when the sweep completes the
//! `BENCH_surface*.json` artefacts are written there too.  Interrupt with
//! Ctrl-C (or SIGTERM) and the current cell is checkpointed at the next
//! round boundary; re-running the same command resumes where it stopped and
//! produces byte-identical artefacts.
//!
//! `--status` prints the grid's progress (per-cell status, attempts,
//! resumes, accumulated wall time) from `manifest.json` and exits without
//! touching the campaign — safe to run while another process drives it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use bo3_bench::e18_phase_surface as e18;
use bo3_bench::Scale;

/// The cancel flag the signal handler flips (a C signal handler cannot
/// capture an `Arc`, so the flag is parked in a static).
static CANCEL: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
mod signals {
    use super::{Ordering, CANCEL};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.  The campaign runner
        // polls the flag at every round boundary and flushes a checkpoint
        // before returning.
        if let Some(flag) = CANCEL.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Installs the SIGINT/SIGTERM handlers (after `CANCEL` is set).
    #[allow(unsafe_code)]
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    /// No signal wiring off Unix — the campaign still resumes after any
    /// kill thanks to its atomic-write discipline.
    pub fn install() {}
}

fn parse_args() -> (Scale, PathBuf, usize, bool) {
    let mut scale = Scale::Quick;
    let mut dir = PathBuf::from("e18_campaign");
    let mut slice = 64usize;
    let mut status = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                if let Some(v) = args.next() {
                    scale = v.parse().unwrap_or(Scale::Quick);
                }
            }
            "--dir" => {
                if let Some(v) = args.next() {
                    dir = PathBuf::from(v);
                }
            }
            "--slice" => {
                if let Some(v) = args.next() {
                    slice = v.parse().unwrap_or(slice);
                }
            }
            "--status" => status = true,
            other => eprintln!("ignoring unknown argument '{other}'"),
        }
    }
    if bo3_bench::quick() {
        scale = Scale::Quick;
    }
    (scale, dir, slice, status)
}

fn main() {
    let (scale, dir, slice, status_only) = parse_args();
    if status_only {
        // Read-only: report grid progress from the manifest and exit
        // without creating, locking or writing anything.
        match e18::status(scale, &dir) {
            Ok(status) => {
                println!("{}", status.table().to_pretty_string());
                println!("{}", status.summary());
            }
            Err(e) => {
                eprintln!("status failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let cancel = CANCEL
        .get_or_init(|| Arc::new(AtomicBool::new(false)))
        .clone();
    signals::install();
    match e18::run_campaign(scale, &dir, cancel, slice) {
        Ok(Some(sheets)) => {
            println!("{}", e18::thresholds_table(&sheets).to_pretty_string());
            println!(
                "campaign complete — artefacts in {} (BENCH_surface*.json)",
                dir.display()
            );
        }
        Ok(None) => {
            // Interrupted: the checkpoint is flushed and every artefact on
            // disk is whole — resuming is always safe.
            println!(
                "campaign interrupted — state saved in {}; resume with the same command",
                dir.display()
            );
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    }
}
