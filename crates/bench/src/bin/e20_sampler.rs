//! E20: batched-sampler throughput regression — writes `BENCH_sampler.json`
//! at the workspace root and **fails** when either committed floor breaks.
//!
//! Usage:
//! ```text
//! cargo run --release -p bo3-bench --bin e20_sampler -- [--scale quick|paper]
//! ```
//!
//! `BO3_QUICK=1` forces the quick workload whatever `--scale` says (the CI
//! bench-smoke job uses this).  The snapshot records the lane occupancy
//! next to the ratios.

use bo3_bench::ledger::{num, Ledger};
use bo3_bench::{e20_sampler as e20, Scale};
use bo3_core::configio::Json;
use bo3_core::prelude::*;

fn main() {
    let (scale, _csv) = bo3_bench::scale_and_csv_from_args();

    let rows = e20::measure_all(scale);
    println!(
        "{}",
        e20::results_table("E20: batched-sampler regression", &rows).to_pretty_string()
    );
    let sync_ratio = e20::ratio(&rows[0], &rows[1]);
    let async_ratio = e20::ratio(&rows[2], &rows[3]);
    let speedup = e20::measure_batched_over_scalar(scale);

    // One short metered probe carries the full registry snapshot (lane
    // counters included) into the ledger's observer.
    let probe = bo3_bench::obsprobe::probe_spec(
        &TopologySpec::ImplicitGnp {
            n: e20::measure_n(scale),
            p: 0.5,
        },
        0xE20,
        1,
    );

    let mut ledger = Ledger::new("e20_sampler", scale == Scale::Quick);
    for r in &rows {
        ledger.row(
            &r.label,
            [
                ("schedule", Json::Str(r.schedule.into())),
                ("n", num(r.n as f64)),
                ("rounds", num(r.rounds as f64)),
                ("wall_seconds", num(r.wall_seconds)),
                ("updates_per_sec", num(r.updates_per_sec)),
                ("sampler_tries_per_draw", num(r.tries_per_draw)),
                ("lane_occupancy", num(r.lane_occupancy)),
            ],
        );
    }
    // Two committed regression floors.  The machine-independent one is the
    // self-relative speedup: the batched lane vs the strict scalar sampler
    // on the *same* implicit G(n, 1/2), same seeds, same start, one engine
    // thread each, timed as interleaved order-balanced round pairs — losing
    // the lane routing shows up here no matter how fast the box is.  The
    // cross-kernel ratio floor is looser (see MIN_IMPLICIT_OVER_COMPLETE's
    // docs for why the kernels' per-update budgets differ by nature).  The
    // asynchronous ratio is recorded but not gated — its sequential sweep
    // has different bottlenecks (the per-round shuffle dominates at small
    // n) and the sync ratio is the one the lane was built to close.
    ledger
        .metric("implicit_over_complete_async", async_ratio)
        .floor(
            "batched_over_scalar_sync",
            speedup,
            e20::MIN_BATCHED_OVER_SCALAR,
        )
        .floor(
            "implicit_over_complete_sync",
            sync_ratio,
            e20::MIN_IMPLICIT_OVER_COMPLETE,
        )
        .observer(&probe.snapshot_json)
        .write("BENCH_sampler.json");
}
