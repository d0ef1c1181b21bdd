//! E19: load-generate against an in-process `bo3-serve` daemon and write
//! `BENCH_service.json` at the workspace root.
//!
//! Usage:
//! ```text
//! cargo run --release -p bo3-bench --bin e19_service_load -- [--scale quick|paper]
//! ```
//!
//! `BO3_QUICK=1` forces the quick workload whatever `--scale` says (CI uses
//! this).  The run fails loudly if any served report differs from its
//! in-process twin — throughput numbers from a non-deterministic service
//! would be meaningless.

use bo3_bench::{e19_service_load as e19, Scale};

fn main() {
    let (scale, _csv) = bo3_bench::scale_and_csv_from_args();
    let report = match e19::run(scale) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("service load failed: {e}");
            std::process::exit(1);
        }
    };
    if report.deterministic != report.jobs {
        eprintln!(
            "determinism violation: only {}/{} served reports matched their in-process runs",
            report.deterministic, report.jobs
        );
        std::process::exit(1);
    }
    println!("{}", e19::table(&report).to_pretty_string());

    e19::ledger(&report, scale == Scale::Quick).write("BENCH_service.json");
}
