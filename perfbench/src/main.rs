//! `bo3-perfbench`: the workspace's one benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kn_sync|gnp_sync|alpha_async|served> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root.  The workload's inputs are made from
//! `--seed`; the run measures for `--seconds`, checks every output, and
//! prints as its last stdout line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`.  The line before
//! it carries the run's stamp (revision, machine, thread counts, seed), the
//! median, quartiles and sample count behind each metric, and any failed
//! check.  A traced run also writes its spans to
//! `.bench_trace/<workload>-seed<seed>.jsonl`.  See `perfbench/README.md`.

mod engine;
mod machine;
mod report;
mod served;
mod stats;
mod trace;

use bo3_core::configio::Json;
use bo3_core::prelude::{GraphSpec, Opinion, Schedule, TopologySpec};

use engine::EngineWorkload;
use report::{catalogue, Report};
use served::ServedWorkload;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["kn_sync", "gnp_sync", "alpha_async", "served"];

/// A named workload at the benchmark's size, or at the self-test's reduced
/// size.
enum Workload {
    Engine(EngineWorkload),
    Served(ServedWorkload),
}

fn engine_workload(name: &str, reduced: bool) -> Option<EngineWorkload> {
    let pick = |full: usize, small: usize| if reduced { small } else { full };
    // Implicit topologies build in well under a microsecond, so their
    // set-ups are timed in batches of 1000; the materialised one takes
    // seconds.
    let (topology, delta, schedule, setups, setup_batch) = match name {
        "kn_sync" => (
            TopologySpec::Complete {
                n: pick(1_000_000, 20_000),
            },
            0.0125,
            Schedule::Synchronous,
            pick(21, 3),
            pick(1000, 10),
        ),
        "gnp_sync" => (
            TopologySpec::ImplicitGnp {
                n: pick(1_000_000, 20_000),
                p: 0.5,
            },
            0.1,
            Schedule::Synchronous,
            pick(21, 3),
            pick(1000, 10),
        ),
        "alpha_async" => (
            TopologySpec::Materialised(GraphSpec::DenseForAlpha {
                n: pick(50_000, 2_000),
                alpha: 0.6,
            }),
            0.1,
            Schedule::AsynchronousRandomOrder,
            pick(5, 2),
            1,
        ),
        _ => return None,
    };
    let complete_twin = (name == "gnp_sync")
        .then(|| engine_workload("kn_sync", reduced).map(Box::new))
        .flatten();
    Some(EngineWorkload {
        topology,
        delta,
        schedule,
        setups,
        setup_batch,
        expect_winner: Opinion::Red,
        complete_twin,
    })
}

fn workload(name: &str, reduced: bool) -> Option<Workload> {
    if name == "served" {
        let pick = |full: usize, small: usize| if reduced { small } else { full };
        return Some(Workload::Served(ServedWorkload {
            complete_n: pick(350_000, 4_000),
            gnp_n: pick(50_000, 2_000),
            setups: pick(41, 3),
            expect_winner: Opinion::Red,
        }));
    }
    engine_workload(name, reduced).map(Workload::Engine)
}

/// Runs `workload` and returns its report, plus the spans of a traced run.
fn execute(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> (Report, Option<Tracer>) {
    match (workload, traced) {
        (Workload::Engine(w), false) => (engine::run(w, seed, seconds), None),
        (Workload::Engine(w), true) => {
            let (report, tracer) = engine::run_traced(w, seed, seconds);
            (report, Some(tracer))
        }
        (Workload::Served(w), false) => (served::run(w, seed, seconds), None),
        (Workload::Served(w), true) => {
            let (report, tracer) = served::run_traced(w, seed, seconds);
            (report, Some(tracer))
        }
    }
}

/// Finishes a report: the end-to-end metrics every workload shares
/// (`peak_rss_mb`, `success_rate`).
fn finish(report: &mut Report, traced: bool) {
    if !traced {
        report.set("peak_rss_mb", machine::peak_rss_mb());
        report.set("success_rate", 1.0 - report.error_rate());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(workload) = workload(&args.workload, false) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    let (threads, workers, clients) = match &workload {
        Workload::Engine(_) => (1, 0, 0),
        Workload::Served(_) => (1, served::WORKERS, served::CLIENTS),
    };
    let stamp = machine::stamp(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        threads,
        workers,
        clients,
    );
    let (mut report, tracer) = execute(&workload, args.seed, args.seconds, args.traced);
    finish(&mut report, args.traced);
    if let Some(tracer) = tracer {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    let result = report.result_line(catalogue(args.traced));
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let problems = report.problems.iter().map(|p| Json::Str(p.clone()));
    let detail = report::obj(vec![
        ("stamp", stamp),
        ("spreads", report.spreads_json()),
        ("problems", Json::Arr(problems.collect())),
    ]);
    println!("{}", detail.to_json_string());
    println!("{result}");
}

#[cfg(test)]
mod selftest {
    //! Reduced-size runs of every workload: every metric `BENCHMARK.json`
    //! names is emitted with its unit, and a wrong expected outcome fails
    //! the output check.

    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_and_units(json: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = json.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn catalogue_of(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_emitted_metric_and_workload() {
        let json = benchmark_json();
        assert_eq!(
            names_and_units(&json, "end_to_end"),
            catalogue_of(END_TO_END)
        );
        assert_eq!(names_and_units(&json, "per_layer"), catalogue_of(PER_LAYER));
        let Some(Json::Arr(workloads)) = json.get("workloads") else {
            panic!("BENCHMARK.json lacks workloads");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    /// The result line's metric names and units, parsed back.
    fn emitted(report: &mut Report, traced: bool) -> (Json, Vec<(String, String)>) {
        let line = report.result_line(catalogue(traced));
        let json = Json::parse(&line).expect("result line parses");
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            panic!("result line lacks metrics");
        };
        let units = metrics
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        (json, units)
    }

    #[test]
    fn every_workload_emits_every_metric_and_passes_its_checks() {
        for name in WORKLOADS {
            for traced in [false, true] {
                let w = workload(name, true).expect("known workload");
                let (mut report, _) = execute(&w, 7, 0.5, traced);
                finish(&mut report, traced);
                let (json, mut units) = emitted(&mut report, traced);
                let mut expected = catalogue_of(catalogue(traced));
                units.sort();
                expected.sort();
                assert_eq!(units, expected, "{name} trace={traced}");
                assert!(
                    report.correct(),
                    "{name} trace={traced}: {:?}",
                    report.problems
                );
                assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            }
        }
    }

    #[test]
    fn a_wrong_expected_outcome_fails_the_output_check() {
        for name in WORKLOADS {
            let mut w = workload(name, true).expect("known workload");
            match &mut w {
                Workload::Engine(e) => e.expect_winner = Opinion::Blue,
                Workload::Served(s) => s.expect_winner = Opinion::Blue,
            }
            let (mut report, _) = execute(&w, 7, 0.3, false);
            finish(&mut report, false);
            assert!(!report.correct(), "{name} accepted a blue expectation");
            assert!(report.failed > 0 && report.value("success_rate") < Some(1.0));
        }
    }
}
