//! # bo3-bench
//!
//! The experiment harness that regenerates every quantitative claim of the
//! paper (experiments E1–E12), plus the scale experiment E14
//! (million-node Best-of-Three on the implicit topology layer) and the
//! crash-safe E18 phase-surface campaign (SBM polarisation thresholds vs
//! mean-field theory, resumable after any kill).
//!
//! Each experiment lives in its own module with a single entry point
//! `run(scale)` returning a [`bo3_core::report::Table`]; the binaries in
//! `src/bin/` print that table (and write CSV next to it), the Criterion
//! benches in `benches/` time the computational kernel of the same
//! experiment, and the unit tests run the `Quick` scale so the whole harness
//! is exercised by `cargo test`.
//!
//! Every performance artefact (`BENCH_*.json`, except E18's phase surfaces)
//! goes through [`ledger`]: one writer, one schema, one A/B round timer.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod e01_consensus_scaling;
pub mod e02_delta_sweep;
pub mod e03_protocol_comparison;
pub mod e04_degree_sweep;
pub mod e05_majority_win_prob;
pub mod e06_recursion_fidelity;
pub mod e07_collision_bounds;
pub mod e08_cobra_walk;
pub mod e09_duality;
pub mod e10_sprinkling_figure;
pub mod e11_phase_structure;
pub mod e12_best_of_k;
pub mod e14_scale;
pub mod e15_degree_ranked;
pub mod e18_phase_surface;
pub mod e19_service_load;
pub mod e20_sampler;
pub mod ledger;
pub mod obsprobe;

use bo3_core::report::Table;

/// How big an experiment should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale parameters, used by `cargo test` and the Criterion benches.
    Quick,
    /// The paper-scale parameters; minutes-scale on a laptop.
    Paper,
}

impl std::str::FromStr for Scale {
    type Err = std::convert::Infallible;

    /// Parses `--scale quick|paper` style values; unrecognised values fall
    /// back to [`Scale::Quick`], so parsing never fails.
    fn from_str(s: &str) -> Result<Scale, Self::Err> {
        Ok(match s.trim().to_ascii_lowercase().as_str() {
            "paper" | "full" => Scale::Paper,
            _ => Scale::Quick,
        })
    }
}

/// Shared entry point used by the experiment binaries: print the table to
/// stdout and, when `csv_path` is given, also write it as CSV.
pub fn emit(table: &Table, csv_path: Option<&str>) {
    println!("{}", table.to_pretty_string());
    if let Some(path) = csv_path {
        match table.write_csv(path) {
            Ok(()) => println!("(CSV written to {path})"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// The one quick switch: `true` when `BO3_QUICK` is set, non-empty and not
/// `"0"`.  The benches shrink their measurements under it, and it forces
/// [`Scale::Quick`] on the binaries whatever `--scale` says.
pub fn quick() -> bool {
    std::env::var_os("BO3_QUICK").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Standard argument handling for the experiment binaries:
/// `--scale quick|paper` (forced quick by [`quick`]) and `--csv <path>`.
pub fn scale_and_csv_from_args() -> (Scale, Option<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut csv = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().unwrap_or(Scale::Quick);
                i += 2;
            }
            "--csv" if i + 1 < args.len() => {
                csv = Some(args[i + 1].clone());
                i += 2;
            }
            _ => i += 1,
        }
    }
    if quick() {
        scale = Scale::Quick;
    }
    (scale, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!("paper".parse(), Ok(Scale::Paper));
        assert_eq!("FULL".parse(), Ok(Scale::Paper));
        assert_eq!("quick".parse(), Ok(Scale::Quick));
        assert_eq!("anything-else".parse(), Ok(Scale::Quick));
    }
}
