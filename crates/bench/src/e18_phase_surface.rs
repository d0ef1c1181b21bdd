//! E18 — the phase-surface campaign: polarisation thresholds on two-block
//! SBMs, measured against the mean-field predictions of `bo3_theory::sbm`.
//!
//! The paper's Best-of-Three theorem covers dense graphs where red sweeps;
//! two-block SBMs are the simplest graphs where it *doesn't* — past a
//! critical assortativity `ratio = p_in / p_out` the blocks decouple and
//! the dynamics lock into polarisation.  Mean-field theory predicts two
//! thresholds (see `bo3_theory::sbm`): a pitchfork at `ratio = 5` on the
//! balanced manifold and full two-dimensional stability at `ratio = 7`,
//! with a placement-dependent basin in between.  This experiment sweeps
//! the `(ratio, δ)` surface for each (schedule × placement) combination
//! and records where the measured polarisation rate crosses ½ next to the
//! theory columns.
//!
//! The sweep runs as a crash-safe [`Campaign`]: every `(schedule,
//! placement, δ, ratio)` cell is one [`Experiment`] with a seed derived
//! from `(campaign seed, cell index)`, results land atomically in the
//! campaign directory, and a killed sweep resumes from its manifest and
//! checkpoints — see the `e18_phase_surface` binary for the SIGINT/SIGTERM
//! wiring.  Because every cell is deterministic, an interrupted-and-resumed
//! campaign produces byte-identical `BENCH_surface*.json` artefacts.
//!
//! Scales: quick mode (`--scale quick`, or forced by `BO3_QUICK=1`, see [`crate::quick`]) runs
//! `n = 20 000` over a coarse grid in seconds; paper mode is the full
//! `n = 10⁶` surface — 2 schedules × 2 placements × 15 ratios × 6 biases ×
//! 8 replicas, hours of compute and precisely the workload the campaign
//! runner's checkpointing exists for.

use bo3_core::bo3_theory::sbm;
use bo3_core::configio::Json;
use bo3_core::prelude::*;
use bo3_core::report::Table;

use crate::Scale;

/// Campaign seed for the whole surface.
pub const SEED: u64 = 0xE18;

/// Average edge probability held fixed as the assortativity ratio varies,
/// so degree stays constant and only community structure changes.
pub const P_AVG: f64 = 0.5;

/// Where the initial blue mass sits relative to the blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Blue i.i.d. with probability `1/2 − δ` everywhere — both blocks
    /// start on the symmetric manifold, which mean-field predicts decays
    /// to consensus at *every* ratio (polarisation needs asymmetry).
    Uniform,
    /// All `(1/2 − δ)·n` blue vertices in block 0 — block fractions
    /// `(1 − 2δ, 0)`, the maximally polarised start whose threshold
    /// `sbm::prefix_threshold_ratio` predicts.
    Prefix,
}

impl Placement {
    /// Label used in cell names, artefact files and tables.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Uniform => "uniform",
            Placement::Prefix => "prefix",
        }
    }

    /// The initial condition this placement induces at bias `delta`.
    pub fn initial(&self, n: usize, delta: f64) -> InitialCondition {
        match self {
            Placement::Uniform => InitialCondition::BernoulliWithBias { delta },
            Placement::Prefix => InitialCondition::PrefixBlue {
                blue: ((0.5 - delta) * n as f64).round() as usize,
            },
        }
    }
}

/// The schedules swept (labels for names and artefacts).
pub fn schedules() -> Vec<(Schedule, &'static str)> {
    vec![
        (Schedule::Synchronous, "sync"),
        (Schedule::AsynchronousRandomOrder, "async"),
    ]
}

/// The placements swept.
pub fn placements() -> Vec<Placement> {
    vec![Placement::Uniform, Placement::Prefix]
}

/// Grid dimensions of the surface at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceParams {
    /// Vertices per cell.
    pub n: usize,
    /// Assortativity ratios `p_in / p_out`, ascending.
    pub ratios: Vec<f64>,
    /// Initial biases `δ` (blue fraction `1/2 − δ`).
    pub deltas: Vec<f64>,
    /// Replicas per cell.
    pub replicas: usize,
    /// Round cap per replica (a capped, split run counts as polarised).
    pub max_rounds: usize,
}

/// The grid at each scale.  Quick straddles both predicted thresholds
/// (5 and 7) with a coarse grid CI can run in seconds; paper resolves the
/// surface at `n = 10⁶` with the full ratio ladder.
pub fn params(scale: Scale) -> SurfaceParams {
    match scale {
        Scale::Quick => SurfaceParams {
            n: 20_000,
            ratios: vec![2.0, 4.0, 6.0, 8.0],
            deltas: vec![0.05, 0.15],
            replicas: 2,
            max_rounds: 30,
        },
        Scale::Paper => SurfaceParams {
            n: 1_000_000,
            ratios: vec![
                1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 9.0, 10.0, 12.0,
            ],
            deltas: vec![0.0, 0.05, 0.1, 0.15, 0.2, 0.25],
            replicas: 8,
            max_rounds: 200,
        },
    }
}

/// One grid cell's coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCoord {
    /// The engine schedule.
    pub schedule: Schedule,
    /// Schedule label.
    pub schedule_label: &'static str,
    /// Blue-mass placement.
    pub placement: Placement,
    /// Initial bias.
    pub delta: f64,
    /// Assortativity ratio.
    pub ratio: f64,
}

/// The full grid in campaign-cell order: schedule → placement → δ → ratio
/// (ratio innermost and ascending, so threshold scans read consecutive
/// cells).
pub fn grid(params: &SurfaceParams) -> Vec<CellCoord> {
    let mut cells = Vec::new();
    for (schedule, schedule_label) in schedules() {
        for placement in placements() {
            for &delta in &params.deltas {
                for &ratio in &params.ratios {
                    cells.push(CellCoord {
                        schedule,
                        schedule_label,
                        placement,
                        delta,
                        ratio,
                    });
                }
            }
        }
    }
    cells
}

/// The SBM spec at one ratio: two blocks of `n / 2`, probabilities rounded
/// to 1e-9 (matching E14) so labels and JSON stay readable.
pub fn sbm_spec(n: usize, ratio: f64) -> TopologySpec {
    let p_out = (2.0e9 * P_AVG / (1.0 + ratio)).round() / 1e9;
    let p_in = (1e9 * ratio * p_out).round() / 1e9;
    TopologySpec::ImplicitSbm {
        n,
        blocks: 2,
        p_in,
        p_out,
    }
}

/// The experiment one cell runs (seed is stamped by the campaign).
pub fn cell_experiment(params: &SurfaceParams, coord: &CellCoord) -> Experiment {
    Experiment::on(sbm_spec(params.n, coord.ratio))
        .named(format!(
            "e18/{}/{}/d{:.2}/r{:.1}",
            coord.schedule_label,
            coord.placement.label(),
            coord.delta,
            coord.ratio
        ))
        .protocol(ProtocolSpec::BestOfThree)
        .initial(coord.placement.initial(params.n, coord.delta))
        .schedule(coord.schedule)
        .stopping(StoppingCondition::consensus_within(params.max_rounds))
        .replicas(params.replicas)
        .threads(0)
}

/// The whole surface as one crash-safe campaign.
pub fn build_campaign(name: &str, params: &SurfaceParams) -> Campaign {
    grid(params)
        .iter()
        .fold(Campaign::new(name, SEED), |campaign, coord| {
            campaign.add_cell(cell_experiment(params, coord))
        })
}

/// One measured point of a surface (`None` fields when the cell was
/// skipped).
#[derive(Debug, Clone, PartialEq)]
pub struct SurfacePoint {
    /// Assortativity ratio.
    pub ratio: f64,
    /// Initial bias.
    pub delta: f64,
    /// Fraction of replicas that ended polarised.
    pub polarisation_rate: Option<f64>,
    /// Fraction of replicas that reached consensus.
    pub consensus_rate: Option<f64>,
    /// Mean final blue fraction.
    pub mean_final_blue: Option<f64>,
}

/// Measured-vs-theory threshold comparison for one `δ` row of a surface.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdRow {
    /// Initial bias.
    pub delta: f64,
    /// Smallest swept ratio with polarisation rate ≥ ½ (`None` when no
    /// swept ratio polarises — expected for the uniform placement).
    pub measured_ratio: Option<f64>,
    /// Mean-field pitchfork on the balanced manifold (`ratio = 5`).
    pub pitchfork_ratio: f64,
    /// Full two-dimensional stability threshold (`ratio = 7`).
    pub stable_ratio: f64,
    /// Basin threshold for the prefix start at this `δ` (`None` for the
    /// uniform placement, or when no ratio up to the scan cap polarises).
    pub prefix_ratio: Option<f64>,
}

/// One (schedule × placement) sheet of the surface.
#[derive(Debug, Clone, PartialEq)]
pub struct Surface {
    /// Schedule label (`"sync"` / `"async"`).
    pub schedule: &'static str,
    /// Placement label (`"uniform"` / `"prefix"`).
    pub placement: &'static str,
    /// Vertices per cell.
    pub n: usize,
    /// Replicas per cell.
    pub replicas: usize,
    /// Measured grid points, in grid order.
    pub points: Vec<SurfacePoint>,
    /// One threshold comparison per `δ`.
    pub thresholds: Vec<ThresholdRow>,
}

/// Assembles the per-(schedule × placement) surfaces from the campaign's
/// cell results (`results[i]` pairs with `grid(params)[i]`; `None` =
/// skipped cell).
pub fn surfaces(params: &SurfaceParams, results: &[Option<CellResult>]) -> Vec<Surface> {
    let coords = grid(params);
    assert_eq!(coords.len(), results.len(), "grid/results length mismatch");
    let mut sheets = Vec::new();
    for (_, schedule_label) in schedules() {
        for placement in placements() {
            let sheet: Vec<(&CellCoord, &Option<CellResult>)> = coords
                .iter()
                .zip(results)
                .filter(|(c, _)| c.schedule_label == schedule_label && c.placement == placement)
                .collect();
            let points = sheet
                .iter()
                .map(|(c, r)| SurfacePoint {
                    ratio: c.ratio,
                    delta: c.delta,
                    polarisation_rate: r.as_ref().map(|r| r.polarisation_rate),
                    consensus_rate: r.as_ref().map(|r| r.consensus_rate),
                    mean_final_blue: r.as_ref().map(|r| r.mean_final_blue),
                })
                .collect();
            let thresholds = params
                .deltas
                .iter()
                .map(|&delta| {
                    let measured_ratio = sheet
                        .iter()
                        .filter(|(c, _)| c.delta == delta)
                        .find(|(_, r)| r.as_ref().is_some_and(|r| r.polarisation_rate >= 0.5))
                        .map(|(c, _)| c.ratio);
                    ThresholdRow {
                        delta,
                        measured_ratio,
                        pitchfork_ratio: sbm::critical_ratio(),
                        stable_ratio: sbm::stable_polarisation_ratio(),
                        prefix_ratio: match placement {
                            Placement::Uniform => None,
                            Placement::Prefix => sbm::prefix_threshold_ratio(delta, 30.0, 0.25),
                        },
                    }
                })
                .collect();
            sheets.push(Surface {
                schedule: schedule_label,
                placement: placement.label(),
                n: params.n,
                replicas: params.replicas,
                points,
                thresholds,
            });
        }
    }
    sheets
}

fn opt_float(value: Option<f64>) -> Json {
    match value {
        Some(v) => Json::Float(v),
        None => Json::Null,
    }
}

/// A surface as deterministic JSON — grid coordinates, measured rates and
/// theory columns only, never wall-clock, so interrupted-and-resumed
/// campaigns regenerate identical artefacts.
pub fn surface_json(surface: &Surface) -> Json {
    Json::Obj(vec![
        ("schedule".into(), Json::Str(surface.schedule.into())),
        ("placement".into(), Json::Str(surface.placement.into())),
        ("n".into(), Json::UInt(surface.n as u64)),
        ("replicas".into(), Json::UInt(surface.replicas as u64)),
        (
            "points".into(),
            Json::Arr(
                surface
                    .points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("ratio".into(), Json::Float(p.ratio)),
                            ("delta".into(), Json::Float(p.delta)),
                            ("polarisation_rate".into(), opt_float(p.polarisation_rate)),
                            ("consensus_rate".into(), opt_float(p.consensus_rate)),
                            ("mean_final_blue".into(), opt_float(p.mean_final_blue)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "thresholds".into(),
            Json::Arr(
                surface
                    .thresholds
                    .iter()
                    .map(|t| {
                        Json::Obj(vec![
                            ("delta".into(), Json::Float(t.delta)),
                            ("measured_ratio".into(), opt_float(t.measured_ratio)),
                            ("pitchfork_ratio".into(), Json::Float(t.pitchfork_ratio)),
                            ("stable_ratio".into(), Json::Float(t.stable_ratio)),
                            ("prefix_ratio".into(), opt_float(t.prefix_ratio)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The combined artefact: every sheet under one `surfaces` array.
pub fn combined_json(sheets: &[Surface]) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("e18_phase_surface".into())),
        ("campaign_seed".into(), Json::UInt(SEED)),
        (
            "surfaces".into(),
            Json::Arr(sheets.iter().map(surface_json).collect()),
        ),
    ])
}

/// Writes the artefacts into `dir` (atomically, like every campaign file):
/// `BENCH_surface_<schedule>_<placement>.json` per sheet plus the combined
/// `BENCH_surface.json`.  Returns the file names written.
pub fn write_artefacts(dir: &std::path::Path, sheets: &[Surface]) -> Result<Vec<String>> {
    std::fs::create_dir_all(dir).map_err(CoreError::from)?;
    let mut written = Vec::new();
    for sheet in sheets {
        let name = format!("BENCH_surface_{}_{}.json", sheet.schedule, sheet.placement);
        atomic_write(&dir.join(&name), &surface_json(sheet).to_json_string())?;
        written.push(name);
    }
    let combined = "BENCH_surface.json".to_string();
    atomic_write(
        &dir.join(&combined),
        &combined_json(sheets).to_json_string(),
    )?;
    written.push(combined);
    Ok(written)
}

/// Formats the threshold comparison as the experiment table.
pub fn thresholds_table(sheets: &[Surface]) -> Table {
    let mut table = Table::new(
        "E18: SBM polarisation thresholds — measured vs mean-field",
        &[
            "schedule",
            "placement",
            "delta",
            "measured",
            "pitchfork",
            "stable",
            "prefix_theory",
        ],
    );
    for sheet in sheets {
        for t in &sheet.thresholds {
            table.push_row(vec![
                sheet.schedule.to_string(),
                sheet.placement.to_string(),
                format!("{:.2}", t.delta),
                fmt_opt_f64(t.measured_ratio),
                format!("{:.1}", t.pitchfork_ratio),
                format!("{:.1}", t.stable_ratio),
                fmt_opt_f64(t.prefix_ratio),
            ]);
        }
    }
    table
}

/// Runs the whole campaign in `dir` (resuming whatever is already there)
/// and, when it completes, writes the artefacts and returns the sheets.
/// Returns `Ok(None)` when the cancel flag interrupted the run — the
/// directory is resumable by calling again.
pub fn run_campaign(
    scale: Scale,
    dir: &std::path::Path,
    cancel: std::sync::Arc<std::sync::atomic::AtomicBool>,
    rounds_per_slice: usize,
) -> Result<Option<Vec<Surface>>> {
    let params = params(scale);
    let campaign = build_campaign("e18/phase-surface", &params);
    let runner = CampaignRunner::new(campaign, dir)
        .rounds_per_slice(rounds_per_slice)
        .with_cancel_flag(cancel);
    match runner.run()? {
        CampaignOutcome::Interrupted => Ok(None),
        CampaignOutcome::Completed => {
            let results = runner.load_results()?;
            let sheets = surfaces(&params, &results);
            write_artefacts(dir, &sheets)?;
            Ok(Some(sheets))
        }
    }
}

/// One row of the read-only `--status` view: a cell's manifest state.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusRow {
    /// Cell index within the grid.
    pub index: usize,
    /// The cell experiment's name.
    pub name: String,
    /// Status label: `"pending"`, `"in-flight"`, `"done"` or `"skipped"`.
    pub status: &'static str,
    /// Attempts started so far (manifest v2 meta).
    pub attempts: u32,
    /// Checkpoint resumes so far.
    pub resumes: u32,
    /// Accumulated wall time driving the cell, in milliseconds.
    pub wall_ms: u64,
}

/// Grid progress assembled from `manifest.json` without touching the
/// campaign: no directory is created, no file is written, no cell runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStatus {
    /// Cells never started.
    pub pending: usize,
    /// Cells started but not finished (what a kill leaves behind).
    pub in_flight: usize,
    /// Cells completed.
    pub done: usize,
    /// Cells abandoned after the retry budget.
    pub skipped: usize,
    /// Per-cell rows, in grid order.
    pub rows: Vec<StatusRow>,
}

impl CampaignStatus {
    /// Total cells in the grid.
    pub fn total(&self) -> usize {
        self.pending + self.in_flight + self.done + self.skipped
    }

    /// Accumulated wall time across every cell, in milliseconds.
    pub fn total_wall_ms(&self) -> u64 {
        self.rows.iter().map(|r| r.wall_ms).sum()
    }

    /// One-line progress summary for the binary.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} done, {} in flight, {} pending, {} skipped — {:.1}s wall so far",
            self.done,
            self.total(),
            self.in_flight,
            self.pending,
            self.skipped,
            self.total_wall_ms() as f64 / 1000.0
        )
    }

    /// The per-cell progress table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "E18 campaign status",
            &["cell", "name", "status", "attempts", "resumes", "wall_ms"],
        );
        for r in &self.rows {
            table.push_row(vec![
                r.index.to_string(),
                r.name.clone(),
                r.status.to_string(),
                r.attempts.to_string(),
                r.resumes.to_string(),
                r.wall_ms.to_string(),
            ]);
        }
        table
    }
}

/// Reads the campaign's grid progress from `dir` (read-only — safe to run
/// while another process drives the campaign, thanks to the atomic-write
/// discipline: `manifest.json` is always whole).  A directory with no
/// manifest reports every cell pending.
pub fn status(scale: Scale, dir: &std::path::Path) -> Result<CampaignStatus> {
    let params = params(scale);
    status_of(build_campaign("e18/phase-surface", &params), dir)
}

/// [`status`] for an explicit campaign — the testable core (the surface
/// campaign is just one caller).
pub fn status_of(campaign: Campaign, dir: &std::path::Path) -> Result<CampaignStatus> {
    let runner = CampaignRunner::new(campaign, dir);
    let manifest = runner.load_manifest()?;
    let mut counts = [0usize; 4];
    let rows = manifest
        .statuses
        .iter()
        .zip(&manifest.cells)
        .enumerate()
        .map(|(index, (status, meta))| {
            let (slot, label) = match status {
                CellStatus::Pending => (0, "pending"),
                CellStatus::InFlight { .. } => (1, "in-flight"),
                CellStatus::Done => (2, "done"),
                CellStatus::Skipped { .. } => (3, "skipped"),
            };
            counts[slot] += 1;
            StatusRow {
                index,
                name: runner.campaign().cells[index].name.clone(),
                status: label,
                attempts: meta.attempts,
                resumes: meta.resumes,
                wall_ms: meta.wall_ms,
            }
        })
        .collect();
    Ok(CampaignStatus {
        pending: counts[0],
        in_flight: counts[1],
        done: counts[2],
        skipped: counts[3],
        rows,
    })
}

/// Runs the campaign in a scale-named subdirectory of `target/` and
/// returns the threshold table — the uninterruptible entry point used by
/// `run(scale)`/tests; the binary drives `run_campaign` directly so it can
/// wire up signals.
pub fn run(scale: Scale) -> Table {
    let scale = if crate::quick() { Scale::Quick } else { scale };
    let dir = std::env::temp_dir().join(format!(
        "bo3_e18_{}_{}",
        match scale {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        },
        std::process::id()
    ));
    let sheets = run_campaign(
        scale,
        &dir,
        std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
        64,
    )
    .expect("e18 campaign")
    .expect("no cancel flag was set");
    let table = thresholds_table(&sheets);
    let _ = std::fs::remove_dir_all(&dir);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Debug-build grid: one δ, the two extreme ratios, tiny n — enough to
    /// exercise the campaign plumbing and the physics sign (nothing
    /// polarises at ratio 2; the prefix start at ratio 8 keeps blue alive).
    fn tiny_params() -> SurfaceParams {
        SurfaceParams {
            n: 4_000,
            ratios: vec![2.0, 8.0],
            deltas: vec![0.05],
            replicas: 2,
            max_rounds: 24,
        }
    }

    fn run_tiny(dir: &std::path::Path) -> Vec<Surface> {
        let params = tiny_params();
        let campaign = build_campaign("e18/tiny", &params);
        let runner = CampaignRunner::new(campaign, dir).rounds_per_slice(8);
        assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);
        let results = runner.load_results().unwrap();
        surfaces(&params, &results)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bo3_e18_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn grid_covers_every_combination_in_order() {
        let params = params(Scale::Quick);
        let cells = grid(&params);
        assert_eq!(cells.len(), 2 * 2 * 2 * 4);
        // Ratio is innermost and ascending.
        assert_eq!(cells[0].ratio, 2.0);
        assert_eq!(cells[3].ratio, 8.0);
        assert_eq!(cells[0].delta, cells[3].delta);
        let campaign = build_campaign("e18/check", &params);
        assert_eq!(campaign.cells.len(), cells.len());
    }

    #[test]
    fn sbm_spec_holds_average_degree_fixed() {
        for ratio in [1.0, 5.0, 9.0] {
            if let TopologySpec::ImplicitSbm { p_in, p_out, .. } = sbm_spec(10_000, ratio) {
                assert!((0.5 * (p_in + p_out) - P_AVG).abs() < 1e-6, "ratio {ratio}");
                assert!((p_in / p_out - ratio).abs() < 1e-6, "ratio {ratio}");
            } else {
                panic!("sbm_spec must build an implicit SBM");
            }
        }
    }

    #[test]
    fn tiny_surface_matches_the_mean_field_signs() {
        let dir = temp_dir("signs");
        let sheets = run_tiny(&dir);
        assert_eq!(sheets.len(), 4);
        for sheet in &sheets {
            for point in &sheet.points {
                let rate = point.polarisation_rate.expect("no cell skipped");
                if point.ratio < sbm::critical_ratio() {
                    // Below the pitchfork nothing polarises, whatever the
                    // schedule or placement.
                    assert_eq!(rate, 0.0, "{}/{}", sheet.schedule, sheet.placement);
                }
                if sheet.placement == "uniform" {
                    // The symmetric start decays to consensus at any ratio.
                    assert_eq!(rate, 0.0, "uniform must not polarise");
                }
            }
            for t in &sheet.thresholds {
                assert_eq!(t.pitchfork_ratio, 5.0);
                assert_eq!(t.stable_ratio, 7.0);
                if let Some(measured) = t.measured_ratio {
                    assert!(
                        measured >= t.pitchfork_ratio,
                        "measured threshold below the pitchfork"
                    );
                }
            }
        }
        // The prefix start at ratio 8 (above both thresholds) keeps blue
        // alive on at least one schedule.
        let polarised_prefix = sheets
            .iter()
            .filter(|s| s.placement == "prefix")
            .flat_map(|s| &s.points)
            .any(|p| p.ratio == 8.0 && p.polarisation_rate == Some(1.0));
        assert!(polarised_prefix, "prefix start must polarise at ratio 8");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artefacts_are_deterministic_across_interrupted_resume() {
        let params = tiny_params();

        // One-shot run.
        let dir_a = temp_dir("oneshot");
        let sheets_a = run_tiny(&dir_a);
        write_artefacts(&dir_a, &sheets_a).unwrap();

        // Interrupted run: cancel after the first checkpoint flush, then
        // resume with a fresh runner (as a restarted process would).
        let dir_b = temp_dir("resumed");
        let campaign = build_campaign("e18/tiny", &params);
        let runner = CampaignRunner::new(campaign, &dir_b).rounds_per_slice(3);
        runner.cancel_flag().store(true, Ordering::SeqCst);
        assert_eq!(runner.run().unwrap(), CampaignOutcome::Interrupted);
        let sheets_b = run_tiny(&dir_b);
        write_artefacts(&dir_b, &sheets_b).unwrap();

        assert_eq!(sheets_a, sheets_b);
        for name in [
            "BENCH_surface_sync_uniform.json",
            "BENCH_surface_sync_prefix.json",
            "BENCH_surface_async_uniform.json",
            "BENCH_surface_async_prefix.json",
            "BENCH_surface.json",
        ] {
            assert_eq!(
                std::fs::read_to_string(dir_a.join(name)).unwrap(),
                std::fs::read_to_string(dir_b.join(name)).unwrap(),
                "{name}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn run_campaign_reports_interruption_and_resumes() {
        let dir = temp_dir("cancelled");
        let cancel = Arc::new(AtomicBool::new(true));
        // Already-cancelled: pauses before any cell, writes no artefacts.
        let paused = run_campaign(Scale::Quick, &dir, cancel, 8).unwrap();
        assert!(paused.is_none());
        assert!(!dir.join("BENCH_surface.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_reports_pending_before_and_done_after_a_run() {
        let dir = temp_dir("status");
        let params = tiny_params();

        // Before anything runs: no manifest, every cell pending, and the
        // read is genuinely read-only (the directory stays absent).
        let fresh = status_of(build_campaign("e18/tiny", &params), &dir).unwrap();
        assert_eq!(fresh.pending, 8);
        assert_eq!((fresh.done, fresh.in_flight, fresh.skipped), (0, 0, 0));
        assert!(!dir.exists(), "--status must not create the directory");

        run_tiny(&dir);
        let manifest_bytes = std::fs::read(dir.join("manifest.json")).unwrap();
        let after = status_of(build_campaign("e18/tiny", &params), &dir).unwrap();
        assert_eq!(after.done, 8);
        assert_eq!(after.total(), 8);
        assert!(after.rows.iter().all(|r| r.attempts >= 1));
        assert!(after.summary().starts_with("8/8 done"));
        assert_eq!(after.table().num_rows(), 8);
        // Still read-only after the campaign completed.
        assert_eq!(
            std::fs::read(dir.join("manifest.json")).unwrap(),
            manifest_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn surface_json_is_parseable_and_complete() {
        let sheet = Surface {
            schedule: "sync",
            placement: "prefix",
            n: 1_000,
            replicas: 2,
            points: vec![SurfacePoint {
                ratio: 8.0,
                delta: 0.05,
                polarisation_rate: Some(1.0),
                consensus_rate: Some(0.0),
                mean_final_blue: Some(0.5),
            }],
            thresholds: vec![ThresholdRow {
                delta: 0.05,
                measured_ratio: Some(8.0),
                pitchfork_ratio: 5.0,
                stable_ratio: 7.0,
                prefix_ratio: Some(7.25),
            }],
        };
        let text = combined_json(&[sheet]).to_json_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("experiment").and_then(|j| j.as_str()),
            Some("e18_phase_surface")
        );
        let surfaces = parsed.get("surfaces").and_then(|j| j.as_array()).unwrap();
        assert_eq!(surfaces.len(), 1);
        assert!(text.contains("\"pitchfork_ratio\":5.0"));
        assert!(text.contains("\"stable_ratio\":7.0"));
    }
}
