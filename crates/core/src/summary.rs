//! Conversion of experiment results into report tables.
//!
//! Every benchmark binary ends by printing one of these tables; keeping the
//! row layout here ensures the console output and the CSV artefacts show
//! the same columns.

use crate::experiment::ExperimentResult;
use crate::report::{fmt_f64, fmt_opt_f64, Table};

/// The standard per-experiment row: identification, measured consensus
/// behaviour, and the paper's prediction where available.
pub fn results_table(title: &str, results: &[ExperimentResult]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "experiment",
            "graph",
            "protocol",
            "initial",
            "n",
            "min_deg",
            "alpha",
            "replicas",
            "consensus_rate",
            "red_win_rate",
            "mean_rounds",
            "p90_rounds",
            "paper_rounds",
        ],
    );
    for r in results {
        let p90 = r.report.rounds_to_consensus.as_ref().map(|s| s.p90);
        let paper_rounds = r
            .prediction
            .computed()
            .and_then(|p| p.predicted_rounds)
            .map(|x| x as f64);
        // Skipped dense analyses show as the placeholder dash, exactly like
        // any other absent value.
        let min_deg = r
            .degree_stats
            .computed()
            .map(|s| s.min.to_string())
            .unwrap_or_else(|| "-".into());
        table.push_row(vec![
            r.name.clone(),
            r.topology_label.clone(),
            r.protocol_name.clone(),
            r.initial_label.clone(),
            r.n.to_string(),
            min_deg,
            fmt_opt_f64(r.alpha()),
            r.report.outcomes.len().to_string(),
            fmt_f64(r.report.consensus_rate),
            fmt_opt_f64(r.red_win_rate()),
            fmt_opt_f64(r.mean_rounds()),
            fmt_opt_f64(p90),
            fmt_opt_f64(paper_rounds),
        ]);
    }
    table
}

/// A compact trajectory table: one row per round with the measured blue
/// fraction next to a theoretical reference trajectory (used by E6/E11).
pub fn trajectory_table(
    title: &str,
    measured: &[f64],
    reference: &[f64],
    reference_name: &str,
) -> Table {
    let mut table = Table::new(title, &["round", "measured_blue_fraction", reference_name]);
    for (t, &m) in measured.iter().enumerate() {
        let r = reference.get(t).copied();
        table.push_row(vec![t.to_string(), fmt_f64(m), fmt_opt_f64(r)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use bo3_graph::generators::GraphSpec;

    fn small_result() -> ExperimentResult {
        Experiment::theorem_one("t/complete", GraphSpec::Complete { n: 120 }, 0.15, 4, 2)
            .run()
            .unwrap()
    }

    #[test]
    fn results_table_has_one_row_per_result() {
        let r1 = small_result();
        let table = results_table("E-test", &[r1.clone(), r1]);
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.num_columns(), 13);
        let csv = table.to_csv();
        assert!(csv.contains("t/complete"));
        assert!(csv.contains("best-of-3"));
    }

    #[test]
    fn results_table_renders_skipped_analyses_as_dashes() {
        let r = Experiment::on(bo3_graph::TopologySpec::ImplicitGnp { n: 400, p: 0.5 })
            .named("t/implicit")
            .replicas(2)
            .stopping(bo3_dynamics::prelude::StoppingCondition::fixed_rounds(2))
            .run()
            .unwrap();
        assert!(!r.degree_stats.is_computed());
        let table = results_table("E-skip", std::slice::from_ref(&r));
        // n is still reported; min_deg and alpha degrade to the dash (the
        // quoted topology label precedes them in the CSV row).
        let row = table.to_csv().lines().nth(1).unwrap().to_string();
        assert!(row.contains(",400,-,-,"), "{row}");
    }

    #[test]
    fn results_table_includes_paper_prediction_when_present() {
        let r = small_result();
        assert!(r.prediction.is_computed());
        let table = results_table("E-test", &[r]);
        let csv = table.to_csv();
        // The last column should not be the placeholder dash.
        let last_cell = csv
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .next_back()
            .unwrap()
            .to_string();
        assert_ne!(last_cell, "-");
    }

    #[test]
    fn trajectory_table_lines_up_rounds() {
        let measured = [0.4, 0.3, 0.1, 0.0];
        let reference = [0.4, 0.33, 0.12];
        let t = trajectory_table("traj", &measured, &reference, "eq1");
        assert_eq!(t.num_rows(), 4);
        let csv = t.to_csv();
        assert!(csv.lines().nth(1).unwrap().starts_with("0,"));
        // Round 3 has no reference value.
        assert!(csv.lines().nth(4).unwrap().ends_with("-"));
    }
}
