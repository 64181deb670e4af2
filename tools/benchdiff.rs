//! Bench-regression gate: diff two `bench_results` trees and fail on
//! regressions past a threshold. Run with
//!
//! ```sh
//! cargo run --bin benchdiff -- <baseline-dir> <candidate-dir> [--threshold 0.10]
//! ```
//!
//! Both directories hold `ExperimentTable` JSON files as written by the
//! `experiments` binary (`--out <dir>` redirects them). Every file
//! present in both trees is compared cell by cell: the header name
//! decides whether a metric is lower-better (latencies, round-trips)
//! or higher-better (speedups, throughput, hit rates); unknown columns
//! and label columns are skipped. (Shared-fleet rows used to be
//! excluded as scheduling-dependent; the event-driven session
//! scheduler made them byte-deterministic, so every E11 row is gated
//! now.) A candidate worse than baseline by more than the relative
//! threshold
//! on any compared cell is a regression and the exit code is 1. A
//! baseline table with no counterpart file in the candidate tree, or
//! one whose structure changed (headers, row count, or a row's label
//! cells), is a coverage failure, not a skip: it exits 3 so CI can
//! distinguish "got slower" from "the gate never looked". Usage and
//! I/O errors exit 2. A deliberate structure change means regenerating
//! the committed baseline in the same change.
//!
//! CI runs the quick experiment suite into a scratch directory and
//! gates it against the committed `bench_results/quick/` baselines.

use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The subset of `ExperimentTable` the diff needs.
#[derive(Debug, Deserialize)]
struct Table {
    id: String,
    #[allow(dead_code)]
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    #[allow(dead_code)]
    notes: Vec<String>,
}

/// Which way a metric column improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    Skip,
}

/// Classify a column by its header name.
fn direction(header: &str) -> Direction {
    let h = header.to_ascii_lowercase();
    let higher = ["speedup", "gestures/s", "hit rate", "throughput", "qps"];
    if higher.iter().any(|k| h.contains(k)) {
        return Direction::HigherIsBetter;
    }
    let lower = [
        "mean", "p50", "p95", "p99", "latency", "rt/query", "reqs", "bytes", "rows", "max",
        "breach", "stale",
    ];
    if lower.iter().any(|k| h.contains(k)) {
        return Direction::LowerIsBetter;
    }
    Direction::Skip
}

/// Parse a table cell into a comparable number. Durations normalize to
/// milliseconds; `x` (speedup), `%` and plain numbers pass through.
/// Returns `None` for labels and placeholders.
fn metric_value(cell: &str) -> Option<f64> {
    let cell = cell.trim();
    if cell.is_empty() || cell == "-" {
        return None;
    }
    let stripped = cell
        .strip_suffix('x')
        .or_else(|| cell.strip_suffix('%'))
        .unwrap_or(cell);
    if let Some(ms) = stripped.strip_suffix("ms") {
        return ms.trim().parse().ok();
    }
    if let Some(s) = stripped.strip_suffix('s') {
        return s.trim().parse::<f64>().ok().map(|v| v * 1000.0);
    }
    stripped.parse().ok()
}

/// Baselines smaller than this (ms or unitless) are noise floors, not
/// meaningful denominators; such cells are never flagged.
const MIN_BASE: f64 = 0.05;

/// Exit codes, kept distinct so CI can tell "the candidate got slower"
/// (fix the code) from "the gate lost coverage" (fix the harness):
/// 0 clean, 1 regression past threshold, 2 usage or I/O error,
/// 3 baseline table(s) missing from the candidate tree or changed in
/// structure.
const EXIT_REGRESSION: u8 = 1;
const EXIT_ERROR: u8 = 2;
const EXIT_MISSING_BASELINE: u8 = 3;

/// Map what the diff found to an exit code. Lost coverage outranks a
/// regression verdict: a "pass" that silently skipped tables is the
/// more dangerous lie. `uncovered` counts missing tables plus tables
/// whose structure changed.
fn verdict(uncovered: usize, regressions: usize) -> u8 {
    if uncovered > 0 {
        EXIT_MISSING_BASELINE
    } else if regressions > 0 {
        EXIT_REGRESSION
    } else {
        0
    }
}

/// One regression found.
#[derive(Debug)]
struct Regression {
    table: String,
    row: String,
    column: String,
    baseline: f64,
    candidate: f64,
    ratio: f64,
}

/// Compare two parsed tables; returns regressions past `threshold`,
/// or why the tables cannot be compared cell by cell. A row's label is
/// its leading run of non-metric columns (`class`, or `sessions` plus
/// `mode`), so a renamed, removed or reordered row is caught even when
/// the row count stays the same.
fn compare_tables(
    baseline: &Table,
    candidate: &Table,
    threshold: f64,
) -> Result<Vec<Regression>, String> {
    if baseline.headers != candidate.headers {
        return Err("headers changed".to_string());
    }
    if baseline.rows.len() != candidate.rows.len() {
        return Err(format!(
            "row count changed ({} -> {})",
            baseline.rows.len(),
            candidate.rows.len()
        ));
    }
    let label_cols = baseline
        .headers
        .iter()
        .take_while(|h| direction(h) == Direction::Skip)
        .count()
        .max(1);
    let mut regressions = Vec::new();
    for (base_row, cand_row) in baseline.rows.iter().zip(&candidate.rows) {
        let base_label = &base_row[..label_cols.min(base_row.len())];
        let cand_label = &cand_row[..label_cols.min(cand_row.len())];
        if base_label != cand_label {
            return Err(format!(
                "row labels diverge ({base_label:?} -> {cand_label:?})"
            ));
        }
        let label = base_label.join(" ");
        for (i, header) in baseline.headers.iter().enumerate() {
            let dir = direction(header);
            if dir == Direction::Skip {
                continue;
            }
            let (Some(base), Some(cand)) = (
                base_row.get(i).and_then(|c| metric_value(c)),
                cand_row.get(i).and_then(|c| metric_value(c)),
            ) else {
                continue;
            };
            if base.abs() < MIN_BASE {
                continue;
            }
            let ratio = match dir {
                Direction::LowerIsBetter => (cand - base) / base,
                Direction::HigherIsBetter => (base - cand) / base,
                Direction::Skip => continue,
            };
            if ratio > threshold {
                regressions.push(Regression {
                    table: baseline.id.clone(),
                    row: label.clone(),
                    column: header.clone(),
                    baseline: base,
                    candidate: cand,
                    ratio,
                });
            }
        }
    }
    Ok(regressions)
}

fn load_table(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn json_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    Ok(files)
}

fn run(baseline_dir: &Path, candidate_dir: &Path, threshold: f64) -> Result<ExitCode, String> {
    let mut regressions = Vec::new();
    let mut missing: Vec<PathBuf> = Vec::new();
    let mut changed: Vec<String> = Vec::new();
    let mut compared = 0usize;
    for base_path in json_files(baseline_dir)? {
        let Some(name) = base_path.file_name() else {
            continue;
        };
        let cand_path = candidate_dir.join(name);
        if !cand_path.is_file() {
            missing.push(cand_path);
            continue;
        }
        let baseline = load_table(&base_path)?;
        let candidate = load_table(&cand_path)?;
        match compare_tables(&baseline, &candidate, threshold) {
            Ok(found) => {
                compared += 1;
                regressions.extend(found);
            }
            Err(why) => changed.push(format!("{} ({}): {why}", baseline.id, base_path.display())),
        }
    }
    if compared == 0 && missing.is_empty() && changed.is_empty() {
        return Err(format!(
            "no comparable result files between {} and {}",
            baseline_dir.display(),
            candidate_dir.display()
        ));
    }
    if !regressions.is_empty() {
        println!(
            "benchdiff: {} regression(s) past {:.0}% across {compared} table(s):",
            regressions.len(),
            threshold * 100.0
        );
        for r in &regressions {
            println!(
                "  {} [{} / {}]: {:.3} -> {:.3} (+{:.1}%)",
                r.table,
                r.row,
                r.column,
                r.baseline,
                r.candidate,
                r.ratio * 100.0
            );
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "error: {} baseline table(s) have no counterpart in the candidate tree \
             — the gate did not cover them (did the experiment suite fail to emit them?):",
            missing.len()
        );
        for path in &missing {
            eprintln!("  missing: {}", path.display());
        }
    }
    if !changed.is_empty() {
        eprintln!(
            "error: {} table(s) changed structure, so the gate could not compare them \
             — regenerate the baseline if the change is deliberate:",
            changed.len()
        );
        for table in &changed {
            eprintln!("  changed: {table}");
        }
    }
    match verdict(missing.len() + changed.len(), regressions.len()) {
        0 => {
            println!(
                "benchdiff: {compared} table(s) compared, no regression past {:.0}%",
                threshold * 100.0
            );
            Ok(ExitCode::SUCCESS)
        }
        code => Ok(ExitCode::from(code)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut threshold = 0.10_f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                let Some(value) = iter.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --threshold needs a fraction, e.g. 0.10");
                    return ExitCode::from(EXIT_ERROR);
                };
                threshold = value;
            }
            "--help" | "-h" => {
                println!("usage: benchdiff <baseline-dir> <candidate-dir> [--threshold 0.10]");
                return ExitCode::SUCCESS;
            }
            other => dirs.push(PathBuf::from(other)),
        }
    }
    let [baseline, candidate] = dirs.as_slice() else {
        eprintln!("usage: benchdiff <baseline-dir> <candidate-dir> [--threshold 0.10]");
        return ExitCode::from(EXIT_ERROR);
    };
    match run(baseline, candidate, threshold) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(id: &str, headers: &[&str], rows: &[&[&str]]) -> Table {
        Table {
            id: id.to_string(),
            title: String::new(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|c| (*c).to_string()).collect())
                .collect(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn cell_values_normalize_units() {
        assert_eq!(metric_value("13.4ms"), Some(13.4));
        assert_eq!(metric_value("18.5s"), Some(18500.0));
        assert_eq!(metric_value("887.4x"), Some(887.4));
        assert_eq!(metric_value("85%"), Some(85.0));
        assert_eq!(metric_value("0.20"), Some(0.2));
        assert_eq!(metric_value("-"), None);
        assert_eq!(metric_value("subtree_listing"), None);
    }

    #[test]
    fn header_names_pick_a_direction() {
        assert_eq!(direction("opt mean"), Direction::LowerIsBetter);
        assert_eq!(direction("p95"), Direction::LowerIsBetter);
        assert_eq!(direction("RT/query"), Direction::LowerIsBetter);
        assert_eq!(direction("speedup"), Direction::HigherIsBetter);
        assert_eq!(direction("gestures/s"), Direction::HigherIsBetter);
        assert_eq!(direction("hit rate"), Direction::HigherIsBetter);
        assert_eq!(direction("class"), Direction::Skip);
    }

    #[test]
    fn twenty_percent_latency_regression_is_flagged() {
        let headers = ["class", "opt mean", "speedup"];
        let base = table("E1", &headers, &[&["listing", "10.0ms", "100.0x"]]);
        let cand = table("E1", &headers, &[&["listing", "12.0ms", "100.0x"]]);
        let found = compare_tables(&base, &cand, 0.10).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].column, "opt mean");
        assert!((found[0].ratio - 0.2).abs() < 1e-9);
        // The same 20% move is fine under a 25% threshold.
        assert!(compare_tables(&base, &cand, 0.25).unwrap().is_empty());
    }

    #[test]
    fn speedup_drop_is_a_regression_and_gain_is_not() {
        let headers = ["class", "speedup"];
        let base = table("E1", &headers, &[&["listing", "100.0x"]]);
        let slower = table("E1", &headers, &[&["listing", "80.0x"]]);
        let faster = table("E1", &headers, &[&["listing", "140.0x"]]);
        assert_eq!(compare_tables(&base, &slower, 0.10).unwrap().len(), 1);
        assert!(compare_tables(&base, &faster, 0.10).unwrap().is_empty());
    }

    #[test]
    fn tiny_baselines_are_skipped_but_fleet_rows_are_gated() {
        let headers = ["sessions", "mode", "p95"];
        // Noise-floor baselines never flag...
        let base = table("E11", &headers, &[&["8", "per-session-opt", "0.01"]]);
        let cand = table("E11", &headers, &[&["8", "per-session-opt", "0.04"]]);
        assert!(compare_tables(&base, &cand, 0.10).unwrap().is_empty());
        // ...but shared-fleet rows are ordinary gated rows now: the
        // event scheduler made them deterministic.
        let base = table("E11", &headers, &[&["1024", "fleet", "10.0ms"]]);
        let cand = table("E11", &headers, &[&["1024", "fleet", "99.0ms"]]);
        assert_eq!(compare_tables(&base, &cand, 0.10).unwrap().len(), 1);
    }

    #[test]
    fn missing_baseline_coverage_has_its_own_exit_code() {
        // Clean run.
        assert_eq!(verdict(0, 0), 0);
        // Regressions alone exit 1, as before.
        assert_eq!(verdict(0, 3), EXIT_REGRESSION);
        // A missing counterpart is never a silent skip...
        assert_eq!(verdict(1, 0), EXIT_MISSING_BASELINE);
        // ...and outranks a regression verdict: lost coverage is the
        // bigger problem than what the covered tables showed.
        assert_eq!(verdict(2, 5), EXIT_MISSING_BASELINE);
        // All three outcomes stay distinguishable from usage errors.
        const {
            assert!(EXIT_MISSING_BASELINE != EXIT_ERROR && EXIT_REGRESSION != EXIT_ERROR);
        }
    }

    #[test]
    fn changed_structure_is_lost_coverage_not_a_skip() {
        let headers = ["sessions", "mode", "p95"];
        let base = table(
            "E11",
            &headers,
            &[&["256", "shards=8", "10.0ms"], &["256", "sla", "20.0ms"]],
        );
        // A removed row changes the row count.
        let fewer = table("E11", &headers, &[&["256", "sla", "20.0ms"]]);
        assert!(compare_tables(&base, &fewer, 0.10).is_err());
        // A replaced row keeps the count but diverges in its label,
        // including a label column past the first.
        let relabeled = table(
            "E11",
            &headers,
            &[&["256", "shards=1", "10.0ms"], &["256", "sla", "20.0ms"]],
        );
        assert!(compare_tables(&base, &relabeled, 0.10).is_err());
        // Changed headers.
        let renamed = table(
            "E11",
            &["sessions", "mode", "p99"],
            &[&["256", "shards=8", "10.0ms"], &["256", "sla", "20.0ms"]],
        );
        assert!(compare_tables(&base, &renamed, 0.10).is_err());
        // Every such table counts as uncovered: exit 3, not a pass.
        assert_eq!(verdict(1, 0), EXIT_MISSING_BASELINE);
    }

    #[test]
    fn identical_tables_have_no_regressions() {
        let headers = ["class", "opt mean"];
        let base = table("E1", &headers, &[&["listing", "10.0ms"]]);
        let same = table("E1", &headers, &[&["listing", "10.0ms"]]);
        assert!(compare_tables(&base, &same, 0.10).unwrap().is_empty());
    }
}
