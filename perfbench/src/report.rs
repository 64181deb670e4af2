//! The metric tables, summary statistics, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit). Every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("modeled_p50_ms", "ms"),
    ("modeled_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit). A workload that does not load a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sched.events", "count"),
    ("sched.flights", "count"),
    ("sched.flight_joins", "count"),
    ("sched.join_ratio", "ratio"),
    ("sched.mailbox_waits", "count"),
    ("obs.callback_ms", "ms"),
    ("obs.overhead_share", "ratio"),
    ("serve.flights_joined", "count"),
    ("serve.batch_joins", "count"),
    ("cache.probes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("plan.p50_us", "us"),
    ("plan.p99_us", "us"),
    ("plan.share", "ratio"),
    ("exec.subtree_listing.p50_us", "us"),
    ("exec.subtree_listing.p99_us", "us"),
    ("exec.affinity_filter.p50_us", "us"),
    ("exec.affinity_filter.p99_us", "us"),
    ("exec.similarity_topk.p50_us", "us"),
    ("exec.similarity_topk.p99_us", "us"),
    ("exec.aggregate.p50_us", "us"),
    ("exec.aggregate.p99_us", "us"),
    ("parse.p50_us", "us"),
    ("access.local_share", "ratio"),
    ("sources.requests", "count"),
    ("sources.rows_returned", "count"),
    ("sources.fetch_ms", "ms"),
    ("sources.fetch_share", "ratio"),
    ("sources.ingest_us", "us"),
    ("write.p50_ms", "ms"),
    ("write.p99_ms", "ms"),
    ("refresh.p50_ms", "ms"),
    ("refresh.p99_ms", "ms"),
    ("freshness.stale_reads", "count"),
    ("mobile.begin_us", "us"),
    ("mobile.commit_us", "us"),
    ("mobile.payload_bytes", "bytes"),
    ("mobile.open_ms", "ms"),
    ("setup.dataset_ms", "ms"),
    ("setup.stats_ms", "ms"),
    ("setup.columnar_ms", "ms"),
    ("setup.matview_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).1
}

/// The percentile `p` of `values` by nearest rank, lowered when needed
/// so that at least ten samples lie beyond it. Returns the percentile
/// used and its value (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> (f64, f64) {
    if values.is_empty() {
        return (p, 0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let p = p.min(1.0 - 10.0 / n).max(0.5);
    let rank = ((p * n).ceil() as usize).clamp(1, sorted.len());
    (p, sorted[rank - 1])
}

/// The p99 of `values` (or the highest percentile with ten samples
/// beyond it), described for the summary line.
pub fn tail(values: &[f64]) -> (f64, String) {
    let (p, v) = percentile(values, 0.99);
    (v, format!("p{:.1} of {} samples", p * 100.0, values.len()))
}

/// The mean of the slowest 1% of `values` (at least ten of them),
/// described for the summary line. Modeled latencies take a few repeated
/// values, one per clade payload, so any one percentile sits on one of
/// them: a fixed p99 jumped between two of them from seed to seed, and
/// with the dataset fixed the highest percentile with ten samples beyond
/// it read the same for every `explore` seed. The mean over the tail
/// moves with the share of each payload there.
pub fn tail_mean(values: &[f64]) -> (f64, String) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = values.len().div_ceil(100).max(10).min(values.len());
    let slowest = &sorted[sorted.len() - k..];
    let mean = slowest.iter().sum::<f64>() / k.max(1) as f64;
    (
        mean,
        format!("mean of the slowest {k} of {} samples", values.len()),
    )
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run measured and checked.
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Record a metric value with a note for the summary line.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.insert(name, (value, note.into()));
    }

    /// Count a failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why.into());
        }
    }

    /// Print one summary line per metric of `table`, then the result
    /// line. Metrics of `table` the workload did not set read 0.
    pub fn print(&self, table: &[(&'static str, &'static str)]) {
        for p in &self.problems {
            println!("check failed: {p}");
        }
        let mut json = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let (value, note) = self
                .values
                .get(name)
                .cloned()
                .unwrap_or((0.0, String::new()));
            // `+ 0.0` turns an empty float sum's -0.0 into 0.0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            if note.is_empty() {
                println!("{name:<30} {value:>16.6} {unit}");
            } else {
                println!("{name:<30} {value:>16.6} {unit}  ({note})");
            }
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// A JSON number with every digit Rust keeps for an f64.
fn number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = percentile(&values, 0.99);
        assert!((p - 0.9).abs() < 1e-12);
        assert_eq!(v, 90.0);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), (0.99, 1980.0));
        assert_eq!(median(&many), 1000.0);
        assert_eq!(tail_mean(&many).0, 1990.5);
        assert_eq!(tail_mean(&values).0, 95.5);
    }

    #[test]
    fn tables_match_the_benchmark_manifest() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let section = |key: &str, next: &str| -> String {
            let start = manifest.find(key).expect("section present");
            let end = manifest[start..]
                .find(next)
                .map_or(manifest.len(), |e| start + e);
            manifest[start..end].to_string()
        };
        let names = |text: &str| -> Vec<String> {
            text.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let units = |text: &str| -> Vec<String> {
            text.split("\"unit\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        for (key, next, table) in [
            ("\"end_to_end\"", "\"per_layer\"", END_TO_END),
            ("\"per_layer\"", "]", PER_LAYER),
        ] {
            let text = section(key, next);
            let expect_names: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            let expect_units: Vec<String> = table.iter().map(|(_, u)| u.to_string()).collect();
            assert_eq!(names(&text), expect_names, "{key} names");
            assert_eq!(units(&text), expect_units, "{key} units");
        }
    }
}
