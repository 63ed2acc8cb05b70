//! Collects one run's metrics and checks, and writes them three ways:
//! a human-readable line per metric (name, value, unit, sample count),
//! one `em-metrics-v1` line per metric through
//! [`em_bench::MetricsWriter`], and the final one-line JSON result.

use em_bench::{MetricsRecord, MetricsWriter};
use std::fmt::Write as _;
use std::path::Path;

/// Peak resident set (`VmHWM`) of this process since start or the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reset the peak resident set to the current one, so the next
/// [`peak_rss_mb`] covers only what runs in between.
pub fn reset_peak_rss() {
    // Best effort: without it the peak covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Host CPU time stolen from this VM so far (the `steal` column of
/// `/proc/stat`), in seconds summed over CPUs; `None` where unavailable.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

/// User + system CPU seconds from a `/proc/.../stat` line: fields 14
/// and 15, counted from 1, in clock ticks (USER_HZ, 100 on Linux).
fn stat_cpu_seconds(stat: &str) -> Option<f64> {
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// CPU time (user + system) this process has used so far, summed over
/// all its threads including exited ones, in seconds. Stolen time is not
/// charged to a task (paravirtual steal accounting), so this counts the
/// program's work whatever the host's contention.
pub fn cpu_seconds() -> Option<f64> {
    stat_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// CPU time of this process's live threads whose name starts with
/// `prefix`, in seconds; `None` when no thread matches.
pub fn threads_cpu_seconds(prefix: &str) -> Option<f64> {
    let mut total = None;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let dir = task.ok()?.path();
        let Ok(name) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited meanwhile
        };
        if name.starts_with(prefix) {
            if let Ok(stat) = std::fs::read_to_string(dir.join("stat")) {
                *total.get_or_insert(0.0) += stat_cpu_seconds(&stat)?;
            }
        }
    }
    total
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (e.g. `run_s`, `mln.probe_s`).
    pub name: String,
    /// Unit (e.g. `s`, `ms`, `count`).
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Samples the value summarises (1 for a single measurement or a
    /// count).
    pub samples: usize,
}

/// One run's results.
#[derive(Debug)]
pub struct Report {
    workload: String,
    seed: u64,
    traced: bool,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, seed: u64, traced: bool) -> Self {
        Self {
            workload: workload.to_owned(),
            seed,
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
        }
    }

    /// Record a metric.
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
        });
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record an output check; a failed check fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.failed_checks.push(what.to_owned());
        } else {
            eprintln!("check ok: {what}");
        }
    }

    /// A recorded metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every check passed, every operation succeeded and every
    /// value is finite.
    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Failed operations: all of them when an output check failed (a
    /// wrong output fails the operations that produced it).
    fn failed_ops(&self) -> u64 {
        if self.failed_checks.is_empty() {
            self.failed
        } else {
            self.attempted.max(1)
        }
    }

    /// Print every metric, write the `em-metrics-v1` file, and print the
    /// final JSON line carrying `gated` (metrics missing from this
    /// workload — layers it does not exercise — read 0). Returns whether
    /// the run was correct.
    pub fn finish(mut self, gated: &[(&str, &str)], metrics_path: &Path) -> bool {
        let attempted = self.attempted.max(1);
        let failed = self.failed_ops();
        self.push(
            "error_rate",
            "ratio",
            failed as f64 / attempted as f64,
            attempted as usize,
        );
        let correct = self.correct() && failed == 0;

        for m in &self.metrics {
            println!(
                "{:<32} {:>16} {:<8} n={}",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.samples
            );
        }
        if let Err(e) = self.write_metrics(metrics_path) {
            eprintln!("failed to write {}: {e}", metrics_path.display());
        }

        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in gated.iter().enumerate() {
            let value = self.get(name).map_or(0.0, |m| m.value);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }

    fn write_metrics(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let path = path.to_string_lossy();
        let mut writer = MetricsWriter::create(&path, "em-perfbench")?;
        for m in &self.metrics {
            writer.emit(
                &MetricsRecord::new("bench")
                    .push_str("name", &m.name)
                    .push_str("unit", m.unit)
                    .push_f64("value", m.value)
                    .push_u64("samples", m.samples as u64)
                    .push_str("workload", &self.workload)
                    .push_u64("seed", self.seed)
                    .push_bool("traced", self.traced),
            )?;
        }
        writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_check_fails_every_operation() {
        let mut r = Report::new("w", 1, false);
        r.op(true);
        r.op(true);
        assert!(r.correct());
        r.check("outputs agree", false);
        assert!(!r.correct());
        assert_eq!(r.failed_ops(), 2);
    }

    #[test]
    fn metrics_lines_carry_workload_seed_and_trace_flag() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("report-test-{}", std::process::id()));
        let path = dir.join("m.jsonl");
        let mut r = Report::new("hepth-mmp", 7, true);
        r.op(true);
        r.push("run_s", "s", 1.25, 3);
        assert!(r.finish(&[("run_s", "s")], &path));
        let text = std::fs::read_to_string(&path).expect("metrics file written");
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "meta + run_s + error_rate: {text}");
        assert!(lines[1].contains("\"schema\": \"em-metrics-v1\""));
        assert!(lines[1].contains("\"name\": \"run_s\""));
        assert!(lines[1].contains("\"workload\": \"hepth-mmp\""));
        assert!(lines[1].contains("\"seed\": 7"));
        assert!(lines[1].contains("\"traced\": true"));
    }
}
