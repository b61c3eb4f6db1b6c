//! The run's result: metrics by name with their units, operation counts,
//! failure messages, and the provenance header every output starts with.

use std::fmt::Write as _;

/// Failure messages kept for printing; the count is always exact.
const MAX_MESSAGES: usize = 20;

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
    /// Result metrics in the order they were added, each flagged
    /// per-layer or end-to-end.
    metrics: Vec<(String, f64, &'static str, bool)>,
    /// Human-readable lines printed before the result.
    lines: Vec<String>,
}

impl Report {
    /// Counts one operation, failed when `outcome` is an error.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(format!("{what}: {e}"));
        }
    }

    /// Records a failed check that is not itself an operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Adds an end-to-end metric (a result of untraced runs).
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric(name, value, unit, false);
    }

    /// Adds a per-layer metric (a result of traced runs).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric(name, value, unit, true);
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str, layer: bool) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not a finite number ({value})"));
        }
        self.line(format!("{name:<40} {value:>14.4} {unit}"));
        self.metrics.push((name.to_owned(), value, unit, layer));
    }

    /// Adds an informational line (a layer that only this workload
    /// exercises, a share, a sample count).
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Prints the lines, the failures and, last, the one-line result
    /// holding the per-layer metrics when `trace` is set and the
    /// end-to-end metrics otherwise.
    pub fn print(&self, trace: bool) {
        for line in &self.lines {
            println!("{line}");
        }
        for m in &self.messages {
            println!("FAILED {m}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        let chosen = self.metrics.iter().filter(|m| m.3 == trace);
        for (i, (name, value, unit, _)) in chosen.enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The commit the checkout was made from, read from `.git` when there is
/// one (a plain source export has none).
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Number of CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One JSON line naming what was measured and how: commit, CPUs, build
/// profile, corpus, seeds and fixed rates.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, settings: &str) -> String {
    let spec = crate::inputs::corpus_spec();
    let subs: Vec<String> = spec
        .subcollections
        .iter()
        .map(|s| format!("\"{}\": {}", s.name, s.num_docs))
        .collect();
    format!(
        "{{\"provenance\": {{\"git_sha\": \"{}\", \"nproc\": {}, \"profile\": \"{}\", \"corpus\": {{\"spec\": \"trec_like\", \"seed\": {}, \"vocab\": {}, \"docs\": {{{}}}}}, \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"settings\": {{{settings}}}}}}}",
        git_sha(),
        nproc(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        spec.seed,
        spec.vocab_size,
        subs.join(", ")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
