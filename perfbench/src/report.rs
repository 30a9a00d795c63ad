//! The run report: every metric measured, the correctness tally, and the
//! contract's final JSON line.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The end-to-end metrics every workload reports (untraced runs); the
/// names and units of `BENCHMARK.json`'s `end_to_end` list.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("unit_ms.p50", "ms"),
    ("request_ms.p50", "ms"),
    ("request_ms.p99", "ms"),
    ("requests_per_s", "1/s"),
    ("obligations_per_s", "1/s"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports (traced runs); the names
/// and units of `BENCHMARK.json`'s `per_layer` list.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("syntax.parse_ms", "ms"),
    ("syntax.bytes", "count"),
    ("sema.analyze_ms", "ms"),
    ("sema.attrs", "count"),
    ("core.restrict_ms", "ms"),
    ("core.restrict_violations", "count"),
    ("core.vcgen_ms", "ms"),
    ("core.vc_size", "count"),
    ("core.vc_labels", "count"),
    ("engine.fingerprint_ms", "ms"),
    ("prover.prove_ms.decided", "ms"),
    ("prover.prove_ms.unknown", "ms"),
    ("prover.presat_instances", "count"),
    ("prover.goal_instances", "count"),
    ("prover.trigger_matches", "count"),
    ("prover.branches", "count"),
    ("prover.rounds", "count"),
    ("prover.peak_nodes", "count"),
    ("prover.merges", "count"),
    ("prover.deferred", "count"),
    ("prover.unknown_time_share", "ratio"),
    ("engine.store_hits", "count"),
    ("engine.store_misses", "count"),
    ("engine.store_hit_ratio", "ratio"),
    ("engine.prover_calls", "count"),
    ("engine.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a timing or ratio.
    pub samples: Option<usize>,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Units or requests attempted, and how many of them failed: a wrong
    /// answer, a unit error, an error response, an abort, or a traced
    /// replay that disagrees with the untraced run.
    pub attempted: u64,
    pub failed: u64,
    /// Every distinct mismatch, for the printed report.
    pub failures: BTreeSet<String>,
    /// Free-form report lines (counters, breakdowns, notes).
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn timing(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(n),
        });
    }

    /// Counts one attempt, failed when `problems` is non-empty.
    pub fn attempt(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable report: every metric with its unit and sample
    /// count, the report lines, and every mismatch.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("== {header}\n");
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            let _ = writeln!(out, "  {:<34} {:>14.4} {}{n}", m.name, m.value, m.unit);
        }
        for l in &self.lines {
            let _ = writeln!(out, "  {l}");
        }
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "  failed_share = {share} ({} of {} attempts)",
            self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "  MISMATCH {f}");
        }
        out
    }

    /// The contract's last line: `correct`, `attempted`, `failed` and the
    /// listed metrics. A listed metric the run did not measure is an
    /// internal error.
    pub fn final_line(&self, listed: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in listed {
            let value = self
                .value(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }
}
