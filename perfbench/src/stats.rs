//! Small statistics and process helpers.

use datagroups::Verdict;
use oolong_prover::Stats;

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; zero
/// for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Least-squares slope of `ln y` against `ln x`: the growth exponent of
/// `y` in `x`. Points with a non-positive coordinate are skipped.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    if logs.len() < 2 {
        return 0.0;
    }
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// A field of `/proc/<pid>/status` (`VmRSS`, `VmHWM`) in megabytes.
pub fn proc_status_mb(pid: Option<u32>, field: &str) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Deterministic prover work counters, summed over obligations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub obligations: u64,
    pub decided: u64,
    pub proofs: u64,
    pub instances: u64,
    pub presat_instances: u64,
    pub goal_instances: u64,
    pub trigger_matches: u64,
    pub branches: u64,
    pub rounds: u64,
    /// Largest per-branch E-graph seen (a maximum, not a sum).
    pub peak_nodes: u64,
    pub merges: u64,
    pub deferred: u64,
}

impl Counters {
    /// Adds one proof's statistics.
    pub fn add_stats(&mut self, s: &Stats) {
        self.proofs += 1;
        self.instances += s.instances as u64;
        self.presat_instances += s.per_quant.iter().map(|q| q.presat_instances).sum::<u64>();
        self.goal_instances += s.per_quant.iter().map(|q| q.goal_instances).sum::<u64>();
        self.trigger_matches += s.trigger_matches;
        self.branches += s.branches;
        self.rounds += s.rounds as u64;
        self.peak_nodes = self.peak_nodes.max(s.peak_nodes as u64);
        self.merges += s.merges;
        self.deferred += s.deferred_instances as u64;
    }

    /// Adds one obligation's verdict with its prover statistics. A store
    /// hit carries the statistics of the proof it stored, so the sums do
    /// not depend on which of two equal obligations a worker proved first.
    pub fn add_verdict(&mut self, v: &Verdict) {
        self.obligations += 1;
        self.decided += u64::from(!matches!(v, Verdict::Unknown(_)));
        if let Some(s) = v.stats() {
            self.add_stats(s);
        }
    }

    /// The counters as named fields, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 12] {
        [
            ("obligations", self.obligations),
            ("decided", self.decided),
            ("proofs", self.proofs),
            ("instances", self.instances),
            ("presat_instances", self.presat_instances),
            ("goal_instances", self.goal_instances),
            ("trigger_matches", self.trigger_matches),
            ("branches", self.branches),
            ("rounds", self.rounds),
            ("peak_nodes", self.peak_nodes),
            ("merges", self.merges),
            ("deferred", self.deferred),
        ]
    }

    /// One-line rendering for reports.
    pub fn render(&self) -> String {
        self.fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_slopes() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.9), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        let square: Vec<(f64, f64)> = (1..6).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((loglog_slope(&square) - 2.0).abs() < 1e-9);
    }
}
