//! Small numeric helpers shared by the workloads.

use std::time::Instant;
use yu::mtbdd::MtbddStats;

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`. Set-up and verdict times are means over the run: the
/// shared host switches between a fast and a slow speed every few
/// seconds, so the median of short, fixed pieces of work jumps between
/// the two speeds from run to run, while the mean weights them by the
/// time spent in each.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Whether one more repetition, judged by the median of those so far
/// (`costs`, in seconds), is likely to end within `budget` seconds of
/// `t0`. Stopping before a repetition that would overrun keeps a run
/// near its budget however long one repetition takes.
pub fn another_fits(t0: Instant, budget: f64, costs: &[f64]) -> bool {
    costs.is_empty() || t0.elapsed().as_secs_f64() + median(costs) <= budget
}

/// Nearest-rank quantile `q` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Inner nodes ever allocated in an arena: the current arena plus what
/// garbage collection reclaimed (`nodes_created` alone resets on GC).
pub fn created_total(s: &MtbddStats) -> usize {
    s.nodes_created + s.gc_reclaimed_nodes as usize
}

/// `hits / (hits + misses)`, or 0 for a cache that was never probed.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An ordered list of named metrics with units.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metrics as a JSON object: `{"name": {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A finite number with all its digits (`null` is never emitted: a
/// non-finite value is a bug in the benchmark).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
