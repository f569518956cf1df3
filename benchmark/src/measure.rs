//! Measurement primitives shared by every workload: the one percentile
//! rule, windowed medians, process and host counters, and the JSON
//! result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Samples needed beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, when reporting "the highest
/// percentile with at least [`MIN_BEYOND`] samples beyond it".
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of a sorted slice: the value at 1-based rank
/// `ceil(n * p / 100)`, together with how many samples lie beyond it.
/// This is the benchmark's only percentile rule.
pub fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((sorted.len() as f64) * p / 100.0).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Samples per window of the windowed p99: the p99 of a 1000-sample
/// window keeps exactly [`MIN_BEYOND`] samples beyond it.
pub const WINDOW_SAMPLES: usize = 1000;

/// A timing digest. The median is taken over all samples. The p99 is
/// the median, over consecutive [`WINDOW_SAMPLES`]-sample windows in
/// completion order, of each window's p99, so one host stall moves one
/// window rather than the whole run. The report also gives the highest
/// percentile on [`TAIL_LADDER`] that keeps [`MIN_BEYOND`] samples
/// beyond it over the pooled samples, with its count.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    pub count: usize,
    pub p50_ns: u64,
    /// Windowed p99; `None` with fewer than [`WINDOW_SAMPLES`] samples.
    pub p99_ns: Option<f64>,
    pub windows: usize,
    /// Pooled p99, used only when there is no full window.
    pooled_p99_ns: u64,
    pub tail_pct: f64,
    pub tail_ns: u64,
    pub tail_beyond: usize,
}

impl Digest {
    /// Digest of nanosecond samples in completion order.
    pub fn of(samples: &[u64]) -> Option<Digest> {
        if samples.is_empty() {
            return None;
        }
        let window_p99s: Vec<f64> = samples
            .chunks_exact(WINDOW_SAMPLES)
            .map(|window| {
                let mut sorted = window.to_vec();
                sorted.sort_unstable();
                percentile(&sorted, 99.0).0 as f64
            })
            .collect();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let (p50_ns, _) = percentile(&sorted, 50.0);
        let (tail_pct, (tail_ns, tail_beyond)) = TAIL_LADDER
            .iter()
            .map(|&p| (p, percentile(&sorted, p)))
            .find(|(_, (_, beyond))| *beyond >= MIN_BEYOND)
            .unwrap_or((50.0, percentile(&sorted, 50.0)));
        Some(Digest {
            count: samples.len(),
            p50_ns,
            p99_ns: (!window_p99s.is_empty()).then(|| median(&window_p99s)),
            windows: window_p99s.len(),
            pooled_p99_ns: percentile(&sorted, 99.0).0,
            tail_pct,
            tail_ns,
            tail_beyond,
        })
    }

    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    /// The windowed p99, or the pooled one when no window is full.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns.unwrap_or(self.pooled_p99_ns as f64) / 1e3
    }

    /// One report line: median, windowed p99 and the pooled tail.
    pub fn describe(&self) -> String {
        format!(
            "n={} p50={:.1}us p99={:.1}us (median of {} windows) pooled p{}={:.1}us ({} beyond)",
            self.count,
            self.p50_us(),
            self.p99_us(),
            self.windows,
            self.tail_pct,
            self.tail_ns as f64 / 1e3,
            self.tail_beyond
        )
    }
}

/// Median of a set of per-window or per-repeat values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nanoseconds in a duration, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// This process's user+system CPU time, from `/proc/self/stat`
/// (clock ticks of 10 ms, the Linux `USER_HZ`).
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 10_000
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Whole-host CPU jiffies from `/proc/stat`: `(idle, steal, total)`.
fn host_jiffies() -> (u64, u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let get = |i: usize| fields.get(i).copied().unwrap_or(0);
    (get(3), get(7), fields.iter().sum())
}

/// Host context over a timed phase, so a run on a noisy host can be
/// told apart from a slow program.
pub struct HostWindow {
    start: (u64, u64, u64),
    cpu_start: u64,
}

#[derive(Debug, Clone)]
pub struct HostContext {
    pub nproc: usize,
    pub idle_jiffies: u64,
    pub steal_jiffies: u64,
    pub total_jiffies: u64,
    pub loadavg: String,
    /// This process's CPU time over the window.
    pub process_cpu_us: u64,
}

impl HostWindow {
    pub fn start() -> Self {
        Self { start: host_jiffies(), cpu_start: process_cpu_us() }
    }

    pub fn finish(&self) -> HostContext {
        let (idle, steal, total) = host_jiffies();
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .unwrap_or_default()
            .split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" ");
        HostContext {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            idle_jiffies: idle.saturating_sub(self.start.0),
            steal_jiffies: steal.saturating_sub(self.start.1),
            total_jiffies: total.saturating_sub(self.start.2),
            loadavg,
            process_cpu_us: process_cpu_us().saturating_sub(self.cpu_start),
        }
    }
}

impl HostContext {
    pub fn describe(&self) -> String {
        format!(
            "nproc={} idle_jiffies={} steal_jiffies={} of {} loadavg=[{}] process_cpu={:.3}s",
            self.nproc,
            self.idle_jiffies,
            self.steal_jiffies,
            self.total_jiffies,
            self.loadavg,
            self.process_cpu_us as f64 / 1e6
        )
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Accumulates metrics in the order they are reported.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|m| m.name != name), "metric {name} reported twice");
        self.0.push(Metric { name, value, unit });
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 50.0), (500, 500));
        assert_eq!(percentile(&sorted, 99.0), (990, 10));
        assert_eq!(percentile(&sorted, 99.9), (999, 1));
        assert_eq!(percentile(&[7], 99.0), (7, 0));
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let samples: Vec<u64> = (1..=500).collect();
        let d = Digest::of(&samples).unwrap();
        assert_eq!(d.tail_pct, 90.0);
        assert_eq!(d.tail_beyond, 50);
        assert_eq!(d.windows, 0);
    }

    #[test]
    fn p99_is_median_of_window_p99s() {
        // three windows whose p99s are 990, 5000 and 2990: one stalled
        // window does not set the result
        let mut samples: Vec<u64> = (1..=1000).collect();
        samples.extend((1..=1000).map(|v| if v > 980 { 5000 } else { v }));
        samples.extend(2001..=3000);
        let d = Digest::of(&samples).unwrap();
        assert_eq!(d.windows, 3);
        assert_eq!(d.p99_ns, Some(2990.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_shape() {
        let line = result_json(true, 3, 0, &[Metric { name: "p50_us", value: 1.25, unit: "us" }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
    }
}
