//! Timing, sample summaries and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A started wall-clock timer. The benchmark reads the clock only here.
#[derive(Debug, Clone, Copy)]
// lint: allow(wall-clock, benchmark timer; readings only feed the reported metrics)
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        // lint: allow(wall-clock, benchmark timer; readings only feed the reported metrics)
        Self(Instant::now())
    }

    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Runs `f` and returns its result with the time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.elapsed())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Samples stored at most; beyond it every second one is dropped and the
/// stride doubles, so memory stays fixed however fast the program gets.
const MAX_STORED: usize = 1 << 17;

/// Latency samples of one kind of op. A failed op is recorded as an
/// infinite latency, so it misses every latency limit. Past
/// [`MAX_STORED`] samples an evenly spaced subsample is kept.
#[derive(Debug, Clone)]
pub struct Samples {
    stored: Vec<f64>,
    stride: usize,
    seen: usize,
}

impl Default for Samples {
    fn default() -> Self {
        Self {
            stored: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        if self.seen.is_multiple_of(self.stride) {
            self.stored.push(value);
            if self.stored.len() == MAX_STORED {
                let kept = self.stored.iter().step_by(2).copied().collect();
                self.stored = kept;
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }

    pub fn push_failed(&mut self) {
        self.push(f64::INFINITY);
    }

    pub fn extend(&mut self, other: &Samples) {
        other.stored.iter().for_each(|&v| self.push(v));
    }

    /// How many samples were pushed.
    pub fn len(&self) -> usize {
        self.seen
    }

    pub fn mean(&self) -> f64 {
        self.stored.iter().sum::<f64>() / self.stored.len() as f64
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.stored.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Nearest-rank `q`-quantile (`0 < q <= 1`); NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        nearest_rank(&self.sorted(), q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of p50, p90, p99, p99.9 that has at least ten samples
    /// beyond it, with its value.
    pub fn deepest_tail(&self) -> (f64, f64) {
        let sorted = self.sorted();
        let n = sorted.len();
        let pct = [50.0, 90.0, 99.0, 99.9]
            .into_iter()
            .rev()
            .find(|p| n.saturating_sub(rank(n, p / 100.0)) >= 10)
            .unwrap_or(50.0);
        (pct, nearest_rank(&sorted, pct / 100.0))
    }
}

/// 1-based nearest rank of the `q`-quantile among `n` samples; the
/// tolerance keeps `0.9 * 100` at rank 90 despite rounding.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Slices the timed phase is cut into for [`Rate::per_s`].
const RATE_SLICES: usize = 10;

/// Completed ops over the timed phase, recorded in consecutive parts.
#[derive(Debug, Default)]
pub struct Rate(Vec<(u64, Duration)>);

impl Rate {
    /// Records `ops` completed ops that took `took` of timed phase.
    pub fn add(&mut self, ops: u64, took: Duration) {
        self.0.push((ops, took));
    }

    /// Ops per second: the median over ten equal slices (by part count) of
    /// the timed phase, so host noise confined to a few slices does not
    /// move it.
    pub fn per_s(&self) -> f64 {
        let n = self.0.len();
        let mut rates = Samples::default();
        for slice in 0..RATE_SLICES {
            let part = &self.0[slice * n / RATE_SLICES..(slice + 1) * n / RATE_SLICES];
            let ops: u64 = part.iter().map(|p| p.0).sum();
            let time: Duration = part.iter().map(|p| p.1).sum();
            if !time.is_zero() {
                rates.push(ops as f64 / time.as_secs_f64());
            }
        }
        rates.median()
    }
}

/// Median of a few values (e.g. repeated set-ups); NaN when empty.
pub fn median_of(values: &[f64]) -> f64 {
    let mut samples = Samples::default();
    values.iter().for_each(|&v| samples.push(v));
    samples.median()
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    preview_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1e6)
}

/// What one run reports: op counts, metrics and a few context lines.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Adds the op count, failures and deepest measured percentile of one
    /// kind of op to the notes.
    pub fn note_samples(&mut self, kind: &str, samples: &Samples, failed: u64) {
        let (pct, value) = samples.deepest_tail();
        self.note(format!("{kind}.ops"), samples.len());
        self.note(format!("{kind}.failed"), failed);
        self.note(
            format!("{kind}.deepest_tail"),
            format!("p{pct} = {value:.4} ms"),
        );
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The report: one `# key: value` line per note and metric, then the
    /// result object as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.notes {
            let _ = writeln!(out, "# {key}: {value}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "# {name} = {value:.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        (1..=100).for_each(|v| s.push(v as f64));
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.deepest_tail(), (90.0, 90.0));
        s.push_failed();
        assert_eq!(s.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn long_runs_keep_an_even_subsample() {
        let mut s = Samples::default();
        let n = 3 * MAX_STORED + 5;
        (0..n).for_each(|v| s.push(v as f64));
        assert_eq!(s.len(), n);
        assert!(s.stored.len() < MAX_STORED);
        assert!(s.stored.windows(2).all(|w| w[1] - w[0] == s.stride as f64));
        let median = s.median() / n as f64;
        assert!((median - 0.5).abs() < 0.01, "{median}");
    }

    #[test]
    fn deepest_tail_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        (1..=19).for_each(|v| s.push(v as f64));
        assert_eq!(s.deepest_tail().0, 50.0);
        let mut s = Samples::default();
        (1..=1000).for_each(|v| s.push(v as f64));
        assert_eq!(s.deepest_tail(), (99.0, 990.0));
    }

    #[test]
    fn rate_is_the_median_slice() {
        let mut rate = Rate::default();
        for i in 0..20 {
            // Two slow parts out of twenty land in one slice.
            let ms = if i == 3 || i == 4 { 100 } else { 10 };
            rate.add(1, Duration::from_millis(ms));
        }
        assert!((rate.per_s() - 100.0).abs() < 1e-9);
        let mut short = Rate::default();
        short.add(5, Duration::from_secs(1));
        assert!((short.per_s() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_is_last_and_flags_failures() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_p50_ms", 1.25, "ms");
        r.note("seed", 7);
        let text = r.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.metric("latency_p90_ms", f64::INFINITY, "ms");
        assert!(r.render().lines().last().unwrap().contains("null"));
        assert!(!r.correct());
    }
}
