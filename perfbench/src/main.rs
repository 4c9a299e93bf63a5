//! Benchmark of the preview-tables serving stack.
//!
//! ```text
//! perfbench --workload <browse|first-preview|publish-mix> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Three closed-loop workloads on one film graph at scale [`SCALE`]:
//! one client thread against a one-worker `PreviewService`. Inputs are made
//! from `--seed` before timing; every answer is checked against one
//! recomputed directly. With `--trace 0` the last line of standard output
//! carries the end-to-end metrics, with `--trace 1` the per-layer metrics.
//! See README.md next to this crate.

mod browse;
mod first_preview;
mod inputs;
mod layers;
mod measure;
mod publish_mix;
mod reads;
mod serve;

use std::process::ExitCode;

use measure::{Rate, Report, Samples};

/// A seed kept out of all tuning, for validating later claims.
pub const HELD_OUT_SEED: u64 = 20160626;

/// Scale of the film graph: 200k entities, 1.8M edges.
pub const SCALE: f64 = 0.1;

/// Share of `--seconds` that `browse` and `first-preview` spend on their
/// own ops; the publish probe that follows them takes the rest.
pub const OPS_SHARE: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Browse,
    FirstPreview,
    PublishMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "browse" => Some(Self::Browse),
            "first-preview" => Some(Self::FirstPreview),
            "publish-mix" => Some(Self::PublishMix),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Always [`SCALE`] from the command line; the tests use less.
    pub scale: f64,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::Browse,
            seed: 1,
            seconds: 10,
            trace: false,
            scale: SCALE,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad.clone())?,
                "--seconds" => parsed.seconds = value.parse().map_err(|_| bad.clone())?,
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        if parsed.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(parsed)
    }
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub throughput: Rate,
    pub latency_ms: Samples,
    pub publish_ms: Samples,
}

impl EndToEnd {
    /// Adds the metrics to `report`; a traced run reports per-layer
    /// metrics instead.
    pub fn emit(self, report: &mut Report, trace: bool) {
        if trace {
            return;
        }
        report.metric("latency_p50_ms", self.latency_ms.median(), "ms");
        report.metric("latency_p90_ms", self.latency_ms.quantile(0.9), "ms");
        report.metric("throughput_per_s", self.throughput.per_s(), "1/s");
        // Publish times fall into two modes some 35% apart as the host's
        // memory bandwidth comes and goes, so their median flips between
        // runs; it is printed, not bounded. The mean moves with the share of
        // time in each mode instead of jumping (see README.md).
        let p50 = format!("{:.6} ms (not bounded)", self.publish_ms.median());
        report.note("publish_p50_ms", p50);
        report.metric("publish_mean_ms", self.publish_ms.mean(), "ms");
        report.metric("publish_p90_ms", self.publish_ms.quantile(0.9), "ms");
        report.metric("setup_s", self.setup_s, "s");
        report.metric("peak_rss_mb", self.peak_rss_mb, "MB");
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.note("workload", format!("{:?}", args.workload));
    report.note("seed", args.seed);
    report.note("held_out_seed", HELD_OUT_SEED);
    report.note("scale", args.scale);
    report.note("seconds", args.seconds);
    report.note("nproc", nproc);
    report.note("workers", serve::WORKERS);
    report.note("setup_repeats", serve::SETUP_REPEATS);
    match args.workload {
        Workload::Browse => browse::run(args, &mut report)?,
        Workload::FirstPreview => first_preview::run(args, &mut report)?,
        Workload::PublishMix => publish_mix::run(args, &mut report)?,
    }
    Ok(report)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| run(&args));
    match outcome {
        Ok(report) => {
            // lint: allow(no-println, benchmark binary: standard output is its report)
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            serve::report_failure(&e);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "publish-mix",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::PublishMix);
        assert_eq!((a.seed, a.seconds, a.trace, a.scale), (7, 3, true, SCALE));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "browse", "--scale", "0.5"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "browse", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "browse", "--seconds"]).is_err());
    }

    /// Every workload runs end to end on a small graph with every answer
    /// checked, and reports every metric of its mode.
    #[test]
    fn every_workload_runs_correctly_at_small_scale() {
        for workload in ["browse", "first-preview", "publish-mix"] {
            for trace in [false, true] {
                let a = Args {
                    workload: Workload::parse(workload).unwrap(),
                    seed: 3,
                    seconds: 1,
                    trace,
                    scale: 0.002,
                };
                let report = run(&a).unwrap();
                let text = report.render();
                let last = text.lines().last().unwrap();
                assert!(report.correct(), "{workload} trace {trace}: {text}");
                let names: &[&str] = if a.trace {
                    &[
                        "engine.compute_p50_us",
                        "delta.apply_ms",
                        "trace.overhead_ratio",
                    ]
                } else {
                    &[
                        "latency_p50_ms",
                        "publish_mean_ms",
                        "setup_s",
                        "peak_rss_mb",
                    ]
                };
                for name in names {
                    assert!(last.contains(&format!("\"{name}\"")), "{workload}: {last}");
                }
            }
        }
    }
}
