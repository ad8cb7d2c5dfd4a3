//! The repository benchmark: pre-encoded per-collector MRT archives
//! replayed through `MrtSource` → `MergedStream` → `Kepler` (inside the
//! serve daemon where the workload says so), end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload five_year --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Inputs are generated from `--seed`, encoded, and their probe and
//! canary measurements recorded against the live simulator before any
//! timed window; timed passes answer every measurement from those
//! recordings. The run replays the workload's streams in closed-loop
//! passes for `--seconds`, checks every pass against its reference, and
//! prints each metric by name and unit, then one JSON line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics, timed from this package around calls into each layer's
//! public API.

mod archive;
mod fixture;
mod passes;
mod stats;
mod trace;
mod workloads;

use passes::{core_pass, production, serve_pass, CoreStats, ServeStats, StreamRun, Tally};
use stats::{median, Summary, Windows};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{ratio, Ledger};
use workloads::{prepare, Prepared, Workload};

const USAGE: &str = "usage: perfbench --workload <five_year|fusion_sweep> \
                     [--seed <u64>] [--seconds <1..=3600>] [--trace <0|1>]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants an unsigned integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds wants 1..=3600, got {v:?}"))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, note: String::new() }
}

/// What a run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    passes: usize,
    mismatches: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let store_root = PathBuf::from(".perfbench-run").join(std::process::id().to_string());
    let result = run(&args, &store_root);
    let _ = std::fs::remove_dir_all(&store_root);
    let _ = std::fs::remove_dir(".perfbench-run");
    match result {
        Ok(report) => {
            print(&args, &report);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, store_root: &Path) -> Result<Report, String> {
    let t = Instant::now();
    let prepared = prepare(args.workload, args.seed)?;
    let records: u64 = prepared.streams.iter().map(|s| s.archives.records()).sum();
    let bytes: usize = prepared.streams.iter().map(|s| s.archives.bytes()).sum();
    let canaries: usize = prepared.streams.iter().map(|s| s.journals.canary.len()).sum();
    println!(
        "input: {} streams, {records} records, {:.1} MB of MRT, {canaries} canary traces \
         recorded; prepared in {:.2} s (of which recording against the simulator {:.2} s)",
        prepared.streams.len(),
        bytes as f64 / 1e6,
        t.elapsed().as_secs_f64(),
        prepared.record_secs
    );
    for f in &prepared.findings {
        println!("finding: {f}");
    }
    let bench = Bench {
        workload: args.workload,
        prepared: &prepared,
        budget: Duration::from_secs(args.seconds),
        store_root,
        rss_from_here: reset_peak_rss(),
    };
    if args.trace {
        traced(&bench)
    } else {
        untraced(&bench)
    }
}

/// A run's prepared workload and time budget.
struct Bench<'a> {
    workload: Workload,
    prepared: &'a Prepared,
    budget: Duration,
    store_root: &'a Path,
    /// Whether the peak-RSS mark was reset after preparation, so that
    /// `peak_rss_mb` covers the timed passes only.
    rss_from_here: bool,
}

impl Bench<'_> {
    /// Repeats `f` for `share` of the budget, at least once. Returns the
    /// count.
    fn repeat(&self, share: f64, mut f: impl FnMut() -> Result<(), String>) -> Result<u64, String> {
        let limit = self.budget.mul_f64(share);
        let start = Instant::now();
        let mut n = 0;
        while n == 0 || start.elapsed() < limit {
            f()?;
            n += 1;
        }
        Ok(n)
    }

    /// Production passes over every stream for `share` of the budget;
    /// `daemon` wraps the detector in the serve daemon.
    fn passes(
        &self,
        share: f64,
        daemon: bool,
        ledger: Option<&Ledger>,
        tally: &mut Tally,
    ) -> Result<Vec<StreamRun>, String> {
        let mut runs = Vec::new();
        self.repeat(share, || {
            let mut total = StreamRun::default();
            for stream in &self.prepared.streams {
                total.add(production(stream, daemon, self.store_root, ledger, tally)?);
            }
            runs.push(total);
            Ok(())
        })?;
        Ok(runs)
    }
}

fn median_of(runs: &[StreamRun], f: impl Fn(&StreamRun) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn window_secs(r: &StreamRun) -> f64 {
    r.window_ns as f64 * 1e-9
}

/// Returns freed preparation memory to the system and restarts the
/// peak-RSS mark at the current resident size (Linux: `clear_refs` 5),
/// so that `VmHWM` from here on is the peak of the timed passes. False
/// when the mark could not be reset.
fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics, tracing off.
fn untraced(bench: &Bench) -> Result<Report, String> {
    let mut tally = Tally::default();
    let runs = bench.passes(1.0, bench.workload.daemon(), None, &mut tally)?;
    let close = tally.bin_close_ns.summary().unwrap_or(NO_SAMPLES);
    let mut metrics = vec![
        metric("records_per_s", median_of(&runs, |r| r.records as f64 / window_secs(r)), "1/s"),
        metric("bin_close_p50_us", close.p50 / 1e3, "us"),
        metric("bin_close_tail_us", close.tail / 1e3, "us"),
        metric("setup_s", median_of(&runs, |r| r.setup.secs()), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let rates: Vec<String> =
        runs.iter().map(|r| format!("{:.0}", r.records as f64 / window_secs(r))).collect();
    println!("per-pass records/s: {}", rates.join(" "));
    metrics[0].note = format!("median of {} passes of {} records", runs.len(), runs[0].records);
    metrics[1].note = windows_note(&tally.bin_close_ns, "p50");
    metrics[2].note = windows_note(&tally.bin_close_ns, &format!("p{:.1}", close.percentile));
    metrics[3].note = format!("median of {} set-ups", runs.len());
    metrics[4].note = if bench.rss_from_here {
        "peak over the timed passes, prepared input included".into()
    } else {
        "peak over the whole process: the mark could not be reset".into()
    };
    Ok(finish(tally, runs.len(), metrics))
}

/// What a series without enough samples reports.
const NO_SAMPLES: Summary = Summary { p50: 0.0, tail: 0.0, percentile: 0.0, samples: 0 };

/// How a windowed latency figure was taken.
fn windows_note(w: &Windows, what: &str) -> String {
    format!("median over windows of {} of each {what}; {} samples", stats::WINDOW, w.count())
}

fn finish(tally: Tally, passes: usize, metrics: Vec<Metric>) -> Report {
    Report {
        correct: tally.mismatches.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        passes,
        mismatches: tally.mismatches,
        metrics,
    }
}

/// The per-layer metrics: untraced production passes, traced production
/// passes, the composed core pass, and on daemon workloads bare passes
/// and the external commit pass.
fn traced(bench: &Bench) -> Result<Report, String> {
    let mut tally = Tally::default();
    let prepared = bench.prepared;
    let serve = bench.workload.daemon();
    // Shares of the budget for untraced, traced and composed passes; on
    // daemon workloads bare passes and commit passes take 15% each.
    let (a, b, c) = if serve { (0.25, 0.25, 0.2) } else { (0.35, 0.35, 0.3) };
    let plain = bench.passes(a, serve, None, &mut tally)?;
    let ledger = Ledger::default();
    let traced = bench.passes(b, serve, Some(&ledger), &mut tally)?;
    let mut core = CoreStats::default();
    let core_passes = bench.repeat(c, || {
        for stream in &prepared.streams {
            core_pass(stream, &mut core, &mut tally);
        }
        Ok(())
    })?;
    let mut sv = ServeStats::default();
    let (bare, serve_passes) = if serve {
        let bare = bench.passes(0.15, false, None, &mut tally)?;
        let n = bench.repeat(0.15, || {
            for stream in &prepared.streams {
                serve_pass(stream, bench.store_root, &mut sv, &mut tally)?;
            }
            Ok(())
        })?;
        (bare, n)
    } else {
        (Vec::new(), 0)
    };

    let nb = traced.len() as f64;
    let nc = core_passes as f64;
    let sum = |f: fn(&StreamRun) -> u64| traced.iter().map(f).sum::<u64>();
    let (records_b, bins_b) = (sum(|r| r.records), sum(|r| r.bins));
    let l = &ledger;
    let probe_ns = l.validate.ns() + l.restore.ns() + l.delay.ns();
    let backend_ns = l.validate_backend.ns() + l.restore_backend.ns() + l.canary_backend.ns();
    let raised = l.forecast.hits() + l.delay.hits();
    let suppressed = sum(|r| r.suppressed);

    // Per pass: the untraced and traced windows, the daemon's extra
    // time over a bare detector, and the layer self times.
    let window_a = median_of(&plain, |r| r.window_ns as f64);
    let window_b = median_of(&traced, |r| r.window_ns as f64);
    let commits = median_of(&plain, |r| r.commits as f64);
    let serve_ns = if serve { window_a - median_of(&bare, |r| r.window_ns as f64) } else { 0.0 };
    let core_ns = core.input.ns()
        + core.observe.ns()
        + core.close.ns()
        + core.investigate.ns()
        + core.tracker.ns();
    let aux_ns = l.validate.ns() + l.restore.ns() + l.forecast.ns() + l.delay.ns();
    let attributed =
        l.decode.ns() as f64 / nb + core_ns as f64 / nc + aux_ns as f64 / nb + serve_ns;
    let reads = &tally.reads;
    let read = reads.read_ns.summary().unwrap_or(NO_SAMPLES);
    let setups: Vec<_> = plain.iter().chain(&traced).map(|r| r.setup).collect();
    let setup_ms = |f: fn(&workloads::Setup) -> u64| {
        median(&setups.iter().map(|s| f(s) as f64 / 1e6).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let count = |v: u64| v as f64;

    let mut metrics = vec![
        metric("decode.ns_per_record", l.decode.ns_per(l.decode.calls()), "ns"),
        metric("decode.errors", count(tally.decode_errors), "count"),
        metric("input.ns_per_record", core.input.ns_per(core.input.calls()), "ns"),
        metric(
            "input.located_frac",
            ratio(core.located as f64, core.announcements as f64),
            "ratio",
        ),
        metric("intern.routes", core.routes as f64 / nc, "count"),
        metric("monitor.observe_ns_per_event", core.observe.ns_per(core.observe.calls()), "ns"),
        metric(
            "monitor.events_per_bin",
            ratio(core.observe.calls() as f64, core.close.calls() as f64),
            "count",
        ),
        metric("monitor.baseline_routes", core.baseline_routes as f64 / nc, "count"),
        metric("monitor.close_ns_per_bin", core.close.ns_per(core.close.calls()), "ns"),
        metric("investigate.ns_per_bin", core.investigate.ns_per(core.investigate.calls()), "ns"),
        metric(
            "investigate.signals_per_bin",
            ratio(core.investigate.hits() as f64, core.investigate.calls() as f64),
            "count",
        ),
        metric(
            "investigate.pop_level_frac",
            ratio(core.pop_level as f64, core.groups as f64),
            "ratio",
        ),
        metric("tracker.ns_per_bin", core.tracker.ns_per(core.tracker.calls()), "ns"),
        metric("tracker.live_incidents_max", count(core.live_max), "count"),
        metric("signal.forecast_ns_per_bin", l.forecast.ns_per(l.forecast.calls()), "ns"),
        metric("signal.delay_ns_per_bin", l.delay.ns_per(l.delay.calls()), "ns"),
        metric("signal.raised", raised as f64 / nb, "count"),
        metric("signal.suppressed_frac", ratio(suppressed as f64, raised as f64), "ratio"),
        metric("probe.validate_ns_per_campaign", l.validate.ns_per(l.validate.calls()), "ns"),
        metric("probe.campaigns", l.validate.calls() as f64 / nb, "count"),
        metric(
            "probe.measurements_per_campaign",
            ratio(l.validate_backend.calls() as f64, l.validate.calls() as f64),
            "count",
        ),
        metric(
            "probe.resolved_frac",
            ratio(l.validate.hits() as f64, l.validate.calls() as f64),
            "ratio",
        ),
        metric("probe.restore_ns_per_bin", l.restore.ns_per(bins_b), "ns"),
        metric(
            "probe.canary_traces_per_bin",
            ratio(l.canary_backend.calls() as f64, bins_b as f64),
            "count",
        ),
        metric("probe.backend_ns_frac", ratio(backend_ns as f64, probe_ns as f64), "ratio"),
        metric("serve.commit_ns", ratio(serve_ns, commits), "ns"),
        metric("serve.export_ns_per_commit", sv.export.ns_per(sv.export.calls()), "ns"),
        metric("serve.view_build_ns_per_commit", sv.view.ns_per(sv.view.calls()), "ns"),
        metric(
            "serve.wal_bytes_per_commit",
            ratio(sv.wal_bytes as f64, sv.commit.calls() as f64),
            "B",
        ),
        metric("serve.compaction_ns", sv.compaction.ns_per(sv.compaction.calls()), "ns"),
        metric("query.read_ns_p50", read.p50, "ns"),
        metric("query.read_ns_tail", read.tail, "ns"),
        metric("query.reads", count(reads.reads), "count"),
        metric("query.late_frac", ratio(reads.late as f64, reads.reads as f64), "ratio"),
        metric("setup.dictionary_ms", setup_ms(|s| s.dictionary_ns), "ms"),
        metric("setup.detector_ms", setup_ms(|s| s.detector_ns), "ms"),
        metric("setup.store_open_ms", setup_ms(|s| s.store_open_ns), "ms"),
        metric("netsim.record_s", prepared.record_secs, "s"),
        metric("trace.overhead_frac", ratio(window_b - window_a, window_a), "ratio"),
        metric("trace.unattributed_frac", ratio(window_b - attributed, window_b).max(0.0), "ratio"),
    ];
    let notes = [
        (
            "decode.ns_per_record",
            format!("{records_b} records over {} traced passes", traced.len()),
        ),
        (
            "monitor.close_ns_per_bin",
            format!("{} bins over {core_passes} composed passes", core.close.calls()),
        ),
        (
            "probe.campaigns",
            format!("{} campaigns, {} restoration checks", l.validate.calls(), l.restore.calls()),
        ),
        (
            "serve.commit_ns",
            format!(
                "{} untraced vs {} bare passes, {commits} commits per pass",
                plain.len(),
                bare.len()
            ),
        ),
        (
            "serve.compaction_ns",
            format!("{} compactions over {serve_passes} commit passes", sv.compaction.calls()),
        ),
        ("query.reads", format!("{} saw a newer commit than the read before", reads.fresh)),
        ("query.read_ns_tail", windows_note(&reads.read_ns, &format!("p{:.1}", read.percentile))),
        ("setup.detector_ms", format!("median of {} set-ups", setups.len())),
        (
            "trace.unattributed_frac",
            format!(
                "clamped at 0; per pass {:.0} ns traced window, {:.0} ns attributed \
                 (decode, core, probe and signal spans, serve from daemon minus bare)",
                window_b, attributed
            ),
        ),
    ];
    for (name, note) in notes {
        if let Some(m) = metrics.iter_mut().find(|m| m.name == name) {
            m.note = note;
        }
    }
    Ok(finish(tally, plain.len() + traced.len(), metrics))
}

/// The commit the checkout was taken from, read from `.git` when there
/// is one.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return head.to_owned() };
    if let Some(rev) = read(name) {
        return rev.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split(' ').next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print(args: &Args, report: &Report) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cpus={cpus} rev={} passes={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        report.passes
    );
    for m in &report.metrics {
        println!("  {:<34} {:>16.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!("attempted {} failed {}", report.attempted, report.failed);
    for m in &report.mismatches {
        println!("MISMATCH {m}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

/// A finite JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload five_year --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a, Args { workload: Workload::FiveYear, seed: 7, seconds: 3, trace: true });
    }

    #[test]
    fn missing_or_garbled_arguments_are_clean_errors() {
        assert!(args("").unwrap_err().contains("--workload is required"));
        assert!(args("--workload five_year --seed").unwrap_err().contains("needs a value"));
        assert!(args("--workload five_year --seed x").unwrap_err().contains("unsigned"));
        assert!(args("--workload nope").unwrap_err().contains("unknown workload"));
        assert!(args("--workload five_year --trace 2").unwrap_err().contains("0 or 1"));
        assert!(args("--workload five_year --seconds 0").is_err());
        assert!(args("--workload five_year --bogus 1").unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn json_numbers_stay_finite() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(0.125), "0.125");
    }
}
