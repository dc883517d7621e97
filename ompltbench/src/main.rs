//! The omplt benchmark.
//!
//! ```text
//! bash ompltbench/run.sh --workload <compile_cold|run_kernels|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs one workload for `--seconds`, checks every
//! reply against the generator's reference, and prints the end-to-end
//! metrics. With `--trace 1` it spends half the time on the same untraced
//! run and half replaying those jobs in-process through the layers' public
//! calls, each wrapped in a span, and prints the per-layer metrics. The last
//! line of stdout is always one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See `ompltbench/README.md` for what each workload and metric is for.

mod daemon;
mod gen;
mod inproc;
mod jobs;
mod traced;

#[cfg(test)]
mod tests;

use jobs::Job;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported, so
/// one slow start-up does not decide `setup_s`.
pub const SETUP_REPEATS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileCold,
    RunKernels,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::CompileCold,
        Workload::RunKernels,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile_cold",
            Workload::RunKernels => "run_kernels",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Throughput is the median rate over this many equal windows of the timed
/// phase, so a burst of interference from outside the benchmark moves a
/// window or two rather than the whole figure.
const RATE_WINDOWS: usize = 10;

/// Timings and verdicts of one timed phase.
#[derive(Default)]
pub struct Phase {
    /// Client-observed latency of every attempted job, in issue order.
    pub latencies_ms: Vec<f64>,
    /// When each correct job completed, in seconds into the phase.
    pub correct_at_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Timed wall time the jobs took.
    pub wall_s: f64,
}

impl Phase {
    /// Records a job that took `latency` and completed `at` into the phase.
    pub fn record(&mut self, latency: Duration, at: Duration, ok: bool) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.attempted += 1;
        if ok {
            self.correct_at_s.push(at.as_secs_f64());
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Phase) {
        self.latencies_ms.extend(other.latencies_ms);
        self.correct_at_s.extend(other.correct_at_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Jobs completed correctly per second: the median over
    /// [`RATE_WINDOWS`] equal windows of the phase.
    pub fn jobs_per_s(&self) -> f64 {
        let width = self.wall_s / RATE_WINDOWS as f64;
        let mut counts = [0u64; RATE_WINDOWS];
        for t in &self.correct_at_s {
            counts[((t / width) as usize).min(RATE_WINDOWS - 1)] += 1;
        }
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
        median(&rates)
    }
}

/// Nearest-rank quantile of unsorted samples, and how many samples lie
/// beyond it.
pub fn quantile(samples: &[f64], q: f64) -> (f64, usize) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).0
}

/// Artifact-cache counters over a timed window.
#[derive(Clone, Copy, Default)]
pub struct CacheWindow {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheWindow {
    /// Reads the window's counters from `daemon.cache.*` pairs.
    pub fn from_counters<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> CacheWindow {
        let mut w = CacheWindow::default();
        for (k, v) in counters {
            match k {
                "daemon.cache.hits" => w.hits = v,
                "daemon.cache.misses" => w.misses = v,
                "daemon.cache.evictions" => w.evictions = v,
                _ => {}
            }
        }
        w
    }

    pub fn since(self, start: CacheWindow) -> CacheWindow {
        CacheWindow {
            hits: self.hits - start.hits,
            misses: self.misses - start.misses,
            evictions: self.evictions - start.evictions,
        }
    }
}

/// One untraced run of a workload.
pub struct Measured {
    /// Median of the repeated set-ups.
    pub setup_s: f64,
    pub phase: Phase,
    pub peak_rss_mb: f64,
    pub cache: CacheWindow,
    /// The artifact cache's byte budget.
    pub cache_bytes: usize,
    /// Jobs that prepared the cache before the timed phase.
    pub warmup: Vec<Job>,
    /// Each timed job with its reply body, in issue order (when recording).
    pub record: Vec<(Job, String)>,
    /// How the set-up went, for the run's summary.
    pub setup_note: String,
}

/// `VmHWM` of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Directory for the benchmark's run-time files (daemon socket, traces),
/// relative to the working directory so socket paths stay short.
pub const OUT_DIR: &str = ".ompltbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    ompltd: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut ompltd) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for '{flag}'"))?;
        let bad = || format!("invalid value '{value}' for '{flag}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--ompltd" => ompltd = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        ompltd: ompltd.ok_or("missing --ompltd")?,
    })
}

fn run(args: &Args, seconds: f64, record: bool) -> Result<Measured, String> {
    let budget = Duration::from_secs_f64(seconds);
    match args.workload {
        Workload::CompileCold => inproc::compile_cold(args.seed, budget, record),
        Workload::RunKernels => inproc::run_kernels(args.seed, budget, record),
        Workload::ServeMixed => daemon::serve_mixed(&args.ompltd, args.seed, budget, record),
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let (p50, _) = quantile(&m.phase.latencies_ms, 0.50);
    let (p99, _) = quantile(&m.phase.latencies_ms, 0.99);
    let correct = (m.phase.attempted - m.phase.failed) as f64 / m.phase.attempted as f64;
    vec![
        ("setup_s", m.setup_s, "s"),
        ("jobs_per_s", m.phase.jobs_per_s(), "jobs/s"),
        ("job_p50_ms", p50, "ms"),
        ("job_p99_ms", p99, "ms"),
        ("correct_ratio", correct, "ratio"),
        ("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ]
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ompltbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("ompltbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let started = Instant::now();
    let outcome = if args.trace {
        run(&args, args.seconds / 2.0, true).and_then(|m| {
            let t = traced::replay(args.workload, args.seed, &m, args.seconds / 2.0)?;
            Ok((m, Some(t)))
        })
    } else {
        run(&args, args.seconds, false).map(|m| (m, None))
    };
    let (m, traced) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ompltbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (_, beyond) = quantile(&m.phase.latencies_ms, 0.99);
    println!(
        "# {} seed {}: {} jobs attempted, {} failed; {} latency samples, {} beyond p99; \
         {:.1} s total",
        args.workload.name(),
        args.seed,
        m.phase.attempted,
        m.phase.failed,
        m.phase.latencies_ms.len(),
        beyond,
        started.elapsed().as_secs_f64()
    );
    if !m.setup_note.is_empty() {
        println!("# {}", m.setup_note);
    }
    match traced {
        None => {
            let failed = m.phase.failed;
            print_result(failed == 0, m.phase.attempted, failed, &end_to_end(&m));
        }
        Some(t) => {
            for line in &t.notes {
                println!("# {line}");
            }
            let failed = m.phase.failed + t.failed;
            let attempted = m.phase.attempted + t.attempted;
            print_result(failed == 0 && t.healthy, attempted, failed, &t.metrics);
        }
    }
    ExitCode::SUCCESS
}
