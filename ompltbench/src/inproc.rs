//! The in-process workloads: one closed-loop client calling
//! `Service::execute` directly.

use crate::jobs::{check, kernel_jobs, ColdStream, Job};
use crate::{gen, median, peak_rss_mb, CacheWindow, Measured, Phase, SETUP_REPEATS};
use omplt::cache::DEFAULT_CACHE_BYTES;
use omplt::Service;
use std::time::{Duration, Instant};

/// Untimed `compile_cold` jobs run during set-up, drawn from a stream the
/// timed jobs never repeat.
const COLD_WARMUP_JOBS: usize = 16;
const WARMUP_SALT: u64 = 0x77a2_3e51;

/// Runs `jobs` once each, untimed; returns how many failed their check.
fn prime(service: &Service, jobs: &[Job]) -> u64 {
    let failed = jobs
        .iter()
        .filter(|j| !check(&service.execute(&j.request), &j.expect))
        .count();
    failed as u64
}

/// Repeats `setup` [`SETUP_REPEATS`] times and keeps the last result, with
/// the median set-up time.
fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Times `next` jobs on `service` until `budget` of job time is spent.
/// Generating a job is not timed; its execution and check are.
fn closed_loop(
    service: &Service,
    budget: Duration,
    record: bool,
    mut next: impl FnMut() -> Job,
) -> (Phase, CacheWindow, Vec<(Job, String)>) {
    let mut phase = Phase::default();
    let mut log = Vec::new();
    let before = CacheWindow::from_counters(service.cache().counters());
    let mut busy = Duration::ZERO;
    while busy < budget {
        let job = next();
        let t0 = Instant::now();
        let resp = service.execute(&job.request);
        let ok = check(&resp, &job.expect);
        let dt = t0.elapsed();
        busy += dt;
        phase.record(dt, busy, ok);
        if record {
            log.push((job, resp.render()));
        }
    }
    phase.wall_s = busy.as_secs_f64();
    let cache = CacheWindow::from_counters(service.cache().counters()).since(before);
    (phase, cache, log)
}

fn finish(
    setup_s: f64,
    primed_failures: u64,
    warmup: Vec<Job>,
    run: (Phase, CacheWindow, Vec<(Job, String)>),
) -> Result<Measured, String> {
    let (mut phase, cache, record) = run;
    // A job that failed while priming the cache is a failed job too.
    phase.attempted += primed_failures;
    phase.failed += primed_failures;
    Ok(Measured {
        setup_s,
        phase,
        peak_rss_mb: peak_rss_mb("self")?,
        cache,
        cache_bytes: DEFAULT_CACHE_BYTES,
        warmup,
        record,
        setup_note: String::new(),
    })
}

/// `compile_cold`: every timed job is a distinct translation unit, so each
/// one is a cache miss followed by an insert.
pub fn compile_cold(seed: u64, budget: Duration, record: bool) -> Result<Measured, String> {
    let ((service, warmup, primed), setup_s) = repeated_setup(|| {
        let mut stream = ColdStream::new(seed ^ WARMUP_SALT);
        let warmup: Vec<Job> = (0..COLD_WARMUP_JOBS).map(|_| stream.next_job()).collect();
        let service = Service::new(DEFAULT_CACHE_BYTES);
        let primed = prime(&service, &warmup);
        (service, warmup, primed)
    });
    let mut stream = ColdStream::new(seed);
    let run = closed_loop(&service, budget, record, || stream.next_job());
    finish(setup_s, primed, warmup, run)
}

/// `run_kernels`: the kernels are compiled during set-up, so every timed
/// job is a warm hit whose cost is the run itself.
pub fn run_kernels(seed: u64, budget: Duration, record: bool) -> Result<Measured, String> {
    let ((service, kernels, primed), setup_s) = repeated_setup(|| {
        let kernels = kernel_jobs(seed, gen::FULL);
        let service = Service::new(DEFAULT_CACHE_BYTES);
        let primed = prime(&service, &kernels);
        (service, kernels, primed)
    });
    let mut next_id = kernels.len() as u64;
    let run = closed_loop(&service, budget, record, || {
        let mut job = kernels[next_id as usize % kernels.len()].clone();
        job.request.id = next_id;
        next_id += 1;
        job
    });
    finish(setup_s, primed, kernels, run)
}
