//! `serve_mixed`: a real `ompltd` child serving two closed-loop client
//! connections over its Unix socket.

use crate::gen::Rng;
use crate::jobs::{check, Job, MixedCatalog};
use crate::{median, peak_rss_mb, CacheWindow, Measured, Phase, OUT_DIR, SETUP_REPEATS};
use omplt::protocol::{read_frame, write_frame, HealthReport, Reply};
use omplt::trace::json;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections, and daemon workers: one per core of the 2-core
/// reference machine.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;

/// How long a client waits for any reply before the job counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// How long the daemon may take to start, and to drain after SIGTERM.
const START_TIMEOUT: Duration = Duration::from_secs(20);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Warm-up runs in windows of this many requests until the hit ratio of
/// one window is within `WARMUP_STEADY` of the previous one.
const WARMUP_WINDOW: usize = 200;
const WARMUP_STEADY: f64 = 0.1;
const WARMUP_MIN_WINDOWS: usize = 3;
const WARMUP_MAX_WINDOWS: usize = 10;

/// The daemon's cache budget as a multiple of the catalog's total source
/// bytes. An artifact (source, printed IR, bytecode) is several times its
/// source, so this holds the popular head of the catalog but not its tail:
/// the steady-state hit ratio lands between 0.6 and 0.9, with evictions.
const CACHE_PER_SOURCE_BYTE: usize = 64;

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// A running `ompltd --listen` child. Dropping it kills and reaps the
/// process, so no error path leaves a daemon behind.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    fn start(ompltd: &Path, socket: PathBuf, cache_bytes: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(ompltd)
            .arg(format!("--listen={}", socket.display()))
            .arg(format!("--workers={WORKERS}"))
            .arg(format!("--cache-bytes={cache_bytes}"))
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ompltd.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Some(Ok(Some(status))) = daemon.child.as_mut().map(Child::try_wait) {
                return Err(format!("ompltd exited during start-up with {status}"));
            }
            if let Ok(h) = daemon.health() {
                if h.workers_alive == WORKERS as u64 {
                    return Ok(daemon);
                }
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "ompltd did not answer a health request within {START_TIMEOUT:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon not yet stopped").id()
    }

    fn connect(&self) -> Result<UnixStream, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("connect {}: {e}", self.socket.display()))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set read timeout: {e}"))?;
        Ok(stream)
    }

    /// One control request on a fresh connection.
    fn control(&self, body: &str) -> Result<String, String> {
        let mut stream = self.connect()?;
        exchange(&mut stream, body)
    }

    fn health(&self) -> Result<HealthReport, String> {
        HealthReport::parse(&self.control("{\"op\":\"health\"}")?)
    }

    /// The daemon's `daemon.cache.*` counters.
    fn stats(&self) -> Result<Vec<(String, u64)>, String> {
        let reply = self.control("{\"op\":\"stats\"}")?;
        let v = json::parse(&reply)?;
        v.get("counters")
            .and_then(|c| c.as_object())
            .ok_or_else(|| format!("stats reply without counters: {reply}"))?
            .iter()
            .map(|(k, n)| {
                n.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("non-integer counter {k}"))
            })
            .collect()
    }

    fn cache_window(&self) -> Result<CacheWindow, String> {
        let stats = self.stats()?;
        Ok(CacheWindow::from_counters(
            stats.iter().map(|(k, v)| (k.as_str(), *v)),
        ))
    }

    /// Sends SIGTERM and requires the graceful drain to exit 0 in time. A
    /// daemon that does not is killed and reported as an error.
    fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("daemon not yet stopped");
        // SAFETY: `kill` only sends a signal; the pid is that of our own
        // child, which has not been reaped yet, so it cannot name another
        // process.
        unsafe {
            kill(child.id() as i32, SIGTERM);
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("ompltd drain ended with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("ompltd did not drain within {DRAIN_TIMEOUT:?}"));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Writes one request frame and reads its reply.
fn exchange(stream: &mut UnixStream, body: &str) -> Result<String, String> {
    write_frame(stream, body.as_bytes()).map_err(|e| format!("send: {e}"))?;
    match read_frame(stream) {
        Ok(Some(reply)) => String::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string()),
        Ok(None) => Err("connection closed before the reply".to_string()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// What one client saw in one stretch of requests.
#[derive(Default)]
struct ClientLog {
    phase: Phase,
    jobs: Vec<(Job, String)>,
    /// Set when the connection broke; the client stops issuing.
    broken: bool,
}

struct Client {
    stream: UnixStream,
    rng: Rng,
}

impl Client {
    /// Issues jobs until `count` are done or `deadline` passes, whichever
    /// comes first. A lost or unparsable reply fails its job and ends the
    /// client's run, because the connection can no longer be trusted.
    fn run(
        &mut self,
        catalog: &MixedCatalog,
        ids: &AtomicU64,
        count: usize,
        start: Instant,
        deadline: Instant,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        for _ in 0..count {
            if Instant::now() >= deadline {
                break;
            }
            let job = catalog.draw(&mut self.rng, ids.fetch_add(1, Ordering::Relaxed));
            let t0 = Instant::now();
            let reply = exchange(&mut self.stream, &job.request.render());
            let ok = match reply.as_deref().map(Reply::parse) {
                Ok(Ok(Reply::Job(resp))) => check(&resp, &job.expect),
                _ => false,
            };
            log.phase.record(t0.elapsed(), start.elapsed(), ok);
            match reply {
                Ok(body) => log.jobs.push((job, body)),
                Err(e) => {
                    eprintln!("ompltbench: job {}: {e}", job.request.id);
                    log.broken = true;
                    break;
                }
            }
        }
        log
    }
}

/// Runs every client for one stretch and merges their logs; jobs come back
/// in id order, which is the order they were issued.
fn run_clients(
    clients: &mut [Client],
    catalog: &MixedCatalog,
    ids: &AtomicU64,
    count_each: usize,
    deadline: Instant,
) -> (ClientLog, f64) {
    let t0 = Instant::now();
    let merged = Mutex::new(ClientLog::default());
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            let merged = &merged;
            s.spawn(move || {
                let log = c.run(catalog, ids, count_each, t0, deadline);
                let mut m = merged.lock().expect("no client panics holding the log");
                m.phase.merge(log.phase);
                m.jobs.extend(log.jobs);
                m.broken |= log.broken;
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut log = merged.into_inner().expect("no client panicked");
    log.jobs.sort_by_key(|(j, _)| j.request.id);
    (log, wall)
}

/// A daemon with connected, warmed-up clients.
struct Ready {
    daemon: Daemon,
    clients: Vec<Client>,
    warmup: Vec<Job>,
    /// Jobs of the warm-up that failed their check.
    warmup_failed: u64,
    /// Warm-up windows run, and the hit ratio of the last one.
    windows: usize,
    hit_ratio: f64,
    /// Request ids, unique over the warm-up and the timed phase.
    ids: AtomicU64,
}

impl Ready {
    /// Closes the client connections and drains the daemon.
    fn shut_down(self) -> Result<(), String> {
        drop(self.clients);
        self.daemon.stop()
    }
}

/// Set-up: generate the catalog, start the daemon, and warm its cache
/// until the hit ratio is steady.
fn set_up(ompltd: &Path, seed: u64, repeat: usize) -> Result<(MixedCatalog, Ready), String> {
    let catalog = MixedCatalog::new(seed);
    let socket =
        PathBuf::from(OUT_DIR).join(format!("ompltd-{}-{repeat}.sock", std::process::id()));
    let daemon = Daemon::start(ompltd, socket, cache_bytes(&catalog))?;
    let clients = (0..CLIENTS as u64)
        .map(|c| {
            Ok(Client {
                stream: daemon.connect()?,
                rng: Rng::new(seed.wrapping_mul(31).wrapping_add(c + 1)),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut ready = Ready {
        daemon,
        clients,
        warmup: Vec::new(),
        warmup_failed: 0,
        windows: 0,
        hit_ratio: 0.0,
        ids: AtomicU64::new(0),
    };
    let far = Instant::now() + Duration::from_secs(3600);
    let mut prev: Option<f64> = None;
    for window in 0..WARMUP_MAX_WINDOWS {
        let before = ready.daemon.cache_window()?;
        let (log, _) = run_clients(
            &mut ready.clients,
            &catalog,
            &ready.ids,
            WARMUP_WINDOW / CLIENTS,
            far,
        );
        ready.warmup.extend(log.jobs.into_iter().map(|(j, _)| j));
        ready.warmup_failed += log.phase.failed;
        if log.broken {
            break;
        }
        let w = ready.daemon.cache_window()?.since(before);
        let ratio = w.hits as f64 / (w.hits + w.misses).max(1) as f64;
        (ready.windows, ready.hit_ratio) = (window + 1, ratio);
        let steady = prev.is_some_and(|p| (ratio - p).abs() < WARMUP_STEADY);
        if steady && window + 1 >= WARMUP_MIN_WINDOWS {
            break;
        }
        prev = Some(ratio);
    }
    Ok((catalog, ready))
}

/// The daemon's cache budget for `catalog`.
fn cache_bytes(catalog: &MixedCatalog) -> usize {
    catalog.source_bytes() * CACHE_PER_SOURCE_BYTE
}

pub fn serve_mixed(
    ompltd: &Path,
    seed: u64,
    budget: Duration,
    record: bool,
) -> Result<Measured, String> {
    let mut times = Vec::new();
    // Failed warm-up jobs and failed drains, over every set-up.
    let (mut setup_failed, mut drain_failures) = (0, 0);
    let mut current: Option<(MixedCatalog, Ready)> = None;
    for repeat in 0..SETUP_REPEATS {
        if let Some((_, earlier)) = current.take() {
            if let Err(e) = earlier.shut_down() {
                eprintln!("ompltbench: {e}");
                drain_failures += 1;
            }
        }
        let t0 = Instant::now();
        let (catalog, ready) = set_up(ompltd, seed, repeat)?;
        times.push(t0.elapsed().as_secs_f64());
        setup_failed += ready.warmup_failed;
        current = Some((catalog, ready));
    }
    let (catalog, mut ready) = current.expect("at least one set-up");
    let before = ready.daemon.cache_window()?;
    let (log, wall_s) = run_clients(
        &mut ready.clients,
        &catalog,
        &ready.ids,
        usize::MAX,
        Instant::now() + budget,
    );
    let mut phase = log.phase;
    phase.wall_s = wall_s;

    // End of run: the daemon's own counters, its health, and a clean drain.
    let cache = ready.daemon.cache_window()?.since(before);
    let stats = ready.daemon.stats()?;
    let health = ready.daemon.health()?;
    let integrity = stats
        .iter()
        .find(|(k, _)| k == "daemon.cache.integrity_failures")
        .map_or(0, |(_, v)| *v);
    let rss = peak_rss_mb(&ready.daemon.pid().to_string())?;
    let warmup = std::mem::take(&mut ready.warmup);
    let setup_note = format!(
        "warm-up: {} windows of {WARMUP_WINDOW} requests, last window hit ratio {:.3}; \
         set-ups took {times:.3?} s",
        ready.windows, ready.hit_ratio
    );
    if let Err(e) = ready.shut_down() {
        eprintln!("ompltbench: {e}");
        drain_failures += 1;
    }
    let lifecycle = health.respawns + health.abandoned + integrity + drain_failures;
    if lifecycle > 0 {
        eprintln!(
            "ompltbench: daemon respawns {}, abandoned {}, integrity failures {integrity}, \
             failed drains {drain_failures}",
            health.respawns, health.abandoned
        );
    }
    // Failed warm-up jobs count as attempted and failed; daemon lifecycle
    // faults fail as many of the attempted jobs.
    phase.attempted += setup_failed;
    phase.failed = (phase.failed + setup_failed + lifecycle).min(phase.attempted);
    Ok(Measured {
        setup_s: median(&times),
        phase,
        peak_rss_mb: rss,
        cache,
        cache_bytes: cache_bytes(&catalog),
        warmup,
        record: if record { log.jobs } else { Vec::new() },
        setup_note,
    })
}
