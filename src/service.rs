//! `omplt::service` — the reentrant compile-as-a-service core behind
//! `ompltd`.
//!
//! [`Service`] is `Send + Sync` and owns no process-global state: each job
//! gets its own [`CompilerInstance`], its own fault-injection scope, its own
//! trace session, and its own ICE boundary, so any number of workers can
//! execute jobs concurrently on one service without observing each other.
//! The transport (Unix socket or stdio, in `src/bin/ompltd.rs`) is a thin
//! loop over [`Service::handle_frame`]; everything protocol-visible lives
//! here so tests can drive the daemon without spawning a process.
//!
//! ## Output parity
//!
//! [`Service::execute`] reproduces the `ompltc` driver's observable bytes
//! exactly — same stdout, same rendered diagnostics, same exit codes — by
//! walking the same pipeline in the same order. A remote run must be
//! indistinguishable from a local one; the differential suite in
//! `tests/daemon.rs` enforces that over every example program.
//!
//! ## The artifact cache
//!
//! Clean compiles land in an [`ArtifactCache`] keyed by source hash ×
//! canonical options fingerprint. A warm hit skips lexing, parsing, sema,
//! codegen, the mid end, and the VM compiler entirely: the module is shared
//! by `Arc` and the bytecode image is decoded from its serialized form.
//! Jobs that inject pipeline faults, stop at `--syntax-only`, or produce
//! any diagnostic bypass or skip the cache, which is what keeps hit replay
//! byte-exact (there are no compile diagnostics to reproduce). Jobs that
//! inject `daemon.*` faults keep the cache live: those sites exercise the
//! service layer (corrupted entries, killed workers), not the pipeline.

use crate::cache::{Artifact, ArtifactCache, CacheKey};
use crate::compiler::{Backend, CompilerInstance};
use crate::protocol::{
    error_reply, json_diag_object, render_chunk_log, CacheOutcome, HealthReport, IceInfo,
    JobRequest, JobResponse, Request,
};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-job output buffers. Mutex-wrapped so the bytes produced before a
/// panic survive the unwind — a job that prints IR and then ICEs in the
/// runtime stage still delivers the IR, exactly like a local process whose
/// stdout was already written.
#[derive(Default)]
struct JobBuf {
    stdout: Mutex<String>,
    stderr: Mutex<String>,
}

impl JobBuf {
    fn out(&self, s: &str) {
        self.stdout.lock().unwrap().push_str(s);
    }
    fn err(&self, s: &str) {
        self.stderr.lock().unwrap().push_str(s);
    }
    fn take(self) -> (String, String) {
        let stdout = self
            .stdout
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let stderr = self
            .stderr
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (stdout, stderr)
    }
}

/// What [`Service::handle_frame`] produced: the reply body to send back,
/// and whether the server should drain its connections and exit.
pub struct FrameOutcome {
    /// Reply frame body (JSON document).
    pub reply: String,
    /// True only for an accepted shutdown request.
    pub shutdown: bool,
}

/// The compile service: one shared artifact cache plus stateless per-job
/// execution. Construct once, share by reference across workers.
pub struct Service {
    cache: ArtifactCache,
    started: Instant,
}

impl Service {
    /// A service with an artifact cache of `cache_bytes` capacity. Installs
    /// the per-thread panic capture hook (idempotent) so job ICEs are
    /// recorded per worker instead of spraying the daemon's stderr.
    pub fn new(cache_bytes: usize) -> Service {
        omplt_fault::install_panic_capture();
        Service {
            cache: ArtifactCache::new(cache_bytes),
            started: Instant::now(),
        }
    }

    /// The artifact cache (counters, direct inspection in tests).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// A health snapshot with the service-level fields (uptime, cache
    /// counters) filled in and the transport-level fields (queue, workers,
    /// supervisor) zeroed. `ompltd`'s transport loop overlays its pool
    /// state before rendering; a bare [`Service`] answers with this as-is.
    pub fn base_health(&self) -> HealthReport {
        HealthReport {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queue_depth: 0,
            queue_capacity: 0,
            running: 0,
            workers_alive: 0,
            workers_configured: 0,
            draining: false,
            respawns: 0,
            requeued: 0,
            abandoned: 0,
            cache: self
                .cache
                .counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Handles one already-read frame body and says whether the server
    /// should drain and exit. Never panics on malformed input: bad frames
    /// get an `{"id":null,"error":...}` reply.
    pub fn handle_frame(&self, payload: &[u8]) -> FrameOutcome {
        let keep = |reply: String| FrameOutcome {
            reply,
            shutdown: false,
        };
        let Ok(text) = std::str::from_utf8(payload) else {
            return keep(error_reply("frame is not valid UTF-8"));
        };
        match Request::parse(text) {
            Err(e) => keep(error_reply(&e)),
            Ok(Request::Stats) => keep(self.cache.counters_json().trim_end().to_string()),
            Ok(Request::Health) => keep(self.base_health().render()),
            Ok(Request::Shutdown) => FrameOutcome {
                reply: "{\"ok\":true}".to_string(),
                shutdown: true,
            },
            Ok(Request::Job(job)) => keep(self.execute(&job).render()),
        }
    }

    /// Executes one job with full isolation: a fresh fault scope (armed
    /// from the job's own `inject_fault`, reset afterwards), an optional
    /// per-job trace session, and a `catch_unwind` ICE boundary that turns
    /// a panic anywhere in the pipeline into a structured reply while the
    /// worker thread lives on.
    pub fn execute(&self, job: &JobRequest) -> JobResponse {
        omplt_fault::reset();
        if let Some(spec) = &job.inject_fault {
            if let Err(msg) = omplt_fault::arm(spec) {
                // Same bytes as the CLI's `driver_error`.
                let stderr = if job.json_diags {
                    format!("[{}]\n", json_diag_object("error", &msg, &[]))
                } else {
                    format!("ompltc: {msg}\n")
                };
                return JobResponse {
                    id: job.id,
                    exit_code: 2,
                    stdout: String::new(),
                    stderr,
                    cache: CacheOutcome::Bypass,
                    counters_json: None,
                    chunk_log: None,
                    ice: None,
                };
            }
        }
        let session = job.want_counters.then(omplt_trace::Session::begin);
        let buf = JobBuf::default();
        let contain = omplt_fault::contain_panics();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| self.run_job(job, &buf)));
        drop(contain);
        if outcome.is_err() {
            omplt_trace::count("ice", 1);
        }
        let data = session.map(omplt_trace::Session::finish);
        let counters_json = data.as_ref().map(omplt_trace::TraceData::to_counters_json);
        let (exit_code, cache, chunk_log, ice) = match outcome {
            Ok((exit, cache, chunk)) => (exit, cache, chunk, None),
            Err(_) => {
                let stage = omplt_fault::current_stage().to_string();
                let (message, backtrace) = omplt_fault::take_panic()
                    .unwrap_or_else(|| ("<panic details unavailable>".to_string(), String::new()));
                (
                    3,
                    CacheOutcome::Bypass,
                    None,
                    Some(IceInfo {
                        stage,
                        message,
                        backtrace,
                    }),
                )
            }
        };
        omplt_fault::reset();
        let (stdout, stderr) = buf.take();
        JobResponse {
            id: job.id,
            exit_code,
            stdout,
            stderr,
            cache,
            counters_json,
            chunk_log,
            ice,
        }
    }

    /// The pipeline proper, mirroring the `ompltc` driver's `drive()` byte
    /// for byte. Returns (exit code, cache outcome, rendered chunk log).
    fn run_job(&self, job: &JobRequest, buf: &JobBuf) -> (u8, CacheOutcome, Option<String>) {
        let json = job.json_diags;
        let mut ci = CompilerInstance::new(job.opts);
        let emit_diags = |ci: &CompilerInstance| {
            if ci.diags.is_empty() {
                return;
            }
            if json {
                buf.err(&ci.render_diags_json());
            } else {
                buf.err(&ci.render_diags());
            }
        };

        // Pipeline fault-injection jobs bypass the cache entirely: an armed
        // site can fire anywhere in the pipeline, so neither serving a hit
        // (which would skip the site) nor storing the result is sound.
        // `daemon.*` sites target the service layer itself and keep the
        // cache live — `daemon.cache-corrupt` needs an entry to corrupt,
        // and a job requeued after `daemon.worker-kill` must still warm-hit.
        let daemon_fault = job
            .inject_fault
            .as_deref()
            .is_some_and(|s| s.starts_with("daemon."));
        let key = ((job.inject_fault.is_none() || daemon_fault) && !job.syntax_only)
            .then(|| CacheKey::new(&job.source, &job.opts, job.optimize));
        let mut cache_outcome = CacheOutcome::Bypass;
        let mut cached = None;
        if let Some(k) = &key {
            // Injected corruption lands immediately before the lookup that
            // would have served the entry, exercising the verify path.
            if omplt_fault::fire("daemon.cache-corrupt")
                || omplt_fault::fire_global("daemon.cache-corrupt")
            {
                self.cache.corrupt(k);
            }
            cached = self.cache.lookup(k);
            cache_outcome = if cached.is_some() {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            };
        }

        let (module, code) = match cached {
            // Warm path: the whole front end, mid end, and VM compiler are
            // skipped. Cached compiles are diagnostic-free by construction,
            // so there is nothing to replay.
            Some(art) => {
                let code = art
                    .bytecode
                    .as_deref()
                    .and_then(|b| omplt_vm::decode(b).ok());
                (art.module, code)
            }
            None => {
                let tu = match ci.parse_source(&job.name, &job.source) {
                    Ok(tu) => tu,
                    Err(_) => {
                        emit_diags(&ci);
                        return (1, cache_outcome, None);
                    }
                };
                if job.syntax_only {
                    emit_diags(&ci);
                    return (0, cache_outcome, None);
                }
                let mut module = match ci.codegen(&tu) {
                    Ok(m) => m,
                    Err(rendered) => {
                        if ci.diags.is_empty() {
                            // Internal verifier failures are not diagnostics.
                            buf.err(&rendered);
                        } else {
                            emit_diags(&ci);
                        }
                        return (1, cache_outcome, None);
                    }
                };
                if job.optimize {
                    ci.optimize(&mut module);
                    if ci.diags.has_errors() {
                        emit_diags(&ci);
                        return (1, cache_outcome, None);
                    }
                }
                // The VM backends pre-compile bytecode exactly once here;
                // the run below reuses it instead of recompiling. A compile
                // failure leaves `code` empty and the run path degrades the
                // same way `ompltc` does (vm falls back, vm:strict is fatal).
                let mut code = None;
                if ci.opts.backend != Backend::Interp {
                    code = ci.compile_bytecode(&module).ok();
                }
                let module = Arc::new(module);
                if let Some(k) = key {
                    let vm_ready = ci.opts.backend == Backend::Interp || code.is_some();
                    if ci.diags.is_empty() && vm_ready {
                        let bytecode = code.as_ref().map(|c| Arc::new(omplt_vm::encode(c)));
                        let size = job.source.len()
                            + omplt_ir::printed_len(&module)
                            + bytecode.as_deref().map_or(0, |b| b.len());
                        self.cache.insert(
                            k,
                            Artifact {
                                module: module.clone(),
                                bytecode,
                                size,
                            },
                        );
                    }
                }
                (module, code)
            }
        };

        if job.emit_ir {
            buf.out(&omplt_ir::print_module(&module));
        }
        if !job.run {
            emit_diags(&ci);
            return (0, cache_outcome, None);
        }
        // The client resolved `OMP_SCHEDULE` at its own entry point; if that
        // produced a warning it is recorded here, pre-run, in the exact slot
        // the in-process driver uses.
        if let Some(w) = &job.schedule_warning {
            ci.diags
                .warning(omplt_source::SourceLocation::INVALID, w.clone());
        }
        let result = match &code {
            Some(c) => ci.run_precompiled(&module, c),
            None => ci.run(&module),
        };
        emit_diags(&ci);
        match result {
            Ok(r) => {
                buf.out(&r.stdout);
                let chunk = job.opts.log_chunks.then(|| render_chunk_log(&r.chunk_log));
                (r.exit_code as u8, cache_outcome, chunk)
            }
            Err(e) => {
                if json {
                    buf.err(&format!(
                        "[{}]\n",
                        json_diag_object("error", &format!("runtime error: {e}"), &[])
                    ));
                } else {
                    buf.err(&format!("ompltc: runtime error: {e}\n"));
                }
                (1, cache_outcome, None)
            }
        }
    }
}

/// Throughput bench configuration (`ompltd --bench`).
pub struct BenchConfig {
    /// Distinct jobs per pass.
    pub jobs: usize,
    /// Worker counts to measure on the warm pass.
    pub worker_counts: Vec<usize>,
    /// Artifact cache budget.
    pub cache_bytes: usize,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            jobs: 32,
            worker_counts: vec![1, 4, 8],
            cache_bytes: crate::cache::DEFAULT_CACHE_BYTES,
        }
    }
}

/// One generated bench job: a parallel-for workload with per-variant
/// constants so every job is a distinct cache key.
fn bench_job(id: u64) -> JobRequest {
    let k = id + 1;
    let source = format!(
        "void print_i64(long v);\n\
         int a[128];\n\
         int main(void) {{\n\
           #pragma omp parallel for schedule(static)\n\
           for (int i = 0; i < 128; i += 1)\n\
             a[i] = i * {k};\n\
           long s = 0;\n\
           for (int i = 0; i < 128; i += 1)\n\
             s += a[i];\n\
           print_i64(s);\n\
           return 0;\n\
         }}\n"
    );
    let mut job = JobRequest::new(id, &format!("bench_{id}.c"), &source);
    job.opts.backend = Backend::Vm;
    // Serial guest execution: the bench measures service/worker throughput,
    // not guest thread-team scheduling, so each job stays on its worker.
    job.opts.serial = true;
    job.optimize = true;
    job.run = true;
    job
}

fn bench_pass(service: &Service, jobs: &[JobRequest], workers: usize) -> f64 {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(job) = jobs.get(i) else { break };
                let resp = service.execute(job);
                assert_eq!(resp.exit_code, 0, "bench job failed: {}", resp.stderr);
            });
        }
    });
    jobs.len() as f64 / start.elapsed().as_secs_f64()
}

/// Runs the daemon throughput bench: one cold pass (every job a cache
/// miss), then a warm pass per requested worker count (every job a hit).
/// Returns the JSON artifact CI archives.
pub fn throughput_bench(cfg: &BenchConfig) -> String {
    let service = Service::new(cfg.cache_bytes);
    let jobs: Vec<JobRequest> = (0..cfg.jobs as u64).map(bench_job).collect();
    let cold = bench_pass(&service, &jobs, 1);
    let warm: Vec<String> = cfg
        .worker_counts
        .iter()
        .map(|&w| {
            let jps = bench_pass(&service, &jobs, w);
            format!("{{\"workers\":{w},\"jobs_per_sec\":{jps:.2}}}")
        })
        .collect();
    let counters: std::collections::HashMap<_, _> = service.cache.counters().into_iter().collect();
    format!(
        "{{\"bench\":\"ompltd.throughput\",\"jobs\":{},\"cache_bytes\":{},\
         \"cold\":{{\"workers\":1,\"jobs_per_sec\":{cold:.2}}},\"warm\":[{}],\
         \"cache\":{{\"hits\":{},\"misses\":{}}}}}\n",
        cfg.jobs,
        cfg.cache_bytes,
        warm.join(","),
        counters["daemon.cache.hits"],
        counters["daemon.cache.misses"],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DEFAULT_CACHE_BYTES;

    const PRAGMA_SRC: &str = "void print_i64(long v);\n\
        int a[8];\n\
        int main(void) {\n\
          #pragma omp parallel for schedule(static)\n\
          for (int i = 0; i < 8; i += 1)\n\
            a[i] = i * 3;\n\
          long s = 0;\n\
          for (int i = 0; i < 8; i += 1)\n\
            s += a[i];\n\
          print_i64(s);\n\
          return 0;\n\
        }\n";

    fn run_request(id: u64) -> JobRequest {
        let mut job = JobRequest::new(id, "t.c", PRAGMA_SRC);
        job.opts.backend = Backend::Vm;
        job.opts.serial = true;
        job.optimize = true;
        job.run = true;
        job
    }

    #[test]
    fn warm_hit_skips_the_front_end_with_identical_output() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        let mut job = run_request(1);
        job.want_counters = true;
        let cold = service.execute(&job);
        assert_eq!(cold.exit_code, 0, "stderr: {}", cold.stderr);
        assert_eq!(cold.cache, CacheOutcome::Miss);
        let warm = service.execute(&job);
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(warm.stdout, cold.stdout);
        assert_eq!(warm.stderr, cold.stderr);
        assert_eq!(warm.exit_code, cold.exit_code);
        // The cold run's counters show sema doing transformation work; the
        // warm run never enters the front end, so they are absent.
        let cold_counters = cold.counters_json.unwrap();
        let warm_counters = warm.counters_json.unwrap();
        assert!(
            cold_counters.contains("sema."),
            "cold counters: {cold_counters}"
        );
        assert!(
            !warm_counters.contains("sema."),
            "warm counters must lack front-end work: {warm_counters}"
        );
    }

    #[test]
    fn fault_jobs_bypass_the_cache_and_yield_structured_ices() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        // Prime the cache so a hit *would* be available.
        assert_eq!(service.execute(&run_request(1)).cache, CacheOutcome::Miss);
        let mut job = run_request(2);
        job.inject_fault = Some("parse.panic".to_string());
        let resp = service.execute(&job);
        assert_eq!(resp.cache, CacheOutcome::Bypass);
        assert_eq!(resp.exit_code, 3);
        let ice = resp.ice.expect("ICE info");
        assert_eq!(ice.stage, "parse");
        assert!(ice.message.contains("injected fault"), "{}", ice.message);
        // The service survives and still serves hits.
        assert_eq!(service.execute(&run_request(3)).cache, CacheOutcome::Hit);
    }

    #[test]
    fn corrupted_cache_entry_is_quarantined_and_recompiled() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        let clean = service.execute(&run_request(1));
        assert_eq!(clean.cache, CacheOutcome::Miss);
        // `daemon.cache-corrupt` flips a byte in the cached artifact right
        // before lookup; the integrity check must refuse to serve it and
        // recompile instead of replaying a miscompile.
        let mut job = run_request(2);
        job.inject_fault = Some("daemon.cache-corrupt".to_string());
        let resp = service.execute(&job);
        assert_eq!(resp.cache, CacheOutcome::Miss, "quarantine forces a miss");
        assert_eq!(resp.exit_code, 0, "stderr: {}", resp.stderr);
        assert_eq!(resp.stdout, clean.stdout, "recompiled output is clean");
        let counters: std::collections::HashMap<_, _> =
            service.cache().counters().into_iter().collect();
        assert_eq!(counters["daemon.cache.integrity_failures"], 1);
        // The recompiled entry serves clean hits again.
        let warm = service.execute(&run_request(3));
        assert_eq!(warm.cache, CacheOutcome::Hit);
        assert_eq!(warm.stdout, clean.stdout);
    }

    #[test]
    fn health_frames_answer_with_service_level_snapshot() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        service.execute(&run_request(1));
        let out = service.handle_frame(b"{\"op\":\"health\"}");
        assert!(!out.shutdown);
        let h = crate::protocol::HealthReport::parse(&out.reply).unwrap();
        assert_eq!(h.workers_configured, 0, "bare service has no pool");
        let cache: std::collections::HashMap<_, _> = h.cache.into_iter().collect();
        assert_eq!(cache["daemon.cache.misses"], 1);
    }

    #[test]
    fn concurrent_fault_jobs_each_name_their_own_stage() {
        // Regression test for the old process-global PANIC_INFO slot: two
        // jobs ICEing concurrently in different stages must each report
        // their own stage and message, not the last writer's.
        let service = Service::new(DEFAULT_CACHE_BYTES);
        std::thread::scope(|s| {
            let sites = [("parse.panic", "parse"), ("codegen.panic", "codegen")];
            let handles: Vec<_> = sites
                .iter()
                .map(|&(site, stage)| {
                    let service = &service;
                    s.spawn(move || {
                        let mut worst = None;
                        for round in 0..8 {
                            let mut job = run_request(round);
                            job.inject_fault = Some(site.to_string());
                            let resp = service.execute(&job);
                            if resp.exit_code != 3
                                || resp.ice.as_ref().map(|i| i.stage.as_str()) != Some(stage)
                            {
                                worst = Some(resp);
                            }
                        }
                        worst
                    })
                })
                .collect();
            for h in handles {
                if let Some(bad) = h.join().unwrap() {
                    panic!(
                        "cross-thread ICE mixup: exit={} ice={:?}",
                        bad.exit_code, bad.ice
                    );
                }
            }
        });
    }

    #[test]
    fn malformed_frames_get_error_replies_not_crashes() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        for bad in [
            &b"not json"[..],
            b"{\"op\":\"job\"}",
            b"{}",
            b"[1,2,3]",
            b"\xff\xfe\x00",
        ] {
            let out = service.handle_frame(bad);
            assert!(!out.shutdown);
            assert!(
                out.reply.starts_with("{\"id\":null,\"error\":"),
                "reply for {bad:?}: {}",
                out.reply
            );
        }
        // And the service still works afterwards.
        let out = service.handle_frame(run_request(9).render().as_bytes());
        let resp = JobResponse::parse(&out.reply).unwrap();
        assert_eq!(resp.exit_code, 0, "stderr: {}", resp.stderr);
    }

    #[test]
    fn shutdown_and_stats_frames() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        let stats = service.handle_frame(b"{\"op\":\"stats\"}");
        assert!(stats.reply.contains("daemon.cache.hits"));
        assert!(!stats.shutdown);
        let bye = service.handle_frame(b"{\"op\":\"shutdown\"}");
        assert!(bye.shutdown);
    }

    #[test]
    fn fuel_exhaustion_is_a_structured_per_job_error() {
        let service = Service::new(DEFAULT_CACHE_BYTES);
        let mut job = run_request(1);
        job.opts.max_steps = 10;
        let resp = service.execute(&job);
        assert_eq!(resp.exit_code, 1);
        assert!(
            resp.stderr.contains("runtime error"),
            "stderr: {}",
            resp.stderr
        );
        assert!(resp.ice.is_none());
        // Unlimited-fuel jobs on the same service still succeed.
        let ok = service.execute(&run_request(2));
        assert_eq!(ok.exit_code, 0, "stderr: {}", ok.stderr);
    }
}
