//! The traced run: the untraced run's jobs replayed in-process, one at a
//! time, through the public call of each layer, in the order
//! `Service::execute` takes them. Each call is wrapped in a span; the spans
//! stay in memory and are written as Chrome trace-event JSON at the end.
//! Replies must be byte-identical to the untraced run's.

use crate::jobs::{check, Job};
use crate::{median, Measured, Metric, Workload, OUT_DIR};
use omplt::cache::{Artifact, ArtifactCache, CacheKey};
use omplt::lex::Preprocessor;
use omplt::parse::parse_translation_unit;
use omplt::protocol::{CacheOutcome, JobRequest, JobResponse, Request};
use omplt::sema::Sema;
use omplt::{Backend, CompilerInstance, OpenMpCodegenMode, Service};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The traced run fails when layer spans cover less of the job time.
const MIN_COVERAGE: f64 = 0.9;

/// Requests at most this large and at least `LARGE_REQUEST` bytes are
/// the two size classes `protocol.parse` cost is reported for.
const SMALL_REQUEST: usize = 4 * 1024;
const LARGE_REQUEST: usize = 16 * 1024;

type Pass = fn(&mut omplt::ir::Function);

/// The mid-end passes in `omplt::midend::run_default_pipeline` order.
const MIDEND: [(&str, Pass); 5] = [
    ("midend.const-fold", |f| {
        omplt::midend::constant_fold(f);
    }),
    ("midend.loop-unroll", |f| {
        omplt::midend::loop_unroll(f);
    }),
    ("midend.const-fold", |f| {
        omplt::midend::constant_fold(f);
    }),
    ("midend.simplify-cfg", |f| {
        omplt::midend::simplify_cfg(f);
    }),
    ("midend.const-fold", |f| {
        omplt::midend::constant_fold(f);
    }),
];

/// Every layer span, with the per-job metric of its self time.
const LAYERS: [(&str, &str); 20] = [
    ("lex", "lex.ms"),
    ("parse.classic", "parse.classic.ms"),
    ("parse.irbuilder", "parse.irbuilder.ms"),
    ("codegen.classic", "codegen.classic.ms"),
    ("codegen.irbuilder", "codegen.irbuilder.ms"),
    ("midend.const-fold", "midend.const-fold.ms"),
    ("midend.loop-unroll", "midend.loop-unroll.ms"),
    ("midend.simplify-cfg", "midend.simplify-cfg.ms"),
    ("vm.compile", "vm.compile.ms"),
    ("vm.verify", "vm.verify.ms"),
    ("vm.encode", "vm.encode.ms"),
    ("cache.size", "cache.size.ms"),
    ("cache.key", "cache.key.ms"),
    ("cache.lookup", "cache.lookup.ms"),
    ("cache.insert", "cache.insert.ms"),
    ("vm.decode", "vm.decode.ms"),
    ("vm.run", "vm.run.ms"),
    ("interp.run", "interp.run.ms"),
    ("protocol.parse", "protocol.parse.ms"),
    ("protocol.reply", "protocol.reply.ms"),
];

const JOB: &str = "job";

struct Span {
    name: &'static str,
    job: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder. Spans recorded while a job is open are its
/// children.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open_job: Option<usize>,
}

impl Tracer {
    fn begin_job(&mut self, job: u64) {
        let now = self.epoch.elapsed();
        self.open_job = Some(self.spans.len());
        self.spans.push(Span {
            name: JOB,
            job,
            parent: None,
            start: now,
            end: now,
        });
    }

    fn end_job(&mut self) -> Duration {
        let i = self.open_job.take().expect("a job is open");
        self.spans[i].end = self.epoch.elapsed();
        self.spans[i].end - self.spans[i].start
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed();
        let r = f();
        let end = self.epoch.elapsed();
        let parent = self.open_job.expect("spans belong to a job");
        self.spans.push(Span {
            name,
            job: self.spans[parent].job,
            parent: Some(parent),
            start,
            end,
        });
        r
    }

    fn last_duration(&self) -> Duration {
        let s = self.spans.last().expect("a span was recorded");
        s.end - s.start
    }

    /// Each span's duration minus the part of it its children cover.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    fn write_chrome_json(&self, path: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{}{{\"name\":\"{}\",\"cat\":\"omplt\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"job\":{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.job
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

/// Work counted at the layer boundaries, summed over traced jobs.
#[derive(Default)]
struct Counts {
    tokens: u64,
    codegen_insts: u64,
    midend_insts: u64,
    vm_ops: u64,
    encoded_bytes: u64,
    vm_retired: u64,
    interp_retired: u64,
}

fn ir_insts(m: &omplt::ir::Module) -> u64 {
    m.functions.iter().map(|f| f.num_insts() as u64).sum()
}

/// One job through the pipeline, as `Service::execute` runs a job with no
/// fault injection, no `--syntax-only`, and no IR dump.
fn pipeline(
    t: &mut Tracer,
    n: &mut Counts,
    cache: &ArtifactCache,
    job: &JobRequest,
) -> JobResponse {
    let mut ci = CompilerInstance::new(job.opts);
    let irbuilder = job.opts.codegen_mode == OpenMpCodegenMode::IrBuilder;
    let backend = job.opts.backend;
    let reply = |exit_code: u8, stdout: String, stderr: String, cache: CacheOutcome| JobResponse {
        id: job.id,
        exit_code,
        stdout,
        stderr,
        cache,
        counters_json: None,
        chunk_log: None,
        ice: None,
    };
    let key = t.span("cache.key", || {
        CacheKey::new(&job.source, &job.opts, job.optimize)
    });
    let cached = t.span("cache.lookup", || cache.lookup(&key));
    let outcome = if cached.is_some() {
        CacheOutcome::Hit
    } else {
        CacheOutcome::Miss
    };
    let (module, code) = match cached {
        Some(art) => {
            let code = match art.bytecode.as_deref() {
                Some(b) => t.span("vm.decode", || omplt::vm::decode(b).ok()),
                None => None,
            };
            (art.module, code)
        }
        None => {
            // `CompilerInstance::parse_source`, with lexing timed apart.
            let buf = ci.fm.add_virtual_file(&job.name, &job.source);
            let file = ci.sm.borrow_mut().add_file(buf).0;
            let tokens = t.span("lex", || {
                let mut sm = ci.sm.borrow_mut();
                Preprocessor::new(&mut sm, &mut ci.fm, &ci.diags, file).tokenize_all()
            });
            n.tokens += tokens.len() as u64;
            let parse = if irbuilder {
                "parse.irbuilder"
            } else {
                "parse.classic"
            };
            let tu = t.span(parse, || {
                let mut sema = Sema::new(&ci.diags, &ci.sm, job.opts.codegen_mode, job.opts.openmp);
                parse_translation_unit(tokens, &mut sema)
            });
            if ci.diags.has_errors() {
                return reply(1, String::new(), ci.render_diags(), outcome);
            }
            let codegen = if irbuilder {
                "codegen.irbuilder"
            } else {
                "codegen.classic"
            };
            let mut module = match t.span(codegen, || ci.codegen(&tu)) {
                Ok(m) => m,
                Err(rendered) => {
                    let stderr = if ci.diags.is_empty() {
                        rendered
                    } else {
                        ci.render_diags()
                    };
                    return reply(1, String::new(), stderr, outcome);
                }
            };
            n.codegen_insts += ir_insts(&module);
            if job.optimize {
                for f in &mut module.functions {
                    for (name, pass) in MIDEND {
                        t.span(name, || pass(f));
                    }
                }
            }
            n.midend_insts += ir_insts(&module);
            let mut code = None;
            if backend != Backend::Interp {
                let vw = job.opts.vector_width;
                if let Ok(c) = t.span("vm.compile", || omplt::vm::compile_module_with(&module, vw))
                {
                    n.vm_ops += c.num_ops() as u64;
                    if t.span("vm.verify", || omplt::vm::verify_module(&c))
                        .is_empty()
                    {
                        code = Some(c);
                    }
                }
            }
            let module = Arc::new(module);
            if ci.diags.is_empty() && (backend == Backend::Interp || code.is_some()) {
                let bytecode = code
                    .as_ref()
                    .map(|c| Arc::new(t.span("vm.encode", || omplt::vm::encode(c))));
                n.encoded_bytes += bytecode.as_deref().map_or(0, |b| b.len() as u64);
                let printed = t.span("cache.size", || omplt::ir::print_module(&module).len());
                let size = job.source.len() + printed + bytecode.as_deref().map_or(0, Vec::len);
                let artifact = Artifact {
                    module: module.clone(),
                    bytecode,
                    size,
                };
                t.span("cache.insert", || cache.insert(key, artifact));
            }
            (module, code)
        }
    };
    let result = match &code {
        Some(c) => t.span("vm.run", || ci.run_precompiled(&module, c)),
        None if backend == Backend::Interp => t.span("interp.run", || ci.run(&module)),
        None => t.span("vm.run", || ci.run(&module)),
    };
    let mut stderr = if ci.diags.is_empty() {
        String::new()
    } else {
        ci.render_diags()
    };
    match result {
        Ok(r) => {
            if backend == Backend::Interp {
                n.interp_retired += r.ops_retired;
            } else {
                n.vm_retired += r.ops_retired;
            }
            reply(r.exit_code as u8, r.stdout, stderr, outcome)
        }
        Err(e) => {
            stderr.push_str(&format!("ompltc: runtime error: {e}\n"));
            reply(1, String::new(), stderr, outcome)
        }
    }
}

/// What the traced run reports.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Replies byte-identical and coverage met.
    pub healthy: bool,
    /// Findings printed as comment lines before the result.
    pub notes: Vec<String>,
}

/// Replays `m`'s warm-up untraced, then as many of its timed jobs as fit in
/// `seconds`, traced; derives the per-layer metrics.
pub fn replay(workload: Workload, seed: u64, m: &Measured, seconds: f64) -> Result<Traced, String> {
    let serve = workload == Workload::ServeMixed;
    let service = Service::new(m.cache_bytes);
    for job in &m.warmup {
        service.execute(&job.request);
    }
    let mut t = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open_job: None,
    };
    let mut n = Counts::default();
    let (mut attempted, mut failed, mut mismatched) = (0u64, 0u64, 0u64);
    let mut job_times = Vec::new();
    // (request bytes, protocol.parse time) per served request.
    let mut parses: Vec<(usize, Duration)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for (Job { request, expect }, untraced) in &m.record {
        if Instant::now() >= deadline && attempted > 0 {
            break;
        }
        let text = serve.then(|| request.render());
        t.begin_job(request.id);
        let resp = match &text {
            Some(text) => {
                let parsed = t.span("protocol.parse", || Request::parse(text));
                parses.push((text.len(), t.last_duration()));
                let job = match parsed {
                    Ok(Request::Job(job)) => job,
                    _ => return Err(format!("request {} does not parse", request.id)),
                };
                let resp = pipeline(&mut t, &mut n, service.cache(), &job);
                t.span("protocol.reply", || JobResponse::parse(&resp.render()))
                    .map_err(|e| format!("reply {} does not parse: {e}", request.id))?
            }
            None => pipeline(&mut t, &mut n, service.cache(), request),
        };
        job_times.push(t.end_job());
        attempted += 1;
        failed += u64::from(!check(&resp, expect));
        // The daemon's hit or miss depends on how its two clients
        // interleaved, so only that field may differ for `serve_mixed`.
        let mut resp = resp;
        if serve {
            if let Ok(d) = JobResponse::parse(untraced) {
                resp.cache = d.cache;
            }
        }
        if resp.render() != *untraced {
            mismatched += 1;
        }
    }

    let own = t.self_times();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let jobs = attempted.max(1) as f64;
    let layer_total = |name: &str| -> Duration {
        t.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| *d)
            .sum()
    };
    let covered: Duration = t
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name != JOB)
        .map(|(_, d)| *d)
        .sum();
    let job_total: Duration = job_times.iter().sum();
    let coverage = covered.as_secs_f64() / job_total.as_secs_f64();
    let traced_jobs_per_s = attempted as f64 / job_total.as_secs_f64();
    let untraced_jobs_per_s = m.phase.jobs_per_s();

    // Layer time per job, for the daemon's overhead beyond its layers.
    // A job's spans follow its root span and precede the next job's.
    let mut per_job_layers: Vec<Duration> = Vec::with_capacity(job_times.len());
    for (s, d) in t.spans.iter().zip(&own) {
        match per_job_layers.last_mut() {
            Some(sum) if s.name != JOB => *sum += *d,
            _ => per_job_layers.push(Duration::ZERO),
        }
    }
    let overhead_ms = if serve {
        let layer_ms: Vec<f64> = per_job_layers.iter().map(|d| ms(*d)).collect();
        median(&m.phase.latencies_ms) - median(&layer_ms)
    } else {
        0.0
    };
    let us_per_kb = |keep: &dyn Fn(usize) -> bool| {
        let (bytes, time) = parses
            .iter()
            .filter(|(b, _)| keep(*b))
            .fold((0usize, Duration::ZERO), |(b, d), (pb, pd)| {
                (b + pb, d + *pd)
            });
        if bytes == 0 {
            0.0
        } else {
            time.as_secs_f64() * 1e6 / (bytes as f64 / 1024.0)
        }
    };
    let rate = |ops: u64, layer: &str| {
        let s = layer_total(layer).as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            ops as f64 / s / 1e6
        }
    };
    let window = m.cache;
    let lookups = (window.hits + window.misses).max(1) as f64;

    let mut metrics: Vec<Metric> = Vec::new();
    for (layer, metric) in LAYERS {
        metrics.push((metric, ms(layer_total(layer)) / jobs, "ms"));
    }
    metrics.extend([
        ("lex.tokens", n.tokens as f64 / jobs, "count"),
        ("codegen.ir_insts", n.codegen_insts as f64 / jobs, "count"),
        ("midend.ir_insts", n.midend_insts as f64 / jobs, "count"),
        ("vm.compile.ops", n.vm_ops as f64 / jobs, "count"),
        ("vm.encode.bytes", n.encoded_bytes as f64 / jobs, "bytes"),
        ("vm.run.ops_retired", n.vm_retired as f64 / jobs, "count"),
        ("vm.run.mops_per_s", rate(n.vm_retired, "vm.run"), "Mops/s"),
        (
            "interp.run.mops_per_s",
            rate(n.interp_retired, "interp.run"),
            "Mops/s",
        ),
        ("cache.hit_ratio", window.hits as f64 / lookups, "ratio"),
        (
            "cache.evictions_per_kjob",
            window.evictions as f64 * 1000.0 / m.phase.attempted.max(1) as f64,
            "count",
        ),
        (
            "protocol.parse.small.us_per_kb",
            us_per_kb(&|b| b <= SMALL_REQUEST),
            "us/KiB",
        ),
        (
            "protocol.parse.large.us_per_kb",
            us_per_kb(&|b| b >= LARGE_REQUEST),
            "us/KiB",
        ),
        ("ompltd.overhead_ms", overhead_ms, "ms"),
        ("trace.coverage", coverage, "ratio"),
        (
            "trace.overhead",
            traced_jobs_per_s / untraced_jobs_per_s,
            "ratio",
        ),
    ]);

    let path = format!("{OUT_DIR}/trace-{}-{seed}.json", workload.name());
    t.write_chrome_json(&path)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let mut notes = vec![format!(
        "traced {attempted} jobs ({} spans) into {path}; {mismatched} replies differ from \
         the untraced run; coverage {coverage:.3}",
        t.spans.len()
    )];
    let mut ranked: Vec<&Metric> = metrics[..LAYERS.len()].iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!(
        "largest layers (ms per job): {}",
        ranked
            .iter()
            .take(6)
            .map(|(name, v, _)| format!("{name} {v:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(Traced {
        metrics,
        attempted,
        failed: failed + mismatched,
        healthy: mismatched == 0 && coverage >= MIN_COVERAGE,
        notes,
    })
}
