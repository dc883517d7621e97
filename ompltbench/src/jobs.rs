//! The jobs each workload issues, and the check every reply must pass.

use crate::gen::{self, Expect, Program, Rng};
use omplt::protocol::{JobRequest, JobResponse};
use omplt::{Backend, OpenMpCodegenMode};

/// Guest thread-team size: one per core of the 2-core reference machine.
const GUEST_THREADS: u32 = 2;

/// How a job's `parallel` regions run. Only `run_kernels` measures the
/// guest team; elsewhere regions run serialized, as in `ompltd --bench`, so
/// each job stays on one core and guest threads do not contend with the
/// compiler and the daemon's own threads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Team {
    Parallel,
    Serial,
}

/// A request together with what its reply must contain.
#[derive(Clone)]
pub struct Job {
    pub request: JobRequest,
    pub expect: Expect,
}

/// A compile-optimize-run job for `program` under the given options.
pub fn job(
    id: u64,
    program: &Program,
    backend: Backend,
    irbuilder: bool,
    vw: u8,
    team: Team,
) -> Job {
    let mut request = JobRequest::new(id, &program.name, &program.source);
    request.opts.backend = backend;
    request.opts.codegen_mode = if irbuilder {
        OpenMpCodegenMode::IrBuilder
    } else {
        OpenMpCodegenMode::Classic
    };
    request.opts.vector_width = vw;
    request.opts.num_threads = GUEST_THREADS;
    request.opts.serial = team == Team::Serial;
    request.optimize = true;
    request.run = true;
    Job {
        request,
        expect: program.expect.clone(),
    }
}

/// Whether `resp` is the reply `expect` asks for. An ICE always fails.
pub fn check(resp: &JobResponse, expect: &Expect) -> bool {
    if resp.ice.is_some() {
        return false;
    }
    match expect {
        Expect::Output { stdout, exit_code } => {
            resp.exit_code == *exit_code && resp.stdout == *stdout
        }
        Expect::Refusal { diagnostic } => {
            resp.exit_code == 1 && resp.stderr.lines().any(|l| l == diagnostic)
        }
    }
}

/// `compile_cold`'s endless stream of distinct translation units of 4–48
/// functions. Codegen mode and vector width alternate so every pairing of
/// the paper's two representations with widening on and off recurs.
pub struct ColdStream {
    shape: Rng,
    value: Rng,
    next: u64,
}

impl ColdStream {
    pub fn new(seed: u64) -> ColdStream {
        ColdStream {
            shape: Rng::new(seed),
            value: Rng::new(!seed),
            next: 0,
        }
    }

    pub fn next_job(&mut self) -> Job {
        let id = self.next;
        self.next += 1;
        let funcs = self.shape.range(4, 48) as usize;
        let name = format!("cold_{id}.c");
        let program = gen::program(&mut self.shape, &mut self.value, name, funcs, usize::MAX);
        let vw = if (id / 2).is_multiple_of(2) { 0 } else { 4 };
        job(id, &program, Backend::Vm, id % 2 == 1, vw, Team::Serial)
    }
}

/// `run_kernels`' programs as jobs, in a seed-shuffled order.
pub fn kernel_jobs(seed: u64, sizes: gen::KernelSizes) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut kernels = gen::kernels(&mut rng, sizes);
    for i in (1..kernels.len()).rev() {
        kernels.swap(i, rng.range(0, i as i64) as usize);
    }
    kernels
        .iter()
        .enumerate()
        .map(|(i, k)| {
            job(
                i as u64,
                &k.program,
                Backend::Vm,
                k.irbuilder,
                k.vector_width,
                Team::Parallel,
            )
        })
        .collect()
}

/// Zipf(1) over `n` ranks, sampled by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w;
            *w = acc;
        }
        for w in &mut cdf {
            *w /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Share of `serve_mixed` requests that carry a source the compiler must
/// refuse, and share that carry a 16–64 KB source.
const REFUSAL_SHARE: f64 = 0.05;
const LARGE_SHARE: f64 = 0.10;

/// `serve_mixed`'s request population: Zipf-popular programs in three
/// classes, each crossed with option variants (backend vm:interp 3:1,
/// classic/irbuilder, vector width 0/4).
pub struct MixedCatalog {
    pub small: Vec<Program>,
    pub large: Vec<Program>,
    pub refusals: Vec<Program>,
    zipf_small: Zipf,
    zipf_large: Zipf,
    zipf_refusals: Zipf,
}

/// Catalog sizes of `serve_mixed`.
const SMALL_PROGRAMS: usize = 48;
const LARGE_PROGRAMS: usize = 6;
const REFUSAL_PROGRAMS: usize = 8;
const CATALOG_SHAPES: u64 = 0x5e7e_c0de;

impl MixedCatalog {
    pub fn new(seed: u64) -> MixedCatalog {
        // The programs' loop nests, trip counts and directive stacks come
        // from a fixed stream, and their sizes from their popularity rank:
        // small ones have 2–10 functions, large ones are spread evenly over
        // 16–64 KB. What a popular program costs thus does not hang on the
        // seed, which draws the constants (so every source, output and
        // cache key differs) and the request sequence.
        let mut shape = Rng::new(CATALOG_SHAPES);
        let mut value = Rng::new(seed);
        let small: Vec<Program> = (0..SMALL_PROGRAMS)
            .map(|i| {
                let funcs = 2 + i * 5 % 9;
                let name = format!("small_{i}.c");
                gen::program(&mut shape, &mut value, name, funcs, 4096)
            })
            .collect();
        let large = (0..LARGE_PROGRAMS)
            .map(|i| {
                let target = (16 + 48 * i / (LARGE_PROGRAMS - 1)) * 1024;
                let name = format!("large_{i}.c");
                gen::program(&mut shape, &mut value, name, usize::MAX, target)
            })
            .collect();
        let refusals = (0..REFUSAL_PROGRAMS)
            .map(|i| gen::refusal(&mut value, format!("refused_{i}.c")))
            .collect();
        MixedCatalog {
            small,
            large,
            refusals,
            zipf_small: Zipf::new(SMALL_PROGRAMS),
            zipf_large: Zipf::new(LARGE_PROGRAMS),
            zipf_refusals: Zipf::new(REFUSAL_PROGRAMS),
        }
    }

    /// Total source bytes over every program.
    pub fn source_bytes(&self) -> usize {
        let all = self.small.iter().chain(&self.large).chain(&self.refusals);
        all.map(|p| p.source.len()).sum()
    }

    /// Draws one request.
    pub fn draw(&self, rng: &mut Rng, id: u64) -> Job {
        let class = rng.unit();
        let program = if class < REFUSAL_SHARE {
            &self.refusals[self.zipf_refusals.sample(rng)]
        } else if class < REFUSAL_SHARE + LARGE_SHARE {
            &self.large[self.zipf_large.sample(rng)]
        } else {
            &self.small[self.zipf_small.sample(rng)]
        };
        let backend = if rng.unit() < 0.75 {
            Backend::Vm
        } else {
            Backend::Interp
        };
        let irbuilder = rng.unit() < 0.5;
        let vw = if rng.unit() < 0.5 { 0 } else { 4 };
        job(id, program, backend, irbuilder, vw, Team::Serial)
    }
}
