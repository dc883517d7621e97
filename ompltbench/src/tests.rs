//! The generator's references against the interpreter oracle, and the
//! refusal sources against the compiler's front end.

use crate::gen::{self, Expect, Program, Rng};
use crate::jobs::{check, kernel_jobs, ColdStream, Job, MixedCatalog, Team};
use omplt::protocol::JobResponse;
use omplt::{Backend, CompilerInstance, Options, Service};

const SEEDS: [u64; 3] = [0, 1, 0xdead_beef];

/// Runs `job` on the interpreter, with its directives applied (`openmp`)
/// or ignored, which leaves the unannotated program.
fn interpret(job: &Job, openmp: bool) -> JobResponse {
    let mut opts: Options = job.request.opts;
    opts.backend = Backend::Interp;
    opts.openmp = openmp;
    let mut ci = CompilerInstance::new(opts);
    let r = ci
        .compile_and_run(&job.request.name, &job.request.source, true)
        .unwrap_or_else(|e| {
            panic!(
                "{} does not run: {e}\n{}",
                job.request.name, job.request.source
            )
        });
    JobResponse {
        id: job.request.id,
        exit_code: r.exit_code as u8,
        stdout: r.stdout,
        stderr: String::new(),
        cache: omplt::protocol::CacheOutcome::Bypass,
        counters_json: None,
        chunk_log: None,
        ice: None,
    }
}

fn assert_oracle_agrees(job: &Job) {
    for openmp in [false, true] {
        let resp = interpret(job, openmp);
        assert!(
            check(&resp, &job.expect),
            "{} (openmp {openmp}): interpreter printed\n{}\nreference is {:?}\n{}",
            job.request.name,
            resp.stdout,
            job.expect,
            job.request.source
        );
    }
}

#[test]
fn cold_references_match_the_interpreter() {
    for seed in SEEDS {
        let mut stream = ColdStream::new(seed);
        for _ in 0..6 {
            assert_oracle_agrees(&stream.next_job());
        }
    }
}

#[test]
fn catalog_references_match_the_interpreter() {
    for seed in SEEDS {
        let catalog = MixedCatalog::new(seed);
        let mut rng = Rng::new(seed);
        for (i, program) in catalog
            .small
            .iter()
            .take(8)
            .chain(&catalog.large[..1])
            .enumerate()
        {
            let job = crate::jobs::job(
                i as u64,
                program,
                Backend::Vm,
                rng.unit() < 0.5,
                4,
                Team::Serial,
            );
            assert_oracle_agrees(&job);
        }
        assert!(catalog.small.iter().all(|p| p.source.len() <= 4096));
        for p in &catalog.large {
            assert!(
                (16 * 1024 - 600..=64 * 1024).contains(&p.source.len()),
                "{}",
                p.source.len()
            );
        }
    }
}

#[test]
fn kernel_references_match_the_interpreter() {
    for seed in SEEDS {
        for job in kernel_jobs(seed, gen::SMALL) {
            assert_oracle_agrees(&job);
        }
    }
}

#[test]
fn refusals_are_refused_with_their_diagnostic() {
    let service = Service::new(omplt::cache::DEFAULT_CACHE_BYTES);
    let mut kinds = std::collections::BTreeSet::new();
    for seed in 0..16 {
        let program: Program = gen::refusal(&mut Rng::new(seed), format!("refused_{seed}.c"));
        let Expect::Refusal { diagnostic } = &program.expect else {
            panic!("a refusal expects a diagnostic");
        };
        kinds.insert(diagnostic.split(": error: ").nth(1).unwrap().to_string());
        for irbuilder in [false, true] {
            let job = crate::jobs::job(seed, &program, Backend::Vm, irbuilder, 0, Team::Serial);
            let resp = service.execute(&job.request);
            assert!(
                check(&resp, &job.expect),
                "exit {} stderr:\n{}\nwanted: {diagnostic}",
                resp.exit_code,
                resp.stderr
            );
        }
    }
    assert_eq!(kinds.len(), 2, "both refusal kinds are drawn: {kinds:?}");
}

#[test]
fn check_rejects_a_wrong_output() {
    let program = gen::program(
        &mut Rng::new(1),
        &mut Rng::new(2),
        "t.c".into(),
        3,
        usize::MAX,
    );
    let job = crate::jobs::job(0, &program, Backend::Vm, false, 0, Team::Parallel);
    let mut resp = interpret(&job, true);
    assert!(check(&resp, &job.expect));
    resp.stdout.push_str("0\n");
    assert!(!check(&resp, &job.expect));
}
