//! Byte-identity guard for the compile back end: pins the `cache::hash128`
//! digests of the printed IR module and of the encoded bytecode image for a
//! fixed corpus, so a change that is meant to make the mid end, the VM
//! compiler, or the printer faster cannot silently change what they produce.
//!
//! Corpus: every `examples/c/*.c` and the `omplt-bench` `nest_source` /
//! `saxpy_source` shapes, each under both codegen modes, with and without the
//! mid end, at vector width 0 and 4. The pinned digests live in
//! `tests/byte_identity.golden`; on a mismatch the test prints the full
//! recomputed table. Every module's `printed_len` must also equal the length
//! of its printed text, since the daemon sizes cache entries with it.

use omplt::cache::hash128;
use omplt::{Backend, CompilerInstance, OpenMpCodegenMode, Options};

const GOLDEN: &str = include_str!("byte_identity.golden");

fn corpus() -> Vec<(String, String)> {
    let mut srcs = Vec::new();
    let mut examples: Vec<_> = std::fs::read_dir("examples/c")
        .expect("examples/c")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    examples.sort();
    for p in examples {
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        srcs.push((name, std::fs::read_to_string(&p).expect("example source")));
    }
    let nests = [
        (1, 16, ""),
        (2, 8, ""),
        (3, 4, ""),
        (2, 8, "#pragma omp tile sizes(4, 4)"),
        (1, 16, "#pragma omp unroll partial(4)"),
        (2, 8, "#pragma omp parallel for collapse(2)"),
        (1, 16, "#pragma omp simd"),
    ];
    for (depth, trip, pragma) in nests {
        srcs.push((
            format!("nest({depth},{trip},{pragma:?})"),
            omplt_bench::nest_source(depth, trip, pragma),
        ));
    }
    for pragma in [
        "",
        "#pragma omp parallel for",
        "#pragma omp simd",
        "#pragma omp parallel for simd",
    ] {
        srcs.push((
            format!("saxpy(128,{pragma:?})"),
            omplt_bench::saxpy_source(128, pragma),
        ));
    }
    srcs
}

/// One golden line per (source, mode, optimize, width): the IR digest and
/// length, then the bytecode digest and length.
fn digest_table() -> String {
    let mut out = String::new();
    for (name, src) in corpus() {
        for mode in [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder] {
            for optimize in [false, true] {
                for vector_width in [0u8, 4] {
                    let mut ci = CompilerInstance::new(Options {
                        codegen_mode: mode,
                        backend: Backend::Vm,
                        vector_width,
                        ..Options::default()
                    });
                    let tu = ci.parse_source("b.c", &src).expect("parse");
                    let mut module = ci.codegen(&tu).expect("codegen");
                    if optimize {
                        ci.optimize(&mut module);
                    }
                    let ir = omplt::ir::print_module(&module);
                    assert_eq!(omplt::ir::printed_len(&module), ir.len(), "{name}");
                    let code = ci.compile_bytecode(&module).expect("bytecode");
                    let bc = omplt::vm::encode(&code);
                    out.push_str(&format!(
                        "{name} {mode:?} opt={optimize} vw={vector_width} ir={:032x}/{} bc={:032x}/{}\n",
                        hash128(ir.as_bytes()),
                        ir.len(),
                        hash128(&bc),
                        bc.len(),
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn ir_and_bytecode_digests_are_pinned() {
    let actual = digest_table();
    assert!(
        actual == GOLDEN,
        "IR/bytecode digests changed.\n--- recomputed table ---\n{actual}--- end ---"
    );
}
