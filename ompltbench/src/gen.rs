//! Seeded generator of the benchmark's C programs.
//!
//! Every program comes with its expected result, computed here in Rust from
//! the same parameters that produced the source text: a program's reference
//! stdout is the value of its loop nests evaluated in their original
//! (untransformed) order, which every legal directive stack must preserve.
//! Nothing here runs the compiler under test. Refusal sources come with the
//! exact diagnostic line the compiler must report for them.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully determined by the seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.range(0, xs.len() as i64 - 1) as usize]
    }
}

/// What a job must produce.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Exit code and exact stdout of a legal program.
    Output { stdout: String, exit_code: u8 },
    /// A source the compiler must refuse: exit 1, with this line on stderr.
    Refusal { diagnostic: String },
}

/// One generated translation unit.
#[derive(Clone, Debug)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub expect: Expect,
}

/// A C integer literal, parenthesized when negative so it can follow `*`.
fn lit(v: i64) -> String {
    if v < 0 {
        format!("({v})")
    } else {
        v.to_string()
    }
}

fn schedule(rng: &mut Rng) -> String {
    let chunk = rng.range(1, 4);
    match rng.range(0, 3) {
        0 => "schedule(static)".to_string(),
        1 => format!("schedule(static, {chunk})"),
        2 => "schedule(dynamic)".to_string(),
        _ => format!("schedule(dynamic, {chunk})"),
    }
}

/// A directive stack for a single loop, outermost first. `full_ok` allows
/// `unroll full`, which needs a small constant trip count.
fn stack_1d(rng: &mut Rng, full_ok: bool) -> Vec<String> {
    // Loop transformations whose generated loop `parallel for` can take.
    let inner = |rng: &mut Rng| match rng.range(0, 2) {
        0 => format!("unroll partial({})", rng.range(2, 4)),
        1 => "reverse".to_string(),
        _ => format!("tile sizes({})", rng.range(2, 8)),
    };
    match rng.range(0, 9) {
        0 if full_ok => vec!["unroll full".to_string()],
        0 | 1 => vec![format!("unroll partial({})", rng.range(2, 4))],
        2 => vec!["reverse".to_string()],
        3 => vec![format!("simd simdlen({})", rng.pick(&[2, 4, 8]))],
        4 => vec![format!("tile sizes({})", rng.range(2, 8))],
        5 => vec![
            "reverse".to_string(),
            format!("unroll partial({})", rng.range(2, 4)),
        ],
        6 => vec![format!("parallel for {}", schedule(rng))],
        7 => vec![format!(
            "parallel for simd simdlen({}) {}",
            rng.pick(&[2, 4, 8]),
            schedule(rng)
        )],
        _ => vec![format!("parallel for {}", schedule(rng)), inner(rng)],
    }
}

/// A directive stack for a perfect two-deep nest.
fn stack_2d(rng: &mut Rng) -> Vec<String> {
    let tile = |rng: &mut Rng| format!("tile sizes({}, {})", rng.range(2, 5), rng.range(2, 5));
    let interchange = |rng: &mut Rng| {
        if rng.range(0, 1) == 0 {
            "interchange".to_string()
        } else {
            "interchange permutation(2, 1)".to_string()
        }
    };
    match rng.range(0, 5) {
        0 => vec![tile(rng)],
        1 => vec![interchange(rng)],
        2 => vec![format!("parallel for {}", schedule(rng)), interchange(rng)],
        3 => vec![format!("parallel for collapse(2) {}", schedule(rng))],
        4 => vec![interchange(rng), tile(rng)],
        _ => vec![tile(rng), interchange(rng)],
    }
}

fn pragmas(out: &mut String, stack: &[String]) {
    for d in stack {
        let _ = writeln!(out, "  #pragma omp {d}");
    }
}

/// Appends one function `long f<k>(void)` (and its globals) and returns
/// the value it computes. `shape` draws the loop nest, its trip counts and
/// its directive stack; `value` draws the constants it computes with.
fn function(
    shape: &mut Rng,
    value: &mut Rng,
    k: usize,
    globals: &mut String,
    body: &mut String,
) -> i64 {
    match shape.range(0, 9) {
        // One loop, written then summed with weights.
        0..=4 => {
            let stack = stack_1d(shape, true);
            let n = if stack[0] == "unroll full" {
                shape.range(4, 12)
            } else {
                shape.range(8, 40)
            };
            let (c1, c2) = (value.range(-9, 9), value.range(-50, 50));
            let _ = writeln!(globals, "long g{k}[{n}];");
            let _ = writeln!(body, "long f{k}(void) {{");
            pragmas(body, &stack);
            let _ = write!(
                body,
                "  for (int i = 0; i < {n}; i += 1)\n    g{k}[i] = i * {} + {};\n  \
                 long s = 0;\n  for (int i = 0; i < {n}; i += 1)\n    s += g{k}[i] * (i + 1);\n  \
                 return s;\n}}\n",
                lit(c1),
                lit(c2)
            );
            (0..n).map(|i| (i * c1 + c2) * (i + 1)).sum()
        }
        // A perfect two-deep nest.
        5..=7 => {
            let stack = stack_2d(shape);
            let (n1, n2) = (shape.range(4, 12), shape.range(4, 12));
            let (c1, c2, c3) = (value.range(-9, 9), value.range(-9, 9), value.range(-50, 50));
            let _ = writeln!(globals, "long g{k}[{n1}][{n2}];");
            let _ = writeln!(body, "long f{k}(void) {{");
            pragmas(body, &stack);
            let _ = write!(
                body,
                "  for (int i = 0; i < {n1}; i += 1)\n    for (int j = 0; j < {n2}; j += 1)\n      \
                 g{k}[i][j] = i * {} + j * {} + {};\n  long s = 0;\n  \
                 for (int i = 0; i < {n1}; i += 1)\n    for (int j = 0; j < {n2}; j += 1)\n      \
                 s += g{k}[i][j] * (i * {n2} + j + 1);\n  return s;\n}}\n",
                lit(c1),
                lit(c2),
                lit(c3)
            );
            let mut s = 0;
            for i in 0..n1 {
                for j in 0..n2 {
                    s += (i * c1 + j * c2 + c3) * (i * n2 + j + 1);
                }
            }
            s
        }
        // Two adjacent loops fused into one.
        _ => {
            let mut stack = vec!["fuse".to_string()];
            if shape.range(0, 1) == 0 {
                stack.insert(0, format!("parallel for {}", schedule(shape)));
            }
            let (n1, n2) = (shape.range(6, 30), shape.range(6, 30));
            let (c1, c2, c3, c4) = (
                value.range(-9, 9),
                value.range(-50, 50),
                value.range(0, 300),
                value.range(-9, 9),
            );
            let _ = writeln!(globals, "long g{k}[{n1}];\nlong h{k}[{n2}];");
            let _ = writeln!(body, "long f{k}(void) {{");
            pragmas(body, &stack);
            let _ = write!(
                body,
                "  {{\n    for (int i = 0; i < {n1}; i += 1)\n      g{k}[i] = i * {} + {};\n    \
                 for (int j = 0; j < {n2}; j += 1)\n      h{k}[j] = {c3} - j * {};\n  }}\n  \
                 long s = 0;\n  for (int i = 0; i < {n1}; i += 1)\n    s += g{k}[i] * (i + 1);\n  \
                 for (int j = 0; j < {n2}; j += 1)\n    s += h{k}[j];\n  return s;\n}}\n",
                lit(c1),
                lit(c2),
                lit(c4)
            );
            (0..n1).map(|i| (i * c1 + c2) * (i + 1)).sum::<i64>()
                + (0..n2).map(|j| c3 - j * c4).sum::<i64>()
        }
    }
}

/// A legal translation unit of up to `funcs` generated functions (fewer if
/// the source would pass `max_bytes`), with a `main` that prints the value
/// of each.
pub fn program(
    shape: &mut Rng,
    value: &mut Rng,
    name: String,
    funcs: usize,
    max_bytes: usize,
) -> Program {
    let (mut globals, mut body) = (String::new(), String::new());
    let (mut calls, mut stdout) = (String::new(), String::new());
    for k in 0..funcs {
        let (g0, b0) = (globals.len(), body.len());
        let v = function(shape, value, k, &mut globals, &mut body);
        // Headroom for the prototype, `main`, and every call line.
        if k > 0 && globals.len() + body.len() + calls.len() + 80 > max_bytes {
            globals.truncate(g0);
            body.truncate(b0);
            break;
        }
        let _ = writeln!(calls, "  print_i64(f{k}());");
        let _ = writeln!(stdout, "{v}");
    }
    let source = format!(
        "void print_i64(long v);\n{globals}\n{body}\nint main(void) {{\n{calls}  return 0;\n}}\n"
    );
    Program {
        name,
        source,
        expect: output(stdout),
    }
}

/// A source the compiler must refuse: an `interchange` of a non-rectangular
/// nest, or a `reverse` whose bound depends on its own iteration variable.
/// Both are rejected by Sema with a diagnostic that names the dependence.
pub fn refusal(rng: &mut Rng, name: String) -> Program {
    let n = rng.range(6, 30);
    let c = rng.range(1, 9);
    // (source, line of the diagnostic, its 1-based column, message)
    let (source, line, col, message) = if rng.range(0, 1) == 0 {
        let bad = "    for (int j = 1; j < i; j += 1)";
        let source = format!(
            "void print_i64(long v);\nlong r[{n}][{n}];\nint main(void) {{\n  \
             #pragma omp interchange\n  for (int i = 1; i < {n}; i += 1)\n{bad}\n      \
             r[i][j] = i * {c} + j;\n  print_i64(r[{}][1]);\n  return 0;\n}}\n",
            n - 1
        );
        // The caret sits on the offending bound, the `i` of `j < i`.
        let col = bad.find("j < i").expect("bound in line") + "j < ".len() + 1;
        let message = "loop nest associated with '#pragma omp interchange' must be \
                       rectangular: bound of loop 2 depends on iteration variable 'i'";
        (source, 6, col, message)
    } else {
        let bad = format!("  for (int i = 0; i < {n} - i; i += 1)");
        let source = format!(
            "void print_i64(long v);\nlong r[{n}];\nint main(void) {{\n  \
             #pragma omp reverse\n{bad}\n    r[i] = i * {c};\n  print_i64(r[1]);\n  \
             return 0;\n}}\n"
        );
        // The caret sits on the comparison operator.
        let col = bad.find("i < ").expect("condition in line") + "i ".len() + 1;
        let message = "loop bound must be invariant in the iteration variable";
        (source, 5, col, message)
    };
    let diagnostic = format!("{name}:{line}:{col}: error: {message}");
    Program {
        name,
        source,
        expect: Expect::Refusal { diagnostic },
    }
}

/// One `run_kernels` program and the compile options it is run with.
#[derive(Clone, Debug)]
pub struct Kernel {
    pub program: Program,
    pub irbuilder: bool,
    pub vector_width: u8,
}

/// Problem sizes of the kernels. The benchmark runs `FULL`; tests check
/// the same generators at `SMALL`, where the interpreter oracle is quick.
#[derive(Clone, Copy)]
pub struct KernelSizes {
    pub jacobi_n: i64,
    pub jacobi_sweeps: i64,
    pub tri_n: i64,
    pub saxpy_n: i64,
    pub saxpy_reps: i64,
    pub fuse_n: i64,
    pub fuse_reps: i64,
    pub matmul_n: i64,
}

pub const FULL: KernelSizes = KernelSizes {
    jacobi_n: 64,
    jacobi_sweeps: 6,
    tri_n: 650,
    saxpy_n: 1000,
    saxpy_reps: 110,
    fuse_n: 600,
    fuse_reps: 55,
    matmul_n: 44,
};

#[cfg(test)]
pub const SMALL: KernelSizes = KernelSizes {
    jacobi_n: 10,
    jacobi_sweeps: 2,
    tri_n: 40,
    saxpy_n: 37,
    saxpy_reps: 3,
    fuse_n: 30,
    fuse_reps: 2,
    matmul_n: 9,
};

fn output(stdout: String) -> Expect {
    Expect::Output {
        stdout,
        exit_code: 0,
    }
}

/// The compute-bound programs of `run_kernels`: scaled-up forms of the four
/// `examples/c` shapes plus an interchanged, unrolled matrix product. The
/// seed varies their data, never their amount of work.
pub fn kernels(rng: &mut Rng, z: KernelSizes) -> Vec<Kernel> {
    let kernel =
        |name: &str, source: String, value: i64, irbuilder: bool, vector_width: u8| Kernel {
            program: Program {
                name: format!("{name}.c"),
                source,
                expect: output(format!("{value}\n")),
            },
            irbuilder,
            vector_width,
        };
    let mut out = Vec::new();

    // Tiled Jacobi sweeps over an integer grid.
    {
        let (n, sweeps) = (z.jacobi_n, z.jacobi_sweeps);
        let (c1, c2, c3) = (rng.range(1, 40), rng.range(1, 40), rng.range(0, 3));
        let e = n + 2;
        let source = format!(
            "void print_i64(long v);\nlong grid[{e}][{e}];\nlong next[{e}][{e}];\n\
             int main(void) {{\n  for (int i = 0; i < {e}; i += 1)\n    \
             for (int j = 0; j < {e}; j += 1)\n      grid[i][j] = (i * {c1} + j * {c2}) % 97;\n  \
             for (int t = 0; t < {sweeps}; t += 1) {{\n    #pragma omp parallel for\n    \
             #pragma omp tile sizes(8, 8)\n    for (int i = 1; i < {}; i += 1)\n      \
             for (int j = 1; j < {}; j += 1)\n        next[i][j] = (grid[i - 1][j] + \
             grid[i + 1][j] + grid[i][j - 1] + grid[i][j + 1] + {c3}) / 4;\n    \
             #pragma omp parallel for schedule(static)\n    for (int i = 1; i < {}; i += 1)\n      \
             for (int j = 1; j < {}; j += 1)\n        grid[i][j] = next[i][j];\n  }}\n  \
             long checksum = 0;\n  for (int i = 0; i < {e}; i += 1)\n    \
             for (int j = 0; j < {e}; j += 1)\n      checksum += grid[i][j] * (i + 2 * j + 1);\n  \
             print_i64(checksum);\n  return 0;\n}}\n",
            n + 1,
            n + 1,
            n + 1,
            n + 1
        );
        let u = e as usize;
        let mut grid = vec![vec![0i64; u]; u];
        for (i, row) in grid.iter_mut().enumerate() {
            for (j, g) in row.iter_mut().enumerate() {
                *g = (i as i64 * c1 + j as i64 * c2) % 97;
            }
        }
        for _ in 0..sweeps {
            let mut next = grid.clone();
            for i in 1..u - 1 {
                for j in 1..u - 1 {
                    next[i][j] =
                        (grid[i - 1][j] + grid[i + 1][j] + grid[i][j - 1] + grid[i][j + 1] + c3)
                            / 4;
                }
            }
            grid = next;
        }
        let mut sum = 0;
        for (i, row) in grid.iter().enumerate() {
            for (j, g) in row.iter().enumerate() {
                sum += g * (i as i64 + 2 * j as i64 + 1);
            }
        }
        out.push(kernel("jacobi_tiled", source, sum, false, 0));
    }

    // Triangular reductions: iteration `i` costs O(i), so the dynamic and
    // guided schedules decide how evenly the team shares the work.
    for (name, sched, irbuilder) in [
        ("triangular_dynamic", "dynamic, 4", false),
        ("triangular_guided", "guided", true),
    ] {
        let n = z.tri_n;
        let (m, c) = (rng.range(3, 11), rng.range(1, 5));
        let source = format!(
            "void print_i64(long v);\n\nint main(void) {{\n  long sum = 0;\n  \
             #pragma omp parallel for reduction(+: sum) schedule({sched})\n  \
             for (int i = 0; i < {n}; i += 1)\n    for (int j = 0; j < i; j += 1)\n      \
             sum = sum + (j % {m}) + {c};\n  print_i64(sum);\n  return 0;\n}}\n"
        );
        let sum = (0..n).flat_map(|i| 0..i).map(|j| j % m + c).sum();
        out.push(kernel(name, source, sum, irbuilder, 0));
    }

    // saxpy under `simd`, widened to 4 lanes by the bytecode backend.
    {
        let (n, reps) = (z.saxpy_n, z.saxpy_reps);
        let (c1, c2) = (rng.range(-9, 9), rng.range(1, 9));
        let source = format!(
            "void print_i64(long v);\nint x[{n}];\nint y[{n}];\n\nint main(void) {{\n  \
             for (int i = 0; i < {n}; i += 1) {{\n    x[i] = i % 101 - 50 + {};\n    \
             y[i] = 3 * (i % 37) + 1;\n  }}\n  long checksum = 0;\n  \
             for (int r = 0; r < {reps}; r += 1) {{\n    \
             #pragma omp simd reduction(+: checksum) simdlen(4)\n    \
             for (int i = 0; i < {n}; i += 1) {{\n      y[i] = y[i] + {c2} * x[i];\n      \
             checksum += y[i];\n    }}\n  }}\n  print_i64(checksum);\n  return 0;\n}}\n",
            lit(c1)
        );
        let x: Vec<i64> = (0..n).map(|i| i % 101 - 50 + c1).collect();
        let mut y: Vec<i64> = (0..n).map(|i| 3 * (i % 37) + 1).collect();
        let mut sum = 0;
        for _ in 0..reps {
            for (yi, xi) in y.iter_mut().zip(&x) {
                *yi += c2 * xi;
                sum += *yi;
            }
        }
        out.push(kernel("saxpy_simd", source, sum, false, 4));
    }

    // Two sweeps fused into one worksharing loop, repeated.
    {
        let (n1, reps) = (z.fuse_n, z.fuse_reps);
        let n2 = n1 * 3 / 4;
        let (c1, c2) = (rng.range(1, 9), rng.range(100, 300));
        let source = format!(
            "void print_i64(long v);\nlong w[{n1}];\nlong o[{n2}];\n\nint main(void) {{\n  \
             for (int t = 0; t < {reps}; t += 1) {{\n    \
             #pragma omp parallel for schedule(static)\n    #pragma omp fuse\n    {{\n      \
             for (int i = 0; i < {n1}; i += 1)\n        w[i] = w[i] + i * {c1} + t;\n      \
             for (int j = 0; j < {n2}; j += 1)\n        o[j] = o[j] + {c2} - j + t;\n    }}\n  \
             }}\n  long checksum = 0;\n  for (int k = 0; k < {n1}; k += 1)\n    \
             checksum += w[k] * (k + 1);\n  for (int k = 0; k < {n2}; k += 1)\n    \
             checksum += o[k];\n  print_i64(checksum);\n  return 0;\n}}\n"
        );
        let t_sum: i64 = (0..reps).sum();
        let w = (0..n1).map(|i| (reps * i * c1 + t_sum) * (i + 1));
        let o = (0..n2).map(|j| reps * (c2 - j) + t_sum);
        out.push(kernel("fused_sweeps", source, w.chain(o).sum(), true, 0));
    }

    // Matrix product: rows unrolled by two and shared by the team, the
    // (k, j) nest of each row interchanged.
    {
        let n = z.matmul_n;
        let (c1, c2) = (rng.range(1, 12), rng.range(1, 10));
        let source = format!(
            "void print_i64(long v);\nlong a[{n}][{n}];\nlong b[{n}][{n}];\nlong c[{n}][{n}];\n\n\
             int main(void) {{\n  for (int i = 0; i < {n}; i += 1)\n    \
             for (int j = 0; j < {n}; j += 1) {{\n      a[i][j] = (i * {c1} + j) % 13 - 6;\n      \
             b[i][j] = (i + j * {c2}) % 11 - 5;\n    }}\n  \
             #pragma omp parallel for schedule(static)\n  #pragma omp unroll partial(2)\n  \
             for (int i = 0; i < {n}; i += 1) {{\n    #pragma omp interchange\n    \
             for (int k = 0; k < {n}; k += 1)\n      for (int j = 0; j < {n}; j += 1)\n        \
             c[i][j] += a[i][k] * b[k][j];\n  }}\n  long checksum = 0;\n  \
             for (int i = 0; i < {n}; i += 1)\n    for (int j = 0; j < {n}; j += 1)\n      \
             checksum += c[i][j] * (i + j + 1);\n  print_i64(checksum);\n  return 0;\n}}\n"
        );
        let a = |i: i64, j: i64| (i * c1 + j) % 13 - 6;
        let b = |i: i64, j: i64| (i + j * c2) % 11 - 5;
        let mut sum = 0;
        for i in 0..n {
            for j in 0..n {
                let cij: i64 = (0..n).map(|k| a(i, k) * b(k, j)).sum();
                sum += cij * (i + j + 1);
            }
        }
        out.push(kernel("matmul_interchanged", source, sum, false, 0));
    }
    out
}
