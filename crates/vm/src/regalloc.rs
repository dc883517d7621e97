//! Linear-scan register allocation over the virtual registers the lowerer
//! emits (one per SSA value, argument, constant, and phi-copy temporary).
//!
//! There is no spilling — the frame's register file is heap-allocated and
//! `u16`-indexed, so "allocation" here means *compaction*: block-level
//! liveness builds one conservative, hole-free live interval per virtual
//! register, and a classic linear scan then reuses register numbers whose
//! intervals have expired. Smaller register files mean smaller frames and a
//! hotter cache in the dispatch loop.
//!
//! Intervals are extended to every block boundary the value is live across,
//! which is what makes backedges safe: a value live around a loop (including
//! a loop whose header is the entry block's constant prologue) covers the
//! whole loop body, so re-executed defs can never clobber it.

use crate::ops::{Op, Reg, RegClass, VmFunction};

/// A dense bitset over virtual registers (shared with the peephole pass).
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        bit(&self.words, i)
    }

    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrites `self` with a same-sized row of a [`Liveness`] table.
    pub(crate) fn copy_from(&mut self, words: &[u64]) {
        self.words.copy_from_slice(words);
    }
}

/// Whether bit `i` of a packed row is set.
pub(crate) fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// The set bits of a packed row, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            let b = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (b < 64).then_some(wi * 64 + b)
        })
    })
}

/// The block layout of an op stream: each block's `[start, end)` op range
/// plus its successor and predecessor lists (read off the terminators).
pub(crate) struct Cfg {
    pub(crate) ranges: Vec<(usize, usize)>,
    succ: Vec<u32>,
    succ_at: Vec<u32>,
    pred: Vec<u32>,
    pred_at: Vec<u32>,
}

impl Cfg {
    pub(crate) fn new(f: &VmFunction) -> Cfg {
        let ranges = block_ranges(f);
        let block_of = |off: u32| -> u32 {
            match f.block_starts.binary_search(&off) {
                Ok(i) => i as u32,
                Err(i) => i as u32 - 1,
            }
        };
        let mut succ = Vec::with_capacity(2 * ranges.len());
        let mut succ_at = Vec::with_capacity(ranges.len() + 1);
        succ_at.push(0);
        for &(_, end) in &ranges {
            match f.ops[end - 1] {
                Op::Jmp { target } | Op::BinJmp { target, .. } => succ.push(block_of(target)),
                Op::Br { then_t, else_t, .. } | Op::CmpBr { then_t, else_t, .. } => {
                    succ.push(block_of(then_t));
                    succ.push(block_of(else_t));
                }
                _ => {}
            }
            succ_at.push(succ.len() as u32);
        }
        // Predecessors: the transpose, by counting sort.
        let mut pred_at = vec![0u32; ranges.len() + 1];
        for &s in &succ {
            pred_at[s as usize + 1] += 1;
        }
        for b in 0..ranges.len() {
            pred_at[b + 1] += pred_at[b];
        }
        let mut fill = pred_at.clone();
        let mut pred = vec![0u32; succ.len()];
        for b in 0..ranges.len() {
            for &s in &succ[succ_at[b] as usize..succ_at[b + 1] as usize] {
                pred[fill[s as usize] as usize] = b as u32;
                fill[s as usize] += 1;
            }
        }
        Cfg {
            ranges,
            succ,
            succ_at,
            pred,
            pred_at,
        }
    }

    pub(crate) fn succs(&self, b: usize) -> &[u32] {
        &self.succ[self.succ_at[b] as usize..self.succ_at[b + 1] as usize]
    }

    pub(crate) fn preds(&self, b: usize) -> &[u32] {
        &self.pred[self.pred_at[b] as usize..self.pred_at[b + 1] as usize]
    }
}

/// `(start, end)` op index ranges of every block, in block order.
pub(crate) fn block_ranges(f: &VmFunction) -> Vec<(usize, usize)> {
    let nb = f.block_starts.len();
    (0..nb)
        .map(|b| {
            let start = f.block_starts[b] as usize;
            let end = if b + 1 < nb {
                f.block_starts[b + 1] as usize
            } else {
                f.ops.len()
            };
            (start, end)
        })
        .collect()
}

/// Per-block `gen` (upward-exposed uses) and `kill` (defs) rows, the input
/// to [`GenKill::solve`]. Built by visiting each block's ops in order.
pub(crate) struct GenKill {
    words: usize,
    gen: Vec<u64>,
    kill: Vec<u64>,
}

impl GenKill {
    pub(crate) fn new(n: usize, blocks: usize) -> GenKill {
        let words = n.div_ceil(64);
        GenKill {
            words,
            gen: vec![0; blocks * words],
            kill: vec![0; blocks * words],
        }
    }

    /// Accounts for `op`, the next op of block `b`.
    pub(crate) fn visit(&mut self, b: usize, op: Op, call_args: &[Reg]) {
        let row = b * self.words;
        let (g, k) = (&mut self.gen[row..], &mut self.kill[row..]);
        op.for_each_use(call_args, |r| {
            let (i, m) = (r as usize / 64, 1u64 << (r % 64));
            g[i] |= m & !k[i];
        });
        if let Some(d) = op.def() {
            k[d as usize / 64] |= 1 << (d % 64);
        }
    }

    /// Solves `live_out = ∪ live_in(succ)`, `live_in = gen ∪ (live_out −
    /// kill)` to its least fixpoint. Both only grow from empty, so
    /// recomputing each row in place needs no per-iteration copies.
    pub(crate) fn solve(self, cfg: &Cfg) -> Liveness {
        let (w, nb) = (self.words, cfg.ranges.len());
        let mut live_in = vec![0u64; nb * w];
        let mut live_out = vec![0u64; nb * w];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                for i in 0..w {
                    let out = cfg
                        .succs(b)
                        .iter()
                        .fold(0, |acc, &s| acc | live_in[s as usize * w + i]);
                    let x = b * w + i;
                    let inn = self.gen[x] | (out & !self.kill[x]);
                    live_out[x] = out;
                    if inn != live_in[x] {
                        live_in[x] = inn;
                        changed = true;
                    }
                }
            }
        }
        Liveness {
            words: w,
            live_in,
            live_out,
        }
    }
}

/// Block-level backward liveness over `f.num_regs` registers: one packed row of
/// `live_in` and `live_out` bits per block, stored flat.
#[derive(PartialEq)]
pub(crate) struct Liveness {
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// Solves to fixpoint. Ops for which `skip` returns true are treated as
    /// absent (the peephole pass masks deleted ops this way; register
    /// allocation passes `|_| false`).
    pub(crate) fn solve(f: &VmFunction, cfg: &Cfg, skip: impl Fn(usize) -> bool) -> Liveness {
        let mut gen_kill = GenKill::new(f.num_regs as usize, cfg.ranges.len());
        for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
            for pc in (start..end).filter(|&pc| !skip(pc)) {
                gen_kill.visit(b, f.ops[pc], &f.call_args);
            }
        }
        gen_kill.solve(cfg)
    }

    pub(crate) fn live_in(&self, b: usize) -> &[u64] {
        &self.live_in[b * self.words..(b + 1) * self.words]
    }

    pub(crate) fn live_out(&self, b: usize) -> &[u64] {
        &self.live_out[b * self.words..(b + 1) * self.words]
    }

    /// The solution after each block flagged in `merged` has been merged
    /// into the block before it: a merged run enters as its first block and
    /// leaves as its last.
    pub(crate) fn merge_blocks(&self, merged: &[bool]) -> Liveness {
        let w = self.words;
        let (mut live_in, mut live_out) = (Vec::new(), Vec::new());
        for (b, &m) in merged.iter().enumerate() {
            if m {
                let last = live_out.len() - w;
                live_out[last..].copy_from_slice(self.live_out(b));
            } else {
                live_in.extend_from_slice(self.live_in(b));
                live_out.extend_from_slice(self.live_out(b));
            }
        }
        Liveness {
            words: w,
            live_in,
            live_out,
        }
    }

    /// Sets register `r`'s bit in `live_in`/`live_out` of block `b`.
    pub(crate) fn set(&mut self, b: usize, r: usize, live_in: bool, live_out: bool) {
        let (x, m) = (b * self.words + r / 64, 1u64 << (r % 64));
        self.live_in[x] = (self.live_in[x] & !m) | if live_in { m } else { 0 };
        self.live_out[x] = (self.live_out[x] & !m) | if live_out { m } else { 0 };
    }
}

/// Rewrites `f` in place so registers are compactly numbered and reused
/// where live intervals permit; updates `num_regs`, `reg_class`, `params`,
/// `call_args`, and every op.
pub fn allocate(f: &mut VmFunction) {
    if f.num_regs == 0 || f.ops.is_empty() {
        return;
    }
    let live = Liveness::solve(f, &Cfg::new(f), |_| false);
    allocate_with(f, &live);
}

/// [`allocate`] with the function's block-level liveness already solved.
pub(crate) fn allocate_with(f: &mut VmFunction, live: &Liveness) {
    let n = f.num_regs as usize;
    if n == 0 || f.ops.is_empty() {
        return;
    }

    // Conservative hole-free intervals: cover every def/use position plus
    // every block boundary the value is live across.
    const UNSET: usize = usize::MAX;
    fn touch(start: &mut [usize], end: &mut [usize], v: usize, pos: usize) {
        if start[v] == UNSET || pos < start[v] {
            start[v] = pos;
        }
        if pos > end[v] {
            end[v] = pos;
        }
    }
    let mut start = vec![UNSET; n];
    let mut end = vec![0usize; n];
    for &p in &f.params {
        touch(&mut start, &mut end, p as usize, 0);
    }
    for (pc, op) in f.ops.iter().enumerate() {
        if let Some(d) = op.def() {
            touch(&mut start, &mut end, d as usize, pc);
        }
        op.for_each_use(&f.call_args, |r| {
            touch(&mut start, &mut end, r as usize, pc)
        });
    }
    for (b, (bs, be)) in block_ranges(f).into_iter().enumerate() {
        for v in ones(live.live_in(b)) {
            touch(&mut start, &mut end, v, bs);
        }
        for v in ones(live.live_out(b)) {
            touch(&mut start, &mut end, v, be - 1);
        }
    }

    // Linear scan with per-class free pools. Registers never share even when
    // intervals merely touch (strict `<` expiry) — a cheap safety margin.
    let live_regs: Vec<usize> = (0..n).filter(|&v| start[v] != UNSET).collect();
    let order = sort_by_position(&live_regs, f.ops.len(), |v| start[v]);
    let mut assign: Vec<Reg> = vec![0; n];
    let mut phys_class: Vec<RegClass> = Vec::new();
    let mut free: [Vec<Reg>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let class_idx = |c: RegClass| match c {
        RegClass::Int => 0usize,
        RegClass::Float => 1,
        RegClass::Ptr => 2,
    };
    // Allocation ranks sorted by `(end, rank)`. `start` only grows along
    // `order`, and an interval ends no earlier than it starts, so the
    // intervals expired before each allocation are the next run of this
    // list. They return to their pools in allocation order (the run is
    // re-sorted by rank in place; nothing reads it again), so the pools pop
    // exactly as a scan of an insertion-ordered active list would.
    let ranks: Vec<usize> = (0..order.len()).collect();
    let mut by_end = sort_by_position(&ranks, f.ops.len(), |k| end[order[k]]);
    let mut front = 0;
    for &v in &order {
        let first = front;
        while front < by_end.len() && end[order[by_end[front]]] < start[v] {
            front += 1;
        }
        by_end[first..front].sort_unstable();
        for &k in &by_end[first..front] {
            let u = order[k];
            free[class_idx(f.reg_class[u])].push(assign[u]);
        }
        let ci = class_idx(f.reg_class[v]);
        let phys = match free[ci].pop() {
            Some(p) => p,
            None => {
                let p = phys_class.len() as Reg;
                phys_class.push(f.reg_class[v]);
                p
            }
        };
        assign[v] = phys;
    }

    // Rename everything.
    for op in &mut f.ops {
        op.map_regs(|r| assign[r as usize]);
    }
    for r in &mut f.call_args {
        *r = assign[*r as usize];
    }
    for p in &mut f.params {
        *p = assign[*p as usize];
    }
    f.num_regs = phys_class.len() as u16;
    f.reg_class = phys_class;
}

/// `items` stably sorted by `key`, an op position below `bound` (a counting
/// sort: positions are dense and items few, so this beats comparisons).
fn sort_by_position(items: &[usize], bound: usize, key: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut at = vec![0usize; bound + 1];
    for &x in items {
        at[key(x) + 1] += 1;
    }
    for i in 0..bound {
        at[i + 1] += at[i];
    }
    let mut sorted = vec![0; items.len()];
    for &x in items {
        let k = key(x);
        sorted[at[k]] = x;
        at[k] += 1;
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, PoolConst, VmFunction};
    use omplt_interp::RtVal;
    use omplt_ir::{BinOpKind, IrType};

    fn linear_fn(ops: Vec<Op>, num_regs: u16, classes: Vec<RegClass>) -> VmFunction {
        VmFunction {
            name: "t".into(),
            params: vec![],
            num_regs,
            reg_class: classes,
            num_vregs: 0,
            vreg_class: vec![],
            vreg_width: vec![],
            ops,
            consts: vec![PoolConst::Val(RtVal::I(1))],
            call_args: vec![],
            call_targets: vec![],
            block_starts: vec![0],
            ret: IrType::I64,
        }
    }

    #[test]
    fn disjoint_intervals_share_a_register() {
        // r0 dies before r1 is born; both Int → same physical register.
        let mut f = linear_fn(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 1,
                    lhs: 0,
                    rhs: 0,
                },
                Op::Const { dst: 2, idx: 0 },
                Op::Ret { src: Some(2) },
            ],
            3,
            vec![RegClass::Int; 3],
        );
        allocate(&mut f);
        assert!(f.num_regs < 3, "expected reuse, got {} regs", f.num_regs);
    }

    #[test]
    fn classes_never_mix() {
        let mut f = linear_fn(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Cast {
                    op: omplt_ir::CastOp::SiToFp,
                    from: IrType::I64,
                    to: IrType::F64,
                    dst: 1,
                    src: 0,
                },
                Op::Ret { src: Some(0) },
            ],
            2,
            vec![RegClass::Int, RegClass::Float],
        );
        allocate(&mut f);
        assert_eq!(f.reg_class.len(), f.num_regs as usize);
        let classes: std::collections::HashSet<_> = f.reg_class.iter().collect();
        assert_eq!(classes.len(), 2, "Int and Float must stay distinct");
    }

    #[test]
    fn loop_carried_value_is_not_clobbered() {
        // Block 0: define r0, r1. Block 1 (loop): r1 += r0, branch back or
        // out. r0 must keep its register across the backedge.
        let mut f = linear_fn(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Jmp { target: 3 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 1,
                    lhs: 1,
                    rhs: 0,
                },
                Op::Cmp {
                    pred: omplt_ir::CmpPred::Slt,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 1,
                    rhs: 0,
                },
                Op::Br {
                    cond: 2,
                    then_t: 3,
                    else_t: 6,
                },
                Op::Ret { src: Some(1) },
            ],
            3,
            vec![RegClass::Int; 3],
        );
        f.block_starts = vec![0, 3, 6];
        allocate(&mut f);
        // r0 (loop-invariant) and r2 (cmp result, loop-local) must differ:
        // r0 is live across the whole loop.
        let a0 = match f.ops[0] {
            Op::Const { dst, .. } => dst,
            _ => unreachable!(),
        };
        let a2 = match f.ops[4] {
            Op::Cmp { dst, .. } => dst,
            _ => unreachable!(),
        };
        assert_ne!(a0, a2, "loop-carried register reused inside the loop");
    }
}
