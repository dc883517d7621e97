//! Pre-regalloc peephole optimization over the flat op stream.
//!
//! The lowerer's output is deliberately naive: promoted `alloca` slots turn
//! every load/store into a `Mov`, phi edges add more copies, and each
//! loop latch is a `Cmp` feeding a `Br`. In the hot dense-arithmetic loops
//! the VM exists for, roughly a third of the retired ops were copies —
//! dispatch overhead with no work attached. Four stages fix that:
//!
//! 1. **Copy propagation** (block-local): uses of a `Mov` destination are
//!    rewritten to its source until either register is redefined, so the
//!    copies lose their consumers.
//! 2. **Dead-op elimination** (global liveness, to fixpoint): side-effect-free
//!    ops whose destination is dead are deleted. Ops the interpreter could
//!    trap on (`sdiv`/`urem`/… by zero, non-additive pointer arithmetic) are
//!    kept even when dead — deleting them would make the VM succeed where the
//!    interpreter errors, breaking the differential oracle.
//! 3. **Compare/branch fusion**: a `Cmp` immediately feeding the block's
//!    `Br`, with no other consumer, becomes one [`Op::CmpBr`].
//! 4. **Fallthrough-jump elision**: a `Jmp` to the op that physically
//!    follows it, when that target has no other incoming edge, is deleted
//!    and the two blocks merge.
//! 5. **Arithmetic/jump fusion**: a `Bin` immediately preceding its block's
//!    surviving `Jmp` becomes one [`Op::BinJmp`] — the canonical loop latch
//!    (`i = i + step; jmp header`) in one dispatch. This runs *after* stage 4
//!    so a jump that can be elided outright is, and only real backedges fuse.
//!
//! Deletion is mark-then-compact: stages only set a `dead` mask, and a final
//! sweep drops marked ops while remapping every jump target and block start.
//! That remap is exact because the lowerer registers *every* branch target
//! (including phi-copy trampolines) as a block start, terminators are never
//! deleted, and therefore each block keeps at least one op.

use crate::ops::{Op, Reg, VmFunction};
use crate::regalloc::{bit, block_ranges, BitSet, Cfg, GenKill, Liveness};
use omplt_ir::{BinOpKind, IrType};

/// Runs the full pipeline in place; returns the number of ops removed.
pub fn optimize(f: &mut VmFunction) -> usize {
    if f.ops.is_empty() {
        return 0;
    }
    optimize_with_liveness(f).0
}

/// [`optimize`] on a non-empty function, also returning the block-level
/// liveness of the result, so register allocation need not solve it again.
pub(crate) fn optimize_with_liveness(f: &mut VmFunction) -> (usize, Liveness) {
    // Stages 1-3 keep the block structure, so they share one layout, and
    // the liveness DCE leaves behind serves coalescing and fusion as well:
    // neither changes which registers are live at a block boundary.
    let cfg = Cfg::new(f);
    let gen_kill = copy_propagate(f, &cfg);
    let mut dead = vec![false; f.ops.len()];
    let live = eliminate_dead(f, &cfg, gen_kill.solve(&cfg), &mut dead);
    debug_assert!(dead == dead_by_rounds(f, &cfg));
    coalesce_defs(f, &cfg, &live, &mut dead);
    debug_assert!(live == Liveness::solve(f, &cfg, |pc| dead[pc]));
    fuse_cmp_br(f, &cfg, &live, &mut dead);
    let merged = elide_fallthrough_jumps(f, &mut dead);
    fuse_bin_jmp(f, &mut dead);
    let removed = compact(f, &dead);
    // Deleted ops were already absent from the solution, and fusing a
    // `Bin` into the `Jmp` after it moves no read or write across a block
    // boundary. A merged run of blocks enters as its first block and leaves
    // as its last.
    let live = live.merge_blocks(&merged);
    debug_assert!(live == Liveness::solve(f, &Cfg::new(f), |_| false));
    (removed, live)
}

/// True when deleting a dead instance of `op` cannot change observable
/// behavior. Loads (out-of-bounds), calls, stores, and allocas stay; so do
/// integer div/rem (`DivByZero`) and non-additive pointer arithmetic, which
/// the shared `exec_bin` traps on — the interpreter oracle would too.
fn removable(op: Op) -> bool {
    match op {
        Op::Const { .. }
        | Op::Mov { .. }
        | Op::Gep { .. }
        | Op::Cmp { .. }
        | Op::Cast { .. }
        | Op::Select { .. } => true,
        Op::Bin { op, ty, .. } => {
            let may_trap_zero = matches!(
                op,
                BinOpKind::SDiv | BinOpKind::UDiv | BinOpKind::SRem | BinOpKind::URem
            );
            let may_trap_ptr = ty == IrType::Ptr && !matches!(op, BinOpKind::Add | BinOpKind::Sub);
            !may_trap_zero && !may_trap_ptr
        }
        _ => false,
    }
}

/// Block-local copy propagation: after `dst = mov src`, later reads of `dst`
/// become reads of `src` (chased to the root of a copy chain) until either
/// side is redefined. The `Mov`s themselves are left for DCE to collect.
/// Returns the rewritten ops' gen/kill rows, collected on the same walk.
fn copy_propagate(f: &mut VmFunction, cfg: &Cfg) -> GenKill {
    let n = f.num_regs as usize;
    let mut gen_kill = GenKill::new(n, cfg.ranges.len());
    // Positions are `pc + 1`, with 0 for "never". The copy `r = mov
    // copy_of[r]` made at `copied_at[r]` still holds when it was made in
    // this block and neither side has been redefined since. Positions only
    // grow, so nothing needs clearing between blocks.
    let mut copy_of: Vec<Reg> = vec![0; n];
    let mut copied_at: Vec<usize> = vec![0; n];
    let mut defined_at: Vec<usize> = vec![0; n];
    for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
        for pc in start..end {
            let op = &mut f.ops[pc];
            op.map_uses(&mut f.call_args, |r| {
                let (at, src) = (copied_at[r as usize], copy_of[r as usize]);
                let holds =
                    at > start && defined_at[r as usize] == at && defined_at[src as usize] < at;
                if holds {
                    src
                } else {
                    r
                }
            });
            if let Some(d) = op.def() {
                defined_at[d as usize] = pc + 1;
            }
            if let Op::Mov { dst, src } = *op {
                if dst != src {
                    // `src` was already rewritten to its root above.
                    copy_of[dst as usize] = src;
                    copied_at[dst as usize] = pc + 1;
                }
            }
            gen_kill.visit(b, f.ops[pc], &f.call_args);
        }
    }
    gen_kill
}

/// Deletes dead ops to fixpoint, starting from `live`, the liveness of the
/// whole function, and returns the liveness of what is left.
///
/// The result is exactly what re-solving liveness and re-sweeping until
/// nothing changes gives ([`dead_by_rounds`]): each deletion only ever
/// shrinks liveness, so any order of justified deletions ends at the same
/// set. One backward sweep over the first solution does most of the work;
/// after that, only the registers a deleted op read can change liveness, so
/// a worklist re-solves just those, one register at a time, and rechecks
/// their definitions.
fn eliminate_dead(f: &VmFunction, cfg: &Cfg, mut live: Liveness, dead: &mut [bool]) -> Liveness {
    let n = f.num_regs as usize;
    let mut dirty = Worklist::new(n);
    sweep(f, cfg, &live, dead, |op, read_below| {
        // A register a surviving op further down the block still reads
        // (with no def in between) keeps its liveness everywhere.
        op.for_each_use(&f.call_args, |r| {
            if !read_below.contains(r as usize) {
                dirty.push(r);
            }
        });
    });
    if dirty.is_empty() {
        return live;
    }
    let sites = Sites::new(f, cfg, n);
    let nb = cfg.ranges.len();
    // Per-block facts about the register being re-solved, stamped with the
    // re-solve's number so they need no clearing in between.
    let mut exposed = vec![0u32; nb];
    let mut defines = vec![0u32; nb];
    let mut stamp = 0u32;
    let mut stack: Vec<usize> = Vec::new();
    while let Some(r) = dirty.pop() {
        stamp += 1;
        // Upward-exposed uses and defs of `r` among surviving ops, walking
        // each block backward. An op reads its operands before writing, so
        // a use in the defining op itself is still exposed.
        for (pc, b) in sites.of(r) {
            if dead[pc] {
                continue;
            }
            let op = f.ops[pc];
            if op.def() == Some(r) {
                defines[b] = stamp;
                exposed[b] = 0;
            }
            if reads(f, op, r) {
                exposed[b] = stamp;
            }
        }
        // Backward reachability from the exposed uses, stopped by defs.
        for b in 0..nb {
            live.set(b, r as usize, false, false);
        }
        for (_, b) in sites.of(r) {
            if exposed[b] == stamp {
                exposed[b] = 0;
                live.set(b, r as usize, true, false);
                stack.push(b);
            }
        }
        while let Some(b) = stack.pop() {
            for &p in cfg.preds(b) {
                let p = p as usize;
                let was_in = bit(live.live_in(p), r as usize);
                let now_in = was_in || defines[p] != stamp;
                live.set(p, r as usize, now_in, true);
                if now_in && !was_in {
                    stack.push(p);
                }
            }
        }
        // Recheck every surviving def of `r` against the new solution.
        let mut block = usize::MAX;
        let mut is_live = false;
        for (pc, b) in sites.of(r) {
            if dead[pc] {
                continue;
            }
            if b != block {
                block = b;
                is_live = bit(live.live_out(b), r as usize);
            }
            let op = f.ops[pc];
            if op.def() == Some(r) {
                if !is_live && removable(op) {
                    dead[pc] = true;
                    op.for_each_use(&f.call_args, |u| dirty.push(u));
                    continue;
                }
                is_live = false;
            }
            if reads(f, op, r) {
                is_live = true;
            }
        }
    }
    live
}

/// One backward sweep of every block from `live`'s live-out rows, marking
/// each surviving op that [`dies`]; `died` sees each such op together with
/// the registers surviving ops further down its block read (no def in
/// between). Returns whether anything died.
fn sweep(
    f: &VmFunction,
    cfg: &Cfg,
    live: &Liveness,
    dead: &mut [bool],
    mut died: impl FnMut(Op, &BitSet),
) -> bool {
    let n = f.num_regs as usize;
    let (mut cur, mut read_below) = (BitSet::new(n), BitSet::new(n));
    let mut changed = false;
    for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
        cur.copy_from(live.live_out(b));
        read_below.clear();
        for pc in (start..end).rev() {
            if dead[pc] {
                continue;
            }
            let op = f.ops[pc];
            if dies(op, &cur) {
                dead[pc] = true;
                changed = true;
                died(op, &read_below);
                continue;
            }
            if let Some(d) = op.def() {
                cur.remove(d as usize);
                read_below.remove(d as usize);
            }
            op.for_each_use(&f.call_args, |r| {
                cur.insert(r as usize);
                read_below.insert(r as usize);
            });
        }
    }
    changed
}

/// Whether DCE deletes `op` given the registers live right after it: a
/// self-copy is a no-op whether or not its register is live, and a
/// removable op whose result nobody reads is dead.
fn dies(op: Op, live_after: &BitSet) -> bool {
    let self_mov = matches!(op, Op::Mov { dst, src } if dst == src);
    let dead_def = matches!(op.def(), Some(d) if !live_after.contains(d as usize)) && removable(op);
    self_mov || dead_def
}

/// The dead mask of plain round-based DCE: solve liveness, sweep, and
/// repeat until a sweep deletes nothing. Debug builds check
/// [`eliminate_dead`] against it.
fn dead_by_rounds(f: &VmFunction, cfg: &Cfg) -> Vec<bool> {
    let mut dead = vec![false; f.ops.len()];
    loop {
        let live = Liveness::solve(f, cfg, |pc| dead[pc]);
        if !sweep(f, cfg, &live, &mut dead, |_, _| {}) {
            return dead;
        }
    }
}

/// Whether `op` reads register `r`.
fn reads(f: &VmFunction, op: Op, r: Reg) -> bool {
    let mut hit = false;
    op.for_each_use(&f.call_args, |u| hit |= u == r);
    hit
}

/// A set of registers with LIFO pop, each queued at most once at a time.
struct Worklist {
    queued: BitSet,
    stack: Vec<Reg>,
}

impl Worklist {
    fn new(n: usize) -> Worklist {
        Worklist {
            queued: BitSet::new(n),
            stack: Vec::new(),
        }
    }

    fn push(&mut self, r: Reg) {
        if !self.queued.contains(r as usize) {
            self.queued.insert(r as usize);
            self.stack.push(r);
        }
    }

    fn pop(&mut self) -> Option<Reg> {
        let r = self.stack.pop()?;
        self.queued.remove(r as usize);
        Some(r)
    }

    fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }
}

/// For every register, the ops that read or write it, as lists threaded
/// through one array with the latest op first.
struct Sites {
    head: Vec<u32>,
    /// `(pc, block, next)` per mention.
    links: Vec<(u32, u32, u32)>,
}

impl Sites {
    const END: u32 = u32::MAX;

    fn new(f: &VmFunction, cfg: &Cfg, n: usize) -> Sites {
        let mut head = vec![Sites::END; n];
        let mut links: Vec<(u32, u32, u32)> = Vec::with_capacity(2 * f.ops.len());
        for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
            for pc in start..end {
                let mut see = |r: Reg| {
                    let h = head[r as usize];
                    // An op mentioning `r` twice is listed once.
                    if h == Sites::END || links[h as usize].0 != pc as u32 {
                        head[r as usize] = links.len() as u32;
                        links.push((pc as u32, b as u32, h));
                    }
                };
                let op = f.ops[pc];
                op.for_each_use(&f.call_args, &mut see);
                if let Some(d) = op.def() {
                    see(d);
                }
            }
        }
        Sites { head, links }
    }

    /// `(pc, block)` of every op mentioning `r`, latest first.
    fn of(&self, r: Reg) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut at = self.head[r as usize];
        std::iter::from_fn(move || {
            let &(pc, b, next) = self.links.get(at as usize)?;
            at = next;
            Some((pc as usize, b as usize))
        })
    }
}

/// Coalesces `d = <op> …; s = mov d` into `s = <op> …` when `d` dies at the
/// `Mov` — the "write the result back into the promoted slot" pattern every
/// loop-carried variable produces. Safe because every op reads its operands
/// before writing its destination, so `<op>` may freely read `s`'s old value.
fn coalesce_defs(f: &mut VmFunction, cfg: &Cfg, live: &Liveness, dead: &mut [bool]) {
    let mut cur = BitSet::new(f.num_regs as usize);
    let mut pcs: Vec<usize> = Vec::new();
    for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
        cur.copy_from(live.live_out(b));
        pcs.clear();
        pcs.extend((start..end).rev().filter(|&pc| !dead[pc]));
        for (i, &pc) in pcs.iter().enumerate() {
            let op = f.ops[pc];
            if let Op::Mov { dst: s, src: d } = op {
                let prev = pcs.get(i + 1);
                let coalescable = s != d
                    && !cur.contains(d as usize)
                    && f.reg_class[s as usize] == f.reg_class[d as usize]
                    && prev.is_some_and(|&q| f.ops[q].def() == Some(d));
                if coalescable {
                    f.ops[*prev.expect("checked above")].set_def(s);
                    dead[pc] = true;
                    // The Mov contributes nothing to liveness now; `q` is
                    // processed next with its rewritten destination.
                    continue;
                }
            }
            if let Some(dd) = op.def() {
                cur.remove(dd as usize);
            }
            op.for_each_use(&f.call_args, |r| cur.insert(r as usize));
        }
    }
}

/// Fuses `dst = cmp …; br dst, T, E` into `cmpbr …, T, E` when the `Cmp`
/// immediately precedes its block's `Br` (among live ops) and `dst` has no
/// other consumer (`dst` not live out of the block).
fn fuse_cmp_br(f: &mut VmFunction, cfg: &Cfg, live: &Liveness, dead: &mut [bool]) {
    for (b, &(start, end)) in cfg.ranges.iter().enumerate() {
        let mut ops = (start..end).rev().filter(|&pc| !dead[pc]);
        let (Some(t), Some(p)) = (ops.next(), ops.next()) else {
            continue;
        };
        let Op::Br {
            cond,
            then_t,
            else_t,
        } = f.ops[t]
        else {
            continue;
        };
        let Op::Cmp {
            pred,
            ty,
            dst,
            lhs,
            rhs,
        } = f.ops[p]
        else {
            continue;
        };
        if dst != cond || bit(live.live_out(b), dst as usize) {
            continue;
        }
        f.ops[t] = Op::CmpBr {
            pred,
            ty,
            lhs,
            rhs,
            then_t,
            else_t,
        };
        dead[p] = true;
    }
}

/// Fuses `dst = <op> …; jmp T` into `binjmp` when the `Bin` immediately
/// precedes its block's `Jmp` among live ops. No liveness condition: the
/// fused op still defines `dst`, and a trapping `Bin` (div/rem) traps
/// identically before the jump would have been taken.
fn fuse_bin_jmp(f: &mut VmFunction, dead: &mut [bool]) {
    for (start, end) in block_ranges(f) {
        let mut live = (start..end).rev().filter(|&pc| !dead[pc]);
        let (Some(t), Some(p)) = (live.next(), live.next()) else {
            continue;
        };
        let Op::Jmp { target } = f.ops[t] else {
            continue;
        };
        let Op::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } = f.ops[p]
        else {
            continue;
        };
        f.ops[t] = Op::BinJmp {
            op,
            ty,
            dst,
            lhs,
            rhs,
            target,
        };
        dead[p] = true;
    }
}

/// Deletes `jmp` ops that target the instruction physically following them
/// when nothing else jumps there, merging the two blocks. (RPO linearization
/// makes loop bodies fall through to their latch, so these are common.)
/// Returns, per block, whether it was merged into the block before it.
fn elide_fallthrough_jumps(f: &mut VmFunction, dead: &mut [bool]) -> Vec<bool> {
    // Incoming-edge counts per target offset, over live ops only.
    let mut incoming: Vec<u32> = vec![0; f.ops.len()];
    for (pc, op) in f.ops.iter().enumerate() {
        if dead[pc] {
            continue;
        }
        match *op {
            Op::Jmp { target } | Op::BinJmp { target, .. } => incoming[target as usize] += 1,
            Op::Br { then_t, else_t, .. } | Op::CmpBr { then_t, else_t, .. } => {
                incoming[then_t as usize] += 1;
                incoming[else_t as usize] += 1;
            }
            _ => {}
        }
    }
    let mut merged = vec![false; f.block_starts.len()];
    for (pc, (op, d)) in f.ops.iter().zip(dead.iter_mut()).enumerate() {
        if *d {
            continue;
        }
        let Op::Jmp { target } = *op else {
            continue;
        };
        // `Jmp` is a terminator, so `target == pc + 1` means the next block
        // starts right after it; one incoming edge means this is that edge.
        if target as usize == pc + 1 && incoming[target as usize] == 1 {
            if let Ok(b) = f.block_starts.binary_search(&target) {
                *d = true;
                merged[b] = true;
            }
        }
    }
    let mut b = 0;
    f.block_starts.retain(|_| {
        b += 1;
        !merged[b - 1]
    });
    merged
}

/// Drops marked ops and remaps every jump target and block start. Targets
/// are always block starts and terminators are never marked, so each block
/// retains at least one op and the remapped starts stay strictly sorted.
fn compact(f: &mut VmFunction, dead: &[bool]) -> usize {
    let removed = dead.iter().filter(|&&d| d).count();
    if removed == 0 {
        return 0;
    }
    let mut new_off: Vec<u32> = Vec::with_capacity(f.ops.len());
    let mut kept: u32 = 0;
    for &d in dead {
        new_off.push(kept);
        kept += u32::from(!d);
    }
    for op in &mut f.ops {
        match op {
            Op::Jmp { target } | Op::BinJmp { target, .. } => {
                *target = new_off[*target as usize];
            }
            Op::Br { then_t, else_t, .. } | Op::CmpBr { then_t, else_t, .. } => {
                *then_t = new_off[*then_t as usize];
                *else_t = new_off[*else_t as usize];
            }
            _ => {}
        }
    }
    let mut i = 0;
    f.ops.retain(|_| {
        let keep = !dead[i];
        i += 1;
        keep
    });
    for s in &mut f.block_starts {
        *s = new_off[*s as usize];
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{PoolConst, RegClass};
    use omplt_interp::RtVal;
    use omplt_ir::{CmpPred, IrType};

    fn func(ops: Vec<Op>, classes: Vec<RegClass>, block_starts: Vec<u32>) -> VmFunction {
        VmFunction {
            name: "t".into(),
            params: vec![],
            num_regs: classes.len() as u16,
            reg_class: classes,
            num_vregs: 0,
            vreg_class: vec![],
            vreg_width: vec![],
            ops,
            consts: vec![PoolConst::Val(RtVal::I(1))],
            call_args: vec![],
            call_targets: vec![],
            block_starts,
            ret: IrType::I64,
        }
    }

    #[test]
    fn copies_are_propagated_and_collected() {
        // r0 = const; r1 = mov r0; r2 = r1 + r1; ret r2
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Mov { dst: 1, src: 0 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 1,
                    rhs: 1,
                },
                Op::Ret { src: Some(2) },
            ],
            vec![RegClass::Int; 3],
            vec![0],
        );
        let removed = optimize(&mut f);
        assert_eq!(removed, 1, "the mov must die:\n{}", crate::ops::disasm(&f));
        assert!(matches!(f.ops[1], Op::Bin { lhs: 0, rhs: 0, .. }));
    }

    #[test]
    fn copy_map_invalidated_when_source_is_redefined() {
        // r1 = mov r0; r0 = const; r2 = r1 + r1 — r1 must NOT become r0.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Mov { dst: 1, src: 0 },
                Op::Const { dst: 0, idx: 0 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 1,
                    rhs: 1,
                },
                Op::Ret { src: Some(2) },
            ],
            vec![RegClass::Int; 3],
            vec![0],
        );
        optimize(&mut f);
        let bin = f.ops.iter().find(|o| matches!(o, Op::Bin { .. })).unwrap();
        assert!(matches!(bin, Op::Bin { lhs: 1, rhs: 1, .. }), "{bin:?}");
    }

    #[test]
    fn dead_division_survives() {
        // r2 = r0 / r1 is dead but may trap on r1 == 0: it must be kept.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Bin {
                    op: BinOpKind::SDiv,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 0,
                    rhs: 1,
                },
                Op::Ret { src: Some(0) },
            ],
            vec![RegClass::Int; 3],
            vec![0],
        );
        optimize(&mut f);
        assert!(
            f.ops.iter().any(|o| matches!(
                o,
                Op::Bin {
                    op: BinOpKind::SDiv,
                    ..
                }
            )),
            "dead sdiv was deleted:\n{}",
            crate::ops::disasm(&f)
        );
    }

    #[test]
    fn loop_carried_writeback_is_coalesced() {
        // Loop body: r2 = r1 + r0; r1 = mov r2; r3 = r0 < r0; br r3.
        // The Bin must absorb the Mov (write r1 directly) and the Cmp must
        // fuse into the branch. (The compare deliberately avoids r1/r2:
        // copy propagation would rewrite a read of r1 into r2, keeping r2
        // live past the Mov and rightly blocking the coalesce.)
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Jmp { target: 3 },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 1,
                    rhs: 0,
                },
                Op::Mov { dst: 1, src: 2 },
                Op::Cmp {
                    pred: CmpPred::Slt,
                    ty: IrType::I64,
                    dst: 3,
                    lhs: 0,
                    rhs: 0,
                },
                Op::Br {
                    cond: 3,
                    then_t: 3,
                    else_t: 7,
                },
                Op::Ret { src: Some(1) },
            ],
            vec![RegClass::Int; 4],
            vec![0, 3, 7],
        );
        let removed = optimize(&mut f);
        assert_eq!(removed, 2, "{}", crate::ops::disasm(&f));
        assert!(
            f.ops.iter().any(|o| matches!(
                o,
                Op::Bin {
                    dst: 1,
                    lhs: 1,
                    rhs: 0,
                    ..
                }
            )),
            "{}",
            crate::ops::disasm(&f)
        );
        assert!(!f.ops.iter().any(|o| matches!(o, Op::Mov { .. })));
        assert!(crate::verify::verify_function(&f, 1).is_empty());
    }

    #[test]
    fn cmp_feeding_branch_is_fused() {
        // Loop: r1 += r0; r2 = r1 < r0; br r2 ? loop : exit.
        let mut f = func(
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
                    pred: CmpPred::Slt,
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
            vec![RegClass::Int; 3],
            vec![0, 3, 6],
        );
        let removed = optimize(&mut f);
        // The Cmp dies into the fused op. (The entry Jmp stays: its target
        // also has the loop backedge, so the blocks cannot merge.)
        assert_eq!(removed, 1, "{}", crate::ops::disasm(&f));
        assert!(f.ops.iter().any(|o| matches!(
            o,
            Op::CmpBr {
                pred: CmpPred::Slt,
                then_t: 3,
                else_t: 5,
                ..
            }
        )));
        assert!(!f
            .ops
            .iter()
            .any(|o| matches!(o, Op::Cmp { .. } | Op::Br { .. })));
        // Block structure stays verifier-clean after the remap.
        assert!(crate::verify::verify_function(&f, 1).is_empty());
    }

    #[test]
    fn latch_bin_fuses_into_backedge_jump() {
        // header: cmpbr → body | exit; body: r1 += r0; jmp header.
        // The backedge cannot be elided (the header has two predecessors),
        // so the latch Bin must fuse into it.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Const { dst: 1, idx: 0 },
                Op::Jmp { target: 3 },
                Op::CmpBr {
                    pred: CmpPred::Slt,
                    ty: IrType::I64,
                    lhs: 1,
                    rhs: 0,
                    then_t: 4,
                    else_t: 6,
                },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 1,
                    lhs: 1,
                    rhs: 0,
                },
                Op::Jmp { target: 3 },
                Op::Ret { src: Some(1) },
            ],
            vec![RegClass::Int; 2],
            vec![0, 3, 4, 6],
        );
        let removed = optimize(&mut f);
        assert_eq!(removed, 1, "{}", crate::ops::disasm(&f));
        assert!(
            f.ops.iter().any(|o| matches!(
                o,
                Op::BinJmp {
                    op: BinOpKind::Add,
                    dst: 1,
                    target: 3,
                    ..
                }
            )),
            "{}",
            crate::ops::disasm(&f)
        );
        assert!(!f.ops.iter().any(|o| matches!(o, Op::Bin { .. })));
        assert!(crate::verify::verify_function(&f, 1).is_empty());
    }

    #[test]
    fn fallthrough_jump_with_other_predecessor_is_kept() {
        // Block 1 is both the fallthrough of block 0 *and* a branch target
        // from block 2 — the jmp cannot be elided.
        let mut f = func(
            vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Jmp { target: 2 },
                Op::Const { dst: 1, idx: 0 },
                Op::Ret { src: Some(1) },
                Op::Jmp { target: 2 },
            ],
            vec![RegClass::Int; 2],
            vec![0, 2, 4],
        );
        optimize(&mut f);
        assert!(
            f.ops.iter().filter(|o| matches!(o, Op::Jmp { .. })).count() >= 2,
            "jmp into a shared block was elided:\n{}",
            crate::ops::disasm(&f)
        );
    }
}
