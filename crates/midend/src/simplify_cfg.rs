//! CFG simplification: sweeps the unreachable scaffolding that loop
//! transformations abandon (paper §3.2: transformations may "abandon the old
//! handles"), folds constant conditional branches, and merges straight-line
//! block chains.

use omplt_ir::{BlockData, BlockId, Function, Inst, Terminator, Value};

/// Runs CFG cleanup to a fixpoint. Returns true if anything changed.
pub fn simplify_cfg(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let mut local = false;
        local |= fold_const_branches(f);
        local |= remove_unreachable(f);
        local |= merge_chains(f);
        if !local {
            return changed;
        }
        changed = true;
    }
}

/// `br i1 true/false` → unconditional branch.
fn fold_const_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        if let Some(Terminator::CondBr {
            cond: Value::ConstInt { val, .. },
            then_bb,
            else_bb,
            loop_md,
        }) = &b.term
        {
            let target = if *val != 0 { *then_bb } else { *else_bb };
            b.term = Some(Terminator::Br {
                target,
                loop_md: *loop_md,
            });
            changed = true;
        }
    }
    changed
}

/// Drops blocks unreachable from the entry, remapping ids.
fn remove_unreachable(f: &mut Function) -> bool {
    let reachable = {
        let mut r = vec![false; f.blocks.len()];
        for b in f.reverse_postorder() {
            r[b.0 as usize] = true;
        }
        r
    };
    if reachable.iter().all(|&x| x) {
        return false;
    }
    // Build the remap table.
    let mut remap = vec![BlockId(u32::MAX); f.blocks.len()];
    let mut kept: Vec<BlockData> = Vec::new();
    let blocks = std::mem::take(&mut f.blocks);
    for (i, b) in blocks.into_iter().enumerate() {
        if reachable[i] {
            remap[i] = BlockId(kept.len() as u32);
            kept.push(b);
        }
    }
    f.blocks = kept;
    // Rewrite targets and phi incoming lists.
    let kept_ids: Vec<BlockId> = (0..f.blocks.len() as u32).map(BlockId).collect();
    for &bb in &kept_ids {
        if let Some(t) = f.blocks[bb.0 as usize].term.as_mut() {
            t.map_blocks(|old| remap[old.0 as usize]);
        }
        let insts = f.blocks[bb.0 as usize].insts.clone();
        for iid in insts {
            if let Inst::Phi { incoming, .. } = f.inst_mut(iid) {
                incoming.retain(|(from, _)| reachable[from.0 as usize]);
                for (from, _) in incoming.iter_mut() {
                    *from = remap[from.0 as usize];
                }
            }
        }
    }
    true
}

/// Merges `a → b` when `a` ends in an unconditional branch to `b`, `b` has
/// exactly one predecessor and no phis, and `a`'s branch carries no loop
/// metadata (latches must stay intact for the unroll pass).
///
/// One pass in block order, with incoming-edge counts kept current: a merge
/// into `a` can make only `a` itself mergeable again (it inherits `b`'s
/// terminator), never an earlier block, so this performs the same merges in
/// the same order as rescanning from the entry after every merge.
fn merge_chains(f: &mut Function) -> bool {
    let mut npreds = vec![0u32; f.blocks.len()];
    for b in &f.blocks {
        if let Some(t) = &b.term {
            for s in t.successors() {
                npreds[s.0 as usize] += 1;
            }
        }
    }
    let mut changed = false;
    for ai in 0..f.blocks.len() {
        let a = BlockId(ai as u32);
        while let Some(Terminator::Br {
            target: b,
            loop_md: None,
        }) = f.blocks[ai].term
        {
            if b == a || npreds[b.0 as usize] != 1 {
                break;
            }
            let b_has_phi = f
                .block(b)
                .insts
                .first()
                .is_some_and(|&i| matches!(f.inst(i), Inst::Phi { .. }));
            if b_has_phi {
                break;
            }
            // Splice b into a. The edge a → b disappears; b's outgoing edges
            // move to a, so no other count changes.
            let b_insts = std::mem::take(&mut f.blocks[b.0 as usize].insts);
            let b_term = f.blocks[b.0 as usize].term.take();
            f.blocks[b.0 as usize].term = Some(Terminator::Unreachable);
            f.blocks[ai].insts.extend(b_insts);
            f.blocks[ai].term = b_term;
            npreds[b.0 as usize] -= 1;
            // Phis in b's former successors must re-point their edges to a.
            let succs: Vec<BlockId> = f.blocks[ai]
                .term
                .as_ref()
                .map_or_else(Vec::new, |t| t.successors());
            for s in succs {
                let insts = f.block(s).insts.clone();
                for iid in insts {
                    if let Inst::Phi { incoming, .. } = f.inst_mut(iid) {
                        for (from, _) in incoming.iter_mut() {
                            if *from == b {
                                *from = a;
                            }
                        }
                    }
                }
            }
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt_ir::{assert_verified, IrBuilder, IrType};

    #[test]
    fn removes_unreachable_blocks() {
        let mut f = Function::new("t", vec![], IrType::Void);
        let dead = f.add_block("dead");
        f.block_mut(dead).term = Some(Terminator::Ret(None));
        f.block_mut(f.entry()).term = Some(Terminator::Ret(None));
        assert!(simplify_cfg(&mut f));
        assert_eq!(f.blocks.len(), 1);
        assert_verified(&f);
    }

    #[test]
    fn folds_constant_branches_then_sweeps() {
        let mut f = Function::new("t", vec![], IrType::Void);
        let taken = f.add_block("taken");
        let dead = f.add_block("dead");
        f.block_mut(f.entry()).term = Some(Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: taken,
            else_bb: dead,
            loop_md: None,
        });
        f.block_mut(taken).term = Some(Terminator::Ret(None));
        f.block_mut(dead).term = Some(Terminator::Ret(None));
        assert!(simplify_cfg(&mut f));
        // entry+taken merged, dead swept
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(
            f.block(f.entry()).term,
            Some(Terminator::Ret(None))
        ));
    }

    #[test]
    fn merges_straight_chains_but_keeps_latches() {
        use omplt_ir::{LoopMetadata, UnrollHint};
        let mut f = Function::new("t", vec![], IrType::Void);
        let mid = f.add_block("mid");
        let end = f.add_block("end");
        {
            let mut b = IrBuilder::new(&mut f);
            b.br(mid);
            b.set_insert_point(mid);
            let p = b.alloca(IrType::I64, 1, "x");
            b.store(Value::i64(1), p);
            // metadata-carrying branch must NOT be merged away
            b.br_with_md(end, LoopMetadata::unroll(UnrollHint::Count(2)));
            b.set_insert_point(end);
            b.ret(None);
        }
        simplify_cfg(&mut f);
        // entry+mid merged; end survives because the branch has metadata.
        assert_eq!(f.blocks.len(), 2);
        let t = f.block(f.entry()).term.as_ref().unwrap();
        assert!(t.loop_md().is_some(), "metadata must survive the merge");
        assert_verified(&f);
    }

    #[test]
    fn phi_edges_follow_merges() {
        let mut f = Function::new("t", vec![], IrType::Void);
        // entry → a → join ; entry → join   with a phi in join
        let a = f.add_block("a");
        let pre_join = f.add_block("pre_join");
        let join = f.add_block("join");
        {
            let mut b = IrBuilder::new(&mut f);
            let c_ptr = b.alloca(IrType::I1, 1, "c");
            let c = b.load(IrType::I1, c_ptr);
            b.cond_br(c, a, pre_join);
            b.set_insert_point(a);
            b.br(join);
            b.set_insert_point(pre_join);
            // pre_join is a trivial hop that will merge into... it has one
            // pred (entry) but entry's terminator is conditional, so it
            // stays; instead a → join may merge if join had one pred — it
            // has two. Build the phi and check edges stay valid.
            b.br(join);
            b.set_insert_point(join);
            let (_, phi) = b.phi(IrType::I64);
            b.add_phi_incoming(phi, a, Value::i64(1));
            b.add_phi_incoming(phi, pre_join, Value::i64(2));
            b.ret(None);
        }
        simplify_cfg(&mut f);
        assert_verified(&f);
    }
}
