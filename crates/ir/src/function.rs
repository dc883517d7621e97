//! Functions and basic blocks as index arenas (flat `Vec`s addressed by
//! typed ids — the allocation-friendly layout the performance guide
//! recommends for graph-shaped IRs).

use crate::inst::{Inst, Terminator};
use crate::types::IrType;
use crate::value::Value;

/// Index of an instruction within its function.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Index of a basic block within its function.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// One basic block: an ordered list of instruction ids plus a terminator.
#[derive(Clone, Debug)]
pub struct BlockData {
    /// Debug name (`preheader`, `header`, `body`, …).
    pub name: String,
    /// Instructions in execution order.
    pub insts: Vec<InstId>,
    /// The terminator; `None` only while the block is under construction.
    pub term: Option<Terminator>,
}

/// A function under construction or completed.
#[derive(Clone, Debug)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<IrType>,
    /// Return type.
    pub ret: IrType,
    /// Instruction arena.
    pub insts: Vec<Inst>,
    /// Block arena; `blocks[0]` is the entry block.
    pub blocks: Vec<BlockData>,
}

impl Function {
    /// Creates a function with an (empty) entry block.
    pub fn new(name: impl Into<String>, params: Vec<IrType>, ret: IrType) -> Function {
        Function {
            name: name.into(),
            params,
            ret,
            insts: Vec::new(),
            blocks: vec![BlockData {
                name: "entry".into(),
                insts: Vec::new(),
                term: None,
            }],
        }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Appends a new empty block.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            name: name.into(),
            insts: Vec::new(),
            term: None,
        });
        id
    }

    /// Appends an instruction to a block, returning its value.
    pub fn push_inst(&mut self, bb: BlockId, inst: Inst) -> Value {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        self.blocks[bb.0 as usize].insts.push(id);
        Value::Inst(id)
    }

    /// Inserts an instruction at the *front* of a block (after any phis).
    /// Used by worksharing to shift the induction variable before body code.
    pub fn prepend_inst(&mut self, bb: BlockId, inst: Inst) -> Value {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(inst);
        let list = &mut self.blocks[bb.0 as usize].insts;
        let at = list
            .iter()
            .position(|&i| !matches!(self.insts[i.0 as usize], Inst::Phi { .. }))
            .unwrap_or(list.len());
        list.insert(at, id);
        Value::Inst(id)
    }

    /// Accesses a block.
    pub fn block(&self, bb: BlockId) -> &BlockData {
        &self.blocks[bb.0 as usize]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, bb: BlockId) -> &mut BlockData {
        &mut self.blocks[bb.0 as usize]
    }

    /// Accesses an instruction.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.0 as usize]
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.0 as usize]
    }

    /// The type of any value in this function's context.
    pub fn value_type(&self, v: Value) -> IrType {
        match v {
            Value::Inst(id) => {
                let inst = self.inst(id);
                inst.result_type(|op| self.value_type(op))
            }
            Value::Arg(i) => self.params[i as usize],
            Value::ConstInt { ty, .. } | Value::ConstFloat { ty, .. } | Value::Undef(ty) => ty,
            Value::Global(_) | Value::FuncRef(_) => IrType::Ptr,
        }
    }

    /// Successors of a block (empty while unterminated).
    pub fn successors(&self, bb: BlockId) -> Vec<BlockId> {
        self.block(bb)
            .term
            .as_ref()
            .map_or_else(Vec::new, |t| t.successors())
    }

    /// Computes the predecessor lists of every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            if let Some(t) = &b.term {
                t.for_each_successor(|s| preds[s.0 as usize].push(BlockId(i as u32)));
            }
        }
        preds
    }

    /// Blocks reachable from entry, in reverse-postorder.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS with an explicit "exit" marker stack.
        let mut stack: Vec<(BlockId, bool)> = vec![(self.entry(), false)];
        while let Some((bb, processed)) = stack.pop() {
            if processed {
                post.push(bb);
                continue;
            }
            if visited[bb.0 as usize] {
                continue;
            }
            visited[bb.0 as usize] = true;
            stack.push((bb, true));
            if let Some(t) = &self.block(bb).term {
                t.for_each_successor(|s| {
                    if !visited[s.0 as usize] {
                        stack.push((s, false));
                    }
                });
            }
        }
        post.reverse();
        post
    }

    /// Number of instructions reachable in any block (simple size metric for
    /// heuristics).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOpKind;

    fn sample() -> Function {
        // entry -> a -> b ; entry -> b
        let mut f = Function::new("f", vec![IrType::I32], IrType::I32);
        let a = f.add_block("a");
        let b = f.add_block("b");
        f.block_mut(f.entry()).term = Some(Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: a,
            else_bb: b,
            loop_md: None,
        });
        f.block_mut(a).term = Some(Terminator::Br {
            target: b,
            loop_md: None,
        });
        f.block_mut(b).term = Some(Terminator::Ret(Some(Value::i32(0))));
        f
    }

    #[test]
    fn preds_and_succs() {
        let f = sample();
        let preds = f.predecessors();
        assert_eq!(f.successors(f.entry()).len(), 2);
        assert_eq!(preds[2].len(), 2); // b has entry and a
        assert_eq!(preds[0].len(), 0);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = sample();
        let rpo = f.reverse_postorder();
        assert_eq!(rpo[0], f.entry());
        assert_eq!(rpo.len(), 3);
        // b must come after a (a branches to b) and after entry
        let pos = |id: BlockId| rpo.iter().position(|&x| x == id).unwrap();
        assert!(pos(BlockId(2)) > pos(BlockId(1)));
    }

    #[test]
    fn value_types() {
        let mut f = Function::new("g", vec![IrType::I64], IrType::Void);
        let e = f.entry();
        let v = f.push_inst(
            e,
            Inst::Bin {
                op: BinOpKind::Add,
                lhs: Value::Arg(0),
                rhs: Value::i64(1),
            },
        );
        assert_eq!(f.value_type(v), IrType::I64);
        assert_eq!(f.value_type(Value::Arg(0)), IrType::I64);
        assert_eq!(f.value_type(Value::bool(false)), IrType::I1);
    }

    #[test]
    fn unreachable_blocks_not_in_rpo() {
        let mut f = sample();
        let dead = f.add_block("dead");
        f.block_mut(dead).term = Some(Terminator::Ret(None));
        assert_eq!(f.reverse_postorder().len(), 3);
    }
}
