//! Instruction and terminator definitions.

use crate::function::BlockId;
use crate::metadata::LoopMetadata;
use crate::types::IrType;
use crate::value::{SymbolId, Value};

/// Integer/float binary operation kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum BinOpKind {
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    Shl,
    AShr,
    LShr,
    And,
    Or,
    Xor,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FRem,
}

impl BinOpKind {
    /// LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOpKind::Add => "add",
            BinOpKind::Sub => "sub",
            BinOpKind::Mul => "mul",
            BinOpKind::SDiv => "sdiv",
            BinOpKind::UDiv => "udiv",
            BinOpKind::SRem => "srem",
            BinOpKind::URem => "urem",
            BinOpKind::Shl => "shl",
            BinOpKind::AShr => "ashr",
            BinOpKind::LShr => "lshr",
            BinOpKind::And => "and",
            BinOpKind::Or => "or",
            BinOpKind::Xor => "xor",
            BinOpKind::FAdd => "fadd",
            BinOpKind::FSub => "fsub",
            BinOpKind::FMul => "fmul",
            BinOpKind::FDiv => "fdiv",
            BinOpKind::FRem => "frem",
        }
    }

    /// True for the floating-point ops.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOpKind::FAdd | BinOpKind::FSub | BinOpKind::FMul | BinOpKind::FDiv | BinOpKind::FRem
        )
    }
}

/// Comparison predicates (`icmp`/`fcmp`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum CmpPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
    FEq,
    FNe,
    FLt,
    FLe,
    FGt,
    FGe,
}

impl CmpPred {
    /// LLVM mnemonic (without the `icmp`/`fcmp` prefix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Slt => "slt",
            CmpPred::Sle => "sle",
            CmpPred::Sgt => "sgt",
            CmpPred::Sge => "sge",
            CmpPred::Ult => "ult",
            CmpPred::Ule => "ule",
            CmpPred::Ugt => "ugt",
            CmpPred::Uge => "uge",
            CmpPred::FEq => "oeq",
            CmpPred::FNe => "one",
            CmpPred::FLt => "olt",
            CmpPred::FLe => "ole",
            CmpPred::FGt => "ogt",
            CmpPred::FGe => "oge",
        }
    }

    /// True for the floating-point predicates.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            CmpPred::FEq | CmpPred::FNe | CmpPred::FLt | CmpPred::FLe | CmpPred::FGt | CmpPred::FGe
        )
    }
}

/// Cast operation kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum CastOp {
    Trunc,
    ZExt,
    SExt,
    SiToFp,
    UiToFp,
    FpToSi,
    FpToUi,
    FpTrunc,
    FpExt,
    PtrToInt,
    IntToPtr,
}

impl CastOp {
    /// LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Trunc => "trunc",
            CastOp::ZExt => "zext",
            CastOp::SExt => "sext",
            CastOp::SiToFp => "sitofp",
            CastOp::UiToFp => "uitofp",
            CastOp::FpToSi => "fptosi",
            CastOp::FpToUi => "fptoui",
            CastOp::FpTrunc => "fptrunc",
            CastOp::FpExt => "fpext",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
        }
    }
}

/// Who a call targets. All symbols live in the module's interner; the
/// interpreter resolves module-defined functions first, then the OpenMP/IO
/// runtime shims.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Callee(pub SymbolId);

/// A non-terminator instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// Stack allocation of `count` elements of `ty`; yields `ptr`.
    Alloca {
        /// Element type.
        ty: IrType,
        /// Number of elements.
        count: u64,
        /// Debug name of the variable this backs.
        name: String,
    },
    /// Typed load.
    Load {
        /// Loaded type.
        ty: IrType,
        /// Address.
        ptr: Value,
    },
    /// Typed store.
    Store {
        /// Stored value.
        val: Value,
        /// Address.
        ptr: Value,
    },
    /// Pointer arithmetic: `ptr + index * elem_size` (byte-scaled GEP).
    Gep {
        /// Base pointer.
        ptr: Value,
        /// Element index (any integer type; sign-extended).
        index: Value,
        /// Element size in bytes.
        elem_size: u64,
    },
    /// Binary operation; the result type is the operand type.
    Bin {
        /// Operation.
        op: BinOpKind,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Comparison; yields `i1`.
    Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Left operand.
        lhs: Value,
        /// Right operand.
        rhs: Value,
    },
    /// Conversion.
    Cast {
        /// Operation.
        op: CastOp,
        /// Operand.
        val: Value,
        /// Destination type.
        to: IrType,
    },
    /// `cond ? t : f`.
    Select {
        /// `i1` condition.
        cond: Value,
        /// Value if true.
        t: Value,
        /// Value if false.
        f: Value,
    },
    /// SSA phi. Incoming edges may be extended while the skeleton is being
    /// built (`IrBuilder::add_phi_incoming`).
    Phi {
        /// Value type.
        ty: IrType,
        /// `(predecessor, value)` pairs.
        incoming: Vec<(BlockId, Value)>,
    },
    /// Function call.
    Call {
        /// Target.
        callee: Callee,
        /// Arguments.
        args: Vec<Value>,
        /// Return type.
        ty: IrType,
    },
}

impl Inst {
    /// The type of the instruction's result (`Void` for `store`).
    pub fn result_type(&self, value_type: impl Fn(Value) -> IrType) -> IrType {
        match self {
            Inst::Alloca { .. } | Inst::Gep { .. } => IrType::Ptr,
            Inst::Load { ty, .. } | Inst::Phi { ty, .. } | Inst::Call { ty, .. } => *ty,
            Inst::Store { .. } => IrType::Void,
            Inst::Bin { lhs, .. } => value_type(*lhs),
            Inst::Cmp { .. } => IrType::I1,
            Inst::Cast { to, .. } => *to,
            Inst::Select { t, .. } => value_type(*t),
        }
    }

    /// All value operands (for remapping during cloning).
    pub fn operands(&self) -> Vec<Value> {
        let mut ops = Vec::new();
        self.for_each_operand(|v| ops.push(v));
        ops
    }

    /// Visits every value operand, in [`Inst::operands`] order, without
    /// allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Inst::Alloca { .. } => {}
            Inst::Load { ptr, .. } => f(*ptr),
            Inst::Store { val, ptr } => {
                f(*val);
                f(*ptr);
            }
            Inst::Gep { ptr, index, .. } => {
                f(*ptr);
                f(*index);
            }
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Cast { val, .. } => f(*val),
            Inst::Select { cond, t, f: fv } => {
                f(*cond);
                f(*t);
                f(*fv);
            }
            Inst::Phi { incoming, .. } => incoming.iter().for_each(|&(_, v)| f(v)),
            Inst::Call { args, .. } => args.iter().for_each(|&v| f(v)),
        }
    }

    /// Rewrites every operand through `f` (used by block cloning in the
    /// unroll pass).
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Inst::Alloca { .. } => {}
            Inst::Load { ptr, .. } => *ptr = f(*ptr),
            Inst::Store { val, ptr } => {
                *val = f(*val);
                *ptr = f(*ptr);
            }
            Inst::Gep { ptr, index, .. } => {
                *ptr = f(*ptr);
                *index = f(*index);
            }
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Cast { val, .. } => *val = f(*val),
            Inst::Select { cond, t, f: fv } => {
                *cond = f(*cond);
                *t = f(*t);
                *fv = f(*fv);
            }
            Inst::Phi { incoming, .. } => {
                for (_, v) in incoming.iter_mut() {
                    *v = f(*v);
                }
            }
            Inst::Call { args, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
        }
    }
}

/// A basic-block terminator.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional branch. May carry loop metadata when it is a latch.
    Br {
        /// Target block.
        target: BlockId,
        /// Loop metadata (latch branches only).
        loop_md: Option<LoopMetadata>,
    },
    /// Conditional branch.
    CondBr {
        /// `i1` condition.
        cond: Value,
        /// Taken when true.
        then_bb: BlockId,
        /// Taken when false.
        else_bb: BlockId,
        /// Loop metadata (latch branches only).
        loop_md: Option<LoopMetadata>,
    },
    /// Function return.
    Ret(Option<Value>),
    /// Unreachable.
    Unreachable,
}

impl Terminator {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        let mut succs = Vec::new();
        self.for_each_successor(|s| succs.push(s));
        succs
    }

    /// Visits the successor blocks, in [`Terminator::successors`] order,
    /// without allocating.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Terminator::Br { target, .. } => f(*target),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                f(*then_bb);
                f(*else_bb);
            }
            Terminator::Ret(_) | Terminator::Unreachable => {}
        }
    }

    /// Rewrites successor block ids through `f`.
    pub fn map_blocks(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br { target, .. } => *target = f(*target),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            _ => {}
        }
    }

    /// Rewrites value operands through `f`.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Terminator::CondBr { cond, .. } => *cond = f(*cond),
            Terminator::Ret(Some(v)) => *v = f(*v),
            _ => {}
        }
    }

    /// The attached loop metadata, if any.
    pub fn loop_md(&self) -> Option<&LoopMetadata> {
        match self {
            Terminator::Br { loop_md, .. } | Terminator::CondBr { loop_md, .. } => loop_md.as_ref(),
            _ => None,
        }
    }

    /// Mutable access to the metadata slot.
    pub fn loop_md_mut(&mut self) -> Option<&mut Option<LoopMetadata>> {
        match self {
            Terminator::Br { loop_md, .. } | Terminator::CondBr { loop_md, .. } => Some(loop_md),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successors() {
        let b = Terminator::Br {
            target: BlockId(3),
            loop_md: None,
        };
        assert_eq!(b.successors(), vec![BlockId(3)]);
        let c = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            loop_md: None,
        };
        assert_eq!(c.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn operand_mapping() {
        let mut i = Inst::Bin {
            op: BinOpKind::Add,
            lhs: Value::i32(1),
            rhs: Value::i32(2),
        };
        i.map_operands(|v| match v.as_const_int() {
            Some(n) => Value::i32(n as i32 * 10),
            None => v,
        });
        assert_eq!(i.operands(), vec![Value::i32(10), Value::i32(20)]);
    }

    #[test]
    fn result_types() {
        let vt = |_v: Value| IrType::I32;
        assert_eq!(
            Inst::Cmp {
                pred: CmpPred::Ult,
                lhs: Value::i32(0),
                rhs: Value::i32(1)
            }
            .result_type(vt),
            IrType::I1
        );
        assert_eq!(
            Inst::Alloca {
                ty: IrType::I32,
                count: 1,
                name: String::new()
            }
            .result_type(vt),
            IrType::Ptr
        );
        assert_eq!(
            Inst::Store {
                val: Value::i32(0),
                ptr: Value::Undef(IrType::Ptr)
            }
            .result_type(vt),
            IrType::Void
        );
    }

    #[test]
    fn terminator_metadata_slot() {
        let mut t = Terminator::Br {
            target: BlockId(0),
            loop_md: None,
        };
        *t.loop_md_mut().unwrap() = Some(LoopMetadata::unroll(crate::metadata::UnrollHint::Full));
        assert!(t.loop_md().unwrap().unroll.is_some());
        assert!(Terminator::Ret(None).loop_md().is_none());
    }
}
