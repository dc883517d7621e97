//! # omplt-ir
//!
//! An LLVM-like typed intermediate representation plus an [`IrBuilder`] in
//! the spirit of `llvm::IRBuilder`: it appends instructions after the current
//! insertion point and performs on-the-fly algebraic simplification so that
//! "instructions that would later be optimized away anyway" are never created
//! (paper §1.3).
//!
//! Layout follows the index-arena idiom: a [`Function`] owns flat `Vec`
//! arenas of instructions and basic blocks addressed by [`InstId`]/[`BlockId`],
//! and values are the small `Copy` enum [`Value`]. Loop metadata
//! ([`LoopMetadata`], the analogue of `llvm.loop.unroll.*`) attaches to the
//! latch terminator and is consumed by the mid-end `LoopUnroll` pass.

pub mod builder;
pub mod function;
pub mod inst;
pub mod metadata;
pub mod module;
pub mod printer;
pub mod types;
pub mod value;
pub mod verifier;

pub use builder::{eval_icmp, fold_bin, IrBuilder};
pub use function::{BlockData, BlockId, Function, InstId};
pub use inst::{BinOpKind, Callee, CastOp, CmpPred, Inst, Terminator};
pub use metadata::{LoopMetadata, UnrollHint};
pub use module::{ExternFn, GlobalVar, Module};
pub use printer::{print_function, print_module, printed_len, write_module};
pub use types::IrType;
pub use value::{SymbolId, Value};
pub use verifier::{assert_verified, verify_function, verify_module, VerifyError};
