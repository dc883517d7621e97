//! IR → bytecode lowering.
//!
//! The interpreter's per-instruction overheads — `Option<RtVal>` frame slots,
//! operand re-`match`ing, recursive `value_type` queries, per-block phi
//! scans — are all paid at *compile* time here instead:
//!
//! * Blocks are linearized in reverse-postorder; branch targets become
//!   instruction offsets.
//! * Every SSA value gets a virtual register; phis are eliminated into edge
//!   copies (with parallel-copy temporaries on multi-phi edges, and critical
//!   edges from conditional branches split via trampoline blocks).
//! * Non-escaping scalar `alloca` slots — the locals C frontends emit for
//!   every variable — are promoted to registers (mem2reg-style), turning the
//!   hottest loads/stores into register moves.
//! * Distinct constants are loaded once in an entry prologue, not per use.
//! * A peephole pass ([`crate::peephole`]) then propagates copies, deletes
//!   dead ops, and fuses compare/branch pairs, and a linear-scan pass
//!   ([`crate::regalloc`]) compacts the register file.
//!
//! Under a trace session each function's three phases show up as
//! `vm.compile.lower`, `vm.compile.peephole` and `vm.compile.regalloc` spans
//! nested in `vm.compile`.

use crate::ops::{CallTarget, Op, PoolConst, Reg, RegClass, VmFunction, VmModule};
use crate::peephole;
use crate::regalloc;
use crate::vectorize;
use omplt_interp::RtVal;
use omplt_ir::{BlockId, Function, Inst, InstId, IrType, Module, Terminator, Value};
use std::collections::HashMap;

/// Why a function could not be lowered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The function needs more than `u16::MAX` registers.
    TooManyRegs {
        /// Function name.
        func: String,
    },
    /// Some table exceeded its encoding width (op stream, constant pool,
    /// call-target table, allocation size, GEP element size).
    TooLarge {
        /// Function name.
        func: String,
        /// Which table overflowed.
        what: String,
    },
    /// Structurally invalid IR reached the lowerer (the IR verifier should
    /// have rejected it earlier).
    Malformed {
        /// Function name.
        func: String,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TooManyRegs { func } => {
                write!(f, "@{func}: register file exceeds 65535 registers")
            }
            CompileError::TooLarge { func, what } => {
                write!(f, "@{func}: {what} exceeds its encoding width")
            }
            CompileError::Malformed { func, what } => write!(f, "@{func}: malformed IR: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles every function of `m` to bytecode. Function order (and therefore
/// [`CallTarget::Bytecode`] indices) follows module order, and call
/// resolution uses the same precedence as the interpreter: module-defined
/// functions first, then runtime shims.
pub fn compile_module(m: &Module) -> Result<VmModule, CompileError> {
    compile_module_with(m, 0)
}

/// [`compile_module`] with the widening pass enabled: `vector_width >= 2`
/// converts eligible `simd`-annotated innermost loops to lane-parallel
/// vector ops at that width (clamped by `safelen`/`simdlen` and dependence
/// distances); `0` or `1` disables the pass entirely.
pub fn compile_module_with(m: &Module, vector_width: u8) -> Result<VmModule, CompileError> {
    let _span = omplt_trace::span("vm.compile");
    omplt_fault::panic_if_armed("vm.panic");
    // First name occurrence wins, matching `Module::function`.
    let mut fn_index: HashMap<&str, u32> = HashMap::new();
    for (i, f) in m.functions.iter().enumerate() {
        fn_index.entry(f.name.as_str()).or_insert(i as u32);
    }
    let mut funcs = Vec::with_capacity(m.functions.len());
    let mut promoted_total = 0u64;
    let mut removed_total = 0u64;
    let mut stats = vectorize::PlanStats::default();
    for f in &m.functions {
        let (vf, promoted, removed) = compile_function(m, f, &fn_index, vector_width, &mut stats)?;
        promoted_total += promoted as u64;
        removed_total += removed as u64;
        funcs.push(vf);
    }
    let vm = VmModule { funcs };
    if omplt_trace::active() {
        omplt_trace::count("vm.compile.functions", vm.funcs.len() as u64);
        omplt_trace::count("vm.compile.ops", vm.num_ops() as u64);
        omplt_trace::count("vm.compile.promoted", promoted_total);
        omplt_trace::count("vm.compile.peephole.removed", removed_total);
        // Emitted only when the pass ran, so width-0 counter documents stay
        // byte-identical to the pre-simd era.
        if vector_width >= 2 {
            omplt_trace::count("vm.simd.widened_loops", stats.widened);
            omplt_trace::count("vm.simd.refused", stats.refused);
        }
    }
    Ok(vm)
}

/// Dedup key for constant-pool entries (`RtVal` holds an `f64`, so the pool
/// itself cannot be a hash key; floats key by bit pattern).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ConstKey {
    Int(i64),
    Float(u64),
    PtrZero,
    Global(u32),
    Fn(u32),
}

/// Maps a constant-like [`Value`] to its dedup key and pool entry. `Undef`
/// lowers to the zero of its class — same observable behaviour as the
/// interpreter (`F(0.0)` for floats, zero bits otherwise).
pub(crate) fn const_of(v: Value) -> Option<(ConstKey, PoolConst)> {
    match v {
        Value::Inst(_) | Value::Arg(_) => None,
        Value::ConstInt { val, .. } => Some((ConstKey::Int(val), PoolConst::Val(RtVal::I(val)))),
        Value::ConstFloat { bits, .. } => Some((
            ConstKey::Float(bits),
            PoolConst::Val(RtVal::F(f64::from_bits(bits))),
        )),
        Value::Global(s) => Some((ConstKey::Global(s.0), PoolConst::Global(s))),
        Value::FuncRef(s) => Some((ConstKey::Fn(s.0), PoolConst::FnPtr(s))),
        Value::Undef(ty) => Some(if ty.is_float() {
            (
                ConstKey::Float(0f64.to_bits()),
                PoolConst::Val(RtVal::F(0.0)),
            )
        } else if ty == IrType::Ptr {
            (ConstKey::PtrZero, PoolConst::Val(RtVal::P(0)))
        } else {
            (ConstKey::Int(0), PoolConst::Val(RtVal::I(0)))
        }),
    }
}

/// Finds the scalar `alloca`s that can live in a register: one element, word
/// or smaller, and used *only* as the direct address of same-typed loads and
/// stores (never as a stored value, call argument, GEP base, or any other
/// operand — those escape the slot and force it to stay in guest memory).
/// The result is indexed by [`InstId`].
fn promotable_allocas(f: &Function, rpo: &[BlockId]) -> Vec<bool> {
    let mut candidates: Vec<Option<IrType>> = vec![None; f.insts.len()];
    let mut any = false;
    for &bb in rpo {
        for &iid in &f.block(bb).insts {
            if let Inst::Alloca { ty, count: 1, .. } = f.inst(iid) {
                if *ty != IrType::Void && (1..=8).contains(&ty.size()) {
                    candidates[iid.0 as usize] = Some(*ty);
                    any = true;
                }
            }
        }
    }
    if !any {
        return vec![false; f.insts.len()];
    }
    let disqualify = |candidates: &mut [Option<IrType>], v: Value| {
        if let Value::Inst(id) = v {
            candidates[id.0 as usize] = None;
        }
    };
    for &bb in rpo {
        for &iid in &f.block(bb).insts {
            match f.inst(iid) {
                Inst::Load { ty, ptr } => {
                    if let Value::Inst(a) = ptr {
                        if candidates[a.0 as usize].is_some_and(|aty| aty != *ty) {
                            candidates[a.0 as usize] = None;
                        }
                    }
                }
                Inst::Store { val, ptr } => {
                    disqualify(&mut candidates, *val);
                    if let Value::Inst(a) = ptr {
                        if candidates[a.0 as usize].is_some_and(|aty| aty != f.value_type(*val)) {
                            candidates[a.0 as usize] = None;
                        }
                    }
                }
                other => other.for_each_operand(|v| disqualify(&mut candidates, v)),
            }
        }
        if let Some(t) = &f.block(bb).term {
            match t {
                Terminator::CondBr { cond, .. } => disqualify(&mut candidates, *cond),
                Terminator::Ret(Some(v)) => disqualify(&mut candidates, *v),
                _ => {}
            }
        }
    }
    candidates.iter().map(Option::is_some).collect()
}

/// Jump-target placeholder, patched once every block offset is known.
enum Fixup {
    /// `Jmp` at this op index targets the given IR block.
    Jmp(usize, BlockId),
    /// `Br` at this op index: the true (`then`) or false arm targets the
    /// given IR block directly (no trampoline needed).
    BrArm(usize, bool, BlockId),
}

pub(crate) struct FuncCompiler<'a> {
    m: &'a Module,
    pub(crate) f: &'a Function,
    fn_index: &'a HashMap<&'a str, u32>,
    /// Which `alloca`s live in a register, indexed by [`InstId`].
    pub(crate) promotable: Vec<bool>,
    /// The slot register of each promoted `alloca`, indexed by [`InstId`].
    pub(crate) promoted: Vec<Option<Reg>>,
    pub(crate) vreg_class: Vec<RegClass>,
    /// The register of each value-producing instruction, indexed by
    /// [`InstId`].
    pub(crate) inst_reg: Vec<Option<Reg>>,
    pub(crate) const_reg: HashMap<ConstKey, Reg>,
    pub(crate) pool: Vec<PoolConst>,
    pool_idx: HashMap<ConstKey, u16>,
    pub(crate) ops: Vec<Op>,
    call_args: Vec<Reg>,
    call_targets: Vec<CallTarget>,
    target_idx: HashMap<CallTarget, u16>,
    block_starts: Vec<u32>,
    block_off: Vec<Option<u32>>,
    fixups: Vec<Fixup>,
    /// Vector register classes (one per vector register).
    pub(crate) vv_class: Vec<RegClass>,
    /// Vector register widths, parallel to `vv_class`.
    pub(crate) vv_width: Vec<u8>,
    /// Widened-loop latch blocks mapped to their *scalar* header offset:
    /// the backedge must re-enter the scalar epilogue loop, not the vector
    /// preamble the header's block offset points at.
    pub(crate) latch_redirect: HashMap<u32, u32>,
}

impl<'a> FuncCompiler<'a> {
    pub(crate) fn err_large(&self, what: &str) -> CompileError {
        CompileError::TooLarge {
            func: self.f.name.clone(),
            what: what.to_string(),
        }
    }

    pub(crate) fn new_vreg(&mut self, class: RegClass) -> Result<Reg, CompileError> {
        if self.vreg_class.len() >= u16::MAX as usize {
            return Err(CompileError::TooManyRegs {
                func: self.f.name.clone(),
            });
        }
        let r = self.vreg_class.len() as Reg;
        self.vreg_class.push(class);
        Ok(r)
    }

    /// Interns a constant: pool entry plus the prologue-loaded register.
    fn const_vreg(&mut self, key: ConstKey, entry: PoolConst) -> Result<Reg, CompileError> {
        if let Some(&r) = self.const_reg.get(&key) {
            return Ok(r);
        }
        if self.pool.len() >= u16::MAX as usize {
            return Err(self.err_large("constant pool"));
        }
        let idx = self.pool.len() as u16;
        self.pool.push(entry);
        self.pool_idx.insert(key, idx);
        let r = self.new_vreg(entry.class())?;
        self.const_reg.insert(key, r);
        Ok(r)
    }

    /// Allocates a vector register of the given class and lane width.
    pub(crate) fn new_vvreg(&mut self, class: RegClass, w: u8) -> Result<Reg, CompileError> {
        if self.vv_class.len() >= u16::MAX as usize {
            return Err(CompileError::TooManyRegs {
                func: self.f.name.clone(),
            });
        }
        let r = self.vv_class.len() as Reg;
        self.vv_class.push(class);
        self.vv_width.push(w);
        Ok(r)
    }

    /// A constant register usable *after* the prologue has been emitted:
    /// reuses the prologue-loaded register when the pool already holds the
    /// constant, otherwise appends a pool entry and materializes it with an
    /// `Op::Const` at the current emission point. Callers must ensure that
    /// point dominates every use (the widener only calls this from a loop
    /// preamble).
    pub(crate) fn inline_const(
        &mut self,
        key: ConstKey,
        entry: PoolConst,
    ) -> Result<Reg, CompileError> {
        if let Some(&r) = self.const_reg.get(&key) {
            return Ok(r);
        }
        if self.pool.len() >= u16::MAX as usize {
            return Err(self.err_large("constant pool"));
        }
        let idx = self.pool.len() as u16;
        self.pool.push(entry);
        let dst = self.new_vreg(entry.class())?;
        self.ops.push(Op::Const { dst, idx });
        Ok(dst)
    }

    /// The register holding `v` (instruction result, argument, or
    /// prologue-loaded constant).
    pub(crate) fn reg_of(&mut self, v: Value) -> Result<Reg, CompileError> {
        match v {
            Value::Inst(id) => self
                .inst_reg
                .get(id.0 as usize)
                .copied()
                .flatten()
                .ok_or_else(|| CompileError::Malformed {
                    func: self.f.name.clone(),
                    what: format!("use of void or promoted value %{}", id.0),
                }),
            Value::Arg(i) => {
                if (i as usize) < self.f.params.len() {
                    Ok(i as Reg)
                } else {
                    Err(CompileError::Malformed {
                        func: self.f.name.clone(),
                        what: format!("argument {i} out of range"),
                    })
                }
            }
            other => {
                let (key, entry) = const_of(other).expect("non-ssa value is a constant");
                self.const_vreg(key, entry)
            }
        }
    }

    /// The register of an instruction that produces a value.
    pub(crate) fn inst_reg(&self, iid: InstId) -> Reg {
        self.inst_reg[iid.0 as usize].expect("value-producing instruction has a register")
    }

    pub(crate) fn mark_block_start(&mut self) {
        self.block_starts.push(self.ops.len() as u32);
    }

    /// The phi copies needed on the edge `pred → succ`:
    /// `(phi register, source value)` pairs, in phi order.
    fn edge_pairs(
        &mut self,
        pred: BlockId,
        succ: BlockId,
    ) -> Result<Vec<(Reg, Reg)>, CompileError> {
        let mut pairs = Vec::new();
        for &iid in &self.f.block(succ).insts {
            let Inst::Phi { incoming, .. } = self.f.inst(iid) else {
                break;
            };
            let Some((_, val)) = incoming.iter().find(|(b, _)| *b == pred) else {
                return Err(CompileError::Malformed {
                    func: self.f.name.clone(),
                    what: format!("phi %{} has no edge for predecessor {}", iid.0, pred.0),
                });
            };
            let val = *val;
            let dst = self.inst_reg(iid);
            let src = self.reg_of(val)?;
            pairs.push((dst, src));
        }
        Ok(pairs)
    }

    /// Emits the copies for one edge with simultaneous-assignment semantics:
    /// multi-phi edges go through fresh temporaries (a phi source may itself
    /// be another phi's destination), single copies move directly.
    fn emit_edge_moves(&mut self, pairs: &[(Reg, Reg)]) -> Result<(), CompileError> {
        match pairs {
            [] => {}
            &[(dst, src)] => {
                if dst != src {
                    self.ops.push(Op::Mov { dst, src });
                }
            }
            many => {
                let mut temps = Vec::with_capacity(many.len());
                for &(dst, src) in many {
                    let t = self.new_vreg(self.vreg_class[dst as usize])?;
                    self.ops.push(Op::Mov { dst: t, src });
                    temps.push((dst, t));
                }
                for (dst, t) in temps {
                    self.ops.push(Op::Mov { dst, src: t });
                }
            }
        }
        Ok(())
    }

    fn emit_inst(&mut self, iid: InstId, inst: &Inst) -> Result<(), CompileError> {
        match inst {
            Inst::Phi { .. } => {} // eliminated into edge copies
            Inst::Alloca { ty, count, .. } => {
                if let Some(slot) = self.promoted[iid.0 as usize] {
                    // A fresh alloca is zero-initialized; re-executing the
                    // op (alloca inside a loop) must reset the slot too.
                    let (key, entry) = const_of(Value::Undef(*ty)).expect("undef is a constant");
                    let src = self.const_vreg(key, entry)?;
                    self.ops.push(Op::Mov { dst: slot, src });
                } else {
                    let bytes = ty.size().max(1) * (*count).max(1);
                    let bytes = u32::try_from(bytes).map_err(|_| self.err_large("alloca size"))?;
                    let dst = self.inst_reg(iid);
                    self.ops.push(Op::Alloca { dst, bytes });
                }
            }
            Inst::Load { ty, ptr } => {
                let dst = self.inst_reg(iid);
                if let Value::Inst(a) = ptr {
                    if let Some(slot) = self.promoted[a.0 as usize] {
                        self.ops.push(Op::Mov { dst, src: slot });
                        return Ok(());
                    }
                }
                let addr = self.reg_of(*ptr)?;
                self.ops.push(Op::Load { dst, addr, ty: *ty });
            }
            Inst::Store { val, ptr } => {
                let src = self.reg_of(*val)?;
                if let Value::Inst(a) = ptr {
                    if let Some(slot) = self.promoted[a.0 as usize] {
                        self.ops.push(Op::Mov { dst: slot, src });
                        return Ok(());
                    }
                }
                let ty = self.f.value_type(*val);
                let addr = self.reg_of(*ptr)?;
                self.ops.push(Op::Store { src, addr, ty });
            }
            Inst::Gep {
                ptr,
                index,
                elem_size,
            } => {
                let elem_size =
                    u32::try_from(*elem_size).map_err(|_| self.err_large("gep element size"))?;
                let dst = self.inst_reg(iid);
                let base = self.reg_of(*ptr)?;
                let index = self.reg_of(*index)?;
                self.ops.push(Op::Gep {
                    dst,
                    base,
                    index,
                    elem_size,
                });
            }
            Inst::Bin { op, lhs, rhs } => {
                let ty = self.f.value_type(*lhs);
                let dst = self.inst_reg(iid);
                let lhs = self.reg_of(*lhs)?;
                let rhs = self.reg_of(*rhs)?;
                self.ops.push(Op::Bin {
                    op: *op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                });
            }
            Inst::Cmp { pred, lhs, rhs } => {
                let ty = self.f.value_type(*lhs);
                let dst = self.inst_reg(iid);
                let lhs = self.reg_of(*lhs)?;
                let rhs = self.reg_of(*rhs)?;
                self.ops.push(Op::Cmp {
                    pred: *pred,
                    ty,
                    dst,
                    lhs,
                    rhs,
                });
            }
            Inst::Cast { op, val, to } => {
                let from = self.f.value_type(*val);
                let dst = self.inst_reg(iid);
                let src = self.reg_of(*val)?;
                self.ops.push(Op::Cast {
                    op: *op,
                    from,
                    to: *to,
                    dst,
                    src,
                });
            }
            Inst::Select { cond, t, f: fv } => {
                let dst = self.inst_reg(iid);
                let cond = self.reg_of(*cond)?;
                let t = self.reg_of(*t)?;
                let fv = self.reg_of(*fv)?;
                self.ops.push(Op::Select {
                    dst,
                    cond,
                    t,
                    f: fv,
                });
            }
            Inst::Call { callee, args, ty } => {
                // Same precedence as the interpreter: module functions
                // shadow runtime shims, resolved once here.
                let name = self.m.symbol_name(callee.0);
                let target = match self.fn_index.get(name) {
                    Some(&i) => CallTarget::Bytecode(i),
                    None => CallTarget::Runtime(callee.0),
                };
                let target = match self.target_idx.get(&target) {
                    Some(&i) => i,
                    None => {
                        if self.call_targets.len() >= u16::MAX as usize {
                            return Err(self.err_large("call-target table"));
                        }
                        let i = self.call_targets.len() as u16;
                        self.call_targets.push(target);
                        self.target_idx.insert(target, i);
                        i
                    }
                };
                let args_at = u32::try_from(self.call_args.len())
                    .map_err(|_| self.err_large("call-argument pool"))?;
                let nargs =
                    u16::try_from(args.len()).map_err(|_| self.err_large("argument count"))?;
                for a in args {
                    let r = self.reg_of(*a)?;
                    self.call_args.push(r);
                }
                let dst = if *ty == IrType::Void {
                    None
                } else {
                    Some(self.inst_reg(iid))
                };
                self.ops.push(Op::Call {
                    target,
                    args_at,
                    nargs,
                    ret: *ty,
                    dst,
                });
            }
        }
        Ok(())
    }

    fn emit_terminator(&mut self, bb: BlockId, term: &Terminator) -> Result<(), CompileError> {
        match term {
            Terminator::Br { target, .. } => {
                // A widened loop's latch re-enters the *scalar* copy of the
                // header (already emitted — headers precede latches in RPO);
                // the header's block offset points at the vector preamble,
                // which must run only on loop entry.
                if let Some(&off) = self.latch_redirect.get(&bb.0) {
                    self.ops.push(Op::Jmp { target: off });
                    return Ok(());
                }
                let pairs = self.edge_pairs(bb, *target)?;
                self.emit_edge_moves(&pairs)?;
                self.fixups.push(Fixup::Jmp(self.ops.len(), *target));
                self.ops.push(Op::Jmp { target: 0 });
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } => {
                let cond = self.reg_of(*cond)?;
                let then_pairs = self.edge_pairs(bb, *then_bb)?;
                let else_pairs = self.edge_pairs(bb, *else_bb)?;
                let br_at = self.ops.len();
                self.ops.push(Op::Br {
                    cond,
                    then_t: 0,
                    else_t: 0,
                });
                // Critical-edge split: an edge that needs copies gets a
                // trampoline block right after the branch.
                for (is_then, succ, pairs) in
                    [(true, *then_bb, then_pairs), (false, *else_bb, else_pairs)]
                {
                    if pairs.is_empty() {
                        self.fixups.push(Fixup::BrArm(br_at, is_then, succ));
                    } else {
                        let tramp = self.ops.len() as u32;
                        self.mark_block_start();
                        self.emit_edge_moves(&pairs)?;
                        self.fixups.push(Fixup::Jmp(self.ops.len(), succ));
                        self.ops.push(Op::Jmp { target: 0 });
                        if let Op::Br { then_t, else_t, .. } = &mut self.ops[br_at] {
                            if is_then {
                                *then_t = tramp;
                            } else {
                                *else_t = tramp;
                            }
                        }
                    }
                }
            }
            Terminator::Ret(v) => {
                let src = match v {
                    Some(v) => Some(self.reg_of(*v)?),
                    None => None,
                };
                self.ops.push(Op::Ret { src });
            }
            Terminator::Unreachable => self.ops.push(Op::Unreachable),
        }
        Ok(())
    }

    fn patch_fixups(&mut self) -> Result<(), CompileError> {
        for fix in std::mem::take(&mut self.fixups) {
            let (at, block) = match fix {
                Fixup::Jmp(at, b) | Fixup::BrArm(at, _, b) => (at, b),
            };
            let off = self.block_off[block.0 as usize].ok_or_else(|| CompileError::Malformed {
                func: self.f.name.clone(),
                what: format!("branch to unreachable block {}", block.0),
            })?;
            match (&mut self.ops[at], fix) {
                (Op::Jmp { target }, Fixup::Jmp(..)) => *target = off,
                (Op::Br { then_t, .. }, Fixup::BrArm(_, true, _)) => *then_t = off,
                (Op::Br { else_t, .. }, Fixup::BrArm(_, false, _)) => *else_t = off,
                _ => unreachable!("fixup does not match its op"),
            }
        }
        Ok(())
    }
}

/// Compiles one function; returns the compiled body plus the numbers of
/// promoted `alloca` slots and peephole-removed ops (for the
/// `vm.compile.promoted` / `vm.compile.peephole.removed` counters). Each
/// phase gets its own span under `vm.compile`.
fn compile_function(
    m: &Module,
    f: &Function,
    fn_index: &HashMap<&str, u32>,
    vector_width: u8,
    stats: &mut vectorize::PlanStats,
) -> Result<(VmFunction, usize, usize), CompileError> {
    let (mut vf, promoted) = {
        let _span = omplt_trace::span("vm.compile.lower");
        lower_function(m, f, fn_index, vector_width, stats)?
    };
    if vf.ops.is_empty() {
        return Ok((vf, promoted, 0));
    }
    let (removed, live) = {
        let _span = omplt_trace::span("vm.compile.peephole");
        peephole::optimize_with_liveness(&mut vf)
    };
    let _span = omplt_trace::span("vm.compile.regalloc");
    regalloc::allocate_with(&mut vf, &live);
    Ok((vf, promoted, removed))
}

/// Lowers one function to virtual-register bytecode (with `alloca`
/// promotion and, at `vector_width >= 2`, loop widening); returns the body
/// and the number of promoted slots.
fn lower_function(
    m: &Module,
    f: &Function,
    fn_index: &HashMap<&str, u32>,
    vector_width: u8,
    stats: &mut vectorize::PlanStats,
) -> Result<(VmFunction, usize), CompileError> {
    let rpo = f.reverse_postorder();
    let promotable = promotable_allocas(f, &rpo);
    let plans = if vector_width >= 2 {
        vectorize::plan_loops(f, &promotable, vector_width, stats)
    } else {
        HashMap::new()
    };
    let mut c = FuncCompiler {
        m,
        f,
        fn_index,
        promotable,
        promoted: vec![None; f.insts.len()],
        vreg_class: Vec::with_capacity(f.insts.len()),
        inst_reg: vec![None; f.insts.len()],
        const_reg: HashMap::new(),
        pool: Vec::new(),
        pool_idx: HashMap::new(),
        ops: Vec::with_capacity(f.insts.len()),
        call_args: Vec::new(),
        call_targets: Vec::new(),
        target_idx: HashMap::new(),
        block_starts: Vec::new(),
        block_off: vec![None; f.blocks.len()],
        fixups: Vec::new(),
        vv_class: Vec::new(),
        vv_width: Vec::new(),
        latch_redirect: HashMap::new(),
    };

    // Virtual registers: arguments first (frame entry copies them in).
    for &p in &f.params {
        c.new_vreg(RegClass::of(p))?;
    }
    let params: Vec<Reg> = (0..f.params.len() as u16).collect();

    // Then one per SSA value (promoted allocas get their slot register; the
    // pointer they used to produce never materializes).
    let mut promoted = 0;
    for &bb in &rpo {
        for &iid in &f.block(bb).insts {
            let inst = f.inst(iid);
            if let Inst::Alloca { ty, .. } = inst {
                if c.promotable[iid.0 as usize] {
                    let slot = c.new_vreg(RegClass::of(*ty))?;
                    c.promoted[iid.0 as usize] = Some(slot);
                    promoted += 1;
                    continue;
                }
            }
            let ty = inst.result_type(|v| f.value_type(v));
            if ty != IrType::Void {
                let r = c.new_vreg(RegClass::of(ty))?;
                c.inst_reg[iid.0 as usize] = Some(r);
            }
        }
    }

    // Pre-intern every constant any reachable instruction, phi edge, or
    // terminator mentions, so the prologue can be emitted *first* (as the
    // head of the entry block) and no offsets ever need shifting.
    for &bb in &rpo {
        for &iid in &f.block(bb).insts {
            if c.promoted[iid.0 as usize].is_some() {
                // Promoted alloca re-zeroing needs the zero of its class.
                if let Inst::Alloca { ty, .. } = f.inst(iid) {
                    let (key, entry) = const_of(Value::Undef(*ty)).expect("undef is a constant");
                    c.const_vreg(key, entry)?;
                }
                continue;
            }
            let mut interned = Ok(());
            f.inst(iid).for_each_operand(|v| {
                if let (Ok(()), Some((key, entry))) = (&interned, const_of(v)) {
                    interned = c.const_vreg(key, entry).map(drop);
                }
            });
            interned?;
        }
        let term_val = match &f.block(bb).term {
            Some(Terminator::CondBr { cond, .. }) => Some(*cond),
            Some(Terminator::Ret(Some(v))) => Some(*v),
            _ => None,
        };
        if let Some((key, entry)) = term_val.and_then(const_of) {
            c.const_vreg(key, entry)?;
        }
    }

    // Emission. The prologue belongs to the entry block: block offset 0
    // covers it, so a backedge into the entry re-runs the (idempotent)
    // constant loads — liveness-based intervals keep those registers from
    // being reused across any such edge.
    for (i, &bb) in rpo.iter().enumerate() {
        c.block_off[bb.0 as usize] = Some(c.ops.len() as u32);
        c.mark_block_start();
        if i == 0 {
            let mut loads: Vec<(u16, Reg)> = c
                .const_reg
                .iter()
                .map(|(key, &reg)| (c.pool_idx[key], reg))
                .collect();
            loads.sort_unstable();
            for (idx, dst) in loads {
                c.ops.push(Op::Const { dst, idx });
            }
        }
        if let Some(plan) = plans.get(&bb.0) {
            // Vector preamble + main loop + exit combine, then the scalar
            // copy of the loop as its epilogue. The block offset recorded
            // above points at the preamble, so entry edges run it; the
            // latch's backedge is redirected past it (`latch_redirect`).
            vectorize::emit_vector_loop(&mut c, plan)?;
            c.mark_block_start();
        }
        for &iid in &f.block(bb).insts {
            c.emit_inst(iid, f.inst(iid))?;
        }
        let term = f
            .block(bb)
            .term
            .as_ref()
            .ok_or_else(|| CompileError::Malformed {
                func: f.name.clone(),
                what: format!("unterminated block {}", f.block(bb).name),
            })?;
        c.emit_terminator(bb, term)?;
    }
    c.patch_fixups()?;

    if c.ops.len() > u32::MAX as usize {
        return Err(c.err_large("op stream"));
    }

    let vf = VmFunction {
        name: f.name.clone(),
        params,
        num_regs: c.vreg_class.len() as u16,
        reg_class: c.vreg_class,
        num_vregs: c.vv_class.len() as u16,
        vreg_class: c.vv_class,
        vreg_width: c.vv_width,
        ops: c.ops,
        consts: c.pool,
        call_args: c.call_args,
        call_targets: c.call_targets,
        block_starts: c.block_starts,
        ret: f.ret,
    };
    Ok((vf, promoted))
}
