//! Textual IR printer (`.ll`-flavored), used by `ompltc --emit-ir`, golden
//! tests, debugging, and cache-entry sizing.
//!
//! Everything streams through one [`write_module`] path into any
//! [`fmt::Write`] sink: [`print_module`] collects it into a `String`, and
//! [`printed_len`] only counts the bytes.

use crate::function::{BlockId, Function, InstId};
use crate::inst::{Inst, Terminator};
use crate::module::Module;
use crate::types::IrType;
use crate::value::Value;
use std::fmt::{self, Write};

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    write_module(&mut out, m).expect("writing to a String cannot fail");
    out
}

/// Prints one function.
pub fn print_function(f: &Function, m: &Module) -> String {
    let mut out = String::new();
    write_function(&mut out, f, m).expect("writing to a String cannot fail");
    out
}

/// The length in bytes of [`print_module`]'s text, without building it.
pub fn printed_len(m: &Module) -> usize {
    /// A sink that only counts.
    struct Len(usize);
    impl Write for Len {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Len(0);
    write_module(&mut len, m).expect("counting cannot fail");
    len.0
}

/// Writes a whole module.
pub fn write_module<W: Write>(w: &mut W, m: &Module) -> fmt::Result {
    for g in &m.globals {
        writeln!(
            w,
            "@{} = global [{} x i8] zeroinitializer",
            m.symbol_name(g.sym),
            g.size
        )?;
    }
    if !m.globals.is_empty() {
        w.write_char('\n')?;
    }
    for e in &m.externs {
        write!(w, "declare {} @{}(", e.ret.name(), m.symbol_name(e.sym))?;
        for (i, t) in e.params.iter().enumerate() {
            if i > 0 {
                w.write_str(", ")?;
            }
            w.write_str(t.name())?;
        }
        w.write_str(")\n")?;
    }
    if !m.externs.is_empty() {
        w.write_char('\n')?;
    }
    for f in &m.functions {
        write_function(w, f, m)?;
        w.write_char('\n')?;
    }
    Ok(())
}

fn write_function<W: Write>(w: &mut W, f: &Function, m: &Module) -> fmt::Result {
    write!(w, "define {} @{}(", f.ret.name(), f.name)?;
    for (i, t) in f.params.iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        write!(w, "{} %arg{i}", t.name())?;
    }
    w.write_str(") {\n")?;
    let preds = f.predecessors();
    for (i, b) in f.blocks.iter().enumerate() {
        // Every label carries a predecessor comment (LLVM `-print-after-all`
        // style), normalized so dumps diff cleanly: the entry block is bare,
        // any other predecessor-less block says so explicitly.
        block_label(w, f, BlockId(i as u32))?;
        w.write_char(':')?;
        if i != 0 {
            if preds[i].is_empty() {
                w.write_str("    ; no predecessors")?;
            } else {
                w.write_str("    ; preds = ")?;
                for (j, &p) in preds[i].iter().enumerate() {
                    w.write_str(if j == 0 { "%" } else { ", %" })?;
                    block_label(w, f, p)?;
                }
            }
        }
        w.write_char('\n')?;
        for &inst in &b.insts {
            w.write_str("  ")?;
            write_inst(w, f, m, inst)?;
            w.write_char('\n')?;
        }
        match &b.term {
            Some(t) => {
                w.write_str("  ")?;
                write_term(w, f, t)?;
                w.write_char('\n')?;
            }
            None => w.write_str("  ; <no terminator>\n")?,
        }
    }
    w.write_str("}\n")
}

fn block_label<W: Write>(w: &mut W, f: &Function, id: BlockId) -> fmt::Result {
    write!(w, "{}.{}", f.block(id).name, id.0)
}

fn val<W: Write>(w: &mut W, v: Value) -> fmt::Result {
    match v {
        Value::Inst(id) => write!(w, "%{}", id.0),
        Value::Arg(i) => write!(w, "%arg{i}"),
        Value::ConstInt { val, .. } => write!(w, "{val}"),
        Value::ConstFloat { bits, .. } => write!(w, "{:e}", f64::from_bits(bits)),
        Value::Global(s) => write!(w, "@g{}", s.0),
        Value::FuncRef(s) => write!(w, "@f{}", s.0),
        Value::Undef(_) => w.write_str("undef"),
    }
}

/// `<type> <value>`.
fn tval<W: Write>(w: &mut W, f: &Function, v: Value) -> fmt::Result {
    w.write_str(f.value_type(v).name())?;
    w.write_char(' ')?;
    val(w, v)
}

fn write_inst<W: Write>(w: &mut W, f: &Function, m: &Module, id: InstId) -> fmt::Result {
    let i = f.inst(id);
    if !matches!(
        i,
        Inst::Store { .. }
            | Inst::Call {
                ty: IrType::Void,
                ..
            }
    ) {
        write!(w, "%{} = ", id.0)?;
    }
    match i {
        Inst::Alloca { ty, count, name } => {
            write!(w, "alloca {}, i64 {count}", ty.name())?;
            if !name.is_empty() {
                write!(w, "  ; {name}")?;
            }
            Ok(())
        }
        Inst::Load { ty, ptr } => {
            write!(w, "load {}, ptr ", ty.name())?;
            val(w, *ptr)
        }
        Inst::Store { val: v, ptr } => {
            w.write_str("store ")?;
            tval(w, f, *v)?;
            w.write_str(", ptr ")?;
            val(w, *ptr)
        }
        Inst::Gep {
            ptr,
            index,
            elem_size,
        } => {
            w.write_str("getelementptr i8, ptr ")?;
            val(w, *ptr)?;
            w.write_str(", ")?;
            tval(w, f, *index)?;
            write!(w, " x {elem_size}")
        }
        Inst::Bin { op, lhs, rhs } => {
            w.write_str(op.mnemonic())?;
            w.write_char(' ')?;
            tval(w, f, *lhs)?;
            w.write_str(", ")?;
            val(w, *rhs)
        }
        Inst::Cmp { pred, lhs, rhs } => {
            w.write_str(if pred.is_float() { "fcmp " } else { "icmp " })?;
            w.write_str(pred.mnemonic())?;
            w.write_char(' ')?;
            tval(w, f, *lhs)?;
            w.write_str(", ")?;
            val(w, *rhs)
        }
        Inst::Cast { op, val: v, to } => {
            w.write_str(op.mnemonic())?;
            w.write_char(' ')?;
            tval(w, f, *v)?;
            write!(w, " to {}", to.name())
        }
        Inst::Select { cond, t, f: fv } => {
            w.write_str("select ")?;
            tval(w, f, *cond)?;
            w.write_str(", ")?;
            tval(w, f, *t)?;
            w.write_str(", ")?;
            tval(w, f, *fv)
        }
        Inst::Phi { ty, incoming } => {
            write!(w, "phi {} ", ty.name())?;
            for (j, (b, v)) in incoming.iter().enumerate() {
                w.write_str(if j == 0 { "[ " } else { ", [ " })?;
                val(w, *v)?;
                w.write_str(", %")?;
                block_label(w, f, *b)?;
                w.write_str(" ]")?;
            }
            Ok(())
        }
        Inst::Call { callee, args, ty } => {
            write!(w, "call {} @{}(", ty.name(), m.symbol_name(callee.0))?;
            for (j, v) in args.iter().enumerate() {
                if j > 0 {
                    w.write_str(", ")?;
                }
                match v {
                    Value::FuncRef(s) | Value::Global(s) => {
                        write!(w, "ptr @{}", m.symbol_name(*s))?
                    }
                    other => tval(w, f, *other)?,
                }
            }
            w.write_char(')')
        }
    }
}

fn write_term<W: Write>(w: &mut W, f: &Function, t: &Terminator) -> fmt::Result {
    let md = match t {
        Terminator::Br { target, loop_md } => {
            w.write_str("br label %")?;
            block_label(w, f, *target)?;
            loop_md
        }
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
            loop_md,
        } => {
            w.write_str("br ")?;
            tval(w, f, *cond)?;
            w.write_str(", label %")?;
            block_label(w, f, *then_bb)?;
            w.write_str(", label %")?;
            block_label(w, f, *else_bb)?;
            loop_md
        }
        Terminator::Ret(Some(v)) => {
            w.write_str("ret ")?;
            return tval(w, f, *v);
        }
        Terminator::Ret(None) => return w.write_str("ret void"),
        Terminator::Unreachable => return w.write_str("unreachable"),
    };
    match md {
        Some(md) if md.is_interesting() => {
            w.write_str(", !llvm.loop ")?;
            md.write_to(w)
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::inst::CmpPred;
    use crate::types::IrType;

    #[test]
    fn prints_a_small_function() {
        let mut m = Module::new();
        let print_sym = m.intern("print_i64");
        let mut f = Function::new("main", vec![], IrType::I32);
        {
            let mut b = IrBuilder::new(&mut f);
            let p = b.alloca(IrType::I64, 1, "x");
            b.store(Value::i64(42), p);
            let v = b.load(IrType::I64, p);
            b.call(print_sym, vec![v], IrType::Void);
            b.ret(Some(Value::i32(0)));
        }
        m.add_function(f);
        let text = print_module(&m);
        assert!(text.contains("define i32 @main()"), "{text}");
        assert!(text.contains("alloca i64"), "{text}");
        assert!(text.contains("store i64 42"), "{text}");
        assert!(text.contains("call void @print_i64"), "{text}");
        assert!(text.contains("ret i32 0"), "{text}");
    }

    #[test]
    fn block_labels_carry_normalized_pred_comments() {
        let mut m = Module::new();
        let mut f = Function::new("g", vec![IrType::I64], IrType::Void);
        let orphan;
        {
            let mut b = IrBuilder::new(&mut f);
            let exit = b.create_block("exit");
            orphan = b.create_block("orphan");
            b.br(exit);
            b.set_insert_point(exit);
            b.ret(None);
            b.set_insert_point(orphan);
            b.ret(None);
        }
        let _ = orphan;
        m.add_function(f);
        let text = print_module(&m);
        // Entry: bare label, no comment (it has no predecessors by design).
        assert!(text.contains("entry.0:\n"), "{text}");
        // Reachable non-entry block: explicit preds list.
        assert!(text.contains("exit.1:    ; preds = %entry.0\n"), "{text}");
        // Unreachable non-entry block: explicit "no predecessors" marker
        // rather than silently looking like the entry.
        assert!(text.contains("orphan.2:    ; no predecessors\n"), "{text}");
    }

    #[test]
    fn prints_loop_metadata_on_latch() {
        use crate::metadata::{LoopMetadata, UnrollHint};
        let mut m = Module::new();
        let mut f = Function::new("k", vec![IrType::I64], IrType::Void);
        {
            let mut b = IrBuilder::new(&mut f);
            let header = b.create_block("header");
            b.br(header);
            b.set_insert_point(header);
            let c = b.cmp(CmpPred::Ult, Value::Arg(0), Value::i64(4));
            let _ = c;
            b.br_with_md(header, LoopMetadata::unroll(UnrollHint::Count(2)));
        }
        m.add_function(f);
        let text = print_module(&m);
        assert!(text.contains("!llvm.loop"), "{text}");
        assert!(text.contains("llvm.loop.unroll.count\", i32 2"), "{text}");
    }
}
