//! Loop metadata — the analogue of LLVM's `llvm.loop.unroll.*` metadata.
//!
//! The shadow-AST partial unroll relies on this channel (paper §2.1): the
//! front-end merely strip-mines and attaches `llvm.loop.unroll.count` to the
//! inner loop; "no duplication takes place until" the mid-end `LoopUnroll`
//! pass consumes the metadata. The metadata attaches to the loop's **latch
//! branch**, as in LLVM.

/// Unroll request carried on a loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnrollHint {
    /// `llvm.loop.unroll.full` — fully unroll (requires a constant trip
    /// count).
    Full,
    /// `llvm.loop.unroll.count(n)` — partially unroll by factor `n`.
    Count(u64),
    /// `llvm.loop.unroll.enable` — unroll with a pass-chosen heuristic
    /// factor.
    Enable,
    /// `llvm.loop.unroll.disable` — set after a loop has been processed so
    /// it is not unrolled again.
    Disable,
}

/// Metadata node attached to a loop's latch terminator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoopMetadata {
    /// Unroll directive for the `LoopUnroll` pass.
    pub unroll: Option<UnrollHint>,
    /// `llvm.loop.vectorize.enable`-style marker emitted for `simd` loops
    /// (recorded but not acted upon by the mid-end; see DESIGN.md).
    pub vectorize_enable: bool,
    /// Marks loops emitted by `create_canonical_loop` (used by tests to
    /// locate skeleton loops).
    pub is_canonical: bool,
    /// `safelen(n)` clause value: lanes beyond this distance may not execute
    /// concurrently. 0 means unset (no limit beyond what dependences allow).
    pub safelen: u8,
    /// `simdlen(n)` clause value: the *preferred* vector width. 0 means
    /// unset (the widening pass uses its configured width).
    pub simdlen: u8,
}

impl LoopMetadata {
    /// Metadata with only an unroll hint.
    pub fn unroll(hint: UnrollHint) -> LoopMetadata {
        LoopMetadata {
            unroll: Some(hint),
            ..Default::default()
        }
    }

    /// Marks this loop as already-processed (the `LoopUnroll` pass calls
    /// this on loops it transforms, mirroring `llvm.loop.unroll.disable`).
    pub fn disabled(mut self) -> LoopMetadata {
        self.unroll = Some(UnrollHint::Disable);
        self
    }

    /// True if any property is set (worth printing).
    pub fn is_interesting(&self) -> bool {
        self.unroll.is_some()
            || self.vectorize_enable
            || self.is_canonical
            || self.safelen != 0
            || self.simdlen != 0
    }

    /// Textual rendering for the IR printer, LLVM-flavored.
    pub fn print(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Streams [`LoopMetadata::print`]'s text into `w`.
    pub fn write_to<W: std::fmt::Write>(&self, w: &mut W) -> std::fmt::Result {
        w.write_str("!{")?;
        let mut sep = "";
        let mut part = |w: &mut W, args: std::fmt::Arguments| -> std::fmt::Result {
            w.write_str(sep)?;
            sep = ", ";
            w.write_fmt(args)
        };
        match self.unroll {
            Some(UnrollHint::Full) => part(w, format_args!("!\"llvm.loop.unroll.full\""))?,
            Some(UnrollHint::Count(n)) => {
                part(w, format_args!("!\"llvm.loop.unroll.count\", i32 {n}"))?
            }
            Some(UnrollHint::Enable) => part(w, format_args!("!\"llvm.loop.unroll.enable\""))?,
            Some(UnrollHint::Disable) => part(w, format_args!("!\"llvm.loop.unroll.disable\""))?,
            None => {}
        }
        if self.vectorize_enable {
            part(w, format_args!("!\"llvm.loop.vectorize.enable\", i1 true"))?;
        }
        if self.safelen != 0 {
            part(
                w,
                format_args!("!\"llvm.loop.vectorize.safelen\", i32 {}", self.safelen),
            )?;
        }
        if self.simdlen != 0 {
            part(
                w,
                format_args!("!\"llvm.loop.vectorize.width\", i32 {}", self.simdlen),
            )?;
        }
        if self.is_canonical {
            part(w, format_args!("!\"omplt.loop.canonical\""))?;
        }
        w.write_char('}')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unroll_constructors() {
        let m = LoopMetadata::unroll(UnrollHint::Count(4));
        assert_eq!(m.unroll, Some(UnrollHint::Count(4)));
        assert!(m.is_interesting());
        let d = m.disabled();
        assert_eq!(d.unroll, Some(UnrollHint::Disable));
    }

    #[test]
    fn print_forms() {
        assert!(LoopMetadata::unroll(UnrollHint::Full)
            .print()
            .contains("llvm.loop.unroll.full"));
        assert!(LoopMetadata::unroll(UnrollHint::Count(2))
            .print()
            .contains("count\", i32 2"));
        let v = LoopMetadata {
            vectorize_enable: true,
            ..LoopMetadata::default()
        };
        assert!(v.print().contains("vectorize.enable"));
    }

    #[test]
    fn default_is_uninteresting() {
        assert!(!LoopMetadata::default().is_interesting());
    }
}
