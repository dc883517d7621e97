//! IR-level types (a flat scalar type system, LLVM-style).

use std::fmt;

/// A first-class IR type.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum IrType {
    /// No value (function returns only).
    Void,
    /// 1-bit boolean (comparison results).
    I1,
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// Untyped pointer (opaque, as in modern LLVM).
    Ptr,
}

impl IrType {
    /// True for the integer types (including `i1`).
    pub fn is_int(self) -> bool {
        matches!(
            self,
            IrType::I1 | IrType::I8 | IrType::I16 | IrType::I32 | IrType::I64
        )
    }

    /// True for floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, IrType::F32 | IrType::F64)
    }

    /// Bit width of integer types (1 for `i1`), 0 otherwise.
    pub fn bits(self) -> u32 {
        match self {
            IrType::I1 => 1,
            IrType::I8 => 8,
            IrType::I16 => 16,
            IrType::I32 => 32,
            IrType::I64 => 64,
            _ => 0,
        }
    }

    /// Store size in bytes (pointers are 8; `i1` stores as one byte).
    pub fn size(self) -> u64 {
        match self {
            IrType::Void => 0,
            IrType::I1 | IrType::I8 => 1,
            IrType::I16 => 2,
            IrType::I32 | IrType::F32 => 4,
            IrType::I64 | IrType::F64 | IrType::Ptr => 8,
        }
    }

    /// The integer type with the given bit width.
    pub fn int_with_bits(bits: u32) -> IrType {
        match bits {
            1 => IrType::I1,
            8 => IrType::I8,
            16 => IrType::I16,
            32 => IrType::I32,
            64 => IrType::I64,
            other => panic!("unsupported integer width {other}"),
        }
    }

    /// Wraps `v` (sign-agnostic bits) to this integer type's width,
    /// sign-extending into `i64` storage.
    pub fn wrap(self, v: i64) -> i64 {
        let bits = self.bits();
        if bits == 0 || bits >= 64 {
            return v;
        }
        let shift = 64 - bits;
        (v << shift) >> shift
    }

    /// Wraps `v` to this integer type's width as an unsigned value.
    pub fn wrap_unsigned(self, v: i64) -> u64 {
        let bits = self.bits();
        if bits == 0 || bits >= 64 {
            return v as u64;
        }
        (v as u64) & ((1u64 << bits) - 1)
    }
}

impl fmt::Display for IrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl IrType {
    /// The type's textual IR spelling (`i64`, `double`, `ptr`, …).
    pub fn name(self) -> &'static str {
        match self {
            IrType::Void => "void",
            IrType::I1 => "i1",
            IrType::I8 => "i8",
            IrType::I16 => "i16",
            IrType::I32 => "i32",
            IrType::I64 => "i64",
            IrType::F32 => "float",
            IrType::F64 => "double",
            IrType::Ptr => "ptr",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(IrType::I32.size(), 4);
        assert_eq!(IrType::Ptr.size(), 8);
        assert_eq!(IrType::I1.size(), 1);
        assert_eq!(IrType::F64.size(), 8);
    }

    #[test]
    fn wrap_signed() {
        assert_eq!(IrType::I8.wrap(255), -1);
        assert_eq!(IrType::I8.wrap(127), 127);
        assert_eq!(IrType::I32.wrap(i64::from(u32::MAX)), -1);
        assert_eq!(IrType::I64.wrap(-5), -5);
    }

    #[test]
    fn wrap_unsigned() {
        assert_eq!(IrType::I8.wrap_unsigned(-1), 255);
        assert_eq!(IrType::I32.wrap_unsigned(-1), u64::from(u32::MAX));
    }

    #[test]
    fn display() {
        assert_eq!(IrType::I64.to_string(), "i64");
        assert_eq!(IrType::Ptr.to_string(), "ptr");
        assert_eq!(IrType::F64.to_string(), "double");
    }

    #[test]
    fn int_with_bits_round_trip() {
        for t in [
            IrType::I1,
            IrType::I8,
            IrType::I16,
            IrType::I32,
            IrType::I64,
        ] {
            assert_eq!(IrType::int_with_bits(t.bits()), t);
        }
    }
}
