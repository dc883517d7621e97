//! Shared guest memory for the IR interpreter.
//!
//! Built from `AtomicU64` word cells so `parallel` regions can execute on
//! real OS threads without the *interpreter* exhibiting undefined behaviour:
//! racy guest programs degrade to relaxed-atomic semantics (each 8-byte word
//! access is atomic; sub-word and straddling accesses use CAS
//! read-modify-write), which is strictly more defined than the C they model.
//!
//! Pointers are 64-bit handles: `region_index << 32 | byte_offset`. Region 0
//! is reserved so the null pointer stays invalid. Function pointers use a
//! tag bit (see [`Memory::encode_fn_ptr`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const FN_PTR_TAG: u64 = 1 << 63;

/// A single allocation.
struct Region {
    words: Box<[AtomicU64]>,
    size_bytes: u64,
}

/// Lock-free append-only region table: segment `k` holds `2^k` slots, so
/// lookups are two data-dependent loads and **no lock** — guest loads/stores
/// happen on every interpreted memory instruction and would otherwise
/// serialize the thread team on the table lock.
const NUM_SEGMENTS: usize = 32;

struct SegmentedArena {
    segments: [OnceLock<Box<[OnceLock<Region>]>>; NUM_SEGMENTS],
    len: AtomicU64,
}

impl SegmentedArena {
    fn new() -> SegmentedArena {
        SegmentedArena {
            segments: [const { OnceLock::new() }; NUM_SEGMENTS],
            len: AtomicU64::new(0),
        }
    }

    /// (segment index, offset within segment) for a flat index.
    #[inline]
    fn locate(idx: u64) -> (usize, usize) {
        // segment k covers indices [2^k - 1, 2^(k+1) - 1)
        let seg = (64 - (idx + 1).leading_zeros() - 1) as usize;
        let start = (1u64 << seg) - 1;
        (seg, (idx - start) as usize)
    }

    /// Appends a region, returning its flat index.
    fn push(&self, region: Region) -> u64 {
        let idx = self.len.fetch_add(1, Ordering::Relaxed);
        let (seg, off) = Self::locate(idx);
        assert!(seg < NUM_SEGMENTS, "guest region space exhausted");
        let slab = self.segments[seg].get_or_init(|| {
            let cap = 1usize << seg;
            let mut v = Vec::with_capacity(cap);
            v.resize_with(cap, OnceLock::new);
            v.into_boxed_slice()
        });
        slab[off]
            .set(region)
            .ok()
            .expect("region slot written twice");
        idx
    }

    /// Wait-free lookup.
    #[inline]
    fn get(&self, idx: u64) -> Option<&Region> {
        if idx >= self.len.load(Ordering::Acquire) {
            return None;
        }
        let (seg, off) = Self::locate(idx);
        self.segments.get(seg)?.get()?.get(off)?.get()
    }
}

/// The interpreter's address space. Allocation is append-only; everything is
/// freed when the `Memory` is dropped (per-run arena).
pub struct Memory {
    regions: SegmentedArena,
}

/// Error kind for bad guest accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemError {
    /// Human-readable description.
    pub what: String,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// Creates an address space with the null region reserved.
    pub fn new() -> Memory {
        let m = Memory {
            regions: SegmentedArena::new(),
        };
        m.regions.push(Region {
            words: Box::new([]),
            size_bytes: 0,
        });
        m
    }

    /// Allocates `bytes` zero-initialized bytes; returns the guest pointer.
    pub fn alloc(&self, bytes: u64) -> u64 {
        let words = bytes.div_ceil(8) as usize;
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        let idx = self.regions.push(Region {
            words: v.into_boxed_slice(),
            size_bytes: bytes,
        });
        assert!(idx < u32::MAX as u64, "guest region space exhausted");
        idx << 32
    }

    /// Encodes a function symbol as a tagged pointer.
    pub fn encode_fn_ptr(sym: u32) -> u64 {
        FN_PTR_TAG | sym as u64
    }

    /// Decodes a tagged function pointer back to its symbol.
    pub fn decode_fn_ptr(ptr: u64) -> Option<u32> {
        (ptr & FN_PTR_TAG != 0).then_some((ptr & 0xFFFF_FFFF) as u32)
    }

    /// Resolves an access of `len` bytes at `ptr` to its region and offset.
    /// Only the in-bounds answer is built here; failures are described by
    /// the out-of-line [`access_error`], so this check stays small enough to
    /// inline into both engines' load and store paths.
    #[inline]
    fn check(&self, ptr: u64, len: u64) -> Result<(&Region, u64), MemError> {
        let region = ptr >> 32;
        let offset = ptr & 0xFFFF_FFFF;
        if ptr & FN_PTR_TAG != 0 || region == 0 {
            return Err(access_error(ptr, len, None));
        }
        match self.regions.get(region) {
            Some(reg) if offset + len <= reg.size_bytes => Ok((reg, offset)),
            reg => Err(access_error(ptr, len, reg.map(|r| r.size_bytes))),
        }
    }

    /// Loads `len` (1/2/4/8) bytes, zero-extended into a `u64`.
    #[inline]
    pub fn load(&self, ptr: u64, len: u64) -> Result<u64, MemError> {
        let (reg, offset) = self.check(ptr, len)?;
        let word_idx = (offset / 8) as usize;
        let in_word = offset % 8;
        if in_word + len <= 8 {
            let w = reg.words[word_idx].load(Ordering::Relaxed);
            let shifted = w >> (in_word * 8);
            Ok(if len == 8 {
                shifted
            } else {
                shifted & ((1u64 << (len * 8)) - 1)
            })
        } else {
            // Straddles two words: assemble byte-wise.
            let mut out = 0u64;
            for i in 0..len {
                let o = offset + i;
                let w = reg.words[(o / 8) as usize].load(Ordering::Relaxed);
                let b = (w >> ((o % 8) * 8)) & 0xFF;
                out |= b << (i * 8);
            }
            Ok(out)
        }
    }

    /// Stores the low `len` bytes of `val`.
    #[inline]
    pub fn store(&self, ptr: u64, len: u64, val: u64) -> Result<(), MemError> {
        let (reg, offset) = self.check(ptr, len)?;
        let word_idx = (offset / 8) as usize;
        let in_word = offset % 8;
        if len == 8 && in_word == 0 {
            reg.words[word_idx].store(val, Ordering::Relaxed);
            return Ok(());
        }
        if in_word + len <= 8 {
            let mask = if len == 8 {
                u64::MAX
            } else {
                ((1u64 << (len * 8)) - 1) << (in_word * 8)
            };
            let bits = (val << (in_word * 8)) & mask;
            let cell = &reg.words[word_idx];
            // CAS read-modify-write keeps concurrent neighbors intact.
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let next = (cur & !mask) | bits;
                match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => return Ok(()),
                    Err(c) => cur = c,
                }
            }
        }
        // Straddling store: byte-wise CAS.
        for i in 0..len {
            let o = offset + i;
            let cell = &reg.words[(o / 8) as usize];
            let shift = (o % 8) * 8;
            let mask = 0xFFu64 << shift;
            let bits = ((val >> (i * 8)) & 0xFF) << shift;
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let next = (cur & !mask) | bits;
                match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(c) => cur = c,
                }
            }
        }
        Ok(())
    }

    /// Atomic fetch-add on an aligned 8-byte word (used by `reduction`).
    pub fn fetch_add_i64(&self, ptr: u64, add: i64) -> Result<i64, MemError> {
        let (reg, offset) = self.check(ptr, 8)?;
        if offset % 8 != 0 {
            return Err(MemError {
                what: "unaligned atomic".to_string(),
            });
        }
        let prev = reg.words[(offset / 8) as usize].fetch_add(add as u64, Ordering::Relaxed);
        Ok(prev as i64)
    }

    /// Number of live regions (diagnostic).
    pub fn num_regions(&self) -> usize {
        self.regions.len.load(Ordering::Acquire) as usize
    }
}

/// Describes why [`Memory::check`] refused an access of `len` bytes at
/// `ptr`; `region_size` is the size of the region `ptr` names, when it names
/// a live one.
#[cold]
#[inline(never)]
fn access_error(ptr: u64, len: u64, region_size: Option<u64>) -> MemError {
    let offset = ptr & 0xFFFF_FFFF;
    let what = if ptr & FN_PTR_TAG != 0 {
        format!("data access through function pointer {ptr:#x}")
    } else if ptr >> 32 == 0 {
        "null pointer dereference".to_string()
    } else {
        match region_size {
            Some(size) => {
                format!("out-of-bounds access: offset {offset}+{len} in region of {size} bytes")
            }
            None => format!("dangling pointer {ptr:#x}"),
        }
    };
    MemError { what }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_round_trip() {
        let m = Memory::new();
        let p = m.alloc(16);
        m.store(p, 8, 0x1122334455667788).unwrap();
        assert_eq!(m.load(p, 8).unwrap(), 0x1122334455667788);
        m.store(p + 8, 4, 0xDEADBEEF).unwrap();
        assert_eq!(m.load(p + 8, 4).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn sub_word_stores_do_not_clobber_neighbors() {
        let m = Memory::new();
        let p = m.alloc(8);
        m.store(p, 8, u64::MAX).unwrap();
        m.store(p + 2, 2, 0).unwrap();
        assert_eq!(m.load(p, 8).unwrap(), 0xFFFF_FFFF_0000_FFFF);
        assert_eq!(m.load(p + 2, 2).unwrap(), 0);
        assert_eq!(m.load(p, 2).unwrap(), 0xFFFF);
    }

    #[test]
    fn straddling_access() {
        let m = Memory::new();
        let p = m.alloc(16);
        // 4-byte store at offset 6 crosses the word boundary
        m.store(p + 6, 4, 0xAABBCCDD).unwrap();
        assert_eq!(m.load(p + 6, 4).unwrap(), 0xAABBCCDD);
        assert_eq!(m.load(p + 6, 2).unwrap(), 0xCCDD);
        assert_eq!(m.load(p + 8, 2).unwrap(), 0xAABB);
    }

    #[test]
    fn null_and_oob_rejected() {
        let m = Memory::new();
        assert!(m.load(0, 8).is_err());
        let p = m.alloc(4);
        assert!(m.load(p, 8).is_err());
        assert!(m.load(p + 4, 1).is_err());
        assert!(m.store(p, 4, 0).is_ok());
    }

    /// The four access-error texts, byte for byte: both engines surface
    /// them verbatim as `memory error: …` runtime diagnostics.
    #[test]
    fn access_error_texts_are_pinned() {
        let m = Memory::new();
        let what = |r: Result<u64, MemError>| r.unwrap_err().what;
        assert_eq!(what(m.load(0, 8)), "null pointer dereference");
        assert_eq!(what(m.load(12, 4)), "null pointer dereference");
        let p = m.alloc(12);
        assert_eq!(
            what(m.load(p + 8, 8)),
            "out-of-bounds access: offset 8+8 in region of 12 bytes"
        );
        assert_eq!(
            m.store(p + 12, 1, 0).unwrap_err().what,
            "out-of-bounds access: offset 12+1 in region of 12 bytes"
        );
        assert_eq!(
            what(m.load(7 << 32 | 16, 4)),
            "dangling pointer 0x700000010"
        );
        assert_eq!(
            m.store(Memory::encode_fn_ptr(3), 8, 0).unwrap_err().what,
            "data access through function pointer 0x8000000000000003"
        );
        assert_eq!(
            m.fetch_add_i64(0, 1).unwrap_err().what,
            "null pointer dereference"
        );
    }

    #[test]
    fn fn_ptr_tagging() {
        let p = Memory::encode_fn_ptr(7);
        assert_eq!(Memory::decode_fn_ptr(p), Some(7));
        assert_eq!(Memory::decode_fn_ptr(1 << 32), None);
        let m = Memory::new();
        assert!(m.load(p, 8).is_err(), "function pointers are not data");
    }

    #[test]
    fn fetch_add_atomicity_across_threads() {
        let m = std::sync::Arc::new(Memory::new());
        let p = m.alloc(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.fetch_add_i64(p, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.load(p, 8).unwrap(), 8000);
    }

    #[test]
    fn concurrent_subword_neighbors_survive() {
        // Two threads hammering adjacent bytes of the same word must not
        // lose each other's writes (the CAS loop guarantees it).
        let m = std::sync::Arc::new(Memory::new());
        let p = m.alloc(8);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..500u64 {
                        m.store(p + t, 1, i & 0xFF).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.load(p, 1).unwrap(), 499 & 0xFF);
        assert_eq!(m.load(p + 1, 1).unwrap(), 499 & 0xFF);
    }
}
