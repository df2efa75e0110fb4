//! AVX-512BW nibble-shuffle kernels: the AVX2 `VPSHUFB` bodies widened to
//! 64-byte vectors, with masked heads gone entirely — the sub-vector tail
//! is handled by `k`-masked byte loads/stores instead of a scalar loop, so
//! every region length runs vectorized end to end.
//!
//! `_mm512_shuffle_epi8` shuffles within each 128-bit lane exactly like
//! `PSHUFB`, so the two 16-entry half-byte product tables are broadcast to
//! all four lanes with `_mm512_broadcast_i32x4` and the per-byte recipe is
//! unchanged from the SSSE3 kernel:
//!
//! ```text
//! product = VPSHUFB(lo_table, src & 0x0F) ^ VPSHUFB(hi_table, src >> 4)
//! ```
//!
//! Every function in this module requires AVX-512F + AVX-512BW (checked by
//! the dispatcher via `is_x86_feature_detected!`); the masked tail needs BW
//! (byte-granular masks are a BW feature). All loads/stores use the
//! unaligned forms.

use super::nibble_tables;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `VPSHUFB(lo, s & 0x0F) ^ VPSHUFB(hi, s >> 4)` — one 64-byte product.
///
/// # Safety
///
/// Caller must ensure the host supports AVX-512F and AVX-512BW.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn product(lo_t: __m512i, hi_t: __m512i, mask: __m512i, s: __m512i) -> __m512i {
    let lo_idx = _mm512_and_si512(s, mask);
    let hi_idx = _mm512_and_si512(_mm512_srli_epi64::<4>(s), mask);
    _mm512_xor_si512(_mm512_shuffle_epi8(lo_t, lo_idx), _mm512_shuffle_epi8(hi_t, hi_idx))
}

/// Broadcasts one 16-byte half-byte table to all four 128-bit lanes.
///
/// # Safety
///
/// Caller must ensure the host supports AVX-512F (the table array is 16
/// bytes, matching the 128-bit load).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn broadcast_table(table: &[u8; 16]) -> __m512i {
    // SAFETY: reads exactly 16 bytes from a 16-byte array, unaligned form.
    unsafe { _mm512_broadcast_i32x4(_mm_loadu_si128(table.as_ptr().cast())) }
}

/// AVX-512BW body of [`super::region`]: full 64-byte chunks plus one
/// masked tail pass, so it processes every byte and returns `len`.
///
/// # Safety
///
/// The host must support AVX-512F + AVX-512BW, and the pointers must
/// satisfy [`super::region`]'s contract.
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn region<const N: usize>(
    dst: *mut u8,
    srcs: [*const u8; N],
    cs: [u8; N],
    len: usize,
    overwrite: bool,
) -> usize {
    // SAFETY: every full-vector access is bounded by `i + 64 <= len` (the
    // caller's pointer contract); the tail load/store is masked to
    // `rem = len - i < 64` lanes, so no byte outside the regions is
    // touched. Each chunk's sources are loaded before its store, and the
    // unaligned loadu/storeu forms are used throughout.
    unsafe {
        let mut lo_t = [_mm512_setzero_si512(); N];
        let mut hi_t = [_mm512_setzero_si512(); N];
        for j in 0..N {
            let (lo, hi) = nibble_tables(cs[j]);
            lo_t[j] = broadcast_table(&lo);
            hi_t[j] = broadcast_table(&hi);
        }
        let mask = _mm512_set1_epi8(0x0F);
        let mut i = 0;
        while i + 64 <= len {
            let mut acc = if overwrite {
                _mm512_setzero_si512()
            } else {
                _mm512_loadu_si512(dst.add(i).cast())
            };
            for j in 0..N {
                let s = _mm512_loadu_si512(srcs[j].add(i).cast());
                acc = _mm512_xor_si512(acc, product(lo_t[j], hi_t[j], mask, s));
            }
            _mm512_storeu_si512(dst.add(i).cast(), acc);
            i += 64;
        }
        let rem = len - i;
        if rem > 0 {
            let k: __mmask64 = (1u64 << rem) - 1;
            let mut acc = if overwrite {
                _mm512_setzero_si512()
            } else {
                _mm512_maskz_loadu_epi8(k, dst.add(i).cast())
            };
            for j in 0..N {
                let s = _mm512_maskz_loadu_epi8(k, srcs[j].add(i).cast());
                acc = _mm512_xor_si512(acc, product(lo_t[j], hi_t[j], mask, s));
            }
            _mm512_mask_storeu_epi8(dst.add(i).cast(), k, acc);
        }
        len
    }
}

/// `dst ^= src` over 64-byte lanes with a masked tail.
///
/// # Safety
///
/// Host must support AVX-512F + AVX-512BW; slices must be equal length.
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) unsafe fn xor_assign(dst: &mut [u8], src: &[u8]) {
    let len = dst.len();
    // SAFETY: full vectors bounded by `i + 64 <= len` (caller guarantees
    // equal lengths), tail masked to the remaining lanes.
    unsafe {
        let mut i = 0;
        while i + 64 <= len {
            let d = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
            let s = _mm512_loadu_si512(src.as_ptr().add(i).cast());
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), _mm512_xor_si512(d, s));
            i += 64;
        }
        let rem = len - i;
        if rem > 0 {
            let k: __mmask64 = (1u64 << rem) - 1;
            let d = _mm512_maskz_loadu_epi8(k, dst.as_ptr().add(i).cast());
            let s = _mm512_maskz_loadu_epi8(k, src.as_ptr().add(i).cast());
            _mm512_mask_storeu_epi8(dst.as_mut_ptr().add(i).cast(), k, _mm512_xor_si512(d, s));
        }
    }
}
