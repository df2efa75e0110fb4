//! GFNI kernels: GF(2^8) region arithmetic as single instructions.
//!
//! The Galois Field New Instructions compute this crate's field *exactly*
//! (the Rijndael polynomial [`crate::tables::POLY`], 0x11B), so a region
//! multiply needs no tables at all. The multiply-by-a-constant map
//! `x ↦ c·x` is GF(2)-linear, so it is an 8×8 bit-matrix executed with
//! `GF2P8AFFINEQB` ([`affine_matrix`] builds the matrix per Günther et
//! al., *GF Arithmetics for LNC using AVX512*): one instruction per vector
//! and source, with the matrices held in registers across a multi-source
//! pass.
//!
//! The rung has one body per vector width:
//!
//! * a 512-bit EVEX body (requires `gfni + avx512f + avx512bw`) with
//!   `k`-masked byte loads/stores for the tail, and
//! * a 256-bit VEX body (requires `gfni + avx`) with a portable tail,
//!   for GFNI parts without AVX-512 (e.g. pre-Ice-Lake previews or
//!   AVX10.1/256 configurations).
//!
//! The dispatcher guarantees `gfni` and AVX2 before calling in, and picks
//! the 512-bit body when the AVX-512 side is also present ([`wide`],
//! cached in a [`OnceLock`]).

use crate::tables::xtime;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Whether the 512-bit EVEX GFNI path is available on this host.
pub(super) fn wide() -> bool {
    static WIDE: OnceLock<bool> = OnceLock::new();
    *WIDE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("gfni")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
    })
}

/// The 8×8 GF(2)-bit-matrix of the linear map `x ↦ c·x` over GF(2^8),
/// packed in `GF2P8AFFINEQB`'s operand layout.
///
/// The instruction computes output bit `i` of each byte as
/// `parity(matrix.byte[7 - i] & input)`, so byte `7 - i` must select the
/// input bits `k` for which `c·2^k` has bit `i` set — i.e. the matrix
/// columns are `c·2^k`, built here by repeated [`xtime`].
pub(crate) fn affine_matrix(c: u8) -> u64 {
    let mut rows = [0u8; 8];
    let mut pow = c; // c · 2^k
    for k in 0..8 {
        for i in 0..8 {
            if pow >> i & 1 == 1 {
                rows[7 - i] |= 1 << k;
            }
        }
        pow = xtime(pow);
    }
    u64::from_le_bytes(rows)
}

// ---------------------------------------------------------------------------
// The two bodies of `super::region`: one per vector width.
// ---------------------------------------------------------------------------

/// 512-bit EVEX body (gfni + avx512f + avx512bw): full 64-byte chunks plus
/// one masked tail pass, so it processes every byte and returns `len`.
///
/// # Safety
///
/// The host must support GFNI + AVX-512F + AVX-512BW, and the pointers
/// must satisfy [`super::region`]'s contract.
#[target_feature(enable = "gfni,avx512f,avx512bw")]
pub(super) unsafe fn region_512<const N: usize>(
    dst: *mut u8,
    srcs: [*const u8; N],
    cs: [u8; N],
    len: usize,
    overwrite: bool,
) -> usize {
    // SAFETY: full-vector accesses are bounded by `i + 64 <= len` (the
    // caller's pointer contract); the tail is masked to
    // `rem = len - i < 64` lanes. Each chunk's sources are loaded before
    // its store; unaligned loadu/storeu forms throughout.
    unsafe {
        let mut a = [_mm512_setzero_si512(); N];
        for j in 0..N {
            a[j] = _mm512_set1_epi64(affine_matrix(cs[j]) as i64);
        }
        let mut i = 0;
        while i + 64 <= len {
            let mut acc = if overwrite {
                _mm512_setzero_si512()
            } else {
                _mm512_loadu_si512(dst.add(i).cast())
            };
            for j in 0..N {
                let s = _mm512_loadu_si512(srcs[j].add(i).cast());
                acc = _mm512_xor_si512(acc, _mm512_gf2p8affine_epi64_epi8::<0>(s, a[j]));
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
                acc = _mm512_xor_si512(acc, _mm512_gf2p8affine_epi64_epi8::<0>(s, a[j]));
            }
            _mm512_mask_storeu_epi8(dst.add(i).cast(), k, acc);
        }
        len
    }
}

/// 256-bit VEX body (gfni + avx) over whole 32-byte chunks; returns the
/// bytes processed so the caller finishes the tail portably.
///
/// # Safety
///
/// The host must support GFNI + AVX, and the pointers must satisfy
/// [`super::region`]'s contract.
#[target_feature(enable = "gfni,avx")]
pub(super) unsafe fn region_256<const N: usize>(
    dst: *mut u8,
    srcs: [*const u8; N],
    cs: [u8; N],
    len: usize,
    overwrite: bool,
) -> usize {
    // SAFETY: every access is bounded by `i + 32 <= len` (the caller's
    // pointer contract); each chunk's sources are loaded before its store;
    // unaligned loadu/storeu forms throughout.
    unsafe {
        let mut a = [_mm256_setzero_si256(); N];
        for j in 0..N {
            a[j] = _mm256_set1_epi64x(affine_matrix(cs[j]) as i64);
        }
        let mut i = 0;
        while i + 32 <= len {
            let mut acc = if overwrite {
                _mm256_setzero_si256()
            } else {
                _mm256_loadu_si256(dst.add(i).cast())
            };
            for j in 0..N {
                let s = _mm256_loadu_si256(srcs[j].add(i).cast());
                acc = _mm256_xor_si256(acc, _mm256_gf2p8affine_epi64_epi8::<0>(s, a[j]));
            }
            _mm256_storeu_si256(dst.add(i).cast(), acc);
            i += 32;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::MUL;

    #[test]
    fn affine_matrix_matches_mul_table() {
        // The bit-matrix construction must agree with the ground-truth
        // product table for every (c, x) pair, independent of GFNI
        // hardware: apply the matrix in scalar code.
        fn apply(matrix: u64, x: u8) -> u8 {
            let rows = matrix.to_le_bytes();
            let mut out = 0u8;
            for i in 0..8 {
                let parity = (rows[7 - i] & x).count_ones() as u8 & 1;
                out |= parity << i;
            }
            out
        }
        for c in 0..=255u8 {
            let m = affine_matrix(c);
            for x in [0u8, 1, 2, 0x53, 0x80, 0xAA, 0xFF] {
                assert_eq!(apply(m, x), MUL[c as usize][x as usize], "c={c}, x={x}");
            }
        }
    }
}
