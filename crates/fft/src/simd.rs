//! GF(2^16) region kernels over the split-plane shard layout, dispatched on
//! the one [`nc_gf256::simd`] kernel ladder.
//!
//! # Shard layout
//!
//! A shard of `k` bytes (k even) carries `k/2` GF(2^16) symbols in two
//! byte *planes*: symbol `i` is `bytes[i] | bytes[k/2 + i] << 8`. Because
//! the code is GF(2)-linear, any fixed pairing of bytes into symbols is
//! equally correct — the split keeps each plane a contiguous byte stream,
//! which is exactly what 16-lane byte shuffles want (the Leopard /
//! `reed-solomon-simd` trick).
//!
//! # Kernels
//!
//! A multiply by a constant `m` (given in the *log domain*) resolves each
//! symbol through four 16-entry nibble product tables
//! `T_j[v] = (v << 4j) · m`, split into low/high product-byte halves:
//!
//! ```text
//! out_lo = PSHUFB(T0_lo, x0) ^ PSHUFB(T1_lo, x1) ^ PSHUFB(T2_lo, x2) ^ PSHUFB(T3_lo, x3)
//! out_hi = PSHUFB(T0_hi, x0) ^ PSHUFB(T1_hi, x1) ^ PSHUFB(T2_hi, x2) ^ PSHUFB(T3_hi, x3)
//! ```
//!
//! where `x0..x3` are the four nibbles of the lo/hi source planes. Like
//! `nc_gf256::simd`, each rung has one region body, `dst (^)= Σ m_j · src_j`
//! over `N` sources with an `overwrite` flag, written over raw pointers:
//! [`mul_add_assign`] is `N = 1` and [`mul_into`] is `N = 1` with
//! `overwrite`. The module provides an **SSSE3**, an **AVX2** and an
//! **AArch64 NEON** body plus a **portable** scalar walk over the same u16
//! tables, which also finishes every vector body's tail.
//!
//! # Dispatch
//!
//! The rung is [`nc_gf256::simd::active_kernel`]: selected once per
//! process and forced with `NC_GF_BACKEND`, for both fields. This ladder
//! has no GFNI or AVX-512 body yet, so those rungs run the AVX2 body, and
//! a rung the host lacks runs portably; [`active_kernel`] reports the rung
//! that actually runs.
//!
//! Coefficients use *wrap* log semantics ([`Tables::mul_log`]): log 0 and
//! log [`MODULUS`] are both multiply-by-one fast paths. The butterfly
//! layer never forwards the skew table's zero-multiplier sentinel here.
//!
//! All kernels are tested bit-identical against the scalar field ops at
//! every head/tail length (see `every_available_kernel_matches_scalar` in the module
//! tests).

// The only `unsafe` in the crate: straight mappings to documented vendor
// intrinsics, feature-gated, with bounds stated per block — same contract
// as `nc_gf256::simd`.
#![allow(unsafe_code)]

use crate::tables::{Tables, MODULUS};
use nc_gf256::simd::SimdKernel;

/// The GF(2^16) kernels dispatch on the GF(2^8) ladder's rungs.
pub use nc_gf256::simd::SimdKernel as Gf16Kernel;

/// Four 16-entry GF(2^16) product tables, one per source nibble:
/// `tables[j][v] = (v << 4j) · m`.
pub(crate) type NibbleTables = [[u16; 16]; 4];

/// The eight byte-shuffle tables derived from [`NibbleTables`]:
/// `(lo, hi)` product-byte halves per nibble position.
type ByteTables = ([[u8; 16]; 4], [[u8; 16]; 4]);

/// Builds the per-coefficient nibble product tables (64 multiplies — noise
/// next to the region work they enable).
#[inline]
pub(crate) fn nibble_tables(t: &Tables, log_m: u16) -> NibbleTables {
    let mut out = [[0u16; 16]; 4];
    for (j, table) in out.iter_mut().enumerate() {
        for (v, entry) in table.iter_mut().enumerate() {
            *entry = t.mul_log((v as u16) << (4 * j), log_m);
        }
    }
    out
}

#[inline]
fn byte_tables(t16: &NibbleTables) -> ByteTables {
    let mut lo = [[0u8; 16]; 4];
    let mut hi = [[0u8; 16]; 4];
    for j in 0..4 {
        for v in 0..16 {
            lo[j][v] = t16[j][v] as u8;
            hi[j][v] = (t16[j][v] >> 8) as u8;
        }
    }
    (lo, hi)
}

/// The rung that runs GF(2^16) regions when `kernel` is asked for: GFNI
/// and AVX-512 run the AVX2 body, and a rung the host lacks runs portably.
fn rung(kernel: SimdKernel) -> SimdKernel {
    let rung = match kernel {
        SimdKernel::Gfni | SimdKernel::Avx512 => SimdKernel::Avx2,
        other => other,
    };
    if rung.is_available() {
        rung
    } else {
        SimdKernel::Portable
    }
}

/// The rung GF(2^16) regions actually run on: the process-wide
/// [`nc_gf256::simd::active_kernel`], mapped onto this ladder.
pub fn active_kernel() -> SimdKernel {
    rung(nc_gf256::simd::active_kernel())
}

// ---------------------------------------------------------------------------
// Dispatching entry points. `log_m` is a wrap-semantics log coefficient;
// regions are whole shards (even length, two planes).
// ---------------------------------------------------------------------------

/// `dst ^= m · src` on the active kernel.
#[inline]
pub fn mul_add_assign(t: &Tables, dst: &mut [u8], src: &[u8], log_m: u16) {
    mul_add_assign_with_kernel(nc_gf256::simd::active_kernel(), t, dst, src, log_m);
}

/// `dst = m · src` (overwriting) on the active kernel.
#[inline]
pub fn mul_into(t: &Tables, dst: &mut [u8], src: &[u8], log_m: u16) {
    mul_into_with_kernel(nc_gf256::simd::active_kernel(), t, dst, src, log_m);
}

// ---------------------------------------------------------------------------
// Explicit-kernel entry points (benches, property tests, ablation).
// ---------------------------------------------------------------------------

/// `dst ^= m · src` on an explicit kernel (mapped as [`active_kernel`]
/// describes).
///
/// # Panics
///
/// Panics if the slices differ in length or the length is odd.
pub fn mul_add_assign_with_kernel(
    kernel: SimdKernel,
    t: &Tables,
    dst: &mut [u8],
    src: &[u8],
    log_m: u16,
) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    assert_eq!(dst.len() % 2, 0, "GF(2^16) regions carry whole symbols");
    if log_m == 0 || log_m == MODULUS {
        // ×1 either way under wrap semantics.
        return nc_gf256::simd::xor_assign_with_kernel(kernel, dst, src);
    }
    let half = dst.len() / 2;
    // SAFETY: both slices are `2 * half` bytes (asserted above), and a
    // unique borrow never overlaps a shared one.
    unsafe {
        region(kernel, dst.as_mut_ptr(), [src.as_ptr()], &[nibble_tables(t, log_m)], half, false)
    }
}

/// `dst = m · src` (overwriting) on an explicit kernel.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is odd.
pub fn mul_into_with_kernel(
    kernel: SimdKernel,
    t: &Tables,
    dst: &mut [u8],
    src: &[u8],
    log_m: u16,
) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    assert_eq!(dst.len() % 2, 0, "GF(2^16) regions carry whole symbols");
    if log_m == 0 || log_m == MODULUS {
        return dst.copy_from_slice(src); // ×1
    }
    let half = dst.len() / 2;
    // SAFETY: both slices are `2 * half` bytes (asserted above), and a
    // unique borrow never overlaps a shared one.
    unsafe {
        region(kernel, dst.as_mut_ptr(), [src.as_ptr()], &[nibble_tables(t, log_m)], half, true)
    }
}

/// `dst (^)= Σ m_j · srcs[j]` over split-plane regions of `half` symbols:
/// the one multiply-accumulate behind every region op (`overwrite` starts
/// the sum from zero instead of `dst`). The rung's vector body handles
/// what it can and the portable walk finishes the rest.
///
/// # Safety
///
/// `dst` must be valid for reads and writes of `2 * half` bytes and every
/// `srcs[j]` valid for reads of `2 * half` bytes. A source may be `dst`
/// itself but must not otherwise overlap it.
unsafe fn region<const N: usize>(
    kernel: SimdKernel,
    dst: *mut u8,
    srcs: [*const u8; N],
    t16s: &[NibbleTables; N],
    half: usize,
    overwrite: bool,
) {
    // SAFETY: `rung` returns only a rung this host supports (NEON is
    // architecturally guaranteed on AArch64) or `Portable`; the pointer
    // contract is the caller's, passed through unchanged.
    let done = unsafe {
        match rung(kernel) {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdKernel::Avx2 => x86::region_avx2(dst, srcs, t16s, half, overwrite),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            SimdKernel::Ssse3 => x86::region_ssse3(dst, srcs, t16s, half, overwrite),
            #[cfg(target_arch = "aarch64")]
            SimdKernel::Neon => neon::region(dst, srcs, t16s, half, overwrite),
            _ => 0,
        }
    };
    // SAFETY: the caller's pointer contract, over the symbols the vector
    // body left (`done..half`).
    unsafe { portable(dst, srcs, t16s, done, half, overwrite) }
}

// ---------------------------------------------------------------------------
// Portable fallback (also the tail path of every vector kernel). `from` is
// the per-plane symbol index the vector body already handled.
// ---------------------------------------------------------------------------

#[inline]
fn product(t16: &NibbleTables, lo: u8, hi: u8) -> u16 {
    t16[0][usize::from(lo & 0x0F)]
        ^ t16[1][usize::from(lo >> 4)]
        ^ t16[2][usize::from(hi & 0x0F)]
        ^ t16[3][usize::from(hi >> 4)]
}

/// [`region`]'s sum over symbols `from..half`, one symbol at a time
/// through the u16 nibble tables.
///
/// # Safety
///
/// [`region`]'s pointer contract.
unsafe fn portable<const N: usize>(
    dst: *mut u8,
    srcs: [*const u8; N],
    t16s: &[NibbleTables; N],
    from: usize,
    half: usize,
    overwrite: bool,
) {
    for i in from..half {
        // SAFETY: `i < half` keeps both plane accesses (`i`, `half + i`)
        // inside the caller's regions, and each source symbol is read
        // before `dst`'s symbol `i` is written.
        unsafe {
            let mut p = if overwrite {
                0
            } else {
                u16::from(*dst.add(i)) | u16::from(*dst.add(half + i)) << 8
            };
            for j in 0..N {
                p ^= product(&t16s[j], *srcs[j].add(i), *srcs[j].add(half + i));
            }
            *dst.add(i) = p as u8;
            *dst.add(half + i) = (p >> 8) as u8;
        }
    }
}

// ---------------------------------------------------------------------------
// x86 / x86-64: SSSE3 and AVX2 PSHUFB kernels.
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{byte_tables, NibbleTables};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// SSSE3 `PSHUFB` body of [`super::region`] over whole 16-symbol
    /// chunks; returns the symbols processed so the caller finishes the
    /// tail portably.
    ///
    /// # Safety
    ///
    /// The host must support SSSE3, and the pointers must satisfy
    /// [`super::region`]'s contract.
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn region_ssse3<const N: usize>(
        dst: *mut u8,
        srcs: [*const u8; N],
        t16s: &[NibbleTables; N],
        half: usize,
        overwrite: bool,
    ) -> usize {
        // SAFETY: table loads read 16 bytes from 16-byte arrays; plane
        // accesses at offsets `i` and `half + i` are bounded by
        // `i + 16 <= half` (the caller's pointer contract), each chunk's
        // sources are loaded before its stores, and the unaligned
        // loadu/storeu forms are used throughout.
        unsafe {
            let mut tl = [[_mm_setzero_si128(); 4]; N];
            let mut th = [[_mm_setzero_si128(); 4]; N];
            for j in 0..N {
                let (lo_b, hi_b) = byte_tables(&t16s[j]);
                for n in 0..4 {
                    tl[j][n] = _mm_loadu_si128(lo_b[n].as_ptr().cast());
                    th[j][n] = _mm_loadu_si128(hi_b[n].as_ptr().cast());
                }
            }
            let mask = _mm_set1_epi8(0x0F);
            let mut i = 0;
            while i + 16 <= half {
                let (mut p_lo, mut p_hi) = if overwrite {
                    (_mm_setzero_si128(), _mm_setzero_si128())
                } else {
                    (_mm_loadu_si128(dst.add(i).cast()), _mm_loadu_si128(dst.add(half + i).cast()))
                };
                for j in 0..N {
                    let s_lo = _mm_loadu_si128(srcs[j].add(i).cast());
                    let s_hi = _mm_loadu_si128(srcs[j].add(half + i).cast());
                    let x = [
                        _mm_and_si128(s_lo, mask),
                        _mm_and_si128(_mm_srli_epi64::<4>(s_lo), mask),
                        _mm_and_si128(s_hi, mask),
                        _mm_and_si128(_mm_srli_epi64::<4>(s_hi), mask),
                    ];
                    for n in 0..4 {
                        p_lo = _mm_xor_si128(p_lo, _mm_shuffle_epi8(tl[j][n], x[n]));
                        p_hi = _mm_xor_si128(p_hi, _mm_shuffle_epi8(th[j][n], x[n]));
                    }
                }
                _mm_storeu_si128(dst.add(i).cast(), p_lo);
                _mm_storeu_si128(dst.add(half + i).cast(), p_hi);
                i += 16;
            }
            i
        }
    }

    /// AVX2 `VPSHUFB` body of [`super::region`] over whole 32-symbol
    /// chunks (the 16-byte tables broadcast to both lanes); returns the
    /// symbols processed.
    ///
    /// # Safety
    ///
    /// The host must support AVX2, and the pointers must satisfy
    /// [`super::region`]'s contract.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn region_avx2<const N: usize>(
        dst: *mut u8,
        srcs: [*const u8; N],
        t16s: &[NibbleTables; N],
        half: usize,
        overwrite: bool,
    ) -> usize {
        // SAFETY: table loads read 16 bytes from 16-byte arrays (then
        // broadcast in-register); plane accesses at `i` / `half + i` are
        // bounded by `i + 32 <= half` (the caller's pointer contract), each
        // chunk's sources are loaded before its stores, and the unaligned
        // forms are used throughout.
        unsafe {
            let mut tl = [[_mm256_setzero_si256(); 4]; N];
            let mut th = [[_mm256_setzero_si256(); 4]; N];
            for j in 0..N {
                let (lo_b, hi_b) = byte_tables(&t16s[j]);
                for n in 0..4 {
                    tl[j][n] =
                        _mm256_broadcastsi128_si256(_mm_loadu_si128(lo_b[n].as_ptr().cast()));
                    th[j][n] =
                        _mm256_broadcastsi128_si256(_mm_loadu_si128(hi_b[n].as_ptr().cast()));
                }
            }
            let mask = _mm256_set1_epi8(0x0F);
            let mut i = 0;
            while i + 32 <= half {
                let (mut p_lo, mut p_hi) = if overwrite {
                    (_mm256_setzero_si256(), _mm256_setzero_si256())
                } else {
                    (
                        _mm256_loadu_si256(dst.add(i).cast()),
                        _mm256_loadu_si256(dst.add(half + i).cast()),
                    )
                };
                for j in 0..N {
                    let s_lo = _mm256_loadu_si256(srcs[j].add(i).cast());
                    let s_hi = _mm256_loadu_si256(srcs[j].add(half + i).cast());
                    let x = [
                        _mm256_and_si256(s_lo, mask),
                        _mm256_and_si256(_mm256_srli_epi64::<4>(s_lo), mask),
                        _mm256_and_si256(s_hi, mask),
                        _mm256_and_si256(_mm256_srli_epi64::<4>(s_hi), mask),
                    ];
                    for n in 0..4 {
                        p_lo = _mm256_xor_si256(p_lo, _mm256_shuffle_epi8(tl[j][n], x[n]));
                        p_hi = _mm256_xor_si256(p_hi, _mm256_shuffle_epi8(th[j][n], x[n]));
                    }
                }
                _mm256_storeu_si256(dst.add(i).cast(), p_lo);
                _mm256_storeu_si256(dst.add(half + i).cast(), p_hi);
                i += 32;
            }
            i
        }
    }
}

// ---------------------------------------------------------------------------
// AArch64 NEON TBL kernel (NEON is mandatory on AArch64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{byte_tables, NibbleTables};
    use std::arch::aarch64::*;

    /// NEON `TBL` body of [`super::region`] over whole 16-symbol chunks;
    /// returns the symbols processed.
    ///
    /// # Safety
    ///
    /// The pointers must satisfy [`super::region`]'s contract (NEON itself
    /// is architecturally guaranteed on AArch64).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn region<const N: usize>(
        dst: *mut u8,
        srcs: [*const u8; N],
        t16s: &[NibbleTables; N],
        half: usize,
        overwrite: bool,
    ) -> usize {
        // SAFETY: table loads read 16 bytes from 16-byte arrays; plane
        // accesses at `i` / `half + i` are bounded by `i + 16 <= half` (the
        // caller's pointer contract), and each chunk's sources are loaded
        // before its stores.
        unsafe {
            let mut tl = [[vdupq_n_u8(0); 4]; N];
            let mut th = [[vdupq_n_u8(0); 4]; N];
            for j in 0..N {
                let (lo_b, hi_b) = byte_tables(&t16s[j]);
                for n in 0..4 {
                    tl[j][n] = vld1q_u8(lo_b[n].as_ptr());
                    th[j][n] = vld1q_u8(hi_b[n].as_ptr());
                }
            }
            let mask = vdupq_n_u8(0x0F);
            let mut i = 0;
            while i + 16 <= half {
                let (mut p_lo, mut p_hi) = if overwrite {
                    (vdupq_n_u8(0), vdupq_n_u8(0))
                } else {
                    (vld1q_u8(dst.add(i)), vld1q_u8(dst.add(half + i)))
                };
                for j in 0..N {
                    let s_lo = vld1q_u8(srcs[j].add(i));
                    let s_hi = vld1q_u8(srcs[j].add(half + i));
                    let x = [
                        vandq_u8(s_lo, mask),
                        vshrq_n_u8(s_lo, 4),
                        vandq_u8(s_hi, mask),
                        vshrq_n_u8(s_hi, 4),
                    ];
                    for n in 0..4 {
                        p_lo = veorq_u8(p_lo, vqtbl1q_u8(tl[j][n], x[n]));
                        p_hi = veorq_u8(p_hi, vqtbl1q_u8(th[j][n], x[n]));
                    }
                }
                vst1q_u8(dst.add(i), p_lo);
                vst1q_u8(dst.add(half + i), p_hi);
                i += 16;
            }
            i
        }
    }
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;
    use crate::tables::tables;

    /// Every variant, native ones first and then each one this host lacks
    /// (those must run portably, not fault).
    fn kernels_under_test() -> Vec<SimdKernel> {
        let mut ks = SimdKernel::available();
        for k in [
            SimdKernel::Gfni,
            SimdKernel::Avx512,
            SimdKernel::Avx2,
            SimdKernel::Ssse3,
            SimdKernel::Neon,
            SimdKernel::Portable,
        ] {
            if !ks.contains(&k) {
                ks.push(k);
            }
        }
        ks
    }

    /// Symbol-by-symbol scalar reference through `Tables::mul`.
    fn reference_mul_add(t: &Tables, dst: &[u8], src: &[u8], m: u16) -> Vec<u8> {
        let half = dst.len() / 2;
        let mut out = dst.to_vec();
        for i in 0..half {
            let s = u16::from(src[i]) | u16::from(src[half + i]) << 8;
            let p = t.mul(s, m);
            out[i] ^= p as u8;
            out[half + i] ^= (p >> 8) as u8;
        }
        out
    }

    #[test]
    fn every_available_kernel_matches_scalar() {
        let t = tables();
        for len in [0usize, 2, 30, 32, 34, 62, 64, 66, 126, 130, 258] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let dst0: Vec<u8> = (0..len).map(|i| (i * 91 + 5) as u8).collect();
            for m in [1u16, 2, 3, 0x1234, 0x8000, 0xFFFF] {
                let log_m = t.log[usize::from(m)];
                let want = reference_mul_add(&t, &dst0, &src, m);
                let pure = reference_mul_add(&t, &vec![0u8; len], &src, m);
                for kernel in kernels_under_test() {
                    let mut dst = dst0.clone();
                    mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, log_m);
                    assert_eq!(dst, want, "mul_add kernel {kernel:?}, m={m:#x}, len={len}");

                    let mut dst = dst0.clone();
                    mul_into_with_kernel(kernel, &t, &mut dst, &src, log_m);
                    assert_eq!(dst, pure, "mul_into kernel {kernel:?}, m={m:#x}, len={len}");
                }
            }
        }
    }

    #[test]
    fn wrap_log_coefficients_are_identity_fast_paths() {
        let t = tables();
        let src: Vec<u8> = (0..66).map(|i| (i * 3 + 1) as u8).collect();
        for log_m in [0u16, MODULUS] {
            for kernel in kernels_under_test() {
                let mut dst = vec![0u8; 66];
                mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, log_m);
                assert_eq!(dst, src, "×1 must reduce to xor (kernel {kernel:?})");
                let mut copy = vec![0xAA; 66];
                mul_into_with_kernel(kernel, &t, &mut copy, &src, log_m);
                assert_eq!(copy, src, "×1 must reduce to a copy (kernel {kernel:?})");
            }
        }
    }

    #[test]
    fn unavailable_kernel_falls_back_portably() {
        // Every variant maps to a rung this host can run: GFNI and AVX-512
        // onto the AVX2 body, anything else the host lacks onto the
        // portable walk — and the bytes do not depend on which.
        let t = tables();
        let src: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let want = reference_mul_add(&t, &[0xAA; 64], &src, 0x1D2C);
        for kernel in kernels_under_test() {
            let ran = rung(kernel);
            assert!(ran.is_available(), "{kernel:?} ran on unavailable {ran:?}");
            let expected = match kernel {
                SimdKernel::Gfni | SimdKernel::Avx512 => SimdKernel::Avx2,
                other => other,
            };
            if expected.is_available() {
                assert_eq!(ran, expected, "kernel {kernel:?}");
            } else {
                assert_eq!(ran, SimdKernel::Portable, "kernel {kernel:?}");
            }
            let mut dst = vec![0xAA; 64];
            mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, t.log[0x1D2C]);
            assert_eq!(dst, want, "kernel {kernel:?}");
        }
    }
}
