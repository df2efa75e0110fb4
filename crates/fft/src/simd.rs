//! GF(2^16) region kernels over the split-plane shard layout, with the
//! same runtime dispatch discipline as [`nc_gf256::simd`].
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
//! where `x0..x3` are the four nibbles of the lo/hi source planes. The
//! module provides an **SSSE3**, an **AVX2**, and an **AArch64 NEON**
//! kernel plus a **portable** scalar walk over the same u16 tables,
//! selected once and cached, overridable with `NC_GF16_BACKEND`
//! (`portable` / `ssse3` / `avx2` / `neon`; unset or `auto` detects) —
//! mirroring `NC_GF_BACKEND` for GF(2^8).
//!
//! Coefficients use *wrap* log semantics ([`Tables::mul_log`]): log 0 and
//! log [`MODULUS`] are both multiply-by-one fast paths. The butterfly
//! layer never forwards the skew table's zero-multiplier sentinel here.
//!
//! All kernels are tested bit-identical against the scalar field ops at
//! every head/tail length (see `every_available_kernel_matches_scalar` in
//! the module tests).

// The only `unsafe` in the crate: straight mappings to documented vendor
// intrinsics, feature-gated, with bounds stated per block — same contract
// as `nc_gf256::simd`.
#![allow(unsafe_code)]

use crate::tables::{Tables, MODULUS};
use std::sync::OnceLock;

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

/// One concrete GF(2^16) region-kernel implementation.
///
/// Every variant exists on every architecture so ablation tooling compiles
/// everywhere; an unavailable kernel runs portably.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Gf16Kernel {
    /// Scalar walk over the u16 nibble tables: correct everywhere.
    Portable,
    /// x86-64 SSSE3 `PSHUFB`, 16 symbols per table-octet pass.
    Ssse3,
    /// x86-64 AVX2 `VPSHUFB`, 32 symbols per table-octet pass.
    Avx2,
    /// AArch64 NEON `TBL`, 16 symbols per table-octet pass.
    Neon,
}

impl Gf16Kernel {
    /// Human-readable kernel name (stable; used by reports and telemetry).
    pub fn name(self) -> &'static str {
        match self {
            Gf16Kernel::Portable => "portable",
            Gf16Kernel::Ssse3 => "ssse3",
            Gf16Kernel::Avx2 => "avx2",
            Gf16Kernel::Neon => "neon",
        }
    }

    /// Whether this host can execute the kernel right now.
    pub fn is_available(self) -> bool {
        match self {
            Gf16Kernel::Portable => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Gf16Kernel::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Gf16Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Gf16Kernel::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every kernel this host can execute, fastest first (portable always
    /// present, always last).
    pub fn available() -> Vec<Gf16Kernel> {
        [Gf16Kernel::Avx2, Gf16Kernel::Neon, Gf16Kernel::Ssse3, Gf16Kernel::Portable]
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }
}

/// The kernel the crate dispatches to, detected once and cached.
///
/// Honors `NC_GF16_BACKEND`; a forced kernel the host lacks degrades to
/// the best available one rather than crashing.
pub fn active_kernel() -> Gf16Kernel {
    static ACTIVE: OnceLock<Gf16Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        match backend_env().as_deref() {
            Some("portable") => return Gf16Kernel::Portable,
            Some("avx2") if Gf16Kernel::Avx2.is_available() => return Gf16Kernel::Avx2,
            Some("ssse3") if Gf16Kernel::Ssse3.is_available() => return Gf16Kernel::Ssse3,
            Some("neon") if Gf16Kernel::Neon.is_available() => return Gf16Kernel::Neon,
            _ => {}
        }
        Gf16Kernel::available()[0]
    })
}

fn backend_env() -> Option<String> {
    std::env::var("NC_GF16_BACKEND").ok().map(|v| v.trim().to_ascii_lowercase())
}

// ---------------------------------------------------------------------------
// Dispatching entry points. `log_m` is a wrap-semantics log coefficient;
// regions are whole shards (even length, two planes).
// ---------------------------------------------------------------------------

/// `dst ^= m · src` on the active kernel.
#[inline]
pub fn mul_add_assign(t: &Tables, dst: &mut [u8], src: &[u8], log_m: u16) {
    mul_add_assign_with_kernel(active_kernel(), t, dst, src, log_m);
}

/// `dst = m · dst` in place on the active kernel.
#[inline]
pub fn mul_assign(t: &Tables, dst: &mut [u8], log_m: u16) {
    mul_assign_with_kernel(active_kernel(), t, dst, log_m);
}

/// `dst = m · src` (overwriting) on the active kernel.
#[inline]
pub fn mul_into(t: &Tables, dst: &mut [u8], src: &[u8], log_m: u16) {
    mul_into_with_kernel(active_kernel(), t, dst, src, log_m);
}

/// `dst ^= src` over 8-byte words (plane structure is irrelevant to XOR;
/// SSE-class hardware autovectorizes this loop, so it needs no dispatch).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn xor_assign(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let x = u64::from_le_bytes(dc.try_into().unwrap());
        let y = u64::from_le_bytes(sc.try_into().unwrap());
        dc.copy_from_slice(&(x ^ y).to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= *sb;
    }
}

// ---------------------------------------------------------------------------
// Explicit-kernel entry points (benches, property tests, ablation).
// ---------------------------------------------------------------------------

/// `dst ^= m · src` on an explicit kernel; unavailable kernels run portably.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is odd.
pub fn mul_add_assign_with_kernel(
    kernel: Gf16Kernel,
    t: &Tables,
    dst: &mut [u8],
    src: &[u8],
    log_m: u16,
) {
    assert_eq!(dst.len(), src.len(), "region length mismatch");
    assert_eq!(dst.len() % 2, 0, "GF(2^16) regions carry whole symbols");
    if log_m == 0 || log_m == MODULUS {
        return xor_assign(dst, src); // ×1 either way under wrap semantics
    }
    let t16 = nibble_tables(t, log_m);
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Gf16Kernel::Avx2 if Gf16Kernel::Avx2.is_available() => {
            // SAFETY: AVX2 availability was verified on this host above.
            unsafe { x86::mul_add_avx2(dst, src, &t16) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Gf16Kernel::Ssse3 if Gf16Kernel::Ssse3.is_available() => {
            // SAFETY: SSSE3 availability was verified on this host above.
            unsafe { x86::mul_add_ssse3(dst, src, &t16) }
        }
        #[cfg(target_arch = "aarch64")]
        Gf16Kernel::Neon => neon::mul_add_neon(dst, src, &t16),
        _ => portable_mul_add(dst, src, &t16, 0),
    }
}

/// `dst = m · dst` in place on an explicit kernel.
///
/// # Panics
///
/// Panics if the length is odd.
pub fn mul_assign_with_kernel(kernel: Gf16Kernel, t: &Tables, dst: &mut [u8], log_m: u16) {
    assert_eq!(dst.len() % 2, 0, "GF(2^16) regions carry whole symbols");
    if log_m == 0 || log_m == MODULUS {
        return; // ×1
    }
    let t16 = nibble_tables(t, log_m);
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Gf16Kernel::Avx2 if Gf16Kernel::Avx2.is_available() => {
            // SAFETY: AVX2 availability was verified on this host above.
            unsafe { x86::mul_assign_avx2(dst, &t16) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Gf16Kernel::Ssse3 if Gf16Kernel::Ssse3.is_available() => {
            // SAFETY: SSSE3 availability was verified on this host above.
            unsafe { x86::mul_assign_ssse3(dst, &t16) }
        }
        #[cfg(target_arch = "aarch64")]
        Gf16Kernel::Neon => neon::mul_assign_neon(dst, &t16),
        _ => portable_mul_assign(dst, &t16, 0),
    }
}

/// `dst = m · src` (overwriting) on an explicit kernel.
///
/// # Panics
///
/// Panics if the slices differ in length or the length is odd.
pub fn mul_into_with_kernel(
    kernel: Gf16Kernel,
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
    let t16 = nibble_tables(t, log_m);
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Gf16Kernel::Avx2 if Gf16Kernel::Avx2.is_available() => {
            // SAFETY: AVX2 availability was verified on this host above.
            unsafe { x86::mul_into_avx2(dst, src, &t16) }
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Gf16Kernel::Ssse3 if Gf16Kernel::Ssse3.is_available() => {
            // SAFETY: SSSE3 availability was verified on this host above.
            unsafe { x86::mul_into_ssse3(dst, src, &t16) }
        }
        #[cfg(target_arch = "aarch64")]
        Gf16Kernel::Neon => neon::mul_into_neon(dst, src, &t16),
        _ => portable_mul_into(dst, src, &t16, 0),
    }
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

fn portable_mul_add(dst: &mut [u8], src: &[u8], t16: &NibbleTables, from: usize) {
    let half = dst.len() / 2;
    let (dlo, dhi) = dst.split_at_mut(half);
    let (slo, shi) = src.split_at(half);
    for i in from..half {
        let p = product(t16, slo[i], shi[i]);
        dlo[i] ^= p as u8;
        dhi[i] ^= (p >> 8) as u8;
    }
}

fn portable_mul_into(dst: &mut [u8], src: &[u8], t16: &NibbleTables, from: usize) {
    let half = dst.len() / 2;
    let (dlo, dhi) = dst.split_at_mut(half);
    let (slo, shi) = src.split_at(half);
    for i in from..half {
        let p = product(t16, slo[i], shi[i]);
        dlo[i] = p as u8;
        dhi[i] = (p >> 8) as u8;
    }
}

fn portable_mul_assign(dst: &mut [u8], t16: &NibbleTables, from: usize) {
    let half = dst.len() / 2;
    let (dlo, dhi) = dst.split_at_mut(half);
    for i in from..half {
        let p = product(t16, dlo[i], dhi[i]);
        dlo[i] = p as u8;
        dhi[i] = (p >> 8) as u8;
    }
}

// ---------------------------------------------------------------------------
// x86 / x86-64: SSSE3 and AVX2 PSHUFB kernels.
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{
        byte_tables, portable_mul_add, portable_mul_assign, portable_mul_into, NibbleTables,
    };
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Runs the split-plane product over all full 16-symbol chunks,
    /// XOR-accumulating into `dst` (or overwriting it); returns the number
    /// of symbols processed so callers finish the tail portably.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports SSSE3 and that `dst` and `src`
    /// are equal even lengths.
    #[target_feature(enable = "ssse3")]
    unsafe fn body_ssse3(dst: &mut [u8], src: &[u8], t16: &NibbleTables, overwrite: bool) -> usize {
        let (lo_b, hi_b) = byte_tables(t16);
        let half = dst.len() / 2;
        // SAFETY: table loads read 16 bytes from 16-byte arrays; plane
        // accesses at offsets `i` and `half + i` are bounded by
        // `i + 16 <= half` (equal even lengths guaranteed by the caller),
        // and unaligned loadu/storeu forms are used throughout.
        unsafe {
            let mut tl = [_mm_setzero_si128(); 4];
            let mut th = [_mm_setzero_si128(); 4];
            for j in 0..4 {
                tl[j] = _mm_loadu_si128(lo_b[j].as_ptr().cast());
                th[j] = _mm_loadu_si128(hi_b[j].as_ptr().cast());
            }
            let mask = _mm_set1_epi8(0x0F);
            let mut i = 0;
            while i + 16 <= half {
                let s_lo = _mm_loadu_si128(src.as_ptr().add(i).cast());
                let s_hi = _mm_loadu_si128(src.as_ptr().add(half + i).cast());
                let x0 = _mm_and_si128(s_lo, mask);
                let x1 = _mm_and_si128(_mm_srli_epi64::<4>(s_lo), mask);
                let x2 = _mm_and_si128(s_hi, mask);
                let x3 = _mm_and_si128(_mm_srli_epi64::<4>(s_hi), mask);
                let mut p_lo = _mm_xor_si128(
                    _mm_xor_si128(_mm_shuffle_epi8(tl[0], x0), _mm_shuffle_epi8(tl[1], x1)),
                    _mm_xor_si128(_mm_shuffle_epi8(tl[2], x2), _mm_shuffle_epi8(tl[3], x3)),
                );
                let mut p_hi = _mm_xor_si128(
                    _mm_xor_si128(_mm_shuffle_epi8(th[0], x0), _mm_shuffle_epi8(th[1], x1)),
                    _mm_xor_si128(_mm_shuffle_epi8(th[2], x2), _mm_shuffle_epi8(th[3], x3)),
                );
                if !overwrite {
                    p_lo = _mm_xor_si128(p_lo, _mm_loadu_si128(dst.as_ptr().add(i).cast()));
                    p_hi = _mm_xor_si128(p_hi, _mm_loadu_si128(dst.as_ptr().add(half + i).cast()));
                }
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), p_lo);
                _mm_storeu_si128(dst.as_mut_ptr().add(half + i).cast(), p_hi);
                i += 16;
            }
            i
        }
    }

    /// # Safety: host must support SSSE3; equal even lengths.
    pub(super) unsafe fn mul_add_ssse3(dst: &mut [u8], src: &[u8], t16: &NibbleTables) {
        // SAFETY: the caller's contract is exactly `body_ssse3`'s.
        let done = unsafe { body_ssse3(dst, src, t16, false) };
        portable_mul_add(dst, src, t16, done);
    }

    /// # Safety: host must support SSSE3; equal even lengths.
    pub(super) unsafe fn mul_into_ssse3(dst: &mut [u8], src: &[u8], t16: &NibbleTables) {
        // SAFETY: the caller's contract is exactly `body_ssse3`'s.
        let done = unsafe { body_ssse3(dst, src, t16, true) };
        portable_mul_into(dst, src, t16, done);
    }

    /// In-place `dst = m · dst`, dedicated body: a `&[u8]`/`&mut [u8]`
    /// pair over one buffer would be aliasing UB, so every access goes
    /// through `dst`'s own pointer, each chunk fully read before stored.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports SSSE3 and `dst.len()` is even.
    #[target_feature(enable = "ssse3")]
    unsafe fn body_inplace_ssse3(dst: &mut [u8], t16: &NibbleTables) -> usize {
        let (lo_b, hi_b) = byte_tables(t16);
        let half = dst.len() / 2;
        // SAFETY: accesses at `i` and `half + i` are bounded by
        // `i + 16 <= half`; all through `dst`'s own pointer, unaligned
        // forms throughout.
        unsafe {
            let mut tl = [_mm_setzero_si128(); 4];
            let mut th = [_mm_setzero_si128(); 4];
            for j in 0..4 {
                tl[j] = _mm_loadu_si128(lo_b[j].as_ptr().cast());
                th[j] = _mm_loadu_si128(hi_b[j].as_ptr().cast());
            }
            let mask = _mm_set1_epi8(0x0F);
            let mut i = 0;
            while i + 16 <= half {
                let s_lo = _mm_loadu_si128(dst.as_ptr().add(i).cast());
                let s_hi = _mm_loadu_si128(dst.as_ptr().add(half + i).cast());
                let x0 = _mm_and_si128(s_lo, mask);
                let x1 = _mm_and_si128(_mm_srli_epi64::<4>(s_lo), mask);
                let x2 = _mm_and_si128(s_hi, mask);
                let x3 = _mm_and_si128(_mm_srli_epi64::<4>(s_hi), mask);
                let p_lo = _mm_xor_si128(
                    _mm_xor_si128(_mm_shuffle_epi8(tl[0], x0), _mm_shuffle_epi8(tl[1], x1)),
                    _mm_xor_si128(_mm_shuffle_epi8(tl[2], x2), _mm_shuffle_epi8(tl[3], x3)),
                );
                let p_hi = _mm_xor_si128(
                    _mm_xor_si128(_mm_shuffle_epi8(th[0], x0), _mm_shuffle_epi8(th[1], x1)),
                    _mm_xor_si128(_mm_shuffle_epi8(th[2], x2), _mm_shuffle_epi8(th[3], x3)),
                );
                _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), p_lo);
                _mm_storeu_si128(dst.as_mut_ptr().add(half + i).cast(), p_hi);
                i += 16;
            }
            i
        }
    }

    /// # Safety: host must support SSSE3; even length.
    pub(super) unsafe fn mul_assign_ssse3(dst: &mut [u8], t16: &NibbleTables) {
        // SAFETY: the caller's contract is exactly `body_inplace_ssse3`'s.
        let done = unsafe { body_inplace_ssse3(dst, t16) };
        portable_mul_assign(dst, t16, done);
    }

    /// # Safety: host must support AVX2; equal even lengths.
    #[target_feature(enable = "avx2")]
    unsafe fn body_avx2(dst: &mut [u8], src: &[u8], t16: &NibbleTables, overwrite: bool) -> usize {
        let (lo_b, hi_b) = byte_tables(t16);
        let half = dst.len() / 2;
        // SAFETY: table loads read 16 bytes from 16-byte arrays (then
        // broadcast in-register); plane accesses at `i` / `half + i` are
        // bounded by `i + 32 <= half`; unaligned forms throughout.
        unsafe {
            let mut tl = [_mm256_setzero_si256(); 4];
            let mut th = [_mm256_setzero_si256(); 4];
            for j in 0..4 {
                tl[j] = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo_b[j].as_ptr().cast()));
                th[j] = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi_b[j].as_ptr().cast()));
            }
            let mask = _mm256_set1_epi8(0x0F);
            let mut i = 0;
            while i + 32 <= half {
                let s_lo = _mm256_loadu_si256(src.as_ptr().add(i).cast());
                let s_hi = _mm256_loadu_si256(src.as_ptr().add(half + i).cast());
                let x0 = _mm256_and_si256(s_lo, mask);
                let x1 = _mm256_and_si256(_mm256_srli_epi64::<4>(s_lo), mask);
                let x2 = _mm256_and_si256(s_hi, mask);
                let x3 = _mm256_and_si256(_mm256_srli_epi64::<4>(s_hi), mask);
                let mut p_lo = _mm256_xor_si256(
                    _mm256_xor_si256(
                        _mm256_shuffle_epi8(tl[0], x0),
                        _mm256_shuffle_epi8(tl[1], x1),
                    ),
                    _mm256_xor_si256(
                        _mm256_shuffle_epi8(tl[2], x2),
                        _mm256_shuffle_epi8(tl[3], x3),
                    ),
                );
                let mut p_hi = _mm256_xor_si256(
                    _mm256_xor_si256(
                        _mm256_shuffle_epi8(th[0], x0),
                        _mm256_shuffle_epi8(th[1], x1),
                    ),
                    _mm256_xor_si256(
                        _mm256_shuffle_epi8(th[2], x2),
                        _mm256_shuffle_epi8(th[3], x3),
                    ),
                );
                if !overwrite {
                    p_lo = _mm256_xor_si256(p_lo, _mm256_loadu_si256(dst.as_ptr().add(i).cast()));
                    p_hi = _mm256_xor_si256(
                        p_hi,
                        _mm256_loadu_si256(dst.as_ptr().add(half + i).cast()),
                    );
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), p_lo);
                _mm256_storeu_si256(dst.as_mut_ptr().add(half + i).cast(), p_hi);
                i += 32;
            }
            i
        }
    }

    /// # Safety: host must support AVX2; equal even lengths.
    pub(super) unsafe fn mul_add_avx2(dst: &mut [u8], src: &[u8], t16: &NibbleTables) {
        // SAFETY: the caller's contract is exactly `body_avx2`'s.
        let done = unsafe { body_avx2(dst, src, t16, false) };
        portable_mul_add(dst, src, t16, done);
    }

    /// # Safety: host must support AVX2; equal even lengths.
    pub(super) unsafe fn mul_into_avx2(dst: &mut [u8], src: &[u8], t16: &NibbleTables) {
        // SAFETY: the caller's contract is exactly `body_avx2`'s.
        let done = unsafe { body_avx2(dst, src, t16, true) };
        portable_mul_into(dst, src, t16, done);
    }

    /// In-place AVX2 body, dedicated for the same aliasing reason as
    /// `body_inplace_ssse3`.
    ///
    /// # Safety
    ///
    /// Caller must ensure the host supports AVX2 and `dst.len()` is even.
    #[target_feature(enable = "avx2")]
    unsafe fn body_inplace_avx2(dst: &mut [u8], t16: &NibbleTables) -> usize {
        let (lo_b, hi_b) = byte_tables(t16);
        let half = dst.len() / 2;
        // SAFETY: accesses at `i` / `half + i` bounded by `i + 32 <= half`,
        // all through `dst`'s own pointer, unaligned forms throughout.
        unsafe {
            let mut tl = [_mm256_setzero_si256(); 4];
            let mut th = [_mm256_setzero_si256(); 4];
            for j in 0..4 {
                tl[j] = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo_b[j].as_ptr().cast()));
                th[j] = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi_b[j].as_ptr().cast()));
            }
            let mask = _mm256_set1_epi8(0x0F);
            let mut i = 0;
            while i + 32 <= half {
                let s_lo = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                let s_hi = _mm256_loadu_si256(dst.as_ptr().add(half + i).cast());
                let x0 = _mm256_and_si256(s_lo, mask);
                let x1 = _mm256_and_si256(_mm256_srli_epi64::<4>(s_lo), mask);
                let x2 = _mm256_and_si256(s_hi, mask);
                let x3 = _mm256_and_si256(_mm256_srli_epi64::<4>(s_hi), mask);
                let p_lo = _mm256_xor_si256(
                    _mm256_xor_si256(
                        _mm256_shuffle_epi8(tl[0], x0),
                        _mm256_shuffle_epi8(tl[1], x1),
                    ),
                    _mm256_xor_si256(
                        _mm256_shuffle_epi8(tl[2], x2),
                        _mm256_shuffle_epi8(tl[3], x3),
                    ),
                );
                let p_hi = _mm256_xor_si256(
                    _mm256_xor_si256(
                        _mm256_shuffle_epi8(th[0], x0),
                        _mm256_shuffle_epi8(th[1], x1),
                    ),
                    _mm256_xor_si256(
                        _mm256_shuffle_epi8(th[2], x2),
                        _mm256_shuffle_epi8(th[3], x3),
                    ),
                );
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), p_lo);
                _mm256_storeu_si256(dst.as_mut_ptr().add(half + i).cast(), p_hi);
                i += 32;
            }
            i
        }
    }

    /// # Safety: host must support AVX2; even length.
    pub(super) unsafe fn mul_assign_avx2(dst: &mut [u8], t16: &NibbleTables) {
        // SAFETY: the caller's contract is exactly `body_inplace_avx2`'s.
        let done = unsafe { body_inplace_avx2(dst, t16) };
        portable_mul_assign(dst, t16, done);
    }
}

// ---------------------------------------------------------------------------
// AArch64 NEON TBL kernels. NEON is mandatory on AArch64, so these are safe
// fns — the only unsafety is the raw-pointer loads, bounded like x86's.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{
        byte_tables, portable_mul_add, portable_mul_assign, portable_mul_into, NibbleTables,
    };
    use std::arch::aarch64::*;

    fn body(dst: &mut [u8], src: &[u8], t16: &NibbleTables, overwrite: bool) -> usize {
        let (lo_b, hi_b) = byte_tables(t16);
        let half = dst.len() / 2;
        // SAFETY: NEON is architecturally guaranteed on AArch64; plane
        // accesses at `i` / `half + i` are bounded by `i + 16 <= half`.
        unsafe {
            let mut tl = [vdupq_n_u8(0); 4];
            let mut th = [vdupq_n_u8(0); 4];
            for j in 0..4 {
                tl[j] = vld1q_u8(lo_b[j].as_ptr());
                th[j] = vld1q_u8(hi_b[j].as_ptr());
            }
            let mask = vdupq_n_u8(0x0F);
            let mut i = 0;
            while i + 16 <= half {
                let s_lo = vld1q_u8(src.as_ptr().add(i));
                let s_hi = vld1q_u8(src.as_ptr().add(half + i));
                let x0 = vandq_u8(s_lo, mask);
                let x1 = vshrq_n_u8(s_lo, 4);
                let x2 = vandq_u8(s_hi, mask);
                let x3 = vshrq_n_u8(s_hi, 4);
                let mut p_lo = veorq_u8(
                    veorq_u8(vqtbl1q_u8(tl[0], x0), vqtbl1q_u8(tl[1], x1)),
                    veorq_u8(vqtbl1q_u8(tl[2], x2), vqtbl1q_u8(tl[3], x3)),
                );
                let mut p_hi = veorq_u8(
                    veorq_u8(vqtbl1q_u8(th[0], x0), vqtbl1q_u8(th[1], x1)),
                    veorq_u8(vqtbl1q_u8(th[2], x2), vqtbl1q_u8(th[3], x3)),
                );
                if !overwrite {
                    p_lo = veorq_u8(p_lo, vld1q_u8(dst.as_ptr().add(i)));
                    p_hi = veorq_u8(p_hi, vld1q_u8(dst.as_ptr().add(half + i)));
                }
                vst1q_u8(dst.as_mut_ptr().add(i), p_lo);
                vst1q_u8(dst.as_mut_ptr().add(half + i), p_hi);
                i += 16;
            }
            i
        }
    }

    pub(super) fn mul_add_neon(dst: &mut [u8], src: &[u8], t16: &NibbleTables) {
        let done = body(dst, src, t16, false);
        portable_mul_add(dst, src, t16, done);
    }

    pub(super) fn mul_into_neon(dst: &mut [u8], src: &[u8], t16: &NibbleTables) {
        let done = body(dst, src, t16, true);
        portable_mul_into(dst, src, t16, done);
    }

    pub(super) fn mul_assign_neon(dst: &mut [u8], t16: &NibbleTables) {
        let (lo_b, hi_b) = byte_tables(t16);
        let half = dst.len() / 2;
        // SAFETY: as `body`, in-place: every chunk pair is fully read
        // before either store, all through `dst`'s own pointer.
        let done = unsafe {
            let mut tl = [vdupq_n_u8(0); 4];
            let mut th = [vdupq_n_u8(0); 4];
            for j in 0..4 {
                tl[j] = vld1q_u8(lo_b[j].as_ptr());
                th[j] = vld1q_u8(hi_b[j].as_ptr());
            }
            let mask = vdupq_n_u8(0x0F);
            let mut i = 0;
            while i + 16 <= half {
                let s_lo = vld1q_u8(dst.as_ptr().add(i));
                let s_hi = vld1q_u8(dst.as_ptr().add(half + i));
                let x0 = vandq_u8(s_lo, mask);
                let x1 = vshrq_n_u8(s_lo, 4);
                let x2 = vandq_u8(s_hi, mask);
                let x3 = vshrq_n_u8(s_hi, 4);
                let p_lo = veorq_u8(
                    veorq_u8(vqtbl1q_u8(tl[0], x0), vqtbl1q_u8(tl[1], x1)),
                    veorq_u8(vqtbl1q_u8(tl[2], x2), vqtbl1q_u8(tl[3], x3)),
                );
                let p_hi = veorq_u8(
                    veorq_u8(vqtbl1q_u8(th[0], x0), vqtbl1q_u8(th[1], x1)),
                    veorq_u8(vqtbl1q_u8(th[2], x2), vqtbl1q_u8(th[3], x3)),
                );
                vst1q_u8(dst.as_mut_ptr().add(i), p_lo);
                vst1q_u8(dst.as_mut_ptr().add(half + i), p_hi);
                i += 16;
            }
            i
        };
        portable_mul_assign(dst, t16, done);
    }
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;
    use crate::tables::tables;

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
    fn detection_is_cached_and_consistent() {
        let first = active_kernel();
        for _ in 0..3 {
            assert_eq!(active_kernel(), first);
        }
        assert!(first.is_available());
        assert!(Gf16Kernel::available().contains(&first));
    }

    #[test]
    fn portable_is_always_available_and_last() {
        assert!(Gf16Kernel::Portable.is_available());
        assert_eq!(*Gf16Kernel::available().last().unwrap(), Gf16Kernel::Portable);
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
                for kernel in Gf16Kernel::available() {
                    let mut dst = dst0.clone();
                    mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, log_m);
                    assert_eq!(dst, want, "mul_add kernel {kernel:?}, m={m:#x}, len={len}");

                    let mut dst = dst0.clone();
                    mul_into_with_kernel(kernel, &t, &mut dst, &src, log_m);
                    let pure: Vec<u8> = reference_mul_add(&t, &vec![0u8; len], &src, m);
                    assert_eq!(dst, pure, "mul_into kernel {kernel:?}, m={m:#x}, len={len}");

                    let mut dst = src.clone();
                    mul_assign_with_kernel(kernel, &t, &mut dst, log_m);
                    assert_eq!(dst, pure, "mul_assign kernel {kernel:?}, m={m:#x}, len={len}");
                }
            }
        }
    }

    #[test]
    fn wrap_log_coefficients_are_identity_fast_paths() {
        let t = tables();
        let src: Vec<u8> = (0..66).map(|i| (i * 3 + 1) as u8).collect();
        for log_m in [0u16, MODULUS] {
            for kernel in Gf16Kernel::available() {
                let mut dst = vec![0u8; 66];
                mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, log_m);
                assert_eq!(dst, src, "×1 must reduce to xor (kernel {kernel:?})");
                let mut inplace = src.clone();
                mul_assign_with_kernel(kernel, &t, &mut inplace, log_m);
                assert_eq!(inplace, src);
            }
        }
    }

    #[test]
    fn unavailable_kernel_falls_back_portably() {
        let foreign = [Gf16Kernel::Avx2, Gf16Kernel::Ssse3, Gf16Kernel::Neon]
            .into_iter()
            .find(|k| !k.is_available());
        let Some(kernel) = foreign else {
            return; // host supports everything it could name
        };
        let t = tables();
        let src: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let mut dst = vec![0xAA; 64];
        let want = reference_mul_add(&t, &dst, &src, 0x1D2C);
        mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, t.log[0x1D2C]);
        assert_eq!(dst, want);
    }

    #[test]
    fn xor_assign_is_plain_xor() {
        let a: Vec<u8> = (0..98).map(|i| (i * 5) as u8).collect();
        let b: Vec<u8> = (0..98).map(|i| (i * 11 + 3) as u8).collect();
        let want: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        let mut dst = a.clone();
        xor_assign(&mut dst, &b);
        assert_eq!(dst, want);
    }
}
