//! Region operations: the row-length GF(2^8) primitives at the heart of
//! network coding.
//!
//! Encoding and Gauss-Jordan decoding both reduce to a handful of
//! operations over byte regions (coefficient rows of length n, coded blocks
//! of length k):
//!
//! * [`add_assign`]: `dst ^= src` (field addition is XOR),
//! * [`mul_assign`]: `dst = c · dst`,
//! * [`mul_into`]: `dst = c · src`,
//! * [`mul_add_assign`]: `dst ^= c · src` (the classic "axpy"),
//! * [`dot_assign`]: `dst ^= Σ c_i · src_i` (one row of the encoding
//!   product).
//!
//! Every operation runs on the process-wide SIMD kernel
//! ([`crate::simd::active_kernel`]): detected once per process, forced with
//! the `NC_GF_BACKEND` environment variable, and degrading to the portable
//! 256-byte product-table row where no vector ISA is present. To pin a
//! rung explicitly (benches, property tests) call the `*_with_kernel`
//! functions in [`crate::simd`]. Every rung produces identical bytes
//! (property-tested against the scalar references in [`crate::scalar`]).

use crate::simd::{self, active_kernel};

/// `dst ^= src` with the widest XOR the active kernel offers (64-byte
/// AVX-512 lanes, 32-byte AVX2 lanes, 8-byte words otherwise).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn add_assign(dst: &mut [u8], src: &[u8]) {
    simd::xor_assign_with_kernel(active_kernel(), dst, src);
}

/// `dst ^= c · src` on the active kernel.
///
/// Zero and one coefficients take fast paths (no-op and XOR respectively),
/// as any production coder would.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mul_add_assign(dst: &mut [u8], src: &[u8], c: u8) {
    simd::mul_add_assign_with_kernel(active_kernel(), dst, src, c);
}

/// `dst = c · dst` on the active kernel.
#[inline]
pub fn mul_assign(dst: &mut [u8], c: u8) {
    simd::mul_assign_with_kernel(active_kernel(), dst, c);
}

/// `dst = c · src` (overwriting) on the active kernel.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mul_into(dst: &mut [u8], src: &[u8], c: u8) {
    simd::mul_into_with_kernel(active_kernel(), dst, src, c);
}

/// Accumulates `dst ^= Σ coeffs[i] · sources[i]` — one output row of the
/// encoding matrix product (the paper's Eq. 1) — on the active kernel.
///
/// This runs the blocked multi-source kernel
/// ([`crate::simd::dot_assign_with_kernel`]): up to
/// [`crate::simd::DOT_BLOCK`] coefficient rows are folded per pass, keeping
/// their half-byte tables in vector registers and streaming each
/// destination cache line once per block instead of once per source.
///
/// # Panics
///
/// Panics if `coeffs` and `sources` differ in length, or any source region's
/// length differs from `dst`'s.
#[inline]
pub fn dot_assign(dst: &mut [u8], sources: &[&[u8]], coeffs: &[u8]) {
    simd::dot_assign_with_kernel(active_kernel(), dst, sources, coeffs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::mul_loop;

    #[test]
    fn add_assign_is_xor() {
        let mut dst: Vec<u8> = (0..33).collect();
        let src: Vec<u8> = (0..33).map(|i| i * 3).collect();
        let want: Vec<u8> = dst.iter().zip(&src).map(|(&d, &s)| d ^ s).collect();
        add_assign(&mut dst, &src);
        assert_eq!(dst, want);
    }

    #[test]
    fn mul_into_overwrites() {
        let src = [1u8, 2, 3, 0xFF];
        let mut dst = [0xAAu8; 4];
        mul_into(&mut dst, &src, 2);
        assert_eq!(dst, [2, 4, 6, crate::tables::xtime(0xFF)]);
        mul_into(&mut dst, &src, 0);
        assert_eq!(dst, [0; 4]);
        mul_into(&mut dst, &src, 1);
        assert_eq!(dst, src);
    }

    #[test]
    fn dot_assign_matches_manual_sum() {
        let a = [1u8, 2, 3];
        let b = [4u8, 5, 6];
        let c = [7u8, 8, 9];
        let coeffs = [0x02u8, 0x00, 0x53];
        let mut dst = [0u8; 3];
        dot_assign(&mut dst, &[&a, &b, &c], &coeffs);
        for i in 0..3 {
            let want = mul_loop(0x02, a[i]) ^ mul_loop(0x00, b[i]) ^ mul_loop(0x53, c[i]);
            assert_eq!(dst[i], want);
        }
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut dst = [0u8; 3];
        mul_add_assign(&mut dst, &[0u8; 4], 5);
    }

    #[test]
    fn mul_add_is_linear_in_coefficient() {
        let src: Vec<u8> = (0..64).collect();
        for c1 in [2u8, 9, 0x80] {
            for c2 in [3u8, 0x41] {
                // (c1 + c2)·src == c1·src + c2·src
                let mut lhs = vec![0u8; 64];
                mul_add_assign(&mut lhs, &src, c1 ^ c2);
                let mut rhs = vec![0u8; 64];
                mul_add_assign(&mut rhs, &src, c1);
                mul_add_assign(&mut rhs, &src, c2);
                assert_eq!(lhs, rhs);
            }
        }
    }
}
