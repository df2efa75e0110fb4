//! Equivalence and dispatch tests for the SIMD region kernels.
//!
//! Every available [`SimdKernel`] — plus the forced portable fallback, so
//! non-SIMD hosts still exercise the dispatch seam — must be bit-identical
//! to the scalar ground truth across all 256 coefficients and the full set
//! of unaligned region lengths: 0, 1, around one vector (15/16/17), around
//! two vectors (31/32/33), around one 512-bit vector (63/64/65, the
//! masked-tail boundary of the `Avx512`/`Gfni` rungs), and 4 KiB ± 1 (the
//! paper's streaming block size).
//!
//! Kernels the CPU lacks are still pushed through the dispatcher (they must
//! degrade portably, not fault); `report_skipped_kernels` prints a visible
//! `SKIPPED` marker per rung that could not be natively exercised.

use nc_gf256::region;
use nc_gf256::scalar::mul_loop;
use nc_gf256::simd::{
    self, dot_assign_with_kernel, mul_add_assign_with_kernel, mul_assign_with_kernel,
    mul_into_with_kernel, xor_assign_with_kernel, SimdKernel, DOT_BLOCK,
};
use proptest::prelude::*;

/// The ISSUE's length ladder: empty, single byte, one-vector ± 1,
/// two-vector ± 1, one 64-byte vector ± 1, and 4 KiB ± 1.
const LENGTHS: [usize; 14] = [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4095, 4096, 4097];

/// Every enum variant, in native-or-degraded order: the kernels the host
/// can run first, then each foreign kernel, which must degrade to the
/// portable path instead of faulting.
fn kernels_under_test() -> Vec<SimdKernel> {
    let mut ks = simd::SimdKernel::available();
    for k in ALL_KERNELS {
        if !ks.contains(&k) {
            ks.push(k);
        }
    }
    ks
}

const ALL_KERNELS: [SimdKernel; 6] = [
    SimdKernel::Gfni,
    SimdKernel::Avx512,
    SimdKernel::Avx2,
    SimdKernel::Ssse3,
    SimdKernel::Neon,
    SimdKernel::Portable,
];

fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(37) + salt) as u8).collect()
}

#[test]
fn mul_add_assign_all_coefficients_all_lengths() {
    for &len in &LENGTHS {
        let src = pattern(len, 11);
        let dst0 = pattern(len, 5);
        for c in 0..=255u8 {
            let want: Vec<u8> = dst0.iter().zip(&src).map(|(&d, &s)| d ^ mul_loop(c, s)).collect();
            for kernel in kernels_under_test() {
                let mut dst = dst0.clone();
                mul_add_assign_with_kernel(kernel, &mut dst, &src, c);
                assert_eq!(dst, want, "kernel {kernel:?}, c={c}, len={len}");
            }
        }
    }
}

#[test]
fn mul_into_all_coefficients_all_lengths() {
    for &len in &LENGTHS {
        let src = pattern(len, 23);
        for c in 0..=255u8 {
            let want: Vec<u8> = src.iter().map(|&s| mul_loop(c, s)).collect();
            for kernel in kernels_under_test() {
                let mut dst = vec![0xEE; len];
                mul_into_with_kernel(kernel, &mut dst, &src, c);
                assert_eq!(dst, want, "kernel {kernel:?}, c={c}, len={len}");
            }
        }
    }
}

#[test]
fn mul_assign_all_coefficients_all_lengths() {
    for &len in &LENGTHS {
        let data0 = pattern(len, 41);
        for c in 0..=255u8 {
            let want: Vec<u8> = data0.iter().map(|&d| mul_loop(c, d)).collect();
            for kernel in kernels_under_test() {
                let mut data = data0.clone();
                mul_assign_with_kernel(kernel, &mut data, c);
                assert_eq!(data, want, "kernel {kernel:?}, c={c}, len={len}");
            }
        }
    }
}

#[test]
fn xor_assign_all_lengths() {
    for &len in &LENGTHS {
        let a = pattern(len, 3);
        let b = pattern(len, 17);
        let want: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        for kernel in kernels_under_test() {
            let mut dst = a.clone();
            xor_assign_with_kernel(kernel, &mut dst, &b);
            assert_eq!(dst, want, "kernel {kernel:?}, len={len}");
        }
    }
}

#[test]
fn forced_portable_matches_active_kernel() {
    // The dispatch fallback itself: Portable must agree with whatever the
    // host auto-selected, so a forced NC_GF_BACKEND=portable run covers the
    // same code results.
    let active = simd::active_kernel();
    for &len in &LENGTHS {
        let src = pattern(len, 7);
        for c in [0u8, 1, 2, 0x53, 0xFF] {
            let mut fast = pattern(len, 9);
            let mut slow = fast.clone();
            mul_add_assign_with_kernel(active, &mut fast, &src, c);
            mul_add_assign_with_kernel(SimdKernel::Portable, &mut slow, &src, c);
            assert_eq!(fast, slow, "active {active:?} vs portable, c={c}, len={len}");
        }
    }
}

#[test]
fn blocked_dot_matches_row_at_a_time() {
    // Source counts straddling the DOT_BLOCK boundary, with zero and one
    // coefficients mixed in so the skip/fast paths stay inside the sweep.
    for rows in [1usize, DOT_BLOCK - 1, DOT_BLOCK, DOT_BLOCK + 1, 3 * DOT_BLOCK + 2] {
        for &len in &[0usize, 1, 33, 4097] {
            let sources: Vec<Vec<u8>> = (0..rows).map(|s| pattern(len, s * 13 + 1)).collect();
            let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
            let coeffs: Vec<u8> =
                (0..rows).map(|i| [0x00u8, 0x01, 0x53, 0xFE, 0x9A][i % 5]).collect();
            let mut want = pattern(len, 99);
            for (s, &c) in refs.iter().zip(&coeffs) {
                for (d, &b) in want.iter_mut().zip(*s) {
                    *d ^= mul_loop(c, b);
                }
            }
            for kernel in kernels_under_test() {
                let mut dst = pattern(len, 99);
                dot_assign_with_kernel(kernel, &mut dst, &refs, &coeffs);
                assert_eq!(dst, want, "kernel {kernel:?}, rows={rows}, len={len}");
            }
        }
    }
}

#[test]
fn report_skipped_kernels() {
    // Not an assertion: a visible audit trail. `cargo test -- --nocapture`
    // (and any failing run) shows exactly which rungs ran natively and
    // which were only exercised through the degraded-dispatch path.
    for k in ALL_KERNELS {
        if k.is_available() {
            println!("kernel {:>8}: exercised natively", k.name());
        } else {
            println!("kernel {:>8}: SKIPPED (CPU lacks feature; degraded path tested)", k.name());
        }
    }
}

#[test]
fn in_place_mul_assign_matches_out_of_place() {
    // The in-place multiply runs each rung's one body with `dst` as its own
    // source (through raw pointers: a `&[u8]`/`&mut [u8]` pair over one
    // buffer would be aliasing UB), so pin it against `mul_into` from a
    // pristine copy of the same data.
    for &len in &LENGTHS {
        let data0 = pattern(len, 61);
        for c in [0u8, 1, 2, 0x53, 0x80, 0xFF] {
            for kernel in kernels_under_test() {
                let mut out_of_place = vec![0u8; len];
                mul_into_with_kernel(kernel, &mut out_of_place, &data0, c);
                let mut in_place = data0.clone();
                mul_assign_with_kernel(kernel, &mut in_place, c);
                assert_eq!(in_place, out_of_place, "kernel {kernel:?}, c={c}, len={len}");
            }
        }
    }
}

#[test]
fn kernel_ids_are_distinct_and_stable() {
    // The `gf.kernel_id` gauge is only useful if ids never collide or move.
    let ids: Vec<u8> = ALL_KERNELS.iter().map(|k| k.id()).collect();
    assert_eq!(ids, [5, 4, 2, 1, 3, 0]);
}

#[test]
fn region_ops_equal_scalar_reference() {
    // The active-kernel `region` seam used by every consumer crate.
    for &len in &LENGTHS {
        let src = pattern(len, 51);
        for c in [0u8, 1, 2, 0x53, 0x80, 0xFF] {
            let mut want = pattern(len, 77);
            for (d, &s) in want.iter_mut().zip(&src) {
                *d ^= mul_loop(c, s);
            }
            let mut got = pattern(len, 77);
            region::mul_add_assign(&mut got, &src, c);
            assert_eq!(got, want, "c={c}, len={len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn proptest_kernels_agree_on_random_regions(
        c: u8,
        seed in 0usize..1024,
        len_idx in 0usize..LENGTHS.len(),
    ) {
        let len = LENGTHS[len_idx];
        let src = pattern(len, seed);
        let dst0 = pattern(len, seed.wrapping_mul(31) + 7);
        let want: Vec<u8> = dst0.iter().zip(&src).map(|(&d, &s)| d ^ mul_loop(c, s)).collect();
        for kernel in kernels_under_test() {
            let mut dst = dst0.clone();
            mul_add_assign_with_kernel(kernel, &mut dst, &src, c);
            prop_assert_eq!(&dst, &want, "kernel {:?}, c={}, len={}", kernel, c, len);
        }
    }

    #[test]
    fn proptest_dot_blocking_is_invisible(
        rows in 1usize..12,
        seed in 0usize..1024,
        len_idx in 0usize..4,
    ) {
        let len = [1usize, 16, 33, 255][len_idx];
        let sources: Vec<Vec<u8>> =
            (0..rows).map(|s| pattern(len, seed + s * 7)).collect();
        let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
        let coeffs: Vec<u8> = (0..rows).map(|i| (seed + i * 3) as u8).collect();
        // Row-at-a-time scalar ground truth.
        let mut want = pattern(len, seed + 500);
        for (s, &c) in refs.iter().zip(&coeffs) {
            for (d, &b) in want.iter_mut().zip(*s) {
                *d ^= mul_loop(c, b);
            }
        }
        let mut got = pattern(len, seed + 500);
        region::dot_assign(&mut got, &refs, &coeffs);
        prop_assert_eq!(got, want);
    }
}
