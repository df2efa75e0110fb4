//! Tier-1 smoke of the one SIMD dispatch ladder: every kernel rung this
//! host can run must produce the scalar reference's bytes for the GF(2^8)
//! region ops and the GF(2^16) split-plane kernels, at lengths around one
//! 16-, 32- and 64-byte vector (the head/tail boundaries of every rung).
//! The per-crate suites (`nc-gf256`'s `simd_dispatch`, `nc-fft`'s module
//! tests) sweep every coefficient and the rungs this host lacks.

use extreme_nc::fft::{simd as fft_simd, tables};
use extreme_nc::gf256::scalar::mul_loop;
use extreme_nc::gf256::simd::{
    dot_assign_with_kernel, mul_add_assign_with_kernel, mul_assign_with_kernel,
    mul_into_with_kernel, SimdKernel,
};

const LENGTHS: [usize; 11] = [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65];

fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(37) + salt) as u8).collect()
}

#[test]
fn gf256_region_ops_match_scalar_on_every_available_kernel() {
    for kernel in SimdKernel::available() {
        for &len in &LENGTHS {
            let src = pattern(len, 11);
            let dst0 = pattern(len, 5);
            for c in [2u8, 0x53, 0x80, 0xFF] {
                let product: Vec<u8> = src.iter().map(|&s| mul_loop(c, s)).collect();
                let ctx = format!("kernel {kernel:?}, c={c:#x}, len={len}");

                let mut dst = dst0.clone();
                mul_add_assign_with_kernel(kernel, &mut dst, &src, c);
                let want: Vec<u8> = dst0.iter().zip(&product).map(|(&d, &p)| d ^ p).collect();
                assert_eq!(dst, want, "mul_add {ctx}");

                let mut dst = dst0.clone();
                mul_into_with_kernel(kernel, &mut dst, &src, c);
                assert_eq!(dst, product, "mul_into {ctx}");

                let mut dst = src.clone();
                mul_assign_with_kernel(kernel, &mut dst, c);
                assert_eq!(dst, product, "in-place mul_assign {ctx}");
            }

            // Five sources: one blocked pass of four plus a remainder of one.
            let sources: Vec<Vec<u8>> = (0..5).map(|s| pattern(len, s * 13 + 1)).collect();
            let refs: Vec<&[u8]> = sources.iter().map(|s| s.as_slice()).collect();
            let coeffs = [0x02u8, 0x53, 0xFE, 0x9A, 0x1D];
            let mut want = dst0.clone();
            for (s, &c) in refs.iter().zip(&coeffs) {
                for (d, &b) in want.iter_mut().zip(*s) {
                    *d ^= mul_loop(c, b);
                }
            }
            let mut dst = dst0.clone();
            dot_assign_with_kernel(kernel, &mut dst, &refs, &coeffs);
            assert_eq!(dst, want, "dot_assign kernel {kernel:?}, len={len}");
        }
    }
}

#[test]
fn gf65536_region_ops_match_field_mul_on_every_available_kernel() {
    let t = tables();
    for kernel in SimdKernel::available() {
        // `symbols` symbols per region: two byte planes of that length.
        for &symbols in &LENGTHS {
            let src = pattern(2 * symbols, 11);
            let dst0 = pattern(2 * symbols, 5);
            for m in [2u16, 0x1234, 0x8000, 0xFFFF] {
                let mut product = vec![0u8; 2 * symbols];
                for i in 0..symbols {
                    let s = u16::from(src[i]) | u16::from(src[symbols + i]) << 8;
                    let p = t.mul(s, m);
                    product[i] = p as u8;
                    product[symbols + i] = (p >> 8) as u8;
                }
                let log_m = t.log[usize::from(m)];
                let ctx = format!("kernel {kernel:?}, m={m:#x}, symbols={symbols}");

                let mut dst = dst0.clone();
                fft_simd::mul_add_assign_with_kernel(kernel, &t, &mut dst, &src, log_m);
                let want: Vec<u8> = dst0.iter().zip(&product).map(|(&d, &p)| d ^ p).collect();
                assert_eq!(dst, want, "mul_add {ctx}");

                let mut dst = dst0.clone();
                fft_simd::mul_into_with_kernel(kernel, &t, &mut dst, &src, log_m);
                assert_eq!(dst, product, "mul_into {ctx}");
            }
        }
    }
}
