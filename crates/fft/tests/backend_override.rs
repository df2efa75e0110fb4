//! `NC_GF_BACKEND` selects the GF(2^16) rung too: one variable pins both
//! fields' kernels.
//!
//! The kernel choice is made once per process, at first dispatch, so this
//! is the only test in its binary: no other test may dispatch first.

use nc_fft::{simd, tables};
use nc_gf256::simd::SimdKernel;

#[test]
fn forced_portable_rung_pins_the_gf16_rung() {
    // Before the first dispatch of this process, so the cached choice sees
    // it.
    std::env::set_var("NC_GF_BACKEND", "portable");
    assert_eq!(simd::active_kernel(), SimdKernel::Portable);

    let t = tables();
    let m = 0x1D2Cu16;
    let symbols = 40; // past one 32-symbol AVX2 chunk, so a SIMD rung would run
    let src: Vec<u8> = (0..2 * symbols).map(|i| (i * 37 + 11) as u8).collect();
    let mut dst: Vec<u8> = (0..2 * symbols).map(|i| (i * 91 + 5) as u8).collect();
    let mut want = dst.clone();
    for i in 0..symbols {
        let p = t.mul(u16::from(src[i]) | u16::from(src[symbols + i]) << 8, m);
        want[i] ^= p as u8;
        want[symbols + i] ^= (p >> 8) as u8;
    }
    simd::mul_add_assign(&t, &mut dst, &src, t.log[usize::from(m)]);
    assert_eq!(dst, want);
}
