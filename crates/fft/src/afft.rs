//! The LCH additive FFT/IFFT over shard regions, plus the formal
//! derivative — the three transforms the systematic encoder and the
//! erasure decoder are built from.
//!
//! These are *region* transforms: each point of the transform is a whole
//! shard (split-plane GF(2^16) symbols, see [`crate::simd`]), and a
//! radix-2 butterfly is two region ops:
//!
//! ```text
//! IFFT_DIT2(x, y, m):  y ^= x;      x ^= m · y
//! FFT_DIT2 (x, y, m):  x ^= m · y;  y ^= x
//! ```
//!
//! with the twist constants `m` read from the skew table in the log
//! domain. A skew entry of [`MODULUS`] is the **zero-multiplier
//! sentinel**: the muladd vanishes and the butterfly degenerates to
//! `y ^= x` (this is the one place that sentinel is interpreted — the
//! region kernels themselves use wrap semantics, see
//! [`Tables::mul_log`]).
//!
//! Layer `dist` pairs index `i` with `i + dist`; the butterfly group
//! starting at `r` uses `skew[r + dist + skew_delta - 1]`, where
//! `skew_delta` shifts the evaluation points of the whole transform (the
//! encoder evaluates chunk `c` of the data over the coset starting at
//! `m + c·m`). `truncated` skips butterfly groups whose inputs are
//! entirely past the non-zero prefix — the standard LCH truncation that
//! makes encode cost scale with the *data* size, not the transform size.

use crate::simd;
use crate::tables::{Tables, MODULUS};

/// Mutable references to two distinct shards of `work` (`i < j`).
fn pair(work: &mut [Vec<u8>], i: usize, j: usize) -> (&mut Vec<u8>, &mut Vec<u8>) {
    debug_assert!(i < j);
    let (head, tail) = work.split_at_mut(j);
    (&mut head[i], &mut tail[0])
}

/// In-place additive IFFT of `work[..size]` (time → "novel basis"
/// coefficients). `size` must be a power of two; shards beyond index
/// `truncated` are taken as zero; `skew_delta` selects the evaluation
/// coset.
pub fn ifft(t: &Tables, work: &mut [Vec<u8>], size: usize, truncated: usize, skew_delta: usize) {
    debug_assert!(size.is_power_of_two());
    debug_assert!(work.len() >= size);
    let mut dist = 1;
    while dist < size {
        let span = dist * 2;
        let mut r = 0;
        while r < truncated {
            let log_m = t.skew[r + dist + skew_delta - 1];
            for i in r..r + dist {
                let (x, y) = pair(work, i, i + dist);
                nc_gf256::region::add_assign(y, x);
                if log_m != MODULUS {
                    simd::mul_add_assign(t, x, y, log_m);
                }
            }
            r += span;
        }
        dist = span;
    }
}

/// In-place additive FFT of `work[..size]` (coefficients → evaluations).
/// Same contract as [`ifft`]; the two are mutually inverse for matching
/// `size` and `skew_delta`.
pub fn fft(t: &Tables, work: &mut [Vec<u8>], size: usize, truncated: usize, skew_delta: usize) {
    debug_assert!(size.is_power_of_two());
    debug_assert!(work.len() >= size);
    let mut dist = size / 2;
    while dist >= 1 {
        let span = dist * 2;
        let mut r = 0;
        while r < truncated {
            let log_m = t.skew[r + dist + skew_delta - 1];
            for i in r..r + dist {
                let (x, y) = pair(work, i, i + dist);
                if log_m != MODULUS {
                    simd::mul_add_assign(t, x, y, log_m);
                }
                nc_gf256::region::add_assign(y, x);
            }
            r += span;
        }
        dist /= 2;
    }
}

/// In-place formal derivative of the polynomial whose novel-basis
/// coefficients are `work[..size]` — the step that turns the decoder's
/// product polynomial into one revealing the erased values (Lin–Chung–Han
/// erasure decoding).
pub fn formal_derivative(work: &mut [Vec<u8>], size: usize) {
    for i in 1..size {
        let width = ((i ^ (i - 1)) + 1) >> 1;
        for j in 0..width {
            let (x, y) = pair(work, i - width + j, i + j);
            nc_gf256::region::add_assign(x, y);
        }
    }
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;
    use crate::tables::tables;

    fn shards(count: usize, bytes: usize, seed: u64) -> Vec<Vec<u8>> {
        // Simple deterministic fill; xorshift so every shard differs.
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                (0..bytes)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fft_inverts_ifft_at_every_delta() {
        let t = tables();
        for size in [2usize, 4, 16, 64] {
            for delta in [0usize, size, 4 * size] {
                let original = shards(size, 34, 0x5EED ^ size as u64);
                let mut work = original.clone();
                ifft(&t, &mut work, size, size, delta);
                assert_ne!(work, original, "transform must do something (size {size})");
                fft(&t, &mut work, size, size, delta);
                assert_eq!(work, original, "size {size}, delta {delta}");
            }
        }
    }

    #[test]
    fn truncated_ifft_matches_zero_padded_full_ifft() {
        let t = tables();
        let size = 32;
        let keep = 9; // non-power-of-two prefix
        let mut padded = shards(keep, 66, 77);
        padded.resize(size, vec![0u8; 66]);
        let mut truncated = padded.clone();
        ifft(&t, &mut padded, size, size, size);
        ifft(&t, &mut truncated, size, keep, size);
        assert_eq!(padded, truncated);
    }

    #[test]
    fn formal_derivative_of_constant_is_zero() {
        // In the novel basis, coefficient 0 is the constant term; the
        // derivative of a constant polynomial has no terms at all.
        let size = 16;
        let mut work = vec![vec![0u8; 10]; size];
        work[0] = vec![0xAB; 10];
        formal_derivative(&mut work, size);
        // Every XOR source above index 0 is zero: the constant term stays,
        // no derivative term appears.
        assert_eq!(work[0], vec![0xAB; 10]);
        assert_eq!(work[1..], vec![vec![0u8; 10]; size - 1][..]);
    }
}
