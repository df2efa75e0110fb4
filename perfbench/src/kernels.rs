//! L0 kernel probes: the benchmark timing its own calls into the region
//! kernels, so codec throughput can be read as a share of kernel speed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 5;

/// Minimum length of one timed batch.
const BATCH_TIME: Duration = Duration::from_millis(30);

/// Median over [`BATCHES`] of computed bytes per second (GB/s, 10^9) of
/// `call`, each call covering `bytes_per_call` bytes.
fn probe(bytes_per_call: usize, mut call: impl FnMut()) -> f64 {
    let mut rates: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed() < BATCH_TIME {
                call();
                calls += 1;
            }
            (calls * bytes_per_call as u64) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[BATCHES / 2]
}

/// `nc_gf256::region::dot_assign` at an `n`-source × `k`-byte shape: one
/// coded block of a dense-RLNC generation, `n × k` bytes computed per call.
pub fn gf256_dot_gb_s(n: usize, k: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x0d07);
    let sources: Vec<Vec<u8>> = (0..n)
        .map(|_| {
            let mut s = vec![0u8; k];
            rng.fill_bytes(&mut s);
            s
        })
        .collect();
    let refs: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
    let coeffs: Vec<u8> = (0..n).map(|_| rng.gen_range(1..=255u8)).collect();
    let mut dst = vec![0u8; k];
    probe(n * k, || {
        nc_gf256::region::dot_assign(black_box(&mut dst), black_box(&refs), black_box(&coeffs));
    })
}

/// `nc_fft::simd::mul_add_assign` on 1 KiB shards (one FFT16 shard at the
/// `fft_erasure` shape).
pub fn gf16_region_gb_s() -> f64 {
    let tables = nc_fft::tables();
    let mut rng = StdRng::seed_from_u64(0x0f16);
    let mut src = vec![0u8; 1024];
    rng.fill_bytes(&mut src);
    let mut dst = vec![0u8; 1024];
    let log_m = rng.gen_range(1..nc_fft::MODULUS);
    probe(src.len(), || {
        nc_fft::simd::mul_add_assign(&tables, black_box(&mut dst), black_box(&src), log_m);
    })
}
