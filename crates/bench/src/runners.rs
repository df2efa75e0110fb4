//! Figure runners: each produces the series its figure plots.
//!
//! Runners are shared between the per-figure binaries and the `all`
//! binary, and exercised by smoke tests at reduced grids.

use nc_cpu::{measure, Partitioning};
use nc_cpu_model::{CpuModel, EncodeStrategy};
use nc_gf256::region::{self, Backend};
use nc_gpu::api::EncodeScheme;
use nc_gpu::decode_single::DecodeOptions;
use nc_gpu::{Fidelity, GpuEncoder, GpuMultiDecoder, GpuProgressiveDecoder, TableVariant};
use nc_gpu_sim::DeviceSpec;
use nc_rlnc::CodingConfig;
use rand::{Rng, SeedableRng};

use crate::grids::to_mb;
use crate::series::Series;

/// Sweeps GPU encoding bandwidth over block sizes for one scheme.
pub fn gpu_encode_series(
    spec: DeviceSpec,
    scheme: EncodeScheme,
    n: usize,
    ks: &[usize],
    label: impl Into<String>,
) -> Series {
    let mut series = Series::new(label);
    let mut encoder = GpuEncoder::new(spec, scheme);
    for &k in ks {
        let m = encoder.measure(n, k, workload_blocks(n, k), 1000 + k as u64);
        series.push(k, to_mb(m.rate));
    }
    series
}

/// Coded blocks per measurement: at least `n`, and enough to fill the
/// device with two full waves of encode thread blocks — a streaming server
/// generates far more than `n` blocks per segment (Sec. 5.1.1), and an
/// undersized workload would measure grid-underutilization instead of the
/// encoder.
pub fn workload_blocks(n: usize, k: usize) -> usize {
    // Eight waves of full grids: a streaming server generates thousands of
    // blocks per segment (Sec. 5.1.1 quotes 177,333), so per-launch and
    // preprocessing overheads amortize away; the measurement machinery
    // executes a bounded subset and scales linearly.
    8 * n.max((60usize * 256 * 4).div_ceil(k))
}

/// Sweeps single-segment GPU decoding bandwidth over block sizes.
pub fn gpu_decode_single_series(
    spec: DeviceSpec,
    n: usize,
    ks: &[usize],
    options: DecodeOptions,
    label: impl Into<String>,
) -> Series {
    let mut series = Series::new(label);
    for &k in ks {
        series.push(k, to_mb(gpu_decode_single_rate(spec.clone(), n, k, options)));
    }
    series
}

/// Single-segment GPU decoding bandwidth for one configuration
/// (synthetic innovative blocks; kernel time only, like the paper).
pub fn gpu_decode_single_rate(spec: DeviceSpec, n: usize, k: usize, options: DecodeOptions) -> f64 {
    let config = CodingConfig::new(n, k).expect("valid config");
    let mut dec = GpuProgressiveDecoder::new(spec, config, options, Fidelity::Timing);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9_000 + (n * 31 + k) as u64);
    let mut payload = vec![0u8; k];
    rng.fill(&mut payload[..]);
    let mut coeffs = vec![0u8; n];
    let mut guard = 0;
    while !dec.is_complete() {
        for c in coeffs.iter_mut() {
            *c = rng.gen_range(1..=255);
        }
        dec.push(&coeffs, &payload).expect("pivot result word");
        guard += 1;
        assert!(guard < n + 32, "decode failed to converge");
    }
    (n * k) as f64 / dec.kernel_seconds()
}

/// Sweeps multi-segment GPU decoding over block sizes; returns the rate
/// series and the stage-1 share series (the Fig. 9 annotations).
pub fn gpu_decode_multi_series(
    spec: DeviceSpec,
    n: usize,
    segments: usize,
    ks: &[usize],
    label: impl Into<String>,
) -> (Series, Series) {
    let label = label.into();
    let mut rates = Series::new(label.clone());
    let mut shares = Series::new(format!("{label} stage1 share %"));
    let mut dec = GpuMultiDecoder::new(spec);
    for &k in ks {
        let config = CodingConfig::new(n, k).expect("valid config");
        let outcome = dec.measure(config, segments, 70 + k as u64);
        rates.push(k, to_mb(outcome.rate));
        shares.push(k, outcome.stage1_share * 100.0);
    }
    (rates, shares)
}

/// Sweeps the modeled Mac Pro encode bandwidth.
pub fn cpu_encode_series(
    n: usize,
    ks: &[usize],
    strategy: EncodeStrategy,
    label: impl Into<String>,
) -> Series {
    let model = CpuModel::mac_pro_8core();
    let mut series = Series::new(label);
    for &k in ks {
        series.push(k, to_mb(model.encode_rate(n, k, strategy)));
    }
    series
}

/// Sweeps the modeled Mac Pro single-segment decode bandwidth.
pub fn cpu_decode_single_series(n: usize, ks: &[usize], label: impl Into<String>) -> Series {
    let model = CpuModel::mac_pro_8core();
    let mut series = Series::new(label);
    for &k in ks {
        series.push(k, to_mb(model.decode_rate_single(n, k)));
    }
    series
}

/// Sweeps the modeled Mac Pro multi-segment decode bandwidth (8 segments).
pub fn cpu_decode_multi_series(n: usize, ks: &[usize], label: impl Into<String>) -> Series {
    let model = CpuModel::mac_pro_8core();
    let mut series = Series::new(label);
    for &k in ks {
        series.push(k, to_mb(model.decode_rate_multi(n, k, 8)));
    }
    series
}

/// Measured single-core GF(2^8) axpy bandwidth (MB/s) of one region
/// backend on *this* host at region length `k` — the primitive every
/// encode/decode inner loop reduces to, timed directly (the Criterion
/// benches give the statistically careful version of the same numbers).
pub fn gf_axpy_rate(backend: Backend, k: usize) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51D0 + k as u64);
    let src: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
    let mut dst: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
    // Calibrate the iteration count to ~20 ms of work, then time one batch.
    let mut iters = 16usize;
    loop {
        let t0 = std::time::Instant::now();
        for i in 0..iters {
            region::mul_add_assign_with(backend, &mut dst, &src, (i as u8) | 1);
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= 0.02 || iters >= 1 << 22 {
            std::hint::black_box(&dst);
            return (iters * k) as f64 / dt / (1024.0 * 1024.0);
        }
        iters *= 4;
    }
}

/// Measured single-core GF(2^8) axpy bandwidth (MB/s) of one *explicit
/// SIMD kernel* at region length `k` — the per-rung view of
/// [`gf_axpy_rate`]'s per-backend one, covering the full dispatch ladder
/// (portable → ssse3 → avx2 → avx512 → gfni) regardless of which rung
/// auto-detection picked.
pub fn gf_kernel_axpy_rate(kernel: nc_gf256::simd::SimdKernel, k: usize) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51D1 + k as u64);
    let src: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
    let mut dst: Vec<u8> = (0..k).map(|_| rng.gen()).collect();
    let mut iters = 16usize;
    loop {
        let t0 = std::time::Instant::now();
        for i in 0..iters {
            nc_gf256::simd::mul_add_assign_with_kernel(kernel, &mut dst, &src, (i as u8) | 1);
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= 0.02 || iters >= 1 << 22 {
            std::hint::black_box(&dst);
            return (iters * k) as f64 / dt / (1024.0 * 1024.0);
        }
        iters *= 4;
    }
}

/// Sweeps measured host encode bandwidth (MB/s) over block sizes for one
/// GF backend and partitioning scheme — the live-hardware companion to
/// [`cpu_encode_series`]'s modeled Mac Pro.
pub fn host_encode_series(
    backend: Backend,
    n: usize,
    ks: &[usize],
    threads: usize,
    partitioning: Partitioning,
    label: impl Into<String>,
) -> Series {
    let mut series = Series::new(label);
    for &k in ks {
        // Enough coded blocks that thread startup amortizes, scaled down as
        // regions grow so the sweep stays interactive.
        let m = (n / 2).clamp(8, 64);
        let rate =
            measure::encode_throughput_with(backend, n, k, m, threads, partitioning, 40 + k as u64);
        series.push(k, to_mb(rate));
    }
    series
}

/// One encode-rate measurement (MB/s) for a scheme at `(n, k)`.
pub fn gpu_encode_rate(spec: DeviceSpec, scheme: EncodeScheme, n: usize, k: usize) -> f64 {
    let mut encoder = GpuEncoder::new(spec, scheme);
    to_mb(encoder.measure(n, k, workload_blocks(n, k), 77).rate)
}

/// The Fig. 7 ladder at one configuration: `(label, MB/s)` per scheme.
pub fn fig7_ladder(n: usize, k: usize) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    out.push((
        "Loop-based".to_string(),
        gpu_encode_rate(DeviceSpec::gtx280(), EncodeScheme::LoopBased, n, k),
    ));
    for variant in TableVariant::ALL {
        out.push((
            format!("Table-based-{}", variant_index(variant)),
            gpu_encode_rate(DeviceSpec::gtx280(), EncodeScheme::Table(variant), n, k),
        ));
    }
    out
}

fn variant_index(v: TableVariant) -> usize {
    TableVariant::ALL.iter().position(|&x| x == v).expect("known variant")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_series_is_monotone_labelled() {
        let s = gpu_encode_series(
            DeviceSpec::gtx280(),
            EncodeScheme::LoopBased,
            16,
            &[256, 512],
            "test",
        );
        assert_eq!(s.points.len(), 2);
        assert!(s.points.iter().all(|&(_, y)| y > 0.0));
    }

    #[test]
    fn decode_single_rate_is_positive() {
        let rate = gpu_decode_single_rate(DeviceSpec::gtx280(), 16, 128, DecodeOptions::default());
        assert!(rate > 0.0);
    }

    #[test]
    fn multi_series_reports_shares() {
        let (rates, shares) = gpu_decode_multi_series(DeviceSpec::gtx280(), 16, 4, &[256], "t");
        assert_eq!(rates.points.len(), 1);
        let share = shares.points[0].1;
        assert!(share > 0.0 && share < 100.0);
    }

    #[test]
    fn host_runners_measure_positive_rates() {
        for backend in [Backend::Table, Backend::Simd] {
            assert!(gf_axpy_rate(backend, 1024) > 0.0);
        }
        let s =
            host_encode_series(Backend::Simd, 8, &[128, 256], 1, Partitioning::FullBlock, "host");
        assert_eq!(s.points.len(), 2);
        assert!(s.points.iter().all(|&(_, y)| y > 0.0));
    }

    #[test]
    fn cpu_series_cover_grid() {
        let ks = [128usize, 1024];
        assert_eq!(cpu_encode_series(128, &ks, EncodeStrategy::FullBlock, "x").points.len(), 2);
        assert_eq!(cpu_decode_single_series(128, &ks, "y").points.len(), 2);
        assert_eq!(cpu_decode_multi_series(128, &ks, "z").points.len(), 2);
    }
}
