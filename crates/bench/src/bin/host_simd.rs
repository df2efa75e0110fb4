//! Host SIMD: measured GF(2^8) region bandwidth per kernel rung, and the
//! Fig. 10 partitioning sweep on live hardware on the active rung.
//!
//! Run with `cargo run -p nc-bench --release --bin host_simd`.
//! Set `NC_GF_BACKEND=portable` (or `avx2`, `ssse3`, ...) to ablate.

fn main() {
    print!("{}", nc_bench::report::host_simd());
    nc_bench::dump_telemetry_if_requested();
}
