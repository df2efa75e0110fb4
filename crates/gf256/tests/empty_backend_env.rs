//! An empty `NC_GF_BACKEND` is no override: detection picks the best rung
//! and nothing is reported as an unavailable or unknown backend.
//!
//! The kernel choice is made once per process, at first dispatch, so this
//! is the only test in its binary: no other test may dispatch first.

use nc_gf256::region::Backend;
use nc_gf256::simd::{self, SimdKernel};

#[test]
fn empty_nc_gf_backend_means_detect() {
    // Before the first dispatch of this process, so the cached choice sees
    // it.
    std::env::set_var("NC_GF_BACKEND", "");
    assert_eq!(simd::active_kernel(), SimdKernel::available()[0]);
    assert_eq!(simd::default_backend(), Backend::Simd);
    let ignored = nc_telemetry::default_registry().counter("gf.backend_override_unavailable").get();
    assert_eq!(ignored, 0, "an empty NC_GF_BACKEND must not count as an override");
}
