//! The retired scalar backend names (`table`, `logexp`, `loopwide`,
//! `nibble`) are no longer `NC_GF_BACKEND` values: an old ablation script
//! that passes one gets the loud unknown-name fallback (stderr line plus
//! the `gf.backend_override_unavailable` counter), never a silent run on
//! some other kernel.
//!
//! The kernel choice is made once per process, at first dispatch, so this
//! is the only test in its binary: no other test may dispatch first.

use nc_gf256::simd::{self, SimdKernel};

#[test]
fn retired_table_backend_name_falls_back_loudly() {
    // Before the first dispatch of this process, so the cached choice sees
    // it.
    std::env::set_var("NC_GF_BACKEND", "table");
    assert_eq!(simd::active_kernel(), SimdKernel::available()[0]);
    let ignored = nc_telemetry::default_registry().counter("gf.backend_override_unavailable").get();
    assert_eq!(ignored, 1, "a retired backend name must count as an unknown override");
}
