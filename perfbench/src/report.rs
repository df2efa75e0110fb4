//! Metric catalogue, statistics, process probes, provenance and the
//! result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with tracing off.
/// `BENCHMARK.json` lists the same names, units and directions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("encode_mb_s", "MB/s"),
    ("decode_mb_s", "MB/s"),
    ("segment_decode_ms_p50", "ms"),
    ("segment_decode_ms_p90", "ms"),
    ("goodput_mb_s", "MB/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p90", "ms"),
    ("overhead_ratio", "frames/block"),
    ("peak_rss_mb", "MB"),
];

/// Span names the benchmark records; each yields a `span.<name>.self_ms`
/// per-layer metric (self time per operation).
pub const SPANS: &[&str] = &[
    "stream",
    "codec.make_sender",
    "codec.frame_wire",
    "codec.make_receiver",
    "codec.absorb",
    "codec.recover",
    "bench.verify",
    "net.serve",
    "client.round",
    "net.session.poll",
    "net.session.handle_bytes",
    "net.wire.decode",
    "net.io.recv_batch",
    "net.io.flush",
];

/// Per-layer metrics, reported by every workload in the traced run. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gf256.kernel_id", "id"),
    ("gf256.dot_gb_s", "GB/s"),
    ("gf256.encode_bytes_computed", "bytes"),
    ("rlnc.frame_wire_us_p50", "us"),
    ("rlnc.frame_wire_us_p90", "us"),
    ("rlnc.absorb_us_p50", "us"),
    ("rlnc.absorb_us_p90", "us"),
    ("rlnc.recover_ms", "ms"),
    ("rlnc.innovative_ratio", "ratio"),
    ("rlnc.frames_per_segment", "frames"),
    ("rlnc.encode_efficiency", "ratio"),
    ("fft.kernel_id", "id"),
    ("fft.region_gb_s", "GB/s"),
    ("fft.make_sender_ms_per_segment", "ms"),
    ("fft.absorb_us_p50", "us"),
    ("fft.completing_absorb_ms_p50", "ms"),
    ("fft.completing_absorb_ms_p90", "ms"),
    ("fft.recover_ms", "ms"),
    ("fft.encode_ns_p50", "ns"),
    ("fft.decode_ns_p50", "ns"),
    ("fft.systematic_fast_path", "count"),
    ("net.session.rx_handle_us_p50", "us"),
    ("net.session.rx_poll_us_p50", "us"),
    ("net.wire.decode_us_p50", "us"),
    ("net.frames_sent_per_session", "frames"),
    ("net.announces_per_session", "count"),
    ("net.acks_per_session", "count"),
    ("net.redundancy_factor", "ratio"),
    ("net.syscalls_per_datagram", "ratio"),
    ("net.tx_batch_mean", "datagrams"),
    ("net.rx_batch_mean", "datagrams"),
    ("net.io.recv_batch_us_p50", "us"),
    ("net.io.client_idle_share", "share"),
    ("net.deadline_miss_us_p95", "us"),
    ("net.shard_forwards_per_session", "count"),
    ("net.serve_s", "s"),
    ("net.rx_bytes_copied_per_datagram", "bytes"),
    ("pool.buffer_hit_ratio", "ratio"),
    ("pool.worker_idle_ms", "ms"),
    ("pool.steals", "count"),
    ("process.cpu_busy_share", "share"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_share", "share"),
];

/// The span self-time metric name for `span`.
pub fn span_metric(span: &str) -> String {
    format!("span.{span}.self_ms")
}

/// Unit of the span self-time metrics: milliseconds per operation.
pub const SPAN_UNIT: &str = "ms/op";

/// The `q`-quantile (0..=1) of `samples`, interpolating between order
/// statistics; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples a run keeps per distribution; beyond this a uniform random
/// subset is kept, so memory does not grow with the run's length.
const RESERVOIR_CAP: usize = 1 << 16;

/// A bounded uniform sample of a stream of values (reservoir sampling,
/// algorithm R, with a fixed-seed generator so runs stay reproducible).
#[derive(Default)]
pub struct Reservoir {
    values: Vec<f64>,
    seen: u64,
    state: u64,
}

impl Reservoir {
    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.values.len() < RESERVOIR_CAP {
            self.values.push(value);
            return;
        }
        // SplitMix64 step.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let slot = ((z ^ (z >> 31)) % self.seen) as usize;
        if slot < RESERVOIR_CAP {
            self.values[slot] = value;
        }
    }

    /// The `q`-quantile of the kept sample.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }
}

/// Bytes per second as MB/s (10^6), 0 when no time was spent.
pub fn mb_s(bytes: u64, time: Duration) -> f64 {
    ratio(bytes as f64 / 1e6, time.as_secs_f64())
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Microseconds of `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds of `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// User plus system CPU time of the whole process (all threads) so far.
/// `/proc` reports it in `USER_HZ` ticks, which Linux fixes at 100.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Logical CPUs this process may run on, as seen by its first call (made
/// at start-up, before any thread pins itself to one CPU).
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Counter growth between two registry snapshots.
pub fn counter_delta(
    before: &nc_telemetry::Snapshot,
    after: &nc_telemetry::Snapshot,
    name: &str,
) -> u64 {
    after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
}

/// Histogram `(count, sum)` growth between two registry snapshots.
pub fn histogram_delta(
    before: &nc_telemetry::Snapshot,
    after: &nc_telemetry::Snapshot,
    name: &str,
) -> (u64, u64) {
    let get = |s: &nc_telemetry::Snapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

/// Stable id of the GF(2^16) region kernel (same numbering as `gf.kernel_id`).
pub fn gf16_kernel_id(kernel: nc_fft::simd::Gf16Kernel) -> f64 {
    match kernel.name() {
        "ssse3" => 1.0,
        "avx2" => 2.0,
        "neon" => 3.0,
        _ => 0.0,
    }
}

/// CPU features relevant to the GF kernels that this host reports.
fn cpu_flags() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    flags.push($f);
                }
            )*};
        }
        probe!("ssse3", "avx2", "avx512f", "avx512bw", "avx512vl", "gfni");
    }
    #[cfg(target_arch = "aarch64")]
    flags.push("neon");
    flags
}

/// The checked-out revision: `git rev-parse HEAD` when the working
/// directory is itself a git checkout, else `"unknown"`.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(|| "unknown".into(), |out| String::from_utf8_lossy(&out.stdout).trim().into())
}

/// FNV-1a over the library sources (`crates/**/*.rs`, manifests), so two
/// results can be told apart even where no git metadata exists.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// One JSON line stamping the host and code a result came from. Results
/// with different kernel rungs must not be compared as like for like.
pub fn provenance(workload: &str, seed: u64, trace: bool, notes: &[String]) -> String {
    let gf = nc_gf256::simd::active_kernel();
    let gf16 = nc_fft::simd::active_kernel();
    let flags: Vec<String> = cpu_flags().iter().map(|f| format!("\"{f}\"")).collect();
    let notes: Vec<String> = notes.iter().map(|n| format!("\"{}\"", escape(n))).collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"git_rev\": \"{}\", \"source_hash\": \"{}\", \"cpu_flags\": [{}], \
         \"gf_kernel\": \"{}\", \"gf_kernel_id\": {}, \"gf16_kernel\": \"{}\", \"nproc\": {}, \
         \"batched_io\": {}, \"notes\": [{}]}}}}",
        escape(&git_rev()),
        source_hash(),
        flags.join(", "),
        gf.name(),
        gf.id(),
        gf16.name(),
        nproc(),
        nc_net::BatchSocket::batched(),
        notes.join(", "),
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A finite JSON number with every digit Rust prints (shortest round-trip).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Prints every metric as a readable table, then the result object as the
/// last line of standard output.
pub fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, (f64, String)>,
) {
    for (name, (value, unit)) in metrics {
        println!("  {name:<40} {:>16} {unit}", number(*value));
    }
    let mut body = String::new();
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    );
}
