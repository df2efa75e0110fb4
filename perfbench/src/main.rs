//! The repository benchmark: three workloads that drive the coding stack
//! through its public functions and report end-to-end and per-layer
//! metrics. See `README.md` in this directory.
//!
//! ```text
//! nc-perfbench --workload <rlnc_generation|fft_erasure|server_fanout>
//!              --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it stamp provenance and list every metric with its unit.

mod fanout;
mod kernels;
mod l1;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{mb_s, ms, quantile, ratio, Reservoir, END_TO_END, PER_LAYER, SPANS, SPAN_UNIT};
use trace::Tracer;

/// Extra set-up runs, each in a fresh child process, so cold table builds
/// are paid every time; `setup_s` is the median over these and our own.
const SETUP_PROBES: usize = 4;

/// Names accepted by `--workload`.
const WORKLOADS: &[&str] = &["rlnc_generation", "fft_erasure", "server_fanout"];

/// Where the traced run writes its raw spans, relative to the working
/// directory (the repository root).
const TRACE_DIR: &str = "perfbench/out";

/// What one measured phase (or the set-up warm-up) did.
#[derive(Default)]
pub struct Phase {
    /// Wall time of the phase.
    pub wall: Duration,
    /// Operations attempted: segments (L1) or sessions (`server_fanout`).
    pub attempted: u64,
    /// Operations that did not finish bit-exact.
    pub failed: u64,
    /// Source bytes recovered bit-exact.
    pub bytes_ok: u64,
    /// Source blocks recovered bit-exact.
    pub blocks_ok: u64,
    /// Source bytes handed to the encoder.
    pub encode_bytes: u64,
    /// Time in encoder calls (`make_sender`, `frame_wire`).
    pub encode_time: Duration,
    /// Time in decoder calls (`make_receiver`, `absorb`, `recover`, or the
    /// receiver session's `handle_bytes`).
    pub decode_time: Duration,
    /// Data frames produced (L1: absorbed; fan-out: sent by the server).
    pub frames: u64,
    /// Per-operation decode latency, first absorbed frame to complete.
    pub decode_ms: Reservoir,
    /// Per-stream (L1) or per-session latency, start to bit-exact recovery.
    pub session_ms: Reservoir,
    /// Encode, decode and goodput MB/s of each window (an L1 stream or a
    /// fan-out round); the throughput metrics are medians over windows, so a
    /// burst of interference from outside the process moves them little.
    pub windows: Vec<[f64; 3]>,
    /// Per-layer metrics by catalogue name.
    pub layer: BTreeMap<String, f64>,
    /// Why operations failed, plus any check that makes the run invalid.
    pub errors: Vec<String>,
}

/// Phase totals at the start of a window.
pub struct Mark {
    encode_bytes: u64,
    encode_time: Duration,
    bytes_ok: u64,
    decode_time: Duration,
}

impl Phase {
    /// Counts `n` failed operations, with the reason.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.errors.push(why);
    }

    /// Starts a throughput window.
    pub fn mark(&self) -> Mark {
        Mark {
            encode_bytes: self.encode_bytes,
            encode_time: self.encode_time,
            bytes_ok: self.bytes_ok,
            decode_time: self.decode_time,
        }
    }

    /// Closes the window opened at `mark`, `wall` after it started.
    pub fn window(&mut self, mark: Mark, wall: Duration) {
        let ok = self.bytes_ok - mark.bytes_ok;
        self.windows.push([
            mb_s(self.encode_bytes - mark.encode_bytes, self.encode_time - mark.encode_time),
            mb_s(ok, self.decode_time - mark.decode_time),
            mb_s(ok, wall),
        ]);
    }

    /// Median over windows of throughput `i` (0 encode, 1 decode, 2 goodput).
    fn median_rate(&self, i: usize) -> f64 {
        let rates: Vec<f64> = self.windows.iter().map(|w| w[i]).collect();
        quantile(&rates, 0.5)
    }
}

enum Bench {
    L1(l1::L1),
    Fanout(fanout::Fanout),
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Result<Bench, String> {
        match workload {
            "rlnc_generation" => Ok(Bench::L1(l1::L1::rlnc_generation(seed))),
            "fft_erasure" => Ok(Bench::L1(l1::L1::fft_erasure(seed))),
            "server_fanout" => fanout::Fanout::setup(seed).map(Bench::Fanout),
            other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
        }
    }

    fn run(&mut self, seconds: f64, tr: &mut Tracer) -> Phase {
        match self {
            Bench::L1(b) => b.run(seconds, tr),
            Bench::Fanout(b) => b.run(seconds, tr),
        }
    }

    fn warmup(&self) -> &Phase {
        match self {
            Bench::L1(b) => &b.warmup,
            Bench::Fanout(b) => &b.warmup,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, setup_probe: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Runs set-up once more in a child process and returns its set-up time.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string(), "--setup-probe"])
        .output()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("set-up probe failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("set-up probe printed no time: {stdout}"))
}

fn end_to_end(phase: &Phase, setup_s: f64) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", setup_s),
        ("encode_mb_s", phase.median_rate(0)),
        ("decode_mb_s", phase.median_rate(1)),
        ("segment_decode_ms_p50", phase.decode_ms.quantile(0.5)),
        ("segment_decode_ms_p90", phase.decode_ms.quantile(0.9)),
        ("goodput_mb_s", phase.median_rate(2)),
        ("session_ms_p50", phase.session_ms.quantile(0.5)),
        ("session_ms_p90", phase.session_ms.quantile(0.9)),
        ("overhead_ratio", ratio(phase.frames as f64, phase.blocks_ok as f64)),
        ("peak_rss_mb", report::peak_rss_mb()),
    ])
}

/// The traced run: half the time untraced, half traced, so the tracing
/// overhead is measured on the same process and inputs.
fn traced_run(bench: &mut Bench, args: &Args, epoch: Instant) -> Vec<Phase> {
    let half = args.seconds / 2.0;
    let cpu0 = report::cpu_time();
    let untraced = bench.run(half, &mut Tracer::new(false, epoch));
    let busy = (report::cpu_time() - cpu0).as_secs_f64();
    let mut tracer = Tracer::new(true, epoch);
    let mut traced = bench.run(half, &mut tracer);

    for name in traced.layer.keys() {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "metric {name} is not in the catalogue");
    }
    let per_op = |p: &Phase| ratio(p.wall.as_secs_f64(), p.attempted as f64);
    let overhead = ratio(per_op(&traced), per_op(&untraced));
    let busy_share = ratio(busy, untraced.wall.as_secs_f64() * report::nproc() as f64);
    let layer = &mut traced.layer;
    layer.insert("process.cpu_busy_share".into(), busy_share);
    layer.insert("trace.overhead_ratio".into(), overhead);
    let totals = tracer.totals();
    for span in SPANS {
        let self_ms = totals.get(span).map_or(0.0, |t| ms(t.self_time));
        layer.insert(report::span_metric(span), ratio(self_ms, traced.attempted as f64));
    }
    for name in totals.keys() {
        assert!(SPANS.contains(name), "span {name} is not in the catalogue");
    }

    let path = format!("{TRACE_DIR}/trace-{}-seed{}.jsonl", args.workload, args.seed);
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => println!("trace spans written to {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    println!("span self time (traced phase, per operation):");
    for (name, t) in totals {
        println!(
            "  {name:<28} count {:>9}  total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            ms(t.total),
            ms(t.self_time)
        );
    }
    vec![untraced, traced]
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    report::nproc();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("nc-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let mut bench = match Bench::setup(&args.workload, args.seed) {
        Ok(bench) => bench,
        Err(err) => {
            eprintln!("nc-perfbench: set-up failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let own_setup = process_start.elapsed().as_secs_f64();
    if args.setup_probe {
        println!("setup_s {own_setup}");
        return ExitCode::SUCCESS;
    }
    let mut setups = vec![own_setup];
    for _ in 0..SETUP_PROBES {
        match probe_setup(&args) {
            Ok(s) => setups.push(s),
            Err(err) => {
                eprintln!("nc-perfbench: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let setup_s = quantile(&setups, 0.5);

    let epoch = Instant::now();
    let phases = if args.trace {
        traced_run(&mut bench, &args, epoch)
    } else {
        vec![bench.run(args.seconds, &mut Tracer::new(false, epoch))]
    };
    let warmup = bench.warmup();
    let attempted = warmup.attempted + phases.iter().map(|p| p.attempted).sum::<u64>();
    let failed = warmup.failed + phases.iter().map(|p| p.failed).sum::<u64>();

    let mut metrics: BTreeMap<String, (f64, String)> = BTreeMap::new();
    if args.trace {
        let layer = &phases[1].layer;
        for (name, unit) in PER_LAYER {
            let value = match *name {
                "failed_share" => ratio(failed as f64, attempted as f64),
                _ => layer.get(*name).copied().unwrap_or(0.0),
            };
            metrics.insert(name.to_string(), (value, unit.to_string()));
        }
        for span in SPANS {
            let name = report::span_metric(span);
            let value = layer.get(&name).copied().unwrap_or(0.0);
            metrics.insert(name, (value, SPAN_UNIT.to_string()));
        }
    } else {
        let values = end_to_end(&phases[0], setup_s);
        for (name, unit) in END_TO_END {
            metrics.insert(name.to_string(), (values[name], unit.to_string()));
        }
    }

    let mut notes = vec![format!("setup_s is the median of {} set-ups: {setups:?}", setups.len())];
    if args.workload == "server_fanout" {
        notes.push(format!(
            "{} shard + 1 client thread (pinned to CPUs 1 and 0 when nproc >= 2) on nproc={}: \
             cross-shard forwarding is unexercised",
            fanout::SHARDS,
            report::nproc()
        ));
    }
    println!("{}", report::provenance(&args.workload, args.seed, args.trace, &notes));

    let errors: Vec<&String> =
        warmup.errors.iter().chain(phases.iter().flat_map(|p| &p.errors)).collect();
    for err in errors.iter().take(20) {
        eprintln!("FAIL: {err}");
    }
    if errors.len() > 20 {
        eprintln!("FAIL: ... {} more", errors.len() - 20);
    }
    report::print_result(errors.is_empty(), attempted.max(1), failed, &metrics);
    ExitCode::SUCCESS
}
