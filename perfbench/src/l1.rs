//! L1 workloads: one codec, encode and decode back to back on one thread,
//! driven through the codec registry `nc_net::codecs::codec_for`.
//!
//! * `rlnc_generation` — dense RLNC at the paper's flagship shape,
//!   n = 128 blocks × 4 KiB. Each stream is one 512 KiB segment; the
//!   receiver absorbs random combinations until the segment completes.
//! * `fft_erasure` — the GF(2^16) additive-FFT code at n = 4096 × 1 KiB
//!   with n recovery shards. A seeded half of every segment's originals is
//!   erased, so each segment runs a full FFT decode and never takes the
//!   systematic fast path. The sender precomputes 2n shards per segment
//!   (8 MiB at this shape), so streams are fed in batches of
//!   [`FFT_SEGMENTS_PER_STREAM`] segments: peak memory measures the codec,
//!   not the harness holding the whole run.

use std::time::{Duration, Instant};

use nc_net::codecs::codec_for;
use nc_pool::BytesPool;
use nc_rlnc::codec::{CodecId, StreamCodecReceiver, StreamCodecSender};
use nc_rlnc::CodingConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

use crate::report::{counter_delta, gf16_kernel_id, ms, ratio, us, Reservoir};
use crate::trace::Tracer;
use crate::{kernels, Phase};

/// Segments per FFT stream: the sender's working set is bounded by this.
const FFT_SEGMENTS_PER_STREAM: usize = 2;

/// Distinct seeded stream inputs cycled through by `rlnc_generation`.
const RLNC_INPUTS: usize = 4;

/// A dense-RLNC segment that has not completed after this many frames per
/// block counts as failed (a correct decoder needs about one per block).
const RLNC_FRAME_CAP_PER_BLOCK: usize = 4;

/// What one L1 phase collects for its layer metrics. Per-frame samples are
/// kept only in the traced run, so the untraced run's memory does not grow
/// with its length.
#[derive(Default)]
struct Samples {
    frame_wire: Reservoir,
    absorb: Reservoir,
    any_absorb: Reservoir,
    completing_absorb: Reservoir,
    recover: Reservoir,
    make_sender: Duration,
    frame_wire_time: Duration,
    absorbs: u64,
    innovative: u64,
}

/// One L1 workload: codec, shape and its seeded inputs.
pub struct L1 {
    codec: CodecId,
    config: CodingConfig,
    segments_per_stream: usize,
    inputs: Vec<Vec<u8>>,
    rng: StdRng,
    streams: u64,
    /// The warm-up stream run during set-up (its failures still count).
    pub warmup: Phase,
}

impl L1 {
    /// `rlnc_generation`: dense RLNC, n = 128 × 4 KiB.
    pub fn rlnc_generation(seed: u64) -> L1 {
        let config = CodingConfig::new(128, 4096).expect("flagship shape is valid");
        L1::new(CodecId::DenseRlnc, config, 1, RLNC_INPUTS, 16, seed)
    }

    /// `fft_erasure`: FFT16, n = 4096 × 1 KiB, half the originals erased.
    pub fn fft_erasure(seed: u64) -> L1 {
        let config = CodingConfig::new(4096, 1024).expect("FFT shape is valid");
        L1::new(CodecId::Fft16, config, FFT_SEGMENTS_PER_STREAM, 1, 1, seed)
    }

    /// Generates the inputs, then runs `warmup_streams` streams so lazy
    /// table builds and first-touch page faults land in set-up, not in the
    /// measured phase.
    fn new(
        codec: CodecId,
        config: CodingConfig,
        segments_per_stream: usize,
        inputs: usize,
        warmup_streams: usize,
        seed: u64,
    ) -> L1 {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = (0..inputs)
            .map(|_| {
                let mut data = vec![0u8; segments_per_stream * config.segment_bytes()];
                rng.fill_bytes(&mut data);
                data
            })
            .collect();
        let mut l1 = L1 {
            codec,
            config,
            segments_per_stream,
            inputs,
            rng,
            streams: 0,
            warmup: Phase::default(),
        };
        let mut warmup = Phase::default();
        let mut tracer = Tracer::new(false, Instant::now());
        for _ in 0..warmup_streams {
            l1.stream(&mut tracer, &mut warmup, &mut Samples::default());
        }
        l1.warmup = warmup;
        l1
    }

    /// Runs whole streams until `seconds` have passed.
    pub fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Phase {
        let before = nc_telemetry::snapshot();
        let mut phase = Phase::default();
        let mut samples = Samples::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            self.stream(tracer, &mut phase, &mut samples);
        }
        phase.wall = start.elapsed();
        let after = nc_telemetry::snapshot();
        // The workload is only what it claims if no erased segment decoded
        // by the systematic (pure copy) path.
        let fast = counter_delta(&before, &after, "fft.systematic_fast_path");
        if fast > 0 {
            phase.errors.push(format!(
                "fft.systematic_fast_path fired {fast} times: erased segments must take the full FFT decode"
            ));
        }
        if tracer.on() {
            self.layer_metrics(&mut phase, &samples, fast, &after);
        }
        phase
    }

    /// One stream: build the sender and receiver, feed every segment's
    /// frames until it completes, recover, and compare with the input.
    fn stream(&mut self, tr: &mut Tracer, phase: &mut Phase, samples: &mut Samples) {
        let n = self.config.blocks();
        let segment_bytes = self.config.segment_bytes();
        let codec = codec_for(self.codec);
        let data = &self.inputs[self.streams as usize % self.inputs.len()];
        let first_op = phase.attempted;
        let mark = phase.mark();
        self.streams += 1;
        phase.attempted += self.segments_per_stream as u64;
        phase.encode_bytes += data.len() as u64;
        tr.set_op(first_op);

        let t0 = Instant::now();
        tr.open("stream", t0);
        let sender = codec.make_sender(self.config, data);
        let t1 = Instant::now();
        tr.leaf("codec.make_sender", t0, t1);
        phase.encode_time += t1 - t0;
        samples.make_sender += t1 - t0;
        let receiver = sender.as_ref().ok().map(|sender| {
            codec.make_receiver(self.config, sender.total_segments(), sender.original_len())
        });
        let t2 = Instant::now();
        tr.leaf("codec.make_receiver", t1, t2);
        phase.decode_time += t2 - t1;
        let (Ok(sender), Some(Ok(mut receiver))) = (sender, receiver) else {
            phase.fail(
                self.segments_per_stream as u64,
                "sender or receiver construction failed".into(),
            );
            tr.close(Instant::now());
            return;
        };

        let mut complete = vec![false; self.segments_per_stream];
        for (segment, done) in complete.iter_mut().enumerate() {
            tr.set_op(first_op + segment as u64);
            let plan = frame_plan(self.codec, n, &mut self.rng);
            *done = feed_segment(
                &*sender,
                &mut *receiver,
                segment,
                &plan,
                &mut self.rng,
                tr,
                phase,
                samples,
            );
        }

        tr.set_op(first_op);
        let t3 = Instant::now();
        let recovered = receiver.recover();
        let t4 = Instant::now();
        tr.leaf("codec.recover", t3, t4);
        phase.decode_time += t4 - t3;
        samples.recover.push(ms(t4 - t3));

        for (segment, done) in complete.iter().enumerate() {
            let range = segment * segment_bytes..(segment + 1) * segment_bytes;
            let exact = recovered.as_ref().is_some_and(|r| r.get(range.clone()) == data.get(range));
            if !done {
                phase.fail(1, format!("segment {segment} did not complete"));
            } else if !exact {
                phase.fail(1, format!("segment {segment} recovered bytes differ from its input"));
            } else {
                phase.bytes_ok += segment_bytes as u64;
                phase.blocks_ok += n as u64;
            }
        }
        let t5 = Instant::now();
        tr.leaf("bench.verify", t4, t5);
        tr.close(t5);
        phase.session_ms.push(ms(t5 - t0));
        phase.window(mark, t5 - t0);
    }

    fn layer_metrics(
        &self,
        phase: &mut Phase,
        s: &Samples,
        fast_path: u64,
        after: &nc_telemetry::Snapshot,
    ) {
        let n = self.config.blocks();
        let k = self.config.block_size();
        let segments = phase.attempted as f64;
        let m = &mut phase.layer;
        m.insert("gf256.kernel_id".into(), f64::from(nc_gf256::simd::active_kernel().id()));
        m.insert("fft.kernel_id".into(), gf16_kernel_id(nc_fft::simd::active_kernel()));
        m.insert("fft.region_gb_s".into(), kernels::gf16_region_gb_s());
        // The flagship dense-RLNC shape: `rlnc_generation`'s own, and the
        // control on `fft_erasure`, which never calls the GF(2^8) kernels.
        let dot = kernels::gf256_dot_gb_s(128, 4096);
        m.insert("gf256.dot_gb_s".into(), dot);
        if self.codec == CodecId::Fft16 {
            m.insert("fft.make_sender_ms_per_segment".into(), ratio(ms(s.make_sender), segments));
            m.insert("fft.absorb_us_p50".into(), s.absorb.quantile(0.5));
            m.insert("fft.completing_absorb_ms_p50".into(), s.completing_absorb.quantile(0.5));
            m.insert("fft.completing_absorb_ms_p90".into(), s.completing_absorb.quantile(0.9));
            m.insert("fft.recover_ms".into(), s.recover.quantile(0.5));
            let p50 = |name: &str| after.histogram(name).map_or(0.0, |h| h.p50 as f64);
            m.insert("fft.encode_ns_p50".into(), p50("fft.encode_ns"));
            m.insert("fft.decode_ns_p50".into(), p50("fft.decode_ns"));
            m.insert("fft.systematic_fast_path".into(), fast_path as f64);
        } else {
            let computed = (s.absorbs as usize * n * k) as f64;
            m.insert("gf256.encode_bytes_computed".into(), computed);
            m.insert("rlnc.frame_wire_us_p50".into(), s.frame_wire.quantile(0.5));
            m.insert("rlnc.frame_wire_us_p90".into(), s.frame_wire.quantile(0.9));
            m.insert("rlnc.absorb_us_p50".into(), s.any_absorb.quantile(0.5));
            m.insert("rlnc.absorb_us_p90".into(), s.any_absorb.quantile(0.9));
            m.insert("rlnc.recover_ms".into(), s.recover.quantile(0.5));
            m.insert("rlnc.innovative_ratio".into(), ratio(s.innovative as f64, s.absorbs as f64));
            m.insert("rlnc.frames_per_segment".into(), ratio(s.absorbs as f64, segments));
            let rate = ratio(computed / 1e9, s.frame_wire_time.as_secs_f64());
            m.insert("rlnc.encode_efficiency".into(), ratio(rate, dot));
        }
    }
}

/// The frame sequence numbers fed for one segment: dense RLNC draws fresh
/// combinations (sequence numbers are ignored) up to a cap; the FFT code
/// gets a seeded half of the originals, then the recovery shards.
fn frame_plan(codec: CodecId, n: usize, rng: &mut StdRng) -> Vec<u64> {
    if codec != CodecId::Fft16 {
        return (0..(RLNC_FRAME_CAP_PER_BLOCK * n) as u64).collect();
    }
    let mut originals: Vec<u64> = (0..n as u64).collect();
    originals.shuffle(rng);
    originals.truncate(n / 2);
    originals.extend(n as u64..2 * n as u64);
    originals
}

/// Feeds one segment's planned frames until it completes. Returns whether
/// it did; an absorb error or an exhausted plan fails the segment.
#[allow(clippy::too_many_arguments)]
fn feed_segment(
    sender: &dyn StreamCodecSender,
    receiver: &mut dyn StreamCodecReceiver,
    segment: usize,
    plan: &[u64],
    rng: &mut StdRng,
    tr: &mut Tracer,
    phase: &mut Phase,
    s: &mut Samples,
) -> bool {
    let mut first_absorb = None;
    for &seq in plan {
        let a = Instant::now();
        let wire = sender.frame_wire(segment, seq, rng);
        let b = Instant::now();
        let absorbed = receiver.absorb(&wire);
        let c = Instant::now();
        BytesPool::global().recycle(wire);
        tr.leaf("codec.frame_wire", a, b);
        tr.leaf("codec.absorb", b, c);
        phase.encode_time += b - a;
        phase.decode_time += c - b;
        phase.frames += 1;
        if tr.on() {
            s.frame_wire.push(us(b - a));
        }
        s.frame_wire_time += b - a;
        s.absorbs += 1;
        let first = *first_absorb.get_or_insert(b);
        match absorbed {
            Err(err) => {
                phase.errors.push(format!("absorb error on segment {segment}: {err}"));
                return false;
            }
            Ok(a) => {
                s.innovative += u64::from(a.innovative);
                if a.segment_complete {
                    s.completing_absorb.push(ms(c - b));
                    s.any_absorb.push(us(c - b));
                    phase.decode_ms.push(ms(c - first));
                    return true;
                }
                if tr.on() {
                    s.absorb.push(us(c - b));
                    s.any_absorb.push(us(c - b));
                }
            }
        }
    }
    phase.errors.push(format!("segment {segment} incomplete after {} frames", plan.len()));
    false
}
