//! `server_fanout`: a closed loop against a `ShardedServer` on loopback UDP.
//!
//! One client thread multiplexes [`IN_FLIGHT`] `ReceiverSession`s over one
//! `BatchSocket`; whenever a session finishes, the next one starts, the way
//! a peer pulls its next chunk. Every session is a short dense-RLNC stream
//! (3 segments of 8 × 256 B) drawn from a small catalogue of shared
//! encoders, so per-datagram cost in the session, wire, channel, syscall
//! and shard layers dominates and the codec does little. The client drops
//! a seeded [`DROP_SHARE`] of data datagrams before `handle_bytes`.
//!
//! The server runs [`SHARDS`] shard: client threads plus shards stay within
//! a 2-CPU host, which leaves cross-shard forwarding unexercised.
//!
//! `ShardedServer::serve` stops after a fixed number of finished
//! transfers, so the loop runs in rounds of [`ROUND_SESSIONS`] sessions.
//! Each round binds a fresh server (and `serve` spawns its shard pool), so
//! no datagram of one round can reach the next and the published catalogue
//! does not grow with the run.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nc_net::receiver::{ReceiverConfig, ReceiverEvent, ReceiverSession};
use nc_net::wire::{Datagram, Payload};
use nc_net::{BatchSocket, ServerConfig, ShardedServer, ShardedServerConfig};
use nc_rlnc::codec::{CodecId, StreamCodecSender};
use nc_rlnc::CodingConfig;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::report::{counter_delta, gf16_kernel_id, histogram_delta, ratio, us, Reservoir};
use crate::trace::Tracer;
use crate::{kernels, Phase};

const BLOCKS: usize = 8;
const BLOCK_BYTES: usize = 256;
const SEGMENTS: usize = 3;
const PAYLOAD_BYTES: usize = SEGMENTS * BLOCKS * BLOCK_BYTES;
/// Distinct payloads (and shared encoders) sessions draw from.
const CATALOGUE: usize = 8;
/// Sessions the client keeps open at once.
const IN_FLIGHT: usize = 128;
/// Sessions per `serve` call.
const ROUND_SESSIONS: u64 = 2048;
/// Sessions in the set-up warm-up round.
const WARMUP_SESSIONS: u64 = 512;
/// Upper bound on one round; a healthy round takes well under a second.
const ROUND_DEADLINE: Duration = Duration::from_secs(30);
/// Share of data datagrams the client drops before `handle_bytes`.
const DROP_SHARE: f64 = 0.05;
/// Server shards (one pinned pool worker each).
pub const SHARDS: usize = 1;
/// CPU the shard worker runs on.
const SHARD_CPU: usize = 1;
/// CPU the client thread runs on.
const CLIENT_CPU: usize = 0;
const CLIENT_SLOT_BYTES: usize = 2048;
/// Kernel receive buffer on every socket: bursts wait for the next batched
/// drain instead of being shed, so loss is only the seeded drops.
const RECV_BUFFER_BYTES: usize = 4 << 20;

/// Time spent in the server's `frame_wire` calls, summed over every shared
/// encoder. A statistic only: `Relaxed` atomics publish no other data.
#[derive(Default)]
struct EncodeClock {
    calls: AtomicU64,
    nanos: AtomicU64,
    tracing: AtomicBool,
    samples_us: Mutex<Reservoir>,
}

/// A catalogue encoder wrapped so the benchmark can time `frame_wire` on
/// the shard thread; every other call forwards unchanged.
struct TimedSender {
    inner: Arc<dyn StreamCodecSender>,
    clock: Arc<EncodeClock>,
}

impl StreamCodecSender for TimedSender {
    fn codec(&self) -> CodecId {
        self.inner.codec()
    }

    fn coding_config(&self) -> CodingConfig {
        self.inner.coding_config()
    }

    fn total_segments(&self) -> usize {
        self.inner.total_segments()
    }

    fn original_len(&self) -> usize {
        self.inner.original_len()
    }

    fn frame_wire_bytes(&self) -> usize {
        self.inner.frame_wire_bytes()
    }

    fn frame_wire(&self, segment: usize, seq: u64, rng: &mut dyn RngCore) -> Vec<u8> {
        let start = Instant::now();
        let wire = self.inner.frame_wire(segment, seq, rng);
        let elapsed = start.elapsed();
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        self.clock.nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if self.clock.tracing.load(Ordering::Relaxed) {
            self.clock.samples_us.lock().expect("encode sample lock poisoned").push(us(elapsed));
        }
        wire
    }
}

/// Client- and server-side totals across the rounds of one phase.
#[derive(Default)]
struct RoundStats {
    wall: Duration,
    idle: Duration,
    serve_time: Duration,
    announces: u64,
    acks: u64,
    transfers: u64,
    redundancy_sum: f64,
    poll_us: Reservoir,
    handle_us: Reservoir,
    decode_us: Reservoir,
    recv_us: Reservoir,
}

/// One open client session.
struct Flight {
    rx: ReceiverSession,
    started: Instant,
    completed: Option<Instant>,
}

/// The `server_fanout` workload state: catalogue, bound sockets, seeded
/// drop draws.
pub struct Fanout {
    catalogue: Vec<Vec<u8>>,
    senders: Vec<Arc<dyn StreamCodecSender>>,
    clock: Arc<EncodeClock>,
    socket: BatchSocket,
    rng: StdRng,
    next_id: u64,
    /// The warm-up round run during set-up (its failures still count).
    pub warmup: Phase,
}

impl Fanout {
    /// Generates the catalogue, builds its encoders, binds the client socket
    /// and runs one warm-up round (the first server bind and pool spawn).
    pub fn setup(seed: u64) -> Result<Fanout, String> {
        // Shard workers are spawned by this thread in `serve` and inherit
        // its CPU; the client thread moves itself to the other one.
        pin_to_cpu(SHARD_CPU);
        let mut rng = StdRng::seed_from_u64(seed);
        let config = CodingConfig::new(BLOCKS, BLOCK_BYTES).expect("fan-out shape is valid");
        let clock = Arc::new(EncodeClock::default());
        let mut catalogue = Vec::new();
        let mut senders: Vec<Arc<dyn StreamCodecSender>> = Vec::new();
        for _ in 0..CATALOGUE {
            let mut payload = vec![0u8; PAYLOAD_BYTES];
            rng.fill_bytes(&mut payload);
            let inner = nc_net::make_sender(CodecId::DenseRlnc, config, &payload)
                .map_err(|e| format!("make_sender: {e}"))?;
            senders.push(Arc::new(TimedSender { inner, clock: Arc::clone(&clock) }));
            catalogue.push(payload);
        }
        let socket = BatchSocket::bind("127.0.0.1:0", CLIENT_SLOT_BYTES)
            .map_err(|e| format!("bind client: {e}"))?;
        socket.set_recv_buffer(RECV_BUFFER_BYTES).map_err(|e| format!("client rcvbuf: {e}"))?;
        let mut fanout =
            Fanout { catalogue, senders, clock, socket, rng, next_id: 0, warmup: Phase::default() };
        let mut warmup = Phase::default();
        let mut stats = RoundStats::default();
        fanout.round(
            WARMUP_SESSIONS,
            &mut Tracer::new(false, Instant::now()),
            &mut warmup,
            &mut stats,
        );
        fanout.warmup = warmup;
        Ok(fanout)
    }

    /// Runs whole rounds until `seconds` have passed.
    pub fn run(&mut self, seconds: f64, tr: &mut Tracer) -> Phase {
        self.clock.tracing.store(tr.on(), Ordering::Relaxed);
        *self.clock.samples_us.lock().expect("encode sample lock poisoned") = Reservoir::default();
        let calls0 = self.clock.calls.load(Ordering::Relaxed);
        let before = nc_telemetry::snapshot();
        let mut phase = Phase::default();
        let mut stats = RoundStats::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            self.round(ROUND_SESSIONS, tr, &mut phase, &mut stats);
        }
        phase.wall = start.elapsed();
        let after = nc_telemetry::snapshot();
        self.clock.tracing.store(false, Ordering::Relaxed);
        let calls = self.clock.calls.load(Ordering::Relaxed) - calls0;
        if tr.on() {
            self.layer_metrics(&mut phase, &stats, calls, &before, &after);
        }
        phase
    }

    /// One round: bind a server, publish `sessions` ids, run the client loop
    /// on a second thread and `serve` on this one until both finish.
    fn round(&mut self, sessions: u64, tr: &mut Tracer, phase: &mut Phase, stats: &mut RoundStats) {
        let ids = self.next_id..self.next_id + sessions;
        self.next_id += sessions;
        let bound = ShardedServer::bind("127.0.0.1:0", server_config())
            .and_then(|server| server.local_addr().map(|addr| (server, addr)));
        let (mut server, addr) = match bound {
            Ok(bound) => bound,
            Err(err) => {
                phase.attempted += sessions;
                phase.fail(sessions, format!("bind server: {err}"));
                return;
            }
        };
        for id in ids.clone() {
            server.publish(id, Arc::clone(&self.senders[id as usize % CATALOGUE]));
        }
        let nanos0 = self.clock.nanos.load(Ordering::Relaxed);
        let calls0 = self.clock.calls.load(Ordering::Relaxed);
        let mut client_tr = Tracer::new(tr.on(), Instant::now());
        let mark = phase.mark();
        let Fanout { catalogue, socket, rng, .. } = self;
        let start = Instant::now();
        tr.open("net.serve", start);
        let (served, serve_end) = std::thread::scope(|scope| {
            let client = scope.spawn(|| {
                client_round(socket, addr, ids, catalogue, rng, &mut client_tr, phase, stats)
            });
            let served = server.serve(sessions as usize, ROUND_DEADLINE);
            let serve_end = Instant::now();
            if let Err(panic) = client.join() {
                std::panic::resume_unwind(panic);
            }
            (served, serve_end)
        });
        let encode = Duration::from_nanos(self.clock.nanos.load(Ordering::Relaxed) - nanos0);
        let frame_calls = self.clock.calls.load(Ordering::Relaxed) - calls0;
        tr.leaf_totals("codec.frame_wire", frame_calls, encode);
        tr.close(serve_end);
        tr.merge(client_tr);

        phase.encode_time += encode;
        phase.encode_bytes += sessions * PAYLOAD_BYTES as u64;
        phase.window(mark, start.elapsed());
        stats.serve_time += serve_end - start;
        match served {
            Ok(transfers) => {
                for t in &transfers {
                    phase.frames += t.report.frames_sent;
                    stats.announces += t.report.announces_sent;
                    stats.acks += t.report.acks_received;
                    stats.transfers += 1;
                    stats.redundancy_sum += t.report.redundancy_factor;
                }
                if (transfers.len() as u64) < sessions {
                    phase.errors.push(format!(
                        "server finished {} of {sessions} transfers before its deadline",
                        transfers.len()
                    ));
                }
            }
            Err(err) => phase.errors.push(format!("serve failed: {err}")),
        }
    }

    fn layer_metrics(
        &self,
        phase: &mut Phase,
        st: &RoundStats,
        frame_calls: u64,
        before: &nc_telemetry::Snapshot,
        after: &nc_telemetry::Snapshot,
    ) {
        let sessions = phase.attempted as f64;
        let computed = (frame_calls as usize * BLOCKS * BLOCK_BYTES) as f64;
        let dot = kernels::gf256_dot_gb_s(BLOCKS, BLOCK_BYTES);
        let samples = self.clock.samples_us.lock().expect("encode sample lock poisoned");
        let delta = |name: &str| counter_delta(before, after, name) as f64;
        let mean = |name: &str| {
            let (count, sum) = histogram_delta(before, after, name);
            ratio(sum as f64, count as f64)
        };
        let encode_rate = ratio(computed / 1e9, phase.encode_time.as_secs_f64());
        let redundancy = ratio(st.redundancy_sum, st.transfers as f64);
        let hits = delta("pool.buffer_hits");
        let misses = delta("pool.buffer_misses");
        let miss_p95 = after.histogram("net.deadline_miss_ns").map_or(0.0, |h| h.p95 as f64 / 1e3);
        let metrics = [
            ("gf256.kernel_id", f64::from(nc_gf256::simd::active_kernel().id())),
            ("gf256.dot_gb_s", dot),
            ("gf256.encode_bytes_computed", computed),
            ("rlnc.frame_wire_us_p50", samples.quantile(0.5)),
            ("rlnc.frame_wire_us_p90", samples.quantile(0.9)),
            ("rlnc.encode_efficiency", ratio(encode_rate, dot)),
            ("fft.kernel_id", gf16_kernel_id(nc_fft::simd::active_kernel())),
            ("fft.region_gb_s", kernels::gf16_region_gb_s()),
            ("net.session.rx_handle_us_p50", st.handle_us.quantile(0.5)),
            ("net.session.rx_poll_us_p50", st.poll_us.quantile(0.5)),
            ("net.wire.decode_us_p50", st.decode_us.quantile(0.5)),
            ("net.frames_sent_per_session", ratio(phase.frames as f64, sessions)),
            ("net.announces_per_session", ratio(st.announces as f64, sessions)),
            ("net.acks_per_session", ratio(st.acks as f64, sessions)),
            ("net.redundancy_factor", redundancy),
            (
                "net.syscalls_per_datagram",
                ratio(delta("net.syscalls"), delta("net.tx_datagrams") + delta("net.rx_datagrams")),
            ),
            ("net.tx_batch_mean", mean("net.tx_batch")),
            ("net.rx_batch_mean", mean("net.rx_batch")),
            ("net.io.recv_batch_us_p50", st.recv_us.quantile(0.5)),
            ("net.io.client_idle_share", ratio(st.idle.as_secs_f64(), st.wall.as_secs_f64())),
            ("net.deadline_miss_us_p95", miss_p95),
            ("net.shard_forwards_per_session", ratio(delta("net.shard_forwards"), sessions)),
            ("net.serve_s", st.serve_time.as_secs_f64()),
            (
                "net.rx_bytes_copied_per_datagram",
                ratio(delta("net.rx_bytes_copied"), delta("net.rx_datagrams")),
            ),
            ("pool.buffer_hit_ratio", ratio(hits, hits + misses)),
            (
                "pool.worker_idle_ms",
                histogram_delta(before, after, "pool.worker_idle_ns").1 as f64 / 1e6,
            ),
            ("pool.steals", delta("pool.steals")),
        ];
        for (name, value) in metrics {
            phase.layer.insert(name.into(), value);
        }
    }
}

/// Restricts the calling thread, and threads it spawns afterwards, to CPU
/// `cpu`, so the client and the shard never share a CPU and the scheduler's
/// placement does not vary from run to run. Best effort: a host with fewer
/// CPUs, or without the call, runs unpinned.
#[cfg(target_os = "linux")]
fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    if cpu >= crate::report::nproc() {
        return;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a live,
    // initialised 128-byte CPU bitmap for the duration of the call, which
    // only reads it. A failure leaves the thread's affinity unchanged.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_cpu: usize) {}

fn server_config() -> ShardedServerConfig {
    ShardedServerConfig {
        shards: SHARDS,
        server: ServerConfig {
            recv_buffer_bytes: Some(RECV_BUFFER_BYTES),
            ..ServerConfig::default()
        },
        ..ShardedServerConfig::default()
    }
}

fn receiver_config() -> ReceiverConfig {
    ReceiverConfig { deadline: Some(Duration::from_secs(10)), ..ReceiverConfig::default() }
}

/// The client half of one round: keeps [`IN_FLIGHT`] sessions open until
/// every id in `ids` has finished, and checks each recovered payload.
#[allow(clippy::too_many_arguments)]
fn client_round(
    socket: &mut BatchSocket,
    server: SocketAddr,
    ids: Range<u64>,
    catalogue: &[Vec<u8>],
    rng: &mut StdRng,
    tr: &mut Tracer,
    phase: &mut Phase,
    st: &mut RoundStats,
) {
    pin_to_cpu(CLIENT_CPU);
    let start = Instant::now();
    tr.open("client.round", start);
    let mut flights: HashMap<u64, Flight> = HashMap::new();
    let mut finished = Vec::new();
    let mut next = ids.start;
    while next < ids.end || !flights.is_empty() {
        let now = Instant::now();
        while flights.len() < IN_FLIGHT && next < ids.end {
            let rx = ReceiverSession::new(next, receiver_config(), now);
            flights.insert(next, Flight { rx, started: now, completed: None });
            phase.attempted += 1;
            next += 1;
        }

        // Advance every session: queue feedback, find the earliest wake.
        let mut wait = Duration::from_millis(25);
        finished.clear();
        for (&id, flight) in flights.iter_mut() {
            tr.set_op(id);
            loop {
                let a = Instant::now();
                let event = flight.rx.poll(a);
                let b = Instant::now();
                tr.leaf("net.session.poll", a, b);
                if tr.on() {
                    st.poll_us.push(us(b - a));
                }
                match event {
                    ReceiverEvent::Transmit(bytes) => {
                        if let Err(err) = socket.queue(server, bytes) {
                            phase.errors.push(format!("queue feedback: {err}"));
                        }
                    }
                    ReceiverEvent::Wait(w) => {
                        wait = wait.min(w);
                        break;
                    }
                    ReceiverEvent::Finished => {
                        finished.push(id);
                        break;
                    }
                }
            }
        }
        for &id in &finished {
            let flight = flights.remove(&id).expect("finished session is in flight");
            let report = flight.rx.report();
            let recovered = flight.rx.into_recovered();
            let expected = &catalogue[id as usize % CATALOGUE];
            match (recovered, flight.completed) {
                (Some(data), Some(done)) if data == *expected => {
                    phase.bytes_ok += PAYLOAD_BYTES as u64;
                    phase.blocks_ok += (SEGMENTS * BLOCKS) as u64;
                    phase.session_ms.push(crate::report::ms(done - flight.started));
                    phase.decode_ms.push(report.decode_latency.map_or(0.0, crate::report::ms));
                }
                (Some(_), _) => {
                    phase.fail(1, format!("session {id}: recovered bytes differ from its payload"))
                }
                (None, _) => phase
                    .fail(1, format!("session {id} ended {:?} without recovering", report.outcome)),
            }
        }
        let a = Instant::now();
        if let Err(err) = socket.flush() {
            phase.errors.push(format!("flush feedback: {err}"));
        }
        tr.leaf("net.io.flush", a, Instant::now());

        // One blocking batch, then drain whatever else already queued.
        loop {
            let a = Instant::now();
            tr.open("net.io.recv_batch", a);
            let got = socket.recv_batch(wait, |_, bytes| {
                let d0 = Instant::now();
                let datagram = Datagram::decode(bytes);
                let d1 = Instant::now();
                tr.leaf("net.wire.decode", d0, d1);
                if tr.on() {
                    st.decode_us.push(us(d1 - d0));
                }
                let Ok(datagram) = datagram else { return };
                if matches!(datagram.payload, Payload::Data(_)) && rng.gen_bool(DROP_SHARE) {
                    return;
                }
                let Some(flight) = flights.get_mut(&datagram.session) else { return };
                tr.set_op(datagram.session);
                let h0 = Instant::now();
                flight.rx.handle_bytes(bytes, h0);
                let h1 = Instant::now();
                tr.leaf("net.session.handle_bytes", h0, h1);
                phase.decode_time += h1 - h0;
                if tr.on() {
                    st.handle_us.push(us(h1 - h0));
                }
                if flight.completed.is_none() && flight.rx.is_complete() {
                    flight.completed = Some(h1);
                }
            });
            let b = Instant::now();
            tr.close(b);
            if tr.on() {
                st.recv_us.push(us(b - a));
            }
            match got {
                Ok(0) => {
                    st.idle += b - a;
                    break;
                }
                Ok(_) if wait.is_zero() => break,
                Ok(_) => wait = Duration::ZERO,
                Err(err) => {
                    phase.errors.push(format!("recv batch: {err}"));
                    break;
                }
            }
        }
    }
    let end = Instant::now();
    tr.close(end);
    st.wall += end - start;
}
