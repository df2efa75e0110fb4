//! §5.1.1 server capacity with real packets: drive many concurrent
//! `ReceiverSession`s over loopback UDP against (a) a one-shard
//! `ShardedServer` (one socket, one serve loop) and (b) the same server
//! sharded across an `SO_REUSEPORT` group, and report aggregate goodput,
//! sessions/s, syscalls-per-datagram, and the p99 shard deadline miss.
//!
//! Run with `cargo run -p nc-bench --release --bin server_capacity
//! [out.json]`; writes `BENCH_PR7.json` (or the given path). `--test`
//! shrinks to 64 sessions / 4 shards for CI smoke runs; add
//! `--telemetry-json <path>` to also dump the raw metrics snapshot.
//!
//! Clients are identical in both phases — a few `BatchSocket`s, each
//! multiplexing many sessions and draining with batched receives — and
//! both phases run the same server type, so the one-shard/sharded delta
//! isolates the shard count. Both phases batch syscalls unless built
//! with `--cfg nc_portable_io`. The
//! `syscalls_per_datagram` figure is `net.syscalls` over
//! `net.tx_datagrams + net.rx_datagrams`, both counted at the I/O seam
//! on each side of every socket in the process.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nc_net::channel::BatchSocket;
use nc_net::receiver::{ReceiverConfig, ReceiverEvent, ReceiverSession};
use nc_net::shard::{ServerConfig, ShardedServer, ShardedServerConfig};
use nc_net::wire::Datagram;
use nc_rlnc::stream::StreamEncoder;
use nc_rlnc::CodingConfig;

/// Per-session payload: 3 segments of 8 x 256 B keeps each transfer a
/// handful of datagrams, so the workload is syscall-bound — the regime
/// the batched path is built for — rather than GF(256)-bound.
const SEGMENT_BLOCKS: usize = 8;
const BLOCK_BYTES: usize = 256;
const PAYLOAD_BYTES: usize = 3 * SEGMENT_BLOCKS * BLOCK_BYTES;

/// Receive-slot size for client sockets: coded frames are one block plus
/// coefficients and header, far under this.
const CLIENT_SLOT_BYTES: usize = 2048;

/// Kernel receive buffer requested on every socket (clamped to
/// `net.core.rmem_max`). Large enough that a burst from hundreds of
/// concurrent sessions waits in the kernel for the next batched drain
/// instead of being shed as loss — the bench then measures serving
/// capacity, not loss-recovery latency.
const RECV_BUFFER_BYTES: usize = 4 << 20;

fn receiver_config(deadline: Duration) -> ReceiverConfig {
    ReceiverConfig {
        idle_timeout: Duration::from_secs(30),
        deadline: Some(deadline),
        ..ReceiverConfig::default()
    }
}

/// Drives `ids.len()` receiver sessions multiplexed over one socket.
/// Returns how many recovered the expected payload bit-exact.
fn client_driver(
    server: SocketAddr,
    ids: Vec<u64>,
    expected: Arc<Vec<u8>>,
    deadline: Duration,
) -> usize {
    let mut socket = BatchSocket::bind("127.0.0.1:0", CLIENT_SLOT_BYTES).expect("bind client");
    socket.set_recv_buffer(RECV_BUFFER_BYTES).expect("resize client rcvbuf");
    let start = Instant::now();
    let mut sessions: HashMap<u64, ReceiverSession> = ids
        .into_iter()
        .map(|id| (id, ReceiverSession::new(id, receiver_config(deadline), start)))
        .collect();
    let mut exact = 0usize;
    let mut finished: Vec<u64> = Vec::new();
    while !sessions.is_empty() && start.elapsed() < deadline {
        // Advance every session: queue feedback, find the earliest wake.
        let mut wait = Duration::from_millis(25);
        finished.clear();
        for (&id, rx) in sessions.iter_mut() {
            loop {
                match rx.poll(Instant::now()) {
                    ReceiverEvent::Transmit(bytes) => {
                        socket.queue(server, bytes).expect("queue feedback");
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
        for id in &finished {
            let rx = sessions.remove(id).expect("finished session");
            if rx.into_recovered().as_deref() == Some(expected.as_slice()) {
                exact += 1;
            }
        }
        socket.flush().expect("flush feedback");
        // One blocking batch, then drain whatever else already queued.
        loop {
            let got = socket
                .recv_batch(wait, |_, bytes| {
                    if let Ok(datagram) = Datagram::decode(bytes) {
                        if let Some(rx) = sessions.get_mut(&datagram.session) {
                            rx.handle_bytes(bytes, Instant::now());
                        }
                    }
                })
                .expect("recv batch");
            if got == 0 || wait.is_zero() {
                break;
            }
            wait = Duration::ZERO;
        }
    }
    exact
}

struct PhaseResult {
    label: &'static str,
    elapsed_s: f64,
    exact: usize,
    goodput_mb_s: f64,
    sessions_per_s: f64,
    syscalls: u64,
    datagrams: u64,
}

impl PhaseResult {
    fn syscalls_per_datagram(&self) -> f64 {
        self.syscalls as f64 / (self.datagrams.max(1)) as f64
    }
}

fn counter(snapshot: &nc_telemetry::Snapshot, name: &str) -> u64 {
    snapshot.counter(name).unwrap_or(0)
}

/// Runs one phase: bind a server under `config` publishing every session
/// id, spin up client threads, run `serve` on this thread, and meter the
/// process-wide I/O counters across the phase.
fn run_phase(
    label: &'static str,
    config: ShardedServerConfig,
    encoder: &Arc<StreamEncoder>,
    sessions: usize,
    client_sockets: usize,
    data: &Arc<Vec<u8>>,
    deadline: Duration,
) -> PhaseResult {
    let mut server = ShardedServer::bind("127.0.0.1:0", config).expect("bind server");
    for id in 0..sessions as u64 {
        server.publish(id, encoder.clone());
    }
    let server_addr = server.local_addr().expect("addr");
    let before = nc_telemetry::snapshot();
    let start = Instant::now();
    let chunk = sessions.div_ceil(client_sockets);
    let clients: Vec<_> = (0..sessions as u64)
        .collect::<Vec<_>>()
        .chunks(chunk)
        .map(|ids| {
            let ids = ids.to_vec();
            let expected = Arc::clone(data);
            // lint: allow(thread-spawn) — bench measurement driver threads, not a product hot path.
            std::thread::spawn(move || client_driver(server_addr, ids, expected, deadline))
        })
        .collect();
    let served = server.serve(sessions, deadline).expect("serve").len();
    let exact: usize = clients.into_iter().map(|c| c.join().expect("client thread")).sum();
    let elapsed = start.elapsed().as_secs_f64();
    let after = nc_telemetry::snapshot();

    let syscalls = counter(&after, "net.syscalls") - counter(&before, "net.syscalls");
    let datagrams = (counter(&after, "net.tx_datagrams") + counter(&after, "net.rx_datagrams"))
        - (counter(&before, "net.tx_datagrams") + counter(&before, "net.rx_datagrams"));
    assert_eq!(served, sessions, "{label}: server reaped {served}/{sessions} transfers");
    PhaseResult {
        label,
        elapsed_s: elapsed,
        exact,
        goodput_mb_s: (exact * PAYLOAD_BYTES) as f64 / elapsed / 1e6,
        sessions_per_s: exact as f64 / elapsed,
        syscalls,
        datagrams,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_PR7.json".to_string());
    // 16 client sockets keep each socket's share of the initial blast
    // (sessions/16 x payload + per-skb accounting) under the 4 MB
    // `rmem_max` grant, so client-side buffering is loss-free in both
    // phases and the phases differ only in the shard count.
    let (sessions, shards, client_sockets) = if test_mode { (64, 4, 4) } else { (1000, 8, 16) };
    let deadline = if test_mode { Duration::from_secs(60) } else { Duration::from_secs(180) };

    let coding = CodingConfig::new(SEGMENT_BLOCKS, BLOCK_BYTES).expect("valid");
    let data: Arc<Vec<u8>> =
        Arc::new((0..PAYLOAD_BYTES).map(|i| (i.wrapping_mul(2654435761) >> 9) as u8).collect());
    let encoder = Arc::new(StreamEncoder::new(coding, &data).expect("non-empty"));
    let server =
        ServerConfig { recv_buffer_bytes: Some(RECV_BUFFER_BYTES), ..ServerConfig::default() };
    let phase = |label, shards| {
        let config = ShardedServerConfig {
            shards,
            server: server.clone(),
            ..ShardedServerConfig::default()
        };
        run_phase(label, config, &encoder, sessions, client_sockets, &data, deadline)
    };
    let one_shard = phase("one-shard", 1);
    let sharded = phase("sharded", shards);

    let snapshot = nc_telemetry::snapshot();
    let miss = snapshot.histogram("net.deadline_miss_ns");
    let p99_miss_us = miss.as_ref().map_or(0.0, |h| h.p99 as f64 / 1e3);
    let forwards = counter(&snapshot, "net.shard_forwards");
    let speedup = sharded.goodput_mb_s / one_shard.goodput_mb_s.max(f64::MIN_POSITIVE);

    println!(
        "server_capacity: sessions={sessions} payload={PAYLOAD_BYTES}B shards={shards} \
         batched={}",
        BatchSocket::batched()
    );
    for phase in [&one_shard, &sharded] {
        println!(
            "  {:<16} {:>7.2}s  {:>8.2} MB/s  {:>8.1} sessions/s  {:>6.3} syscalls/datagram  \
             {:>8} datagrams  {}/{} exact",
            phase.label,
            phase.elapsed_s,
            phase.goodput_mb_s,
            phase.sessions_per_s,
            phase.syscalls_per_datagram(),
            phase.datagrams,
            phase.exact,
            sessions,
        );
    }
    println!("  speedup (sharded/one-shard): {speedup:.2}x");
    println!(
        "  shard p99 deadline miss (both phases): {p99_miss_us:.1} us; cross-shard forwards: \
         {forwards}"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"server_capacity\",\n",
            "  \"config\": {{\"sessions\": {sessions}, \"payload_bytes\": {payload}, ",
            "\"shards\": {shards}, \"client_sockets\": {clients}, \"batched\": {batched}}},\n",
            "  \"one_shard\": {{\"elapsed_s\": {o_el:.3}, \"goodput_mb_s\": {o_gp:.3}, ",
            "\"sessions_per_s\": {o_sp:.2}, \"bit_exact\": {o_ex}, ",
            "\"syscalls_per_datagram\": {o_sd:.4}}},\n",
            "  \"sharded\": {{\"elapsed_s\": {s_el:.3}, \"goodput_mb_s\": {s_gp:.3}, ",
            "\"sessions_per_s\": {s_sp:.2}, \"bit_exact\": {s_ex}, ",
            "\"syscalls_per_datagram\": {s_sd:.4}}},\n",
            "  \"speedup_vs_one_shard\": {speedup:.3},\n",
            "  \"p99_deadline_miss_us\": {p99:.1},\n",
            "  \"cross_shard_forwards\": {forwards}\n",
            "}}\n"
        ),
        sessions = sessions,
        payload = PAYLOAD_BYTES,
        shards = shards,
        clients = client_sockets,
        batched = BatchSocket::batched(),
        o_el = one_shard.elapsed_s,
        o_gp = one_shard.goodput_mb_s,
        o_sp = one_shard.sessions_per_s,
        o_ex = one_shard.exact,
        o_sd = one_shard.syscalls_per_datagram(),
        s_el = sharded.elapsed_s,
        s_gp = sharded.goodput_mb_s,
        s_sp = sharded.sessions_per_s,
        s_ex = sharded.exact,
        s_sd = sharded.syscalls_per_datagram(),
        speedup = speedup,
        p99 = p99_miss_us,
        forwards = forwards,
    );
    nc_bench::telemetry::create_parent_dirs(&out_path).expect("create output directories");
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");

    nc_bench::dump_telemetry_if_requested();
}
