//! Idle-wake-up bound for the serve loop. With nothing to send and nobody
//! connected, each shard must sleep until the `poll_interval` cap, so half
//! a second of idling is a handful of wake-ups — not the ~250 a fixed 2ms
//! tick would burn.
//!
//! Every wake-up that receives nothing records one `net.deadline_miss_ns`
//! sample, so the histogram's count delta is the number of empty wakes.
//! This file is its own test binary so no other test records into the
//! process-wide registry while it measures.

use nc_net::shard::{ShardedServer, ShardedServerConfig};
use std::time::Duration;

fn empty_wakes() -> u64 {
    nc_telemetry::snapshot().histogram("net.deadline_miss_ns").map_or(0, |h| h.count)
}

#[test]
fn idle_shard_sleeps_instead_of_ticking() {
    let config = ShardedServerConfig { shards: 1, ..ShardedServerConfig::default() };
    let mut server = ShardedServer::bind("127.0.0.1:0", config).unwrap();
    let before = empty_wakes();
    let transfers = server.serve(1, Duration::from_millis(500)).unwrap();
    let wakes = empty_wakes() - before;

    assert!(transfers.is_empty());
    assert!(wakes < 60, "idle shard busy-waited: {wakes} empty wake-ups in 500ms");
    assert!(wakes > 0 || !nc_telemetry::enabled(), "empty wakes must be counted");
}
