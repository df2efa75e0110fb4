//! Segment-level systematic encode and erasure decode.
//!
//! A segment is `original_count` equal-length shards (the *original*
//! data) plus `recovery_count` parity shards. Encoding evaluates the data
//! polynomial over recovery cosets with one truncated IFFT per m-sized
//! chunk and a final FFT — O((n/m)·m log m + m log m) region operations —
//! and decoding recovers any erased originals from any mix of surviving
//! shards via the Lin–Chung–Han construction: an error-locator built with
//! two Walsh-Hadamard transforms against the precomputed `log_walsh`
//! table, one big IFFT, a formal derivative, and one big FFT. Compare
//! dense RLNC's O(n²) coefficient work per segment and O(n³) Gaussian
//! elimination.
//!
//! Working shards come from the process [`BytesPool`] and go back to it,
//! so steady-state coding does not allocate. Both paths record wall time
//! into the `fft.encode_ns` / `fft.decode_ns` histograms; a decode whose
//! originals all survived is the *systematic fast path* — counted in
//! `fft.systematic_fast_path` and answered by pure copy.

use crate::afft::{fft, formal_derivative, ifft};
use crate::metrics::metrics;
use crate::simd;
use crate::tables::{fwht, tables, MODULUS, ORDER};
use nc_pool::BytesPool;
use nc_rlnc::Error;
use std::time::Instant;

/// Validates one segment's shard geometry; returns the shard byte length.
fn shard_bytes_of<'a, I: Iterator<Item = &'a [u8]>>(mut shards: I) -> Result<usize, Error> {
    let first = shards
        .next()
        .ok_or(Error::InvalidConfig { reason: "a segment needs at least one shard present" })?;
    let bytes = first.len();
    if bytes == 0 || bytes % 2 != 0 {
        return Err(Error::InvalidConfig {
            reason: "GF(2^16) shards must be non-empty and even-length",
        });
    }
    for s in shards {
        if s.len() != bytes {
            return Err(Error::SizeMismatch { expected: bytes, actual: s.len() });
        }
    }
    Ok(bytes)
}

/// Produces `recovery_count` parity shards for `original`.
///
/// Shards must all be the same non-zero even length (GF(2^16) symbols).
/// Capacity bound: with `m = recovery_count.next_power_of_two()`, the
/// evaluation cosets `m·1 .. m·(chunks+1)` must fit the field, i.e.
/// `m + original.len()` rounded up to chunks of `m` stays ≤ 2^16.
pub fn encode_segment(original: &[&[u8]], recovery_count: usize) -> Result<Vec<Vec<u8>>, Error> {
    if recovery_count == 0 {
        return Err(Error::InvalidConfig { reason: "recovery_count must be at least 1" });
    }
    let shard_bytes = shard_bytes_of(original.iter().copied())?;
    let m = recovery_count.next_power_of_two();
    let chunks = original.len().div_ceil(m);
    if !matches!(m.checked_mul(chunks + 1), Some(points) if points <= ORDER) {
        return Err(Error::InvalidConfig {
            reason: "original + recovery shard count exceeds GF(2^16) capacity",
        });
    }

    let started = Instant::now();
    let t = tables();
    let pool = BytesPool::global();

    // Accumulate Σ_c IFFT(chunk c over coset m + c·m) into `work`.
    let mut work: Vec<Vec<u8>> = (0..m).map(|_| pool.take_vec(shard_bytes)).collect();
    let first = original.len().min(m);
    for (w, o) in work.iter_mut().zip(&original[..first]) {
        w.copy_from_slice(o);
    }
    ifft(&t, &mut work, m, first, m);
    for c in 1..chunks {
        let start = c * m;
        let count = (original.len() - start).min(m);
        let mut chunk: Vec<Vec<u8>> = (0..m).map(|_| pool.take_vec(shard_bytes)).collect();
        for (w, o) in chunk.iter_mut().zip(&original[start..start + count]) {
            w.copy_from_slice(o);
        }
        ifft(&t, &mut chunk, m, count, m + start);
        for (w, x) in work.iter_mut().zip(&chunk) {
            nc_gf256::region::add_assign(w, x);
        }
        for v in chunk {
            pool.recycle(v);
        }
    }

    // Evaluate over the recovery coset (points 0..m); only the first
    // `recovery_count` outputs leave the function.
    fft(&t, &mut work, m, recovery_count, 0);
    let mut recovery = work;
    for v in recovery.drain(recovery_count..) {
        pool.recycle(v);
    }

    let mx = metrics();
    mx.encode_ns.record(started.elapsed().as_nanos() as u64);
    mx.recovery_shards.add(recovery_count as u64);
    Ok(recovery)
}

/// Recovers the full original shard list from whatever survived.
///
/// `original[i]` / `recovery[i]` are `None` where the shard was lost.
/// Succeeds whenever the erased originals are covered by surviving
/// recovery shards (any `original.len()` total survivors of a systematic
/// Reed–Solomon code suffice); otherwise [`Error::RankDeficient`].
///
/// When every original survived this is the **systematic fast path**:
/// pure copies, no transform, `fft.systematic_fast_path` incremented.
pub fn decode_segment(
    original: &[Option<&[u8]>],
    recovery: &[Option<&[u8]>],
) -> Result<Vec<Vec<u8>>, Error> {
    let original_count = original.len();
    let recovery_count = recovery.len();
    if original_count == 0 || recovery_count == 0 {
        return Err(Error::InvalidConfig {
            reason: "decode needs both original and recovery shard positions",
        });
    }
    let m = recovery_count.next_power_of_two();
    if m + original_count > ORDER {
        return Err(Error::InvalidConfig {
            reason: "original + recovery shard count exceeds GF(2^16) capacity",
        });
    }
    let shard_bytes =
        shard_bytes_of(original.iter().chain(recovery.iter()).filter_map(|s| s.as_deref()))?;

    if original.iter().all(Option::is_some) {
        metrics().systematic_fast_path.inc();
        return Ok(original.iter().map(|s| s.expect("all present").to_vec()).collect());
    }
    let erased_originals = original.iter().filter(|s| s.is_none()).count();
    let present_recovery = recovery.iter().filter(|s| s.is_some()).count();
    if erased_originals > present_recovery {
        return Err(Error::RankDeficient {
            rank: original_count - erased_originals + present_recovery,
            needed: original_count,
        });
    }

    let started = Instant::now();
    let t = tables();
    let pool = BytesPool::global();
    let n_fft = (m + original_count).next_power_of_two();

    // Error locator: 1 at every erased position (padding recovery
    // positions count as erased), then two FWHTs against log_walsh turn
    // the indicator into the log-domain evaluations of the locator
    // polynomial at every field point.
    let mut err_loc = vec![0u16; ORDER];
    for (e, r) in err_loc.iter_mut().zip(recovery.iter()) {
        if r.is_none() {
            *e = 1;
        }
    }
    for e in err_loc.iter_mut().take(m).skip(recovery_count) {
        *e = 1;
    }
    for (i, o) in original.iter().enumerate() {
        if o.is_none() {
            err_loc[m + i] = 1;
        }
    }
    fwht(&mut err_loc, m + original_count);
    for (e, &w) in err_loc.iter_mut().zip(t.log_walsh.iter()) {
        *e = ((u32::from(*e) * u32::from(w)) % u32::from(MODULUS)) as u16;
    }
    fwht(&mut err_loc, ORDER);

    // Present shards scaled by the locator; erased positions zero.
    let mut work: Vec<Vec<u8>> = (0..n_fft).map(|_| pool.take_vec(shard_bytes)).collect();
    for (i, r) in recovery.iter().enumerate() {
        if let Some(shard) = r {
            simd::mul_into(&t, &mut work[i], shard, err_loc[i]);
        }
    }
    for (i, o) in original.iter().enumerate() {
        if let Some(shard) = o {
            simd::mul_into(&t, &mut work[m + i], shard, err_loc[m + i]);
        }
    }

    ifft(&t, &mut work, n_fft, m + original_count, 0);
    formal_derivative(&mut work, n_fft);
    fft(&t, &mut work, n_fft, n_fft, 0);

    // lint: allow(vec-capacity) — container of shard handles, one per decode; the shard bytes themselves are pooled.
    let mut out = Vec::with_capacity(original_count);
    for (i, o) in original.iter().enumerate() {
        match o {
            Some(shard) => out.push(pool.take_vec_copy(shard)),
            None => {
                let mut recovered = pool.take_vec(shard_bytes);
                simd::mul_into(&t, &mut recovered, &work[m + i], MODULUS - err_loc[m + i]);
                out.push(recovered);
            }
        }
    }
    for v in work {
        pool.recycle(v);
    }

    let mx = metrics();
    mx.decode_ns.record(started.elapsed().as_nanos() as u64);
    mx.decodes.inc();
    Ok(out)
}

#[cfg(all(test, not(nc_check)))]
mod tests {
    use super::*;

    fn segment(count: usize, bytes: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                (0..bytes)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect()
            })
            .collect()
    }

    fn roundtrip(original_count: usize, recovery_count: usize, erase: &[usize]) {
        let data = segment(original_count, 36, 0xF00D + original_count as u64);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let recovery = encode_segment(&refs, recovery_count).expect("encode");
        assert_eq!(recovery.len(), recovery_count);

        // Erase the listed originals; supply just enough recovery shards.
        let original: Vec<Option<&[u8]>> = (0..original_count)
            .map(|i| (!erase.contains(&i)).then(|| data[i].as_slice()))
            .collect();
        let available: Vec<Option<&[u8]>> = (0..recovery_count)
            .map(|i| (i < erase.len()).then(|| recovery[i].as_slice()))
            .collect();
        let decoded = decode_segment(&original, &available).expect("decode");
        assert_eq!(decoded, data, "n={original_count} r={recovery_count} erase={erase:?}");
    }

    #[test]
    fn roundtrips_across_shapes() {
        roundtrip(1, 1, &[0]);
        roundtrip(4, 4, &[1, 2]);
        roundtrip(8, 8, &[0, 1, 2, 3, 4, 5, 6, 7]); // all originals from parity
        roundtrip(5, 3, &[4, 0]); // non-power-of-two both ways
        roundtrip(13, 7, &[12, 3, 9]);
        roundtrip(70, 6, &[69, 0]); // multiple IFFT chunks (m=8 < n=70)
    }

    #[test]
    fn any_sufficient_recovery_subset_works() {
        let data = segment(6, 10, 42);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let recovery = encode_segment(&refs, 6).expect("encode");
        // Lose originals 1 and 4; use recovery shards 3 and 5 (not 0/1).
        let original: Vec<Option<&[u8]>> =
            (0..6).map(|i| (i != 1 && i != 4).then(|| data[i].as_slice())).collect();
        let available: Vec<Option<&[u8]>> =
            (0..6).map(|i| (i == 3 || i == 5).then(|| recovery[i].as_slice())).collect();
        assert_eq!(decode_segment(&original, &available).expect("decode"), data);
    }

    #[test]
    fn systematic_fast_path_copies_without_field_work() {
        let data = segment(3, 8, 7);
        let original: Vec<Option<&[u8]>> = data.iter().map(|s| Some(s.as_slice())).collect();
        let before = crate::metrics::metrics().systematic_fast_path.get();
        let decoded = decode_segment(&original, &[None, None, None]).expect("fast path");
        assert_eq!(decoded, data);
        assert_eq!(crate::metrics::metrics().systematic_fast_path.get(), before + 1);
    }

    #[test]
    fn insufficient_survivors_are_rank_deficient_not_garbage() {
        let data = segment(4, 8, 9);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let recovery = encode_segment(&refs, 2).expect("encode");
        let original: Vec<Option<&[u8]>> = vec![None, None, None, Some(data[3].as_slice())];
        let available: Vec<Option<&[u8]>> = vec![Some(recovery[0].as_slice()), None];
        assert!(matches!(
            decode_segment(&original, &available),
            Err(Error::RankDeficient { rank: 2, needed: 4 })
        ));
    }

    #[test]
    fn geometry_errors_are_clean() {
        assert!(encode_segment(&[], 1).is_err());
        assert!(encode_segment(&[&[1, 2, 3][..]], 1).is_err(), "odd shard length");
        assert!(encode_segment(&[&[1, 2][..]], 0).is_err());
        let mismatched: Vec<&[u8]> = vec![&[1, 2], &[1, 2, 3, 4]];
        assert!(matches!(
            encode_segment(&mismatched, 1),
            Err(Error::SizeMismatch { expected: 2, actual: 4 })
        ));
    }
}
