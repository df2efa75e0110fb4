//! Tier-1 smoke of `nc-fft`'s bit-exactness oracle: the additive-FFT
//! encoder's parity must equal a naive O(n²) Lagrange polynomial-evaluation
//! reference built from the scalar field ops alone ([`Tables::mul`] /
//! [`Tables::inv`]), and a seeded erasure pattern must decode back to the
//! original bytes.
//!
//! The construction is the LCH systematic Reed–Solomon code: with
//! `m = recovery_count.next_power_of_two()`, original shard `i` sits at
//! evaluation point `m + i`, zero-padded to whole chunks of `m`, and parity
//! shard `j` is the XOR over chunks of each chunk's degree-< m interpolant
//! evaluated at point `j`. Fixed seeds at a few non-power-of-two shapes keep
//! this fast; `nc-fft`'s own `fft_oracle` suite sweeps random shapes.

use extreme_nc::fft::{decode_segment, encode_segment, tables, Tables};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Shard counts (one chunk, a partial chunk, several chunks) and recovery
/// counts (m = 1, a non-power-of-two, a power of two).
const SHAPES_N: [usize; 3] = [1, 5, 13];
const SHAPES_R: [usize; 3] = [1, 3, 8];

/// Symbol `i` of a shard in the split lo/hi byte-plane layout.
fn symbol(shard: &[u8], i: usize) -> u16 {
    let half = shard.len() / 2;
    u16::from(shard[i]) | (u16::from(shard[i + half]) << 8)
}

/// Lagrange evaluation at `y` (none of the `xs`) of the polynomial through
/// `(xs[k], vs[k])`.
fn lagrange_eval(t: &Tables, xs: &[u16], vs: &[u16], y: u16) -> u16 {
    let numerator = xs.iter().fold(1u16, |acc, &x| t.mul(acc, y ^ x));
    let mut acc = 0u16;
    for (i, (&xi, &vi)) in xs.iter().zip(vs).enumerate() {
        let denominator = xs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .fold(y ^ xi, |d, (_, &xj)| t.mul(d, xi ^ xj));
        acc ^= t.mul(vi, t.mul(numerator, t.inv(denominator)));
    }
    acc
}

/// Parity symbols by the naive definition of the systematic code.
fn reference_parity(t: &Tables, original: &[Vec<u8>], recovery_count: usize) -> Vec<Vec<u16>> {
    let m = recovery_count.next_power_of_two();
    let columns = original[0].len() / 2;
    let mut parity = vec![vec![0u16; columns]; recovery_count];
    for c in 0..original.len().div_ceil(m) {
        let xs: Vec<u16> = (0..m).map(|k| (m + c * m + k) as u16).collect();
        for col in 0..columns {
            let vs: Vec<u16> =
                (0..m).map(|k| original.get(c * m + k).map_or(0, |s| symbol(s, col))).collect();
            for (j, row) in parity.iter_mut().enumerate() {
                row[col] ^= lagrange_eval(t, &xs, &vs, j as u16);
            }
        }
    }
    parity
}

fn random_segment(n: usize, shard_bytes: usize, rng: &mut impl Rng) -> Vec<Vec<u8>> {
    (0..n).map(|_| (0..shard_bytes).map(|_| rng.gen()).collect()).collect()
}

#[test]
fn encode_matches_the_lagrange_oracle_at_fixed_shapes() {
    for (seed, (n, recovery)) in
        SHAPES_N.iter().flat_map(|&n| SHAPES_R.iter().map(move |&r| (n, r))).enumerate()
    {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
        let data = random_segment(n, 6, &mut rng);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let encoded = encode_segment(&refs, recovery).expect("valid geometry");
        let expected = reference_parity(&tables(), &data, recovery);
        assert_eq!(encoded.len(), recovery);
        for (j, (shard, symbols)) in encoded.iter().zip(&expected).enumerate() {
            let got: Vec<u16> = (0..symbols.len()).map(|col| symbol(shard, col)).collect();
            assert_eq!(&got, symbols, "parity {j} diverges (n={n}, r={recovery})");
        }
    }
}

#[test]
fn seeded_erasures_recover_bit_exactly() {
    let (n, recovery) = (13, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFF7);
    let data = random_segment(n, 16, &mut rng);
    let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
    let encoded = encode_segment(&refs, recovery).expect("valid geometry");

    // Erase five seeded originals, and keep a shuffled subset
    // of the recovery shards exactly large enough.
    let erased = 5;
    let mut original_idx: Vec<usize> = (0..n).collect();
    original_idx.shuffle(&mut rng);
    let lost = &original_idx[..erased];
    let mut recovery_idx: Vec<usize> = (0..recovery).collect();
    recovery_idx.shuffle(&mut rng);
    let kept = &recovery_idx[..erased];

    let original: Vec<Option<&[u8]>> =
        (0..n).map(|i| (!lost.contains(&i)).then(|| data[i].as_slice())).collect();
    let available: Vec<Option<&[u8]>> =
        (0..recovery).map(|i| kept.contains(&i).then(|| encoded[i].as_slice())).collect();
    let decoded = decode_segment(&original, &available).expect("enough survivors");
    assert_eq!(decoded, data, "lost={lost:?} kept={kept:?}");

    // One recovery shard short of the erasures must fail cleanly.
    let mut short = available.clone();
    short[kept[0]] = None;
    assert!(decode_segment(&original, &short).is_err());
}
