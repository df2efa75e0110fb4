//! Progressive Gauss-Jordan decoding.

use crate::block::CodedBlock;
use crate::error::Error;
use crate::segment::CodingConfig;
use crate::stats::DecodeStats;
use nc_gf256::{region, scalar};

/// A progressive network decoder based on Gauss-Jordan elimination to
/// reduced row-echelon form (the paper's Sec. 3).
///
/// Each arriving coded block is reduced against the rows accumulated so
/// far. A linearly dependent block reduces to an all-zero row and is
/// discarded — no explicit dependence check is ever needed. Once the
/// coefficient part is the identity, the payload part *is* the decoded
/// segment, with no back-substitution pass.
///
/// ```
/// use nc_rlnc::{CodingConfig, Decoder, Encoder, Segment};
/// use rand::SeedableRng;
///
/// let config = CodingConfig::new(8, 32)?;
/// let data: Vec<u8> = (0..config.segment_bytes() as u32).map(|i| i as u8).collect();
/// let encoder = Encoder::new(Segment::from_bytes(config, data.clone())?);
/// let mut decoder = Decoder::new(config);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(99);
/// while !decoder.is_complete() {
///     decoder.push(encoder.encode(&mut rng))?;
/// }
/// assert_eq!(decoder.recover().unwrap(), data);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Decoder {
    config: CodingConfig,
    /// Decoding rows: `n + k` bytes each, coefficient part first.
    rows: Vec<Vec<u8>>,
    /// `pivots[i]` is the pivot column of `rows[i]`; rows are kept sorted by
    /// pivot column.
    pivots: Vec<usize>,
    stats: DecodeStats,
}

impl Decoder {
    /// Creates an empty decoder for one `(n, k)` generation.
    pub fn new(config: CodingConfig) -> Decoder {
        Decoder {
            config,
            // lint: allow(vec-capacity) — per-decoder row/pivot tables, built once per generation.
            rows: Vec::with_capacity(config.blocks()),
            // lint: allow(vec-capacity) — see above.
            pivots: Vec::with_capacity(config.blocks()),
            stats: DecodeStats::default(),
        }
    }

    /// The decoder's coding configuration.
    #[inline]
    pub fn config(&self) -> CodingConfig {
        self.config
    }

    /// Current rank: number of linearly independent blocks absorbed.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Whether `n` independent blocks have been absorbed.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.rank() == self.config.blocks()
    }

    /// Lifetime statistics.
    #[inline]
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Absorbs one coded block. Returns `true` if the block was innovative
    /// (increased the rank), `false` if it was linearly dependent and
    /// discarded.
    ///
    /// # Errors
    ///
    /// Propagates [`CodedBlock::check`] failures for blocks whose shape does
    /// not match this generation.
    pub fn push(&mut self, block: CodedBlock) -> Result<bool, Error> {
        block.check(self.config)?;
        self.stats.received += 1;
        crate::metrics::metrics().blocks_received.inc();
        let n = self.config.blocks();
        let width = n + self.config.block_size();

        let (coeffs, payload) = block.into_parts();
        // lint: allow(vec-capacity) — becomes a long-lived RREF row owned until decode completes.
        let mut row = Vec::with_capacity(width);
        row.extend_from_slice(&coeffs);
        row.extend_from_slice(&payload);
        // The block's storage is fully copied into the RREF row; hand
        // both vectors back to the arena so the encoder side (or the next
        // received datagram's parse) reuses them.
        nc_pool::BlockArena::global().recycle_block(coeffs, payload);

        // Forward-reduce the incoming row against all existing pivots.
        for (i, &pivot_col) in self.pivots.iter().enumerate() {
            let factor = row[pivot_col];
            if factor != 0 {
                region::mul_add_assign(&mut row, &self.rows[i], factor);
                self.stats.row_ops += 1;
                self.stats.gf_multiplications += width as u64;
            }
        }

        // Locate this row's pivot; an all-zero coefficient part means the
        // block was linearly dependent.
        let Some(pivot_col) = row[..n].iter().position(|&c| c != 0) else {
            self.stats.discarded_dependent += 1;
            crate::metrics::metrics().blocks_dependent.inc();
            return Ok(false);
        };

        // Normalize so the leading coefficient is 1.
        let lead = row[pivot_col];
        if lead != 1 {
            region::mul_assign(&mut row, scalar::inv(lead));
            self.stats.row_ops += 1;
            self.stats.gf_multiplications += width as u64;
        }

        // Jordan step: eliminate the new pivot column from existing rows so
        // the coefficient part stays in reduced row-echelon form.
        for (i, existing) in self.rows.iter_mut().enumerate() {
            let _ = i;
            let factor = existing[pivot_col];
            if factor != 0 {
                region::mul_add_assign(existing, &row, factor);
                self.stats.row_ops += 1;
                self.stats.gf_multiplications += width as u64;
            }
        }

        // Keep rows ordered by pivot column for O(1) recovery.
        let insert_at = self.pivots.partition_point(|&p| p < pivot_col);
        self.pivots.insert(insert_at, pivot_col);
        self.rows.insert(insert_at, row);
        self.stats.innovative += 1;
        crate::metrics::metrics().blocks_innovative.inc();
        Ok(true)
    }

    /// Returns the decoded segment once complete, or `None` while rank < n.
    pub fn recover(&self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let n = self.config.blocks();
        // lint: allow(vec-capacity) — recovery output that escapes to the caller; no recycle edge.
        let mut out = Vec::with_capacity(self.config.segment_bytes());
        for row in &self.rows {
            out.extend_from_slice(&row[n..]);
        }
        Some(out)
    }

    /// Returns the decoded segment, with a descriptive error while
    /// incomplete.
    ///
    /// # Errors
    ///
    /// [`Error::RankDeficient`] if fewer than `n` independent blocks have
    /// been absorbed.
    pub fn try_recover(&self) -> Result<Vec<u8>, Error> {
        self.recover()
            .ok_or(Error::RankDeficient { rank: self.rank(), needed: self.config.blocks() })
    }

    /// The partially decoded source blocks currently available: block `i`
    /// is returned once its pivot row has been fully reduced to the unit
    /// vector `e_i` (useful for streaming playback of early blocks).
    pub fn decoded_blocks(&self) -> Vec<(usize, &[u8])> {
        let n = self.config.blocks();
        self.rows
            .iter()
            .zip(&self.pivots)
            .filter(|(row, p)| {
                let p = **p;
                row[..n].iter().enumerate().all(|(c, &v)| if c == p { v == 1 } else { v == 0 })
            })
            .map(|(row, &p)| (p, &row[n..]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::segment::Segment;
    use rand::{Rng, SeedableRng};

    fn make(n: usize, k: usize, seed: u64) -> (Vec<u8>, Encoder, rand::rngs::StdRng) {
        let config = CodingConfig::new(n, k).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());
        (data, encoder, rng)
    }

    #[test]
    fn decodes_random_generation() {
        let (data, encoder, mut rng) = make(16, 128, 42);
        let mut decoder = Decoder::new(encoder.config());
        while !decoder.is_complete() {
            decoder.push(encoder.encode(&mut rng)).unwrap();
        }
        assert_eq!(decoder.recover().unwrap(), data);
        // Dense random coding needs very few extra blocks.
        assert!(decoder.stats().received <= 16 + 3);
    }

    #[test]
    fn decodes_from_systematic_blocks() {
        let (data, encoder, _) = make(8, 32, 7);
        let mut decoder = Decoder::new(encoder.config());
        for i in 0..8 {
            assert!(decoder.push(encoder.systematic(i)).unwrap());
        }
        assert_eq!(decoder.recover().unwrap(), data);
    }

    #[test]
    fn dependent_blocks_are_discarded() {
        let (_, encoder, mut rng) = make(4, 16, 3);
        let mut decoder = Decoder::new(encoder.config());
        let block = encoder.encode(&mut rng);
        assert!(decoder.push(block.clone()).unwrap());
        // The very same block again is linearly dependent.
        assert!(!decoder.push(block).unwrap());
        assert_eq!(decoder.stats().discarded_dependent, 1);
        assert_eq!(decoder.rank(), 1);
    }

    #[test]
    fn zero_block_is_rejected_as_dependent() {
        let config = CodingConfig::new(4, 8).unwrap();
        let mut decoder = Decoder::new(config);
        let zero = CodedBlock::new(vec![0; 4], vec![0; 8]);
        assert!(!decoder.push(zero).unwrap());
        assert_eq!(decoder.rank(), 0);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let config = CodingConfig::new(4, 8).unwrap();
        let mut decoder = Decoder::new(config);
        let bad = CodedBlock::new(vec![1; 5], vec![0; 8]);
        assert!(decoder.push(bad).is_err());
    }

    #[test]
    fn try_recover_reports_rank() {
        let (_, encoder, mut rng) = make(4, 8, 9);
        let mut decoder = Decoder::new(encoder.config());
        decoder.push(encoder.encode(&mut rng)).unwrap();
        match decoder.try_recover() {
            Err(Error::RankDeficient { rank: 1, needed: 4 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recovery_is_coefficient_order_independent() {
        // Feed blocks in a shuffled order; RREF ordering fixes everything.
        let (data, encoder, mut rng) = make(12, 24, 11);
        let blocks: Vec<_> = (0..12).map(|i| encoder.systematic(i)).collect();
        let mut order: Vec<usize> = (0..12).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut decoder = Decoder::new(encoder.config());
        for &i in &order {
            decoder.push(blocks[i].clone()).unwrap();
        }
        assert_eq!(decoder.recover().unwrap(), data);
    }

    #[test]
    fn decoded_blocks_appear_progressively() {
        let (data, encoder, _) = make(4, 8, 5);
        let mut decoder = Decoder::new(encoder.config());
        decoder.push(encoder.systematic(2)).unwrap();
        let partial = decoder.decoded_blocks();
        assert_eq!(partial.len(), 1);
        assert_eq!(partial[0].0, 2);
        assert_eq!(partial[0].1, &data[16..24]);
    }

    #[test]
    fn stats_track_complexity() {
        let (_, encoder, mut rng) = make(8, 64, 1);
        let mut decoder = Decoder::new(encoder.config());
        while !decoder.is_complete() {
            decoder.push(encoder.encode(&mut rng)).unwrap();
        }
        let s = decoder.stats();
        assert_eq!(s.innovative, 8);
        // Gauss-Jordan is Θ(n²) row operations of length n + k.
        assert!(s.row_ops >= 8 * 8 / 2 && s.row_ops <= 3 * 8 * 8);
        assert_eq!(s.gf_multiplications, s.row_ops as u64 * (8 + 64) as u64);
    }
}
