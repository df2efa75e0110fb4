//! Two-stage decoding: invert the coefficient matrix, then multiply.
//!
//! The paper's Sec. 5.2 observes that progressive Gauss-Jordan decoding
//! offers little parallelism (each block's elimination depends on the
//! previous ones), and proposes decomposing decoding into:
//!
//! 1. **Stage 1** — Gauss-Jordan elimination on the aggregate `[C | I]` to
//!    obtain `C⁻¹` (small, serial, cheap for large k);
//! 2. **Stage 2** — the recovery `b = C⁻¹ · x`, a matrix multiplication as
//!    embarrassingly parallel as encoding.
//!
//! This host-side implementation is the functional reference for the GPU
//! multi-segment decoder in `nc-gpu`, and is independently useful for
//! offline bulk decoding (the Avalanche scenario).

use crate::block::CodedBlock;
use crate::error::Error;
use crate::matrix::GfMatrix;
use crate::segment::CodingConfig;

/// Collects `n` coded blocks, then decodes them in one shot via
/// `[C | I]` inversion + matrix multiplication.
///
/// Unlike [`crate::Decoder`], which spends O(n·(n+k)) work *per block* as
/// blocks arrive, the two-stage decoder defers all work to [`decode`]
/// (`TwoStageDecoder::decode`). An incremental coefficient-only rank check
/// rejects dependent blocks on arrival so the buffer only ever holds
/// innovative blocks.
///
/// ```
/// use nc_rlnc::{CodingConfig, Encoder, Segment, TwoStageDecoder};
/// use rand::SeedableRng;
///
/// let config = CodingConfig::new(8, 16)?;
/// let data = vec![0x42u8; config.segment_bytes()];
/// let encoder = Encoder::new(Segment::from_bytes(config, data.clone())?);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
///
/// let mut decoder = TwoStageDecoder::new(config);
/// while !decoder.is_full() {
///     decoder.push(encoder.encode(&mut rng))?;
/// }
/// assert_eq!(decoder.decode()?, data);
/// # Ok::<(), nc_rlnc::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct TwoStageDecoder {
    config: CodingConfig,
    blocks: Vec<CodedBlock>,
    /// Row-reduced copy of the buffered coefficient vectors, used only to
    /// reject dependent blocks on arrival.
    rank_probe: GfMatrix,
    rank: usize,
}

impl TwoStageDecoder {
    /// Creates an empty two-stage decoder.
    pub fn new(config: CodingConfig) -> TwoStageDecoder {
        TwoStageDecoder {
            config,
            // lint: allow(vec-capacity) — per-segment container of blocks, built once per segment.
            blocks: Vec::with_capacity(config.blocks()),
            rank_probe: GfMatrix::zeros(config.blocks(), config.blocks()),
            rank: 0,
        }
    }

    /// The decoder's coding configuration.
    #[inline]
    pub fn config(&self) -> CodingConfig {
        self.config
    }

    /// Number of innovative blocks buffered so far.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether `n` innovative blocks have been buffered.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.rank == self.config.blocks()
    }

    /// Buffers one coded block; dependent blocks are rejected (returns
    /// `false`) without being stored.
    ///
    /// # Errors
    ///
    /// Propagates [`CodedBlock::check`] failures.
    pub fn push(&mut self, block: CodedBlock) -> Result<bool, Error> {
        block.check(self.config)?;
        if self.is_full() {
            return Ok(false);
        }
        // Incremental elimination of the coefficient vector alone — the
        // cheap O(n²) probe that lets us buffer only innovative blocks.
        let n = self.config.blocks();
        let mut probe = block.coefficients().to_vec();
        for r in 0..self.rank {
            let lead = self
                .rank_probe
                .row(r)
                .iter()
                .position(|&c| c != 0)
                .expect("probe rows are non-zero");
            let factor = probe[lead];
            if factor != 0 {
                let row = self.rank_probe.row(r).to_vec();
                nc_gf256::region::mul_add_assign(&mut probe, &row, factor);
            }
        }
        if probe.iter().all(|&c| c == 0) {
            return Ok(false);
        }
        // Normalize the probe row for cheap future eliminations.
        let lead_pos = probe.iter().position(|&c| c != 0).expect("non-zero");
        let inv = nc_gf256::scalar::inv(probe[lead_pos]);
        nc_gf256::region::mul_assign(&mut probe, inv);
        // Keep probe rows sorted by leading position (insertion sort step).
        let at = (0..self.rank)
            .find(|&r| {
                let other_lead =
                    self.rank_probe.row(r).iter().position(|&c| c != 0).expect("non-zero");
                other_lead > lead_pos
            })
            .unwrap_or(self.rank);
        // Shift rows down to make room at `at`.
        for r in (at..self.rank).rev() {
            let src = self.rank_probe.row(r).to_vec();
            self.rank_probe.row_mut(r + 1).copy_from_slice(&src);
        }
        self.rank_probe.row_mut(at)[..n].copy_from_slice(&probe);
        self.blocks.push(block);
        self.rank += 1;
        Ok(true)
    }

    /// Runs both stages and returns the decoded segment.
    ///
    /// # Errors
    ///
    /// [`Error::RankDeficient`] before `n` innovative blocks are buffered;
    /// [`Error::SingularMatrix`] cannot occur in practice because dependent
    /// blocks are rejected on arrival, but is propagated defensively.
    pub fn decode(&self) -> Result<Vec<u8>, Error> {
        let n = self.config.blocks();
        if !self.is_full() {
            return Err(Error::RankDeficient { rank: self.rank, needed: n });
        }
        let m = crate::metrics::metrics();
        // Stage 1: invert C.
        let stage1 = m.stage1_invert_ns.span();
        let coeff_rows: Vec<&[u8]> = self.blocks.iter().map(|b| b.coefficients()).collect();
        let c = GfMatrix::from_rows(&coeff_rows)?;
        let c_inv = c.invert()?;
        stage1.stop();
        // Stage 2: b = C⁻¹ · x.
        let stage2 = m.stage2_multiply_ns.span();
        let payload_rows: Vec<&[u8]> = self.blocks.iter().map(|b| b.payload()).collect();
        let x = GfMatrix::from_rows(&payload_rows)?;
        let b = c_inv.mul(&x)?;
        stage2.stop();
        Ok(b.as_flat().to_vec())
    }

    /// The buffered innovative blocks.
    pub fn blocks(&self) -> &[CodedBlock] {
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Decoder;
    use crate::encoder::Encoder;
    use crate::segment::Segment;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, k: usize, seed: u64) -> (Vec<u8>, Encoder, rand::rngs::StdRng) {
        let config = CodingConfig::new(n, k).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..config.segment_bytes()).map(|_| rng.gen()).collect();
        let encoder = Encoder::new(Segment::from_bytes(config, data.clone()).unwrap());
        (data, encoder, rng)
    }

    #[test]
    fn two_stage_recovers_segment() {
        let (data, encoder, mut rng) = setup(12, 48, 2);
        let mut decoder = TwoStageDecoder::new(encoder.config());
        while !decoder.is_full() {
            decoder.push(encoder.encode(&mut rng)).unwrap();
        }
        assert_eq!(decoder.decode().unwrap(), data);
    }

    #[test]
    fn two_stage_matches_progressive() {
        let (_, encoder, mut rng) = setup(10, 40, 8);
        let blocks: Vec<_> = (0..10).map(|_| encoder.encode(&mut rng)).collect();

        let mut progressive = Decoder::new(encoder.config());
        let mut two_stage = TwoStageDecoder::new(encoder.config());
        for b in &blocks {
            progressive.push(b.clone()).unwrap();
            two_stage.push(b.clone()).unwrap();
        }
        if progressive.is_complete() {
            assert_eq!(progressive.recover().unwrap(), two_stage.decode().unwrap());
        } else {
            assert!(!two_stage.is_full());
        }
    }

    #[test]
    fn dependent_blocks_are_rejected_on_arrival() {
        let (_, encoder, mut rng) = setup(6, 12, 13);
        let mut decoder = TwoStageDecoder::new(encoder.config());
        let b = encoder.encode(&mut rng);
        assert!(decoder.push(b.clone()).unwrap());
        assert!(!decoder.push(b).unwrap());
        assert_eq!(decoder.rank(), 1);
        assert_eq!(decoder.blocks().len(), 1);
    }

    #[test]
    fn decode_before_full_is_rank_deficient() {
        let (_, encoder, mut rng) = setup(6, 12, 14);
        let mut decoder = TwoStageDecoder::new(encoder.config());
        decoder.push(encoder.encode(&mut rng)).unwrap();
        assert!(matches!(decoder.decode(), Err(Error::RankDeficient { rank: 1, needed: 6 })));
    }

    #[test]
    fn extra_blocks_after_full_are_ignored() {
        let (data, encoder, mut rng) = setup(5, 10, 15);
        let mut decoder = TwoStageDecoder::new(encoder.config());
        while !decoder.is_full() {
            decoder.push(encoder.encode(&mut rng)).unwrap();
        }
        assert!(!decoder.push(encoder.encode(&mut rng)).unwrap());
        assert_eq!(decoder.decode().unwrap(), data);
    }
}
