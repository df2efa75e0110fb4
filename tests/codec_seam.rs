//! Every registered codec through the `ErasureCodec` seam, as the transport
//! drives it: sender from `make_sender`, receiver from the registry, frames
//! through a seeded lossy link, bit-exact recovery — plus the guarantees
//! that keep negotiated codecs apart: a receiver rejects another codec's
//! frames and keeps going, and the retired codec byte stays unknown.

use extreme_nc::net::{codec_for, make_sender, CodecId};
use extreme_nc::rlnc::codec::{StreamCodecReceiver, StreamCodecSender};
use extreme_nc::rlnc::CodingConfig;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const CODECS: [CodecId; 2] = [CodecId::DenseRlnc, CodecId::Fft16];

/// Three 1 KiB segments, the last one short.
fn payload() -> Vec<u8> {
    (0..2 * 1024 + 300).map(|i: usize| (i.wrapping_mul(2654435761) >> 7) as u8).collect()
}

fn coding() -> CodingConfig {
    CodingConfig::new(16, 64).expect("valid shape")
}

fn sender(id: CodecId, data: &[u8]) -> Arc<dyn StreamCodecSender> {
    make_sender(id, coding(), data).expect("valid stream")
}

fn receiver(sender: &dyn StreamCodecSender) -> Box<dyn StreamCodecReceiver> {
    codec_for(sender.codec())
        .make_receiver(sender.coding_config(), sender.total_segments(), sender.original_len())
        .expect("announced shape is valid")
}

/// Sends frames round-robin over the segments through a link that drops
/// 30% of them (seeded), until the receiver completes. Every fifth
/// delivered frame is preceded by `foreign`, which must be rejected.
fn deliver(
    sender: &dyn StreamCodecSender,
    receiver: &mut dyn StreamCodecReceiver,
    seed: u64,
    foreign: Option<&[u8]>,
) -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seq = vec![0u64; sender.total_segments()];
    let mut delivered = 0usize;
    let mut sent = 0usize;
    while !receiver.is_complete() {
        for (segment, seq) in seq.iter_mut().enumerate() {
            let wire = sender.frame_wire(segment, *seq, &mut rng);
            *seq += 1;
            sent += 1;
            if rng.gen_bool(0.3) {
                continue;
            }
            if let Some(frame) = foreign.filter(|_| delivered.is_multiple_of(5)) {
                let before = receiver.segments_complete();
                assert!(
                    receiver.absorb(frame).is_err(),
                    "{:?} accepted a foreign frame",
                    sender.codec()
                );
                assert_eq!(receiver.segments_complete(), before);
            }
            delivered += 1;
            receiver.absorb(&wire).expect("own codec's frame parses");
        }
        assert!(sent < 1000, "{:?} failed to converge", sender.codec());
    }
    receiver.recover().expect("complete receiver recovers")
}

#[test]
fn every_codec_recovers_bit_exact_through_30pct_drop() {
    let data = payload();
    for (seed, id) in CODECS.into_iter().enumerate() {
        let sender = sender(id, &data);
        assert_eq!(sender.codec(), id);
        assert_eq!(sender.total_segments(), 3);
        let mut receiver = receiver(&*sender);
        assert_eq!(receiver.codec(), id);
        assert_eq!(deliver(&*sender, &mut *receiver, 30 + seed as u64, None), data, "{id:?}");
    }
}

#[test]
fn a_receiver_rejects_the_other_codecs_frames_and_still_completes() {
    let data = payload();
    for (own, other) in [(CodecId::DenseRlnc, CodecId::Fft16), (CodecId::Fft16, CodecId::DenseRlnc)]
    {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let foreign = sender(other, &data).frame_wire(0, 0, &mut rng);
        let sender = sender(own, &data);
        let mut receiver = receiver(&*sender);
        let recovered = deliver(&*sender, &mut *receiver, 40, Some(&foreign));
        assert_eq!(recovered, data, "{own:?} receiver fed {other:?} frames");
    }
}

#[test]
fn the_retired_codec_byte_stays_unknown() {
    assert_eq!(CodecId::from_wire(2), None);
    for id in CODECS {
        assert_ne!(id.to_wire(), 2);
        assert_eq!(CodecId::from_wire(id.to_wire()), Some(id));
    }
}
