//! Frozen renderer golden: the frames the edge sizes its uploads from must
//! not drift.
//!
//! `tests/api_equivalence.rs` calls the live `render` on both sides of its
//! comparison, so it cannot see a renderer change. These checksums were
//! captured at the commit before the row-cached renderer landed (PR 12) and
//! are what every simulated byte count, virtual latency and deadline outcome
//! since the seed has been computed from.

use smallbig::imaging::{encoded_size_bytes, render};
use smallbig::prelude::*;

const SCENES: usize = 64;
const SEED: u64 = 12;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(checksum of the encoded sizes, checksum of the pixels)` over the first
/// [`SCENES`] scenes of `profile` rendered at `size`×`size`.
fn checksums(profile: &DatasetProfile, size: usize) -> (u64, u64) {
    let dataset = Dataset::generate("golden", profile, SCENES, SEED);
    let mut sizes = 0xcbf2_9ce4_8422_2325;
    let mut pixels = 0xcbf2_9ce4_8422_2325;
    for scene in dataset.iter() {
        let frame = render(&scene.render_spec(size, size));
        sizes = fnv1a(sizes, &(encoded_size_bytes(&frame) as u64).to_le_bytes());
        pixels = fnv1a(pixels, frame.as_bytes());
    }
    (sizes, pixels)
}

#[test]
fn rendered_frames_match_the_frozen_checksums() {
    // per profile: the checksums at 300x300, then at 96x96
    let golden = [
        (
            "voc",
            DatasetProfile::voc(),
            (0x0ff9_5a05_8d2a_d23e, 0x307a_4136_8ffc_c207),
            (0xf331_86ff_59d0_2008, 0x06de_ceca_e710_d994),
        ),
        (
            "coco18",
            DatasetProfile::coco18(),
            (0xb343_b1b2_9c43_0a06, 0x71e6_ea83_44ef_2535),
            (0xc49b_e742_a433_0019, 0x4757_7357_5718_877b),
        ),
        (
            "helmet",
            DatasetProfile::helmet(),
            (0x3083_912b_e59a_01af, 0x03b0_e538_88fa_d41c),
            (0x4c85_8579_a86b_c5b1, 0x323c_3d62_f501_7b0c),
        ),
    ];
    for (name, profile, at_300, at_96) in golden {
        for (size, expected) in [(300, at_300), (96, at_96)] {
            let got = checksums(&profile, size);
            assert_eq!(
                got, expected,
                "{name} at {size}x{size}: got ({:#018x}, {:#018x})",
                got.0, got.1
            );
        }
    }
}
