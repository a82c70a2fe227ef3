//! `imaging`'s renderer and filters against the per-pixel reference they
//! replaced: same bytes for every input, not just the sizes the system uses.

mod reference;

use detcore::BBox;
use imaging::{
    add_gaussian_noise, gaussian_blur, render, scale_illumination, GrayImage, ObjectRenderSpec,
    RenderSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Half the draws from `edge_cases`, half from `free`.
fn edge_or_free<T: Clone>(
    edge_cases: Vec<T>,
    free: impl Strategy<Value = T>,
) -> impl Strategy<Value = T> {
    (any::<bool>(), prop::sample::select(edge_cases), free).prop_map(|(edge, fixed, free)| {
        if edge {
            fixed
        } else {
            free
        }
    })
}

/// Frame sizes: any small rectangle, or one of the shapes that sit on an edge
/// of the kernels — a single pixel, single rows and columns, strips narrower
/// than the blur radius, more than one coarse lattice cell (24 px) each way.
fn arb_size() -> impl Strategy<Value = (usize, usize)> {
    let edge_cases = vec![
        (1, 1),
        (1, 17),
        (17, 1),
        (2, 2),
        (8, 8),
        (37, 5),
        (3, 200),
        (96, 96),
    ];
    edge_or_free(edge_cases, (1usize..=48, 1usize..=48))
}

/// Blur sigmas: off, a kernel that is a single non-zero tap, radius 1, the
/// datasets' range, and the widest the profiles produce.
fn arb_sigma() -> impl Strategy<Value = f64> {
    edge_or_free(vec![0.0, 1e-9, 0.2, 0.8, 4.0], 0.0f64..4.0)
}

/// Gains around the `|gain - 1| > EPSILON` switch in `render`, and the
/// saturating ends.
fn arb_gain() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![
        0.0,
        1.0,
        1.0 + f64::EPSILON,
        1.0 - f64::EPSILON / 2.0,
        1.0 + 2.0 * f64::EPSILON,
        1.0 - 2.0 * f64::EPSILON,
        0.35,
        0.999,
        1.7,
        300.0,
    ])
}

fn arb_noise_std() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.0, 0.0, 0.4, 6.0, 400.0])
}

/// Object boxes: arbitrary (so they overlap and overdraw), reaching outside
/// the unit square, zero-area, sub-pixel, and the whole frame.
fn arb_object() -> impl Strategy<Value = ObjectRenderSpec> {
    let free = (-0.2f64..1.2, -0.2f64..1.2, -0.2f64..1.2, -0.2f64..1.2)
        .prop_map(|(x0, y0, x1, y1)| BBox::from_corners(x0, y0, x1, y1));
    let edge_cases = vec![
        BBox::unit(),
        BBox::from_corners(0.5, 0.5, 0.5, 0.5),
        BBox::from_corners(0.3, 0.1, 0.3, 0.9),
        BBox::from_corners(0.501, 0.501, 0.502, 0.502),
        BBox::from_corners(1.0, 1.0, 1.0, 1.0),
        BBox::from_corners(0.0, 0.0, 1.0, 0.04),
    ];
    (edge_or_free(edge_cases, free), any::<u64>(), any::<u8>()).prop_map(
        |(bbox, texture_seed, base_intensity)| ObjectRenderSpec {
            bbox,
            texture_seed,
            base_intensity,
        },
    )
}

fn arb_spec() -> impl Strategy<Value = RenderSpec> {
    (
        arb_size(),
        any::<u64>(),
        prop::collection::vec(arb_object(), 0..6),
        arb_sigma(),
        (arb_gain(), arb_noise_std()),
    )
        .prop_map(
            |((width, height), seed, objects, blur_sigma, (illumination, noise_std))| RenderSpec {
                width,
                height,
                background_seed: seed,
                objects,
                blur_sigma,
                noise_std,
                illumination,
                noise_seed: seed.rotate_left(17),
            },
        )
}

fn arb_image() -> impl Strategy<Value = GrayImage> {
    (arb_size(), any::<u64>(), any::<bool>()).prop_map(|((w, h), seed, extremes)| {
        let mut s = seed | 1;
        let pixels = (0..w * h)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // `extremes`: only 0 and 255, the hardest case for the
                // blur's rounding and the noise's saturation
                if extremes {
                    ((s >> 40) as u8 & 1) * 255
                } else {
                    (s >> 33) as u8
                }
            })
            .collect();
        GrayImage::from_pixels(w, h, pixels)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn render_matches_reference(spec in arb_spec()) {
        prop_assert!(
            render(&spec) == reference::render(&spec),
            "render drifted from the reference on {:?}",
            spec
        );
    }

    #[test]
    fn gaussian_blur_matches_reference(img in arb_image(), sigma in arb_sigma()) {
        prop_assert!(
            gaussian_blur(&img, sigma) == reference::gaussian_blur(&img, sigma),
            "{}x{} sigma {}",
            img.width(),
            img.height(),
            sigma
        );
    }

    #[test]
    fn scale_illumination_matches_reference(img in arb_image(), gain in arb_gain()) {
        prop_assert!(
            scale_illumination(&img, gain) == reference::scale_illumination(&img, gain),
            "{}x{} gain {}",
            img.width(),
            img.height(),
            gain
        );
    }

    #[test]
    fn add_gaussian_noise_matches_reference(
        img in arb_image(),
        std_dev in arb_noise_std(),
        seed in any::<u64>(),
    ) {
        let mut live_rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        prop_assert!(
            add_gaussian_noise(&img, std_dev, &mut live_rng)
                == reference::add_gaussian_noise(&img, std_dev, &mut reference_rng),
            "{}x{} std {}",
            img.width(),
            img.height(),
            std_dev
        );
        // and both left the generator in the same place
        prop_assert_eq!(live_rng, reference_rng);
    }
}
