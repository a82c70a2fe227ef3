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
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Normal};

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

/// Noise levels around every regime of the fast noise path: a draw that can
/// never reach a step (1e-9), the datasets' range (0.5, 3), a draw that
/// spans the whole pixel range (200), nearly every pixel saturated and so
/// clear of every step (1e6), and a guard wider than half a step, so nearly
/// every pixel takes the exact fallback (1e10).
const NOISE_SWEEP: [f64; 6] = [1e-9, 0.5, 3.0, 200.0, 1e6, 1e10];

fn arb_noise_std() -> impl Strategy<Value = f64> {
    let mut levels = vec![0.0, 0.0, 0.4, 6.0, 400.0];
    levels.extend(NOISE_SWEEP);
    prop::sample::select(levels)
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

/// Serves a fixed list of raw words, in order.
struct Words(std::vec::IntoIter<u64>);

impl RngCore for Words {
    fn next_u64(&mut self) -> u64 {
        self.0.next().expect("one pair of words per pixel")
    }
}

/// A `w`×`h` image of arbitrary pixels.
fn random_image(w: usize, h: usize, rng: &mut StdRng) -> GrayImage {
    GrayImage::from_pixels(w, h, (0..w * h).map(|_| rng.gen()).collect())
}

/// The two raw words Box–Muller turns into a value that lands on a rounding
/// step of pixel `p`: a random `u2` and a nominal radius pick the step
/// `k + ½` nearest a typical draw, and `u1` is solved for so that
/// `p + σ·√(−2 ln u1)·cos(2π·u2)` is as close to it as `u1`'s 2⁻⁵³ grid
/// allows. The bits below the grid are random.
fn draws_onto_a_step(p: u8, std_dev: f64, rng: &mut StdRng) -> [u64; 2] {
    const GRID: f64 = (1u64 << 53) as f64;
    let cosine = |word: u64| (std::f64::consts::TAU * ((word >> 11) as f64 / GRID)).cos();
    let mut u2_word = rng.next_u64();
    let typical = p as f64 + std_dev * rng.gen_range(0.1..4.0) * cosine(u2_word);
    let step = (typical - 0.5).round().clamp(0.0, 254.0) + 0.5;
    let offset = step - p as f64;
    if cosine(u2_word).signum() != offset.signum() {
        // `u2 + ½` (mod 1): the same cosine, negated
        u2_word ^= 1 << 63;
    }
    let r = offset / (std_dev * cosine(u2_word));
    let u1 = (-0.5 * r * r).exp();
    let grid_steps = ((u1 * GRID).round() as u64).clamp(1, (1 << 53) - 1);
    [grid_steps << 11 | rng.next_u64() & 0x7ff, u2_word]
}

/// Two raw words whose `u1` sits on a weak spot of the fast radius, and
/// whose `u2` is solved for so that `p + σ·√(−2 ln u1)·cos(2π·u2)` lands on
/// a rounding step wherever the radius reaches one (a random `u2`
/// elsewhere). The spots: `u1` within 2⁻¹⁴ of 1, where the radius is tiny
/// and its error absolute; around the `2⁻⁸` cutoff and below it, down to
/// the word 0 `rand_distr` clamps; all 22 of the bits the radius drops set;
/// just below `√½`, where its logarithm cancels most.
fn draws_at_radius_weak_spots(p: u8, std_dev: f64, rng: &mut StdRng) -> [u64; 2] {
    const ONE: u64 = 1 << 53;
    let scale = rng.gen_range(1..46);
    let u1_steps = match rng.gen_range(0..5) {
        0 => ONE - rng.gen_range(1..=1u64 << scale.min(39)),
        1 => (ONE >> 8) + rng.gen_range(0..1 << 21) - (1 << 20),
        2 => rng.gen_range(0..=(ONE >> 8) >> scale),
        3 => rng.gen_range(ONE >> 8..ONE) | 0x3f_ffff,
        _ => (ONE as f64 * std::f64::consts::FRAC_1_SQRT_2) as u64 - rng.gen_range(0..1 << 30),
    };
    let u1 = (u1_steps as f64 / ONE as f64).max(f64::MIN_POSITIVE);
    let reach = std_dev * (-2.0 * u1.ln()).sqrt();
    let typical = p as f64 + reach * rng.gen_range(-1.0..1.0);
    let step = (typical - 0.5).round().clamp(0.0, 254.0) + 0.5;
    let cosine = (step - p as f64) / reach;
    let u2_steps = if cosine.abs() <= 1.0 {
        let turn = cosine.acos() / std::f64::consts::TAU;
        let turn = if rng.gen() { turn } else { 1.0 - turn };
        ((turn * ONE as f64).round() as u64).min(ONE - 1)
    } else {
        rng.gen_range(0..ONE)
    };
    [
        u1_steps << 11 | rng.next_u64() & 0x7ff,
        u2_steps << 11 | rng.next_u64() & 0x7ff,
    ]
}

/// Fills a 64×64 image of arbitrary pixels with two words per pixel from
/// `aim` at every level of [`NOISE_SWEEP`]. At the levels from 0.5 to 200,
/// at least the fraction `landed` of the pixels must come within 1e-9 of a
/// rounding step in the exact draw; at every level the live noise must
/// equal the reference's on all of them.
fn noise_matches_reference_on_aimed_draws(
    aim: fn(u8, f64, &mut StdRng) -> [u64; 2],
    seed: u64,
    landed: f64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for std_dev in NOISE_SWEEP {
        let img = random_image(64, 64, &mut rng);
        let words: Vec<u64> = img
            .as_bytes()
            .iter()
            .flat_map(|&p| aim(p, std_dev, &mut rng))
            .collect();
        if (0.5..=200.0).contains(&std_dev) {
            // the solve really lands the exact values on their steps
            let normal = Normal::new(0.0, std_dev).unwrap();
            let mut draws = Words(words.clone().into_iter());
            let on_a_step = img
                .as_bytes()
                .iter()
                .filter(|&&p| {
                    let v = p as f64 + normal.sample(&mut draws);
                    (v - v.floor() - 0.5).abs() < 1e-9
                })
                .count();
            assert!(
                on_a_step as f64 >= img.len() as f64 * landed,
                "std {std_dev}: {on_a_step}"
            );
        }
        let live = add_gaussian_noise(&img, std_dev, &mut Words(words.clone().into_iter()));
        let expected = reference::add_gaussian_noise(&img, std_dev, &mut Words(words.into_iter()));
        let diverged = live
            .as_bytes()
            .iter()
            .zip(expected.as_bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diverged, 0, "std {std_dev}: {diverged} pixels differ");
    }
}

/// Random draws come within the fast path's guard of a step about once in
/// 10⁵ pixels; these draws are aimed at the steps, so every pixel the
/// solve can place there tests the exact fallback.
#[test]
fn add_gaussian_noise_matches_reference_on_draws_aimed_at_steps() {
    noise_matches_reference_on_aimed_draws(draws_onto_a_step, 0xad5e, 0.9);
}

/// The same, with `u1` on the fast radius's weak spots: near 1 a wrong
/// absolute term of its bound shows, below `2⁻⁸` a missing domain check.
#[test]
fn add_gaussian_noise_matches_reference_on_draws_aimed_at_radius_weak_spots() {
    noise_matches_reference_on_aimed_draws(draws_at_radius_weak_spots, 0x5107, 0.4);
}
