//! Image filters: Gaussian blur and sensor noise.

use crate::GrayImage;
use rand::{Rng, RngCore};
use rand_distr::{Distribution, Normal};

/// Builds a normalised 1-D Gaussian kernel for the given sigma.
///
/// The radius is `ceil(3 sigma)`, covering > 99.7 % of the mass.
///
/// # Panics
///
/// Panics if `sigma <= 0` or is not finite.
pub fn gaussian_kernel(sigma: f64) -> Vec<f64> {
    assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as i64;
    let mut kernel = Vec::with_capacity((2 * radius + 1) as usize);
    let denom = 2.0 * sigma * sigma;
    for i in -radius..=radius {
        kernel.push((-(i * i) as f64 / denom).exp());
    }
    let sum: f64 = kernel.iter().sum();
    for k in &mut kernel {
        *k /= sum;
    }
    kernel
}

/// Quantises an intensity to a pixel: `v.round().clamp(0.0, 255.0) as u8`
/// without the call into libm that `round` is on a baseline x86-64 target.
///
/// Rounding is monotone and fixes 0 and 255, so clamping first gives the
/// same pixel; inside `[0, 255]` the truncation and the fractional part are
/// exact, and round-half-away-from-zero is "one more when the fraction
/// reaches a half". NaN stays NaN through the clamp and casts to 0 both ways.
#[inline]
pub(crate) fn to_pixel(v: f64) -> u8 {
    let c = v.clamp(0.0, 255.0);
    let floor = c as u8;
    floor + (c - floor as f64 >= 0.5) as u8
}

/// `acc[i] += k * src[i]`: one kernel tap applied to a whole row.
#[inline]
fn add_tap(acc: &mut [f64], k: f64, src: &[f64]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += k * s;
    }
}

/// Separable Gaussian blur of `img` in place; see [`gaussian_blur`].
///
/// Every output pixel accumulates `k * src` from zero in kernel order on
/// both passes, so the result does not depend on how the loops are nested.
/// Here the taps are the outer loop and `x` the inner one: the horizontal
/// pass reads a clamp-padded copy of the row, so no tap needs a clamp, and
/// its output lives only in a ring of `2r + 1` rows — exactly the rows the
/// vertical pass of one output row reads. Output row `y` overwrites source
/// row `y` after the horizontal pass has consumed it.
pub(crate) fn blur_in_place(img: &mut GrayImage, sigma: f64) {
    assert!(
        sigma.is_finite() && sigma >= 0.0,
        "sigma must be non-negative"
    );
    if sigma == 0.0 {
        return;
    }
    let kernel = gaussian_kernel(sigma);
    let (taps, radius) = (kernel.len(), kernel.len() / 2);
    let (w, h) = (img.width(), img.height());
    let pixels = img.as_bytes_mut();
    // Horizontal-pass row `y` is kept in ring slot `y % taps`.
    let mut ring = vec![0.0; taps * w];
    let mut padded = vec![0.0; w + 2 * radius];
    let mut acc = vec![0.0; w];
    let mut filtered = 0;
    for y in 0..h {
        while filtered <= (y + radius).min(h - 1) {
            let src = &pixels[filtered * w..][..w];
            padded[..radius].fill(src[0] as f64);
            for (d, &s) in padded[radius..].iter_mut().zip(src) {
                *d = s as f64;
            }
            padded[radius + w..].fill(src[w - 1] as f64);
            let out = &mut ring[(filtered % taps) * w..][..w];
            out.fill(0.0);
            for (ki, &k) in kernel.iter().enumerate() {
                add_tap(out, k, &padded[ki..ki + w]);
            }
            filtered += 1;
        }
        acc.fill(0.0);
        for (ki, &k) in kernel.iter().enumerate() {
            // clamp-to-edge boundary
            let sy = (y + ki).saturating_sub(radius).min(h - 1);
            add_tap(&mut acc, k, &ring[(sy % taps) * w..][..w]);
        }
        for (p, &v) in pixels[y * w..][..w].iter_mut().zip(&acc) {
            *p = to_pixel(v);
        }
    }
}

/// Applies separable Gaussian blur with the given sigma (in pixels).
///
/// Uses clamp-to-edge boundary handling. `sigma == 0` returns a copy.
///
/// # Examples
///
/// ```
/// use imaging::{gaussian_blur, GrayImage};
///
/// let mut img = GrayImage::new(32, 32);
/// img.set(16, 16, 255);
/// let blurred = gaussian_blur(&img, 2.0);
/// assert!(blurred.get(16, 16) < 255); // energy spread out
/// assert!(blurred.get(17, 16) > 0);
/// ```
///
/// # Panics
///
/// Panics if `sigma` is negative or not finite.
pub fn gaussian_blur(img: &GrayImage, sigma: f64) -> GrayImage {
    let mut out = img.clone();
    blur_in_place(&mut out, sigma);
    out
}

/// Largest `|cos_turns(u) - cos(2π·u)|` over `[0, 1)`: the first Taylor term
/// the polynomial leaves out, `(π/2)¹⁶ / 16!` ≈ 6.56e-11, plus its roundings.
const COS_TURNS_MAX_ERR: f64 = 6.6e-11;

/// The fast noise path's margin to a rounding step is `σ·r·GUARD_REL +
/// GUARD_ABS`: at least 100× what [`COS_TURNS_MAX_ERR`] moves `σ·r·cos`, and
/// far above the few ulps the roundings of `p + σ·(r·c)` add near a step.
const GUARD_REL: f64 = 1e-8;
const GUARD_ABS: f64 = 1e-9;
const _: () = assert!(GUARD_REL >= 100.0 * COS_TURNS_MAX_ERR);

/// Pixels whose draws are taken from the generator in one go.
const NOISE_CHUNK: usize = 64;

/// `cos(2π·u)` for `u` in `[0, 1)`, within [`COS_TURNS_MAX_ERR`], without a
/// call into libm (`cos` and `floor` both are one on a baseline x86-64
/// target) and without a branch, so a loop of it vectorises.
///
/// `4u` is exact, so are its truncation (the quadrant) and the fraction `f`
/// of a quarter turn left over; odd quadrants fold onto the cosine through
/// `sin θ = cos(π/2 − θ)`, and `1 − f` is exact too. What remains is
/// `cos(t)` for `t` in `[0, π/2]`: its Taylor polynomial to `t¹⁴`.
#[inline]
fn cos_turns(u: f64) -> f64 {
    let q = 4.0 * u;
    let quadrant = q as i32 & 3;
    let f = q - quadrant as f64;
    // `1 − f` in odd quadrants: `f + (1 − 2f)` is exact
    let f = f + (quadrant & 1) as f64 * (1.0 - 2.0 * f);
    let t = f * std::f64::consts::FRAC_PI_2;
    let s = t * t;
    let c = 1.0
        + s * (-1.0 / 2.0
            + s * (1.0 / 24.0
                + s * (-1.0 / 720.0
                    + s * (1.0 / 40_320.0
                        + s * (-1.0 / 3_628_800.0
                            + s * (1.0 / 479_001_600.0 + s * (-1.0 / 87_178_291_200.0)))))));
    // negative in quadrants 1 and 2
    (1 - 2 * ((quadrant + 1) >> 1 & 1)) as f64 * c
}

/// [`to_pixel`]`(v)`, or `None` when `v` lies within `guard` of one of its
/// steps.
///
/// The steps of `to_pixel` are the half-integers inside `[0, 255]`, and
/// clamping moves no two values farther apart, so any value within `guard`
/// of `v` quantises to the same pixel when the clamped `v` is farther than
/// `guard` from its nearest half-integer. NaN never clears the guard.
#[inline]
fn to_pixel_clear_of_step(v: f64, guard: f64) -> Option<u8> {
    let c = v.clamp(0.0, 255.0);
    let floor = c as u8;
    let frac = c - floor as f64;
    ((frac - 0.5).abs() > guard).then_some(floor + (frac >= 0.5) as u8)
}

/// Serves a pixel's raw draws again, in order.
struct Replay<'a>(&'a [u64]);

impl RngCore for Replay<'_> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let (&word, rest) = self.0.split_first().expect("a noise draw is two words");
        self.0 = rest;
        word
    }
}

/// Sensor noise on `img` in place; see [`add_gaussian_noise`]. One draw per
/// pixel, row-major: the bytes and the generator's final state are those of
/// `to_pixel(p + Normal::new(0.0, std_dev).sample(rng))` on every pixel.
///
/// That Box–Muller draw is `σ·(r·cos(2π·u2))` with `r = √(−2 ln u1)`. Here
/// `r` is computed exactly as `rand_distr` does and the cosine by
/// [`cos_turns`], whose error is at most [`COS_TURNS_MAX_ERR`]. A pixel is a
/// step function of its value with steps only at `k + ½`, so the approximate
/// value gives the same byte wherever it lies farther than the guard
/// `σ·r·1e-8 + 1e-9` from every step: the guard is at least 100× the error
/// bound (libm's own `cos` of the rounded `2π·u2` is within ~1e-15 of the
/// true cosine), and saturated pixels are clear of every step. A value inside the
/// guard (random draws land there about once in 10⁷ pixels at the noise
/// levels the datasets use) is computed exactly instead: its two raw draws
/// are replayed through `Normal::sample` itself.
pub(crate) fn noise_in_place<R: Rng + ?Sized>(img: &mut GrayImage, std_dev: f64, rng: &mut R) {
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "std_dev must be non-negative"
    );
    if std_dev == 0.0 {
        return;
    }
    let normal = Normal::new(0.0, std_dev).expect("validated std_dev");
    let mut words = [0u64; 2 * NOISE_CHUNK];
    let mut radius = [0.0; NOISE_CHUNK];
    let mut cosine = [0.0; NOISE_CHUNK];
    for pixels in img.as_bytes_mut().chunks_mut(NOISE_CHUNK) {
        let n = pixels.len();
        let words = &mut words[..2 * n];
        words.fill_with(|| rng.next_u64());
        // the uniforms as `rand_distr`'s Box–Muller takes them; `cosine`
        // holds `u2` until the next pass
        for ((r, u2), draw) in radius
            .iter_mut()
            .zip(&mut cosine)
            .zip(words.chunks_exact(2))
        {
            let mut uniforms = Replay(draw);
            let u1 = uniforms.gen::<f64>().max(f64::MIN_POSITIVE);
            *u2 = uniforms.gen();
            *r = (-2.0 * u1.ln()).sqrt();
        }
        for c in &mut cosine[..n] {
            *c = cos_turns(*c);
        }
        let draws = radius.iter().zip(&cosine).zip(words.chunks_exact(2));
        for (p, ((&r, &c), draw)) in pixels.iter_mut().zip(draws) {
            let v = *p as f64;
            let guard = std_dev * r * GUARD_REL + GUARD_ABS;
            *p = to_pixel_clear_of_step(v + std_dev * (r * c), guard)
                .unwrap_or_else(|| to_pixel(v + normal.sample(&mut Replay(draw))));
        }
    }
}

/// Adds zero-mean Gaussian sensor noise with the given standard deviation.
///
/// # Panics
///
/// Panics if `std_dev` is negative or not finite.
pub fn add_gaussian_noise<R: Rng + ?Sized>(
    img: &GrayImage,
    std_dev: f64,
    rng: &mut R,
) -> GrayImage {
    let mut out = img.clone();
    noise_in_place(&mut out, std_dev, rng);
    out
}

/// Illumination gain on `img` in place; see [`scale_illumination`]. A pixel
/// has 256 possible values, so the gain is applied to those and looked up.
pub(crate) fn illuminate_in_place(img: &mut GrayImage, gain: f64) {
    assert!(gain.is_finite() && gain >= 0.0, "gain must be non-negative");
    let mut lut = [0u8; 256];
    for (p, out) in lut.iter_mut().enumerate() {
        *out = to_pixel(p as f64 * gain);
    }
    img.map_in_place(|p| lut[p as usize]);
}

/// Applies a global illumination scale (e.g. insufficient light on a building
/// site): `out = in * gain`, clamped.
///
/// # Panics
///
/// Panics if `gain` is negative or not finite.
pub fn scale_illumination(img: &GrayImage, gain: f64) -> GrayImage {
    let mut out = img.clone();
    illuminate_in_place(&mut out, gain);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kernel_normalised_and_symmetric() {
        for sigma in [0.5, 1.0, 2.5] {
            let k = gaussian_kernel(sigma);
            assert!((k.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(k.len() % 2, 1);
            for i in 0..k.len() / 2 {
                assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-12);
            }
            // centre is the max
            let mid = k[k.len() / 2];
            assert!(k.iter().all(|&v| v <= mid + 1e-12));
        }
    }

    #[test]
    fn to_pixel_is_round_then_clamp() {
        let reference = |v: f64| v.round().clamp(0.0, 255.0) as u8;
        let mut probes = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -0.0,
        ];
        for n in -2..=257 {
            for frac in [0.0, 0.25, 0.5, 0.75] {
                let v = n as f64 + frac;
                probes.extend([v.next_down(), v, v.next_up()]);
            }
        }
        for v in probes {
            assert_eq!(to_pixel(v), reference(v), "{v:?}");
        }
    }

    #[test]
    fn cos_turns_within_its_error_bound() {
        // the uniforms are multiples of 2⁻⁵³; a dense grid of them plus the
        // grid points on and next to every quadrant edge
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut probes: Vec<f64> = (0..1 << 20).map(|i| i as f64 / (1 << 20) as f64).collect();
        for q in 0..4 {
            let edge = q as f64 / 4.0;
            probes.extend([edge, edge + ulp, edge + 2.0 * ulp]);
            if q > 0 {
                probes.extend([edge - ulp, edge - 2.0 * ulp]);
            }
        }
        probes.push(1.0 - ulp);
        let mut worst: f64 = 0.0;
        for u in probes {
            let err = (cos_turns(u) - (std::f64::consts::TAU * u).cos()).abs();
            assert!(err <= COS_TURNS_MAX_ERR, "u = {u:e}: error {err:e}");
            worst = worst.max(err);
        }
        // and the bound is the polynomial's, not a loose one
        assert!(worst > COS_TURNS_MAX_ERR / 2.0, "worst error {worst:e}");
    }

    #[test]
    fn blur_preserves_flat_image() {
        let img = GrayImage::filled(16, 16, 77);
        let b = gaussian_blur(&img, 1.5);
        assert!(b.as_bytes().iter().all(|&p| (p as i32 - 77).abs() <= 1));
    }

    #[test]
    fn blur_zero_sigma_is_identity() {
        let mut img = GrayImage::new(8, 8);
        img.set(3, 3, 200);
        assert_eq!(gaussian_blur(&img, 0.0), img);
    }

    #[test]
    fn blur_reduces_variance() {
        let mut img = GrayImage::new(32, 32);
        // checkerboard = maximal high-frequency content
        for y in 0..32 {
            for x in 0..32 {
                img.set(x, y, if (x + y) % 2 == 0 { 0 } else { 255 });
            }
        }
        let b = gaussian_blur(&img, 2.0);
        assert!(b.variance() < img.variance() / 10.0);
    }

    #[test]
    fn blur_approximately_preserves_mean() {
        let mut img = GrayImage::new(24, 24);
        let mut v: u8 = 13;
        img.map_in_place(|_| {
            v = v.wrapping_mul(31).wrapping_add(7);
            v
        });
        let b = gaussian_blur(&img, 1.0);
        assert!((b.mean() - img.mean()).abs() < 2.0);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let img = GrayImage::filled(16, 16, 128);
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let n1 = add_gaussian_noise(&img, 10.0, &mut r1);
        let n2 = add_gaussian_noise(&img, 10.0, &mut r2);
        assert_eq!(n1, n2);
        let mut r3 = StdRng::seed_from_u64(8);
        let n3 = add_gaussian_noise(&img, 10.0, &mut r3);
        assert_ne!(n1, n3);
    }

    #[test]
    fn noise_zero_is_identity() {
        let img = GrayImage::filled(8, 8, 50);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(add_gaussian_noise(&img, 0.0, &mut rng), img);
    }

    #[test]
    fn illumination_scaling() {
        let img = GrayImage::filled(4, 4, 100);
        let darker = scale_illumination(&img, 0.5);
        assert_eq!(darker.get(0, 0), 50);
        let clipped = scale_illumination(&img, 10.0);
        assert_eq!(clipped.get(0, 0), 255);
    }
}
