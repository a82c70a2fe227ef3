//! Image filters: Gaussian blur and sensor noise.

use crate::GrayImage;
use rand::Rng;
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

/// Sensor noise on `img` in place; see [`add_gaussian_noise`]. One draw per
/// pixel, row-major.
pub(crate) fn noise_in_place<R: Rng + ?Sized>(img: &mut GrayImage, std_dev: f64, rng: &mut R) {
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "std_dev must be non-negative"
    );
    if std_dev == 0.0 {
        return;
    }
    let normal = Normal::new(0.0, std_dev).expect("validated std_dev");
    img.map_in_place(|p| to_pixel(p as f64 + normal.sample(rng)));
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
