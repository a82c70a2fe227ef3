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

/// `2⁵²`, the smallest `f64` whose ulp is 1: adding it to a value in `[0,
/// 2⁵²)` rounds that value to an integer (half to even), and the integer is
/// the low bits of the sum's mantissa.
const ROUND_SHIFT: f64 = (1u64 << 52) as f64;

/// `c` rounded half away from zero, for `c` in `[0, 255]`, and `c − rint(c)`:
/// the pixel and the signed distance to the nearest integer.
///
/// `c + 2⁵²` rounds `c` half to even, and subtracting `2⁵²` again gives that
/// integer exactly, so `c − rint(c)` is exact too. Only a tie rounded down
/// to even leaves it at `+½`; the tie fix adds the one that half away from
/// zero gives instead. No step is a cast that saturates, so a loop of this
/// stays in vector lanes. A NaN `c` gives NaN for the distance and some
/// byte.
#[inline]
fn round_in_range(c: f64) -> (u8, f64) {
    let shifted = c + ROUND_SHIFT;
    let off = c - (shifted - ROUND_SHIFT);
    // the mantissa's low byte is `rint(c)`; a tie rounded down is at most 254
    (shifted.to_bits() as u8 + (off == 0.5) as u8, off)
}

/// Quantises an intensity to a pixel: `v.round().clamp(0.0, 255.0) as u8`,
/// on every `f64` (NaN gives 0, the infinities saturate, −0.0 gives 0),
/// without a call into libm or a saturating cast.
///
/// Rounding is monotone and fixes 0 and 255, so clamping first gives the
/// same pixel, and inside `[0, 255]` [`round_in_range`] rounds half away
/// from zero exactly.
#[inline]
pub(crate) fn to_pixel(v: f64) -> u8 {
    // a NaN fails the comparison and takes the 0
    round_in_range(if v > 0.0 { v.min(255.0) } else { 0.0 }).0
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

/// `f32`'s unit roundoff, 2⁻²⁴: rounding a value to `f32` moves it by at
/// most this fraction of itself.
const F32_ROUNDOFF: f64 = 1.0 / (1u64 << 24) as f64;

/// Largest `|cos_turns(u2 >> 29) - cos(2π·u2)|` for a 53-bit uniform `u2`
/// (as the integer `u2·2⁵³`): 2π·2⁻²⁴ for the 29 low bits [`cos_turns`]
/// drops, plus 5 roundoffs for the polynomial. A running error analysis of
/// its Horner steps gives 4.02 roundoffs at `f = 1`, the rounding of `f²`
/// 0.79 and the first term left out 0.11; libm's `cos` of the rounded `2π·u2`
/// is within 2e-15 of the true cosine.
const COS_TURNS_MAX_ERR: f64 = (std::f64::consts::TAU + 5.0) * F32_ROUNDOFF;

/// `cos(π/2·f) = 1 + Σₖ cₖ·f²ᵏ`: `cₖ = (−1)ᵏ (π/2)²ᵏ / (2k)!` for k = 1..=6,
/// rounded to `f32`. The first term left out is below 6.4e-9.
const COS_QUARTER: [f32; 6] = {
    let (mut c, mut term, mut k) = ([0.0; 6], 1.0, 0);
    while k < 6 {
        let (a, b) = ((2 * k + 1) as f64, (2 * k + 2) as f64);
        term *= -std::f64::consts::FRAC_PI_2 * std::f64::consts::FRAC_PI_2 / (a * b);
        c[k] = term as f32;
        k += 1;
    }
    c
};

/// `cos(2π·turn/2²⁴)` for `turn` in `[0, 2²⁴)`, in `f32`: the cosine of a
/// Box–Muller angle from the top 24 bits of its word, within
/// [`COS_TURNS_MAX_ERR`] of the cosine of the full 53-bit angle.
///
/// The top two bits of `turn` are the quadrant and the other 22 the fraction
/// `f` of a quarter turn left over, exact in `f32`; odd quadrants fold onto
/// the cosine through `sin θ = cos(π/2 − θ)`, and `1 − f` is exact too. What
/// remains is `cos(π/2·f)`, a polynomial in `f²` ([`COS_QUARTER`]). The
/// quadrant is integer bits and the folds are selects, so a loop of this
/// runs in 4-wide `f32` lanes.
#[inline]
fn cos_turns(turn: i32) -> f32 {
    const QUARTER: i32 = 1 << 22;
    let quadrant = turn >> 22;
    let f = (turn & (QUARTER - 1)) as f32 * (1.0 / QUARTER as f32);
    let f = if quadrant & 1 == 1 { 1.0 - f } else { f };
    let z = f * f;
    let [c1, c2, c3, c4, c5, c6] = COS_QUARTER;
    let c = 1.0 + z * (c1 + z * (c2 + z * (c3 + z * (c4 + z * (c5 + z * c6)))));
    // negative in quadrants 1 and 2
    if (quadrant + 1) & 2 == 0 {
        c
    } else {
        -c
    }
}

/// The fast radius's error bound: `RADIUS_MAX_REL·r + ` [`RADIUS_FAR`] when
/// `r ≥ RADIUS_FAR_FROM`, else [`RADIUS_NEAR`] (see [`radius`]).
const RADIUS_MAX_REL: f64 = 4.81 * F32_ROUNDOFF;
const RADIUS_FAR_FROM: f64 = 1.0 / 16.0;
const RADIUS_FAR: f64 = 16.2 * F32_ROUNDOFF;
const RADIUS_NEAR: f64 = 3.5e-4;
/// What `−2 ln u1` may move by before the root: `RADIUS_T_ABS +
/// RADIUS_T_REL·(−2 ln u1)`.
const RADIUS_T_ABS: f64 = 2.02 * F32_ROUNDOFF;
const RADIUS_T_REL: f64 = 7.6 * F32_ROUNDOFF;
const _: () = {
    assert!(RADIUS_MAX_REL >= (RADIUS_T_REL / 2.0 + F32_ROUNDOFF) * (1.0 + 1e-4));
    assert!(RADIUS_FAR >= RADIUS_T_ABS / (2.0 * RADIUS_FAR_FROM) * (1.0 + 1e-4));
    // below `RADIUS_FAR_FROM`: the root's rounding plus the root of what
    // `−2 ln u1` may move by, where `√(−2 ln u1)` is at most
    // `RADIUS_FAR_FROM + RADIUS_NEAR`
    let near_t = (RADIUS_FAR_FROM + RADIUS_NEAR) * (RADIUS_FAR_FROM + RADIUS_NEAR);
    let root = RADIUS_NEAR - RADIUS_FAR_FROM * F32_ROUNDOFF;
    assert!(root * root >= RADIUS_T_ABS + RADIUS_T_REL * near_t);
};

/// Box–Muller's radius `√(−2 ln u1)` in `f32`, from `top`, the top 31 bits
/// of the word `u1` is drawn from; NaN when `u1 < 2⁻⁸`, outside the domain
/// of its error bound.
///
/// `top` converts to `y` (rounded to 24 bits), and the radius is taken of
/// `u1' = y·2⁻³¹`. Integer steps on `y`'s bits split `u1'` into `2ᵏ·x` with
/// `x` in `[√½, √2)`; `ln x = 2 atanh(s)` with `s = (x − 1)/(x + 1)`, `|s| ≤
/// 0.172`, is its series to `s⁹`, `ln u1' = k·ln 2 + ln x`, and the root is
/// one `sqrtps`.
///
/// The error bound. Let `T = −2 ln u1` and `T'` the computed `−2 ln u1'`.
/// - `u1'` differs from `u1` by the 22 dropped bits, below `2⁻³¹`, and by
///   `y`'s rounding, a relative 2⁻²⁴: `T` moves by at most `2·2⁻²⁴ + 2⁻³⁰/u1`,
///   and on `u1 ≥ 2⁻⁸` the convex `2⁻³⁰/u1 = 2⁻³⁰·e^(T/2)` lies under its
///   chord, `2⁻³⁰ + 0.36·2⁻²⁴·T`.
/// - The kernel's roundings, counted in roundoffs `ε = 2⁻²⁴`: `s` 2ε, the
///   series 1.12ε, its product 1ε, so `ln x` 4.12ε; `k·ln 2` 1.05ε and the
///   sum 1ε. `|ln x| ≤ 0.347` is at most the total and `|k|·ln 2` at most
///   twice it, so the sum is within 7.22ε of `ln u1'`.
/// - So `|T' − T| ≤ ` [`RADIUS_T_ABS`]` + `[`RADIUS_T_REL`]`·T`
///   (2.02ε and 7.22ε + 0.36ε), and the radius `r = fl(√T')` is off by
///   `|T' − T| / (√T' + √T)` plus its own rounding. Where `r ≥ 1/16`, `T'`
///   exceeds that error 30 000-fold, so `√T' + √T ≥ 1.99998·√T'` and the
///   bound is `(RADIUS_T_REL/2 + ε)·r + RADIUS_T_ABS/(2/16)`. Below, the
///   radius is off by at most `√|T' − T|` and its rounding, which
///   [`RADIUS_NEAR`] bounds.
///
/// On a dense grid of `u1` the worst error is 0.70 of the bound, next to 1;
/// the relative part reaches 1.47ε of its 4.81ε.
///
/// Below `u1 = 2⁻⁸` the dropped bits are no longer small next to `u1`, and
/// at `top = 0` (which holds `rand_distr`'s `MIN_POSITIVE` clamp) the
/// logarithm is not defined; such a pixel replays its draws.
#[inline]
fn radius(top: i32) -> f32 {
    // √½ in f32
    const SQRT_HALF: u32 = 0x3f35_04f3;
    let bits = (top as f32).to_bits() + (1.0f32.to_bits() - SQRT_HALF);
    // the exponent of `u1'` once its mantissa lies in `[√½, √2)`
    let k = (bits >> 23) as i32 - (127 + 31);
    let x = f32::from_bits((bits & 0x007f_ffff) + SQRT_HALF);
    let f = x - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let series = 1.0 + z * (1.0 / 3.0 + z * (1.0 / 5.0 + z * (1.0 / 7.0 + z * (1.0 / 9.0))));
    let ln_u1 = k as f32 * std::f32::consts::LN_2 + 2.0 * s * series;
    let r = (-2.0 * ln_u1).sqrt();
    if top >= 1 << 23 {
        r
    } else {
        f32::NAN
    }
}

/// The fast value `p + σ·(r·c)` is within `σ·(GUARD_REL·r + GUARD_FAR or
/// GUARD_NEAR) + GUARD_ROUNDING` of the exact one. With `Δr` the radius's
/// bound and `Δc` [`COS_TURNS_MAX_ERR`],
/// `|r·c − R·C| ≤ Δr·(1 + 2Δc) + r·Δc`; each guard term is at least twice
/// its share of that. `GUARD_ROUNDING` covers the `f64` roundings of both
/// values near the pixel range.
const GUARD_REL: f64 = 4e-6;
const GUARD_FAR: f64 = 2e-6;
const GUARD_NEAR: f64 = 7.5e-4;
const GUARD_ROUNDING: f64 = 1e-9;
const _: () = {
    let widen = 1.0 + 2.0 * COS_TURNS_MAX_ERR;
    assert!(GUARD_REL >= 2.0 * (RADIUS_MAX_REL * widen + COS_TURNS_MAX_ERR + 4.0 * f64::EPSILON));
    assert!(GUARD_FAR >= 2.0 * RADIUS_FAR * widen);
    assert!(GUARD_NEAR >= 2.0 * RADIUS_NEAR * widen);
};

/// Pixels whose draws are taken from the generator in one go.
const NOISE_CHUNK: usize = 64;

/// [`to_pixel`]`(v)`, and whether `v` lies farther than `guard` from every
/// step of it.
///
/// The steps of `to_pixel` are the half-integers inside `[0, 255]`, and
/// clamping moves no two values farther apart, so any value within `guard`
/// of `v` quantises to the same pixel when the clamped `v` is farther than
/// `guard` from its nearest half-integer, at `½ − |c − rint(c)|`. NaN never
/// clears the guard.
#[inline]
fn to_pixel_clear_of_step(v: f64, guard: f64) -> (u8, bool) {
    let (pixel, off) = round_in_range(v.clamp(0.0, 255.0));
    (pixel, 0.5 - off.abs() > guard)
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
/// That Box–Muller draw is `σ·(R·C)`, `R = √(−2 ln u1)` and `C = cos(2π·u2)`
/// in `f64`, from two words. Here both come from `f32` lanes, four pixels
/// at a time: [`radius`] from the first word's top 31 bits and
/// [`cos_turns`] from the second's top 24. A pixel is a step function of its
/// value with steps only at `k + ½`, so the fast value gives the exact byte
/// wherever it lies farther than a proven bound on its error from every
/// step ([`GUARD_REL`]): about `σ·r·4e-6 + σ·2e-6`, and `σ·7.5e-4` where
/// `r < 1/16` (`u1` within 0.2 % of 1). Saturated pixels are clear of every
/// step. The last loop writes every byte and a near-step mask without a
/// branch; then the flagged pixels alone replay their two words through
/// `Normal::sample` itself. They are the draws with `u1 < 2⁻⁸` (0.39 % of
/// pixels, outside the radius's domain, where [`radius`] is NaN and so is
/// the guard) and the draws inside the guard: 0.002 % to 0.006 % of the
/// pixels of 300 scenes of each dataset profile.
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
    let mut tops = [0i32; 2 * NOISE_CHUNK];
    let mut radii = [0.0f32; NOISE_CHUNK];
    let mut cosines = [0.0f32; NOISE_CHUNK];
    let mut noisy = [0u8; NOISE_CHUNK];
    let mut near = [false; NOISE_CHUNK];
    for pixels in img.as_bytes_mut().chunks_mut(NOISE_CHUNK) {
        let n = pixels.len();
        let words = &mut words[..2 * n];
        words.fill_with(|| rng.next_u64());
        for (top, &word) in tops.iter_mut().zip(&*words) {
            *top = (word >> 33) as i32;
        }
        let draws = tops.chunks_exact(2);
        for ((r, c), draw) in radii[..n].iter_mut().zip(&mut cosines).zip(draws) {
            *r = radius(draw[0]);
            // the second word's top 24 bits
            *c = cos_turns(draw[1] >> 7);
        }
        let fast = radii.iter().zip(&cosines);
        let out = noisy.iter_mut().zip(&mut near);
        for (((p, flag), &v), (&r, &c)) in out.zip(&*pixels).zip(fast) {
            let (r, c) = (r as f64, c as f64);
            let abs = if r >= RADIUS_FAR_FROM {
                GUARD_FAR
            } else {
                GUARD_NEAR
            };
            let guard = std_dev * (GUARD_REL * r + abs) + GUARD_ROUNDING;
            let clear;
            (*p, clear) = to_pixel_clear_of_step(v as f64 + std_dev * (r * c), guard);
            *flag = !clear;
        }
        for (i, _) in near[..n].iter().enumerate().filter(|&(_, &flag)| flag) {
            let draw = &words[2 * i..][..2];
            noisy[i] = to_pixel(pixels[i] as f64 + normal.sample(&mut Replay(draw)));
        }
        pixels.copy_from_slice(&noisy[..n]);
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
            -f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 0xff),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -0.0,
        ];
        for n in -2..=257 {
            for frac in [0.0, 0.25, 0.75] {
                let v = n as f64 + frac;
                probes.extend([v.next_down(), v, v.next_up()]);
            }
            // every half-integer and the 4 values on either side of it
            let (mut below, mut above) = (n as f64 + 0.5, n as f64 + 0.5);
            probes.push(below);
            for _ in 0..4 {
                (below, above) = (below.next_down(), above.next_up());
                probes.extend([below, above]);
            }
        }
        for v in probes {
            assert_eq!(to_pixel(v), reference(v), "{v:?}");
        }
    }

    /// The 53-bit uniform `rand` makes of `word`, as `rand_distr` takes it.
    fn uniform(word: u64) -> f64 {
        (word >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn cos_turns_within_its_error_bound() {
        // second words as the 53-bit integers of their uniforms: a dense
        // grid of angles, each with the dropped 29 bits all clear, all set
        // and mixed, and the angles on and next to every quadrant edge
        const DROPPED: u64 = (1 << 29) - 1;
        let mut angles: Vec<u64> = (0..1u64 << 20).map(|i| i << 4 | i & 15).collect();
        for q in 0..=4u64 {
            let edge = q << 22;
            angles.extend((edge.saturating_sub(2)..edge + 3).filter(|&a| a < 1 << 24));
        }
        let mut worst: f64 = 0.0;
        for (i, angle) in angles.into_iter().enumerate() {
            let mixed = (i as u64).wrapping_mul(0x9e37_79b9) & DROPPED;
            for low in [0, DROPPED, mixed] {
                let word = (angle << 29 | low) << 11;
                let exact = (std::f64::consts::TAU * uniform(word)).cos();
                let err = (cos_turns((word >> 40) as i32) as f64 - exact).abs();
                assert!(err <= COS_TURNS_MAX_ERR, "word {word:#x}: error {err:e}");
                worst = worst.max(err);
            }
        }
        // and the bound is a tight one
        assert!(worst > COS_TURNS_MAX_ERR / 2.0, "worst error {worst:e}");
    }

    /// The bound [`radius`] keeps to at its own result `r`.
    fn radius_max_err(r: f64) -> f64 {
        let abs = if r >= RADIUS_FAR_FROM {
            RADIUS_FAR
        } else {
            RADIUS_NEAR
        };
        RADIUS_MAX_REL * r + abs
    }

    #[test]
    fn radius_within_its_error_bound() {
        // first words as the 53-bit integers of their uniforms: a dense grid
        // over the domain `[2⁻⁸, 1)` with the dropped 22 bits clear, set and
        // mixed, `u1` within 2¹⁶ grid steps of 1 and at `2⁻ᵏ` below it, and
        // the edges of the domain
        const ONE: u64 = 1 << 53;
        const CUTOFF: u64 = ONE >> 8;
        let step = (ONE - CUTOFF) >> 20;
        let mut draws: Vec<u64> = (0..1u64 << 20)
            .flat_map(|i| {
                let at = CUTOFF + i * step;
                [at & !0x3f_ffff, at | 0x3f_ffff, at]
            })
            .collect();
        draws.extend((1..=1 << 16).map(|j| ONE - j));
        draws.extend((17..53).flat_map(|k| [ONE - (1 << k), ONE - (1 << k) - 1]));
        draws.extend([CUTOFF, CUTOFF + 1, ONE - 1]);
        let mut worst: f64 = 0.0;
        for n in draws {
            let word = n << 11 | n & 0x7ff;
            let exact = (-2.0 * uniform(word).ln()).sqrt();
            let fast = radius((word >> 33) as i32) as f64;
            let bound = radius_max_err(fast);
            let err = (fast - exact).abs();
            assert!(err <= bound, "u1 = {:e}: error {err:e}", uniform(word));
            worst = worst.max(err / bound);
        }
        // and the bound is a tight one
        assert!(worst > 0.5, "worst error {worst} of the bound");
        // outside the domain, down to the word `rand_distr` clamps
        for n in [CUTOFF - 1, CUTOFF >> 1, 1 << 22, 1, 0] {
            assert!(radius(((n << 11) >> 33) as i32).is_nan(), "{n}");
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
