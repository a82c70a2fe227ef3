//! The per-pixel renderer and filters as they stood before PR 12, moved here
//! verbatim: the live oracle `imaging`'s row-cached kernels are held
//! bit-identical to. Nothing here is tuned — it recomputes four lattice
//! hashes per pixel, clamps every blur tap and allocates an image per stage
//! — and nothing here should ever be: its only job is to stay what it was.

use imaging::{gaussian_kernel, GrayImage, RenderSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// splitmix64-style integer mixer for deterministic procedural textures.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash-based value noise in `[0, 255]` for lattice cell `(cx, cy)`.
#[inline]
fn lattice_value(seed: u64, cx: i64, cy: i64) -> f64 {
    let h = mix(seed
        ^ (cx as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
        ^ (cy as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    (h & 0xff) as f64
}

/// Smooth value noise at pixel `(x, y)` with the given cell size.
fn value_noise(seed: u64, x: usize, y: usize, cell: usize) -> f64 {
    let fx = x as f64 / cell as f64;
    let fy = y as f64 / cell as f64;
    let cx = fx.floor() as i64;
    let cy = fy.floor() as i64;
    let tx = fx - cx as f64;
    let ty = fy - cy as f64;
    // smoothstep interpolation between the four corners
    let sx = tx * tx * (3.0 - 2.0 * tx);
    let sy = ty * ty * (3.0 - 2.0 * ty);
    let v00 = lattice_value(seed, cx, cy);
    let v10 = lattice_value(seed, cx + 1, cy);
    let v01 = lattice_value(seed, cx, cy + 1);
    let v11 = lattice_value(seed, cx + 1, cy + 1);
    let a = v00 + (v10 - v00) * sx;
    let b = v01 + (v11 - v01) * sx;
    a + (b - a) * sy
}

/// Reference for [`imaging::render`].
pub fn render(spec: &RenderSpec) -> GrayImage {
    assert!(
        spec.width > 0 && spec.height > 0,
        "frame dimensions must be positive"
    );
    let mut img = GrayImage::new(spec.width, spec.height);
    // Background: two octaves of value noise around mid-grey.
    for y in 0..spec.height {
        for x in 0..spec.width {
            let coarse = value_noise(spec.background_seed, x, y, 24);
            let fine = value_noise(spec.background_seed ^ 0xabcd, x, y, 5);
            let v = 70.0 + 0.45 * coarse + 0.25 * fine;
            img.set(x, y, v.round().clamp(0.0, 255.0) as u8);
        }
    }
    // Objects: textured rectangles with a contrasting border.
    for obj in &spec.objects {
        let (x0, y0, x1, y1) = obj.bbox.to_pixels(spec.width, spec.height);
        if x1 <= x0 || y1 <= y0 {
            continue;
        }
        let border = (((x1 - x0).min(y1 - y0)) / 8).max(1);
        for y in y0..y1 {
            for x in x0..x1 {
                let on_border =
                    x < x0 + border || x >= x1 - border || y < y0 + border || y >= y1 - border;
                let tex = value_noise(obj.texture_seed, x - x0, y - y0, 4);
                let base = obj.base_intensity as f64;
                let v = if on_border {
                    // strong edge: objects contribute high-frequency content
                    255.0 - base * 0.8
                } else {
                    base * 0.7 + tex * 0.3
                };
                img.set(x, y, v.round().clamp(0.0, 255.0) as u8);
            }
        }
    }
    // Camera effects, in physical order: optics blur, illumination, sensor noise.
    let mut out = gaussian_blur(&img, spec.blur_sigma);
    if (spec.illumination - 1.0).abs() > f64::EPSILON {
        out = scale_illumination(&out, spec.illumination);
    }
    if spec.noise_std > 0.0 {
        let mut rng = StdRng::seed_from_u64(spec.noise_seed);
        out = add_gaussian_noise(&out, spec.noise_std, &mut rng);
    }
    out
}

fn convolve_1d(
    src: &[f64],
    width: usize,
    height: usize,
    kernel: &[f64],
    horizontal: bool,
) -> Vec<f64> {
    let radius = (kernel.len() / 2) as i64;
    let mut out = vec![0.0; src.len()];
    for y in 0..height as i64 {
        for x in 0..width as i64 {
            let mut acc = 0.0;
            for (ki, &k) in kernel.iter().enumerate() {
                let off = ki as i64 - radius;
                let (sx, sy) = if horizontal {
                    (x + off, y)
                } else {
                    (x, y + off)
                };
                // clamp-to-edge boundary
                let sx = sx.clamp(0, width as i64 - 1);
                let sy = sy.clamp(0, height as i64 - 1);
                acc += k * src[(sy * width as i64 + sx) as usize];
            }
            out[(y * width as i64 + x) as usize] = acc;
        }
    }
    out
}

/// Reference for [`imaging::gaussian_blur`].
pub fn gaussian_blur(img: &GrayImage, sigma: f64) -> GrayImage {
    assert!(
        sigma.is_finite() && sigma >= 0.0,
        "sigma must be non-negative"
    );
    if sigma == 0.0 {
        return img.clone();
    }
    let kernel = gaussian_kernel(sigma);
    let (w, h) = (img.width(), img.height());
    let src: Vec<f64> = img.as_bytes().iter().map(|&p| p as f64).collect();
    let tmp = convolve_1d(&src, w, h, &kernel, true);
    let out = convolve_1d(&tmp, w, h, &kernel, false);
    GrayImage::from_pixels(
        w,
        h,
        out.into_iter()
            .map(|v| v.round().clamp(0.0, 255.0) as u8)
            .collect(),
    )
}

/// Reference for [`imaging::add_gaussian_noise`].
pub fn add_gaussian_noise<R: Rng + ?Sized>(
    img: &GrayImage,
    std_dev: f64,
    rng: &mut R,
) -> GrayImage {
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "std_dev must be non-negative"
    );
    if std_dev == 0.0 {
        return img.clone();
    }
    let normal = Normal::new(0.0, std_dev).expect("validated std_dev");
    let pixels = img
        .as_bytes()
        .iter()
        .map(|&p| (p as f64 + normal.sample(rng)).round().clamp(0.0, 255.0) as u8)
        .collect();
    GrayImage::from_pixels(img.width(), img.height(), pixels)
}

/// Reference for [`imaging::scale_illumination`].
pub fn scale_illumination(img: &GrayImage, gain: f64) -> GrayImage {
    assert!(gain.is_finite() && gain >= 0.0, "gain must be non-negative");
    let pixels = img
        .as_bytes()
        .iter()
        .map(|&p| (p as f64 * gain).round().clamp(0.0, 255.0) as u8)
        .collect();
    GrayImage::from_pixels(img.width(), img.height(), pixels)
}
