//! Deterministic synthetic scene renderer.
//!
//! Renders a camera frame from a scene description: a textured background plus
//! one textured rectangle per annotated object, followed by global camera
//! effects (defocus blur, sensor noise, illumination). The renderer exists so
//! that pixel-level baselines — the Brenner-gradient upload strategy and the
//! encoded-size model for network transfer — operate on real rasters whose
//! statistics co-vary with scene difficulty, exactly as in the paper's HELMET
//! footage (blur, water stains, insufficient light).

use crate::filter::{blur_in_place, illuminate_in_place, noise_in_place, to_pixel};
use crate::GrayImage;
use detcore::BBox;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How one object is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectRenderSpec {
    /// Object extent in normalised coordinates.
    pub bbox: BBox,
    /// Seed for the object's texture (deterministic).
    pub texture_seed: u64,
    /// Mean intensity of the object's texture.
    pub base_intensity: u8,
}

/// A full frame description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RenderSpec {
    /// Output width in pixels.
    pub width: usize,
    /// Output height in pixels.
    pub height: usize,
    /// Seed for the background texture.
    pub background_seed: u64,
    /// Objects, drawn in order (later objects overdraw earlier ones).
    pub objects: Vec<ObjectRenderSpec>,
    /// Camera defocus blur sigma in pixels (0 = sharp).
    pub blur_sigma: f64,
    /// Sensor noise standard deviation (0 = clean).
    pub noise_std: f64,
    /// Illumination gain (1 = nominal, < 1 = dark scene).
    pub illumination: f64,
    /// Seed for the sensor-noise draw.
    pub noise_seed: u64,
}

impl RenderSpec {
    /// A clean, well-lit frame of the given size with no objects.
    pub fn empty(width: usize, height: usize, background_seed: u64) -> Self {
        RenderSpec {
            width,
            height,
            background_seed,
            objects: Vec::new(),
            blur_sigma: 0.0,
            noise_std: 0.0,
            illumination: 1.0,
            noise_seed: background_seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }
}

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

/// Lattice cell and smoothstep weight of pixel coordinate `p` along one axis.
#[inline]
fn lattice_pos(p: usize, cell: usize) -> (i64, f64) {
    let f = p as f64 / cell as f64;
    let c = f.floor() as i64;
    let t = f - c as f64;
    (c, t * t * (3.0 - 2.0 * t))
}

/// Interpolates lattice row `cy` along x at every column of `columns`.
fn lerp_lattice_row(seed: u64, cy: i64, columns: &[(i64, f64)], out: &mut [f64]) {
    let (mut at, mut left, mut right) = (i64::MIN, 0.0, 0.0);
    for (o, &(cx, sx)) in out.iter_mut().zip(columns) {
        if cx != at {
            left = lattice_value(seed, cx, cy);
            right = lattice_value(seed, cx + 1, cy);
            at = cx;
        }
        *o = left + (right - left) * sx;
    }
}

/// One octave of smooth value noise over a strip of pixel columns, produced
/// a row at a time.
///
/// The value at `(x, y)` interpolates the four lattice corners around it:
/// first along x on lattice rows `cy` and `cy + 1`, then along y between
/// those two. Both x-interpolations depend only on the column and the
/// lattice row, so they are computed once per lattice row and a pixel costs
/// the one remaining interpolation.
struct NoiseRows {
    seed: u64,
    cell: usize,
    /// `lattice_pos` of every column.
    columns: Vec<(i64, f64)>,
    /// The lattice row `top` and `bottom` currently hold: `cy` and `cy + 1`.
    cy: Option<i64>,
    top: Vec<f64>,
    bottom: Vec<f64>,
    values: Vec<f64>,
}

impl NoiseRows {
    fn new(seed: u64, cell: usize, width: usize) -> Self {
        NoiseRows {
            seed,
            cell,
            columns: (0..width).map(|x| lattice_pos(x, cell)).collect(),
            cy: None,
            top: vec![0.0; width],
            bottom: vec![0.0; width],
            values: vec![0.0; width],
        }
    }

    /// The noise along pixel row `y`.
    fn row(&mut self, y: usize) -> &[f64] {
        let (cy, sy) = lattice_pos(y, self.cell);
        if self.cy != Some(cy) {
            if self.cy == Some(cy - 1) {
                std::mem::swap(&mut self.top, &mut self.bottom);
            } else {
                lerp_lattice_row(self.seed, cy, &self.columns, &mut self.top);
            }
            lerp_lattice_row(self.seed, cy + 1, &self.columns, &mut self.bottom);
            self.cy = Some(cy);
        }
        for ((v, &a), &b) in self.values.iter_mut().zip(&self.top).zip(&self.bottom) {
            *v = a + (b - a) * sy;
        }
        &self.values
    }
}

/// Background: two octaves of value noise around mid-grey.
fn draw_background(pixels: &mut [u8], width: usize, seed: u64) {
    let mut coarse = NoiseRows::new(seed, 24, width);
    let mut fine = NoiseRows::new(seed ^ 0xabcd, 5, width);
    for (y, row) in pixels.chunks_exact_mut(width).enumerate() {
        let (coarse, fine) = (coarse.row(y), fine.row(y));
        for ((p, &coarse), &fine) in row.iter_mut().zip(coarse).zip(fine) {
            *p = to_pixel(70.0 + 0.45 * coarse + 0.25 * fine);
        }
    }
}

/// An object: a textured rectangle with a contrasting border.
fn draw_object(pixels: &mut [u8], width: usize, height: usize, obj: &ObjectRenderSpec) {
    let (x0, y0, x1, y1) = obj.bbox.to_pixels(width, height);
    if x1 <= x0 || y1 <= y0 {
        return;
    }
    let (w, h) = (x1 - x0, y1 - y0);
    let border = (w.min(h) / 8).max(1);
    let base = obj.base_intensity as f64;
    // strong edge: objects contribute high-frequency content
    let edge = to_pixel(255.0 - base * 0.8);
    let mut texture = NoiseRows::new(obj.texture_seed, 4, w);
    for y in 0..h {
        let row = &mut pixels[(y0 + y) * width + x0..][..w];
        row.fill(edge);
        if y < border || y >= h - border || w <= 2 * border {
            continue;
        }
        let inner = border..w - border;
        for (p, &tex) in row[inner.clone()].iter_mut().zip(&texture.row(y)[inner]) {
            *p = to_pixel(base * 0.7 + tex * 0.3);
        }
    }
}

/// Renders a frame from a [`RenderSpec`].
///
/// The output is deterministic: the same spec always yields the same pixels.
///
/// # Examples
///
/// ```
/// use imaging::{render, RenderSpec};
///
/// let spec = RenderSpec::empty(64, 48, 42);
/// let a = render(&spec);
/// let b = render(&spec);
/// assert_eq!(a, b);
/// assert_eq!(a.width(), 64);
/// ```
///
/// # Panics
///
/// Panics if the spec has a zero dimension.
pub fn render(spec: &RenderSpec) -> GrayImage {
    assert!(
        spec.width > 0 && spec.height > 0,
        "frame dimensions must be positive"
    );
    let mut img = GrayImage::new(spec.width, spec.height);
    draw_background(img.as_bytes_mut(), spec.width, spec.background_seed);
    for obj in &spec.objects {
        draw_object(img.as_bytes_mut(), spec.width, spec.height, obj);
    }
    // Camera effects, in physical order: optics blur, illumination, sensor noise.
    blur_in_place(&mut img, spec.blur_sigma);
    if (spec.illumination - 1.0).abs() > f64::EPSILON {
        illuminate_in_place(&mut img, spec.illumination);
    }
    if spec.noise_std > 0.0 {
        let mut rng = StdRng::seed_from_u64(spec.noise_seed);
        noise_in_place(&mut img, spec.noise_std, &mut rng);
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brenner_gradient;

    fn obj(x0: f64, y0: f64, x1: f64, y1: f64, seed: u64) -> ObjectRenderSpec {
        ObjectRenderSpec {
            bbox: BBox::new(x0, y0, x1, y1).unwrap(),
            texture_seed: seed,
            base_intensity: 180,
        }
    }

    #[test]
    fn render_is_deterministic() {
        let mut spec = RenderSpec::empty(48, 48, 7);
        spec.objects.push(obj(0.2, 0.2, 0.7, 0.7, 9));
        spec.blur_sigma = 1.0;
        spec.noise_std = 4.0;
        assert_eq!(render(&spec), render(&spec));
    }

    #[test]
    fn different_seeds_differ() {
        let a = render(&RenderSpec::empty(32, 32, 1));
        let b = render(&RenderSpec::empty(32, 32, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn objects_change_pixels_inside_bbox() {
        let empty = render(&RenderSpec::empty(64, 64, 5));
        let mut spec = RenderSpec::empty(64, 64, 5);
        spec.objects.push(obj(0.25, 0.25, 0.75, 0.75, 11));
        let with_obj = render(&spec);
        assert_ne!(empty.get(32, 32), with_obj.get(32, 32));
        // outside the box, pixels are untouched
        assert_eq!(empty.get(2, 2), with_obj.get(2, 2));
    }

    #[test]
    fn blur_lowers_brenner_score() {
        let mut sharp = RenderSpec::empty(64, 64, 5);
        sharp.objects.push(obj(0.1, 0.1, 0.9, 0.9, 3));
        let mut blurry = sharp.clone();
        blurry.blur_sigma = 3.0;
        assert!(brenner_gradient(&render(&sharp)) > brenner_gradient(&render(&blurry)));
    }

    #[test]
    fn illumination_darkens() {
        let mut dark = RenderSpec::empty(32, 32, 5);
        dark.illumination = 0.4;
        let bright = RenderSpec::empty(32, 32, 5);
        assert!(render(&dark).mean() < render(&bright).mean());
    }

    #[test]
    fn degenerate_object_bbox_is_skipped() {
        let mut spec = RenderSpec::empty(32, 32, 5);
        spec.objects.push(obj(0.5, 0.5, 0.5, 0.5, 3));
        // must not panic; image equals the empty render
        let a = render(&spec);
        let b = render(&RenderSpec::empty(32, 32, 5));
        assert_eq!(a, b);
    }
}
