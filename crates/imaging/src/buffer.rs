//! Grayscale raster image buffer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An 8-bit grayscale image stored row-major.
///
/// The edge camera in the paper's pipeline produces frames; this buffer is the
/// in-memory representation that the Brenner-gradient baseline and the
/// encoded-size model operate on.
///
/// # Examples
///
/// ```
/// use imaging::GrayImage;
///
/// let mut img = GrayImage::filled(64, 48, 128);
/// img.set(10, 20, 255);
/// assert_eq!(img.get(10, 20), 255);
/// assert_eq!(img.get(0, 0), 128);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

/// `width * height`, checked: a wrapped product would size a buffer that
/// does not hold the image.
fn pixel_count(width: usize, height: usize) -> usize {
    assert!(width > 0 && height > 0, "image dimensions must be positive");
    width
        .checked_mul(height)
        .unwrap_or_else(|| panic!("image dimensions {width}x{height} overflow usize"))
}

impl GrayImage {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Self::filled(width, height, 0)
    }

    /// Creates an image filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `width * height` overflows.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        GrayImage {
            width,
            height,
            pixels: vec![value; pixel_count(width, height)],
        }
    }

    /// Creates an image from raw row-major pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height`, a dimension is zero or
    /// `width * height` overflows.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert_eq!(
            pixels.len(),
            pixel_count(width, height),
            "pixel buffer size mismatch"
        );
        GrayImage {
            width,
            height,
            pixels,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    /// Always `false` (dimensions are positive by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Raw pixel slice, row-major.
    pub fn as_bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Pixel at `(x, y)` or `None` when out of bounds.
    #[inline]
    pub fn try_get(&self, x: usize, y: usize) -> Option<u8> {
        if x < self.width && y < self.height {
            Some(self.pixels[y * self.width + x])
        } else {
            None
        }
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x] = value;
    }

    /// One row of pixels.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    pub fn row(&self, y: usize) -> &[u8] {
        assert!(y < self.height, "row out of bounds");
        &self.pixels[y * self.width..(y + 1) * self.width]
    }

    /// Raw pixel slice, row-major, for the in-place kernels.
    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.pixels
    }

    /// Applies `f` to every pixel value in place.
    pub fn map_in_place<F: FnMut(u8) -> u8>(&mut self, mut f: F) {
        for p in &mut self.pixels {
            *p = f(*p);
        }
    }

    /// Mean pixel intensity in `[0, 255]`.
    pub fn mean(&self) -> f64 {
        self.pixels.iter().map(|&p| p as f64).sum::<f64>() / self.pixels.len() as f64
    }

    /// Pixel intensity variance.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.pixels
            .iter()
            .map(|&p| {
                let d = p as f64 - m;
                d * d
            })
            .sum::<f64>()
            / self.pixels.len() as f64
    }

    /// Histogram of pixel intensities (256 bins).
    pub fn histogram(&self) -> [u64; 256] {
        let mut h = [0u64; 256];
        for &p in &self.pixels {
            h[p as usize] += 1;
        }
        h
    }

    /// Shannon entropy of the intensity histogram, in bits per pixel.
    pub fn entropy(&self) -> f64 {
        let h = self.histogram();
        let n = self.pixels.len() as f64;
        let mut e = 0.0;
        for &c in &h {
            if c > 0 {
                let p = c as f64 / n;
                e -= p * p.log2();
            }
        }
        e
    }

    /// Downscales by integer factor using box averaging.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or larger than either dimension.
    pub fn downscale(&self, factor: usize) -> GrayImage {
        assert!(factor > 0, "factor must be positive");
        assert!(
            factor <= self.width && factor <= self.height,
            "factor exceeds image size"
        );
        let w = self.width / factor;
        let h = self.height / factor;
        let mut out = GrayImage::new(w, h);
        for oy in 0..h {
            for ox in 0..w {
                let mut sum = 0u32;
                for dy in 0..factor {
                    for dx in 0..factor {
                        sum += self.get(ox * factor + dx, oy * factor + dy) as u32;
                    }
                }
                out.set(ox, oy, (sum / (factor * factor) as u32) as u8);
            }
        }
        out
    }
}

impl fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GrayImage")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("mean", &format!("{:.1}", self.mean()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = GrayImage::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.len(), 12);
        img.set(3, 2, 200);
        assert_eq!(img.get(3, 2), 200);
        assert_eq!(img.try_get(4, 0), None);
        assert_eq!(img.try_get(3, 2), Some(200));
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_dims_panic() {
        let _ = GrayImage::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_buffer_len_panics() {
        let _ = GrayImage::from_pixels(2, 2, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "overflow usize")]
    fn from_pixels_rejects_wrapping_dims() {
        // `(1 << 63) * 2` wraps to 0, the length of the empty buffer
        let _ = GrayImage::from_pixels(1 << 63, 2, vec![]);
    }

    #[test]
    #[should_panic(expected = "overflow usize")]
    fn filled_rejects_wrapping_dims() {
        let _ = GrayImage::filled(1 << 63, 2, 0);
    }

    #[test]
    fn mean_and_variance() {
        let img = GrayImage::from_pixels(2, 2, vec![0, 0, 255, 255]);
        assert!((img.mean() - 127.5).abs() < 1e-9);
        assert!((img.variance() - 127.5 * 127.5).abs() < 1e-9);
        let flat = GrayImage::filled(5, 5, 42);
        assert_eq!(flat.variance(), 0.0);
    }

    #[test]
    fn entropy_bounds() {
        let flat = GrayImage::filled(8, 8, 100);
        assert_eq!(flat.entropy(), 0.0);
        let mut img = GrayImage::new(16, 16);
        let mut v = 0u8;
        img.map_in_place(|_| {
            v = v.wrapping_add(1);
            v
        });
        let e = img.entropy();
        assert!(e > 0.0 && e <= 8.0);
    }

    #[test]
    fn histogram_sums_to_len() {
        let img = GrayImage::from_pixels(2, 3, vec![1, 1, 2, 3, 3, 3]);
        let h = img.histogram();
        assert_eq!(h.iter().sum::<u64>(), 6);
        assert_eq!(h[3], 3);
    }

    #[test]
    fn downscale_averages() {
        let img = GrayImage::from_pixels(2, 2, vec![0, 100, 100, 200]);
        let d = img.downscale(2);
        assert_eq!(d.width(), 1);
        assert_eq!(d.height(), 1);
        assert_eq!(d.get(0, 0), 100);
    }

    #[test]
    fn rows_are_contiguous() {
        let img = GrayImage::from_pixels(3, 2, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(img.row(0), &[1, 2, 3]);
        assert_eq!(img.row(1), &[4, 5, 6]);
    }
}
