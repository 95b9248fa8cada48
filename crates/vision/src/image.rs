//! RGB images and single-channel planes, with simple rasterization.
//!
//! Layout is planar CHW (`[3, H, W]` flattened) so an [`Image`] converts to
//! and from [`rd_tensor::Tensor`] batches without reshuffling.

use rd_tensor::Tensor;

/// An RGB color with components in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rgb(pub f32, pub f32, pub f32);

impl Rgb {
    /// Pure black.
    pub const BLACK: Rgb = Rgb(0.0, 0.0, 0.0);
    /// Pure white.
    pub const WHITE: Rgb = Rgb(1.0, 1.0, 1.0);

    /// A neutral gray of the given level.
    pub fn gray(v: f32) -> Rgb {
        Rgb(v, v, v)
    }

    /// Linear interpolation toward `other`.
    pub fn lerp(self, other: Rgb, t: f32) -> Rgb {
        Rgb(
            self.0 + (other.0 - self.0) * t,
            self.1 + (other.1 - self.1) * t,
            self.2 + (other.2 - self.2) * t,
        )
    }

    /// Multiplies every channel by `s` (shading).
    pub fn scale(self, s: f32) -> Rgb {
        Rgb(self.0 * s, self.1 * s, self.2 * s)
    }
}

/// A single-channel float plane (masks, gray patches).
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl Plane {
    /// Creates a plane filled with `v`.
    pub fn new(h: usize, w: usize, v: f32) -> Self {
        Plane {
            h,
            w,
            data: vec![v; h * w],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != h * w`.
    pub fn from_vec(data: Vec<f32>, h: usize, w: usize) -> Self {
        assert_eq!(data.len(), h * w, "plane buffer size mismatch");
        Plane { h, w, data }
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at `(row, col)`.
    pub fn get(&self, y: usize, x: usize) -> f32 {
        self.data[y * self.w + x]
    }

    /// Sets the value at `(row, col)`.
    pub fn set(&mut self, y: usize, x: usize, v: f32) {
        self.data[y * self.w + x] = v;
    }

    /// Fraction of pixels above 0.5 (mask coverage).
    pub fn coverage(&self) -> f32 {
        self.data.iter().filter(|&&v| v > 0.5).count() as f32 / self.data.len() as f32
    }

    /// Converts to a `[1, 1, H, W]` tensor.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.data.clone(), &[1, 1, self.h, self.w])
    }
}

/// A planar RGB image with components in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use rd_vision::{Image, Rgb};
///
/// let mut img = Image::new(8, 8, Rgb::gray(0.5));
/// img.fill_rect(2, 2, 4, 4, Rgb::WHITE);
/// assert_eq!(img.get(3, 3), Rgb::WHITE);
/// assert_eq!(img.get(0, 0), Rgb::gray(0.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    h: usize,
    w: usize,
    /// CHW-planar buffer: `[r-plane, g-plane, b-plane]`.
    data: Vec<f32>,
}

impl Image {
    /// Creates an image filled with `color`.
    pub fn new(h: usize, w: usize, color: Rgb) -> Self {
        let mut data = Vec::with_capacity(3 * h * w);
        data.extend(std::iter::repeat_n(color.0, h * w));
        data.extend(std::iter::repeat_n(color.1, h * w));
        data.extend(std::iter::repeat_n(color.2, h * w));
        Image { h, w, data }
    }

    /// Wraps an existing CHW buffer (typically runtime-arena scratch) as
    /// an image without copying.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 3 * h * w`.
    pub fn from_vec(data: Vec<f32>, h: usize, w: usize) -> Self {
        assert_eq!(data.len(), 3 * h * w, "CHW buffer size mismatch");
        Image { h, w, data }
    }

    /// Consumes the image, handing back the CHW buffer (so frame buffers
    /// can be recycled into the runtime arena).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Flat CHW buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat CHW buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Pixel at `(row, col)`.
    pub fn get(&self, y: usize, x: usize) -> Rgb {
        let hw = self.h * self.w;
        let i = y * self.w + x;
        Rgb(self.data[i], self.data[hw + i], self.data[2 * hw + i])
    }

    /// Sets the pixel at `(row, col)`.
    pub fn set(&mut self, y: usize, x: usize, c: Rgb) {
        let hw = self.h * self.w;
        let i = y * self.w + x;
        self.data[i] = c.0;
        self.data[hw + i] = c.1;
        self.data[2 * hw + i] = c.2;
    }

    /// Alpha-blends `c` over the pixel at `(row, col)`.
    pub fn blend(&mut self, y: usize, x: usize, c: Rgb, alpha: f32) {
        let cur = self.get(y, x);
        self.set(y, x, cur.lerp(c, alpha.clamp(0.0, 1.0)));
    }

    /// Fills an axis-aligned rectangle (clipped to the image).
    pub fn fill_rect(&mut self, y: usize, x: usize, h: usize, w: usize, c: Rgb) {
        for yy in y..(y + h).min(self.h) {
            for xx in x..(x + w).min(self.w) {
                self.set(yy, xx, c);
            }
        }
    }

    /// Fills a circle centred at `(cy, cx)` (clipped to the image).
    pub fn fill_circle(&mut self, cy: f32, cx: f32, r: f32, c: Rgb) {
        let y0 = (cy - r).floor().max(0.0) as usize;
        let y1 = ((cy + r).ceil() as usize).min(self.h);
        let x0 = (cx - r).floor().max(0.0) as usize;
        let x1 = ((cx + r).ceil() as usize).min(self.w);
        for y in y0..y1 {
            for x in x0..x1 {
                let dy = y as f32 + 0.5 - cy;
                let dx = x as f32 + 0.5 - cx;
                if dy * dy + dx * dx <= r * r {
                    self.set(y, x, c);
                }
            }
        }
    }

    /// Fills a convex or concave polygon by even-odd scanline testing.
    pub fn fill_polygon(&mut self, pts: &[(f32, f32)], c: Rgb) {
        if pts.len() < 3 {
            return;
        }
        let ymin = pts
            .iter()
            .map(|p| p.1)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0) as usize;
        let ymax = (pts
            .iter()
            .map(|p| p.1)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil() as usize)
            .min(self.h);
        let xmin = pts
            .iter()
            .map(|p| p.0)
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0) as usize;
        let xmax = (pts
            .iter()
            .map(|p| p.0)
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil() as usize)
            .min(self.w);
        for y in ymin..ymax {
            for x in xmin..xmax {
                if point_in_polygon(x as f32 + 0.5, y as f32 + 0.5, pts) {
                    self.set(y, x, c);
                }
            }
        }
    }

    /// Draws a 1-pixel-wide line segment.
    pub fn draw_line(&mut self, y0: f32, x0: f32, y1: f32, x1: f32, c: Rgb) {
        let steps = ((y1 - y0).abs().max((x1 - x0).abs()).ceil() as usize).max(1);
        for i in 0..=steps {
            let t = i as f32 / steps as f32;
            let y = y0 + (y1 - y0) * t;
            let x = x0 + (x1 - x0) * t;
            if y >= 0.0 && x >= 0.0 && (y as usize) < self.h && (x as usize) < self.w {
                self.set(y as usize, x as usize, c);
            }
        }
    }

    /// Converts to an NCHW tensor `[1, 3, H, W]`.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.data.clone(), &[1, 3, self.h, self.w])
    }

    /// Builds an image from the `n`-th item of an NCHW tensor batch,
    /// clamping to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `[N, 3, H, W]` or `n` is out of range.
    pub fn from_tensor(t: &Tensor, n: usize) -> Self {
        assert_eq!(t.shape().len(), 4, "expected NCHW tensor");
        assert_eq!(t.shape()[1], 3, "expected 3 channels");
        assert!(n < t.shape()[0], "batch index out of range");
        let (h, w) = (t.shape()[2], t.shape()[3]);
        let chw = 3 * h * w;
        let data = t.data()[n * chw..(n + 1) * chw]
            .iter()
            .map(|v| v.clamp(0.0, 1.0))
            .collect();
        Image { h, w, data }
    }

    /// Stacks images (all same size) into an NCHW batch tensor. The
    /// buffer is taken from the runtime arena, so a caller that recycles
    /// the batch hands back a loan the arena counted.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or sizes differ.
    pub fn batch_to_tensor(images: &[Image]) -> Tensor {
        assert!(!images.is_empty(), "empty batch");
        let (h, w) = (images[0].h, images[0].w);
        let chw = 3 * h * w;
        let mut data = rd_tensor::arena::take(images.len() * chw);
        for (dst, img) in data.chunks_mut(chw).zip(images) {
            assert_eq!((img.h, img.w), (h, w), "batch images must share a size");
            dst.copy_from_slice(&img.data);
        }
        Tensor::from_vec(data, &[images.len(), 3, h, w])
    }

    /// Encodes as a binary PPM (P6) file body.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.w, self.h).into_bytes();
        let hw = self.h * self.w;
        for i in 0..hw {
            for ch in 0..3 {
                out.push((self.data[ch * hw + i].clamp(0.0, 1.0) * 255.0).round() as u8);
            }
        }
        out
    }

    /// Writes a PPM file.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn save_ppm(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_ppm())
    }

    /// Horizontally concatenates images of equal height with a 2-px gap.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or heights differ.
    pub fn hstack(images: &[Image]) -> Image {
        assert!(!images.is_empty(), "empty stack");
        let h = images[0].h;
        let total_w: usize = images.iter().map(|i| i.w + 2).sum::<usize>() - 2;
        let mut out = Image::new(h, total_w, Rgb::gray(0.2));
        let mut x0 = 0;
        for img in images {
            assert_eq!(img.h, h, "hstack heights must match");
            for y in 0..h {
                for x in 0..img.w {
                    out.set(y, x0 + x, img.get(y, x));
                }
            }
            x0 += img.w + 2;
        }
        out
    }
}

/// Even-odd point-in-polygon test.
pub fn point_in_polygon(x: f32, y: f32, pts: &[(f32, f32)]) -> bool {
    let mut inside = false;
    let n = pts.len();
    let mut j = n - 1;
    for i in 0..n {
        let (xi, yi) = pts[i];
        let (xj, yj) = pts[j];
        if ((yi > y) != (yj > y)) && (x < (xj - xi) * (y - yi) / (yj - yi) + xi) {
            inside = !inside;
        }
        j = i;
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_roundtrip() {
        let mut img = Image::new(4, 5, Rgb::BLACK);
        img.set(2, 3, Rgb(0.1, 0.5, 0.9));
        let c = img.get(2, 3);
        assert!((c.0 - 0.1).abs() < 1e-6 && (c.1 - 0.5).abs() < 1e-6 && (c.2 - 0.9).abs() < 1e-6);
    }

    #[test]
    fn tensor_roundtrip() {
        let mut img = Image::new(3, 3, Rgb::gray(0.25));
        img.set(1, 1, Rgb(1.0, 0.0, 0.5));
        let t = img.to_tensor();
        assert_eq!(t.shape(), &[1, 3, 3, 3]);
        let back = Image::from_tensor(&t, 0);
        assert_eq!(img, back);
    }

    #[test]
    fn batch_to_tensor_shapes() {
        let a = Image::new(2, 2, Rgb::BLACK);
        let b = Image::new(2, 2, Rgb::WHITE);
        let t = Image::batch_to_tensor(&[a, b]);
        assert_eq!(t.shape(), &[2, 3, 2, 2]);
        assert_eq!(t.at4(1, 0, 0, 0), 1.0);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn fill_circle_inside_outside() {
        let mut img = Image::new(20, 20, Rgb::BLACK);
        img.fill_circle(10.0, 10.0, 5.0, Rgb::WHITE);
        assert_eq!(img.get(10, 10), Rgb::WHITE);
        assert_eq!(img.get(0, 0), Rgb::BLACK);
        assert_eq!(img.get(10, 14), Rgb::WHITE);
        assert_eq!(img.get(10, 16), Rgb::BLACK);
    }

    #[test]
    fn fill_polygon_triangle() {
        let mut img = Image::new(10, 10, Rgb::BLACK);
        img.fill_polygon(&[(1.0, 1.0), (9.0, 1.0), (5.0, 9.0)], Rgb::WHITE);
        assert_eq!(img.get(2, 5), Rgb::WHITE); // inside near the top edge
        assert_eq!(img.get(8, 1), Rgb::BLACK); // bottom-left is outside
    }

    #[test]
    fn blend_is_convex() {
        let mut img = Image::new(1, 1, Rgb::BLACK);
        img.blend(0, 0, Rgb::WHITE, 0.25);
        assert!((img.get(0, 0).0 - 0.25).abs() < 1e-6);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(2, 3, Rgb::WHITE);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), b"P6\n3 2\n255\n".len() + 2 * 3 * 3);
        assert_eq!(*ppm.last().unwrap(), 255);
    }

    #[test]
    fn plane_coverage() {
        let mut p = Plane::new(2, 2, 0.0);
        p.set(0, 0, 1.0);
        p.set(1, 1, 0.9);
        assert!((p.coverage() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn hstack_concatenates() {
        let a = Image::new(2, 2, Rgb::BLACK);
        let b = Image::new(2, 3, Rgb::WHITE);
        let s = Image::hstack(&[a, b]);
        assert_eq!(s.width(), 2 + 2 + 3);
        assert_eq!(s.get(0, 0), Rgb::BLACK);
        assert_eq!(s.get(0, 4), Rgb::WHITE);
    }

    #[test]
    fn clipped_rect_does_not_panic() {
        let mut img = Image::new(4, 4, Rgb::BLACK);
        img.fill_rect(2, 2, 100, 100, Rgb::WHITE);
        assert_eq!(img.get(3, 3), Rgb::WHITE);
    }
}
