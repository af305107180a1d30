//! A small software rasteriser over [`RgbImage`].
//!
//! Provides exactly the primitives the scene and object generators need:
//! solid and gradient fills, rectangles, ellipses, convex/concave polygon
//! fill (even-odd scanline), thick line segments, and per-pixel noise
//! perturbation. All coordinates are `f32` in pixel units; shapes are
//! clipped to the image.

use milr_imgproc::RgbImage;

use crate::noise::FractalNoise;

/// An RGB colour, `[0, 255]` per channel.
pub type Color = [f32; 3];

/// Linearly interpolates two colours.
pub(crate) fn lerp_color(a: Color, b: Color, t: f32) -> Color {
    let t = t.clamp(0.0, 1.0);
    [
        a[0] + (b[0] - a[0]) * t,
        a[1] + (b[1] - a[1]) * t,
        a[2] + (b[2] - a[2]) * t,
    ]
}

/// Scales a colour's brightness by `factor` (clamped at the caller's
/// discretion when writing).
pub(crate) fn scale_color(c: Color, factor: f32) -> Color {
    [c[0] * factor, c[1] * factor, c[2] * factor]
}

/// Fills the whole image with a vertical gradient from `top` to `bottom`.
pub(crate) fn vertical_gradient(image: &mut RgbImage, top: Color, bottom: Color) {
    let h = image.height();
    let w = image.width();
    for y in 0..h {
        let t = y as f32 / (h - 1).max(1) as f32;
        let c = lerp_color(top, bottom, t);
        for x in 0..w {
            image.set(x, y, c);
        }
    }
}

/// Fills an axis-aligned rectangle (clipped).
pub(crate) fn fill_rect(image: &mut RgbImage, x0: f32, y0: f32, x1: f32, y1: f32, color: Color) {
    let xa = x0.max(0.0) as usize;
    let ya = y0.max(0.0) as usize;
    let xb = (x1.min(image.width() as f32)).max(0.0) as usize;
    let yb = (y1.min(image.height() as f32)).max(0.0) as usize;
    for y in ya..yb {
        for x in xa..xb {
            image.set(x, y, color);
        }
    }
}

/// Fills an ellipse centred at `(cx, cy)` with radii `(rx, ry)`.
pub fn fill_ellipse(image: &mut RgbImage, cx: f32, cy: f32, rx: f32, ry: f32, color: Color) {
    if rx <= 0.0 || ry <= 0.0 {
        return;
    }
    let ya = (cy - ry).max(0.0) as usize;
    let yb = ((cy + ry + 1.0).min(image.height() as f32)).max(0.0) as usize;
    let xa = (cx - rx).max(0.0) as usize;
    let xb = ((cx + rx + 1.0).min(image.width() as f32)).max(0.0) as usize;
    for y in ya..yb {
        for x in xa..xb {
            let dx = (x as f32 + 0.5 - cx) / rx;
            let dy = (y as f32 + 0.5 - cy) / ry;
            if dx * dx + dy * dy <= 1.0 {
                image.set(x, y, color);
            }
        }
    }
}

/// Fills a polygon by even-odd scanline; handles concave outlines.
///
/// Degenerate polygons (fewer than 3 vertices) draw nothing.
pub(crate) fn fill_polygon(image: &mut RgbImage, vertices: &[(f32, f32)], color: Color) {
    if vertices.len() < 3 {
        return;
    }
    let y_min = vertices
        .iter()
        .map(|v| v.1)
        .fold(f32::INFINITY, f32::min)
        .max(0.0);
    let y_max = vertices
        .iter()
        .map(|v| v.1)
        .fold(f32::NEG_INFINITY, f32::max)
        .min(image.height() as f32 - 1.0);
    let mut crossings: Vec<f32> = Vec::with_capacity(vertices.len());
    let mut y = y_min.floor();
    while y <= y_max {
        let scan_y = y + 0.5;
        crossings.clear();
        for i in 0..vertices.len() {
            let (x0, y0) = vertices[i];
            let (x1, y1) = vertices[(i + 1) % vertices.len()];
            // Half-open rule avoids double-counting shared vertices.
            if (y0 <= scan_y && scan_y < y1) || (y1 <= scan_y && scan_y < y0) {
                let t = (scan_y - y0) / (y1 - y0);
                crossings.push(x0 + t * (x1 - x0));
            }
        }
        crossings.sort_by(|a, b| a.partial_cmp(b).expect("finite vertices"));
        for pair in crossings.chunks_exact(2) {
            let xa = pair[0].max(0.0) as usize;
            let xb = (pair[1].min(image.width() as f32)).max(0.0) as usize;
            let yi = y.max(0.0) as usize;
            if yi < image.height() {
                for x in xa..xb {
                    image.set(x, yi, color);
                }
            }
        }
        y += 1.0;
    }
}

/// Draws a thick line segment as a filled quad.
pub(crate) fn thick_line(
    image: &mut RgbImage,
    x0: f32,
    y0: f32,
    x1: f32,
    y1: f32,
    thickness: f32,
    color: Color,
) {
    let dx = x1 - x0;
    let dy = y1 - y0;
    let len = (dx * dx + dy * dy).sqrt();
    if len < 1e-6 {
        fill_ellipse(image, x0, y0, thickness * 0.5, thickness * 0.5, color);
        return;
    }
    let nx = -dy / len * thickness * 0.5;
    let ny = dx / len * thickness * 0.5;
    fill_polygon(
        image,
        &[
            (x0 + nx, y0 + ny),
            (x1 + nx, y1 + ny),
            (x1 - nx, y1 - ny),
            (x0 - nx, y0 - ny),
        ],
        color,
    );
}

/// Modulates the image's brightness with fractal noise:
/// `pixel *= 1 + strength·(noise − 0.5)`. `region` restricts the effect
/// to rows `[y0, y1)` when given.
pub fn perturb_with_noise(
    image: &mut RgbImage,
    noise: &FractalNoise,
    strength: f32,
    rows: Option<(usize, usize)>,
) {
    let (w, h) = (image.width(), image.height());
    let (ya, yb) = rows.unwrap_or((0, h));
    for y in ya..yb.min(h) {
        for x in 0..w {
            let n = noise.sample(x as f32 / w as f32, y as f32 / h as f32);
            let factor = 1.0 + strength * (n - 0.5);
            let c = image.get(x, y);
            image.set(x, y, scale_color(c, factor));
        }
    }
}

/// Clamps every channel into `[0, 255]` — call once after composing.
pub fn finalize(image: &mut RgbImage) {
    image.clamp_in_place(0.0, 255.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank(w: usize, h: usize) -> RgbImage {
        RgbImage::filled(w, h, [0.0; 3]).unwrap()
    }

    #[test]
    fn gradient_interpolates_endpoints() {
        let mut img = blank(4, 10);
        vertical_gradient(&mut img, [0.0; 3], [255.0; 3]);
        assert_eq!(img.get(0, 0), [0.0; 3]);
        assert_eq!(img.get(3, 9), [255.0; 3]);
        let mid = img.get(2, 4)[0];
        assert!(mid > 80.0 && mid < 160.0, "mid = {mid}");
    }

    #[test]
    fn rect_fills_and_clips() {
        let mut img = blank(10, 10);
        fill_rect(&mut img, 2.0, 3.0, 5.0, 6.0, [9.0; 3]);
        assert_eq!(img.get(2, 3), [9.0; 3]);
        assert_eq!(img.get(4, 5), [9.0; 3]);
        assert_eq!(img.get(5, 6), [0.0; 3]); // exclusive edges
                                             // Off-image rect is silently clipped.
        fill_rect(&mut img, -5.0, -5.0, 100.0, 1.0, [7.0; 3]);
        assert_eq!(img.get(0, 0), [7.0; 3]);
        assert_eq!(img.get(9, 0), [7.0; 3]);
    }

    #[test]
    fn ellipse_covers_center_not_corners() {
        let mut img = blank(20, 20);
        fill_ellipse(&mut img, 10.0, 10.0, 6.0, 4.0, [1.0; 3]);
        assert_eq!(img.get(10, 10), [1.0; 3]);
        assert_eq!(img.get(0, 0), [0.0; 3]);
        assert_eq!(img.get(15, 10), [1.0; 3]); // inside rx
        assert_eq!(img.get(10, 15), [0.0; 3]); // outside ry
    }

    #[test]
    fn triangle_fill() {
        let mut img = blank(20, 20);
        fill_polygon(
            &mut img,
            &[(10.0, 2.0), (18.0, 18.0), (2.0, 18.0)],
            [5.0; 3],
        );
        assert_eq!(img.get(10, 10), [5.0; 3]); // inside
        assert_eq!(img.get(2, 2), [0.0; 3]); // outside
        assert_eq!(img.get(10, 16), [5.0; 3]); // near base
    }

    #[test]
    fn concave_polygon_fill_is_even_odd() {
        // A "U" shape: the notch between the arms must stay empty.
        let mut img = blank(30, 30);
        let u = [
            (5.0, 5.0),
            (10.0, 5.0),
            (10.0, 20.0),
            (20.0, 20.0),
            (20.0, 5.0),
            (25.0, 5.0),
            (25.0, 25.0),
            (5.0, 25.0),
        ];
        fill_polygon(&mut img, &u, [3.0; 3]);
        assert_eq!(img.get(7, 10), [3.0; 3]); // left arm
        assert_eq!(img.get(22, 10), [3.0; 3]); // right arm
        assert_eq!(img.get(15, 10), [0.0; 3]); // notch
        assert_eq!(img.get(15, 22), [3.0; 3]); // base
    }

    #[test]
    fn degenerate_polygon_draws_nothing() {
        let mut img = blank(5, 5);
        fill_polygon(&mut img, &[(1.0, 1.0), (3.0, 3.0)], [9.0; 3]);
        assert!(img.channels().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn thick_line_covers_its_midpoint() {
        let mut img = blank(20, 20);
        thick_line(&mut img, 2.0, 10.0, 18.0, 10.0, 4.0, [8.0; 3]);
        assert_eq!(img.get(10, 10), [8.0; 3]);
        assert_eq!(img.get(10, 2), [0.0; 3]);
    }

    #[test]
    fn noise_perturbation_changes_brightness_but_not_mean_wildly() {
        let mut img = RgbImage::filled(32, 32, [100.0; 3]).unwrap();
        let noise = FractalNoise::new(9, 3, 6.0);
        perturb_with_noise(&mut img, &noise, 0.5, None);
        let mean = img.mean_rgb()[0];
        assert!((mean - 100.0).abs() < 20.0, "mean drifted to {mean}");
        // Some variation must exist now.
        let gray = img.to_gray();
        assert!(gray.variance() > 1.0);
    }

    #[test]
    fn row_restricted_noise_leaves_other_rows_alone() {
        let mut img = RgbImage::filled(16, 16, [100.0; 3]).unwrap();
        let noise = FractalNoise::new(1, 2, 8.0);
        perturb_with_noise(&mut img, &noise, 0.8, Some((8, 16)));
        for x in 0..16 {
            assert_eq!(img.get(x, 3), [100.0; 3]);
        }
    }

    #[test]
    fn finalize_clamps() {
        let mut img = RgbImage::filled(2, 2, [300.0, -5.0, 128.0]).unwrap();
        finalize(&mut img);
        assert_eq!(img.get(0, 0), [255.0, 0.0, 128.0]);
    }

    #[test]
    fn color_helpers() {
        assert_eq!(lerp_color([0.0; 3], [100.0; 3], 0.5), [50.0; 3]);
        assert_eq!(lerp_color([0.0; 3], [100.0; 3], 2.0), [100.0; 3]); // clamped
        assert_eq!(scale_color([10.0, 20.0, 30.0], 2.0), [20.0, 40.0, 60.0]);
    }
}
