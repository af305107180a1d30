//! Sub-region geometry and the paper's region layouts (§3.2, Fig. 3-5).
//!
//! The paper considers a fixed family of overlapping rectangular
//! sub-regions per image. With the standard layout there are 20 regions,
//! each contributing the region itself plus its left-right mirror — up to
//! 40 instances per bag. Section 4.2.2 additionally evaluates smaller and
//! larger families yielding 18 and 84 instances per bag; those are the
//! [`RegionLayout::Small`] (9 regions) and [`RegionLayout::Large`]
//! (42 regions) variants here.
//!
//! The exact rectangles in Fig. 3-5 are not tabulated in the paper, so the
//! layouts are generated from scale/grid pyramids: a region family is the
//! union of `g × g` grids of windows whose side is a fixed fraction of the
//! image, positioned so their offsets evenly cover the image (adjacent
//! windows overlap whenever `g > 1/fraction`), plus the four half-image
//! windows and centred windows. Counts are locked by unit tests.

use crate::error::ImageError;

/// An axis-aligned rectangle in pixel coordinates (top-left origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x: usize,
    /// Top edge (inclusive).
    pub y: usize,
    /// Width in pixels (non-zero for valid regions).
    pub width: usize,
    /// Height in pixels (non-zero for valid regions).
    pub height: usize,
}

impl Rect {
    /// Creates a rectangle at `(x, y)` with the given size.
    pub const fn new(x: usize, y: usize, width: usize, height: usize) -> Self {
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// A rectangle covering an entire `width × height` image.
    pub const fn full(width: usize, height: usize) -> Self {
        Self {
            x: 0,
            y: 0,
            width,
            height,
        }
    }

    /// Number of pixels covered.
    #[inline]
    pub const fn area(&self) -> usize {
        self.width * self.height
    }

    /// Whether the rectangle lies entirely inside a `width × height` image.
    #[inline]
    pub const fn fits_within(&self, width: usize, height: usize) -> bool {
        self.width > 0
            && self.height > 0
            && self.x + self.width <= width
            && self.y + self.height <= height
    }

    /// Exclusive right edge.
    #[inline]
    pub const fn right(&self) -> usize {
        self.x + self.width
    }

    /// Exclusive bottom edge.
    #[inline]
    pub const fn bottom(&self) -> usize {
        self.y + self.height
    }

    /// Validates the rectangle against an image size.
    ///
    /// # Errors
    /// Returns [`ImageError::RegionOutOfBounds`] when the rectangle does
    /// not fit.
    pub(crate) fn check_within(&self, width: usize, height: usize) -> Result<(), ImageError> {
        if self.fits_within(width, height) {
            Ok(())
        } else {
            Err(ImageError::RegionOutOfBounds {
                region: (self.x, self.y, self.width, self.height),
                width,
                height,
            })
        }
    }
}

/// The region families studied in the paper.
///
/// Each region later contributes two instances (itself and its mirror),
/// so the instance budgets are 18 / 40 / 84 before variance filtering —
/// exactly the three settings of Fig. 4-18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionLayout {
    /// 9 regions → up to 18 instances per bag.
    Small,
    /// 20 regions → up to 40 instances per bag (the paper's default,
    /// Fig. 3-5).
    Standard,
    /// 42 regions → up to 84 instances per bag.
    Large,
}

impl RegionLayout {
    /// Number of regions this layout generates for any image size.
    pub const fn region_count(self) -> usize {
        match self {
            Self::Small => 9,
            Self::Standard => 20,
            Self::Large => 42,
        }
    }

    /// Upper bound on instances per bag (2 × regions: original + mirror).
    pub const fn max_instances(self) -> usize {
        2 * self.region_count()
    }

    /// Generates the concrete rectangles for a `width × height` image.
    ///
    /// All returned rectangles fit within the image. Degenerate
    /// (duplicate) rectangles can occur on very small images where
    /// different fractional windows round to the same pixels; callers
    /// that care should deduplicate.
    ///
    /// # Errors
    /// Returns [`ImageError::InvalidDimensions`] if the image is smaller
    /// than 4×4, below which fractional windows collapse.
    pub fn regions(self, width: usize, height: usize) -> Result<Vec<Rect>, ImageError> {
        if width < 4 || height < 4 {
            return Err(ImageError::InvalidDimensions { width, height });
        }
        let mut out = Vec::with_capacity(self.region_count());
        match self {
            Self::Small => {
                // 1 whole + 4 quadrant-scale (2x2 grid at 0.6) + 4 halves.
                out.push(Rect::full(width, height));
                push_grid(&mut out, width, height, 0.6, 2);
                push_halves(&mut out, width, height);
            }
            Self::Standard => {
                // 1 whole + 4 (2x2 @ 0.75) + 9 (3x3 @ 0.5) + 4 halves
                // + 2 centred (0.6 and 0.4) = 20.
                out.push(Rect::full(width, height));
                push_grid(&mut out, width, height, 0.75, 2);
                push_grid(&mut out, width, height, 0.5, 3);
                push_halves(&mut out, width, height);
                out.push(centered(width, height, 0.6));
                out.push(centered(width, height, 0.4));
            }
            Self::Large => {
                // 1 whole + 4 (2x2 @ 0.75) + 9 (3x3 @ 0.5) + 16 (4x4 @ 0.4)
                // + 4 (2x2 @ 0.6) + 4 halves + 4 centred
                //   (0.8, 0.6, 0.45, 0.3) = 42.
                out.push(Rect::full(width, height));
                push_grid(&mut out, width, height, 0.75, 2);
                push_grid(&mut out, width, height, 0.5, 3);
                push_grid(&mut out, width, height, 0.4, 4);
                push_grid(&mut out, width, height, 0.6, 2);
                push_halves(&mut out, width, height);
                out.push(centered(width, height, 0.8));
                out.push(centered(width, height, 0.6));
                out.push(centered(width, height, 0.45));
                out.push(centered(width, height, 0.3));
            }
        }
        debug_assert_eq!(out.len(), self.region_count());
        for r in &out {
            debug_assert!(r.fits_within(width, height), "layout produced {r:?}");
        }
        Ok(out)
    }
}

/// A `g × g` grid of windows whose side is `fraction` of each image
/// dimension, with offsets evenly covering `[0, (1-fraction)·dim]`.
fn push_grid(out: &mut Vec<Rect>, width: usize, height: usize, fraction: f64, g: usize) {
    let w = window_len(width, fraction);
    let h = window_len(height, fraction);
    for gy in 0..g {
        for gx in 0..g {
            let x = offset(width, w, gx, g);
            let y = offset(height, h, gy, g);
            out.push(Rect::new(x, y, w, h));
        }
    }
}

/// Top, bottom, left and right half-image windows.
fn push_halves(out: &mut Vec<Rect>, width: usize, height: usize) {
    let hw = (width / 2).max(1);
    let hh = (height / 2).max(1);
    out.push(Rect::new(0, 0, width, hh)); // top half
    out.push(Rect::new(0, height - hh, width, hh)); // bottom half
    out.push(Rect::new(0, 0, hw, height)); // left half
    out.push(Rect::new(width - hw, 0, hw, height)); // right half
}

/// A centred window whose side is `fraction` of each dimension.
fn centered(width: usize, height: usize, fraction: f64) -> Rect {
    let w = window_len(width, fraction);
    let h = window_len(height, fraction);
    Rect::new((width - w) / 2, (height - h) / 2, w, h)
}

fn window_len(dim: usize, fraction: f64) -> usize {
    (((dim as f64) * fraction).round() as usize).clamp(1, dim)
}

fn offset(dim: usize, window: usize, index: usize, count: usize) -> usize {
    let slack = dim - window;
    if count <= 1 {
        slack / 2
    } else {
        // Evenly distribute `count` offsets over [0, slack].
        (slack as f64 * index as f64 / (count - 1) as f64).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_area_and_edges() {
        let r = Rect::new(2, 3, 4, 5);
        assert_eq!(r.area(), 20);
        assert_eq!(r.right(), 6);
        assert_eq!(r.bottom(), 8);
    }

    #[test]
    fn rect_fit_checks() {
        assert!(Rect::new(0, 0, 10, 10).fits_within(10, 10));
        assert!(!Rect::new(1, 0, 10, 10).fits_within(10, 10));
        assert!(!Rect::new(0, 0, 0, 5).fits_within(10, 10));
        assert!(Rect::new(5, 5, 5, 5).check_within(10, 10).is_ok());
        assert!(Rect::new(6, 5, 5, 5).check_within(10, 10).is_err());
    }

    #[test]
    fn layout_counts_match_paper() {
        assert_eq!(RegionLayout::Small.region_count(), 9);
        assert_eq!(RegionLayout::Standard.region_count(), 20);
        assert_eq!(RegionLayout::Large.region_count(), 42);
        assert_eq!(RegionLayout::Small.max_instances(), 18);
        assert_eq!(RegionLayout::Standard.max_instances(), 40);
        assert_eq!(RegionLayout::Large.max_instances(), 84);
    }

    #[test]
    fn generated_counts_match_declared_counts() {
        for layout in [
            RegionLayout::Small,
            RegionLayout::Standard,
            RegionLayout::Large,
        ] {
            for (w, h) in [(128, 96), (96, 96), (64, 48), (33, 47)] {
                let regions = layout.regions(w, h).unwrap();
                assert_eq!(
                    regions.len(),
                    layout.region_count(),
                    "{layout:?} at {w}x{h}"
                );
            }
        }
    }

    #[test]
    fn all_regions_fit_inside_image() {
        for layout in [
            RegionLayout::Small,
            RegionLayout::Standard,
            RegionLayout::Large,
        ] {
            let regions = layout.regions(120, 80).unwrap();
            for r in regions {
                assert!(r.fits_within(120, 80), "{r:?}");
            }
        }
    }

    #[test]
    fn standard_layout_includes_whole_image() {
        let regions = RegionLayout::Standard.regions(100, 60).unwrap();
        assert_eq!(regions[0], Rect::full(100, 60));
    }

    #[test]
    fn grid_windows_overlap_for_three_by_three_half_scale() {
        // 3x3 grid of half-size windows must overlap: stride = slack/2 =
        // dim/4 < window = dim/2.
        let regions = RegionLayout::Standard.regions(100, 100).unwrap();
        // Regions 5..14 are the 3x3 @ 0.5 grid.
        let grid = &regions[5..14];
        let a = grid[0];
        let b = grid[1];
        let overlap = a.x < b.right() && b.x < a.right() && a.y < b.bottom() && b.y < a.bottom();
        assert!(overlap, "adjacent half-scale windows must overlap");
    }

    #[test]
    fn too_small_images_rejected() {
        assert!(RegionLayout::Standard.regions(3, 50).is_err());
        assert!(RegionLayout::Standard.regions(50, 2).is_err());
    }

    #[test]
    fn standard_regions_are_distinct_on_reasonable_images() {
        use std::collections::HashSet;
        let regions = RegionLayout::Standard.regions(128, 96).unwrap();
        let set: HashSet<Rect> = regions.iter().copied().collect();
        assert_eq!(
            set.len(),
            regions.len(),
            "regions should be distinct at 128x96"
        );
    }

    #[test]
    fn regions_cover_the_image_corners() {
        // Union of the standard family must touch all four corners (via
        // the whole-image region at minimum).
        let regions = RegionLayout::Standard.regions(64, 64).unwrap();
        assert!(regions.iter().any(|r| r.x == 0 && r.y == 0));
        assert!(regions.iter().any(|r| r.right() == 64 && r.bottom() == 64));
    }
}
