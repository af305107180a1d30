//! The left-right mirror permutation of a gray-block instance.
//!
//! The paper's step 1 adds every sub-picture's left-right mirror to its
//! bag, so a gray-block bag is a run of pairs `[x₀, P·x₀, x₁, P·x₁, …]`
//! where `P` reverses each row of the `h × h` sample matrix. [`Mirror`]
//! is the one definition of `P`: the featuriser builds the mirror
//! instances with it, and the ranking store uses it to keep only the
//! even instances of a mirror-closed bag and read the odd ones back
//! through the permutation.

/// The mirror permutation `P` of `h × h` row-major instances:
/// `(P·x)[y·h + c] = x[y·h + (h − 1 − c)]`. `P` is an involution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mirror {
    /// `(P·x)[i] = x[index[i]]`; every entry is below `index.len()`.
    index: Vec<u32>,
    /// Per block of 4 output coordinates `4b..4b + 4`: the first input
    /// `s` when the block reads `x[s + 3], x[s + 2], x[s + 1], x[s]` (a
    /// reversed run inside one row), or -1 when it straddles two rows.
    runs: Vec<i32>,
}

impl Mirror {
    /// The permutation of `h × h` matrices.
    ///
    /// # Panics
    /// Panics if `h` is zero or `h²` does not fit a `u32` index.
    pub fn new(h: usize) -> Self {
        assert!(h > 0, "mirror side must be non-zero");
        let dim = h.checked_mul(h).expect("mirror dimension overflows");
        assert!(u32::try_from(dim).is_ok(), "mirror dimension overflows");
        let index: Vec<u32> = (0..h)
            .flat_map(|y| (0..h).map(move |c| (y * h + (h - 1 - c)) as u32))
            .collect();
        let runs = index
            .chunks_exact(4)
            .map(|block| {
                let s = block[3];
                if block == [s + 3, s + 2, s + 1, s] {
                    s as i32
                } else {
                    -1
                }
            })
            .collect();
        Self { index, runs }
    }

    /// The permutation of `dim`-element instances when `dim = h²` for
    /// some `h` (the gray-block layout), otherwise `None`.
    pub fn for_dim(dim: usize) -> Option<Self> {
        let h = (dim as f64).sqrt().round() as usize;
        (h > 0 && h.checked_mul(h) == Some(dim) && u32::try_from(dim).is_ok()).then(|| Self::new(h))
    }

    /// Number of elements the permutation acts on (`h²`).
    pub(crate) fn dim(&self) -> usize {
        self.index.len()
    }

    /// The index table: element `i` of `P·x` is `x[index[i]]`.
    pub(crate) fn index(&self) -> &[u32] {
        &self.index
    }

    /// The reversed runs of the index table, one per full block of 4
    /// output coordinates (see the field).
    pub(crate) fn runs(&self) -> &[i32] {
        &self.runs
    }

    /// `P·x`.
    ///
    /// # Panics
    /// Panics if `x` does not have `h²` elements.
    pub fn apply<T: Copy>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.dim(), "mirror applied to the wrong dimension");
        self.index.iter().map(|&j| x[j as usize]).collect()
    }

    /// Whether `twin` is `P·x` bit for bit (so `-0.0` and `0.0` differ,
    /// and a NaN matches only the same NaN payload).
    fn is_twin(&self, x: &[f32], twin: &[f32]) -> bool {
        x.len() == self.dim()
            && twin.len() == self.dim()
            && self
                .index
                .iter()
                .zip(twin)
                .all(|(&j, t)| x[j as usize].to_bits() == t.to_bits())
    }

    /// Whether a bag's instances come in mirror pairs
    /// `[x₀, P·x₀, x₁, P·x₁, …]`: an even, non-zero count, each odd
    /// instance bitwise `P` of the one before it.
    pub(crate) fn closes<'a>(&self, instances: impl IntoIterator<Item = &'a [f32]>) -> bool {
        let mut instances = instances.into_iter();
        let mut pairs = 0usize;
        loop {
            match (instances.next(), instances.next()) {
                (None, _) => return pairs > 0,
                (Some(x), Some(twin)) if self.is_twin(x, twin) => pairs += 1,
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverses_each_row() {
        let mirror = Mirror::new(3);
        let x: Vec<f32> = (0..9).map(|v| v as f32).collect();
        assert_eq!(
            mirror.apply(&x),
            vec![2.0, 1.0, 0.0, 5.0, 4.0, 3.0, 8.0, 7.0, 6.0]
        );
        // An involution.
        assert_eq!(mirror.apply(&mirror.apply(&x)), x);
        // Blocks 0..4 and 4..8 of a 10 × 10 mirror read reversed runs;
        // block 8..12 straddles rows 0 and 1.
        assert_eq!(&Mirror::new(10).runs()[..3], &[6, 2, -1]);
        assert!(mirror.is_twin(&x, &mirror.apply(&x)));
    }

    #[test]
    fn only_square_dimensions_mirror() {
        assert_eq!(Mirror::for_dim(100).map(|m| m.dim()), Some(100));
        assert_eq!(Mirror::for_dim(1).map(|m| m.dim()), Some(1));
        assert!(Mirror::for_dim(0).is_none());
        assert!(Mirror::for_dim(5).is_none());
        assert!(Mirror::for_dim(300).is_none());
    }

    #[test]
    fn closure_is_bitwise() {
        let mirror = Mirror::new(2);
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let twin = mirror.apply(&x);
        assert!(mirror.closes([&x[..], &twin[..]].into_iter()));
        // Odd length, empty, one flipped bit, and -0.0 against 0.0.
        assert!(!mirror.closes([&x[..], &twin[..], &x[..]].into_iter()));
        assert!(!mirror.closes(std::iter::empty::<&[f32]>()));
        let mut flipped = twin.clone();
        flipped[3] = f32::from_bits(flipped[3].to_bits() ^ 1);
        assert!(!mirror.closes([&x[..], &flipped[..]].into_iter()));
        let zero = [0.0f32; 4];
        let negative_zero = [-0.0f32; 4];
        assert!(!mirror.closes([&zero[..], &negative_zero[..]].into_iter()));
    }
}
