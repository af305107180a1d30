//! Concept visualisation — the visual form of Figs. 3-7/3-8/3-9.
//!
//! The paper displays a trained concept as two `h × h` matrices: the
//! ideal feature vector `t` and the weight factors `w`. This module
//! reshapes a [`Concept`] back into those images (rescaled into `[0,
//! 255]` for display) so they can be dumped as PGM files and inspected —
//! the sparsity of unconstrained-DD weight maps is immediately visible.

use milr_imgproc::GrayImage;
use milr_mil::Concept;

use crate::error::CoreError;

/// The ideal feature vector `t` reshaped into its `h × h` matrix and
/// affinely rescaled into `[0, 255]` for display (Fig. 3-7 top).
///
/// # Errors
/// Returns [`CoreError::InvalidInput`] if the concept's dimension is
/// not a perfect square (i.e. it did not come from the `h × h`
/// pipeline).
pub fn concept_point_image(concept: &Concept) -> Result<GrayImage, CoreError> {
    matrix_image(concept.point())
}

/// The weight factors `w` reshaped into their `h × h` matrix and
/// rescaled into `[0, 255]` (Fig. 3-7 bottom). Bright pixels carry large
/// weights; the near-black majority under unconstrained DD *is* the §3.6
/// overfitting picture.
///
/// # Errors
/// Same conditions as [`concept_point_image`].
pub fn concept_weight_image(concept: &Concept) -> Result<GrayImage, CoreError> {
    matrix_image(concept.weights())
}

fn matrix_image(values: &[f64]) -> Result<GrayImage, CoreError> {
    let h = integer_sqrt(values.len()).ok_or_else(|| {
        CoreError::InvalidInput(format!(
            "concept dimension {} is not a perfect square; cannot reshape to h x h",
            values.len()
        ))
    })?;
    let mut image = GrayImage::from_vec(h, h, values.iter().map(|&v| v as f32).collect())
        .map_err(CoreError::from)?;
    image.rescale_to(0.0, 255.0);
    Ok(image)
}

fn integer_sqrt(n: usize) -> Option<usize> {
    let r = (n as f64).sqrt().round() as usize;
    (r * r == n && r > 0).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_image_reshapes_and_rescales() {
        let point: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let concept = Concept::new(point, vec![1.0; 25]);
        let img = concept_point_image(&concept).unwrap();
        assert_eq!((img.width(), img.height()), (5, 5));
        let (lo, hi) = img.min_max();
        assert!((lo - 0.0).abs() < 1e-3);
        assert!((hi - 255.0).abs() < 1e-3);
        // Row-major order preserved: the top-left is the smallest value.
        assert!(img.get(0, 0) < img.get(4, 4));
    }

    #[test]
    fn weight_image_shows_sparsity() {
        // One dominant weight: a single bright pixel on black.
        let mut weights = vec![0.01f64; 16];
        weights[5] = 2.0;
        let concept = Concept::new(vec![0.0; 16], weights);
        let img = concept_weight_image(&concept).unwrap();
        assert!((img.get(1, 1) - 255.0).abs() < 1e-3); // index 5 = (1,1)
        let dark = img.pixels().iter().filter(|&&v| v < 10.0).count();
        assert_eq!(dark, 15, "every other weight pixel is near-black");
    }

    #[test]
    fn uniform_weights_map_to_mid_gray() {
        let concept = Concept::new(vec![0.0; 9], vec![1.0; 9]);
        let img = concept_weight_image(&concept).unwrap();
        // Flat input rescales to the midpoint.
        assert!(img.pixels().iter().all(|&v| (v - 127.5).abs() < 1.0));
    }

    #[test]
    fn non_square_dimension_rejected() {
        let concept = Concept::new(vec![0.0; 10], vec![1.0; 10]);
        assert!(concept_point_image(&concept).is_err());
        assert!(concept_weight_image(&concept).is_err());
    }

    #[test]
    fn non_square_dimension_is_invalid_input_not_a_training_failure() {
        let concept = Concept::new(vec![0.0; 10], vec![1.0; 10]);
        match concept_weight_image(&concept) {
            Err(err @ CoreError::InvalidInput(_)) => {
                let msg = err.to_string();
                assert!(msg.starts_with("invalid input: "), "{msg}");
                assert!(!msg.contains("training failed"), "{msg}");
            }
            other => panic!("expected CoreError::InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn integer_sqrt_edges() {
        assert_eq!(integer_sqrt(1), Some(1));
        assert_eq!(integer_sqrt(100), Some(10));
        assert_eq!(integer_sqrt(99), None);
        assert_eq!(integer_sqrt(0), None);
    }
}
