//! Bags, instances, and multiple-instance datasets (§2.1.2).
//!
//! An *instance* is a `k`-dimensional feature vector; a *bag* is a set of
//! instances carrying one collective label. A positive label asserts that
//! *at least one* instance matches the target concept; a negative label
//! asserts that *none* do. In the retrieval system a bag holds the
//! normalised region features of one image.

use std::fmt;

/// Label of one bag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BagLabel {
    /// At least one instance matches the concept.
    Positive,
    /// No instance matches the concept.
    Negative,
}

/// A bag of equally-dimensioned feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Bag {
    instances: Vec<Vec<f32>>,
    dim: usize,
}

impl Bag {
    /// Creates a bag from instance vectors.
    ///
    /// # Errors
    /// * [`MilError::EmptyBag`] if `instances` is empty.
    /// * [`MilError::DimensionMismatch`] if the instances disagree in
    ///   length or any instance is empty.
    pub fn new(instances: Vec<Vec<f32>>) -> Result<Self, MilError> {
        let dim = instances.first().ok_or(MilError::EmptyBag)?.len();
        if dim == 0 {
            return Err(MilError::DimensionMismatch {
                expected: 1,
                actual: 0,
            });
        }
        for inst in &instances {
            if inst.len() != dim {
                return Err(MilError::DimensionMismatch {
                    expected: dim,
                    actual: inst.len(),
                });
            }
        }
        Ok(Self { instances, dim })
    }

    /// Feature dimension shared by all instances.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of instances.
    #[inline]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Always `false`: empty bags cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The instances as slices.
    pub fn instances(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.instances.iter().map(Vec::as_slice)
    }

    /// One instance by index.
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    pub fn instance(&self, index: usize) -> &[f32] {
        &self.instances[index]
    }
}

/// A labelled multiple-instance dataset: the positive and negative bags
/// the user selected (plus simulated-feedback additions).
#[derive(Debug, Clone, Default)]
pub struct MilDataset {
    positives: Vec<Bag>,
    negatives: Vec<Bag>,
}

impl MilDataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a bag under a label.
    ///
    /// # Errors
    /// Returns [`MilError::DimensionMismatch`] if the bag's dimension
    /// differs from bags already present.
    pub fn push(&mut self, bag: Bag, label: BagLabel) -> Result<(), MilError> {
        if let Some(dim) = self.dim() {
            if bag.dim() != dim {
                return Err(MilError::DimensionMismatch {
                    expected: dim,
                    actual: bag.dim(),
                });
            }
        }
        match label {
            BagLabel::Positive => self.positives.push(bag),
            BagLabel::Negative => self.negatives.push(bag),
        }
        Ok(())
    }

    /// Shared feature dimension, or `None` while the dataset is empty.
    pub fn dim(&self) -> Option<usize> {
        self.positives
            .first()
            .or_else(|| self.negatives.first())
            .map(Bag::dim)
    }

    /// The positive bags.
    pub fn positives(&self) -> &[Bag] {
        &self.positives
    }

    /// The negative bags.
    pub fn negatives(&self) -> &[Bag] {
        &self.negatives
    }

    /// Total number of bags.
    pub fn len(&self) -> usize {
        self.positives.len() + self.negatives.len()
    }

    /// Whether no bags have been added.
    pub fn is_empty(&self) -> bool {
        self.positives.is_empty() && self.negatives.is_empty()
    }

    /// Total number of instances across all bags.
    pub fn instance_count(&self) -> usize {
        self.positives
            .iter()
            .chain(&self.negatives)
            .map(Bag::len)
            .sum()
    }

    /// Validates that training is possible: at least one positive bag and
    /// a consistent dimension.
    ///
    /// # Errors
    /// Returns [`MilError::NoPositiveBags`] when training would have no
    /// starting points.
    pub(crate) fn check_trainable(&self) -> Result<(), MilError> {
        if self.positives.is_empty() {
            return Err(MilError::NoPositiveBags);
        }
        Ok(())
    }
}

/// Errors of bag and dataset construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MilError {
    /// A bag must contain at least one instance.
    EmptyBag,
    /// Instances or bags disagree on the feature dimension.
    DimensionMismatch {
        /// The established dimension.
        expected: usize,
        /// The offending dimension.
        actual: usize,
    },
    /// Training requires at least one positive bag (all gradient-ascent
    /// starts come from positive instances).
    NoPositiveBags,
    /// A training policy or start-bag selection had invalid parameters.
    InvalidPolicy(String),
}

impl fmt::Display for MilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyBag => write!(f, "a bag must contain at least one instance"),
            Self::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "instance dimension {actual} does not match expected {expected}"
                )
            }
            Self::NoPositiveBags => {
                write!(f, "training requires at least one positive bag")
            }
            Self::InvalidPolicy(msg) => write!(f, "invalid training policy: {msg}"),
        }
    }
}

impl std::error::Error for MilError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(v: &[&[f32]]) -> Bag {
        Bag::new(v.iter().map(|s| s.to_vec()).collect()).unwrap()
    }

    #[test]
    fn bag_requires_instances() {
        assert_eq!(Bag::new(vec![]), Err(MilError::EmptyBag));
    }

    #[test]
    fn bag_rejects_ragged_instances() {
        let err = Bag::new(vec![vec![1.0, 2.0], vec![1.0]]);
        assert_eq!(
            err,
            Err(MilError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn bag_rejects_zero_dimensional_instances() {
        assert!(Bag::new(vec![vec![]]).is_err());
    }

    #[test]
    fn bag_accessors() {
        let b = bag(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(b.dim(), 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.instance(1), &[3.0, 4.0]);
        let collected: Vec<&[f32]> = b.instances().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn dataset_tracks_labels_separately() {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[0.0]]), BagLabel::Positive).unwrap();
        ds.push(bag(&[&[1.0]]), BagLabel::Negative).unwrap();
        ds.push(bag(&[&[2.0]]), BagLabel::Negative).unwrap();
        assert_eq!(ds.positives().len(), 1);
        assert_eq!(ds.negatives().len(), 2);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.instance_count(), 3);
        assert_eq!(ds.dim(), Some(1));
    }

    #[test]
    fn dataset_enforces_consistent_dimensions() {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[0.0, 0.0]]), BagLabel::Positive).unwrap();
        let err = ds.push(bag(&[&[0.0]]), BagLabel::Negative);
        assert_eq!(
            err,
            Err(MilError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn empty_dataset_properties() {
        let ds = MilDataset::new();
        assert!(ds.is_empty());
        assert_eq!(ds.dim(), None);
        assert_eq!(ds.check_trainable(), Err(MilError::NoPositiveBags));
    }

    #[test]
    fn trainable_requires_positive_bags() {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[0.0]]), BagLabel::Negative).unwrap();
        assert_eq!(ds.check_trainable(), Err(MilError::NoPositiveBags));
        ds.push(bag(&[&[1.0]]), BagLabel::Positive).unwrap();
        assert!(ds.check_trainable().is_ok());
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(MilError::EmptyBag
            .to_string()
            .contains("at least one instance"));
        assert!(MilError::NoPositiveBags
            .to_string()
            .contains("positive bag"));
        let e = MilError::DimensionMismatch {
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
    }
}
