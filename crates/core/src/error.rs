//! Error type of the retrieval system.

use std::fmt;

use milr_imgproc::ImageError;
use milr_mil::MilError;

/// Errors surfaced by preprocessing, training and querying.
#[derive(Debug)]
pub enum CoreError {
    /// An image yielded no usable instances: every region fell below the
    /// variance threshold and even the whole-image fallback was flat.
    BlankImage {
        /// Index of the offending image in its collection, when known.
        index: Option<usize>,
    },
    /// The query has no positive examples of the target category to
    /// start from.
    NoExamples,
    /// A ranking was requested before any training round had run.
    NotTrained,
    /// A referenced category does not exist in the database.
    UnknownCategory {
        /// The requested category index.
        category: usize,
        /// Number of categories present.
        available: usize,
    },
    /// An index referenced an image outside the database.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// Database size.
        len: usize,
    },
    /// A feedback operation needed category labels but the session was
    /// opened from explicit examples with no target category (the server
    /// path, where a human supplies the marks instead).
    NoTargetCategory,
    /// A concept reached a database, snapshot or shard subset of another
    /// feature dimension: a caller mistake, not a training failure.
    ConceptDimension {
        /// The concept's dimension.
        concept: usize,
        /// The feature dimension of the bags it was asked to rank.
        expected: usize,
    },
    /// A [`crate::database::RankScope`] that only a query session can
    /// resolve (`Pool`/`Test`) reached a database-level rank call.
    InvalidScope {
        /// The unresolvable scope's name (`"pool"` or `"test"`).
        scope: &'static str,
    },
    /// A snapshot/persistence failure: the file at `path` could not be
    /// read, written, or decoded.
    Storage {
        /// The file the operation touched.
        path: String,
        /// What went wrong (I/O detail or format violation).
        reason: String,
    },
    /// A configuration field is out of range; the message names it
    /// (`resolution must be at least 2, got 1`).
    Config(String),
    /// An underlying image-processing failure.
    Image(ImageError),
    /// An underlying multiple-instance learning failure.
    Mil(MilError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BlankImage { index: Some(i) } => {
                write!(f, "image {i} yielded no usable instances (flat content)")
            }
            Self::BlankImage { index: None } => {
                write!(f, "image yielded no usable instances (flat content)")
            }
            Self::NoExamples => write!(f, "the query has no positive examples"),
            Self::NotTrained => {
                write!(
                    f,
                    "no concept has been trained yet; run a training round first"
                )
            }
            Self::UnknownCategory {
                category,
                available,
            } => {
                write!(
                    f,
                    "category {category} does not exist ({available} categories)"
                )
            }
            Self::IndexOutOfBounds { index, len } => {
                write!(
                    f,
                    "image index {index} out of bounds (database holds {len})"
                )
            }
            Self::NoTargetCategory => {
                write!(
                    f,
                    "the session has no target category; simulated feedback needs \
                     one (use explicit marks instead)"
                )
            }
            Self::ConceptDimension { concept, expected } => {
                write!(
                    f,
                    "concept dimension {concept} does not match the database's \
                     feature dimension {expected}"
                )
            }
            Self::InvalidScope { scope } => {
                write!(
                    f,
                    "rank scope `{scope}` is only meaningful inside a query \
                     session; databases rank `all` or explicit indices"
                )
            }
            Self::Storage { path, reason } => {
                write!(f, "storage failure at {path}: {reason}")
            }
            Self::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Self::Image(e) => write!(f, "image processing failed: {e}"),
            Self::Mil(e) => write!(f, "training failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Image(e) => Some(e),
            Self::Mil(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ImageError> for CoreError {
    fn from(e: ImageError) -> Self {
        Self::Image(e)
    }
}

impl From<MilError> for CoreError {
    fn from(e: MilError) -> Self {
        Self::Mil(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_identify_the_problem() {
        assert!(CoreError::BlankImage { index: Some(3) }
            .to_string()
            .contains("image 3"));
        assert!(CoreError::NoExamples
            .to_string()
            .contains("positive examples"));
        let e = CoreError::UnknownCategory {
            category: 9,
            available: 5,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('5'));
        let e = CoreError::IndexOutOfBounds { index: 10, len: 4 };
        assert!(e.to_string().contains("10") && e.to_string().contains('4'));
        let e = CoreError::Storage {
            path: "/tmp/db.milr".into(),
            reason: "bad magic".into(),
        };
        assert!(e.to_string().contains("/tmp/db.milr"));
        assert!(e.to_string().contains("bad magic"));
        assert!(CoreError::NoTargetCategory
            .to_string()
            .contains("target category"));
        let e = CoreError::ConceptDimension {
            concept: 100,
            expected: 25,
        };
        assert_eq!(
            e.to_string(),
            "concept dimension 100 does not match the database's feature dimension 25"
        );
        let e = CoreError::Config("resolution must be at least 2, got 1".into());
        assert_eq!(
            e.to_string(),
            "invalid configuration: resolution must be at least 2, got 1"
        );
        let e = CoreError::InvalidScope { scope: "pool" };
        assert!(e.to_string().contains("pool"));
        assert!(e.to_string().contains("session"));
    }

    #[test]
    fn wrapped_errors_expose_sources() {
        use std::error::Error as _;
        let e = CoreError::from(MilError::NoPositiveBags);
        assert!(e.source().is_some());
        let e = CoreError::from(ImageError::InvalidDimensions {
            width: 0,
            height: 0,
        });
        assert!(e.source().is_some());
    }
}
