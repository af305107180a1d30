//! Deterministic synthetic retrieval corpora.
//!
//! Golden traces and chaos suites need a database that is (a) cheap —
//! no image decoding, no disk — and (b) a pure function of its seed, so
//! every run of every test sees bit-identical bags. Categories are
//! separated clusters in feature space with per-instance seeded jitter:
//! close enough to real §3.5 bags for training to behave, synthetic
//! enough to be instant.

use milr_core::RetrievalDatabase;
use milr_mil::{Bag, Mirror};

use crate::rng::TestkitRng;

/// Categories the synthetic corpus cycles through (image `i` belongs to
/// category `i % CATEGORIES`).
pub const CATEGORIES: usize = 4;

/// Instances per synthetic bag.
pub const INSTANCES_PER_BAG: usize = 3;

/// Builds a clustered synthetic database: `images` bags of dimension
/// `dim`, labels cycling over [`CATEGORIES`] categories, all features a
/// pure function of `seed`.
///
/// # Panics
/// Panics on degenerate arguments (`images == 0` or `dim == 0`) — the
/// corpus is test infrastructure and a bad call is a bug in the test.
pub fn synthetic_database(images: usize, dim: usize, seed: u64) -> RetrievalDatabase {
    let (bags, labels) = synthetic_bags(images, dim, seed);
    RetrievalDatabase::from_bags(bags, labels).expect("consistent synthetic corpus")
}

/// The bags and labels of [`synthetic_database`].
fn synthetic_bags(images: usize, dim: usize, seed: u64) -> (Vec<Bag>, Vec<usize>) {
    assert!(images > 0 && dim > 0, "corpus needs images and dimensions");
    let mut rng = TestkitRng::new(seed);
    let mut bags = Vec::with_capacity(images);
    let mut labels = Vec::with_capacity(images);
    for i in 0..images {
        let category = i % CATEGORIES;
        let mut instances = Vec::with_capacity(INSTANCES_PER_BAG);
        for instance in 0..INSTANCES_PER_BAG {
            let mut features = Vec::with_capacity(dim);
            for d in 0..dim {
                // Cluster centres spread per (category, dimension,
                // instance); jitter keeps bags distinct without
                // overlapping clusters.
                let centre = ((category * 7 + d * 3 + instance) % 11) as f32 / 11.0 * 4.0 - 2.0;
                let jitter = (rng.unit_f64() as f32 - 0.5) * 0.3;
                features.push(centre + jitter);
            }
            instances.push(features);
        }
        bags.push(Bag::new(instances).expect("non-empty synthetic bag"));
        labels.push(category);
    }
    (bags, labels)
}

/// [`synthetic_database`] with every instance followed by its mirror
/// twin `Mirror::apply(x)`: bags shaped like the paper's step 1 builds
/// them, so training and the store see mirror-closed data.
///
/// # Panics
/// As [`synthetic_database`], and when `dim` is not a square `h²`.
pub fn mirror_closed_database(images: usize, dim: usize, seed: u64) -> RetrievalDatabase {
    let mirror = Mirror::for_dim(dim).expect("mirror-closed corpus needs a square dimension");
    let (bags, labels) = synthetic_bags(images, dim, seed);
    let bags = bags
        .iter()
        .map(|bag| {
            let instances = bag
                .instances()
                .flat_map(|x| [x.to_vec(), mirror.apply(x)])
                .collect();
            Bag::new(instances).expect("non-empty synthetic bag")
        })
        .collect();
    RetrievalDatabase::from_bags(bags, labels).expect("consistent synthetic corpus")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_pure_function_of_its_seed() {
        let a = synthetic_database(16, 6, 5);
        let b = synthetic_database(16, 6, 5);
        assert_eq!(a.labels(), b.labels());
        for i in 0..a.len() {
            assert_eq!(a.bag(i).unwrap(), b.bag(i).unwrap());
        }
        let c = synthetic_database(16, 6, 6);
        assert_ne!(
            a.bag(0).unwrap(),
            c.bag(0).unwrap(),
            "different seeds must differ"
        );
    }

    #[test]
    fn corpus_shape_matches_the_request() {
        let db = synthetic_database(10, 5, 1);
        assert_eq!(db.len(), 10);
        assert_eq!(db.feature_dim(), 5);
        assert_eq!(db.category_count(), CATEGORIES);
        assert_eq!(db.labels()[..5], [0, 1, 2, 3, 0]);
    }

    #[test]
    fn mirror_closed_corpus_pairs_each_instance_with_its_twin() {
        let plain = synthetic_database(6, 9, 3);
        let closed = mirror_closed_database(6, 9, 3);
        let mirror = Mirror::new(3);
        for i in 0..plain.len() {
            let twins: Vec<&[f32]> = closed.bag(i).unwrap().instances().collect();
            for (j, x) in plain.bag(i).unwrap().instances().enumerate() {
                assert_eq!(twins[2 * j], x);
                assert_eq!(twins[2 * j + 1], &mirror.apply(x)[..]);
            }
        }
        assert_eq!(closed.labels(), plain.labels());
    }

    #[test]
    fn the_database_stores_half_of_a_mirror_closed_corpus_and_expands_it_bitwise() {
        use milr_core::Corpus;
        let (plain, _) = synthetic_bags(12, 16, 9);
        let closed = mirror_closed_database(12, 16, 9);
        let stored = closed.bags().stored_instance_count();
        assert_eq!(stored, 12 * INSTANCES_PER_BAG);
        assert_eq!(closed.bags().instance_count(), 2 * stored);
        let bits = |b: &Bag| -> Vec<u32> { b.instances().flatten().map(|v| v.to_bits()).collect() };
        let mirror = Mirror::new(4);
        for (i, bag) in plain.iter().enumerate() {
            let pushed: Vec<u32> = bag
                .instances()
                .flat_map(|x| [x.to_vec(), mirror.apply(x)])
                .flatten()
                .map(f32::to_bits)
                .collect();
            assert_eq!(bits(&closed.bag_at(i).unwrap()), pushed, "bag_at({i})");
            assert_eq!(bits(closed.bag(i).unwrap()), pushed, "bag({i})");
        }
    }
}
