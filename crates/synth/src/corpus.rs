//! Deterministic test-corpus helpers shared across crates' test suites.
//!
//! Several suites (the store's unit tests, the sharding property tests,
//! the top-k edge cases) used to carry private copies of the
//! same two fixtures: a small lattice of raw instance vectors and a
//! pseudo-random tombstone pattern. This module is the single home for
//! both so the setups cannot drift apart.

/// Deterministic pseudo-random tombstone decision for bag `index`.
///
/// Knuth's multiplicative hash over the bag index, offset by `seed`,
/// reduced modulo `modulus`: roughly one bag in `modulus` is selected.
/// The same `(seed, modulus)` pair always selects the same subset, so
/// failures replay exactly.
#[must_use]
pub fn tombstone_pattern(index: usize, seed: u64, modulus: u64) -> bool {
    (index as u64)
        .wrapping_mul(2654435761)
        .wrapping_add(seed)
        .is_multiple_of(modulus)
}

/// Raw instance data for `count` synthetic bags of dimension `dim`.
///
/// Bag `n` carries `1 + n % 3` instances whose features walk a small
/// arithmetic lattice — enough spread that rankings are non-trivial,
/// deterministic so every suite sees byte-identical inputs. Returned as
/// plain vectors so callers in any crate can wrap them in their own bag
/// type.
#[must_use]
pub fn lattice_bags(count: usize, dim: usize) -> Vec<Vec<Vec<f32>>> {
    (0..count)
        .map(|n| {
            (0..=(n % 3))
                .map(|m| {
                    (0..dim)
                        .map(|i| ((n * 31 + m * 17 + i * 7) % 19) as f32 / 3.0)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Labels matching [`lattice_bags`]: three categories, round-robin.
#[must_use]
pub fn lattice_labels(count: usize) -> Vec<usize> {
    (0..count).map(|n| n % 3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tombstones_are_seed_deterministic_and_sparse() {
        let a: Vec<bool> = (0..100).map(|i| tombstone_pattern(i, 7, 3)).collect();
        let b: Vec<bool> = (0..100).map(|i| tombstone_pattern(i, 7, 3)).collect();
        assert_eq!(a, b);
        let hits = a.iter().filter(|&&t| t).count();
        assert!(
            hits > 10 && hits < 90,
            "pattern must select a strict subset"
        );
        let c: Vec<bool> = (0..100).map(|i| tombstone_pattern(i, 8, 3)).collect();
        assert_ne!(a, c, "different seeds must select different subsets");
    }

    #[test]
    fn lattice_bags_have_the_documented_shape() {
        let bags = lattice_bags(7, 4);
        assert_eq!(bags.len(), 7);
        for (n, bag) in bags.iter().enumerate() {
            assert_eq!(bag.len(), 1 + n % 3);
            for inst in bag {
                assert_eq!(inst.len(), 4);
                assert!(inst.iter().all(|v| v.is_finite()));
            }
        }
        assert_eq!(lattice_bags(7, 4), lattice_bags(7, 4));
        assert_eq!(lattice_labels(5), vec![0, 1, 2, 0, 1]);
    }
}
