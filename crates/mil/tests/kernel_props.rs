//! Property tests of the ranking kernels' two load-bearing claims: the
//! unrolled exact kernel is the bit-for-bit canonical distance, and the
//! quantized screen's lower bound never exceeds the exact distance — so
//! screening can never drop a true top-k survivor. The training
//! kernels' claim rides along: the runtime-dispatched DD objective
//! returns the portable evaluation's exact bits.

use proptest::prelude::*;

use milr_mil::kernel::{
    quantize_instance, screen_groups, weighted_distance_sq, weighted_distance_sq_below,
    QuantParams, QuantQuery, LANES, SCREEN_GROUP,
};
use milr_mil::{
    Bag, BagLabel, Concept, DdObjective, FlatBags, MilDataset, Parameterization, ScreenStats,
};
use milr_optim::Objective as _;

/// Max dimension generated; individual cases slice down to `dim` so the
/// suite crosses several unroll blocks plus every tail shape.
const MAX_DIM: usize = 40;

fn dims() -> std::ops::Range<usize> {
    1..MAX_DIM + 1
}

fn points() -> proptest::collection::VecStrategy<std::ops::Range<f64>> {
    proptest::collection::vec(-100.0f64..100.0, MAX_DIM)
}

fn weight_vecs() -> proptest::collection::VecStrategy<std::ops::Range<f64>> {
    proptest::collection::vec(0.0f64..10.0, MAX_DIM)
}

fn instances() -> proptest::collection::VecStrategy<std::ops::Range<f32>> {
    proptest::collection::vec(-100.0f32..100.0, MAX_DIM)
}

/// The lane decomposition restated in the plainest possible form.
fn lane_reference(point: &[f64], weights: &[f64], instance: &[f32]) -> f64 {
    let k = point.len();
    let mut acc = [0.0f64; LANES];
    let blocks = k / LANES;
    for i in 0..blocks * LANES {
        let d = point[i] - f64::from(instance[i]);
        acc[i % LANES] += weights[i] * d * d;
    }
    for (l, i) in (blocks * LANES..k).enumerate() {
        let d = point[i] - f64::from(instance[i]);
        acc[l] += weights[i] * d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Quantizes `instance` and prepares the query against its own
/// quantization parameters.
fn quantized(
    point: &[f64],
    weights: &[f64],
    instance: &[f32],
) -> (QuantQuery, Vec<i8>, QuantParams) {
    let mut codes = Vec::new();
    let p = quantize_instance(instance, &mut codes);
    let query = QuantQuery::new(point, weights, p.bias.abs(), p.scale);
    (query, codes, p)
}

/// Whether the group screen keeps the instance behind `codes`/`p`
/// against `bound`: a one-instance group (its pad lanes start crossed)
/// under the threshold the screened bag scan builds,
/// `threshold32(threshold_with(sqrt_bound(bound), radius))`.
fn group_screen_keeps(query: &QuantQuery, codes: &[i8], p: QuantParams, bound: f64) -> bool {
    let k = codes.len();
    let mut gcodes = vec![0i8; SCREEN_GROUP * k];
    for (j, &c) in codes.iter().enumerate() {
        gcodes[j * SCREEN_GROUP] = c;
    }
    let (mut gbias, mut gscale) = ([0.0f32; SCREEN_GROUP], [0.0f32; SCREEN_GROUP]);
    (gbias[0], gscale[0]) = (p.bias, p.scale);
    let threshold =
        QuantQuery::threshold32(query.threshold_with(query.sqrt_bound(bound), p.radius));
    let mut survivors = Vec::new();
    screen_groups(
        query,
        &gcodes,
        &gbias,
        &gscale,
        &[threshold],
        &mut survivors,
    );
    survivors == [0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn unrolled_kernel_is_bit_identical_to_the_lane_reference(
        dim in dims(),
        point in points(),
        weights in weight_vecs(),
        instance in instances(),
    ) {
        let (point, weights, instance) = (&point[..dim], &weights[..dim], &instance[..dim]);
        let unrolled = weighted_distance_sq(point, weights, instance);
        let reference = lane_reference(point, weights, instance);
        prop_assert_eq!(unrolled.to_bits(), reference.to_bits());
    }

    #[test]
    fn pruned_kernel_is_bit_identical_when_it_returns(
        dim in dims(),
        point in points(),
        weights in weight_vecs(),
        instance in instances(),
        factor in 0.0f64..2.0,
    ) {
        let (point, weights, instance) = (&point[..dim], &weights[..dim], &instance[..dim]);
        let full = weighted_distance_sq(point, weights, instance);
        let bound = full * factor;
        match weighted_distance_sq_below(point, weights, instance, bound) {
            Some(d) => {
                prop_assert_eq!(d.to_bits(), full.to_bits());
                prop_assert!(d < bound);
            }
            None => prop_assert!(full >= bound),
        }
        prop_assert_eq!(
            weighted_distance_sq_below(point, weights, instance, f64::INFINITY),
            Some(full)
        );
    }

    /// The screen's certified lower bound never exceeds the exact
    /// distance — the invariant that makes screening ranking-neutral:
    /// for every bound above the exact distance, the group screen keeps
    /// the instance. Factors just above 1 catch a bound that is too high.
    #[test]
    fn quantized_lower_bound_never_exceeds_exact_distance(
        dim in dims(),
        point in points(),
        weights in weight_vecs(),
        instance in instances(),
    ) {
        let (point, weights, instance) = (&point[..dim], &weights[..dim], &instance[..dim]);
        let (query, codes, p) = quantized(point, weights, instance);
        let exact = weighted_distance_sq(point, weights, instance);
        for factor in [1.0 + 1e-6, 1.001, 1.1] {
            let bound = exact * factor;
            if bound > exact {
                prop_assert!(
                    group_screen_keeps(&query, &codes, p, bound),
                    "screened out exact {} below bound {} (dim {})", exact, bound, dim
                );
            }
        }
    }

    /// A screen skip is a proof: the exact distance is at or above the
    /// bound, exercised with bounds clustered around the exact distance
    /// where an unsound slack term would surface.
    #[test]
    fn screen_skip_implies_exact_at_or_above_bound(
        dim in dims(),
        point in points(),
        weights in weight_vecs(),
        instance in instances(),
        factor in 0.25f64..1.75,
    ) {
        let (point, weights, instance) = (&point[..dim], &weights[..dim], &instance[..dim]);
        let (query, codes, p) = quantized(point, weights, instance);
        let exact = weighted_distance_sq(point, weights, instance);
        let bound = exact * factor;
        if !group_screen_keeps(&query, &codes, p, bound) {
            prop_assert!(exact >= bound, "screened out {} below bound {}", exact, bound);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The screened bag scan returns exactly what the unscreened scan
    /// returns — Some/None and every bit of the distance — for bounds
    /// below, at, and above the true bag distance.
    #[test]
    fn screened_bag_scan_is_bit_identical(
        dim in 2usize..25,
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(-50.0f32..50.0, 24),
                1..14,
            ),
            1..12,
        ),
        point in proptest::collection::vec(-50.0f64..50.0, 24),
        weights in proptest::collection::vec(0.01f64..5.0, 24),
    ) {
        let concept = Concept::new(point[..dim].to_vec(), weights[..dim].to_vec());
        let mut flat = FlatBags::new(dim);
        for instances in &raw {
            let trimmed: Vec<Vec<f32>> =
                instances.iter().map(|inst| inst[..dim].to_vec()).collect();
            flat.push_bag(&Bag::new(trimmed).unwrap());
        }
        let query = flat.quant_query(&concept);
        let mut stats = ScreenStats::default();
        let mut scratch = milr_mil::ScreenScratch::default();
        for b in 0..flat.bag_count() {
            let exact = flat.min_distance_sq(&concept, b);
            for bound in [exact * 0.5, exact, exact * 1.5, f64::INFINITY] {
                let screened = flat
                    .min_distance_sq_below_screened(&concept, &query, b, bound, &mut stats, &mut scratch);
                let unscreened = flat.min_distance_sq_below(&concept, b, bound);
                prop_assert!(
                    screened.map(f64::to_bits) == unscreened.map(f64::to_bits),
                    "bag {}, bound {}: screened {:?} != unscreened {:?}",
                    b,
                    bound,
                    screened,
                    unscreened
                );
            }
        }
    }
}

/// Dimensions of the DD property: every lane tail of the 8-lane
/// distance kernel and every block tail of the 16-dimension moment pass.
const DD_DIMS: [usize; 10] = [1, 3, 7, 8, 9, 15, 16, 17, 100, 257];

/// Deterministic values in `[-1, 1)` from `seed`.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
    }
}

/// Bags of the given sizes around one centre, at distances of order
/// 1–10 whatever `k`; with `far`, the first bag gets an instance whose
/// `exp(−d)` underflows to exactly zero.
fn dd_dataset(
    k: usize,
    positives: &[usize],
    negatives: &[usize],
    far: bool,
    seed: u64,
) -> MilDataset {
    let mut next = lcg(seed);
    let spread = 3.0 / (k as f64).sqrt();
    let centre: Vec<f64> = (0..k).map(|_| next() * 5.0).collect();
    let mut ds = MilDataset::new();
    for (sizes, label) in [
        (positives, BagLabel::Positive),
        (negatives, BagLabel::Negative),
    ] {
        for (b, &size) in sizes.iter().enumerate() {
            let mut instances: Vec<Vec<f32>> = (0..size)
                .map(|_| {
                    centre
                        .iter()
                        .map(|&c| (c + spread * next()) as f32)
                        .collect()
                })
                .collect();
            if far && b == 0 {
                instances.push(vec![100.0; k]);
            }
            ds.push(Bag::new(instances).unwrap(), label).unwrap();
        }
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dispatched (AVX2 where available) DD evaluation returns the
    /// portable evaluation's bits — value and every gradient element, on
    /// the memo-miss and the memo-hit path — for every parameterization,
    /// every lane and block tail, odd instance counts, underflowing
    /// instances and points sitting on an instance.
    #[test]
    fn dispatched_dd_objective_is_bit_identical_to_portable(
        k in (0usize..DD_DIMS.len()).prop_map(|i| DD_DIMS[i]),
        positives in proptest::collection::vec(1usize..6, 1..4),
        negatives in proptest::collection::vec(1usize..6, 0..3),
        far in (0u32..2).prop_map(|b| b == 1),
        on_instance in (0u32..2).prop_map(|b| b == 1),
        param in (0usize..3).prop_map(|i| [
            Parameterization::FixedWeights,
            Parameterization::SqrtWeights { alpha: 1.0 },
            Parameterization::DirectWeights,
        ][i]),
        seed in 0u64..u64::MAX,
    ) {
        let ds = dd_dataset(k, &positives, &negatives, far, seed);
        let mut next = lcg(!seed);
        let top: Vec<f32> = ds.positives()[0]
            .instances()
            .next()
            .unwrap()
            .iter()
            .map(|&v| if on_instance { v } else { v + (0.5 * next()) as f32 })
            .collect();
        let mut x = param.start_from(&top);
        for w in &mut x[k..] {
            *w = 0.9 + 0.6 * next();
        }
        let dispatched = DdObjective::new(&ds, param);
        let portable = DdObjective::new(&ds, param);
        let n = dispatched.dim();
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut gd, mut gp) = (vec![0.0; n], vec![0.0; n]);
        // Switching objectives evicts the per-thread memo: each side's
        // first call at `x` misses and its second hits.
        let value_miss = dispatched.value(&x);
        let hit = dispatched.value_and_gradient(&x, &mut gd);
        let g_hit = bits(&gd);
        prop_assert_eq!(value_miss.to_bits(), portable.portable_evaluation(&x, None).to_bits());
        prop_assert_eq!(hit.to_bits(), portable.portable_evaluation(&x, Some(&mut gp)).to_bits());
        prop_assert_eq!(g_hit, bits(&gp));
        let miss = dispatched.value_and_gradient(&x, &mut gd);
        let value_hit = dispatched.value(&x);
        let g_miss = bits(&gd);
        prop_assert_eq!(miss.to_bits(), portable.portable_evaluation(&x, Some(&mut gp)).to_bits());
        prop_assert_eq!(value_hit.to_bits(), portable.portable_evaluation(&x, None).to_bits());
        prop_assert_eq!(g_miss, bits(&gp));
    }
}
