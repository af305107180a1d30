//! Property-based tests (proptest) of the paper's mathematical claims
//! and the optimisation substrate's invariants.

use milr::imgproc::correlate::weighted_correlation;
use milr::imgproc::normalize::{weighted_sq_distance, NormalizedVector};
use milr::mil::{Bag, BagLabel, DdObjective, MilDataset, Parameterization};
use milr::optim::numdiff::gradient_error;
use milr::optim::{BoxSumProjection, Project};
use milr::prelude::RankRequest;
use proptest::prelude::*;

/// Strategy: a non-flat feature vector of length `n` with values in a
/// sane range.
fn feature_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, n).prop_filter("vector must not be flat", |v| {
        let mean = v.iter().sum::<f32>() / v.len() as f32;
        v.iter().any(|&x| (x - mean).abs() > 1.0)
    })
}

/// Strategy: strictly positive weights (so weighted σ never vanishes).
fn weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.05f64..2.0, n)
}

proptest! {
    /// §3.4 Lemma: Σ w_k B_k² = n for vectors normalised under the same
    /// weights.
    #[test]
    fn lemma_weighted_norm_is_n(raw in feature_vec(24), w in weights(24)) {
        let nv = NormalizedVector::weighted(&raw, &w).unwrap();
        let norm: f64 = nv
            .values
            .iter()
            .zip(&w)
            .map(|(&b, &wk)| wk * f64::from(b) * f64::from(b))
            .sum();
        prop_assert!((norm - 24.0).abs() < 1e-2, "norm = {norm}");
    }

    /// §3.4 Claim: ‖B₁ − B₂‖²_w = 2n(1 − Corr_w(A₁, A₂)).
    #[test]
    fn claim_distance_correlation_identity(
        a1 in feature_vec(16),
        a2 in feature_vec(16),
        w in weights(16),
    ) {
        let b1 = NormalizedVector::weighted(&a1, &w).unwrap();
        let b2 = NormalizedVector::weighted(&a2, &w).unwrap();
        let dist = weighted_sq_distance(&b1.values, &b2.values, &w);
        let corr = weighted_correlation(&a1, &a2, &w);
        let expected = 2.0 * 16.0 * (1.0 - corr);
        prop_assert!(
            (dist - expected).abs() < 1e-2,
            "dist {dist} vs 2n(1-corr) {expected}"
        );
    }

    /// Correlation is bounded and symmetric under any weights.
    #[test]
    fn correlation_bounded_and_symmetric(
        a in feature_vec(12),
        b in feature_vec(12),
        w in weights(12),
    ) {
        let r_ab = weighted_correlation(&a, &b, &w);
        let r_ba = weighted_correlation(&b, &a, &w);
        prop_assert!((-1.0..=1.0).contains(&r_ab));
        prop_assert!((r_ab - r_ba).abs() < 1e-10);
    }

    /// The projection's output is always feasible and idempotent.
    #[test]
    fn projection_feasible_and_idempotent(
        x in proptest::collection::vec(-3.0f64..3.0, 10),
        beta in 0.0f64..1.0,
    ) {
        let p = BoxSumProjection::for_beta(10, beta);
        let mut y = x.clone();
        p.project(&mut y);
        prop_assert!(p.is_feasible(&y, 1e-7), "projection output infeasible: {y:?}");
        let once = y.clone();
        p.project(&mut y);
        for (a, b) in y.iter().zip(&once) {
            prop_assert!((a - b).abs() < 1e-9, "projection not idempotent");
        }
    }

    /// Projection never moves a feasible point.
    #[test]
    fn projection_fixes_feasible_points(
        x in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let sum: f64 = x.iter().sum();
        let beta = (sum / 8.0 - 0.05).max(0.0);
        let p = BoxSumProjection::for_beta(8, beta);
        prop_assume!(p.is_feasible(&x, 0.0));
        let mut y = x.clone();
        p.project(&mut y);
        for (a, b) in y.iter().zip(&x) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Projection is a contraction towards the feasible set: the output
    /// is never farther from any feasible point than the input was.
    #[test]
    fn projection_is_non_expansive_to_feasible_points(
        x in proptest::collection::vec(-2.0f64..2.0, 6),
        z_raw in proptest::collection::vec(0.1f64..1.0, 6),
    ) {
        let p = BoxSumProjection::for_beta(6, 0.3);
        // Construct a feasible z.
        let mut z = z_raw;
        p.project(&mut z);
        let mut y = x.clone();
        p.project(&mut y);
        let d = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(&p, &q)| (p - q) * (p - q)).sum()
        };
        prop_assert!(d(&y, &z) <= d(&x, &z) + 1e-9);
    }

    /// The DD analytic gradient agrees with central differences on
    /// random small datasets, for all parameterizations.
    #[test]
    fn dd_gradients_match_numeric(
        pos1 in feature_vec(4),
        pos2 in feature_vec(4),
        neg in feature_vec(4),
        t in proptest::collection::vec(-2.0f64..2.0, 4),
        s in proptest::collection::vec(0.2f64..1.5, 4),
    ) {
        // Scale features down so exp(−d) stays in a numerically
        // interesting range.
        let scale = |v: &[f32]| -> Vec<f32> { v.iter().map(|&x| x / 50.0).collect() };
        let mut ds = MilDataset::new();
        ds.push(Bag::new(vec![scale(&pos1)]).unwrap(), BagLabel::Positive).unwrap();
        ds.push(Bag::new(vec![scale(&pos2)]).unwrap(), BagLabel::Positive).unwrap();
        ds.push(Bag::new(vec![scale(&neg)]).unwrap(), BagLabel::Negative).unwrap();

        // h = 1e-4 sits on the sweet spot between truncation and
        // floating-point noise for this objective (the exp/log chain
        // amplifies rounding at very small steps).
        let fixed = DdObjective::new(&ds, Parameterization::FixedWeights);
        prop_assert!(gradient_error(&fixed, &t, 1e-4) < 1e-3);

        let mut x2 = t.clone();
        x2.extend_from_slice(&s);
        let sqrt = DdObjective::new(&ds, Parameterization::SqrtWeights { alpha: 1.0 });
        prop_assert!(gradient_error(&sqrt, &x2, 1e-4) < 1e-3);

        let direct = DdObjective::new(&ds, Parameterization::DirectWeights);
        prop_assert!(gradient_error(&direct, &x2, 1e-4) < 1e-3);
    }

    /// Smoothing-and-sampling is a weighted average: every output entry
    /// lies within the input's intensity range, and constant images map
    /// to constant matrices.
    #[test]
    fn smooth_sample_respects_intensity_bounds(
        pixels in proptest::collection::vec(0.0f32..255.0, 24 * 18),
        h in 2usize..8,
    ) {
        use milr::imgproc::{smooth_sample, GrayImage};
        let img = GrayImage::from_vec(24, 18, pixels).unwrap();
        let (lo, hi) = img.min_max();
        let sampled = smooth_sample(&img, h).unwrap();
        for &v in sampled.pixels() {
            prop_assert!(v >= lo - 1e-3 && v <= hi + 1e-3, "{v} outside [{lo}, {hi}]");
        }
    }

    /// Every region layout produces the declared number of in-bounds
    /// rectangles for arbitrary image sizes.
    #[test]
    fn region_layouts_fit_arbitrary_sizes(
        w in 16usize..300,
        h in 16usize..300,
    ) {
        use milr::imgproc::RegionLayout;
        for layout in [RegionLayout::Small, RegionLayout::Standard, RegionLayout::Large] {
            let regions = layout.regions(w, h).unwrap();
            prop_assert_eq!(regions.len(), layout.region_count());
            for r in regions {
                prop_assert!(r.fits_within(w, h), "{:?} escapes {}x{}", r, w, h);
            }
        }
    }

    /// PGM round trips are 8-bit exact for arbitrary in-range images.
    #[test]
    fn pgm_round_trip_is_8bit_exact(
        pixels in proptest::collection::vec(0.0f32..255.0, 12 * 9),
    ) {
        use milr::imgproc::{pnm, GrayImage};
        let img = GrayImage::from_vec(12, 9, pixels).unwrap();
        let mut buf = Vec::new();
        pnm::write_pgm(&img, &mut buf).unwrap();
        let back = pnm::read_pgm(std::io::Cursor::new(buf)).unwrap();
        for (a, b) in img.pixels().iter().zip(back.pixels()) {
            prop_assert!((a - b).abs() <= 0.5 + 1e-4);
        }
    }

    /// Mirroring twice is the identity, and mirroring commutes with the
    /// §3.4 normalisation (the pipeline relies on this to mirror after
    /// normalising).
    #[test]
    fn mirror_commutes_with_normalisation(
        pixels in proptest::collection::vec(0.0f32..255.0, 10 * 10)
            .prop_filter("needs contrast", |v| {
                let mean = v.iter().sum::<f32>() / v.len() as f32;
                v.iter().any(|&x| (x - mean).abs() > 1.0)
            }),
    ) {
        use milr::imgproc::mirror::mirror_horizontal;
        use milr::imgproc::GrayImage;
        let img = GrayImage::from_vec(10, 10, pixels).unwrap();
        prop_assert_eq!(mirror_horizontal(&mirror_horizontal(&img)), img.clone());

        let norm_then_mirror = {
            let nv = NormalizedVector::unit(img.pixels()).unwrap();
            let as_img = GrayImage::from_vec(10, 10, nv.values).unwrap();
            mirror_horizontal(&as_img)
        };
        let mirror_then_norm = {
            let m = mirror_horizontal(&img);
            let nv = NormalizedVector::unit(m.pixels()).unwrap();
            GrayImage::from_vec(10, 10, nv.values).unwrap()
        };
        for (a, b) in norm_then_mirror.pixels().iter().zip(mirror_then_norm.pixels()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// Convolution is linear: conv(a·f + b·g) = a·conv(f) + b·conv(g).
    #[test]
    fn convolution_is_linear(
        f in proptest::collection::vec(-50.0f32..50.0, 10 * 8),
        g in proptest::collection::vec(-50.0f32..50.0, 10 * 8),
        a in -2.0f32..2.0,
        b in -2.0f32..2.0,
    ) {
        use milr::imgproc::{convolve, GrayImage, Kernel};
        let kernel = Kernel::gaussian(0.8);
        let fi = GrayImage::from_vec(10, 8, f.clone()).unwrap();
        let gi = GrayImage::from_vec(10, 8, g.clone()).unwrap();
        let combo = GrayImage::from_vec(
            10,
            8,
            f.iter().zip(&g).map(|(&x, &y)| a * x + b * y).collect(),
        )
        .unwrap();
        let lhs = convolve(&combo, &kernel);
        let cf = convolve(&fi, &kernel);
        let cg = convolve(&gi, &kernel);
        for ((&l, &x), &y) in lhs.pixels().iter().zip(cf.pixels()).zip(cg.pixels()) {
            prop_assert!((l - (a * x + b * y)).abs() < 1e-2, "{l} vs {}", a * x + b * y);
        }
    }

    /// Histogram intersection is a similarity: symmetric, 1 on self,
    /// within [0, 1].
    #[test]
    fn histogram_intersection_properties(
        f in proptest::collection::vec(0.0f32..255.0, 12 * 12),
        g in proptest::collection::vec(0.0f32..255.0, 12 * 12),
    ) {
        use milr::imgproc::histogram::Histogram;
        use milr::imgproc::GrayImage;
        let hf = Histogram::of(&GrayImage::from_vec(12, 12, f).unwrap(), 16);
        let hg = Histogram::of(&GrayImage::from_vec(12, 12, g).unwrap(), 16);
        let s = hf.intersection(&hg);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        prop_assert!((s - hg.intersection(&hf)).abs() < 1e-12);
        prop_assert!((hf.intersection(&hf) - 1.0).abs() < 1e-12);
    }

    /// Bag distances are permutation-invariant in the instance order and
    /// equal the minimum instance distance.
    #[test]
    fn bag_distance_is_min_of_instances(
        instances in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 3),
            1..6,
        ),
        point in proptest::collection::vec(-5.0f64..5.0, 3),
        w in weights(3),
    ) {
        use milr::mil::Concept;
        let bag = Bag::new(instances.clone()).unwrap();
        let concept = Concept::new(point, w);
        let expected = instances
            .iter()
            .map(|inst| concept.instance_distance_sq(inst))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((concept.bag_distance_sq(&bag) - expected).abs() < 1e-12);

        let mut reversed = instances;
        reversed.reverse();
        let rbag = Bag::new(reversed).unwrap();
        prop_assert!(
            (concept.bag_distance_sq(&rbag) - expected).abs() < 1e-12,
            "instance order must not matter"
        );
    }

    /// Partial-distance pruning is exact: the pruned instance distance is
    /// bit-identical to the sequential fold whenever it survives the
    /// bound, and an abandoned instance really was at or above it. The
    /// dimension count straddles the prune stride so both the strided
    /// middle and the tail are exercised.
    #[test]
    fn pruned_instance_distance_is_bit_exact(
        raw_inst in proptest::collection::vec(-5.0f32..5.0, 40),
        raw_point in proptest::collection::vec(-5.0f64..5.0, 40),
        raw_w in weights(40),
        k in 1usize..40,
        bound_frac in 0.0f64..2.0,
    ) {
        use milr::mil::Concept;
        let inst = &raw_inst[..k];
        let concept = Concept::new(raw_point[..k].to_vec(), raw_w[..k].to_vec());
        // The naive reference spells out the canonical accumulation
        // order `instance_distance_sq` specifies: four strided lanes
        // (dimension i feeds lane i % 4 within full blocks, remainder
        // dimensions feed lanes 0.. in order) combined as
        // (a0 + a1) + (a2 + a3), each term built as (w·d)·d.
        let mut acc = [0.0f64; 4];
        let blocks = k / 4;
        for i in 0..blocks * 4 {
            let d = raw_point[i] - f64::from(raw_inst[i]);
            acc[i % 4] += raw_w[i] * d * d;
        }
        for (l, i) in (blocks * 4..k).enumerate() {
            let d = raw_point[i] - f64::from(raw_inst[i]);
            acc[l] += raw_w[i] * d * d;
        }
        let naive = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        prop_assert_eq!(concept.instance_distance_sq(inst).to_bits(), naive.to_bits());
        let bound = naive * bound_frac;
        match concept.instance_distance_sq_below(inst, bound) {
            Some(d) => {
                prop_assert!(naive < bound, "survived a bound it does not beat");
                prop_assert_eq!(d.to_bits(), naive.to_bits());
            }
            None => prop_assert!(naive >= bound, "abandoned below the bound"),
        }
    }

    /// The bounded bag distance agrees bit-for-bit with the naive
    /// min-fold: `Some` exactly when the min beats the bound, carrying
    /// the identical value.
    #[test]
    fn bounded_bag_distance_is_bit_exact(
        instances in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 11),
            1..6,
        ),
        point in proptest::collection::vec(-5.0f64..5.0, 11),
        w in weights(11),
        bound_frac in 0.0f64..3.0,
    ) {
        use milr::mil::Concept;
        let bag = Bag::new(instances.clone()).unwrap();
        let concept = Concept::new(point, w);
        let naive = instances
            .iter()
            .map(|inst| concept.instance_distance_sq(inst))
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(concept.bag_distance_sq(&bag).to_bits(), naive.to_bits());
        let bound = naive * bound_frac;
        match concept.bag_distance_sq_below(&bag, bound) {
            Some(d) => {
                prop_assert!(naive < bound);
                prop_assert_eq!(d.to_bits(), naive.to_bits());
            }
            None => prop_assert!(naive >= bound),
        }
    }
}

// The pooled pipeline checks preprocess a database per case, so they run
// fewer, larger cases than the arithmetic properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Preprocessing and ranking are deterministic under any worker
    /// count: every thread setting yields the serial bags, the serial
    /// ranking, and a top-k that is an exact prefix of it.
    #[test]
    fn pooled_pipeline_matches_serial_for_any_thread_count(
        images_px in proptest::collection::vec(
            proptest::collection::vec(0.0f32..255.0, 64 * 48),
            3..7,
        ),
        point in proptest::collection::vec(-2.0f64..2.0, 100),
        w in weights(100),
        threads in 0usize..6,
    ) {
        use milr::core::{RetrievalConfig, RetrievalDatabase};
        use milr::imgproc::GrayImage;
        use milr::mil::Concept;
        let images: Vec<(GrayImage, usize)> = images_px
            .into_iter()
            .enumerate()
            .map(|(i, px)| (GrayImage::from_vec(64, 48, px).unwrap(), i % 3))
            .collect();
        let serial_config = RetrievalConfig { threads: 1, ..RetrievalConfig::default() };
        let pooled_config = RetrievalConfig { threads, ..RetrievalConfig::default() };
        let serial =
            RetrievalDatabase::from_labelled_images(images.clone(), &serial_config).unwrap();
        let pooled = RetrievalDatabase::from_labelled_images(images, &pooled_config).unwrap();
        for i in 0..serial.len() {
            prop_assert_eq!(serial.bag(i).unwrap(), pooled.bag(i).unwrap());
        }

        let concept = Concept::new(point, w);
        let candidates: Vec<usize> = (0..serial.len()).collect();
        let request = RankRequest::over(candidates.clone());
        let reference = serial.rank(&concept, &request).unwrap();
        let ranked = pooled.rank(&concept, &request).unwrap();
        prop_assert_eq!(&ranked, &reference);
        for k in [0, 1, reference.len() / 2, reference.len(), reference.len() + 3] {
            let top = pooled
                .rank(&concept, &RankRequest::over(candidates.clone()).top(k))
                .unwrap();
            prop_assert_eq!(&top[..], &reference[..k.min(reference.len())]);
        }
    }
}

/// Strategy: a concept point whose coordinates are mostly ordinary, with
/// a share around ±1e200 — far enough that every weighted distance to a
/// `f32` instance overflows to +∞.
fn overflowing_point(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        (0u32..32, -10.0f64..10.0, 1e199f64..1e201).prop_map(|(pick, ordinary, huge)| match pick {
            0 => huge,
            1 => -huge,
            _ => ordinary,
        }),
        n,
    )
}

// Sharded-ranking bit-identity writes a sharded store per case, so it
// also runs few, large cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded scatter ranking is bit-identical — index for index,
    /// bit for bit on every distance — to the exhaustive exact scan,
    /// crossed over random bags × weights × points (some overflowing
    /// every distance to +∞) × shard layouts (1..=8) × tombstone subsets
    /// × pool threads (0..=3, so one bounded heap per worker scans one
    /// or several shards), with `k` reaching past the bags of a shard
    /// and of the whole store up to `usize::MAX`, and agrees with the
    /// unscreened (`rank_exact`) path on every request shape.
    #[test]
    fn sharded_rank_is_bit_identical_to_exhaustive(
        raw in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 6), 1..5),
            1..33,
        ),
        point in overflowing_point(6),
        w in weights(6),
        shards in 1usize..9,
        seed in 0u64..1000,
        k in 0usize..40,
        threads in 0usize..4,
    ) {
        use milr::core::RetrievalDatabase;
        use milr::mil::{Bag, Concept};
        use milr::store::ShardedDatabase;
        use milr::synth::corpus;

        let labels: Vec<usize> = (0..raw.len()).map(|n| n % 3).collect();
        let bags: Vec<Bag> = raw.into_iter().map(|b| Bag::new(b).unwrap()).collect();
        let db = RetrievalDatabase::from_bags(bags, labels).unwrap();
        let concept = Concept::new(point, w);

        let dir = std::env::temp_dir()
            .join("milr_facade_proptests")
            .join(format!("sharded_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let capacity = db.len().div_ceil(shards);
        let mut store = ShardedDatabase::from_database(&db, &dir, capacity).unwrap();
        let mut live = Vec::new();
        for i in 0..db.len() {
            if corpus::tombstone_pattern(i, seed, 3) && live.len() + 1 < db.len() {
                store.delete(i).unwrap();
            } else {
                live.push(i);
            }
        }
        store.flush().unwrap();

        let exhaustive = db.rank(&concept, &RankRequest::over(live)).unwrap();
        for request in [
            RankRequest::all(),
            RankRequest::all().top(k),
            RankRequest::all().top(db.len() + 1),
            RankRequest::all().top(usize::MAX),
        ] {
            let request = request.threads(threads);
            let want =
                &exhaustive[..request.top_k.map_or(exhaustive.len(), |k| k.min(exhaustive.len()))];
            let sharded = store.rank(&concept, &request).unwrap();
            prop_assert_eq!(&sharded[..], want);
            for (a, b) in sharded.iter().zip(want) {
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            let exact = store.rank_exact(&concept, &request).unwrap();
            prop_assert_eq!(&exact[..], &sharded[..]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// Aggregator cross-path identity also writes a sharded store per case,
// so it runs few, large cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every [`BagAggregator`]'s ranking key is the naive per-bag
    /// reference fold, bit for bit, on **every** path: the monolithic
    /// rank and the sharded scatter (any shard layout, with tombstones,
    /// bounded or not). A request
    /// that never names an aggregator is bit-identical to explicit
    /// min-distance, and every top-k page is an exact prefix of the
    /// full ranking — the wire contract the daemon and cluster rely on.
    #[test]
    fn aggregated_rankings_match_the_naive_fold_on_every_path(
        raw in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 5), 1..5),
            2..24,
        ),
        point in proptest::collection::vec(-10.0f64..10.0, 5),
        w in weights(5),
        shards in 1usize..6,
        seed in 0u64..1000,
        k in 1usize..10,
        threads in 0usize..4,
    ) {
        use milr::core::RetrievalDatabase;
        use milr::mil::{Bag, BagAggregator, Concept};
        use milr::store::ShardedDatabase;
        use milr::synth::corpus;

        let labels: Vec<usize> = (0..raw.len()).map(|n| n % 3).collect();
        let bags: Vec<Bag> = raw.into_iter().map(|b| Bag::new(b).unwrap()).collect();
        let db = RetrievalDatabase::from_bags(bags, labels).unwrap();
        let concept = Concept::new(point, w);

        let dir = std::env::temp_dir()
            .join("milr_facade_proptests")
            .join(format!("aggregated_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let capacity = db.len().div_ceil(shards);
        let mut store = ShardedDatabase::from_database(&db, &dir, capacity).unwrap();
        let mut live = Vec::new();
        for i in 0..db.len() {
            if corpus::tombstone_pattern(i, seed, 4) && live.len() + 1 < db.len() {
                store.delete(i).unwrap();
            } else {
                live.push(i);
            }
        }
        store.flush().unwrap();

        for aggregator in BagAggregator::ALL {
            let request = RankRequest::over(live.clone())
                .threads(threads)
                .aggregator(aggregator);
            let full = db.rank(&concept, &request).unwrap();

            // 1. Every returned key is the reference fold of that bag's
            // exact instance distances, bit for bit, and the ranking is
            // a sorted permutation of the live set.
            prop_assert_eq!(full.len(), live.len());
            for &(index, key) in &full {
                let distances: Vec<f64> = db
                    .bag(index)
                    .unwrap()
                    .instances()
                    .map(|inst| concept.instance_distance_sq(inst))
                    .collect();
                prop_assert!(
                    key.to_bits() == aggregator.fold(&distances).to_bits(),
                    "{aggregator} key for bag {index} is not the reference fold"
                );
                prop_assert!(key >= 0.0 && key.is_finite(), "{aggregator} key invalid");
            }
            for pair in full.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].1, "{aggregator} ranking unsorted");
            }

            // 2. The sharded scatter agrees bit for bit, bounded or not,
            // and pages are exact prefixes.
            for request in [
                RankRequest::all().aggregator(aggregator),
                RankRequest::all().top(k).aggregator(aggregator),
            ] {
                let want = &full[..request.top_k.map_or(full.len(), |k| k.min(full.len()))];
                let scattered = store.rank(&concept, &request).unwrap();
                prop_assert_eq!(&scattered[..], want);
                for (a, b) in scattered.iter().zip(want) {
                    prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }

            // 3. Never naming an aggregator is exactly min-distance.
            if aggregator.is_min() {
                let implicit = db
                    .rank(&concept, &RankRequest::over(live.clone()).threads(threads))
                    .unwrap();
                prop_assert_eq!(&implicit, &full);
                for (a, b) in implicit.iter().zip(&full) {
                    prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Strategy: an instance offset from the concept point along one axis,
/// from one of the distance classes the folds must survive — small,
/// past the point where noisy-or's `1 − e^{−d}` rounds to 1 (> 37), and
/// past the underflow of `e^{−d}` (> 745).
fn class_offset() -> impl Strategy<Value = f32> {
    (0u32..3, 0.0f32..1.0).prop_map(|(class, u)| match class {
        0 => u * 6.0,
        1 => 6.2 + u * 20.0,
        _ => 27.5 + u * 1e6,
    })
}

// Writes a sharded store per case, so it runs few, large cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Both rankers — the monolithic rank and the sharded scatter — key
    /// every bag with the reference fold, never NaN, and sort under the
    /// one ranking order, for every aggregator, over bags whose
    /// instances sit in every distance class; and with the concept so
    /// far off that every distance is +∞ (min-distance, logsumexp and
    /// generalized-mean then key +∞, noisy-or 1). No request panics.
    #[test]
    fn fold_keys_rank_on_both_rankers_in_every_distance_class(
        raw in proptest::collection::vec(proptest::collection::vec(class_offset(), 1..5), 2..16),
        overflow in 0u32..2,
        shards in 1usize..4,
        k in 1usize..6,
    ) {
        use milr::core::{ranking_order, RetrievalDatabase};
        use milr::mil::{Bag, BagAggregator, Concept};
        use milr::store::ShardedDatabase;

        let labels: Vec<usize> = (0..raw.len()).map(|n| n % 3).collect();
        let bags: Vec<Bag> = raw
            .into_iter()
            .map(|offsets| Bag::new(offsets.into_iter().map(|r| vec![r, 0.0]).collect()).unwrap())
            .collect();
        let db = RetrievalDatabase::from_bags(bags, labels).unwrap();
        let far = if overflow == 1 { 1e200 } else { 0.0 };
        let concept = Concept::new(vec![0.0, far], vec![1.0, 1.0]);

        let dir = std::env::temp_dir()
            .join("milr_facade_proptests")
            .join(format!("classes_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = ShardedDatabase::from_database(&db, &dir, db.len().div_ceil(shards)).unwrap();
        for aggregator in BagAggregator::ALL {
            let full = db.rank(&concept, &RankRequest::all().aggregator(aggregator)).unwrap();
            prop_assert_eq!(full.len(), db.len());
            for &(index, key) in &full {
                let distances: Vec<f64> = db
                    .bag(index)
                    .unwrap()
                    .instances()
                    .map(|inst| concept.instance_distance_sq(inst))
                    .collect();
                prop_assert!(!key.is_nan() && key >= 0.0, "{} keyed bag {} {}", aggregator, index, key);
                prop_assert_eq!(key.to_bits(), aggregator.fold(&distances).to_bits());
                if overflow == 1 {
                    let unreachable = if aggregator == BagAggregator::NoisyOr { 1.0 } else { f64::INFINITY };
                    prop_assert_eq!(key, unreachable);
                }
            }
            for pair in full.windows(2) {
                prop_assert!(ranking_order(&pair[0], &pair[1]).is_lt());
            }
            for request in [
                RankRequest::all().aggregator(aggregator),
                RankRequest::all().top(k).aggregator(aggregator),
            ] {
                let want = &full[..request.top_k.map_or(full.len(), |k| k.min(full.len()))];
                let scattered = store.rank(&concept, &request).unwrap();
                prop_assert_eq!(&scattered[..], want);
                for (a, b) in scattered.iter().zip(want) {
                    prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Side of the mirrored `h × h` instances in the pairing properties:
/// at h = 5 the twin kernel reads both reversed runs inside a row and
/// gathers across rows, plus a scalar tail.
const PAIR_SIDE: usize = 5;

/// Strategy: bags of `PAIR_SIDE²`-dimensional instances in every shape
/// the store's pairing must handle — mirror-closed (stored as one half),
/// and the closure's edge cases stored whole: odd length, one flipped
/// bit in one twin, and plain random bags. Shards of a store built from
/// them come out paired, unpaired or mixed.
fn pairing_bags() -> impl Strategy<Value = Vec<milr::mil::Bag>> {
    let dim = PAIR_SIDE * PAIR_SIDE;
    proptest::collection::vec(
        (
            proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, dim), 1..4),
            0usize..4,
            0usize..64,
        ),
        2..28,
    )
    .prop_map(move |raw| {
        let mirror = milr::mil::Mirror::new(PAIR_SIDE);
        raw.into_iter()
            .map(|(halves, shape, bit)| {
                let mut instances: Vec<Vec<f32>> = halves
                    .iter()
                    .flat_map(|x| [x.clone(), mirror.apply(x)])
                    .collect();
                match shape {
                    // Odd length: the last twin dropped.
                    1 => {
                        instances.pop();
                    }
                    // One flipped bit in one twin.
                    2 => {
                        let twin = &mut instances[1 + 2 * (bit % halves.len())];
                        let j = bit % dim;
                        twin[j] = f32::from_bits(twin[j].to_bits() ^ 1);
                    }
                    // No pairing at all.
                    3 => instances = halves,
                    _ => {}
                }
                milr::mil::Bag::new(instances).unwrap()
            })
            .collect()
    })
}

// Pairing bit-identity writes, reopens and compacts a sharded store per
// case, so it runs few, large cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A store that keeps mirror-closed bags as their even instances
    /// ranks bit-identically to the naive per-bag fold over the full
    /// bags on every path: every aggregator, full and top-k pages, the
    /// screened scan and `rank_exact`, with tombstones, after a
    /// flush/reopen, after `compact`, and as a whole-store
    /// `ShardSubset`. Every bag reads back bitwise.
    #[test]
    fn paired_shards_rank_bit_identically_on_every_path(
        bags in pairing_bags(),
        point in proptest::collection::vec(-10.0f64..10.0, PAIR_SIDE * PAIR_SIDE),
        w in weights(PAIR_SIDE * PAIR_SIDE),
        shards in 1usize..6,
        seed in 0u64..1000,
        k in 1usize..12,
        threads in 0usize..3,
    ) {
        use milr::core::{Corpus, RetrievalDatabase};
        use milr::mil::{BagAggregator, Concept};
        use milr::store::{ShardSubset, ShardedDatabase};
        use milr::synth::corpus;

        let labels: Vec<usize> = (0..bags.len()).map(|n| n % 3).collect();
        let db = RetrievalDatabase::from_bags(bags, labels).unwrap();
        let concept = Concept::new(point, w);
        let dir = std::env::temp_dir()
            .join("milr_facade_proptests")
            .join(format!("paired_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let capacity = db.len().div_ceil(shards);
        let mut store = ShardedDatabase::from_database(&db, &dir, capacity).unwrap();
        let mut live = Vec::new();
        for i in 0..db.len() {
            if corpus::tombstone_pattern(i, seed, 4) && live.len() + 1 < db.len() {
                store.delete(i).unwrap();
            } else {
                live.push(i);
            }
        }
        store.flush().unwrap();
        let reopened = ShardedDatabase::open(&dir).unwrap();
        let mut compacted = ShardedDatabase::open(&dir).unwrap();
        compacted.compact();
        let ids: Vec<u64> = milr::store::read_manifest(&dir)
            .unwrap()
            .shards
            .iter()
            .map(|s| s.id)
            .collect();
        let subset = ShardSubset::open(&dir, &ids).unwrap();

        for (live_index, &global) in live.iter().enumerate() {
            let want = db.bag(global).unwrap();
            let (a, b) = (reopened.bag_at(live_index).unwrap(), compacted.bag_at(live_index).unwrap());
            prop_assert_eq!(a.as_ref(), want);
            prop_assert_eq!(b.as_ref(), want);
        }
        for aggregator in BagAggregator::ALL {
            let full = db
                .rank(&concept, &RankRequest::over(live.clone()).aggregator(aggregator))
                .unwrap();
            // The compacted store renumbers the live bags densely.
            let dense: Vec<(usize, f64)> = full
                .iter()
                .map(|&(i, d)| (live.binary_search(&i).unwrap(), d))
                .collect();
            for top in [None, Some(k)] {
                let cut = top.map_or(full.len(), |k| k.min(full.len()));
                let request = |r: RankRequest| {
                    let r = r.threads(threads).aggregator(aggregator);
                    match top {
                        Some(k) => r.top(k),
                        None => r,
                    }
                };
                let mut pages = vec![
                    (store.rank(&concept, &request(RankRequest::all())).unwrap(), &full),
                    (reopened.rank(&concept, &request(RankRequest::all())).unwrap(), &full),
                    (compacted.rank(&concept, &request(RankRequest::all())).unwrap(), &dense),
                ];
                if aggregator.is_min() {
                    pages.push((
                        store.rank_exact(&concept, &request(RankRequest::all())).unwrap(),
                        &full,
                    ));
                }
                if let Some(k) = top {
                    let scan = subset
                        .rank_top_k_with(&concept, k, f64::INFINITY, threads, aggregator)
                        .unwrap();
                    pages.push((scan.ranking, &full));
                }
                for (page, want) in pages {
                    prop_assert_eq!(page.len(), cut);
                    for (a, b) in page.iter().zip(&want[..cut]) {
                        prop_assert!(
                            a.0 == b.0 && a.1.to_bits() == b.1.to_bits(),
                            "{aggregator}: {a:?} != {b:?}"
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Featurised corpora pair exactly as the closure rule says: every
/// gray-block bag (each region pushes its sample and the sample's
/// mirror) is stored as one half, while SBN bags (odd instance counts, a
/// dimension that is no square) and mirror-free gray-block bags are
/// stored whole — and each reads back bitwise.
#[test]
fn featurised_bags_pair_only_when_mirror_closed() {
    use milr::core::features::image_to_bag;
    use milr::core::RetrievalConfig;
    use milr::mil::FlatBags;

    let images = milr::synth::SceneDatabase::builder()
        .images_per_category(1)
        .seed(3)
        .build();
    let mut config = RetrievalConfig::default();
    let mut cases = Vec::new();
    for image in images.images() {
        let gray = image.to_gray();
        config.include_mirrors = true;
        cases.push((image_to_bag(&gray, &config).unwrap(), true));
        config.include_mirrors = false;
        cases.push((image_to_bag(&gray, &config).unwrap(), false));
        cases.push((milr::baseline::sbn::sbn_bag(image).unwrap(), false));
    }
    for (bag, paired) in cases {
        let mut flat = FlatBags::new(bag.dim());
        flat.push_bag(&bag);
        assert_eq!(flat.span(0).paired, paired, "{} × {}", bag.len(), bag.dim());
        assert_eq!(flat.span(0).instance_count(), bag.len());
        assert_eq!(flat.to_bag(0), bag);
    }
}
