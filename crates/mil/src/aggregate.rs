//! Pluggable bag aggregation policies.
//!
//! The paper fixes one bag score: the *minimum* weighted distance over
//! the bag's instances (§3.5) — a bag matches if **any** region matches.
//! The wider MIL literature treats the instance→bag reduction as a
//! swappable knob (torchmil's pooling menu: max / logsumexp /
//! generalized-mean / noisy-or over instance similarities).
//! [`BagAggregator`] names that knob for the ranking API.
//!
//! Every aggregator maps a bag's exact per-instance weighted squared
//! distances `d_1..d_n` (all produced by the canonical
//! [`crate::kernel`]) to one **ascending, non-negative, finite ranking
//! key** — smaller is better, like a distance — so every downstream
//! consumer (top-k heaps, k-way merges, the wire format's non-negative
//! finite validation) works unchanged:
//!
//! * [`MinDistance`](BagAggregator::MinDistance) — `min_j d_j`, the
//!   paper's key. The **only** aggregator for which partial-distance
//!   pruning and the i8 quantized screen are sound (their proofs bound
//!   the *minimum*); it routes through those kernels untouched.
//! * [`LogSumExp`](BagAggregator::LogSumExp) — the smooth minimum
//!   `−ln( (1/n) Σ_j exp(−d_j) )`, computed in the shifted stable form
//!   `m + ln n − ln Σ_j exp(−(d_j − m))` with `m = min_j d_j`. Close
//!   runner-up instances pull the key down toward `m`, far ones push it
//!   toward `m + ln n`; either way it stays in `[m, m + ln n]` —
//!   non-negative and finite for finite distances.
//! * [`GeneralizedMean`](BagAggregator::GeneralizedMean) — the power
//!   mean of the distances with exponent ½, `((1/n) Σ_j √d_j)²`: a
//!   robust whole-bag match where every region contributes (the
//!   sub-image scenario's "most of the picture should look like the
//!   query region" mode).
//! * [`NoisyOr`](BagAggregator::NoisyOr) — the complement
//!   `Π_j (1 − exp(−d_j))` of the noisy-or bag probability
//!   [`crate::Concept::bag_probability`], in `[0, 1]`; ranking
//!   ascending by it is ranking descending by the probability.
//!
//! Non-min aggregators need **every** instance distance — no screen,
//! no partial abandon — so ranking paths must take the
//! exact fold. [`BagAggregator::fold`] is that fold, shared verbatim by
//! the monolithic, sharded, and distributed scorers, which is what
//! makes them bit-identical to each other and to a naive per-bag
//! reference.

use std::fmt;

/// How a bag's per-instance distances reduce to one ranking key.
///
/// See the [module docs](self) for each variant's exact formula and
/// which pruning tiers stay engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BagAggregator {
    /// `min_j d_j` — the paper's §3.5 key; full pruning stack engaged.
    #[default]
    MinDistance,
    /// Smooth minimum `−ln((1/n) Σ exp(−d_j))`; exact path only.
    LogSumExp,
    /// Power mean `((1/n) Σ √d_j)²` (exponent ½); exact path only.
    GeneralizedMean,
    /// Noisy-or complement `Π (1 − exp(−d_j))`; exact path only.
    NoisyOr,
}

impl BagAggregator {
    /// Every aggregator, in wire-label order — the iteration order of
    /// the scenario benchmark grid.
    pub const ALL: [Self; 4] = [
        Self::MinDistance,
        Self::LogSumExp,
        Self::GeneralizedMean,
        Self::NoisyOr,
    ];

    /// The wire/CLI label (`min-distance`, `logsumexp`,
    /// `generalized-mean`, `noisy-or`).
    pub fn label(self) -> &'static str {
        match self {
            Self::MinDistance => "min-distance",
            Self::LogSumExp => "logsumexp",
            Self::GeneralizedMean => "generalized-mean",
            Self::NoisyOr => "noisy-or",
        }
    }

    /// Parses a wire/CLI label. `None` for unknown labels — wire
    /// layers map that to their own clean reject (400 on the daemon,
    /// 409-style on the cluster scatter leg) rather than guessing.
    pub fn parse(label: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|a| a.label() == label)
    }

    /// Whether this is the default min-distance aggregator — the only
    /// one the provable pruning tiers (partial-distance, i8 screen) may
    /// serve.
    #[inline]
    pub fn is_min(self) -> bool {
        matches!(self, Self::MinDistance)
    }

    /// Reduces a bag's exact instance distances to the ranking key.
    ///
    /// This is the **one** exact fold every non-min ranking path runs
    /// (monolithic, sharded, distributed), so their keys agree bit for
    /// bit with each other and with a naive per-bag reference fold.
    /// [`Self::MinDistance`] keys normally come from the pruned
    /// kernels instead; its arm here is the reference those kernels
    /// are proven against.
    ///
    /// An empty slice (no instances — cannot happen for well-formed
    /// bags) keys to [`f64::INFINITY`].
    pub fn fold(self, distances: &[f64]) -> f64 {
        if distances.is_empty() {
            return f64::INFINITY;
        }
        let n = distances.len() as f64;
        match self {
            Self::MinDistance => distances.iter().copied().fold(f64::INFINITY, f64::min),
            Self::LogSumExp => {
                let m = distances.iter().copied().fold(f64::INFINITY, f64::min);
                let sum: f64 = distances.iter().map(|&d| (-(d - m)).exp()).sum();
                m + n.ln() - sum.ln()
            }
            Self::GeneralizedMean => {
                let mean = distances.iter().map(|&d| d.sqrt()).sum::<f64>() / n;
                mean * mean
            }
            Self::NoisyOr => distances
                .iter()
                .fold(1.0f64, |prod, &d| prod * (1.0 - (-d).exp())),
        }
    }
}

impl fmt::Display for BagAggregator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for agg in BagAggregator::ALL {
            assert_eq!(BagAggregator::parse(agg.label()), Some(agg));
            assert_eq!(format!("{agg}"), agg.label());
        }
        assert_eq!(BagAggregator::parse("softmax"), None);
        assert_eq!(BagAggregator::parse(""), None);
        assert_eq!(
            BagAggregator::parse("MIN-DISTANCE"),
            None,
            "labels are exact"
        );
    }

    #[test]
    fn default_is_min_distance() {
        assert_eq!(BagAggregator::default(), BagAggregator::MinDistance);
        assert!(BagAggregator::MinDistance.is_min());
        for agg in [
            BagAggregator::LogSumExp,
            BagAggregator::GeneralizedMean,
            BagAggregator::NoisyOr,
        ] {
            assert!(!agg.is_min());
        }
    }

    #[test]
    fn min_distance_fold_is_the_minimum() {
        let d = [3.0, 0.25, 7.0];
        assert_eq!(BagAggregator::MinDistance.fold(&d), 0.25);
    }

    #[test]
    fn logsumexp_is_a_smooth_minimum() {
        // Key stays within [m, m + ln n]; a close runner-up pulls it
        // down toward the min, a far one pushes it toward m + ln n.
        let near = BagAggregator::LogSumExp.fold(&[1.0, 1.5]);
        let far = BagAggregator::LogSumExp.fold(&[1.0, 50.0]);
        assert!(near >= 1.0 && near <= 1.0 + 2.0f64.ln());
        assert!(far <= 1.0 + 2.0f64.ln());
        assert!(near < far, "close runner-up ⇒ key closer to min");
        // Single instance: exactly the distance.
        assert!((BagAggregator::LogSumExp.fold(&[2.5]) - 2.5).abs() < 1e-12);
        // Extreme distances stay finite (the naive −ln Σ exp(−d) would
        // underflow to +∞ here).
        let extreme = BagAggregator::LogSumExp.fold(&[900.0, 1000.0]);
        assert!(extreme.is_finite() && extreme >= 900.0);
    }

    #[test]
    fn generalized_mean_weighs_every_instance() {
        // (√0 + √4)/2 = 1 ⇒ key 1: the far instance drags the key off 0.
        let key = BagAggregator::GeneralizedMean.fold(&[0.0, 4.0]);
        assert!((key - 1.0).abs() < 1e-12);
        assert_eq!(BagAggregator::GeneralizedMean.fold(&[9.0]), 9.0);
    }

    #[test]
    fn noisy_or_is_the_probability_complement() {
        // One exact hit ⇒ probability 1 ⇒ key 0.
        assert_eq!(BagAggregator::NoisyOr.fold(&[0.0, 5.0]), 0.0);
        // All far ⇒ probability ≈ 0 ⇒ key ≈ 1.
        let far = BagAggregator::NoisyOr.fold(&[40.0, 60.0]);
        assert!(far > 0.999 && far <= 1.0);
        // More close instances ⇒ higher probability ⇒ smaller key.
        let one = BagAggregator::NoisyOr.fold(&[1.0]);
        let two = BagAggregator::NoisyOr.fold(&[1.0, 1.0]);
        assert!(two < one);
    }

    #[test]
    fn keys_are_non_negative_and_finite() {
        let cases: [&[f64]; 6] = [
            &[0.0],
            &[0.0, 0.0, 0.0],
            &[1e-12, 3.0],
            &[1000.0, 2000.0, 3000.0],
            &[0.5],
            &[7.25, 0.0, 19.5, 2.0],
        ];
        for agg in BagAggregator::ALL {
            for d in cases {
                let key = agg.fold(d);
                assert!(
                    key.is_finite() && key >= 0.0,
                    "{agg} over {d:?} keyed {key}"
                );
            }
            assert_eq!(agg.fold(&[]), f64::INFINITY, "{agg} of nothing");
        }
    }
}
