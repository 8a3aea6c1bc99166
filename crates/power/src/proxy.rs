//! The fast pad-spacing proxy the exchange step optimises.
//!
//! Directly solving Eq. 1 for every simulated-annealing move is far too
//! slow (the paper: "the analysis time for the chip is very long"), so the
//! paper instead "compute\[s\] the variation of Δx and Δy to be the IR-drop
//! improvement when the location of the power pad is exchanged": pads that
//! are spread evenly along the die boundary minimise the worst distance any
//! grid region has to a supply, which Eq. 1 translates into lower drops.
//!
//! [`PadSpacingProxy`] scores a pad ring by how uneven its perimeter gaps
//! are. Zero means perfectly uniform; larger is worse. The proxy is
//! validated against the full solver in this crate's tests and in the
//! `ablation` experiment (A3 in `DESIGN.md`).
//!
//! Pads on finger slots sit at `(slot + 0.5) / α`, so each gap is a whole
//! number of fingers over α. [`slot_gap_squares`] and [`slot_delta_ir`]
//! score such a ring exactly from its integer gaps; the exchange step's
//! kernel and its reference both use them.

use crate::PowerError;

/// Gap-uniformity score of a power-pad ring.
#[derive(Debug, Clone, PartialEq)]
pub struct PadSpacingProxy {
    gaps: Vec<f64>,
    ideal: f64,
}

impl PadSpacingProxy {
    /// Builds the proxy from perimeter coordinates in `[0, 1)` (any order).
    ///
    /// # Errors
    ///
    /// * [`PowerError::NoPads`] for an empty slice.
    /// * [`PowerError::BadPadPosition`] for a coordinate outside `[0, 1)`.
    pub fn new(ts: &[f64]) -> Result<Self, PowerError> {
        if ts.is_empty() {
            return Err(PowerError::NoPads);
        }
        let mut sorted = ts.to_vec();
        for &t in &sorted {
            if !t.is_finite() || !(0.0..1.0).contains(&t) {
                return Err(PowerError::BadPadPosition { t });
            }
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let k = sorted.len();
        let mut gaps = Vec::with_capacity(k);
        for w in sorted.windows(2) {
            gaps.push(w[1] - w[0]);
        }
        // Wrap-around gap closes the ring.
        gaps.push(1.0 - sorted[k - 1] + sorted[0]);
        Ok(Self {
            gaps,
            ideal: 1.0 / k as f64,
        })
    }

    /// The perimeter gaps between circularly adjacent pads (sums to 1).
    #[must_use]
    pub fn gaps(&self) -> &[f64] {
        &self.gaps
    }

    /// The largest gap — the most starved stretch of boundary.
    #[must_use]
    pub fn max_gap(&self) -> f64 {
        self.gaps.iter().copied().fold(0.0, f64::max)
    }

    /// The paper's "total variation of Δx and Δy": sum of squared
    /// deviations of each gap from the uniform ideal. Zero iff the ring is
    /// perfectly uniform.
    #[must_use]
    pub fn delta_ir(&self) -> f64 {
        self.gaps.iter().map(|g| (g - self.ideal).powi(2)).sum()
    }
}

/// `G = Σ g²` over the integer perimeter gaps of pads on the 0-based
/// `slots` (strictly increasing) of an `alpha`-slot ring: the gaps
/// between neighbours, then the wrap-around gap `alpha − last + first`.
/// One pad has the single gap `alpha`; no pads give 0.
///
/// # Panics
///
/// If the slots are not strictly increasing, or a slot is not below
/// `alpha`.
#[must_use]
pub fn slot_gap_squares(slots: &[u32], alpha: u64) -> u64 {
    let (Some(&first), Some(&last)) = (slots.first(), slots.last()) else {
        return 0;
    };
    assert!(
        u64::from(last) < alpha,
        "slot {last} outside a {alpha}-slot ring"
    );
    let wrap = alpha - u64::from(last) + u64::from(first);
    slots
        .windows(2)
        .map(|w| {
            assert!(w[0] < w[1], "slots {} and {} out of order", w[0], w[1]);
            u64::from(w[1] - w[0])
        })
        .chain([wrap])
        .map(|g| g * g)
        .sum()
}

/// [`PadSpacingProxy::delta_ir`] of `pads` pads on an `alpha`-slot ring
/// whose integer gaps have square sum `gap_squares` ([`slot_gap_squares`]),
/// by the exact identity `Σ (g − 1/k)² = (k·G − α²) / (k·α²)`.
///
/// The gaps sum to 1, which is what collapses the sum. `G ≤ α²` and
/// `k ≤ α`, so while `α³ < 2⁵³` (up to about 2·10⁵ fingers) both integers
/// convert to `f64` exactly and the score is one correctly rounded
/// division: rings that are equal in exact arithmetic score equal. It
/// agrees with the float sum over `(slot + 0.5) / α` coordinates to
/// rounding error. No pads score 0.
///
/// A caller that scores many rings of one pad count and ring size builds
/// the [`SlotRing`] once and calls [`SlotRing::delta_ir`]: the same
/// formula with its denominator kept.
#[must_use]
pub fn slot_delta_ir(gap_squares: u64, pads: u64, alpha: u64) -> f64 {
    SlotRing::new(pads, alpha).delta_ir(gap_squares)
}

/// The parts of [`slot_delta_ir`] that depend only on the pad count `k`
/// and the ring size `α`: a pad-spacing score whose denominator `k·α²`
/// is converted to `f64` once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotRing {
    pads: u64,
    alpha: u64,
    /// `(k·α²) as f64`.
    denominator: f64,
}

// The denominator is a finite function of the integer fields.
impl Eq for SlotRing {}

impl SlotRing {
    /// The ring of `pads` pads on `alpha` slots.
    #[must_use]
    pub fn new(pads: u64, alpha: u64) -> Self {
        // Below 2²¹ fingers every product fits u64.
        let denominator = if alpha < 1 << 21 {
            (pads * alpha * alpha) as f64
        } else {
            (u128::from(pads) * u128::from(alpha) * u128::from(alpha)) as f64
        };
        Self {
            pads,
            alpha,
            denominator,
        }
    }

    /// [`slot_delta_ir`] of this ring with square-gap sum `gap_squares`.
    #[must_use]
    #[inline]
    pub fn delta_ir(&self, gap_squares: u64) -> f64 {
        if self.pads == 0 {
            return 0.0;
        }
        if self.alpha < 1 << 21 {
            // `k·G − α² ≤ α³ < 2⁶³`, so its conversion through `i64` gives
            // the same value as through `u64`, without the unsigned fix-up.
            let numerator = self.pads * gap_squares - self.alpha * self.alpha;
            return numerator as i64 as f64 / self.denominator;
        }
        let (k, g, a2) = (
            u128::from(self.pads),
            u128::from(gap_squares),
            u128::from(self.alpha) * u128::from(self.alpha),
        );
        (k * g - a2) as f64 / self.denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_mg, GridSpec, PadRing};

    /// The float proxy over the slot coordinates `(slot + 0.5) / α`.
    fn float_score(slots: &[u32], alpha: u64) -> f64 {
        let ts: Vec<f64> = slots
            .iter()
            .map(|&s| (f64::from(s) + 0.5) / alpha as f64)
            .collect();
        PadSpacingProxy::new(&ts).unwrap().delta_ir()
    }

    #[test]
    fn slot_scores_follow_the_float_proxy() {
        for (slots, alpha) in [
            (&[0u32][..], 1u64),
            (&[3], 10),
            (&[0, 5], 10),
            (&[1, 2, 9], 12),
            (&[0, 1, 2, 3], 40),
            (&[7, 130, 131, 600, 999], 1000),
        ] {
            let exact = slot_delta_ir(slot_gap_squares(slots, alpha), slots.len() as u64, alpha);
            let float = float_score(slots, alpha);
            assert!(
                (exact - float).abs() <= 1e-12 * float.max(1e-12),
                "{slots:?} of {alpha}: {exact:e} vs {float:e}"
            );
        }
        // Uniform rings score exactly zero, and one pad has one gap.
        assert_eq!(slot_delta_ir(slot_gap_squares(&[1, 4, 7], 9), 3, 9), 0.0);
        assert_eq!(slot_gap_squares(&[4], 9), 81);
        assert_eq!(slot_gap_squares(&[], 9), 0);
        assert_eq!(slot_delta_ir(0, 0, 9), 0.0);
    }

    #[test]
    fn slot_scores_tie_exactly() {
        // Mirror images of a ring are equal in exact arithmetic.
        let a = slot_delta_ir(slot_gap_squares(&[0, 2, 3], 10), 3, 10);
        let b = slot_delta_ir(slot_gap_squares(&[6, 7, 9], 10), 3, 10);
        assert_eq!(a.to_bits(), b.to_bits());
        // The u128 path for very wide rings agrees with the identity.
        let alpha = 1u64 << 22;
        let g = slot_gap_squares(&[0, 1 << 21], alpha);
        assert_eq!(slot_delta_ir(g, 2, alpha), 0.0);
        let g = slot_gap_squares(&[0, 1], alpha);
        let want = (2.0 * g as f64 - (alpha as f64).powi(2)) / (2.0 * (alpha as f64).powi(2));
        assert!((slot_delta_ir(g, 2, alpha) - want).abs() <= 1e-15);
    }

    #[test]
    fn a_kept_ring_scores_as_the_unsigned_formula() {
        // The parent formula, converting the numerator from u64.
        let unsigned = |g: u64, k: u64, alpha: u64| {
            let a2 = alpha * alpha;
            (k * g - a2) as f64 / (k * a2) as f64
        };
        for (slots, alpha) in [
            (&[0u32][..], 1u64),
            (&[3], 10),
            (&[0, 1, 2, 3], 40),
            (&[7, 130, 131, 600, 999], 1000),
            (&[0, 1], (1 << 21) - 1),
        ] {
            let g = slot_gap_squares(slots, alpha);
            let ring = SlotRing::new(slots.len() as u64, alpha);
            let want = unsigned(g, slots.len() as u64, alpha);
            assert_eq!(ring.delta_ir(g).to_bits(), want.to_bits(), "{slots:?}");
        }
        assert_eq!(SlotRing::new(0, 9).delta_ir(0), 0.0);
    }

    #[test]
    fn uniform_ring_scores_zero() {
        let p = PadSpacingProxy::new(&[0.125, 0.375, 0.625, 0.875]).unwrap();
        assert!(p.delta_ir() < 1e-15);
        assert!((p.max_gap() - 0.25).abs() < 1e-12);
        assert_eq!(p.gaps().len(), 4);
    }

    #[test]
    fn clustering_raises_the_score() {
        let uniform = PadSpacingProxy::new(&[0.1, 0.35, 0.6, 0.85]).unwrap();
        let clustered = PadSpacingProxy::new(&[0.1, 0.12, 0.14, 0.16]).unwrap();
        assert!(clustered.delta_ir() > uniform.delta_ir());
        assert!(clustered.max_gap() > uniform.max_gap());
    }

    #[test]
    fn input_order_does_not_matter() {
        let a = PadSpacingProxy::new(&[0.7, 0.1, 0.4]).unwrap();
        let b = PadSpacingProxy::new(&[0.1, 0.4, 0.7]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gaps_sum_to_one() {
        let p = PadSpacingProxy::new(&[0.05, 0.3, 0.31, 0.9]).unwrap();
        let sum: f64 = p.gaps().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(matches!(PadSpacingProxy::new(&[]), Err(PowerError::NoPads)));
        assert!(PadSpacingProxy::new(&[1.0]).is_err());
        assert!(PadSpacingProxy::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn proxy_ranks_rings_like_the_full_solver() {
        // The whole point of the proxy: orderings by delta_ir must agree
        // with orderings by solved max drop for progressively clustered
        // rings.
        let spec = GridSpec::default_chip(16);
        let rings = [
            vec![0.125, 0.375, 0.625, 0.875], // uniform
            vec![0.10, 0.30, 0.60, 0.90],     // mildly uneven
            vec![0.05, 0.15, 0.55, 0.65],     // paired
            vec![0.02, 0.06, 0.10, 0.14],     // fully clustered
        ];
        let mut scores = Vec::new();
        for ts in &rings {
            let proxy = PadSpacingProxy::new(ts).unwrap().delta_ir();
            let drop = solve_mg(&spec, &PadRing::from_ts(ts.iter().copied()).unwrap())
                .unwrap()
                .max_drop();
            scores.push((proxy, drop));
        }
        for w in scores.windows(2) {
            assert!(w[0].0 <= w[1].0, "proxy ordering broken: {scores:?}");
            assert!(w[0].1 <= w[1].1, "solver ordering broken: {scores:?}");
        }
    }
}
