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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_mg, GridSpec, PadRing};

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
