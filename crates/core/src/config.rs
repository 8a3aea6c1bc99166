//! Configuration types for the planning pipeline.

use std::fmt;

use crate::{Acceptance, Schedule};

/// Which congestion-driven assignment produces the initial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignMethod {
    /// The random monotonic baseline (paper §4's comparison point).
    Random {
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// Intuitive-insertion-based assignment (Fig. 9).
    Ifa,
    /// Density-interval-based assignment (Fig. 11).
    Dfa {
        /// The cut-line slack `n ≥ 1` of the DI formula.
        slack: u32,
    },
}

impl AssignMethod {
    /// The paper's recommended default: DFA ignoring cut-line congestion.
    #[must_use]
    pub const fn dfa_default() -> Self {
        Self::Dfa { slack: 1 }
    }
}

impl fmt::Display for AssignMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Random { seed } => write!(f, "random(seed={seed})"),
            Self::Ifa => f.write_str("ifa"),
            Self::Dfa { slack } => write!(f, "dfa(n={slack})"),
        }
    }
}

/// Weights of the exchange cost function, the paper's Eq. 3 extended
/// with an optional separation-margin term:
/// `Cost = λ·Δ_IR + ρ·ID + φ·ω + μ·SM`.
///
/// `Δ_IR` (a squared perimeter-gap deviation) is dimensionally much smaller
/// than the integer-valued `ID` and `ω`, so λ defaults two orders of
/// magnitude higher. `SM` (the net-separation margin penalty, after
/// Cheng et al.'s margin maximization — see [`crate::margin_penalty`])
/// is **off by default** (μ = 0): default-weight runs are bit-identical
/// to pre-margin builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// λ: weight of the IR-drop proxy.
    pub lambda: f64,
    /// ρ: weight of the increased-density penalty.
    pub rho: f64,
    /// φ: weight of the bonding-wire balance metric.
    pub phi: f64,
    /// μ: weight of the net-separation margin penalty (0 disables the
    /// term entirely).
    pub margin: f64,
}

impl CostWeights {
    /// Validates that all weights are finite and non-negative.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        [self.lambda, self.rho, self.phi, self.margin]
            .iter()
            .all(|w| w.is_finite() && *w >= 0.0)
    }
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            lambda: 800.0,
            rho: 2.0,
            phi: 0.25,
            margin: 0.0,
        }
    }
}

/// Configuration of the finger/pad exchange step (paper Fig. 14).
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeConfig {
    /// Cost-function weights (Eq. 3).
    pub weights: CostWeights,
    /// Annealing schedule.
    pub schedule: Schedule,
    /// Uphill-move acceptance rule.
    pub acceptance: Acceptance,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        Self {
            weights: CostWeights::default(),
            schedule: Schedule::default(),
            acceptance: Acceptance::Metropolis,
            seed: 0xC0DE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_are_valid() {
        assert!(CostWeights::default().is_valid());
    }

    #[test]
    fn invalid_weights_are_caught() {
        for bad in [
            CostWeights {
                lambda: -1.0,
                ..CostWeights::default()
            },
            CostWeights {
                rho: f64::NAN,
                ..CostWeights::default()
            },
            CostWeights {
                phi: f64::INFINITY,
                ..CostWeights::default()
            },
        ] {
            assert!(!bad.is_valid());
        }
    }

    #[test]
    fn method_display_is_descriptive() {
        assert_eq!(AssignMethod::Ifa.to_string(), "ifa");
        assert_eq!(AssignMethod::Dfa { slack: 2 }.to_string(), "dfa(n=2)");
        assert_eq!(
            AssignMethod::Random { seed: 7 }.to_string(),
            "random(seed=7)"
        );
        assert_eq!(AssignMethod::dfa_default(), AssignMethod::Dfa { slack: 1 });
    }

    #[test]
    fn default_exchange_config_is_usable() {
        let c = ExchangeConfig::default();
        assert!(c.weights.is_valid());
        assert!(c.schedule.is_valid());
        assert_eq!(c.acceptance, Acceptance::Metropolis);
    }
}
