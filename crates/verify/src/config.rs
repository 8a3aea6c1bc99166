//! The verification profile: how hard the oracles drive each instance.

use copack_core::{ExchangeConfig, Schedule};
use copack_geom::{GeomError, StackConfig};

/// Parameters of one oracle run over one instance.
///
/// The defaults are a deliberately *short* profile — a truncated annealing
/// schedule and a small IR grid — so a full five-oracle pass stays cheap
/// enough to run on every fuzz case and in the debug-tier test suite. The
/// invariants checked are schedule-independent: if the bookkeeping is
/// wrong, a short walk exposes it just as well as a long one.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyConfig {
    /// Stacking tiers ψ of the instance (1 = planar).
    pub tiers: u8,
    /// Seed of the exchange runs the oracles perform.
    pub exchange_seed: u64,
    /// Side length of the IR cross-check grid (kept small: the dense
    /// ground-truth solver is O(n⁶) in this number).
    pub grid_n: usize,
    /// Annealing schedule of the oracle exchange runs.
    pub schedule: Schedule,
}

impl VerifyConfig {
    /// The short verification profile for an instance with `tiers` tiers.
    #[must_use]
    pub fn quick(tiers: u8) -> Self {
        Self {
            tiers,
            exchange_seed: 0xC0DE,
            grid_n: 10,
            schedule: Schedule {
                cooling: 0.7,
                moves_per_temp_per_finger: 1,
                ..Schedule::default()
            },
        }
    }

    /// The exchange configuration the oracles run under: the instance's
    /// seed and the oracle schedule, every other knob at its default.
    #[must_use]
    pub fn exchange_config(&self) -> ExchangeConfig {
        ExchangeConfig {
            seed: self.exchange_seed,
            schedule: self.schedule,
            ..ExchangeConfig::default()
        }
    }

    /// The stack configuration for the instance's ψ.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError::InvalidStack`] for ψ = 0 or ψ > 64.
    pub fn stack(&self) -> Result<StackConfig, GeomError> {
        if self.tiers <= 1 {
            Ok(StackConfig::planar())
        } else {
            StackConfig::stacked(self.tiers)
        }
    }
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self::quick(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_is_valid_and_short() {
        let cfg = VerifyConfig::quick(1);
        assert!(cfg.schedule.is_valid());
        assert!(cfg.schedule.temperature_steps() <= 20);
        assert!(cfg.exchange_config().weights.is_valid());
        assert_eq!(cfg.stack().unwrap().tiers, 1);
        assert_eq!(VerifyConfig::quick(3).stack().unwrap().tiers, 3);
    }
}
