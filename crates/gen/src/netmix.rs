//! Electrical net-kind mixes.

use copack_geom::NetKind;

/// The fraction of supply nets in a generated circuit.
///
/// Industrial pad rings dedicate a substantial share of pads to power
/// delivery; the default (15% power, 15% ground) is a typical wire-bond
/// budget and can be overridden per circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetMix {
    /// Fraction of nets that are Vdd pads, in `[0, 1]`.
    pub power_fraction: f64,
    /// Fraction of nets that are ground pads, in `[0, 1]`.
    pub ground_fraction: f64,
}

impl NetMix {
    /// Validates the fractions.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.power_fraction.is_finite()
            && self.ground_fraction.is_finite()
            && self.power_fraction >= 0.0
            && self.ground_fraction >= 0.0
            && self.power_fraction + self.ground_fraction <= 1.0
    }

    /// Expands the mix into a kind per net for `n` nets: the first
    /// `⌈n·power⌉` are power, the next `⌈n·ground⌉` ground, the rest
    /// signal. (Callers shuffle net *placement*, so position here carries
    /// no bias.)
    #[must_use]
    pub fn kinds(&self, n: usize) -> Vec<NetKind> {
        let p = ((n as f64) * self.power_fraction).round() as usize;
        let g = ((n as f64) * self.ground_fraction).round() as usize;
        let mut kinds = Vec::with_capacity(n);
        kinds.extend(std::iter::repeat(NetKind::Power).take(p.min(n)));
        kinds.extend(std::iter::repeat(NetKind::Ground).take(g.min(n - p.min(n))));
        while kinds.len() < n {
            kinds.push(NetKind::Signal);
        }
        kinds
    }
}

impl Default for NetMix {
    fn default() -> Self {
        Self {
            power_fraction: 0.15,
            ground_fraction: 0.15,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_is_valid() {
        assert!(NetMix::default().is_valid());
    }

    #[test]
    fn kinds_counts_match_fractions() {
        let mix = NetMix {
            power_fraction: 0.25,
            ground_fraction: 0.25,
        };
        let kinds = mix.kinds(24);
        assert_eq!(kinds.len(), 24);
        assert_eq!(kinds.iter().filter(|&&k| k == NetKind::Power).count(), 6);
        assert_eq!(kinds.iter().filter(|&&k| k == NetKind::Ground).count(), 6);
        assert_eq!(kinds.iter().filter(|&&k| k == NetKind::Signal).count(), 12);
    }

    #[test]
    fn all_signal_mix_is_possible() {
        let mix = NetMix {
            power_fraction: 0.0,
            ground_fraction: 0.0,
        };
        assert!(mix.kinds(5).iter().all(|&k| k == NetKind::Signal));
    }

    #[test]
    fn saturated_mix_never_overflows() {
        let mix = NetMix {
            power_fraction: 0.7,
            ground_fraction: 0.5,
        };
        assert!(!mix.is_valid());
        // Even an invalid mix must not panic or overflow in kinds().
        assert_eq!(mix.kinds(10).len(), 10);
    }

    #[test]
    fn invalid_fractions_are_caught() {
        for bad in [
            NetMix {
                power_fraction: -0.1,
                ground_fraction: 0.1,
            },
            NetMix {
                power_fraction: f64::NAN,
                ground_fraction: 0.1,
            },
        ] {
            assert!(!bad.is_valid());
        }
    }
}
