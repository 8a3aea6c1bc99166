//! The trial space: which configurations the tuner considers.

use copack_core::PortfolioMode;
use copack_io::{fnv1a64, ClassConfig};

/// An ordered set of candidate configurations.
///
/// Point 0 is **always** the built-in default configuration. The tuner
/// carries point 0 into the final full-length round unconditionally, so
/// a tuned profile can never be worse than the defaults on the family
/// it was tuned over — the quality guarantee `bench_tune` gates on.
///
/// The remaining points are one-knob-at-a-time deviations from the
/// default. A coordinate sweep keeps the space small enough to afford
/// and keeps every winner interpretable ("cooling 0.85 beat the
/// default"), which is what the paper-style A-series ablations already
/// established as the useful way to read Eq. 3 weight sensitivity.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSpace {
    /// The candidate configurations; index is the trial-point id.
    pub points: Vec<ClassConfig>,
}

fn deviations(base: ClassConfig) -> Vec<ClassConfig> {
    let mut points = vec![base];
    let mut push = |f: &dyn Fn(&mut ClassConfig)| {
        let mut p = base;
        f(&mut p);
        points.push(p);
    };
    // SA schedule.
    push(&|p| p.cooling = 0.85);
    push(&|p| p.cooling = 0.95);
    push(&|p| p.moves_per_temp = 1);
    push(&|p| p.moves_per_temp = 4);
    push(&|p| p.initial_temp_factor = 0.15);
    push(&|p| p.initial_temp_factor = 0.6);
    // Eq. 3 weights.
    push(&|p| p.lambda = base.lambda * 0.5);
    push(&|p| p.lambda = base.lambda * 2.0);
    push(&|p| p.rho = base.rho * 0.5);
    push(&|p| p.rho = base.rho * 2.0);
    push(&|p| p.phi = base.phi * 0.5);
    push(&|p| p.phi = base.phi * 2.0);
    // Portfolio shape.
    push(&|p| {
        p.starts = 2;
        p.prune_margin = 0.25;
    });
    push(&|p| {
        p.starts = 8;
        p.prune_margin = 0.25;
    });
    push(&|p| {
        p.starts = 4;
        p.prune_margin = 0.1;
    });
    // The cooperative portfolio mode, paired with a multi-start shape
    // (modes are inert at K = 1), so the deviation the tuner scores is
    // "this cooperation policy on a 4-start portfolio" — directly
    // comparable to the 4-start race point above.
    push(&|p| {
        p.starts = 4;
        p.prune_margin = 0.1;
        p.mode = PortfolioMode::Coop;
    });
    push(&|p| {
        p.starts = 4;
        p.prune_margin = 0.1;
        p.mode = PortfolioMode::Coop;
        p.kick_size = 8;
    });
    points
}

impl TrialSpace {
    /// The standard space: the default plus seventeen deviations — one
    /// knob at a time, except the cooperative-mode points, which pair a
    /// mode with the multi-start shape it needs to be live.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            points: deviations(ClassConfig::default_config()),
        }
    }

    /// A tiny space for CI smoke runs and oracles: the default plus
    /// three deviations (faster cooling, fewer moves, two starts).
    #[must_use]
    pub fn quick() -> Self {
        let base = ClassConfig::default_config();
        Self {
            points: vec![
                base,
                ClassConfig {
                    cooling: 0.85,
                    ..base
                },
                ClassConfig {
                    moves_per_temp: 1,
                    ..base
                },
                ClassConfig {
                    starts: 2,
                    prune_margin: 0.25,
                    ..base
                },
            ],
        }
    }

    /// Number of candidate points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the space has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Content fingerprint of the space, recorded in emitted profiles so
    /// a profile declares exactly which candidate set produced it.
    /// Every `f64` enters as its bit pattern — two spaces fingerprint
    /// equally iff they are bit-identical.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        for p in &self.points {
            text.push_str(&format!(
                "{:016x},{:016x},{:016x},{},{:016x},{:016x},{:016x},{:016x},{},{:016x},{},{};",
                p.cooling.to_bits(),
                p.initial_temp_factor.to_bits(),
                p.final_temp_ratio.to_bits(),
                p.moves_per_temp,
                p.lambda.to_bits(),
                p.rho.to_bits(),
                p.phi.to_bits(),
                p.margin.to_bits(),
                p.starts,
                p.prune_margin.to_bits(),
                p.mode.as_str(),
                p.kick_size,
            ));
        }
        fnv1a64(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_zero_is_the_default() {
        for space in [TrialSpace::standard(), TrialSpace::quick()] {
            assert_eq!(space.points[0], ClassConfig::default_config());
        }
    }

    #[test]
    fn points_are_distinct() {
        let space = TrialSpace::standard();
        for (i, a) in space.points.iter().enumerate() {
            for (j, b) in space.points.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "points {i} and {j} coincide");
                }
            }
        }
        assert_eq!(space.len(), 18);
        assert_eq!(TrialSpace::quick().len(), 4);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = TrialSpace::standard();
        assert_eq!(a.fingerprint(), TrialSpace::standard().fingerprint());
        assert_ne!(a.fingerprint(), TrialSpace::quick().fingerprint());
        let mut b = TrialSpace::standard();
        b.points[3].cooling += 1e-9;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
