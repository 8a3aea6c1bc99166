//! Simulated-annealing scaffolding (schedule + acceptance rule).

/// Acceptance rule for uphill (worse) moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Acceptance {
    /// Classic Metropolis: accept a worse move with probability
    /// `exp(−ΔC/T)` (i.e. when `rand < exp(−ΔC/T)`). The default.
    #[default]
    Metropolis,
    /// The rule exactly as printed in the paper's Fig. 14 line 12:
    /// accept when `rand > exp(−ΔC/T)`. This inverts Metropolis — worse
    /// moves are accepted *less* often at high temperature — and is kept
    /// only for the A1 ablation (see `DESIGN.md`).
    AsWritten,
    /// Pure hill climbing: uphill moves are never accepted. The ablation
    /// baseline that shows whether SA's uphill moves buy anything.
    Greedy,
}

impl Acceptance {
    /// Whether a move with positive cost delta is accepted, given a uniform
    /// draw `u ∈ [0, 1)`.
    #[must_use]
    pub fn accepts(self, delta: f64, temperature: f64, u: f64) -> bool {
        let p = (-delta / temperature.max(f64::MIN_POSITIVE)).exp();
        match self {
            Self::Metropolis => u < p,
            Self::AsWritten => u > p,
            Self::Greedy => false,
        }
    }

    /// Probability that a move with positive cost delta is accepted over a
    /// uniform draw — the closed form the trace-based Metropolis test
    /// compares empirical acceptance rates against.
    #[must_use]
    pub fn probability(self, delta: f64, temperature: f64) -> f64 {
        let p = (-delta / temperature.max(f64::MIN_POSITIVE)).exp();
        match self {
            Self::Metropolis => p.min(1.0),
            Self::AsWritten => 1.0 - p.min(1.0),
            Self::Greedy => 0.0,
        }
    }
}

/// Geometric cooling schedule (the paper's Fig. 14: start temperature,
/// final temperature, `Cooling(Temperature)` per outer iteration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Start temperature as a fraction of the initial cost (auto-scaled so
    /// the weights' magnitudes do not need hand-tuning).
    pub initial_temp_factor: f64,
    /// Stop when the temperature falls below this fraction of the start.
    pub final_temp_ratio: f64,
    /// Geometric cooling factor per temperature step (0 < c < 1).
    pub cooling: f64,
    /// Proposed moves per temperature step, as a multiple of the finger
    /// count.
    pub moves_per_temp_per_finger: usize,
}

impl Schedule {
    /// Validates the schedule parameters.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.initial_temp_factor > 0.0
            && self.initial_temp_factor.is_finite()
            && (0.0..1.0).contains(&self.final_temp_ratio)
            && self.final_temp_ratio > 0.0
            && (0.0..1.0).contains(&self.cooling)
            && self.cooling > 0.0
            && self.moves_per_temp_per_finger > 0
    }

    /// Number of temperature steps the schedule will run.
    #[must_use]
    pub fn temperature_steps(&self) -> usize {
        // cooling^k < final_ratio  ⇒  k > ln(final)/ln(cooling)
        (self.final_temp_ratio.ln() / self.cooling.ln()).ceil() as usize
    }

    /// The schedule truncated to its first `steps` temperature steps —
    /// the auto-tuner's early-stop hook.
    ///
    /// Everything that shapes the move stream (initial temperature,
    /// cooling, moves per step, and therefore the per-move RNG draws) is
    /// unchanged; only the stop threshold moves. An exchange run under
    /// the prefix schedule is therefore an **exact prefix** of the full
    /// run: same moves proposed, same moves accepted, same best-so-far
    /// trajectory over the shared steps (property-tested in
    /// `copack-tune`). That is what makes early signals honest — they
    /// observe the real run, not a perturbed one.
    ///
    /// The threshold lands half a cooling step past step `steps`
    /// (`cooling^(steps − ½)`), so float rounding in the temperature
    /// recurrence can never shift the stop by a step. `steps` is clamped
    /// to `1..=temperature_steps()`.
    #[must_use]
    pub fn prefix(&self, steps: usize) -> Self {
        let full = self.temperature_steps();
        let steps = steps.clamp(1, full.max(1));
        if steps >= full {
            return *self;
        }
        Self {
            final_temp_ratio: self.cooling.powf(steps as f64 - 0.5),
            ..*self
        }
    }
}

impl Default for Schedule {
    fn default() -> Self {
        Self {
            initial_temp_factor: 0.3,
            final_temp_ratio: 1e-3,
            cooling: 0.92,
            moves_per_temp_per_finger: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metropolis_accepts_more_when_hot() {
        let rule = Acceptance::Metropolis;
        // delta = 1: p(hot, T=10) ≈ 0.905, p(cold, T=0.1) ≈ 4.5e-5.
        assert!(rule.accepts(1.0, 10.0, 0.5));
        assert!(!rule.accepts(1.0, 0.1, 0.5));
    }

    #[test]
    fn as_written_is_the_inversion() {
        // Same draw, same delta/temperature: exactly one of the two rules
        // accepts (measure-zero ties aside).
        for (delta, t, u) in [(1.0, 10.0, 0.5), (1.0, 0.1, 0.5), (3.0, 2.0, 0.2)] {
            let m = Acceptance::Metropolis.accepts(delta, t, u);
            let w = Acceptance::AsWritten.accepts(delta, t, u);
            assert_ne!(m, w);
        }
    }

    #[test]
    fn zero_temperature_never_accepts_uphill_metropolis() {
        assert!(!Acceptance::Metropolis.accepts(1.0, 0.0, 0.0001));
    }

    #[test]
    fn greedy_never_accepts_uphill() {
        for (delta, t, u) in [(0.1, 100.0, 0.0), (5.0, 1e6, 0.999)] {
            assert!(!Acceptance::Greedy.accepts(delta, t, u));
        }
    }

    #[test]
    fn default_schedule_is_valid_and_finite() {
        let s = Schedule::default();
        assert!(s.is_valid());
        let steps = s.temperature_steps();
        assert!((40..400).contains(&steps), "{steps}");
    }

    #[test]
    fn prefix_runs_exactly_the_requested_steps() {
        let s = Schedule::default();
        let full = s.temperature_steps();
        for steps in [1, 2, full / 2, full - 1] {
            let p = s.prefix(steps);
            assert!(p.is_valid(), "{p:?}");
            assert_eq!(p.temperature_steps(), steps, "prefix({steps})");
            // Only the stop threshold may differ.
            assert_eq!(p.cooling, s.cooling);
            assert_eq!(p.initial_temp_factor, s.initial_temp_factor);
            assert_eq!(p.moves_per_temp_per_finger, s.moves_per_temp_per_finger);
        }
        // At or past the full length the schedule is returned unchanged.
        assert_eq!(s.prefix(full), s);
        assert_eq!(s.prefix(full + 10), s);
        assert_eq!(s.prefix(0).temperature_steps(), 1);
    }

    #[test]
    fn invalid_schedules_are_caught() {
        let base = Schedule::default();
        for bad in [
            Schedule {
                initial_temp_factor: 0.0,
                ..base
            },
            Schedule {
                final_temp_ratio: 0.0,
                ..base
            },
            Schedule {
                cooling: 1.0,
                ..base
            },
            Schedule {
                moves_per_temp_per_finger: 0,
                ..base
            },
        ] {
            assert!(!bad.is_valid(), "{bad:?}");
        }
    }
}
