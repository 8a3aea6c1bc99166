//! Circuit specifications and instance construction.

use copack_geom::{GeomError, NetKind, Package, Quadrant, QuadrantGeometry, StackConfig, TierId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{row_sizes_with, NetMix, RowProfile};

/// A synthetic test circuit: Table 1's published parameters plus the
/// deterministic fill-ins described in the crate docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    /// Human-readable name (e.g. `"circuit 3"`).
    pub name: String,
    /// Total finger/pad count over all four quadrants (Table 1 col. 2).
    pub finger_count: usize,
    /// Bump-ball pitch in µm (Table 1 col. 3, "bump ball space").
    pub ball_pitch: f64,
    /// Finger width in µm (Table 1 col. 4).
    pub finger_width: f64,
    /// Finger height in µm (Table 1 col. 5).
    pub finger_height: f64,
    /// Finger spacing in µm (Table 1 col. 6).
    pub finger_space: f64,
    /// Ball rows per quadrant (§4 fixes this at 4).
    pub rows: usize,
    /// How the ball rows are sized (default: the step-2 triangle).
    pub profile: RowProfile,
    /// Electrical mix of the pad ring.
    pub mix: NetMix,
    /// Number of stacking tiers ψ (1 = 2-D).
    pub tiers: u8,
    /// Seed for net placement / kind / tier shuffles.
    pub seed: u64,
}

impl Circuit {
    /// Nets per quadrant (total count / 4).
    #[must_use]
    pub fn nets_per_quadrant(&self) -> usize {
        self.finger_count / 4
    }

    /// The quadrant geometry implied by the Table 1 parameters (via and
    /// ball diameters are the §4 constants 0.1 µm / 0.2 µm).
    ///
    /// Table 1's finger space is the **minimal** spacing; the fingers of a
    /// quadrant are spread to span the ball grid (as in all the paper's
    /// figures), so the effective pitch is the larger of the minimal pitch
    /// and `grid width / finger count`.
    #[must_use]
    pub fn geometry(&self) -> QuadrantGeometry {
        let q_nets = self.nets_per_quadrant();
        let bottom_row = row_sizes_with(q_nets, self.rows, self.profile)[0];
        let grid_width = bottom_row as f64 * self.ball_pitch;
        let min_pitch = self.finger_width + self.finger_space;
        QuadrantGeometry {
            ball_pitch: self.ball_pitch,
            finger_pitch: min_pitch.max(grid_width / q_nets as f64),
            finger_width: self.finger_width,
            finger_height: self.finger_height,
            via_diameter: 0.1,
            ball_diameter: 0.2,
        }
    }

    /// The stack configuration implied by [`Circuit::tiers`].
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidStack`] for a zero tier count.
    pub fn stack(&self) -> Result<StackConfig, GeomError> {
        if self.tiers <= 1 {
            Ok(StackConfig::planar())
        } else {
            StackConfig::stacked(self.tiers)
        }
    }

    /// Returns a copy configured as a ψ-tier stacking IC (same netlist,
    /// tiers dealt evenly through a seeded shuffle).
    #[must_use]
    pub fn stacked(&self, tiers: u8) -> Self {
        Self {
            name: format!("{} (psi={tiers})", self.name),
            tiers,
            ..self.clone()
        }
    }

    /// Builds one quadrant of the circuit.
    ///
    /// The construction is deterministic in [`Circuit::seed`]: ball rows
    /// are sized by [`crate::row_sizes_with`], net ids `1..=Q` are shuffled onto the
    /// balls, kinds come from the mix (shuffled), and tiers are dealt
    /// round-robin over a third shuffle.
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] from the quadrant builder (e.g. for
    /// degenerate Table 1 geometry).
    pub fn build_quadrant(&self) -> Result<Quadrant, GeomError> {
        let q_nets = self.nets_per_quadrant();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);

        // Which net sits on which ball.
        let mut ids: Vec<u32> = (1..=q_nets as u32).collect();
        ids.shuffle(&mut rng);

        // Which nets are supply pads.
        let mut kinds = self.mix.kinds(q_nets);
        kinds.shuffle(&mut rng);

        // Which tier each net's die pad is on (balanced deal).
        let mut tier_deal: Vec<u8> = (0..q_nets)
            .map(|i| (i % self.tiers as usize) as u8 + 1)
            .collect();
        tier_deal.shuffle(&mut rng);

        let sizes = row_sizes_with(q_nets, self.rows, self.profile);
        let mut builder = Quadrant::builder().geometry(self.geometry());
        let mut cursor = 0;
        for &size in &sizes {
            builder = builder.row(ids[cursor..cursor + size].iter().copied());
            cursor += size;
        }
        for (i, &id) in ids.iter().enumerate() {
            if kinds[i] != NetKind::Signal {
                builder = builder.net_kind(id, kinds[i]);
            }
            if self.tiers > 1 {
                builder = builder.net_tier(id, TierId::new(tier_deal[i]));
            }
        }
        builder.build()
    }

    /// Builds the full four-quadrant package (all sides share the quadrant,
    /// like the paper's symmetric test circuits).
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError`] from quadrant construction.
    pub fn build_package(&self) -> Result<Package, GeomError> {
        Ok(Package::uniform(self.build_quadrant()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_geom::NetKind;

    fn sample() -> Circuit {
        Circuit {
            name: "sample".into(),
            finger_count: 96,
            ball_pitch: 2.0,
            finger_width: 0.025,
            finger_height: 0.4,
            finger_space: 0.025,
            rows: 4,
            mix: NetMix::default(),
            profile: RowProfile::default(),
            tiers: 1,
            seed: 1,
        }
    }

    #[test]
    fn quadrant_matches_spec() {
        let c = sample();
        let q = c.build_quadrant().unwrap();
        assert_eq!(q.net_count(), 24);
        assert_eq!(q.row_count(), 4);
        assert_eq!(q.finger_count(), 24);
        assert_eq!(q.geometry().ball_pitch, 2.0);
        // Fingers spread over the 9-ball bottom row: 18 µm / 24 fingers.
        assert!((q.geometry().finger_pitch - 0.75).abs() < 1e-12);
    }

    #[test]
    fn construction_is_deterministic() {
        let c = sample();
        assert_eq!(c.build_quadrant().unwrap(), c.build_quadrant().unwrap());
        let other = Circuit {
            seed: 2,
            ..sample()
        };
        assert_ne!(c.build_quadrant().unwrap(), other.build_quadrant().unwrap());
    }

    #[test]
    fn mix_produces_supply_pads() {
        let q = sample().build_quadrant().unwrap();
        let power = q.nets_of_kind(NetKind::Power).count();
        let ground = q.nets_of_kind(NetKind::Ground).count();
        assert_eq!(power, 4); // 15% of 24, rounded
        assert_eq!(ground, 4);
    }

    #[test]
    fn stacked_copy_deals_tiers_evenly() {
        let c = sample().stacked(4);
        assert_eq!(c.tiers, 4);
        let q = c.build_quadrant().unwrap();
        let mut per_tier = [0usize; 4];
        for net in q.nets() {
            per_tier[(net.tier.get() - 1) as usize] += 1;
        }
        assert_eq!(per_tier, [6, 6, 6, 6]);
        assert!(c.stack().unwrap().is_stacking());
    }

    #[test]
    fn planar_circuit_keeps_base_tier() {
        let q = sample().build_quadrant().unwrap();
        assert!(q.nets().all(|n| n.tier == TierId::BASE));
        assert!(!sample().stack().unwrap().is_stacking());
    }

    #[test]
    fn package_replicates_quadrant() {
        let p = sample().build_package().unwrap();
        assert_eq!(p.total_nets(), 96);
    }
}
