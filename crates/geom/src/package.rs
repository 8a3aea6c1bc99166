//! A full four-quadrant package and the die-perimeter mapping used by the
//! IR-drop model.

use crate::{Assignment, FingerIdx, GeomError, NetId, NetKind, Quadrant, QuadrantSide};

/// A finger slot located on the die perimeter.
///
/// `t ∈ [0, 1)` parameterises the perimeter counter-clockwise starting at
/// the bottom-left corner of the die; the bottom edge covers `[0, 0.25)`,
/// the right edge `[0.25, 0.5)`, and so on. The paper's compact IR-drop
/// model only cares about *where along the boundary* each power pad sits, so
/// this normalised coordinate is the natural interface to `copack-power`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerimeterSlot {
    /// Which die edge the slot is on.
    pub side: QuadrantSide,
    /// The finger slot within its quadrant.
    pub finger: FingerIdx,
    /// Normalised perimeter coordinate in `[0, 1)`.
    pub t: f64,
}

/// A complete two-layer BGA package: four independently planned quadrants
/// (paper Fig. 2 cuts the package area into four triangles).
///
/// ```
/// use copack_geom::{Package, Quadrant};
///
/// # fn main() -> Result<(), copack_geom::GeomError> {
/// let q = Quadrant::builder().row([1u32, 2]).row([3u32]).build()?;
/// let package = Package::uniform(q);
/// assert_eq!(package.total_nets(), 4 * 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Package {
    quadrants: Vec<Quadrant>,
}

impl Package {
    /// Builds a package from four quadrants in [`QuadrantSide::ALL`] order.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::WrongQuadrantCount`] unless exactly four
    /// quadrants are supplied.
    pub fn new(quadrants: impl IntoIterator<Item = Quadrant>) -> Result<Self, GeomError> {
        let quadrants: Vec<Quadrant> = quadrants.into_iter().collect();
        if quadrants.len() != 4 {
            return Err(GeomError::WrongQuadrantCount {
                got: quadrants.len(),
            });
        }
        Ok(Self { quadrants })
    }

    /// Builds a package whose four sides are copies of one quadrant —
    /// the symmetric configuration used by the paper's test circuits.
    #[must_use]
    pub fn uniform(quadrant: Quadrant) -> Self {
        Self {
            quadrants: vec![
                quadrant.clone(),
                quadrant.clone(),
                quadrant.clone(),
                quadrant,
            ],
        }
    }

    /// Starts building a package side by side.
    #[must_use]
    pub fn builder() -> PackageBuilder {
        PackageBuilder::default()
    }

    /// The quadrant on `side`.
    #[must_use]
    pub fn quadrant(&self, side: QuadrantSide) -> &Quadrant {
        &self.quadrants[side.index()]
    }

    /// Iterates `(side, quadrant)` pairs in perimeter order.
    pub fn quadrants(&self) -> impl Iterator<Item = (QuadrantSide, &Quadrant)> {
        QuadrantSide::ALL.iter().copied().zip(self.quadrants.iter())
    }

    /// Total net count over all four quadrants (the paper's finger/pad
    /// count column in Table 1).
    #[must_use]
    pub fn total_nets(&self) -> usize {
        self.quadrants.iter().map(Quadrant::net_count).sum()
    }

    /// Normalised perimeter coordinate of finger `a` on `side`.
    ///
    /// Fingers are spread uniformly along their quarter of the perimeter;
    /// finger 1 sits closest to the side's starting corner.
    ///
    /// # Panics
    ///
    /// Panics if `a` exceeds the side's finger count.
    #[must_use]
    pub fn perimeter_t(&self, side: QuadrantSide, a: FingerIdx) -> f64 {
        let fingers = self.quadrant(side).finger_count();
        assert!(a.zero_based() < fingers, "finger index out of range");
        let frac = (a.zero_based() as f64 + 0.5) / fingers as f64;
        (side.index() as f64 + frac) / 4.0
    }

    /// Perimeter positions of all pads of the given `kind`, given one
    /// [`Assignment`] per side (in [`QuadrantSide::ALL`] order).
    ///
    /// This is the bridge to the IR-drop model: pass the power pads'
    /// positions to `copack_power::PadRing`.
    ///
    /// # Errors
    ///
    /// Returns the first validation error if an assignment does not match
    /// its quadrant.
    pub fn pads_of_kind(
        &self,
        assignments: &[Assignment; 4],
        kind: NetKind,
    ) -> Result<Vec<(NetId, PerimeterSlot)>, GeomError> {
        let mut out = Vec::new();
        for (side, quadrant) in self.quadrants() {
            let assignment = &assignments[side.index()];
            assignment.validate_complete(quadrant)?;
            for (finger, net) in assignment.iter() {
                let n = quadrant.net(net).ok_or(GeomError::UnknownNet { net })?;
                if n.kind == kind {
                    out.push((
                        net,
                        PerimeterSlot {
                            side,
                            finger,
                            t: self.perimeter_t(side, finger),
                        },
                    ));
                }
            }
        }
        Ok(out)
    }
}

/// Builder assembling a [`Package`] from per-side quadrants.
#[derive(Debug, Clone, Default)]
pub struct PackageBuilder {
    sides: [Option<Quadrant>; 4],
}

impl PackageBuilder {
    /// Sets the quadrant for one side (replacing any previous one).
    #[must_use]
    pub fn side(mut self, side: QuadrantSide, quadrant: Quadrant) -> Self {
        self.sides[side.index()] = Some(quadrant);
        self
    }

    /// Builds the package.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::WrongQuadrantCount`] if any side is missing.
    pub fn build(self) -> Result<Package, GeomError> {
        let got = self.sides.iter().flatten().count();
        if got != 4 {
            return Err(GeomError::WrongQuadrantCount { got });
        }
        Ok(Package {
            quadrants: self.sides.into_iter().map(Option::unwrap).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetKind;

    fn small_quadrant() -> Quadrant {
        Quadrant::builder()
            .row([1u32, 2, 3])
            .row([4u32, 5])
            .net_kind(1u32, NetKind::Power)
            .net_kind(4u32, NetKind::Ground)
            .build()
            .unwrap()
    }

    #[test]
    fn uniform_package_replicates_quadrant() {
        let p = Package::uniform(small_quadrant());
        assert_eq!(p.total_nets(), 20);
        for (_, q) in p.quadrants() {
            assert_eq!(q.net_count(), 5);
        }
    }

    #[test]
    fn new_requires_exactly_four() {
        let q = small_quadrant();
        assert!(matches!(
            Package::new(vec![q.clone(), q.clone()]),
            Err(GeomError::WrongQuadrantCount { got: 2 })
        ));
    }

    #[test]
    fn builder_requires_all_sides() {
        let q = small_quadrant();
        let err = Package::builder()
            .side(QuadrantSide::Bottom, q.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, GeomError::WrongQuadrantCount { got: 1 }));

        let ok = Package::builder()
            .side(QuadrantSide::Bottom, q.clone())
            .side(QuadrantSide::Right, q.clone())
            .side(QuadrantSide::Top, q.clone())
            .side(QuadrantSide::Left, q)
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn perimeter_t_covers_each_quarter() {
        let p = Package::uniform(small_quadrant());
        let t_first = p.perimeter_t(QuadrantSide::Bottom, FingerIdx::new(1));
        let t_last = p.perimeter_t(QuadrantSide::Bottom, FingerIdx::new(5));
        assert!(t_first > 0.0 && t_last < 0.25);
        assert!(t_first < t_last);
        let t_right = p.perimeter_t(QuadrantSide::Right, FingerIdx::new(1));
        assert!((0.25..0.5).contains(&t_right));
        let t_left = p.perimeter_t(QuadrantSide::Left, FingerIdx::new(5));
        assert!((0.75..1.0).contains(&t_left));
    }

    #[test]
    fn pads_of_kind_filters_by_kind() {
        let p = Package::uniform(small_quadrant());
        let a = Assignment::from_order([1u32, 2, 3, 4, 5]);
        let assignments = [a.clone(), a.clone(), a.clone(), a];
        let power = p.pads_of_kind(&assignments, NetKind::Power).unwrap();
        assert_eq!(power.len(), 4); // one power net per side
        for (net, slot) in &power {
            assert_eq!(*net, NetId::new(1));
            assert_eq!(slot.finger, FingerIdx::new(1));
        }
        let ground = p.pads_of_kind(&assignments, NetKind::Ground).unwrap();
        assert_eq!(ground.len(), 4);
    }

    #[test]
    fn pads_of_kind_rejects_incomplete_assignments() {
        let p = Package::uniform(small_quadrant());
        let bad = Assignment::from_order([1u32, 2]);
        let good = Assignment::from_order([1u32, 2, 3, 4, 5]);
        let assignments = [bad, good.clone(), good.clone(), good];
        assert!(p.pads_of_kind(&assignments, NetKind::Power).is_err());
    }
}
