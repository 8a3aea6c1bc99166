//! Power-grid specification: the discretised Eq. 1 of the paper.

use crate::PowerError;

/// A circular region of elevated power density — the hotspot structure of
/// real designs (the uniform-`J₀` assumption of Eq. 1 is the paper's
/// simplification; the finite-difference substrate handles any `J(x,y)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Centre x, as a fraction of the die width in `[0, 1]`.
    pub cx: f64,
    /// Centre y, as a fraction of the die height in `[0, 1]`.
    pub cy: f64,
    /// Radius, as a fraction of the die width.
    pub radius: f64,
    /// Current-density multiplier inside the region (≥ 0; 1 = no change).
    pub multiplier: f64,
}

/// Specification of the on-chip power distribution grid.
///
/// The paper's Eq. 1 (after Shakeri–Meindl) balances, at every grid point,
/// the currents to the four neighbours against the uniform consumption
/// `J₀·Δx·Δy`. On a uniform square mesh this reduces to a weighted
/// 5-point Laplacian with edge conductances `1/R_sx` (horizontal) and
/// `1/R_sy` (vertical) and a constant current sink per node.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Nodes per side in x.
    pub nx: usize,
    /// Nodes per side in y.
    pub ny: usize,
    /// Mesh pitch Δx = Δy (µm).
    pub pitch: f64,
    /// Sheet resistance of horizontal straps (Ω/sq).
    pub r_sheet_x: f64,
    /// Sheet resistance of vertical straps (Ω/sq).
    pub r_sheet_y: f64,
    /// Uniform current density J₀ (A/µm²): every node sinks `J₀·Δx·Δy`.
    pub current_density: f64,
    /// Supply voltage clamped at the power pads (V).
    pub vdd: f64,
    /// Regions of elevated power density (empty = the paper's uniform J₀).
    pub hotspots: Vec<Hotspot>,
}

impl GridSpec {
    /// A representative sub-100 nm chip power grid with `n × n` nodes:
    /// 1 V supply, 0.04 Ω/sq straps, and a current density calibrated so a
    /// reasonable pad ring produces drops in the tens of millivolts — the
    /// regime of the paper's Fig. 6 (117.4 / 77.3 / 55.2 mV).
    #[must_use]
    pub fn default_chip(n: usize) -> Self {
        Self {
            nx: n,
            ny: n,
            pitch: 100.0,
            r_sheet_x: 0.04,
            r_sheet_y: 0.04,
            current_density: 2.0e-8,
            vdd: 1.0,
            hotspots: Vec::new(),
        }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::BadSpec`] naming the first invalid parameter.
    /// The grid must be at least 2×2 and all physical values positive and
    /// finite.
    pub fn validate(&self) -> Result<(), PowerError> {
        if self.nx < 2 {
            return Err(PowerError::BadSpec { parameter: "nx" });
        }
        if self.ny < 2 {
            return Err(PowerError::BadSpec { parameter: "ny" });
        }
        let positives: [(&'static str, f64); 5] = [
            ("pitch", self.pitch),
            ("r_sheet_x", self.r_sheet_x),
            ("r_sheet_y", self.r_sheet_y),
            ("current_density", self.current_density),
            ("vdd", self.vdd),
        ];
        for (parameter, v) in positives {
            if !(v.is_finite() && v > 0.0) {
                return Err(PowerError::BadSpec { parameter });
            }
        }
        for h in &self.hotspots {
            let in_unit = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
            if !(in_unit(h.cx) && in_unit(h.cy)) {
                return Err(PowerError::BadSpec {
                    parameter: "hotspot centre",
                });
            }
            if !(h.radius.is_finite() && h.radius > 0.0) {
                return Err(PowerError::BadSpec {
                    parameter: "hotspot radius",
                });
            }
            if !(h.multiplier.is_finite() && h.multiplier >= 0.0) {
                return Err(PowerError::BadSpec {
                    parameter: "hotspot multiplier",
                });
            }
        }
        Ok(())
    }

    /// Total node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Horizontal edge conductance `1/R_sx` (square cells).
    #[must_use]
    pub fn gx(&self) -> f64 {
        1.0 / self.r_sheet_x
    }

    /// Vertical edge conductance `1/R_sy`.
    #[must_use]
    pub fn gy(&self) -> f64 {
        1.0 / self.r_sheet_y
    }

    /// Uniform current sunk per node: `J₀·Δx·Δy` (A).
    #[must_use]
    pub fn node_current(&self) -> f64 {
        self.current_density * self.pitch * self.pitch
    }

    /// Current sunk at node `(i, j)`, including hotspot multipliers.
    /// Overlapping hotspots multiply.
    #[must_use]
    pub fn node_current_at(&self, i: usize, j: usize) -> f64 {
        let mut current = self.node_current();
        if self.hotspots.is_empty() {
            return current;
        }
        let fx = (i as f64 + 0.5) / self.nx as f64;
        let fy = (j as f64 + 0.5) / self.ny as f64;
        for h in &self.hotspots {
            let d = (fx - h.cx).hypot(fy - h.cy);
            if d <= h.radius {
                current *= h.multiplier;
            }
        }
        current
    }

    /// The clamp set as a row-major per-node mask, checked once for every
    /// solver that takes a clamp-node list.
    ///
    /// # Errors
    ///
    /// * [`PowerError::NoPads`] for an empty list (the grid would float).
    /// * [`PowerError::BadSpec`] (`"pad node"`) for a node off the grid.
    pub(crate) fn clamp_mask(&self, clamp: &[(usize, usize)]) -> Result<Vec<bool>, PowerError> {
        if clamp.is_empty() {
            return Err(PowerError::NoPads);
        }
        let mut mask = vec![false; self.node_count()];
        for &(i, j) in clamp {
            if i >= self.nx || j >= self.ny {
                return Err(PowerError::BadSpec {
                    parameter: "pad node",
                });
            }
            mask[j * self.nx + i] = true;
        }
        Ok(mask)
    }

    /// Linear node index of `(i, j)`.
    #[must_use]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny);
        j * self.nx + i
    }

    /// Number of boundary nodes (the candidate pad locations).
    #[must_use]
    pub fn boundary_len(&self) -> usize {
        if self.nx < 2 || self.ny < 2 {
            return self.node_count();
        }
        2 * self.nx + 2 * self.ny - 4
    }

    /// The `k`-th boundary node, walking the perimeter counter-clockwise
    /// from the bottom-left corner: bottom edge left→right, right edge
    /// bottom→top, top edge right→left, left edge top→bottom.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ boundary_len()`.
    #[must_use]
    pub fn boundary_node(&self, k: usize) -> (usize, usize) {
        let (nx, ny) = (self.nx, self.ny);
        assert!(k < self.boundary_len(), "boundary index out of range");
        if k < nx {
            (k, 0)
        } else if k < nx + ny - 1 {
            (nx - 1, k - nx + 1)
        } else if k < 2 * nx + ny - 2 {
            (nx - 1 - (k - (nx + ny - 2)), ny - 1)
        } else {
            (0, ny - 1 - (k - (2 * nx + ny - 3)))
        }
    }

    /// All boundary nodes as a dense table indexed by the perimeter
    /// coordinate `k` of [`GridSpec::boundary_node`], built in one
    /// branch-free walk. Callers that map many pads to nodes (pad rings,
    /// the placement search) index this once instead of re-deriving each
    /// node from the branchy per-`k` form.
    #[must_use]
    pub fn boundary_nodes(&self) -> Vec<(usize, usize)> {
        let (nx, ny) = (self.nx, self.ny);
        let mut nodes = Vec::with_capacity(self.boundary_len());
        nodes.extend((0..nx).map(|i| (i, 0)));
        nodes.extend((1..ny).map(|j| (nx - 1, j)));
        nodes.extend((1..nx).rev().map(|i| (i - 1, ny - 1)));
        nodes.extend((1..ny - 1).rev().map(|j| (0, j)));
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_chip_is_valid() {
        assert!(GridSpec::default_chip(16).validate().is_ok());
    }

    #[test]
    fn validation_catches_each_parameter() {
        let base = GridSpec::default_chip(8);
        let cases = [
            GridSpec {
                nx: 1,
                ..base.clone()
            },
            GridSpec {
                ny: 0,
                ..base.clone()
            },
            GridSpec {
                pitch: 0.0,
                ..base.clone()
            },
            GridSpec {
                r_sheet_x: -1.0,
                ..base.clone()
            },
            GridSpec {
                r_sheet_y: f64::NAN,
                ..base.clone()
            },
            GridSpec {
                current_density: 0.0,
                ..base.clone()
            },
            GridSpec {
                vdd: f64::INFINITY,
                ..base
            },
        ];
        for bad in cases {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn boundary_walk_visits_each_node_once() {
        let spec = GridSpec::default_chip(5);
        assert_eq!(spec.boundary_len(), 16);
        let mut seen = std::collections::HashSet::new();
        for k in 0..spec.boundary_len() {
            let (i, j) = spec.boundary_node(k);
            assert!(i == 0 || j == 0 || i == spec.nx - 1 || j == spec.ny - 1);
            assert!(seen.insert((i, j)), "({i},{j}) visited twice");
        }
    }

    #[test]
    fn boundary_walk_is_counter_clockwise() {
        let spec = GridSpec::default_chip(4);
        assert_eq!(spec.boundary_node(0), (0, 0));
        assert_eq!(spec.boundary_node(3), (3, 0)); // bottom-right corner
        assert_eq!(spec.boundary_node(6), (3, 3)); // top-right corner
        assert_eq!(spec.boundary_node(9), (0, 3)); // top-left corner
        assert_eq!(spec.boundary_node(11), (0, 1)); // walking down the left
    }

    #[test]
    fn boundary_table_matches_the_per_k_walk() {
        for n in [2usize, 3, 4, 5, 9] {
            let spec = GridSpec {
                ny: n + 1,
                ..GridSpec::default_chip(n)
            };
            let table = spec.boundary_nodes();
            assert_eq!(table.len(), spec.boundary_len());
            for (k, &node) in table.iter().enumerate() {
                assert_eq!(node, spec.boundary_node(k), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn conductances_and_current_follow_eq1() {
        let spec = GridSpec::default_chip(8);
        assert!((spec.gx() - 25.0).abs() < 1e-12);
        assert!((spec.node_current() - 2.0e-8 * 1e4).abs() < 1e-15);
    }

    #[test]
    fn hotspots_multiply_local_current() {
        let mut spec = GridSpec::default_chip(10);
        spec.hotspots.push(Hotspot {
            cx: 0.25,
            cy: 0.25,
            radius: 0.15,
            multiplier: 5.0,
        });
        assert!(spec.validate().is_ok());
        let inside = spec.node_current_at(2, 2);
        let outside = spec.node_current_at(8, 8);
        assert!((inside / outside - 5.0).abs() < 1e-12);
        assert!((outside - spec.node_current()).abs() < 1e-18);
    }

    #[test]
    fn overlapping_hotspots_compound() {
        let mut spec = GridSpec::default_chip(10);
        let h = Hotspot {
            cx: 0.5,
            cy: 0.5,
            radius: 0.3,
            multiplier: 2.0,
        };
        spec.hotspots.push(h);
        spec.hotspots.push(h);
        let centre = spec.node_current_at(5, 5);
        assert!((centre / spec.node_current() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bad_hotspots_are_rejected() {
        for h in [
            Hotspot {
                cx: 1.5,
                cy: 0.5,
                radius: 0.1,
                multiplier: 2.0,
            },
            Hotspot {
                cx: 0.5,
                cy: 0.5,
                radius: 0.0,
                multiplier: 2.0,
            },
            Hotspot {
                cx: 0.5,
                cy: 0.5,
                radius: 0.1,
                multiplier: -1.0,
            },
        ] {
            let mut spec = GridSpec::default_chip(8);
            spec.hotspots.push(h);
            assert!(spec.validate().is_err(), "{h:?}");
        }
    }

    #[test]
    fn idx_is_row_major() {
        let spec = GridSpec::default_chip(4);
        assert_eq!(spec.idx(0, 0), 0);
        assert_eq!(spec.idx(3, 0), 3);
        assert_eq!(spec.idx(0, 1), 4);
        assert_eq!(spec.node_count(), 16);
    }
}
