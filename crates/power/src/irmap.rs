//! IR-drop maps: the solved node voltages.

/// Node voltages of a solved power grid.
#[derive(Debug, Clone, PartialEq)]
pub struct IrMap {
    nx: usize,
    ny: usize,
    vdd: f64,
    v: Vec<f64>,
}

impl IrMap {
    /// Wraps solved voltages (row-major, `ny` rows of `nx`).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != nx * ny`.
    #[must_use]
    pub fn new(nx: usize, ny: usize, vdd: f64, v: Vec<f64>) -> Self {
        assert_eq!(v.len(), nx * ny, "voltage vector shape mismatch");
        Self { nx, ny, vdd, v }
    }

    /// Grid width in nodes.
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in nodes.
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The supply voltage the pads clamp to.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Voltage at node `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[must_use]
    pub fn voltage(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nx && j < self.ny, "node out of range");
        self.v[j * self.nx + i]
    }

    /// IR-drop at node `(i, j)`: `Vdd − V(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[must_use]
    pub fn drop_at(&self, i: usize, j: usize) -> f64 {
        self.vdd - self.voltage(i, j)
    }

    /// The paper's headline metric: the maximum IR-drop anywhere on the die.
    #[must_use]
    pub fn max_drop(&self) -> f64 {
        let vmin = self.v.iter().copied().fold(f64::INFINITY, f64::min);
        self.vdd - vmin
    }

    /// Node with the worst drop (first one if tied).
    #[must_use]
    pub fn worst_node(&self) -> (usize, usize) {
        let mut best = (0, 0);
        let mut vmin = f64::INFINITY;
        for j in 0..self.ny {
            for i in 0..self.nx {
                let v = self.voltage(i, j);
                if v < vmin {
                    vmin = v;
                    best = (i, j);
                }
            }
        }
        best
    }

    /// Mean IR-drop over all nodes.
    #[must_use]
    pub fn mean_drop(&self) -> f64 {
        let sum: f64 = self.v.iter().map(|&v| self.vdd - v).sum();
        sum / self.v.len() as f64
    }

    /// Raw voltages, row-major.
    #[must_use]
    pub fn voltages(&self) -> &[f64] {
        &self.v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IrMap {
        IrMap::new(2, 2, 1.0, vec![1.0, 0.9, 0.95, 0.8])
    }

    #[test]
    fn accessors_report_shape_and_values() {
        let m = sample();
        assert_eq!((m.nx(), m.ny()), (2, 2));
        assert_eq!(m.vdd(), 1.0);
        assert_eq!(m.voltage(1, 0), 0.9);
        assert!((m.drop_at(1, 1) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn max_drop_and_worst_node_agree() {
        let m = sample();
        assert!((m.max_drop() - 0.2).abs() < 1e-12);
        assert_eq!(m.worst_node(), (1, 1));
        let (i, j) = m.worst_node();
        assert!((m.drop_at(i, j) - m.max_drop()).abs() < 1e-12);
    }

    #[test]
    fn mean_drop_averages() {
        let m = sample();
        assert!((m.mean_drop() - (0.0 + 0.1 + 0.05 + 0.2) / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_shape_is_rejected() {
        let _ = IrMap::new(2, 2, 1.0, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        let _ = sample().voltage(2, 0);
    }
}
