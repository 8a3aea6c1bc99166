//! High-level IR-drop analysis entry points.

use std::fmt;

use crate::{
    cg::solve_cg_nodes, solve_cg, solve_sor, sor::solve_sor_nodes, GridSpec, IrMap, PadPlan,
    PadRing, PowerError,
};

/// Which linear solver to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Solver {
    /// Successive over-relaxation (default).
    #[default]
    Sor,
    /// Conjugate gradient (cross-validation / anisotropy-heavy grids).
    Cg,
}

impl fmt::Display for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Sor => f.write_str("sor"),
            Self::Cg => f.write_str("cg"),
        }
    }
}

/// Solves the grid with the chosen solver.
///
/// # Errors
///
/// Propagates [`PowerError`] from the solver.
pub fn solve(spec: &GridSpec, pads: &PadRing, solver: Solver) -> Result<IrMap, PowerError> {
    match solver {
        Solver::Sor => solve_sor(spec, pads),
        Solver::Cg => solve_cg(spec, pads),
    }
}

/// Solves the grid for any pad plan (wire-bond ring, flip-chip array, or
/// explicit nodes).
///
/// # Errors
///
/// Propagates [`PowerError`] from plan validation or the solver.
pub fn solve_plan(spec: &GridSpec, plan: &PadPlan, solver: Solver) -> Result<IrMap, PowerError> {
    let nodes = plan.clamp_nodes(spec)?;
    match solver {
        Solver::Sor => solve_sor_nodes(spec, &nodes),
        Solver::Cg => solve_cg_nodes(spec, &nodes),
    }
}

/// The paper's "improved IR-drop (%)": the relative reduction
/// `(before − after) / before × 100`.
///
/// Negative when the drop got worse. Returns 0 for a non-positive
/// `before` (nothing to improve).
#[must_use]
pub fn improvement_percent(before: f64, after: f64) -> f64 {
    if before <= 0.0 {
        return 0.0;
    }
    (before - after) / before * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_dispatches_to_both_solvers() {
        let spec = GridSpec::default_chip(10);
        let ring = PadRing::uniform(4);
        let a = solve(&spec, &ring, Solver::Sor).unwrap();
        let b = solve(&spec, &ring, Solver::Cg).unwrap();
        assert!((a.max_drop() - b.max_drop()).abs() < 1e-6);
    }

    #[test]
    fn improvement_percent_matches_paper_semantics() {
        // Table 3 reports e.g. 27.36% improvement: after = before·(1−0.2736).
        let before = 100.0;
        let after = before * (1.0 - 0.2736);
        assert!((improvement_percent(before, after) - 27.36).abs() < 1e-9);
        assert!(improvement_percent(50.0, 60.0) < 0.0);
        assert_eq!(improvement_percent(0.0, 1.0), 0.0);
    }

    #[test]
    fn solver_display_names() {
        assert_eq!(Solver::Sor.to_string(), "sor");
        assert_eq!(Solver::Cg.to_string(), "cg");
        assert_eq!(Solver::default(), Solver::Sor);
    }
}
