//! High-level IR-drop analysis entry points.

use crate::{mg::solve_mg_nodes, GridSpec, IrMap, PadPlan, PowerError};

/// Solves the grid for any pad plan (wire-bond ring, flip-chip array, or
/// explicit nodes) with the production solver, [`crate::solve_mg`].
///
/// # Errors
///
/// Propagates [`PowerError`] from plan validation or the solver.
pub fn solve_plan(spec: &GridSpec, plan: &PadPlan) -> Result<IrMap, PowerError> {
    solve_mg_nodes(spec, &plan.clamp_nodes(spec)?)
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
    use crate::{solve_cg_nodes, PadArray, PadRing};

    #[test]
    fn solve_plan_matches_cg_on_every_plan_kind() {
        let spec = GridSpec::default_chip(10);
        for plan in [
            PadPlan::WireBond(PadRing::uniform(4)),
            PadPlan::FlipChip(PadArray::new(2, 2).unwrap()),
            PadPlan::Explicit(vec![(0, 0), (9, 9)]),
        ] {
            let a = solve_plan(&spec, &plan).unwrap();
            let b = solve_cg_nodes(&spec, &plan.clamp_nodes(&spec).unwrap()).unwrap();
            assert!((a.max_drop() - b.max_drop()).abs() < 1e-9);
        }
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
}
