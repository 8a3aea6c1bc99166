//! Fast congestion estimation from the highest line only.
//!
//! The paper's exchange step (§3.2) observes that under monotonic routing
//! "the density of the high horizontal line is higher than the density of
//! the low horizontal line", and therefore controls congestion by watching
//! **only the highest line**: the top-row nets divide the finger order into
//! `x + 1` sections, and the per-section net counts approximate the
//! top-line segment loads without routing anything. This module implements
//! that estimator; `copack-core` builds the ID metric (Eq. 2) on top of it.

use copack_geom::{Assignment, NetId, Quadrant};

use crate::RouteError;

/// Result of the top-line congestion estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionEstimate {
    /// Net count of each section `S_0 .. S_x` of the finger order, where
    /// the `x` top-row nets are the section delimiters (paper §3.2's
    /// "interval numbers" `I_c`).
    pub sections: Vec<u32>,
    /// Largest section count — the congestion hot spot.
    pub max_section: u32,
}

impl CongestionEstimate {
    /// Number of sections (top-row net count + 1).
    #[must_use]
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }
}

/// Estimates the package congestion of `assignment` by counting nets in the
/// sections delimited by the top-row nets, without running the router.
///
/// # Errors
///
/// [`RouteError::Unplaced`] if a top-row net has no finger slot.
pub fn estimate_congestion(
    quadrant: &Quadrant,
    assignment: &Assignment,
) -> Result<CongestionEstimate, RouteError> {
    let top: &[NetId] = quadrant.row(quadrant.top_row());
    // Slot indices (0-based) of the section delimiters, in finger order.
    let mut delim: Vec<usize> = top
        .iter()
        .map(|&n| {
            assignment
                .position_of(n)
                .map(|f| f.zero_based())
                .ok_or(RouteError::Unplaced { net: n })
        })
        .collect::<Result<_, _>>()?;
    delim.sort_unstable();

    let mut sections = vec![0u32; delim.len() + 1];
    for (finger, net) in assignment.iter() {
        if top.contains(&net) {
            continue;
        }
        let i = finger.zero_based();
        let s = delim.partition_point(|&d| d < i);
        sections[s] += 1;
    }
    let max_section = sections.iter().copied().max().unwrap_or(0);
    Ok(CongestionEstimate {
        sections,
        max_section,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_geom::{Assignment, Quadrant};

    fn fig5() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .build()
            .unwrap()
    }

    #[test]
    fn random_order_concentrates_sections() {
        // Fig. 5(A): 11,6,9 sit at F5..F7; sections are 4|0|0|5.
        let q = fig5();
        let a = Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]);
        let e = estimate_congestion(&q, &a).unwrap();
        assert_eq!(e.sections, vec![4, 0, 0, 5]);
        assert_eq!(e.max_section, 5);
        assert_eq!(e.section_count(), 4);
    }

    #[test]
    fn dfa_order_balances_sections() {
        // Fig. 5(B): 11@F2, 6@F5, 9@F8 → sections 1|2|2|4.
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let e = estimate_congestion(&q, &a).unwrap();
        assert_eq!(e.sections, vec![1, 2, 2, 4]);
        assert_eq!(e.max_section, 4);
    }

    #[test]
    fn estimate_tracks_real_density_ordering() {
        // The estimator must rank the random order worse than DFA, matching
        // the full density map.
        let q = fig5();
        let random = Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]);
        let dfa = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let e_random = estimate_congestion(&q, &random).unwrap();
        let e_dfa = estimate_congestion(&q, &dfa).unwrap();
        assert!(e_dfa.max_section <= e_random.max_section);
    }

    #[test]
    fn sections_sum_to_non_top_nets() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let e = estimate_congestion(&q, &a).unwrap();
        let sum: u32 = e.sections.iter().sum();
        assert_eq!(sum as usize, q.net_count() - q.row(q.top_row()).len());
    }

    #[test]
    fn unplaced_top_net_is_an_error() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 1, 2]);
        assert!(matches!(
            estimate_congestion(&q, &a),
            Err(RouteError::Unplaced { .. })
        ));
    }
}
