//! The bonding-wire balance metric ω for stacking ICs (paper §3.2).
//!
//! Every stacking tier `d` gets a one-hot ψ-bit "unique parameter" `UP_d`.
//! The finger slots are cut into `⌈α/ψ⌉` consecutive groups of (at most) ψ
//! fingers; each group ORs the `UP` codes of its members, and ω is the
//! total number of zero bits across the group results. ω = 0 exactly when
//! every group contains one pad of every tier — i.e. the tiers interleave
//! perfectly, which is the configuration with the shortest bonding wires
//! (the paper's Fig. 4(B)).

use copack_geom::{Assignment, GeomError, NetId, Quadrant, TierId};

use crate::CoreError;

/// Computes ω for a finger order given each net's tier.
///
/// `psi` is the tier count ψ ≥ 1. A 2-D design (ψ = 1) always scores 0.
///
/// # Panics
///
/// Panics if `psi` is 0 or greater than 64 (tier codes are packed into a
/// `u64`), or if a net's tier exceeds `psi`.
///
/// # Example
///
/// The paper's Fig. 4 example: two tiers, twelve fingers.
///
/// ```
/// use copack_core::omega;
/// use copack_geom::{NetId, TierId};
///
/// // Fig. 4(A): tiers blocked pairwise — every group is single-tier.
/// let order: Vec<NetId> = (0..12).map(NetId::new).collect();
/// let blocked = |n: NetId| if (n.raw() / 2) % 2 == 0 { TierId::new(2) } else { TierId::new(1) };
/// assert_eq!(omega(&order, blocked, 2), 6);
///
/// // Fig. 4(B): tiers alternate — every group sees both tiers.
/// let alternating = |n: NetId| TierId::new((n.raw() % 2) as u8 + 1);
/// assert_eq!(omega(&order, alternating, 2), 0);
/// ```
pub fn omega<F>(order: &[NetId], tier_of: F, psi: u8) -> u64
where
    F: Fn(NetId) -> TierId,
{
    assert!((1..=64).contains(&psi), "psi must be in 1..=64");
    let mask: u64 = if psi == 64 {
        u64::MAX
    } else {
        (1u64 << psi) - 1
    };
    let mut total = 0u64;
    for group in order.chunks(psi as usize) {
        let mut union = 0u64;
        for &net in group {
            let tier = tier_of(net);
            assert!(tier.get() <= psi, "net {net} is on {tier} but psi = {psi}");
            union |= tier.one_hot();
        }
        total += u64::from(psi) - u64::from((union & mask).count_ones());
    }
    total
}

/// ω of an [`Assignment`] on a quadrant, reading tiers from the quadrant's
/// net table.
///
/// # Errors
///
/// Returns [`CoreError::Geom`] if a placed net is unknown to the quadrant
/// ([`GeomError::UnknownNet`]) or sits on a tier above `psi`
/// ([`GeomError::TierOutOfRange`]); the first such net in finger order is
/// reported.
///
/// # Panics
///
/// Panics if `psi` is 0 or greater than 64, like [`omega`].
pub fn omega_of_assignment(
    quadrant: &Quadrant,
    assignment: &Assignment,
    psi: u8,
) -> Result<u64, CoreError> {
    let order = assignment.order();
    for &net in &order {
        let n = quadrant.net(net).ok_or(GeomError::UnknownNet { net })?;
        check_tier(n.tier, psi)?;
    }
    Ok(omega(
        &order,
        |n| quadrant.net(n).expect("checked above").tier,
        psi,
    ))
}

/// [`GeomError::TierOutOfRange`] unless `tier ≤ psi`, the precondition of
/// ω.
pub(crate) fn check_tier(tier: TierId, psi: u8) -> Result<(), CoreError> {
    if tier.get() > psi {
        return Err(GeomError::TierOutOfRange {
            tier: tier.get(),
            tiers: psi,
        }
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_geom::Assignment;

    fn ids(raws: impl IntoIterator<Item = u32>) -> Vec<NetId> {
        raws.into_iter().map(NetId::new).collect()
    }

    #[test]
    fn paper_fig4_example() {
        // ψ = 2, 12 fingers. (A): blocked pairs → ω = 6; (B): perfect
        // interleave → ω = 0.
        let order = ids(0..12);
        let blocked = |n: NetId| TierId::new(if (n.raw() / 2) % 2 == 0 { 2 } else { 1 });
        assert_eq!(omega(&order, blocked, 2), 6);
        let alternating = |n: NetId| TierId::new((n.raw() % 2) as u8 + 1);
        assert_eq!(omega(&order, alternating, 2), 0);
    }

    #[test]
    fn planar_designs_always_score_zero() {
        let order = ids(0..9);
        assert_eq!(omega(&order, |_| TierId::BASE, 1), 0);
    }

    #[test]
    fn all_same_tier_is_the_worst_case() {
        // Everything on tier 1 with ψ = 3: each full group misses 2 bits.
        let order = ids(0..9);
        assert_eq!(omega(&order, |_| TierId::BASE, 3), 3 * 2);
    }

    #[test]
    fn partial_last_group_counts_its_missing_bits() {
        // 7 fingers, ψ = 3: groups of 3, 3, 1. Perfectly interleaved
        // except the last group can cover only one tier → ω = 2.
        let order = ids(0..7);
        let t = |n: NetId| TierId::new((n.raw() % 3) as u8 + 1);
        assert_eq!(omega(&order, t, 3), 2);
    }

    #[test]
    fn omega_bounds() {
        // ω is at most (ψ − 1) per group.
        let order = ids(0..12);
        let t = |_n: NetId| TierId::new(4);
        let psi = 4;
        let groups = 3;
        assert_eq!(omega(&order, t, psi), groups * (u64::from(psi) - 1));
    }

    #[test]
    #[should_panic(expected = "psi")]
    fn zero_psi_is_rejected() {
        let _ = omega(&ids(0..2), |_| TierId::BASE, 0);
    }

    #[test]
    #[should_panic(expected = "tier")]
    fn tier_above_psi_is_rejected() {
        let _ = omega(&ids(0..2), |_| TierId::new(3), 2);
    }

    #[test]
    fn assignment_wrapper_reads_quadrant_tiers() {
        let q = Quadrant::builder()
            .row([1u32, 2, 3, 4])
            .net_tier(1u32, TierId::new(1))
            .net_tier(2u32, TierId::new(2))
            .net_tier(3u32, TierId::new(1))
            .net_tier(4u32, TierId::new(2))
            .build()
            .unwrap();
        let good = Assignment::from_order([1u32, 2, 3, 4]); // (1,2)(1,2) → 0
        assert_eq!(omega_of_assignment(&q, &good, 2).unwrap(), 0);
        let bad = Assignment::from_order([1u32, 3, 2, 4]); // (1,1)(2,2) → 2
        assert_eq!(omega_of_assignment(&q, &bad, 2).unwrap(), 2);
    }

    #[test]
    fn assignment_wrapper_rejects_tiers_above_psi_with_a_typed_error() {
        // The circuit format accepts tiers up to 255: a net above ψ is an
        // input error at every ψ, including tiers past the 64-bit codes.
        for (tier, psi) in [(3u8, 2u8), (2, 1), (200, 2), (65, 64)] {
            let q = Quadrant::builder()
                .row([1u32, 2])
                .net_tier(2u32, TierId::new(tier))
                .build()
                .unwrap();
            let a = Assignment::from_order([1u32, 2]);
            assert_eq!(
                omega_of_assignment(&q, &a, psi),
                Err(CoreError::Geom(GeomError::TierOutOfRange {
                    tier,
                    tiers: psi
                })),
                "tier {tier} at psi {psi}"
            );
        }
    }

    #[test]
    fn assignment_wrapper_rejects_foreign_nets() {
        let q = Quadrant::builder().row([1u32]).build().unwrap();
        let a = Assignment::from_order([9u32]);
        assert!(omega_of_assignment(&q, &a, 1).is_err());
    }
}
