//! Incremental metric trackers for the annealer's inner loop.
//!
//! The exchange step proposes hundreds of thousands of adjacent swaps; the
//! naive cost evaluation re-derives the top-line sections (`O(β log β)`)
//! and ω (`O(β)`) from scratch each time. Because a single adjacent swap
//! can only move one net across one section delimiter and can only touch
//! two ω groups, both metrics admit `O(1)`-ish incremental updates. These
//! trackers implement them; property tests pin them to the from-scratch
//! definitions ([`crate::SectionBaseline`], [`crate::omega`]).

use copack_geom::{Assignment, FingerIdx, NetId, NetIndex, NetKind, Quadrant};
use copack_power::{slot_gap_squares, SlotRing};

use crate::omega::check_tier;
use crate::{CoreError, SectionBaseline};

/// Incrementally tracked top-line section counts (Eq. 2's `I_c`).
///
/// Per-net state is dense over the quadrant's [`NetIndex`], so the swap
/// update is a handful of array loads — no keyed lookups on the annealer's
/// move loop. Callers that already hold dense indices (the exchange
/// driver's slot tables use the same interning) can use the `_idx`
/// variants and skip even the `O(1)` id resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionTracker {
    /// `I_c^ini`, recorded at construction.
    initial: Vec<u32>,
    /// Current `I_c`.
    counts: Vec<u32>,
    /// The quadrant's id interning, for resolving [`NetId`] arguments.
    index: NetIndex,
    /// Whether each net (by dense index) is a top-row (delimiter) net.
    is_top: Vec<bool>,
    /// Current section of each non-top net (by dense index; delimiters
    /// hold an unused 0).
    section_of: Vec<u32>,
}

impl SectionTracker {
    /// Builds a tracker for `assignment` and records it as the Eq. 2
    /// baseline.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Route`] if the assignment is incomplete.
    pub fn new(quadrant: &Quadrant, assignment: &Assignment) -> Result<Self, CoreError> {
        let baseline = SectionBaseline::record(quadrant, assignment)?;
        let index = quadrant.net_index().clone();
        let top: Vec<NetId> = quadrant.row(quadrant.top_row()).to_vec();
        let mut delim: Vec<usize> = top
            .iter()
            .map(|&n| {
                assignment
                    .position_of(n)
                    .map(|f| f.zero_based())
                    .ok_or(copack_route::RouteError::Unplaced { net: n })
            })
            .collect::<Result<_, _>>()?;
        delim.sort_unstable();

        let mut is_top = vec![false; index.len()];
        for &net in &top {
            is_top[index.get(net).expect("top-row net is interned")] = true;
        }
        let mut section_of = vec![0u32; index.len()];
        for (finger, net) in assignment.iter() {
            if let Some(i) = index.get(net) {
                if !is_top[i] {
                    let s = delim.partition_point(|&d| d < finger.zero_based());
                    section_of[i] = u32::try_from(s).expect("section fits u32");
                }
            }
        }
        Ok(Self {
            counts: baseline.initial().to_vec(),
            initial: baseline.initial().to_vec(),
            index,
            is_top,
            section_of,
        })
    }

    /// Applies an adjacent swap of the nets at `pos` and `pos + 1`
    /// (called **before** the assignment itself is swapped; pass the nets
    /// that currently sit left and right). Applying the same swap again
    /// reverts it.
    ///
    /// Returns `true` iff the section counts changed (a net crossed a
    /// delimiter) — callers may cache [`SectionTracker::increased_density`]
    /// and only refresh it on `true`.
    ///
    /// # Panics
    ///
    /// Panics if both nets are top-row nets (such swaps are monotonic-
    /// illegal and must be filtered out by the caller) or if a net is
    /// unknown.
    pub fn apply_adjacent_swap(&mut self, left: NetId, right: NetId) -> bool {
        let li = self.index.get(left).expect("left net is interned");
        let ri = self.index.get(right).expect("right net is interned");
        self.apply_adjacent_swap_idx(li, ri)
    }

    /// [`SectionTracker::apply_adjacent_swap`] for callers that already
    /// hold the nets' dense indices (see [`Quadrant::net_index`]).
    ///
    /// # Panics
    ///
    /// Panics if both nets are top-row nets or an index is out of range.
    pub fn apply_adjacent_swap_idx(&mut self, left: usize, right: usize) -> bool {
        let left_top = self.is_top[left];
        let right_top = self.is_top[right];
        assert!(
            !(left_top && right_top),
            "adjacent top-row nets cannot swap"
        );
        if left_top == right_top {
            // Neither is a delimiter: both stay in the same section.
            return false;
        }
        // One delimiter, one ordinary net: the ordinary net crosses it.
        let (mover, went_left) = if left_top {
            (right, true)
        } else {
            (left, false)
        };
        let s = self.section_of[mover] as usize;
        let new_s = if went_left { s - 1 } else { s + 1 };
        self.counts[s] -= 1;
        self.counts[new_s] += 1;
        self.section_of[mover] = u32::try_from(new_s).expect("section fits u32");
        true
    }

    /// Whether `net` sits on the quadrant's top row (i.e. is a section
    /// delimiter). Swaps of two non-delimiter nets never change the
    /// counts, so hot loops can pre-resolve this and skip the call.
    ///
    /// # Panics
    ///
    /// Panics if `net` is unknown.
    #[must_use]
    pub fn is_delimiter(&self, net: NetId) -> bool {
        self.is_top[self.index.get(net).expect("net is interned")]
    }

    /// Current section counts.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Eq. 2's `ID` against the recorded baseline.
    #[must_use]
    pub fn increased_density(&self) -> u32 {
        self.counts
            .iter()
            .zip(&self.initial)
            .map(|(&new, &ini)| new.saturating_sub(ini))
            .max()
            .unwrap_or(0)
    }
}

/// Incrementally tracked ω (the stacking bonding-wire metric).
///
/// Each slot holds its net's one-hot tier bit (`UP_d`, inside the ψ-bit
/// mask because every tier is checked against ψ at construction), and
/// each ψ-sized group its zero-bit count, so an adjacent swap that
/// crosses a group boundary re-ORs two groups of ψ words. A slot → group
/// table finds the boundary without dividing by ψ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmegaTracker {
    psi: usize,
    /// One-hot tier bit of the net in each slot (dense orders only).
    bits: Vec<u64>,
    /// ψ-sized group of each slot.
    group_of: Vec<u32>,
    /// Zero-bit count of each ψ-sized group.
    group_zeros: Vec<u32>,
    omega: u64,
}

impl OmegaTracker {
    /// Builds a tracker for a **dense** assignment (every slot occupied).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Geom`] for unknown nets or a net whose tier
    /// exceeds `psi` ([`copack_geom::GeomError::TierOutOfRange`]), or
    /// [`CoreError::BadConfig`] if the assignment has empty slots (the
    /// incremental update tracks slots, not nets).
    ///
    /// # Panics
    ///
    /// Panics if `psi` is 0 or greater than 64, like [`crate::omega`].
    pub fn new(quadrant: &Quadrant, assignment: &Assignment, psi: u8) -> Result<Self, CoreError> {
        assert!((1..=64).contains(&psi), "psi must be in 1..=64");
        if assignment.net_count() != assignment.finger_count() {
            return Err(CoreError::BadConfig {
                parameter: "assignment (must be dense)",
            });
        }
        let mut bits = Vec::with_capacity(assignment.finger_count());
        for (_, net) in assignment.iter() {
            let n = quadrant
                .net(net)
                .ok_or(copack_geom::GeomError::UnknownNet { net })?;
            check_tier(n.tier, psi)?;
            bits.push(n.tier.one_hot());
        }
        let psi = usize::from(psi);
        let group_zeros: Vec<u32> = bits.chunks(psi).map(|g| zeros(g, psi)).collect();
        let group_of = (0..bits.len())
            .map(|i| u32::try_from(i / psi).expect("group fits u32"))
            .collect();
        let omega = group_zeros.iter().map(|&z| u64::from(z)).sum();
        Ok(Self {
            psi,
            bits,
            group_of,
            group_zeros,
            omega,
        })
    }

    /// Applies an adjacent swap of slots `pos` and `pos + 1` (0-based).
    /// Self-inverse, like the assignment swap it mirrors.
    ///
    /// # Panics
    ///
    /// Panics if `pos + 1` is out of range.
    pub fn apply_adjacent_swap(&mut self, pos: FingerIdx) {
        self.swap_slots(pos.zero_based());
    }

    /// [`OmegaTracker::apply_adjacent_swap`] on 0-based slots `i` and
    /// `i + 1`.
    #[inline(always)]
    pub(crate) fn swap_slots(&mut self, i: usize) {
        assert!(i + 1 < self.bits.len(), "swap out of range");
        self.bits.swap(i, i + 1);
        // Within one group the union is unchanged.
        let (left, right) = (self.group_of[i], self.group_of[i + 1]);
        if left == right {
            return;
        }
        for g in [left as usize, right as usize] {
            let start = g * self.psi;
            let end = (start + self.psi).min(self.bits.len());
            let new_zeros = zeros(&self.bits[start..end], self.psi);
            self.omega -= u64::from(self.group_zeros[g]);
            self.omega += u64::from(new_zeros);
            self.group_zeros[g] = new_zeros;
        }
    }

    /// Whether 0-based slots `i` and `i + 1` sit in one ψ-group, where a
    /// swap leaves ω unchanged.
    #[inline]
    pub(crate) fn same_group(&self, i: usize) -> bool {
        self.group_of[i] == self.group_of[i + 1]
    }

    /// Current ω.
    #[must_use]
    pub fn omega(&self) -> u64 {
        self.omega
    }
}

/// Zero bits of one group's union: ψ minus the tiers present.
fn zeros(group: &[u64], psi: usize) -> u32 {
    let union = group.iter().fold(0u64, |u, &b| u | b);
    psi as u32 - union.count_ones()
}

/// Rank sentinel of [`DeltaIrTracker`]'s slot table: no power pad here.
const NO_PAD: u32 = u32::MAX;

/// Incrementally tracked Δ_IR pad-spacing proxy (Eq. 3's first term).
///
/// Each power pad sits at `(slot + 0.5) / α`, so every perimeter gap is a
/// whole number of fingers over α and the proxy is a function of
/// `G = Σ g²` over the integer gaps ([`copack_power::slot_delta_ir`]).
/// The tracker keeps the pads' slots in sorted order and G across
/// adjacent swaps, exploiting two facts:
///
/// * swapping two power pads permutes nets but leaves the occupied *slots*
///   unchanged, so G is untouched;
/// * a power pad moving one slot into a non-power slot cannot jump past
///   another power pad (that pad would have been the swap partner), so its
///   sorted rank is stable; the gap behind it grows by 1 and the gap ahead
///   shrinks by 1, so G changes by `2·(g_behind − g_ahead) + 2` in O(1).
///
/// [`DeltaIrTracker::delta_ir`] is one call of the shared formula, which
/// `exchange_reference` also scores with, so the kernel and the reference
/// agree by construction. The pad count never changes, so the tracker
/// keeps the formula's [`SlotRing`] and with it the denominator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaIrTracker {
    /// Finger count α.
    alpha: u64,
    /// The pad count and α, for [`SlotRing::delta_ir`].
    ring: SlotRing,
    /// The power pads' 0-based slots, sorted ascending.
    slots: Vec<u32>,
    /// Rank in `slots` of the power pad occupying each 0-based slot
    /// ([`NO_PAD`] for a slot without one).
    rank_of_slot: Vec<u32>,
    /// G: the sum of the squared integer perimeter gaps.
    gap_squares: u64,
}

impl DeltaIrTracker {
    /// Builds a tracker over `assignment`'s power pads.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Route`] if a power net is unplaced.
    pub fn new(quadrant: &Quadrant, assignment: &Assignment) -> Result<Self, CoreError> {
        let alpha = assignment.finger_count();
        let mut slots: Vec<u32> = Vec::new();
        for net in quadrant.nets_of_kind(NetKind::Power) {
            let pos = assignment
                .position_of(net)
                .ok_or(copack_route::RouteError::Unplaced { net })?;
            slots.push(u32::try_from(pos.zero_based()).expect("slot fits u32"));
        }
        slots.sort_unstable();
        let mut rank_of_slot = vec![NO_PAD; alpha];
        for (rank, &slot) in slots.iter().enumerate() {
            rank_of_slot[slot as usize] = u32::try_from(rank).expect("pad rank fits u32");
        }
        let alpha = alpha as u64;
        Ok(Self {
            alpha,
            ring: SlotRing::new(slots.len() as u64, alpha),
            gap_squares: slot_gap_squares(&slots, alpha),
            slots,
            rank_of_slot,
        })
    }

    /// Number of tracked power pads.
    #[must_use]
    pub fn power_pad_count(&self) -> usize {
        self.slots.len()
    }

    /// Applies an adjacent swap of slots `pos` and `pos + 1`. Self-inverse,
    /// like the assignment swap it mirrors; callable before or after the
    /// assignment itself is swapped (it reads no assignment state).
    ///
    /// Returns `true` iff a pad's slot changed — i.e. the swap moved a
    /// power pad into a non-power slot. Callers may cache
    /// [`DeltaIrTracker::delta_ir`] and only refresh it on `true`: the
    /// score is a pure function of the slots.
    ///
    /// # Panics
    ///
    /// Panics if `pos + 1` is out of range.
    pub fn apply_adjacent_swap(&mut self, pos: FingerIdx) -> bool {
        self.move_pad(pos.zero_based())
    }

    /// Undoes [`DeltaIrTracker::apply_adjacent_swap`] at the same `pos`,
    /// as the annealer does for a rejected move.
    ///
    /// # Panics
    ///
    /// Panics if `pos + 1` is out of range.
    pub fn revert_adjacent_swap(&mut self, pos: FingerIdx) {
        self.move_pad(pos.zero_based());
    }

    /// The swap of 0-based slots `i` and `i + 1`; `true` iff a pad moved.
    #[inline(always)]
    pub(crate) fn move_pad(&mut self, i: usize) -> bool {
        assert!(i + 1 < self.rank_of_slot.len(), "swap out of range");
        let (left, right) = (self.rank_of_slot[i], self.rank_of_slot[i + 1]);
        // Two power pads exchange nets, or neither slot holds one: the
        // occupied slots — and hence G — are unchanged.
        if (left == NO_PAD) == (right == NO_PAD) {
            return false;
        }
        let (rank, step) = if left == NO_PAD {
            (right, -1)
        } else {
            (left, 1)
        };
        self.rank_of_slot[i] = right;
        self.rank_of_slot[i + 1] = left;
        let (r, k) = (rank as usize, self.slots.len());
        let from = i64::from(self.slots[r]);
        // A lone pad's two gaps are one wrap-around gap of α.
        if k > 1 {
            let alpha = self.alpha as i64;
            let prev = match r {
                0 => i64::from(self.slots[k - 1]) - alpha,
                _ => i64::from(self.slots[r - 1]),
            };
            let next = match self.slots.get(r + 1) {
                Some(&s) => i64::from(s),
                None => i64::from(self.slots[0]) + alpha,
            };
            // (gl + step)² + (gr − step)² − gl² − gr², with step² = 1.
            let (gl, gr) = (from - prev, next - from);
            self.gap_squares = self
                .gap_squares
                .checked_add_signed(2 * step * (gl - gr) + 2)
                .expect("G stays non-negative");
        }
        self.slots[r] = u32::try_from(from + step).expect("slot fits u32");
        true
    }

    /// The pad-spacing score: [`copack_power::slot_delta_ir`] of the
    /// tracked G. Returns `0.0` with no power pads — callers guard that
    /// case like the reference guards an empty pad set.
    #[must_use]
    #[inline]
    pub fn delta_ir(&self) -> f64 {
        self.ring.delta_ir(self.gap_squares)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dfa, omega_of_assignment, SectionBaseline};
    use copack_geom::{Quadrant, TierId};
    use copack_power::slot_delta_ir;
    use rand::{Rng, SeedableRng};

    fn quadrant() -> Quadrant {
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, copack_geom::NetKind::Power)
            .net_kind(5u32, copack_geom::NetKind::Power)
            .net_kind(9u32, copack_geom::NetKind::Power);
        for (i, n) in [10u32, 2, 4, 7, 0, 1, 3, 5, 8, 11, 6, 9].iter().enumerate() {
            b = b.net_tier(*n, TierId::new((i % 3) as u8 + 1));
        }
        b.build().unwrap()
    }

    /// The from-scratch Δ_IR score the tracker replaces: the shared
    /// formula over the power pads' slots, checked against the float
    /// proxy over their coordinates on the way.
    fn delta_ir_from_scratch(q: &Quadrant, a: &Assignment) -> f64 {
        let alpha = a.finger_count() as u64;
        let mut slots: Vec<u32> = q
            .nets_of_kind(copack_geom::NetKind::Power)
            .filter_map(|n| a.position_of(n))
            .map(|f| f.zero_based() as u32)
            .collect();
        if slots.is_empty() {
            return 0.0;
        }
        slots.sort_unstable();
        let exact = slot_delta_ir(slot_gap_squares(&slots, alpha), slots.len() as u64, alpha);
        let ts: Vec<f64> = slots
            .iter()
            .map(|&s| (f64::from(s) + 0.5) / alpha as f64)
            .collect();
        let float = copack_power::PadSpacingProxy::new(&ts).unwrap().delta_ir();
        assert!((exact - float).abs() <= 1e-12 * float.max(1e-12));
        exact
    }

    /// Drives both trackers through a random legal-swap walk and checks
    /// them against the from-scratch definitions at every step.
    #[test]
    fn trackers_match_recompute_over_random_walks() {
        let q = quadrant();
        let initial = dfa(&q, 1).unwrap();
        let baseline = SectionBaseline::record(&q, &initial).unwrap();
        let mut sections = SectionTracker::new(&q, &initial).unwrap();
        let mut omega_t = OmegaTracker::new(&q, &initial, 3).unwrap();
        let mut ir = DeltaIrTracker::new(&q, &initial).unwrap();
        let mut a = initial.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let top: Vec<_> = q.row(q.top_row()).to_vec();

        for step in 0..500 {
            let p = rng.gen_range(1..=11u32);
            let left = a.net_at(FingerIdx::new(p)).unwrap();
            let right = a.net_at(FingerIdx::new(p + 1)).unwrap();
            if top.contains(&left) && top.contains(&right) {
                continue; // illegal for the section tracker, skip
            }
            sections.apply_adjacent_swap(left, right);
            omega_t.apply_adjacent_swap(FingerIdx::new(p));
            ir.apply_adjacent_swap(FingerIdx::new(p));
            a.swap(FingerIdx::new(p), FingerIdx::new(p + 1)).unwrap();

            let expected_id = baseline.increased_density(&q, &a).unwrap();
            assert_eq!(sections.increased_density(), expected_id, "step {step}");
            let expected_omega = omega_of_assignment(&q, &a, 3).unwrap();
            assert_eq!(omega_t.omega(), expected_omega, "step {step}");
            // Bit-identical, not approximately equal: the annealer's
            // accept/reject decisions hinge on exact cost comparisons.
            assert_eq!(ir.delta_ir(), delta_ir_from_scratch(&q, &a), "step {step}");
        }
    }

    #[test]
    fn swaps_are_self_inverse() {
        let q = quadrant();
        let a = dfa(&q, 1).unwrap();
        let mut sections = SectionTracker::new(&q, &a).unwrap();
        let mut omega_t = OmegaTracker::new(&q, &a, 3).unwrap();
        let mut ir = DeltaIrTracker::new(&q, &a).unwrap();
        let s0 = sections.clone();
        let o0 = omega_t.clone();
        let i0 = ir.clone();
        let left = a.net_at(FingerIdx::new(4)).unwrap();
        let right = a.net_at(FingerIdx::new(5)).unwrap();
        sections.apply_adjacent_swap(left, right);
        omega_t.apply_adjacent_swap(FingerIdx::new(4));
        ir.apply_adjacent_swap(FingerIdx::new(4));
        // Revert: note the nets' sides are now exchanged.
        sections.apply_adjacent_swap(right, left);
        omega_t.apply_adjacent_swap(FingerIdx::new(4));
        ir.apply_adjacent_swap(FingerIdx::new(4));
        assert_eq!(sections, s0);
        assert_eq!(omega_t, o0);
        assert_eq!(ir, i0);
    }

    #[test]
    fn delta_ir_tracker_matches_proxy_at_construction() {
        let q = quadrant();
        let a = dfa(&q, 1).unwrap();
        let ir = DeltaIrTracker::new(&q, &a).unwrap();
        assert_eq!(ir.power_pad_count(), 3);
        assert_eq!(ir.delta_ir(), delta_ir_from_scratch(&q, &a));
    }

    #[test]
    fn delta_ir_tracker_handles_powerless_quadrants() {
        let q = Quadrant::builder().row([1u32, 2]).build().unwrap();
        let a = Assignment::from_order([1u32, 2]);
        let ir = DeltaIrTracker::new(&q, &a).unwrap();
        assert_eq!(ir.power_pad_count(), 0);
        assert_eq!(ir.delta_ir(), 0.0);
    }

    #[test]
    fn delta_ir_tracker_tracks_sparse_assignments() {
        // More fingers than nets: power pads can move into empty slots.
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, copack_geom::NetKind::Power)
            .net_kind(5u32, copack_geom::NetKind::Power)
            .fingers(15);
        for (i, n) in [10u32, 2, 4, 7, 0, 1, 3, 5, 8, 11, 6, 9].iter().enumerate() {
            b = b.net_tier(*n, TierId::new((i % 3) as u8 + 1));
        }
        let q = b.build().unwrap();
        let initial = dfa(&q, 1).unwrap();
        let mut ir = DeltaIrTracker::new(&q, &initial).unwrap();
        let mut a = initial.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for step in 0..300 {
            let p = rng.gen_range(1..=14u32);
            ir.apply_adjacent_swap(FingerIdx::new(p));
            a.swap(FingerIdx::new(p), FingerIdx::new(p + 1)).unwrap();
            assert_eq!(ir.delta_ir(), delta_ir_from_scratch(&q, &a), "step {step}");
        }
    }

    #[test]
    fn section_tracker_starts_at_zero_id() {
        let q = quadrant();
        let a = dfa(&q, 1).unwrap();
        let t = SectionTracker::new(&q, &a).unwrap();
        assert_eq!(t.increased_density(), 0);
        assert_eq!(t.counts().iter().sum::<u32>() as usize, 9);
    }

    #[test]
    fn omega_tracker_requires_dense_assignments() {
        let q = quadrant();
        let mut sparse = Assignment::empty(13);
        for (i, net) in dfa(&q, 1).unwrap().order().into_iter().enumerate() {
            sparse.place(net, FingerIdx::from_zero_based(i)).unwrap();
        }
        assert!(OmegaTracker::new(&q, &sparse, 3).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot swap")]
    fn section_tracker_rejects_double_delimiters() {
        let q = quadrant();
        let a = dfa(&q, 1).unwrap();
        let mut t = SectionTracker::new(&q, &a).unwrap();
        // 11 and 6 are both top-row nets.
        t.apply_adjacent_swap(NetId::new(11), NetId::new(6));
    }
}
