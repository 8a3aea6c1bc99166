//! Net → finger-slot assignments, the output of the planning algorithms.

use std::collections::BTreeMap;
use std::fmt;

use crate::{FingerIdx, GeomError, NetId, Quadrant};

/// Raw-id ceiling of the direct position table. Net ids below this (every
/// generated instance; the generators emit `1..=β`) resolve positions
/// through a flat `Vec` in `O(1)`; the rare hand-written id above it falls
/// into a keyed overflow map so a stray huge id cannot balloon memory.
const DIRECT_POS_LIMIT: usize = 1 << 20;

/// Sentinel in the direct position table for "net not placed".
const UNPLACED: u32 = u32::MAX;

/// An assignment of nets to finger slots within one quadrant: the paper's
/// output "assignment of net `N_b` to finger/pad locations `F_a`".
///
/// Slots may be empty when a quadrant has more fingers than nets; the
/// planning algorithms keep nets in *relative* order, so the dense
/// [`Assignment::order`] view is what most consumers want.
///
/// The net → slot reverse index is a dense array over raw net ids, so
/// [`Assignment::position_of`] and [`Assignment::swap`] — the annealer's
/// reference-kernel inner loop — never walk a tree.
///
/// ```
/// use copack_geom::{Assignment, NetId};
///
/// let a = Assignment::from_order([3u32, 1, 2]);
/// assert_eq!(a.position_of(NetId::new(1)).unwrap().get(), 2);
/// assert_eq!(a.order(), vec![NetId::new(3), NetId::new(1), NetId::new(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct Assignment {
    slots: Vec<Option<NetId>>,
    /// Raw id → 0-based slot ([`UNPLACED`] = absent), ids below
    /// [`DIRECT_POS_LIMIT`] only; grown on demand.
    pos: Vec<u32>,
    /// Positions of the rare nets with raw ids ≥ [`DIRECT_POS_LIMIT`].
    pos_overflow: BTreeMap<NetId, usize>,
    /// Number of occupied slots.
    placed: usize,
}

/// Equality is over the slots alone: the reverse index is derived state
/// (its backing-array length varies with the largest id seen, never with
/// the assignment's meaning).
impl PartialEq for Assignment {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
    }
}

impl Eq for Assignment {}

impl Assignment {
    /// Creates an assignment with `fingers` empty slots.
    #[must_use]
    pub fn empty(fingers: usize) -> Self {
        Self {
            slots: vec![None; fingers],
            pos: Vec::new(),
            pos_overflow: BTreeMap::new(),
            placed: 0,
        }
    }

    /// Creates a dense assignment: the `i`-th net occupies slot `i`.
    #[must_use]
    pub fn from_order<I, T>(order: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<NetId>,
    {
        let slots: Vec<Option<NetId>> = order.into_iter().map(|n| Some(n.into())).collect();
        let mut a = Self {
            slots,
            pos: Vec::new(),
            pos_overflow: BTreeMap::new(),
            placed: 0,
        };
        a.rebuild_index();
        a
    }

    fn rebuild_index(&mut self) {
        self.pos.clear();
        self.pos_overflow.clear();
        self.placed = 0;
        for i in 0..self.slots.len() {
            if let Some(net) = self.slots[i] {
                self.set_pos(net, i);
                self.placed += 1;
            }
        }
    }

    fn get_pos(&self, net: NetId) -> Option<usize> {
        let raw = net.raw() as usize;
        if raw < DIRECT_POS_LIMIT {
            match self.pos.get(raw) {
                Some(&p) if p != UNPLACED => Some(p as usize),
                _ => None,
            }
        } else {
            self.pos_overflow.get(&net).copied()
        }
    }

    fn set_pos(&mut self, net: NetId, slot: usize) {
        let raw = net.raw() as usize;
        if raw < DIRECT_POS_LIMIT {
            if raw >= self.pos.len() {
                self.pos.resize(raw + 1, UNPLACED);
            }
            self.pos[raw] = u32::try_from(slot).expect("slot fits u32");
        } else {
            self.pos_overflow.insert(net, slot);
        }
    }

    /// Number of finger slots (occupied or not).
    #[must_use]
    pub fn finger_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of occupied slots.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.placed
    }

    /// Whether no slot is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.placed == 0
    }

    /// Net occupying finger `a`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `a` exceeds the slot count.
    #[must_use]
    pub fn net_at(&self, a: FingerIdx) -> Option<NetId> {
        self.slots[a.zero_based()]
    }

    /// Finger slot holding `net`, if it is placed.
    #[must_use]
    pub fn position_of(&self, net: NetId) -> Option<FingerIdx> {
        self.get_pos(net).map(FingerIdx::from_zero_based)
    }

    /// Places `net` into slot `a`.
    ///
    /// # Errors
    ///
    /// * [`GeomError::SlotOutOfRange`] if `a` exceeds the slot count.
    /// * [`GeomError::SlotOccupied`] if another net already sits there.
    /// * [`GeomError::DuplicateNet`] if `net` is already placed elsewhere.
    pub fn place(&mut self, net: NetId, a: FingerIdx) -> Result<(), GeomError> {
        let i = a.zero_based();
        if i >= self.slots.len() {
            return Err(GeomError::SlotOutOfRange {
                slot: i,
                fingers: self.slots.len(),
            });
        }
        if let Some(occupant) = self.slots[i] {
            if occupant != net {
                return Err(GeomError::SlotOccupied {
                    slot: i,
                    occupant,
                    incoming: net,
                });
            }
            return Ok(());
        }
        if self.get_pos(net).is_some() {
            return Err(GeomError::DuplicateNet { net });
        }
        self.slots[i] = Some(net);
        self.set_pos(net, i);
        self.placed += 1;
        Ok(())
    }

    /// Swaps the contents of two slots (either may be empty).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::SlotOutOfRange`] if either index is out of range.
    pub fn swap(&mut self, a: FingerIdx, b: FingerIdx) -> Result<(), GeomError> {
        for idx in [a, b] {
            if idx.zero_based() >= self.slots.len() {
                return Err(GeomError::SlotOutOfRange {
                    slot: idx.zero_based(),
                    fingers: self.slots.len(),
                });
            }
        }
        let (i, j) = (a.zero_based(), b.zero_based());
        self.slots.swap(i, j);
        if let Some(n) = self.slots[i] {
            self.set_pos(n, i);
        }
        if let Some(n) = self.slots[j] {
            self.set_pos(n, j);
        }
        Ok(())
    }

    /// The occupied slots as a dense left-to-right net order — the
    /// "finger order" the paper prints for its examples.
    #[must_use]
    pub fn order(&self) -> Vec<NetId> {
        self.slots.iter().filter_map(|n| *n).collect()
    }

    /// Iterates `(slot, net)` pairs over occupied slots, left to right.
    pub fn iter(&self) -> impl Iterator<Item = (FingerIdx, NetId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.map(|n| (FingerIdx::from_zero_based(i), n)))
    }

    /// Raw slot view, including empty slots.
    #[must_use]
    pub fn as_slots(&self) -> &[Option<NetId>] {
        &self.slots
    }

    /// Checks that this assignment places **every** net of `quadrant`,
    /// nothing else, and only on fingers the quadrant actually has.
    ///
    /// # Errors
    ///
    /// * [`GeomError::IncompleteAssignment`] if counts disagree.
    /// * [`GeomError::UnknownNet`] if a placed net is not in the quadrant.
    /// * [`GeomError::SlotOutOfRange`] if a net sits beyond the
    ///   quadrant's finger row (e.g. a sparse assignment file with an
    ///   oversized finger index).
    pub fn validate_complete(&self, quadrant: &Quadrant) -> Result<(), GeomError> {
        for (finger, net) in self.iter() {
            if quadrant.net(net).is_none() {
                return Err(GeomError::UnknownNet { net });
            }
            if finger.zero_based() >= quadrant.finger_count() {
                return Err(GeomError::SlotOutOfRange {
                    slot: finger.zero_based(),
                    fingers: quadrant.finger_count(),
                });
            }
        }
        if self.placed != quadrant.net_count() {
            return Err(GeomError::IncompleteAssignment {
                placed: self.placed,
                nets: quadrant.net_count(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for slot in &self.slots {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            match slot {
                Some(n) => write!(f, "{}", n.raw())?,
                None => f.write_str("_")?,
            }
        }
        Ok(())
    }
}

impl FromIterator<NetId> for Assignment {
    fn from_iter<I: IntoIterator<Item = NetId>>(iter: I) -> Self {
        Self::from_order(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quadrant;

    fn fig5_random() -> Assignment {
        // Paper Fig. 5(A): random finger order.
        Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0])
    }

    #[test]
    fn from_order_places_densely() {
        let a = fig5_random();
        assert_eq!(a.finger_count(), 12);
        assert_eq!(a.net_count(), 12);
        assert_eq!(a.net_at(FingerIdx::new(5)), Some(NetId::new(11)));
        assert_eq!(a.position_of(NetId::new(0)).unwrap().get(), 12);
    }

    #[test]
    fn display_prints_paper_style_order() {
        assert_eq!(fig5_random().to_string(), "10,1,2,3,11,6,9,4,5,8,7,0");
        let mut sparse = Assignment::empty(3);
        sparse.place(NetId::new(7), FingerIdx::new(2)).unwrap();
        assert_eq!(sparse.to_string(), "_,7,_");
    }

    #[test]
    fn place_rejects_conflicts() {
        let mut a = Assignment::empty(2);
        a.place(NetId::new(1), FingerIdx::new(1)).unwrap();
        let err = a.place(NetId::new(2), FingerIdx::new(1)).unwrap_err();
        assert!(matches!(err, GeomError::SlotOccupied { .. }));
        let err = a.place(NetId::new(1), FingerIdx::new(2)).unwrap_err();
        assert!(matches!(err, GeomError::DuplicateNet { .. }));
        let err = a.place(NetId::new(3), FingerIdx::new(9)).unwrap_err();
        assert!(matches!(err, GeomError::SlotOutOfRange { .. }));
    }

    #[test]
    fn placing_same_net_in_same_slot_is_idempotent() {
        let mut a = Assignment::empty(1);
        a.place(NetId::new(1), FingerIdx::new(1)).unwrap();
        assert!(a.place(NetId::new(1), FingerIdx::new(1)).is_ok());
    }

    #[test]
    fn swap_updates_positions() {
        let mut a = fig5_random();
        a.swap(FingerIdx::new(1), FingerIdx::new(12)).unwrap();
        assert_eq!(a.net_at(FingerIdx::new(1)), Some(NetId::new(0)));
        assert_eq!(a.position_of(NetId::new(10)).unwrap().get(), 12);
    }

    #[test]
    fn swap_with_empty_slot_moves_net() {
        let mut a = Assignment::empty(3);
        a.place(NetId::new(5), FingerIdx::new(1)).unwrap();
        a.swap(FingerIdx::new(1), FingerIdx::new(3)).unwrap();
        assert_eq!(a.net_at(FingerIdx::new(1)), None);
        assert_eq!(a.position_of(NetId::new(5)).unwrap().get(), 3);
        assert!(a.swap(FingerIdx::new(1), FingerIdx::new(7)).is_err());
    }

    #[test]
    fn order_skips_empty_slots() {
        let mut a = Assignment::empty(4);
        a.place(NetId::new(2), FingerIdx::new(4)).unwrap();
        a.place(NetId::new(9), FingerIdx::new(1)).unwrap();
        assert_eq!(a.order(), vec![NetId::new(9), NetId::new(2)]);
        let pairs: Vec<(u32, u32)> = a.iter().map(|(f, n)| (f.get(), n.raw())).collect();
        assert_eq!(pairs, vec![(1, 9), (4, 2)]);
    }

    #[test]
    fn validate_complete_checks_membership_and_counts() {
        let q = Quadrant::builder().row([1u32, 2]).build().unwrap();
        let ok = Assignment::from_order([2u32, 1]);
        assert!(ok.validate_complete(&q).is_ok());

        let missing = Assignment::from_order([1u32]);
        assert!(matches!(
            missing.validate_complete(&q),
            Err(GeomError::IncompleteAssignment { placed: 1, nets: 2 })
        ));

        let foreign = Assignment::from_order([1u32, 9]);
        assert!(matches!(
            foreign.validate_complete(&q),
            Err(GeomError::UnknownNet { .. })
        ));

        let mut oversized = Assignment::empty(5);
        oversized.place(NetId::new(1), FingerIdx::new(1)).unwrap();
        oversized.place(NetId::new(2), FingerIdx::new(5)).unwrap();
        assert!(matches!(
            oversized.validate_complete(&q),
            Err(GeomError::SlotOutOfRange {
                slot: 4,
                fingers: 2
            })
        ));
    }

    #[test]
    fn huge_ids_take_the_overflow_path() {
        // Raw ids past the direct-table ceiling must still place, swap and
        // resolve — just through the keyed overflow map.
        let big = NetId::new(3_000_000_000);
        let mut a = Assignment::from_order([big, NetId::new(1)]);
        assert_eq!(a.position_of(big).unwrap().get(), 1);
        a.swap(FingerIdx::new(1), FingerIdx::new(2)).unwrap();
        assert_eq!(a.position_of(big).unwrap().get(), 2);
        assert_eq!(a.position_of(NetId::new(1)).unwrap().get(), 1);
        let err = a.place(big, FingerIdx::new(1)).unwrap_err();
        assert!(matches!(err, GeomError::SlotOccupied { .. }));
    }

    #[test]
    fn equality_ignores_index_capacity() {
        // Same slots, different index growth histories: still equal.
        let a = Assignment::from_order([5u32, 900_000]);
        let mut b = Assignment::empty(2);
        b.place(NetId::new(900_000), FingerIdx::new(2)).unwrap();
        b.place(NetId::new(5), FingerIdx::new(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn collects_from_iterator_of_net_ids() {
        let a: Assignment = [NetId::new(4), NetId::new(2)].into_iter().collect();
        assert_eq!(a.order(), vec![NetId::new(4), NetId::new(2)]);
    }
}
