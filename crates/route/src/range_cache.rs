//! Cached exchange ranges for the annealer's inner loop.
//!
//! [`exchange_range`] re-derives a net's legal span from scratch: a ball
//! lookup, a row scan and up to two position lookups in the assignment's
//! `BTreeMap` — twice per proposed move. A net's span depends only on the
//! *positions of its same-row neighbours*, so an adjacent swap invalidates
//! at most four cached entries (the row-neighbours of the two nets that
//! moved). [`RangeCache`] exploits that: range reads become two array
//! loads, and accepted swaps trigger a constant-size refresh.

use copack_geom::{Assignment, NetId, NetIndex, Quadrant};

use crate::{exchange_range, RouteError};

/// Row-neighbour sentinel: the net is at the end of its row.
const NO_NEIGHBOUR: u32 = u32::MAX;

/// Per-net cached `(lo, hi)` exchange ranges with `O(1)` reads and
/// constant-size invalidation on adjacent swaps.
///
/// Nets are addressed by a **dense index** in the quadrant's id order
/// (`Quadrant::nets`, i.e. the quadrant's [`NetIndex`]); resolve ids once
/// with [`RangeCache::index_of`] and use indices in the hot loop. After a
/// swap is applied, report every net whose *position changed* via
/// [`RangeCache::note_moved`] with the current 1-based positions (indexed
/// the same way); the cache refreshes the affected neighbours' entries.
///
/// Cached ranges are guaranteed to equal [`exchange_range`] on the live
/// assignment (property-tested in this crate).
///
/// Every table is a flat `u32` array over the dense index: ranges are raw
/// 1-based finger numbers, and a missing row neighbour is a sentinel
/// rather than an `Option`, so the annealer's per-proposal reads stay
/// within a few cache lines even at thousands of nets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeCache {
    index: NetIndex,
    /// Same-row left/right neighbour of each net, as dense indices
    /// ([`NO_NEIGHBOUR`] at a row end).
    left: Vec<u32>,
    right: Vec<u32>,
    /// `(lo, hi)` of each net, side by side so a read touches one line.
    bounds: Vec<[u32; 2]>,
    finger_count: u32,
}

impl RangeCache {
    /// Builds the cache for `assignment`, priming every net's range.
    ///
    /// # Errors
    ///
    /// As [`exchange_range`]: every net and row-neighbour must be placed.
    pub fn new(quadrant: &Quadrant, assignment: &Assignment) -> Result<Self, RouteError> {
        let index = quadrant.net_index().clone();
        let count = index.len();
        let dense = |net: NetId| {
            let i = index.get(net).expect("row net is interned");
            u32::try_from(i).expect("net index fits u32")
        };
        let mut left = vec![NO_NEIGHBOUR; count];
        let mut right = vec![NO_NEIGHBOUR; count];
        for (_, nets) in quadrant.rows_bottom_up() {
            for w in nets.windows(2) {
                let (a, b) = (dense(w[0]), dense(w[1]));
                right[a as usize] = b;
                left[b as usize] = a;
            }
        }
        let mut bounds = vec![[0u32; 2]; count];
        for (i, &net) in index.ids().iter().enumerate() {
            let (l, h) = exchange_range(quadrant, assignment, net)?;
            bounds[i] = [l.get(), h.get()];
        }
        Ok(Self {
            index,
            left,
            right,
            bounds,
            finger_count: u32::try_from(assignment.finger_count()).expect("finger count fits u32"),
        })
    }

    /// Dense index of `net`, or `None` for a net outside the quadrant.
    #[must_use]
    pub fn index_of(&self, net: NetId) -> Option<usize> {
        self.index.get(net)
    }

    /// Number of cached nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.bounds.len()
    }

    /// Cached inclusive range `(lo, hi)` of the net at dense index `idx`,
    /// as raw 1-based finger numbers (the values of the
    /// [`copack_geom::FingerIdx`] pair [`exchange_range`] returns).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    #[inline]
    pub fn range(&self, idx: usize) -> (u32, u32) {
        let [lo, hi] = self.bounds[idx];
        (lo, hi)
    }

    /// Refreshes the entries invalidated by the net at `idx` having moved:
    /// its right neighbour's `lo` and its left neighbour's `hi`. (Its own
    /// range does not depend on its own position.)
    ///
    /// `positions[i]` must be the *current* 1-based slot of the net at
    /// dense index `i`, reflecting the already-applied swap.
    ///
    /// # Panics
    ///
    /// Panics if `idx` or a neighbour index exceeds `positions`.
    #[inline(always)]
    pub fn note_moved(&mut self, idx: usize, positions: &[u32]) {
        let r = self.right[idx];
        if r != NO_NEIGHBOUR {
            self.bounds[r as usize][0] = positions[idx] + 1;
        }
        let l = self.left[idx];
        if l != NO_NEIGHBOUR {
            self.bounds[l as usize][1] = positions[idx].saturating_sub(1).max(1);
        }
    }

    /// The quadrant's finger count (the `hi` of every row-rightmost net).
    #[must_use]
    pub fn finger_count(&self) -> u32 {
        self.finger_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_geom::{FingerIdx, Quadrant};

    fn fig5() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .build()
            .unwrap()
    }

    fn positions(q: &Quadrant, a: &Assignment) -> Vec<u32> {
        q.nets()
            .map(|n| a.position_of(n.id).unwrap().get())
            .collect()
    }

    fn assert_matches_recompute(cache: &RangeCache, q: &Quadrant, a: &Assignment) {
        for net in q.nets() {
            let i = cache.index_of(net.id).unwrap();
            let cached = cache.range(i);
            let (lo, hi) = exchange_range(q, a, net.id).unwrap();
            assert_eq!(cached, (lo.get(), hi.get()), "net {}", net.id.raw());
        }
    }

    #[test]
    fn primed_cache_matches_exchange_range() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let cache = RangeCache::new(&q, &a).unwrap();
        assert_eq!(cache.net_count(), 12);
        assert_eq!(cache.finger_count(), 12);
        assert_matches_recompute(&cache, &q, &a);
        // The paper's worked example: net 6 ranges over F3..F7.
        let i = cache.index_of(NetId::new(6)).unwrap();
        assert_eq!(cache.range(i), (3, 7));
    }

    #[test]
    fn note_moved_tracks_adjacent_swaps() {
        let q = fig5();
        let mut a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let mut cache = RangeCache::new(&q, &a).unwrap();
        // Walk a fixed sequence of legal adjacent swaps, refreshing after
        // each, and compare every entry against the from-scratch ranges.
        for &(p, t) in &[(5u32, 6u32), (6, 7), (2, 3), (7, 6), (9, 10), (3, 2)] {
            let na = a.net_at(FingerIdx::new(p)).unwrap();
            let nb = a.net_at(FingerIdx::new(t)).unwrap();
            a.swap(FingerIdx::new(p), FingerIdx::new(t)).unwrap();
            let pos = positions(&q, &a);
            cache.note_moved(cache.index_of(na).unwrap(), &pos);
            cache.note_moved(cache.index_of(nb).unwrap(), &pos);
            assert_matches_recompute(&cache, &q, &a);
        }
    }

    #[test]
    fn unknown_nets_have_no_index() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0]);
        let cache = RangeCache::new(&q, &a).unwrap();
        assert_eq!(cache.index_of(NetId::new(77)), None);
    }

    #[test]
    fn unplaced_nets_fail_construction() {
        let q = fig5();
        let a = Assignment::from_order([10u32, 11]);
        assert!(RangeCache::new(&q, &a).is_err());
    }
}
