//! One triangular quadrant of the package: a finger row facing a ball grid.

use std::collections::BTreeMap;

use crate::{BallRef, FingerIdx, GeomError, Net, NetId, NetKind, Point, RowIdx, TierId};

/// Physical parameters of a quadrant, in micrometres.
///
/// The defaults follow the paper's experimental setup (§4): via diameter
/// 0.1 µm, ball diameter 0.2 µm, and circuit-3-like pitches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadrantGeometry {
    /// Minimal spacing between two adjacent bump balls (Table 1's
    /// "bump ball space").
    pub ball_pitch: f64,
    /// Centre-to-centre spacing of adjacent fingers
    /// (finger width + finger space in Table 1).
    pub finger_pitch: f64,
    /// Finger width.
    pub finger_width: f64,
    /// Finger height.
    pub finger_height: f64,
    /// Via diameter.
    pub via_diameter: f64,
    /// Bump-ball diameter.
    pub ball_diameter: f64,
}

impl QuadrantGeometry {
    /// Validates that every parameter is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidGeometry`] naming the first bad parameter.
    pub fn validate(&self) -> Result<(), GeomError> {
        let checks: [(&'static str, f64); 6] = [
            ("ball_pitch", self.ball_pitch),
            ("finger_pitch", self.finger_pitch),
            ("finger_width", self.finger_width),
            ("finger_height", self.finger_height),
            ("via_diameter", self.via_diameter),
            ("ball_diameter", self.ball_diameter),
        ];
        for (parameter, v) in checks {
            if !(v.is_finite() && v > 0.0) {
                return Err(GeomError::InvalidGeometry { parameter });
            }
        }
        Ok(())
    }
}

impl Default for QuadrantGeometry {
    fn default() -> Self {
        Self {
            ball_pitch: 1.2,
            finger_pitch: 0.013,
            finger_width: 0.006,
            finger_height: 0.2,
            via_diameter: 0.1,
            ball_diameter: 0.2,
        }
    }
}

/// Sentinel in [`NetIndex`]'s direct table for "no net with this raw id".
const NO_INDEX: u32 = u32::MAX;

/// Contiguous `NetId → usize` interning over one quadrant's net set.
///
/// [`NetId`]s need not be dense, but every per-net lookup on the
/// annealer's hot path wants a flat array. The index assigns each net the
/// position of its id in ascending id order — the same order
/// [`Quadrant::nets`] iterates and every dense cache in the workspace
/// (range cache, section tracker, exchange driver) already uses — so a
/// dense index resolved here addresses all of them interchangeably.
///
/// Resolution is `O(1)`: a direct raw-id → index table when the id space
/// is reasonably compact (the generators emit `1..=β`), falling back to a
/// branch-predictable binary search over the sorted id list for
/// pathologically sparse hand-written instances, so a stray huge id can
/// never balloon memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetIndex {
    /// Net ids in ascending order; position = dense index.
    ids: Vec<NetId>,
    /// Raw id → dense index ([`NO_INDEX`] = absent); empty when the id
    /// space is too sparse for a direct table.
    direct: Vec<u32>,
}

impl NetIndex {
    /// Builds the index from ids already sorted ascending and unique.
    fn from_sorted_ids(ids: Vec<NetId>) -> Self {
        let max_raw = ids.last().map_or(0, |id| id.raw()) as usize;
        let direct = if max_raw < ids.len().saturating_mul(8) + 1024 {
            let mut direct = vec![NO_INDEX; max_raw + 1];
            for (i, id) in ids.iter().enumerate() {
                direct[id.raw() as usize] = u32::try_from(i).expect("net count fits u32");
            }
            direct
        } else {
            Vec::new()
        };
        Self { ids, direct }
    }

    /// Dense index of `net`, or `None` for an id outside the set.
    #[must_use]
    pub fn get(&self, net: NetId) -> Option<usize> {
        if self.direct.is_empty() {
            return self.ids.binary_search(&net).ok();
        }
        match self.direct.get(net.raw() as usize) {
            Some(&i) if i != NO_INDEX => Some(i as usize),
            _ => None,
        }
    }

    /// The net id at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn id(&self, idx: usize) -> NetId {
        self.ids[idx]
    }

    /// All ids in dense-index (ascending id) order.
    #[must_use]
    pub fn ids(&self) -> &[NetId] {
        &self.ids
    }

    /// Number of interned nets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// One quadrant of the two-layer BGA package (paper Fig. 2): `α` finger
/// slots facing `n` rows of bump balls, planned independently of the other
/// three quadrants.
///
/// Rows are indexed bottom-up: row `1` is farthest from the die, row `n`
/// ("the highest horizontal line") abuts the finger row. Within a row,
/// balls are listed left to right. Each ball carries exactly one net.
///
/// Per-net state lives in dense arrays over the [`NetIndex`] interning
/// layer, built once at construction; keyed `BTreeMap`s appear only at the
/// build/serialization boundary (the builder and the text formats), never
/// on a lookup path.
///
/// Construct with [`Quadrant::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Quadrant {
    /// `rows[0]` is row `y = 1` (bottom).
    rows: Vec<Vec<NetId>>,
    index: NetIndex,
    /// Dense by [`NetIndex`] position.
    nets: Vec<Net>,
    /// Dense by [`NetIndex`] position.
    balls: Vec<BallRef>,
    fingers: usize,
    geometry: QuadrantGeometry,
}

impl Quadrant {
    /// Starts building a quadrant.
    #[must_use]
    pub fn builder() -> QuadrantBuilder {
        QuadrantBuilder::new()
    }

    /// Number of bump-ball rows `n`.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The highest row index (`y = n`), the row adjacent to the fingers.
    ///
    /// # Panics
    ///
    /// Never panics: a built quadrant always has at least one row.
    #[must_use]
    pub fn top_row(&self) -> RowIdx {
        RowIdx::new(u32::try_from(self.rows.len()).expect("row count fits in u32"))
    }

    /// Nets of row `y`, left to right.
    ///
    /// # Panics
    ///
    /// Panics if `y` exceeds [`Quadrant::row_count`]. Accepts either a
    /// [`RowIdx`] or a raw 1-based `u32`.
    #[must_use]
    pub fn row(&self, y: impl Into<RowIdx>) -> &[NetId] {
        &self.rows[y.into().zero_based()]
    }

    /// Iterates rows from the highest (`y = n`) down to the lowest (`y = 1`),
    /// the processing order of the paper's assignment algorithms.
    pub fn rows_top_down(&self) -> impl Iterator<Item = (RowIdx, &[NetId])> {
        (1..=self.rows.len() as u32)
            .rev()
            .map(move |y| (RowIdx::new(y), self.rows[(y - 1) as usize].as_slice()))
    }

    /// Iterates rows from the lowest (`y = 1`) up to the highest.
    pub fn rows_bottom_up(&self) -> impl Iterator<Item = (RowIdx, &[NetId])> {
        (1..=self.rows.len() as u32)
            .map(move |y| (RowIdx::new(y), self.rows[(y - 1) as usize].as_slice()))
    }

    /// Total number of nets β.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of finger slots α (≥ net count).
    #[must_use]
    pub fn finger_count(&self) -> usize {
        self.fingers
    }

    /// Looks up a net by id.
    #[must_use]
    pub fn net(&self, id: NetId) -> Option<&Net> {
        self.index.get(id).map(|i| &self.nets[i])
    }

    /// The dense `NetId → usize` interning of this quadrant's nets.
    ///
    /// Hot-path caches resolve ids through this once at construction and
    /// address each other with the resulting indices.
    #[must_use]
    pub fn net_index(&self) -> &NetIndex {
        &self.index
    }

    /// The net at dense index `idx` (see [`Quadrant::net_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn net_at_index(&self, idx: usize) -> &Net {
        &self.nets[idx]
    }

    /// The ball of the net at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn ball_at_index(&self, idx: usize) -> BallRef {
        self.balls[idx]
    }

    /// Iterates all nets in id order.
    pub fn nets(&self) -> impl Iterator<Item = &Net> {
        self.nets.iter()
    }

    /// Net ids of a given kind, in id order.
    pub fn nets_of_kind(&self, kind: NetKind) -> impl Iterator<Item = NetId> + '_ {
        self.nets
            .iter()
            .filter(move |n| n.kind == kind)
            .map(|n| n.id)
    }

    /// The bump ball a net terminates on.
    #[must_use]
    pub fn ball_of(&self, net: NetId) -> Option<BallRef> {
        self.index.get(net).map(|i| self.balls[i])
    }

    /// Physical parameters of this quadrant.
    #[must_use]
    pub fn geometry(&self) -> &QuadrantGeometry {
        &self.geometry
    }

    /// Centre of the ball at `(row, col)`. Rows are centred horizontally so
    /// that a triangular quadrant (wider rows at the bottom) is symmetric.
    ///
    /// # Panics
    ///
    /// Panics if the row or column does not exist.
    #[must_use]
    pub fn ball_center(&self, row: RowIdx, col: u32) -> Point {
        let m = self.rows[row.zero_based()].len() as f64;
        assert!(col >= 1 && f64::from(col) <= m, "ball column out of range");
        let p = self.geometry.ball_pitch;
        Point::new(
            (f64::from(col) - (m + 1.0) / 2.0) * p,
            f64::from(row.get()) * p,
        )
    }

    /// Number of candidate via sites on the horizontal line of `row`:
    /// one at the bottom-left of each ball plus one at the right end
    /// (the paper's "Total Via Number" = balls + 1; see DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics if the row does not exist.
    #[must_use]
    pub fn via_site_count(&self, row: RowIdx) -> usize {
        self.rows[row.zero_based()].len() + 1
    }

    /// x-coordinate of via site `s ∈ 1..=m+1` on `row`'s line: site `s ≤ m`
    /// sits half a pitch left of ball `s`; site `m + 1` sits half a pitch
    /// right of the last ball.
    ///
    /// # Panics
    ///
    /// Panics if the row does not exist or `s` is outside `1..=m+1`.
    #[must_use]
    pub fn via_site_x(&self, row: RowIdx, s: u32) -> f64 {
        let m = self.rows[row.zero_based()].len() as u32;
        assert!((1..=m + 1).contains(&s), "via site out of range");
        let half = self.geometry.ball_pitch / 2.0;
        if s <= m {
            self.ball_center(row, s).x - half
        } else {
            self.ball_center(row, m).x + half
        }
    }

    /// Via location of `net`: the bottom-left corner of its bump ball
    /// (paper §3.1 fixes the connected via there).
    ///
    /// # Panics
    ///
    /// Panics if the net is not in this quadrant.
    #[must_use]
    pub fn via_of(&self, net: NetId) -> Point {
        let ball = self.ball_of(net).expect("net not in quadrant");
        Point::new(self.via_site_x(ball.row, ball.col), self.line_y(ball.row))
    }

    /// y-coordinate of `row`'s horizontal grid line.
    #[must_use]
    pub fn line_y(&self, row: RowIdx) -> f64 {
        f64::from(row.get()) * self.geometry.ball_pitch
    }

    /// y-coordinate of the finger row (one ball pitch above the top ball
    /// row).
    #[must_use]
    pub fn finger_line_y(&self) -> f64 {
        (self.rows.len() as f64 + 1.0) * self.geometry.ball_pitch
    }

    /// Centre of finger slot `a` (fingers are centred over the ball grid).
    ///
    /// # Panics
    ///
    /// Panics if `a` exceeds [`Quadrant::finger_count`].
    #[must_use]
    pub fn finger_center(&self, a: FingerIdx) -> Point {
        assert!(a.zero_based() < self.fingers, "finger index out of range");
        let alpha = self.fingers as f64;
        Point::new(
            (f64::from(a.get()) - (alpha + 1.0) / 2.0) * self.geometry.finger_pitch,
            self.finger_line_y(),
        )
    }

    /// [`Quadrant::finger_center`] for a slot that may lie beyond the
    /// quadrant's fingers, as a slot of a wider assignment can.
    ///
    /// # Errors
    ///
    /// [`GeomError::SlotOutOfRange`] if `a` exceeds
    /// [`Quadrant::finger_count`].
    pub fn checked_finger_center(&self, a: FingerIdx) -> Result<Point, GeomError> {
        let (slot, fingers) = (a.zero_based(), self.fingers);
        if slot >= fingers {
            return Err(GeomError::SlotOutOfRange { slot, fingers });
        }
        Ok(self.finger_center(a))
    }
}

/// Builder for [`Quadrant`]; see [`Quadrant::builder`].
///
/// Rows are added bottom-up: the first [`QuadrantBuilder::row`] call defines
/// row `y = 1`, the last the highest row. Net kinds and tiers default to
/// [`NetKind::Signal`] on [`TierId::BASE`] and can be overridden per net.
#[derive(Debug, Clone, Default)]
pub struct QuadrantBuilder {
    rows: Vec<Vec<NetId>>,
    kinds: BTreeMap<NetId, NetKind>,
    tiers: BTreeMap<NetId, TierId>,
    fingers: Option<usize>,
    geometry: QuadrantGeometry,
}

impl QuadrantBuilder {
    /// Creates an empty builder with default geometry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one ball row (bottom-up); items are net ids left to right.
    #[must_use]
    pub fn row<I, T>(mut self, nets: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<NetId>,
    {
        self.rows.push(nets.into_iter().map(Into::into).collect());
        self
    }

    /// Overrides the electrical kind of one net.
    #[must_use]
    pub fn net_kind(mut self, net: impl Into<NetId>, kind: NetKind) -> Self {
        self.kinds.insert(net.into(), kind);
        self
    }

    /// Places one net's die-side pad on a stacking tier.
    #[must_use]
    pub fn net_tier(mut self, net: impl Into<NetId>, tier: TierId) -> Self {
        self.tiers.insert(net.into(), tier);
        self
    }

    /// Sets the number of finger slots α (default: one per net).
    #[must_use]
    pub fn fingers(mut self, fingers: usize) -> Self {
        self.fingers = Some(fingers);
        self
    }

    /// Sets the physical parameters.
    #[must_use]
    pub fn geometry(mut self, geometry: QuadrantGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Validates and builds the quadrant.
    ///
    /// # Errors
    ///
    /// * [`GeomError::NoRows`] if no row was added.
    /// * [`GeomError::EmptyRow`] if a row has no balls.
    /// * [`GeomError::DuplicateNet`] if a net id appears on two balls.
    /// * [`GeomError::UnknownNet`] if a kind/tier override names a net that
    ///   is on no ball.
    /// * [`GeomError::TooFewFingers`] if `fingers` < net count.
    /// * [`GeomError::InvalidGeometry`] for non-positive parameters.
    pub fn build(self) -> Result<Quadrant, GeomError> {
        if self.rows.is_empty() {
            return Err(GeomError::NoRows);
        }
        self.geometry.validate()?;
        let mut nets = BTreeMap::new();
        let mut balls = BTreeMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            let y = RowIdx::new(i as u32 + 1);
            if row.is_empty() {
                return Err(GeomError::EmptyRow { row: y.get() });
            }
            for (j, &net) in row.iter().enumerate() {
                let ball = BallRef::new(net, y, j as u32 + 1);
                if balls.insert(net, ball).is_some() {
                    return Err(GeomError::DuplicateNet { net });
                }
                let kind = self.kinds.get(&net).copied().unwrap_or_default();
                let tier = self.tiers.get(&net).copied().unwrap_or(TierId::BASE);
                nets.insert(net, Net::new(net, kind, tier));
            }
        }
        for net in self.kinds.keys().chain(self.tiers.keys()) {
            if !balls.contains_key(net) {
                return Err(GeomError::UnknownNet { net: *net });
            }
        }
        let fingers = self.fingers.unwrap_or(nets.len());
        if fingers < nets.len() {
            return Err(GeomError::TooFewFingers {
                fingers,
                nets: nets.len(),
            });
        }
        // Flatten the keyed build-time maps into the dense interned form;
        // BTreeMap iteration is ascending, so position == dense index.
        let index = NetIndex::from_sorted_ids(nets.keys().copied().collect());
        let dense_balls = nets.keys().map(|id| balls[id]).collect();
        let dense_nets = nets.into_values().collect();
        Ok(Quadrant {
            rows: self.rows,
            index,
            nets: dense_nets,
            balls: dense_balls,
            fingers,
            geometry: self.geometry,
        })
    }
}

impl From<u32> for RowIdx {
    fn from(y: u32) -> Self {
        Self::new(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 12-net instance of the paper's Fig. 5 used throughout the tests.
    fn fig5() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .build()
            .unwrap()
    }

    #[test]
    fn fig5_structure_matches_paper() {
        let q = fig5();
        assert_eq!(q.net_count(), 12);
        assert_eq!(q.finger_count(), 12);
        assert_eq!(q.row_count(), 3);
        assert_eq!(q.top_row(), RowIdx::new(3));
        assert_eq!(q.row(3u32), &[NetId::new(11), NetId::new(6), NetId::new(9)]);
    }

    #[test]
    fn rows_top_down_starts_at_highest_line() {
        let q = fig5();
        let ys: Vec<u32> = q.rows_top_down().map(|(y, _)| y.get()).collect();
        assert_eq!(ys, vec![3, 2, 1]);
        let ys: Vec<u32> = q.rows_bottom_up().map(|(y, _)| y.get()).collect();
        assert_eq!(ys, vec![1, 2, 3]);
    }

    #[test]
    fn ball_of_locates_nets() {
        let q = fig5();
        let b = q.ball_of(NetId::new(6)).unwrap();
        assert_eq!(b.row.get(), 3);
        assert_eq!(b.col, 2);
        assert!(q.ball_of(NetId::new(99)).is_none());
    }

    #[test]
    fn rows_are_horizontally_centred() {
        let q = fig5();
        // Row 3 has 3 balls: middle ball at x = 0.
        assert!(q.ball_center(RowIdx::new(3), 2).x.abs() < 1e-12);
        // Row 2 has 4 balls: symmetric about 0.
        let l = q.ball_center(RowIdx::new(2), 1).x;
        let r = q.ball_center(RowIdx::new(2), 4).x;
        assert!((l + r).abs() < 1e-12);
    }

    #[test]
    fn via_sites_are_balls_plus_one() {
        let q = fig5();
        assert_eq!(q.via_site_count(RowIdx::new(3)), 4);
        assert_eq!(q.via_site_count(RowIdx::new(1)), 6);
        // Site s is left of ball s; the last site is right of the last ball.
        let row = RowIdx::new(3);
        assert!(q.via_site_x(row, 1) < q.ball_center(row, 1).x);
        assert!(q.via_site_x(row, 4) > q.ball_center(row, 3).x);
        // Sites are strictly increasing.
        for s in 1..4 {
            assert!(q.via_site_x(row, s) < q.via_site_x(row, s + 1));
        }
    }

    #[test]
    fn via_of_is_bottom_left_of_ball() {
        let q = fig5();
        let b = q.ball_of(NetId::new(6)).unwrap();
        let via = q.via_of(NetId::new(6));
        let ball = q.ball_center(b.row, b.col);
        assert!(via.x < ball.x);
        assert_eq!(via.y, q.line_y(b.row));
    }

    #[test]
    fn finger_line_sits_above_top_row() {
        let q = fig5();
        assert!(q.finger_line_y() > q.line_y(q.top_row()));
        let f1 = q.finger_center(FingerIdx::new(1));
        let f12 = q.finger_center(FingerIdx::new(12));
        assert!((f1.x + f12.x).abs() < 1e-9, "finger row is centred");
        assert!(f1.x < f12.x);
    }

    #[test]
    fn builder_rejects_duplicate_nets() {
        let err = Quadrant::builder()
            .row([1u32, 2])
            .row([2u32])
            .build()
            .unwrap_err();
        assert_eq!(err, GeomError::DuplicateNet { net: NetId::new(2) });
    }

    #[test]
    fn builder_rejects_empty_inputs() {
        assert_eq!(Quadrant::builder().build().unwrap_err(), GeomError::NoRows);
        assert_eq!(
            Quadrant::builder()
                .row(Vec::<NetId>::new())
                .build()
                .unwrap_err(),
            GeomError::EmptyRow { row: 1 }
        );
    }

    #[test]
    fn builder_rejects_unknown_overrides() {
        let err = Quadrant::builder()
            .row([1u32])
            .net_kind(5u32, NetKind::Power)
            .build()
            .unwrap_err();
        assert_eq!(err, GeomError::UnknownNet { net: NetId::new(5) });
    }

    #[test]
    fn builder_rejects_too_few_fingers() {
        let err = Quadrant::builder()
            .row([1u32, 2, 3])
            .fingers(2)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            GeomError::TooFewFingers {
                fingers: 2,
                nets: 3
            }
        );
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        let geometry = QuadrantGeometry {
            ball_pitch: 0.0,
            ..QuadrantGeometry::default()
        };
        let err = Quadrant::builder()
            .row([1u32])
            .geometry(geometry)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            GeomError::InvalidGeometry {
                parameter: "ball_pitch"
            }
        );
    }

    #[test]
    fn net_index_interns_ids_in_quadrant_order() {
        let q = fig5();
        let index = q.net_index();
        assert_eq!(index.len(), 12);
        assert!(!index.is_empty());
        for (i, net) in q.nets().enumerate() {
            assert_eq!(index.get(net.id), Some(i), "net {}", net.id.raw());
            assert_eq!(index.id(i), net.id);
            assert_eq!(q.net_at_index(i).id, net.id);
            assert_eq!(q.ball_at_index(i), q.ball_of(net.id).unwrap());
        }
        assert_eq!(index.get(NetId::new(99)), None);
        assert_eq!(index.ids().len(), 12);
    }

    #[test]
    fn sparse_id_spaces_fall_back_to_search() {
        // Ids far apart force the binary-search representation; lookups
        // must behave identically.
        let q = Quadrant::builder()
            .row([7u32, 4_000_000_000, 123_456])
            .build()
            .unwrap();
        let index = q.net_index();
        assert_eq!(index.get(NetId::new(7)), Some(0));
        assert_eq!(index.get(NetId::new(123_456)), Some(1));
        assert_eq!(index.get(NetId::new(4_000_000_000)), Some(2));
        assert_eq!(index.get(NetId::new(8)), None);
        assert!(q.net(NetId::new(4_000_000_000)).is_some());
    }

    #[test]
    fn net_overrides_apply() {
        let q = Quadrant::builder()
            .row([1u32, 2])
            .net_kind(1u32, NetKind::Power)
            .net_tier(2u32, TierId::new(2))
            .build()
            .unwrap();
        assert_eq!(q.net(NetId::new(1)).unwrap().kind, NetKind::Power);
        assert_eq!(q.net(NetId::new(2)).unwrap().tier, TierId::new(2));
        let power: Vec<NetId> = q.nets_of_kind(NetKind::Power).collect();
        assert_eq!(power, vec![NetId::new(1)]);
    }
}
