//! Instance deltas — the ECO edit vocabulary of `copack replan`.
//!
//! A real co-design flow iterates: a handful of nets are added, removed
//! or retyped and the plan must be refreshed. Re-running every quadrant
//! from scratch wastes almost all of that work, so the replan path
//! describes the change as data: a [`QuadrantDelta`] is an ordered list
//! of [`Edit`]s against one quadrant, and an [`InstanceDelta`] groups
//! them per named quadrant so untouched quadrants can be classified
//! clean and served from cache.
//!
//! The contract that makes deltas trustworthy is **round-trip
//! exactness**: for any two quadrants `a` and `b`,
//! `apply_delta(a, &diff_quadrant(a, b)) == b` — bit for bit, including
//! geometry, the explicit-vs-default finger count, and every per-net
//! kind/tier override. `diff_quadrant(a, a)` is always the empty delta,
//! which is what lets replan prove "nothing changed" and return the
//! previous plan verbatim. Both properties are tested here and
//! property-tested over generated instance pairs in `tests/delta.rs`.

use std::collections::BTreeMap;

use copack_geom::{NetId, NetKind, Quadrant, QuadrantGeometry, TierId};

use crate::CoreError;

/// One edit against a quadrant. Edits apply in order; later edits see
/// the effect of earlier ones.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Replace the physical parameters.
    Geometry(QuadrantGeometry),
    /// Pin the finger count explicitly (without this edit, the count
    /// follows the format's default: one finger per net after all
    /// edits, unless the base quadrant already pinned it).
    Fingers(usize),
    /// Replace ball row `y` (1-based, bottom-up) wholesale; `y` one
    /// past the current last row appends a new row.
    Row {
        /// 1-based row index.
        y: u32,
        /// The row's nets, left to right.
        nets: Vec<NetId>,
    },
    /// Keep only the first `n` ball rows.
    Truncate(u32),
    /// Insert one net into an existing row.
    Add {
        /// The new net.
        net: NetId,
        /// 1-based row to insert into.
        row: u32,
        /// 0-based insertion position within the row.
        at: u32,
    },
    /// Remove one net from whichever row holds it (the row itself is
    /// dropped if it empties).
    Remove(NetId),
    /// Change a net's electrical kind.
    Retype {
        /// The net to retype.
        net: NetId,
        /// Its new kind.
        kind: NetKind,
    },
    /// Move a net's die-side pad to a stacking tier.
    Tier {
        /// The net to move.
        net: NetId,
        /// Its new tier.
        tier: TierId,
    },
}

/// An ordered edit list against one quadrant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuadrantDelta {
    /// The edits, applied first to last.
    pub edits: Vec<Edit>,
}

impl QuadrantDelta {
    /// Whether this delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Whether applying this delta to `base` leaves it unchanged —
    /// either no edits at all, or edits that cancel out (an ECO drafted,
    /// backed out, and still resubmitted). Replan paths use this to
    /// return the previous plan verbatim instead of repairing and
    /// re-annealing a quadrant that did not actually change.
    ///
    /// # Errors
    ///
    /// Propagates [`apply_delta`]'s errors for edits that cannot be
    /// interpreted against `base`.
    pub fn is_noop_for(&self, base: &Quadrant) -> Result<bool, CoreError> {
        if self.is_empty() {
            return Ok(true);
        }
        let before = Parts::of(base);
        let mut after = before.clone();
        for edit in &self.edits {
            after.apply(edit)?;
        }
        if after.rows == before.rows {
            // The same nets survive, and the builder ignores overrides on
            // absent nets. Parts equal to `base`'s own rebuild `base`
            // exactly (round-trip exactness), so the common backed-out
            // ECO needs no rebuild.
            after.kinds.retain(|&net, _| base.net(net).is_some());
            after.tiers.retain(|&net, _| base.net(net).is_some());
        }
        Ok(after == before || after.build()? == *base)
    }
}

/// Per-quadrant deltas of one planning instance, keyed by quadrant
/// name. Quadrants absent from the list are untouched by definition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InstanceDelta {
    /// `(quadrant name, delta)` pairs.
    pub quadrants: Vec<(String, QuadrantDelta)>,
}

impl InstanceDelta {
    /// Whether no quadrant is edited at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.quadrants.iter().all(|(_, d)| d.is_empty())
    }

    /// The delta for `name`, if one is listed.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&QuadrantDelta> {
        self.quadrants
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d)
    }

    /// Names of the quadrants this delta actually touches — the dirty
    /// set the replanner must recompute; everything else is reusable.
    pub fn dirty(&self) -> impl Iterator<Item = &str> {
        self.quadrants
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(n, _)| n.as_str())
    }

    /// Whether `name`'s plan can be reused verbatim.
    #[must_use]
    pub fn is_clean(&self, name: &str) -> bool {
        // `Option::is_none_or` postdates the MSRV.
        self.get(name).map_or(true, QuadrantDelta::is_empty)
    }
}

/// Computes the minimal-vocabulary delta turning `a` into `b`:
/// `apply_delta(a, &diff_quadrant(a, b)) == b` exactly, and
/// `diff_quadrant(a, a)` is empty.
///
/// Structural changes come out as whole-row rewrites (plus a truncate
/// when rows disappear); kind/tier changes as per-net edits relative to
/// what a surviving net inherits from `a` (new nets inherit the
/// defaults: signal, base tier). A `Fingers` edit appears only when the
/// inherited finger-count rule would land on the wrong value.
#[must_use]
pub fn diff_quadrant(a: &Quadrant, b: &Quadrant) -> QuadrantDelta {
    let mut edits = Vec::new();
    if a.geometry() != b.geometry() {
        edits.push(Edit::Geometry(*b.geometry()));
    }
    for (y, nets) in b.rows_bottom_up() {
        let differs = y.zero_based() >= a.row_count() || a.row(y) != nets;
        if differs {
            edits.push(Edit::Row {
                y: y.get(),
                nets: nets.to_vec(),
            });
        }
    }
    if b.row_count() < a.row_count() {
        edits.push(Edit::Truncate(b.row_count() as u32));
    }
    for net in b.nets() {
        let (kind0, tier0) = match a.net(net.id) {
            Some(old) => (old.kind, old.tier),
            None => (NetKind::Signal, TierId::BASE),
        };
        if net.kind != kind0 {
            edits.push(Edit::Retype {
                net: net.id,
                kind: net.kind,
            });
        }
        if net.tier != tier0 {
            edits.push(Edit::Tier {
                net: net.id,
                tier: net.tier,
            });
        }
    }
    // The finger count `apply_delta` would land on without help: `a`'s
    // pinned count if it has one, else one per (post-edit) net.
    let inherited = if a.finger_count() != a.net_count() {
        a.finger_count()
    } else {
        b.net_count()
    };
    if inherited != b.finger_count() {
        edits.push(Edit::Fingers(b.finger_count()));
    }
    QuadrantDelta { edits }
}

/// A non-empty delta that provably changes nothing: the edits turning
/// `a` into `b` followed by the edits turning `b` back into `a`. This is
/// the test/bench vocabulary for the "empty-but-resubmitted" replan
/// case — a delta whose edit list is non-trivial but whose net effect
/// is zero, which [`QuadrantDelta::is_noop_for`] must detect so the
/// replanner can skip repair entirely. Returns the empty delta when
/// `a == b` (there is nothing to cancel).
#[must_use]
pub fn cancelling_delta(a: &Quadrant, b: &Quadrant) -> QuadrantDelta {
    let mut edits = diff_quadrant(a, b).edits;
    edits.extend(diff_quadrant(b, a).edits);
    QuadrantDelta { edits }
}

/// Applies `delta` to `base`, rebuilding the quadrant through the
/// normal builder so every model invariant is re-validated.
///
/// Surviving nets keep `base`'s kind/tier unless an edit changes them;
/// kind/tier edits for nets absent after the structural edits are
/// ignored (the edit may legitimately target a net its own `Remove`
/// dropped). The finger count follows `base`'s pinned count if it had
/// one (else one per net), unless a [`Edit::Fingers`] pins it anew.
///
/// # Errors
///
/// * [`CoreError::BadDelta`] for edits that cannot be interpreted
///   (row-index gaps, inserts past a row's end, removing an absent
///   net).
/// * [`CoreError::Geom`] when the edited model is invalid (duplicate
///   nets, empty instance, too few fingers, bad geometry).
pub fn apply_delta(base: &Quadrant, delta: &QuadrantDelta) -> Result<Quadrant, CoreError> {
    let mut parts = Parts::of(base);
    for edit in &delta.edits {
        parts.apply(edit)?;
    }
    parts.build()
}

/// A quadrant taken apart into what its builder consumes: the ball rows,
/// the kind and tier overrides, the geometry and a pinned finger count.
/// Edits replay on the parts; [`Parts::build`] re-validates the result.
#[derive(Clone, PartialEq)]
struct Parts {
    rows: Vec<Vec<NetId>>,
    kinds: BTreeMap<NetId, NetKind>,
    tiers: BTreeMap<NetId, TierId>,
    geometry: QuadrantGeometry,
    fingers: Option<usize>,
}

impl Parts {
    fn of(base: &Quadrant) -> Self {
        let mut kinds = BTreeMap::new();
        let mut tiers = BTreeMap::new();
        for net in base.nets() {
            if net.kind != NetKind::Signal {
                kinds.insert(net.id, net.kind);
            }
            if net.tier != TierId::BASE {
                tiers.insert(net.id, net.tier);
            }
        }
        Self {
            rows: base.rows_bottom_up().map(|(_, r)| r.to_vec()).collect(),
            kinds,
            tiers,
            geometry: *base.geometry(),
            fingers: (base.finger_count() != base.net_count()).then_some(base.finger_count()),
        }
    }

    fn apply(&mut self, edit: &Edit) -> Result<(), CoreError> {
        let rows = &mut self.rows;
        match edit {
            Edit::Geometry(g) => self.geometry = *g,
            Edit::Fingers(f) => self.fingers = Some(*f),
            Edit::Row { y, nets } => {
                let i = *y as usize;
                if i == 0 {
                    return Err(CoreError::BadDelta {
                        reason: "row indices are 1-based",
                    });
                }
                if i <= rows.len() {
                    rows[i - 1] = nets.clone();
                } else if i == rows.len() + 1 {
                    rows.push(nets.clone());
                } else {
                    return Err(CoreError::BadDelta {
                        reason: "row edit skips past the last row",
                    });
                }
            }
            Edit::Truncate(n) => rows.truncate(*n as usize),
            Edit::Add { net, row, at } => {
                let i = *row as usize;
                if i == 0 || i > rows.len() {
                    return Err(CoreError::BadDelta {
                        reason: "add targets a missing row",
                    });
                }
                let r = &mut rows[i - 1];
                if *at as usize > r.len() {
                    return Err(CoreError::BadDelta {
                        reason: "add position is past the row's end",
                    });
                }
                r.insert(*at as usize, *net);
            }
            Edit::Remove(net) => {
                let mut found = false;
                for r in rows.iter_mut() {
                    if let Some(i) = r.iter().position(|n| n == net) {
                        r.remove(i);
                        found = true;
                        break;
                    }
                }
                if !found {
                    return Err(CoreError::BadDelta {
                        reason: "removed net is not in the quadrant",
                    });
                }
                rows.retain(|r| !r.is_empty());
            }
            Edit::Retype { net, kind } => {
                if *kind == NetKind::Signal {
                    self.kinds.remove(net);
                } else {
                    self.kinds.insert(*net, *kind);
                }
            }
            Edit::Tier { net, tier } => {
                if *tier == TierId::BASE {
                    self.tiers.remove(net);
                } else {
                    self.tiers.insert(*net, *tier);
                }
            }
        }
        Ok(())
    }

    fn build(self) -> Result<Quadrant, CoreError> {
        let present: std::collections::BTreeSet<NetId> =
            self.rows.iter().flatten().copied().collect();
        let mut builder = Quadrant::builder().geometry(self.geometry);
        for row in self.rows {
            builder = builder.row(row);
        }
        if let Some(f) = self.fingers {
            builder = builder.fingers(f);
        }
        for (net, kind) in self.kinds {
            if present.contains(&net) {
                builder = builder.net_kind(net, kind);
            }
        }
        for (net, tier) in self.tiers {
            if present.contains(&net) {
                builder = builder.net_tier(net, tier);
            }
        }
        builder.build().map_err(CoreError::Geom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_tier(3u32, TierId::new(2))
            .build()
            .unwrap()
    }

    #[test]
    fn diff_of_identical_quadrants_is_empty() {
        let a = base();
        let d = diff_quadrant(&a, &a);
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(apply_delta(&a, &d).unwrap(), a);
    }

    #[test]
    fn cancelling_edits_are_noop_but_not_empty() {
        let a = base();
        // A realistic backed-out ECO: add a net, retype one, then revert
        // both — expressed through the round-trip composition.
        let b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8, 12])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Ground)
            .net_tier(3u32, TierId::new(2))
            .build()
            .unwrap();
        let d = cancelling_delta(&a, &b);
        assert!(!d.is_empty(), "{d:?}");
        assert!(d.is_noop_for(&a).unwrap());
        assert_eq!(apply_delta(&a, &d).unwrap(), a);
        // The same edit list against the *other* endpoint is not a noop.
        assert!(!diff_quadrant(&a, &b).is_noop_for(&a).unwrap());
        // And identical endpoints cancel to the empty delta.
        assert!(cancelling_delta(&a, &a).is_empty());
    }

    #[test]
    fn empty_delta_is_noop_without_applying() {
        let a = base();
        assert!(QuadrantDelta::default().is_noop_for(&a).unwrap());
    }

    #[test]
    fn the_noop_check_reads_overrides_like_a_rebuild() {
        let a = base();
        let retype = |net: u32| QuadrantDelta {
            edits: vec![Edit::Retype {
                net: NetId::new(net),
                kind: NetKind::Power,
            }],
        };
        // Retyping a present net changes the quadrant; the rebuild
        // ignores an override on an absent net.
        assert!(!retype(2).is_noop_for(&a).unwrap());
        assert!(retype(42).is_noop_for(&a).unwrap());
        assert_eq!(apply_delta(&a, &retype(42)).unwrap(), a);
    }

    #[test]
    fn diff_apply_round_trips_structural_edits() {
        let a = base();
        // Add a net, drop one, retype one, move one to a tier, change
        // the finger count and the geometry — every edit class at once.
        let b = Quadrant::builder()
            .row([10u32, 2, 4, 7])
            .row([1u32, 3, 5, 8, 12])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(12u32, NetKind::Ground)
            .net_tier(3u32, TierId::new(2))
            .net_tier(6u32, TierId::new(3))
            .fingers(14)
            .geometry(QuadrantGeometry {
                ball_pitch: 2.0,
                ..QuadrantGeometry::default()
            })
            .build()
            .unwrap();
        let d = diff_quadrant(&a, &b);
        assert!(!d.is_empty());
        assert_eq!(apply_delta(&a, &d).unwrap(), b);
        // And the reverse direction round-trips too.
        let back = diff_quadrant(&b, &a);
        assert_eq!(apply_delta(&b, &back).unwrap(), a);
    }

    #[test]
    fn diff_handles_row_count_changes() {
        let a = base();
        let shrunk = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .net_tier(3u32, TierId::new(2))
            .build()
            .unwrap();
        let d = diff_quadrant(&a, &shrunk);
        assert_eq!(apply_delta(&a, &d).unwrap(), shrunk);
        let grown = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .row([20u32, 21])
            .net_kind(10u32, NetKind::Power)
            .net_tier(3u32, TierId::new(2))
            .build()
            .unwrap();
        let d = diff_quadrant(&a, &grown);
        assert_eq!(apply_delta(&a, &d).unwrap(), grown);
    }

    #[test]
    fn incremental_edits_apply_in_order() {
        let a = base();
        let d = QuadrantDelta {
            edits: vec![
                Edit::Add {
                    net: NetId::new(42),
                    row: 2,
                    at: 0,
                },
                Edit::Remove(NetId::new(0)),
                Edit::Retype {
                    net: NetId::new(42),
                    kind: NetKind::Power,
                },
            ],
        };
        let b = apply_delta(&a, &d).unwrap();
        assert_eq!(b.net_count(), a.net_count()); // one added, one removed
        assert_eq!(b.row(2u32)[0], NetId::new(42));
        assert!(b.net(NetId::new(0)).is_none());
        assert_eq!(b.net(NetId::new(42)).unwrap().kind, NetKind::Power);
        // Default finger rule: one per net after the edits.
        assert_eq!(b.finger_count(), b.net_count());
    }

    #[test]
    fn removing_the_last_net_of_a_row_drops_the_row() {
        let q = Quadrant::builder()
            .row([1u32, 2])
            .row([3u32])
            .row([4u32, 5])
            .build()
            .unwrap();
        let d = QuadrantDelta {
            edits: vec![Edit::Remove(NetId::new(3))],
        };
        let b = apply_delta(&q, &d).unwrap();
        assert_eq!(b.row_count(), 2);
        assert_eq!(b.row(2u32), &[NetId::new(4), NetId::new(5)]);
    }

    #[test]
    fn retype_edits_for_dropped_nets_are_ignored() {
        let a = base();
        let d = QuadrantDelta {
            edits: vec![
                Edit::Remove(NetId::new(0)),
                Edit::Retype {
                    net: NetId::new(0),
                    kind: NetKind::Power,
                },
            ],
        };
        let b = apply_delta(&a, &d).unwrap();
        assert!(b.net(NetId::new(0)).is_none());
    }

    #[test]
    fn bad_edits_are_typed_errors() {
        let a = base();
        for (edits, needle) in [
            (
                vec![Edit::Row {
                    y: 9,
                    nets: vec![NetId::new(50)],
                }],
                "skips",
            ),
            (
                vec![Edit::Add {
                    net: NetId::new(50),
                    row: 7,
                    at: 0,
                }],
                "missing row",
            ),
            (
                vec![Edit::Add {
                    net: NetId::new(50),
                    row: 1,
                    at: 99,
                }],
                "past the row's end",
            ),
            (vec![Edit::Remove(NetId::new(77))], "not in the quadrant"),
        ] {
            let err = apply_delta(&a, &QuadrantDelta { edits }).unwrap_err();
            assert!(
                matches!(err, CoreError::BadDelta { reason } if reason.contains(needle)),
                "{err}"
            );
        }
        // Duplicate nets surface as the builder's model error.
        let dup = QuadrantDelta {
            edits: vec![Edit::Add {
                net: NetId::new(9),
                row: 1,
                at: 0,
            }],
        };
        assert!(matches!(
            apply_delta(&a, &dup).unwrap_err(),
            CoreError::Geom(_)
        ));
    }

    #[test]
    fn explicit_finger_counts_are_inherited() {
        let a = Quadrant::builder()
            .row([1u32, 2, 3])
            .fingers(5)
            .build()
            .unwrap();
        // No edits: the pinned count carries over.
        let b = apply_delta(&a, &QuadrantDelta::default()).unwrap();
        assert_eq!(b.finger_count(), 5);
        // diff against a default-count target must emit a Fingers edit.
        let c = Quadrant::builder().row([1u32, 2, 3]).build().unwrap();
        let d = diff_quadrant(&a, &c);
        assert_eq!(apply_delta(&a, &d).unwrap(), c);
    }

    #[test]
    fn instance_delta_classifies_dirty_quadrants() {
        let a = base();
        let mut b_rows = vec![
            vec![10u32, 2, 4, 7, 0],
            vec![1u32, 3, 5, 8],
            vec![11u32, 6, 9, 13],
        ];
        b_rows[2].push(14);
        let b = {
            let mut builder = Quadrant::builder();
            for r in &b_rows {
                builder = builder.row(r.clone());
            }
            builder
                .net_kind(10u32, NetKind::Power)
                .net_tier(3u32, TierId::new(2))
                .build()
                .unwrap()
        };
        let delta = InstanceDelta {
            quadrants: vec![
                ("q1".to_owned(), diff_quadrant(&a, &a)),
                ("q2".to_owned(), diff_quadrant(&a, &b)),
            ],
        };
        assert!(!delta.is_empty());
        assert_eq!(delta.dirty().collect::<Vec<_>>(), vec!["q2"]);
        assert!(delta.is_clean("q1"));
        assert!(delta.is_clean("unlisted"));
        assert!(!delta.is_clean("q2"));
        assert!(delta.get("q2").is_some());
        assert!(InstanceDelta::default().is_empty());
    }
}
