//! Ball-row size partitioning.

/// How ball rows are sized across a quadrant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowProfile {
    /// +2 balls per row towards the package edge: the 45° diagonal cut of
    /// a uniform grid (the Table 1 circuits; the default).
    #[default]
    Step2,
    /// +1 ball per row: the gentler profile of the paper's Fig. 5 toy.
    Step1,
    /// Equal rows: the "two-level BGA" regime IFA was designed for.
    Equal,
}

/// [`row_sizes`] under an explicit [`RowProfile`]. Falls back to smaller
/// steps when `nets` cannot support the requested one.
///
/// # Panics
///
/// Panics if `rows` is zero or `nets < rows`.
#[must_use]
pub fn row_sizes_with(nets: usize, rows: usize, profile: RowProfile) -> Vec<usize> {
    assert!(rows > 0, "need at least one row");
    assert!(nets >= rows, "need at least one ball per row");
    let tri = rows * (rows - 1) / 2;
    let wanted = match profile {
        RowProfile::Step2 => 2,
        RowProfile::Step1 => 1,
        RowProfile::Equal => 0,
    };
    let step = (0..=wanted)
        .rev()
        .find(|s| nets >= rows + s * tri)
        .expect("step 0 always fits");
    let base = (nets - step * tri) / rows;
    let mut remainder = nets - step * tri - base * rows;
    let mut sizes: Vec<usize> = (0..rows).map(|r| base + step * (rows - 1 - r)).collect();
    let mut r = 0;
    while remainder > 0 {
        sizes[r] += 1;
        remainder -= 1;
        r = (r + 1) % rows;
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), nets);
    sizes
}

/// Splits `nets` balls over `rows` rows as a 45°-triangle cut of a uniform
/// ball grid: each row towards the package edge has **two more balls** than
/// the row above it (one on each flank), the arithmetic profile produced
/// by the diagonal quadrant cut of the paper's Fig. 2. This profile also
/// back-predicts the paper's Table 2 DFA densities for all five circuits
/// (see EXPERIMENTS.md).
///
/// Returned bottom-up (`result[0]` = row `y = 1`, the widest). Remainders
/// that do not fit the exact arithmetic profile go to the bottom-most rows;
/// when `nets` is too small for the step-2 profile the step degrades
/// gracefully (down to equal rows) so every row keeps at least one ball.
///
/// # Panics
///
/// Panics if `rows` is zero or `nets < rows`.
#[must_use]
pub fn row_sizes(nets: usize, rows: usize) -> Vec<usize> {
    row_sizes_with(nets, rows, RowProfile::Step2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_sum_to_net_count() {
        for nets in [4, 7, 24, 40, 52, 88, 112] {
            let sizes = row_sizes(nets, 4);
            assert_eq!(sizes.iter().sum::<usize>(), nets, "{nets}");
            assert_eq!(sizes.len(), 4);
        }
    }

    #[test]
    fn table1_circuits_follow_the_step2_triangle() {
        // Per-quadrant counts of the five Table 1 circuits.
        assert_eq!(row_sizes(24, 4), vec![9, 7, 5, 3]);
        assert_eq!(row_sizes(40, 4), vec![13, 11, 9, 7]);
        assert_eq!(row_sizes(52, 4), vec![16, 14, 12, 10]);
        assert_eq!(row_sizes(88, 4), vec![25, 23, 21, 19]);
        assert_eq!(row_sizes(112, 4), vec![31, 29, 27, 25]);
    }

    #[test]
    fn profiles_shape_the_rows() {
        assert_eq!(row_sizes_with(12, 3, RowProfile::Step1), vec![5, 4, 3]);
        assert_eq!(row_sizes_with(12, 3, RowProfile::Equal), vec![4, 4, 4]);
        assert_eq!(row_sizes_with(24, 4, RowProfile::Equal), vec![6, 6, 6, 6]);
        // Too few nets for step 2 degrades to step 1, then equal.
        assert_eq!(row_sizes_with(7, 3, RowProfile::Step2), vec![4, 2, 1]);
        assert_eq!(RowProfile::default(), RowProfile::Step2);
    }

    #[test]
    fn twelve_nets_over_three_rows_follow_the_triangle() {
        // Step-2 profile (the Fig. 5 toy uses a gentler +1 profile, but the
        // diagonal cut of a uniform grid grows by one ball per flank).
        assert_eq!(row_sizes(12, 3), vec![6, 4, 2]);
    }

    #[test]
    fn bottom_rows_are_at_least_as_wide() {
        for nets in [8, 24, 40, 88, 112, 7, 9] {
            let sizes = row_sizes(nets, 4);
            for w in sizes.windows(2) {
                assert!(w[0] >= w[1], "{sizes:?}");
            }
        }
    }

    #[test]
    fn every_row_is_nonempty_even_when_tight() {
        for nets in 4..=30 {
            let sizes = row_sizes(nets, 4);
            assert!(sizes.iter().all(|&s| s > 0), "nets={nets}: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), nets);
        }
    }

    #[test]
    fn single_row_takes_everything() {
        assert_eq!(row_sizes(9, 1), vec![9]);
    }

    #[test]
    #[should_panic(expected = "one ball per row")]
    fn too_few_nets_panics() {
        let _ = row_sizes(2, 4);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_panics() {
        let _ = row_sizes(4, 0);
    }
}
