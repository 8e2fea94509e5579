//! A candidate matrix compiled down to what actually varies across it.
//!
//! Smartpick evaluates Equation 1 over a grid of `{nVM, nSL}`
//! configurations whose feature rows differ only in columns that are a
//! function of `nVM`, of `nSL`, or of their sum. A [`Lattice`] records
//! exactly that: the grid's shape (one contiguous `sl` interval per `vm`,
//! rows in vm-major order) and, per feature column, either *uniform* (the
//! same bits in every row) or a non-decreasing value table over one of
//! the three integer axes `vm`, `sl`, `vm + sl`.
//!
//! With that, a tree need not be walked once per row. The set of rows
//! that reach a node is an integer box `lo <= (vm, sl, vm + sl) <= hi`: a
//! split on a uniform column sends the whole box one way, and a split
//! `x[f] <= t` on an axis column is a prefix of that axis — because the
//! table is non-decreasing — so it narrows one bound for each child.
//! Every row lands in exactly one leaf's box, which is why
//! [`crate::forest::RandomForest::predict_lattice_into`] is bit-identical
//! to walking the materialised rows.
//!
//! The tables are read off the very rows the caller would have fed to the
//! batch walk, so a lattice cannot drift from the feature schema: a
//! column that fits neither shape fails [`Lattice::compile`].

use crate::error::MlError;

/// The integer coordinates a row has: `[vm, sl, vm + sl]`.
const AXES: usize = 3;
const VM: usize = 0;
const SL: usize = 1;
const TOTAL: usize = 2;

/// How one feature column varies across the lattice's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    /// The same bits in every row; a request may substitute its own value.
    Uniform,
    /// A function of one axis: the value at coordinate `c` is
    /// `tables[start + (c - root.lo[axis])]`, non-decreasing in `c`.
    Axis { axis: usize, start: usize },
}

/// The rows of one `vm`: `sl_lo..=sl_hi` at consecutive row indices from
/// `row`. An absent `vm` has `sl_lo > sl_hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    sl_lo: i64,
    sl_hi: i64,
    row: usize,
}

/// The rows still reachable at one node of a descent: every row whose
/// `[vm, sl, vm + sl]` lies inside `lo..=hi` on all three axes. Bounds
/// are not propagated through `total = vm + sl`, so a region can be
/// non-empty on each axis and still hold no row: that costs the visit of
/// its subtree and adds nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Region {
    lo: [i64; AXES],
    hi: [i64; AXES],
}

/// Where a split sends the rows of a [`Region`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Route {
    /// Every row passes the test: the region goes left whole.
    Left,
    /// Every row fails it: the region goes right whole.
    Right,
    /// The region divides into these `(left, right)` parts.
    Both(Region, Region),
}

/// A candidate matrix in compiled form — see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Lattice {
    n_rows: usize,
    /// The whole grid's bounding box (empty for a zero-row lattice).
    root: Region,
    /// Indexed by `vm - root.lo[VM]`.
    spans: Vec<Span>,
    /// One entry per feature column.
    columns: Vec<Column>,
    /// Every axis column's value table, back to back.
    tables: Vec<f64>,
    /// Row 0's values: what a uniform column holds unless overridden.
    base: Vec<f64>,
}

impl Lattice {
    /// Compiles `coords.len()` rows of `n_features` columns (`rows`,
    /// row-major), where row *i* is the feature row of configuration
    /// `coords[i] = (vm, sl)`.
    ///
    /// # Errors
    ///
    /// [`MlError::DimensionMismatch`] when `rows` is not
    /// `coords.len() × n_features`; [`MlError::InvalidParameter`] when
    /// `coords` is not in strict vm-major order with consecutive `sl`
    /// per `vm`, or spans coordinates far sparser than its row count;
    /// [`MlError::NonAxisColumn`] naming the first column that is neither
    /// uniform nor a non-decreasing function of `vm`, `sl` or `vm + sl`.
    pub fn compile(
        coords: &[(u32, u32)],
        rows: &[f64],
        n_features: usize,
    ) -> Result<Lattice, MlError> {
        if rows.len() != coords.len() * n_features {
            return Err(MlError::DimensionMismatch {
                expected: coords.len() * n_features,
                actual: rows.len(),
            });
        }
        let points: Vec<[i64; AXES]> = coords
            .iter()
            .map(|&(vm, sl)| {
                let (vm, sl) = (i64::from(vm), i64::from(sl));
                [vm, sl, vm + sl]
            })
            .collect();
        let Some(&first) = points.first() else {
            return Ok(Lattice {
                n_rows: 0,
                root: Region {
                    lo: [0; AXES],
                    hi: [-1; AXES],
                },
                spans: Vec::new(),
                columns: vec![Column::Uniform; n_features],
                tables: Vec::new(),
                base: vec![0.0; n_features],
            });
        };
        let mut root = Region {
            lo: first,
            hi: first,
        };
        for p in &points {
            for (a, &c) in p.iter().enumerate() {
                root.lo[a] = root.lo[a].min(c);
                root.hi[a] = root.hi[a].max(c);
            }
        }
        let extent = |a: usize| (root.hi[a] - root.lo[a] + 1) as usize;
        // Spans and tables are indexed by coordinate, so their size must
        // follow the row count, not the largest coordinate named.
        if (0..AXES).any(|a| extent(a) > 2 * points.len()) {
            return Err(MlError::InvalidParameter(
                "lattice coordinates are too sparse for their row count",
            ));
        }

        let mut spans = vec![
            Span {
                sl_lo: 0,
                sl_hi: -1,
                row: 0,
            };
            extent(VM)
        ];
        let mut prev: Option<[i64; AXES]> = None;
        for (row, &p) in points.iter().enumerate() {
            let span = &mut spans[(p[VM] - root.lo[VM]) as usize];
            match prev {
                Some(q) if q[VM] == p[VM] && q[SL] + 1 == p[SL] => span.sl_hi = p[SL],
                Some(q) if q[VM] >= p[VM] => {
                    return Err(MlError::InvalidParameter(
                        "lattice rows must be vm-major with consecutive sl per vm",
                    ));
                }
                _ => {
                    *span = Span {
                        sl_lo: p[SL],
                        sl_hi: p[SL],
                        row,
                    }
                }
            }
            prev = Some(p);
        }

        let mut columns = Vec::with_capacity(n_features);
        let mut tables = Vec::new();
        for f in 0..n_features {
            let value = |row: usize| rows[row * n_features + f];
            if (1..points.len()).all(|r| value(r).to_bits() == value(0).to_bits()) {
                columns.push(Column::Uniform);
                continue;
            }
            let start = tables.len();
            let axis = (0..AXES).find(|&axis| {
                tables.truncate(start);
                tables.resize(start + extent(axis), f64::NAN);
                let mut seen = vec![false; extent(axis)];
                for (row, p) in points.iter().enumerate() {
                    let at = (p[axis] - root.lo[axis]) as usize;
                    if seen[at] && tables[start + at].to_bits() != value(row).to_bits() {
                        return false;
                    }
                    seen[at] = true;
                    tables[start + at] = value(row);
                }
                // A coordinate no row has takes its predecessor's value,
                // so the table stays a step function of the rows' own.
                for at in 1..extent(axis) {
                    if !seen[at] {
                        tables[start + at] = tables[start + at - 1];
                    }
                }
                tables[start..].windows(2).all(|w| w[0] <= w[1])
            });
            match axis {
                Some(axis) => columns.push(Column::Axis { axis, start }),
                None => return Err(MlError::NonAxisColumn { column: f }),
            }
        }

        Ok(Lattice {
            n_rows: points.len(),
            root,
            spans,
            columns,
            tables,
            base: rows[..n_features].to_vec(),
        })
    }

    /// Number of rows (configurations).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Row 0's feature values. Every uniform column holds this value in
    /// every row, so a caller evaluating the lattice for other values of
    /// some of those columns starts from a copy of this row. (What the
    /// copy holds for a column that does vary is never read.)
    pub fn base_row(&self) -> &[f64] {
        &self.base
    }

    /// The region every descent starts from.
    pub(crate) fn root(&self) -> Region {
        self.root
    }

    /// Routes `region` through the test `x[feature] <= threshold`.
    /// `fixed` supplies the value of uniform columns.
    #[inline]
    pub(crate) fn route(
        &self,
        region: Region,
        feature: usize,
        threshold: f64,
        fixed: &[f64],
    ) -> Route {
        match self.columns[feature] {
            Column::Uniform if fixed[feature] <= threshold => Route::Left,
            Column::Uniform => Route::Right,
            Column::Axis { axis, start } => {
                let extent = (self.root.hi[axis] - self.root.lo[axis] + 1) as usize;
                let table = &self.tables[start..start + extent];
                // Coordinates below `cut` pass the test, the rest fail it.
                let cut = self.root.lo[axis] + table.partition_point(|&v| v <= threshold) as i64;
                if cut > region.hi[axis] {
                    return Route::Left;
                }
                if cut <= region.lo[axis] {
                    return Route::Right;
                }
                let (mut left, mut right) = (region, region);
                left.hi[axis] = cut - 1;
                right.lo[axis] = cut;
                Route::Both(left, right)
            }
        }
    }

    /// Adds `value` to `out[row]` for every row inside `region`.
    #[inline]
    pub(crate) fn add(&self, region: Region, value: f64, out: &mut [f64]) {
        if region.lo[VM] > region.hi[VM] {
            return;
        }
        let first = (region.lo[VM] - self.root.lo[VM]) as usize;
        let last = (region.hi[VM] - self.root.lo[VM]) as usize;
        for (span, vm) in self.spans[first..=last].iter().zip(region.lo[VM]..) {
            let lo = span.sl_lo.max(region.lo[SL]).max(region.lo[TOTAL] - vm);
            let hi = span.sl_hi.min(region.hi[SL]).min(region.hi[TOTAL] - vm);
            if lo <= hi {
                let at = span.row + (lo - span.sl_lo) as usize;
                for o in &mut out[at..=at + (hi - lo) as usize] {
                    *o += value;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[vm, sl, 7, 100·(vm+sl)]` per row.
    fn rows_of(coords: &[(u32, u32)]) -> Vec<f64> {
        coords
            .iter()
            .flat_map(|&(vm, sl)| [vm as f64, sl as f64, 7.0, 100.0 * (vm + sl) as f64])
            .collect()
    }

    fn full_grid(max: u32, min_total: u32) -> Vec<(u32, u32)> {
        (0..=max)
            .flat_map(|vm| (0..=max).map(move |sl| (vm, sl)))
            .filter(|&(vm, sl)| vm + sl >= min_total)
            .collect()
    }

    #[test]
    fn columns_are_classified_by_what_they_vary_with() {
        let coords = full_grid(4, 3);
        let lattice = Lattice::compile(&coords, &rows_of(&coords), 4).unwrap();
        assert_eq!(lattice.n_rows(), coords.len());
        assert_eq!(
            lattice.columns,
            vec![
                Column::Axis { axis: VM, start: 0 },
                Column::Axis { axis: SL, start: 5 },
                Column::Uniform,
                Column::Axis {
                    axis: TOTAL,
                    start: 10
                },
            ]
        );
        // vm + sl runs 3..=8: six table entries after the two five-entry ones.
        assert_eq!(lattice.tables.len(), 5 + 5 + 6);
        assert_eq!(lattice.base_row(), &rows_of(&coords)[..4]);
    }

    #[test]
    fn a_column_that_follows_no_axis_is_a_typed_error() {
        let coords = full_grid(3, 0);
        let mut rows = rows_of(&coords);
        for (row, &(vm, sl)) in rows.chunks_exact_mut(4).zip(&coords) {
            row[2] = (vm * sl) as f64;
        }
        assert_eq!(
            Lattice::compile(&coords, &rows, 4).unwrap_err(),
            MlError::NonAxisColumn { column: 2 }
        );
        // A function of an axis, but decreasing along it.
        let mut rows = rows_of(&coords);
        for (row, &(vm, _)) in rows.chunks_exact_mut(4).zip(&coords) {
            row[2] = -(vm as f64);
        }
        assert_eq!(
            Lattice::compile(&coords, &rows, 4).unwrap_err(),
            MlError::NonAxisColumn { column: 2 }
        );
    }

    #[test]
    fn shape_violations_are_rejected() {
        let coords = full_grid(2, 0);
        assert!(matches!(
            Lattice::compile(&coords, &rows_of(&coords)[1..], 4),
            Err(MlError::DimensionMismatch { .. })
        ));
        for bad in [
            vec![(0, 0), (0, 2)],         // a hole inside one vm's run
            vec![(1, 0), (0, 0)],         // vm descending
            vec![(0, 0), (1, 0), (0, 1)], // a vm revisited
            vec![(0, 1), (0, 1)],         // a repeated row
            vec![(0, 0), (1_000_000, 0)], // two rows, a million coordinates
        ] {
            assert!(
                matches!(
                    Lattice::compile(&bad, &rows_of(&bad), 4),
                    Err(MlError::InvalidParameter(_))
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn the_root_region_covers_every_row_exactly_once() {
        for coords in [
            full_grid(5, 4),
            (1..=6).map(|k| (k, k)).collect::<Vec<_>>(),
            (2..=9).map(|sl| (0, sl)).collect(),
            vec![(3, 3)],
            Vec::new(),
        ] {
            let lattice = Lattice::compile(&coords, &rows_of(&coords), 4).unwrap();
            let mut out = vec![0.0; coords.len()];
            lattice.add(lattice.root(), 1.0, &mut out);
            assert!(out.iter().all(|&v| v == 1.0), "{coords:?}: {out:?}");
        }
    }

    #[test]
    fn a_split_partitions_the_region_like_the_row_test() {
        let coords = full_grid(6, 4);
        let rows = rows_of(&coords);
        let lattice = Lattice::compile(&coords, &rows, 4).unwrap();
        let fixed = lattice.base_row();
        // Thresholds on, between and outside the table values, per column.
        for (feature, thresholds) in [
            (0, vec![-1.0, 0.0, 2.5, 3.0, 6.0, 9.0]),
            (1, vec![-0.5, 0.0, 4.0, 5.5, 6.0]),
            (2, vec![6.9, 7.0, 7.1]),
            (3, vec![399.0, 400.0, 750.0, 1200.0, 1300.0]),
        ] {
            for t in thresholds {
                let root = lattice.root();
                let (left, right) = match lattice.route(root, feature, t, fixed) {
                    Route::Left => (Some(root), None),
                    Route::Right => (None, Some(root)),
                    Route::Both(left, right) => (Some(left), Some(right)),
                };
                let mut out = vec![0.0; coords.len()];
                if let Some(left) = left {
                    lattice.add(left, 1.0, &mut out);
                }
                if let Some(right) = right {
                    lattice.add(right, 2.0, &mut out);
                }
                for (row, got) in rows.chunks_exact(4).zip(&out) {
                    let want = if row[feature] <= t { 1.0 } else { 2.0 };
                    assert_eq!(*got, want, "feature {feature} <= {t}, row {row:?}");
                }
            }
        }
    }
}
