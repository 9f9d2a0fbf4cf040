//! Dense node-pair similarity matrix.
//!
//! Every match algorithm emits a [`SimMatrix`] with one row per source node
//! and one column per target node, values in `[0, 1]`. Mapping extraction
//! and evaluation work uniformly on this representation.
//!
//! # Storage precision
//!
//! The matrix stores scores either as `f64` (the default, bit-identical to
//! the paper arithmetic) or as `f32` ([`Precision::F32`], halving the memory
//! footprint of the quadratic pair table). Precision affects **storage
//! only**: every engine accumulates in `f64` and rounds once when a cell is
//! committed, so an `f32` matrix holds the nearest-`f32` value of the exact
//! `f64` score for that cell's inputs. See DESIGN.md §14 for the full
//! accuracy contract.

use qmatch_xsd::NodeId;
use std::marker::PhantomData;

/// Storage precision for a [`SimMatrix`].
///
/// `F64` (the default) reproduces the paper arithmetic bit-for-bit. `F32`
/// halves the quadratic matrix footprint; scores are rounded to the nearest
/// `f32` when stored (accumulation stays `f64`), which empirically keeps
/// every cell within `1e-6` of the `f64` score on the test corpora.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// 8-byte storage; bit-identical to the reference arithmetic.
    #[default]
    F64,
    /// 4-byte storage; ≤1e-6 score tolerance, identical extracted mappings
    /// on the shipped corpora.
    F32,
}

impl Precision {
    /// Stable lowercase name (`"f64"` / `"f32"`), used in CLI flags, query
    /// parameters, and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An out-of-bounds access on a [`SimMatrix`], with full coordinates so the
/// failure is diagnosable without a debugger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixIndexError {
    /// The requested row (source node index).
    pub row: usize,
    /// The requested column (target node index).
    pub col: usize,
    /// Number of rows in the matrix.
    pub rows: usize,
    /// Number of columns in the matrix.
    pub cols: usize,
}

impl std::fmt::Display for MatrixIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix index ({},{}) out of bounds for {}x{} SimMatrix",
            self.row, self.col, self.rows, self.cols
        )
    }
}

impl std::error::Error for MatrixIndexError {}

/// The backing buffer of a [`SimMatrix`]: one variant per [`Precision`].
///
/// `pub(crate)` so the arena can pool recycled buffers without exposing the
/// representation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MatrixData {
    F64(Vec<f64>),
    F32(Vec<f32>),
}

impl MatrixData {
    fn len(&self) -> usize {
        match self {
            MatrixData::F64(v) => v.len(),
            MatrixData::F32(v) => v.len(),
        }
    }

    #[inline]
    fn at(&self, i: usize) -> f64 {
        match self {
            MatrixData::F64(v) => v[i],
            MatrixData::F32(v) => f64::from(v[i]),
        }
    }

    #[inline]
    fn put(&mut self, i: usize, value: f64) {
        match self {
            MatrixData::F64(v) => v[i] = value,
            MatrixData::F32(v) => v[i] = value as f32,
        }
    }
}

/// A cell scalar the kernels can be generic over: `f64` or `f32` storage
/// with `f64` arithmetic at the boundaries.
pub(crate) trait Score: Copy + Send + Sync + 'static {
    /// Rounds an exact `f64` score into storage representation.
    fn from_f64(v: f64) -> Self;
    /// Widens a stored score back to `f64` (exact for both precisions).
    fn to_f64(self) -> f64;
    /// The matrix's backing vec, if it stores this precision.
    fn data_vec_mut(m: &mut SimMatrix) -> Option<&mut Vec<Self>>;
}

impl Score for f64 {
    #[inline]
    fn from_f64(v: f64) -> f64 {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    fn data_vec_mut(m: &mut SimMatrix) -> Option<&mut Vec<f64>> {
        match &mut m.data {
            MatrixData::F64(v) => Some(v),
            MatrixData::F32(_) => None,
        }
    }
}

impl Score for f32 {
    #[inline]
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    fn data_vec_mut(m: &mut SimMatrix) -> Option<&mut Vec<f32>> {
        match &mut m.data {
            MatrixData::F32(v) => Some(v),
            MatrixData::F64(_) => None,
        }
    }
}

/// Raw row-granular access to a [`SimMatrix`] for the hybrid wavefront
/// (`run_waves`): rows of the current wave are written in place (no per-row
/// `Vec` allocation + copy) while rows finalized in earlier waves are read. A
/// wave holds every source node of one subtree height, scattered over the
/// pre-order, so its rows are not one contiguous block that
/// `chunks_mut` could hand out; the flat linguistic and CUPID fills, whose
/// rows are, write through [`crate::par::for_each_row_mut`] instead.
///
/// # Safety contract
///
/// The level-synchronous wavefront guarantees the aliasing discipline:
/// * [`RawRows::row_mut`] may only be called for a row assigned to the
///   calling thread in the *current* wave, and each row is assigned to
///   exactly one thread — so mutable access is unique;
/// * [`RawRows::row`] may only be called for rows finalized in *earlier*
///   waves, whose threads were joined before this wave started — so shared
///   reads never alias a concurrent write.
pub(crate) struct RawRows<'a, S> {
    ptr: *mut S,
    rows: usize,
    cols: usize,
    _marker: PhantomData<&'a mut [S]>,
}

// SAFETY: RawRows is a bounds-tracked view into the matrix buffer; the
// wavefront discipline documented on the type keeps row accesses disjoint
// across threads.
unsafe impl<S: Send> Send for RawRows<'_, S> {}
unsafe impl<S: Sync> Sync for RawRows<'_, S> {}

impl<'a, S: Score> RawRows<'a, S> {
    /// A raw view over `m`, or `None` if `m` does not store precision `S`.
    pub(crate) fn new(m: &'a mut SimMatrix) -> Option<RawRows<'a, S>> {
        let (rows, cols) = (m.rows, m.cols);
        let v = S::data_vec_mut(m)?;
        Some(RawRows {
            ptr: v.as_mut_ptr(),
            rows,
            cols,
            _marker: PhantomData,
        })
    }

    /// A finalized row from an earlier wave.
    ///
    /// # Safety
    /// `r` must index a row committed in an earlier (already joined) wave;
    /// see the type-level contract.
    #[inline]
    pub(crate) unsafe fn row(&self, r: usize) -> &[S] {
        debug_assert!(r < self.rows);
        std::slice::from_raw_parts(self.ptr.add(r * self.cols), self.cols)
    }

    /// The writable row assigned to the calling thread in the current wave.
    ///
    /// # Safety
    /// `r` must be assigned to exactly this thread in the current wave; see
    /// the type-level contract.
    #[inline]
    #[allow(clippy::mut_from_ref)] // uniqueness is the documented caller contract
    pub(crate) unsafe fn row_mut(&self, r: usize) -> &mut [S] {
        debug_assert!(r < self.rows);
        std::slice::from_raw_parts_mut(self.ptr.add(r * self.cols), self.cols)
    }
}

/// A dense `rows × cols` matrix of similarity scores.
///
/// Note on `PartialEq`: matrices of different [`Precision`] are never equal,
/// even when every widened cell coincides — equality compares storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMatrix {
    rows: usize,
    cols: usize,
    data: MatrixData,
}

impl SimMatrix {
    /// A zero-filled `f64` matrix for `rows` source nodes and `cols` target
    /// nodes.
    pub fn zeros(rows: usize, cols: usize) -> SimMatrix {
        SimMatrix::zeros_with(rows, cols, Precision::F64)
    }

    /// A zero-filled matrix with an explicit storage [`Precision`].
    pub fn zeros_with(rows: usize, cols: usize, precision: Precision) -> SimMatrix {
        let data = match precision {
            Precision::F64 => MatrixData::F64(vec![0.0; rows * cols]),
            Precision::F32 => MatrixData::F32(vec![0.0; rows * cols]),
        };
        SimMatrix { rows, cols, data }
    }

    /// Wraps an existing (possibly recycled, possibly *non-zeroed*) buffer.
    ///
    /// Invariant: the caller must overwrite **every** cell before the matrix
    /// escapes — the wavefront/row engines do, which is what lets the arena
    /// skip re-zeroing. `data.len()` must equal `rows * cols`.
    pub(crate) fn from_storage(rows: usize, cols: usize, data: MatrixData) -> SimMatrix {
        assert_eq!(data.len(), rows * cols, "storage length must be rows*cols");
        SimMatrix { rows, cols, data }
    }

    /// Consumes the matrix, returning its backing buffer for pooling.
    pub(crate) fn into_storage(self) -> MatrixData {
        self.data
    }

    /// The storage precision of this matrix.
    pub fn precision(&self) -> Precision {
        match self.data {
            MatrixData::F64(_) => Precision::F64,
            MatrixData::F32(_) => Precision::F32,
        }
    }

    /// Converts the matrix to the given storage precision (no-op when it
    /// already matches). `f32 → f64` widens exactly; `f64 → f32` rounds each
    /// cell to the nearest `f32`.
    pub fn with_precision(self, precision: Precision) -> SimMatrix {
        let data = match (self.data, precision) {
            (d @ MatrixData::F64(_), Precision::F64) => d,
            (d @ MatrixData::F32(_), Precision::F32) => d,
            (MatrixData::F64(v), Precision::F32) => {
                MatrixData::F32(v.iter().map(|&x| x as f32).collect())
            }
            (MatrixData::F32(v), Precision::F64) => {
                MatrixData::F64(v.iter().map(|&x| f64::from(x)).collect())
            }
        };
        SimMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Number of source nodes (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of target nodes (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn check(&self, source: NodeId, target: NodeId) -> Result<usize, MatrixIndexError> {
        let (r, c) = (source.index(), target.index());
        if r < self.rows && c < self.cols {
            Ok(r * self.cols + c)
        } else {
            Err(MatrixIndexError {
                row: r,
                col: c,
                rows: self.rows,
                cols: self.cols,
            })
        }
    }

    #[cold]
    #[inline(never)]
    fn oob(e: MatrixIndexError) -> ! {
        panic!("{e}");
    }

    /// The score for a node pair (widened to `f64` for `f32` storage).
    ///
    /// # Panics
    /// On out-of-bounds coordinates, with the offending `(row, col)` and the
    /// matrix dimensions in the message (in release builds too); use
    /// [`SimMatrix::try_get`] for a non-panicking variant.
    #[inline]
    pub fn get(&self, source: NodeId, target: NodeId) -> f64 {
        match self.check(source, target) {
            Ok(i) => self.data.at(i),
            Err(e) => Self::oob(e),
        }
    }

    /// Fallible [`SimMatrix::get`]: out-of-bounds coordinates return a
    /// [`MatrixIndexError`] carrying `(row, col)` and the dimensions.
    #[inline]
    pub fn try_get(&self, source: NodeId, target: NodeId) -> Result<f64, MatrixIndexError> {
        self.check(source, target).map(|i| self.data.at(i))
    }

    /// Sets the score for a node pair (rounded to `f32` for `f32` storage).
    ///
    /// # Panics
    /// On out-of-bounds coordinates, with full context; see
    /// [`SimMatrix::try_set`].
    #[inline]
    pub fn set(&mut self, source: NodeId, target: NodeId, value: f64) {
        match self.check(source, target) {
            Ok(i) => self.data.put(i, value),
            Err(e) => Self::oob(e),
        }
    }

    /// Fallible [`SimMatrix::set`].
    #[inline]
    pub fn try_set(
        &mut self,
        source: NodeId,
        target: NodeId,
        value: f64,
    ) -> Result<(), MatrixIndexError> {
        let i = self.check(source, target)?;
        self.data.put(i, value);
        Ok(())
    }

    /// One source node's row of scores, in target-id order.
    ///
    /// # Panics
    /// If the matrix stores `f32` (there is no `f64` slice to borrow) or the
    /// row is out of bounds. Use [`SimMatrix::get`]/[`SimMatrix::iter`] for
    /// precision-agnostic access.
    #[inline]
    pub fn row(&self, source: NodeId) -> &[f64] {
        let r = source.index();
        assert!(
            r < self.rows,
            "row {r} out of bounds for {}x{} SimMatrix",
            self.rows,
            self.cols
        );
        match &self.data {
            MatrixData::F64(v) => &v[r * self.cols..(r + 1) * self.cols],
            MatrixData::F32(_) => {
                panic!("SimMatrix::row requires f64 storage; this matrix is f32")
            }
        }
    }

    /// Overwrites one source node's row. `row` must hold exactly one value
    /// per target node. This is how the row-at-a-time engines commit rows
    /// that were computed out-of-place (values are rounded for `f32`
    /// storage).
    #[inline]
    pub fn set_row(&mut self, source: NodeId, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length must equal cols");
        let r = source.index();
        assert!(
            r < self.rows,
            "row {r} out of bounds for {}x{} SimMatrix",
            self.rows,
            self.cols
        );
        match &mut self.data {
            MatrixData::F64(v) => {
                v[r * self.cols..(r + 1) * self.cols].copy_from_slice(row);
            }
            MatrixData::F32(v) => {
                for (dst, &src) in v[r * self.cols..(r + 1) * self.cols].iter_mut().zip(row) {
                    *dst = src as f32;
                }
            }
        }
    }

    /// The best-scoring target for a source row, with its score. `None` for
    /// an empty matrix.
    pub fn best_for_source(&self, source: NodeId) -> Option<(NodeId, f64)> {
        let r = source.index();
        let base = r * self.cols;
        let (best_col, best) = (0..self.cols)
            .map(|c| self.data.at(base + c))
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))?;
        Some((NodeId(best_col as u32), best))
    }

    /// Mean over rows of the best score in each row — a whole-matrix summary
    /// used by the flat (non-recursive) matchers.
    pub fn mean_best_per_source(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let total: f64 = (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| self.data.at(r * self.cols + c))
                    .fold(0.0f64, f64::max)
            })
            .sum();
        total / self.rows as f64
    }

    /// Iterates `(source, target, score)` over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            (0..self.cols).map(move |c| {
                (
                    NodeId(r as u32),
                    NodeId(c as u32),
                    self.data.at(r * self.cols + c),
                )
            })
        })
    }

    /// The largest absolute cell-wise difference between two same-shaped
    /// matrices (widening both to `f64`), `0.0` for empty matrices. This is
    /// the metric of the f32 accuracy contract.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn max_abs_diff(&self, other: &SimMatrix) -> f64 {
        assert_eq!(self.rows, other.rows, "row count mismatch");
        assert_eq!(self.cols, other.cols, "col count mismatch");
        (0..self.rows * self.cols)
            .map(|i| (self.data.at(i) - other.data.at(i)).abs())
            .fold(0.0f64, f64::max)
    }

    /// Renders the matrix as CSV with label-path headers (for spreadsheet
    /// inspection or downstream analysis). Paths containing commas or quotes
    /// are quoted per RFC 4180.
    pub fn to_csv(
        &self,
        source: &qmatch_xsd::SchemaTree,
        target: &qmatch_xsd::SchemaTree,
    ) -> String {
        assert_eq!(self.rows, source.len(), "matrix rows must match source");
        assert_eq!(self.cols, target.len(), "matrix cols must match target");
        let quote = |s: &str| -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let mut out = String::new();
        out.push_str("source\\target");
        for (tid, _) in target.iter() {
            out.push(',');
            out.push_str(&quote(&target.path_labels(tid).join("/")));
        }
        out.push('\n');
        for (sid, _) in source.iter() {
            out.push_str(&quote(&source.path_labels(sid).join("/")));
            for (tid, _) in target.iter() {
                out.push(',');
                out.push_str(&format!("{:.4}", self.get(sid, tid)));
            }
            out.push('\n');
        }
        out
    }

    /// Asserts every value lies in `[0, 1]` (debug tool for tests).
    pub fn assert_normalized(&self) {
        for i in 0..self.rows * self.cols {
            let v = self.data.at(i);
            assert!(
                (-1e-9..=1.0 + 1e-9).contains(&v),
                "cell {i} = {v} is outside [0,1]"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_get_set() {
        let mut m = SimMatrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.precision(), Precision::F64);
        assert_eq!(m.get(NodeId(1), NodeId(2)), 0.0);
        m.set(NodeId(1), NodeId(2), 0.75);
        assert_eq!(m.get(NodeId(1), NodeId(2)), 0.75);
        assert_eq!(m.get(NodeId(0), NodeId(2)), 0.0);
    }

    #[test]
    fn f32_storage_rounds_on_set_and_widens_on_get() {
        let mut m = SimMatrix::zeros_with(2, 2, Precision::F32);
        assert_eq!(m.precision(), Precision::F32);
        let v = 0.123_456_789_012_345_f64;
        m.set(NodeId(0), NodeId(1), v);
        let stored = m.get(NodeId(0), NodeId(1));
        assert_eq!(stored, f64::from(v as f32));
        assert!((stored - v).abs() < 1e-7);
    }

    #[test]
    fn get_panics_with_coordinates_in_release_builds() {
        let m = SimMatrix::zeros(2, 3);
        let err = std::panic::catch_unwind(|| m.get(NodeId(9), NodeId(1))).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("(9,1)"), "panic lacks coordinates: {msg}");
        assert!(msg.contains("2x3"), "panic lacks dimensions: {msg}");
    }

    #[test]
    fn try_get_and_try_set_report_bounds() {
        let mut m = SimMatrix::zeros(2, 3);
        assert_eq!(m.try_get(NodeId(0), NodeId(2)), Ok(0.0));
        let e = m.try_get(NodeId(2), NodeId(0)).unwrap_err();
        assert_eq!(
            e,
            MatrixIndexError {
                row: 2,
                col: 0,
                rows: 2,
                cols: 3
            }
        );
        assert!(e.to_string().contains("(2,0)"));
        assert!(m.try_set(NodeId(0), NodeId(5), 1.0).is_err());
        assert!(m.try_set(NodeId(1), NodeId(1), 0.5).is_ok());
        assert_eq!(m.get(NodeId(1), NodeId(1)), 0.5);
    }

    #[test]
    fn row_and_set_row_round_trip() {
        let mut m = SimMatrix::zeros(2, 3);
        m.set_row(NodeId(1), &[0.1, 0.2, 0.3]);
        assert_eq!(m.row(NodeId(1)), &[0.1, 0.2, 0.3]);
        assert_eq!(m.row(NodeId(0)), &[0.0, 0.0, 0.0]);
        assert_eq!(m.get(NodeId(1), NodeId(2)), 0.3);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn set_row_rejects_wrong_length() {
        let mut m = SimMatrix::zeros(2, 3);
        m.set_row(NodeId(0), &[0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "f64 storage")]
    fn row_rejects_f32_storage() {
        let m = SimMatrix::zeros_with(1, 1, Precision::F32);
        let _ = m.row(NodeId(0));
    }

    #[test]
    fn with_precision_round_trips() {
        let mut m = SimMatrix::zeros(2, 2);
        m.set(NodeId(0), NodeId(1), 0.25); // exactly representable in f32
        let f32m = m.clone().with_precision(Precision::F32);
        assert_eq!(f32m.precision(), Precision::F32);
        assert_eq!(f32m.get(NodeId(0), NodeId(1)), 0.25);
        let back = f32m.with_precision(Precision::F64);
        assert_eq!(back, m);
    }

    #[test]
    fn max_abs_diff_crosses_precisions() {
        let mut a = SimMatrix::zeros(1, 2);
        a.set(NodeId(0), NodeId(0), 0.5);
        let mut b = SimMatrix::zeros_with(1, 2, Precision::F32);
        b.set(NodeId(0), NodeId(0), 0.5);
        b.set(NodeId(0), NodeId(1), 0.125);
        assert!((a.max_abs_diff(&b) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn best_for_source_picks_max() {
        let mut m = SimMatrix::zeros(1, 4);
        m.set(NodeId(0), NodeId(1), 0.4);
        m.set(NodeId(0), NodeId(3), 0.9);
        assert_eq!(m.best_for_source(NodeId(0)), Some((NodeId(3), 0.9)));
    }

    #[test]
    fn best_for_source_on_empty_cols() {
        let m = SimMatrix::zeros(1, 0);
        assert_eq!(m.best_for_source(NodeId(0)), None);
    }

    #[test]
    fn mean_best_per_source() {
        let mut m = SimMatrix::zeros(2, 2);
        m.set(NodeId(0), NodeId(0), 1.0);
        m.set(NodeId(1), NodeId(0), 0.2);
        m.set(NodeId(1), NodeId(1), 0.6);
        assert!((m.mean_best_per_source() - 0.8).abs() < 1e-12);
        assert_eq!(SimMatrix::zeros(0, 5).mean_best_per_source(), 0.0);
    }

    #[test]
    fn iter_visits_all_cells() {
        let mut m = SimMatrix::zeros(2, 2);
        m.set(NodeId(0), NodeId(1), 0.5);
        let cells: Vec<_> = m.iter().collect();
        assert_eq!(cells.len(), 4);
        assert!(cells.contains(&(NodeId(0), NodeId(1), 0.5)));
    }

    #[test]
    fn raw_rows_write_and_read_back() {
        let mut m = SimMatrix::zeros(2, 3);
        {
            let raw = RawRows::<f64>::new(&mut m).unwrap();
            // SAFETY: single-threaded test; rows accessed uniquely.
            unsafe {
                raw.row_mut(0).copy_from_slice(&[0.1, 0.2, 0.3]);
                raw.row_mut(1)[2] = 0.9;
                assert_eq!(raw.row(0), &[0.1, 0.2, 0.3]);
            }
        }
        assert_eq!(m.get(NodeId(1), NodeId(2)), 0.9);
        assert!(RawRows::<f32>::new(&mut m).is_none());
    }

    #[test]
    fn csv_export_has_headers_and_values() {
        use qmatch_xsd::SchemaTree;
        let s = SchemaTree::from_labels("a", &[("a", None), ("x,odd", Some(0))]);
        let t = SchemaTree::from_labels("b", &[("b", None), ("y", Some(0))]);
        let mut m = SimMatrix::zeros(2, 2);
        m.set(NodeId(1), NodeId(1), 0.75);
        let csv = m.to_csv(&s, &t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("source\\target,b,b/y"), "{csv}");
        assert!(
            lines[2].starts_with("\"a/x,odd\","),
            "comma paths are quoted: {csv}"
        );
        assert!(lines[2].ends_with("0.7500"), "{csv}");
    }

    #[test]
    fn assert_normalized_accepts_unit_range() {
        let mut m = SimMatrix::zeros(1, 2);
        m.set(NodeId(0), NodeId(0), 1.0);
        m.assert_normalized();
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn assert_normalized_rejects_out_of_range() {
        let mut m = SimMatrix::zeros(1, 1);
        m.set(NodeId(0), NodeId(0), 1.5);
        m.assert_normalized();
    }
}
