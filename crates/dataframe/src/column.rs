//! Typed column storage with a validity mask.
//!
//! Bulk data stays in monomorphic `Vec`s (`Vec<f64>`, `Vec<i64>`, ...) so
//! numeric reductions run over contiguous memory; [`Value`] only appears at
//! the cell-access boundary. Missing cells are tracked by an optional
//! validity mask — `None` means "all valid", which keeps fully-dense columns
//! (the common case for performance metrics) mask-free.

use crate::error::{DfError, Result};
use crate::value::{DType, Value};
use std::sync::Arc;

/// Typed backing storage for a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// All-null column of a given length.
    Null(usize),
    /// Boolean column.
    Bool(Vec<bool>),
    /// Integer column.
    Int(Vec<i64>),
    /// Float column.
    Float(Vec<f64>),
    /// String column.
    Str(Vec<Arc<str>>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Null(n) => *n,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    fn dtype(&self) -> DType {
        match self {
            ColumnData::Null(_) => DType::Null,
            ColumnData::Bool(_) => DType::Bool,
            ColumnData::Int(_) => DType::Int,
            ColumnData::Float(_) => DType::Float,
            ColumnData::Str(_) => DType::Str,
        }
    }
}

/// A single dataframe column: typed data plus an optional validity mask.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    /// `None` = every cell valid; otherwise `valid[i]` says cell `i` is
    /// non-null. Always the same length as `data`.
    valid: Option<Vec<bool>>,
}

impl PartialEq for Column {
    /// Mask-aware, total equality. Cells compare through [`Column::get`],
    /// so masked cells are equal regardless of the storage beneath them
    /// (masked float cells hold `NaN`, which would poison a raw storage
    /// compare), and valid floats follow `Value`'s total order, where
    /// `NaN == NaN`.
    fn eq(&self, other: &Self) -> bool {
        self.dtype() == other.dtype()
            && self.len() == other.len()
            && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for Column {}

impl Column {
    /// Build a dense float column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column {
            data: ColumnData::Float(values),
            valid: None,
        }
    }

    /// Build a dense integer column.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column {
            data: ColumnData::Int(values),
            valid: None,
        }
    }

    /// Build a dense string column.
    pub fn from_strs<S: AsRef<str>>(values: impl IntoIterator<Item = S>) -> Self {
        Column {
            data: ColumnData::Str(values.into_iter().map(|s| Arc::from(s.as_ref())).collect()),
            valid: None,
        }
    }

    /// Build a float column from values and a validity mask (`valid[i]`
    /// false = null; the value there is ignored) without per-cell
    /// [`Value`] boxing — the fast path for writing metric columns during
    /// ingest. The mask is dropped when every cell is valid.
    ///
    /// # Panics
    ///
    /// Panics when the two lengths differ.
    pub fn from_f64_masked(values: Vec<f64>, valid: Vec<bool>) -> Self {
        assert_eq!(values.len(), valid.len(), "one validity flag per value");
        let valid = valid.contains(&false).then_some(valid);
        Column {
            data: ColumnData::Float(values),
            valid,
        }
    }

    /// Build a column from dynamic values, inferring the narrowest common
    /// dtype (`Int` + `Float` promotes to `Float`; incompatible mixes fail).
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Result<Self> {
        let mut b = ColumnBuilder::new();
        for v in values {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    /// Number of cells (including nulls).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's dtype.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Count of non-null cells.
    pub fn count_valid(&self) -> usize {
        match &self.valid {
            None => self.len(),
            Some(mask) => mask.iter().filter(|v| **v).count(),
        }
    }

    /// `true` if cell `i` is null. Panics if out of bounds.
    pub fn is_null_at(&self, i: usize) -> bool {
        assert!(i < self.len(), "column index {i} out of bounds");
        match &self.valid {
            None => matches!(self.data, ColumnData::Null(_)),
            Some(mask) => !mask[i],
        }
    }

    /// Cell access as a dynamic [`Value`]. Panics if out of bounds.
    pub fn get(&self, i: usize) -> Value {
        if self.is_null_at(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Null(_) => Value::Null,
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
        }
    }

    /// Numeric view of cell `i` (`None` for null or non-numeric).
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        if self.is_null_at(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            _ => None,
        }
    }

    /// Borrow the raw float storage if this is a dense float column.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match (&self.data, &self.valid) {
            (ColumnData::Float(v), None) => Some(v),
            _ => None,
        }
    }

    /// Collect the non-null numeric values of the column.
    pub fn numeric_values(&self) -> Vec<f64> {
        (0..self.len()).filter_map(|i| self.get_f64(i)).collect()
    }

    /// Iterate cells as dynamic values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// New column containing `rows` (in order, duplicates allowed).
    /// Dtype is preserved and the typed storage is gathered directly —
    /// no per-cell [`Value`] boxing — so reordering a whole frame (e.g.
    /// `sort_by_index` after an ingest merge) is a set of `Vec` gathers.
    pub fn take(&self, rows: &[usize]) -> Column {
        let any_null = match &self.valid {
            None => matches!(self.data, ColumnData::Null(_)) && !rows.is_empty(),
            Some(mask) => rows.iter().any(|&r| !mask[r]),
        };
        let valid = if any_null {
            Some(rows.iter().map(|&r| !self.is_null_at(r)).collect())
        } else {
            None
        };
        let data = match &self.data {
            ColumnData::Null(_) => ColumnData::Null(rows.len()),
            ColumnData::Bool(v) => ColumnData::Bool(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Int(v) => ColumnData::Int(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Float(v) => ColumnData::Float(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Str(v) => {
                ColumnData::Str(rows.iter().map(|&r| v[r].clone()).collect())
            }
        };
        Column { data, valid }
    }

    /// Gather with gaps: cell `i` of the result is the source cell at
    /// `rows[i]`, or null where `rows[i]` is `None`. Dtype is preserved
    /// and the typed storage is copied directly — no per-cell [`Value`]
    /// boxing — which is what makes single-pass joins cheap.
    pub fn take_opt(&self, rows: &[Option<usize>]) -> Column {
        let n = rows.len();
        let valid: Vec<bool> = rows
            .iter()
            .map(|r| match r {
                Some(i) => !self.is_null_at(*i),
                None => false,
            })
            .collect();
        let data = match &self.data {
            ColumnData::Null(_) => ColumnData::Null(n),
            ColumnData::Bool(v) => ColumnData::Bool(
                rows.iter().map(|r| r.map(|i| v[i]).unwrap_or(false)).collect(),
            ),
            ColumnData::Int(v) => ColumnData::Int(
                rows.iter().map(|r| r.map(|i| v[i]).unwrap_or(0)).collect(),
            ),
            ColumnData::Float(v) => ColumnData::Float(
                rows.iter()
                    .map(|r| r.map(|i| v[i]).unwrap_or(f64::NAN))
                    .collect(),
            ),
            ColumnData::Str(v) => ColumnData::Str(
                rows.iter()
                    .map(|r| match r {
                        Some(i) => v[*i].clone(),
                        None => Arc::from(""),
                    })
                    .collect(),
            ),
        };
        let valid = if valid.iter().all(|&b| b) {
            None
        } else {
            Some(valid)
        };
        Column { data, valid }
    }

    /// An all-null column of dtype `dt` and length `n`.
    pub fn nulls_of(dt: DType, n: usize) -> Column {
        let data = match dt {
            DType::Null => ColumnData::Null(n),
            DType::Bool => ColumnData::Bool(vec![false; n]),
            DType::Int => ColumnData::Int(vec![0; n]),
            DType::Float => ColumnData::Float(vec![f64::NAN; n]),
            DType::Str => ColumnData::Str(vec![Arc::from(""); n]),
        };
        Column {
            data,
            valid: Some(vec![false; n]),
        }
    }

    /// The dtype this column contributes to a concatenation: an all-null
    /// column is dtype-neutral (`Null`) regardless of its storage, exactly
    /// as its cells would read back through [`Column::get`]. This is what
    /// keeps the typed concat kernels below byte-identical to the
    /// cell-by-cell [`ColumnBuilder`] path they replaced.
    pub(crate) fn effective_dtype(&self) -> DType {
        if self.count_valid() == 0 {
            DType::Null
        } else {
            self.dtype()
        }
    }

    /// Concatenate `parts` into one column of dtype `target` in a single
    /// allocation per buffer — the kernel behind
    /// [`crate::DataFrame::concat_rows`].
    ///
    /// Every `Col` part must either be all-null (any storage dtype; it
    /// contributes a null run) or have a dtype that promotes into
    /// `target` (`Int` casts into a `Float` target). Callers resolve
    /// `target` from the parts' [`Column::effective_dtype`]s first.
    pub(crate) fn concat_parts(target: DType, parts: &[ConcatPart<'_>]) -> Column {
        use std::iter::repeat_n;
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let n_valid: usize = parts.iter().map(|p| p.count_valid()).sum();

        let valid: Option<Vec<bool>> = if target == DType::Null || n_valid == total {
            // All-null columns keep the builder convention: an explicit
            // all-false mask when non-empty, no mask when empty.
            (target == DType::Null && total > 0).then(|| vec![false; total])
        } else {
            let mut mask = Vec::with_capacity(total);
            for p in parts {
                match p {
                    ConcatPart::Nulls(n) => mask.extend(repeat_n(false, *n)),
                    ConcatPart::Col(c) => match &c.valid {
                        Some(v) => mask.extend_from_slice(v),
                        None => mask.extend(repeat_n(
                            !matches!(c.data, ColumnData::Null(_)),
                            c.len(),
                        )),
                    },
                }
            }
            Some(mask)
        };

        macro_rules! gather {
            ($variant:ident, $ty:ty, $default:expr, $cast:expr) => {{
                let mut v: Vec<$ty> = Vec::with_capacity(total);
                for p in parts {
                    match p {
                        ConcatPart::Nulls(n) => v.extend(repeat_n($default, *n)),
                        ConcatPart::Col(c) => {
                            if c.effective_dtype() == DType::Null {
                                v.extend(repeat_n($default, c.len()));
                            } else {
                                #[allow(clippy::redundant_closure_call)]
                                ($cast)(&mut v, &c.data);
                            }
                        }
                    }
                }
                ColumnData::$variant(v)
            }};
        }

        let data = match target {
            DType::Null => ColumnData::Null(total),
            DType::Bool => gather!(Bool, bool, false, |v: &mut Vec<bool>,
                                                       d: &ColumnData| {
                match d {
                    ColumnData::Bool(s) => v.extend_from_slice(s),
                    _ => unreachable!("part dtype checked against target"),
                }
            }),
            DType::Int => gather!(Int, i64, 0, |v: &mut Vec<i64>, d: &ColumnData| {
                match d {
                    ColumnData::Int(s) => v.extend_from_slice(s),
                    _ => unreachable!("part dtype checked against target"),
                }
            }),
            DType::Float => gather!(Float, f64, f64::NAN, |v: &mut Vec<f64>,
                                                           d: &ColumnData| {
                match d {
                    ColumnData::Float(s) => v.extend_from_slice(s),
                    // Int promotes into a Float target.
                    ColumnData::Int(s) => v.extend(s.iter().map(|&i| i as f64)),
                    _ => unreachable!("part dtype checked against target"),
                }
            }),
            DType::Str => gather!(Str, Arc<str>, Arc::from(""), |v: &mut Vec<
                Arc<str>,
            >,
                                                                 d: &ColumnData| {
                match d {
                    ColumnData::Str(s) => v.extend_from_slice(s),
                    _ => unreachable!("part dtype checked against target"),
                }
            }),
        };
        Column { data, valid }
    }

    /// Borrow the typed backing storage (for the vectorized predicate
    /// evaluator, which loops over the monomorphic `Vec`s directly).
    pub(crate) fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Borrow the validity mask (`None` = every cell valid).
    pub(crate) fn valid_mask(&self) -> Option<&[bool]> {
        self.valid.as_deref()
    }
}

/// One input to [`Column::concat_parts`]: either a borrowed source column
/// or a run of nulls (a frame that lacks the column).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ConcatPart<'a> {
    /// A source column, appended cell-for-cell.
    Col(&'a Column),
    /// `n` nulls.
    Nulls(usize),
}

impl ConcatPart<'_> {
    fn len(&self) -> usize {
        match self {
            ConcatPart::Col(c) => c.len(),
            ConcatPart::Nulls(n) => *n,
        }
    }

    fn count_valid(&self) -> usize {
        match self {
            ConcatPart::Col(c) => c.count_valid(),
            ConcatPart::Nulls(_) => 0,
        }
    }
}

/// Incremental builder that infers and promotes dtypes as values arrive.
#[derive(Debug)]
pub struct ColumnBuilder {
    values: Vec<Value>,
    dtype: DType,
    has_null: bool,
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        ColumnBuilder {
            values: Vec::new(),
            dtype: DType::Null,
            has_null: false,
        }
    }

    /// New empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ColumnBuilder {
            values: Vec::with_capacity(cap),
            dtype: DType::Null,
            has_null: false,
        }
    }

    /// Append one value, promoting the running dtype.
    pub fn push(&mut self, v: Value) -> Result<()> {
        let dt = v.dtype();
        if dt == DType::Null {
            self.has_null = true;
        } else {
            self.dtype = self
                .dtype
                .promote(dt)
                .ok_or_else(|| DfError::type_error(self.dtype, dt))?;
        }
        self.values.push(v);
        Ok(())
    }

    /// Number of values pushed so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Materialize the typed column.
    pub fn finish(self) -> Column {
        let n = self.values.len();
        let valid: Option<Vec<bool>> = if self.has_null {
            Some(self.values.iter().map(|v| !v.is_null()).collect())
        } else {
            None
        };
        let data = match self.dtype {
            DType::Null => ColumnData::Null(n),
            DType::Bool => ColumnData::Bool(
                self.values
                    .iter()
                    .map(|v| v.as_bool().unwrap_or(false))
                    .collect(),
            ),
            DType::Int => ColumnData::Int(
                self.values
                    .iter()
                    .map(|v| v.as_i64().unwrap_or(0))
                    .collect(),
            ),
            DType::Float => ColumnData::Float(
                self.values
                    .iter()
                    .map(|v| v.as_f64().unwrap_or(f64::NAN))
                    .collect(),
            ),
            DType::Str => ColumnData::Str(
                self.values
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => s.clone(),
                        _ => Arc::from(""),
                    })
                    .collect(),
            ),
        };
        Column { data, valid }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_constructors() {
        let c = Column::from_f64(vec![1.0, 2.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.count_valid(), 2);
        assert_eq!(c.get(1), Value::Float(2.0));
        assert_eq!(c.as_f64_slice(), Some(&[1.0, 2.0][..]));
    }

    #[test]
    fn builder_promotes_int_to_float() {
        let c = Column::from_values(vec![Value::Int(1), Value::Float(2.5)]).unwrap();
        assert_eq!(c.dtype(), DType::Float);
        assert_eq!(c.get(0), Value::Float(1.0));
    }

    #[test]
    fn builder_rejects_mixed_str_num() {
        let err = Column::from_values(vec![Value::Int(1), Value::from("x")]).unwrap_err();
        assert!(err.to_string().contains("type"));
    }

    #[test]
    fn nulls_tracked_by_mask() {
        let c = Column::from_values(vec![Value::Int(1), Value::Null, Value::Int(3)]).unwrap();
        assert_eq!(c.dtype(), DType::Int);
        assert_eq!(c.count_valid(), 2);
        assert!(c.is_null_at(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.numeric_values(), vec![1.0, 3.0]);
    }

    #[test]
    fn take_reorders_and_duplicates() {
        let c = Column::from_i64(vec![10, 20, 30]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![
            Value::Int(30),
            Value::Int(10),
            Value::Int(10)
        ]);
    }

    #[test]
    fn take_opt_gathers_with_gaps() {
        let c = Column::from_i64(vec![10, 20, 30]);
        let t = c.take_opt(&[Some(2), None, Some(0)]);
        assert_eq!(t.dtype(), DType::Int);
        assert_eq!(t.get(0), Value::Int(30));
        assert!(t.is_null_at(1));
        assert_eq!(t.get(2), Value::Int(10));
        // Source nulls stay null through the gather.
        let m = Column::from_values(vec![Value::Int(1), Value::Null]).unwrap();
        let g = m.take_opt(&[Some(1), Some(0)]);
        assert!(g.is_null_at(0));
        assert_eq!(g.get(1), Value::Int(1));
        // Gap-free gathers of dense columns stay mask-free.
        let d = c.take_opt(&[Some(0), Some(1)]);
        assert_eq!(d.count_valid(), 2);
        assert_eq!(d.as_f64_slice(), None); // int column
        // All-gap gather of a typed column keeps the dtype.
        let all_null = c.take_opt(&[None, None]);
        assert_eq!(all_null.dtype(), DType::Int);
        assert_eq!(all_null.count_valid(), 0);
    }

    #[test]
    fn equality_ignores_storage_under_mask() {
        // Masked float cells hold NaN in raw storage; equality must not
        // compare that garbage (and NaN != NaN would reject even a column
        // compared against itself).
        let a = Column::from_values(vec![Value::Float(1.0), Value::Null]).unwrap();
        let b = Column::from_values(vec![Value::Float(1.0), Value::Null]).unwrap();
        assert_eq!(a, a);
        assert_eq!(a, b);
        // Valid NaN cells compare equal under Value's total order.
        let n = Column::from_f64(vec![f64::NAN]);
        assert_eq!(n, Column::from_f64(vec![f64::NAN]));
        assert_ne!(n, Column::from_f64(vec![0.0]));
        // Dtype still distinguishes: all-null Int vs all-null Float.
        let ni = Column::from_i64(vec![7]).take_opt(&[None]);
        let nf = Column::from_f64(vec![7.0]).take_opt(&[None]);
        assert_ne!(ni, nf);
    }

    #[test]
    fn take_all_nulls_keeps_dtype() {
        let c = Column::from_values(vec![Value::Null, Value::Int(5)]).unwrap();
        let t = c.take(&[0, 0]);
        assert_eq!(t.dtype(), DType::Int);
        assert_eq!(t.count_valid(), 0);
    }

    #[test]
    fn from_f64_masked_matches_builder() {
        let dense = Column::from_f64_masked(vec![1.0, 2.0], vec![true, true]);
        assert_eq!(dense, Column::from_f64(vec![1.0, 2.0]));
        assert_eq!(dense.as_f64_slice(), Some(&[1.0, 2.0][..]));
        let gappy = Column::from_f64_masked(vec![1.0, 0.0, 3.0], vec![true, false, true]);
        assert_eq!(
            gappy,
            Column::from_values(vec![Value::Float(1.0), Value::Null, Value::Float(3.0)])
                .unwrap()
        );
        assert!(gappy.is_null_at(1));
    }

    #[test]
    fn all_null_column() {
        let c = Column::nulls_of(DType::Float, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.count_valid(), 0);
        assert!(c.numeric_values().is_empty());
    }
}
