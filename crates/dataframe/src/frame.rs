//! The [`DataFrame`]: a multi-indexed, column-oriented table.

use crate::bitmap::Bitmap;
use crate::colkey::ColKey;
use crate::column::{Column, ColumnBuilder, ConcatPart};
use crate::error::{DfError, Result};
use crate::expr::{BoundSource, PredExpr};
use crate::index::{Index, Key};
use crate::value::{DType, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A column-oriented table with a hierarchical row index and (optionally)
/// grouped column keys. This is the pandas-DataFrame stand-in that backs all
/// three thicket components.
#[derive(Debug)]
pub struct DataFrame {
    index: Index,
    cols: Vec<(ColKey, Column)>,
    lookup: HashMap<ColKey, usize>,
    /// Column-axis position cache: bare name → column positions carrying
    /// it, so [`DataFrame::column_named`] on wide composed frames (560
    /// grouped profile columns) is an O(1) amortized lookup instead of a
    /// scan. Same rules as the row-index cache in [`Index`]: built once on
    /// first use, discarded when the column set mutates, cold on clone.
    name_cache: OnceLock<HashMap<Arc<str>, Vec<usize>>>,
}

// The name cache is derived state: equality and cloning consider only
// the index and the columns (`lookup` is itself derived from `cols`,
// so comparing it adds nothing).
impl Clone for DataFrame {
    fn clone(&self) -> Self {
        DataFrame {
            index: self.index.clone(),
            cols: self.cols.clone(),
            lookup: self.lookup.clone(),
            name_cache: OnceLock::new(),
        }
    }
}

impl PartialEq for DataFrame {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.cols == other.cols
    }
}

impl DataFrame {
    /// An empty frame over `index` (no columns yet).
    pub fn new(index: Index) -> Self {
        DataFrame {
            index,
            cols: Vec::new(),
            lookup: HashMap::new(),
            name_cache: OnceLock::new(),
        }
    }

    /// Build a frame from an index and columns, validating lengths.
    pub fn from_columns(
        index: Index,
        cols: impl IntoIterator<Item = (ColKey, Column)>,
    ) -> Result<Self> {
        let mut df = DataFrame::new(index);
        for (k, c) in cols {
            df.insert(k, c)?;
        }
        Ok(df)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// The row index.
    pub fn index(&self) -> &Index {
        &self.index
    }

    /// Column keys in insertion order.
    pub fn column_keys(&self) -> Vec<ColKey> {
        self.cols.iter().map(|(k, _)| k.clone()).collect()
    }

    /// `true` if a column with this key exists.
    pub fn has_column(&self, key: &ColKey) -> bool {
        self.lookup.contains_key(key)
    }

    /// Insert a column; fails on duplicate key or length mismatch.
    pub fn insert(&mut self, key: impl Into<ColKey>, col: Column) -> Result<()> {
        let key = key.into();
        if self.lookup.contains_key(&key) {
            return Err(DfError::DuplicateColumn(key));
        }
        if col.len() != self.len() {
            return Err(DfError::LengthMismatch {
                expected: self.len(),
                actual: col.len(),
            });
        }
        self.lookup.insert(key.clone(), self.cols.len());
        self.cols.push((key, col));
        self.name_cache.take();
        Ok(())
    }

    /// Insert a column built from dynamic values.
    pub fn insert_values(
        &mut self,
        key: impl Into<ColKey>,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<()> {
        self.insert(key, Column::from_values(values)?)
    }

    /// Borrow a column.
    pub fn column(&self, key: &ColKey) -> Result<&Column> {
        self.lookup
            .get(key)
            .map(|&i| &self.cols[i].1)
            .ok_or_else(|| DfError::MissingColumn(key.clone()))
    }

    /// The lazily-built name → column-positions map (one pass over the
    /// column keys, amortized over every subsequent by-name lookup).
    pub(crate) fn name_positions(&self) -> &HashMap<Arc<str>, Vec<usize>> {
        self.name_cache.get_or_init(|| {
            let mut map: HashMap<Arc<str>, Vec<usize>> =
                HashMap::with_capacity(self.cols.len());
            for (i, (k, _)) in self.cols.iter().enumerate() {
                map.entry(k.name.clone()).or_default().push(i);
            }
            map
        })
    }

    /// Borrow a column by bare name, ignoring group labels; fails if the
    /// name is ambiguous across groups. O(1) amortized through the
    /// column-axis position cache.
    pub fn column_named(&self, name: &str) -> Result<&Column> {
        match self.name_positions().get(name).map(Vec::as_slice) {
            Some([i]) => Ok(&self.cols[*i].1),
            Some(_) => Err(DfError::Other(format!(
                "column name {name:?} is ambiguous across groups"
            ))),
            None => Err(DfError::MissingColumn(ColKey::new(name))),
        }
    }

    /// Cell access.
    pub fn value(&self, row: usize, key: &ColKey) -> Result<Value> {
        Ok(self.column(key)?.get(row))
    }

    /// Iterate `(key, column)` pairs in order.
    pub fn columns(&self) -> impl Iterator<Item = (&ColKey, &Column)> {
        self.cols.iter().map(|(k, c)| (k, c))
    }

    /// A read-only view of one row.
    pub fn row(&self, row: usize) -> RowRef<'_> {
        RowRef { df: self, row }
    }

    /// New frame with only the requested columns (in the given order).
    pub fn select(&self, keys: &[ColKey]) -> Result<DataFrame> {
        let mut df = DataFrame::new(self.index.clone());
        for k in keys {
            df.insert(k.clone(), self.column(k)?.clone())?;
        }
        Ok(df)
    }

    /// New frame containing the given row positions (in order).
    pub fn take(&self, rows: &[usize]) -> DataFrame {
        let mut df = DataFrame::new(self.index.take(rows));
        for (k, c) in &self.cols {
            df.insert(k.clone(), c.take(rows)).expect("lengths match");
        }
        df
    }

    /// New frame with index level `level` rewritten through `f`: the one
    /// way rows move onto another graph or another profile index. A row
    /// `f` maps to `None` is dropped; every other row keeps its place
    /// and every column. Rows are not re-sorted. Fails with `f`'s first
    /// error, or when the index has no such level.
    pub fn map_level<E: From<DfError>>(
        &self,
        level: &str,
        mut f: impl FnMut(&Value) -> std::result::Result<Option<Value>, E>,
    ) -> std::result::Result<DataFrame, E> {
        let at = self.index.level_pos(level)?;
        let mut keys = Vec::with_capacity(self.len());
        let mut rows = Vec::with_capacity(self.len());
        for (row, key) in self.index.keys().iter().enumerate() {
            if let Some(v) = f(&key[at])? {
                let mut key = key.clone();
                key[at] = v;
                keys.push(key);
                rows.push(row);
            }
        }
        let cols = if rows.len() == self.len() {
            self.cols.clone()
        } else {
            self.cols
                .iter()
                .map(|(k, c)| (k.clone(), c.take(&rows)))
                .collect()
        };
        Ok(DataFrame {
            index: Index::new(self.index.names().to_vec(), keys)?,
            cols,
            lookup: self.lookup.clone(),
            name_cache: OnceLock::new(),
        })
    }

    /// Keep only rows where `pred` holds.
    pub fn filter<F: FnMut(RowRef<'_>) -> bool>(&self, mut pred: F) -> DataFrame {
        let rows: Vec<usize> = (0..self.len())
            .filter(|&i| pred(RowRef { df: self, row: i }))
            .collect();
        self.take(&rows)
    }

    /// Bind the fields a [`PredExpr`] reads against this frame: a uniquely
    /// named column binds its typed storage; otherwise an index level of
    /// that name is materialized. Fields that resolve to neither (missing,
    /// or group-ambiguous column names) stay unbound and match no rows.
    pub fn bind_source(&self, expr: &PredExpr) -> BoundSource<'_> {
        let mut src = BoundSource::new(self.len());
        for field in expr.fields() {
            if let Ok(col) = self.column_named(field) {
                src.bind_column(field, col);
            } else if let Ok(values) = self.index.level_values(field) {
                src.bind_values(field, values);
            }
        }
        src
    }

    /// Filter rows with the vectorized predicate engine. Fields resolve to
    /// columns first, then index levels (see [`DataFrame::bind_source`]);
    /// a field the frame doesn't have matches no rows.
    pub fn filter_expr(&self, expr: &PredExpr) -> DataFrame {
        let src = self.bind_source(expr);
        self.take(&expr.eval(&src).positions())
    }

    /// The selection bitmap a [`PredExpr`] produces over this frame,
    /// without materializing the filtered frame.
    pub fn select_rows(&self, expr: &PredExpr) -> Bitmap {
        expr.eval(&self.bind_source(expr))
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let rows: Vec<usize> = (0..self.len().min(n)).collect();
        self.take(&rows)
    }

    /// New frame sorted by the row index (stable).
    pub fn sort_by_index(&self) -> DataFrame {
        self.take(&self.index.argsort())
    }

    /// New frame sorted by a column (stable; nulls always sort last,
    /// regardless of direction).
    pub fn sort_by(&self, key: &ColKey, ascending: bool) -> Result<DataFrame> {
        let col = self.column(key)?;
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            let va = col.get(a);
            let vb = col.get(b);
            // Nulls always sort to the end regardless of direction.
            match (va.is_null(), vb.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => {
                    if ascending {
                        va.cmp(&vb)
                    } else {
                        vb.cmp(&va)
                    }
                }
            }
        });
        Ok(self.take(&order))
    }

    /// Distinct values of one column, in first-seen order.
    pub fn unique(&self, key: &ColKey) -> Result<Vec<Value>> {
        let col = self.column(key)?;
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for v in col.iter() {
            if seen.insert(v.clone()) {
                out.push(v);
            }
        }
        Ok(out)
    }

    /// New frame with every column key re-labelled under `group`
    /// (used when composing thickets along the column axis).
    pub fn with_column_group(&self, group: &str) -> DataFrame {
        let mut df = DataFrame::new(self.index.clone());
        for (k, c) in &self.cols {
            df.insert(k.under(group), c.clone()).expect("unique keys");
        }
        df
    }

    /// New frame with one column renamed.
    pub fn rename(&self, from: &ColKey, to: impl Into<ColKey>) -> Result<DataFrame> {
        let to = to.into();
        if !self.has_column(from) {
            return Err(DfError::MissingColumn(from.clone()));
        }
        let mut df = DataFrame::new(self.index.clone());
        for (k, c) in &self.cols {
            let nk = if k == from { to.clone() } else { k.clone() };
            df.insert(nk, c.clone())?;
        }
        Ok(df)
    }

    /// Stack the frames' rows in order. The frames must share their index
    /// level names. Columns are unioned in first-seen order, a frame that
    /// lacks a column contributes nulls, and dtypes promote over the cells
    /// (all-null runs are neutral), so the result equals one
    /// [`FrameBuilder`] fed every frame's rows in order. Each column is
    /// one typed concatenation: no cell is boxed or re-hashed.
    pub fn concat_rows(frames: &[&DataFrame]) -> Result<DataFrame> {
        let first = frames.first().ok_or(DfError::Empty("concat_rows"))?;
        let names = first.index.names();
        let mut keys = Vec::with_capacity(frames.iter().map(|f| f.len()).sum());
        let mut seen: std::collections::HashSet<&ColKey> = std::collections::HashSet::new();
        let mut order: Vec<&ColKey> = Vec::new();
        for f in frames {
            if f.index.names() != names {
                return Err(DfError::IndexMismatch(format!(
                    "level names {:?} vs {:?}",
                    f.index.names(),
                    names
                )));
            }
            keys.extend_from_slice(f.index.keys());
            order.extend(f.cols.iter().map(|(k, _)| k).filter(|k| seen.insert(k)));
        }
        let mut df = DataFrame::new(Index::new(names.to_vec(), keys)?);
        for key in order {
            let parts: Vec<ConcatPart<'_>> = frames
                .iter()
                .map(|f| match f.lookup.get(key) {
                    Some(&i) => ConcatPart::Col(&f.cols[i].1),
                    None => ConcatPart::Nulls(f.len()),
                })
                .collect();
            df.insert(key.clone(), concat_promoted(&parts)?)?;
        }
        Ok(df)
    }

    /// `DataFrame::concat_rows(&[self, other])?.sort_by_index()`, computed
    /// as one linear merge when both frames are already ordered by index
    /// (ties keep this frame's rows first, as the stable sort does).
    pub fn merge_sorted(&self, other: &DataFrame) -> Result<DataFrame> {
        let (a, b) = (sorted_view(self), sorted_view(other));
        let (ka, kb) = (a.index.keys(), b.index.keys());
        let mut order = Vec::with_capacity(ka.len() + kb.len());
        let (mut i, mut j) = (0, 0);
        while i < ka.len() && j < kb.len() {
            if kb[j] < ka[i] {
                order.push(ka.len() + j);
                j += 1;
            } else {
                order.push(i);
                i += 1;
            }
        }
        order.extend(i..ka.len());
        order.extend(ka.len() + j..ka.len() + kb.len());
        Ok(DataFrame::concat_rows(&[&a, &b])?.take(&order))
    }
}

/// Read-only view of one dataframe row, used by filter predicates.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    df: &'a DataFrame,
    row: usize,
}

impl<'a> RowRef<'a> {
    /// Position of this row in the frame.
    pub fn position(&self) -> usize {
        self.row
    }

    /// Value of an index level (`Null` if the level does not exist).
    pub fn level(&self, name: &str) -> Value {
        self.df.index.get(self.row, name).unwrap_or(Value::Null)
    }

    /// Cell value (`Null` if the column does not exist).
    pub fn get(&self, key: impl Into<ColKey>) -> Value {
        let key = key.into();
        self.df
            .column(&key)
            .map(|c| c.get(self.row))
            .unwrap_or(Value::Null)
    }

    /// Numeric cell value.
    pub fn f64(&self, key: impl Into<ColKey>) -> Option<f64> {
        self.get(key).as_f64()
    }

    /// String cell value.
    pub fn str(&self, key: impl Into<ColKey>) -> Option<String> {
        self.get(key).as_str().map(str::to_owned)
    }
}

/// Build a [`DataFrame`] row by row when the shape isn't known up front.
pub struct FrameBuilder {
    names: Vec<String>,
    keys: Vec<Key>,
    col_order: Vec<ColKey>,
    builders: HashMap<ColKey, ColumnBuilder>,
}

impl FrameBuilder {
    /// New builder over the given index level names.
    pub fn new(level_names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        FrameBuilder {
            names: level_names.into_iter().map(Into::into).collect(),
            keys: Vec::new(),
            col_order: Vec::new(),
            builders: HashMap::new(),
        }
    }

    /// Append one row: an index key plus `(column, value)` cells. Columns
    /// unseen so far are created and back-filled with nulls; columns absent
    /// from this row get null.
    pub fn push_row(
        &mut self,
        key: Key,
        cells: impl IntoIterator<Item = (ColKey, Value)>,
    ) -> Result<()> {
        if key.len() != self.names.len() {
            return Err(DfError::IndexMismatch(format!(
                "key has {} values but the index has {} levels",
                key.len(),
                self.names.len()
            )));
        }
        let row = self.keys.len();
        self.keys.push(key);
        let mut filled: std::collections::HashSet<ColKey> = std::collections::HashSet::new();
        for (ck, v) in cells {
            if !self.builders.contains_key(&ck) {
                let mut b = ColumnBuilder::new();
                for _ in 0..row {
                    b.push(Value::Null).expect("null always accepted");
                }
                self.builders.insert(ck.clone(), b);
                self.col_order.push(ck.clone());
            }
            self.builders
                .get_mut(&ck)
                .expect("just inserted")
                .push(v)?;
            filled.insert(ck);
        }
        // Null-pad columns this row did not mention.
        for ck in &self.col_order {
            if !filled.contains(ck) {
                let b = self.builders.get_mut(ck).unwrap();
                if b.len() == row {
                    b.push(Value::Null).expect("null always accepted");
                }
            }
        }
        Ok(())
    }

    /// Materialize the frame.
    pub fn finish(self) -> Result<DataFrame> {
        let index = Index::new(self.names, self.keys)?;
        let mut builders = self.builders;
        let mut df = DataFrame::new(index);
        for ck in self.col_order {
            let b = builders.remove(&ck).expect("builder exists");
            df.insert(ck, b.finish())?;
        }
        Ok(df)
    }
}

/// `frame` itself when its rows are ordered by index, else a sorted copy.
fn sorted_view(frame: &DataFrame) -> std::borrow::Cow<'_, DataFrame> {
    if frame.index.is_sorted() {
        std::borrow::Cow::Borrowed(frame)
    } else {
        std::borrow::Cow::Owned(frame.sort_by_index())
    }
}

/// Concatenate column parts under their common cell-level dtype:
/// all-null parts are neutral, mirroring how a row builder only sees
/// their cells as nulls.
fn concat_promoted(parts: &[ConcatPart<'_>]) -> Result<Column> {
    let mut target = DType::Null;
    for p in parts {
        if let ConcatPart::Col(c) = p {
            let eff = c.effective_dtype();
            target = target
                .promote(eff)
                .ok_or_else(|| DfError::type_error(target, eff))?;
        }
    }
    Ok(Column::concat_parts(target, parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        let index = Index::pairs(
            ("node", "profile"),
            vec![(1i64, 10i64), (1, 20), (2, 10), (2, 20)],
        );
        let mut df = DataFrame::new(index);
        df.insert("time", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        df.insert("reps", Column::from_i64(vec![100, 100, 200, 200]))
            .unwrap();
        df.insert("variant", Column::from_strs(["seq", "omp", "seq", "omp"]))
            .unwrap();
        df
    }

    #[test]
    fn insert_validates() {
        let mut df = sample();
        assert!(matches!(
            df.insert("time", Column::from_f64(vec![0.0; 4])),
            Err(DfError::DuplicateColumn(_))
        ));
        assert!(matches!(
            df.insert("short", Column::from_f64(vec![0.0])),
            Err(DfError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn select_and_drop() {
        let df = sample();
        let s = df.select(&[ColKey::new("reps")]).unwrap();
        assert_eq!(s.ncols(), 1);
        assert_eq!(s.len(), 4);
        assert!(df.select(&[ColKey::new("nope")]).is_err());
    }

    #[test]
    fn filter_by_row_view() {
        let df = sample();
        let f = df.filter(|r| r.str("variant").as_deref() == Some("omp"));
        assert_eq!(f.len(), 2);
        assert_eq!(f.index().key(0), &vec![Value::Int(1), Value::Int(20)]);
    }

    #[test]
    fn filter_on_index_level() {
        let df = sample();
        let f = df.filter(|r| r.level("node") == Value::Int(2));
        assert_eq!(f.len(), 2);
        assert_eq!(f.column(&ColKey::new("time")).unwrap().numeric_values(), vec![3.0, 4.0]);
    }

    #[test]
    fn map_level_rewrites_one_level_and_drops_rows() {
        let df = sample();
        let named = df
            .map_level("node", |v| {
                Ok::<_, DfError>(match v.as_i64() {
                    Some(1) => Some(Value::from("one")),
                    _ => None,
                })
            })
            .unwrap();
        assert_eq!(named.len(), 2);
        assert_eq!(named.index().names(), df.index().names());
        assert_eq!(
            named.index().key(1),
            &vec![Value::from("one"), Value::Int(20)]
        );
        assert_eq!(named.column_keys(), df.column_keys());
        assert_eq!(
            named.column(&ColKey::new("time")).unwrap().numeric_values(),
            vec![1.0, 2.0]
        );
        // Nothing dropped: the columns come through whole.
        let same = df
            .map_level("profile", |v| Ok::<_, DfError>(Some(v.clone())))
            .unwrap();
        assert_eq!(same, df);
        let err = df.map_level("profile", |_| {
            Err::<Option<Value>, _>(DfError::Other("no".into()))
        });
        assert!(matches!(err, Err(DfError::Other(_))));
        assert!(matches!(
            df.map_level("nope", |v| Ok::<_, DfError>(Some(v.clone()))),
            Err(DfError::MissingLevel(_))
        ));
    }

    #[test]
    fn sort_by_column_desc_nulls_last() {
        let index = Index::single("i", vec![0i64, 1, 2]);
        let mut df = DataFrame::new(index);
        df.insert_values(
            "x",
            vec![Value::Float(1.0), Value::Null, Value::Float(5.0)],
        )
        .unwrap();
        let sorted = df.sort_by(&ColKey::new("x"), false).unwrap();
        let vals: Vec<Value> = sorted.column(&ColKey::new("x")).unwrap().iter().collect();
        assert_eq!(vals, vec![Value::Float(5.0), Value::Float(1.0), Value::Null]);
    }

    #[test]
    fn unique_first_seen_order() {
        let df = sample();
        assert_eq!(
            df.unique(&ColKey::new("variant")).unwrap(),
            vec![Value::from("seq"), Value::from("omp")]
        );
    }

    #[test]
    fn column_group_relabel() {
        let df = sample().with_column_group("CPU");
        assert!(df.has_column(&ColKey::grouped("CPU", "time")));
        assert!(!df.has_column(&ColKey::new("time")));
    }

    #[test]
    fn concat_rows_matches_columns() {
        let a = sample();
        let b = sample();
        let c = DataFrame::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 8);
        assert_eq!(c.ncols(), 3);
    }

    #[test]
    fn concat_rows_rejects_mismatched_levels() {
        let a = sample();
        let idx = Index::single("other", vec![1i64]);
        let mut b = DataFrame::new(idx);
        b.insert("time", Column::from_f64(vec![0.0])).unwrap();
        assert!(DataFrame::concat_rows(&[&a, &b]).is_err());
    }

    #[test]
    fn frame_builder_backfills_nulls() {
        let mut fb = FrameBuilder::new(["profile"]);
        fb.push_row(
            vec![Value::Int(1)],
            vec![(ColKey::new("a"), Value::Int(10))],
        )
        .unwrap();
        fb.push_row(
            vec![Value::Int(2)],
            vec![
                (ColKey::new("a"), Value::Int(20)),
                (ColKey::new("b"), Value::from("x")),
            ],
        )
        .unwrap();
        fb.push_row(vec![Value::Int(3)], vec![]).unwrap();
        let df = fb.finish().unwrap();
        assert_eq!(df.len(), 3);
        let b = df.column(&ColKey::new("b")).unwrap();
        assert!(b.is_null_at(0));
        assert_eq!(b.get(1), Value::from("x"));
        assert!(b.is_null_at(2));
    }

    #[test]
    fn rename_column() {
        let df = sample();
        let r = df.rename(&ColKey::new("time"), "time (exc)").unwrap();
        assert!(r.has_column(&ColKey::new("time (exc)")));
        assert!(df.rename(&ColKey::new("zzz"), "w").is_err());
    }

    #[test]
    fn head_truncates() {
        let df = sample();
        assert_eq!(df.head(2).len(), 2);
        assert_eq!(df.head(10).len(), 4);
    }

    #[test]
    fn column_named_resolves_unambiguous() {
        let df = sample().with_column_group("CPU");
        assert!(df.column_named("time").is_ok());
        let mut both = df.clone();
        both.insert(ColKey::grouped("GPU", "time"), Column::from_f64(vec![0.0; 4]))
            .unwrap();
        assert!(both.column_named("time").is_err());
    }

    #[test]
    fn sort_by_column_asc_nulls_last() {
        let index = Index::single("i", vec![0i64, 1, 2, 3]);
        let mut df = DataFrame::new(index);
        df.insert_values(
            "x",
            vec![Value::Null, Value::Float(5.0), Value::Float(1.0), Value::Null],
        )
        .unwrap();
        let sorted = df.sort_by(&ColKey::new("x"), true).unwrap();
        let vals: Vec<Value> = sorted.column(&ColKey::new("x")).unwrap().iter().collect();
        assert_eq!(
            vals,
            vec![Value::Float(1.0), Value::Float(5.0), Value::Null, Value::Null]
        );
    }

    #[test]
    fn name_cache_built_once_and_invalidated_on_insert() {
        let mut df = sample();
        // First lookup builds the cache; the second must reuse the same map
        // allocation (no O(columns) rescan).
        let first = df.name_positions() as *const _;
        assert!(df.column_named("time").is_ok());
        let second = df.name_positions() as *const _;
        assert_eq!(first, second);
        // Mutating the column set discards the cache...
        df.insert("extra", Column::from_i64(vec![0; 4])).unwrap();
        assert!(df.name_cache.get().is_none());
        // ...and the rebuilt cache sees the new column.
        assert!(df.column_named("extra").is_ok());
        // Clones start cold but still resolve.
        let cl = df.clone();
        assert!(cl.name_cache.get().is_none());
        assert!(cl.column_named("extra").is_ok());
    }

    /// `sample()`'s rows `rows`, fed through a [`FrameBuilder`].
    fn sample_rows(rows: impl IntoIterator<Item = usize>) -> DataFrame {
        let src = sample();
        let mut fb = FrameBuilder::new(["node", "profile"]);
        for i in rows {
            let cells = src.columns().map(|(k, c)| (k.clone(), c.get(i)));
            fb.push_row(src.index().key(i).clone(), cells).unwrap();
        }
        fb.finish().unwrap()
    }

    #[test]
    fn concat_rows_matches_frame_builder() {
        let (a, b) = (sample_rows(0..2), sample_rows(2..4));
        assert_eq!(DataFrame::concat_rows(&[&a, &b]).unwrap(), sample());
    }

    #[test]
    fn concat_rows_then_sort_matches_frame_builder() {
        // Pooling along the profile axis: each piece holds one profile's
        // rows, so the stack interleaves only after sorting by index.
        let (p10, p20) = (sample_rows([0, 2]), sample_rows([1, 3]));
        let stacked = DataFrame::concat_rows(&[&p20, &p10]).unwrap();
        assert_eq!(stacked.len(), 4);
        assert_eq!(stacked.sort_by_index(), sample());
        let other_levels = DataFrame::new(Index::empty(["x"]));
        assert!(DataFrame::concat_rows(&[&p10, &other_levels]).is_err());
    }

    #[test]
    fn concat_rows_schema_union_backfills_nulls() {
        // Frame 1 only has column `a`; frame 2 only `b`. The union must
        // null-fill each side, in first-seen column order.
        let f1 = DataFrame::from_columns(
            Index::single("profile", vec![1i64, 2]),
            [(ColKey::new("a"), Column::from_i64(vec![10, 20]))],
        )
        .unwrap();
        let f2 = DataFrame::from_columns(
            Index::single("profile", vec![3i64]),
            [(ColKey::new("b"), Column::from_strs(["x"]))],
        )
        .unwrap();

        let stacked = DataFrame::concat_rows(&[&f1, &f2]).unwrap();

        let mut fb = FrameBuilder::new(["profile"]);
        fb.push_row(vec![Value::Int(1)], vec![(ColKey::new("a"), Value::Int(10))])
            .unwrap();
        fb.push_row(vec![Value::Int(2)], vec![(ColKey::new("a"), Value::Int(20))])
            .unwrap();
        fb.push_row(
            vec![Value::Int(3)],
            vec![(ColKey::new("b"), Value::from("x"))],
        )
        .unwrap();
        let serial = fb.finish().unwrap();

        assert_eq!(stacked, serial);
        assert_eq!(stacked.column_keys(), serial.column_keys());
        assert_eq!(
            stacked.column(&ColKey::new("a")).unwrap().dtype(),
            DType::Int
        );
        assert!(stacked.column(&ColKey::new("b")).unwrap().is_null_at(0));
    }

    /// One-column frame `m` over index level `i`, starting at key `at`.
    fn one_column(at: i64, col: Column) -> DataFrame {
        let keys = (at..at + col.len() as i64).collect::<Vec<_>>();
        DataFrame::from_columns(Index::single("i", keys), [(ColKey::new("m"), col)]).unwrap()
    }

    #[test]
    fn concat_rows_promotes_int_to_float() {
        let a = one_column(0, Column::from_i64(vec![3]));
        let b = one_column(1, Column::from_f64(vec![0.5]));
        let stacked = DataFrame::concat_rows(&[&a, &b]).unwrap();
        let m = stacked.column(&ColKey::new("m")).unwrap();
        assert_eq!(m.dtype(), DType::Float);
        assert_eq!(m.numeric_values(), vec![3.0, 0.5]);
    }

    #[test]
    fn concat_rows_uses_cell_level_dtype() {
        // A fully masked Float column is dtype-neutral cell-wise: a
        // builder over the cells infers Int here, and so does the stack.
        let masked = one_column(0, Column::from_f64(vec![7.0]).take_opt(&[None]));
        let m = masked.column(&ColKey::new("m")).unwrap();
        assert_eq!(m.dtype(), DType::Float);
        let ints = one_column(1, Column::from_i64(vec![5]));
        let stacked = DataFrame::concat_rows(&[&masked, &ints]).unwrap();
        let m = stacked.column(&ColKey::new("m")).unwrap();
        assert_eq!(m.dtype(), DType::Int);
        assert!(m.is_null_at(0));
        assert_eq!(m.get(1), Value::Int(5));
        // Both sides all-null: no cell names a dtype, as in the builder.
        let other = one_column(1, Column::from_i64(vec![1]).take_opt(&[None]));
        let stacked = DataFrame::concat_rows(&[&masked, &other]).unwrap();
        let mut fb = FrameBuilder::new(["i"]);
        for i in 0..2 {
            fb.push_row(vec![Value::Int(i)], vec![(ColKey::new("m"), Value::Null)])
                .unwrap();
        }
        assert_eq!(stacked, fb.finish().unwrap());
        assert_eq!(stacked.column(&ColKey::new("m")).unwrap().count_valid(), 0);
    }

    #[test]
    fn concat_rows_rejects_incompatible_dtypes() {
        let a = one_column(0, Column::from_i64(vec![3]));
        let b = one_column(1, Column::from_strs(["oops"]));
        assert!(matches!(
            DataFrame::concat_rows(&[&a, &b]),
            Err(DfError::TypeError { .. })
        ));
    }

    #[test]
    fn concat_rows_rejects_empty_input() {
        assert!(matches!(
            DataFrame::concat_rows(&[]),
            Err(DfError::Empty(_))
        ));
    }

    #[test]
    fn merge_sorted_matches_concat_then_sort() {
        let a = DataFrame::from_columns(
            Index::pairs(("node", "profile"), vec![(0i64, 1i64), (2, 1), (2, 5)]),
            [(ColKey::new("x"), Column::from_i64(vec![1, 2, 3]))],
        )
        .unwrap();
        let b = DataFrame::from_columns(
            Index::pairs(("node", "profile"), vec![(2i64, 1i64), (1, 9), (3, 0)]),
            [
                (ColKey::new("y"), Column::from_strs(["p", "q", "r"])),
                (ColKey::new("x"), Column::from_f64(vec![0.5, 1.5, 2.5])),
            ],
        )
        .unwrap();
        // `b` is not ordered and ties `a` on (2, 1): `a`'s row goes first.
        let want = DataFrame::concat_rows(&[&a, &b]).unwrap().sort_by_index();
        let got = a.merge_sorted(&b).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.column_keys(), vec![ColKey::new("x"), ColKey::new("y")]);
        assert_eq!(got.column(&ColKey::new("x")).unwrap().get(2), Value::Float(2.0));
        assert_eq!(got.column(&ColKey::new("x")).unwrap().get(3), Value::Float(0.5));
    }
}
