//! The unified predicate engine: a typed expression AST plus a vectorized
//! evaluator producing selection [`Bitmap`]s straight from [`Column`]
//! storage.
//!
//! Every filter surface in the workspace speaks [`PredExpr`]: store
//! metadata pushdown and the thicket loader take it directly, and the
//! query crate's string dialect and the core `filter_*` ops compile into
//! it. One AST means one set of semantics:
//!
//! * **Missing key is false.** A field the source doesn't provide, or a
//!   null cell (a typed column's null or a stored `Value::Null` alike),
//!   satisfies no leaf — not even `!=`, not even `== null`. `Not` still
//!   sees the leaf's `false`, so `!(x == 1)` *does* match rows without
//!   `x`.
//! * **Equality is [`Value`] equality**: `Int`/`Float` compare numerically,
//!   `NaN == NaN`, different kinds are simply unequal.
//! * **Ordering is kind-guarded**: `<`/`<=`/`>`/`>=` only hold between two
//!   numerics, two strings, or two bools; any other pairing is `false`
//!   (no cross-kind rank ordering).
//! * `And([]) == true`, `Or([]) == false`.
//!
//! Three evaluators share those semantics:
//!
//! * [`PredExpr::eval`] — the vectorized engine. Leaves run monomorphic
//!   loops over the typed column `Vec`s (no per-row [`Value`]
//!   materialization); `And`/`Or` thread a *mask* bitmap down so later
//!   conjuncts only test still-live rows, skip all-dead 64-row words, and
//!   stop entirely once the mask empties.
//! * [`PredExpr::eval_rowwise`] / [`PredExpr::eval_row`] — an independent
//!   row-at-a-time reference implementation (field lookup + `Value`
//!   boxing per row) kept for equivalence testing and as the honest
//!   baseline in benchmarks.
//! * [`PredExpr::eval_lookup`] — the same scalar semantics over any
//!   `name -> Option<Value>` lookup, for non-columnar hosts (graph nodes,
//!   profile metadata maps).
//!
//! The mask invariant throughout: every bitmap an evaluator returns has
//! bits set only where the incoming mask had them set, so `And` chains
//! stay monotonically shrinking and `Or` never double-counts.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::value::{cmp_f64, Value};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// Comparison operator for [`PredExpr::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredOp {
    /// `==` — [`Value`] equality (numeric across `Int`/`Float`, `NaN == NaN`).
    Eq,
    /// `!=` — present and not `Value`-equal (cross-kind values *are* unequal).
    Ne,
    /// `<` — kind-guarded ordering.
    Lt,
    /// `<=` — kind-guarded ordering.
    Le,
    /// `>` — kind-guarded ordering.
    Gt,
    /// `>=` — kind-guarded ordering.
    Ge,
}

impl PredOp {
    /// Does an `Ordering` between two *comparable* values satisfy this op?
    #[inline]
    fn ord_matches(self, ord: Ordering) -> bool {
        match self {
            PredOp::Eq => ord == Ordering::Equal,
            PredOp::Ne => ord != Ordering::Equal,
            PredOp::Lt => ord == Ordering::Less,
            PredOp::Le => ord != Ordering::Greater,
            PredOp::Gt => ord == Ordering::Greater,
            PredOp::Ge => ord != Ordering::Less,
        }
    }

    /// `true` for the four ordering operators (which need the kind guard).
    fn is_ordering(self) -> bool {
        !matches!(self, PredOp::Eq | PredOp::Ne)
    }

    /// Source-dialect spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            PredOp::Eq => "==",
            PredOp::Ne => "!=",
            PredOp::Lt => "<",
            PredOp::Le => "<=",
            PredOp::Gt => ">",
            PredOp::Ge => ">=",
        }
    }
}

/// String-matching operator for [`PredExpr::Str`]. Only matches `Str`
/// values; any other kind (or a missing field) is `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrMatch {
    /// Value starts with the needle.
    StartsWith,
    /// Value ends with the needle.
    EndsWith,
    /// Value contains the needle.
    Contains,
}

impl StrMatch {
    #[inline]
    fn matches(self, hay: &str, needle: &str) -> bool {
        match self {
            StrMatch::StartsWith => hay.starts_with(needle),
            StrMatch::EndsWith => hay.ends_with(needle),
            StrMatch::Contains => hay.contains(needle),
        }
    }

    /// Source-dialect spelling.
    pub fn keyword(self) -> &'static str {
        match self {
            StrMatch::StartsWith => "startswith",
            StrMatch::EndsWith => "endswith",
            StrMatch::Contains => "contains",
        }
    }
}

/// A typed predicate over named fields — the one AST every filter surface
/// compiles into. See the module docs for the exact semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum PredExpr {
    /// Matches every row.
    True,
    /// `field <op> value`.
    Cmp {
        /// Field (column, index level, or metadata key) name.
        field: String,
        /// Comparison operator.
        op: PredOp,
        /// Literal to compare against.
        value: Value,
    },
    /// `field startswith/endswith/contains "needle"`.
    Str {
        /// Field name.
        field: String,
        /// Which string match.
        op: StrMatch,
        /// Substring to look for.
        needle: String,
    },
    /// Field's value is `Value`-equal to any of the listed values.
    In {
        /// Field name.
        field: String,
        /// Candidate values (`Value` equality, so `Int(4)` matches `Float(4.0)`).
        values: Vec<Value>,
    },
    /// Every branch matches (`And([]) == true`).
    And(Vec<PredExpr>),
    /// Any branch matches (`Or([]) == false`).
    Or(Vec<PredExpr>),
    /// Branch does not match.
    Not(Box<PredExpr>),
}

impl PredExpr {
    /// `field == value`.
    pub fn eq(field: impl Into<String>, value: impl Into<Value>) -> PredExpr {
        PredExpr::Cmp {
            field: field.into(),
            op: PredOp::Eq,
            value: value.into(),
        }
    }

    /// `field != value` (present and not equal).
    pub fn ne(field: impl Into<String>, value: impl Into<Value>) -> PredExpr {
        PredExpr::Cmp {
            field: field.into(),
            op: PredOp::Ne,
            value: value.into(),
        }
    }

    /// `field < value`.
    pub fn lt(field: impl Into<String>, value: impl Into<Value>) -> PredExpr {
        PredExpr::Cmp {
            field: field.into(),
            op: PredOp::Lt,
            value: value.into(),
        }
    }

    /// `field <= value`.
    pub fn le(field: impl Into<String>, value: impl Into<Value>) -> PredExpr {
        PredExpr::Cmp {
            field: field.into(),
            op: PredOp::Le,
            value: value.into(),
        }
    }

    /// `field > value`.
    pub fn gt(field: impl Into<String>, value: impl Into<Value>) -> PredExpr {
        PredExpr::Cmp {
            field: field.into(),
            op: PredOp::Gt,
            value: value.into(),
        }
    }

    /// `field >= value`.
    pub fn ge(field: impl Into<String>, value: impl Into<Value>) -> PredExpr {
        PredExpr::Cmp {
            field: field.into(),
            op: PredOp::Ge,
            value: value.into(),
        }
    }

    /// `field in values`.
    pub fn is_in(
        field: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> PredExpr {
        PredExpr::In {
            field: field.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// `field startswith needle`.
    pub fn starts_with(field: impl Into<String>, needle: impl Into<String>) -> PredExpr {
        PredExpr::Str {
            field: field.into(),
            op: StrMatch::StartsWith,
            needle: needle.into(),
        }
    }

    /// `field endswith needle`.
    pub fn ends_with(field: impl Into<String>, needle: impl Into<String>) -> PredExpr {
        PredExpr::Str {
            field: field.into(),
            op: StrMatch::EndsWith,
            needle: needle.into(),
        }
    }

    /// `field contains needle`.
    pub fn contains(field: impl Into<String>, needle: impl Into<String>) -> PredExpr {
        PredExpr::Str {
            field: field.into(),
            op: StrMatch::Contains,
            needle: needle.into(),
        }
    }

    /// Conjunction; flattens nested `And`s and absorbs `True`.
    pub fn and(branches: impl IntoIterator<Item = PredExpr>) -> PredExpr {
        let mut out = Vec::new();
        for b in branches {
            match b {
                PredExpr::True => {}
                PredExpr::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => PredExpr::True,
            1 => out.pop().unwrap(),
            _ => PredExpr::And(out),
        }
    }

    /// Disjunction; flattens nested `Or`s.
    pub fn or(branches: impl IntoIterator<Item = PredExpr>) -> PredExpr {
        let mut out = Vec::new();
        for b in branches {
            match b {
                PredExpr::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            1 => out.pop().unwrap(),
            _ => PredExpr::Or(out),
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(branch: PredExpr) -> PredExpr {
        PredExpr::Not(Box::new(branch))
    }

    /// Every field name the expression reads, deduplicated.
    pub fn fields(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_fields(&mut out);
        out
    }

    fn collect_fields<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            PredExpr::True => {}
            PredExpr::Cmp { field, .. }
            | PredExpr::Str { field, .. }
            | PredExpr::In { field, .. } => {
                out.insert(field.as_str());
            }
            PredExpr::And(bs) | PredExpr::Or(bs) => {
                for b in bs {
                    b.collect_fields(out);
                }
            }
            PredExpr::Not(b) => b.collect_fields(out),
        }
    }

    /// The top-level conjuncts: `And`'s branches (recursively flattened),
    /// or `[self]` for anything else. `True` contributes nothing. This is
    /// what the loader's planner classifies for pushdown.
    pub fn conjuncts(&self) -> Vec<&PredExpr> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a PredExpr>) {
        match self {
            PredExpr::True => {}
            PredExpr::And(bs) => {
                for b in bs {
                    b.collect_conjuncts(out);
                }
            }
            other => out.push(other),
        }
    }

    // ------------------------------------------------------------------
    // Vectorized evaluation
    // ------------------------------------------------------------------

    /// Evaluate vectorized against a source, returning the selection
    /// bitmap over all `src.rows()` rows.
    pub fn eval(&self, src: &dyn PredSource) -> Bitmap {
        self.eval_masked(src, None)
    }

    /// Masked evaluation. Postcondition: bit `i` is set iff `mask` (when
    /// given) has bit `i` set *and* the expression holds at row `i`.
    fn eval_masked(&self, src: &dyn PredSource, mask: Option<&Bitmap>) -> Bitmap {
        let n = src.rows();
        let base = |m: Option<&Bitmap>| m.cloned().unwrap_or_else(|| Bitmap::ones(n));
        match self {
            PredExpr::True => base(mask),
            PredExpr::Cmp { field, op, value } => match src.field(field) {
                Some(FieldView::Col(col)) => eval_cmp_col(col, *op, value, mask, n),
                Some(FieldView::Values { values, present }) => fill(n, mask, |i| {
                    present.is_none_or(|p| p[i])
                        && !values[i].is_null()
                        && scalar_cmp(&values[i], *op, value)
                }),
                None => Bitmap::zeros(n),
            },
            PredExpr::Str { field, op, needle } => match src.field(field) {
                Some(FieldView::Col(col)) => eval_str_col(col, *op, needle, mask, n),
                Some(FieldView::Values { values, present }) => fill(n, mask, |i| {
                    present.is_none_or(|p| p[i])
                        && values[i].as_str().is_some_and(|s| op.matches(s, needle))
                }),
                None => Bitmap::zeros(n),
            },
            PredExpr::In { field, values } => match src.field(field) {
                Some(view) => eval_in(view, values, mask, n),
                None => Bitmap::zeros(n),
            },
            PredExpr::And(branches) => {
                // Thread the shrinking mask through: each conjunct only
                // tests rows every earlier conjunct passed.
                let mut acc = base(mask);
                for b in branches {
                    if !acc.any() {
                        break;
                    }
                    acc = b.eval_masked(src, Some(&acc));
                }
                acc
            }
            PredExpr::Or(branches) => {
                // Each disjunct only tests rows no earlier disjunct matched.
                let mut acc = Bitmap::zeros(n);
                let mut remaining = base(mask);
                for b in branches {
                    if !remaining.any() {
                        break;
                    }
                    let hit = b.eval_masked(src, Some(&remaining));
                    acc.or_assign(&hit);
                    remaining.and_not_assign(&hit);
                }
                acc
            }
            PredExpr::Not(inner) => {
                let hit = inner.eval_masked(src, mask);
                let mut out = base(mask);
                out.and_not_assign(&hit);
                out
            }
        }
    }

    // ------------------------------------------------------------------
    // Row-wise reference evaluation
    // ------------------------------------------------------------------

    /// Row-at-a-time reference evaluation over a whole source. This is the
    /// *baseline* the vectorized engine is benchmarked and proptested
    /// against — it deliberately resolves fields and boxes [`Value`]s per
    /// row, the way the pre-engine filters did.
    pub fn eval_rowwise(&self, src: &dyn PredSource) -> Bitmap {
        Bitmap::from_fn(src.rows(), |i| self.eval_row(src, i))
    }

    /// Does the expression hold at `row`? (Reference semantics.)
    pub fn eval_row(&self, src: &dyn PredSource, row: usize) -> bool {
        self.eval_lookup(&mut |name| src.field(name).and_then(|f| f.value_at(row)))
    }

    /// Scalar evaluation against any `name -> Option<Value>` lookup
    /// (`None` = field absent; a `Value::Null` is absent too).
    pub fn eval_lookup(&self, lookup: &mut dyn FnMut(&str) -> Option<Value>) -> bool {
        match self {
            PredExpr::True => true,
            PredExpr::Cmp { field, op, value } => {
                lookup(field).is_some_and(|v| !v.is_null() && scalar_cmp(&v, *op, value))
            }
            PredExpr::Str { field, op, needle } => lookup(field)
                .is_some_and(|v| v.as_str().is_some_and(|s| op.matches(s, needle))),
            PredExpr::In { field, values } => {
                lookup(field).is_some_and(|v| !v.is_null() && values.contains(&v))
            }
            PredExpr::And(bs) => bs.iter().all(|b| b.eval_lookup(lookup)),
            PredExpr::Or(bs) => bs.iter().any(|b| b.eval_lookup(lookup)),
            PredExpr::Not(b) => !b.eval_lookup(lookup),
        }
    }
}

/// Scalar leaf comparison: the single definition of `Cmp` semantics, used
/// by the reference evaluators and the `Values`-view vector path.
#[inline]
fn scalar_cmp(v: &Value, op: PredOp, want: &Value) -> bool {
    if op.is_ordering() {
        comparable_kinds(v, want) && op.ord_matches(v.cmp(want))
    } else {
        op.ord_matches(if v == want {
            Ordering::Equal
        } else {
            Ordering::Less
        })
    }
}

/// Kind guard for ordering comparisons: numerics with numerics, strings
/// with strings, bools with bools; everything else is not ordered.
#[inline]
fn comparable_kinds(a: &Value, b: &Value) -> bool {
    matches!(
        (a, b),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
            | (Value::Str(_), Value::Str(_))
            | (Value::Bool(_), Value::Bool(_))
    )
}

/// How a [`PredSource`] exposes one field to the vectorized evaluator.
pub enum FieldView<'a> {
    /// A typed dataframe column (fast monomorphic leaf loops).
    Col(&'a Column),
    /// A pre-decoded `Value` slice plus an optional presence mask (the
    /// store's columnar metadata index). `present[i] == false` means the
    /// key is absent for row `i`; a *stored* `Value::Null` has
    /// `present[i] == true` but matches no leaf, like an absent key.
    Values {
        /// One value per row.
        values: &'a [Value],
        /// `None` = present everywhere.
        present: Option<&'a [bool]>,
    },
}

impl FieldView<'_> {
    /// The field's value at `row`: `None` when absent/null (columns can't
    /// distinguish the two; `Values` views can and report stored nulls as
    /// `Some(Value::Null)`, which every evaluator treats as absent).
    pub fn value_at(&self, row: usize) -> Option<Value> {
        match self {
            FieldView::Col(col) => {
                if col.is_null_at(row) {
                    None
                } else {
                    Some(col.get(row))
                }
            }
            FieldView::Values { values, present } => {
                if present.is_none_or(|p| p[row]) {
                    Some(values[row].clone())
                } else {
                    None
                }
            }
        }
    }
}

/// A row-aligned collection of named fields a [`PredExpr`] can evaluate
/// against. Unknown fields return `None` (missing-key-is-false).
pub trait PredSource {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Look up a field by name.
    fn field(&self, name: &str) -> Option<FieldView<'_>>;
}

/// A [`PredSource`] assembled by hand: borrowed columns, borrowed `Value`
/// slices, or owned bindings (e.g. materialized index levels, metadata
/// gathered to row granularity).
pub struct BoundSource<'a> {
    rows: usize,
    fields: HashMap<String, BoundField<'a>>,
}

enum BoundField<'a> {
    Col(&'a Column),
    Slice {
        values: &'a [Value],
        present: Option<&'a [bool]>,
    },
    Owned {
        values: Vec<Value>,
        present: Option<Vec<bool>>,
    },
}

impl<'a> BoundSource<'a> {
    /// New source over `rows` rows with no fields bound.
    pub fn new(rows: usize) -> BoundSource<'a> {
        BoundSource {
            rows,
            fields: HashMap::new(),
        }
    }

    /// Bind a borrowed column. Panics on row-count mismatch.
    pub fn bind_column(&mut self, name: impl Into<String>, col: &'a Column) {
        assert_eq!(col.len(), self.rows, "bound column length mismatch");
        self.fields.insert(name.into(), BoundField::Col(col));
    }

    /// Bind a borrowed `Value` slice with an optional presence mask.
    /// Panics on row-count mismatch.
    pub fn bind_slice(
        &mut self,
        name: impl Into<String>,
        values: &'a [Value],
        present: Option<&'a [bool]>,
    ) {
        assert_eq!(values.len(), self.rows, "bound slice length mismatch");
        if let Some(p) = present {
            assert_eq!(p.len(), self.rows, "presence mask length mismatch");
        }
        self.fields
            .insert(name.into(), BoundField::Slice { values, present });
    }

    /// Bind owned values (all present). Panics on row-count mismatch.
    pub fn bind_values(&mut self, name: impl Into<String>, values: Vec<Value>) {
        assert_eq!(values.len(), self.rows, "bound values length mismatch");
        self.fields.insert(
            name.into(),
            BoundField::Owned {
                values,
                present: None,
            },
        );
    }

    /// Bind owned values with a presence mask. Panics on length mismatch.
    pub fn bind_masked(&mut self, name: impl Into<String>, values: Vec<Value>, present: Vec<bool>) {
        assert_eq!(values.len(), self.rows, "bound values length mismatch");
        assert_eq!(present.len(), self.rows, "presence mask length mismatch");
        self.fields.insert(
            name.into(),
            BoundField::Owned {
                values,
                present: Some(present),
            },
        );
    }

    /// `true` if `name` has a binding.
    pub fn is_bound(&self, name: &str) -> bool {
        self.fields.contains_key(name)
    }
}

impl PredSource for BoundSource<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn field(&self, name: &str) -> Option<FieldView<'_>> {
        self.fields.get(name).map(|f| match f {
            BoundField::Col(c) => FieldView::Col(c),
            BoundField::Slice { values, present } => FieldView::Values {
                values,
                present: *present,
            },
            BoundField::Owned { values, present } => FieldView::Values {
                values,
                present: present.as_deref(),
            },
        })
    }
}

// ----------------------------------------------------------------------
// Vectorized leaf kernels
// ----------------------------------------------------------------------

/// Build a bitmap from a row predicate, restricted to `mask`. With a mask,
/// iterates only its set bits — an all-dead 64-row word costs one branch.
fn fill(n: usize, mask: Option<&Bitmap>, mut f: impl FnMut(usize) -> bool) -> Bitmap {
    let mut out = Bitmap::zeros(n);
    match mask {
        None => {
            for i in 0..n {
                if f(i) {
                    out.set(i);
                }
            }
        }
        Some(m) => {
            for (wi, &w) in m.words().iter().enumerate() {
                if w == 0 {
                    continue;
                }
                let base = wi * 64;
                let mut bits = w;
                while bits != 0 {
                    let i = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if f(i) {
                        out.set(i);
                    }
                }
            }
        }
    }
    out
}

/// `Cmp` over a typed column: one monomorphic loop per (dtype, literal
/// kind) pairing, no `Value` per row.
fn eval_cmp_col(col: &Column, op: PredOp, want: &Value, mask: Option<&Bitmap>, n: usize) -> Bitmap {
    let valid = col.valid_mask();
    // Cell presence; all-null columns have no valid cells at all.
    let pres = |i: usize| valid.is_none_or(|m| m[i]);
    match (col.data(), want) {
        (ColumnData::Int(vs), Value::Int(x)) => {
            fill(n, mask, |i| pres(i) && op.ord_matches(vs[i].cmp(x)))
        }
        (ColumnData::Int(vs), Value::Float(f)) => fill(n, mask, |i| {
            pres(i) && op.ord_matches(cmp_f64(vs[i] as f64, *f))
        }),
        (ColumnData::Float(vs), Value::Int(x)) => {
            let w = *x as f64;
            fill(n, mask, |i| pres(i) && op.ord_matches(cmp_f64(vs[i], w)))
        }
        (ColumnData::Float(vs), Value::Float(f)) => {
            fill(n, mask, |i| pres(i) && op.ord_matches(cmp_f64(vs[i], *f)))
        }
        (ColumnData::Str(vs), Value::Str(s)) => {
            let s: &str = s;
            fill(n, mask, |i| {
                pres(i) && op.ord_matches(vs[i].as_ref().cmp(s))
            })
        }
        (ColumnData::Bool(vs), Value::Bool(b)) => {
            fill(n, mask, |i| pres(i) && op.ord_matches(vs[i].cmp(b)))
        }
        // Kind mismatch (incl. all-null columns and `null` literals):
        // `!=` matches every *present* cell, everything else matches none.
        _ => {
            if op == PredOp::Ne && !matches!(col.data(), ColumnData::Null(_)) {
                fill(n, mask, pres)
            } else {
                Bitmap::zeros(n)
            }
        }
    }
}

/// String ops over a typed column: only `Str` columns can match.
fn eval_str_col(
    col: &Column,
    op: StrMatch,
    needle: &str,
    mask: Option<&Bitmap>,
    n: usize,
) -> Bitmap {
    let valid = col.valid_mask();
    match col.data() {
        ColumnData::Str(vs) => fill(n, mask, |i| {
            valid.is_none_or(|m| m[i]) && op.matches(vs[i].as_ref(), needle)
        }),
        _ => Bitmap::zeros(n),
    }
}

/// `In` over either view. Large lists go through a `HashSet<Value>` (the
/// loader's profile-selection path binds thousands of profile hashes);
/// small lists scan linearly.
fn eval_in(view: FieldView<'_>, values: &[Value], mask: Option<&Bitmap>, n: usize) -> Bitmap {
    const LINEAR_MAX: usize = 8;
    let set: Option<HashSet<&Value>> = if values.len() > LINEAR_MAX {
        Some(values.iter().collect())
    } else {
        None
    };
    let hit = |v: &Value| match &set {
        Some(s) => s.contains(v),
        None => values.iter().any(|w| w == v),
    };
    match view {
        FieldView::Col(col) => {
            let valid = col.valid_mask();
            match col.data() {
                ColumnData::Int(vs) => fill(n, mask, |i| {
                    valid.is_none_or(|m| m[i]) && hit(&Value::Int(vs[i]))
                }),
                ColumnData::Float(vs) => fill(n, mask, |i| {
                    valid.is_none_or(|m| m[i]) && hit(&Value::Float(vs[i]))
                }),
                ColumnData::Str(vs) => fill(n, mask, |i| {
                    valid.is_none_or(|m| m[i]) && hit(&Value::Str(vs[i].clone()))
                }),
                ColumnData::Bool(vs) => fill(n, mask, |i| {
                    valid.is_none_or(|m| m[i]) && hit(&Value::Bool(vs[i]))
                }),
                ColumnData::Null(_) => Bitmap::zeros(n),
            }
        }
        FieldView::Values { values: vs, present } => fill(n, mask, |i| {
            present.is_none_or(|p| p[i]) && !vs[i].is_null() && hit(&vs[i])
        }),
    }
}

impl fmt::Display for PredExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredExpr::True => f.write_str("true"),
            PredExpr::Cmp { field, op, value } => {
                write!(f, "{field} {} {value}", op.symbol())
            }
            PredExpr::Str { field, op, needle } => {
                write!(f, "{field} {} \"{needle}\"", op.keyword())
            }
            PredExpr::In { field, values } => {
                write!(f, "{field} in [")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            PredExpr::And(bs) => {
                f.write_str("(")?;
                for (i, b) in bs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" && ")?;
                    }
                    write!(f, "{b}")?;
                }
                f.write_str(")")
            }
            PredExpr::Or(bs) => {
                f.write_str("(")?;
                for (i, b) in bs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" || ")?;
                    }
                    write!(f, "{b}")?;
                }
                f.write_str(")")
            }
            PredExpr::Not(b) => write!(f, "!({b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnBuilder;

    fn src() -> (Vec<Column>, Vec<&'static str>) {
        let mut time = ColumnBuilder::new();
        for v in [1.0, 2.5, f64::NAN, 4.0] {
            time.push(Value::Float(v)).unwrap();
        }
        time.push(Value::Null).unwrap();
        let mut rank = ColumnBuilder::new();
        for v in [0i64, 1, 2, 3, 4] {
            rank.push(Value::Int(v)).unwrap();
        }
        let mut name = ColumnBuilder::new();
        for v in ["MPI_Send", "MPI_Recv", "lulesh", "main", "MPI_Wait"] {
            name.push(Value::from(v)).unwrap();
        }
        (
            vec![time.finish(), rank.finish(), name.finish()],
            vec!["time", "rank", "name"],
        )
    }

    fn bound(cols: &[Column], names: &[&'static str]) -> BoundSource<'static> {
        // Leak for test convenience; fine in unit tests.
        let rows = cols[0].len();
        let mut b = BoundSource::new(rows);
        for (c, n) in cols.iter().zip(names) {
            let c: &'static Column = Box::leak(Box::new(c.clone()));
            b.bind_column(*n, c);
        }
        b
    }

    fn check_both(expr: &PredExpr, src: &BoundSource<'_>, want: &[usize]) {
        assert_eq!(expr.eval(src).positions(), want, "vectorized: {expr}");
        assert_eq!(expr.eval_rowwise(src).positions(), want, "row-wise: {expr}");
    }

    #[test]
    fn leaf_semantics() {
        let (cols, names) = src();
        let s = bound(&cols, &names);
        check_both(&PredExpr::ge("time", 2.5), &s, &[1, 2, 3]); // NaN sorts greatest
        check_both(&PredExpr::eq("time", f64::NAN), &s, &[2]);
        check_both(&PredExpr::ne("time", 2.5), &s, &[0, 2, 3]); // null row absent
        check_both(&PredExpr::lt("rank", 2i64), &s, &[0, 1]);
        check_both(&PredExpr::eq("rank", 3.0), &s, &[3]); // cross-kind numeric eq
        check_both(&PredExpr::starts_with("name", "MPI_"), &s, &[0, 1, 4]);
        check_both(&PredExpr::contains("name", "ul"), &s, &[2]);
        check_both(&PredExpr::is_in("rank", [0i64, 4]), &s, &[0, 4]);
        // Kind guard: string field vs number is false for ordering...
        check_both(&PredExpr::gt("name", 5i64), &s, &[]);
        // ...but != is "present and not equal".
        check_both(&PredExpr::ne("name", 5i64), &s, &[0, 1, 2, 3, 4]);
        // Missing field is false, even negated leaves see it.
        check_both(&PredExpr::eq("nope", 1i64), &s, &[]);
        check_both(&PredExpr::not(PredExpr::eq("nope", 1i64)), &s, &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn boolean_structure() {
        let (cols, names) = src();
        let s = bound(&cols, &names);
        let e = PredExpr::and([
            PredExpr::starts_with("name", "MPI_"),
            PredExpr::lt("rank", 4i64),
        ]);
        check_both(&e, &s, &[0, 1]);
        let e = PredExpr::or([PredExpr::eq("rank", 0i64), PredExpr::eq("name", "main")]);
        check_both(&e, &s, &[0, 3]);
        let e = PredExpr::not(PredExpr::starts_with("name", "MPI_"));
        check_both(&e, &s, &[2, 3]);
        check_both(&PredExpr::and([]), &s, &[0, 1, 2, 3, 4]);
        check_both(&PredExpr::or([]), &s, &[]);
        check_both(&PredExpr::True, &s, &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn values_view_with_presence_and_stored_null() {
        let vals = vec![
            Value::from("quartz"),
            Value::Null,
            Value::from("lassen"),
            Value::from("quartz"),
        ];
        let present = vec![true, true, true, false];
        let mut s = BoundSource::new(4);
        s.bind_masked("cluster", vals, present);
        // A stored null reads as absent, as a typed column's null does:
        // not even `== null` matches it, and absent row 3 matches nothing.
        let e = PredExpr::eq("cluster", Value::Null);
        assert_eq!(e.eval(&s).positions(), Vec::<usize>::new());
        assert_eq!(e.eval_rowwise(&s).positions(), Vec::<usize>::new());
        let e = PredExpr::is_in("cluster", [Value::Null, Value::from("lassen")]);
        assert_eq!(e.eval(&s).positions(), vec![2]);
        assert_eq!(e.eval_rowwise(&s).positions(), vec![2]);
        let e = PredExpr::eq("cluster", "quartz");
        assert_eq!(e.eval(&s).positions(), vec![0]);
        let e = PredExpr::ne("cluster", "quartz");
        assert_eq!(e.eval(&s).positions(), vec![2]);
        assert_eq!(e.eval_rowwise(&s).positions(), vec![2]);
        // `Not` sees the leaf's `false`: the null and the absent row match.
        let e = PredExpr::not(PredExpr::eq("cluster", "quartz"));
        assert_eq!(e.eval(&s).positions(), vec![1, 2, 3]);
    }

    #[test]
    fn builders_flatten() {
        let e = PredExpr::and([
            PredExpr::True,
            PredExpr::and([PredExpr::eq("a", 1i64), PredExpr::eq("b", 2i64)]),
            PredExpr::eq("c", 3i64),
        ]);
        assert_eq!(e.conjuncts().len(), 3);
        assert_eq!(
            e.fields().into_iter().collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert_eq!(PredExpr::and([]), PredExpr::True);
    }

    #[test]
    fn display_round_trips_visually() {
        let e = PredExpr::and([
            PredExpr::eq("cluster", "quartz"),
            PredExpr::not(PredExpr::gt("problem_size", 30i64)),
        ]);
        assert_eq!(
            e.to_string(),
            "(cluster == quartz && !(problem_size > 30))"
        );
    }
}
