//! # thicket-dataframe
//!
//! A from-scratch, multi-indexed, column-oriented dataframe — the pandas
//! stand-in underneath the Thicket reproduction. It provides exactly the
//! primitives the thicket object needs (paper §3):
//!
//! * typed columns with null masks ([`Column`]),
//! * hierarchical row indices such as *(call-tree node, profile)*
//!   ([`Index`]),
//! * optionally grouped column keys for composed `CPU`/`GPU` tables
//!   ([`ColKey`]),
//! * filtering, sorting, selection ([`DataFrame`]),
//! * group-by with aggregation ([`GroupBy`], [`AggFn`]) for the aggregated
//!   statistics table,
//! * index-aligned joins ([`join`]) for column-axis composition,
//! * text-table and CSV rendering ([`render`], [`to_csv`]).
//!
//! ```
//! use thicket_dataframe::{DataFrame, Index, Column, ColKey, AggFn, GroupBy};
//!
//! let index = Index::pairs(("node", "profile"),
//!     vec![("MAIN", 1i64), ("MAIN", 2), ("FOO", 1), ("FOO", 2)]);
//! let mut df = DataFrame::new(index);
//! df.insert("time", Column::from_f64(vec![4.0, 4.4, 1.0, 1.2])).unwrap();
//!
//! let stats = thicket_dataframe::GroupBy::by_levels(&df, &["node"]).unwrap()
//!     .agg(AggFn::Mean).unwrap();
//! assert_eq!(stats.column(&ColKey::new("time_mean")).unwrap()
//!     .numeric_values(), vec![4.2, 1.1]);
//! ```

#![warn(missing_docs)]

mod agg;
mod arith;
mod bitmap;
mod colkey;
mod csv;
mod column;
mod display;
mod error;
mod expr;
mod frame;
mod groupby;
mod index;
mod intern;
mod summary;
mod join;
mod value;

pub use agg::AggFn;
pub use bitmap::Bitmap;
pub use colkey::ColKey;
pub use expr::{BoundSource, FieldView, PredExpr, PredOp, PredSource, StrMatch};
pub use column::{Column, ColumnBuilder, ColumnData};
pub use csv::from_csv;
pub use display::{render, to_csv};
pub use error::{DfError, Result};
pub use frame::{DataFrame, FrameBuilder, RowRef};
pub use groupby::GroupBy;
pub use index::{Index, Key, UniquePositions};
pub use intern::{intern, Interner};
pub use join::{join, join_many, join_many_pairwise, JoinHow};
pub use value::{DType, Value};
