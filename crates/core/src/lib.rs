//! # thicket-core
//!
//! The thicket object (paper §3): a unified view over an ensemble of
//! call-tree profiles, built from three relationally linked components —
//!
//! * **performance data** — a `(call-tree node, profile)`-indexed table
//!   of measured metrics;
//! * **metadata** — a profile-indexed table of build settings and
//!   execution context;
//! * **aggregated statistics** — a node-indexed table of reductions
//!   across profiles.
//!
//! plus the EDA operations of §4: metadata filtering, grouping, call-path
//! querying, aggregated statistics, column-axis composition of multiple
//! thickets, Extra-P-style modeling glue, and feature extraction for
//! clustering/PCA.
//!
//! ```
//! use thicket_core::Thicket;
//! use thicket_perfsim::{simulate_cpu_run, CpuRunConfig};
//!
//! let mut profiles = Vec::new();
//! for seed in 0..4 {
//!     let mut cfg = CpuRunConfig::quartz_default();
//!     cfg.seed = seed;
//!     profiles.push(simulate_cpu_run(&cfg));
//! }
//! let (tk, report) = Thicket::loader(&profiles).load().unwrap();
//! assert_eq!(tk.profiles().len(), 4);
//! assert_eq!(tk.metadata().len(), 4);
//! assert!(report.is_clean());
//! ```

#![warn(missing_docs)]

mod compose;
mod display;
mod engine;
mod extend;
mod loader;
mod model_glue;
mod ops;
mod pivot;
mod rowconcat;
mod source;
mod stats;
mod thicket;
mod trace_agg;
mod treetable;

pub use loader::{LoadSource, Loader};
pub use source::{trace_to_store, EnsembleSource, ProfileSource, StoreSource, TraceSource};
pub use trace_agg::TraceAggregator;
pub use thicket_perfsim::{FilterPlan, IngestReport, Strictness};
pub use thicket_dataframe::{Bitmap, PredExpr, PredOp, StrMatch};

pub use compose::{concat_thickets, NodeMatch};
pub use rowconcat::concat_thickets_rows;
pub use model_glue::{model_metric, NodeModel};
pub use stats::StatSpec;
pub use thicket::{Thicket, ThicketError};
