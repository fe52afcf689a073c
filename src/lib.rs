//! # thicket
//!
//! A from-scratch Rust reproduction of **Thicket: Seeing the Performance
//! Experiment Forest for the Individual Run Trees** (Brink et al.,
//! HPDC '23) — an Exploratory Data Analysis toolkit for *ensembles* of
//! performance profiles: multi-run, multi-scale, multi-architecture,
//! multi-tool.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | role |
//! |---|---|
//! | [`core`] | the thicket object: composition, filtering, grouping, querying, statistics |
//! | [`dataframe`] | multi-indexed column-oriented tables (the pandas stand-in) |
//! | [`graph`] | call trees/DAGs and structural union (the Hatchet stand-in) |
//! | [`query`] | the Call Path Query Language |
//! | [`stats`] | descriptive statistics, correlation, regression |
//! | [`model`] | Extra-P-style scaling-model fitting |
//! | [`learn`] | StandardScaler, k-means, silhouette, PCA (the scikit-learn stand-in) |
//! | [`perfsim`] | profile collection: real instrumented execution plus RAJA-Perf / MARBL simulators |
//! | [`viz`] | call-tree rendering, text and SVG charts |
//!
//! ## Quickstart
//!
//! ```
//! use thicket::prelude::*;
//!
//! // 1. "Run" an ensemble: four RAJA Performance Suite executions.
//! let profiles: Vec<_> = (0..4)
//!     .map(|seed| {
//!         let mut cfg = CpuRunConfig::quartz_default();
//!         cfg.seed = seed;
//!         simulate_cpu_run(&cfg)
//!     })
//!     .collect();
//!
//! // 2. Compose them into a thicket and aggregate across runs.
//! let mut tk = Thicket::loader(&profiles).load().unwrap().0;
//! tk.compute_stats(&[(ColKey::new("time (exc)"), vec![AggFn::Mean, AggFn::Std])])
//!     .unwrap();
//! assert!(tk.statsframe().has_column(&ColKey::new("time (exc)_std")));
//! ```

pub use thicket_core as core;
pub use thicket_dataframe as dataframe;
pub use thicket_graph as graph;
pub use thicket_learn as learn;
pub use thicket_model as model;
pub use thicket_perfsim as perfsim;
pub use thicket_query as query;
pub use thicket_stats as stats;
pub use thicket_viz as viz;

/// The most common imports in one place.
pub mod prelude {
    pub use thicket_core::{
        concat_thickets, model_metric, LoadSource, Loader, NodeMatch, PredExpr, Thicket,
    };
    pub use thicket_dataframe::{AggFn, ColKey, DataFrame, Index, JoinHow, Value};
    pub use thicket_graph::{Frame, Graph, GraphUnion, NodeId};
    pub use thicket_learn::{dbscan, kmeans, pca, silhouette_score, KMeansConfig, StandardScaler};
    pub use thicket_model::{fit_model, fit_model2};
    pub use thicket_perfsim::{
        load_dir, marbl_ensemble, save_ensemble, simulate_cpu_run, simulate_gpu_run, Collector,
        CpuRunConfig, GpuRunConfig, IngestReport, MarblCluster, MarblConfig, Profile, Store,
        StoreEntry, StoreOptions, Strictness,
    };
    pub use thicket_query::{parse_pred, pred, Query};
}
