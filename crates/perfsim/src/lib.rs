//! # thicket-perfsim
//!
//! The measurement environment for the Thicket reproduction: everything
//! "left of" the thicket object in the paper's Figure 1 workflow.
//!
//! The paper's studies ran the RAJA Performance Suite (Caliper + Nsight
//! Compute profiles on the Quartz and Lassen clusters) and the MARBL
//! multi-physics code (RZTopaz and AWS ParallelCluster). None of those is
//! available here, so this crate provides calibrated synthetic
//! equivalents plus a real-execution path:
//!
//! * [`profile::Profile`] — the call-tree profile data model with a
//!   self-contained JSON on-disk format ([`json`]);
//! * [`collector::Collector`] — a Caliper-like region-annotation API that
//!   times real code;
//! * [`engine`] — actual data-parallel Stream kernels on crossbeam
//!   threads, measured through the collector;
//! * [`machine`] — roofline machine models of the paper's clusters;
//! * [`rajaperf`] — the RAJA Performance Suite simulator (CPU variants
//!   with top-down metrics, CUDA variant with NCU-style metrics);
//! * [`marbl`] — the MARBL strong-scaling ensemble generator;
//! * [`noise`] — seeded measurement noise.

#![warn(missing_docs)]

pub mod backoff;
pub mod binprofile;
pub mod collector;
pub mod engine;
pub mod ensemble;
pub mod faults;
pub mod ingest;
pub mod json;
pub mod machine;
pub mod marbl;
pub mod noise;
pub mod parallel;
pub mod profile;
pub mod rajaperf;
pub mod store;
pub mod topdown;
pub mod trace;

pub use binprofile::{decode_profile, encode_profile, PROFILE_MAGIC};
pub use collector::Collector;
pub use ensemble::{load_dir, save_ensemble};
pub use faults::{inject, inject_all, ChaosOp, ChaosSchedule, FaultKind, ScratchDir};
pub use ingest::{DiagKind, Diagnostic, FilterPlan, IngestReport, Strictness};
pub use json::Json;
pub use parallel::{
    contend, default_threads, parallel_map_catch, try_parallel_map, ContendResults, ContendTask,
    JobError, JobFailure,
};
pub use machine::{Compiler, CpuSpec, GpuSpec, NetworkSpec};
pub use marbl::{marbl_ensemble, simulate_marbl_run, MarblCluster, MarblConfig};
pub use noise::Noise;
pub use profile::{Profile, ProfileError};
pub use backoff::Backoff;
pub use store::{
    crc32c, CompactReport, FsckReport, Manifest, MetaBlock,
    RecoverReport, Snapshot, Store, StoreEntry, StoreError, StoreOptions, StoreReader,
    WriteReport,
};
pub use rajaperf::{
    simulate_cpu_run, simulate_gpu_run, suite, CpuRunConfig, GpuRunConfig, KernelSpec, Variant,
};
pub use topdown::{top_down, TopDown};
pub use trace::{
    emit as emit_trace, emit_to_path as emit_trace_to_path, TraceConfig, TraceError, TraceEvent,
    TraceEventKind, TraceReader, TraceWriter,
};
