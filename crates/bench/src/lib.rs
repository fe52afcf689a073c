//! # thicket-bench
//!
//! The reproduction's figure harness: workload generators matching the
//! paper's experiment configurations ([`data`]) and one regenerator per
//! table/figure of the evaluation ([`figures`]). Timings come from the
//! repo benchmark (`examples/benchmark/`).
//!
//! Regenerate everything with:
//!
//! ```sh
//! cargo run -p thicket-bench --bin figures --release
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod figures;
