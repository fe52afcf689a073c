//! # thicket-serve
//!
//! `thicketd`: a fault-tolerant concurrent query service over the
//! pinned store — the Thicket paper's "many clients, one shared
//! ensemble" shape (and PAPERS.md's exascale-diagnostics scale
//! reference) made concrete as a long-lived daemon.
//!
//! The crate is std-only: `std::net::TcpListener`, `std::thread`, and
//! the workspace's own building blocks — the hardened
//! [`thicket_perfsim::json`] codec on the wire, MVCC snapshot pinning
//! ([`thicket_perfsim::Store::open_pinned`]) per request, and the
//! equal-jitter [`thicket_perfsim::Backoff`] (deadline-bounded via
//! `with_deadline`) driving client retries.
//!
//! Layering:
//!
//! * [`frame`] — the length-prefixed wire frame; declared lengths are
//!   bounds-checked before allocation, slow peers are cut by a
//!   per-frame deadline.
//! * [`proto`] — the JSON request/response vocabulary; predicates and
//!   call-path queries travel as dialect strings and are parsed
//!   server-side.
//! * [`server`] — accept loop, bounded shed queue, worker pool,
//!   per-request pin/deadline/panic-isolation lifecycle, graceful
//!   drain.
//! * [`client`] — [`ThicketClient`], retrying transient failures under
//!   a budgeted backoff.
//!
//! See DESIGN.md's "Service layer" section for the protocol and
//! robustness contract in one place.

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::{ClientError, ThicketClient};
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
pub use proto::{NodeStat, Request, Response, ServeError, StatusInfo};
pub use server::{ServeOptions, Server};
