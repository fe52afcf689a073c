//! # thicket-graph
//!
//! Call-graph substrate for the Thicket reproduction — the Hatchet stand-in.
//!
//! A [`Graph`] is an arena of [`Node`]s identified by [`Frame`]s (ordered
//! attribute maps, at minimum `name`). Profiles produced by the collector
//! each carry one call tree; [`GraphUnion`] structurally unifies an
//! ensemble of them into a single graph with per-input node mappings,
//! which is how the thicket constructor aligns metric rows from many runs
//! onto shared `(node, profile)` keys (paper §3.2).
//!
//! ```
//! use thicket_graph::{Frame, Graph, GraphUnion};
//!
//! let mut a = Graph::new();
//! let main = a.add_root(Frame::named("MAIN"));
//! a.add_child(main, Frame::named("FOO"));
//!
//! let mut b = Graph::new();
//! let main_b = b.add_root(Frame::named("MAIN"));
//! b.add_child(main_b, Frame::named("BAR"));
//!
//! let u = GraphUnion::build(&[&a, &b]);
//! assert_eq!(u.graph.len(), 3);                    // MAIN, FOO, BAR
//! assert_eq!(u.mappings[0][0], u.mappings[1][0]);  // MAIN is shared
//! ```

#![warn(missing_docs)]

mod diff;
mod frame;
#[allow(clippy::module_inception)]
mod graph;
mod union;

pub use diff::GraphDiff;
pub use frame::Frame;
pub use graph::{Graph, Node, NodeId};
pub use union::GraphUnion;
