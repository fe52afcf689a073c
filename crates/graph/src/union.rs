//! Structural union of call graphs.
//!
//! Composing an ensemble requires matching "the same" node across profiles
//! (the paper's call-tree matching, §3.2: executions with different build
//! settings or inputs yield similar or identical call trees). Two nodes
//! match when their frames are equal *and* their call paths match — i.e.
//! the union walks both graphs top-down, pairing children by frame.
//!
//! [`GraphUnion::build`] produces the unified graph plus, for every input
//! graph, a dense mapping from its node ids to unified ids; the thicket
//! constructor uses those mappings to re-key every profile's metric rows.
//!
//! Every input is visited in arena order ([`Graph::ids`]), which puts
//! each node after its first parent. The union's own arena is therefore
//! the order in which it first met each call path, and walking a union
//! graph replays the walks of the inputs that built it: the union of
//! `union(A)` and `union(B)` is the union of `A` and `B`, node ids
//! included. Pooling separately built thickets relies on this.
//!
//! Ensembles repeat call-tree shapes: every run of one code variant has
//! the same tree. An input whose arena equals a recently matched input's
//! (the same frames, parents, children and roots) maps exactly as that
//! input did and adds nothing to the union, so it reuses that mapping
//! instead of being walked. Any other input is walked; a walk maps a
//! repeated shape exactly as a reuse would, so a miss costs time, never
//! a different result. The comparison stops at the first difference, so
//! an ensemble whose shapes are all distinct pays at most two partial
//! comparisons per input on top of the walks.

use crate::frame::Frame;
use crate::graph::{Graph, NodeId};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Result of unioning a sequence of graphs.
#[derive(Debug, Clone)]
pub struct GraphUnion {
    /// The unified graph (superset of every input's structure).
    pub graph: Graph,
    /// `mappings[i][old.index()]` is the unified id of input graph `i`'s
    /// node `old`.
    pub mappings: Vec<Vec<NodeId>>,
}

/// Placeholder for a source node the walk has not reached yet.
const UNMAPPED: NodeId = NodeId(u32::MAX);

impl GraphUnion {
    /// Union all `graphs` (hash-indexed child matching; an input that
    /// repeats one of the last two shapes matched reuses its mapping
    /// instead of being walked).
    pub fn build(graphs: &[&Graph]) -> GraphUnion {
        Self::build_onto(Graph::new(), graphs)
    }

    /// Union `graphs` into `seed`. Every node of `seed` keeps its id, and
    /// nodes the inputs add are appended after them, so rows keyed by
    /// `seed`'s ids stay valid in the result. Unioning a union's own
    /// graph into itself maps every node onto itself.
    pub fn build_onto(seed: Graph, graphs: &[&Graph]) -> GraphUnion {
        let mut walker = Walker::new(seed);
        // Inputs of the last few shapes matched, most recent first.
        let mut recent: Vec<usize> = Vec::with_capacity(RECENT + 1);
        let mut mappings: Vec<Vec<NodeId>> = Vec::with_capacity(graphs.len());
        for (i, g) in graphs.iter().enumerate() {
            let map = match recent.iter().position(|&j| same_arena(graphs[j], g)) {
                Some(pos) => {
                    let j = recent.remove(pos);
                    recent.insert(0, j);
                    mappings[j].clone()
                }
                None => {
                    recent.insert(0, i);
                    walker.walk(g)
                }
            };
            recent.truncate(RECENT);
            mappings.push(map);
        }
        GraphUnion {
            graph: walker.out,
            mappings,
        }
    }

    /// Reference implementation: a linear sibling scan instead of a hash
    /// index, and one walk per input. Same result, asymptotically slower
    /// for wide sibling sets; kept as an oracle in property tests. Like
    /// [`GraphUnion::build`], it matches a node among its parent's
    /// first-parent children only: a child attached by an extra (DAG)
    /// edge has another call path.
    pub fn build_naive(graphs: &[&Graph]) -> GraphUnion {
        let mut out = Graph::new();
        let mut mappings = Vec::with_capacity(graphs.len());
        for g in graphs {
            let mut map = vec![UNMAPPED; g.len()];
            for id in g.ids() {
                let frame = g.node(id).frame();
                let parent = first_parent(g, &map, id);
                let existing = first_child(&out, parent, frame);
                map[id.index()] = existing.unwrap_or_else(|| match parent {
                    Some(p) => out.add_child(p, frame.clone()),
                    None => out.add_root(frame.clone()),
                });
            }
            add_extra_edges(&mut out, g, &map);
            mappings.push(map);
        }
        GraphUnion {
            graph: out,
            mappings,
        }
    }
}

/// The indexed union state: the unified graph plus an index from
/// (unified parent, frame hash) to the first node created under that
/// key. The index holds hashes, not frames, so a lookup clones nothing.
/// Frames come from profile files, so the hashes are keyed: crafted
/// frames cannot be made to collide on purpose.
struct Walker {
    out: Graph,
    index: HashMap<(u32, u64), NodeId>,
    keys: RandomState,
}

/// Index key of a root (no unified parent).
const ROOT: u32 = u32::MAX;

/// How many recently matched shapes an input is compared with before it
/// is walked. Each compose in the repo benchmark (`examples/benchmark`)
/// meets at most two shapes, one call tree per code variant, so two
/// cover every input there after the first of each shape.
const RECENT: usize = 2;

impl Walker {
    fn new(seed: Graph) -> Walker {
        let keys = RandomState::new();
        let mut index = HashMap::with_capacity(seed.len());
        for id in seed.ids() {
            let node = seed.node(id);
            let parent = node.parents().first().map_or(ROOT, |p| p.0);
            index
                .entry((parent, keys.hash_one(node.frame())))
                .or_insert(id);
        }
        Walker {
            out: seed,
            index,
            keys,
        }
    }

    /// Map `g` into the union, visiting its nodes in arena order.
    fn walk(&mut self, g: &Graph) -> Vec<NodeId> {
        let mut map = vec![UNMAPPED; g.len()];
        for id in g.ids() {
            let parent = first_parent(g, &map, id);
            map[id.index()] = self.find_or_add(parent, g.node(id).frame());
        }
        add_extra_edges(&mut self.out, g, &map);
        map
    }

    fn find_or_add(&mut self, parent: Option<NodeId>, frame: &Frame) -> NodeId {
        let key = (parent.map_or(ROOT, |p| p.0), self.keys.hash_one(frame));
        if let Some(&n) = self.index.get(&key) {
            if self.out.node(n).frame() == frame {
                return n;
            }
            // Two sibling frames share a hash: only a scan of the
            // parent's own children tells them apart.
            if let Some(n) = first_child(&self.out, parent, frame) {
                return n;
            }
        }
        let n = match parent {
            Some(p) => self.out.add_child(p, frame.clone()),
            None => self.out.add_root(frame.clone()),
        };
        self.index.entry(key).or_insert(n);
        n
    }
}

/// First node of `g` whose first parent is `parent` and whose frame is
/// `frame`, in creation order.
fn first_child(g: &Graph, parent: Option<NodeId>, frame: &Frame) -> Option<NodeId> {
    let candidates = match parent {
        Some(p) => g.node(p).children(),
        None => g.roots(),
    };
    candidates.iter().copied().find(|&c| {
        let node = g.node(c);
        node.parents().first().copied() == parent && node.frame() == frame
    })
}

/// The unified id of `id`'s first parent, if it has one.
fn first_parent(g: &Graph, map: &[NodeId], id: NodeId) -> Option<NodeId> {
    g.node(id).parents().first().map(|p| map[p.index()])
}

/// Extra parents (DAG input) become extra edges. Deferred to a second
/// pass: arena order only guarantees that a node's *first* parent is
/// mapped before it, not every parent.
fn add_extra_edges(out: &mut Graph, g: &Graph, map: &[NodeId]) {
    for id in g.ids() {
        let new_id = map[id.index()];
        for p_old in g.node(id).parents().iter().skip(1) {
            let p_new = map[p_old.index()];
            if p_new != new_id {
                out.add_edge(p_new, new_id);
            }
        }
    }
}

/// `true` when `a` and `b` are the same arena: equal roots, and node for
/// node equal frames, parents and children.
fn same_arena(a: &Graph, b: &Graph) -> bool {
    a.len() == b.len()
        && a.roots() == b.roots()
        && a.ids().all(|id| {
            let (x, y) = (a.node(id), b.node(id));
            x.parents() == y.parents() && x.children() == y.children() && x.frame() == y.frame()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(names: &[&str]) -> Graph {
        let mut g = Graph::new();
        let mut cur = g.add_root(Frame::named(names[0]));
        for n in &names[1..] {
            cur = g.add_child(cur, Frame::named(*n));
        }
        g
    }

    #[test]
    fn identical_trees_collapse() {
        let a = chain(&["MAIN", "FOO", "BAZ"]);
        let b = chain(&["MAIN", "FOO", "BAZ"]);
        let u = GraphUnion::build(&[&a, &b]);
        assert_eq!(u.graph.len(), 3);
        assert_eq!(u.mappings[0], u.mappings[1]);
    }

    #[test]
    fn divergent_subtrees_union() {
        let mut a = Graph::new();
        let m = a.add_root(Frame::named("MAIN"));
        a.add_child(m, Frame::named("FOO"));
        let mut b = Graph::new();
        let m2 = b.add_root(Frame::named("MAIN"));
        b.add_child(m2, Frame::named("BAR"));
        let u = GraphUnion::build(&[&a, &b]);
        assert_eq!(u.graph.len(), 3); // MAIN, FOO, BAR
        assert_eq!(u.mappings[0][0], u.mappings[1][0]); // only MAIN shared
        assert_ne!(u.mappings[0][1], u.mappings[1][1]);
    }

    #[test]
    fn same_name_different_paths_stay_distinct() {
        // MPI_Send under FOO vs under BAR must remain two nodes.
        let a = chain(&["MAIN", "FOO", "MPI_Send"]);
        let b = chain(&["MAIN", "BAR", "MPI_Send"]);
        let u = GraphUnion::build(&[&a, &b]);
        assert_eq!(u.graph.len(), 5);
    }

    #[test]
    fn mapping_points_to_matching_frames() {
        let a = chain(&["MAIN", "FOO"]);
        let b = chain(&["MAIN", "FOO", "BAZ"]);
        let u = GraphUnion::build(&[&a, &b]);
        for (g, map) in [(&a, &u.mappings[0]), (&b, &u.mappings[1])] {
            for id in g.preorder() {
                let new = map[id.index()];
                assert_eq!(g.node(id).frame(), u.graph.node(new).frame());
            }
        }
    }

    #[test]
    fn union_is_idempotent() {
        let a = chain(&["MAIN", "FOO", "BAZ"]);
        let once = GraphUnion::build(&[&a]);
        let twice = GraphUnion::build(&[&once.graph, &a]);
        assert_eq!(once.graph.len(), twice.graph.len());
    }

    #[test]
    fn naive_matches_indexed() {
        let mut a = Graph::new();
        let m = a.add_root(Frame::named("MAIN"));
        for i in 0..20 {
            let c = a.add_child(m, Frame::named(format!("k{i}")));
            a.add_child(c, Frame::named("leaf"));
        }
        let mut b = Graph::new();
        let m2 = b.add_root(Frame::named("MAIN"));
        for i in 10..30 {
            b.add_child(m2, Frame::named(format!("k{i}")));
        }
        let fast = GraphUnion::build(&[&a, &b]);
        let slow = GraphUnion::build_naive(&[&a, &b]);
        assert_eq!(fast.graph.len(), slow.graph.len());
        assert_eq!(fast.mappings, slow.mappings);
    }

    #[test]
    fn dag_inputs_preserve_extra_edges() {
        let mut a = Graph::new();
        let m = a.add_root(Frame::named("MAIN"));
        let f = a.add_child(m, Frame::named("FOO"));
        let b_ = a.add_child(m, Frame::named("BAR"));
        let shared = a.add_child(f, Frame::named("SHARED"));
        a.add_edge(b_, shared);
        let u = GraphUnion::build(&[&a]);
        assert_eq!(u.graph.len(), 4);
        let new_shared = u.mappings[0][shared.index()];
        assert_eq!(u.graph.node(new_shared).parents().len(), 2);
    }

    #[test]
    fn naive_ignores_children_reached_through_extra_edges() {
        // A: MAIN→Y→S and MAIN→X, plus an extra edge X→S. B: MAIN→X→S.
        // A's S keeps the path MAIN/Y/S, so B's S is a new node under X.
        let mut a = Graph::new();
        let m = a.add_root(Frame::named("MAIN"));
        let y = a.add_child(m, Frame::named("Y"));
        let s = a.add_child(y, Frame::named("S"));
        let x = a.add_child(m, Frame::named("X"));
        a.add_edge(x, s);
        let b = chain(&["MAIN", "X", "S"]);
        let fast = GraphUnion::build(&[&a, &b]);
        let slow = GraphUnion::build_naive(&[&a, &b]);
        assert_eq!(fast.mappings, slow.mappings);
        for u in [&fast, &slow] {
            assert_eq!(u.graph.len(), 5);
            let b_s = u.mappings[1][2];
            let path: Vec<&str> = u
                .graph
                .path_to(b_s)
                .iter()
                .map(|&n| u.graph.node(n).name())
                .collect();
            assert_eq!(path, ["MAIN", "X", "S"]);
        }
    }

    #[test]
    fn empty_input() {
        let u = GraphUnion::build(&[]);
        assert!(u.graph.is_empty());
        assert!(u.mappings.is_empty());
        let e = Graph::new();
        let u2 = GraphUnion::build(&[&e]);
        assert!(u2.graph.is_empty());
        assert_eq!(u2.mappings, [Vec::<NodeId>::new()]);
    }

    #[test]
    fn multi_root_union() {
        let a = chain(&["A"]);
        let b = chain(&["B"]);
        let u = GraphUnion::build(&[&a, &b]);
        assert_eq!(u.graph.roots().len(), 2);
        assert_ne!(u.mappings[0], u.mappings[1]);
    }

    #[test]
    fn repeated_shape_reuses_the_first_mapping() {
        let a = chain(&["MAIN", "FOO", "BAZ"]);
        let mut b = Graph::new();
        let m = b.add_root(Frame::named("MAIN"));
        b.add_child(m, Frame::named("BAZ"));
        b.add_child(m, Frame::named("FOO"));
        let c = chain(&["MAIN", "QUX"]);
        // The last `a` comes after two other shapes: it is walked, not
        // reused, and maps the same.
        let inputs = [&a, &b, &a.clone(), &b.clone(), &c, &b, &a];
        let u = GraphUnion::build(&inputs);
        assert_eq!(u.mappings[2], u.mappings[0]);
        assert_eq!(u.mappings[3], u.mappings[1]);
        assert_eq!(u.mappings[6], u.mappings[0]);
        let naive = GraphUnion::build_naive(&inputs);
        assert_eq!(u.mappings, naive.mappings);
        assert_eq!(u.graph.len(), naive.graph.len());
    }

    #[test]
    fn same_structure_other_frames_is_not_reused() {
        let a = chain(&["MAIN", "FOO"]);
        let b = chain(&["MAIN", "BAR"]);
        let u = GraphUnion::build(&[&a, &b]);
        assert_eq!(u.graph.len(), 3);
        assert_ne!(u.mappings[0][1], u.mappings[1][1]);
    }

    #[test]
    fn seeded_union_keeps_seed_ids() {
        // Seed whose arena order is not its pre-order: MAIN, FOO, BAR,
        // then BAZ under FOO.
        let mut seed = Graph::new();
        let m = seed.add_root(Frame::named("MAIN"));
        let f = seed.add_child(m, Frame::named("FOO"));
        seed.add_child(m, Frame::named("BAR"));
        seed.add_child(f, Frame::named("BAZ"));
        let extra = chain(&["MAIN", "FOO", "QUX"]);
        let u = GraphUnion::build_onto(seed.clone(), &[&seed, &extra]);
        assert_eq!(u.mappings[0], seed.ids().collect::<Vec<_>>());
        assert_eq!(u.graph.len(), 5);
        for id in seed.ids() {
            assert_eq!(u.graph.node(id).frame(), seed.node(id).frame());
        }
        assert_eq!(u.graph.node(u.mappings[1][2]).name(), "QUX");
        assert_eq!(u.mappings[1][2].index(), 4);
    }
}
