//! The call graph: an arena of frame-identified nodes with parent/child
//! edges. Call trees are the common case, but multiple parents (DAGs, as
//! produced by call-path profilers collapsing recursion) are supported.

use crate::frame::Frame;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Stable handle to a node inside one [`Graph`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One call-graph node.
#[derive(Debug, Clone)]
pub struct Node {
    frame: Frame,
    children: Vec<NodeId>,
    parents: Vec<NodeId>,
}

impl Node {
    /// The node's identity frame.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// Child node ids, in arena order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Parent node ids (empty for roots): the first parent, then any
    /// extra parents in arena order.
    pub fn parents(&self) -> &[NodeId] {
        &self.parents
    }

    /// Shorthand for `frame().name()`.
    pub fn name(&self) -> &str {
        self.frame.name()
    }
}

/// A call graph (arena representation).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root node ids in insertion order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids in arena order (parents always precede the children
    /// added under them, since `add_child` appends).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The id of arena slot `index`, if the graph has that many nodes.
    pub fn id_at(&self, index: usize) -> Option<NodeId> {
        (index < self.nodes.len()).then_some(NodeId(index as u32))
    }

    /// Add a root node.
    pub fn add_root(&mut self, frame: Frame) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            frame,
            children: Vec::new(),
            parents: Vec::new(),
        });
        self.roots.push(id);
        id
    }

    /// Add a child under `parent`.
    pub fn add_child(&mut self, parent: NodeId, frame: Frame) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            frame,
            children: Vec::new(),
            parents: vec![parent],
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Add an extra edge `parent -> child` (turning the tree into a DAG).
    /// No-op if the edge already exists; panics on self-edges and on a
    /// root `child`. A node's first parent is the one it was added under,
    /// so it always precedes the node in the arena.
    ///
    /// Children stay in arena order, and so do the extra parents after
    /// the first: a graph is fixed by its arena and its set of edges,
    /// whatever order the edges were added in.
    pub fn add_edge(&mut self, parent: NodeId, child: NodeId) {
        assert_ne!(parent, child, "self-edges are not allowed");
        assert!(
            !self.nodes[child.index()].parents.is_empty(),
            "a root cannot gain a parent"
        );
        let children = &mut self.nodes[parent.index()].children;
        if let Err(at) = children.binary_search(&child) {
            children.insert(at, child);
            let parents = &mut self.nodes[child.index()].parents;
            let at = 1 + parents[1..]
                .binary_search(&parent)
                .expect_err("a parent lists its children and a child its parents");
            parents.insert(at, parent);
        }
    }

    /// Find the child of `parent` with this frame, if any.
    pub fn child_with_frame(&self, parent: NodeId, frame: &Frame) -> Option<NodeId> {
        self.node(parent)
            .children
            .iter()
            .copied()
            .find(|c| self.node(*c).frame() == frame)
    }

    /// Find the root with this frame, if any.
    pub fn root_with_frame(&self, frame: &Frame) -> Option<NodeId> {
        self.roots
            .iter()
            .copied()
            .find(|r| self.node(*r).frame() == frame)
    }

    /// All node ids in depth-first pre-order from the roots. Nodes with
    /// multiple parents are visited once (first encounter).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut seen = vec![false; self.len()];
        let mut stack: Vec<NodeId> = self.roots.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            out.push(id);
            for &c in self.node(id).children.iter().rev() {
                if !seen[c.index()] {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Depth of a node: 0 for roots, else 1 + min parent depth.
    pub fn depth(&self, id: NodeId) -> usize {
        let mut depth = 0;
        let mut cur = id;
        let mut guard = 0;
        while let Some(&p) = self.node(cur).parents.first() {
            depth += 1;
            cur = p;
            guard += 1;
            assert!(
                guard <= self.len(),
                "cycle detected while computing depth of {id}"
            );
        }
        depth
    }

    /// One root-to-node call path (via first parents).
    pub fn path_to(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(&p) = self.node(cur).parents.first() {
            path.push(p);
            cur = p;
            assert!(path.len() <= self.len(), "cycle detected in path_to({id})");
        }
        path.reverse();
        path
    }

    /// `true` if every non-root node has exactly one parent and every node
    /// is reachable from a root.
    pub fn is_tree(&self) -> bool {
        let reach: HashSet<NodeId> = self.preorder().into_iter().collect();
        reach.len() == self.len()
            && self.nodes.iter().enumerate().all(|(i, n)| {
                let is_root = self.roots.contains(&NodeId(i as u32));
                (is_root && n.parents.is_empty()) || (!is_root && n.parents.len() == 1)
            })
    }

    /// First node (in pre-order) whose name equals `name`.
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.preorder()
            .into_iter()
            .find(|&id| self.node(id).name() == name)
    }

    /// Build the subgraph induced by `keep`, preserving ancestry: a kept
    /// node's parent in the new graph is its nearest kept ancestor.
    /// Returns the new graph and the old→new id mapping. This implements
    /// the query language's "filtered call tree" result (Figure 8).
    pub fn induced_subgraph(&self, keep: &HashSet<NodeId>) -> (Graph, HashMap<NodeId, NodeId>) {
        let mut out = Graph::new();
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        // Walk in pre-order so ancestors are mapped before descendants.
        for id in self.preorder() {
            if !keep.contains(&id) {
                continue;
            }
            // Nearest kept ancestor along first-parent chain.
            let mut anc = self.node(id).parents.first().copied();
            while let Some(a) = anc {
                if map.contains_key(&a) {
                    break;
                }
                anc = self.node(a).parents.first().copied();
            }
            let new_id = match anc.and_then(|a| map.get(&a)) {
                Some(&p) => out.add_child(p, self.node(id).frame().clone()),
                None => out.add_root(self.node(id).frame().clone()),
            };
            map.insert(id, new_id);
        }
        (out, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MAIN -> {FOO -> {BAZ}, BAR}
    fn sample() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let main = g.add_root(Frame::named("MAIN"));
        let foo = g.add_child(main, Frame::named("FOO"));
        let bar = g.add_child(main, Frame::named("BAR"));
        let baz = g.add_child(foo, Frame::named("BAZ"));
        (g, main, foo, bar, baz)
    }

    #[test]
    fn construction_and_edges() {
        let (g, main, foo, bar, baz) = sample();
        assert_eq!(g.len(), 4);
        assert_eq!(g.roots(), &[main]);
        assert_eq!(g.node(main).children(), &[foo, bar]);
        assert_eq!(g.node(baz).parents(), &[foo]);
        assert!(g.is_tree());
    }

    #[test]
    fn preorder_visits_depth_first() {
        let (g, main, foo, bar, baz) = sample();
        assert_eq!(g.preorder(), vec![main, foo, baz, bar]);
    }

    #[test]
    fn depth_and_paths() {
        let (g, main, foo, _bar, baz) = sample();
        assert_eq!(g.depth(main), 0);
        assert_eq!(g.depth(baz), 2);
        assert_eq!(g.path_to(baz), vec![main, foo, baz]);
    }

    #[test]
    fn dag_edges() {
        let (mut g, _main, foo, bar, baz) = sample();
        g.add_edge(bar, baz);
        assert!(!g.is_tree());
        assert_eq!(g.node(baz).parents(), &[foo, bar]);
        // Duplicate edge is a no-op.
        g.add_edge(bar, baz);
        assert_eq!(g.node(bar).children().len(), 1);
        // Pre-order still visits each node once.
        assert_eq!(g.preorder().len(), 4);
    }

    #[test]
    #[should_panic(expected = "self-edges")]
    fn self_edge_panics() {
        let (mut g, main, ..) = sample();
        g.add_edge(main, main);
    }

    #[test]
    #[should_panic(expected = "a root cannot gain a parent")]
    fn edge_into_a_root_panics() {
        let (mut g, _main, foo, ..) = sample();
        let other = g.add_root(Frame::named("OTHER"));
        g.add_edge(foo, other);
    }

    #[test]
    fn frame_lookup() {
        let (g, main, foo, ..) = sample();
        assert_eq!(g.child_with_frame(main, &Frame::named("FOO")), Some(foo));
        assert_eq!(g.child_with_frame(main, &Frame::named("NOPE")), None);
        assert_eq!(g.root_with_frame(&Frame::named("MAIN")), Some(main));
        assert_eq!(g.find_by_name("BAZ"), Some(NodeId(3)));
        assert_eq!(g.find_by_name("NOPE"), None);
        assert_eq!(g.id_at(1), Some(foo));
        assert_eq!(g.id_at(4), None);
    }

    #[test]
    fn induced_subgraph_bridges_gaps() {
        let (g, main, _foo, _bar, baz) = sample();
        // Keep MAIN and BAZ: BAZ's kept parent becomes MAIN (FOO dropped).
        let keep: HashSet<NodeId> = [main, baz].into_iter().collect();
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.len(), 2);
        let new_baz = map[&baz];
        assert_eq!(sub.node(new_baz).name(), "BAZ");
        assert_eq!(sub.path_to(new_baz).len(), 2);
        assert!(sub.is_tree());
    }

    #[test]
    fn induced_subgraph_orphan_becomes_root() {
        let (g, _main, foo, ..) = sample();
        let keep: HashSet<NodeId> = [foo].into_iter().collect();
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.roots().len(), 1);
        assert_eq!(sub.node(map[&foo]).name(), "FOO");
    }

    #[test]
    fn multi_root_graphs() {
        let mut g = Graph::new();
        let a = g.add_root(Frame::named("A"));
        let b = g.add_root(Frame::named("B"));
        assert_eq!(g.roots(), &[a, b]);
        assert_eq!(g.preorder(), vec![a, b]);
        assert!(g.is_tree());
    }
}
