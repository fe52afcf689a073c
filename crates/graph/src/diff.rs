//! Structural diff between call graphs: which call paths appeared,
//! disappeared, or persist between two runs — useful when an ensemble's
//! trees are *not* identical (new code paths after a change, dynamic
//! features toggled by configuration).

use crate::graph::{Graph, NodeId};
use crate::union::GraphUnion;
use std::collections::HashSet;

/// The outcome of diffing two graphs.
#[derive(Debug, Clone)]
pub struct GraphDiff {
    /// The union graph both sides were mapped into.
    pub union: Graph,
    /// Union node ids present in both inputs.
    pub common: Vec<NodeId>,
    /// Union node ids present only in the left input.
    pub only_left: Vec<NodeId>,
    /// Union node ids present only in the right input.
    pub only_right: Vec<NodeId>,
}

impl GraphDiff {
    /// Diff `left` against `right` by structural union.
    pub fn compute(left: &Graph, right: &Graph) -> GraphDiff {
        let u = GraphUnion::build(&[left, right]);
        let l: HashSet<NodeId> = u.mappings[0].iter().copied().collect();
        let r: HashSet<NodeId> = u.mappings[1].iter().copied().collect();
        let mut common: Vec<NodeId> = l.intersection(&r).copied().collect();
        let mut only_left: Vec<NodeId> = l.difference(&r).copied().collect();
        let mut only_right: Vec<NodeId> = r.difference(&l).copied().collect();
        common.sort_unstable();
        only_left.sort_unstable();
        only_right.sort_unstable();
        GraphDiff {
            union: u.graph,
            common,
            only_left,
            only_right,
        }
    }

    /// `true` when the two graphs are structurally identical.
    pub fn is_identical(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty()
    }

    /// Jaccard similarity of the two node sets (1.0 = identical).
    pub fn similarity(&self) -> f64 {
        let union_size = self.common.len() + self.only_left.len() + self.only_right.len();
        if union_size == 0 {
            return 1.0;
        }
        self.common.len() as f64 / union_size as f64
    }

    /// Render the diff as an indented tree with `=`/`<`/`>` markers per
    /// node (`=` common, `<` left-only, `>` right-only).
    pub fn render(&self) -> String {
        let l: HashSet<NodeId> = self.only_left.iter().copied().collect();
        let r: HashSet<NodeId> = self.only_right.iter().copied().collect();
        let mut out = String::new();
        for id in self.union.preorder() {
            let marker = if l.contains(&id) {
                '<'
            } else if r.contains(&id) {
                '>'
            } else {
                '='
            };
            out.push_str(&"  ".repeat(self.union.depth(id)));
            out.push(marker);
            out.push(' ');
            out.push_str(self.union.node(id).name());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn chain(names: &[&str]) -> Graph {
        let mut g = Graph::new();
        let mut cur = g.add_root(Frame::named(names[0]));
        for n in &names[1..] {
            cur = g.add_child(cur, Frame::named(*n));
        }
        g
    }

    #[test]
    fn identical_graphs() {
        let a = chain(&["main", "solve"]);
        let d = GraphDiff::compute(&a, &a.clone());
        assert!(d.is_identical());
        assert_eq!(d.similarity(), 1.0);
        assert_eq!(d.common.len(), 2);
    }

    #[test]
    fn divergent_subtrees() {
        let mut a = Graph::new();
        let m = a.add_root(Frame::named("main"));
        a.add_child(m, Frame::named("old_kernel"));
        a.add_child(m, Frame::named("shared"));
        let mut b = Graph::new();
        let m2 = b.add_root(Frame::named("main"));
        b.add_child(m2, Frame::named("new_kernel"));
        b.add_child(m2, Frame::named("shared"));
        let d = GraphDiff::compute(&a, &b);
        assert_eq!(d.common.len(), 2); // main, shared
        assert_eq!(d.only_left.len(), 1);
        assert_eq!(d.only_right.len(), 1);
        assert!((d.similarity() - 0.5).abs() < 1e-12);
        let txt = d.render();
        assert!(txt.contains("= main"));
        assert!(txt.contains("< old_kernel"));
        assert!(txt.contains("> new_kernel"));
    }

    #[test]
    fn empty_graphs_similar() {
        let d = GraphDiff::compute(&Graph::new(), &Graph::new());
        assert!(d.is_identical());
        assert_eq!(d.similarity(), 1.0);
    }

    #[test]
    fn disjoint_graphs() {
        let d = GraphDiff::compute(&chain(&["a"]), &chain(&["b"]));
        assert_eq!(d.similarity(), 0.0);
        assert!(!d.is_identical());
    }
}
