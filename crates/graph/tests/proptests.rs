//! Property-based tests for graph construction and union.

use proptest::prelude::*;
use thicket_graph::{Frame, Graph, GraphUnion, NodeId};

/// Build a random tree from a parent-pointer vector: node i's parent is
/// `parents[i] % i` (node 0 is the root). Names are drawn from a small
/// alphabet so unions overlap.
fn tree_from(parents: &[usize], names: &[u8]) -> Graph {
    let mut g = Graph::new();
    let mut ids = Vec::new();
    for (i, &p) in parents.iter().enumerate() {
        let name = format!("f{}", names[i % names.len()] % 8);
        let id = if i == 0 {
            g.add_root(Frame::named(&name))
        } else {
            g.add_child(ids[p % i], Frame::named(&name))
        };
        ids.push(id);
    }
    g
}

fn tree_strategy() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec(any::<usize>(), 1..30),
        proptest::collection::vec(any::<u8>(), 1..8),
    )
        .prop_map(|(parents, names)| tree_from(&parents, &names))
}

/// A random tree over a three-name alphabet (so two inputs share long
/// call paths) plus up to four extra (DAG) edges. An extra parent is any
/// node that does not descend from its child, so the graph stays
/// acyclic; the child keeps its random name, so a child reached through
/// an extra edge can meet a first-parent child of the same frame in a
/// union.
fn dag_strategy() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec(any::<usize>(), 1..30),
        proptest::collection::vec(0u8..3, 1..8),
        proptest::collection::vec((any::<usize>(), any::<usize>()), 0..5),
    )
        .prop_map(|(parents, names, edges)| {
            let mut g = tree_from(&parents, &names);
            let ids: Vec<NodeId> = g.ids().collect();
            for (p, c) in edges {
                let (p, c) = (ids[p % ids.len()], ids[c % ids.len()]);
                if !reaches(&g, c, p) {
                    g.add_edge(p, c);
                }
            }
            g
        })
}

/// `true` when `to` is `from` or one of its descendants.
fn reaches(g: &Graph, from: NodeId, to: NodeId) -> bool {
    let mut stack = vec![from];
    let mut seen = vec![false; g.len()];
    while let Some(id) = stack.pop() {
        if id == to {
            return true;
        }
        if !std::mem::replace(&mut seen[id.index()], true) {
            stack.extend(g.node(id).children());
        }
    }
    false
}

/// Canonical multiset of (path-of-names) for structural comparison.
fn path_signature(g: &Graph) -> Vec<Vec<String>> {
    let mut sigs: Vec<Vec<String>> = g
        .preorder()
        .into_iter()
        .map(|id| {
            g.path_to(id)
                .into_iter()
                .map(|n| g.node(n).name().to_string())
                .collect()
        })
        .collect();
    sigs.sort();
    sigs
}

proptest! {
    /// Random trees are valid trees with a full pre-order.
    #[test]
    fn generated_trees_are_trees(g in tree_strategy()) {
        prop_assert!(g.is_tree());
        prop_assert_eq!(g.preorder().len(), g.len());
    }

    /// depth(node) == path_to(node).len() - 1 everywhere.
    #[test]
    fn depth_matches_path(g in tree_strategy()) {
        for id in g.preorder() {
            prop_assert_eq!(g.depth(id) + 1, g.path_to(id).len());
        }
    }

    /// Union with self changes nothing (idempotence).
    #[test]
    fn union_idempotent(g in tree_strategy()) {
        let u = GraphUnion::build(&[&g, &g]);
        prop_assert_eq!(u.graph.len(), GraphUnion::build(&[&g]).graph.len());
        prop_assert_eq!(path_signature(&u.graph), path_signature(&GraphUnion::build(&[&g]).graph));
    }

    /// Union is commutative up to structure (path signatures match).
    #[test]
    fn union_commutative(a in tree_strategy(), b in tree_strategy()) {
        let ab = GraphUnion::build(&[&a, &b]);
        let ba = GraphUnion::build(&[&b, &a]);
        prop_assert_eq!(path_signature(&ab.graph), path_signature(&ba.graph));
    }

    /// The indexed matcher agrees with the naive reference implementation,
    /// graph and mappings, on trees and DAGs.
    #[test]
    fn union_indexed_matches_naive(a in dag_strategy(), b in dag_strategy()) {
        let fast = GraphUnion::build(&[&a, &b]);
        let slow = GraphUnion::build_naive(&[&a, &b]);
        prop_assert!(same_graph(&fast.graph, &slow.graph));
        prop_assert_eq!(&fast.mappings, &slow.mappings);
    }

    /// Every input node maps to a unified node with the same frame and the
    /// same root-to-node name path (via first parents), on trees and DAGs.
    #[test]
    fn union_preserves_paths(a in dag_strategy(), b in dag_strategy()) {
        let u = GraphUnion::build(&[&a, &b]);
        for (g, map) in [(&a, &u.mappings[0]), (&b, &u.mappings[1])] {
            for id in g.preorder() {
                let new = map[id.index()];
                let old_path: Vec<&str> =
                    g.path_to(id).into_iter().map(|n| g.node(n).name()).collect();
                let new_path: Vec<&str> =
                    u.graph.path_to(new).into_iter().map(|n| u.graph.node(n).name()).collect();
                prop_assert_eq!(old_path, new_path);
            }
        }
    }

    /// Induced subgraph over all nodes reproduces the structure.
    #[test]
    fn induced_full_subgraph_is_identity(g in tree_strategy()) {
        let keep: std::collections::HashSet<_> = g.preorder().into_iter().collect();
        let (sub, _) = g.induced_subgraph(&keep);
        prop_assert_eq!(path_signature(&sub), path_signature(&g));
    }
}

/// SplitMix64: a seeded stream for the structured inputs below, which
/// proptest's combinators would express only awkwardly.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random forest of up to 24 nodes. Node `i` hangs under an earlier
/// node (or, one time in eight, starts a new root); names come from a
/// four-letter alphabet, so siblings repeat frames and inputs overlap.
///
/// With `dag`, a few nodes gain an extra parent that comes later in
/// pre-order and is not their descendant.
fn forest(mix: &mut Mix, dag: bool) -> Graph {
    let n = 1 + mix.below(24);
    let mut parent: Vec<Option<usize>> = vec![None];
    for i in 1..n {
        parent.push((mix.below(8) != 0).then(|| mix.below(i)));
    }
    let names: Vec<String> = (0..n).map(|_| format!("f{}", mix.below(4))).collect();

    // Tree pre-order position of every node (children in index order).
    let mut pos = vec![0usize; n];
    let mut stack: Vec<usize> = (0..n).rev().filter(|&i| parent[i].is_none()).collect();
    let mut next = 0;
    while let Some(i) = stack.pop() {
        pos[i] = next;
        next += 1;
        stack.extend((0..n).rev().filter(|&c| parent[c] == Some(i)));
    }
    let ancestors = |mut i: usize| {
        let mut out = Vec::new();
        while let Some(p) = parent[i] {
            out.push(p);
            i = p;
        }
        out
    };

    let mut extra: Vec<(usize, usize)> = Vec::new();
    if dag {
        for _ in 0..mix.below(4) {
            let c = mix.below(n);
            let p = mix.below(n);
            let Some(fp) = parent[c] else { continue };
            if p > fp && pos[p] > pos[c] && !ancestors(p).contains(&c) && !extra.contains(&(p, c)) {
                extra.push((p, c));
            }
        }
        extra.sort_unstable();
    }

    let mut g = Graph::new();
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let frame = Frame::named(&names[i]);
        ids.push(match parent[i] {
            None => g.add_root(frame),
            Some(p) => g.add_child(ids[p], frame),
        });
    }
    for (p, c) in extra {
        g.add_edge(ids[p], ids[c]);
    }
    g
}

/// An ensemble of 1..16 inputs drawn from a few shapes: most inputs
/// repeat an earlier shape (as a fresh copy), the rest are new.
fn ensemble(seed: u64, dag: bool) -> Vec<Graph> {
    let mut mix = Mix(seed);
    let mut shapes: Vec<Graph> = Vec::new();
    let mut out = Vec::new();
    for _ in 0..1 + mix.below(16) {
        if shapes.is_empty() || mix.below(3) == 0 {
            shapes.push(forest(&mut mix, dag));
            out.push(shapes.last().unwrap().clone());
        } else {
            out.push(shapes[mix.below(shapes.len())].clone());
        }
    }
    out
}

/// Arena equality: roots, then node for node frames, parents, children.
fn same_graph(a: &Graph, b: &Graph) -> bool {
    a.len() == b.len()
        && a.roots() == b.roots()
        && a.ids().all(|id| {
            let (x, y) = (a.node(id), b.node(id));
            x.frame() == y.frame() && x.parents() == y.parents() && x.children() == y.children()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Shape reuse and the hash index give the naive walk's graph and
    /// mappings, on forests with repeated shapes, sibling frames that
    /// merge, and DAG edges.
    #[test]
    fn union_reuse_matches_naive(seed in any::<u64>(), dag in any::<bool>()) {
        let inputs = ensemble(seed, dag);
        let refs: Vec<&Graph> = inputs.iter().collect();
        let fast = GraphUnion::build(&refs);
        let slow = GraphUnion::build_naive(&refs);
        prop_assert!(same_graph(&fast.graph, &slow.graph), "graphs differ for seed {}", seed);
        prop_assert_eq!(&fast.mappings, &slow.mappings, "mappings differ for seed {}", seed);
    }

    /// A union seeded with a union's graph maps that graph onto itself,
    /// and unioning the same inputs onto it changes nothing.
    #[test]
    fn seeded_union_is_stable(seed in any::<u64>(), dag in any::<bool>()) {
        let inputs = ensemble(seed, dag);
        let refs: Vec<&Graph> = inputs.iter().collect();
        let u = GraphUnion::build(&refs);
        let onto_self = GraphUnion::build_onto(u.graph.clone(), &[&u.graph]);
        prop_assert_eq!(&onto_self.mappings[0], &u.graph.ids().collect::<Vec<_>>());
        prop_assert!(same_graph(&onto_self.graph, &u.graph));
        let again = GraphUnion::build_onto(u.graph.clone(), &refs);
        prop_assert!(same_graph(&again.graph, &u.graph));
        prop_assert_eq!(&again.mappings, &u.mappings);
    }

    /// Union is associative: unioning the unions of consecutive groups
    /// onto the first group's union gives the union of every input, node
    /// ids and edge order included, and maps each input where the whole
    /// union does.
    #[test]
    fn union_of_group_unions_is_the_union(seed in any::<u64>(), dag in any::<bool>()) {
        let inputs = ensemble(seed, dag);
        let refs: Vec<&Graph> = inputs.iter().collect();
        let whole = GraphUnion::build(&refs);
        let mut mix = Mix(!seed);
        let mut starts = vec![0];
        starts.extend((1..refs.len()).filter(|_| mix.below(2) == 0));
        starts.push(refs.len());
        let groups: Vec<GraphUnion> = starts
            .windows(2)
            .map(|w| GraphUnion::build(&refs[w[0]..w[1]]))
            .collect();
        let rest: Vec<&Graph> = groups[1..].iter().map(|u| &u.graph).collect();
        let pooled = GraphUnion::build_onto(groups[0].graph.clone(), &rest);
        prop_assert!(same_graph(&pooled.graph, &whole.graph), "graphs differ for seed {}", seed);
        for (g, group) in groups.iter().enumerate() {
            let onto = (g > 0).then(|| &pooled.mappings[g - 1]);
            for (k, map) in group.mappings.iter().enumerate() {
                let composed: Vec<NodeId> =
                    map.iter().map(|n| onto.map_or(*n, |m| m[n.index()])).collect();
                prop_assert_eq!(&composed, &whole.mappings[starts[g] + k], "seed {}", seed);
            }
        }
    }
}
