//! The composition oracle: every path that builds a thicket from the
//! same profiles must build the thicket a reference composer kept here
//! builds, cell for cell, for any worker count. Two algebra laws relate
//! pooling along the profile axis to loading: pooling the loads of
//! consecutive groups equals one load, and pooling a thicket's groupby
//! groups gives the thicket back. A third holds the chunked loader to
//! the first: a load is the same thicket and the same report whatever
//! chunks its source yields. A fourth relates filtering to loading:
//! pushing a metadata filter below the read keeps what filtering the
//! whole load keeps. A store source and the store path read under the
//! same loader settings load the same thicket.
//!
//! Four laws hold column-axis composition (`concat_thickets`) to its
//! inputs, in both node-matching modes: projecting one label's columns
//! out of a composition gives that input on the rows every input holds;
//! composing filtered inputs equals filtering the composition; composing
//! pooled inputs equals pooling compositions, so the row and column axes
//! commute; and where names are call paths, matching by name composes
//! what matching by path does.
//!
//! The reference is deliberately naive: [`GraphUnion::build_naive`] for
//! the graph, one [`FrameBuilder`] row per measured `(node, profile)`
//! pair (duplicate sibling frames summed in source order), then a
//! stable [`DataFrame::sort_by_index`]; metadata is one `FrameBuilder`
//! row per profile.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use thicket_core::{
    concat_thickets, concat_thickets_rows, FilterPlan, LoadSource, NodeMatch, PredExpr, PredOp,
    ProfileSource, StoreSource, Strictness, Thicket, ThicketError,
};
use thicket_dataframe::{ColKey, DataFrame, FrameBuilder, Value};
use thicket_graph::{Frame, Graph, GraphUnion, NodeId};
use thicket_perfsim::{
    inject, save_ensemble, simulate_cpu_run, CpuRunConfig, DiagKind, FaultKind, Profile,
    ScratchDir, Store,
};

/// SplitMix64: a seeded stream for the structured ensembles below.
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

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// A random call forest of up to 12 nodes. Names come from a small
/// alphabet, so sibling frames repeat (and merge in the union); some
/// frames carry a `type`, which keeps them apart from the bare name.
///
/// A few nodes gain an extra (DAG) parent. The extra parent comes after
/// the first parent in the arena (so a store round trip keeps the parent
/// order) and after the node in pre-order (so the walk meets the first
/// parent first), and is not a descendant.
fn forest(mix: &mut Mix) -> Graph {
    let n = 1 + mix.below(12);
    let parent: Vec<Option<usize>> = (0..n)
        .map(|i| (i > 0 && !mix.chance(6)).then(|| mix.below(i.max(1))))
        .collect();
    let frames: Vec<Frame> = (0..n)
        .map(|_| {
            let name = format!("f{}", mix.below(4));
            if mix.chance(5) {
                Frame::with_type(name, "loop")
            } else {
                Frame::named(name)
            }
        })
        .collect();

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
    for _ in 0..mix.below(3) {
        let (c, p) = (mix.below(n), mix.below(n));
        let Some(fp) = parent[c] else { continue };
        if p > fp && pos[p] > pos[c] && !ancestors(p).contains(&c) && !extra.contains(&(p, c)) {
            extra.push((p, c));
        }
    }
    extra.sort_unstable();

    let mut g = Graph::new();
    let mut ids = Vec::with_capacity(n);
    for (i, frame) in frames.into_iter().enumerate() {
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

/// One profile over `graph`: some nodes unmeasured, the rest measuring a
/// random subset of three metrics. Metadata always holds a unique `run`
/// (so profile hashes differ) and a varying set of other keys, in a
/// varying order, covering every value kind; `x` is an Int in some
/// profiles and a Float in others.
fn profile(mix: &mut Mix, graph: Graph, run: i64) -> Profile {
    let ids: Vec<_> = graph.ids().collect();
    let mut p = Profile::new(graph);
    for id in ids {
        if mix.chance(4) {
            continue;
        }
        for m in ["m0", "m1", "m2"] {
            if !mix.chance(3) {
                let v = match mix.below(8) {
                    0 => -0.0,
                    1 => mix.below(100) as f64,
                    _ => (mix.next() % 1_000_000) as f64 / 997.0 - 300.0,
                };
                p.set_metric(id, m, v);
            }
        }
    }
    let mut meta: Vec<(&str, Value)> = vec![("run", Value::Int(run))];
    if !mix.chance(3) {
        let x = if mix.chance(2) {
            Value::Int(mix.below(50) as i64)
        } else {
            Value::Float(mix.below(50) as f64 / 4.0)
        };
        meta.push(("x", x));
    }
    if !mix.chance(3) {
        meta.push((
            "cluster",
            Value::from(["quartz", "lassen", "ruby"][mix.below(3)]),
        ));
    }
    if mix.chance(2) {
        meta.push(("debug", Value::Bool(mix.chance(2))));
    }
    if mix.chance(3) {
        meta.push(("note", Value::Null));
    }
    for _ in 0..meta.len() {
        let (a, b) = (mix.below(meta.len()), mix.below(meta.len()));
        meta.swap(a, b);
    }
    for (k, v) in meta {
        p.set_metadata(k, v);
    }
    p
}

/// An ensemble of 1..9 profiles over a few call-tree shapes: most
/// profiles repeat an earlier shape, the rest bring a new one.
fn ensemble(seed: u64) -> Vec<Profile> {
    let mut mix = Mix(seed);
    let mut shapes: Vec<Graph> = Vec::new();
    (0..1 + mix.below(9))
        .map(|run| {
            if shapes.is_empty() || mix.chance(3) {
                shapes.push(forest(&mut mix));
            }
            let g = shapes[mix.below(shapes.len())].clone();
            profile(&mut mix, g, run as i64)
        })
        .collect()
}

/// The reference composer.
fn reference(profiles: &[Profile], ids: &[Value]) -> (Graph, DataFrame, DataFrame) {
    let graphs: Vec<&Graph> = profiles.iter().map(Profile::graph).collect();
    let union = GraphUnion::build_naive(&graphs);
    let mut perf = FrameBuilder::new(["node", "profile"]);
    for ((p, id), map) in profiles.iter().zip(ids).zip(&union.mappings) {
        let mut rows: BTreeMap<usize, BTreeMap<Arc<str>, f64>> = BTreeMap::new();
        for old in p.graph().ids() {
            let metrics = p.node_metrics(old);
            if metrics.is_empty() {
                continue;
            }
            match rows.entry(map[old.index()].index()) {
                Entry::Vacant(e) => {
                    e.insert(metrics.clone());
                }
                Entry::Occupied(mut e) => {
                    for (k, v) in metrics {
                        *e.get_mut().entry(k.clone()).or_insert(0.0) += v;
                    }
                }
            }
        }
        for (node, metrics) in rows {
            let cells = metrics
                .iter()
                .map(|(k, v)| (ColKey::new(k.as_ref()), Value::Float(*v)));
            perf.push_row(vec![Value::Int(node as i64), id.clone()], cells)
                .unwrap();
        }
    }
    let mut meta = FrameBuilder::new(["profile"]);
    for (p, id) in profiles.iter().zip(ids) {
        let cells = p.metadata_iter().map(|(k, v)| (ColKey::new(k), v.clone()));
        meta.push_row(vec![id.clone()], cells).unwrap();
    }
    (
        union.graph,
        perf.finish().unwrap().sort_by_index(),
        meta.finish().unwrap(),
    )
}

fn pick<T: Clone>(xs: &[T], at: &[usize]) -> Vec<T> {
    at.iter().map(|&i| xs[i].clone()).collect()
}

fn hash_ids(profiles: &[Profile]) -> Vec<Value> {
    profiles
        .iter()
        .map(|p| Value::Int(p.profile_hash()))
        .collect()
}

fn same_graph(a: &Graph, b: &Graph) -> bool {
    a.len() == b.len()
        && a.roots() == b.roots()
        && a.ids().all(|id| {
            let (x, y) = (a.node(id), b.node(id));
            x.frame() == y.frame() && x.parents() == y.parents() && x.children() == y.children()
        })
}

/// Frames equal cell for cell, with the same columns masked.
fn same_frame(got: &DataFrame, want: &DataFrame) -> bool {
    got == want
        && got
            .columns()
            .zip(want.columns())
            .all(|((_, a), (_, b))| a.as_f64_slice().is_some() == b.as_f64_slice().is_some())
}

/// A source that yields its profiles in chunks of `size`.
struct Chunks {
    profiles: Vec<Profile>,
    size: usize,
}

impl ProfileSource for Chunks {
    fn next_chunk(
        &mut self,
        _threads: Option<usize>,
        _strictness: Strictness,
    ) -> Result<Option<Cow<'_, [Profile]>>, ThicketError> {
        if self.profiles.is_empty() {
            return Ok(None);
        }
        let rest = self.profiles.split_off(self.size.min(self.profiles.len()));
        Ok(Some(Cow::Owned(std::mem::replace(
            &mut self.profiles,
            rest,
        ))))
    }

    fn meta_keys(&mut self) -> BTreeSet<String> {
        BTreeSet::new()
    }
}

/// Whether `p` carries the NaN the chunking law plants.
fn has_nan(p: &Profile) -> bool {
    p.metric(p.graph().roots()[0], "m1")
        .is_some_and(f64::is_nan)
}

/// A literal of every kind the oracle's metadata holds, `null` included.
fn literal(mix: &mut Mix) -> Value {
    match mix.below(6) {
        0 => Value::Null,
        1 => Value::Int(mix.below(50) as i64),
        2 => Value::Float(mix.below(50) as f64 / 4.0),
        3 => Value::from(["quartz", "lassen", "ruby"][mix.below(3)]),
        4 => Value::Bool(mix.chance(2)),
        _ => Value::Int(mix.below(9) as i64),
    }
}

/// A random predicate over `keys`: comparisons, membership and string
/// matches under `and`, `or` and `not`. The `profile` key draws
/// membership in all of `ids` or a random subset.
fn predicate(mix: &mut Mix, keys: &[String], ids: &[Value], depth: usize) -> PredExpr {
    if depth > 0 && mix.chance(3) {
        let mut branches: Vec<PredExpr> = (0..1 + mix.below(3))
            .map(|_| predicate(mix, keys, ids, depth - 1))
            .collect();
        return match mix.below(3) {
            0 => PredExpr::and(branches),
            1 => PredExpr::or(branches),
            _ => PredExpr::not(branches.swap_remove(0)),
        };
    }
    let field = keys[mix.below(keys.len())].clone();
    if field == "profile" {
        let all = mix.chance(2);
        let some: Vec<Value> = ids
            .iter()
            .filter(|_| all || mix.chance(2))
            .cloned()
            .collect();
        return PredExpr::is_in(field, some);
    }
    match mix.below(5) {
        0 => PredExpr::is_in(
            field,
            (0..mix.below(4)).map(|_| literal(mix)).collect::<Vec<_>>(),
        ),
        1 => PredExpr::starts_with(field, ["qu", "l", ""][mix.below(3)]),
        _ => PredExpr::Cmp {
            field,
            op: [
                PredOp::Eq,
                PredOp::Ne,
                PredOp::Lt,
                PredOp::Le,
                PredOp::Gt,
                PredOp::Ge,
            ][mix.below(6)],
            value: literal(mix),
        },
    }
}

/// A thicket's non-null perf cells, keyed by (call path, profile,
/// column), and its non-null metadata cells, keyed by (profile, column):
/// what a load holds, whatever graph nodes or columns it carries empty.
type Cells = (PerfCells, MetaCells);
type PerfCells = BTreeMap<(Vec<Frame>, Value, String), Value>;
type MetaCells = BTreeMap<(Value, String), Value>;

fn cells(tk: &Thicket) -> Cells {
    let all = |k: &ColKey| Some(k.to_string());
    (perf_cells(tk, NodeMatch::Path, all), meta_cells(tk, all))
}

/// How the column-axis laws key a node: by its call path, or under
/// `NodeMatch::Name` by its name alone.
fn node_key(tk: &Thicket, node: NodeId, mode: NodeMatch) -> Vec<Frame> {
    let g = tk.graph();
    match mode {
        NodeMatch::Path => g
            .path_to(node)
            .into_iter()
            .map(|id| g.node(id).frame().clone())
            .collect(),
        NodeMatch::Name => vec![Frame::named(g.node(node).name())],
    }
}

/// `tk`'s non-null perf cells, keyed by (node, profile, column), nodes
/// keyed as `mode` matches them; `column` names a column in the key, or
/// leaves it out.
fn perf_cells(
    tk: &Thicket,
    mode: NodeMatch,
    column: impl Fn(&ColKey) -> Option<String>,
) -> PerfCells {
    let columns: Vec<_> = tk
        .perf_data()
        .columns()
        .filter_map(|(k, c)| Some((column(k)?, c)))
        .collect();
    let mut out = BTreeMap::new();
    for (row, key) in tk.perf_data().index().keys().iter().enumerate() {
        let node = node_key(tk, tk.node_of_value(&key[0]).unwrap(), mode);
        for (col, values) in &columns {
            let v = values.get(row);
            if !v.is_null() {
                out.insert((node.clone(), key[1].clone(), col.clone()), v);
            }
        }
    }
    out
}

/// `tk`'s non-null metadata cells, keyed by (profile, column); `column`
/// as for [`perf_cells`].
fn meta_cells(tk: &Thicket, column: impl Fn(&ColKey) -> Option<String>) -> MetaCells {
    let columns: Vec<_> = tk
        .metadata()
        .columns()
        .filter_map(|(k, c)| Some((column(k)?, c)))
        .collect();
    let mut out = BTreeMap::new();
    for (row, key) in tk.metadata().index().keys().iter().enumerate() {
        for (col, values) in &columns {
            let v = values.get(row);
            if !v.is_null() {
                out.insert((key[0].clone(), col.clone()), v);
            }
        }
    }
    out
}

fn assert_matches(tk: &Thicket, want: &(Graph, DataFrame, DataFrame), path: &str) {
    assert!(same_graph(tk.graph(), &want.0), "{path}: graph differs");
    assert!(
        same_frame(tk.perf_data(), &want.1),
        "{path}: perf data differs"
    );
    assert!(
        same_frame(tk.metadata(), &want.2),
        "{path}: metadata differs"
    );
    assert!(tk.statsframe().is_empty(), "{path}: stale statsframe");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Slice, owned, ensemble directory and store (every selection and
    /// chunking) loads all build the reference thicket, at 1, 2 and 8
    /// workers. An ensemble directory loads its files in name order. So
    /// does a store written by a save of a random first batch and
    /// appends of a random contiguous split of the rest (each append's
    /// base the manifest the commit before it registered), read in
    /// place and from a copy under a new path (a registry miss).
    #[test]
    fn every_path_builds_the_reference_thicket(seed in any::<u64>()) {
        let profiles = ensemble(seed);
        let n = profiles.len();
        let ids = hash_ids(&profiles);
        let whole = reference(&profiles, &ids);
        let dir = ScratchDir::new("compose-oracle");
        Store::save(&dir, &profiles).unwrap();
        let json_dir = ScratchDir::new("compose-oracle-ensemble");
        let files = save_ensemble(&json_dir, &profiles).unwrap();
        let mut by_name: Vec<usize> = (0..n).collect();
        by_name.sort_by(|&a, &b| files[a].cmp(&files[b]));
        let by_name = pick(&profiles, &by_name);
        let in_name_order = reference(&by_name, &hash_ids(&by_name));
        let mut mix = Mix(seed ^ 0x5eed);
        let picked: Vec<usize> = (0..n).filter(|_| mix.chance(2)).collect();
        let sparse = pick(&profiles, &picked);
        let grown = ScratchDir::new("compose-oracle-grown");
        let first = 1 + mix.below(n);
        Store::save(&grown, &profiles[..first]).unwrap();
        let mut start = first;
        for end in first + 1..=n {
            if end == n || mix.chance(2) {
                Store::append(&grown, &profiles[start..end]).unwrap();
                start = end;
            }
        }
        let copied = ScratchDir::copy_of("compose-oracle-grown-copy", &grown);

        for threads in [1usize, 2, 8] {
            let at = |path: &str| format!("{path} (seed {seed}, {threads} threads)");
            let (tk, report) = Thicket::loader(&profiles).threads(threads).load().unwrap();
            assert_matches(&tk, &whole, &at("slice"));
            prop_assert!(report.is_clean());
            let (tk, _) = Thicket::loader(profiles.clone()).threads(threads).load().unwrap();
            assert_matches(&tk, &whole, &at("owned"));
            let (tk, report) = Thicket::loader(LoadSource::ensemble(&json_dir)).threads(threads).load().unwrap();
            assert_matches(&tk, &in_name_order, &at("ensemble directory"));
            prop_assert!(report.is_clean());

            let store = || Thicket::loader(LoadSource::store(&dir)).threads(threads);
            let (tk, _) = store().load().unwrap();
            assert_matches(&tk, &whole, &at("store"));
            if !sparse.is_empty() {
                let runs: Vec<Value> = picked.iter().map(|&i| Value::Int(i as i64)).collect();
                let (tk, report) = store().filter(PredExpr::is_in("run", runs)).load().unwrap();
                prop_assert_eq!(report.loaded, sparse.len());
                assert_matches(&tk, &reference(&sparse, &hash_ids(&sparse)), &at("sparse store"));
            }
            for chunk in 1..=n {
                let src = StoreSource::open(&dir).unwrap().chunk_size(chunk);
                let (tk, _) = Thicket::loader(LoadSource::custom(src)).threads(threads).load().unwrap();
                assert_matches(&tk, &whole, &at(&format!("store in chunks of {chunk}")));
            }
            for (path, grown) in [("appended store", &grown), ("appended store, copied", &copied)] {
                let (tk, report) = Thicket::loader(LoadSource::store(grown)).threads(threads).load().unwrap();
                assert_matches(&tk, &whole, &at(path));
                prop_assert!(report.is_clean());
            }
        }
    }

    /// Chunking law: a load of an ensemble in which some profiles carry
    /// NaN metrics (at least one; all of them at times) and some repeat
    /// an earlier profile, healthy or NaN, in the same chunk or a later
    /// one, builds from chunks of any size the thicket and the report
    /// the whole in-memory load builds, or fails with its error, lenient
    /// and strict alike. Chunks of one hold a chunk made only of a bad
    /// profile.
    #[test]
    fn lenient_loads_are_the_same_in_any_chunks(seed in any::<u64>()) {
        let mut profiles = ensemble(seed);
        let mut mix = Mix(seed ^ 0xc4a2);
        let mut bad: Vec<usize> = (0..profiles.len()).filter(|_| mix.chance(3)).collect();
        if bad.is_empty() {
            bad.push(mix.below(profiles.len()));
        }
        for &i in &bad {
            let root = profiles[i].graph().roots()[0];
            profiles[i].set_metric(root, "m1", f64::NAN);
        }
        let copies = mix.below(4);
        for _ in 0..copies {
            let j = mix.below(profiles.len());
            let at = j + 1 + mix.below(profiles.len() - j);
            profiles.insert(at, profiles[j].clone());
        }
        let n = profiles.len();
        // One lenient load drops every NaN profile and every repeat of a
        // profile it admitted.
        let mut admitted = HashSet::new();
        let dropped = profiles
            .iter()
            .filter(|p| has_nan(p) || !admitted.insert(p.profile_hash()))
            .count();

        for threads in [1usize, 2, 8] {
            for strictness in [Strictness::Lenient, Strictness::FailFast] {
                let load = |src: LoadSource| {
                    Thicket::loader(src).strictness(strictness).threads(threads).load()
                };
                let whole = load(LoadSource::from(&profiles));
                for size in 1..=n {
                    let at = format!("{strictness:?} in chunks of {size} (seed {seed}, {threads} threads)");
                    let chunked = load(LoadSource::custom(Chunks { profiles: profiles.clone(), size }));
                    match (&whole, &chunked) {
                        (Ok((want, want_report)), Ok((got, report))) => {
                            prop_assert!(same_graph(got.graph(), want.graph()), "{}: graph differs", at);
                            prop_assert!(same_frame(got.perf_data(), want.perf_data()), "{}: perf data differs", at);
                            prop_assert!(same_frame(got.metadata(), want.metadata()), "{}: metadata differs", at);
                            prop_assert_eq!(report, want_report, "{}: report differs", at);
                            let want_dropped = if strictness == Strictness::Lenient { dropped } else { 0 };
                            prop_assert_eq!(report.dropped(), want_dropped, "{}", at);
                        }
                        (Err(want), Err(got)) => {
                            prop_assert_eq!(got.to_string(), want.to_string(), "{}", at);
                            if strictness == Strictness::Lenient {
                                prop_assert_eq!(dropped, n, "{}", at);
                            } else {
                                prop_assert!(copies > 0, "{}: {}", at, got);
                            }
                        }
                        _ => prop_assert!(false, "{}: whole {:?} but chunked {:?}", at, whole.as_ref().err(), chunked.as_ref().err()),
                    }
                }
            }
        }
    }

    /// Pushdown law: a store load and an in-memory load with
    /// `Loader::filter(p)` hold the profiles, and the non-null perf and
    /// metadata cells, that filtering the whole load with
    /// `filter_metadata_where(p)` keeps, for random predicates over the
    /// ensemble's metadata keys (Int and Float `x`, stored-null `note`,
    /// `null` literals), a key no profile carries, and `profile in` the
    /// whole load's ids. The filter is fully pushed exactly when every
    /// field is a carried key; the rest runs above the read, where it
    /// must keep a profile that measures nothing as the metadata filter
    /// does. A load that keeps no profile fails where the filter keeps
    /// none.
    #[test]
    fn pushing_a_filter_below_the_read_equals_filtering_the_load(seed in any::<u64>()) {
        let profiles = ensemble(seed);
        let carried: BTreeSet<String> = profiles
            .iter()
            .flat_map(|p| p.metadata_iter().map(|(k, _)| k.to_string()))
            .collect();
        let keys: Vec<String> = carried.iter().cloned().chain(["nope", "profile"].map(String::from)).collect();
        let dir = ScratchDir::new("compose-oracle-pushdown");
        Store::save(&dir, &profiles).unwrap();
        let whole = Thicket::loader(&profiles).load().unwrap().0;
        let ids = whole.profiles();
        let mut mix = Mix(seed ^ 0xf117);
        for _ in 0..8 {
            let pred = predicate(&mut mix, &keys, &ids, 2);
            let pushable = pred.fields().iter().all(|f| carried.contains(*f));
            let want = whole.filter_metadata_where(&pred);
            let loads = [
                ("in-memory", Thicket::loader(&profiles).filter(pred.clone()).load()),
                ("store", Thicket::loader(LoadSource::store(&dir)).filter(pred.clone()).load()),
            ];
            for (path, got) in loads {
                let at = format!("{path} load filtered by {pred} (seed {seed})");
                match got {
                    Ok((tk, report)) => {
                        prop_assert_eq!(report.pushdown.as_ref().map(FilterPlan::fully_pushed), Some(pushable), "{}", at);
                        prop_assert_eq!(tk.profiles(), want.profiles(), "{}", at);
                        prop_assert!(cells(&tk) == cells(&want), "{}: cells differ", at);
                    }
                    Err(e) => prop_assert!(want.profiles().is_empty(), "{}: {} but the filter keeps {:?}", at, e, want.profiles()),
                }
            }
        }
    }

    /// A lenient build with injected duplicate ids and NaN metrics
    /// equals the strict build over the healthy profiles, with one
    /// diagnostic per bad profile, in input order.
    #[test]
    fn lenient_equals_strict_over_the_healthy_subset(seed in any::<u64>()) {
        let mut profiles = ensemble(seed);
        let mut ids: Vec<Value> = (0..profiles.len() as i64).map(|i| Value::Int(100 - i)).collect();
        let mut mix = Mix(!seed);
        let mut bad: Vec<(usize, &str)> = Vec::new();
        for i in 0..profiles.len() {
            if mix.chance(4) {
                let root = profiles[i].graph().roots()[0];
                profiles[i].set_metric(root, "m1", f64::NAN);
                bad.push((i, "non-finite"));
            } else if i > 0 && mix.chance(4) {
                let healthy_before: Vec<usize> = (0..i).filter(|j| !bad.iter().any(|(b, _)| b == j)).collect();
                if let Some(&j) = healthy_before.get(mix.below(healthy_before.len().max(1))) {
                    ids[i] = ids[j].clone();
                    bad.push((i, "duplicate"));
                }
            }
        }
        let healthy: Vec<usize> = (0..profiles.len()).filter(|i| !bad.iter().any(|(b, _)| b == i)).collect();
        prop_assume!(!healthy.is_empty());
        let (healthy_profiles, healthy_ids) = (pick(&profiles, &healthy), pick(&ids, &healthy));
        let want = reference(&healthy_profiles, &healthy_ids);

        for threads in [1usize, 2, 8] {
            let (tk, report) = Thicket::loader(&profiles)
                .profile_ids(&ids)
                .strictness(Strictness::Lenient)
                .threads(threads)
                .load()
                .unwrap();
            assert_matches(&tk, &want, &format!("lenient (seed {seed}, {threads} threads)"));
            let strict = Thicket::loader(&healthy_profiles)
                .profile_ids(&healthy_ids)
                .threads(threads)
                .load()
                .unwrap()
                .0;
            assert_matches(&strict, &want, &format!("strict subset (seed {seed}, {threads} threads)"));
            prop_assert_eq!(report.attempted, profiles.len());
            prop_assert_eq!(report.loaded, healthy.len());
            prop_assert_eq!(report.diagnostics.len(), bad.len());
            for (d, (i, what)) in report.diagnostics.iter().zip(&bad) {
                prop_assert_eq!(&d.source, &format!("profile {}", ids[*i]));
                let kind_ok = match *what {
                    "duplicate" => matches!(d.kind, DiagKind::DuplicateProfile { .. }),
                    _ => matches!(d.kind, DiagKind::NonFiniteMetric { .. }),
                };
                prop_assert!(kind_ok, "diagnostic {:?} for profile {}", d.kind, i);
            }
        }
    }
}

/// The load's settings live on the loader alone: over a store with one
/// rotted record, the store path and a store source, whole and in chunks
/// of 1 and 2, load the same thicket and report under `Lenient` and
/// fail with the same error under `FailFast`.
#[test]
fn a_store_source_loads_what_the_store_path_loads() {
    let profiles: Vec<Profile> = (0..6)
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect();
    let dir = ScratchDir::new("compose-oracle-rot");
    Store::save(&dir, &profiles).unwrap();
    inject(&dir, FaultKind::ColumnCrcRot, 3).unwrap();

    for strictness in [Strictness::Lenient, Strictness::FailFast] {
        let load = |src: LoadSource| Thicket::loader(src).strictness(strictness).load();
        let want = load(LoadSource::store(&dir));
        let sources = [
            ("whole", StoreSource::open(&dir).unwrap()),
            (
                "chunks of 1",
                StoreSource::open(&dir).unwrap().chunk_size(1),
            ),
            (
                "chunks of 2",
                StoreSource::open(&dir).unwrap().chunk_size(2),
            ),
        ];
        for (shape, src) in sources {
            let at = format!("{strictness:?} store source, {shape}");
            match (&want, load(LoadSource::custom(src))) {
                (Ok((want, want_report)), Ok((got, report))) => {
                    assert!(same_graph(got.graph(), want.graph()), "{at}: graph differs");
                    assert!(
                        same_frame(got.perf_data(), want.perf_data()),
                        "{at}: perf data differs"
                    );
                    assert!(
                        same_frame(got.metadata(), want.metadata()),
                        "{at}: metadata differs"
                    );
                    assert_eq!(&report, want_report, "{at}: report differs");
                    assert_eq!((report.loaded, report.dropped()), (5, 1), "{at}");
                }
                (Err(want), Err(got)) => {
                    assert_eq!(strictness, Strictness::FailFast, "{at}: {got}");
                    assert_eq!(got.to_string(), want.to_string(), "{at}");
                }
                (want, got) => panic!(
                    "{at}: store path {:?} but store source {:?}",
                    want.as_ref().err(),
                    got.err()
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pool law: split the ensemble at random into k ≥ 1 contiguous
    /// groups and load each group; pooling those loads builds the
    /// reference thicket over every profile.
    #[test]
    fn pooling_group_loads_builds_the_reference_thicket(seed in any::<u64>()) {
        let profiles = ensemble(seed);
        let whole = reference(&profiles, &hash_ids(&profiles));
        let mut mix = Mix(seed ^ 0x9001);
        let mut loads = Vec::new();
        let mut start = 0;
        for end in 1..=profiles.len() {
            if end == profiles.len() || mix.chance(2) {
                loads.push(Thicket::loader(&profiles[start..end]).load().unwrap().0);
                start = end;
            }
        }
        let refs: Vec<&Thicket> = loads.iter().collect();
        let pooled = concat_thickets_rows(&refs).unwrap();
        assert_matches(&pooled, &whole, &format!("pool of {} loads (seed {seed})", loads.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Split law: pooling the groups of `groupby(T, [col])`, in
    /// first-seen order, gives T's graph and perf data, and T's metadata
    /// rows in group order.
    #[test]
    fn pooling_groupby_groups_gives_the_thicket_back(seed in any::<u64>()) {
        let tk = Thicket::loader(ensemble(seed)).load().unwrap().0;
        let columns = tk.metadata().column_keys();
        let col = columns[Mix(seed ^ 0x5911).below(columns.len())].clone();
        let groups: Vec<Thicket> = tk.groupby(&[col]).unwrap().into_iter().map(|(_, g)| g).collect();
        let refs: Vec<&Thicket> = groups.iter().collect();
        let pooled = concat_thickets_rows(&refs).unwrap();

        let rows: Vec<usize> = groups
            .iter()
            .flat_map(|g| g.metadata().index().keys().to_vec())
            .map(|k| tk.metadata().index().position_of(&k).unwrap())
            .collect();
        let at = format!("pool of {} groups (seed {seed})", groups.len());
        prop_assert!(same_graph(pooled.graph(), tk.graph()), "{}: graph differs", at);
        prop_assert!(same_frame(pooled.perf_data(), tk.perf_data()), "{}: perf data differs", at);
        prop_assert!(same_frame(pooled.metadata(), &tk.metadata().take(&rows)), "{}: metadata differs", at);
    }
}

/// Inputs to compose over one secondary index: two or three loads, each
/// under its own draw of profile ids from 0..8, so some ids are in every
/// input and some are not. An input's profiles share one call tree cut
/// from a universe whose node names are unique, so every input measures
/// each name at most once and `NodeMatch::Name` applies. With
/// `same_paths` a tree keeps each node under its universe parent, so a
/// name names one call path in every input; without, a node may move
/// under another parent or to the top.
fn composable(seed: u64, same_paths: bool) -> Vec<Thicket> {
    let mut mix = Mix(seed);
    let universe: Vec<(Option<usize>, Frame)> = (0..1 + mix.below(10))
        .map(|i| {
            let parent = (i > 0 && !mix.chance(5)).then(|| mix.below(i));
            let name = format!("k{i}");
            let frame = if mix.chance(5) {
                Frame::with_type(name, "loop")
            } else {
                Frame::named(name)
            };
            (parent, frame)
        })
        .collect();
    (0..2 + mix.below(2))
        .map(|_| {
            let mut g = Graph::new();
            let mut ids: Vec<Option<NodeId>> = vec![None; universe.len()];
            for (i, (parent, frame)) in universe.iter().enumerate() {
                if i > 0 && mix.chance(4) {
                    continue;
                }
                let stays = same_paths || !mix.chance(3);
                let parent = match parent {
                    Some(p) if stays => match ids[*p] {
                        None if same_paths => continue,
                        at => at,
                    },
                    None if stays => None,
                    _ => {
                        let kept: Vec<NodeId> = ids.iter().flatten().copied().collect();
                        (!kept.is_empty() && mix.chance(2)).then(|| kept[mix.below(kept.len())])
                    }
                };
                ids[i] = Some(match parent {
                    None => g.add_root(frame.clone()),
                    Some(p) => g.add_child(p, frame.clone()),
                });
            }
            let mut runs: Vec<i64> = (0..8).filter(|_| !mix.chance(3)).collect();
            if runs.is_empty() {
                runs.push(mix.below(8) as i64);
            }
            for i in (1..runs.len()).rev() {
                runs.swap(i, mix.below(i + 1));
            }
            let profiles: Vec<Profile> = runs
                .iter()
                .map(|&run| profile(&mut mix, g.clone(), run))
                .collect();
            let ids: Vec<Value> = runs.into_iter().map(Value::Int).collect();
            Thicket::loader(&profiles)
                .profile_ids(&ids)
                .load()
                .unwrap()
                .0
        })
        .collect()
}

/// `inputs` composed under the labels `A`, `B`, `C`.
fn compose(inputs: &[Thicket], mode: NodeMatch) -> Thicket {
    let labelled: Vec<(&str, &Thicket)> = ["A", "B", "C"].into_iter().zip(inputs).collect();
    concat_thickets(&labelled, mode).unwrap()
}

/// The profile ids `ids` as index values.
fn index(ids: &[i64]) -> Vec<Value> {
    ids.iter().map(|&i| Value::Int(i)).collect()
}

const MODES: [NodeMatch; 2] = [NodeMatch::Path, NodeMatch::Name];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Projection law: a composition's perf columns under label i, the
    /// label stripped, are input i's cells on the (node, profile) rows
    /// every input holds, and its metadata columns under label i are input
    /// i's metadata, nodes keyed as the mode matches them.
    #[test]
    fn projecting_a_label_out_of_a_composition_gives_its_input(seed in any::<u64>()) {
        let inputs = composable(seed, false);
        let all = |k: &ColKey| Some(k.to_string());
        for mode in MODES {
            let composed = compose(&inputs, mode);
            let rows: Vec<BTreeSet<(Vec<Frame>, Value)>> = inputs
                .iter()
                .map(|tk| perf_cells(tk, mode, all).into_keys().map(|(node, p, _)| (node, p)).collect())
                .collect();
            for (tk, label) in inputs.iter().zip(["A", "B", "C"]) {
                let at = format!("label {label}, {mode:?} (seed {seed})");
                let under = |k: &ColKey| (k.group_str() == Some(label)).then(|| k.ungrouped().to_string());
                let mut want = perf_cells(tk, mode, all);
                want.retain(|(node, p, _), _| rows.iter().all(|r| r.contains(&(node.clone(), p.clone()))));
                prop_assert!(perf_cells(&composed, mode, under) == want, "{}: perf cells differ", at);
                prop_assert!(meta_cells(&composed, under) == meta_cells(tk, all), "{}: metadata differs", at);
            }
        }
    }

    /// Filter law: composing the inputs filtered to a subset of the
    /// shared index equals filtering the composition to it.
    #[test]
    fn composing_filtered_inputs_equals_filtering_the_composition(seed in any::<u64>()) {
        let inputs = composable(seed, false);
        let mut mix = Mix(seed ^ 0xf11e);
        let keep = index(&(0..8).filter(|_| mix.chance(2)).collect::<Vec<_>>());
        let filtered: Vec<Thicket> = inputs.iter().map(|tk| tk.filter_profiles(&keep)).collect();
        for mode in MODES {
            let want = compose(&inputs, mode).filter_profiles(&keep);
            prop_assert!(cells(&compose(&filtered, mode)) == cells(&want), "{:?} (seed {}): cells differ", mode, seed);
        }
    }

    /// Commutation law: split the shared index in two; composing each
    /// input's pooled halves equals pooling the compositions of the
    /// halves, so the row and column axes commute.
    #[test]
    fn composing_pools_equals_pooling_compositions(seed in any::<u64>()) {
        let inputs = composable(seed, false);
        let mut mix = Mix(seed ^ 0xc0c0);
        let (left, right): (Vec<i64>, Vec<i64>) = (0..8).partition(|_| mix.chance(2));
        let half = |ids: &[i64]| -> Vec<Thicket> {
            inputs.iter().map(|tk| tk.filter_profiles(&index(ids))).collect()
        };
        let (left, right) = (half(&left), half(&right));
        let pools: Vec<Thicket> = left
            .iter()
            .zip(&right)
            .map(|(l, r)| concat_thickets_rows(&[l, r]).unwrap())
            .collect();
        for mode in MODES {
            let want = concat_thickets_rows(&[&compose(&left, mode), &compose(&right, mode)]).unwrap();
            prop_assert!(cells(&compose(&pools, mode)) == cells(&want), "{:?} (seed {}): cells differ", mode, seed);
        }
    }

    /// Mode law: where node names are unique and name one call path in
    /// every input, matching by name composes what matching by path does.
    #[test]
    fn name_and_path_agree_where_names_are_call_paths(seed in any::<u64>()) {
        let inputs = composable(seed, true);
        let by_path = compose(&inputs, NodeMatch::Path);
        let by_name = compose(&inputs, NodeMatch::Name);
        prop_assert!(cells(&by_path) == cells(&by_name), "seed {}: cells differ", seed);
    }
}
