//! The compose engine: the one path from in-memory profiles to a
//! thicket's frames, behind every [`crate::Loader`] build. A chunked
//! load composes each chunk here and pools the chunk thickets with
//! [`crate::concat_thickets_rows`].
//!
//! 1. **Union.** [`GraphUnion`] unifies the call trees, walking each
//!    distinct tree shape once.
//! 2. **Rows.** On the worker threads, each profile's measured nodes map
//!    to their unified ids. Source nodes that merge into one unified node
//!    (duplicate sibling frames) have their metrics summed in source
//!    order. A profile's rows come out sorted by unified node. A
//!    panicking profile is caught on its worker.
//! 3. **Scatter.** One serial pass counts rows per unified node, orders
//!    the profiles by id and writes every metric straight into its final
//!    `(node, profile)` slot: no per-profile fragments, no merge, no sort.
//!    Columns appear in first-seen order across the profiles, in input
//!    order.
//! 4. **Metadata.** One column builder per key, one row per profile in
//!    input order, nulls where a profile lacks the key.
//!
//! Strictness decides at two points only. At screening, strict fails on
//! the first duplicate profile id, while lenient drops duplicate ids and
//! profiles with non-finite metrics, with a diagnostic each. Screening
//! checks ids against those earlier chunks of the same load admitted
//! too, so a chunked load treats a repeated id as one load does. At row
//! assembly, a panicking profile fails a strict build, while lenient
//! drops it and retries on the survivors. A lenient build that drops
//! every profile yields no thicket, only its report: whether that fails
//! the load is the loader's call, once the whole load is in.

use std::collections::{BTreeMap, HashSet};
use std::convert::Infallible;

use thicket_dataframe::{ColKey, Column, ColumnBuilder, DataFrame, Index, Key, Value};
use thicket_graph::{GraphUnion, NodeId};
use thicket_perfsim::{
    parallel_map_catch, DiagKind, Diagnostic, IngestReport, JobFailure, Profile, Strictness,
};

use crate::thicket::{Thicket, ThicketError, NODE_LEVEL, PROFILE_LEVEL};

/// Compose `profiles`, indexed by `ids`, on `threads` workers. Strict
/// builds report every profile loaded or fail; lenient builds report
/// what they dropped, in input order. The thicket is `None` when no
/// profile is left (an empty input, or a lenient build that dropped
/// every profile). Bit-identical for any `threads ≥ 1`.
///
/// `admitted` holds the ids that screening admitted in earlier chunks of
/// the same load (empty for a one-chunk load); an id found there is a
/// duplicate, and every id this chunk admits joins it.
pub(crate) fn compose(
    profiles: &[Profile],
    ids: &[Value],
    admitted: &mut HashSet<Value>,
    threads: usize,
    strictness: Strictness,
) -> Result<(Option<Thicket>, IngestReport), ThicketError> {
    debug_assert_eq!(profiles.len(), ids.len(), "one id per profile");
    let lenient = matches!(strictness, Strictness::Lenient);
    let mut diagnostics: Vec<(usize, Diagnostic)> = Vec::new();
    let mut healthy = screen(profiles, ids, admitted, lenient, &mut diagnostics)?;
    loop {
        if healthy.is_empty() {
            return Ok((None, report(profiles.len(), 0, diagnostics)));
        }
        let graphs: Vec<_> = healthy.iter().map(|&i| profiles[i].graph()).collect();
        let union = GraphUnion::build(&graphs);
        let inputs: Vec<(&Profile, &[NodeId])> = healthy
            .iter()
            .zip(&union.mappings)
            .map(|(&i, m)| (&profiles[i], m.as_slice()))
            .collect();
        let mut rows = Vec::with_capacity(healthy.len());
        let mut kept = Vec::with_capacity(healthy.len());
        for (&i, assembled) in healthy.iter().zip(assemble(&inputs, threads)) {
            match assembled {
                Ok(r) => {
                    rows.push(r);
                    kept.push(i);
                }
                Err(message) if !lenient => return Err(worker_failure(&ids[i], message)),
                Err(message) => diagnostics.push((
                    i,
                    Diagnostic {
                        source: format!("profile {}", ids[i]),
                        kind: DiagKind::WorkerPanic(message),
                    },
                )),
            }
        }
        if kept.len() < healthy.len() {
            // The union must be rebuilt without the dropped call trees.
            healthy = kept;
            continue;
        }

        let kept_ids: Vec<&Value> = healthy.iter().map(|&i| &ids[i]).collect();
        let perf_data = scatter(&rows, &kept_ids, union.graph.len())?;
        let metadata = metadata_frame(healthy.iter().map(|&i| (&profiles[i], &ids[i])))?;
        let tk = Thicket::unchecked(union.graph, perf_data, metadata);
        return Ok((Some(tk), report(profiles.len(), healthy.len(), diagnostics)));
    }
}

fn report(
    attempted: usize,
    loaded: usize,
    mut diagnostics: Vec<(usize, Diagnostic)>,
) -> IngestReport {
    diagnostics.sort_by_key(|(i, _)| *i);
    IngestReport {
        attempted,
        loaded,
        diagnostics: diagnostics.into_iter().map(|(_, d)| d).collect(),
        pushdown: None,
    }
}

/// The first strictness point: which profiles enter the union, in input
/// order. Strict fails on the first duplicate id (one already in
/// `admitted`) and checks nothing else (in-memory profiles may carry NaN
/// metrics); lenient drops duplicates and non-finite metrics with one
/// diagnostic each. Every id let through joins `admitted`.
fn screen(
    profiles: &[Profile],
    ids: &[Value],
    admitted: &mut HashSet<Value>,
    lenient: bool,
    diagnostics: &mut Vec<(usize, Diagnostic)>,
) -> Result<Vec<usize>, ThicketError> {
    let mut healthy = Vec::with_capacity(profiles.len());
    admitted.reserve(ids.len());
    for (i, id) in ids.iter().enumerate() {
        let kind = if admitted.contains(id) {
            if !lenient {
                return Err(ThicketError::Invalid(format!("duplicate profile id {id}")));
            }
            DiagKind::DuplicateProfile {
                first: format!("profile {id}"),
            }
        } else if let Some((node, metric)) =
            lenient.then(|| first_non_finite(&profiles[i])).flatten()
        {
            DiagKind::NonFiniteMetric { node, metric }
        } else {
            admitted.insert(id.clone());
            healthy.push(i);
            continue;
        };
        diagnostics.push((
            i,
            Diagnostic {
                source: format!("profile {id}"),
                kind,
            },
        ));
    }
    Ok(healthy)
}

/// First NaN/infinite metric value in `p`, as `(node index, metric
/// name)`: arena-order node scan, alphabetical within a node.
fn first_non_finite(p: &Profile) -> Option<(usize, String)> {
    p.graph().ids().find_map(|id| {
        p.node_metrics(id)
            .iter()
            .find(|(_, v)| !v.is_finite())
            .map(|(k, _)| (id.index(), k.to_string()))
    })
}

fn worker_failure(id: &Value, message: String) -> ThicketError {
    ThicketError::Worker {
        source: format!("profile {id}"),
        message,
    }
}

/// The second strictness point's input: every profile's rows, assembled
/// on `threads` workers, or the message of the panic that stopped one.
fn assemble<'p>(
    inputs: &[(&'p Profile, &[NodeId])],
    threads: usize,
) -> Vec<Result<ProfileRows<'p>, String>> {
    parallel_map_catch(inputs, threads, |&(profile, mapping)| {
        Ok::<_, Infallible>(ProfileRows::assemble(profile, mapping))
    })
    .into_iter()
    .map(|r| {
        r.map_err(|failure| match failure {
            JobFailure::Panic(message) => message,
            JobFailure::Error(never) => match never {},
        })
    })
    .collect()
}

/// One profile's rows, sorted by unified node. Row `r` is node
/// `nodes[r]`; its cells are `cells[starts[r]..starts[r + 1]]`, each a
/// (local column, value) pair, and local column `c` is metric
/// `names[c]` (first-seen order over the rows). Names borrow the
/// profile's interned strings: cloning the shared `Arc`s on every worker
/// would bounce their reference counts between cores.
struct ProfileRows<'p> {
    nodes: Vec<u32>,
    starts: Vec<u32>,
    cells: Vec<(u32, f64)>,
    names: Vec<&'p str>,
}

impl<'p> ProfileRows<'p> {
    fn assemble(profile: &'p Profile, mapping: &[NodeId]) -> ProfileRows<'p> {
        // Measured source nodes keyed by unified id, then source id: each
        // merged group stays in source order, so its sum is deterministic.
        let mut pairs: Vec<(u32, NodeId)> = profile
            .graph()
            .ids()
            .filter(|&id| !profile.node_metrics(id).is_empty())
            .map(|old| (mapping[old.index()].index() as u32, old))
            .collect();
        pairs.sort_unstable();

        let mut rows = ProfileRows {
            nodes: Vec::with_capacity(pairs.len()),
            starts: Vec::with_capacity(pairs.len() + 1),
            cells: Vec::new(),
            names: Vec::new(),
        };
        rows.starts.push(0);
        let mut i = 0;
        while i < pairs.len() {
            let (node, first) = pairs[i];
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == node {
                j += 1;
            }
            let metrics = profile.node_metrics(first);
            if j == i + 1 {
                rows.push_row(node, metrics.iter().map(|(k, v)| (k.as_ref(), *v)));
            } else {
                let mut sum: BTreeMap<&str, f64> =
                    metrics.iter().map(|(k, v)| (k.as_ref(), *v)).collect();
                for &(_, old) in &pairs[i + 1..j] {
                    for (k, v) in profile.node_metrics(old) {
                        *sum.entry(k.as_ref()).or_insert(0.0) += v;
                    }
                }
                rows.push_row(node, sum.into_iter());
            }
            i = j;
        }
        rows
    }

    fn push_row(&mut self, node: u32, metrics: impl Iterator<Item = (&'p str, f64)>) {
        self.nodes.push(node);
        for (j, (name, v)) in metrics.enumerate() {
            let col = column_of(&mut self.names, j, name);
            self.cells.push((col, v));
        }
        self.starts.push(self.cells.len() as u32);
    }
}

/// Position of column `name` in `names`, appending it when new. Rows
/// and profiles usually carry the same names in the same order, so the
/// guess `hint` (the name's position within its own row or profile) is
/// tried first.
fn column_of<'p>(names: &mut Vec<&'p str>, hint: usize, name: &'p str) -> u32 {
    if names.get(hint) == Some(&name) {
        return hint as u32;
    }
    let pos = names.iter().position(|&n| n == name).unwrap_or_else(|| {
        names.push(name);
        names.len() - 1
    });
    pos as u32
}

/// Write every profile's rows into one `(node, profile)`-ordered perf
/// frame. `rows[k]` and `ids[k]` belong to the `k`-th profile in input
/// order; `nodes` is the size of the unified graph.
fn scatter(rows: &[ProfileRows], ids: &[&Value], nodes: usize) -> Result<DataFrame, ThicketError> {
    let mut names: Vec<&str> = Vec::new();
    let to_global: Vec<Vec<u32>> = rows
        .iter()
        .map(|r| {
            r.names
                .iter()
                .enumerate()
                .map(|(j, &name)| column_of(&mut names, j, name))
                .collect()
        })
        .collect();

    // `next[u]`: the next free slot of unified node `u`, starting at its
    // first row.
    let mut next = vec![0usize; nodes + 1];
    for r in rows {
        for &u in &r.nodes {
            next[u as usize + 1] += 1;
        }
    }
    for u in 0..nodes {
        next[u + 1] += next[u];
    }
    let total = next[nodes];

    // Within a node, slots follow the profiles' id order (stable, so
    // equal ids keep input order, as a stable sort of the rows would).
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| ids[a].cmp(ids[b]));
    let mut keys: Vec<Key> = vec![Vec::new(); total];
    let mut values = vec![vec![f64::NAN; total]; names.len()];
    let mut valid = vec![vec![false; total]; names.len()];
    for &p in &order {
        let (r, global) = (&rows[p], &to_global[p]);
        for (row, &u) in r.nodes.iter().enumerate() {
            let slot = next[u as usize];
            next[u as usize] += 1;
            keys[slot] = vec![Value::Int(i64::from(u)), ids[p].clone()];
            for &(c, v) in &r.cells[r.starts[row] as usize..r.starts[row + 1] as usize] {
                let g = global[c as usize] as usize;
                values[g][slot] = v;
                valid[g][slot] = true;
            }
        }
    }

    let mut df = DataFrame::new(Index::new([NODE_LEVEL, PROFILE_LEVEL], keys)?);
    for ((name, v), m) in names.iter().zip(values).zip(valid) {
        df.insert(ColKey::new(name), Column::from_f64_masked(v, m))?;
    }
    Ok(df)
}

/// The metadata frame: one row per profile, in input order; one column
/// per key, in first-seen order; null where a profile lacks the key.
fn metadata_frame<'p>(
    profiles: impl ExactSizeIterator<Item = (&'p Profile, &'p Value)>,
) -> Result<DataFrame, ThicketError> {
    let n = profiles.len();
    let mut keys: Vec<Key> = Vec::with_capacity(n);
    let mut names: Vec<&str> = Vec::new();
    let mut columns: Vec<ColumnBuilder> = Vec::new();
    for (row, (profile, id)) in profiles.enumerate() {
        keys.push(vec![id.clone()]);
        for (j, (k, v)) in profile.metadata_iter().enumerate() {
            let c = column_of(&mut names, j, k) as usize;
            if c == columns.len() {
                columns.push(ColumnBuilder::with_capacity(n));
            }
            let col = &mut columns[c];
            while col.len() < row {
                col.push(Value::Null)?;
            }
            col.push(v.clone())?;
        }
    }
    let mut df = DataFrame::new(Index::new([PROFILE_LEVEL], keys)?);
    for (name, mut col) in names.into_iter().zip(columns) {
        while col.len() < n {
            col.push(Value::Null)?;
        }
        df.insert(ColKey::new(name), col.finish())?;
    }
    Ok(df)
}
