//! Property tests over the thicket object itself: composition, filter,
//! groupby, and query invariants on randomized ensembles.

use proptest::prelude::*;
use thicket::prelude::*;
use thicket_graph::{Frame, Graph};
use thicket_perfsim::ScratchDir;

/// Random profile: a tree from a parent vector, metrics on every node,
/// metadata with a categorical "cfg" and a run id.
fn make_profile(parents: &[usize], cfg: u8, run: i64) -> Profile {
    let mut g = Graph::new();
    let mut ids = Vec::new();
    for (i, &p) in parents.iter().enumerate() {
        let name = format!("f{}", i % 6);
        let id = if i == 0 {
            g.add_root(Frame::named(&name))
        } else {
            g.add_child(ids[p % i], Frame::named(&name))
        };
        ids.push(id);
    }
    let mut profile = Profile::new(g);
    profile.set_metadata("cfg", format!("c{}", cfg % 3));
    profile.set_metadata("run", run);
    for (i, &id) in ids.iter().enumerate() {
        profile.set_metric(id, "time", (i + 1) as f64 * (run + 1) as f64 * 0.25);
    }
    profile
}

fn ensemble_strategy() -> impl Strategy<Value = Vec<Profile>> {
    (
        proptest::collection::vec(any::<usize>(), 1..10),
        proptest::collection::vec(any::<u8>(), 1..6),
    )
        .prop_map(|(parents, cfgs)| {
            cfgs.iter()
                .enumerate()
                .map(|(run, &cfg)| make_profile(&parents, cfg, run as i64))
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Composition conserves measurements: the (node, profile) index is
    /// unique (duplicate sibling frames merge by summation), no more rows
    /// than source nodes exist, and the total of the `time` metric is
    /// conserved exactly.
    #[test]
    fn composition_conserves_rows(profiles in ensemble_strategy()) {
        let tk = Thicket::loader(&profiles).load().unwrap().0;
        let max_rows: usize = profiles
            .iter()
            .map(|p| p.graph().ids().filter(|&id| !p.node_metrics(id).is_empty()).count())
            .sum();
        prop_assert!(tk.perf_data().len() <= max_rows);
        prop_assert_eq!(tk.metadata().len(), profiles.len());
        prop_assert!(tk.perf_data().index().is_unique());
        let source_total: f64 = profiles
            .iter()
            .flat_map(|p| p.graph().ids().filter_map(|id| p.metric(id, "time")).collect::<Vec<_>>())
            .sum();
        let composed_total = tk.perf_data().column_sum(&ColKey::new("time")).unwrap();
        prop_assert!((source_total - composed_total).abs() < 1e-9 * (1.0 + source_total));
    }

    /// groupby partitions the profile set exactly.
    #[test]
    fn groupby_partitions_profiles(profiles in ensemble_strategy()) {
        let tk = Thicket::loader(&profiles).load().unwrap().0;
        let groups = tk.groupby(&[ColKey::new("cfg")]).unwrap();
        let total: usize = groups.iter().map(|(_, t)| t.profiles().len()).sum();
        prop_assert_eq!(total, tk.profiles().len());
        // Each subset is homogeneous in the grouping key.
        for (key, sub) in &groups {
            let vals = sub.metadata().unique(&ColKey::new("cfg")).unwrap();
            prop_assert_eq!(vals.len(), 1);
            prop_assert_eq!(vals[0].clone(), key[0].clone());
        }
    }

    /// filter_metadata(p) ∪ filter_metadata(!p) recovers all profiles.
    #[test]
    fn filter_complement(profiles in ensemble_strategy()) {
        let tk = Thicket::loader(&profiles).load().unwrap().0;
        let yes = tk.filter_metadata(|r| r.str("cfg").as_deref() == Some("c0"));
        let no = tk.filter_metadata(|r| r.str("cfg").as_deref() != Some("c0"));
        prop_assert_eq!(yes.profiles().len() + no.profiles().len(), tk.profiles().len());
        prop_assert_eq!(
            yes.perf_data().len() + no.perf_data().len(),
            tk.perf_data().len()
        );
    }

    /// A query that matches every node preserves all perf rows.
    #[test]
    fn universal_query_preserves_rows(profiles in ensemble_strategy()) {
        let tk = Thicket::loader(&profiles).load().unwrap().0;
        let q = Query::builder().any("+").build();
        let all = tk.query(&q);
        prop_assert_eq!(all.perf_data().len(), tk.perf_data().len());
        prop_assert_eq!(all.graph().len(), tk.graph().len());
    }

    /// squash never loses perf rows, and every surviving node is measured.
    #[test]
    fn squash_invariants(profiles in ensemble_strategy()) {
        let tk = Thicket::loader(&profiles).load().unwrap().0;
        let sq = tk.squash();
        prop_assert_eq!(sq.perf_data().len(), tk.perf_data().len());
        let measured: std::collections::HashSet<Value> = sq
            .perf_data()
            .index()
            .keys()
            .iter()
            .map(|k| k[0].clone())
            .collect();
        prop_assert_eq!(measured.len(), sq.graph().len());
    }

    /// Aggregated stats rows cover exactly the measured nodes, and the
    /// mean lies within [min, max] per node.
    #[test]
    fn stats_bounds(profiles in ensemble_strategy()) {
        let mut tk = Thicket::loader(&profiles).load().unwrap().0;
        tk.compute_stats(&[(ColKey::new("time"),
            vec![AggFn::Mean, AggFn::Min, AggFn::Max])]).unwrap();
        let measured: std::collections::HashSet<Value> = tk
            .perf_data()
            .index()
            .keys()
            .iter()
            .map(|k| k[0].clone())
            .collect();
        prop_assert_eq!(tk.statsframe().len(), measured.len());
        for row in 0..tk.statsframe().len() {
            let mean = tk.statsframe().column(&ColKey::new("time_mean")).unwrap().get_f64(row).unwrap();
            let min = tk.statsframe().column(&ColKey::new("time_min")).unwrap().get_f64(row).unwrap();
            let max = tk.statsframe().column(&ColKey::new("time_max")).unwrap().get_f64(row).unwrap();
            prop_assert!(min <= mean + 1e-12 && mean <= max + 1e-12);
        }
    }

    /// Profile round trip through disk preserves the composed thicket.
    #[test]
    fn disk_roundtrip_preserves_thicket(profiles in ensemble_strategy()) {
        let dir = ScratchDir::new("prop");
        let _ = save_ensemble(&dir, &profiles).unwrap();
        let (loaded, _) = load_dir(&dir, None, Strictness::FailFast).unwrap();
        let a = Thicket::loader(&profiles).load().unwrap().0;
        let b = Thicket::loader(&loaded).load().unwrap().0;
        prop_assert_eq!(a.perf_data().len(), b.perf_data().len());
        prop_assert_eq!(a.graph().len(), b.graph().len());
        let mut pa = a.profiles();
        let mut pb = b.profiles();
        pa.sort();
        pb.sort();
        prop_assert_eq!(pa, pb);
    }
}
