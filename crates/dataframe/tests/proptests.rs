//! Property-based tests for dataframe invariants.

use proptest::prelude::*;
use thicket_dataframe::{
    join, join_many, join_many_pairwise, AggFn, BoundSource, ColKey, Column, DataFrame,
    FrameBuilder, GroupBy, Index, JoinHow, PredExpr, PredOp, StrMatch, Value,
};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(|s| Value::from(s.as_str())),
    ]
}

fn float_frame(keys: Vec<i64>, vals: Vec<f64>) -> DataFrame {
    let mut df = DataFrame::new(Index::single("k", keys));
    df.insert("x", Column::from_f64(vals)).unwrap();
    df
}

proptest! {
    /// Value ordering is a total order: antisymmetric and transitive over
    /// random triples.
    #[test]
    fn value_total_order(a in value_strategy(), b in value_strategy(), c in value_strategy()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
    }

    /// Equal values hash equally (required for grouping keys).
    #[test]
    fn value_hash_consistent_with_eq(a in value_strategy(), b in value_strategy()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| { let mut s = DefaultHasher::new(); v.hash(&mut s); s.finish() };
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    /// Column round-trips dynamic values through typed storage.
    #[test]
    fn column_roundtrip(vals in proptest::collection::vec(
        prop_oneof![Just(Value::Null), (-100i64..100).prop_map(Value::Int)], 0..40)) {
        let col = Column::from_values(vals.clone()).unwrap();
        let back: Vec<Value> = col.iter().collect();
        prop_assert_eq!(back, vals);
    }

    /// filter + take preserve row content and order.
    #[test]
    fn filter_preserves_rows(vals in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let keys: Vec<i64> = (0..vals.len() as i64).collect();
        let df = float_frame(keys, vals.clone());
        let pos = df.filter(|r| r.f64("x").unwrap() >= 0.0);
        let expected: Vec<f64> = vals.iter().copied().filter(|v| *v >= 0.0).collect();
        prop_assert_eq!(pos.column(&ColKey::new("x")).unwrap().numeric_values(), expected);
    }

    /// Sorting by a column yields monotone values and preserves multiset.
    #[test]
    fn sort_is_permutation_and_monotone(vals in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let keys: Vec<i64> = (0..vals.len() as i64).collect();
        let df = float_frame(keys, vals.clone());
        let sorted = df.sort_by(&ColKey::new("x"), true).unwrap();
        let got = sorted.column(&ColKey::new("x")).unwrap().numeric_values();
        let mut expected = vals.clone();
        expected.sort_by(f64::total_cmp);
        prop_assert_eq!(got, expected);
    }

    /// Group sizes partition the frame and the group mean matches a naive
    /// computation.
    #[test]
    fn groupby_partitions(pairs in proptest::collection::vec((0i64..5, -100.0f64..100.0), 1..60)) {
        let keys: Vec<i64> = pairs.iter().map(|(k, _)| *k).collect();
        let vals: Vec<f64> = pairs.iter().map(|(_, v)| *v).collect();
        let df = float_frame(keys.clone(), vals.clone());
        let g = GroupBy::by_levels(&df, &["k"]).unwrap();
        let total: usize = g.group_rows().iter().map(Vec::len).sum();
        prop_assert_eq!(total, df.len());
        let agg = g.agg(AggFn::Mean).unwrap();
        for (i, gk) in g.keys().iter().enumerate() {
            let k = gk[0].as_i64().unwrap();
            let members: Vec<f64> = pairs.iter().filter(|(kk, _)| *kk == k).map(|(_, v)| *v).collect();
            let naive = members.iter().sum::<f64>() / members.len() as f64;
            let got = agg.column(&ColKey::new("x_mean")).unwrap().get_f64(i).unwrap();
            prop_assert!((got - naive).abs() < 1e-9);
        }
    }

    /// Inner join keeps exactly the key intersection, in left order.
    #[test]
    fn inner_join_is_intersection(
        lk in proptest::collection::hash_set(0i64..30, 1..20),
        rk in proptest::collection::hash_set(0i64..30, 1..20),
    ) {
        let mut lk: Vec<i64> = lk.into_iter().collect();
        let mut rk: Vec<i64> = rk.into_iter().collect();
        lk.sort_unstable();
        rk.sort_unstable();
        let lvals: Vec<f64> = lk.iter().map(|k| *k as f64).collect();
        let rvals: Vec<f64> = rk.iter().map(|k| *k as f64 * 10.0).collect();
        let a = float_frame(lk.clone(), lvals);
        let mut b = DataFrame::new(Index::single("k", rk.clone()));
        b.insert("y", Column::from_f64(rvals)).unwrap();
        let j = join(&a, &b, JoinHow::Inner).unwrap();
        let expected: Vec<i64> = lk.iter().copied().filter(|k| rk.contains(k)).collect();
        let got: Vec<i64> = j.index().keys().iter().map(|k| k[0].as_i64().unwrap()).collect();
        prop_assert_eq!(got, expected);
        // Joined cells align: y == 10 * x on every row.
        for r in 0..j.len() {
            let x = j.column(&ColKey::new("x")).unwrap().get_f64(r).unwrap();
            let y = j.column(&ColKey::new("y")).unwrap().get_f64(r).unwrap();
            prop_assert!((y - 10.0 * x).abs() < 1e-9);
        }
    }

    /// Outer join covers the key union with nulls exactly where a side is
    /// missing.
    #[test]
    fn outer_join_is_union(
        lk in proptest::collection::hash_set(0i64..20, 1..12),
        rk in proptest::collection::hash_set(0i64..20, 1..12),
    ) {
        let lk: Vec<i64> = lk.into_iter().collect();
        let rk: Vec<i64> = rk.into_iter().collect();
        let a = float_frame(lk.clone(), lk.iter().map(|k| *k as f64).collect());
        let mut b = DataFrame::new(Index::single("k", rk.clone()));
        b.insert("y", Column::from_f64(rk.iter().map(|k| *k as f64).collect())).unwrap();
        let j = join(&a, &b, JoinHow::Outer).unwrap();
        let union: std::collections::HashSet<i64> = lk.iter().chain(rk.iter()).copied().collect();
        prop_assert_eq!(j.len(), union.len());
        for r in 0..j.len() {
            let key = j.index().key(r)[0].as_i64().unwrap();
            prop_assert_eq!(j.column(&ColKey::new("x")).unwrap().is_null_at(r), !lk.contains(&key));
            prop_assert_eq!(j.column(&ColKey::new("y")).unwrap().is_null_at(r), !rk.contains(&key));
        }
    }

    /// The single-pass k-way join agrees with the pairwise-chain baseline
    /// on random frames for every join strategy — key set, key order, and
    /// every cell (including the null fill pattern).
    #[test]
    fn kway_join_matches_pairwise(
        ka in proptest::collection::hash_set(0i64..25, 1..15),
        kb in proptest::collection::hash_set(0i64..25, 1..15),
        kc in proptest::collection::hash_set(0i64..25, 1..15),
    ) {
        let build = |col: &str, keys: &std::collections::HashSet<i64>, scale: f64| {
            let keys: Vec<i64> = {
                let mut k: Vec<i64> = keys.iter().copied().collect();
                k.sort_unstable();
                k
            };
            let vals: Vec<f64> = keys.iter().map(|k| *k as f64 * scale).collect();
            let mut df = DataFrame::new(Index::single("k", keys));
            df.insert(col, Column::from_f64(vals)).unwrap();
            df
        };
        let a = build("x", &ka, 1.0);
        let b = build("y", &kb, 10.0);
        let c = build("z", &kc, 100.0);
        for how in [JoinHow::Inner, JoinHow::Left, JoinHow::Outer] {
            let kway = join_many(&[&a, &b, &c], how);
            let pairwise = join_many_pairwise(&[&a, &b, &c], how);
            match (kway, pairwise) {
                (Ok(kw), Ok(pw)) => prop_assert_eq!(kw, pw, "mismatch under {:?}", how),
                (kw, pw) => prop_assert!(false, "join failed: {:?} vs {:?}", kw.err(), pw.err()),
            }
        }
    }

    /// Stacking per-chunk frames with `concat_rows` is byte-identical to
    /// one [`FrameBuilder`] over all the rows for any chunking: chunk
    /// boundaries must be invisible in the result (dtype promotion, null
    /// backfill, and column order included).
    #[test]
    fn concat_rows_matches_frame_builder(
        rows in proptest::collection::vec(
            (
                0i64..1000,
                // Negative / empty draws mean "cell absent", so every
                // column has random coverage holes to null-backfill.
                -100i64..100,
                -1e3f64..1e3,
                "[a-z]{0,4}",
            ),
            1..40,
        ),
        chunk in 1usize..10,
    ) {
        let cells = |r: &(i64, i64, f64, String)| {
            let mut out = Vec::new();
            if r.1 >= 0 { out.push((ColKey::new("a"), Value::Int(r.1))); }
            if r.2 >= 0.0 { out.push((ColKey::new("b"), Value::Float(r.2))); }
            if !r.3.is_empty() { out.push((ColKey::new("c"), Value::from(r.3.as_str()))); }
            out
        };
        let mut fb = FrameBuilder::new(["k"]);
        for r in &rows {
            fb.push_row(vec![Value::Int(r.0)], cells(r)).unwrap();
        }
        let serial = fb.finish().unwrap();

        let frames: Vec<DataFrame> = rows
            .chunks(chunk)
            .map(|ch| {
                let mut fb = FrameBuilder::new(["k"]);
                for r in ch {
                    fb.push_row(vec![Value::Int(r.0)], cells(r)).unwrap();
                }
                fb.finish().unwrap()
            })
            .collect();
        let refs: Vec<&DataFrame> = frames.iter().collect();
        let stacked = DataFrame::concat_rows(&refs).unwrap();
        prop_assert_eq!(&stacked, &serial);
        prop_assert_eq!(stacked.column_keys(), serial.column_keys());
    }

    /// Interned column keys are fully interchangeable with keys built
    /// around fresh, uninterned strings: the frames compare equal and
    /// resolve the same lookups.
    #[test]
    fn interned_frames_equal_fresh_strings(
        names in proptest::collection::hash_set("[a-z]{1,6}", 1..8),
        n in 1usize..20,
    ) {
        let names: Vec<String> = {
            let mut v: Vec<String> = names.into_iter().collect();
            v.sort();
            v
        };
        let keys: Vec<i64> = (0..n as i64).collect();
        let mut interned = DataFrame::new(Index::single("k", keys.clone()));
        let mut fresh = DataFrame::new(Index::single("k", keys));
        for (i, name) in names.iter().enumerate() {
            let vals: Vec<f64> = (0..n).map(|r| (r + i) as f64).collect();
            interned
                .insert(ColKey::new(name.as_str()), Column::from_f64(vals.clone()))
                .unwrap();
            // Bypass the interner: a key around a foreign arc.
            let foreign = ColKey {
                group: None,
                name: std::sync::Arc::from(name.as_str()),
            };
            fresh.insert(foreign, Column::from_f64(vals)).unwrap();
        }
        prop_assert_eq!(&interned, &fresh);
        for name in &names {
            prop_assert!(fresh.has_column(&ColKey::new(name.as_str())));
            prop_assert_eq!(
                interned.column_named(name).unwrap(),
                fresh.column_named(name).unwrap()
            );
        }
    }

    /// CSV export emits one line per row plus a header.
    #[test]
    fn csv_line_count(vals in proptest::collection::vec(-10.0f64..10.0, 0..30)) {
        let keys: Vec<i64> = (0..vals.len() as i64).collect();
        let df = float_frame(keys, vals);
        let csv = thicket_dataframe::to_csv(&df);
        prop_assert_eq!(csv.lines().count(), df.len() + 1);
    }
}

proptest! {
    /// CSV export/import round-trips numeric frames (values and index).
    #[test]
    fn csv_roundtrip(rows in proptest::collection::vec((-1e6f64..1e6, -1000i64..1000), 1..40)) {
        let keys: Vec<i64> = (0..rows.len() as i64).collect();
        let mut df = DataFrame::new(Index::single("k", keys));
        // Round to avoid display-precision loss; the CSV writer prints 6
        // significant decimals.
        df.insert("x", Column::from_f64(rows.iter().map(|(f, _)| (f * 1e3).round() / 1e3).collect())).unwrap();
        df.insert("i", Column::from_i64(rows.iter().map(|(_, i)| *i).collect())).unwrap();
        let back = thicket_dataframe::from_csv(&thicket_dataframe::to_csv(&df), 1).unwrap();
        prop_assert_eq!(back.len(), df.len());
        let xa = df.column(&ColKey::new("x")).unwrap().numeric_values();
        let xb = back.column(&ColKey::new("x")).unwrap().numeric_values();
        for (a, b) in xa.iter().zip(xb.iter()) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
        prop_assert_eq!(
            df.column(&ColKey::new("i")).unwrap().iter().collect::<Vec<_>>(),
            back.column(&ColKey::new("i")).unwrap().iter().collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------
// Predicate engine: the vectorized evaluator over typed columns must
// agree bit-for-bit with the independent row-wise reference evaluator
// for arbitrary expression ASTs over frames with arbitrary null masks —
// kind-mismatched comparisons, all-null columns, and fields the frame
// doesn't carry included.

/// A comparison value of any kind, in and out of the stored ranges.
fn pred_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-6i64..6).prop_map(Value::Int),
        (-6.0f64..6.0).prop_map(Value::Float),
        prop_oneof![Just(f64::NAN), Just(f64::INFINITY)].prop_map(Value::Float),
        "[a-c]{0,3}".prop_map(|s| Value::from(s.as_str())),
    ]
}

fn pred_op() -> impl Strategy<Value = PredOp> {
    prop_oneof![
        Just(PredOp::Eq),
        Just(PredOp::Ne),
        Just(PredOp::Lt),
        Just(PredOp::Le),
        Just(PredOp::Gt),
        Just(PredOp::Ge),
    ]
}

fn str_op() -> impl Strategy<Value = StrMatch> {
    prop_oneof![
        Just(StrMatch::StartsWith),
        Just(StrMatch::EndsWith),
        Just(StrMatch::Contains),
    ]
}

/// Fields covering every column dtype, an all-null column, and a name
/// the frame doesn't have.
fn pred_field() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("i".to_string()),
        Just("f".to_string()),
        Just("s".to_string()),
        Just("b".to_string()),
        Just("nul".to_string()),
        Just("missing".to_string()),
    ]
}

/// Arbitrary expression ASTs up to depth 3. `In` draws up to 12 values
/// to exercise both the linear probe and the hash-set path.
fn expr_strategy() -> impl Strategy<Value = PredExpr> {
    let leaf = prop_oneof![
        Just(PredExpr::True),
        (pred_field(), pred_op(), pred_value()).prop_map(|(field, op, value)| {
            PredExpr::Cmp { field, op, value }
        }),
        (pred_field(), str_op(), "[a-c]{0,2}").prop_map(|(field, op, needle)| {
            PredExpr::Str { field, op, needle }
        }),
        (pred_field(), proptest::collection::vec(pred_value(), 0..12))
            .prop_map(|(field, values)| PredExpr::In { field, values }),
    ];
    leaf.prop_recursive(3, 32, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..3).prop_map(PredExpr::And),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(PredExpr::Or),
            inner.prop_map(|e| PredExpr::Not(Box::new(e))),
        ]
    })
}

type NullableRow = (Option<i64>, Option<f64>, Option<String>, Option<bool>);

fn nullable_rows() -> impl Strategy<Value = Vec<NullableRow>> {
    let opt_i = prop_oneof![Just(None), (-5i64..5).prop_map(Some)];
    let opt_f = prop_oneof![Just(None), (-5.0f64..5.0).prop_map(Some)];
    let opt_s = prop_oneof![Just(None), "[a-c]{0,3}".prop_map(Some)];
    let opt_b = prop_oneof![Just(None), any::<bool>().prop_map(Some)];
    proptest::collection::vec((opt_i, opt_f, opt_s, opt_b), 0..40)
}

fn nullable_frame(rows: &[NullableRow]) -> DataFrame {
    let keys: Vec<i64> = (0..rows.len() as i64).collect();
    let mut df = DataFrame::new(Index::single("k", keys));
    let cell = |o: Option<Value>| o.unwrap_or(Value::Null);
    df.insert(
        "i",
        Column::from_values(rows.iter().map(|r| cell(r.0.map(Value::Int)))).unwrap(),
    )
    .unwrap();
    df.insert(
        "f",
        Column::from_values(rows.iter().map(|r| cell(r.1.map(Value::Float)))).unwrap(),
    )
    .unwrap();
    df.insert(
        "s",
        Column::from_values(
            rows.iter()
                .map(|r| cell(r.2.as_deref().map(Value::from))),
        )
        .unwrap(),
    )
    .unwrap();
    df.insert(
        "b",
        Column::from_values(rows.iter().map(|r| cell(r.3.map(Value::Bool)))).unwrap(),
    )
    .unwrap();
    df.insert(
        "nul",
        Column::from_values(rows.iter().map(|_| Value::Null)).unwrap(),
    )
    .unwrap();
    df
}

proptest! {
    /// Vectorized ≡ row-wise over random frames, null masks, and ASTs.
    #[test]
    fn vectorized_matches_rowwise_on_columns(
        rows in nullable_rows(),
        expr in expr_strategy(),
    ) {
        let df = nullable_frame(&rows);
        let src = df.bind_source(&expr);
        let fast = expr.eval(&src);
        let slow = expr.eval_rowwise(&src);
        prop_assert_eq!(
            fast.positions(), slow.positions(),
            "engines disagree for {} over {} rows", expr, rows.len()
        );
        // filter_expr keeps exactly the selected rows, in order.
        prop_assert_eq!(df.filter_expr(&expr).len(), df.select_rows(&expr).count_ones());
    }

    /// Vectorized ≡ row-wise over `Value`-slice views with explicit
    /// presence masks (the store's MetaBlock shape) — a stored `Null`
    /// that is *present* must read as an absent cell in both
    /// evaluators.
    #[test]
    fn vectorized_matches_rowwise_on_value_views(
        cells in proptest::collection::vec((pred_value(), any::<bool>()), 0..40),
        expr in expr_strategy(),
    ) {
        let values: Vec<Value> = cells.iter().map(|(v, _)| v.clone()).collect();
        let present: Vec<bool> = cells.iter().map(|(_, p)| *p).collect();
        let mut src = BoundSource::new(cells.len());
        for field in ["i", "f", "s", "b", "nul"] {
            src.bind_masked(field, values.clone(), present.clone());
        }
        let fast = expr.eval(&src);
        let slow = expr.eval_rowwise(&src);
        prop_assert_eq!(
            fast.positions(), slow.positions(),
            "engines disagree for {} over a masked value view", expr
        );
    }

    /// The scalar lookup evaluator agrees with the row-wise one on
    /// every row (it is the store-v1 / profile-metadata path).
    #[test]
    fn lookup_matches_rowwise(
        rows in nullable_rows(),
        expr in expr_strategy(),
    ) {
        let df = nullable_frame(&rows);
        let src = df.bind_source(&expr);
        for row in 0..df.len() {
            let by_lookup = expr.eval_lookup(&mut |key| {
                df.column_named(key).ok().and_then(|c| {
                    let v = c.get(row);
                    if v.is_null() { None } else { Some(v) }
                }).or_else(|| df.index().get(row, key).ok())
            });
            prop_assert_eq!(
                by_lookup,
                expr.eval_row(&src, row),
                "lookup and row-wise disagree at row {} for {}", row, expr
            );
        }
    }
}
