//! Regression battery for the empty-input hardening sweep: 0-row tables,
//! predicates that select nothing, and empty position-list intermediates
//! must flow through scan, join, join-tree, and aggregation-over-tree
//! execution returning well-formed empty results — correct schema, zero
//! counters — never a panic or a malformed fragment. Everything routes
//! through the unified `Database::execute` surface.

use matstrat::common::TableId;
use matstrat::core::{AggFunc, Strategy};
use matstrat::prelude::*;

const ENCODINGS: [EncodingKind; 3] = [EncodingKind::Plain, EncodingKind::Rle, EncodingKind::BitVec];

/// A 0-row two-column projection in the encoding under test.
fn empty_table(db: &Database, name: &str, enc: EncodingKind) -> TableId {
    let spec = ProjectionSpec::new(name)
        .column("k", enc, SortOrder::Primary)
        .column("v", EncodingKind::Plain, SortOrder::None);
    db.load_projection(&spec, &[&[], &[]]).unwrap()
}

/// A populated two-column projection (k = 0..n, v = k * 2).
fn filled_table(db: &Database, name: &str, n: i64) -> TableId {
    let k: Vec<Value> = (0..n).collect();
    let v: Vec<Value> = (0..n).map(|i| i * 2).collect();
    let spec = ProjectionSpec::new(name)
        .column("k", EncodingKind::Plain, SortOrder::Primary)
        .column("v", EncodingKind::Plain, SortOrder::None);
    db.load_projection(&spec, &[&k, &v]).unwrap()
}

/// Run a scan under a pinned strategy through the unified entry point.
fn run_forced(db: &Database, q: &QuerySpec, s: Strategy) -> Result<QueryOutcome> {
    db.execute_planned(
        &Statement::Select(q.clone()),
        &QueryPlan::forced_scan(s),
        &db.exec_options(),
    )
}

/// Run a one-edge tree under a pinned inner strategy.
fn run_join_forced(db: &Database, spec: &JoinSpec, inner: InnerStrategy) -> Result<QueryOutcome> {
    db.execute_planned(
        &Statement::JoinTree(JoinTreeSpec::new(vec![spec.clone()])),
        &QueryPlan::forced_tree(vec![0], vec![inner]),
        &db.exec_options(),
    )
}

/// Run a multi-edge tree, spec order, one pinned inner strategy per edge.
fn run_tree_forced(
    db: &Database,
    spec: &JoinTreeSpec,
    inners: &[InnerStrategy],
) -> Result<QueryOutcome> {
    db.execute_planned(
        &Statement::JoinTree(spec.clone()),
        &QueryPlan::forced_tree((0..spec.edges.len()).collect(), inners.to_vec()),
        &db.exec_options(),
    )
}

#[test]
fn scan_over_zero_row_table_returns_empty_schema_and_zero_stats() {
    for enc in ENCODINGS {
        let db = Database::in_memory();
        let t = empty_table(&db, "empty", enc);
        let q = QuerySpec::select(t, vec![0, 1]).filter(0, Predicate::lt(5));
        for s in Strategy::ALL {
            db.store().cold_reset();
            let out = match run_forced(&db, &q, s) {
                Ok(out) => out,
                Err(e) => panic!("{s} over empty table ({enc:?}): {e}"),
            };
            assert_eq!(out.rows.column_names, vec!["k", "v"], "{s} schema survives");
            assert_eq!(out.rows.num_rows(), 0, "{s}");
            assert!(out.rows.flat().is_empty(), "{s}");
            assert_eq!(out.stats.rows_out, 0, "{s}");
            assert_eq!(out.stats.positions_matched, 0, "{s}");
            assert_eq!(out.stats.io.block_reads, 0, "{s}: no blocks to read");
        }
    }
}

#[test]
fn aggregation_over_zero_row_table_yields_zero_groups() {
    let db = Database::in_memory();
    let t = empty_table(&db, "empty", EncodingKind::Plain);
    for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
        let q = QuerySpec::select(t, vec![])
            .filter(1, Predicate::ge(0))
            .aggregate_fn(0, 1, func);
        for s in Strategy::ALL {
            let out = match run_forced(&db, &q, s) {
                Ok(out) => out,
                Err(e) => panic!("{s} {func:?}: {e}"),
            };
            assert_eq!(out.rows.num_rows(), 0, "{s} {func:?}: no groups");
            assert_eq!(out.rows.column_names.len(), 2, "{s} {func:?}");
            assert_eq!(out.stats.rows_out, 0, "{s} {func:?}");
        }
    }
}

#[test]
fn predicate_selecting_nothing_returns_well_formed_empty_result() {
    let db = Database::in_memory();
    let t = filled_table(&db, "t", 3000);
    // k is 0..3000; nothing is < 0.
    let q = QuerySpec::select(t, vec![0, 1]).filter(0, Predicate::lt(0));
    for s in Strategy::ALL {
        let out = run_forced(&db, &q, s).unwrap();
        assert_eq!(out.rows.column_names, vec!["k", "v"], "{s}");
        assert_eq!(out.rows.num_rows(), 0, "{s}");
        assert_eq!(out.stats.positions_matched, 0, "{s}");
        assert_eq!(out.stats.rows_out, 0, "{s}");
    }
    // Same through the planner.
    let out = db.execute(&Statement::Select(q)).unwrap();
    assert_eq!(out.rows.num_rows(), 0);
    assert!(matches!(out.choice, QueryPlan::Scan(_)));
}

#[test]
fn join_with_zero_row_probe_side() {
    let db = Database::in_memory();
    let left = empty_table(&db, "l", EncodingKind::Plain);
    let right = filled_table(&db, "r", 50);
    let spec = JoinSpec {
        left,
        right,
        left_key: 0,
        right_key: 0,
        left_filter: Some((0, Predicate::lt(10))),
        right_filter: None,
        left_output: vec![1],
        right_output: vec![1],
    };
    for inner in InnerStrategy::ALL {
        let r = run_join_forced(&db, &spec, inner).unwrap().rows;
        assert_eq!(r.column_names, vec!["v", "v"], "{inner:?}");
        assert_eq!(r.num_rows(), 0, "{inner:?}");
    }
    let out = db
        .execute(&Statement::JoinTree(JoinTreeSpec::new(vec![spec])))
        .unwrap();
    assert_eq!(out.rows.num_rows(), 0);
    assert!(matches!(out.choice, QueryPlan::Tree(_)));
}

#[test]
fn join_with_zero_row_build_side() {
    let db = Database::in_memory();
    let left = filled_table(&db, "l", 50);
    let right = empty_table(&db, "r", EncodingKind::Plain);
    let spec = JoinSpec {
        left,
        right,
        left_key: 0,
        right_key: 0,
        left_filter: None,
        right_filter: None,
        left_output: vec![0, 1],
        right_output: vec![1],
    };
    for inner in InnerStrategy::ALL {
        let r = run_join_forced(&db, &spec, inner).unwrap().rows;
        assert_eq!(r.column_names, vec!["k", "v", "v"], "{inner:?}");
        assert_eq!(r.num_rows(), 0, "{inner:?}: empty build matches nothing");
    }
    let out = db
        .execute(&Statement::JoinTree(JoinTreeSpec::new(vec![spec])))
        .unwrap();
    assert_eq!(out.rows.num_rows(), 0);
}

#[test]
fn join_filter_selecting_nothing_produces_empty_intermediate() {
    let db = Database::in_memory();
    let left = filled_table(&db, "l", 500);
    let right = filled_table(&db, "r", 20);
    let spec = JoinSpec {
        left,
        right,
        left_key: 0,
        right_key: 0,
        left_filter: Some((0, Predicate::lt(0))), // empty position list
        right_filter: None,
        left_output: vec![1],
        right_output: vec![1],
    };
    for inner in InnerStrategy::ALL {
        let r = run_join_forced(&db, &spec, inner).unwrap().rows;
        assert_eq!(r.num_rows(), 0, "{inner:?}");
        assert_eq!(r.column_names, vec!["v", "v"], "{inner:?}");
    }
}

/// A dimension predicate that semi-join-reduces the build side to zero
/// rows: the hash table is empty, so nothing probes through, at every
/// inner strategy and with zone maps on and off.
#[test]
fn semi_join_pushdown_reducing_build_to_zero_rows() {
    let db = Database::in_memory();
    let left = filled_table(&db, "l", 500);
    let right = filled_table(&db, "r", 20);
    let spec = JoinSpec {
        left,
        right,
        left_key: 0,
        right_key: 0,
        left_filter: None,
        right_filter: Some((1, Predicate::lt(0))), // v = 0..40 by 2; none < 0
        left_output: vec![1],
        right_output: vec![1],
    };
    for inner in InnerStrategy::ALL {
        for zone_maps in [true, false] {
            let opts = ExecOptions {
                zone_maps,
                ..db.exec_options()
            };
            let r = db
                .execute_planned(
                    &Statement::JoinTree(JoinTreeSpec::new(vec![spec.clone()])),
                    &QueryPlan::forced_tree(vec![0], vec![inner]),
                    &opts,
                )
                .unwrap()
                .rows;
            assert_eq!(r.num_rows(), 0, "{inner:?} zone_maps={zone_maps}");
            assert_eq!(r.column_names, vec!["v", "v"], "{inner:?}");
        }
    }
}

#[test]
fn join_tree_with_empty_intermediates_at_every_stage() {
    let db = Database::in_memory();
    let base = filled_table(&db, "base", 300);
    let dim_full = filled_table(&db, "dim_full", 300);
    let dim_empty = empty_table(&db, "dim_empty", EncodingKind::Plain);

    // Edge 0 matches everything, edge 1 joins a 0-row dimension: the
    // intermediate empties mid-tree and edge 1's fetch must cope.
    let spec = JoinTreeSpec::new(vec![
        JoinSpec {
            left: base,
            right: dim_full,
            left_key: 0,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        },
        JoinSpec {
            left: base,
            right: dim_empty,
            left_key: 0,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![],
            right_output: vec![1],
        },
    ]);
    for inner in InnerStrategy::ALL {
        let r = run_tree_forced(&db, &spec, &[inner; 2]).unwrap().rows;
        assert_eq!(r.num_rows(), 0, "{inner:?}");
        assert_eq!(r.column_names, vec!["v", "v", "v"], "{inner:?}");
    }
    let out = db.execute(&Statement::JoinTree(spec)).unwrap();
    assert_eq!(out.rows.num_rows(), 0);
    assert_eq!(out.stats.rows_out, 0);

    // A 0-row *base* table: the whole tree is empty from the start.
    let spec = JoinTreeSpec::new(vec![JoinSpec {
        left: dim_empty,
        right: dim_full,
        left_key: 0,
        right_key: 0,
        left_filter: Some((0, Predicate::ge(0))),
        right_filter: None,
        left_output: vec![1],
        right_output: vec![1],
    }]);
    for inner in InnerStrategy::ALL {
        let r = run_tree_forced(&db, &spec, &[inner]).unwrap().rows;
        assert_eq!(r.num_rows(), 0, "{inner:?}");
    }

    // A base filter selecting nothing empties the position intermediate
    // before the first probe.
    let spec = JoinTreeSpec::new(vec![
        JoinSpec {
            left: base,
            right: dim_full,
            left_key: 0,
            right_key: 0,
            left_filter: Some((0, Predicate::lt(0))),
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        },
        JoinSpec {
            left: dim_full,
            right: dim_full,
            left_key: 0,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![],
            right_output: vec![1],
        },
    ]);
    for inner in InnerStrategy::ALL {
        let r = run_tree_forced(&db, &spec, &[inner; 2]).unwrap().rows;
        assert_eq!(r.num_rows(), 0, "{inner:?}");
        assert_eq!(r.column_names.len(), 3, "{inner:?}");
    }
}

/// GROUP BY over a join tree whose intermediates empty out: the
/// aggregation pipeline must produce zero groups (not a zero-filled
/// group), whatever drained the tree — an empty dimension, a base filter
/// matching nothing, or a pushed-down dimension predicate matching
/// nothing.
#[test]
fn aggregation_over_empty_join_tree_yields_zero_groups() {
    let db = Database::in_memory();
    let base = filled_table(&db, "base", 300);
    let dim_full = filled_table(&db, "dim_full", 300);
    let dim_empty = empty_table(&db, "dim_empty", EncodingKind::Plain);

    let edge = |right: TableId,
                left_filter: Option<(usize, Predicate)>,
                right_filter: Option<(usize, Predicate)>| JoinSpec {
        left: base,
        right,
        left_key: 0,
        right_key: 0,
        left_filter,
        right_filter,
        left_output: vec![1],
        right_output: vec![1],
    };
    let cases = [
        ("empty dimension", edge(dim_empty, None, None)),
        (
            "base filter matches nothing",
            edge(dim_full, Some((0, Predicate::lt(0))), None),
        ),
        (
            "pushed-down dimension predicate matches nothing",
            edge(dim_full, None, Some((1, Predicate::lt(0)))),
        ),
    ];
    for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
        for (label, e) in &cases {
            let tree = JoinTreeSpec::new(vec![e.clone()]).aggregate_fn(0, 1, func);
            let stmt = Statement::JoinTree(tree);
            for inner in InnerStrategy::ALL {
                let out = db
                    .execute_planned(
                        &stmt,
                        &QueryPlan::forced_tree(vec![0], vec![inner]),
                        &db.exec_options(),
                    )
                    .unwrap();
                assert_eq!(out.rows.num_rows(), 0, "{label} {func:?} {inner:?}");
                assert_eq!(out.rows.column_names.len(), 2, "{label} {func:?}");
                assert_eq!(out.stats.rows_out, 0, "{label} {func:?}");
            }
            // And through the planner (bushy enumeration included).
            let out = db.execute(&stmt).unwrap();
            assert_eq!(out.rows.num_rows(), 0, "{label} {func:?} auto");
        }
    }
}

/// A table loaded empty whose every row is an insert: a DELETE naming a
/// column the table does not have is the same typed error it is on a
/// table with a non-empty base, never an out-of-bounds panic.
#[test]
fn delete_on_an_insert_only_table_rejects_a_bad_column() {
    let db = Database::in_memory();
    let t = empty_table(&db, "empty", EncodingKind::Plain);
    db.insert(t, &[vec![1, 2], vec![3, 4]]).unwrap();
    let full = filled_table(&db, "full", 10);
    for table in [t, full] {
        let err = db
            .delete_where(table, &[(7, Predicate::eq(1))])
            .unwrap_err();
        assert!(
            matches!(err, matstrat::common::Error::InvalidArgument(_)),
            "{err:?}"
        );
        assert_eq!(
            err.to_string(),
            "invalid argument: column index 7 out of range"
        );
    }
    // The good column still deletes the inserted row it names.
    assert_eq!(db.delete_where(t, &[(0, Predicate::eq(1))]).unwrap(), 1);
    let q = QuerySpec::select(t, vec![0, 1]);
    assert_eq!(
        run_forced(&db, &q, Strategy::LmParallel)
            .unwrap()
            .rows
            .flat(),
        [3, 4]
    );
}

/// The read driver's edges: a table loaded with 0 rows has an empty
/// base window, so every row it returns comes from the tail window of
/// inserted rows, some of them deleted. Every strategy, as a selection
/// and as a GROUP BY, and a one-edge tree over it, as a selection and as
/// a GROUP BY, must return its compacted twin's rows and counters at one
/// worker and at four, and nothing can be stolen from an empty base.
#[test]
fn a_table_of_only_tail_rows_reads_as_its_compacted_twin() {
    let db = Database::in_memory();
    let dim = filled_table(&db, "dim", 50);
    let rows: Vec<Vec<Value>> = (0..700).map(|i| vec![i % 7, i * 3]).collect();
    let [dirty, twin] = ["dirty", "twin"].map(|name| {
        let t = empty_table(&db, name, EncodingKind::Plain);
        db.insert(t, &rows).unwrap();
        db.delete_where(t, &[(1, Predicate::lt(90))]).unwrap();
        db.delete_where(t, &[(0, Predicate::eq(3)), (1, Predicate::gt(1500))])
            .unwrap();
        t
    });
    assert!(db.compact(twin).unwrap());
    assert_eq!(db.store().projection(dirty).unwrap().num_rows, 0);

    let scans = |t: TableId| {
        let select = QuerySpec::select(t, vec![0, 1])
            .filter(1, Predicate::lt(1800))
            .filter(0, Predicate::ge(2));
        let group = |func| {
            QuerySpec::select(t, vec![])
                .filter(1, Predicate::ge(300))
                .aggregate_fn(0, 1, func)
        };
        Strategy::ALL
            .into_iter()
            .flat_map(|s| {
                [select.clone(), group(AggFunc::Sum), group(AggFunc::Count)]
                    .map(|q| (Statement::Select(q), QueryPlan::forced_scan(s)))
            })
            .collect::<Vec<_>>()
    };
    let trees = |t: TableId| {
        let spec = JoinTreeSpec::new(vec![JoinSpec {
            left: t,
            right: dim,
            left_key: 0,
            right_key: 0,
            left_filter: Some((1, Predicate::lt(1500))),
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        }]);
        [spec.clone(), spec.aggregate_fn(1, 0, AggFunc::Sum)].map(|tree| {
            let plan = QueryPlan::forced_tree(vec![0], vec![InnerStrategy::MultiColumn]);
            (Statement::JoinTree(tree), plan)
        })
    };
    let mut dirty_stmts = scans(dirty);
    dirty_stmts.extend(trees(dirty));
    let mut twin_stmts = scans(twin);
    twin_stmts.extend(trees(twin));

    for workers in [1, 4] {
        let opts = ExecOptions {
            parallelism: workers,
            granule: 64,
            ..db.exec_options()
        };
        for ((stmt, plan), (twin_stmt, twin_plan)) in dirty_stmts.iter().zip(&twin_stmts) {
            let got = db.execute_planned(stmt, plan, &opts).unwrap();
            let want = db.execute_planned(twin_stmt, twin_plan, &opts).unwrap();
            let at = format!("{} workers={workers}", plan.describe());
            assert!(want.rows.num_rows() > 0, "{at}: the twin returns rows");
            assert_eq!(got.rows, want.rows, "{at}");
            let (g, w) = (&got.stats, &want.stats);
            assert_eq!(g.rows_out, w.rows_out, "{at}");
            assert_eq!(g.positions_matched, w.positions_matched, "{at}");
            assert_eq!(g.zone_skips, w.zone_skips, "{at}");
            assert_eq!(g.steals, 0, "{at}: an empty base has nothing to steal");
        }
    }
}

#[test]
fn planner_survives_zero_row_tables() {
    let db = Database::in_memory();
    let t = empty_table(&db, "empty", EncodingKind::Plain);
    let q = QuerySpec::select(t, vec![0, 1]).filter(0, Predicate::lt(5));
    let out = db.execute(&Statement::Select(q)).unwrap();
    assert_eq!(out.rows.num_rows(), 0);
    assert!(matches!(out.choice, QueryPlan::Scan(_)));

    let full = filled_table(&db, "full", 100);
    let spec = JoinSpec {
        left: t,
        right: full,
        left_key: 0,
        right_key: 0,
        left_filter: None,
        right_filter: None,
        left_output: vec![1],
        right_output: vec![1],
    };
    let out = db
        .execute(&Statement::JoinTree(JoinTreeSpec::new(vec![spec])))
        .unwrap();
    assert_eq!(out.rows.num_rows(), 0);
    assert!(matches!(out.choice, QueryPlan::Tree(_)));
}

#[test]
fn planner_survives_a_column_holding_both_i64_extremes() {
    // The selectivity estimate's domain width, `max - min + 1`, does not
    // fit an i64 here; planning must still price the statement.
    let db = Database::in_memory();
    let a = [Value::MIN, 0, 5, Value::MAX];
    let b = [1, 2, 3, 4];
    let spec = ProjectionSpec::new("extremes")
        .column("a", EncodingKind::Plain, SortOrder::None)
        .column("b", EncodingKind::Plain, SortOrder::None);
    let t = db.load_projection(&spec, &[&a, &b]).unwrap();
    let q = QuerySpec::select(t, vec![0, 1])
        .filter(0, Predicate::lt(3))
        .filter(1, Predicate::lt(3));
    let out = db.execute(&Statement::Select(q)).unwrap();
    assert_eq!(
        out.rows.sorted_rows(),
        vec![vec![Value::MIN, 1], vec![0, 2]]
    );
    assert!(matches!(out.choice, QueryPlan::Scan(_)));
}
