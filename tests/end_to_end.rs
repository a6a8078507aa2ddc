//! Workspace-level integration tests: the full pipeline from workload
//! generation through storage, execution, and planning.

use matstrat::prelude::*;
use matstrat::tpch::lineitem::cols;

/// Run a scan under a pinned strategy through the unified entry point.
fn run_forced(db: &Database, q: &QuerySpec, s: Strategy) -> Result<QueryOutcome> {
    db.execute_planned(
        &Statement::Select(q.clone()),
        &QueryPlan::forced_scan(s),
        &db.exec_options(),
    )
}

fn small_cfg() -> TpchConfig {
    TpchConfig {
        scale: 0.005,
        seed: 99,
    }
}

/// All four strategies agree on the paper's selection query over real
/// generated data, for every LINENUM encoding.
#[test]
fn paper_selection_query_all_encodings_agree() {
    let data = LineitemGen::new(small_cfg()).generate();
    let db = Database::in_memory();
    for enc in [EncodingKind::Plain, EncodingKind::Rle, EncodingKind::BitVec] {
        let table = data
            .load(&db, &format!("lineitem_{}", enc.name()), enc)
            .unwrap();
        let x = data.shipdate_cutoff(0.4);
        let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::LINENUM])
            .filter(cols::SHIPDATE, Predicate::lt(x))
            .filter(cols::LINENUM, Predicate::lt(7));
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for s in Strategy::ALL {
            match run_forced(&db, &q, s) {
                Ok(out) => {
                    let rows = out.rows.sorted_rows();
                    match &reference {
                        Some(exp) => assert_eq!(exp, &rows, "{enc} {s}"),
                        None => reference = Some(rows),
                    }
                }
                Err(e) => panic!("{enc} {s}: {e}"),
            }
        }
        // Sanity: the reference matches a direct count on the raw data.
        let expected = data
            .shipdate
            .iter()
            .zip(&data.linenum)
            .filter(|(&sd, &ln)| sd < x && ln < 7)
            .count();
        assert_eq!(reference.unwrap().len(), expected, "{enc}");
    }
}

/// The aggregation query returns per-group sums matching a direct
/// computation on the generated columns.
#[test]
fn paper_aggregation_query_matches_direct_computation() {
    let data = LineitemGen::new(small_cfg()).generate();
    let db = Database::in_memory();
    let table = data.load(&db, "lineitem", EncodingKind::Rle).unwrap();
    let x = data.shipdate_cutoff(0.6);
    let q = QuerySpec::select(table, vec![])
        .filter(cols::SHIPDATE, Predicate::lt(x))
        .filter(cols::LINENUM, Predicate::lt(7))
        .aggregate_sum(cols::SHIPDATE, cols::LINENUM);
    let result = run_forced(&db, &q, Strategy::LmParallel).unwrap().rows;

    use std::collections::BTreeMap;
    let mut expected: BTreeMap<Value, Value> = BTreeMap::new();
    for (&sd, &ln) in data.shipdate.iter().zip(&data.linenum) {
        if sd < x && ln < 7 {
            *expected.entry(sd).or_insert(0) += ln;
        }
    }
    assert_eq!(result.num_rows(), expected.len());
    for row in result.rows() {
        assert_eq!(expected.get(&row[0]), Some(&row[1]), "group {}", row[0]);
    }
}

/// Persistence: write a lineitem projection to a real directory, reopen
/// the database, and run the same query with identical results.
#[test]
fn reopened_database_returns_identical_results() {
    let dir = std::env::temp_dir().join(format!("matstrat-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = LineitemGen::new(small_cfg()).generate();
    let x = data.shipdate_cutoff(0.3);

    let before = {
        let db = Database::open(&dir).unwrap();
        let table = data.load(&db, "lineitem", EncodingKind::Rle).unwrap();
        let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::QUANTITY])
            .filter(cols::SHIPDATE, Predicate::lt(x));
        run_forced(&db, &q, Strategy::LmParallel)
            .unwrap()
            .rows
            .sorted_rows()
    };
    // Fresh process-equivalent: new handle, catalog reloaded from disk.
    let db = Database::open(&dir).unwrap();
    let table = db.store().projection_by_name("lineitem").unwrap().id;
    let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::QUANTITY])
        .filter(cols::SHIPDATE, Predicate::lt(x));
    for s in Strategy::ALL {
        let after = run_forced(&db, &q, s).unwrap().rows.sorted_rows();
        assert_eq!(before, after, "{s}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tiny buffer pool forces evictions mid-query; results must not change.
#[test]
fn tiny_buffer_pool_does_not_change_results() {
    use matstrat::storage::Store;
    let data = LineitemGen::new(small_cfg()).generate();

    let run_with_pool = |blocks: usize| {
        let store = Store::in_memory_with_pool(blocks);
        let db = Database::with_store(store);
        let table = data.load(&db, "lineitem", EncodingKind::Plain).unwrap();
        let x = data.shipdate_cutoff(0.5);
        let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::LINENUM, cols::QUANTITY])
            .filter(cols::SHIPDATE, Predicate::lt(x))
            .filter(cols::LINENUM, Predicate::lt(4));
        let out = run_forced(&db, &q, Strategy::LmParallel).unwrap();
        (out.rows.sorted_rows(), out.stats.io.block_reads)
    };
    let (big_pool_rows, big_reads) = run_with_pool(100_000);
    let (tiny_pool_rows, tiny_reads) = run_with_pool(2);
    assert_eq!(big_pool_rows, tiny_pool_rows);
    assert!(
        tiny_reads >= big_reads,
        "a thrashing pool cannot read fewer blocks ({tiny_reads} vs {big_reads})"
    );
}

/// The join pipeline end-to-end on generated tables, all inner
/// strategies, with a predicate sweep.
#[test]
fn join_pipeline_all_inner_strategies() {
    use matstrat::tpch::join_tables::{customer_cols, orders_cols};
    let tables = JoinTables::generate(small_cfg());
    let db = Database::in_memory();
    let orders = tables.load_orders(&db, "orders").unwrap();
    let customer = tables.load_customer(&db, "customer").unwrap();
    for sf in [0.0, 0.25, 1.0] {
        let x = tables.custkey_cutoff(sf);
        let spec = JoinSpec {
            left: orders,
            right: customer,
            left_key: orders_cols::CUSTKEY,
            right_key: customer_cols::CUSTKEY,
            left_filter: Some((orders_cols::CUSTKEY, Predicate::lt(x))),
            right_filter: None,
            left_output: vec![orders_cols::SHIPDATE, orders_cols::ORDERDATE],
            right_output: vec![customer_cols::NATIONCODE],
        };
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for inner in InnerStrategy::ALL {
            let r = db
                .execute_planned(
                    &Statement::JoinTree(JoinTreeSpec::new(vec![spec.clone()])),
                    &QueryPlan::forced_tree(vec![0], vec![inner]),
                    &db.exec_options(),
                )
                .unwrap()
                .rows;
            assert_eq!(r.column_names, vec!["shipdate", "orderdate", "nationcode"]);
            let rows = r.sorted_rows();
            match &reference {
                Some(exp) => assert_eq!(exp, &rows, "{inner:?} sf={sf}"),
                None => reference = Some(rows),
            }
        }
        let expected = tables.orders.custkey.iter().filter(|&&k| k < x).count();
        assert_eq!(reference.unwrap().len(), expected, "sf={sf}");
    }
}

/// Stats surfaces make sense: LM-pipelined at a selective predicate reads
/// fewer LINENUM blocks than EM-parallel on the plain encoding.
#[test]
fn lm_pipelined_block_skipping_is_observable() {
    let data = LineitemGen::new(TpchConfig {
        scale: 0.05,
        seed: 5,
    })
    .generate();
    let db = Database::in_memory();
    let table = data.load(&db, "lineitem", EncodingKind::Plain).unwrap();
    let x = data.shipdate_cutoff(0.02); // 2% selectivity, clustered
    let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::LINENUM])
        .filter(cols::SHIPDATE, Predicate::lt(x))
        .filter(cols::LINENUM, Predicate::lt(7));

    db.store().cold_reset();
    let lm = run_forced(&db, &q, Strategy::LmPipelined).unwrap().stats;
    db.store().cold_reset();
    let em = run_forced(&db, &q, Strategy::EmParallel).unwrap().stats;
    assert!(
        lm.io.block_reads < em.io.block_reads,
        "LM-pipelined should skip LINENUM blocks: {} vs {}",
        lm.io.block_reads,
        em.io.block_reads
    );
}

/// The planner's model-backed choice is never catastrophically wrong:
/// the chosen strategy's measured time is within 4x of the best measured
/// strategy on the paper's query.
#[test]
fn planner_choice_is_competitive() {
    let data = LineitemGen::new(TpchConfig {
        scale: 0.02,
        seed: 11,
    })
    .generate();
    let db = Database::in_memory();
    let table = data.load(&db, "lineitem", EncodingKind::Rle).unwrap();
    for sf in [0.1, 0.5, 0.9] {
        let x = data.shipdate_cutoff(sf);
        let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::LINENUM])
            .filter(cols::SHIPDATE, Predicate::lt(x))
            .filter(cols::LINENUM, Predicate::lt(7));
        let choice = match db.plan(&Statement::Select(q.clone())).unwrap() {
            QueryPlan::Scan(c) => c,
            _ => unreachable!("a select plans as a scan"),
        };
        // Measure every strategy (median of 3 runs, warm).
        let mut best = f64::INFINITY;
        let mut chosen = f64::INFINITY;
        for s in Strategy::ALL {
            let mut times = Vec::new();
            for _ in 0..3 {
                if let Ok(out) = run_forced(&db, &q, s) {
                    times.push(out.stats.wall.as_secs_f64());
                }
            }
            if times.is_empty() {
                continue;
            }
            times.sort_by(f64::total_cmp);
            let t = times[times.len() / 2];
            best = best.min(t);
            if s == choice.strategy {
                chosen = t;
            }
        }
        assert!(
            chosen <= best * 4.0 + 1e-4,
            "sf={sf}: planner chose {} at {chosen:.6}s, best was {best:.6}s",
            choice.strategy
        );
    }
}
