//! Workspace smoke test: the paper's central invariant on a realistic
//! (but tiny) dataset, fast enough to fail first.
//!
//! `Strategy::ALL` × {Plain, Rle, BitVec} LINENUM encodings over a seeded
//! `LineitemGen` projection must agree with the `RowTable` oracle row for
//! row. The heavier proptest suites explore arbitrary data; this runs in
//! well under a second and catches wiring regressions (manifest drift,
//! broken re-exports, strategy dispatch) before they do.

use matstrat::core::rowstore::RowTable;
use matstrat::prelude::*;
use matstrat::tpch::lineitem::cols;

const SMOKE_ENCODINGS: [EncodingKind; 3] =
    [EncodingKind::Plain, EncodingKind::Rle, EncodingKind::BitVec];

fn smoke_data() -> matstrat::tpch::LineitemData {
    // ~3000 rows: multiple runs per RLE column, single-granule execution.
    LineitemGen::new(TpchConfig {
        scale: 0.0005,
        seed: 0x5EED,
    })
    .generate()
}

#[test]
fn all_strategies_match_oracle_on_lineitem() {
    let data = smoke_data();
    let oracle = RowTable::from_columns(
        vec![
            "returnflag".into(),
            "shipdate".into(),
            "linenum".into(),
            "quantity".into(),
        ],
        &[
            &data.returnflag,
            &data.shipdate,
            &data.linenum,
            &data.quantity,
        ],
    )
    .unwrap();

    let db = Database::in_memory();
    let cutoff = data.shipdate_cutoff(0.3);
    for enc in SMOKE_ENCODINGS {
        let table = data.load(&db, &format!("lineitem_{enc:?}"), enc).unwrap();
        // The paper's selection query: SHIPDATE < X AND LINENUM < 7.
        let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::QUANTITY])
            .filter(cols::SHIPDATE, Predicate::lt(cutoff))
            .filter(cols::LINENUM, Predicate::lt(7));
        let expected = oracle.run(&q).unwrap().sorted_rows();
        assert!(!expected.is_empty(), "smoke query must select something");
        for s in Strategy::ALL {
            match db.execute_planned(
                &Statement::Select(q.clone()),
                &QueryPlan::forced_scan(s),
                &db.exec_options(),
            ) {
                Ok(out) => assert_eq!(
                    out.rows.sorted_rows(),
                    expected,
                    "{s} disagrees with the oracle on {enc:?} LINENUM"
                ),
                Err(e) => panic!("{s} on {enc:?} LINENUM failed: {e}"),
            }
        }
    }
}

#[test]
fn aggregation_matches_oracle_on_lineitem() {
    let data = smoke_data();
    let oracle = RowTable::from_columns(
        vec![
            "returnflag".into(),
            "shipdate".into(),
            "linenum".into(),
            "quantity".into(),
        ],
        &[
            &data.returnflag,
            &data.shipdate,
            &data.linenum,
            &data.quantity,
        ],
    )
    .unwrap();

    let db = Database::in_memory();
    let cutoff = data.shipdate_cutoff(0.5);
    for enc in SMOKE_ENCODINGS {
        let table = data.load(&db, &format!("agg_{enc:?}"), enc).unwrap();
        let q = QuerySpec::select(table, vec![])
            .filter(cols::SHIPDATE, Predicate::lt(cutoff))
            .filter(cols::LINENUM, Predicate::lt(7))
            .aggregate_sum(cols::RETURNFLAG, cols::QUANTITY);
        let expected = oracle.run(&q).unwrap().sorted_rows();
        for s in Strategy::ALL {
            match db.execute_planned(
                &Statement::Select(q.clone()),
                &QueryPlan::forced_scan(s),
                &db.exec_options(),
            ) {
                Ok(out) => assert_eq!(
                    out.rows.sorted_rows(),
                    expected,
                    "{s} aggregation on {enc:?}"
                ),
                Err(e) => panic!("{s} aggregation on {enc:?} failed: {e}"),
            }
        }
    }
}
