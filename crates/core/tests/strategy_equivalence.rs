//! The paper's central correctness invariant: materialization strategy is
//! a *performance* choice, never a *semantics* choice.
//!
//! For arbitrary data, encodings, predicates and query shapes, all four
//! strategies must return exactly the multiset of tuples the naive
//! row-store oracle returns, bit-vector columns included.

use matstrat_common::{Predicate, Value};
use matstrat_core::rowstore::RowTable;
use matstrat_core::{Database, ExecOptions, QueryPlan, QuerySpec, Statement, Strategy};

fn forced(
    db: &Database,
    q: &QuerySpec,
    s: Strategy,
    opts: &ExecOptions,
) -> matstrat_common::Result<matstrat_core::QueryOutcome> {
    db.execute_planned(
        &Statement::Select(q.clone()),
        &QueryPlan::forced_scan(s),
        opts,
    )
}
use matstrat_storage::{EncodingKind, ProjectionSpec, SortOrder};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

/// Load a 3-column projection (a: sorted primary, b, c) with the given
/// encodings; returns the database, table id, and the oracle.
fn load(
    enc_a: EncodingKind,
    enc_b: EncodingKind,
    enc_c: EncodingKind,
    rows: &[(Value, Value, Value)],
) -> (Database, matstrat_common::TableId, RowTable) {
    let mut sorted = rows.to_vec();
    sorted.sort_unstable();
    let a: Vec<Value> = sorted.iter().map(|r| r.0).collect();
    let b: Vec<Value> = sorted.iter().map(|r| r.1).collect();
    let c: Vec<Value> = sorted.iter().map(|r| r.2).collect();
    let db = Database::in_memory();
    let spec = ProjectionSpec::new("t")
        .column("a", enc_a, SortOrder::Primary)
        .column("b", enc_b, SortOrder::Secondary)
        .column("c", enc_c, SortOrder::None);
    let id = db.load_projection(&spec, &[&a, &b, &c]).unwrap();
    let oracle =
        RowTable::from_columns(vec!["a".into(), "b".into(), "c".into()], &[&a, &b, &c]).unwrap();
    (db, id, oracle)
}

fn check_all_strategies(
    db: &Database,
    id: matstrat_common::TableId,
    oracle: &RowTable,
    q: &QuerySpec,
) {
    let mut q = q.clone();
    q.table = id;
    let expected = oracle.run(&q).unwrap().sorted_rows();
    for s in Strategy::ALL {
        match forced(db, &q, s, &db.exec_options()) {
            Ok(matstrat_core::QueryOutcome { rows: r, stats, .. }) => {
                assert_eq!(
                    r.sorted_rows(),
                    expected,
                    "strategy {s} disagrees with the row-store oracle"
                );
                assert_eq!(r.num_rows() as u64, stats.rows_out);
            }
            Err(e) => panic!("strategy {s} failed: {e}"),
        }
    }
}

const ENCODINGS: [EncodingKind; 4] = [
    EncodingKind::Plain,
    EncodingKind::Rle,
    EncodingKind::BitVec,
    EncodingKind::Dict,
];

fn arb_encoding() -> impl PropStrategy<Value = EncodingKind> {
    prop::sample::select(&ENCODINGS[..])
}

fn arb_pred() -> impl PropStrategy<Value = Predicate> {
    (0i64..16, 0i64..16, 0usize..7).prop_map(|(x, y, op)| match op {
        0 => Predicate::lt(x),
        1 => Predicate::le(x),
        2 => Predicate::gt(x),
        3 => Predicate::ge(x),
        4 => Predicate::eq(x),
        5 => Predicate::ne(x),
        _ => Predicate::between(x.min(y), x.max(y)),
    })
}

fn arb_rows() -> impl PropStrategy<Value = Vec<(Value, Value, Value)>> {
    prop::collection::vec((0i64..8, 0i64..12, 0i64..16), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn selection_two_predicates_all_encodings(
        rows in arb_rows(),
        ea in arb_encoding(),
        eb in arb_encoding(),
        ec in arb_encoding(),
        p1 in arb_pred(),
        p2 in arb_pred(),
    ) {
        let (db, id, oracle) = load(ea, eb, ec, &rows);
        let q = QuerySpec::select(id, vec![1, 2])
            .filter(1, p1)
            .filter(2, p2);
        check_all_strategies(&db, id, &oracle, &q);
    }

    #[test]
    fn aggregation_all_encodings(
        rows in arb_rows(),
        ea in arb_encoding(),
        eb in arb_encoding(),
        ec in arb_encoding(),
        p1 in arb_pred(),
        p2 in arb_pred(),
    ) {
        let (db, id, oracle) = load(ea, eb, ec, &rows);
        let q = QuerySpec::select(id, vec![])
            .filter(1, p1)
            .filter(2, p2)
            .aggregate_sum(1, 2);
        check_all_strategies(&db, id, &oracle, &q);
    }

    #[test]
    fn single_and_triple_predicates(
        rows in arb_rows(),
        eb in arb_encoding(),
        p0 in arb_pred(),
        p1 in arb_pred(),
        p2 in arb_pred(),
    ) {
        let (db, id, oracle) = load(EncodingKind::Rle, eb, EncodingKind::Plain, &rows);
        // One predicate.
        let q1 = QuerySpec::select(id, vec![0, 1, 2]).filter(1, p1);
        check_all_strategies(&db, id, &oracle, &q1);
        // Three predicates (one per column).
        let q3 = QuerySpec::select(id, vec![0, 2])
            .filter(0, p0)
            .filter(1, p1)
            .filter(2, p2);
        check_all_strategies(&db, id, &oracle, &q3);
    }

    #[test]
    fn no_predicates_full_scan(
        rows in arb_rows(),
        ea in arb_encoding(),
        ec in arb_encoding(),
    ) {
        let (db, id, oracle) = load(ea, EncodingKind::Plain, ec, &rows);
        let q = QuerySpec::select(id, vec![2, 0]);
        check_all_strategies(&db, id, &oracle, &q);
    }

    #[test]
    fn repeated_predicates_on_one_column(
        rows in arb_rows(),
        eb in arb_encoding(),
        lo in 0i64..8,
        hi in 4i64..14,
    ) {
        let (db, id, oracle) = load(EncodingKind::Rle, eb, EncodingKind::Plain, &rows);
        // Two predicates on the same column express a range.
        let q = QuerySpec::select(id, vec![1])
            .filter(1, Predicate::ge(lo))
            .filter(1, Predicate::le(hi));
        check_all_strategies(&db, id, &oracle, &q);
    }

    #[test]
    fn all_aggregate_functions(
        rows in arb_rows(),
        eb in arb_encoding(),
        p in arb_pred(),
        func_idx in 0usize..4,
    ) {
        use matstrat_core::AggFunc;
        let func = [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max][func_idx];
        let (db, id, oracle) = load(EncodingKind::Rle, eb, EncodingKind::Plain, &rows);
        let q = QuerySpec::select(id, vec![])
            .filter(2, p)
            .aggregate_fn(1, 2, func);
        check_all_strategies(&db, id, &oracle, &q);
    }

    #[test]
    fn ablation_options_never_change_results(
        rows in arb_rows(),
        eb in arb_encoding(),
        p1 in arb_pred(),
        p2 in arb_pred(),
        reuse in proptest::bool::ANY,
        repr_idx in 0usize..4,
        granule_exp in 4u32..18,
    ) {
        use matstrat_poslist::Repr;
        let force_repr = [None, Some(Repr::Ranges), Some(Repr::Bitmap), Some(Repr::Explicit)][repr_idx];
        let opts = ExecOptions {
            multicolumn_reuse: reuse,
            force_repr,
            granule: 1u64 << granule_exp,
            ..ExecOptions::default()
        };
        let (db, id, oracle) = load(EncodingKind::Rle, eb, EncodingKind::Plain, &rows);
        let mut q = QuerySpec::select(id, vec![1, 2])
            .filter(1, p1)
            .filter(2, p2);
        q.table = id;
        let expected = oracle.run(&q).unwrap().sorted_rows();
        for s in Strategy::ALL {
            match forced(&db, &q, s, &opts) {
                Ok(matstrat_core::QueryOutcome { rows: r, .. }) => prop_assert_eq!(
                    r.sorted_rows(),
                    expected.clone(),
                    "strategy {} opts {:?}",
                    s,
                    opts
                ),
                Err(e) => panic!("strategy {s} failed: {e}"),
            }
        }
    }
}

#[test]
fn output_column_not_filtered() {
    // Output a column with no predicate on it, filter on the others.
    let rows: Vec<(Value, Value, Value)> =
        (0..500).map(|i| (i / 100, i % 10, (i * 3) % 14)).collect();
    let (db, id, oracle) = load(
        EncodingKind::Rle,
        EncodingKind::Plain,
        EncodingKind::Dict,
        &rows,
    );
    let q = QuerySpec::select(id, vec![2])
        .filter(0, Predicate::le(3))
        .filter(1, Predicate::lt(5));
    check_all_strategies(&db, id, &oracle, &q);
}

#[test]
fn zero_selectivity_and_full_selectivity() {
    let rows: Vec<(Value, Value, Value)> = (0..300).map(|i| (i / 50, i % 5, i % 3)).collect();
    let (db, id, oracle) = load(
        EncodingKind::Rle,
        EncodingKind::BitVec,
        EncodingKind::Plain,
        &rows,
    );
    // Nothing matches.
    let q = QuerySpec::select(id, vec![0, 1]).filter(1, Predicate::lt(-5));
    check_all_strategies(&db, id, &oracle, &q);
    // Everything matches.
    let q = QuerySpec::select(id, vec![0, 1])
        .filter(1, Predicate::ge(0))
        .filter(2, Predicate::le(100));
    check_all_strategies(&db, id, &oracle, &q);
}

#[test]
fn lm_pipelined_agrees_over_bitvec_later_filter() {
    // LM-pipelined filters a bit-vector later column by fetching its
    // values at the survivors; it must return what the other three
    // strategies return, whether the bit-vector filter comes first or
    // later, under a range descriptor (sorted `a` first) or another.
    let rows: Vec<(Value, Value, Value)> =
        (0..5000).map(|i| (i / 1000, i % 5, (i * 7) % 3)).collect();
    let (db, id, oracle) = load(
        EncodingKind::Rle,
        EncodingKind::Plain,
        EncodingKind::BitVec,
        &rows,
    );
    let queries = [
        QuerySpec::select(id, vec![1])
            .filter(1, Predicate::lt(3))
            .filter(2, Predicate::lt(2)),
        QuerySpec::select(id, vec![0, 2])
            .filter(0, Predicate::between(1, 3))
            .filter(2, Predicate::eq(1)),
        QuerySpec::select(id, vec![1])
            .filter(2, Predicate::lt(2))
            .filter(1, Predicate::lt(3)),
    ];
    for q in &queries {
        let run = |s| {
            forced(&db, q, s, &db.exec_options())
                .unwrap_or_else(|e| panic!("{s}: {e}"))
                .rows
        };
        let lm = run(Strategy::LmPipelined);
        assert!(lm.num_rows() > 0, "{q:?}");
        for s in Strategy::ALL {
            assert_eq!(run(s).flat(), lm.flat(), "{s} vs LM-pipelined on {q:?}");
        }
        check_all_strategies(&db, id, &oracle, q);
    }
}

#[test]
fn multi_granule_tables() {
    // More rows than one granule (64 Ki) to cross granule boundaries.
    let n = (matstrat_core::GRANULE + 1000) as i64;
    let rows: Vec<(Value, Value, Value)> =
        (0..n).map(|i| (i / (n / 4 + 1), i % 7, i % 3)).collect();
    let (db, id, oracle) = load(
        EncodingKind::Rle,
        EncodingKind::Plain,
        EncodingKind::Plain,
        &rows,
    );
    let q = QuerySpec::select(id, vec![1, 2])
        .filter(1, Predicate::lt(3))
        .filter(2, Predicate::gt(0));
    check_all_strategies(&db, id, &oracle, &q);
    let qa = QuerySpec::select(id, vec![])
        .filter(1, Predicate::lt(5))
        .aggregate_sum(0, 1);
    check_all_strategies(&db, id, &oracle, &qa);
}
