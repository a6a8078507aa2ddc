//! Differential battery for the granule-parallel executor.
//!
//! The engine's parallelism contract is strict: for every strategy,
//! encoding, and worker count, a query returns the **byte-identical**
//! `QueryResult` of the single-threaded run, and the deterministic
//! counters agree — `positions_matched`, `rows_out`, the decompression
//! flag, and cold `block_reads` (the buffer pool single-flights
//! concurrent misses, so a parallel cold run reads each block exactly
//! once, like a serial one).
//!
//! The proptest sweeps `Strategy::ALL` × {Plain, RLE, BitVec} filter
//! encodings × threads {1, 2, 4, 8} over arbitrary data, granule sizes,
//! and predicates, for both plain selections and aggregations, using the
//! 1-thread execution as the oracle (itself spot-checked against the
//! row-store oracle by the seed suites).

use matstrat::common::TableId;
use matstrat::core::{AggFunc, Strategy};
use matstrat::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const FILTER_ENCODINGS: [EncodingKind; 3] =
    [EncodingKind::Plain, EncodingKind::Rle, EncodingKind::BitVec];

/// A 3-column projection: a (sorted primary, RLE), b (filter column in
/// the encoding under test), c (plain payload).
fn load(enc_b: EncodingKind, rows: &[(Value, Value, Value)]) -> (Database, TableId) {
    let mut sorted = rows.to_vec();
    sorted.sort_unstable();
    let a: Vec<Value> = sorted.iter().map(|r| r.0).collect();
    let b: Vec<Value> = sorted.iter().map(|r| r.1).collect();
    let c: Vec<Value> = sorted.iter().map(|r| r.2).collect();
    let db = Database::in_memory();
    let spec = ProjectionSpec::new("t")
        .column("a", EncodingKind::Rle, SortOrder::Primary)
        .column("b", enc_b, SortOrder::Secondary)
        .column("c", EncodingKind::Plain, SortOrder::None);
    let id = db.load_projection(&spec, &[&a, &b, &c]).unwrap();
    (db, id)
}

fn arb_pred(domain: i64) -> impl PropStrategy<Value = Predicate> {
    (0i64..domain, 0usize..5).prop_map(|(x, op)| match op {
        0 => Predicate::lt(x),
        1 => Predicate::le(x),
        2 => Predicate::gt(x),
        3 => Predicate::ne(x),
        _ => Predicate::ge(x),
    })
}

/// Run cold and return everything the contract promises to be
/// deterministic. `Err` is represented as `None`; an unsupported
/// combination must be unsupported at every thread count.
#[allow(clippy::type_complexity)]
fn cold_run(
    db: &Database,
    q: &QuerySpec,
    s: Strategy,
    granule: u64,
    threads: usize,
) -> Option<(Vec<Value>, Vec<String>, u64, u64, u64, bool)> {
    db.store().cold_reset();
    let opts = ExecOptions {
        granule,
        parallelism: threads,
        ..ExecOptions::default()
    };
    match db.execute_planned(
        &Statement::Select(q.clone()),
        &QueryPlan::forced_scan(s),
        &opts,
    ) {
        Ok(QueryOutcome { rows: r, stats, .. }) => {
            if threads == 1 {
                // The steal counter is scheduling, not semantics, so it
                // is not part of the differential tuple — but a serial
                // run must never report one.
                assert_eq!(stats.steals, 0, "{s}: serial runs cannot steal");
            }
            Some((
                r.flat().to_vec(),
                r.column_names.clone(),
                stats.positions_matched,
                stats.rows_out,
                stats.io.block_reads,
                stats.decompressed_fetch,
            ))
        }
        Err(e) => panic!("{s} threads={threads}: {e}"),
    }
}

fn assert_parallel_matches_serial(db: &Database, q: &QuerySpec, granule: u64) {
    for s in Strategy::ALL {
        let serial = cold_run(db, q, s, granule, 1);
        for threads in THREAD_COUNTS {
            let parallel = cold_run(db, q, s, granule, threads);
            match (&serial, &parallel) {
                (None, None) => {} // unsupported regardless of threads
                (Some(exp), Some(got)) => {
                    assert_eq!(got.0, exp.0, "{s} threads={threads}: result bytes");
                    assert_eq!(got.1, exp.1, "{s} threads={threads}: column names");
                    assert_eq!(got.2, exp.2, "{s} threads={threads}: positions_matched");
                    assert_eq!(got.3, exp.3, "{s} threads={threads}: rows_out");
                    assert_eq!(got.4, exp.4, "{s} threads={threads}: cold block_reads");
                    assert_eq!(got.5, exp.5, "{s} threads={threads}: decompressed flag");
                }
                _ => panic!("{s} threads={threads}: supportedness changed with threads"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn selection_identical_at_any_thread_count(
        rows in prop::collection::vec((0i64..6, 0i64..10, 0i64..64), 64..2500),
        enc_idx in 0usize..3,
        p_a in arb_pred(6),
        p_b in arb_pred(10),
        granule_exp in 5u32..10, // granules of 32..512 so workers really split
    ) {
        let enc_b = FILTER_ENCODINGS[enc_idx];
        let (db, id) = load(enc_b, &rows);
        let q = QuerySpec::select(id, vec![0, 2])
            .filter(0, p_a)
            .filter(1, p_b);
        assert_parallel_matches_serial(&db, &q, 1 << granule_exp);
    }

    #[test]
    fn aggregation_identical_at_any_thread_count(
        rows in prop::collection::vec((0i64..6, 0i64..10, 0i64..64), 64..2500),
        enc_idx in 0usize..3,
        p_b in arb_pred(10),
        granule_exp in 5u32..10,
    ) {
        let enc_b = FILTER_ENCODINGS[enc_idx];
        let (db, id) = load(enc_b, &rows);
        let q = QuerySpec::select(id, vec![])
            .filter(1, p_b)
            .aggregate_sum(0, 2);
        assert_parallel_matches_serial(&db, &q, 1 << granule_exp);
    }
}

/// Non-property companion: one fixed dataset big enough to guarantee
/// every worker of an 8-way run owns several granules, checked for all
/// strategies × encodings × thread counts and all four aggregate
/// functions. Fails loudly outside the proptest lottery.
#[test]
fn fixed_dataset_full_matrix() {
    let rows: Vec<(Value, Value, Value)> = (0..6000)
        .map(|i| (i / 1000, (i * 37) % 10, (i * 7919) % 64))
        .collect();
    for enc_b in FILTER_ENCODINGS {
        let (db, id) = load(enc_b, &rows);
        let select = QuerySpec::select(id, vec![0, 2])
            .filter(0, Predicate::lt(5))
            .filter(1, Predicate::lt(7));
        assert_parallel_matches_serial(&db, &select, 128);
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let agg = QuerySpec::select(id, vec![])
                .filter(1, Predicate::ge(2))
                .aggregate_fn(0, 2, func);
            assert_parallel_matches_serial(&db, &agg, 128);
        }
    }
}
