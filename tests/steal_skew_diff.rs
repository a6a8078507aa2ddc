//! Clustered-selectivity skew battery for the work-stealing scheduler.
//!
//! Contiguous-span partitioning is optimal for seek accounting but
//! pathological when selectivity clusters: with every match concentrated
//! in one worker's original span, that worker does all the value
//! fetching and tuple construction while its siblings scan empty
//! granules and idle. The work-stealing scheduler exists to fix exactly
//! this — and it must fix it **without** touching the engine's
//! determinism contract. This battery constructs the pathological case
//! on purpose and asserts both halves:
//!
//! * **Semantics are untouched** — for every strategy and thread count,
//!   result bytes, column names, `positions_matched`, `rows_out`, and
//!   cold `block_reads` equal the serial run's exactly, even while
//!   granule runs migrate between workers.
//! * **Stealing actually happens** — the serial run reports
//!   `QueryStats::steals == 0`, and at ≥ 2 workers the skew drives idle
//!   workers to steal from the loaded span's tail (`steals > 0`). The
//!   steal count itself is scheduling, not semantics: it varies run to
//!   run, so the assertion is "occurred", never "equals".

use matstrat::common::TableId;
use matstrat::core::Strategy;
use matstrat::prelude::*;

/// Rows per granule and granules in the table: 256 granules of 64 rows,
/// so even an 8-way run plans 32-granule spans with chunk-sized steals.
const GRANULE: u64 = 64;
const NUM_GRANULES: u64 = 256;
const ROWS: usize = (GRANULE * NUM_GRANULES) as usize;

/// Matches live only in the first `1/16` of the table — inside worker
/// 0's original span for every thread count in the matrix (an 8-way run
/// gives worker 0 the first `1/8`).
const HOT_FRACTION: usize = 16;

/// Three columns: `a` sorted (RLE primary), `b` the clustered filter
/// column — `1` in the hot prefix, `0` elsewhere — and `c` a plain
/// payload fetched for survivors only.
fn load_clustered() -> (Database, TableId) {
    let hot = ROWS / HOT_FRACTION;
    let a: Vec<Value> = (0..ROWS).map(|i| (i / (ROWS / 8)) as Value).collect();
    let b: Vec<Value> = (0..ROWS).map(|i| Value::from(i < hot)).collect();
    let c: Vec<Value> = (0..ROWS).map(|i| ((i * 7919) % 1000) as Value).collect();
    let db = Database::in_memory();
    let spec = ProjectionSpec::new("skewed")
        .column("a", EncodingKind::Rle, SortOrder::Primary)
        .column("b", EncodingKind::Plain, SortOrder::None)
        .column("c", EncodingKind::Plain, SortOrder::None);
    let id = db.load_projection(&spec, &[&a, &b, &c]).unwrap();
    (db, id)
}

fn hot_query(table: TableId) -> QuerySpec {
    QuerySpec::select(table, vec![0, 2]).filter(1, Predicate::eq(1))
}

fn cold_run(
    db: &Database,
    q: &QuerySpec,
    s: Strategy,
    threads: usize,
) -> (QueryResult, QueryStats) {
    db.store().cold_reset();
    let opts = ExecOptions {
        granule: GRANULE,
        parallelism: threads,
        ..ExecOptions::default()
    };
    let out = db
        .execute_planned(
            &Statement::Select(q.clone()),
            &QueryPlan::forced_scan(s),
            &opts,
        )
        .unwrap_or_else(|e| panic!("{s} threads={threads}: {e}"));
    (out.rows, out.stats)
}

/// The determinism half: byte-identical results and exact deterministic
/// counters at every thread count, under maximal skew.
#[test]
fn clustered_skew_results_identical_at_any_thread_count() {
    let (db, table) = load_clustered();
    let q = hot_query(table);
    for s in Strategy::ALL {
        let (serial, serial_stats) = cold_run(&db, &q, s, 1);
        assert_eq!(serial_stats.steals, 0, "{s}: a serial run cannot steal");
        assert_eq!(
            serial_stats.positions_matched,
            (ROWS / HOT_FRACTION) as u64,
            "{s}: the hot prefix matches exactly"
        );
        for threads in [2, 4, 8] {
            let (par, stats) = cold_run(&db, &q, s, threads);
            assert_eq!(
                par.flat(),
                serial.flat(),
                "{s} threads={threads}: result bytes"
            );
            assert_eq!(par.column_names, serial.column_names);
            assert_eq!(
                stats.positions_matched, serial_stats.positions_matched,
                "{s} threads={threads}: positions_matched"
            );
            assert_eq!(
                stats.rows_out, serial_stats.rows_out,
                "{s} threads={threads}: rows_out"
            );
            assert_eq!(
                stats.io.block_reads, serial_stats.io.block_reads,
                "{s} threads={threads}: cold block_reads"
            );
        }
    }
}

/// The rebalance half: under clustered selectivity, idle workers steal
/// from the loaded span. Steal counts are scheduling (not semantics), so
/// a single run can legitimately finish without stealing on a loaded or
/// single-core host; the test retries a few times and requires stealing
/// to show up at least once per thread count — while every retried run
/// still passes the byte-identity check.
#[test]
fn clustered_skew_provokes_stealing_at_two_plus_workers() {
    let (db, table) = load_clustered();
    let q = hot_query(table);
    let (serial, _) = cold_run(&db, &q, Strategy::LmParallel, 1);
    for threads in [2usize, 4, 8] {
        let mut stole = 0u64;
        for _attempt in 0..20 {
            let (par, stats) = cold_run(&db, &q, Strategy::LmParallel, threads);
            assert_eq!(par.flat(), serial.flat(), "threads={threads}: bytes");
            stole = stats.steals;
            if stole > 0 {
                break;
            }
        }
        assert!(
            stole > 0,
            "threads={threads}: all matches in one worker's span must \
             provoke stealing in at least one of 20 runs"
        );
    }
}
