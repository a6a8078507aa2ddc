//! `QueryStats`/`IoStats` plumbing: the paper's headline effect must be
//! visible in the meter, not just in wall time.
//!
//! On a selective predicate, LM-parallel fetches the no-predicate output
//! column only at surviving positions (clustered by the sort order), while
//! EM-parallel's SPC leaf reads every block of every accessed column. If
//! the simulated-disk meter silently breaks — stops counting, double
//! counts, or loses the cold reset — this asymmetry disappears and these
//! assertions fail.

use matstrat::common::TableId;
use matstrat::core::AggFunc;
use matstrat::prelude::*;
use matstrat::tpch::lineitem::cols;

/// Big enough that QUANTITY spans several 64 KB blocks; small enough to
/// generate in milliseconds.
fn load_lineitem(db: &Database) -> (matstrat::tpch::LineitemData, matstrat::common::TableId) {
    let data = LineitemGen::new(TpchConfig {
        scale: 0.05,
        seed: 0x10_57A7,
    })
    .generate();
    let table = data.load(db, "lineitem", EncodingKind::Rle).unwrap();
    (data, table)
}

fn forced(db: &Database, q: &QuerySpec, s: Strategy) -> (QueryResult, QueryStats) {
    let out = db
        .execute_planned(
            &Statement::Select(q.clone()),
            &QueryPlan::forced_scan(s),
            &db.exec_options(),
        )
        .unwrap();
    (out.rows, out.stats)
}

fn cold_run(db: &Database, q: &QuerySpec, s: Strategy) -> QueryStats {
    db.store().cold_reset();
    let (result, stats) = forced(db, q, s);
    assert_eq!(
        result.num_rows() as u64,
        stats.rows_out,
        "{s}: rows_out drift"
    );
    stats
}

#[test]
fn lm_parallel_reads_fewer_blocks_than_em_parallel_when_selective() {
    let db = Database::in_memory();
    let (data, table) = load_lineitem(&db);
    // 1 % selectivity: survivors cluster at the head of each RETURNFLAG
    // group, so most QUANTITY blocks hold no matches at all.
    let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::QUANTITY])
        .filter(cols::SHIPDATE, Predicate::lt(data.shipdate_cutoff(0.01)));

    let lm = cold_run(&db, &q, Strategy::LmParallel);
    let em = cold_run(&db, &q, Strategy::EmParallel);

    assert!(lm.io.block_reads > 0, "meter recorded nothing for LM");
    assert!(em.io.block_reads > 0, "meter recorded nothing for EM");
    assert_eq!(
        lm.rows_out, em.rows_out,
        "strategies disagree on the result"
    );
    assert!(
        lm.io.block_reads < em.io.block_reads,
        "LM-parallel should touch fewer blocks than EM-parallel on a \
         selective predicate: LM={} EM={}",
        lm.io.block_reads,
        em.io.block_reads
    );
}

#[test]
fn exec_stats_fields_are_plumbed() {
    let db = Database::in_memory();
    let (data, table) = load_lineitem(&db);
    let cutoff = data.shipdate_cutoff(0.25);
    let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::QUANTITY])
        .filter(cols::SHIPDATE, Predicate::lt(cutoff));
    let expected_matches = data.shipdate.iter().filter(|&&d| d < cutoff).count() as u64;

    for s in Strategy::ALL {
        let stats = cold_run(&db, &q, s);
        assert_eq!(stats.strategy, Some(s));
        assert_eq!(
            stats.positions_matched, expected_matches,
            "{s}: positions_matched must count predicate survivors"
        );
        assert_eq!(stats.rows_out, expected_matches, "{s}: rows_out");
        assert!(
            stats.io.seeks > 0,
            "{s}: a cold run must seek at least once"
        );
        assert!(
            stats.io.seeks <= stats.io.block_reads,
            "{s}: more seeks than reads makes no sense ({} > {})",
            stats.io.seeks,
            stats.io.block_reads
        );
        assert!(stats.wall > std::time::Duration::ZERO, "{s}: wall clock");
        // Pricing is linear in the counters.
        let priced = stats.io.modeled_micros(1000.0, 100.0);
        let expected = stats.io.seeks as f64 * 1000.0 + stats.io.block_reads as f64 * 100.0;
        assert!(
            (priced - expected).abs() < 1e-9,
            "{s}: modeled_micros formula"
        );
    }
}

#[test]
fn warm_pool_eliminates_block_reads() {
    let db = Database::in_memory();
    let (data, table) = load_lineitem(&db);
    let q = QuerySpec::select(table, vec![cols::SHIPDATE, cols::QUANTITY])
        .filter(cols::SHIPDATE, Predicate::lt(data.shipdate_cutoff(0.1)));

    let cold = cold_run(&db, &q, Strategy::LmParallel);
    // Second run without a reset: everything is already pooled.
    let (_, warm) = forced(&db, &q, Strategy::LmParallel);
    assert!(cold.io.block_reads > 0);
    assert_eq!(
        warm.io.block_reads, 0,
        "a warm buffer pool must not touch the simulated disk"
    );
}

/// `decompressed_fetch` says a value fetch hit a bit-vector block, which
/// decompresses inside the codec to gather by position. Under late materialization an aggregate's
/// group column is consumed by runs and COUNT never fetches its value
/// column, so neither sets it.
#[test]
fn decompressed_fetch_marks_value_fetches_from_bit_vector_blocks() {
    let db = Database::in_memory();
    let k: Vec<Value> = (0..3000).collect();
    let bits: Vec<Value> = (0..3000).map(|i| i % 5).collect();
    let plain: Vec<Value> = (0..3000).map(|i| i % 11).collect();
    let t = db
        .load_projection(
            &ProjectionSpec::new("t")
                .column("k", EncodingKind::Plain, SortOrder::Primary)
                .column("bits", EncodingKind::BitVec, SortOrder::None)
                .column("plain", EncodingKind::Plain, SortOrder::None),
            &[&k, &bits, &plain],
        )
        .unwrap();
    let q = || QuerySpec::select(t, vec![]).filter(0, Predicate::lt(2000));
    for (query, decompressed) in [
        (q().aggregate_fn(1, 2, AggFunc::Sum), false),
        (q().aggregate_fn(2, 1, AggFunc::Sum), true),
        (q().aggregate_fn(2, 1, AggFunc::Count), false),
        (
            QuerySpec::select(t, vec![0, 1]).filter(0, Predicate::lt(2000)),
            true,
        ),
        (
            QuerySpec::select(t, vec![0, 2]).filter(0, Predicate::lt(2000)),
            false,
        ),
    ] {
        for s in [Strategy::LmPipelined, Strategy::LmParallel] {
            let (_, stats) = forced(&db, &query, s);
            assert_eq!(stats.decompressed_fetch, decompressed, "{s}: {query:?}");
        }
    }
}

/// `t` (sorted `k`, `v` in stripes of 40 000 rows alternating low and
/// high, scattered `w`, foreign key `fk`) and a 64-row dimension `dim`.
fn pinned_fixture(rows: i64) -> (Database, TableId, TableId) {
    let db = Database::in_memory();
    let k: Vec<Value> = (0..rows).collect();
    let v: Vec<Value> = (0..rows)
        .map(|i| ((i / 40_000) % 2) * 1000 + i % 97)
        .collect();
    let w: Vec<Value> = (0..rows).map(|i| (i * 7919) % 1000).collect();
    let fk: Vec<Value> = (0..rows).map(|i| i % 64).collect();
    let t = db
        .load_projection(
            &ProjectionSpec::new("t")
                .column("k", EncodingKind::Plain, SortOrder::Primary)
                .column("v", EncodingKind::Plain, SortOrder::None)
                .column("w", EncodingKind::Plain, SortOrder::None)
                .column("fk", EncodingKind::Plain, SortOrder::None),
            &[&k, &v, &w, &fk],
        )
        .unwrap();
    let dk: Vec<Value> = (0..64).collect();
    let x: Vec<Value> = (0..64).map(|i| i * 3 + 1).collect();
    let dim = db
        .load_projection(
            &ProjectionSpec::new("dim")
                .column("dk", EncodingKind::Plain, SortOrder::Primary)
                .column("x", EncodingKind::Plain, SortOrder::None),
            &[&dk, &x],
        )
        .unwrap();
    (db, t, dim)
}

/// Cold `(block_reads, seeks)` of `SELECT k, w FROM t WHERE v < 50`
/// under each strategy in [`Strategy::ALL`] order, then of the one-edge
/// tree `t JOIN dim ON t.fk = dim.dk WHERE t.v < 50`; then of
/// `SELECT v, COUNT(w) FROM t WHERE v < 50 GROUP BY v` and of its SUM
/// under each strategy, and of the tree grouped by `dim.x` with
/// `COUNT(t.w)` and `SUM(t.w)`.
fn cold_io(rows: i64, granule: u64, threads: usize) -> Vec<(u64, u64)> {
    let (db, t, dim) = pinned_fixture(rows);
    let opts = ExecOptions {
        granule,
        parallelism: threads,
        ..ExecOptions::default()
    };
    let filtered = QuerySpec::select(t, vec![0, 2]).filter(1, Predicate::lt(50));
    let tree = JoinTreeSpec::new(vec![JoinSpec {
        left: t,
        right: dim,
        left_key: 3,
        right_key: 0,
        left_filter: Some((1, Predicate::lt(50))),
        right_filter: None,
        left_output: vec![2],
        right_output: vec![1],
    }]);
    let tree_plan = || QueryPlan::forced_tree(vec![0], vec![InnerStrategy::MultiColumn]);
    let scans = |q: QuerySpec| {
        Strategy::ALL.map(|s| (Statement::Select(q.clone()), QueryPlan::forced_scan(s)))
    };
    let mut runs: Vec<(Statement, QueryPlan)> = scans(filtered.clone()).to_vec();
    runs.push((Statement::JoinTree(tree.clone()), tree_plan()));
    for func in [AggFunc::Count, AggFunc::Sum] {
        runs.extend(scans(filtered.clone().aggregate_fn(1, 2, func)));
    }
    for func in [AggFunc::Count, AggFunc::Sum] {
        let agg = Statement::JoinTree(tree.clone().aggregate_fn(1, 0, func));
        runs.push((agg, tree_plan()));
    }
    runs.iter()
        .map(|(stmt, plan)| {
            db.store().cold_reset();
            let io = db.execute_planned(stmt, plan, &opts).unwrap().stats.io;
            (io.block_reads, io.seeks)
        })
        .collect()
}

/// The seeks and reads `paper_ms_per_stmt` is priced from, pinned: a
/// change in who is charged for a read, or in what counts as a seek,
/// moves these numbers.
///
/// Serially, multi-block columns show sequential runs (far fewer seeks
/// than reads). At four workers every column is one block: which worker
/// fills a block, and so whether a stolen granule continues a worker's
/// stream, depends on the schedule, but a one-block column is one read
/// and one seek under any schedule, charged to the statement whichever
/// worker filled it.
#[test]
fn cold_reads_and_seeks_are_pinned() {
    // Per statement group of `cold_io`: the scan under each strategy and
    // the tree; COUNT under each strategy, where late materialization
    // never reads `w`; SUM under each strategy; the tree's COUNT and SUM.
    let pinned = |groups: [&[(u64, u64)]; 4]| groups.concat();
    assert_eq!(
        cold_io(200_000, 64 * 1024, 1),
        pinned([
            &[(25, 5), (27, 3), (25, 5), (25, 5), (20, 5)],
            &[(14, 2), (14, 2), (7, 1), (7, 1)],
            &[(14, 2); 4],
            &[(13, 4), (20, 5)],
        ])
    );
    for threads in [1, 4] {
        assert_eq!(
            cold_io(6_000, 256, threads),
            pinned([
                &[(3, 3), (3, 3), (3, 3), (3, 3), (5, 5)],
                &[(2, 2), (2, 2), (1, 1), (1, 1)],
                &[(2, 2); 4],
                &[(4, 4), (5, 5)],
            ]),
            "threads={threads}"
        );
    }
}
