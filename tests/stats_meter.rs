//! `QueryStats`/`IoStats` plumbing: the paper's headline effect must be
//! visible in the meter, not just in wall time.
//!
//! On a selective predicate, LM-parallel fetches the no-predicate output
//! column only at surviving positions (clustered by the sort order), while
//! EM-parallel's SPC leaf reads every block of every accessed column. If
//! the simulated-disk meter silently breaks — stops counting, double
//! counts, or loses the cold reset — this asymmetry disappears and these
//! assertions fail.

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
