//! Granule-parallel execution: the worker knob, the `MATSTRAT_THREADS`
//! environment default, and the determinism guarantee.
//!
//! ```text
//! cargo run --release --example parallel_scan
//! MATSTRAT_THREADS=4 cargo run --release --example parallel_scan
//! MATSTRAT_POOL_SHARDS=8 cargo run --release --example parallel_scan
//! ```
//!
//! The buffer pool's stripe count is fixed when the store is built, from
//! `MATSTRAT_POOL_SHARDS` or else `MATSTRAT_THREADS`; `set_parallelism`
//! does not widen it. Unless one of the two is set, the 8-worker row runs
//! over a single-stripe pool, so its timing includes lookup contention.

use matstrat::prelude::*;

fn main() -> Result<()> {
    // 1. A projection big enough that the default 64 Ki granule yields
    //    eight granules — the units the workers divide among themselves.
    let mut db = Database::in_memory();
    let n = 512 * 1024i64;
    let region: Vec<Value> = (0..n).map(|i| i / (n / 16)).collect();
    let amount: Vec<Value> = (0..n).map(|i| (i * 7919) % 1000).collect();
    let spec = ProjectionSpec::new("sales")
        .column("region", EncodingKind::Rle, SortOrder::Primary)
        .column("amount", EncodingKind::Plain, SortOrder::None);
    let table = db.load_projection(&spec, &[&region, &amount])?;

    let query = QuerySpec::select(table, vec![0, 1])
        .filter(0, Predicate::lt(14))
        .filter(1, Predicate::lt(900));

    println!(
        "process default: {} worker(s) (MATSTRAT_THREADS; 0 = all cores)\n",
        default_parallelism()
    );
    println!("SELECT region, amount FROM sales WHERE region < 14 AND amount < 900;\n");

    // 2. The same query at increasing worker counts. The result is
    //    byte-identical every time — parallelism is a performance knob,
    //    never a semantics knob — and on a multi-core machine wall time
    //    drops with the worker count (on one core it simply flattens).
    let mut reference: Option<QueryResult> = None;
    println!(
        "{:>8} {:>12} {:>12} {:>8}",
        "workers", "rows", "wall (µs)", "blocks"
    );
    for workers in [1usize, 2, 4, 8] {
        db.set_parallelism(workers);
        db.store().cold_reset();
        let out = db.execute_planned(
            &Statement::Select(query.clone()),
            &QueryPlan::forced_scan(Strategy::LmParallel),
            &db.exec_options(),
        )?;
        let (result, stats) = (out.rows, out.stats);
        println!(
            "{workers:>8} {:>12} {:>12} {:>8}",
            stats.rows_out,
            stats.wall.as_micros(),
            stats.io.block_reads
        );
        match &reference {
            None => reference = Some(result),
            Some(r) => assert_eq!(
                r.flat(),
                result.flat(),
                "parallel result must be byte-identical to serial"
            ),
        }
    }

    // 3. The planner prices plans for the configured worker count: CPU
    //    terms divide across workers, the shared cold-I/O term does not.
    db.set_parallelism(4);
    let choice = db.plan(&Statement::Select(query))?;
    println!("\nplanner at 4 workers: {}", choice.describe());

    println!("\nall worker counts returned the same bytes — determinism holds.");
    Ok(())
}
