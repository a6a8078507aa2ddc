//! Quickstart: load a projection, run one query under all four
//! materialization strategies, and peek at the multi-column machinery.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use matstrat::prelude::*;

fn main() -> Result<()> {
    // 1. An in-memory column store with one projection of three columns:
    //    `region` (sorted, run-length encoded), `status` (7 distinct
    //    values, bit-vector encoded), `amount` (uncompressed).
    let db = Database::in_memory();
    let n = 100_000i64;
    let region: Vec<Value> = (0..n).map(|i| i / (n / 8)).collect();
    let status: Vec<Value> = (0..n).map(|i| (i * 31) % 7).collect();
    let amount: Vec<Value> = (0..n).map(|i| (i * 17) % 1000).collect();
    let spec = ProjectionSpec::new("sales")
        .column("region", EncodingKind::Rle, SortOrder::Primary)
        .column("status", EncodingKind::BitVec, SortOrder::None)
        .column("amount", EncodingKind::Plain, SortOrder::None);
    let table = db.load_projection(&spec, &[&region, &status, &amount])?;
    println!("loaded projection 'sales': {n} rows, 3 columns\n");

    // 2. SELECT region, amount FROM sales
    //    WHERE region < 3 AND status < 2
    let stmt = Statement::Select(
        QuerySpec::select(table, vec![0, 2])
            .filter(0, Predicate::lt(3))
            .filter(1, Predicate::lt(2)),
    );

    println!("SELECT region, amount FROM sales WHERE region < 3 AND status < 2;\n");
    println!(
        "{:>14} {:>10} {:>12} {:>9} {:>8}",
        "strategy", "rows", "wall (µs)", "blocks", "seeks"
    );
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for strategy in Strategy::ALL {
        db.store().cold_reset();
        let plan = QueryPlan::forced_scan(strategy);
        let out = db.execute_planned(&stmt, &plan, &db.exec_options())?;
        println!(
            "{:>14} {:>10} {:>12} {:>9} {:>8}",
            strategy.name(),
            out.rows.num_rows(),
            out.stats.wall.as_micros(),
            out.stats.io.block_reads,
            out.stats.io.seeks,
        );
        // Every strategy must return the same tuples.
        let rows = out.rows.sorted_rows();
        match &reference {
            Some(r) => assert_eq!(r, &rows, "strategies disagree!"),
            None => reference = Some(rows),
        }
    }

    // 3. The same query, aggregated: GROUP BY region, SUM(amount).
    let agg = Statement::Select(
        QuerySpec::select(table, vec![])
            .filter(1, Predicate::lt(2))
            .aggregate_sum(0, 2),
    );
    let out = db.execute(&agg)?;
    println!("\nGROUP BY region, SUM(amount) WHERE status < 2");
    println!("planner chose: {}", out.choice.describe());
    for row in out.rows.rows().take(4) {
        println!("  region {:>2} → sum {:>10}", row[0], row[1]);
    }
    println!("  ... ({} groups)", out.rows.num_rows());

    // 4. A peek at late materialization's working state: one multi-column
    //    granule (Figure 9 of the paper).
    let reader = db.store().reader(table, 0)?;
    let mini = MiniColumn::fetch(&reader, PosRange::new(0, 64))?;
    let positions = mini.scan_positions(&Predicate::eq(0));
    println!("\nmulti-column granule over positions [0, 64):");
    println!("  mini-column blocks : {}", mini.blocks().len());
    println!(
        "  position descriptor: {:?} with {} valid positions",
        positions.repr(),
        positions.count()
    );
    Ok(())
}
