//! A warehouse reporting workload over TPC-H-style lineitem data — the
//! read-mostly, aggregation-heavy setting the paper's introduction
//! motivates. The planner picks a materialization strategy per query
//! from the analytical model.
//!
//! ```text
//! cargo run --release --example warehouse_report
//! ```

use matstrat::core::AggFunc;
use matstrat::prelude::*;
use matstrat::tpch::lineitem::cols;

fn main() -> Result<()> {
    let cfg = TpchConfig {
        scale: 0.02,
        ..TpchConfig::default()
    };
    println!("generating lineitem at scale {} ...", cfg.scale);
    let data = LineitemGen::new(cfg).generate();
    let db = Database::in_memory();
    let table = data.load(&db, "lineitem", EncodingKind::Rle)?;
    println!("loaded {} rows\n", data.num_rows());

    // Report 1: shipped volume per day for the first quarter of the
    // domain (selective range + aggregation → late materialization).
    let q1_cutoff = data.shipdate_cutoff(0.25);
    let stmt = Statement::Select(
        QuerySpec::select(table, vec![])
            .filter(cols::SHIPDATE, Predicate::lt(q1_cutoff))
            .aggregate_sum(cols::SHIPDATE, cols::QUANTITY),
    );
    let out = db.execute(&stmt)?;
    println!("Report 1 — SUM(quantity) GROUP BY shipdate, shipdate < {q1_cutoff}");
    println!("  {}", out.choice.describe());
    println!("  {} ship-days; first 3:", out.rows.num_rows());
    for row in out.rows.rows().take(3) {
        println!("    day {:>5} → {:>7} units", row[0], row[1]);
    }

    // Report 2: how many line items per linenumber — COUNT lets late
    // materialization skip the value column entirely.
    let stmt = Statement::Select(QuerySpec::select(table, vec![]).aggregate_fn(
        cols::LINENUM,
        cols::QUANTITY,
        AggFunc::Count,
    ));
    let out = db.execute_planned(
        &stmt,
        &QueryPlan::forced_scan(Strategy::LmParallel),
        &db.exec_options(),
    )?;
    println!("\nReport 2 — COUNT(*) GROUP BY linenum (LM-parallel)");
    for row in out.rows.rows() {
        let bar = "#".repeat((row[1] * 40 / data.num_rows() as i64).max(1) as usize);
        println!("    linenum {} │{bar} {}", row[0], row[1]);
    }

    // Report 3: largest single shipment per return flag.
    let stmt = Statement::Select(QuerySpec::select(table, vec![]).aggregate_fn(
        cols::RETURNFLAG,
        cols::QUANTITY,
        AggFunc::Max,
    ));
    let out = db.execute_planned(
        &stmt,
        &QueryPlan::forced_scan(Strategy::LmParallel),
        &db.exec_options(),
    )?;
    println!("\nReport 3 — MAX(quantity) GROUP BY returnflag");
    let flags = ["A", "N", "R"];
    for row in out.rows.rows() {
        println!("    {} → {}", flags[row[0] as usize], row[1]);
    }

    // Report 4: a wide low-selectivity selection — where early
    // materialization's single pass competes hardest with late
    // materialization's per-column fetches; the model prices all four.
    let stmt = Statement::Select(
        QuerySpec::select(table, vec![cols::SHIPDATE, cols::LINENUM, cols::QUANTITY])
            .filter(cols::QUANTITY, Predicate::ge(2)),
    );
    println!("\nReport 4 — wide scan, quantity >= 2 (96 % selectivity)");
    let out = db.execute(&stmt)?;
    println!("  planner: {}", out.choice.describe());
    println!("  {} rows materialized", out.rows.num_rows());

    // Cross-check the planner's pick against all strategies.
    println!("\n  measured (for reference):");
    for s in Strategy::ALL {
        db.store().cold_reset();
        let out = db.execute_planned(&stmt, &QueryPlan::forced_scan(s), &db.exec_options())?;
        println!(
            "    {:>14}: {:>8.2} ms wall, {} block reads",
            s.name(),
            out.stats.wall.as_secs_f64() * 1e3,
            out.stats.io.block_reads
        );
    }
    Ok(())
}
