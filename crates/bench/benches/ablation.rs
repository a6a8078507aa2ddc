//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * the §3.6 **multi-column optimization** (re-use of mini-columns at
//!   DS3 re-access) on vs. off;
//! * the **position-list representation** forced to ranges, bitmaps, or
//!   explicit lists (vs. the per-codec default);
//! * the pipeline **granule size**;
//! * **run-based vs. tuple-based aggregation** (operate-on-compressed-
//!   data, §4.2).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use matstrat_common::{PosRange, Predicate, Value};
use matstrat_core::ops::agg::{aggregate_runs, Aggregator};
use matstrat_core::MiniColumn;
use matstrat_core::{AggFunc, Database, ExecOptions, QueryPlan, QuerySpec, Statement, Strategy};
use matstrat_storage::EncodingKind;

use matstrat_bench::Harness;

fn bench_multicolumn_reuse(c: &mut Criterion) {
    let h = Harness::new(0.01).expect("harness");
    let table = h.table(EncodingKind::Rle);
    let stmt = Statement::Select(h.selection_query(table, 0.5));
    let plan = QueryPlan::forced_scan(Strategy::LmParallel);
    let mut g = c.benchmark_group("ablation_multicolumn_reuse");
    for (name, reuse) in [("on", true), ("off", false)] {
        let opts = ExecOptions {
            multicolumn_reuse: reuse,
            ..ExecOptions::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(name), &stmt, |b, stmt| {
            b.iter(|| black_box(h.db.execute_planned(stmt, &plan, &opts).unwrap().rows).num_rows())
        });
    }
    g.finish();
}

fn bench_position_representation(c: &mut Criterion) {
    use matstrat_poslist::Repr;
    let h = Harness::new(0.01).expect("harness");
    let table = h.table(EncodingKind::Rle);
    let stmt = Statement::Select(h.selection_query(table, 0.5));
    let plan = QueryPlan::forced_scan(Strategy::LmParallel);
    let mut g = c.benchmark_group("ablation_poslist_repr");
    for (name, repr) in [
        ("default", None),
        ("ranges", Some(Repr::Ranges)),
        ("bitmap", Some(Repr::Bitmap)),
        ("explicit", Some(Repr::Explicit)),
    ] {
        let opts = ExecOptions {
            force_repr: repr,
            ..ExecOptions::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(name), &stmt, |b, stmt| {
            b.iter(|| black_box(h.db.execute_planned(stmt, &plan, &opts).unwrap().rows).num_rows())
        });
    }
    g.finish();
}

fn bench_granule_size(c: &mut Criterion) {
    let h = Harness::new(0.01).expect("harness");
    let table = h.table(EncodingKind::Rle);
    let stmt = Statement::Select(h.selection_query(table, 0.5));
    let plan = QueryPlan::forced_scan(Strategy::LmParallel);
    let mut g = c.benchmark_group("ablation_granule");
    for shift in [12u32, 14, 16, 18] {
        let opts = ExecOptions {
            granule: 1 << shift,
            ..ExecOptions::default()
        };
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("2^{shift}")),
            &stmt,
            |b, stmt| {
                b.iter(|| {
                    black_box(h.db.execute_planned(stmt, &plan, &opts).unwrap().rows).num_rows()
                })
            },
        );
    }
    g.finish();
}

fn bench_run_vs_tuple_aggregation(c: &mut Criterion) {
    // Long-run group column: run-based aggregation should win big.
    let n = 500_000usize;
    let group: Vec<Value> = (0..n).map(|i| (i / 1000) as Value).collect();
    let vals: Vec<Value> = (0..n).map(|i| (i % 100) as Value).collect();
    let db = Database::in_memory();
    let spec = matstrat_storage::ProjectionSpec::new("t")
        .column("g", EncodingKind::Rle, matstrat_storage::SortOrder::Primary)
        .column("v", EncodingKind::Plain, matstrat_storage::SortOrder::None);
    let id = db.load_projection(&spec, &[&group, &vals]).unwrap();
    let rg = db.store().reader(id, 0).unwrap();
    let rv = db.store().reader(id, 1).unwrap();
    let window = PosRange::new(0, n as u64);
    let mg = MiniColumn::fetch(&rg, window).unwrap();
    let mv = MiniColumn::fetch(&rv, window).unwrap();
    let desc = mv.scan_positions(&Predicate::lt(90)); // 90 % survive
    let mut fetched = Vec::new();
    mv.fetch_values(&desc, &mut fetched).unwrap();
    let group_lookup = group.clone();

    let mut g = c.benchmark_group("ablation_aggregation_input");
    g.bench_function("run_based_lm", |b| {
        b.iter(|| {
            let mut agg = Aggregator::with_domain_fn(AggFunc::Sum, 0, (n / 1000) as Value);
            aggregate_runs(&desc, &mg, &fetched, &mut agg).unwrap();
            black_box(agg.num_groups())
        })
    });
    g.bench_function("tuple_based_em", |b| {
        b.iter(|| {
            let mut agg = Aggregator::with_domain_fn(AggFunc::Sum, 0, (n / 1000) as Value);
            for (i, p) in desc.iter().enumerate() {
                agg.add(group_lookup[p as usize], fetched[i]);
            }
            black_box(agg.num_groups())
        })
    });
    g.finish();

    // End-to-end: Figure 12's LM flattening, as one criterion comparison.
    let mut g = c.benchmark_group("ablation_agg_end_to_end");
    let stmt = Statement::Select(
        QuerySpec::select(id, vec![])
            .filter(1, Predicate::lt(90))
            .aggregate_sum(0, 1),
    );
    for s in [Strategy::LmParallel, Strategy::EmParallel] {
        let plan = QueryPlan::forced_scan(s);
        let opts = db.exec_options();
        g.bench_with_input(BenchmarkId::from_parameter(s.name()), &stmt, |b, stmt| {
            b.iter(|| black_box(db.execute_planned(stmt, &plan, &opts).unwrap().rows).num_rows())
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_multicolumn_reuse,
        bench_position_representation,
        bench_granule_size,
        bench_run_vs_tuple_aggregation
}
criterion_main!(benches);
