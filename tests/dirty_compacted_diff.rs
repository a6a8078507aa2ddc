//! Differential battery for the write store's tail blocks: a query over
//! a dirty table (file blocks + a delta read as in-memory Plain tail
//! blocks) returns exactly the bytes the same query returns once the
//! table is compacted, at threads {1, 4}.
//!
//! Coverage: every strategy × {Plain, RLE, BitVec, Dict} for selections
//! and GROUP BY, a one-edge join under all three inner strategies, a
//! snowflake keyed *through* a dirty table, and an aggregate over a
//! star. Each fact table's delta holds more than one tail block's worth
//! of inserts (8 190 values per block), and deletes sit on the last base
//! row, the first inserted row and both sides of the tail-block
//! boundary. The dimension the fact tables join is loaded empty, so its
//! every row lives in the tail.
//!
//! The tail is in memory: cold `block_reads`, `seeks` and pool misses of
//! every query over a dirty table equal those over a twin loaded with
//! the same base and never written.

use matstrat::common::TableId;
use matstrat::core::AggFunc;
use matstrat::prelude::*;
use matstrat::storage::PlainBlock;

const THREADS: [usize; 2] = [1, 4];
const ENCODINGS: [EncodingKind; 4] = [
    EncodingKind::Plain,
    EncodingKind::Rle,
    EncodingKind::BitVec,
    EncodingKind::Dict,
];
const BASE_ROWS: i64 = 6000;
const GRANULE: u64 = 128;

/// Rows per tail block.
fn tail_block_rows() -> i64 {
    PlainBlock::capacity(matstrat::common::Width::W8) as i64
}

/// Fact row `i`: a (sorted), b (the encoding under test), c (unique
/// payload), k (key into `dim`), d (key into `date`).
fn fact_row(i: i64) -> Vec<Value> {
    vec![i / 64, (i * 7) % 8, i, (i * 13) % 50, i % 10]
}

/// Inserted fact row `i`: keys past `dim`'s first fifty, and one `b`
/// value outside the base domain so GROUP BY domains widen.
fn fact_insert(i: i64) -> Vec<Value> {
    let b = if i % 97 == 0 { 11 } else { (i * 5) % 8 };
    vec![
        BASE_ROWS / 64 + i / 64,
        b,
        100_000 + i,
        i % 55,
        (i * 3) % 12,
    ]
}

fn load(db: &Database, spec: ProjectionSpec, rows: &[Vec<Value>], width: usize) -> TableId {
    let cols: Vec<Vec<Value>> = (0..width)
        .map(|c| rows.iter().map(|r| r[c]).collect())
        .collect();
    let refs: Vec<&[Value]> = cols.iter().map(Vec::as_slice).collect();
    db.load_projection(&spec, &refs).unwrap()
}

fn fact_spec(name: &str, enc: EncodingKind) -> ProjectionSpec {
    ProjectionSpec::new(name)
        .column("a", EncodingKind::Rle, SortOrder::Primary)
        .column("b", enc, SortOrder::None)
        .column("c", EncodingKind::Plain, SortOrder::None)
        .column("k", EncodingKind::Plain, SortOrder::None)
        .column("d", EncodingKind::Plain, SortOrder::None)
}

fn two_col_spec(name: &str) -> ProjectionSpec {
    ProjectionSpec::new(name)
        .column("key", EncodingKind::Plain, SortOrder::Primary)
        .column("x", EncodingKind::Plain, SortOrder::None)
        .column("r", EncodingKind::Plain, SortOrder::None)
}

/// Two fact tables loaded with the same base; the first then gets two
/// tail blocks of inserts and the deletes, the second is never written.
/// Returns `(dirty, clean)`.
fn fact_pair(db: &Database, enc: EncodingKind) -> (TableId, TableId) {
    let base: Vec<Vec<Value>> = (0..BASE_ROWS).map(fact_row).collect();
    let dirty = load(db, fact_spec(&format!("dirty_{enc:?}"), enc), &base, 5);
    let clean = load(db, fact_spec(&format!("clean_{enc:?}"), enc), &base, 5);
    let inserts: Vec<Vec<Value>> = (0..tail_block_rows() + 1500).map(fact_insert).collect();
    db.insert(dirty, &inserts).unwrap();
    let (base, block) = (BASE_ROWS as u64, tail_block_rows() as u64);
    let doomed = [
        base - 1,
        base,
        base + block - 1,
        base + block,
        17,
        base + 333,
    ];
    assert_eq!(
        db.store().delete_positions(dirty, &doomed).unwrap(),
        doomed.len() as u64
    );
    (dirty, clean)
}

/// A cold run's result bytes and I/O: `None` for a combination the
/// engine does not support (which must then be unsupported everywhere).
type Run = Option<(Vec<String>, Vec<Value>, u64, u64, u64)>;

fn cold_run(db: &Database, stmt: &Statement, plan: &QueryPlan, threads: usize) -> Run {
    db.store().cold_reset();
    let misses = db.store().pool().stats().misses;
    let opts = ExecOptions {
        granule: GRANULE,
        parallelism: threads,
        ..ExecOptions::default()
    };
    match db.execute_planned(stmt, plan, &opts) {
        Ok(out) => Some((
            out.rows.column_names.clone(),
            out.rows.flat().to_vec(),
            out.stats.io.block_reads,
            out.stats.io.seeks,
            db.store().pool().stats().misses - misses,
        )),
        Err(e) => panic!("{plan:?} threads={threads}: {e}"),
    }
}

/// One query, over the dirty table and over its never-written twin.
struct Case {
    label: String,
    dirty: Statement,
    clean: Statement,
    plan: QueryPlan,
}

impl Case {
    fn new(
        label: String,
        build: impl Fn(TableId) -> Statement,
        t: (TableId, TableId),
        plan: QueryPlan,
    ) -> Case {
        Case {
            label,
            dirty: build(t.0),
            clean: build(t.1),
            plan,
        }
    }
}

/// A scan over whichever table it is handed.
type ScanQuery = fn(TableId) -> QuerySpec;

fn scan_cases(db: &Database) -> Vec<Case> {
    let mut cases = Vec::new();
    for enc in ENCODINGS {
        let pair = fact_pair(db, enc);
        let queries: [(&str, ScanQuery); 4] = [
            ("select", |t| {
                QuerySpec::select(t, vec![0, 1, 2])
                    .filter(0, Predicate::lt(BASE_ROWS / 64 + 60))
                    .filter(1, Predicate::ge(3))
            }),
            ("select-all", |t| QuerySpec::select(t, vec![1, 2])),
            ("group-sum", |t| {
                QuerySpec::select(t, vec![])
                    .filter(2, Predicate::ge(50))
                    .aggregate_sum(1, 2)
            }),
            ("group-max-over-rle", |t| {
                QuerySpec::select(t, vec![]).aggregate_fn(1, 0, AggFunc::Max)
            }),
        ];
        for (name, q) in queries {
            for s in Strategy::ALL {
                cases.push(Case::new(
                    format!("{name} {enc:?} {s}"),
                    |t| Statement::Select(q(t)),
                    pair,
                    QueryPlan::forced_scan(s),
                ));
            }
        }
        // One edge: fact ⋈ dim (every dim row is a tail row), filtered
        // on the column under test.
        let dim = db.store().projection_by_name("dim").unwrap().id;
        for inner in InnerStrategy::ALL {
            cases.push(Case::new(
                format!("join {enc:?} {inner:?}"),
                |t| {
                    Statement::JoinTree(JoinTreeSpec::new(vec![JoinSpec {
                        left: t,
                        right: dim,
                        left_key: 3,
                        right_key: 0,
                        left_filter: Some((1, Predicate::lt(4))),
                        right_filter: None,
                        left_output: vec![2],
                        right_output: vec![1, 2],
                    }]))
                },
                pair,
                QueryPlan::forced_tree(vec![0], vec![inner]),
            ));
        }
    }
    cases
}

/// Star and snowflake trees over the first (Plain) fact pair.
fn tree_cases(db: &Database, pair: (TableId, TableId)) -> Vec<Case> {
    let dim = db.store().projection_by_name("dim").unwrap().id;
    let date = db.store().projection_by_name("date").unwrap().id;
    let sub = db.store().projection_by_name("sub").unwrap().id;
    let edge = |left, right, left_key, right_output| JoinSpec {
        left,
        right,
        left_key,
        right_key: 0,
        left_filter: None,
        right_filter: None,
        left_output: vec![],
        right_output,
    };
    let star = move |t: TableId| {
        let mut fact_edge = edge(t, dim, 3, vec![2]);
        fact_edge.left_filter = Some((2, Predicate::ge(100)));
        fact_edge.left_output = vec![2];
        vec![fact_edge, edge(t, date, 4, vec![1])]
    };
    let mut cases = Vec::new();
    for inner in InnerStrategy::ALL {
        // Snowflake: fact ⋈ dim ⋈ sub, keyed through dim.r — a table
        // whose rows all live in the tail.
        cases.push(Case::new(
            format!("snowflake {inner:?}"),
            move |t| {
                let mut edges = star(t);
                edges[1] = edge(dim, sub, 2, vec![1]);
                Statement::JoinTree(JoinTreeSpec::new(edges))
            },
            pair,
            QueryPlan::forced_tree(vec![0, 1], vec![inner; 2]),
        ));
        // Aggregate over the star: SUM(fact.c) GROUP BY dim.r.
        for func in [AggFunc::Sum, AggFunc::Count] {
            cases.push(Case::new(
                format!("star {func:?} {inner:?}"),
                move |t| Statement::JoinTree(JoinTreeSpec::new(star(t)).aggregate_fn(1, 0, func)),
                pair,
                QueryPlan::forced_tree(vec![0, 1], vec![inner; 2]),
            ));
        }
    }
    cases
}

/// The dimensions: `dim` loaded empty and filled by inserts, `date` and
/// `sub` small bases with a few writes each.
fn load_dimensions(db: &Database) {
    let dim = load(db, two_col_spec("dim"), &[], 3);
    let rows: Vec<Vec<Value>> = (0..55).map(|k| vec![k, k * 3 + 1, k % 6]).collect();
    db.insert(dim, &rows).unwrap();
    db.store().delete_positions(dim, &[7, 54]).unwrap();

    let base: Vec<Vec<Value>> = (0..10).map(|k| vec![k, 100 + k, k % 3]).collect();
    let date = load(db, two_col_spec("date"), &base, 3);
    db.insert(date, &[vec![10, 110, 1], vec![11, 111, 2]])
        .unwrap();
    db.store().delete_positions(date, &[3]).unwrap();

    let base: Vec<Vec<Value>> = (0..5).map(|k| vec![k, 900 + k, 0]).collect();
    let sub = load(db, two_col_spec("sub"), &base, 3);
    db.insert(sub, &[vec![5, 905, 0]]).unwrap();
    db.store().delete_positions(sub, &[0]).unwrap();
}

/// Every case at every thread count: byte-identical across threads, and
/// with exactly the clean twin's cold I/O. Returns the serial run.
fn run_dirty(db: &Database, cases: &[Case]) -> Vec<Run> {
    cases
        .iter()
        .map(|c| {
            let runs: Vec<(Run, Run)> = THREADS
                .iter()
                .map(|&n| {
                    (
                        cold_run(db, &c.dirty, &c.plan, n),
                        cold_run(db, &c.clean, &c.plan, n),
                    )
                })
                .collect();
            for (threads, (dirty, clean)) in THREADS.iter().zip(&runs) {
                let (Some(d), Some(cl)) = (dirty, clean) else {
                    assert!(
                        runs.iter().all(|(d, cl)| d.is_none() && cl.is_none()),
                        "{}: supportedness changed",
                        c.label
                    );
                    continue;
                };
                let serial = runs[0].0.as_ref().unwrap();
                assert_eq!(
                    (&d.0, &d.1),
                    (&serial.0, &serial.1),
                    "{} threads={threads}",
                    c.label
                );
                assert_eq!(d.2, cl.2, "{} threads={threads}: cold block_reads", c.label);
                assert_eq!(d.4, cl.4, "{} threads={threads}: pool misses", c.label);
                if *threads == 1 {
                    // Seeks are per (file, worker): only the serial
                    // schedule is fixed.
                    assert_eq!(d.3, cl.3, "{}: cold seeks", c.label);
                }
            }
            runs.into_iter().next().unwrap().0
        })
        .collect()
}

#[test]
fn dirty_tables_match_their_compacted_selves() {
    let db = Database::in_memory();
    load_dimensions(&db);
    let mut cases = scan_cases(&db);
    let plain = {
        let p = |n: &str| db.store().projection_by_name(n).unwrap().id;
        (p("dirty_Plain"), p("clean_Plain"))
    };
    cases.extend(tree_cases(&db, plain));

    // Two tail blocks on every fact table, and a dimension that is all
    // tail.
    let (info, delta) = db.store().scan_snapshot(plain.0).unwrap();
    let reader = db.store().reader_for(&info, delta.as_ref(), 2).unwrap();
    let file_blocks = db.store().reader(plain.0, 2).unwrap().num_blocks();
    assert_eq!(reader.num_blocks(), file_blocks + 2);
    assert_eq!(db.store().projection_by_name("dim").unwrap().num_rows, 0);

    let dirty = run_dirty(&db, &cases);
    let empties = dirty
        .iter()
        .filter(|r| r.as_ref().is_some_and(|r| r.1.is_empty()))
        .count();
    assert_eq!(empties, 0, "every supported case returns rows");

    assert_eq!(db.compact_all().unwrap(), 3 + ENCODINGS.len());
    for (c, want) in cases.iter().zip(&dirty) {
        for threads in THREADS {
            let got = cold_run(&db, &c.dirty, &c.plan, threads);
            assert_eq!(
                got.as_ref().map(|g| (&g.0, &g.1)),
                want.as_ref().map(|w| (&w.0, &w.1)),
                "{} threads={threads}: dirty vs compacted",
                c.label
            );
        }
    }
}
