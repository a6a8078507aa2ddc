//! Differential battery for MERGE where it really fans out.
//!
//! A read statement ends in one MERGE that writes every output value
//! once into its slot of an exact-size result, each part of the output
//! (one per granule, one per probed span in a join) into a disjoint
//! slice, on up to one worker per granule of output rows. Here the
//! granule is 1 000 rows and every selection and join returns several
//! granules of rows spread over many parts, so at threads {2, 4, 8} MERGE
//! splits its work across workers; at threads 1 it runs whole on the
//! caller, the serial oracle.
//!
//! Coverage: all four strategies × {Plain, RLE, BitVec, Dict} on the
//! column under test, for selections whose descriptors are ranges,
//! one-row ranges and bitmaps, and a one-edge join under all three inner
//! strategies. Every fact table has inserted rows (tail blocks after its
//! file blocks) and deletes on both sides of part boundaries and of the
//! base/tail boundary. Every run is byte-identical to the serial run, the
//! selections equal a row-level oracle, and cold `(block_reads, seeks)`
//! equal the values pinned from the executor before MERGE ran once per
//! statement (seeks serially only: at more workers they depend on which
//! worker steals which granule).
//!
//! A join part is cut between rows, so MERGE shares a join's rows
//! equally among its workers: a two-edge star whose second edge fans out,
//! and a one-span join whose fan-out makes several granules of rows out
//! of one part, hold the same bytes and cold `block_reads` at every
//! thread count.

use matstrat::common::TableId;
use matstrat::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const ENCODINGS: [EncodingKind; 4] = [
    EncodingKind::Plain,
    EncodingKind::Rle,
    EncodingKind::BitVec,
    EncodingKind::Dict,
];
const GRANULE: u64 = 1000;
const BASE_ROWS: i64 = 12_000;
const INSERTS: i64 = 2_500;
/// Deleted positions: both sides of two part boundaries, and of the
/// boundary between the file's rows and the inserted ones.
const DELETES: [u64; 6] = [999, 1000, 5999, 6000, 11_999, 12_000];

/// Row `i`: a (sorted, RLE), b (the encoding under test), c (unique
/// 8-byte payload, two file blocks), k (key into `dim`).
fn row(i: i64) -> Vec<Value> {
    vec![i / 40, (i * 7) % 5, i * 1_000_003, (i * 13) % 40]
}

fn fact(db: &Database, enc: EncodingKind) -> TableId {
    let spec = ProjectionSpec::new(format!("fact_{enc:?}"))
        .column("a", EncodingKind::Rle, SortOrder::Primary)
        .column("b", enc, SortOrder::None)
        .column("c", EncodingKind::Plain, SortOrder::None)
        .column("k", EncodingKind::Plain, SortOrder::None);
    let cols: Vec<Vec<Value>> = (0..4)
        .map(|c| (0..BASE_ROWS).map(|i| row(i)[c]).collect())
        .collect();
    let refs: Vec<&[Value]> = cols.iter().map(Vec::as_slice).collect();
    let t = db.load_projection(&spec, &refs).unwrap();
    let inserts: Vec<Vec<Value>> = (BASE_ROWS..BASE_ROWS + INSERTS).map(row).collect();
    db.insert(t, &inserts).unwrap();
    assert_eq!(
        db.store().delete_positions(t, &DELETES).unwrap(),
        DELETES.len() as u64
    );
    t
}

fn dim(db: &Database) -> TableId {
    let key: Vec<Value> = (0..40).collect();
    let x: Vec<Value> = (0..40).map(|k| k * 3 + 1).collect();
    let spec = ProjectionSpec::new("dim")
        .column("key", EncodingKind::Plain, SortOrder::Primary)
        .column("x", EncodingKind::Plain, SortOrder::None);
    db.load_projection(&spec, &[&key, &x]).unwrap()
}

/// The live logical rows, in position order.
fn live_rows() -> Vec<Vec<Value>> {
    (0..BASE_ROWS + INSERTS)
        .filter(|&p| !DELETES.contains(&(p as u64)))
        .map(row)
        .collect()
}

/// One statement and the rows it must return, when a row oracle is
/// simple to state.
struct Case {
    label: String,
    stmt: Statement,
    plan: QueryPlan,
    want: Option<Vec<Value>>,
}

fn cases(db: &Database) -> Vec<Case> {
    let dim = dim(db);
    let mut out = Vec::new();
    for enc in ENCODINGS {
        let t = fact(db, enc);
        // (name, query, row filter, output columns)
        type Oracle = fn(&[Value]) -> bool;
        let selects: [(&str, QuerySpec, Oracle, Vec<usize>); 3] = [
            (
                "ranges",
                QuerySpec::select(t, vec![0, 1, 2])
                    .filter(1, Predicate::lt(4))
                    .filter(0, Predicate::lt(150)),
                |r| r[1] < 4 && r[0] < 150,
                vec![0, 1, 2],
            ),
            (
                "points",
                QuerySpec::select(t, vec![2, 1]).filter(1, Predicate::eq(2)),
                |r| r[1] == 2,
                vec![2, 1],
            ),
            (
                "all",
                QuerySpec::select(t, vec![1, 2]),
                |_| true,
                vec![1, 2],
            ),
        ];
        for (name, q, keep, cols) in selects {
            let want: Vec<Value> = live_rows()
                .iter()
                .filter(|r| keep(r))
                .flat_map(|r| cols.iter().map(|&c| r[c]).collect::<Vec<_>>())
                .collect();
            for s in Strategy::ALL {
                out.push(Case {
                    label: format!("{name} {enc:?} {s}"),
                    stmt: Statement::Select(q.clone()),
                    plan: QueryPlan::forced_scan(s),
                    want: Some(want.clone()),
                });
            }
        }
        for inner in InnerStrategy::ALL {
            out.push(Case {
                label: format!("join {enc:?} {inner:?}"),
                stmt: Statement::JoinTree(JoinTreeSpec::new(vec![JoinSpec {
                    left: t,
                    right: dim,
                    left_key: 3,
                    right_key: 0,
                    left_filter: Some((1, Predicate::lt(3))),
                    right_filter: None,
                    left_output: vec![2, 1],
                    right_output: vec![1],
                }])),
                plan: QueryPlan::forced_tree(vec![0], vec![inner]),
                want: None,
            });
        }
    }
    out
}

/// A cold run: result bytes, `rows_out`, `block_reads`, `seeks`.
type Run = (Vec<Value>, u64, u64, u64);

fn cold_run(db: &Database, c: &Case, threads: usize) -> Run {
    db.store().cold_reset();
    let opts = ExecOptions {
        granule: GRANULE,
        parallelism: threads,
        ..ExecOptions::default()
    };
    let out = db
        .execute_planned(&c.stmt, &c.plan, &opts)
        .unwrap_or_else(|e| panic!("{} threads={threads}: {e}", c.label));
    (
        out.rows.flat().to_vec(),
        out.stats.rows_out,
        out.stats.io.block_reads,
        out.stats.io.seeks,
    )
}

/// Cold `(block_reads, serial seeks)` per case, in `cases` order,
/// recorded from the executor that assembled results by concatenating
/// per-span fragments.
#[rustfmt::skip]
const PINNED: [(u64, u64); 60] = [
    // Plain: {ranges, points, all} × {EM-pipelined, EM-parallel,
    // LM-pipelined, LM-parallel}, then join × three inner strategies.
    (3, 3), (4, 3), (3, 3), (3, 3), (3, 2),
    (3, 2), (3, 2), (3, 2), (3, 2), (3, 2),
    (3, 2), (3, 2), (6, 5), (6, 5), (6, 5),
    // RLE
    (5, 3), (6, 3), (5, 3), (5, 3), (5, 2),
    (5, 2), (5, 2), (5, 2), (5, 2), (5, 2),
    (5, 2), (5, 2), (8, 5), (8, 5), (8, 5),
    // BitVec
    (3, 3), (4, 3), (3, 3), (3, 3), (3, 2),
    (3, 2), (3, 2), (3, 2), (3, 2), (3, 2),
    (3, 2), (3, 2), (6, 5), (6, 5), (6, 5),
    // Dict
    (3, 3), (4, 3), (3, 3), (3, 3), (3, 2),
    (3, 2), (3, 2), (3, 2), (3, 2), (3, 2),
    (3, 2), (3, 2), (6, 5), (6, 5), (6, 5),
];

#[test]
fn fanned_out_merge_is_byte_identical_with_pinned_cold_io() {
    let db = Database::in_memory();
    let cases = cases(&db);
    assert_eq!(cases.len(), PINNED.len());
    for (c, pinned) in cases.iter().zip(PINNED) {
        let serial = cold_run(&db, c, 1);
        assert_eq!(
            (serial.2, serial.3),
            pinned,
            "{}: cold (block_reads, seeks)",
            c.label
        );
        // Several granules of output rows: at ≥ 2 workers MERGE splits.
        assert!(serial.1 >= 2 * GRANULE, "{}: {} rows", c.label, serial.1);
        if let Some(want) = &c.want {
            assert_eq!(&serial.0, want, "{}: row oracle", c.label);
        }
        for threads in THREADS {
            let got = cold_run(&db, c, threads);
            assert_eq!(
                got.0, serial.0,
                "{} threads={threads}: result bytes",
                c.label
            );
            assert_eq!(got.1, serial.1, "{} threads={threads}: rows_out", c.label);
            assert_eq!(
                got.2, serial.2,
                "{} threads={threads}: cold block_reads",
                c.label
            );
        }
    }
}

/// A cold run at `granule`: result bytes, `rows_out`, `block_reads`.
fn cold_run_at(db: &Database, c: &Case, threads: usize, granule: u64) -> (Vec<Value>, u64, u64) {
    db.store().cold_reset();
    let opts = ExecOptions {
        granule,
        parallelism: threads,
        ..ExecOptions::default()
    };
    let out = db
        .execute_planned(&c.stmt, &c.plan, &opts)
        .unwrap_or_else(|e| panic!("{} threads={threads}: {e}", c.label));
    (
        out.rows.flat().to_vec(),
        out.stats.rows_out,
        out.stats.io.block_reads,
    )
}

/// A join part is cut between rows: MERGE hands each worker an equal
/// share of the rows, wherever the parts end. Two shapes, under every
/// inner strategy: a two-edge star over each encoding's fact table,
/// whose second edge fans out (repeated base positions) and whose parts
/// are many, and a join over a base table of one span whose fan-out
/// makes three granules of rows out of one part. Each run is
/// byte-identical to the serial one and to a row oracle, and its cold
/// `block_reads` equal the serial run's and the values pinned from the
/// executor that gathered every join column in step 1.
#[test]
fn join_parts_cut_at_rows_are_byte_identical_with_exact_cold_io() {
    let db = Database::in_memory();
    let dim = dim(&db);
    // `fan`: keys 0 and 2 twice, so a row with b in {0, 2} fans out.
    let fan_key: Vec<Value> = vec![0, 1, 2, 3, 4, 0, 2];
    let fan_y: Vec<Value> = (0..7).map(|j| 100 + j).collect();
    let fan = db
        .load_projection(
            &ProjectionSpec::new("fan")
                .column("key", EncodingKind::Plain, SortOrder::None)
                .column("y", EncodingKind::Plain, SortOrder::None),
            &[&fan_key, &fan_y],
        )
        .unwrap();
    // `quad`: every `dim` key four times.
    let quad_key: Vec<Value> = (0..160).map(|j| j / 4).collect();
    let quad_z: Vec<Value> = (0..160).map(|j| j * 3 + 1).collect();
    let quad = db
        .load_projection(
            &ProjectionSpec::new("quad")
                .column("key", EncodingKind::Plain, SortOrder::None)
                .column("z", EncodingKind::Plain, SortOrder::None),
            &[&quad_key, &quad_z],
        )
        .unwrap();
    // One span: no inserted rows, and a granule past the base rows.
    let one = {
        let c: Vec<Value> = (0..BASE_ROWS).map(|i| row(i)[2]).collect();
        let k: Vec<Value> = (0..BASE_ROWS).map(|i| row(i)[3]).collect();
        db.load_projection(
            &ProjectionSpec::new("one_span")
                .column("c", EncodingKind::Plain, SortOrder::None)
                .column("k", EncodingKind::Plain, SortOrder::None),
            &[&c, &k],
        )
        .unwrap()
    };
    let one_span_granule = BASE_ROWS as u64 + 1000;

    let mut cases = Vec::new();
    for enc in ENCODINGS {
        let t = fact(&db, enc);
        let star = JoinTreeSpec::new(vec![
            JoinSpec {
                left: t,
                right: dim,
                left_key: 3,
                right_key: 0,
                left_filter: Some((1, Predicate::lt(4))),
                right_filter: None,
                left_output: vec![2, 1],
                right_output: vec![1],
            },
            JoinSpec {
                left: t,
                right: fan,
                left_key: 1,
                right_key: 0,
                left_filter: None,
                right_filter: None,
                left_output: vec![],
                right_output: vec![1],
            },
        ]);
        let mut want = Vec::new();
        for r in live_rows().iter().filter(|r| r[1] < 4) {
            for (j, _) in fan_key.iter().enumerate().filter(|(_, &k)| k == r[1]) {
                want.extend([r[2], r[1], r[3] * 3 + 1, fan_y[j]]);
            }
        }
        for inner in InnerStrategy::ALL {
            cases.push((
                Case {
                    label: format!("star {enc:?} {inner:?}"),
                    stmt: Statement::JoinTree(star.clone()),
                    plan: QueryPlan::forced_tree(vec![0, 1], vec![inner; 2]),
                    want: Some(want.clone()),
                },
                GRANULE,
            ));
        }
    }
    let mut want = Vec::new();
    for i in 0..BASE_ROWS {
        let k = row(i)[3];
        want.extend((4 * k..4 * k + 4).flat_map(|j| [row(i)[2], j * 3 + 1]));
    }
    for inner in InnerStrategy::ALL {
        cases.push((
            Case {
                label: format!("one span {inner:?}"),
                stmt: Statement::JoinTree(JoinTreeSpec::new(vec![JoinSpec {
                    left: one,
                    right: quad,
                    left_key: 1,
                    right_key: 0,
                    left_filter: None,
                    right_filter: None,
                    left_output: vec![0],
                    right_output: vec![1],
                }])),
                plan: QueryPlan::forced_tree(vec![0], vec![inner]),
                want: Some(want.clone()),
            },
            one_span_granule,
        ));
    }

    // Cold `block_reads` of the serial run: the star over Plain, RLE,
    // BitVec and Dict under the three inner strategies, then the
    // one-span join under each.
    #[rustfmt::skip]
    const PINNED_READS: [u64; 15] = [
        8, 8, 8, 10, 10, 10, 8, 8, 8, 8, 8, 8,
        5, 5, 5,
    ];
    assert_eq!(cases.len(), PINNED_READS.len());
    for ((c, granule), pinned) in cases.iter().zip(PINNED_READS) {
        let serial = cold_run_at(&db, c, 1, *granule);
        assert_eq!(serial.2, pinned, "{}: cold block_reads", c.label);
        assert_eq!(Some(&serial.0), c.want.as_ref(), "{}: row oracle", c.label);
        // More than one share of rows: at ≥ 2 workers MERGE cuts parts.
        assert!(serial.1 >= 2 * granule, "{}: {} rows", c.label, serial.1);
        for threads in THREADS {
            let got = cold_run_at(&db, c, threads, *granule);
            let what = format!("{} threads={threads}", c.label);
            assert_eq!(got.0, serial.0, "{what}: result bytes");
            assert_eq!(got.1, serial.1, "{what}: rows_out");
            assert_eq!(got.2, serial.2, "{what}: cold block_reads");
        }
    }
}
