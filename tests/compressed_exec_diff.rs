//! Differential battery for the compressed-execution layer.
//!
//! The house invariant: operating on encoded representations — code-domain
//! predicates, run-granular scans and aggregates, code-keyed hash joins —
//! is an *optimization*, never a semantic. For every strategy, encoding,
//! and worker count, a query over compressed columns returns the
//! **byte-identical** result of the same query over fully decoded (Plain)
//! columns, cold `block_reads` are exact and thread-invariant, and
//! `QueryStats::code_path_ops` proves the compressed path actually ran
//! (and stayed deterministic) rather than silently falling back.
//!
//! Covered here, each against the decoded serial oracle and at threads
//! {1, 2, 4, 8}: selections and all four aggregate functions across
//! {Plain, RLE, BitVec, Dict, shared-dict} filter/payload encodings;
//! the same matrix re-run over a dirty delta (uncompacted inserts and
//! deletes, the PR 7 write path); code-keyed joins, their delta
//! fallbacks, and multi-way join trees with a shared-dictionary edge.

use matstrat::common::TableId;
use matstrat::core::{AggFunc, InnerStrategy, JoinSpec, Strategy};
use matstrat::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Filter-column encodings under test. `None` marks the shared-dict
/// variant (Dict encoding against one column-wide sorted dictionary).
const FILTER_ENCODINGS: [Option<EncodingKind>; 5] = [
    Some(EncodingKind::Plain),
    Some(EncodingKind::Rle),
    Some(EncodingKind::BitVec),
    Some(EncodingKind::Dict),
    None,
];

/// A 3-column projection: a (sorted primary, RLE), b (filter column in
/// the encoding under test), c (payload in `enc_c`).
fn load(
    enc_b: Option<EncodingKind>,
    enc_c: EncodingKind,
    rows: &[(Value, Value, Value)],
) -> (Database, TableId) {
    let mut sorted = rows.to_vec();
    sorted.sort_unstable();
    let a: Vec<Value> = sorted.iter().map(|r| r.0).collect();
    let b: Vec<Value> = sorted.iter().map(|r| r.1).collect();
    let c: Vec<Value> = sorted.iter().map(|r| r.2).collect();
    let db = Database::in_memory();
    let spec = ProjectionSpec::new("t").column("a", EncodingKind::Rle, SortOrder::Primary);
    let spec = match enc_b {
        Some(enc) => spec.column("b", enc, SortOrder::Secondary),
        None => spec.column_shared_dict("b", SortOrder::Secondary),
    };
    let spec = spec.column("c", enc_c, SortOrder::None);
    let id = db.load_projection(&spec, &[&a, &b, &c]).unwrap();
    (db, id)
}

/// The decoded oracle: the same logical table, every column Plain — no
/// codec ever sees a predicate, no aggregate ever sees a run.
fn load_decoded(rows: &[(Value, Value, Value)]) -> (Database, TableId) {
    let mut sorted = rows.to_vec();
    sorted.sort_unstable();
    let a: Vec<Value> = sorted.iter().map(|r| r.0).collect();
    let b: Vec<Value> = sorted.iter().map(|r| r.1).collect();
    let c: Vec<Value> = sorted.iter().map(|r| r.2).collect();
    let db = Database::in_memory();
    let spec = ProjectionSpec::new("t")
        .column("a", EncodingKind::Plain, SortOrder::Primary)
        .column("b", EncodingKind::Plain, SortOrder::Secondary)
        .column("c", EncodingKind::Plain, SortOrder::None);
    let id = db.load_projection(&spec, &[&a, &b, &c]).unwrap();
    (db, id)
}

/// Run cold and return everything the contract promises deterministic.
#[allow(clippy::type_complexity)]
fn cold_run(
    db: &Database,
    q: &QuerySpec,
    s: Strategy,
    granule: u64,
    threads: usize,
) -> Option<(Vec<Value>, Vec<String>, u64, u64, u64, u64)> {
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
        Ok(QueryOutcome { rows: r, stats, .. }) => Some((
            r.flat().to_vec(),
            r.column_names.clone(),
            stats.positions_matched,
            stats.rows_out,
            stats.io.block_reads,
            stats.code_path_ops,
        )),
        Err(e) => panic!("{s} threads={threads}: {e}"),
    }
}

/// The full contract for one query over one fixture:
/// * serial compressed result ≡ serial decoded-oracle result (bytes,
///   names, match/row counters) wherever both paths are supported;
/// * the compressed path really ran (`code_path_ops > 0`) while the
///   decoded oracle never touched it (`== 0`);
/// * every thread count reproduces the serial run exactly — including
///   cold `block_reads` and `code_path_ops`.
fn assert_compressed_exec_contract(
    db: &Database,
    oracle_db: &Database,
    q: &QuerySpec,
    oracle_q: &QuerySpec,
    granule: u64,
    expect_code_path: bool,
    label: &str,
) {
    for s in Strategy::ALL {
        let oracle = cold_run(oracle_db, oracle_q, s, granule, 1);
        let serial = cold_run(db, q, s, granule, 1);
        if let Some(o) = &oracle {
            assert_eq!(o.5, 0, "{s} {label}: decoded oracle charged code ops");
        }
        if let (Some(got), Some(exp)) = (&serial, &oracle) {
            assert_eq!(got.0, exp.0, "{s} {label}: result bytes vs decoded oracle");
            assert_eq!(got.1, exp.1, "{s} {label}: column names vs decoded oracle");
            assert_eq!(got.2, exp.2, "{s} {label}: positions_matched vs oracle");
            assert_eq!(got.3, exp.3, "{s} {label}: rows_out vs oracle");
        }
        if let Some(got) = &serial {
            // When a predicate column is compressed, every late-
            // materialization strategy (DS1 position scans on predicate
            // columns) must have gone through at least one run-granular /
            // code-domain scan. EM strategies construct tuples by
            // decoding — by definition, not fallback — so they are exempt.
            if expect_code_path && s.is_late() {
                assert!(got.5 > 0, "{s} {label}: compressed path never ran");
            }
        }
        for threads in THREAD_COUNTS {
            let parallel = cold_run(db, q, s, granule, threads);
            match (&serial, &parallel) {
                (None, None) => {}
                (Some(exp), Some(got)) => {
                    assert_eq!(got.0, exp.0, "{s} {label} threads={threads}: result bytes");
                    assert_eq!(got.1, exp.1, "{s} {label} threads={threads}: column names");
                    assert_eq!(got.2, exp.2, "{s} {label} threads={threads}: positions");
                    assert_eq!(got.3, exp.3, "{s} {label} threads={threads}: rows_out");
                    assert_eq!(got.4, exp.4, "{s} {label} threads={threads}: block_reads");
                    assert_eq!(got.5, exp.5, "{s} {label} threads={threads}: code ops");
                }
                _ => panic!("{s} {label} threads={threads}: supportedness changed"),
            }
        }
    }
}

fn dataset() -> Vec<(Value, Value, Value)> {
    (0..6000)
        .map(|i| (i / 1000, (i * 37) % 10, (i * 7919) % 64))
        .collect()
}

#[test]
fn selections_never_decode_and_match_the_decoded_oracle() {
    let rows = dataset();
    let (oracle_db, oid) = load_decoded(&rows);
    for enc_b in FILTER_ENCODINGS {
        let (db, id) = load(enc_b, EncodingKind::Plain, &rows);
        let q = QuerySpec::select(id, vec![0, 2])
            .filter(0, Predicate::lt(5))
            .filter(1, Predicate::between(2, 7));
        let oq = QuerySpec::select(oid, vec![0, 2])
            .filter(0, Predicate::lt(5))
            .filter(1, Predicate::between(2, 7));
        assert_compressed_exec_contract(&db, &oracle_db, &q, &oq, 128, true, &format!("{enc_b:?}"));
    }
}

#[test]
fn aggregates_consume_runs_and_match_the_decoded_oracle() {
    let rows = dataset();
    let (oracle_db, oid) = load_decoded(&rows);
    // The payload encoding drives the run-aware aggregation path: RLE
    // payloads aggregate whole runs, Dict payloads aggregate codes.
    for enc_c in [EncodingKind::Plain, EncodingKind::Rle, EncodingKind::Dict] {
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            let (db, id) = load(Some(EncodingKind::Rle), enc_c, &rows);
            let q = QuerySpec::select(id, vec![])
                .filter(1, Predicate::ge(2))
                .aggregate_fn(0, 2, func);
            let oq = QuerySpec::select(oid, vec![])
                .filter(1, Predicate::ge(2))
                .aggregate_fn(0, 2, func);
            assert_compressed_exec_contract(
                &db,
                &oracle_db,
                &q,
                &oq,
                128,
                true,
                &format!("{enc_c:?} {func:?}"),
            );
        }
    }
}

/// The PR 7 write path: an uncompacted delta (inserts + deletes) merges
/// into compressed base scans without breaking the contract. Delta rows
/// evaluate decoded, the base stays on the code path.
#[test]
fn dirty_delta_merges_preserve_the_contract() {
    let rows = dataset();
    let inserts: Vec<Vec<Value>> = (0..40)
        .map(|i| vec![6, (i * 3) % 12, 100 + i]) // b values partly outside the base domain
        .collect();
    let (oracle_db, oid) = load_decoded(&rows);
    oracle_db.insert(oid, &inserts).unwrap();
    oracle_db
        .delete_where(oid, &[(2, Predicate::eq(63))])
        .unwrap();
    for enc_b in FILTER_ENCODINGS {
        let (db, id) = load(enc_b, EncodingKind::Plain, &rows);
        db.insert(id, &inserts).unwrap();
        db.delete_where(id, &[(2, Predicate::eq(63))]).unwrap();
        let q = QuerySpec::select(id, vec![0, 2])
            .filter(0, Predicate::le(6))
            .filter(1, Predicate::ne(4));
        let oq = QuerySpec::select(oid, vec![0, 2])
            .filter(0, Predicate::le(6))
            .filter(1, Predicate::ne(4));
        assert_compressed_exec_contract(
            &db,
            &oracle_db,
            &q,
            &oq,
            128,
            true,
            &format!("dirty {enc_b:?}"),
        );
        // And aggregation over the dirty table.
        let qa = QuerySpec::select(id, vec![])
            .filter(1, Predicate::lt(8))
            .aggregate_sum(0, 2);
        let oqa = QuerySpec::select(oid, vec![])
            .filter(1, Predicate::lt(8))
            .aggregate_sum(0, 2);
        assert_compressed_exec_contract(
            &db,
            &oracle_db,
            &qa,
            &oqa,
            128,
            enc_b != Some(EncodingKind::Plain),
            &format!("dirty agg {enc_b:?}"),
        );
    }
}

// ---------------------------------------------------------------------
// Code-keyed joins
// ---------------------------------------------------------------------

struct JoinFixture {
    db: Database,
    spec: JoinSpec,
}

/// Left (3,000 rows) and right (10 rows) keyed on the same 10-value
/// domain. `shared` encodes both key columns against shared sorted
/// dictionaries — equal fingerprints, so the join hashes u32 codes —
/// while the oracle keeps them Plain and hashes decoded values.
fn join_fixture(shared: bool) -> JoinFixture {
    let db = Database::in_memory();
    let lk: Vec<Value> = (0..3000).map(|i| ((i * 7) % 10) * 10).collect();
    let lv: Vec<Value> = (0..3000).collect();
    let key_col = |spec: ProjectionSpec, name: &str, sort| {
        if shared {
            spec.column_shared_dict(name, sort)
        } else {
            spec.column(name, EncodingKind::Plain, sort)
        }
    };
    let left = db
        .load_projection(
            &key_col(ProjectionSpec::new("l"), "k", SortOrder::None).column(
                "v",
                EncodingKind::Plain,
                SortOrder::None,
            ),
            &[&lk, &lv],
        )
        .unwrap();
    let rk: Vec<Value> = (0..10).map(|i| i * 10).collect();
    let rv: Vec<Value> = (0..10).map(|i| i + 500).collect();
    let right = db
        .load_projection(
            &key_col(ProjectionSpec::new("r"), "k", SortOrder::Primary).column(
                "v",
                EncodingKind::Plain,
                SortOrder::None,
            ),
            &[&rk, &rv],
        )
        .unwrap();
    let spec = JoinSpec {
        left,
        right,
        left_key: 0,
        right_key: 0,
        left_filter: Some((1, Predicate::lt(2500))),
        right_filter: None,
        left_output: vec![1],
        right_output: vec![1],
    };
    JoinFixture { db, spec }
}

fn cold_join_run(
    f: &JoinFixture,
    inner: InnerStrategy,
    threads: usize,
) -> (Vec<Value>, Vec<String>, u64, u64) {
    f.db.store().cold_reset();
    let opts = ExecOptions {
        granule: 256,
        parallelism: threads,
        ..ExecOptions::default()
    };
    let out =
        f.db.execute_planned(
            &Statement::JoinTree(JoinTreeSpec::new(vec![f.spec.clone()])),
            &QueryPlan::forced_tree(vec![0], vec![inner]),
            &opts,
        )
        .unwrap();
    let reads = f.db.store().meter().snapshot().block_reads;
    (
        out.rows.flat().to_vec(),
        out.rows.column_names.clone(),
        reads,
        out.stats.code_path_ops,
    )
}

#[test]
fn code_keyed_joins_match_the_value_keyed_oracle() {
    let oracle = join_fixture(false);
    let coded = join_fixture(true);
    for inner in InnerStrategy::ALL {
        let exp = cold_join_run(&oracle, inner, 1);
        let serial = cold_join_run(&coded, inner, 1);
        assert_eq!(exp.3, 0, "{inner:?}: value-keyed oracle charged code ops");
        assert_eq!(
            serial.0, exp.0,
            "{inner:?}: result bytes vs value-keyed oracle"
        );
        assert_eq!(serial.1, exp.1, "{inner:?}: column names");
        // Build hashed 10 codes, probe hashed the 2,500 filter survivors.
        assert!(serial.3 >= 2500, "{inner:?}: code ops = {}", serial.3);
        for threads in THREAD_COUNTS {
            let got = cold_join_run(&coded, inner, threads);
            assert_eq!(got.0, serial.0, "{inner:?} threads={threads}: result bytes");
            assert_eq!(
                got.2, serial.2,
                "{inner:?} threads={threads}: cold block_reads"
            );
            assert_eq!(got.3, serial.3, "{inner:?} threads={threads}: code ops");
        }
    }
}

/// Delta rows ride along: in-dictionary delta keys translate through the
/// code table; a right-delta key outside the dictionary forces the
/// value-keyed fallback. Both must stay byte-identical to the oracle.
#[test]
fn code_keyed_join_deltas_match_the_value_keyed_oracle() {
    for out_of_dict in [false, true] {
        let oracle = join_fixture(false);
        let coded = join_fixture(true);
        let rkey = if out_of_dict { 999 } else { 30 };
        for f in [&oracle, &coded] {
            f.db.insert(f.spec.right, &[vec![rkey, 777]]).unwrap();
            f.db.insert(f.spec.left, &[vec![rkey, 100], vec![31, 101]])
                .unwrap();
        }
        for inner in InnerStrategy::ALL {
            let exp = cold_join_run(&oracle, inner, 1);
            for threads in THREAD_COUNTS {
                let got = cold_join_run(&coded, inner, threads);
                assert_eq!(
                    got.0, exp.0,
                    "{inner:?} threads={threads} out_of_dict={out_of_dict}: result bytes"
                );
            }
        }
    }
}

/// A two-edge join tree with one shared-dictionary edge: the base scan
/// probes that edge in the code domain, the other edge stays value-keyed,
/// and the merged output is byte-identical to the all-Plain oracle at
/// every thread count.
#[test]
fn join_trees_with_a_code_keyed_edge_match_the_oracle() {
    let build = |shared: bool| {
        let db = Database::in_memory();
        let k1: Vec<Value> = (0..4000).map(|i| ((i * 7) % 10) * 10).collect();
        let k2: Vec<Value> = (0..4000).map(|i| (i * 13) % 50).collect();
        let v: Vec<Value> = (0..4000).collect();
        let key_col = |spec: ProjectionSpec, name: &str, sort| {
            if shared {
                spec.column_shared_dict(name, sort)
            } else {
                spec.column(name, EncodingKind::Plain, sort)
            }
        };
        let base = db
            .load_projection(
                &key_col(ProjectionSpec::new("base"), "k1", SortOrder::None)
                    .column("k2", EncodingKind::Plain, SortOrder::None)
                    .column("v", EncodingKind::Plain, SortOrder::None),
                &[&k1, &k2, &v],
            )
            .unwrap();
        let d1k: Vec<Value> = (0..10).map(|i| i * 10).collect();
        let d1v: Vec<Value> = (0..10).map(|i| i + 500).collect();
        let dim1 = db
            .load_projection(
                &key_col(ProjectionSpec::new("dim1"), "k", SortOrder::Primary).column(
                    "v",
                    EncodingKind::Plain,
                    SortOrder::None,
                ),
                &[&d1k, &d1v],
            )
            .unwrap();
        let d2k: Vec<Value> = (0..50).collect();
        let d2v: Vec<Value> = (0..50).map(|i| i + 9000).collect();
        let dim2 = db
            .load_projection(
                &ProjectionSpec::new("dim2")
                    .column("k", EncodingKind::Plain, SortOrder::Primary)
                    .column("v", EncodingKind::Plain, SortOrder::None),
                &[&d2k, &d2v],
            )
            .unwrap();
        let spec = JoinTreeSpec::new(vec![
            JoinSpec {
                left: base,
                right: dim1,
                left_key: 0,
                right_key: 0,
                left_filter: Some((2, Predicate::lt(3500))),
                right_filter: None,
                left_output: vec![2],
                right_output: vec![1],
            },
            JoinSpec {
                left: base,
                right: dim2,
                left_key: 1,
                right_key: 0,
                left_filter: None,
                right_filter: None,
                left_output: vec![],
                right_output: vec![1],
            },
        ]);
        (db, spec)
    };
    let (oracle_db, oracle_spec) = build(false);
    let (coded_db, coded_spec) = build(true);
    let inners = [InnerStrategy::MultiColumn, InnerStrategy::MultiColumn];
    let run = |db: &Database, spec: &JoinTreeSpec, threads: usize| {
        db.store().cold_reset();
        let opts = ExecOptions {
            granule: 256,
            parallelism: threads,
            ..ExecOptions::default()
        };
        let out = db
            .execute_planned(
                &Statement::JoinTree(spec.clone()),
                &QueryPlan::forced_tree(vec![0, 1], inners.to_vec()),
                &opts,
            )
            .unwrap();
        (
            out.rows.flat().to_vec(),
            db.store().meter().snapshot().block_reads,
            out.stats.code_path_ops,
        )
    };
    let exp = run(&oracle_db, &oracle_spec, 1);
    assert_eq!(exp.2, 0, "all-Plain tree must not touch the code path");
    let serial = run(&coded_db, &coded_spec, 1);
    assert!(serial.2 > 0, "shared-dict edge never took the code path");
    assert_eq!(serial.0, exp.0, "tree result bytes vs decoded oracle");
    for threads in THREAD_COUNTS {
        let got = run(&coded_db, &coded_spec, threads);
        assert_eq!(got.0, serial.0, "threads={threads}: tree result bytes");
        assert_eq!(got.1, serial.1, "threads={threads}: cold block_reads");
        assert_eq!(got.2, serial.2, "threads={threads}: code ops");
    }
}

// ---------------------------------------------------------------------
// LM-pipelined later filters
// ---------------------------------------------------------------------

/// Keeps the Plain later column at width 8 (8 190 rows a block), so
/// every encoding of it spans several blocks.
const LATER_OFFSET: Value = 1 << 40;

/// 30 000 rows: four Plain first-filter columns shaping the descriptor a
/// later filter sees, the later column `b` in `enc_b`, and a payload.
/// * `a` = i: `a < k` is one range, `a BETWEEN` a range across blocks;
/// * `s` = (i / 5) % 3: `s = 0` is thousands of 5-row ranges;
/// * `t` = i % 3: `t = 0` is a bitmap (every third row), the fallback;
/// * `b` = offset + (i / 2) % 5000: runs of two, 5 000 distinct values;
/// * `c` = (i · 7919) % 1000, Plain.
fn later_filter_table(enc_b: EncodingKind) -> (Database, TableId) {
    let n: Value = 30_000;
    let col = |f: &dyn Fn(Value) -> Value| (0..n).map(f).collect::<Vec<Value>>();
    let (a, s, t) = (col(&|i| i), col(&|i| (i / 5) % 3), col(&|i| i % 3));
    let (b, c) = (
        col(&|i| LATER_OFFSET + (i / 2) % 5000),
        col(&|i| (i * 7919) % 1000),
    );
    let db = Database::in_memory();
    let spec = ProjectionSpec::new("t")
        .column("a", EncodingKind::Plain, SortOrder::Primary)
        .column("s", EncodingKind::Plain, SortOrder::None)
        .column("t", EncodingKind::Plain, SortOrder::None)
        .column("b", enc_b, SortOrder::None)
        .column("c", EncodingKind::Plain, SortOrder::None);
    let id = db.load_projection(&spec, &[&a, &s, &t, &b, &c]).unwrap();
    (db, id)
}

/// One cold LM-pipelined run: rows, names, `positions_matched`,
/// `rows_out`, cold `(block_reads, seeks)` and `code_path_ops`.
#[allow(clippy::type_complexity)]
fn cold_pipelined(
    db: &Database,
    q: &QuerySpec,
    granule: u64,
    threads: usize,
    force_repr: Option<Repr>,
) -> (Vec<Value>, Vec<String>, u64, u64, (u64, u64), u64) {
    db.store().cold_reset();
    let opts = ExecOptions {
        granule,
        parallelism: threads,
        force_repr,
        ..ExecOptions::default()
    };
    let out = db
        .execute_planned(
            &Statement::Select(q.clone()),
            &QueryPlan::forced_scan(Strategy::LmPipelined),
            &opts,
        )
        .unwrap();
    (
        out.rows.flat().to_vec(),
        out.rows.column_names.clone(),
        out.stats.positions_matched,
        out.stats.rows_out,
        (out.stats.io.block_reads, out.stats.io.seeks),
        out.stats.code_path_ops,
    )
}

/// A later filter over a range descriptor runs the column's own DS1 on
/// the descriptor's ranges; over any other descriptor it fetches the
/// values and re-tests them (a bit-vector column decodes the blocks
/// holding survivors). Either way the rows and `positions_matched` equal
/// the decoded oracle's, and cold `(block_reads, seeks)` equal the gather
/// path's on the same table — both read exactly `fetch_selective`'s
/// blocks. The range path is the compressed one (`code_path_ops > 0` on
/// RLE, bit-vector and Dict; the Plain first filter charges none), the
/// bitmap descriptor is the fallback (none either), and threads {1, 4}
/// agree.
#[test]
fn lm_pipelined_later_filters_scan_the_descriptor_ranges() {
    let (oracle_db, oid) = later_filter_table(EncodingKind::Plain);
    let later = Predicate::between(LATER_OFFSET + 1000, LATER_OFFSET + 3999);
    // (label, first filter, whether it leaves a range descriptor)
    let descriptors = [
        ("one range", (0, Predicate::lt(5000)), true),
        (
            "across a block boundary",
            (0, Predicate::between(8000, 12_999)),
            true,
        ),
        ("many short ranges", (1, Predicate::eq(0)), true),
        ("bitmap", (2, Predicate::eq(0)), false),
    ];
    for enc_b in [
        EncodingKind::Plain,
        EncodingKind::Rle,
        EncodingKind::BitVec,
        EncodingKind::Dict,
    ] {
        let (db, id) = later_filter_table(enc_b);
        let reader = db.store().reader(id, 3).unwrap();
        assert_ne!(
            reader.block_for_pos(8000).unwrap(),
            reader.block_for_pos(12_999).unwrap(),
            "{enc_b:?}: the range must cross a block boundary of `b`"
        );
        for (label, (col, first), ranges) in descriptors {
            let query = |table| {
                QuerySpec::select(table, vec![3, 4])
                    .filter(col, first)
                    .filter(3, later)
            };
            let (q, oq) = (query(id), query(oid));
            for granule in [1 << 20, 1000] {
                let what = format!("{enc_b:?} {label} granule={granule}");
                let oracle = cold_pipelined(&oracle_db, &oq, granule, 1, None);
                let got = cold_pipelined(&db, &q, granule, 1, None);
                assert!(got.2 > 0, "{what}: the later filter must keep rows");
                assert_eq!(got.0, oracle.0, "{what}: rows vs decoded oracle");
                assert_eq!(got.1, oracle.1, "{what}: names vs decoded oracle");
                assert_eq!(got.2, oracle.2, "{what}: positions_matched vs oracle");
                assert_eq!(got.3, oracle.3, "{what}: rows_out vs oracle");
                // The gather path on the same table: a bitmap first
                // descriptor sends every later filter down it.
                let gathered = cold_pipelined(&db, &q, granule, 1, Some(Repr::Bitmap));
                assert_eq!(gathered.0, got.0, "{what}: rows vs gather path");
                assert_eq!(gathered.2, got.2, "{what}: positions vs gather path");
                assert_eq!(
                    gathered.4, got.4,
                    "{what}: cold (reads, seeks) vs gather path"
                );
                assert_eq!(gathered.5, 0, "{what}: the gather path charged code ops");
                let coded = ranges && enc_b != EncodingKind::Plain;
                assert_eq!(got.5 > 0, coded, "{what}: code ops {}", got.5);
                for threads in [1, 4] {
                    let par = cold_pipelined(&db, &q, granule, threads, None);
                    assert_eq!(par.0, got.0, "{what} threads={threads}: rows");
                    assert_eq!(par.2, got.2, "{what} threads={threads}: positions");
                    assert_eq!(par.4 .0, got.4 .0, "{what} threads={threads}: block_reads");
                    assert_eq!(par.5, got.5, "{what} threads={threads}: code ops");
                }
            }
        }
    }
}
