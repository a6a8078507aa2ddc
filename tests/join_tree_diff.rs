//! Differential battery for the multi-way join-tree executor.
//!
//! The tree executor pipelines position lists through successive probes
//! instead of materializing an intermediate table per edge. This
//! battery proves the shortcut is **invisible**: for every per-edge
//! inner strategy, right-payload encoding, worker count, and tree shape,
//! the tree's `QueryResult` is **byte-identical** — row order included —
//! to the serial composition of single one-edge joins that
//! materializes each intermediate into a scratch projection and joins
//! again. On top of the byte contract, cold `block_reads` are exact: a
//! fixed plan reads the same number of blocks at any thread count (the
//! sharded pool single-flights concurrent misses; spans partition the
//! base table).
//!
//! The proptest sweeps strategy assignments × {Plain, RLE, BitVec, Dict}
//! right-payload encodings × threads {1, 2, 4, 8} × 2- and 3-edge trees
//! (star and snowflake) over arbitrary data; the fixed regression
//! matrix pins the full strategy cross product on a dataset big enough
//! that an 8-way probe really splits.
//!
//! The planner ride-alongs assert `Planner::choose_join_tree` never
//! prices its pick above a candidate it rejected, a planned single-edge
//! tree runs byte-identical to a forced one, and the build-table cache runs
//! the build once per distinct inner table — byte-identical
//! to rebuild-per-edge, with the saved reads visible in the I/O meter.

use std::sync::atomic::{AtomicUsize, Ordering};

use matstrat::common::{TableId, Value};
use matstrat::core::{
    hash_join_tree_with_options, ExecOptions, InnerStrategy, JoinSpec, JoinTreePlan, JoinTreeSpec,
};
use matstrat::prelude::*;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const RIGHT_ENCODINGS: [EncodingKind; 4] = [
    EncodingKind::Plain,
    EncodingKind::Rle,
    EncodingKind::BitVec,
    EncodingKind::Dict,
];

/// One relation's raw columns, loadable into any database.
#[derive(Clone)]
struct TableData {
    name: &'static str,
    cols: Vec<(&'static str, EncodingKind, SortOrder, Vec<Value>)>,
}

impl TableData {
    fn load(&self, db: &Database) -> TableId {
        let mut spec = ProjectionSpec::new(self.name);
        for (n, e, s, _) in &self.cols {
            spec = spec.column(*n, *e, *s);
        }
        let slices: Vec<&[Value]> = self.cols.iter().map(|c| c.3.as_slice()).collect();
        db.load_projection(&spec, &slices).unwrap()
    }
}

/// The same relations loaded twice: `db` runs the tree executor, the
/// oracle database runs the single-join composition (and absorbs its
/// scratch intermediates). Loading in the same order yields the same
/// `TableId`s, so one spec drives both.
struct Fixture {
    db: Database,
    oracle: Database,
    spec: JoinTreeSpec,
}

fn fixture(tables: &[TableData], edges: Vec<JoinSpec>) -> Fixture {
    let db = Database::in_memory();
    let oracle = Database::in_memory();
    for t in tables {
        let a = t.load(&db);
        let b = t.load(&oracle);
        assert_eq!(a, b, "load order must give identical ids");
    }
    Fixture {
        db,
        oracle,
        spec: JoinTreeSpec::new(edges),
    }
}

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

/// The oracle: execute the tree as N single one-edge joins in spec
/// order, materializing each intermediate into a scratch projection
/// (every column carried, Plain encoding), then project the tree's
/// output columns. Row order is the nested-loop order of the spec —
/// exactly what the tree executor must reproduce byte for byte.
fn compose_oracle(f: &Fixture, inners: &[InnerStrategy]) -> Vec<Value> {
    let db = &f.oracle;
    let spec = &f.spec;
    let base = spec.base();
    let base_width = db.store().projection(base).unwrap().columns.len();
    // carried[i] = (source table, source column) of scratch column i.
    let mut carried: Vec<(TableId, usize)> = (0..base_width).map(|c| (base, c)).collect();
    // Scratch column range holding each edge's right columns.
    let mut edge_offsets: Vec<usize> = Vec::new();
    let mut current: Option<(TableId, usize)> = None; // (scratch id, width)
    let mut rows: Option<QueryResult> = None;
    for (k, edge) in spec.edges.iter().enumerate() {
        let right_width = db.store().projection(edge.right).unwrap().columns.len();
        let (left, left_key, left_filter, left_width) = match current {
            None => (base, edge.left_key, edge.left_filter, base_width),
            Some((temp, w)) => {
                // The probe key lives at the scratch position of the
                // edge's source table column (first occurrence, matching
                // JoinTreeSpec::key_source).
                let idx = carried
                    .iter()
                    .position(|&(t, c)| t == edge.left && c == edge.left_key)
                    .expect("validated spec");
                (temp, idx, None, w)
            }
        };
        let jspec = JoinSpec {
            left,
            right: edge.right,
            left_key,
            right_key: edge.right_key,
            left_filter,
            right_filter: None,
            left_output: (0..left_width).collect(),
            right_output: (0..right_width).collect(),
        };
        let res = db
            .execute_planned(
                &Statement::JoinTree(JoinTreeSpec::new(vec![jspec])),
                &QueryPlan::forced_tree(vec![0], vec![inners[k]]),
                &db.exec_options(),
            )
            .unwrap()
            .rows;
        edge_offsets.push(carried.len());
        carried.extend((0..right_width).map(|c| (edge.right, c)));
        let width = carried.len();
        assert_eq!(res.width(), width);
        if k + 1 < spec.edges.len() {
            // Materialize the intermediate as a scratch projection.
            let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(res.num_rows()); width];
            for row in res.rows() {
                for (c, v) in row.iter().enumerate() {
                    cols[c].push(*v);
                }
            }
            let uid = SCRATCH.fetch_add(1, Ordering::Relaxed);
            let name = format!("scratch_{uid}");
            let mut pspec = ProjectionSpec::new(&name);
            let names: Vec<String> = (0..width).map(|c| format!("c{c}")).collect();
            for n in &names {
                pspec = pspec.column(n, EncodingKind::Plain, SortOrder::None);
            }
            let slices: Vec<&[Value]> = cols.iter().map(|c| c.as_slice()).collect();
            let temp = db.load_projection(&pspec, &slices).unwrap();
            current = Some((temp, width));
        }
        rows = Some(res);
    }
    // Final projection: base outputs, then each edge's own right block,
    // in spec order.
    let last = rows.expect("at least one edge");
    let mut pick: Vec<usize> = spec.edges[0].left_output.clone();
    for (k, edge) in spec.edges.iter().enumerate() {
        pick.extend(edge.right_output.iter().map(|&c| edge_offsets[k] + c));
    }
    let mut flat = Vec::with_capacity(last.num_rows() * pick.len());
    for row in last.rows() {
        for &c in &pick {
            flat.push(row[c]);
        }
    }
    flat
}

/// Run the tree cold under a fixed plan and return the deterministic
/// contract: result bytes, column names, row count, cold `block_reads`.
fn cold_tree_run(
    f: &Fixture,
    plan: &JoinTreePlan,
    granule: u64,
    threads: usize,
) -> (Vec<Value>, Vec<String>, u64, u64) {
    f.db.store().cold_reset();
    let opts = ExecOptions {
        granule,
        parallelism: threads,
        ..ExecOptions::default()
    };
    let (r, _) = match hash_join_tree_with_options(f.db.store(), &f.spec, plan, &opts) {
        Ok(r) => r,
        Err(e) => panic!("threads={threads}: {e}"),
    };
    let reads = f.db.store().meter().snapshot().block_reads;
    (
        r.flat().to_vec(),
        r.column_names.clone(),
        r.num_rows() as u64,
        reads,
    )
}

/// The battery core: for the given per-edge strategies, the tree must be
/// byte-identical to the single-join composition at every thread count,
/// with exact cold `block_reads` across the whole thread row.
fn assert_tree_matches_composition(f: &Fixture, inners: &[InnerStrategy], granule: u64) {
    let oracle = compose_oracle(f, inners);
    let plan = JoinTreePlan::in_spec_order(inners.to_vec());
    let serial = cold_tree_run(f, &plan, granule, 1);
    assert_eq!(
        serial.0, oracle,
        "{inners:?}: tree != single-join composition"
    );
    for threads in THREAD_COUNTS {
        let got = cold_tree_run(f, &plan, granule, threads);
        assert_eq!(got.0, serial.0, "{inners:?} threads={threads}: bytes");
        assert_eq!(got.1, serial.1, "{inners:?} threads={threads}: names");
        assert_eq!(got.2, serial.2, "{inners:?} threads={threads}: rows");
        assert_eq!(
            got.3, serial.3,
            "{inners:?} threads={threads}: cold block_reads"
        );
    }
}

/// 2-edge star: orders ⋈ customer (filtered) ⋈ date(enc payload).
fn star2(
    enc: EncodingKind,
    orders_rows: &[(Value, Value, Value)],
    cutoff: Option<Value>,
) -> Fixture {
    let n_cust = 20;
    let n_date = 10;
    let tables = vec![
        TableData {
            name: "orders",
            cols: vec![
                (
                    "custkey",
                    EncodingKind::Plain,
                    SortOrder::None,
                    orders_rows.iter().map(|r| r.0.rem_euclid(n_cust)).collect(),
                ),
                (
                    "datekey",
                    EncodingKind::Plain,
                    SortOrder::None,
                    orders_rows.iter().map(|r| r.1.rem_euclid(n_date)).collect(),
                ),
                (
                    "shipdate",
                    EncodingKind::Plain,
                    SortOrder::None,
                    orders_rows.iter().map(|r| r.2).collect(),
                ),
            ],
        },
        TableData {
            name: "customer",
            cols: vec![
                (
                    "custkey",
                    EncodingKind::Plain,
                    SortOrder::Primary,
                    (0..n_cust).collect(),
                ),
                (
                    "nation",
                    enc,
                    SortOrder::None,
                    (0..n_cust).map(|i| i % 5).collect(),
                ),
            ],
        },
        TableData {
            name: "date",
            cols: vec![
                (
                    "datekey",
                    EncodingKind::Plain,
                    SortOrder::Primary,
                    (0..n_date).collect(),
                ),
                (
                    "dname",
                    enc,
                    SortOrder::None,
                    (0..n_date).map(|i| i % 7).collect(),
                ),
            ],
        },
    ];
    let edges = |orders: TableId, customer: TableId, date: TableId| {
        vec![
            JoinSpec {
                left: orders,
                right: customer,
                left_key: 0,
                right_key: 0,
                left_filter: cutoff.map(|x| (0, Predicate::lt(x))),
                right_filter: None,
                left_output: vec![2],
                right_output: vec![1],
            },
            JoinSpec {
                left: orders,
                right: date,
                left_key: 1,
                right_key: 0,
                left_filter: None,
                right_filter: None,
                left_output: vec![],
                right_output: vec![1],
            },
        ]
    };
    let f = fixture(&tables, edges(TableId(0), TableId(1), TableId(2)));
    // TableIds are assigned in load order; re-derive them defensively.
    let orders = f.db.store().projection_by_name("orders").unwrap().id;
    let customer = f.db.store().projection_by_name("customer").unwrap().id;
    let date = f.db.store().projection_by_name("date").unwrap().id;
    Fixture {
        spec: JoinTreeSpec::new(edges(orders, customer, date)),
        ..f
    }
}

/// 3-edge star + snowflake: orders ⋈ customer ⋈ date, customer ⋈ nation
/// (keyed through customer's nation column — zero-I/O snowflake hop).
fn snowflake3(
    enc: EncodingKind,
    orders_rows: &[(Value, Value, Value)],
    cutoff: Option<Value>,
) -> Fixture {
    let mut f = star2(enc, orders_rows, cutoff);
    let nation = TableData {
        name: "nation",
        cols: vec![
            (
                "nationkey",
                EncodingKind::Plain,
                SortOrder::Primary,
                (0..5).collect(),
            ),
            (
                "region",
                enc,
                SortOrder::None,
                (0..5).map(|i| i * 11).collect(),
            ),
        ],
    };
    let a = nation.load(&f.db);
    let b = nation.load(&f.oracle);
    assert_eq!(a, b);
    let customer = f.spec.edges[0].right;
    f.spec.edges.push(JoinSpec {
        left: customer,
        right: a,
        left_key: 1,
        right_key: 0,
        left_filter: None,
        right_filter: None,
        left_output: vec![],
        right_output: vec![1],
    });
    f
}

fn dense_orders(n: i64) -> Vec<(Value, Value, Value)> {
    (0..n).map(|i| (i * 13, i * 7, 1000 + i)).collect()
}

/// Fixed regression matrix: the full 3×3 strategy cross product on every
/// encoding, on a dataset big enough that an 8-way probe owns several
/// granules each. Fails loudly outside the proptest lottery.
#[test]
fn fixed_two_edge_full_strategy_matrix() {
    let orders = dense_orders(6000);
    for enc in RIGHT_ENCODINGS {
        let f = star2(enc, &orders, Some(14));
        for a in InnerStrategy::ALL {
            for b in InnerStrategy::ALL {
                assert_tree_matches_composition(&f, &[a, b], 128);
            }
        }
    }
}

/// 3-edge trees: uniform strategies plus mixed rotations, per encoding.
#[test]
fn fixed_three_edge_snowflake_matrix() {
    let orders = dense_orders(4000);
    let triples: [[InnerStrategy; 3]; 6] = {
        use InnerStrategy::*;
        [
            [Materialized; 3],
            [MultiColumn; 3],
            [SingleColumn; 3],
            [Materialized, MultiColumn, SingleColumn],
            [SingleColumn, Materialized, MultiColumn],
            [MultiColumn, SingleColumn, Materialized],
        ]
    };
    for enc in RIGHT_ENCODINGS {
        let f = snowflake3(enc, &orders, Some(11));
        for t in triples {
            assert_tree_matches_composition(&f, &t, 128);
        }
    }
}

/// Unfiltered trees exercise the `PosList::full` descriptor path.
#[test]
fn fixed_unfiltered_tree() {
    let orders = dense_orders(3000);
    for enc in [EncodingKind::Plain, EncodingKind::BitVec] {
        let f = snowflake3(enc, &orders, None);
        assert_tree_matches_composition(&f, &[InnerStrategy::MultiColumn; 3], 256);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn tree_identical_to_composition_at_any_thread_count(
        orders in prop::collection::vec((0i64..1000, 0i64..1000, 0i64..10_000), 32..1200),
        enc_idx in 0usize..4,
        s0 in 0usize..3,
        s1 in 0usize..3,
        s2 in 0usize..3,
        three_edges in proptest::bool::ANY,
        has_filter in proptest::bool::ANY,
        cutoff in 0i64..22,
        granule_exp in 5u32..10, // granules of 32..512 so workers really split
    ) {
        let cutoff = has_filter.then_some(cutoff);
        let inners = [
            InnerStrategy::ALL[s0],
            InnerStrategy::ALL[s1],
            InnerStrategy::ALL[s2],
        ];
        if three_edges {
            let f = snowflake3(RIGHT_ENCODINGS[enc_idx], &orders, cutoff);
            assert_tree_matches_composition(&f, &inners, 1 << granule_exp);
        } else {
            let f = star2(RIGHT_ENCODINGS[enc_idx], &orders, cutoff);
            assert_tree_matches_composition(&f, &inners[..2], 1 << granule_exp);
        }
    }
}

/// The planner's pick is never priced above a plan it rejected — across
/// every candidate order and every per-slot strategy alternative — and
/// executing the pick returns the same row set as the spec-order run.
#[test]
fn planner_pick_never_priced_above_rejections() {
    let orders = dense_orders(5000);
    let f = snowflake3(EncodingKind::Plain, &orders, Some(13));
    let choice = match f.db.plan(&Statement::JoinTree(f.spec.clone())).unwrap() {
        QueryPlan::Tree(c) => c,
        other => panic!("a join tree plans as a tree, got {other:?}"),
    };
    let chosen_total = choice.estimate.total_us();
    for (order, total) in &choice.candidates {
        assert!(
            chosen_total <= total + 1e-9,
            "rejected order {order:?} priced below the pick: {total} < {chosen_total}"
        );
    }
    for (slot, alts) in choice.edge_alternatives.iter().enumerate() {
        let kind = choice.inners[choice.order[slot]];
        let chosen = alts.iter().find(|(s, _)| *s == kind).unwrap().1;
        for (s, c) in alts {
            assert!(
                chosen.total_us() <= c.total_us() + 1e-9,
                "slot {slot}: rejected {s:?} priced below chosen {kind:?}"
            );
        }
    }
    // The chosen plan executes and agrees with the spec-order run on
    // the row set (order may legitimately differ across plans).
    let out = f.db.execute(&Statement::JoinTree(f.spec.clone())).unwrap();
    match &out.choice {
        QueryPlan::Tree(c2) => assert_eq!(c2.order, choice.order),
        other => panic!("a join tree plans as a tree, got {other:?}"),
    }
    assert_eq!(out.stats.rows_out, out.rows.num_rows() as u64);
    let spec_order =
        f.db.execute_planned(
            &Statement::JoinTree(f.spec.clone()),
            &QueryPlan::forced_tree((0..f.spec.edges.len()).collect(), choice.inners.clone()),
            &f.db.exec_options(),
        )
        .unwrap()
        .rows;
    assert_eq!(out.rows.sorted_rows(), spec_order.sorted_rows());
    assert_eq!(out.rows.column_names, spec_order.column_names);
}

/// Satellite: a plain join is a one-edge tree — its planned execution
/// is byte-identical to a forced single edge under the inner strategy
/// the planner picked.
#[test]
fn single_edge_tree_auto_equals_choose_join() {
    let orders = dense_orders(4000);
    let f = star2(EncodingKind::Plain, &orders, Some(9));
    let one = JoinTreeSpec::new(vec![f.spec.edges[0].clone()]);
    let auto = f.db.execute(&Statement::JoinTree(one.clone())).unwrap();
    let tree_choice = match &auto.choice {
        QueryPlan::Tree(c) => c,
        other => panic!("a join tree plans as a tree, got {other:?}"),
    };
    assert_eq!(tree_choice.order, vec![0]);
    let single_result =
        f.db.execute_planned(
            &Statement::JoinTree(one),
            &QueryPlan::forced_tree(vec![0], tree_choice.inners.clone()),
            &f.db.exec_options(),
        )
        .unwrap()
        .rows;
    assert_eq!(auto.rows.flat(), single_result.flat());
}

/// Satellite: stats-level proof that the build runs once —
/// not N times — when one inner table is probed by multiple edges, with
/// byte-identical results vs. rebuild-per-edge and the saved build reads
/// visible in the meter.
#[test]
fn build_reuse_runs_partitioned_build_once() {
    // orders probes the date dimension on two different columns.
    let n = 4000i64;
    let tables = vec![
        TableData {
            name: "orders",
            cols: vec![
                (
                    "odate",
                    EncodingKind::Plain,
                    SortOrder::None,
                    (0..n).map(|i| i % 50).collect(),
                ),
                (
                    "sdate",
                    EncodingKind::Plain,
                    SortOrder::None,
                    (0..n).map(|i| (i * 3) % 50).collect(),
                ),
            ],
        },
        TableData {
            name: "date",
            cols: vec![
                (
                    "datekey",
                    EncodingKind::Plain,
                    SortOrder::Primary,
                    (0..50).collect(),
                ),
                (
                    "dname",
                    EncodingKind::Rle,
                    SortOrder::None,
                    (0..50).map(|i| i % 4).collect(),
                ),
            ],
        },
    ];
    let mk_edges = |orders: TableId, date: TableId| {
        vec![
            JoinSpec {
                left: orders,
                right: date,
                left_key: 0,
                right_key: 0,
                left_filter: None,
                right_filter: None,
                left_output: vec![0, 1],
                right_output: vec![1],
            },
            JoinSpec {
                left: orders,
                right: date,
                left_key: 1,
                right_key: 0,
                left_filter: None,
                right_filter: None,
                left_output: vec![],
                right_output: vec![1],
            },
        ]
    };
    let f = fixture(&tables, mk_edges(TableId(0), TableId(1)));
    let orders = f.db.store().projection_by_name("orders").unwrap().id;
    let date = f.db.store().projection_by_name("date").unwrap().id;
    let spec = JoinTreeSpec::new(mk_edges(orders, date));

    let inners = vec![InnerStrategy::MultiColumn; 2];
    let reuse = JoinTreePlan::in_spec_order(inners.clone());
    let rebuild = JoinTreePlan {
        reuse_builds: false,
        ..reuse.clone()
    };
    for threads in THREAD_COUNTS {
        let opts = ExecOptions {
            granule: 128,
            parallelism: threads,
            ..ExecOptions::default()
        };
        f.db.store().cold_reset();
        let (r1, s1) = hash_join_tree_with_options(f.db.store(), &spec, &reuse, &opts).unwrap();
        let reads_reuse = f.db.store().meter().snapshot().block_reads;
        assert_eq!(s1.builds, 1, "threads={threads}: one partitioned build");
        assert_eq!(s1.build_reuses, 1, "threads={threads}: second edge reuses");
        assert_eq!(s1.io.block_reads, reads_reuse);

        f.db.store().cold_reset();
        let (r2, s2) = hash_join_tree_with_options(f.db.store(), &spec, &rebuild, &opts).unwrap();
        assert_eq!(s2.builds, 2, "threads={threads}: rebuild per edge");
        assert_eq!(s2.build_reuses, 0);
        assert_eq!(
            r1.flat(),
            r2.flat(),
            "threads={threads}: reuse is byte-invisible"
        );
        assert_eq!(s1.rows_out, s2.rows_out);
    }
}
