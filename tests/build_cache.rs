//! Differential battery for the resident join-build cache: a join whose
//! inner hash table comes from the store's cache returns exactly the
//! bytes of the same statement rebuilt from scratch
//! (`JoinTreePlan::reuse_builds: false`), however writes, compactions
//! and cold resets interleave with it.
//!
//! * Seeded interleavings over a persistent `MemDisk` store run a single
//!   join, a star, a snowflake and an aggregate over the star under
//!   every inner strategy, with INSERT and DELETE on inner and outer
//!   tables, `compact` and `cold_reset` in between. A model of which
//!   (inner table, key column) entries must be resident
//!   predicts every statement's `builds` / `build_reuses` and the
//!   store's entry count, and the disk must hold exactly the column
//!   files the catalog names after every step.
//! * After `cold_reset`, a cached run's cold `block_reads` equal the
//!   uncached run's at threads {1, 2, 4, 8}.
//! * Two server sessions join while a third writes and compacts the
//!   inner table; every reply is the uncached result of one of the
//!   states the writer produced.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use matstrat::common::TableId;
use matstrat::core::{hash_join_tree_with_options, AggFunc};
use matstrat::prelude::*;
use matstrat::storage::{Disk, MemDisk, ProjectionInfo, Store, TableDelta};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const GRANULE: u64 = 64;
const ORDERS: i64 = 1500;
const CUSTOMERS: i64 = 250;
const DAYS: i64 = 36;
const NATIONS: i64 = 10;

/// The four tables, loaded on a persistent store over an in-memory disk.
struct Fixture {
    disk: Arc<MemDisk>,
    db: Database,
    orders: TableId,
    customer: TableId,
    date: TableId,
    nation: TableId,
}

impl Fixture {
    fn new() -> Fixture {
        let disk = Arc::new(MemDisk::new());
        let store = Store::with_disk(Arc::clone(&disk) as Arc<dyn Disk>, 4096, true);
        let db = Database::with_store(store);
        let col = |n: i64, f: &dyn Fn(i64) -> Value| (0..n).map(f).collect::<Vec<Value>>();
        let orders = db
            .load_projection(
                &ProjectionSpec::new("orders")
                    .column("custkey", EncodingKind::Plain, SortOrder::None)
                    .column("datekey", EncodingKind::Plain, SortOrder::None)
                    .column("price", EncodingKind::Plain, SortOrder::None),
                &[
                    &col(ORDERS, &|i| (i * 37) % (CUSTOMERS + 10)),
                    &col(ORDERS, &|i| (i * 11) % DAYS),
                    &col(ORDERS, &|i| (i * 7919) % 1000),
                ],
            )
            .unwrap();
        let customer = db
            .load_projection(
                &ProjectionSpec::new("customer")
                    .column("custkey", EncodingKind::Plain, SortOrder::Primary)
                    .column("nationkey", EncodingKind::Plain, SortOrder::None)
                    .column("segment", EncodingKind::Rle, SortOrder::None),
                &[
                    &col(CUSTOMERS, &|i| i),
                    &col(CUSTOMERS, &|i| (i * 3) % NATIONS),
                    &col(CUSTOMERS, &|i| i / 50),
                ],
            )
            .unwrap();
        // A shared dictionary on the key: the code-keyed build is cached
        // too, and an inserted key outside the dictionary sends the next
        // build down the value path.
        let date = db
            .load_projection(
                &ProjectionSpec::new("date")
                    .column_shared_dict("datekey", SortOrder::Primary)
                    .column("month", EncodingKind::Dict, SortOrder::None),
                &[&col(DAYS, &|i| i), &col(DAYS, &|i| i / 3)],
            )
            .unwrap();
        let nation = db
            .load_projection(
                &ProjectionSpec::new("nation")
                    .column("nationkey", EncodingKind::Plain, SortOrder::Primary)
                    .column("region", EncodingKind::BitVec, SortOrder::None),
                &[&col(NATIONS, &|i| i), &col(NATIONS, &|i| i % 4)],
            )
            .unwrap();
        Fixture {
            disk,
            db,
            orders,
            customer,
            date,
            nation,
        }
    }

    fn store(&self) -> &Store {
        self.db.store()
    }

    fn tables(&self) -> [TableId; 4] {
        [self.orders, self.customer, self.date, self.nation]
    }

    /// orders ⋈ customer on custkey, filtered on price.
    fn single(&self) -> JoinSpec {
        JoinSpec {
            left: self.orders,
            right: self.customer,
            left_key: 0,
            right_key: 0,
            left_filter: Some((2, Predicate::lt(600))),
            right_filter: None,
            left_output: vec![2],
            right_output: vec![2],
        }
    }

    /// The four statements: a single join, a star over customer and
    /// date, a snowflake through customer to nation, and a SUM over the
    /// star grouped by month.
    fn statements(&self) -> Vec<JoinTreeSpec> {
        let date = JoinSpec {
            left: self.orders,
            right: self.date,
            left_key: 1,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![],
            right_output: vec![1],
        };
        let nation = JoinSpec {
            left: self.customer,
            right: self.nation,
            left_key: 1,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![],
            right_output: vec![1],
        };
        let star = JoinTreeSpec::new(vec![self.single(), date]);
        vec![
            JoinTreeSpec::new(vec![self.single()]),
            star.clone(),
            JoinTreeSpec::new(vec![self.single(), nation]),
            star.aggregate_fn(2, 0, AggFunc::Sum),
        ]
    }

    /// The (inner table, key column) entry each edge of `spec` is cached
    /// under, at any thread count.
    fn keys_of(&self, spec: &JoinTreeSpec) -> Vec<(TableId, usize)> {
        spec.edges.iter().map(|e| (e.right, e.right_key)).collect()
    }

    /// Logical rows of `table`, deleted ones included.
    fn rows_of(&self, table: TableId) -> u64 {
        let (info, delta) = self.store().scan_snapshot(table).unwrap();
        delta.map_or(info.num_rows, |d| d.total_rows())
    }

    /// The disk holds exactly the column files the catalog names: a
    /// retired generation is gone once nothing reads it, cache included.
    fn assert_no_retired_files(&self, context: &str) {
        let named: HashSet<String> = self
            .tables()
            .iter()
            .flat_map(|&t| self.store().projection(t).unwrap().columns)
            .map(|c| c.file)
            .collect();
        let on_disk: HashSet<String> = self
            .disk
            .list()
            .into_iter()
            .filter(|f| f.ends_with(".col"))
            .collect();
        assert_eq!(on_disk, named, "{context}: column files on disk");
    }
}

fn options(threads: usize) -> ExecOptions {
    ExecOptions {
        granule: GRANULE,
        parallelism: threads,
        ..ExecOptions::default()
    }
}

fn plans(edges: usize, inner: InnerStrategy) -> (JoinTreePlan, JoinTreePlan) {
    let cached = JoinTreePlan::in_spec_order(vec![inner; edges]);
    let rebuilt = JoinTreePlan {
        reuse_builds: false,
        ..cached.clone()
    };
    (cached, rebuilt)
}

/// One run: result bytes, column names and stats.
fn run(
    f: &Fixture,
    spec: &JoinTreeSpec,
    plan: &JoinTreePlan,
    threads: usize,
) -> (Vec<Value>, Vec<String>, QueryStats) {
    let (r, s) = hash_join_tree_with_options(f.store(), spec, plan, &options(threads)).unwrap();
    (r.flat().to_vec(), r.column_names, s)
}

/// A row for `table`, new keys and duplicates of old ones alike.
fn row_for(f: &Fixture, table: TableId, seed: i64) -> Vec<Value> {
    if table == f.orders {
        vec![seed % (CUSTOMERS + 20), seed % (DAYS + 2), seed % 1000]
    } else if table == f.customer {
        vec![seed % (CUSTOMERS + 20), seed % NATIONS, seed % 7]
    } else if table == f.date {
        // Keys past the loaded days miss the shared dictionary.
        vec![seed % (DAYS + 2), seed % 12]
    } else {
        vec![seed % (NATIONS + 2), seed % 4]
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Statement, inner strategy, thread count.
    Run(usize, usize, usize),
    Insert(usize, Vec<i64>),
    Delete(usize, Vec<u64>),
    Compact(usize),
    ColdReset,
    /// Statement and inner strategy, cold, at every thread count.
    ColdCheck(usize, usize),
}

fn arb_op() -> impl PropStrategy<Value = Op> {
    (0u8..16, 0usize..4, 0usize..3, 0usize..4, 0i64..1_000_000).prop_map(|(kind, a, b, c, seed)| {
        match kind {
            0..=6 => Op::Run(a, b, THREAD_COUNTS[c]),
            7..=9 => Op::Insert(a, (0..=b as i64).map(|i| seed + i * 7919).collect()),
            10..=12 => Op::Delete(
                a,
                (0..=b as u64)
                    .map(|i| (seed as u64 + i * 131) % 2000)
                    .collect(),
            ),
            13 => Op::Compact(a),
            14 => Op::ColdReset,
            _ => Op::ColdCheck(a, b),
        }
    })
}

/// Apply `ops` to a fresh fixture, checking every statement against its
/// uncached twin and the model of what is resident.
fn interleave(ops: &[Op]) {
    let f = Fixture::new();
    let stmts = f.statements();
    let mut resident: HashSet<(TableId, usize)> = HashSet::new();
    for (step, op) in ops.iter().enumerate() {
        let ctx = format!("step {step} {op:?}");
        match op {
            Op::Run(si, ii, threads) => {
                let spec = &stmts[*si];
                let (cached, rebuilt) = plans(spec.edges.len(), InnerStrategy::ALL[*ii]);
                let keys = f.keys_of(spec);
                let (got, names, s) = run(&f, spec, &cached, *threads);
                let (want, want_names, s_rebuilt) = run(&f, spec, &rebuilt, *threads);
                assert_eq!(got, want, "{ctx}: bytes vs the rebuilt twin");
                assert_eq!(names, want_names, "{ctx}");
                assert_eq!(s.rows_out, s_rebuilt.rows_out, "{ctx}");
                let fresh = keys.iter().filter(|k| !resident.contains(k)).count() as u64;
                assert_eq!(s.builds, fresh, "{ctx}: builds");
                assert_eq!(s.build_reuses, keys.len() as u64 - fresh, "{ctx}: reuses");
                assert_eq!(s_rebuilt.builds, keys.len() as u64, "{ctx}");
                resident.extend(keys);
            }
            Op::Insert(ti, seeds) => {
                let t = f.tables()[*ti];
                let rows: Vec<Vec<Value>> = seeds.iter().map(|&s| row_for(&f, t, s)).collect();
                f.db.insert(t, &rows).unwrap();
                resident.retain(|k| k.0 != t);
            }
            Op::Delete(ti, picks) => {
                let t = f.tables()[*ti];
                let rows = f.rows_of(t);
                let positions: Vec<u64> = picks.iter().map(|p| p % rows).collect();
                if f.store().delete_positions(t, &positions).unwrap() > 0 {
                    resident.retain(|k| k.0 != t);
                }
            }
            Op::Compact(ti) => {
                let t = f.tables()[*ti];
                if f.db.compact(t).unwrap() {
                    resident.retain(|k| k.0 != t);
                }
            }
            Op::ColdReset => {
                f.store().cold_reset();
                resident.clear();
            }
            Op::ColdCheck(si, ii) => {
                let spec = &stmts[*si];
                let (cached, rebuilt) = plans(spec.edges.len(), InnerStrategy::ALL[*ii]);
                for threads in THREAD_COUNTS {
                    f.store().cold_reset();
                    let (got, _, s) = run(&f, spec, &cached, threads);
                    let reads = f.store().meter().snapshot().block_reads;
                    assert_eq!(s.builds, spec.edges.len() as u64, "{ctx}: nothing resident");
                    f.store().cold_reset();
                    let (want, _, s_rebuilt) = run(&f, spec, &rebuilt, threads);
                    let threads_ctx = format!("{ctx} threads={threads}");
                    assert_eq!(got, want, "{threads_ctx}: bytes");
                    assert_eq!(s.io.block_reads, reads, "{threads_ctx}");
                    assert_eq!(s.io.block_reads, s_rebuilt.io.block_reads, "{threads_ctx}");
                }
                resident.clear();
            }
        }
        assert_eq!(
            f.store().resident_builds(),
            resident.len(),
            "{ctx}: entries"
        );
        f.assert_no_retired_files(&ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cached_builds_are_byte_identical_to_rebuilt_ones(
        ops in prop::collection::vec(arb_op(), 20..40)
    ) {
        interleave(&ops);
    }
}

/// The counters, one step at a time: a repeated statement builds
/// nothing, a write to its inner table makes it build that table again,
/// and a write to its outer table leaves every entry in place.
#[test]
fn builds_and_reuses_follow_what_changed() {
    let f = Fixture::new();
    let star = &f.statements()[1];
    let (cached, rebuilt) = plans(2, InnerStrategy::MultiColumn);
    let counts = |f: &Fixture| {
        let s = run(f, star, &cached, 2).2;
        (s.builds, s.build_reuses)
    };
    assert_eq!(counts(&f), (2, 0), "first run builds both edges");
    assert_eq!(counts(&f), (0, 2), "a repeated statement builds nothing");
    assert_eq!(run(&f, star, &rebuilt, 2).2.builds, 2, "the rebuild twin");
    assert_eq!(
        counts(&f),
        (0, 2),
        "the twin neither reads nor drops entries"
    );

    f.db.insert(f.orders, &[vec![3, 4, 5]]).unwrap();
    f.store().delete_positions(f.orders, &[0]).unwrap();
    assert_eq!(counts(&f), (0, 2), "outer writes leave the entries");
    f.db.compact(f.orders).unwrap();
    assert_eq!(counts(&f), (0, 2), "so does compacting the outer table");

    f.db.insert(f.customer, &[vec![7, 1, 1]]).unwrap();
    assert_eq!(f.store().resident_builds(), 1, "customer's entry dropped");
    assert_eq!(counts(&f), (1, 1), "an inner insert rebuilds that edge");
    f.store().delete_positions(f.date, &[5]).unwrap();
    assert_eq!(counts(&f), (1, 1), "an inner delete rebuilds that edge");
    f.db.compact(f.customer).unwrap();
    assert_eq!(counts(&f), (1, 1), "compacting the inner table rebuilds it");
    f.store().cold_reset();
    assert_eq!(counts(&f), (2, 0), "a cold store has nothing resident");
    // Another worker count probes the same entries.
    assert_eq!(
        run(&f, star, &cached, 4).2.builds,
        0,
        "customer at 4 workers"
    );
    assert_eq!(f.store().resident_builds(), 2);
}

/// Once a cached inner table is compacted and its statements are done,
/// the retired generation's files are gone from the disk: the cache
/// holds no pin on them.
#[test]
fn compacting_a_cached_table_leaves_no_retired_files() {
    let f = Fixture::new();
    let single = &f.statements()[0];
    let (cached, _) = plans(1, InnerStrategy::SingleColumn);
    let old_files: Vec<String> = f
        .store()
        .projection(f.customer)
        .unwrap()
        .columns
        .into_iter()
        .map(|c| c.file)
        .collect();
    f.db.insert(f.customer, &[vec![1, 2, 3]]).unwrap();
    // Cached from the dirty snapshot, so the entry pins the files.
    let before = run(&f, single, &cached, 2).0;
    assert_eq!(f.store().resident_builds(), 1);
    assert!(f.db.compact(f.customer).unwrap());
    assert_eq!(f.store().resident_builds(), 0);
    let listed = f.disk.list();
    for file in &old_files {
        assert!(!listed.contains(file), "{file} outlived its compaction");
    }
    f.assert_no_retired_files("after compaction");
    let (after, _, s) = run(&f, single, &cached, 2);
    assert_eq!(after, before, "compaction is invisible in the bytes");
    assert_eq!(s.builds, 1);
}

/// The race a statement can lose: it reads a snapshot and builds, a
/// write or compaction lands, then the statement offers its build. The
/// store refuses it, so no entry from before the write survives it and
/// none pins a retired generation.
#[test]
fn a_build_offered_after_its_table_changed_is_refused() {
    let f = Fixture::new();
    let key = (f.customer, 0);
    fn offer(f: &Fixture, info: &ProjectionInfo, delta: Option<&Arc<TableDelta>>) -> bool {
        let build = Arc::new(()) as Arc<dyn std::any::Any + Send + Sync>;
        f.store().cache_build((f.customer, 0), info, delta, build)
    }
    let writes: [&dyn Fn(&Fixture); 3] = [
        &|f| assert!(f.db.insert(f.customer, &[vec![1, 2, 3]]).is_ok()),
        &|f| assert_eq!(f.store().delete_positions(f.customer, &[4]).unwrap(), 1),
        &|f| assert!(f.db.compact(f.customer).unwrap()),
    ];
    for (i, write) in writes.iter().enumerate() {
        let (info, delta) = f.store().scan_snapshot(f.customer).unwrap();
        write(&f);
        assert!(
            !offer(&f, &info, delta.as_ref()),
            "write {i}: stale build kept"
        );
        assert_eq!(f.store().resident_builds(), 0, "write {i}");
        drop((info, delta));
        f.assert_no_retired_files(&format!("write {i}"));
    }
    let (info, delta) = f.store().scan_snapshot(f.customer).unwrap();
    assert!(offer(&f, &info, delta.as_ref()), "a current build is kept");
    assert!(f.store().cached_build(key, &info, delta.as_ref()).is_some());
}

/// Two sessions join while a third writes the inner table: every reply
/// is the uncached result of one of the states the writer produced, and
/// afterwards no retired generation is left on disk.
#[test]
fn sessions_racing_a_writer_see_only_states_it_produced() {
    const ROUNDS: i64 = 40;
    let f = Fixture::new();
    let server = Server::new(
        f.store().clone(),
        ServerConfig {
            max_concurrent: 4,
            worker_budget: 2,
        },
    );
    let spec = JoinTreeSpec::new(vec![f.single()]);
    let stmt = Statement::JoinTree(spec.clone());
    let (_, rebuilt) = plans(1, InnerStrategy::MultiColumn);
    let uncached = |f: &Fixture| run(f, &spec, &rebuilt, 2).0;
    let states = Mutex::new(vec![uncached(&f)]);
    let done = AtomicBool::new(false);
    let replies: Vec<HashSet<Vec<Value>>> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let session = server.connect();
                let (done, stmt) = (&done, &stmt);
                scope.spawn(move || {
                    let mut seen = HashSet::new();
                    while !done.load(Ordering::SeqCst) {
                        seen.insert(session.run(stmt).unwrap().rows.flat().to_vec());
                    }
                    seen
                })
            })
            .collect();
        let writer = server.connect();
        for round in 0..ROUNDS {
            // Duplicate keys change the fan-out, new ones the matches.
            let insert = Statement::Insert {
                table: f.customer,
                rows: vec![vec![(round * 37) % (CUSTOMERS + 10), 1, round % 5]],
            };
            writer.run(&insert).unwrap();
            states.lock().unwrap().push(uncached(&f));
            if round % 3 == 1 {
                let rows = f.rows_of(f.customer);
                f.store()
                    .delete_positions(f.customer, &[(round as u64 * 17) % rows])
                    .unwrap();
                states.lock().unwrap().push(uncached(&f));
            }
            if round % 8 == 7 {
                assert!(f.db.compact(f.customer).unwrap());
            }
        }
        done.store(true, Ordering::SeqCst);
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let states: HashSet<Vec<Value>> = states.into_inner().unwrap().into_iter().collect();
    let mut replied = 0;
    for seen in &replies {
        replied += seen.len();
        for reply in seen {
            assert!(states.contains(reply), "a reply no writer state produces");
        }
    }
    assert!(replied > 0, "the readers ran");
    f.assert_no_retired_files("after the race");
    let last = server.connect().run(&stmt).unwrap().rows.flat().to_vec();
    assert_eq!(last, uncached(&f), "the final state");
}
