//! Differential battery for the durable write path: WAL + mutable delta
//! store + background compaction.
//!
//! Five proofs, each against an independent shadow model (never the
//! engine's own delta code):
//!
//! 1. **Delta-merged scans** are byte-identical to the row-store oracle
//!    over the logical live rows, across all four strategies × all four
//!    encodings × threads {1, 2, 4, 8}, with cold `block_reads` on the
//!    immutable side exactly what the same scan cost before any writes
//!    (the delta is in-memory; it must never charge the I/O ledger).
//! 2. **Crash at every WAL record boundary**: truncating the log to any
//!    record prefix and reopening replays exactly that prefix — state
//!    byte-identical to the shadow model fed the same records, recovery
//!    counters exact. A mid-record tear loses only the torn record.
//! 3. **Compaction** is invisible: queries racing an in-flight compact
//!    return the pre-compaction bytes, the post-compaction store returns
//!    them too, and a crash *between* the catalog swap and the WAL
//!    truncation replays the stale records as no-ops (epoch check).
//! 4. **Joins and join trees** merge deltas on both sides: inserts and
//!    deletes on fact and dimension tables, compared to a nested-loop
//!    oracle, across inner strategies and thread counts.
//! 5. **Reclaim**: a compaction leaves nothing behind and takes nothing
//!    a reader still needs. A snapshot or `ColumnReader` taken before a
//!    compaction reads the same bytes any number of compactions later,
//!    and its files go when it does; after many cycles under racing
//!    readers the disk holds one generation per table and the pool no
//!    block of a retired file; a crash at every step of a compaction
//!    reopens to the shadow's rows with no orphan left; and all of it
//!    holds on a foreign `Disk` that only forwards the required methods,
//!    where removal can only truncate.

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use matstrat::common::TableId;
use matstrat::core::rowstore::RowTable;
use matstrat::core::{
    delete_where, hash_join_tree_with_options, AggFunc, InnerStrategy, JoinTreePlan,
};
use matstrat::prelude::*;
use matstrat::storage::{ColumnReader, Disk, MemDisk, Store};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const ENCODINGS: [EncodingKind; 4] = [
    EncodingKind::Plain,
    EncodingKind::Rle,
    EncodingKind::BitVec,
    EncodingKind::Dict,
];

/// An independent model of the position-stamped delta: all logical rows
/// in position order (immutable base first, then inserts in stamp
/// order) plus the deleted-position set.
#[derive(Clone)]
struct Shadow {
    rows: Vec<Vec<Value>>,
    deleted: HashSet<u64>,
}

impl Shadow {
    fn new(base: Vec<Vec<Value>>) -> Shadow {
        Shadow {
            rows: base,
            deleted: HashSet::new(),
        }
    }

    fn insert(&mut self, row: Vec<Value>) {
        self.rows.push(row);
    }

    fn delete(&mut self, pos: u64) {
        assert!((pos as usize) < self.rows.len(), "shadow delete in range");
        self.deleted.insert(pos);
    }

    /// Rows a scan must see, in logical position order.
    fn live(&self) -> Vec<&Vec<Value>> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.deleted.contains(&(*i as u64)))
            .map(|(_, r)| r)
            .collect()
    }

    fn oracle(&self, names: &[&str]) -> RowTable {
        let live = self.live();
        let cols: Vec<Vec<Value>> = (0..names.len())
            .map(|c| live.iter().map(|r| r[c]).collect())
            .collect();
        let col_refs: Vec<&[Value]> = cols.iter().map(|c| c.as_slice()).collect();
        RowTable::from_columns(names.iter().map(|n| n.to_string()).collect(), &col_refs).unwrap()
    }
}

/// Cold-run a query and return the deterministic tuple (`None` for an
/// unsupported combination, which must be unsupported at every thread
/// count).
fn forced(db: &Database, q: &QuerySpec, s: Strategy) -> Result<QueryResult> {
    Ok(db
        .execute_planned(
            &Statement::Select(q.clone()),
            &QueryPlan::forced_scan(s),
            &db.exec_options(),
        )?
        .rows)
}

fn cold_run(
    db: &Database,
    q: &QuerySpec,
    s: Strategy,
    threads: usize,
) -> Option<(Vec<Value>, u64, u64, u64)> {
    db.store().cold_reset();
    let opts = ExecOptions {
        granule: 128,
        parallelism: threads,
        ..ExecOptions::default()
    };
    match db.execute_planned(
        &Statement::Select(q.clone()),
        &QueryPlan::forced_scan(s),
        &opts,
    ) {
        Ok(out) => Some((
            out.rows.flat().to_vec(),
            out.stats.positions_matched,
            out.stats.rows_out,
            out.stats.io.block_reads,
        )),
        Err(e) => panic!("{s} threads={threads}: {e}"),
    }
}

/// Proof 1: delta-merged scans across strategies × encodings × threads.
#[test]
fn delta_merged_scans_match_the_row_oracle() {
    let n: i64 = 600;
    for enc_b in ENCODINGS {
        // Base data sorted on `a`; `b` low-cardinality so BitVec/Dict
        // stay reasonable; `c` a distinct payload for row identity.
        let base: Vec<Vec<Value>> = (0..n).map(|i| vec![i / 50, (i * 7) % 8, i]).collect();
        let a: Vec<Value> = base.iter().map(|r| r[0]).collect();
        let b: Vec<Value> = base.iter().map(|r| r[1]).collect();
        let c: Vec<Value> = base.iter().map(|r| r[2]).collect();
        let db = Database::in_memory();
        let spec = ProjectionSpec::new("t")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column("b", enc_b, SortOrder::None)
            .column("c", EncodingKind::Plain, SortOrder::None);
        let t = db.load_projection(&spec, &[&a, &b, &c]).unwrap();
        let mut shadow = Shadow::new(base);

        // The immutable-side I/O reference: a full-column scan before
        // any write exists.
        let full = QuerySpec::select(t, vec![0, 1, 2]);
        let pre_write_reads = cold_run(&db, &full, Strategy::LmParallel, 1).unwrap().3;

        // Writes: scattered single-row deletes (never a whole granule),
        // inserts that extend the `a` domain, deletes of fresh inserts.
        for i in 0..24 {
            let row = vec![12 + i % 3, i % 8, 1000 + i];
            db.insert(t, std::slice::from_ref(&row)).unwrap();
            shadow.insert(row);
        }
        let doomed: Vec<u64> = (0..20).map(|i| i * 29 % n as u64).collect();
        db.store().delete_positions(t, &doomed).unwrap();
        for p in doomed {
            shadow.delete(p);
        }
        // Content-addressed delete through the epoch-guarded path.
        let gone = delete_where(db.store(), t, &[(2, Predicate::eq(1003))]).unwrap();
        assert_eq!(gone, 1);
        shadow.delete(n as u64 + 3);

        let oracle = shadow.oracle(&["a", "b", "c"]);
        let queries = [
            QuerySpec::select(t, vec![0, 2])
                .filter(0, Predicate::lt(13))
                .filter(1, Predicate::lt(6)),
            QuerySpec::select(t, vec![0, 1, 2]),
            QuerySpec::select(t, vec![])
                .filter(1, Predicate::ge(2))
                .aggregate_sum(0, 2),
            QuerySpec::select(t, vec![]).aggregate_fn(1, 2, AggFunc::Max),
        ];
        for q in &queries {
            let want = oracle.run(q).unwrap();
            for s in Strategy::ALL {
                let serial = cold_run(&db, q, s, 1);
                if let Some(exp) = &serial {
                    assert_eq!(
                        exp.0,
                        want.flat(),
                        "{s} {enc_b:?}: serial delta merge vs row oracle"
                    );
                }
                for threads in THREAD_COUNTS {
                    let parallel = cold_run(&db, q, s, threads);
                    match (&serial, &parallel) {
                        (None, None) => {}
                        (Some(exp), Some(got)) => {
                            assert_eq!(got, exp, "{s} {enc_b:?} threads={threads}");
                        }
                        _ => panic!("{s} {enc_b:?}: supportedness changed with threads"),
                    }
                }
            }
        }

        // The delta never bills the I/O ledger: the full scan's cold
        // block_reads are unchanged by 24 inserts and 21 deletes.
        let post_write_reads = cold_run(&db, &full, Strategy::LmParallel, 1).unwrap().3;
        assert_eq!(
            post_write_reads, pre_write_reads,
            "{enc_b:?}: cold block_reads on the immutable side"
        );
    }
}

/// One scripted write, and the WAL records it must expand to.
enum Op {
    Insert(Vec<Vec<Value>>),
    /// Positions, pre-sorted and fresh (not yet deleted) by script.
    Delete(Vec<u64>),
}

/// One replayed record's effect on the shadow.
enum Rec {
    Ins(Vec<Value>),
    Del(u64),
}

fn copy_disk(src: &Arc<dyn Disk>) -> Arc<MemDisk> {
    let dst = Arc::new(MemDisk::new());
    for name in src.list() {
        let len = src.len(&name).unwrap() as usize;
        dst.create(&name).unwrap();
        dst.write_at(&name, 0, &src.read_at(&name, 0, len).unwrap())
            .unwrap();
    }
    dst
}

fn truncate_file(disk: &MemDisk, name: &str, keep: usize) {
    let len = disk.len(name).unwrap() as usize;
    let bytes = disk.read_at(name, 0, len.min(keep)).unwrap();
    disk.create(name).unwrap();
    disk.write_at(name, 0, &bytes).unwrap();
}

const RECORD_SIZE: usize = 128;

/// A persistent store on a shared `MemDisk`, a scripted write sequence,
/// and the per-record shadow script.
fn scripted_store() -> (Store, TableId, Vec<Vec<Value>>, Vec<Rec>) {
    let disk = Arc::new(MemDisk::new());
    let store = Store::with_disk(disk, 1 << 12, true);
    let base: Vec<Vec<Value>> = (0..200)
        .map(|i| vec![i, (i * 3) % 11, i * i % 97])
        .collect();
    let a: Vec<Value> = base.iter().map(|r| r[0]).collect();
    let b: Vec<Value> = base.iter().map(|r| r[1]).collect();
    let c: Vec<Value> = base.iter().map(|r| r[2]).collect();
    let spec = ProjectionSpec::new("t")
        .column("a", EncodingKind::Rle, SortOrder::Primary)
        .column("b", EncodingKind::Dict, SortOrder::None)
        .column("c", EncodingKind::Plain, SortOrder::None);
    let t = store.load_projection(&spec, &[&a, &b, &c]).unwrap();

    let ops = [
        Op::Insert((0..5).map(|i| vec![200 + i, i, 500 + i]).collect()),
        Op::Delete(vec![3, 77, 201]),
        Op::Insert((0..4).map(|i| vec![300 + i, i + 5, 600 + i]).collect()),
        Op::Delete(vec![0, 199, 203]),
    ];
    let mut records = Vec::new();
    for op in &ops {
        match op {
            Op::Insert(rows) => {
                store.insert_rows(t, rows).unwrap();
                records.extend(rows.iter().cloned().map(Rec::Ins));
            }
            Op::Delete(positions) => {
                let n = store.delete_positions(t, positions).unwrap();
                assert_eq!(n as usize, positions.len(), "script deletes are fresh");
                records.extend(positions.iter().copied().map(Rec::Del));
            }
        }
    }
    (store, t, base, records)
}

fn scan_all(store: &Store, t: TableId) -> Vec<Value> {
    let db = Database::with_store(store.clone());
    let q = QuerySpec::select(t, vec![0, 1, 2]);
    forced(&db, &q, Strategy::LmParallel)
        .unwrap()
        .flat()
        .to_vec()
}

fn shadow_after(base: &[Vec<Value>], records: &[Rec]) -> Shadow {
    let mut shadow = Shadow::new(base.to_vec());
    for rec in records {
        match rec {
            Rec::Ins(row) => shadow.insert(row.clone()),
            Rec::Del(pos) => shadow.delete(*pos),
        }
    }
    shadow
}

fn flat_live(shadow: &Shadow) -> Vec<Value> {
    shadow
        .live()
        .iter()
        .flat_map(|r| r.iter().copied())
        .collect()
}

/// Proof 2: crash at every WAL record boundary, replay byte-identity.
#[test]
fn crash_at_every_wal_record_boundary_replays_exactly() {
    let (store, t, base, records) = scripted_store();
    let wal_name = format!("wal_t{}.log", t.0);
    let total = store.disk().len(&wal_name).unwrap() as usize / RECORD_SIZE;
    assert_eq!(total, records.len(), "one record per scripted row/position");

    for k in 0..=total {
        let disk = copy_disk(store.disk());
        truncate_file(&disk, &wal_name, k * RECORD_SIZE);
        let reopened = Store::open_disk(disk, 1 << 12).unwrap();
        let reports = reopened.recovery_reports();
        assert_eq!(reports.len(), 1, "crash@{k}: one table had a log");
        assert_eq!(reports[0].table, t);
        assert_eq!(
            reports[0].recovered, k as u64,
            "crash@{k}: records recovered"
        );
        assert_eq!(reports[0].applied, k as u64, "crash@{k}: all live epoch");
        assert!(
            !reports[0].torn,
            "crash@{k}: a whole-record prefix is clean"
        );
        let want = flat_live(&shadow_after(&base, &records[..k]));
        assert_eq!(scan_all(&reopened, t), want, "crash@{k}: replayed bytes");
    }

    // A mid-record tear: the torn record is lost, everything before
    // survives, and the report says so.
    let disk = copy_disk(store.disk());
    truncate_file(&disk, &wal_name, total * RECORD_SIZE - 60);
    let reopened = Store::open_disk(disk, 1 << 12).unwrap();
    let reports = reopened.recovery_reports();
    assert_eq!(reports[0].recovered, total as u64 - 1);
    assert!(reports[0].torn, "partial trailing record reads as torn");
    let want = flat_live(&shadow_after(&base, &records[..total - 1]));
    assert_eq!(scan_all(&reopened, t), want);
}

/// Proof 2b (satellite): a fault-injecting `Disk` wrapper that corrupts
/// the log the way real storage does — truncated tails and flipped bits
/// — must leave replay stopping cleanly with exact recovery counts.
struct TamperDisk {
    inner: MemDisk,
}

impl TamperDisk {
    fn new() -> TamperDisk {
        TamperDisk {
            inner: MemDisk::new(),
        }
    }

    /// Chop the last `n` bytes off `name`.
    fn truncate_tail(&self, name: &str, n: usize) {
        let len = self.inner.len(name).unwrap() as usize;
        truncate_file(&self.inner, name, len.saturating_sub(n));
    }

    /// Flip one bit at `offset` of `name`.
    fn flip_bit(&self, name: &str, offset: usize) {
        let mut byte = self.inner.read_at(name, offset as u64, 1).unwrap();
        byte[0] ^= 0x04;
        self.inner.write_at(name, offset as u64, &byte).unwrap();
    }
}

impl Disk for TamperDisk {
    fn create(&self, name: &str) -> matstrat::common::Result<()> {
        self.inner.create(name)
    }
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> matstrat::common::Result<()> {
        self.inner.write_at(name, offset, data)
    }
    fn read_at(&self, name: &str, offset: u64, len: usize) -> matstrat::common::Result<Vec<u8>> {
        self.inner.read_at(name, offset, len)
    }
    fn len(&self, name: &str) -> matstrat::common::Result<u64> {
        self.inner.len(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

#[test]
fn tampered_wal_tails_recover_the_surviving_prefix() {
    // The script logs 15 records (5 + 3 + 4 + 3). Each fault must lose
    // exactly the records the WAL contract says it loses.
    #[allow(clippy::type_complexity)]
    let cases: [(&str, Box<dyn Fn(&TamperDisk, &str)>); 3] = [
        ("truncated tail", Box::new(|d, f| d.truncate_tail(f, 50))),
        (
            "bit flip in the last record's payload",
            Box::new(|d, f| {
                let len = d.inner.len(f).unwrap() as usize;
                d.flip_bit(f, len - 40);
            }),
        ),
        (
            "bit flip in record 7's stored CRC",
            Box::new(|d, f| d.flip_bit(f, 6 * RECORD_SIZE + 1)),
        ),
    ];
    let survivors = [14u64, 14, 6];

    for ((what, fault), survive) in cases.iter().zip(survivors) {
        let (store, t, base, records) = scripted_store();
        let wal_name = format!("wal_t{}.log", t.0);
        let tampered = Arc::new(TamperDisk::new());
        for name in store.disk().list() {
            let len = store.disk().len(&name).unwrap() as usize;
            tampered.create(&name).unwrap();
            tampered
                .write_at(&name, 0, &store.disk().read_at(&name, 0, len).unwrap())
                .unwrap();
        }
        drop(store); // the crash
        fault(&tampered, &wal_name);

        let reopened = Store::open_disk(tampered, 1 << 12).unwrap();
        let reports = reopened.recovery_reports();
        assert_eq!(reports.len(), 1, "{what}");
        assert_eq!(reports[0].recovered, survive, "{what}: records recovered");
        assert_eq!(reports[0].applied, survive, "{what}: records applied");
        assert!(reports[0].torn, "{what}: the fault reads as a torn tail");
        let want = flat_live(&shadow_after(&base, &records[..survive as usize]));
        assert_eq!(scan_all(&reopened, t), want, "{what}: surviving prefix");
    }
}

/// Proof 3: compaction — racing queries, post-compaction identity, and
/// the crash window between catalog swap and WAL truncation.
#[test]
fn queries_racing_compaction_stay_byte_identical() {
    let (store, t, base, records) = scripted_store();
    let want = flat_live(&shadow_after(&base, &records));
    let db = Database::with_store(store.clone());
    let q = QuerySpec::select(t, vec![0, 1, 2]);
    assert_eq!(forced(&db, &q, Strategy::EmParallel).unwrap().flat(), want);

    // Query threads hammer the scan while the main thread compacts; no
    // iteration may observe anything but the logical bytes.
    let start = Barrier::new(5);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..4 {
            let (store, q, want, start, done) = (&store, &q, &want, &start, &done);
            scope.spawn(move || {
                let db = Database::with_store(store.clone());
                start.wait();
                let mut seen = 0u32;
                while !done.load(Ordering::Relaxed) || seen < 3 {
                    let got = forced(&db, q, Strategy::LmPipelined).unwrap();
                    assert_eq!(got.flat(), want, "worker {w}: racing compaction");
                    seen += 1;
                }
            });
        }
        start.wait();
        assert!(store.compact(t).unwrap(), "the delta was dirty");
        done.store(true, Ordering::Relaxed);
    });

    // Post-compaction: same bytes, no delta, clean WAL.
    let (info, delta) = store.scan_snapshot(t).unwrap();
    assert!(delta.is_none(), "compaction folded the delta");
    assert_eq!(info.num_rows as usize, want.len() / 3);
    assert_eq!(forced(&db, &q, Strategy::EmParallel).unwrap().flat(), want);
    assert_eq!(store.disk().len(&format!("wal_t{}.log", t.0)).unwrap(), 0);

    // A reopened store agrees (pure immutable blocks now).
    let reopened = Store::open_disk(copy_disk(store.disk()), 1 << 12).unwrap();
    assert_eq!(scan_all(&reopened, t), want);
}

#[test]
fn crash_between_catalog_swap_and_wal_truncation_is_a_no_op_replay() {
    let (store, t, base, records) = scripted_store();
    let want = flat_live(&shadow_after(&base, &records));
    let wal_name = format!("wal_t{}.log", t.0);
    let len = store.disk().len(&wal_name).unwrap() as usize;
    let stale = store.disk().read_at(&wal_name, 0, len).unwrap();

    assert!(store.compact(t).unwrap());

    // Simulate the crash window: the new-epoch catalog is durable but
    // the old log never got truncated.
    let disk = copy_disk(store.disk());
    disk.create(&wal_name).unwrap();
    disk.write_at(&wal_name, 0, &stale).unwrap();
    let reopened = Store::open_disk(disk, 1 << 12).unwrap();
    let reports = reopened.recovery_reports();
    assert_eq!(reports[0].recovered, records.len() as u64, "records parse");
    assert_eq!(reports[0].applied, 0, "but every one is a stale epoch");
    assert!(!reports[0].torn);
    assert_eq!(scan_all(&reopened, t), want, "no double-apply");
    let (_, delta) = reopened.scan_snapshot(t).unwrap();
    assert!(delta.is_none(), "stale records rebuild no delta");
}

/// Writes racing the background compactor: logical content is writer-
/// defined, so the shadow stays exact no matter when the compactor runs.
#[test]
fn writes_racing_the_background_compactor_stay_exact() {
    let db = Database::in_memory();
    let base: Vec<Vec<Value>> = (0..300).map(|i| vec![i, i % 7]).collect();
    let a: Vec<Value> = base.iter().map(|r| r[0]).collect();
    let b: Vec<Value> = base.iter().map(|r| r[1]).collect();
    let spec = ProjectionSpec::new("t")
        .column("a", EncodingKind::Plain, SortOrder::Primary)
        .column("b", EncodingKind::Plain, SortOrder::None);
    let t = db.load_projection(&spec, &[&a, &b]).unwrap();
    let mut shadow = Shadow::new(base);

    let compactor = db.spawn_compactor(std::time::Duration::from_millis(1));
    let q = QuerySpec::select(t, vec![0, 1]);
    for round in 0..40i64 {
        let fresh: Vec<Vec<Value>> = (0..3)
            .map(|i| vec![1000 + round * 3 + i, round % 7])
            .collect();
        db.insert(t, &fresh).unwrap();
        for row in fresh {
            shadow.insert(row);
        }
        // Content-addressed delete: position-stable across compactions.
        let victim = 1000 + round * 3;
        let n = db.delete_where(t, &[(0, Predicate::eq(victim))]).unwrap();
        assert_eq!(n, 1, "round {round}: exactly one row matches {victim}");
        // The shadow deletes by content too (position spaces diverge
        // once the compactor folds).
        let pos = shadow
            .rows
            .iter()
            .enumerate()
            .position(|(i, r)| r[0] == victim && !shadow.deleted.contains(&(i as u64)))
            .unwrap();
        shadow.delete(pos as u64);

        let want: Vec<Value> = flat_live(&shadow);
        let got = forced(&db, &q, Strategy::LmParallel).unwrap();
        assert_eq!(got.flat(), want, "round {round}: racing the compactor");
    }
    compactor.stop();
    db.compact_all().unwrap();
    assert_eq!(
        forced(&db, &q, Strategy::EmPipelined).unwrap().flat(),
        flat_live(&shadow),
        "post-quiesce"
    );
}

/// Proof 4: joins and join trees merge the delta on both sides.
#[test]
fn joins_merge_deltas_on_both_sides() {
    let db = Database::in_memory();
    let fact_rows: Vec<Vec<Value>> = (0..500)
        .map(|i| vec![(i * 31) % 40, (i * 17) % 90])
        .collect();
    let fk: Vec<Value> = fact_rows.iter().map(|r| r[0]).collect();
    let fv: Vec<Value> = fact_rows.iter().map(|r| r[1]).collect();
    let fact = db
        .load_projection(
            &ProjectionSpec::new("fact")
                .column("k", EncodingKind::Plain, SortOrder::None)
                .column("v", EncodingKind::Plain, SortOrder::None),
            &[&fk, &fv],
        )
        .unwrap();
    let dim_rows: Vec<Vec<Value>> = (0..40).map(|i| vec![i, i * 3 + 1, (i * 5) % 16]).collect();
    let dk: Vec<Value> = dim_rows.iter().map(|r| r[0]).collect();
    let dx: Vec<Value> = dim_rows.iter().map(|r| r[1]).collect();
    let dr: Vec<Value> = dim_rows.iter().map(|r| r[2]).collect();
    let dim = db
        .load_projection(
            &ProjectionSpec::new("dim")
                .column("dk", EncodingKind::Plain, SortOrder::Primary)
                .column("x", EncodingKind::Plain, SortOrder::None)
                .column("r", EncodingKind::Plain, SortOrder::None),
            &[&dk, &dx, &dr],
        )
        .unwrap();
    let sub_rows: Vec<Vec<Value>> = (0..16).map(|i| vec![i, 900 + i]).collect();
    let sk: Vec<Value> = sub_rows.iter().map(|r| r[0]).collect();
    let sy: Vec<Value> = sub_rows.iter().map(|r| r[1]).collect();
    let sub = db
        .load_projection(
            &ProjectionSpec::new("sub")
                .column("sk", EncodingKind::Plain, SortOrder::Primary)
                .column("y", EncodingKind::Plain, SortOrder::None),
            &[&sk, &sy],
        )
        .unwrap();

    let mut f = Shadow::new(fact_rows);
    let mut d = Shadow::new(dim_rows);
    // Dirty both sides: fact gains rows keyed at both old and brand-new
    // dim keys, dim gains the new keys and loses two old ones; some
    // fact rows die too.
    for i in 0..12 {
        let row = vec![38 + i % 4, 200 + i];
        db.insert(fact, std::slice::from_ref(&row)).unwrap();
        f.insert(row);
    }
    for i in 40..42 {
        let row = vec![i, i * 3 + 1, (i * 5) % 16];
        db.insert(dim, std::slice::from_ref(&row)).unwrap();
        d.insert(row);
    }
    db.store().delete_positions(dim, &[5, 11]).unwrap();
    d.delete(5);
    d.delete(11);
    let dead_fact = delete_where(db.store(), fact, &[(1, Predicate::lt(4))]).unwrap();
    assert!(dead_fact > 0);
    for (i, row) in f.rows.clone().iter().enumerate() {
        if row[1] < 4 {
            f.delete(i as u64);
        }
    }

    // Nested-loop oracle over live shadows, probe order outer-first.
    let filter = Predicate::ge(10);
    let mut want: Vec<Vec<Value>> = Vec::new();
    for frow in f.live() {
        if !filter.matches(frow[1]) {
            continue;
        }
        for drow in d.live() {
            if drow[0] == frow[0] {
                want.push(vec![frow[1], drow[1], drow[2]]);
            }
        }
    }
    let mut want_sorted = want.clone();
    want_sorted.sort_unstable();

    let spec = JoinSpec {
        left: fact,
        right: dim,
        left_key: 0,
        right_key: 0,
        left_filter: Some((1, filter)),
        right_filter: None,
        left_output: vec![1],
        right_output: vec![1, 2],
    };
    for inner in [
        InnerStrategy::Materialized,
        InnerStrategy::MultiColumn,
        InnerStrategy::SingleColumn,
    ] {
        for threads in [1usize, 4] {
            let opts = ExecOptions {
                granule: 128,
                parallelism: threads,
                ..ExecOptions::default()
            };
            let got = db
                .execute_planned(
                    &Statement::JoinTree(JoinTreeSpec::new(vec![spec.clone()])),
                    &QueryPlan::forced_tree(vec![0], vec![inner]),
                    &opts,
                )
                .unwrap()
                .rows;
            let mut rows: Vec<Vec<Value>> = got.rows().map(|r| r.to_vec()).collect();
            rows.sort_unstable();
            assert_eq!(rows, want_sorted, "{inner:?} threads={threads}");
        }
    }

    // Snowflake: fact ⋈ dim ⋈ sub (keyed through dim.r), dim delta rows
    // participating as through-table rows.
    let tree = JoinTreeSpec::new(vec![
        JoinSpec {
            left: fact,
            right: dim,
            left_key: 0,
            right_key: 0,
            left_filter: Some((1, filter)),
            right_filter: None,
            left_output: vec![1],
            right_output: vec![1],
        },
        JoinSpec {
            left: dim,
            right: sub,
            left_key: 2,
            right_key: 0,
            left_filter: None,
            right_filter: None,
            left_output: vec![],
            right_output: vec![1],
        },
    ]);
    let mut tree_want: Vec<Vec<Value>> = Vec::new();
    for frow in f.live() {
        if !filter.matches(frow[1]) {
            continue;
        }
        for drow in d.live() {
            if drow[0] == frow[0] {
                for srow in &sub_rows {
                    if srow[0] == drow[2] {
                        tree_want.push(vec![frow[1], drow[1], srow[1]]);
                    }
                }
            }
        }
    }
    tree_want.sort_unstable();
    for threads in [1usize, 4] {
        let opts = ExecOptions {
            granule: 128,
            parallelism: threads,
            ..ExecOptions::default()
        };
        let (got, _) = hash_join_tree_with_options(
            db.store(),
            &tree,
            &JoinTreePlan::in_spec_order(vec![
                InnerStrategy::MultiColumn,
                InnerStrategy::Materialized,
            ]),
            &opts,
        )
        .unwrap();
        let mut rows: Vec<Vec<Value>> = got.rows().map(|r| r.to_vec()).collect();
        rows.sort_unstable();
        assert_eq!(rows, tree_want, "tree threads={threads}");
    }

    // And the whole thing holds after both tables fold their deltas.
    assert_eq!(db.compact_all().unwrap(), 2);
    let got = db
        .execute_planned(
            &Statement::JoinTree(JoinTreeSpec::new(vec![spec])),
            &QueryPlan::forced_tree(vec![0], vec![InnerStrategy::MultiColumn]),
            &db.exec_options(),
        )
        .unwrap()
        .rows;
    let mut rows: Vec<Vec<Value>> = got.rows().map(|r| r.to_vec()).collect();
    rows.sort_unstable();
    assert_eq!(rows, want_sorted, "post-compaction join");
}

/// The SQL front-end drives the same write path: INSERT/DELETE through
/// a server session, reads seeing the writes.
#[test]
fn insert_and_delete_statements_execute_through_a_session() {
    let store = Store::in_memory();
    let rows: Vec<Value> = (0..50).collect();
    let spec = ProjectionSpec::new("t")
        .column("a", EncodingKind::Plain, SortOrder::Primary)
        .column("b", EncodingKind::Plain, SortOrder::None);
    store.load_projection(&spec, &[&rows, &rows]).unwrap();
    let server = Server::new(
        store.clone(),
        ServerConfig {
            max_concurrent: 2,
            worker_budget: 2,
        },
    );
    let session = server.connect();

    let run = |sql: &str| {
        let req = compile(&store, sql).unwrap();
        session.run(&req).unwrap()
    };
    let wrote = run("INSERT INTO t VALUES (100, 1), (101, 2), (102, 3)");
    assert_eq!(wrote.rows_affected(), Some(3));
    let wrote = run("DELETE FROM t WHERE a BETWEEN 10 AND 19 AND b < 15");
    assert_eq!(wrote.rows_affected(), Some(5), "rows 10..15 die");
    let wrote = run("DELETE FROM t WHERE a = 101");
    assert_eq!(wrote.rows_affected(), Some(1));
    let read = run("SELECT a, b FROM t");
    assert_eq!(read.result().num_rows(), 50 + 3 - 5 - 1);
    let read = run("SELECT a, b FROM t WHERE a >= 100");
    assert_eq!(read.result().flat(), vec![100, 1, 102, 3]);
    assert_eq!(read.block_reads(), 0, "warm after the full scan");
}

// ---- Proof 5: reclaim ---------------------------------------------------

/// The `*.col` files on `disk`, sorted.
fn col_files(disk: &dyn Disk) -> Vec<String> {
    let mut files: Vec<String> = disk
        .list()
        .into_iter()
        .filter(|f| f.ends_with(".col"))
        .collect();
    files.sort();
    files
}

/// The column files the catalog names for `t`, sorted.
fn catalog_files(store: &Store, t: TableId) -> Vec<String> {
    let mut files: Vec<String> = store
        .projection(t)
        .unwrap()
        .columns
        .iter()
        .map(|c| c.file.clone())
        .collect();
    files.sort();
    files
}

fn total_bytes(disk: &dyn Disk) -> u64 {
    disk.list().iter().map(|f| disk.len(f).unwrap()).sum()
}

/// Every value of every column, decoded through `readers`.
fn decode_columns(readers: &[ColumnReader]) -> Vec<Vec<Value>> {
    readers
        .iter()
        .map(|r| {
            let mut vals = Vec::new();
            for b in 0..r.num_blocks() {
                r.block(b).unwrap().decode_all(&mut vals);
            }
            vals
        })
        .collect()
}

/// Proof 5a: what a reader started on, it finishes on.
#[test]
fn a_pinned_generation_outlives_compactions_and_goes_with_its_last_pin() {
    let (store, t, _, _) = scripted_store();
    let disk = Arc::clone(store.disk());
    let (info, delta) = store.scan_snapshot(t).unwrap();
    let delta = delta.expect("the script left a delta");
    let inserted = delta.num_inserts();
    let readers: Vec<ColumnReader> = (0..3)
        .map(|c| store.reader_for(&info, None, c).unwrap())
        .collect();
    let pinned = catalog_files(&store, t);
    let bytes_of = |f: &String| disk.read_at(f, 0, disk.len(f).unwrap() as usize).unwrap();
    let file_bytes: Vec<Vec<u8>> = pinned.iter().map(bytes_of).collect();
    let want = decode_columns(&readers);

    // The compaction the snapshot predates, then three more.
    for round in 0..4i64 {
        store
            .insert_rows(t, &[vec![400 + round, round, 700 + round]])
            .unwrap();
        assert!(store.compact(t).unwrap());
        let mut on_disk = pinned.clone();
        on_disk.extend(catalog_files(&store, t));
        on_disk.sort();
        assert_eq!(
            col_files(disk.as_ref()),
            on_disk,
            "round {round}: the pinned generation and the current one, nothing in between"
        );
    }

    // Same files, same bytes, same rows — cold, so the blocks really
    // come off the disk again — and the delta snapshot is as it was.
    assert_eq!(pinned.iter().map(bytes_of).collect::<Vec<_>>(), file_bytes);
    store.cold_reset();
    assert_eq!(decode_columns(&readers), want);
    assert_eq!(delta.num_inserts(), inserted);
    assert!(pinned.iter().any(|f| store.pool().resident_blocks(f) > 0));

    // Any one pin keeps all of it; the last one takes it along.
    drop((info, delta));
    let mut readers = readers;
    while readers.len() > 1 {
        readers.pop();
        assert!(pinned.iter().all(|f| disk.exists(f)));
    }
    assert_eq!(decode_columns(&readers), want[..1]);
    readers.clear();
    assert_eq!(col_files(disk.as_ref()), catalog_files(&store, t));
    for f in &pinned {
        assert_eq!(store.pool().resident_blocks(f), 0, "{f}: blocks went too");
    }
}

/// Rows keyed by `k` whose other columns are functions of it, so a scan
/// that stitched two generations together would show.
fn keyed_row(k: Value) -> Vec<Value> {
    vec![k, k % 7, k * 3 + 1]
}

fn keyed_spec() -> ProjectionSpec {
    ProjectionSpec::new("t")
        .column("k", EncodingKind::Plain, SortOrder::Primary)
        .column("m", EncodingKind::Dict, SortOrder::None)
        .column("v", EncodingKind::Plain, SortOrder::None)
}

fn load_keyed(store: &Store, keys: impl Iterator<Item = Value>) -> TableId {
    let rows: Vec<Vec<Value>> = keys.map(keyed_row).collect();
    let cols: Vec<Vec<Value>> = (0..3)
        .map(|c| rows.iter().map(|r| r[c]).collect())
        .collect();
    store
        .load_projection(&keyed_spec(), &[&cols[0], &cols[1], &cols[2]])
        .unwrap()
}

/// One insert/delete/compact cycle on a keyed table: eight new keys in,
/// the six oldest live keys out. Returns the column files the compaction
/// retired.
fn keyed_cycle(
    store: &Store,
    t: TableId,
    live: &mut BTreeSet<Value>,
    next_key: &mut Value,
) -> Vec<String> {
    let fresh: Vec<Vec<Value>> = (0..8).map(|i| keyed_row(*next_key + i)).collect();
    live.extend(fresh.iter().map(|r| r[0]));
    *next_key += 8;
    store.insert_rows(t, &fresh).unwrap();
    let doomed: Vec<Value> = live.iter().take(6).copied().collect();
    let (lo, hi) = (doomed[0], doomed[5]);
    let gone = delete_where(store, t, &[(0, Predicate::between(lo, hi))]).unwrap();
    assert_eq!(gone, 6, "keys {lo}..={hi} were live");
    for k in doomed {
        live.remove(&k);
    }
    let retired = catalog_files(store, t);
    assert!(store.compact(t).unwrap());
    retired
}

/// Proof 5b: fifty cycles under racing readers leave one generation.
#[test]
fn compaction_cycles_under_racing_readers_leave_one_generation() {
    let disk = Arc::new(MemDisk::new());
    let store = Store::with_disk(Arc::clone(&disk) as Arc<dyn Disk>, 1 << 12, true);
    let t = load_keyed(&store, 0..3000);
    let mut live: BTreeSet<Value> = (0..3000).collect();
    let mut next_key = 3000;
    let mut retired: Vec<String> = Vec::new();

    let done = AtomicBool::new(false);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let start = Barrier::new(5);
    std::thread::scope(|scope| {
        for w in 0..4usize {
            let (store, done, errors, start) = (&store, &done, &errors, &start);
            scope.spawn(move || {
                let db = Database::with_store(store.clone());
                let scan = QuerySpec::select(t, vec![0, 1, 2]).filter(1, Predicate::lt(5));
                let sum = QuerySpec::select(t, vec![]).aggregate_sum(1, 2);
                start.wait();
                let mut rounds = 0u32;
                while !done.load(Ordering::Relaxed) || rounds < 3 {
                    rounds += 1;
                    let (q, s) = match w {
                        0 => (&scan, Strategy::LmParallel),
                        1 => (&scan, Strategy::EmPipelined),
                        2 => (&scan, Strategy::LmPipelined),
                        _ => (&sum, Strategy::EmParallel),
                    };
                    match forced(&db, q, s) {
                        Err(e) => errors.lock().unwrap().push(format!("reader {w}: {e}")),
                        Ok(got) if w < 3 => {
                            if let Some(bad) = got.rows().find(|r| r != &keyed_row(r[0])) {
                                errors
                                    .lock()
                                    .unwrap()
                                    .push(format!("reader {w}: stitched row {bad:?}"));
                            }
                        }
                        Ok(_) => {}
                    }
                }
            });
        }
        start.wait();
        for _ in 0..50 {
            retired.extend(keyed_cycle(&store, t, &mut live, &mut next_key));
        }
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(*errors.lock().unwrap(), Vec::<String>::new());

    // One generation, the log and the catalog — and nothing else.
    let mut want_files = catalog_files(&store, t);
    want_files.push("catalog.msc".into());
    want_files.push(format!("wal_t{}.log", t.0));
    want_files.sort();
    let mut on_disk = disk.list();
    on_disk.sort();
    assert_eq!(on_disk, want_files);
    assert_eq!(retired.len(), 150);
    for f in &retired {
        assert_eq!(store.pool().resident_blocks(f), 0, "{f} is still pooled");
    }

    // As small as a store that was loaded with these rows to begin with.
    let fresh_disk = Arc::new(MemDisk::new());
    let fresh = Store::with_disk(Arc::clone(&fresh_disk) as Arc<dyn Disk>, 1 << 12, true);
    let ft = load_keyed(&fresh, live.iter().copied());
    let (ours, theirs) = (total_bytes(disk.as_ref()), total_bytes(fresh_disk.as_ref()));
    assert!(
        ours.abs_diff(theirs) * 20 <= theirs,
        "{ours} bytes after 50 cycles, {theirs} freshly loaded"
    );
    assert_eq!(scan_all(&store, t), scan_all(&fresh, ft));
}

/// A `MemDisk` that photographs itself before every step that changes
/// it, while armed — one crash image per step.
struct CrashCam {
    inner: Arc<dyn Disk>,
    armed: AtomicBool,
    images: Mutex<Vec<(String, Arc<MemDisk>)>>,
}

impl CrashCam {
    fn new() -> CrashCam {
        CrashCam {
            inner: Arc::new(MemDisk::new()),
            armed: AtomicBool::new(false),
            images: Mutex::new(Vec::new()),
        }
    }

    fn shoot(&self, step: String) {
        if self.armed.load(Ordering::Relaxed) {
            self.images
                .lock()
                .unwrap()
                .push((step, copy_disk(&self.inner)));
        }
    }
}

impl Disk for CrashCam {
    fn create(&self, name: &str) -> matstrat::common::Result<()> {
        self.shoot(format!("before create {name}"));
        self.inner.create(name)
    }
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> matstrat::common::Result<()> {
        self.shoot(format!("before write {name}@{offset}"));
        self.inner.write_at(name, offset, data)
    }
    fn read_at(&self, name: &str, offset: u64, len: usize) -> matstrat::common::Result<Vec<u8>> {
        self.inner.read_at(name, offset, len)
    }
    fn len(&self, name: &str) -> matstrat::common::Result<u64> {
        self.inner.len(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn remove(&self, name: &str) -> matstrat::common::Result<()> {
        self.shoot(format!("before remove {name}"));
        self.inner.remove(name)
    }
    // The default copy-then-remove would tear the catalog mid-copy; a
    // crash-tested disk forwards the one-step rename.
    fn rename(&self, from: &str, to: &str) -> matstrat::common::Result<()> {
        self.shoot(format!("before rename {from} to {to}"));
        self.inner.rename(from, to)
    }
}

/// Proof 5c: crash at every step of compact → persist → truncate →
/// remove. Whatever the image holds — half a new generation, both
/// generations, the old one half removed — reopening yields the shadow's
/// rows, and the sweep leaves exactly the files the catalog names.
#[test]
fn a_crash_at_every_step_of_a_compaction_reopens_clean() {
    let cam = Arc::new(CrashCam::new());
    let store = Store::with_disk(Arc::clone(&cam) as Arc<dyn Disk>, 1 << 12, true);
    let t = load_keyed(&store, 0..500);
    let mut live: BTreeSet<Value> = (0..500).collect();
    let mut next_key = 500;
    keyed_cycle(&store, t, &mut live, &mut next_key);
    // A dirty delta again, so the log matters on both sides of the swap.
    store.insert_rows(t, &[keyed_row(next_key)]).unwrap();
    live.insert(next_key);
    store.delete_positions(t, &[0, 1]).unwrap();
    for k in live.iter().take(2).copied().collect::<Vec<_>>() {
        live.remove(&k);
    }
    let want: Vec<Value> = live.iter().flat_map(|&k| keyed_row(k)).collect();
    assert_eq!(scan_all(&store, t), want);

    cam.armed.store(true, Ordering::Relaxed);
    assert!(store.compact(t).unwrap());
    cam.shoot("after the compaction".into());
    cam.armed.store(false, Ordering::Relaxed);

    let images = std::mem::take(&mut *cam.images.lock().unwrap());
    let steps: Vec<&str> = images.iter().map(|(s, _)| s.as_str()).collect();
    for needle in [
        "create t0_c0",
        "create catalog.msc",
        "write catalog.msc.tmp",
        "rename catalog.msc.tmp to catalog.msc",
        "create wal_t0",
        "remove t0_c2",
    ] {
        assert!(
            steps.iter().any(|s| s.contains(needle)),
            "no image {needle:?} in {steps:?}"
        );
    }
    for (step, image) in images {
        let orphans_before = col_files(image.as_ref()).len();
        let reopened = Store::open_disk(image.clone(), 1 << 12)
            .unwrap_or_else(|e| panic!("crash {step}: reopen failed: {e}"));
        assert_eq!(scan_all(&reopened, t), want, "crash {step}: rows");
        assert_eq!(
            col_files(image.as_ref()),
            catalog_files(&reopened, t),
            "crash {step}: {orphans_before} column files before the sweep"
        );
    }
}

/// Proof 5d: the same on a disk that forwards only the required methods
/// (the shape of `TamperDisk`, and of any `Disk` written before `remove`
/// existed): the default `remove` frees the bytes and leaves empty stubs
/// nothing reads or counts.
#[test]
fn reclaim_frees_the_bytes_on_a_forwarding_only_disk() {
    let disk = Arc::new(TamperDisk::new());
    let store = Store::with_disk(Arc::clone(&disk) as Arc<dyn Disk>, 1 << 12, true);
    let t = load_keyed(&store, 0..3000);
    let mut live: BTreeSet<Value> = (0..3000).collect();
    let mut next_key = 3000;
    let mut retired: Vec<String> = Vec::new();
    for _ in 0..12 {
        retired.extend(keyed_cycle(&store, t, &mut live, &mut next_key));
    }
    for f in &retired {
        assert_eq!(disk.len(f).unwrap(), 0, "{f}: truncated to a stub");
        assert_eq!(store.pool().resident_blocks(f), 0);
    }
    let want = scan_all(&store, t);

    // A crash strands a column file no catalog names; the reopen's sweep
    // frees it the same way, and recovery never looks at a stub.
    let stray = "t0_c0_k_e99.col";
    let current = &catalog_files(&store, t)[0];
    let bytes = disk
        .read_at(current, 0, disk.len(current).unwrap() as usize)
        .unwrap();
    disk.create(stray).unwrap();
    disk.write_at(stray, 0, &bytes).unwrap();
    drop(store);
    let reopened = Store::open_disk(Arc::clone(&disk) as Arc<dyn Disk>, 1 << 12).unwrap();
    assert_eq!(disk.len(stray).unwrap(), 0);
    assert_eq!(scan_all(&reopened, t), want);

    let fresh_disk = Arc::new(MemDisk::new());
    let fresh = Store::with_disk(Arc::clone(&fresh_disk) as Arc<dyn Disk>, 1 << 12, true);
    load_keyed(&fresh, live.iter().copied());
    let (ours, theirs) = (total_bytes(disk.as_ref()), total_bytes(fresh_disk.as_ref()));
    assert!(
        ours.abs_diff(theirs) * 20 <= theirs,
        "{ours} bytes after 12 cycles on a forwarding disk, {theirs} freshly loaded"
    );
}
