//! The interleaving differential: a batch of mixed queries submitted
//! through concurrent sessions must be **byte-identical** — results and
//! per-query cold `block_reads` — to the same batch run serially, at
//! every client-thread count in {1, 2, 4, 8} and pool shard count in
//! {1, 2}.
//!
//! Per-query I/O is charged to each statement's own ledger (`QueryIo`,
//! installed on every worker the statement fans out to), and a cold block
//! is charged to the thread whose buffer-pool fill read it and to
//! nobody else — a query served by another query's fill, whether it
//! found the block resident or waited for it, pays nothing. Queries
//! racing on the *same* table may therefore split the reads between
//! them nondeterministically — but exactly: every cold fill is charged
//! to precisely one of them. The main battery gives each query its own
//! tables so the per-query expectation is exact; the overlapping-table
//! test below pins the split-but-exact contract over many rounds, and
//! the pool's own unit test forces the waiting interleaving.
//!
//! The batch is written in the dialect and compiled against the catalog
//! (`matstrat_lang`), so the text front-end sits in the proven path too.

use std::sync::{Arc, Barrier};

use matstrat::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SHARD_COUNTS: [usize; 2] = [1, 2];

/// The mixed batch: plain scans, aggregations, a single join, a star,
/// and a snowflake — each over its own tables (see the module docs).
const BATCH: [&str; 9] = [
    "SELECT k, v FROM t1 WHERE v < 60 AND w != 5",
    "SELECT w, v, k FROM t2 WHERE k BETWEEN 4000 AND 21000",
    "SELECT g, SUM(v) FROM t3 WHERE v > 10 GROUP BY g",
    "SELECT g, COUNT(v) FROM t4 WHERE v BETWEEN 5 AND 80 GROUP BY g",
    "SELECT f5.v, d5.x FROM f5 JOIN d5 ON f5.k = d5.dk",
    "SELECT f6.v, d6.x FROM f6 JOIN d6 ON f6.k = d6.dk WHERE f6.v < 40",
    "SELECT f7.v, d7a.x, d7b.x FROM f7 \
     JOIN d7a ON f7.k1 = d7a.dk JOIN d7b ON f7.k2 = d7b.dk WHERE f7.v < 70",
    "SELECT f8.v, d8a.x, d8b.x FROM f8 \
     JOIN d8a ON f8.k = d8a.dk JOIN d8b ON d8a.r = d8b.dk",
    "SELECT g, MAX(v) FROM t9 GROUP BY g",
];

const FACT_ROWS: i64 = 30_000;
const DIM_ROWS: i64 = 512;

/// Deterministic pseudo-data: multiplicative scrambles, nothing random.
fn build_store() -> matstrat::storage::Store {
    load_tables(matstrat::storage::Store::in_memory())
}

/// A fresh store whose pool is striped `shards` ways, holding the same
/// tables as [`build_store`].
fn striped_store(shards: usize) -> matstrat::storage::Store {
    use matstrat::storage::{store::DEFAULT_POOL_BLOCKS, BufferPool, MemDisk, Store};
    let pool = BufferPool::with_shards(DEFAULT_POOL_BLOCKS, shards);
    load_tables(Store::with_pool(Arc::new(MemDisk::new()), pool, false))
}

fn load_tables(store: matstrat::storage::Store) -> matstrat::storage::Store {
    let n = FACT_ROWS;

    // Scan tables t1..t4, t9: k 0..n sorted, v/w/g scrambled.
    for name in ["t1", "t2", "t3", "t4", "t9"] {
        let k: Vec<Value> = (0..n).collect();
        let v: Vec<Value> = (0..n).map(|i| (i * 7919) % 101).collect();
        let w: Vec<Value> = (0..n).map(|i| i % 13).collect();
        let g: Vec<Value> = (0..n).map(|i| i / 1000).collect();
        let spec = ProjectionSpec::new(name)
            .column("k", EncodingKind::Plain, SortOrder::Primary)
            .column("v", EncodingKind::Plain, SortOrder::None)
            .column("w", EncodingKind::Plain, SortOrder::None)
            .column("g", EncodingKind::Plain, SortOrder::None);
        store.load_projection(&spec, &[&k, &v, &w, &g]).unwrap();
    }

    // Single-key facts f5, f6, f8 and their dimensions.
    for (fact, dim) in [("f5", "d5"), ("f6", "d6"), ("f8", "d8a")] {
        let k: Vec<Value> = (0..n).map(|i| (i * 31) % DIM_ROWS).collect();
        let v: Vec<Value> = (0..n).map(|i| (i * 17) % 97).collect();
        let spec = ProjectionSpec::new(fact)
            .column("k", EncodingKind::Plain, SortOrder::None)
            .column("v", EncodingKind::Plain, SortOrder::None);
        store.load_projection(&spec, &[&k, &v]).unwrap();

        let dk: Vec<Value> = (0..DIM_ROWS).collect();
        let x: Vec<Value> = (0..DIM_ROWS).map(|i| i * 3 + 1).collect();
        let r: Vec<Value> = (0..DIM_ROWS).map(|i| (i * 5) % 64).collect();
        let spec = ProjectionSpec::new(dim)
            .column("dk", EncodingKind::Plain, SortOrder::Primary)
            .column("x", EncodingKind::Plain, SortOrder::None)
            .column("r", EncodingKind::Plain, SortOrder::None);
        store.load_projection(&spec, &[&dk, &x, &r]).unwrap();
    }

    // The two-key star fact f7 and dimensions d7a/d7b, plus the second
    // snowflake hop d8b (keyed by d8a.r ∈ 0..64).
    let k1: Vec<Value> = (0..n).map(|i| (i * 13) % DIM_ROWS).collect();
    let k2: Vec<Value> = (0..n).map(|i| (i * 29) % DIM_ROWS).collect();
    let v: Vec<Value> = (0..n).map(|i| (i * 23) % 89).collect();
    let spec = ProjectionSpec::new("f7")
        .column("k1", EncodingKind::Plain, SortOrder::None)
        .column("k2", EncodingKind::Plain, SortOrder::None)
        .column("v", EncodingKind::Plain, SortOrder::None);
    store.load_projection(&spec, &[&k1, &k2, &v]).unwrap();
    for (dim, rows) in [("d7a", DIM_ROWS), ("d7b", DIM_ROWS), ("d8b", 64)] {
        let dk: Vec<Value> = (0..rows).collect();
        let x: Vec<Value> = (0..rows).map(|i| i * 7 + 2).collect();
        let spec = ProjectionSpec::new(dim)
            .column("dk", EncodingKind::Plain, SortOrder::Primary)
            .column("x", EncodingKind::Plain, SortOrder::None);
        store.load_projection(&spec, &[&dk, &x]).unwrap();
    }

    store
}

fn requests(store: &matstrat::storage::Store) -> Vec<Statement> {
    BATCH
        .iter()
        .map(|sql| {
            compile(store, sql).unwrap_or_else(|e| panic!("batch query failed to compile:\n{e}"))
        })
        .collect()
}

/// What must be identical per query across every interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    result: QueryResult,
    block_reads: u64,
    rows_out: u64,
}

fn fingerprint(reply: QueryOutcome) -> Fingerprint {
    let rows_out = match reply.choice {
        QueryPlan::Write => 0,
        _ => reply.stats.rows_out,
    };
    Fingerprint {
        block_reads: reply.block_reads(),
        result: reply.rows,
        rows_out,
    }
}

/// Serial reference: one session, one query at a time, each from a cold
/// pool — the per-query cold cost with nothing else running.
fn run_serial(store: &matstrat::storage::Store) -> Vec<Fingerprint> {
    let server = Server::new(
        store.clone(),
        ServerConfig {
            max_concurrent: 1,
            worker_budget: 1,
        },
    );
    let session = server.connect();
    requests(store)
        .iter()
        .map(|req| {
            store.cold_reset();
            fingerprint(session.run(req).unwrap())
        })
        .collect()
}

/// Interleaved run: one cold reset, then the batch spread round-robin
/// over `threads` client sessions that start together. Disjoint tables
/// make every query cold exactly once, whatever the interleaving.
fn run_interleaved(store: &matstrat::storage::Store, threads: usize) -> Vec<Fingerprint> {
    store.cold_reset();
    let server = Server::new(
        store.clone(),
        ServerConfig {
            max_concurrent: threads,
            worker_budget: threads.max(2),
        },
    );
    let reqs = requests(store);
    let barrier = Arc::new(Barrier::new(threads));
    let mut out: Vec<Option<Fingerprint>> = vec![None; reqs.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let server = &server;
            let reqs = &reqs;
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                let session = server.connect();
                barrier.wait();
                let mut mine = Vec::new();
                for (i, req) in reqs.iter().enumerate().skip(t).step_by(threads) {
                    mine.push((i, fingerprint(session.run(req).unwrap())));
                }
                mine
            }));
        }
        for h in handles {
            for (i, fp) in h.join().unwrap() {
                out[i] = Some(fp);
            }
        }
    });
    let stats = server.stats();
    assert_eq!(stats.admitted as usize, BATCH.len());
    assert_eq!(stats.completed as usize, BATCH.len());
    assert!(stats.peak_active <= threads, "admission bound held");
    out.into_iter().map(Option::unwrap).collect()
}

#[test]
fn interleaved_batches_are_byte_identical_to_serial() {
    let store = build_store();
    let reference = run_serial(&store);
    for (i, fp) in reference.iter().enumerate() {
        assert!(fp.block_reads > 0, "query {i} should do cold I/O");
        assert!(fp.rows_out > 0, "query {i} should produce rows");
    }

    for shards in SHARD_COUNTS {
        let store = striped_store(shards);
        assert_eq!(store.pool().num_shards(), shards);
        for threads in THREAD_COUNTS {
            let got = run_interleaved(&store, threads);
            for (i, (got, want)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.result, want.result,
                    "query {i} result drifted (threads={threads}, shards={shards})"
                );
                assert_eq!(
                    got.block_reads, want.block_reads,
                    "query {i} cold block_reads drifted (threads={threads}, shards={shards})"
                );
                assert_eq!(got.rows_out, want.rows_out, "query {i} rows_out");
            }
        }
        // The serial reference itself is shard-invariant.
        let again = run_serial(&store);
        assert_eq!(again, reference, "serial rerun drifted at shards={shards}");
    }
}

/// The overlapping-table case: identical queries racing on **one**
/// table have the same block footprint, so single-flight fill must
/// split the cold reads between them *without loss or double-count* —
/// per query ≤ the solo cold cost, summed exactly equal to it — while
/// every result stays byte-identical.
#[test]
fn overlapping_queries_split_cold_reads_exactly() {
    const SQL: &str = "SELECT k, v, w FROM t1 WHERE v < 120";
    let store = build_store();
    let req = compile(&store, SQL).unwrap();

    let solo = {
        let server = Server::new(
            store.clone(),
            ServerConfig {
                max_concurrent: 1,
                worker_budget: 1,
            },
        );
        store.cold_reset();
        fingerprint(server.connect().run(&req).unwrap())
    };
    assert!(solo.block_reads > 0, "the reference scan must be cold");

    // Which client wins which fill differs from round to round; the
    // contract may not.
    const ROUNDS: usize = 50;
    for round in 0..3 * ROUNDS {
        let clients = [2usize, 4, 8][round % 3];
        let server = Server::new(
            store.clone(),
            ServerConfig {
                max_concurrent: clients,
                worker_budget: clients.max(2),
            },
        );
        store.cold_reset();
        let barrier = Arc::new(Barrier::new(clients));
        let fps: Vec<Fingerprint> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let (server, req) = (&server, &req);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let session = server.connect();
                        barrier.wait();
                        fingerprint(session.run(req).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut total = 0;
        for (c, fp) in fps.iter().enumerate() {
            assert_eq!(fp.result, solo.result, "client {c} of {clients}: result");
            assert_eq!(fp.rows_out, solo.rows_out, "client {c}: rows_out");
            assert!(
                fp.block_reads <= solo.block_reads,
                "round {round}, client {c} of {clients}: charged {} reads, solo cost is {}",
                fp.block_reads,
                solo.block_reads
            );
            total += fp.block_reads;
        }
        // Same footprint + single-flight: every distinct block was read
        // from disk exactly once and charged to exactly one query.
        assert_eq!(
            total, solo.block_reads,
            "round {round}, {clients} clients: cold reads lost or double-counted"
        );
    }
}

#[test]
fn batch_queries_cover_all_three_shapes() {
    let store = build_store();
    let reqs = requests(&store);
    let scans = reqs
        .iter()
        .filter(|r| matches!(r, Statement::Select(q) if q.aggregate.is_none()))
        .count();
    let aggs = reqs
        .iter()
        .filter(|r| matches!(r, Statement::Select(q) if q.aggregate.is_some()))
        .count();
    let single = reqs
        .iter()
        .filter(|r| matches!(r, Statement::JoinTree(t) if t.edges.len() == 1))
        .count();
    let multi = reqs
        .iter()
        .filter(|r| matches!(r, Statement::JoinTree(t) if t.edges.len() > 1))
        .count();
    assert!(reqs.len() >= 8, "the battery must stay a real batch");
    assert!(scans >= 2 && aggs >= 2 && single >= 2 && multi >= 2);
}
