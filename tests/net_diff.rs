//! The network differential: the concurrency battery's 9-query mixed
//! batch (`tests/concurrent_diff.rs`) replayed over **real TCP
//! sockets** by {1, 2, 4, 8} concurrent clients must produce responses
//! **byte-identical** — raw wire bytes, so rows AND the `OK` trailer's
//! per-query cold `block_reads` — to the same batch run serially
//! through in-process `Session::run`, at pool shard counts {1, 2}.
//!
//! The reference bytes are rendered locally from the serial outcomes
//! through the same `matstrat_net::protocol::write_outcome` the server
//! streams through, so "byte-identical over the wire" is a literal
//! `assert_eq!` on byte vectors, not a field-by-field paraphrase.
//!
//! Also here, because they need the full socket stack:
//! * interleaved INSERT/DELETE visibility — a write acknowledged on
//!   one connection is visible to every other connection's next query;
//! * a killed client (socket dropped with its query in flight) must
//!   leak nothing: the admission slot comes back ([`ServerStats`]
//!   exact, `active == 0`) and the wire layer's connection count
//!   drains to zero.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use matstrat::client::Client;
use matstrat::net::{protocol, NetConfig, NetServer};
use matstrat::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SHARD_COUNTS: [usize; 2] = [1, 2];

/// The same mixed batch as `tests/concurrent_diff.rs`: plain scans,
/// aggregations, a single join, a star, and a snowflake — each over
/// its own tables, so every query's cold footprint is exactly its own
/// whatever the interleaving.
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

/// Deterministic pseudo-data, structurally identical to the
/// concurrency battery's store (multiplicative scrambles, no RNG).
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

fn service_cfg(threads: usize) -> ServerConfig {
    ServerConfig {
        max_concurrent: threads,
        worker_budget: threads.max(2),
    }
}

/// Serial in-process reference: one session, one query at a time, each
/// from a cold pool, the outcome rendered to wire bytes through the
/// very function the server streams through.
fn serial_reference(store: &matstrat::storage::Store) -> Vec<Vec<u8>> {
    let server = Server::new(
        store.clone(),
        ServerConfig {
            max_concurrent: 1,
            worker_budget: 1,
        },
    );
    let session = server.connect();
    BATCH
        .iter()
        .map(|sql| {
            store.cold_reset();
            let stmt = compile(store, sql).unwrap();
            let out = session.run(&stmt).unwrap();
            let mut bytes = Vec::new();
            protocol::write_outcome(&mut bytes, &out).unwrap();
            bytes
        })
        .collect()
}

/// One interleaved socket run: `threads` clients over real TCP, batch
/// spread round-robin, raw response bytes collected per query index.
fn run_over_sockets(net: &NetServer, threads: usize) -> Vec<Vec<u8>> {
    let addr = net.local_addr();
    let barrier = Arc::new(Barrier::new(threads));
    let mut out: Vec<Option<Vec<u8>>> = vec![None; BATCH.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let mut mine = Vec::new();
                for (i, sql) in BATCH.iter().enumerate().skip(t).step_by(threads) {
                    let resp = client.query(sql).unwrap();
                    mine.push((i, resp.raw().to_vec()));
                }
                mine
            }));
        }
        for h in handles {
            for (i, bytes) in h.join().unwrap() {
                out[i] = Some(bytes);
            }
        }
    });
    out.into_iter().map(Option::unwrap).collect()
}

#[test]
fn socket_batches_are_byte_identical_to_serial_in_process() {
    let store = build_store();
    let reference = serial_reference(&store);
    for (i, bytes) in reference.iter().enumerate() {
        let text = std::str::from_utf8(bytes).unwrap();
        assert!(text.starts_with("ROWS "), "query {i} reference: {text}");
        let trailer = text.lines().last().unwrap();
        let (rows_out, reads) = protocol::parse_ok_trailer(trailer).unwrap();
        assert!(rows_out > 0, "query {i} should produce rows");
        assert!(reads > 0, "query {i} should do cold I/O");
    }

    for shards in SHARD_COUNTS {
        let store = striped_store(shards);
        assert_eq!(store.pool().num_shards(), shards);
        for threads in THREAD_COUNTS {
            // A fresh frontend per configuration keeps ServerStats and
            // NetStats exact for this run alone.
            let service = Server::new(store.clone(), service_cfg(threads));
            let net = NetServer::serve(
                "127.0.0.1:0",
                Arc::clone(&service),
                NetConfig {
                    max_conns: threads,
                    ..NetConfig::default()
                },
            )
            .unwrap();
            store.cold_reset();
            let got = run_over_sockets(&net, threads);
            for (i, (got, want)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got,
                    want,
                    "query {i} wire bytes drifted (threads={threads}, shards={shards})\n\
                     --- got ---\n{}\n--- want ---\n{}",
                    String::from_utf8_lossy(got),
                    String::from_utf8_lossy(want)
                );
            }
            let stats = service.stats();
            assert_eq!(stats.admitted as usize, BATCH.len());
            assert_eq!(stats.completed as usize, BATCH.len());
            assert_eq!(stats.active, 0, "every admission slot handed back");
            assert!(stats.peak_active <= threads, "admission bound held");
            let wire = net.stats();
            assert_eq!(wire.accepted as usize, threads);
            assert_eq!(wire.refused, 0);
            assert_eq!(wire.served as usize, BATCH.len());
            assert_eq!(wire.protocol_errors, 0);
            net.shutdown();
        }
        // The serial reference itself is shard-invariant.
        assert_eq!(serial_reference(&store), reference);
    }
}

/// A write acknowledged on one socket is durable and visible to every
/// other socket's next query — the wire layer inherits the engine's
/// write-visibility contract, and write acknowledgements render
/// exactly like the in-process outcome.
#[test]
fn interleaved_writes_are_visible_across_connections() {
    let store = build_store();
    let net = NetServer::bind("127.0.0.1:0", store.clone(), NetConfig::default()).unwrap();
    let addr = net.local_addr();
    let mut writer = Client::connect(addr).unwrap();
    let mut reader = Client::connect(addr).unwrap();

    const PROBE: &str = "SELECT k, v FROM t1 WHERE k BETWEEN 90000 AND 90010";
    let before = reader.query(PROBE).unwrap().expect_rows("probe before");
    assert_eq!(before.num_rows(), 0);

    let wrote = writer
        .query("INSERT INTO t1 VALUES (90001, 1, 2, 3), (90002, 4, 5, 6)")
        .unwrap()
        .expect_rows("insert");
    assert_eq!(wrote.columns, ["rows_affected"]);
    assert_eq!(wrote.data, [2]);
    assert_eq!(wrote.rows_out, 2);
    assert_eq!(wrote.block_reads, 0, "write acks carry no read cost");

    // Visible on the OTHER connection as soon as the OK came back.
    let after = reader.query(PROBE).unwrap().expect_rows("probe after");
    assert_eq!(after.data, [90001, 1, 90002, 4]);

    // Interleave a delete from a third connection; the reader sees the
    // rows gone on its next query.
    let gone = Client::connect(addr)
        .unwrap()
        .query("DELETE FROM t1 WHERE k BETWEEN 90000 AND 90010")
        .unwrap()
        .expect_rows("delete");
    assert_eq!(gone.data, [2]);
    let empty = reader.query(PROBE).unwrap().expect_rows("probe deleted");
    assert_eq!(empty.num_rows(), 0);

    // The wire rendering of a write is the serial in-process rendering.
    let session = net.service().connect();
    let stmt = compile(&store, "INSERT INTO t1 VALUES (90050, 1, 2, 3)").unwrap();
    let mut want = Vec::new();
    protocol::write_outcome(&mut want, &session.run(&stmt).unwrap()).unwrap();
    let got = writer
        .query("INSERT INTO t1 VALUES (90051, 1, 2, 3)")
        .unwrap();
    assert_eq!(got.raw(), &want[..]);
    let cleanup = writer
        .query("DELETE FROM t1 WHERE k BETWEEN 90050 AND 90051")
        .unwrap()
        .expect_rows("cleanup");
    assert_eq!(cleanup.data, [2]);
    net.shutdown();
}

/// Poll until `cond` holds or the deadline passes.
fn eventually(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Kill a client with its query in flight: the admission slot must
/// come back (ServerStats exact, `active == 0`), the connection count
/// must drain, and the next client must get byte-exact answers.
#[test]
fn killed_client_releases_its_admission_slot() {
    let store = build_store();
    let service = Server::new(store.clone(), service_cfg(2));
    let net = NetServer::serve("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).unwrap();
    let addr = net.local_addr();

    // Send a real query and vanish without reading the response —
    // repeatedly, so the slot-release path runs more than once.
    use std::io::Write;
    for _ in 0..3 {
        // An idle kill: connect, say nothing, vanish.
        drop(Client::connect(addr).unwrap());
        // A mid-query kill: raw write so we can drop the socket
        // without awaiting the reply the server is computing.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"SELECT g, SUM(v) FROM t3 WHERE v > 10 GROUP BY g\n")
            .unwrap();
        drop(stream); // killed mid-query: the server may still be executing
    }

    // The server finishes (or abandons) the orphaned work and returns
    // to idle: every admitted query completed, no connection left.
    // Gate on `accepted == 6` first — a killed connection can still be
    // sitting in the listener backlog, in which case the other
    // counters look drained only because its work hasn't started.
    eventually(
        "killed connections to drain",
        Duration::from_secs(10),
        || {
            let w = net.stats();
            let s = service.stats();
            w.accepted == 6 && w.active == 0 && s.active == 0 && s.admitted == s.completed
        },
    );

    // And the service is unharmed: a fresh client gets the exact serial
    // bytes for a cold query.
    store.cold_reset();
    let session = service.connect();
    let stmt = compile(&store, BATCH[8]).unwrap();
    let mut want = Vec::new();
    protocol::write_outcome(&mut want, &session.run(&stmt).unwrap()).unwrap();
    store.cold_reset();
    let got = Client::connect(addr).unwrap().query(BATCH[8]).unwrap();
    assert_eq!(got.raw(), &want[..], "post-kill query drifted");
    let s = service.stats();
    assert_eq!(s.active, 0);
    assert_eq!(s.admitted, s.completed);
    net.shutdown();
}
