//! Wire-protocol robustness: the framing layer under abuse.
//!
//! `tests/net_diff.rs` proves the happy path is byte-identical to
//! in-process execution; this battery pins everything else a socket
//! peer can do to the server:
//!
//! * blank / whitespace / CRLF lines (ignored or tolerated);
//! * torn lines (bytes then EOF — no response owed, counted);
//! * oversized lines (`ERR`, counted, connection closed);
//! * invalid UTF-8 (`ERR`, counted, connection *survives*);
//! * read-timeout abandonment of silent connections;
//! * mid-query disconnects releasing their admission slot;
//! * a statement that panics mid-execution, answered `ERR` on a
//!   connection that stays open;
//! * the connection cap refusing — and recovering — above
//!   `NetConfig::max_conns`;
//! * multi-byte caret diagnostics crossing the wire verbatim, pinned
//!   against the same snapshots as `crates/lang/tests/errors.rs`;
//! * and, facing the other way, everything a server could send that
//!   the client must refuse: ragged rows, a row count the trailer
//!   contradicts, and fields that are not a decimal `i64` — plus a
//!   seeded fuzz of the client's reply parser over mutated real replies.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use matstrat::client::{read_response, Client, Response};
use matstrat::common::SplitMix64 as Rng;
use matstrat::net::{protocol, NetConfig, NetServer};
use matstrat::prelude::*;

/// The `fact` projection from `crates/lang/tests/errors.rs`, so the
/// pinned caret snapshots apply verbatim over the wire.
fn fixture() -> matstrat::storage::Store {
    let store = matstrat::storage::Store::in_memory();
    let rows: Vec<Value> = (0..16).collect();
    let fact = ProjectionSpec::new("fact")
        .column("k1", EncodingKind::Plain, SortOrder::Primary)
        .column("k2", EncodingKind::Plain, SortOrder::None)
        .column("a", EncodingKind::Plain, SortOrder::None)
        .column("b", EncodingKind::Plain, SortOrder::None)
        .column("c", EncodingKind::Plain, SortOrder::None);
    store
        .load_projection(&fact, &[&rows, &rows, &rows, &rows, &rows])
        .unwrap();
    store
}

fn boot(cfg: NetConfig) -> NetServer {
    NetServer::bind("127.0.0.1:0", fixture(), cfg).unwrap()
}

fn eventually(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

const DRAIN: Duration = Duration::from_secs(10);

/// A query every test can use; `a < 3` matches rows 0, 1, 2.
const PROBE: &str = "SELECT a FROM fact WHERE a < 3";

fn expect_probe_rows(resp: Response, context: &str) {
    let rows = resp.expect_rows(context);
    assert_eq!(rows.columns, ["a"], "{context}");
    assert_eq!(rows.data, [0, 1, 2], "{context}");
}

/// Blank, whitespace-only, and CRLF-terminated lines: the first two
/// produce no response at all, the third answers normally — so a
/// client that sent three "lines" must read exactly one response.
#[test]
fn blank_lines_are_ignored_and_crlf_is_tolerated() {
    let net = boot(NetConfig::default());
    let stream = TcpStream::connect(net.local_addr()).unwrap();
    stream
        .try_clone()
        .unwrap()
        .write_all(format!("\n   \t \n{PROBE}\r\n").as_bytes())
        .unwrap();
    let mut client = Client::from_stream(stream).unwrap();
    client.set_timeout(Some(DRAIN)).unwrap();
    expect_probe_rows(client.read_response().unwrap(), "after blank lines");
    let wire = net.stats();
    assert_eq!(wire.served, 1, "blank lines are not statements");
    assert_eq!(wire.protocol_errors, 0, "blank lines are not violations");
    net.shutdown();
}

/// A peer that sends bytes and vanishes before the newline framed no
/// request: the server owes nothing, counts the tear, and releases
/// the connection slot.
#[test]
fn torn_line_is_counted_and_closed_without_a_response() {
    let net = boot(NetConfig::default());
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    stream.write_all(b"SELECT a FROM fa").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    // The server closes without writing anything: EOF, zero bytes.
    stream.set_read_timeout(Some(DRAIN)).unwrap();
    let mut got = Vec::new();
    stream.read_to_end(&mut got).unwrap();
    assert_eq!(got, b"", "no response is owed for a torn request");
    eventually("torn connection to drain", DRAIN, || {
        let s = net.stats();
        s.protocol_errors == 1 && s.active == 0
    });
    assert_eq!(net.stats().served, 0);
    net.shutdown();
}

/// A line that outgrows `MAX_LINE` before its newline is a framing
/// violation: one `ERR` naming the bound, then the connection closes
/// (the server cannot resynchronise inside an unbounded line).
#[test]
fn oversized_line_gets_an_err_and_a_close() {
    let net = boot(NetConfig::default());
    let stream = TcpStream::connect(net.local_addr()).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut client = Client::from_stream(stream).unwrap();
    client.set_timeout(Some(DRAIN)).unwrap();
    let huge = vec![b'x'; protocol::MAX_LINE + 1];
    w.write_all(&huge).unwrap();
    w.write_all(b"\n").unwrap();
    match client.read_response().unwrap() {
        Response::Err(e) => assert_eq!(
            e.message,
            format!("request line exceeds {} bytes", protocol::MAX_LINE)
        ),
        Response::Rows(_) => panic!("an oversized line executed"),
    }
    // The connection is gone: the next read sees EOF, not a hang.
    assert!(client.read_response().is_err(), "connection must be closed");
    eventually("oversized connection to drain", DRAIN, || {
        let s = net.stats();
        s.protocol_errors == 1 && s.active == 0
    });
    net.shutdown();
}

/// Invalid UTF-8 is a statement-level rejection, not a framing tear:
/// the line was properly framed, so the server answers `ERR` and the
/// connection keeps working.
#[test]
fn invalid_utf8_is_rejected_but_the_connection_survives() {
    let net = boot(NetConfig::default());
    let stream = TcpStream::connect(net.local_addr()).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut client = Client::from_stream(stream).unwrap();
    client.set_timeout(Some(DRAIN)).unwrap();
    w.write_all(b"SELECT \xff\xfe FROM fact\n").unwrap();
    match client.read_response().unwrap() {
        Response::Err(e) => assert_eq!(e.message, "request is not valid UTF-8"),
        Response::Rows(_) => panic!("mojibake executed"),
    }
    expect_probe_rows(client.query(PROBE).unwrap(), "after invalid UTF-8");
    let wire = net.stats();
    assert_eq!(wire.protocol_errors, 1);
    assert_eq!(wire.served, 2, "the ERR and the probe both count");
    net.shutdown();
}

/// A connection that goes silent past the read timeout is abandoned:
/// its socket slot comes back and the server keeps serving others.
#[test]
fn read_timeout_abandons_a_silent_connection() {
    let cfg = NetConfig {
        read_timeout: Duration::from_millis(100),
        ..NetConfig::default()
    };
    let net = boot(cfg);
    let silent = TcpStream::connect(net.local_addr()).unwrap();
    eventually("silent connection to be accepted", DRAIN, || {
        net.stats().accepted == 1
    });
    eventually("silent connection to be abandoned", DRAIN, || {
        net.stats().active == 0
    });
    // Abandonment is silent — no response bytes, no protocol error.
    assert_eq!(net.stats().protocol_errors, 0);
    // The timed-out socket really is dead (EOF), and new clients are
    // unaffected by the corpse.
    let mut probe = silent.try_clone().unwrap();
    probe.set_read_timeout(Some(DRAIN)).unwrap();
    let mut got = Vec::new();
    probe.read_to_end(&mut got).unwrap();
    assert_eq!(got, b"");
    let mut fresh = Client::connect(net.local_addr()).unwrap();
    fresh.set_timeout(Some(DRAIN)).unwrap();
    expect_probe_rows(fresh.query(PROBE).unwrap(), "after a timeout abandonment");
    net.shutdown();
}

/// A client that dies with its query in flight must not leak its
/// admission slot: the service drains back to idle and the next
/// caller is admitted normally.
#[test]
fn mid_query_disconnect_leaves_the_service_idle() {
    let net = boot(NetConfig::default());
    let service = std::sync::Arc::clone(net.service());
    let mut dying = TcpStream::connect(net.local_addr()).unwrap();
    dying.write_all(format!("{PROBE}\n").as_bytes()).unwrap();
    drop(dying); // gone before reading a single response byte
    eventually("admission gate to drain to idle", DRAIN, || {
        let s = service.stats();
        s.active == 0 && s.admitted == s.completed && net.stats().active == 0
    });
    let mut fresh = Client::connect(net.local_addr()).unwrap();
    fresh.set_timeout(Some(DRAIN)).unwrap();
    expect_probe_rows(fresh.query(PROBE).unwrap(), "after a mid-query disconnect");
    net.shutdown();
}

/// Above `max_conns` open sockets, the next connection is told why and
/// closed — and once a slot frees, new connections are admitted again.
#[test]
fn connection_cap_refuses_then_recovers() {
    let cfg = NetConfig {
        max_conns: 2,
        ..NetConfig::default()
    };
    let net = boot(cfg);
    let addr = net.local_addr();
    // Two live connections, each proven by a served statement.
    let mut c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    c1.set_timeout(Some(DRAIN)).unwrap();
    c2.set_timeout(Some(DRAIN)).unwrap();
    expect_probe_rows(c1.query(PROBE).unwrap(), "first capped client");
    expect_probe_rows(c2.query(PROBE).unwrap(), "second capped client");
    // The third is refused with a reason, then closed.
    let mut c3 = Client::connect(addr).unwrap();
    c3.set_timeout(Some(DRAIN)).unwrap();
    match c3.read_response().unwrap() {
        Response::Err(e) => {
            assert_eq!(e.message, "server at connection capacity (2 open)")
        }
        Response::Rows(_) => panic!("over-cap connection got rows"),
    }
    assert!(c3.read_response().is_err(), "refused socket must close");
    let wire = net.stats();
    assert_eq!((wire.accepted, wire.refused, wire.active), (3, 1, 2));
    // Refusal costs the live clients nothing.
    expect_probe_rows(c1.query(PROBE).unwrap(), "survivor after refusal");
    // Freeing a slot re-opens the door.
    drop(c2);
    eventually("closed client's slot to free", DRAIN, || {
        net.stats().active == 1
    });
    let mut c4 = Client::connect(addr).unwrap();
    c4.set_timeout(Some(DRAIN)).unwrap();
    expect_probe_rows(c4.query(PROBE).unwrap(), "client after slot freed");
    assert_eq!(net.stats().refused, 1, "no further refusals");
    net.shutdown();
}

/// The caret diagnostics cross the wire verbatim — pinned against the
/// exact snapshots in `crates/lang/tests/errors.rs`, multi-byte input
/// included. If the lang crate's rendering changes, both suites move
/// together; if the wire mangles UTF-8 or drops a line, only this one
/// fails.
#[test]
fn caret_snippets_cross_the_wire_verbatim() {
    let net = boot(NetConfig::default());
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.set_timeout(Some(DRAIN)).unwrap();
    let snapshots: [(&str, &str); 3] = [
        (
            "SELECT a FROM fact WHERE a \u{2264} 3",
            "line 1, column 28: unexpected character '\u{2264}'\n\
             \x20 | SELECT a FROM fact WHERE a \u{2264} 3\n\
             \x20 |                            ^",
        ),
        (
            "SELECT \u{3a3}um FROM fact WHERE a < 3",
            "line 1, column 8: unexpected character '\u{3a3}'\n\
             \x20 | SELECT \u{3a3}um FROM fact WHERE a < 3\n\
             \x20 |        ^",
        ),
        (
            "SELECT zz FROM fact",
            "line 1, column 8: no column 'zz' in projection 'fact'\n\
             \x20 | SELECT zz FROM fact\n\
             \x20 |        ^",
        ),
    ];
    for (sql, expected) in snapshots {
        // The wire must agree with the in-process rendering…
        let local = compile(net.service().store(), sql)
            .expect_err("snapshot query must not compile")
            .to_string();
        assert_eq!(local, expected, "lang snapshot drifted for {sql:?}");
        // …character for character, multi-byte carets intact.
        match client.query(sql).unwrap() {
            Response::Err(e) => assert_eq!(e.message, expected, "wire mangled {sql:?}"),
            Response::Rows(_) => panic!("{sql:?} unexpectedly executed"),
        }
    }
    // Diagnostics never cost the connection: it still answers.
    expect_probe_rows(client.query(PROBE).unwrap(), "after three diagnostics");
    net.shutdown();
}

/// The client accepts a reply only in the form the server emits. Each
/// case is a reply that is well framed — status, header and `OK`
/// trailer all present — and wrong in exactly one way.
#[test]
fn client_rejects_replies_the_server_never_emits() {
    let hostile: [(&str, &str); 14] = [
        (
            "a row one field short",
            "ROWS 2\na\tb\n1\t2\n3\nOK 2 reads=0\n",
        ),
        (
            "a row one field long",
            "ROWS 2\na\tb\n1\t2\t3\nOK 1 reads=0\n",
        ),
        (
            "a row missing before the trailer",
            "ROWS 1\na\n1\n2\nOK 3 reads=0\n",
        ),
        (
            "a row more than the trailer counts",
            "ROWS 1\na\n1\n2\nOK 1 reads=0\n",
        ),
        (
            "no rows where the trailer counts one",
            "ROWS 1\na\nOK 1 reads=0\n",
        ),
        (
            "a write ack whose cell is not its count",
            "ROWS 1\nrows_affected\n5\nOK 4 reads=0\n",
        ),
        ("an empty field", "ROWS 2\na\tb\n1\t\nOK 1 reads=0\n"),
        ("an empty line", "ROWS 1\na\n\nOK 1 reads=0\n"),
        ("a bare minus", "ROWS 1\na\n-\nOK 1 reads=0\n"),
        ("a doubled minus", "ROWS 1\na\n--1\nOK 1 reads=0\n"),
        ("a leading plus", "ROWS 1\na\n+1\nOK 1 reads=0\n"),
        (
            "one past i64::MAX",
            "ROWS 1\na\n9223372036854775808\nOK 1 reads=0\n",
        ),
        (
            "one past i64::MIN",
            "ROWS 1\na\n-9223372036854775809\nOK 1 reads=0\n",
        ),
        (
            "digits enough to wrap a u64 back into range",
            "ROWS 1\na\n18446744073709551617\nOK 1 reads=0\n",
        ),
    ];
    for (what, reply) in hostile {
        match read_response(&mut reply.as_bytes()) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}"),
            Ok(resp) => panic!("{what}: accepted as {resp:?}"),
        }
    }
    // The same shapes, one edit away from each rejection, are accepted.
    let fine = [
        (
            "ROWS 2\na\tb\n1\t2\n-3\t4\nOK 2 reads=7\n",
            vec![1, 2, -3, 4],
        ),
        ("ROWS 1\na\nOK 0 reads=0\n", vec![]),
        ("ROWS 1\nrows_affected\n5\nOK 5 reads=0\n", vec![5]),
        ("ROWS 1\nrows_affected\n0\nOK 0 reads=0\n", vec![0]),
        (
            "ROWS 2\na\tb\n9223372036854775807\t-9223372036854775808\nOK 1 reads=0\n",
            vec![i64::MAX, i64::MIN],
        ),
    ];
    for (reply, data) in fine {
        let rows = read_response(&mut reply.as_bytes())
            .unwrap()
            .expect_rows(reply);
        assert_eq!(rows.data, data, "{reply:?}");
        assert_eq!(rows.raw, reply.as_bytes());
    }
}

/// Bytes a mutation inserts: the protocol's own structure (digits,
/// signs, separators, the letters of its keywords) and a stray byte.
const REPLY_BYTES: &[u8] = b"0123456789-\t\n OKROWSER=\xff";

/// One edit to a rendered reply: flip a bit, insert a byte, delete a
/// byte, truncate, or duplicate a line.
fn mutate(rng: &mut Rng, reply: &mut Vec<u8>) {
    if reply.is_empty() {
        return;
    }
    let at = rng.below(reply.len());
    match rng.below(5) {
        0 => reply[at] ^= 1 << rng.below(8),
        1 => reply.insert(at, REPLY_BYTES[rng.below(REPLY_BYTES.len())]),
        2 => {
            reply.remove(at);
        }
        3 => reply.truncate(at),
        _ => {
            let start = reply[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let end = reply[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(reply.len(), |i| at + i + 1);
            let line = reply[start..end].to_vec();
            reply.splice(end..end, line);
        }
    }
}

/// Fuzz `client::read_response` with replies the server really renders
/// (rows, an aggregate, a write acknowledgement and an error), mutated
/// and fed through tiny read buffers so rows straddle refills. Nothing
/// may panic, and whatever the client accepts must be a well-formed
/// reply: whole rows, as many as the trailer counts.
#[test]
fn client_parser_survives_mutated_replies() {
    const ITERATIONS: usize = 100_000;
    let db = Database::with_store(fixture());
    let mut seeds: Vec<Vec<u8>> = [
        "SELECT a, b FROM fact WHERE a < 6",
        "SELECT k2, SUM(a) FROM fact WHERE b < 9 GROUP BY k2",
        "INSERT INTO fact VALUES (1, 2, 3, 4, 5), (6, 7, 8, 9, 10)",
    ]
    .iter()
    .map(|sql| {
        let out = db.execute(&compile(db.store(), sql).unwrap()).unwrap();
        let mut bytes = Vec::new();
        protocol::write_outcome(&mut bytes, &out).unwrap();
        bytes
    })
    .collect();
    let err = compile(db.store(), "SELECT nope FROM fact").unwrap_err();
    let mut bytes = Vec::new();
    protocol::write_error(&mut bytes, &err.to_string()).unwrap();
    seeds.push(bytes);
    for seed in &seeds {
        let parsed = read_response(&mut seed.as_slice()).unwrap();
        assert_eq!(parsed.raw(), seed.as_slice(), "seeds parse as rendered");
    }

    let mut rng = Rng(0x00C0_FFEE);
    for _ in 0..ITERATIONS {
        let mut reply = seeds[rng.below(seeds.len())].clone();
        for _ in 0..=rng.below(3) {
            mutate(&mut rng, &mut reply);
        }
        let capacity = 1 + rng.below(16);
        let parsed = std::panic::catch_unwind(|| {
            read_response(&mut std::io::BufReader::with_capacity(
                capacity,
                reply.as_slice(),
            ))
        })
        .unwrap_or_else(|_| {
            panic!(
                "read_response panicked on {:?}",
                String::from_utf8_lossy(&reply)
            )
        });
        let Ok(Response::Rows(rows)) = parsed else {
            continue;
        };
        let context = String::from_utf8_lossy(&reply);
        assert_eq!(
            rows.data.len() % rows.columns.len(),
            0,
            "ragged: {context:?}"
        );
        if rows.columns == [protocol::WRITE_HEADER] && rows.num_rows() == 1 {
            assert_eq!(
                u64::try_from(rows.data[0]),
                Ok(rows.rows_out),
                "{context:?}"
            );
        } else {
            assert_eq!(rows.num_rows() as u64, rows.rows_out, "{context:?}");
        }
    }
}

/// The same refusal over a real socket: a peer that frames a ragged
/// reply correctly still gets `InvalidData` out of `Client::query`.
#[test]
fn client_rejects_a_ragged_reply_off_a_socket() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut request = [0u8; 64];
        let _ = conn.read(&mut request).unwrap();
        conn.write_all(b"ROWS 2\na\tb\n1\t2\n3\nOK 2 reads=0\n")
            .unwrap();
    });
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(DRAIN)).unwrap();
    let err = client.query(PROBE).expect_err("a ragged reply parsed");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    peer.join().unwrap();
}

/// A [`MemDisk`](matstrat::storage::MemDisk) whose reads panic while
/// `armed` is set: a fault the executor cannot turn into an `Err`.
struct PanickyDisk {
    inner: matstrat::storage::MemDisk,
    armed: std::sync::atomic::AtomicBool,
}

impl matstrat::storage::Disk for PanickyDisk {
    fn create(&self, name: &str) -> Result<()> {
        self.inner.create(name)
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<()> {
        self.inner.write_at(name, offset, data)
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        if self.armed.load(std::sync::atomic::Ordering::SeqCst) {
            panic!("injected fault reading {name}");
        }
        self.inner.read_at(name, offset, len)
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.inner.len(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

/// A statement that panics mid-execution earns a typed `ERR` — not a
/// closed socket — and its connection serves the next statement; the
/// admission slot and the in-service count both come back.
#[test]
fn a_panicking_statement_gets_an_err_and_its_connection_survives() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let disk = Arc::new(PanickyDisk {
        inner: matstrat::storage::MemDisk::new(),
        armed: AtomicBool::new(false),
    });
    let store = matstrat::storage::Store::with_disk(disk.clone(), 256, false);
    let rows: Vec<Value> = (0..16).collect();
    let fact = ProjectionSpec::new("fact").column("a", EncodingKind::Plain, SortOrder::Primary);
    store.load_projection(&fact, &[&rows]).unwrap();
    let net = NetServer::bind("127.0.0.1:0", store.clone(), NetConfig::default()).unwrap();
    let mut client = Client::connect(net.local_addr()).unwrap();
    client.set_timeout(Some(DRAIN)).unwrap();
    expect_probe_rows(client.query(PROBE).unwrap(), "before the fault");
    let before = net.stats();

    // Cold, so the next statement must read the disk.
    store.pool().clear();
    disk.armed.store(true, Ordering::SeqCst);
    match client.query(PROBE).unwrap() {
        Response::Err(e) => assert_eq!(e.message, "execution failed: statement panicked"),
        Response::Rows(_) => panic!("a statement whose every read panics returned rows"),
    }
    disk.armed.store(false, Ordering::SeqCst);

    let oracle = Database::with_store(store.clone())
        .execute(&compile(&store, PROBE).unwrap())
        .unwrap();
    let rows = client.query(PROBE).unwrap().expect_rows("after the panic");
    assert_eq!(
        rows.data,
        oracle.result().flat(),
        "same connection, after the panic"
    );

    // The handler lets go of the statement after its reply's flush,
    // which the client may see first.
    eventually("the service to drain", DRAIN, || {
        let service = net.service().stats();
        (service.active, service.serving) == (0, 0)
    });
    let wire = net.stats();
    assert_eq!(wire.panics, 1);
    assert_eq!(wire.active, before.active, "the connection stayed open");
    net.shutdown();
}
