//! The TCP listener: a [`Session`]-per-connection accept loop over the
//! in-process query service.
//!
//! Layering, bottom to top:
//!
//! * [`matstrat_core::Server`] — admission gate + fair worker shares
//!   (the wire layer adds **no** execution paths);
//! * one [`Session`] per accepted connection, living as long as the
//!   socket: its statements run under admission exactly like an
//!   in-process caller, so per-query stats and cold `block_reads`
//!   are byte-identical to library use (`tests/net_diff.rs` pins it).
//!   Each statement is in service ([`Session::serve`]) from the moment
//!   its line is framed until its reply is flushed, so the worker
//!   shares count the connection threads busy compiling and rendering,
//!   not only the admitted ones. A statement that panics is answered
//!   with `ERR` and its connection keeps serving;
//! * a **connection cap** ([`NetConfig::max_conns`]) layered above the
//!   admission gate: admission bounds *executing* queries, the cap
//!   bounds *open sockets*. An over-cap connection is accepted, told
//!   `ERR ... connection capacity`, and closed — never left hanging in
//!   the backlog.
//!
//! Every connection carries read/write timeouts: a peer that goes
//! silent for [`NetConfig::read_timeout`] is abandoned (its admission
//! slot, if any, was already released — slots live only for the span
//! of one `Session::run`), and a peer that stops draining its socket
//! for [`NetConfig::write_timeout`] is dropped mid-stream.
//!
//! Shutdown is a control channel plus a self-connect wake: the accept
//! loop blocks in `accept()`, so [`NetServer::shutdown`] posts the
//! control message, dials the listener once to wake it, then half-closes
//! every live connection socket — blocked reads return immediately,
//! handlers finish the statement in flight (the response they owe) and
//! exit, and the accept and handler threads are joined before
//! `shutdown` returns.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use matstrat_core::{Server, ServerConfig, Session};
use matstrat_lang::compile;
use matstrat_storage::Store;

use crate::protocol::{self, LineRead, MAX_LINE};

/// Knobs for one [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Open connections allowed at once (clamped to ≥ 1); an over-cap
    /// connection gets an `ERR` response and an immediate close.
    pub max_conns: usize,
    /// How long a connection may sit silent between requests before the
    /// server abandons it.
    pub read_timeout: Duration,
    /// How long one socket write may block before the peer is dropped.
    pub write_timeout: Duration,
    /// Admission knobs for the underlying query service (used by
    /// [`NetServer::bind`]; [`NetServer::serve`] takes the service
    /// ready-made and ignores this field).
    pub service: ServerConfig,
}

impl Default for NetConfig {
    /// 64 sockets over the default 4-slot admission gate, 30-second
    /// timeouts both ways.
    fn default() -> NetConfig {
        NetConfig {
            max_conns: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            service: ServerConfig::default(),
        }
    }
}

/// Cumulative wire-layer counters (the admission-layer twin is
/// [`matstrat_core::ServerStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections the accept loop took off the listener.
    pub accepted: u64,
    /// Connections refused by the connection cap.
    pub refused: u64,
    /// Connections currently open (refused ones never count).
    pub active: usize,
    /// Statements answered (`ROWS` and `ERR` responses alike).
    pub served: u64,
    /// Framing violations: oversized or torn lines, invalid UTF-8.
    pub protocol_errors: u64,
    /// Statements whose execution panicked; each was answered `ERR`.
    pub panics: u64,
}

enum Control {
    Shutdown,
}

struct Shared {
    service: Arc<Server>,
    cfg: NetConfig,
    shutting_down: AtomicBool,
    accepted: AtomicU64,
    refused: AtomicU64,
    active: AtomicUsize,
    served: AtomicU64,
    protocol_errors: AtomicU64,
    panics: AtomicU64,
    /// Live connection sockets, for the shutdown half-close wake.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Handler threads not yet joined: the accept loop joins the
    /// finished ones on every accept, shutdown joins the rest.
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn new(service: Arc<Server>, cfg: NetConfig) -> Shared {
        Shared {
            service,
            cfg,
            shutting_down: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
        }
    }
}

/// One connection's claim on the connection cap: its socket in `conns`
/// and its count in `active`. Dropping the guard gives both back, so a
/// handler returns its slot however it exits — unwinding from a panic
/// included.
struct ConnSlot {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        // Never panic here: this may run while the handler unwinds.
        self.shared
            .conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running TCP frontend. Dropping it (or calling
/// [`NetServer::shutdown`]) stops the accept loop, wakes and joins
/// every connection thread, and returns only when all of them exited.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    ctrl: mpsc::Sender<Control>,
    accept_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Serve `store` on `addr` (use port 0 for an ephemeral port; the
    /// bound address is [`NetServer::local_addr`]). The query service
    /// is created from `cfg.service`.
    pub fn bind(addr: impl ToSocketAddrs, store: Store, cfg: NetConfig) -> io::Result<NetServer> {
        NetServer::serve(addr, Server::new(store, cfg.service), cfg)
    }

    /// Serve an existing query service — callers that want to watch
    /// [`matstrat_core::ServerStats`] from outside keep their own
    /// `Arc<Server>` handle.
    pub fn serve(
        addr: impl ToSocketAddrs,
        service: Arc<Server>,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let cfg = NetConfig {
            max_conns: cfg.max_conns.max(1),
            ..cfg
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (ctrl, ctrl_rx) = mpsc::channel();
        let shared = Arc::new(Shared::new(service, cfg));
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("matstrat-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, ctrl_rx))?;
        Ok(NetServer {
            shared,
            addr,
            ctrl,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The query service underneath (admission stats, store).
    pub fn service(&self) -> &Arc<Server> {
        &self.shared.service
    }

    /// Snapshot the wire-layer counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.shared.accepted.load(Ordering::SeqCst),
            refused: self.shared.refused.load(Ordering::SeqCst),
            active: self.shared.active.load(Ordering::SeqCst),
            served: self.shared.served.load(Ordering::SeqCst),
            protocol_errors: self.shared.protocol_errors.load(Ordering::SeqCst),
            panics: self.shared.panics.load(Ordering::SeqCst),
        }
    }

    /// Graceful stop: no new connections, live handlers finish the
    /// statement in flight and exit, every thread joined.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept_thread.take() else {
            return;
        };
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let _ = self.ctrl.send(Control::Shutdown);
        // Wake the accept loop out of its blocking accept().
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = accept.join();
        // Half-close every live socket: blocked reads return EOF now
        // instead of at the read timeout.
        for (_, conn) in self.shared.conns.lock().expect("conns poisoned").drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let handlers: Vec<JoinHandle<()>> = self
            .shared
            .handlers
            .lock()
            .expect("handlers poisoned")
            .drain(..)
            .collect();
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, ctrl: mpsc::Receiver<Control>) {
    let mut next_id: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.shutting_down.load(Ordering::SeqCst)
            || matches!(ctrl.try_recv(), Ok(Control::Shutdown))
        {
            // The stream that woke us (or raced the shutdown) is
            // dropped unanswered; the server is going away.
            break;
        }
        shared.accepted.fetch_add(1, Ordering::SeqCst);
        // The connection cap: admission bounds executing queries; this
        // bounds open sockets. Claim a slot optimistically, hand it
        // back if that overshot the cap.
        if shared.active.fetch_add(1, Ordering::SeqCst) >= shared.cfg.max_conns {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.refused.fetch_add(1, Ordering::SeqCst);
            refuse(&shared, stream);
            continue;
        }
        let id = next_id;
        next_id += 1;
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conns poisoned")
                .insert(id, clone);
        }
        let slot = ConnSlot {
            shared: Arc::clone(&shared),
            id,
        };
        // A failed spawn drops the closure, and with it the slot and the
        // socket.
        let handler = std::thread::Builder::new()
            .name(format!("matstrat-conn-{id}"))
            .spawn(move || {
                handle_connection(&slot.shared, stream);
                drop(slot);
            });
        let mut handlers = shared.handlers.lock().expect("handlers poisoned");
        join_finished(&mut handlers);
        if let Ok(h) = handler {
            handlers.push(h);
        }
    }
}

/// Join and drop every handler thread that has already exited, so a
/// long-lived server holds handles only for live connections.
fn join_finished(handlers: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].is_finished() {
            let _ = handlers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Tell an over-cap peer why it is being dropped. Best-effort: the
/// write gets the configured timeout and failures are ignored.
fn refuse(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut w = BufWriter::new(stream);
    let _ = protocol::write_error(
        &mut w,
        &format!(
            "server at connection capacity ({} open)",
            shared.cfg.max_conns
        ),
    );
    let _ = w.flush();
}

/// One connection: a session, a bounded line reader, a response per
/// statement, until EOF / timeout / framing violation / shutdown.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(shared.cfg.read_timeout))
        .is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Requests are single short lines, so the reader's default size
    // serves. The writer's default is kept on purpose: it gathers an
    // `ERR` reply's lines into one write, and stays below the chunks
    // `write_outcome` hands it, which therefore reach the socket
    // directly — a bulk reply costs one write per 64 KiB chunk and no
    // second copy.
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let session = shared.service.connect();
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let line = match protocol::read_line_bounded(&mut reader, MAX_LINE) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Torn) => {
                // Bytes then EOF before the newline: no request was
                // framed, so no response is owed.
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                break;
            }
            Ok(LineRead::TooLong) => {
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let _ = respond_error(
                    shared,
                    &mut writer,
                    &format!("request line exceeds {MAX_LINE} bytes"),
                );
                break;
            }
            Ok(LineRead::TimedOut) => break,
            Err(_) => break,
        };
        let Ok(text) = std::str::from_utf8(&line) else {
            shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
            if respond_error(shared, &mut writer, "request is not valid UTF-8").is_err() {
                break;
            }
            continue;
        };
        let text = text.trim();
        if text.is_empty() {
            continue; // blank lines are ignored, not answered
        }
        // In service until the reply is flushed or the loop leaves.
        let _serving = session.serve();
        if answer(shared, &session, text, &mut writer).is_err() {
            break; // peer stopped reading; drop the connection
        }
    }
    let _ = writer.flush();
}

/// Compile and run one statement, streaming whichever response shape
/// it earns. A panic in execution is caught before any reply byte is
/// written, so it earns a whole `ERR`, never a torn reply. `Err` means
/// the socket write failed.
fn answer(
    shared: &Shared,
    session: &Session,
    text: &str,
    writer: &mut BufWriter<TcpStream>,
) -> io::Result<()> {
    let store = shared.service.store();
    match compile(store, text) {
        // The caret snippet crosses the wire verbatim (three lines).
        Err(parse_err) => respond_error(shared, writer, &parse_err.to_string()),
        // The statement's admission slot comes back as it unwinds
        // (its guard's drop), so the service is left idle for the next.
        Ok(stmt) => match catch_unwind(AssertUnwindSafe(|| session.run(&stmt))) {
            Err(_panic) => {
                shared.panics.fetch_add(1, Ordering::SeqCst);
                respond_error(shared, writer, "execution failed: statement panicked")
            }
            Ok(Err(exec_err)) => {
                respond_error(shared, writer, &format!("execution failed: {exec_err}"))
            }
            Ok(Ok(outcome)) => {
                // Count before the write: a peer that has seen the
                // response must also see it in `NetStats::served`.
                shared.served.fetch_add(1, Ordering::SeqCst);
                protocol::write_outcome(writer, &outcome)?;
                writer.flush()
            }
        },
    }
}

fn respond_error(shared: &Shared, writer: &mut BufWriter<TcpStream>, msg: &str) -> io::Result<()> {
    shared.served.fetch_add(1, Ordering::SeqCst);
    protocol::write_error(writer, msg)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed() < Duration::from_secs(10), "timed out: {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn a_connection_slot_is_given_back_while_its_handler_unwinds() {
        let shared = Arc::new(Shared::new(
            Server::in_memory(ServerConfig::default()),
            NetConfig::default(),
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let socket = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let prior = shared.active.load(Ordering::SeqCst);
        // Claim the slot the way the accept loop does.
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.conns.lock().unwrap().insert(7, socket);
        let slot = ConnSlot {
            shared: Arc::clone(&shared),
            id: 7,
        };
        let unwound = catch_unwind(AssertUnwindSafe(move || {
            let _slot = slot;
            panic!("a handler panics mid-statement");
        }));
        assert!(unwound.is_err());
        assert_eq!(shared.active.load(Ordering::SeqCst), prior);
        assert!(!shared.conns.lock().unwrap().contains_key(&7));
    }

    #[test]
    fn finished_handlers_are_joined_as_connections_arrive() {
        const MAX_CONNS: usize = 2;
        let net = NetServer::bind(
            "127.0.0.1:0",
            Store::in_memory(),
            NetConfig {
                max_conns: MAX_CONNS,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let handlers = || net.shared.handlers.lock().unwrap();
        for _ in 0..4 * MAX_CONNS {
            // Serve one statement (an `ERR`: the store is empty), then
            // close and wait until the handler has exited.
            let mut conn = TcpStream::connect(net.local_addr()).unwrap();
            conn.write_all(b"SELECT a FROM nowhere\n").unwrap();
            let mut reader = BufReader::new(&conn);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let nlines = protocol::parse_err_status(line.trim_end()).unwrap();
            for _ in 0..nlines {
                reader.read_line(&mut line).unwrap();
            }
            drop(reader);
            drop(conn);
            eventually("the handler to exit", || {
                net.stats().active == 0 && handlers().iter().all(JoinHandle::is_finished)
            });
        }
        let stats = net.stats();
        assert_eq!((stats.accepted, stats.refused), (4 * MAX_CONNS as u64, 0));
        let kept = handlers().len();
        assert!(
            kept <= MAX_CONNS + 1,
            "{kept} handles kept for closed connections"
        );
        net.shutdown();
    }
}
