//! matstrat-client: the thin client half of the wire protocol.
//!
//! A [`Client`] wraps one `TcpStream`, sends one dialect statement per
//! line, and parses the newline-framed response
//! (`matstrat_net::protocol`) into a [`Response`]: either [`Rows`]
//! (columns, row data, and the `OK` trailer's deterministic
//! measurements) or [`WireError`] (the server's rendered error,
//! caret snippet and all, verbatim).
//!
//! Every parsed response also keeps its **raw bytes** exactly as they
//! came off the socket — `tests/net_diff.rs` compares those bytes to a
//! locally rendered serial oracle, so "byte-identical over the wire"
//! is literal, not a paraphrase.
//!
//! The client is deliberately dumb: no pooling, no retries, no
//! pipelining. It exists for tests, benches, and `matstrat serve
//! --self-check`; a real application would wrap its own transport
//! around the protocol module.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use matstrat_net::protocol;

/// A successful response: header, rows, and the `OK` trailer fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    /// Column names from the header line.
    pub columns: Vec<String>,
    /// Row-major values, `columns.len()` per row.
    pub data: Vec<i64>,
    /// The trailer's `rows_out` (rows affected, for writes).
    pub rows_out: u64,
    /// The trailer's `reads=` — this query's own cold block reads.
    pub block_reads: u64,
    /// The response exactly as it crossed the wire.
    pub raw: Vec<u8>,
}

impl Rows {
    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.columns.len()).unwrap_or(0)
    }
}

/// An `ERR` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The server's message, newline-joined, exactly as rendered on
    /// the far side (for a compile failure: the three-line caret
    /// snippet).
    pub message: String,
    /// The response exactly as it crossed the wire.
    pub raw: Vec<u8>,
}

/// One response off the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `ROWS …` — the statement executed.
    Rows(Rows),
    /// `ERR …` — the statement was rejected (connection stays open).
    Err(WireError),
}

impl Response {
    /// The raw bytes of the response, whichever shape it took.
    pub fn raw(&self) -> &[u8] {
        match self {
            Response::Rows(r) => &r.raw,
            Response::Err(e) => &e.raw,
        }
    }

    /// The rows, or panic with the server's error — test ergonomics.
    pub fn expect_rows(self, context: &str) -> Rows {
        match self {
            Response::Rows(r) => r,
            Response::Err(e) => panic!("{context}: server said\n{}", e.message),
        }
    }
}

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Socket read size: a bulk reply arrives in tens of reads, not the
/// hundreds `BufReader`'s 8 KiB default costs.
const READ_BUF: usize = 64 * 1024;

impl Client {
    /// Connect to a running `NetServer`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = TcpStream::connect(&addrs[..])?;
        Client::from_stream(stream)
    }

    /// Wrap an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        let reader = BufReader::with_capacity(READ_BUF, stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Bound how long [`Client::query`] may wait on the server.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)
    }

    /// Send one statement (the newline is added here; `sql` itself
    /// must be a single line) and read its response.
    pub fn query(&mut self, sql: &str) -> io::Result<Response> {
        debug_assert!(!sql.contains('\n'), "the protocol is newline-framed");
        self.writer.write_all(sql.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.read_response()
    }

    /// Read one response off the socket (after a raw `send` by other
    /// means, or to drain a pipelined burst).
    pub fn read_response(&mut self) -> io::Result<Response> {
        read_response(&mut self.reader)
    }
}

/// Parse one response off any buffered byte source — what
/// [`Client::read_response`] runs over its socket.
///
/// Data rows are parsed where they lie in the reader's buffer: digits
/// accumulate into an integer, a tab or newline ends the field, and the
/// first byte of a line tells a row (`-` or a digit) from the `OK`
/// trailer. The parse state lives outside the buffer, so a row may
/// straddle any number of refills. A reply is accepted only in the form
/// the server emits: every row has exactly `ncols` fields, every field is
/// an optional `-` and 1–19 digits inside `i64`, and the trailer's
/// `rows_out` equals the rows received (for a write, the one
/// `rows_affected` cell). Anything else is `InvalidData`.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let mut raw = Vec::new();
    let status = read_line(reader, &mut raw)?;
    if let Some(nlines) = protocol::parse_err_status(status) {
        let body = raw.len();
        for _ in 0..nlines {
            read_line(reader, &mut raw)?;
        }
        // The lines joined by `\n` are the body less its last newline.
        let body = text(&raw[body..])?;
        let message = body.strip_suffix('\n').unwrap_or(body).to_string();
        return Ok(Response::Err(WireError { message, raw }));
    }
    let Some(ncols) = protocol::parse_rows_status(status) else {
        return Err(malformed(format!("unexpected status line: {status:?}")));
    };
    let header = read_line(reader, &mut raw)?;
    let columns: Vec<String> = header.split('\t').map(str::to_string).collect();
    if columns.len() != ncols {
        return Err(malformed(format!(
            "status promised {ncols} columns, header has {}",
            columns.len()
        )));
    }

    let mut data: Vec<i64> = Vec::new();
    let mut rows: u64 = 0;
    // The field being read: magnitude, digits seen, sign, column.
    let (mut acc, mut digits, mut neg, mut col) = (0u64, 0usize, false, 0usize);
    'rows: loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(closed_early());
        }
        let mut i = 0;
        while i < buf.len() {
            let b = buf[i];
            let d = b.wrapping_sub(b'0');
            if d <= 9 {
                // Nineteen digits cannot wrap a u64; a twentieth is
                // rejected below whatever the wrapped sum says.
                acc = acc.wrapping_mul(10).wrapping_add(u64::from(d));
                digits += 1;
                i += 1;
                continue;
            }
            let at_field_start = digits == 0 && !neg;
            match b {
                b'\t' | b'\n' => {
                    let limit = i64::MAX as u64 + u64::from(neg);
                    if digits == 0 || digits > 19 || acc > limit {
                        return Err(malformed(format!(
                            "row {rows}, field {col}: not an i64 in decimal"
                        )));
                    }
                    data.push(if neg {
                        acc.wrapping_neg() as i64
                    } else {
                        acc as i64
                    });
                    (acc, digits, neg) = (0, 0, false);
                    col += 1;
                    if b == b'\n' {
                        if col != ncols {
                            return Err(malformed(format!(
                                "row {rows} has {col} fields, header has {ncols}"
                            )));
                        }
                        col = 0;
                        rows += 1;
                    }
                }
                b'-' if at_field_start => neg = true,
                b'O' if at_field_start && col == 0 => {
                    raw.extend_from_slice(&buf[..i]);
                    reader.consume(i);
                    break 'rows;
                }
                _ => {
                    return Err(malformed(format!(
                        "row {rows}, field {col}: unexpected byte {b:#04x}"
                    )))
                }
            }
            i += 1;
        }
        raw.extend_from_slice(buf);
        let n = buf.len();
        reader.consume(n);
    }

    let trailer = read_line(reader, &mut raw)?;
    let Some((rows_out, block_reads)) = protocol::parse_ok_trailer(trailer) else {
        return Err(malformed(format!("unexpected trailer: {trailer:?}")));
    };
    let is_write_ack =
        rows == 1 && columns == [protocol::WRITE_HEADER] && u64::try_from(data[0]) == Ok(rows_out);
    if rows != rows_out && !is_write_ack {
        return Err(malformed(format!(
            "trailer promised {rows_out} rows, {rows} arrived"
        )));
    }
    Ok(Response::Rows(Rows {
        columns,
        data,
        rows_out,
        block_reads,
        raw,
    }))
}

/// Read one `\n`-terminated line, appending its bytes (newline
/// included) to `raw` and returning the text without it.
fn read_line<'a, R: BufRead>(reader: &mut R, raw: &'a mut Vec<u8>) -> io::Result<&'a str> {
    let start = raw.len();
    reader.read_until(b'\n', raw)?;
    if raw.len() == start || raw.last() != Some(&b'\n') {
        return Err(closed_early());
    }
    text(&raw[start..raw.len() - 1])
}

fn text(bytes: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(bytes).map_err(|_| malformed("response is not valid UTF-8".into()))
}

fn closed_early() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-response")
}

fn malformed(msg: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed response: {msg}"),
    )
}
