//! The wire grammar: newline-framed text, one statement per request.
//!
//! Requests are single lines of the `matstrat-lang` dialect terminated
//! by `\n` (a trailing `\r` is tolerated for `nc`/telnet clients).
//! Blank and whitespace-only lines are ignored — they produce no
//! response, so a scripted client must not count them. A line longer
//! than [`MAX_LINE`] bytes is a protocol error: the server answers
//! `ERR` and closes the connection.
//!
//! Responses come in exactly two shapes:
//!
//! ```text
//! response := rows | error
//! rows     := "ROWS " ncols "\n"
//!             name ("\t" name)* "\n"          -- header
//!             (int ("\t" int)* "\n")*         -- one line per row, streamed
//!             "OK " rows_out " reads=" block_reads "\n"
//! error    := "ERR " nlines "\n" (line "\n"){nlines}
//! ```
//!
//! Every value is a decimal `i64`; fields are tab-separated. The `OK`
//! trailer carries the two deterministic per-query measurements —
//! `rows_out` and this query's own cold `block_reads` (per-thread
//! harvest, exact under concurrency) — and nothing nondeterministic,
//! so a whole response is byte-comparable across interleavings: that
//! is what `tests/net_diff.rs` pins. Writes answer in the same shape
//! (`rows_affected` header, one row, `reads=0`).
//!
//! An `error` response carries the rendered error verbatim, one wire
//! line per source line — for compile failures that is
//! [`matstrat_lang::ParseError`]'s three-line caret snippet, character
//! columns intact on multi-byte input (`tests/net_protocol.rs` pins
//! the round-trip against the lang crate's snapshots). Errors never
//! close the connection; framing violations do.

use std::io::{self, BufRead, Write};

use matstrat_core::QueryOutcome;

/// Longest accepted request line, in bytes (framing guard, not a SQL
/// limit — the dialect never comes close).
pub const MAX_LINE: usize = 64 * 1024;

/// First token of a row response's status line.
pub const ROWS_PREFIX: &str = "ROWS ";
/// First token of an error response's status line.
pub const ERR_PREFIX: &str = "ERR ";
/// First token of a row response's trailer.
pub const OK_PREFIX: &str = "OK ";
/// The header of a write's reply: one row holding the count of rows
/// affected, which the trailer repeats as `rows_out` — the one reply
/// whose `rows_out` is not its number of rows.
pub const WRITE_HEADER: &str = "rows_affected";

/// Bytes rendered before a chunk is handed to the writer: large enough
/// that a bulk reply is a few dozen `write_all`s (each ≥ a `BufWriter`'s
/// capacity, so it goes to the socket uncopied), small enough that
/// rendering never holds a reply-sized buffer.
const RENDER_CHUNK: usize = 64 * 1024;

/// Longest rendered value: `-9223372036854775808`.
const MAX_I64_LEN: usize = 20;

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// `POW10[k] == 10^k`, up to the largest power a `u64` holds.
const POW10: [u64; 20] = {
    let mut t = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// Decimal digits of `u` (1 for zero), without a loop: the bit length
/// times log10(2) is the digit count or one short of it, and one table
/// compare settles which.
fn decimal_len(u: u64) -> usize {
    let bits = (64 - (u | 1).leading_zeros()) as usize;
    let t = (bits * 1233) >> 12;
    // `u | 1` counts zero as one digit; it changes no other answer (an
    // even `u` is never one below a power of ten).
    t + usize::from((u | 1) >= POW10[t])
}

/// Render `v` in decimal at the front of `out` (at least
/// [`MAX_I64_LEN`] bytes) and return its length — byte for byte what
/// `v.to_string()` produces, two digits per step from the low end.
fn put_i64(out: &mut [u8], v: i64) -> usize {
    let out = &mut out[..MAX_I64_LEN];
    let neg = usize::from(v < 0);
    let mut u = v.unsigned_abs();
    // Overwritten by the first digit when `v` is not negative.
    out[0] = b'-';
    let len = neg + decimal_len(u);
    let mut at = len;
    while u >= 100 {
        let pair = (u % 100) as usize * 2;
        u /= 100;
        at -= 2;
        out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if u >= 10 {
        let pair = u as usize * 2;
        out[at - 2..at].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[at - 1] = b'0' + u as u8;
    }
    len
}

/// The one reused render buffer of a reply: bytes accumulate until the
/// next value might not fit, then leave in a single `write_all`.
struct Chunk<'w, W: Write> {
    w: &'w mut W,
    buf: Vec<u8>,
    len: usize,
}

impl<W: Write> Chunk<'_, W> {
    fn flush(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf[..self.len])?;
        self.len = 0;
        Ok(())
    }

    /// Text of any length (the header and trailer lines).
    fn bytes(&mut self, mut b: &[u8]) -> io::Result<()> {
        while !b.is_empty() {
            if self.len == self.buf.len() {
                self.flush()?;
            }
            let n = b.len().min(self.buf.len() - self.len);
            self.buf[self.len..self.len + n].copy_from_slice(&b[..n]);
            self.len += n;
            b = &b[n..];
        }
        Ok(())
    }

    /// One value and the separator that follows it.
    fn value(&mut self, v: i64, sep: u8) -> io::Result<()> {
        if self.buf.len() - self.len <= MAX_I64_LEN {
            self.flush()?;
        }
        self.len += put_i64(&mut self.buf[self.len..], v);
        self.buf[self.len] = sep;
        self.len += 1;
        Ok(())
    }
}

/// Stream one executed statement's response: status line, header,
/// rows, `OK` trailer. The flat result buffer is walked once and
/// rendered into one bounded chunk that is handed to `w` whenever it
/// fills, so a reply that fits the chunk (any ≤ 100-row one does)
/// reaches `w` in a single `write_all`. `Vec<u8>` is a `Write`r too, so
/// the serial oracle renders reference bytes through this same function.
pub fn write_outcome<W: Write>(w: &mut W, out: &QueryOutcome) -> io::Result<()> {
    let rows = &out.rows;
    let (width, data) = (rows.width(), rows.flat());
    let head = format!("{ROWS_PREFIX}{width}\n{}\n", rows.column_names.join("\t"));
    let tail = format!(
        "{OK_PREFIX}{} reads={}\n",
        out.stats.rows_out,
        out.block_reads()
    );
    let whole = head.len() + data.len() * (MAX_I64_LEN + 1) + tail.len();
    let mut chunk = Chunk {
        w,
        buf: vec![0; whole.clamp(MAX_I64_LEN + 1, RENDER_CHUNK)],
        len: 0,
    };
    chunk.bytes(head.as_bytes())?;
    if let Some(last) = width.checked_sub(1) {
        for row in data.chunks_exact(width) {
            for &v in &row[..last] {
                chunk.value(v, b'\t')?;
            }
            chunk.value(row[last], b'\n')?;
        }
    }
    chunk.bytes(tail.as_bytes())?;
    chunk.flush()
}

/// Render an error response: `ERR <nlines>` then the message verbatim,
/// one wire line per message line (a trailing newline in `msg` does
/// not produce an empty extra line).
pub fn write_error<W: Write>(w: &mut W, msg: &str) -> io::Result<()> {
    let lines: Vec<&str> = msg.lines().collect();
    writeln!(w, "{}{}", ERR_PREFIX, lines.len().max(1))?;
    if lines.is_empty() {
        writeln!(w, "unknown error")?;
    }
    for l in &lines {
        writeln!(w, "{l}")?;
    }
    Ok(())
}

/// Parse a `ROWS <ncols>` status line.
pub fn parse_rows_status(line: &str) -> Option<usize> {
    line.strip_prefix(ROWS_PREFIX)?.trim().parse().ok()
}

/// Parse an `ERR <nlines>` status line.
pub fn parse_err_status(line: &str) -> Option<usize> {
    line.strip_prefix(ERR_PREFIX)?.trim().parse().ok()
}

/// Parse an `OK <rows_out> reads=<block_reads>` trailer.
pub fn parse_ok_trailer(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix(OK_PREFIX)?;
    let (rows, reads) = rest.split_once(' ')?;
    let reads = reads.strip_prefix("reads=")?;
    Some((rows.trim().parse().ok()?, reads.trim().parse().ok()?))
}

/// One framing read from a connection.
#[derive(Debug)]
pub enum LineRead {
    /// A complete line (newline stripped; may still carry a trailing
    /// `\r` — the caller trims).
    Line(Vec<u8>),
    /// Clean end of stream on a line boundary.
    Eof,
    /// The peer vanished mid-line: bytes arrived, then EOF before the
    /// newline. No response is owed for a torn request.
    Torn,
    /// The line outgrew [`MAX_LINE`] before its newline arrived.
    TooLong,
    /// The socket's read timeout fired — an abandoned connection.
    TimedOut,
}

/// Read one newline-framed line, bounded by `max` bytes. Timeouts
/// (`WouldBlock`/`TimedOut`, however the platform spells them) are a
/// [`LineRead::TimedOut`] outcome, not an error; connection resets
/// read as EOF/torn rather than bubbling an `Err`.
pub fn read_line_bounded<R: BufRead>(r: &mut R, max: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(LineRead::TimedOut)
            }
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionReset
                    || e.kind() == io::ErrorKind::ConnectionAborted
                    || e.kind() == io::ErrorKind::BrokenPipe =>
            {
                return Ok(if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Torn
                })
            }
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Torn
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                buf.extend_from_slice(&chunk[..i]);
                r.consume(i + 1);
                if buf.len() > max {
                    return Ok(LineRead::TooLong);
                }
                return Ok(LineRead::Line(buf));
            }
            None => {
                buf.extend_from_slice(chunk);
                let n = chunk.len();
                r.consume(n);
                if buf.len() > max {
                    return Ok(LineRead::TooLong);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matstrat_core::{QueryPlan, QueryResult, QueryStats};
    use proptest::prelude::*;

    fn outcome(cols: &[&str], data: Vec<i64>, reads: u64) -> QueryOutcome {
        let rows = QueryResult::from_flat(cols.iter().map(|c| c.to_string()).collect(), data);
        let rows_out = rows.num_rows() as u64;
        let mut stats = QueryStats {
            rows_out,
            ..QueryStats::default()
        };
        stats.io.block_reads = reads;
        QueryOutcome {
            rows,
            stats,
            choice: QueryPlan::Write,
        }
    }

    #[test]
    fn outcome_renders_header_rows_and_trailer() {
        let mut buf = Vec::new();
        write_outcome(&mut buf, &outcome(&["a", "b"], vec![1, 2, -3, 40], 7)).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "ROWS 2\na\tb\n1\t2\n-3\t40\nOK 2 reads=7\n"
        );
    }

    fn rendered(v: i64) -> String {
        let mut out = [0u8; MAX_I64_LEN];
        let n = put_i64(&mut out, v);
        String::from_utf8(out[..n].to_vec()).unwrap()
    }

    #[test]
    fn put_i64_matches_to_string_at_every_length_boundary() {
        let mut cases = vec![0, i64::MAX, i64::MIN, i64::MIN + 1];
        for p in POW10.iter().take(19).map(|&p| p as i64) {
            cases.extend([p - 1, p, p + 1, -(p - 1), -p, -(p + 1)]);
        }
        // Where the bit-length estimate of the digit count changes.
        for bits in 1..63 {
            let p = 1i64 << bits;
            cases.extend([p - 1, p, -(p - 1), -p]);
        }
        for v in cases {
            assert_eq!(rendered(v), v.to_string());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn put_i64_matches_to_string(bits in i64::MIN..i64::MAX, shift in 0u32..64) {
            // The shift spreads cases over every digit count.
            let v = bits >> shift;
            prop_assert_eq!(rendered(v), v.to_string());
        }
    }

    /// The row-at-a-time `fmt` rendering `write_outcome` replaced, kept
    /// as the reference its bytes are compared against.
    fn reference(out: &QueryOutcome) -> Vec<u8> {
        let rows = &out.rows;
        let mut s = format!("ROWS {}\n{}\n", rows.width(), rows.column_names.join("\t"));
        for row in rows.rows() {
            let cells: Vec<String> = row.iter().map(i64::to_string).collect();
            s.push_str(&cells.join("\t"));
            s.push('\n');
        }
        s.push_str(&format!(
            "OK {} reads={}\n",
            out.stats.rows_out,
            out.block_reads()
        ));
        s.into_bytes()
    }

    /// Records the size of every `write` and accepts at most `limit`
    /// bytes of each.
    struct Recorder {
        limit: usize,
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Recorder {
        fn accepting(limit: usize) -> Recorder {
            Recorder {
                limit,
                bytes: Vec::new(),
                writes: Vec::new(),
            }
        }
    }

    impl Write for Recorder {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            let n = b.len().min(self.limit);
            self.bytes.extend_from_slice(&b[..n]);
            self.writes.push(n);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_short_reply_leaves_in_one_write() {
        // 100 rows of the widest values a six-column reply can carry.
        let out = outcome(&["a", "b", "c", "d", "e", "f"], vec![i64::MIN; 600], 3);
        let mut w = Recorder::accepting(usize::MAX);
        write_outcome(&mut w, &out).unwrap();
        assert_eq!(w.writes.len(), 1);
        assert_eq!(w.bytes, reference(&out));
    }

    #[test]
    fn an_empty_result_is_header_and_trailer_in_one_write() {
        let out = outcome(&["a", "b"], Vec::new(), 0);
        let mut w = Recorder::accepting(usize::MAX);
        write_outcome(&mut w, &out).unwrap();
        assert_eq!(w.writes.len(), 1);
        assert_eq!(w.bytes, b"ROWS 2\na\tb\nOK 0 reads=0\n");
    }

    #[test]
    fn chunks_are_bounded_and_every_boundary_alignment_renders_exactly() {
        // "ROWS 1\na\n" then two bytes a row: sweeping the row count
        // moves the trailer across the end of the first and second
        // chunk one byte at a time, the exactly-full chunk included.
        for chunks in 1..=2 {
            let at_boundary = chunks * RENDER_CHUNK / 2;
            for n in at_boundary - 24..at_boundary + 24 {
                let out = outcome(&["a"], vec![7; n], 1);
                let mut w = Recorder::accepting(usize::MAX);
                write_outcome(&mut w, &out).unwrap();
                assert_eq!(w.bytes, reference(&out), "{n} rows");
                assert!(w.writes.iter().all(|&len| len <= RENDER_CHUNK));
                assert!(w.writes.len() <= chunks + 1, "{n} rows: {:?}", w.writes);
            }
        }
    }

    #[test]
    fn a_writer_taking_one_byte_per_call_still_gets_every_byte() {
        let data: Vec<i64> = (0..40_000).map(|i| (i - 20_000) * 7919).collect();
        let out = outcome(&["a", "b"], data, 9);
        let mut w = Recorder::accepting(1);
        write_outcome(&mut w, &out).unwrap();
        assert!(w.bytes.len() > 2 * RENDER_CHUNK, "must span chunks");
        assert_eq!(w.writes.len(), w.bytes.len());
        assert_eq!(w.bytes, reference(&out));
    }

    #[test]
    fn error_renders_each_message_line() {
        let mut buf = Vec::new();
        write_error(&mut buf, "line 1, column 3: nope\n  | ab\n  |   ^").unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "ERR 3\nline 1, column 3: nope\n  | ab\n  |   ^\n"
        );
    }

    #[test]
    fn status_and_trailer_lines_round_trip() {
        assert_eq!(parse_rows_status("ROWS 3"), Some(3));
        assert_eq!(parse_rows_status("ROW 3"), None);
        assert_eq!(parse_err_status("ERR 2"), Some(2));
        assert_eq!(parse_ok_trailer("OK 42 reads=9"), Some((42, 9)));
        assert_eq!(parse_ok_trailer("OK 42"), None);
    }

    #[test]
    fn bounded_reader_frames_eof_torn_and_oversize() {
        let mut r = io::BufReader::new(&b"SELECT 1\npartial"[..]);
        match read_line_bounded(&mut r, 64).unwrap() {
            LineRead::Line(l) => assert_eq!(l, b"SELECT 1"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            read_line_bounded(&mut r, 64).unwrap(),
            LineRead::Torn
        ));
        let mut r = io::BufReader::new(&b""[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 64).unwrap(),
            LineRead::Eof
        ));
        let long = [b'x'; 100];
        let mut r = io::BufReader::new(&long[..]);
        assert!(matches!(
            read_line_bounded(&mut r, 64).unwrap(),
            LineRead::TooLong
        ));
    }
}
