//! Render → parse round trip: whatever `protocol::write_outcome` emits,
//! `client::read_response` reads back value for value and byte for byte.
//!
//! The two ends are written against each other's output only through
//! the grammar, so this battery is where they meet without a socket in
//! between: random widths and magnitudes, row counts on both sides of
//! the server's 64 KiB render chunk, and a reader buffer small enough
//! that every row straddles a refill.

use std::io::BufReader;

use matstrat::client::{read_response, Response, Rows};
use matstrat::net::protocol;
use matstrat::prelude::*;
use proptest::prelude::*;

/// The server's render chunk (`protocol::RENDER_CHUNK` is private; the
/// boundary cases below only need to land on both sides of it).
const CHUNK: usize = 64 * 1024;

fn outcome(width: usize, data: Vec<Value>, block_reads: u64) -> QueryOutcome {
    let names = (0..width).map(|c| format!("c{c}")).collect();
    let rows = QueryResult::from_flat(names, data);
    let mut stats = QueryStats {
        rows_out: rows.num_rows() as u64,
        ..QueryStats::default()
    };
    stats.io.block_reads = block_reads;
    QueryOutcome {
        rows,
        stats,
        choice: QueryPlan::Write,
    }
}

/// Render `out`, parse it back through a reader of `read_buf` bytes,
/// and hold the result to the outcome it came from.
fn round_trip(out: &QueryOutcome, read_buf: usize) -> Rows {
    let mut wire = Vec::new();
    protocol::write_outcome(&mut wire, out).unwrap();
    let mut reader = BufReader::with_capacity(read_buf, &wire[..]);
    let rows = match read_response(&mut reader).unwrap() {
        Response::Rows(rows) => rows,
        Response::Err(e) => panic!("a rendered outcome parsed as ERR: {}", e.message),
    };
    assert_eq!(rows.data, out.rows.flat());
    assert_eq!(rows.columns, out.rows.column_names);
    assert_eq!(rows.rows_out, out.stats.rows_out);
    assert_eq!(rows.block_reads, out.block_reads());
    assert_eq!(rows.raw, wire, "raw must be the bytes that crossed");
    assert!(reader.buffer().is_empty(), "nothing read past the trailer");
    rows
}

#[test]
fn an_empty_result_round_trips() {
    let rows = round_trip(&outcome(3, Vec::new(), 0), CHUNK);
    assert_eq!(rows.num_rows(), 0);
}

#[test]
fn the_extremes_of_i64_round_trip() {
    let data = vec![i64::MIN, i64::MAX, 0, -1, i64::MIN + 1, i64::MAX - 1];
    round_trip(&outcome(2, data.clone(), 5), 7);
    round_trip(&outcome(6, data, 5), CHUNK);
}

/// Two-byte rows after a nine-byte header: every row count in the sweep
/// puts the end of the reply at a different offset from the end of the
/// first (and second) render chunk, the exactly-full chunk included.
#[test]
fn replies_ending_on_either_side_of_a_chunk_boundary_round_trip() {
    for chunks in 1..=2 {
        let at_boundary = chunks * CHUNK / 2;
        for n in at_boundary - 16..at_boundary + 16 {
            round_trip(&outcome(1, vec![7; n], 1), CHUNK);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_outcome_round_trips(
        width in 1usize..7,
        // From nothing to several render chunks, whatever the width.
        rows in 0usize..20_000,
        bits in prop::collection::vec((i64::MIN..i64::MAX, 0u32..64), 1..64),
        read_buf in prop::sample::select(&[1usize, 5, 64, 4096, CHUNK][..]),
        block_reads in 0u64..1000,
    ) {
        // The shift spreads magnitudes over every digit count; the
        // pattern then repeats down the flat buffer.
        let pattern = bits.iter().map(|&(b, s)| b >> s);
        let data: Vec<Value> = pattern.cycle().take(rows * width).collect();
        round_trip(&outcome(width, data, block_reads), read_buf);
    }
}
