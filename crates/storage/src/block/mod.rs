//! Encoded 64 KB blocks: the unit of disk I/O and of pipelined execution.
//!
//! A block is self-describing: a 16-byte common header (encoding tag,
//! value width, row count, start position) followed by a codec-specific
//! payload. In memory a block stays in its *compressed* form — RLE blocks
//! are run triples, bit-vector blocks are bit-strings — exactly as the
//! paper's mini-columns do, so operators can work on compressed data
//! directly.
//!
//! Each codec implements three kernels, every one over a window already
//! clipped to its block:
//!
//! * `scan_positions_in(pred, window)` — DS1: predicate → positions;
//! * `gather_ranges_into(ranges, out)` and `gather_into(positions, out)` —
//!   DS3 over a range descriptor and at ascending points, written into a
//!   strided destination ([`Slots`]) so a value goes from its block
//!   straight into its tuple slot;
//! * RLE's `runs_in(window, f)`, its stored runs. Every other codec shares
//!   one default here that decodes the window and coalesces it.
//!
//! Everything else on [`EncodedBlock`] is derived from them once, here:
//! whole-block forms are the window [`covering`](EncodedBlock::covering),
//! DS2 ([`scan_pairs_in`](EncodedBlock::scan_pairs_in)) is DS1 then DS3,
//! DS4 ([`value_at`](EncodedBlock::value_at)) is a one-position gather,
//! and full or ranged decompression is a range gather. The one
//! any-order point gather
//! ([`gather_unsorted_into`](EncodedBlock::gather_unsorted_into), a
//! join's probe-order fetch) is the point kernel where a codec indexes
//! each position on its own (plain, dict), a binary search per position
//! on RLE, and one decode of the positions' span on bit-vector. A
//! dictionary block's code access (its dictionary, `gather_codes`) stays
//! a Dict-only extension.
//!
//! Bit-vector DS3 decompresses inside the codec: a position's value is
//! found only by reading every bit-string over it (§4.1), so its gathers
//! decode the rows they span. Callers flag such fetches as
//! `decompressed_fetch`.

mod bitvec;
mod dict;
mod plain;
mod rle;

pub use bitvec::BitVecBlock;
pub use dict::DictBlock;
pub use plain::PlainBlock;
pub use rle::{RleBlock, RleRun};

use matstrat_common::{codeops, Error, Pos, PosRange, Predicate, Result, Value};
use matstrat_poslist::PosList;

use crate::encoding::EncodingKind;
use crate::wire::{put_u16, put_u32, put_u64, put_u8, Reader};
use crate::BLOCK_SIZE;

/// Size in bytes of the common block header.
pub const BLOCK_HEADER_SIZE: usize = 16;

/// A strided destination: the cells of one output column in a row-major
/// buffer — every `stride`-th value from the column's offset on — filled
/// in order. DS3 writes through it, so each gathered value lands in its
/// tuple slot with no intermediate vector; a plain `Vec` is the stride-1
/// case, where fills and copies run as slice fills and copies. How many
/// cells a gather filled is the drop in [`len`](Slots::len).
#[derive(Debug)]
pub struct Slots<'a> {
    /// From the next cell to fill on.
    cells: &'a mut [Value],
    stride: usize,
}

impl<'a> Slots<'a> {
    /// The cells of column `col` of `rows`, a row-major buffer of
    /// `width`-value rows.
    ///
    /// # Panics
    /// Panics if `width` is 0.
    pub fn column(rows: &'a mut [Value], col: usize, width: usize) -> Slots<'a> {
        assert!(width > 0, "a row holds at least one column");
        Slots {
            cells: rows.get_mut(col..).unwrap_or_default(),
            stride: width,
        }
    }

    /// Cells left to fill.
    pub fn len(&self) -> usize {
        self.cells.len().div_ceil(self.stride)
    }

    /// Whether every cell is filled.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Fill the next `n` cells — fewer if fewer are left — with `v`.
    pub fn fill(&mut self, n: usize, v: Value) {
        let stride = self.stride;
        let span = self.advance(n * stride);
        if stride == 1 {
            span.fill(v);
        } else {
            let mut at = 0;
            while at < span.len() {
                span[at] = v;
                at += stride;
            }
        }
    }

    /// Write `values` to the next cells, until either runs out.
    #[inline]
    pub fn put(&mut self, values: impl IntoIterator<Item = Value>) {
        // Indexed rather than zipped with a strided iterator: a zip sizes
        // itself by dividing by the stride on every call.
        let mut at = 0;
        if self.stride == 1 {
            for (cell, v) in self.cells.iter_mut().zip(values) {
                *cell = v;
                at += 1;
            }
        } else {
            for v in values {
                let Some(cell) = self.cells.get_mut(at) else {
                    break;
                };
                *cell = v;
                at += self.stride;
            }
        }
        self.advance(at);
    }

    /// Write `values[k]` to cell `rows[k]`, counting from the next cell,
    /// in any order and without moving on: how values gathered in another
    /// order land in row order. [`skip`](Self::skip) then moves past the
    /// cells. A row past the last cell is not written.
    #[inline]
    pub fn scatter(&mut self, rows: &[u32], values: &[Value]) {
        let stride = self.stride;
        for (&r, &v) in rows.iter().zip(values) {
            if let Some(cell) = self.cells.get_mut(r as usize * stride) {
                *cell = v;
            }
        }
    }

    /// Move past the next `n` cells — fewer if fewer are left — leaving
    /// them as they are.
    pub fn skip(&mut self, n: usize) {
        self.advance(n * self.stride);
    }

    /// Move `offset` values on (clamped to the buffer), returning the span
    /// passed over.
    #[inline]
    fn advance(&mut self, offset: usize) -> &'a mut [Value] {
        let cells = std::mem::take(&mut self.cells);
        let (span, rest) = cells.split_at_mut(offset.min(cells.len()));
        self.cells = rest;
        span
    }

    /// Write the next `n` cells — fewer if fewer are left — through
    /// `write`, which fills them as one slice in any order: the cells
    /// themselves at stride 1, a zeroed scratch copied out at any other.
    fn put_slice(&mut self, n: usize, write: impl FnOnce(&mut [Value])) {
        if self.stride == 1 {
            write(self.advance(n));
        } else {
            let mut scratch = vec![0; n.min(self.len())];
            write(&mut scratch);
            self.put(scratch);
        }
    }
}

/// Append `n` values to `out` through `fill`, which writes them into the
/// new cells.
fn append(out: &mut Vec<Value>, n: usize, fill: impl FnOnce(&mut Slots<'_>)) {
    let at = out.len();
    out.resize(at + n, 0);
    fill(&mut Slots::column(&mut out[at..], 0, 1));
}

/// The error a position fetch outside block `cov` raises.
fn outside_block(p: Pos, cov: PosRange) -> Error {
    Error::invalid(format!("position {p} outside block {cov}"))
}

/// Errors unless ascending `positions` all lie in block `cov`. Ascending,
/// they all do once the first and the last do, so only those two are
/// checked: the codecs' point kernels index by offset from the block's
/// start.
#[inline]
fn check_ends(positions: &[Pos], cov: PosRange) -> Result<()> {
    debug_assert!(positions.is_sorted(), "positions must ascend");
    match [positions.first(), positions.last()]
        .into_iter()
        .flatten()
        .find(|&&p| !cov.contains(p))
    {
        Some(&p) => Err(outside_block(p, cov)),
        None => Ok(()),
    }
}

/// A parsed, still-compressed block of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedBlock {
    /// Fixed-width packed values.
    Plain(PlainBlock),
    /// Run-length encoded values.
    Rle(RleBlock),
    /// Bit-vector encoded values.
    BitVec(BitVecBlock),
    /// Dictionary encoded values (extension).
    Dict(DictBlock),
}

/// `$body` with `$b` bound to whichever codec's block `$block` holds.
macro_rules! each_codec {
    ($block:expr, $b:ident => $body:expr) => {
        match $block {
            EncodedBlock::Plain($b) => $body,
            EncodedBlock::Rle($b) => $body,
            EncodedBlock::BitVec($b) => $body,
            EncodedBlock::Dict($b) => $body,
        }
    };
}

impl EncodedBlock {
    /// The encoding of this block.
    pub fn encoding(&self) -> EncodingKind {
        match self {
            EncodedBlock::Plain(_) => EncodingKind::Plain,
            EncodedBlock::Rle(_) => EncodingKind::Rle,
            EncodedBlock::BitVec(_) => EncodingKind::BitVec,
            EncodedBlock::Dict(_) => EncodingKind::Dict,
        }
    }

    /// Absolute position of the block's first row.
    #[inline]
    pub fn start_pos(&self) -> Pos {
        each_codec!(self, b => b.start_pos())
    }

    /// Number of rows in the block.
    #[inline]
    pub fn num_rows(&self) -> u32 {
        each_codec!(self, b => b.num_rows())
    }

    /// The positions covered: `[start_pos, start_pos + num_rows)`.
    #[inline]
    pub fn covering(&self) -> PosRange {
        let s = self.start_pos();
        PosRange::new(s, s + self.num_rows() as u64)
    }

    /// The codec's DS1 kernel over `w`, a non-empty window inside the
    /// block, charging the code-op ledger nothing.
    fn select(&self, pred: &Predicate, w: PosRange) -> PosList {
        each_codec!(self, b => b.scan_positions_in(pred, w))
    }

    /// The codec's point kernel, at ascending positions inside the block.
    #[inline]
    fn gather_points(&self, positions: &[Pos], out: &mut Slots<'_>) {
        each_codec!(self, b => b.gather_into(positions, out))
    }

    /// DS1: positions (absolute) whose values satisfy `pred`.
    pub fn scan_positions(&self, pred: &Predicate) -> PosList {
        self.scan_positions_in(pred, self.covering())
    }

    /// DS1 over the rows inside `window ∩ covering` only — what lets a
    /// pipelined executor work one position-granule at a time without
    /// rescanning a wide block (an RLE block can cover millions of
    /// positions).
    ///
    /// The representation follows the codec: RLE emits ranges,
    /// bit-vector a bitmap (the OR of the matching bit-strings), plain
    /// and dict what the builder heuristic picks. The code-op ledger is
    /// charged the work done on encoded data: one compare per run (RLE),
    /// per distinct value (bit-vector) or per code (dict).
    pub fn scan_positions_in(&self, pred: &Predicate, window: PosRange) -> PosList {
        let w = self.covering().intersect(&window);
        if w.is_empty() {
            return PosList::empty();
        }
        codeops::add(match self {
            EncodedBlock::Plain(_) => 0,
            EncodedBlock::Rle(b) => b.runs_overlapping(w).len() as u64,
            EncodedBlock::BitVec(b) => b.distinct_values().len() as u64,
            EncodedBlock::Dict(_) => w.len(),
        });
        self.select(pred, w)
    }

    /// DS2: (position, value) pairs satisfying `pred`, appended to the two
    /// output vectors in ascending position order.
    pub fn scan_pairs(&self, pred: &Predicate, out_pos: &mut Vec<Pos>, out_val: &mut Vec<Value>) {
        self.scan_pairs_in(pred, self.covering(), out_pos, out_val);
    }

    /// DS2 over the rows inside `window ∩ covering`: DS1, then DS3 at its
    /// matches — a range gather over ranges, a point gather at any other
    /// representation's positions. Only dict's per-code test is charged
    /// to the code-op ledger: RLE and bit-vector pairs are decompressed.
    pub fn scan_pairs_in(
        &self,
        pred: &Predicate,
        window: PosRange,
        out_pos: &mut Vec<Pos>,
        out_val: &mut Vec<Value>,
    ) {
        let w = self.covering().intersect(&window);
        if w.is_empty() {
            return;
        }
        if let EncodedBlock::Dict(_) = self {
            codeops::add(w.len());
        }
        let matches = self.select(pred, w);
        let at = out_pos.len();
        match &matches {
            PosList::Ranges(rl) => {
                for r in rl.ranges() {
                    out_pos.extend(r.start..r.end);
                }
            }
            PosList::Bitmap(bm) => bm.positions_in(w, out_pos),
            PosList::Explicit(pv) => out_pos.extend_from_slice(pv.as_slice()),
        }
        append(out_val, out_pos.len() - at, |cells| match &matches {
            PosList::Ranges(rl) => self.gather_ranges_into(rl.ranges(), cells),
            _ => self.gather_points(&out_pos[at..], cells),
        });
    }

    /// DS3 point form: values at **ascending** positions (repeats
    /// allowed), all inside this block, appended to `out`.
    pub fn gather(&self, positions: &[Pos], out: &mut Vec<Value>) -> Result<()> {
        check_ends(positions, self.covering())?;
        append(out, positions.len(), |cells| {
            self.gather_points(positions, cells)
        });
        Ok(())
    }

    /// [`gather`](Self::gather) written to the next cells of `out`. Errs,
    /// before any cell is written, unless the positions lie in the block.
    #[inline]
    pub fn gather_into(&self, positions: &[Pos], out: &mut Slots<'_>) -> Result<()> {
        check_ends(positions, self.covering())?;
        self.gather_points(positions, out);
        Ok(())
    }

    /// DS3 at positions in **any** order (repeats allowed), all inside
    /// this block, written to the next cells of `out` in the order given:
    /// how a probe-order join fetch reads one block's bucket of positions.
    /// Plain and dict index each position on its own, as their ascending
    /// kernels do; RLE finds each position's run by binary search;
    /// bit-vector decodes the rows from the least position to the
    /// greatest once. Errs, before any cell is written, unless every
    /// position lies in the block: the kernels index by offset from the
    /// block's start.
    pub fn gather_unsorted_into(&self, positions: &[Pos], out: &mut Slots<'_>) -> Result<()> {
        let Some(&first) = positions.first() else {
            return Ok(());
        };
        let (lo, hi) = positions
            .iter()
            .fold((first, first), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        let cov = self.covering();
        if let Some(p) = [lo, hi].into_iter().find(|&p| !cov.contains(p)) {
            return Err(outside_block(p, cov));
        }
        match self {
            EncodedBlock::Rle(b) => b.gather_unsorted_into(positions, out),
            EncodedBlock::BitVec(b) => b.gather_between(lo, hi, positions, out),
            _ => self.gather_points(positions, out),
        }
        Ok(())
    }

    /// DS3 range form, and decompression of a range: the values at every
    /// position of `range`, which must lie inside this block, appended to
    /// `out` in position order.
    pub fn gather_range(&self, range: PosRange, out: &mut Vec<Value>) -> Result<()> {
        let cov = self.covering();
        if !range.is_empty() && (range.start < cov.start || range.end > cov.end) {
            return Err(Error::invalid(format!("range {range} outside block {cov}")));
        }
        self.append_range(range, out);
        Ok(())
    }

    /// Append the values of `range`, inside the block, to `out`: a range
    /// gather into new cells, except on RLE, which extends `out` by each
    /// overlapping run — one write per value and no run cursor, where the
    /// gather zeroes the cells first and then fills them a run at a time
    /// (`block.decode_ns_per_value.rle`).
    fn append_range(&self, range: PosRange, out: &mut Vec<Value>) {
        match self {
            EncodedBlock::Rle(b) => b.decode_range(range, out),
            _ => append(out, range.len() as usize, |cells| {
                self.gather_ranges_into(&[range], cells)
            }),
        }
    }

    /// DS3 over a range descriptor, written strided: the values at the
    /// positions of `ranges` — ascending and disjoint, each clipped to this
    /// block — go to the next cells of `out` in position order. Each codec
    /// walks the ranges and its own layout together: RLE keeps one run
    /// cursor, plain unpacks with one loop per width, dict indexes its
    /// dictionary by code, bit-vector scatters each value's bit-string
    /// words.
    pub fn gather_ranges_into(&self, ranges: &[PosRange], out: &mut Slots<'_>) {
        each_codec!(self, b => b.gather_ranges_into(ranges, out))
    }

    /// DS4 probe: the value at one absolute position — a one-position
    /// point gather, allocating nothing.
    #[inline]
    pub fn value_at(&self, pos: Pos) -> Result<Value> {
        let mut v = 0;
        let cells = std::slice::from_mut(&mut v);
        self.gather_into(&[pos], &mut Slots { cells, stride: 1 })?;
        Ok(v)
    }

    /// Full decompression: every value of the block in position order,
    /// appended to `out`. This is the paper's "tuple construction requires
    /// decompression" path.
    pub fn decode_all(&self, out: &mut Vec<Value>) {
        self.append_range(self.covering(), out);
    }

    /// Visit maximal runs of equal values in position order as
    /// `(value, absolute position range)`.
    pub fn for_each_run(&self, f: impl FnMut(Value, PosRange)) {
        self.for_each_run_in(self.covering(), f);
    }

    /// [`for_each_run`](Self::for_each_run) over `window ∩ covering`. RLE
    /// blocks visit their stored runs, O(runs) with no decompression — what
    /// lets operators (notably the aggregator) work an entire run at a
    /// time, the §2.1.2 "operate directly on compressed data" win. Every
    /// other codec decodes the window and coalesces it.
    pub fn for_each_run_in(&self, window: PosRange, mut f: impl FnMut(Value, PosRange)) {
        let w = self.covering().intersect(&window);
        if w.is_empty() {
            return;
        }
        if let EncodedBlock::Rle(b) = self {
            return b.runs_in(w, f);
        }
        let mut vals = Vec::new();
        self.append_range(w, &mut vals);
        let mut start = w.start;
        for (p, pair) in (w.start + 1..).zip(vals.windows(2)) {
            if pair[0] != pair[1] {
                f(pair[0], PosRange::new(start, p));
                start = p;
            }
        }
        f(vals[vals.len() - 1], PosRange::new(start, w.end));
    }

    /// Serialize to the on-disk format (≤ [`BLOCK_SIZE`] bytes).
    pub fn serialize(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1024);
        put_u8(&mut buf, self.encoding().tag());
        let width = match self {
            EncodedBlock::Plain(b) => b.width().bytes() as u8,
            EncodedBlock::Dict(b) => b.code_width() as u8,
            _ => 0,
        };
        put_u8(&mut buf, width);
        put_u16(&mut buf, 0); // reserved
        put_u32(&mut buf, self.num_rows());
        put_u64(&mut buf, self.start_pos());
        debug_assert_eq!(buf.len(), BLOCK_HEADER_SIZE);
        each_codec!(self, b => b.serialize_payload(&mut buf));
        debug_assert!(
            buf.len() <= BLOCK_SIZE,
            "serialized block exceeds 64KB: {} bytes",
            buf.len()
        );
        buf
    }

    /// Parse a serialized block.
    pub fn parse(bytes: &[u8]) -> Result<EncodedBlock> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let width = r.u8()?;
        let _reserved = r.u16()?;
        let count = r.u32()?;
        let start_pos = r.u64()?;
        match EncodingKind::from_tag(tag)? {
            EncodingKind::Plain => Ok(EncodedBlock::Plain(PlainBlock::parse_payload(
                start_pos, count, width, &mut r,
            )?)),
            EncodingKind::Rle => Ok(EncodedBlock::Rle(RleBlock::parse_payload(
                start_pos, count, &mut r,
            )?)),
            EncodingKind::BitVec => Ok(EncodedBlock::BitVec(BitVecBlock::parse_payload(
                start_pos, count, &mut r,
            )?)),
            EncodingKind::Dict => Ok(EncodedBlock::Dict(DictBlock::parse_payload(
                start_pos, count, width, &mut r,
            )?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matstrat_common::Width;

    fn sample_values() -> Vec<Value> {
        // Semi-sorted with runs, typical of a secondarily-sorted column.
        let mut v = Vec::new();
        for run in 0..20 {
            for _ in 0..(run % 5 + 1) {
                v.push(run % 7);
            }
        }
        v
    }

    fn all_blocks(values: &[Value], start: Pos) -> Vec<EncodedBlock> {
        vec![
            EncodedBlock::Plain(PlainBlock::from_values(start, Width::W4, values)),
            EncodedBlock::Rle(RleBlock::from_values(start, values)),
            EncodedBlock::BitVec(BitVecBlock::from_values(start, values)),
            EncodedBlock::Dict(DictBlock::from_values(start, values)),
        ]
    }

    #[test]
    fn serialize_parse_roundtrip_all_codecs() {
        let values = sample_values();
        for block in all_blocks(&values, 1000) {
            let bytes = block.serialize();
            let back = EncodedBlock::parse(&bytes).unwrap();
            assert_eq!(back.encoding(), block.encoding());
            assert_eq!(back.start_pos(), 1000);
            assert_eq!(back.num_rows() as usize, values.len());
            let mut decoded = Vec::new();
            back.decode_all(&mut decoded);
            assert_eq!(decoded, values, "{:?}", block.encoding());
        }
    }

    #[test]
    fn scan_positions_matches_naive_filter() {
        let values = sample_values();
        let preds = [
            Predicate::lt(3),
            Predicate::eq(0),
            Predicate::ge(5),
            Predicate::ne(2),
            Predicate::between(1, 4),
        ];
        for block in all_blocks(&values, 500) {
            for pred in &preds {
                let expected: Vec<Pos> = values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| pred.matches(**v))
                    .map(|(i, _)| 500 + i as u64)
                    .collect();
                let got = block.scan_positions(pred).to_vec();
                assert_eq!(got, expected, "{:?} {:?}", block.encoding(), pred);
            }
        }
    }

    #[test]
    fn scan_pairs_matches_naive_filter() {
        let values = sample_values();
        let pred = Predicate::lt(4);
        for block in all_blocks(&values, 0) {
            let mut pos = Vec::new();
            let mut val = Vec::new();
            block.scan_pairs(&pred, &mut pos, &mut val);
            let expected: Vec<(Pos, Value)> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| pred.matches(**v))
                .map(|(i, v)| (i as u64, *v))
                .collect();
            let got: Vec<(Pos, Value)> = pos.into_iter().zip(val).collect();
            assert_eq!(got, expected, "{:?}", block.encoding());
        }
    }

    /// The point forms check only the ends of their ascending slice, so a
    /// slice starting before the block or ending past it errs before any
    /// cell is written — values and dict codes alike.
    #[test]
    fn gather_outside_the_block_errs_and_writes_nothing() {
        let values = sample_values();
        let (start, end) = (100, 100 + values.len() as u64);
        let blocks = all_blocks(&values, start);
        for positions in [
            vec![start - 1, start, start + 3],
            vec![start, start + 3, end],
            vec![start - 1, end],
        ] {
            for block in &blocks {
                let mut cells = vec![-7 as Value; positions.len()];
                let mut out = Slots::column(&mut cells, 0, 1);
                assert!(block.gather_into(&positions, &mut out).is_err());
                assert_eq!(out.len(), positions.len(), "{:?}", block.encoding());
                assert!(cells.iter().all(|&v| v == -7), "{:?}", block.encoding());
                let mut out = vec![5];
                assert!(block.gather(&positions, &mut out).is_err());
                assert_eq!(out, vec![5], "{:?}", block.encoding());
                if let EncodedBlock::Dict(d) = block {
                    let mut codes = vec![9];
                    assert!(d.gather_codes(&positions, &mut codes).is_err());
                    assert_eq!(codes, vec![9]);
                }
            }
        }
    }

    #[test]
    fn gather_matches_index_on_every_codec() {
        let values = sample_values();
        let positions: Vec<Pos> = vec![0, 5, 5, 17, 40, values.len() as u64 - 1];
        for block in all_blocks(&values, 0) {
            let mut out = Vec::new();
            block.gather(&positions, &mut out).unwrap();
            let expected: Vec<Value> = positions.iter().map(|&p| values[p as usize]).collect();
            assert_eq!(out, expected, "{:?}", block.encoding());
        }
    }

    #[test]
    fn unsorted_gather_matches_index_and_refuses_outside_positions() {
        let values = sample_values();
        let end = 100 + values.len() as u64;
        let positions: Vec<Pos> = vec![140, 100, 117, 117, end - 1, 105, 100];
        for block in all_blocks(&values, 100) {
            let mut cells = vec![0 as Value; 3 * positions.len()];
            let mut out = Slots::column(&mut cells, 1, 3);
            block.gather_unsorted_into(&positions, &mut out).unwrap();
            assert!(out.is_empty(), "{:?}", block.encoding());
            let want: Vec<Value> = positions
                .iter()
                .map(|&p| values[p as usize - 100])
                .collect();
            let got: Vec<Value> = cells.chunks(3).map(|row| row[1]).collect();
            assert_eq!(got, want, "{:?}", block.encoding());
            // Every position is checked, not only the ends.
            for outside in [vec![105, 99, 110], vec![105, end, 110]] {
                let mut cells = vec![-7 as Value; outside.len()];
                let mut out = Slots::column(&mut cells, 0, 1);
                assert!(block.gather_unsorted_into(&outside, &mut out).is_err());
                assert!(cells.iter().all(|&v| v == -7), "{:?}", block.encoding());
            }
        }
    }

    #[test]
    fn scatter_writes_cells_in_any_order_and_skip_moves_past_them() {
        let mut cells = vec![0 as Value; 8];
        let mut out = Slots::column(&mut cells, 1, 2);
        out.scatter(&[2, 0, 3, 1, 9], &[30, 10, 40, 20, 99]);
        assert_eq!(out.len(), 4, "a scatter does not move on");
        out.skip(3);
        out.put([70]);
        assert!(out.is_empty());
        assert_eq!(cells, vec![0, 10, 0, 20, 0, 30, 0, 70]);
    }

    #[test]
    fn gather_range_matches_slice() {
        let values = sample_values();
        for block in all_blocks(&values, 100) {
            let mut out = Vec::new();
            block
                .gather_range(PosRange::new(110, 130), &mut out)
                .unwrap();
            assert_eq!(out, &values[10..30], "{:?}", block.encoding());
        }
    }

    #[test]
    fn value_at_all_codecs() {
        let values = sample_values();
        for block in all_blocks(&values, 7) {
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(
                    block.value_at(7 + i as u64).unwrap(),
                    v,
                    "{:?} at {i}",
                    block.encoding()
                );
            }
            assert!(block.value_at(7 + values.len() as u64).is_err());
            assert!(block.value_at(6).is_err());
        }
    }

    #[test]
    fn for_each_run_coalesces_equal_values() {
        let values = vec![5, 5, 5, 2, 2, 9];
        for block in all_blocks(&values, 0) {
            let mut runs = Vec::new();
            block.for_each_run(|v, r| runs.push((v, r.start, r.end)));
            assert_eq!(
                runs,
                vec![(5, 0, 3), (2, 3, 5), (9, 5, 6)],
                "{:?}",
                block.encoding()
            );
        }
    }

    #[test]
    fn covering_and_num_runs() {
        let values = vec![1, 1, 2];
        let b = EncodedBlock::Rle(RleBlock::from_values(10, &values));
        assert_eq!(b.covering(), PosRange::new(10, 13));
        let mut n = 0;
        b.for_each_run(|_, _| n += 1);
        assert_eq!(n, 2);
    }

    /// The runs visited number the value changes in the decoded block,
    /// plus one unless it is empty.
    #[test]
    fn num_runs_matches_for_each_run_on_every_codec() {
        for values in [sample_values(), vec![7; 50], vec![-3], Vec::new()] {
            let changes = values.windows(2).filter(|w| w[0] != w[1]).count();
            let want = if values.is_empty() { 0 } else { changes + 1 };
            for block in all_blocks(&values, 40) {
                let mut n = 0;
                block.for_each_run(|_, _| n += 1);
                assert_eq!(n, want, "{:?} {values:?}", block.encoding());
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(EncodedBlock::parse(&[]).is_err());
        let mut bytes = all_blocks(&[1, 2, 3], 0)[0].serialize();
        bytes[0] = 99; // invalid tag
        assert!(EncodedBlock::parse(&bytes).is_err());
    }

    #[test]
    fn parse_survives_mutated_blocks() {
        // Seeded, bounded: flip, overwrite or truncate 1–4 bytes of each
        // codec's serialized block. A parse may succeed or fail, but an
        // accepted block must decode, scan, probe and gather without a
        // panic — and no untrusted count may size an allocation.
        let mut rng = matstrat_common::SplitMix64(0x5EED);
        let mut next = |n: usize| rng.below(n.max(1));
        for block in all_blocks(&sample_values(), 40) {
            let clean = block.serialize();
            for _ in 0..20_000 {
                let mut bytes = clean.clone();
                for _ in 0..1 + next(4) {
                    let at = next(bytes.len());
                    match next(3) {
                        0 => bytes[at] ^= 1 << next(8),
                        1 => bytes[at] = next(256) as u8,
                        _ => bytes.truncate(at),
                    }
                    if bytes.is_empty() {
                        break;
                    }
                }
                let Ok(parsed) = EncodedBlock::parse(&bytes) else {
                    continue;
                };
                let cov = parsed.covering();
                let mut out = Vec::new();
                parsed.decode_all(&mut out);
                let _ = parsed.gather_range(cov, &mut out);
                let _ = parsed.scan_positions(&Predicate::lt(3));
                let _ = parsed.scan_positions_in(&Predicate::ne(2), cov);
                let (mut pos, mut val) = (Vec::new(), Vec::new());
                parsed.scan_pairs(&Predicate::ge(1), &mut pos, &mut val);
                let probes: Vec<Pos> = cov.iter().step_by(7).take(64).collect();
                for &p in &probes {
                    let _ = parsed.value_at(p);
                }
                let _ = parsed.gather(&probes, &mut out);
            }
        }
    }

    #[test]
    fn scan_positions_in_matches_clipped_full_scan() {
        let values = sample_values();
        let windows = [
            PosRange::new(500, 520),
            PosRange::new(505, 540),
            PosRange::new(0, 10_000),
            PosRange::new(490, 501),
            PosRange::empty(),
        ];
        for block in all_blocks(&values, 500) {
            for pred in [Predicate::lt(3), Predicate::eq(2), Predicate::ne(4)] {
                for w in windows {
                    let expected = block.scan_positions(&pred).clip(w).to_vec();
                    let got = block.scan_positions_in(&pred, w).to_vec();
                    assert_eq!(got, expected, "{:?} {pred:?} {w}", block.encoding());
                }
            }
        }
    }

    #[test]
    fn scan_pairs_in_matches_clipped_full_scan() {
        let values = sample_values();
        let w = PosRange::new(505, 540);
        let pred = Predicate::lt(4);
        for block in all_blocks(&values, 500) {
            let (mut fp, mut fv) = (Vec::new(), Vec::new());
            block.scan_pairs(&pred, &mut fp, &mut fv);
            let expected: Vec<(Pos, Value)> = fp
                .into_iter()
                .zip(fv)
                .filter(|(p, _)| w.contains(*p))
                .collect();
            let (mut gp, mut gv) = (Vec::new(), Vec::new());
            block.scan_pairs_in(&pred, w, &mut gp, &mut gv);
            let got: Vec<(Pos, Value)> = gp.into_iter().zip(gv).collect();
            assert_eq!(got, expected, "{:?}", block.encoding());
        }
    }

    #[test]
    fn decode_range_supported_on_all_codecs() {
        let values = sample_values();
        for block in all_blocks(&values, 100) {
            let mut out = Vec::new();
            block
                .gather_range(PosRange::new(110, 130), &mut out)
                .unwrap();
            assert_eq!(out, &values[10..30], "{:?}", block.encoding());
            // A range starting and ending inside runs.
            out.clear();
            block
                .gather_range(PosRange::new(111, 127), &mut out)
                .unwrap();
            assert_eq!(out, &values[11..27], "{:?}", block.encoding());
            // Out-of-block ranges are rejected.
            assert!(block.gather_range(PosRange::new(90, 95), &mut out).is_err());
        }
    }

    #[test]
    fn for_each_run_in_clips_runs() {
        let values = vec![5, 5, 5, 2, 2, 9, 9];
        for block in all_blocks(&values, 10) {
            let mut runs = Vec::new();
            block.for_each_run_in(PosRange::new(11, 16), |v, r| runs.push((v, r.start, r.end)));
            assert_eq!(
                runs,
                vec![(5, 11, 13), (2, 13, 15), (9, 15, 16)],
                "{:?}",
                block.encoding()
            );
            // Disjoint window: nothing.
            let mut n = 0;
            block.for_each_run_in(PosRange::new(100, 200), |_, _| n += 1);
            assert_eq!(n, 0);
        }
    }

    /// What each form charges the code-op ledger over a window: DS1 one
    /// compare per run (RLE), per distinct value (bit-vector) or per code
    /// (dict); DS2 only dict's per-code test; nothing else.
    #[test]
    fn each_form_charges_the_code_op_ledger() {
        let values = sample_values();
        let window = PosRange::new(505, 540);
        for block in all_blocks(&values, 500) {
            let (ds1, ds2) = match &block {
                EncodedBlock::Plain(_) => (0, 0),
                EncodedBlock::Rle(b) => (b.runs_overlapping(window).len() as u64, 0),
                EncodedBlock::BitVec(b) => (b.distinct_values().len() as u64, 0),
                EncodedBlock::Dict(_) => (window.len(), window.len()),
            };
            let charged = |f: &dyn Fn()| {
                let io = matstrat_common::QueryIo::new();
                io.run(f);
                io.code_ops()
            };
            let pred = Predicate::lt(4);
            let ctx = block.encoding();
            assert_eq!(
                charged(&|| drop(block.scan_positions_in(&pred, window))),
                ds1,
                "{ctx}"
            );
            let pairs = || block.scan_pairs_in(&pred, window, &mut Vec::new(), &mut Vec::new());
            assert_eq!(charged(&pairs), ds2, "{ctx}");
            let rest = || {
                let mut out = Vec::new();
                block.gather_range(window, &mut out).unwrap();
                block.gather(&[505, 530], &mut out).unwrap();
                block.value_at(520).unwrap();
                block.decode_all(&mut out);
                block.for_each_run_in(window, |_, _| {});
            };
            assert_eq!(charged(&rest), 0, "{ctx}");
        }
    }

    /// `values` as a block of codec `codec` from `start`; codec 4 is a
    /// bit-vector block whose padding bits past its last row are all set,
    /// as a hostile file might set them.
    fn codec_block(codec: usize, start: Pos, values: &[Value]) -> EncodedBlock {
        match codec {
            0 => EncodedBlock::Plain(PlainBlock::from_values(start, Width::W2, values)),
            1 => EncodedBlock::Rle(RleBlock::from_values(start, values)),
            2 => EncodedBlock::BitVec(BitVecBlock::from_values(start, values)),
            3 => EncodedBlock::Dict(DictBlock::from_values(start, values)),
            _ => {
                let b = BitVecBlock::from_values(start, values);
                let (k, wpv) = (b.distinct_values().len(), values.len().div_ceil(64));
                let mut buf = Vec::new();
                b.serialize_payload(&mut buf);
                if values.len() % 64 != 0 {
                    let padding = u64::MAX << (values.len() % 64);
                    for i in 0..k {
                        let at = 4 + 8 * k + 8 * (i * wpv + wpv - 1);
                        let word = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
                        buf[at..at + 8].copy_from_slice(&(word | padding).to_le_bytes());
                    }
                }
                let mut r = Reader::new(&buf);
                EncodedBlock::BitVec(
                    BitVecBlock::parse_payload(start, values.len() as u32, &mut r).unwrap(),
                )
            }
        }
    }

    /// The maximal runs of `values` (which start at `start`) inside `w`.
    fn runs_oracle(values: &[Value], start: Pos, w: PosRange) -> Vec<(Value, PosRange)> {
        let mut runs: Vec<(Value, PosRange)> = Vec::new();
        for p in w.iter() {
            let v = values[(p - start) as usize];
            match runs.last_mut() {
                Some((rv, r)) if *rv == v => r.end = p + 1,
                _ => runs.push((v, PosRange::new(p, p + 1))),
            }
        }
        runs
    }

    proptest::proptest! {
        /// Every derived form equals a per-position oracle over the
        /// decoded block: every codec, a hostile bit-vector block's
        /// padding bits, and random windows that start before, end past
        /// or miss the block.
        #[test]
        fn derived_forms_equal_a_per_position_oracle(
            codec in 0usize..5,
            runs in proptest::collection::vec((-20i64..20, 1usize..20), 0..40),
            start in 0u64..300,
            win in (0u64..1200, 0u64..1200),
            op in (0usize..6, -25i64..25),
        ) {
            use proptest::prop_assert_eq;
            let values: Vec<Value> = runs
                .iter()
                .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
                .collect();
            let block = codec_block(codec, start, &values);
            let cov = block.covering();
            let mut decoded = Vec::new();
            block.decode_all(&mut decoded);
            prop_assert_eq!(&decoded, &values);
            let at = |p: Pos| decoded[(p - start) as usize];
            let pred = match op.0 {
                0 => Predicate::lt(op.1),
                1 => Predicate::le(op.1),
                2 => Predicate::gt(op.1),
                3 => Predicate::eq(op.1),
                4 => Predicate::ne(op.1),
                _ => Predicate::between(op.1, op.1 + 10),
            };
            let lo = start.saturating_sub(20) + win.0 % (values.len() as u64 + 40);
            let window = PosRange::new(lo, lo + win.1 % (values.len() as u64 + 40));
            for w in [window, cov] {
                let inside = w.intersect(&cov);
                let matches: Vec<Pos> = inside.iter().filter(|&p| pred.matches(at(p))).collect();
                prop_assert_eq!(block.scan_positions_in(&pred, w).to_vec(), matches.clone());
                let (mut ps, mut vs) = (vec![7], vec![-7]);
                block.scan_pairs_in(&pred, w, &mut ps, &mut vs);
                prop_assert_eq!(&ps[1..], &matches[..]);
                prop_assert_eq!(vs[1..].to_vec(), matches.iter().map(|&p| at(p)).collect::<Vec<_>>());
                let mut got = vec![-7];
                block.gather_range(inside, &mut got).unwrap();
                prop_assert_eq!(got[1..].to_vec(), inside.iter().map(at).collect::<Vec<_>>());
                let mut runs = Vec::new();
                block.for_each_run_in(w, |v, r| runs.push((v, r)));
                prop_assert_eq!(runs, runs_oracle(&decoded, start, inside));
                for p in w.iter().take(80) {
                    match block.value_at(p) {
                        Ok(v) => prop_assert_eq!((p, v), (p, at(p))),
                        Err(_) => proptest::prop_assert!(!cov.contains(p), "{}", p),
                    }
                }
            }
            // The whole-block forms are the window `covering()`.
            let matches: Vec<Pos> = cov.iter().filter(|&p| pred.matches(at(p))).collect();
            prop_assert_eq!(block.scan_positions(&pred).to_vec(), matches.clone());
            let (mut ps, mut vs) = (Vec::new(), Vec::new());
            block.scan_pairs(&pred, &mut ps, &mut vs);
            prop_assert_eq!(&ps, &matches);
            prop_assert_eq!(vs, matches.iter().map(|&p| at(p)).collect::<Vec<_>>());
            let mut runs = Vec::new();
            block.for_each_run(|v, r| runs.push((v, r)));
            prop_assert_eq!(runs, runs_oracle(&decoded, start, cov));
        }
    }
}
