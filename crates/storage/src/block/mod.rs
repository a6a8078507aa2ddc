//! Encoded 64 KB blocks: the unit of disk I/O and of pipelined execution.
//!
//! A block is self-describing: a 16-byte common header (encoding tag,
//! value width, row count, start position) followed by a codec-specific
//! payload. In memory a block stays in its *compressed* form — RLE blocks
//! are run triples, bit-vector blocks are bit-strings — exactly as the
//! paper's mini-columns do, so operators can work on compressed data
//! directly.
//!
//! Every codec exposes the two C-Store data-source access patterns plus
//! the position-fetch used by late materialization:
//!
//! * [`EncodedBlock::scan_positions`] — DS1: predicate → positions;
//! * [`EncodedBlock::scan_pairs`] — DS2: predicate → (position, value);
//! * [`EncodedBlock::gather_into`] / [`EncodedBlock::gather_ranges_into`]
//!   — DS3: positions → values, written into a strided destination
//!   ([`Slots`]) so a value goes from its block straight into its tuple
//!   slot (**unsupported on bit-vector blocks**, §4.1);
//! * [`EncodedBlock::value_at`] — DS4's jump-to-position probe.

mod bitvec;
mod dict;
mod plain;
mod rle;

pub use bitvec::BitVecBlock;
pub use dict::DictBlock;
pub use plain::PlainBlock;
pub use rle::{RleBlock, RleRun};

use matstrat_common::{Error, Pos, PosRange, Predicate, Result, Value};
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

    /// Move `offset` values on (clamped to the buffer), returning the span
    /// passed over.
    fn advance(&mut self, offset: usize) -> &'a mut [Value] {
        let cells = std::mem::take(&mut self.cells);
        let (span, rest) = cells.split_at_mut(offset.min(cells.len()));
        self.cells = rest;
        span
    }
}

/// Append `n` values to `out` through `fill`, which writes them into the
/// new cells; on error `out` is left as it was.
fn push_with(
    out: &mut Vec<Value>,
    n: usize,
    fill: impl FnOnce(&mut Slots<'_>) -> Result<()>,
) -> Result<()> {
    let at = out.len();
    out.resize(at + n, 0);
    let r = fill(&mut Slots::column(&mut out[at..], 0, 1));
    if r.is_err() {
        out.truncate(at);
    }
    r
}

/// The error a position fetch outside block `cov` raises.
fn outside_block(p: Pos, cov: PosRange) -> Error {
    Error::invalid(format!("position {p} outside block {cov}"))
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
    pub fn start_pos(&self) -> Pos {
        match self {
            EncodedBlock::Plain(b) => b.start_pos(),
            EncodedBlock::Rle(b) => b.start_pos(),
            EncodedBlock::BitVec(b) => b.start_pos(),
            EncodedBlock::Dict(b) => b.start_pos(),
        }
    }

    /// Number of rows in the block.
    pub fn num_rows(&self) -> u32 {
        match self {
            EncodedBlock::Plain(b) => b.num_rows(),
            EncodedBlock::Rle(b) => b.num_rows(),
            EncodedBlock::BitVec(b) => b.num_rows(),
            EncodedBlock::Dict(b) => b.num_rows(),
        }
    }

    /// The positions covered: `[start_pos, start_pos + num_rows)`.
    pub fn covering(&self) -> PosRange {
        let s = self.start_pos();
        PosRange::new(s, s + self.num_rows() as u64)
    }

    /// DS1: positions (absolute) whose values satisfy `pred`.
    ///
    /// The representation follows the codec: RLE emits ranges, bit-vector
    /// emits a bitmap (the OR of the matching bit-strings), plain and dict
    /// let the builder heuristic choose.
    pub fn scan_positions(&self, pred: &Predicate) -> PosList {
        match self {
            EncodedBlock::Plain(b) => b.scan_positions(pred),
            EncodedBlock::Rle(b) => b.scan_positions(pred),
            EncodedBlock::BitVec(b) => b.scan_positions(pred),
            EncodedBlock::Dict(b) => b.scan_positions(pred),
        }
    }

    /// DS2: (position, value) pairs satisfying `pred`, appended to the two
    /// output vectors in ascending position order.
    pub fn scan_pairs(&self, pred: &Predicate, out_pos: &mut Vec<Pos>, out_val: &mut Vec<Value>) {
        match self {
            EncodedBlock::Plain(b) => b.scan_pairs(pred, out_pos, out_val),
            EncodedBlock::Rle(b) => b.scan_pairs(pred, out_pos, out_val),
            EncodedBlock::BitVec(b) => b.scan_pairs(pred, out_pos, out_val),
            EncodedBlock::Dict(b) => b.scan_pairs(pred, out_pos, out_val),
        }
    }

    /// DS1 restricted to a window of positions: like
    /// [`scan_positions`](Self::scan_positions) but only rows inside
    /// `window ∩ covering` are examined. This is what lets a pipelined
    /// executor work one position-granule at a time without rescanning a
    /// wide block (an RLE block can cover millions of positions).
    pub fn scan_positions_in(&self, pred: &Predicate, window: PosRange) -> PosList {
        let w = self.covering().intersect(&window);
        if w.is_empty() {
            return PosList::empty();
        }
        match self {
            EncodedBlock::Rle(b) => b.scan_positions_in(pred, w),
            // Bit-vector: OR the bit-strings, then clip — the block's
            // covering range is granule-sized, so the clip is cheap.
            EncodedBlock::BitVec(b) => {
                if w == self.covering() {
                    b.scan_positions(pred)
                } else {
                    b.scan_positions(pred).clip(w)
                }
            }
            EncodedBlock::Plain(b) => b.scan_positions_in(pred, w),
            EncodedBlock::Dict(b) => b.scan_positions_in(pred, w),
        }
    }

    /// DS2 restricted to a window of positions.
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
        match self {
            EncodedBlock::Rle(b) => b.scan_pairs_in(pred, w, out_pos, out_val),
            EncodedBlock::BitVec(b) => {
                if w == self.covering() {
                    b.scan_pairs(pred, out_pos, out_val);
                } else {
                    let mark = out_pos.len();
                    b.scan_pairs(pred, out_pos, out_val);
                    // Drop pairs outside the window (prefix/suffix trim).
                    let mut keep = mark;
                    for i in mark..out_pos.len() {
                        if w.contains(out_pos[i]) {
                            out_pos.swap(keep, i);
                            out_val.swap(keep, i);
                            keep += 1;
                        }
                    }
                    out_pos.truncate(keep);
                    out_val.truncate(keep);
                }
            }
            EncodedBlock::Plain(b) => b.scan_pairs_in(pred, w, out_pos, out_val),
            EncodedBlock::Dict(b) => b.scan_pairs_in(pred, w, out_pos, out_val),
        }
    }

    /// Errors unless `range` is empty or lies inside the block.
    fn check_inside(&self, range: PosRange) -> Result<()> {
        let cov = self.covering();
        if !range.is_empty() && (range.start < cov.start || range.end > cov.end) {
            return Err(Error::invalid(format!("range {range} outside block {cov}")));
        }
        Ok(())
    }

    /// Decompress every value in `range` (must lie inside the block) in
    /// position order. Unlike [`gather_range`](Self::gather_range) this is
    /// supported on **all** codecs — bit-vector blocks pay a scan of every
    /// value's bit-string over the range, which is exactly the §4.1(c)
    /// cost; RLE blocks extend by one run at a time.
    pub fn decode_range(&self, range: PosRange, out: &mut Vec<Value>) -> Result<()> {
        self.check_inside(range)?;
        match self {
            EncodedBlock::BitVec(b) => b.decode_range(range, out),
            EncodedBlock::Rle(b) => b.decode_range(range, out),
            other => return other.gather_range(range, out),
        }
        Ok(())
    }

    /// Visit equal-value runs restricted to `window ∩ covering`.
    pub fn for_each_run_in(&self, window: PosRange, mut f: impl FnMut(Value, PosRange)) {
        let w = self.covering().intersect(&window);
        if w.is_empty() {
            return;
        }
        if w == self.covering() {
            self.for_each_run(f);
            return;
        }
        match self {
            EncodedBlock::Rle(b) => {
                for r in b.runs() {
                    let o = r.range().intersect(&w);
                    if !o.is_empty() {
                        f(r.value, o);
                    }
                }
            }
            other => {
                // Decode the window and coalesce.
                let mut vals = Vec::with_capacity(w.len() as usize);
                other
                    .decode_range(w, &mut vals)
                    .expect("window validated against covering");
                let mut run_val = vals[0];
                let mut run_start = w.start;
                for (i, &v) in vals.iter().enumerate().skip(1) {
                    if v != run_val {
                        f(run_val, PosRange::new(run_start, w.start + i as u64));
                        run_val = v;
                        run_start = w.start + i as u64;
                    }
                }
                f(run_val, PosRange::new(run_start, w.end));
            }
        }
    }

    /// DS3 point form: values at the given absolute positions, in any
    /// order (all inside this block), appended to `out`. Every position
    /// is checked against the block before any is read: the codecs'
    /// kernels index by offset from the block's start.
    ///
    /// Errors with [`Error::Unsupported`] on bit-vector blocks.
    pub fn gather(&self, positions: &[Pos], out: &mut Vec<Value>) -> Result<()> {
        let cov = self.covering();
        if let Some(&p) = positions.iter().find(|&&p| !cov.contains(p)) {
            return Err(outside_block(p, cov));
        }
        push_with(out, positions.len(), |cells| {
            self.gather_unchecked(positions, cells)
        })
    }

    /// [`gather`](Self::gather) at **ascending** positions (repeats
    /// allowed), written to the next cells of `out`. Ascending, the
    /// positions all lie in the block once the first and the last do, so
    /// only those two are checked before any is read.
    pub fn gather_into(&self, positions: &[Pos], out: &mut Slots<'_>) -> Result<()> {
        debug_assert!(positions.is_sorted(), "positions must ascend");
        let cov = self.covering();
        if let Some(&p) = [positions.first(), positions.last()]
            .into_iter()
            .flatten()
            .find(|&&p| !cov.contains(p))
        {
            return Err(outside_block(p, cov));
        }
        self.gather_unchecked(positions, out)
    }

    /// The codec kernels behind [`gather`](Self::gather) and
    /// [`gather_into`](Self::gather_into), on positions already checked
    /// against the block.
    fn gather_unchecked(&self, positions: &[Pos], out: &mut Slots<'_>) -> Result<()> {
        match self {
            EncodedBlock::Plain(b) => b.gather_into(positions, out),
            EncodedBlock::Rle(b) => b.gather_into(positions, out),
            EncodedBlock::BitVec(_) => {
                return Err(Error::unsupported(
                    "DS3 (position fetch) on a bit-vector block: bit-strings cannot be \
                     probed by position without a scan",
                ))
            }
            EncodedBlock::Dict(b) => b.gather_into(positions, out),
        }
        Ok(())
    }

    /// DS3 range form: values at every position of `range` (which must lie
    /// inside this block), appended to `out`.
    ///
    /// Errors with [`Error::Unsupported`] on bit-vector blocks.
    pub fn gather_range(&self, range: PosRange, out: &mut Vec<Value>) -> Result<()> {
        self.check_inside(range)?;
        push_with(out, range.len() as usize, |cells| {
            self.gather_ranges_into(&[range], cells)
        })
    }

    /// DS3 over a range descriptor, written strided: the values at the
    /// positions of `ranges` — ascending and disjoint, each clipped to this
    /// block — go to the next cells of `out` in position order. Each codec
    /// walks the ranges and its own layout together: RLE keeps one run
    /// cursor, plain unpacks with one loop per width, dict indexes its
    /// dictionary by code.
    ///
    /// Errors with [`Error::Unsupported`] on bit-vector blocks.
    pub fn gather_ranges_into(&self, ranges: &[PosRange], out: &mut Slots<'_>) -> Result<()> {
        match self {
            EncodedBlock::Plain(b) => b.gather_ranges_into(ranges, out),
            EncodedBlock::Rle(b) => b.gather_ranges_into(ranges, out),
            EncodedBlock::BitVec(_) => {
                return Err(Error::unsupported(
                    "DS3 (range fetch) on a bit-vector block",
                ))
            }
            EncodedBlock::Dict(b) => b.gather_ranges_into(ranges, out),
        }
        Ok(())
    }

    /// DS4 probe: the value at one absolute position.
    ///
    /// Supported on every codec — on bit-vector blocks it costs O(k)
    /// bit tests (k = distinct values), which is exactly why EM plans on
    /// bit-vector data pay a CPU premium.
    pub fn value_at(&self, pos: Pos) -> Result<Value> {
        match self {
            EncodedBlock::Plain(b) => b.value_at(pos),
            EncodedBlock::Rle(b) => b.value_at(pos),
            EncodedBlock::BitVec(b) => b.value_at(pos),
            EncodedBlock::Dict(b) => b.value_at(pos),
        }
    }

    /// Full decompression: every value of the block in position order,
    /// appended to `out`. This is the paper's "tuple construction requires
    /// decompression" path.
    pub fn decode_all(&self, out: &mut Vec<Value>) {
        match self {
            EncodedBlock::Plain(b) => b.decode_all(out),
            EncodedBlock::Rle(b) => b.decode_all(out),
            EncodedBlock::BitVec(b) => b.decode_all(out),
            EncodedBlock::Dict(b) => b.decode_all(out),
        }
    }

    /// Visit maximal runs of equal values in position order as
    /// `(value, absolute position range)`. RLE blocks visit their stored
    /// runs in O(#runs); other codecs coalesce on the fly. This is what
    /// lets operators (notably the aggregator) work an entire run at a
    /// time — the §2.1.2 "operate directly on compressed data" win.
    pub fn for_each_run(&self, f: impl FnMut(Value, PosRange)) {
        match self {
            EncodedBlock::Plain(b) => b.for_each_run(f),
            EncodedBlock::Rle(b) => b.for_each_run(f),
            EncodedBlock::BitVec(b) => b.for_each_run(f),
            EncodedBlock::Dict(b) => b.for_each_run(f),
        }
    }

    /// Number of runs [`for_each_run`](Self::for_each_run) would visit.
    ///
    /// Computed per codec without materializing values: RLE stores its
    /// runs, plain compares packed bytes, dict compares codes, bit-vector
    /// counts 1-run starts across its bit-strings.
    pub fn num_runs(&self) -> u64 {
        match self {
            EncodedBlock::Plain(b) => b.num_runs(),
            EncodedBlock::Rle(b) => b.runs().len() as u64,
            EncodedBlock::BitVec(b) => b.num_runs(),
            EncodedBlock::Dict(b) => b.num_runs(),
        }
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
        match self {
            EncodedBlock::Plain(b) => b.serialize_payload(&mut buf),
            EncodedBlock::Rle(b) => b.serialize_payload(&mut buf),
            EncodedBlock::BitVec(b) => b.serialize_payload(&mut buf),
            EncodedBlock::Dict(b) => b.serialize_payload(&mut buf),
        }
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

    /// `gather_into` checks only the ends of its ascending slice, so a
    /// slice starting before the block or ending past it errs before any
    /// cell is written; `gather`, in any order, checks every position.
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
            }
        }
        let mut out = vec![5];
        for block in &blocks {
            assert!(block.gather(&[start + 3, end, start], &mut out).is_err());
            assert_eq!(out, vec![5], "{:?}", block.encoding());
        }
    }

    #[test]
    fn gather_matches_index_and_bitvec_errors() {
        let values = sample_values();
        let positions: Vec<Pos> = vec![0, 5, 17, 40, values.len() as u64 - 1];
        for block in all_blocks(&values, 0) {
            let mut out = Vec::new();
            let r = block.gather(&positions, &mut out);
            if block.encoding() == EncodingKind::BitVec {
                assert!(matches!(r, Err(Error::Unsupported(_))));
            } else {
                r.unwrap();
                let expected: Vec<Value> = positions.iter().map(|&p| values[p as usize]).collect();
                assert_eq!(out, expected, "{:?}", block.encoding());
            }
        }
    }

    #[test]
    fn gather_range_matches_slice() {
        let values = sample_values();
        for block in all_blocks(&values, 100) {
            let mut out = Vec::new();
            let r = block.gather_range(PosRange::new(110, 130), &mut out);
            if block.encoding() == EncodingKind::BitVec {
                assert!(r.is_err());
            } else {
                r.unwrap();
                assert_eq!(out, &values[10..30], "{:?}", block.encoding());
            }
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
        assert_eq!(b.num_runs(), 2);
    }

    #[test]
    fn num_runs_matches_for_each_run_on_every_codec() {
        for values in [sample_values(), vec![7; 50], vec![-3], Vec::new()] {
            for block in all_blocks(&values, 40) {
                let mut n = 0;
                block.for_each_run(|_, _| n += 1);
                assert_eq!(block.num_runs(), n, "{:?} {values:?}", block.encoding());
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
        let mut state = 0x5EED_u64;
        let mut next = |n: usize| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        };
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
                let _ = parsed.decode_range(cov, &mut out);
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
                .decode_range(PosRange::new(110, 130), &mut out)
                .unwrap();
            assert_eq!(out, &values[10..30], "{:?}", block.encoding());
            // A range starting and ending inside runs.
            out.clear();
            block
                .decode_range(PosRange::new(111, 127), &mut out)
                .unwrap();
            assert_eq!(out, &values[11..27], "{:?}", block.encoding());
            // Out-of-block ranges are rejected.
            assert!(block.decode_range(PosRange::new(90, 95), &mut out).is_err());
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
}
