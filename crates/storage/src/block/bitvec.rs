//! Bit-vector encoded blocks.
//!
//! The paper (§1.1): *"A bit-vector encoded file representing a column of
//! size n with k distinct values consists of k bit-strings of length n,
//! one per unique value, stored sequentially."* Because our files are
//! chunked into 64 KB blocks, each block carries the k distinct values
//! appearing in its position range plus one bit-string per value spanning
//! the block's rows — the same representation, chunked.
//!
//! Range predicates are answered by ORing the bit-strings of matching
//! values (no value access). Position fetch (DS3) decompresses inside the
//! codec: a position's value is only discoverable by probing every
//! bit-string, so a gather decodes the rows it spans, and callers flag
//! the fetch as `decompressed_fetch` (§4.1).

use matstrat_common::{Error, Pos, PosRange, Predicate, Result, Value};
use matstrat_poslist::{Bitmap, PosList};

use crate::wire::{put_i64, put_u32, put_u64, Reader};
use crate::BLOCK_SIZE;

use super::{Slots, BLOCK_HEADER_SIZE};

/// A bit-vector encoded block: `k` distinct values, each with a
/// bit-string of `words_per_value` 64-bit words covering the block rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BitVecBlock {
    start_pos: Pos,
    count: u32,
    /// Distinct values, in first-appearance order.
    values: Vec<Value>,
    /// Concatenated bit-strings: words[i * words_per_value ..][..words_per_value]
    /// is the bit-string for values[i]. Bit b = row `start_pos + b`.
    words: Vec<u64>,
    words_per_value: usize,
}

impl BitVecBlock {
    /// Serialized size for `k` distinct values and `rows` rows.
    pub fn encoded_size(k: usize, rows: usize) -> usize {
        BLOCK_HEADER_SIZE + 4 + k * 8 + k * rows.div_ceil(64) * 8
    }

    /// Encode `values`.
    ///
    /// # Panics
    /// Panics if the block would exceed 64 KB; the column writer is
    /// responsible for splitting.
    pub fn from_values(start_pos: Pos, vals: &[Value]) -> BitVecBlock {
        let mut distinct: Vec<Value> = Vec::new();
        for &v in vals {
            if !distinct.contains(&v) {
                distinct.push(v);
            }
        }
        assert!(
            Self::encoded_size(distinct.len(), vals.len()) <= BLOCK_SIZE,
            "bit-vector block overflow: k={} rows={}",
            distinct.len(),
            vals.len()
        );
        let wpv = vals.len().div_ceil(64);
        let mut words = vec![0u64; distinct.len() * wpv];
        for (row, &v) in vals.iter().enumerate() {
            let vi = distinct.iter().position(|&d| d == v).unwrap();
            words[vi * wpv + row / 64] |= 1u64 << (row % 64);
        }
        BitVecBlock {
            start_pos,
            count: vals.len() as u32,
            values: distinct,
            words,
            words_per_value: wpv,
        }
    }

    /// Absolute position of the first row.
    #[inline]
    pub fn start_pos(&self) -> Pos {
        self.start_pos
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> u32 {
        self.count
    }

    /// The distinct values present in the block.
    #[inline]
    pub fn distinct_values(&self) -> &[Value] {
        &self.values
    }

    /// The bit-string words for the `i`-th distinct value.
    #[inline]
    pub fn bitstring(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_value..(i + 1) * self.words_per_value]
    }

    /// DS1 over `window`, a window inside the block: OR together the
    /// matching values' bit-string words over the window — the §2.1.1
    /// "positions derived directly from the index" path. One predicate
    /// test per distinct value, then pure word ORs. Emits a bitmap.
    pub fn scan_positions_in(&self, pred: &Predicate, window: PosRange) -> PosList {
        let lo = (window.start - self.start_pos) as usize;
        let hi = (window.end - self.start_pos) as usize;
        let (first, last) = (lo / 64, hi.div_ceil(64));
        let mut acc = vec![0u64; last - first];
        for (i, &v) in self.values.iter().enumerate() {
            if pred.matches(v) {
                for (dst, src) in acc.iter_mut().zip(&self.bitstring(i)[first..last]) {
                    *dst |= *src;
                }
            }
        }
        // The words' rows, less a hostile file's padding past the last row.
        let end = (self.start_pos + 64 * last as u64).min(self.start_pos + self.count as u64);
        let words = Bitmap::from_words(PosRange::new(self.start_pos + 64 * first as u64, end), acc);
        PosList::Bitmap(if words.covering() == window {
            words
        } else {
            words.clip(window)
        })
    }

    /// DS3 over ascending, disjoint `ranges`, each clipped to the block,
    /// written to the next cells of `out`: one range decodes straight into
    /// its cells — a copy out of a buffer would cost a whole-block decode
    /// most of its time again (`block.decode_ns_per_value.bitvec`) — and
    /// several decode the rows from the first range's start to the last
    /// one's end once (see `decode_span`) and are
    /// copied out of them, so many short ranges cost one decode.
    pub fn gather_ranges_into(&self, ranges: &[PosRange], out: &mut Slots<'_>) {
        let covering = PosRange::new(self.start_pos, self.start_pos + self.count as u64);
        let clipped = ranges
            .iter()
            .map(|r| r.intersect(&covering))
            .filter(|r| !r.is_empty());
        let (Some(first), Some(last)) = (clipped.clone().next(), clipped.clone().next_back())
        else {
            return;
        };
        if first == last {
            let lo = (first.start - self.start_pos) as usize;
            out.put_slice(first.len() as usize, |rows| self.decode_rows(lo, rows));
            return;
        }
        self.decode_span(first.start, last.end, |rows| {
            for r in clipped {
                let lo = (r.start - first.start) as usize;
                out.put(rows[lo..lo + r.len() as usize].iter().copied());
            }
        });
    }

    /// DS3 point fetch at ascending positions inside the block, written to
    /// the next cells of `out`: the rows from the first position to the
    /// last are decoded once, and each position's value is picked from
    /// them.
    #[inline]
    pub fn gather_into(&self, positions: &[Pos], out: &mut Slots<'_>) {
        if let (Some(&first), Some(&last)) = (positions.first(), positions.last()) {
            self.gather_between(first, last, positions, out);
        }
    }

    /// DS3 point fetch at positions in any order, every one in
    /// `[lo, hi]`, inside the block, written to the next cells of `out`:
    /// the rows of `[lo, hi]` are decoded once, and each position's value
    /// is picked from them.
    #[inline]
    pub fn gather_between(&self, lo: Pos, hi: Pos, positions: &[Pos], out: &mut Slots<'_>) {
        self.decode_span(lo, hi + 1, |rows| {
            out.put(positions.iter().map(|&p| rows[(p - lo) as usize]));
        });
    }

    /// Hand `pick` the decoded rows of `[start, end)`, inside the block: on
    /// the stack for a span of a few rows — a one-position probe allocates
    /// nothing — and in one buffer otherwise.
    #[inline]
    fn decode_span(&self, start: Pos, end: Pos, pick: impl FnOnce(&[Value])) {
        let n = (end - start) as usize;
        let (mut stack, mut heap) = ([0 as Value; 8], Vec::new());
        let rows = if n <= stack.len() {
            &mut stack[..n]
        } else {
            heap.resize(n, 0);
            &mut heap[..]
        };
        self.decode_rows((start - self.start_pos) as usize, rows);
        pick(rows);
    }

    /// Decode the block's rows from offset `lo` on into `rows`, one per
    /// cell, a word of rows at a time: each value's bit-string word over
    /// them scatters the value to its set bits' cells. A row takes the
    /// first value whose bit-string sets it, and a word stops once every
    /// one of its rows is written — a one-row probe stops at its value.
    /// Rows outside `rows` are never written.
    #[inline]
    fn decode_rows(&self, lo: usize, rows: &mut [Value]) {
        let hi = lo + rows.len();
        for wi in lo / 64..hi.div_ceil(64) {
            // The word's rows inside `rows`: bits outside them — a hostile
            // file's padding past the last row among them — are masked
            // off, not indexed.
            let at = wi * 64;
            let mut open = u64::MAX;
            if at < lo {
                open &= u64::MAX << (lo - at);
            }
            if at + 64 > hi {
                open &= u64::MAX >> (at + 64 - hi);
            }
            let strings = self.words.chunks_exact(self.words_per_value);
            for (&v, bits) in self.values.iter().zip(strings) {
                let mut w = bits[wi] & open;
                open &= !w;
                while w != 0 {
                    rows[at + w.trailing_zeros() as usize - lo] = v;
                    w &= w - 1;
                }
                if open == 0 {
                    break;
                }
            }
        }
    }

    /// Append the codec payload to `buf`.
    pub fn serialize_payload(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.values.len() as u32);
        for &v in &self.values {
            put_i64(buf, v);
        }
        for &w in &self.words {
            put_u64(buf, w);
        }
    }

    /// Parse the codec payload.
    pub fn parse_payload(start_pos: Pos, count: u32, r: &mut Reader<'_>) -> Result<BitVecBlock> {
        let k = r.count(8, "bit-vector values")?;
        if k == 0 && count > 0 {
            return Err(Error::corrupt(format!("{count} rows but no bit-strings")));
        }
        let values = (0..k).map(|_| r.i64()).collect::<Result<Vec<_>>>()?;
        let wpv = (count as usize).div_ceil(64);
        if k * wpv > r.remaining() / 8 {
            return Err(Error::corrupt(format!(
                "{k} bit-strings of {wpv} words cannot fit in the {} bytes left",
                r.remaining()
            )));
        }
        let words = (0..k * wpv).map(|_| r.u64()).collect::<Result<Vec<_>>>()?;
        Ok(BitVecBlock {
            start_pos,
            count,
            values,
            words,
            words_per_value: wpv,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::EncodedBlock;

    fn block(start: Pos, vals: &[Value]) -> EncodedBlock {
        EncodedBlock::BitVec(BitVecBlock::from_values(start, vals))
    }

    #[test]
    fn distinct_values_and_bitstrings() {
        let b = BitVecBlock::from_values(0, &[5, 7, 5, 9, 7, 5]);
        assert_eq!(b.distinct_values(), &[5, 7, 9]);
        // value 5 at rows 0, 2, 5
        assert_eq!(b.bitstring(0)[0], 0b100101);
        // value 7 at rows 1, 4
        assert_eq!(b.bitstring(1)[0], 0b010010);
        // value 9 at row 3
        assert_eq!(b.bitstring(2)[0], 0b001000);
    }

    #[test]
    fn scan_positions_is_or_of_bitstrings() {
        let b = block(100, &[5, 7, 5, 9, 7, 5]);
        // pred <= 7 matches values 5 and 7 → rows 0,1,2,4,5
        let pl = b.scan_positions(&Predicate::le(7));
        assert_eq!(pl.to_vec(), vec![100, 101, 102, 104, 105]);
        // equality predicate: single bit-string
        let pl = b.scan_positions(&Predicate::eq(9));
        assert_eq!(pl.to_vec(), vec![103]);
    }

    #[test]
    fn scan_pairs_single_and_multi_value() {
        let b = block(0, &[5, 7, 5, 9]);
        let (mut p, mut v) = (Vec::new(), Vec::new());
        b.scan_pairs(&Predicate::eq(5), &mut p, &mut v);
        assert_eq!(p, vec![0, 2]);
        assert_eq!(v, vec![5, 5]);
        p.clear();
        v.clear();
        b.scan_pairs(&Predicate::le(7), &mut p, &mut v);
        assert_eq!(p, vec![0, 1, 2]);
        assert_eq!(v, vec![5, 7, 5]);
    }

    #[test]
    fn value_at_probes_all_bitstrings() {
        let vals = vec![5, 7, 5, 9, 7];
        let b = block(10, &vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.value_at(10 + i as u64).unwrap(), v);
        }
        assert!(b.value_at(15).is_err());
        assert!(b.value_at(9).is_err());
    }

    #[test]
    fn decode_all_scatters_correctly() {
        let vals: Vec<Value> = (0..200).map(|i| (i * 7) % 5).collect();
        let mut out = Vec::new();
        block(0, &vals).decode_all(&mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn decode_range_equals_the_full_decode_over_any_window() {
        let vals: Vec<Value> = (0..200).map(|i| (i * 7) % 5).collect();
        let b = BitVecBlock::from_values(1000, &vals);
        let e = EncodedBlock::BitVec(b.clone());
        for lo in (0..=200).step_by(3) {
            for hi in (lo..=200).step_by(5) {
                let mut out = vec![-1];
                e.gather_range(PosRange::new(1000 + lo as u64, 1000 + hi as u64), &mut out)
                    .unwrap();
                assert_eq!(out[0], -1, "[{lo}, {hi}): appended");
                assert_eq!(&out[1..], &vals[lo..hi], "[{lo}, {hi})");
            }
        }
        // Padding bits past the last row, as a hostile file might set
        // them, are ignored rather than indexed.
        let mut buf = Vec::new();
        b.serialize_payload(&mut buf);
        let last = buf.len() - 1;
        buf[last] = 0xFF;
        let hostile = BitVecBlock::parse_payload(1000, 200, &mut Reader::new(&buf)).unwrap();
        let mut out = Vec::new();
        EncodedBlock::BitVec(hostile).decode_all(&mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn encoded_size_formula() {
        // 7 distinct, 1000 rows: header 16 + 4 + 56 + 7*16*8
        assert_eq!(BitVecBlock::encoded_size(7, 1000), 16 + 4 + 56 + 7 * 16 * 8);
    }

    #[test]
    fn rows_spanning_word_boundaries() {
        let vals: Vec<Value> = (0..130).map(|i| i % 2).collect();
        let pl = block(0, &vals).scan_positions(&Predicate::eq(1));
        let expected: Vec<Pos> = (0..130).filter(|p| p % 2 == 1).collect();
        assert_eq!(pl.to_vec(), expected);
    }

    /// Every run of some value `v` is a maximal 1-run in `v`'s bit-string
    /// and vice versa, so the runs the block visits number the 1-run
    /// starts (a set bit whose predecessor bit is clear) over all its
    /// bit-strings.
    #[test]
    fn num_runs_counts_bitstring_run_starts() {
        for vals in [
            vec![5, 7, 5, 9, 7, 5],
            vec![1; 6],
            (0..130).map(|i| i % 2).collect::<Vec<Value>>(),
            vec![3, 3, 4, 4, 4, 3, 5, 5],
            Vec::new(),
        ] {
            let b = BitVecBlock::from_values(0, &vals);
            let mut starts = 0u64;
            for i in 0..b.distinct_values().len() {
                let mut prev_top = 0u64; // previous word's bit 63, moved to bit 0
                for &w in b.bitstring(i) {
                    starts += (w & !((w << 1) | prev_top)).count_ones() as u64;
                    prev_top = w >> 63;
                }
            }
            let mut visited = 0u64;
            EncodedBlock::BitVec(b).for_each_run(|_, _| visited += 1);
            assert_eq!(visited, starts, "{vals:?}");
        }
    }

    #[test]
    fn empty_block() {
        let b = block(0, &[]);
        assert_eq!(b.num_rows(), 0);
        let mut out = Vec::new();
        b.decode_all(&mut out);
        assert!(out.is_empty());
        let mut n = 0;
        b.for_each_run(|_, _| n += 1);
        assert_eq!(n, 0);
    }
}
