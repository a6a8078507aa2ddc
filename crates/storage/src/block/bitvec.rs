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
//! values (no value access). Position fetch (DS3) is unsupported: a
//! position's value is only discoverable by probing every bit-string.

use matstrat_common::{codeops, Error, Pos, PosRange, Predicate, Result, Value};
use matstrat_poslist::{Bitmap, PosList};

use crate::wire::{put_i64, put_u32, put_u64, Reader};
use crate::BLOCK_SIZE;

use super::BLOCK_HEADER_SIZE;

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

    /// DS1: OR together the bit-strings of matching values — the §2.1.1
    /// "positions derived directly from the index" path. Emits a bitmap.
    pub fn scan_positions(&self, pred: &Predicate) -> PosList {
        // One predicate evaluation per distinct value, then pure word ORs:
        // the whole scan runs on the encoded representation.
        codeops::add(self.values.len() as u64);
        let covering = PosRange::new(self.start_pos, self.start_pos + self.count as u64);
        let mut acc = vec![0u64; self.words_per_value];
        for (i, &v) in self.values.iter().enumerate() {
            if pred.matches(v) {
                for (dst, src) in acc.iter_mut().zip(self.bitstring(i)) {
                    *dst |= *src;
                }
            }
        }
        PosList::Bitmap(Bitmap::from_words(covering, acc))
    }

    /// DS2: requires decompression — matching (pos, value) pairs are
    /// produced per bit-string and then merged into position order.
    pub fn scan_pairs(&self, pred: &Predicate, out_pos: &mut Vec<Pos>, out_val: &mut Vec<Value>) {
        let matching: Vec<usize> = (0..self.values.len())
            .filter(|&i| pred.matches(self.values[i]))
            .collect();
        match matching.len() {
            0 => {}
            1 => {
                // Single bit-string: already in position order.
                let i = matching[0];
                let v = self.values[i];
                for p in iter_bits(self.bitstring(i), self.start_pos) {
                    out_pos.push(p);
                    out_val.push(v);
                }
            }
            _ => {
                // General case: decompress the block then filter — the
                // CPU cost the paper attributes to bit-vector data.
                let mut decoded = Vec::with_capacity(self.count as usize);
                self.decode_all(&mut decoded);
                for (row, &v) in decoded.iter().enumerate() {
                    if pred.matches(v) {
                        out_pos.push(self.start_pos + row as u64);
                        out_val.push(v);
                    }
                }
            }
        }
    }

    /// DS4 probe: O(k) bit tests.
    pub fn value_at(&self, pos: Pos) -> Result<Value> {
        if pos < self.start_pos || pos >= self.start_pos + self.count as u64 {
            return Err(Error::invalid(format!(
                "position {pos} outside bit-vector block"
            )));
        }
        let row = (pos - self.start_pos) as usize;
        for (i, &v) in self.values.iter().enumerate() {
            if (self.bitstring(i)[row / 64] >> (row % 64)) & 1 == 1 {
                return Ok(v);
            }
        }
        Err(Error::corrupt(format!(
            "no bit set for row {row} in bit-vector block"
        )))
    }

    /// Full decompression in position order (see
    /// [`decode_range`](Self::decode_range)).
    pub fn decode_all(&self, out: &mut Vec<Value>) {
        let end = self.start_pos + self.count as u64;
        self.decode_range(PosRange::new(self.start_pos, end), out);
    }

    /// Decompress the rows of `range` (inside the block) in position
    /// order, appended to `out`, a word at a time: each value's bit-string
    /// words over the range scatter the value to their set bits' rows —
    /// rows outside the range are never written.
    pub fn decode_range(&self, range: PosRange, out: &mut Vec<Value>) {
        let lo = (range.start - self.start_pos) as usize;
        let hi = (range.end - self.start_pos) as usize;
        let base = out.len();
        out.resize(base + (hi - lo), 0);
        if lo == hi {
            return;
        }
        let rows = &mut out[base..];
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for (i, &v) in self.values.iter().enumerate() {
            for (wi, &word) in (first..=last).zip(&self.bitstring(i)[first..=last]) {
                // Bits outside the range — a hostile file's padding past
                // the last row among them — are masked off, not indexed.
                let at = wi * 64;
                let mut w = word;
                if at < lo {
                    w &= u64::MAX << (lo - at);
                }
                if at + 64 > hi {
                    w &= u64::MAX >> (at + 64 - hi);
                }
                while w != 0 {
                    rows[at + w.trailing_zeros() as usize - lo] = v;
                    w &= w - 1;
                }
            }
        }
    }

    /// Number of maximal equal-value runs, without decompression: every
    /// run of some value `v` is a maximal 1-run in `v`'s bit-string and
    /// vice versa, so the total is the number of 1-run starts (a set bit
    /// whose predecessor bit is clear) summed over all bit-strings.
    pub fn num_runs(&self) -> u64 {
        let mut total = 0u64;
        for i in 0..self.values.len() {
            let mut prev_top = 0u64; // previous word's bit 63, moved to bit 0
            for &w in self.bitstring(i) {
                total += (w & !((w << 1) | prev_top)).count_ones() as u64;
                prev_top = w >> 63;
            }
        }
        total
    }

    /// Visit equal-value runs in position order (requires decompression).
    pub fn for_each_run(&self, mut f: impl FnMut(Value, PosRange)) {
        if self.count == 0 {
            return;
        }
        let mut decoded = Vec::with_capacity(self.count as usize);
        self.decode_all(&mut decoded);
        let mut run_val = decoded[0];
        let mut run_start = self.start_pos;
        for (row, &v) in decoded.iter().enumerate().skip(1) {
            if v != run_val {
                f(
                    run_val,
                    PosRange::new(run_start, self.start_pos + row as u64),
                );
                run_val = v;
                run_start = self.start_pos + row as u64;
            }
        }
        f(
            run_val,
            PosRange::new(run_start, self.start_pos + self.count as u64),
        );
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

/// Iterate over the set bit indices of `words`, offset by `base`.
fn iter_bits(words: &[u64], base: Pos) -> impl Iterator<Item = Pos> + '_ {
    words.iter().enumerate().flat_map(move |(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let t = w.trailing_zeros() as u64;
                w &= w - 1;
                Some(base + wi as u64 * 64 + t)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let b = BitVecBlock::from_values(100, &[5, 7, 5, 9, 7, 5]);
        // pred <= 7 matches values 5 and 7 → rows 0,1,2,4,5
        let pl = b.scan_positions(&Predicate::le(7));
        assert_eq!(pl.to_vec(), vec![100, 101, 102, 104, 105]);
        // equality predicate: single bit-string
        let pl = b.scan_positions(&Predicate::eq(9));
        assert_eq!(pl.to_vec(), vec![103]);
    }

    #[test]
    fn scan_pairs_single_and_multi_value() {
        let b = BitVecBlock::from_values(0, &[5, 7, 5, 9]);
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
        let b = BitVecBlock::from_values(10, &vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.value_at(10 + i as u64).unwrap(), v);
        }
        assert!(b.value_at(15).is_err());
        assert!(b.value_at(9).is_err());
    }

    #[test]
    fn decode_all_scatters_correctly() {
        let vals: Vec<Value> = (0..200).map(|i| (i * 7) % 5).collect();
        let b = BitVecBlock::from_values(0, &vals);
        let mut out = Vec::new();
        b.decode_all(&mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn decode_range_equals_the_full_decode_over_any_window() {
        let vals: Vec<Value> = (0..200).map(|i| (i * 7) % 5).collect();
        let b = BitVecBlock::from_values(1000, &vals);
        for lo in (0..=200).step_by(3) {
            for hi in (lo..=200).step_by(5) {
                let mut out = vec![-1];
                b.decode_range(PosRange::new(1000 + lo as u64, 1000 + hi as u64), &mut out);
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
        hostile.decode_all(&mut out);
        assert_eq!(out.len(), 200);
    }

    #[test]
    fn encoded_size_formula() {
        // 7 distinct, 1000 rows: header 16 + 4 + 56 + 7*16*8
        assert_eq!(BitVecBlock::encoded_size(7, 1000), 16 + 4 + 56 + 7 * 16 * 8);
    }

    #[test]
    fn rows_spanning_word_boundaries() {
        let vals: Vec<Value> = (0..130).map(|i| i % 2).collect();
        let b = BitVecBlock::from_values(0, &vals);
        let pl = b.scan_positions(&Predicate::eq(1));
        let expected: Vec<Pos> = (0..130).filter(|p| p % 2 == 1).collect();
        assert_eq!(pl.to_vec(), expected);
    }

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
            let mut expect = 0u64;
            b.for_each_run(|_, _| expect += 1);
            assert_eq!(b.num_runs(), expect, "{vals:?}");
        }
    }

    #[test]
    fn empty_block() {
        let b = BitVecBlock::from_values(0, &[]);
        assert_eq!(b.num_rows(), 0);
        let mut out = Vec::new();
        b.decode_all(&mut out);
        assert!(out.is_empty());
        let mut n = 0;
        b.for_each_run(|_, _| n += 1);
        assert_eq!(n, 0);
    }
}
