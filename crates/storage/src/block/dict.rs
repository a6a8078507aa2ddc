//! Dictionary encoded blocks (extension codec).
//!
//! Not part of the paper's experiments, but part of the compression
//! toolkit column stores rely on ([3] in the paper evaluates it): a
//! per-block table of distinct values plus a packed array of narrow
//! codes. Unlike bit-vector encoding, dictionary blocks fetch a position
//! (DS3) in O(1), with no decompression.

use std::collections::HashMap;

use matstrat_common::{CodePredicate, Error, Pos, PosRange, Predicate, Result, Value};
use matstrat_poslist::{Bitmap, PosList};

use crate::wire::{put_i64, put_u32, Reader};
use crate::BLOCK_SIZE;

use super::{check_ends, Slots, BLOCK_HEADER_SIZE};

/// A dictionary encoded block.
#[derive(Debug, Clone, PartialEq)]
pub struct DictBlock {
    start_pos: Pos,
    /// Distinct values; codes index this table. First-appearance order
    /// for per-block dictionaries, ascending for shared dictionaries.
    dict: Vec<Value>,
    /// One code per row.
    codes: Vec<u32>,
    /// Content hash of `dict` (see [`dict_fingerprint`]): two columns
    /// whose blocks carry equal fingerprints use the same code space, so
    /// joins can compare codes instead of decoded values.
    fingerprint: u64,
}

/// Smallest byte width that can hold codes `0..k`.
fn code_width_for(k: usize) -> usize {
    if k <= 1 << 8 {
        1
    } else if k <= 1 << 16 {
        2
    } else {
        4
    }
}

/// Content fingerprint of a dictionary: FNV-1a over the entry count and
/// every value, so equal fingerprints mean (up to hash collision, which
/// consumers guard against by comparing the dictionaries themselves)
/// that two blocks assign identical codes to identical values.
pub fn dict_fingerprint(dict: &[Value]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for byte in (dict.len() as u64).to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(PRIME);
    }
    for &v in dict {
        for byte in v.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(PRIME);
        }
    }
    h
}

impl DictBlock {
    /// Serialized size for `k` distinct values and `rows` rows.
    pub fn encoded_size(k: usize, rows: usize) -> usize {
        BLOCK_HEADER_SIZE + 4 + k * 8 + rows * code_width_for(k)
    }

    /// Encode `values`.
    ///
    /// # Panics
    /// Panics if the block would exceed 64 KB.
    pub fn from_values(start_pos: Pos, values: &[Value]) -> DictBlock {
        // First-appearance code assignment, indexed by a hash map so
        // encoding is O(n) instead of O(n·k). The emitted dictionary and
        // codes are byte-identical to the old linear-probe loop.
        let mut dict: Vec<Value> = Vec::new();
        let mut index: HashMap<Value, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for &v in values {
            let code = *index.entry(v).or_insert_with(|| {
                dict.push(v);
                (dict.len() - 1) as u32
            });
            codes.push(code);
        }
        assert!(
            Self::encoded_size(dict.len(), values.len()) <= BLOCK_SIZE,
            "dict block overflow: k={} rows={}",
            dict.len(),
            values.len()
        );
        let fingerprint = dict_fingerprint(&dict);
        DictBlock {
            start_pos,
            dict,
            codes,
            fingerprint,
        }
    }

    /// Encode `values` against a caller-provided dictionary instead of a
    /// per-block one — the shared-dictionary path: every block encoded
    /// against the same table carries the same fingerprint and the same
    /// value↔code mapping, so predicates, probes, and aggregates can
    /// compare codes across blocks (and across columns, e.g. a fact
    /// foreign key against the dimension key it references).
    ///
    /// Errors if a value is absent from `dict`; panics (like
    /// [`from_values`](Self::from_values)) if the block would exceed
    /// 64 KB.
    pub fn from_values_shared(
        start_pos: Pos,
        values: &[Value],
        dict: &[Value],
    ) -> Result<DictBlock> {
        let index: HashMap<Value, u32> = dict
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut codes = Vec::with_capacity(values.len());
        for &v in values {
            match index.get(&v) {
                Some(&c) => codes.push(c),
                None => {
                    return Err(Error::invalid(format!(
                        "value {v} not in the shared dictionary ({} entries)",
                        dict.len()
                    )))
                }
            }
        }
        assert!(
            Self::encoded_size(dict.len(), values.len()) <= BLOCK_SIZE,
            "dict block overflow: k={} rows={}",
            dict.len(),
            values.len()
        );
        Ok(DictBlock {
            start_pos,
            dict: dict.to_vec(),
            codes,
            fingerprint: dict_fingerprint(dict),
        })
    }

    /// Absolute position of the first row.
    #[inline]
    pub fn start_pos(&self) -> Pos {
        self.start_pos
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> u32 {
        self.codes.len() as u32
    }

    /// The dictionary (distinct values).
    #[inline]
    pub fn dictionary(&self) -> &[Value] {
        &self.dict
    }

    /// The packed codes, one per row in position order.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Content fingerprint of the dictionary (see `dict_fingerprint`).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Byte width codes are packed at on disk.
    pub fn code_width(&self) -> usize {
        code_width_for(self.dict.len())
    }

    /// DS3 point fetch of *codes* (no value decode) at ascending
    /// positions (repeats allowed), appended to `out`. Errs, appending
    /// nothing, unless the positions lie in the block.
    pub fn gather_codes(&self, positions: &[Pos], out: &mut Vec<u32>) -> Result<()> {
        check_ends(
            positions,
            PosRange::new(self.start_pos, self.start_pos + self.codes.len() as u64),
        )?;
        out.extend(
            positions
                .iter()
                .map(|&p| self.codes[(p - self.start_pos) as usize]),
        );
        Ok(())
    }

    /// DS1 over the whole block (see
    /// [`scan_positions_in`](Self::scan_positions_in)).
    pub fn scan_positions(&self, pred: &Predicate) -> PosList {
        let end = self.start_pos + self.codes.len() as u64;
        self.scan_positions_in(pred, PosRange::new(self.start_pos, end))
    }

    /// DS1 over `window`, a window inside the block: the predicate is
    /// translated into the code domain once, then packed codes only are
    /// tested — values are never decoded.
    pub fn scan_positions_in(&self, pred: &Predicate, window: PosRange) -> PosList {
        // Dictionary codes are unsorted, so matches arrive as scattered
        // singletons; the predicate dispatch runs once per window and each
        // variant fills a bit-map with one branch-free OR per code.
        match &pred.to_code_domain(&self.dict) {
            CodePredicate::None => PosList::empty(),
            CodePredicate::All => PosList::full(window),
            CodePredicate::Eq(k) => self.fill_span_bitmap(window, |c| c == *k),
            CodePredicate::Ne(k) => self.fill_span_bitmap(window, |c| c != *k),
            CodePredicate::Range(clo, chi) => {
                self.fill_span_bitmap(window, |c| c >= *clo && c <= *chi)
            }
            // Codes are dictionary indices by construction, so the table
            // variant indexes without a bounds probe.
            CodePredicate::Table(t) => self.fill_span_bitmap(window, |c| t[c as usize]),
        }
    }

    /// Evaluate `matches` over the window's codes 64 at a time, packing
    /// the outcomes straight into bitmap words.
    fn fill_span_bitmap(&self, window: PosRange, matches: impl Fn(u32) -> bool) -> PosList {
        let lo = (window.start - self.start_pos) as usize;
        let hi = (window.end - self.start_pos) as usize;
        let mut words = vec![0u64; (hi - lo).div_ceil(64)];
        for (chunk, word) in self.codes[lo..hi].chunks(64).zip(words.iter_mut()) {
            let mut bits = 0u64;
            for (b, &c) in chunk.iter().enumerate() {
                bits |= (matches(c) as u64) << b;
            }
            *word = bits;
        }
        PosList::Bitmap(Bitmap::from_words(window, words))
    }

    /// DS3 point fetch (O(1) per position; every position inside the
    /// block), written to the next cells of `out`.
    #[inline]
    pub fn gather_into(&self, positions: &[Pos], out: &mut Slots<'_>) {
        out.put(
            positions
                .iter()
                .map(|&p| self.dict[self.codes[(p - self.start_pos) as usize] as usize]),
        );
    }

    /// DS3 over ascending, disjoint `ranges`, each clipped to the block,
    /// written to the next cells of `out`: each range's codes index the
    /// dictionary directly.
    pub fn gather_ranges_into(&self, ranges: &[PosRange], out: &mut Slots<'_>) {
        let covering = PosRange::new(self.start_pos, self.start_pos + self.codes.len() as u64);
        for range in ranges {
            let r = range.intersect(&covering);
            if r.is_empty() {
                continue;
            }
            let lo = (r.start - self.start_pos) as usize;
            let hi = (r.end - self.start_pos) as usize;
            out.put(self.codes[lo..hi].iter().map(|&c| self.dict[c as usize]));
        }
    }

    /// Append the codec payload to `buf`.
    pub fn serialize_payload(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.dict.len() as u32);
        for &v in &self.dict {
            put_i64(buf, v);
        }
        match self.code_width() {
            1 => {
                for &c in &self.codes {
                    buf.push(c as u8);
                }
            }
            2 => {
                for &c in &self.codes {
                    buf.extend_from_slice(&(c as u16).to_le_bytes());
                }
            }
            _ => {
                for &c in &self.codes {
                    buf.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
    }

    /// Parse the codec payload.
    pub fn parse_payload(
        start_pos: Pos,
        count: u32,
        width: u8,
        r: &mut Reader<'_>,
    ) -> Result<DictBlock> {
        let k = r.count(8, "dictionary entries")?;
        let dict = (0..k).map(|_| r.i64()).collect::<Result<Vec<_>>>()?;
        // The code bytes are read before anything is sized from `count`.
        let codes: Vec<u32> = match width {
            1 => r.bytes(count as usize)?.iter().map(|&b| b as u32).collect(),
            2 => r
                .bytes(count as usize * 2)?
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes(c.try_into().unwrap()) as u32)
                .collect(),
            4 => r
                .bytes(count as usize * 4)?
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect(),
            w => return Err(Error::corrupt(format!("bad dict code width {w}"))),
        };
        for &c in &codes {
            if c as usize >= k {
                return Err(Error::corrupt(format!(
                    "dict code {c} out of range (k={k})"
                )));
            }
        }
        let fingerprint = dict_fingerprint(&dict);
        Ok(DictBlock {
            start_pos,
            dict,
            codes,
            fingerprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let vals = vec![100, 200, 100, 300, 200, 100];
        let b = DictBlock::from_values(0, &vals);
        assert_eq!(b.dictionary(), &[100, 200, 300]);
        let mut out = Vec::new();
        crate::block::EncodedBlock::Dict(b).decode_all(&mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn scan_positions_via_dictionary() {
        let b = crate::block::EncodedBlock::Dict(DictBlock::from_values(10, &[100, 200, 100, 300]));
        let pl = b.scan_positions(&Predicate::le(200));
        assert_eq!(pl.to_vec(), vec![10, 11, 12]);
    }

    #[test]
    fn gather_and_value_at() {
        let b = crate::block::EncodedBlock::Dict(DictBlock::from_values(5, &[7, 8, 9]));
        let mut out = Vec::new();
        b.gather(&[5, 7], &mut out).unwrap();
        assert_eq!(out, vec![7, 9]);
        assert_eq!(b.value_at(6).unwrap(), 8);
        assert!(b.value_at(8).is_err());
    }

    #[test]
    fn code_width_scales_with_cardinality() {
        assert_eq!(code_width_for(2), 1);
        assert_eq!(code_width_for(256), 1);
        assert_eq!(code_width_for(257), 2);
        assert_eq!(code_width_for(70_000), 4);
    }

    #[test]
    fn wide_dictionary_roundtrip() {
        // Force 2-byte codes: 300 distinct values.
        let vals: Vec<Value> = (0..300).map(|i| i * 1000).collect();
        let b = DictBlock::from_values(0, &vals);
        assert_eq!(b.code_width(), 2);
        let mut buf = Vec::new();
        b.serialize_payload(&mut buf);
        let mut r = Reader::new(&buf);
        let back = DictBlock::parse_payload(0, 300, 2, &mut r).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn hashed_encoding_keeps_first_appearance_order() {
        // The dictionary (and therefore every code) must be identical to
        // what the old linear-probe loop emitted: first-appearance order.
        let vals = vec![50, 20, 50, 90, 20, 20, 10, 90];
        let b = DictBlock::from_values(0, &vals);
        assert_eq!(b.dictionary(), &[50, 20, 90, 10]);
        assert_eq!(b.codes(), &[0, 1, 0, 2, 1, 1, 3, 2]);
    }

    #[test]
    fn shared_dict_blocks_agree_on_codes_and_fingerprint() {
        let dict = vec![10, 20, 30, 40];
        let a = DictBlock::from_values_shared(0, &[20, 40, 20], &dict).unwrap();
        let b = DictBlock::from_values_shared(100, &[40, 10], &dict).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.codes(), &[1, 3, 1]);
        assert_eq!(b.codes(), &[3, 0]);
        // A per-block dictionary over the same values assigns different
        // codes (first-appearance order) and a different fingerprint.
        let c = DictBlock::from_values(0, &[20, 40, 20]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Values outside the dictionary are rejected.
        assert!(DictBlock::from_values_shared(0, &[99], &dict).is_err());
    }

    #[test]
    fn fingerprint_survives_serialization() {
        let dict = vec![10, 20, 30];
        let b = DictBlock::from_values_shared(0, &[30, 10, 20, 20], &dict).unwrap();
        let mut buf = Vec::new();
        b.serialize_payload(&mut buf);
        let mut r = Reader::new(&buf);
        let back = DictBlock::parse_payload(0, 4, 1, &mut r).unwrap();
        assert_eq!(back.fingerprint(), b.fingerprint());
        assert_eq!(back, b);
    }

    #[test]
    fn shared_sorted_dict_scans_ranges_without_tables() {
        // A shared dictionary is sorted, so range predicates translate to
        // code ranges; the scan result must match value-domain filtering.
        let dict = vec![10, 20, 30, 40];
        let vals = vec![40, 10, 30, 20, 30, 40];
        let b = DictBlock::from_values_shared(0, &vals, &dict).unwrap();
        let pl = crate::block::EncodedBlock::Dict(b).scan_positions(&Predicate::between(15, 35));
        let expect: Vec<Pos> = vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| (15..=35).contains(&v))
            .map(|(i, _)| i as Pos)
            .collect();
        assert_eq!(pl.to_vec(), expect);
    }

    #[test]
    fn gather_codes_matches_decoded_gather() {
        let b = DictBlock::from_values(5, &[7, 8, 9, 7]);
        let mut codes = Vec::new();
        b.gather_codes(&[5, 6, 8, 8], &mut codes).unwrap();
        assert_eq!(codes, vec![0, 1, 0, 0]);
        assert!(b.gather_codes(&[99], &mut codes).is_err());
    }

    #[test]
    fn scans_record_code_ops() {
        let b = crate::block::EncodedBlock::Dict(DictBlock::from_values(0, &[1, 2, 1, 3]));
        let io = matstrat_common::QueryIo::new();
        io.run(|| b.scan_positions(&Predicate::eq(2)));
        assert_eq!(io.code_ops(), 4);
    }

    #[test]
    fn parse_rejects_out_of_range_codes() {
        let b = DictBlock::from_values(0, &[1, 2]);
        let mut buf = Vec::new();
        b.serialize_payload(&mut buf);
        // Corrupt a code byte to 9 (k = 2).
        let last = buf.len() - 1;
        buf[last] = 9;
        let mut r = Reader::new(&buf);
        assert!(DictBlock::parse_payload(0, 2, 1, &mut r).is_err());
    }
}
