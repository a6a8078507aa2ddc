//! Uncompressed (plain) blocks: values packed at a fixed byte width.
//!
//! DS1 over a plain block is the word kernel of late materialization:
//! the predicate is one value interval, tested branch-free at the packed
//! width, and 64 outcomes at a time become one `u64` of a match bitmap,
//! which is then shaped into ranges, a bitmap or an explicit list by the
//! position-list crate's one representation rule.

use matstrat_common::{Error, Pos, PosRange, Predicate, Result, Value, Width};
use matstrat_poslist::{Bitmap, PosList};

use crate::wire::Reader;
use crate::BLOCK_SIZE;

use super::{Slots, BLOCK_HEADER_SIZE};

/// A block of values packed contiguously at [`Width`] bytes each.
///
/// The payload stays in its packed byte form in memory; accessors decode
/// individual values with sign extension. A 64 KB block at width 1 holds
/// ~65 K values, which is what makes the paper's uncompressed LINENUM
/// column (60 M rows) occupy 916 blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct PlainBlock {
    start_pos: Pos,
    width: Width,
    raw: Vec<u8>,
    count: u32,
}

impl PlainBlock {
    /// Maximum number of rows a plain block of `width` can hold.
    pub fn capacity(width: Width) -> usize {
        (BLOCK_SIZE - BLOCK_HEADER_SIZE) / width.bytes()
    }

    /// Encode `values` (must fit `width` and `capacity`).
    ///
    /// # Panics
    /// Panics if a value does not fit the width or the block would
    /// overflow 64 KB.
    pub fn from_values(start_pos: Pos, width: Width, values: &[Value]) -> PlainBlock {
        Self::from_slices(start_pos, width, [values])
    }

    /// [`from_values`](Self::from_values) over the concatenation of
    /// `slices`: a block cut straight out of chunked storage (a reader's
    /// in-memory tail of inserted rows) with no intermediate copy.
    pub fn from_slices<'a, I>(start_pos: Pos, width: Width, slices: I) -> PlainBlock
    where
        I: IntoIterator<Item = &'a [Value]>,
        I::IntoIter: Clone,
    {
        let slices = slices.into_iter();
        let count: usize = slices.clone().map(<[Value]>::len).sum();
        assert!(
            count <= Self::capacity(width),
            "plain block overflow: {count} values at width {width}"
        );
        let mut raw = vec![0u8; count * width.bytes()];
        // One loop per width, so at W8 the pack is a plain copy.
        macro_rules! pack {
            ($t:ty) => {{
                const W: usize = std::mem::size_of::<$t>();
                let mut at = 0;
                for slice in slices {
                    let dst = &mut raw[at * W..(at + slice.len()) * W];
                    for (out, &v) in dst.chunks_exact_mut(W).zip(slice) {
                        assert!(width.fits(v), "value {v} does not fit width {width}");
                        out.copy_from_slice(&(v as $t).to_le_bytes());
                    }
                    at += slice.len();
                }
            }};
        }
        match width {
            Width::W1 => pack!(i8),
            Width::W2 => pack!(i16),
            Width::W4 => pack!(i32),
            Width::W8 => pack!(i64),
        }
        PlainBlock {
            start_pos,
            width,
            raw,
            count: count as u32,
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

    /// Byte width of each packed value.
    #[inline]
    pub fn width(&self) -> Width {
        self.width
    }

    /// DS1 restricted to `window` (already intersected with the covering
    /// range by the caller).
    ///
    /// Branch-free, a word at a time: every operator is one inclusive
    /// value interval (`Ne` is the complement of its `Eq` interval), each
    /// packed value is tested against it with one unsigned compare at the
    /// block's own width, and 64 outcomes pack into one `u64` match word.
    /// The representation is then read off the words by
    /// [`PosList::from_bitmap`] — the rule [`PosListBuilder::finish`]
    /// applies — so the result equals pushing each match through the
    /// builder, representation included.
    ///
    /// [`PosListBuilder::finish`]: matstrat_poslist::PosListBuilder::finish
    pub fn scan_positions_in(&self, pred: &Predicate, window: PosRange) -> PosList {
        let lo = (window.start - self.start_pos) as usize;
        let hi = (window.end - self.start_pos) as usize;
        let ((vlo, vhi), negate) = match pred.value_interval() {
            Some(interval) => (interval, false),
            None => ((pred.operand, pred.operand), true),
        };
        let mut words = vec![0u64; (hi - lo).div_ceil(64)];
        // One loop per width: the interval is clamped to the width's
        // domain, so the test `v - lo <= hi - lo` runs in the packed type
        // (unsigned, wrapping) and the loop body has no branch.
        macro_rules! scan {
            ($t:ty, $u:ty) => {{
                const W: usize = std::mem::size_of::<$t>();
                let (tlo, thi) = (vlo.max(<$t>::MIN as Value), vhi.min(<$t>::MAX as Value));
                if tlo <= thi {
                    let (base, span) = (tlo as $t, thi.wrapping_sub(tlo) as $u);
                    let packed = &self.raw[lo * W..hi * W];
                    for (chunk, word) in packed.chunks(64 * W).zip(words.iter_mut()) {
                        // Outcomes as 0/1 bytes first (a loop the compiler
                        // vectorizes), then eight bytes to eight bits per
                        // multiply.
                        let mut hits = [0u8; 64];
                        for (hit, bytes) in hits.iter_mut().zip(chunk.chunks_exact(W)) {
                            let v = <$t>::from_le_bytes(bytes.try_into().unwrap());
                            *hit = u8::from(v.wrapping_sub(base) as $u <= span);
                        }
                        *word = pack_bytes(&hits);
                    }
                }
            }};
        }
        match self.width {
            Width::W1 => scan!(i8, u8),
            Width::W2 => scan!(i16, u16),
            Width::W4 => scan!(i32, u32),
            Width::W8 => scan!(i64, u64),
        }
        if negate {
            // Bits past the window's end are masked off by the bitmap.
            words.iter_mut().for_each(|w| *w = !*w);
        }
        PosList::from_bitmap(Bitmap::from_words(window, words))
    }

    /// DS3 point fetch (O(1) per position; every position inside the
    /// block), written to the next cells of `out`: one unpacking loop per
    /// width, as in [`gather_ranges_into`](Self::gather_ranges_into), so
    /// no value pays a width dispatch.
    #[inline]
    pub fn gather_into(&self, positions: &[Pos], out: &mut Slots<'_>) {
        macro_rules! unpack {
            ($t:ty) => {{
                const W: usize = std::mem::size_of::<$t>();
                let (raw, start) = (&self.raw[..], self.start_pos);
                out.put(positions.iter().map(|&p| {
                    let o = (p - start) as usize * W;
                    <$t>::from_le_bytes(raw[o..o + W].try_into().unwrap()) as Value
                }));
            }};
        }
        match self.width {
            Width::W1 => unpack!(i8),
            Width::W2 => unpack!(i16),
            Width::W4 => unpack!(i32),
            Width::W8 => unpack!(i64),
        }
    }

    /// DS3 over ascending, disjoint `ranges`, each clipped to the block,
    /// written to the next cells of `out`: one unpacking loop per width,
    /// so no value pays a width dispatch.
    pub fn gather_ranges_into(&self, ranges: &[PosRange], out: &mut Slots<'_>) {
        let covering = PosRange::new(self.start_pos, self.start_pos + self.count as u64);
        macro_rules! unpack {
            ($t:ty) => {{
                const W: usize = std::mem::size_of::<$t>();
                for range in ranges {
                    let r = range.intersect(&covering);
                    if r.is_empty() {
                        continue;
                    }
                    let lo = (r.start - self.start_pos) as usize;
                    let hi = (r.end - self.start_pos) as usize;
                    out.put(
                        self.raw[lo * W..hi * W]
                            .chunks_exact(W)
                            .map(|b| <$t>::from_le_bytes(b.try_into().unwrap()) as Value),
                    );
                }
            }};
        }
        match self.width {
            Width::W1 => unpack!(i8),
            Width::W2 => unpack!(i16),
            Width::W4 => unpack!(i32),
            Width::W8 => unpack!(i64),
        }
    }

    /// Append the codec payload (packed bytes) to `buf`.
    pub fn serialize_payload(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.raw);
    }

    /// Parse the codec payload.
    pub fn parse_payload(
        start_pos: Pos,
        count: u32,
        width: u8,
        r: &mut Reader<'_>,
    ) -> Result<PlainBlock> {
        let width = match width {
            1 => Width::W1,
            2 => Width::W2,
            4 => Width::W4,
            8 => Width::W8,
            w => return Err(Error::corrupt(format!("bad plain width {w}"))),
        };
        let raw = r.bytes(count as usize * width.bytes())?.to_vec();
        Ok(PlainBlock {
            start_pos,
            width,
            raw,
            count,
        })
    }
}

/// Pack 64 bytes, each 0 or 1, into one word: byte `i` becomes bit `i`.
/// One multiply gathers eight bytes' low bits into the top byte — byte
/// `k`'s bit lands at bit `56 + k`, and no two partial products overlap,
/// so nothing carries.
#[inline(always)]
fn pack_bytes(hits: &[u8; 64]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut word = 0u64;
    for (k, eight) in hits.chunks_exact(8).enumerate() {
        let lanes = u64::from_le_bytes(eight.try_into().unwrap());
        word |= (lanes.wrapping_mul(GATHER) >> 56) << (8 * k);
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::EncodedBlock;

    #[test]
    fn pack_bytes_maps_byte_i_to_bit_i() {
        for i in 0..64 {
            let mut hits = [0u8; 64];
            hits[i] = 1;
            assert_eq!(pack_bytes(&hits), 1u64 << i, "byte {i}");
        }
        assert_eq!(pack_bytes(&[1; 64]), u64::MAX);
        assert_eq!(pack_bytes(&[0; 64]), 0);
    }

    #[test]
    fn capacity_by_width() {
        assert_eq!(PlainBlock::capacity(Width::W1), 65520);
        assert_eq!(PlainBlock::capacity(Width::W8), 8190);
    }

    #[test]
    fn negative_values_roundtrip_all_widths() {
        for width in [Width::W1, Width::W2, Width::W4, Width::W8] {
            let values = vec![-1, 0, 1, -128, 127];
            let b = EncodedBlock::Plain(PlainBlock::from_values(0, width, &values));
            let mut out = Vec::new();
            b.decode_all(&mut out);
            assert_eq!(out, values, "{width}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn width_violation_panics() {
        PlainBlock::from_values(0, Width::W1, &[1000]);
    }

    #[test]
    fn scan_positions_runs_are_coalesced() {
        // 0,0,0,1,1,0: pred eq(0) matches positions 0-2 and 5.
        let b = EncodedBlock::Plain(PlainBlock::from_values(10, Width::W1, &[0, 0, 0, 1, 1, 0]));
        let pl = b.scan_positions(&Predicate::eq(0));
        assert_eq!(pl.to_vec(), vec![10, 11, 12, 15]);
    }

    #[test]
    fn gather_range_bounds_checked() {
        let b = EncodedBlock::Plain(PlainBlock::from_values(10, Width::W2, &[1, 2, 3]));
        let mut out = Vec::new();
        assert!(b.gather_range(PosRange::new(10, 14), &mut out).is_err());
        out.clear();
        b.gather_range(PosRange::new(11, 13), &mut out).unwrap();
        assert_eq!(out, vec![2, 3]);
        b.gather_range(PosRange::empty(), &mut out).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_block_for_each_run() {
        let b = EncodedBlock::Plain(PlainBlock::from_values(0, Width::W1, &[]));
        let mut n = 0;
        b.for_each_run(|_, _| n += 1);
        assert_eq!(n, 0);
    }
}
