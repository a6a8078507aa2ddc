//! Bit-map position representation.
//!
//! A [`Bitmap`] covers a contiguous position range and stores one bit per
//! covered position (1 = position is present / passed the predicate).
//! This is the representation the paper leans on for CPU efficiency:
//! two bitmaps are ANDed 64 positions per instruction.

use matstrat_common::{Pos, PosRange};

/// A bit-vector over a covering position range.
///
/// Bit `i` of the map corresponds to absolute position `range.start + i`.
/// All operations on differently-aligned bitmaps are supported; aligned
/// operations take the fast word-wise path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    range: PosRange,
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-zeros bitmap covering `range`.
    pub fn zeros(range: PosRange) -> Bitmap {
        let nwords = (range.len() as usize).div_ceil(64);
        Bitmap {
            range,
            words: vec![0; nwords],
        }
    }

    /// An all-ones bitmap covering `range`.
    pub fn ones(range: PosRange) -> Bitmap {
        let mut b = Bitmap::zeros(range);
        for w in &mut b.words {
            *w = u64::MAX;
        }
        b.mask_tail();
        b
    }

    /// Build from a sorted iterator of absolute positions, all of which
    /// must fall inside `range`. Out-of-range positions are ignored.
    pub fn from_positions(range: PosRange, positions: impl IntoIterator<Item = Pos>) -> Bitmap {
        let mut b = Bitmap::zeros(range);
        for p in positions {
            if range.contains(p) {
                b.set(p);
            }
        }
        b
    }

    /// Adopt pre-built words (bit 0 of word 0 = `range.start`). The word
    /// count must match `ceil(range.len() / 64)`; tail bits beyond the
    /// range are masked off. This is the zero-copy path for bit-vector
    /// encoded blocks, whose bit-strings are already in this layout.
    ///
    /// # Panics
    /// Panics if `words.len()` does not match the covering range.
    pub fn from_words(range: PosRange, words: Vec<u64>) -> Bitmap {
        assert_eq!(
            words.len(),
            (range.len() as usize).div_ceil(64),
            "word count does not match covering range {range}"
        );
        let mut b = Bitmap { range, words };
        b.mask_tail();
        b
    }

    /// The covering range.
    #[inline]
    pub fn covering(&self) -> PosRange {
        self.range
    }

    /// Raw 64-bit words (bit 0 of word 0 is `range.start`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Set the bit for absolute position `pos`.
    ///
    /// # Panics
    /// Panics if `pos` lies outside the covering range.
    #[inline]
    pub fn set(&mut self, pos: Pos) {
        assert!(
            self.range.contains(pos),
            "position {pos} outside {}",
            self.range
        );
        let bit = (pos - self.range.start) as usize;
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Clear the bit for absolute position `pos`.
    ///
    /// # Panics
    /// Panics if `pos` lies outside the covering range.
    #[inline]
    pub fn clear(&mut self, pos: Pos) {
        assert!(
            self.range.contains(pos),
            "position {pos} outside {}",
            self.range
        );
        let bit = (pos - self.range.start) as usize;
        self.words[bit / 64] &= !(1u64 << (bit % 64));
    }

    /// Whether the bit for absolute position `pos` is set. Positions
    /// outside the covering range are reported as absent.
    #[inline]
    pub fn get(&self, pos: Pos) -> bool {
        if !self.range.contains(pos) {
            return false;
        }
        let bit = (pos - self.range.start) as usize;
        (self.words[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether no bits are set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Read 64 bits starting at absolute position `abs` (which need not be
    /// word-aligned relative to this bitmap). Bits outside the covering
    /// range read as zero.
    #[inline]
    fn get_word(&self, abs: Pos) -> u64 {
        if abs >= self.range.end || abs + 64 <= self.range.start {
            return 0;
        }
        // Offset of `abs` relative to our start; may be negative.
        if abs >= self.range.start {
            let off = (abs - self.range.start) as usize;
            let (w, s) = (off / 64, off % 64);
            let lo = self.words.get(w).copied().unwrap_or(0);
            let mut out = lo >> s;
            if s > 0 {
                let hi = self.words.get(w + 1).copied().unwrap_or(0);
                out |= hi << (64 - s);
            }
            // Mask bits beyond range end.
            let remaining = self.range.end - abs;
            if remaining < 64 {
                out &= (1u64 << remaining) - 1;
            }
            out
        } else {
            // abs < start: low (start-abs) bits are zero.
            let lead = (self.range.start - abs) as usize; // 1..=63
            let inner = self.get_word(self.range.start);
            inner << lead
        }
    }

    /// Word-wise AND. The result covers the intersection of the two
    /// covering ranges. When the operands share alignment this runs one
    /// `&` per 64 positions — the paper's headline CPU win.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let range = self.range.intersect(&other.range);
        if range.is_empty() {
            return Bitmap::zeros(range);
        }
        let mut out = Bitmap::zeros(range);
        if range.start == self.range.start && range.start == other.range.start {
            // Fast aligned path.
            let n = out.words.len();
            for i in 0..n {
                out.words[i] = self.words[i] & other.words[i];
            }
        } else {
            let n = out.words.len();
            for i in 0..n {
                let abs = range.start + (i as u64) * 64;
                out.words[i] = self.get_word(abs) & other.get_word(abs);
            }
        }
        out.mask_tail();
        out
    }

    /// Word-wise OR. The result covers the hull of the two covering ranges;
    /// positions covered by only one operand contribute that operand's bits.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let range = self.range.hull(&other.range);
        let mut out = Bitmap::zeros(range);
        let n = out.words.len();
        for i in 0..n {
            let abs = range.start + (i as u64) * 64;
            out.words[i] = self.get_word(abs) | other.get_word(abs);
        }
        out.mask_tail();
        out
    }

    /// Bitwise NOT within the covering range (positions outside are
    /// unaffected — they stay "absent").
    pub fn not(&self) -> Bitmap {
        let mut out = Bitmap {
            range: self.range,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.mask_tail();
        out
    }

    /// In-place OR of another bitmap whose covering range must be
    /// contained in this bitmap's range, with no alignment requirement:
    /// 64 positions merge per iteration even when the operands' word
    /// boundaries disagree. This is how per-block scan results are
    /// folded into a window-wide bitmap.
    ///
    /// # Panics
    /// Panics if `other`'s covering range is not contained in this one.
    pub fn union(&mut self, other: &Bitmap) {
        if other.range.is_empty() {
            return;
        }
        assert!(
            self.range.start <= other.range.start && other.range.end <= self.range.end,
            "union requires {} to contain {}",
            self.range,
            other.range
        );
        let first = ((other.range.start - self.range.start) / 64) as usize;
        let last = ((other.range.end - 1 - self.range.start) / 64) as usize;
        for w in first..=last {
            let abs = self.range.start + (w as u64) * 64;
            self.words[w] |= other.get_word(abs);
        }
    }

    /// Set every bit of a run of consecutive positions, word-wise.
    ///
    /// # Panics
    /// Panics if the run is not contained in the covering range.
    pub fn set_run(&mut self, run: PosRange) {
        if run.is_empty() {
            return;
        }
        assert!(
            self.range.start <= run.start && run.end <= self.range.end,
            "run {run} outside {}",
            self.range
        );
        let s = (run.start - self.range.start) as usize;
        let e = (run.end - 1 - self.range.start) as usize; // inclusive
        let (sw, sb) = (s / 64, (s % 64) as u32);
        let (ew, eb) = (e / 64, (e % 64) as u32);
        if sw == ew {
            self.words[sw] |= (u64::MAX >> (63 - eb)) & (u64::MAX << sb);
        } else {
            self.words[sw] |= u64::MAX << sb;
            for w in &mut self.words[sw + 1..ew] {
                *w = u64::MAX;
            }
            self.words[ew] |= u64::MAX >> (63 - eb);
        }
    }

    /// Restrict to the positions of `window`, word-wise: the result covers
    /// `window ∩ covering` and is filled 64 positions per step whatever
    /// the alignment of the two ranges.
    pub fn clip(&self, window: PosRange) -> Bitmap {
        let range = self.range.intersect(&window);
        let mut out = Bitmap::zeros(range);
        for (i, w) in out.words.iter_mut().enumerate() {
            *w = self.get_word(range.start + 64 * i as u64);
        }
        out.mask_tail();
        out
    }

    /// Append the set positions inside `window` to `out` in ascending
    /// order, 64 positions per step whatever the alignment: each set bit
    /// costs one bit scan, and clear words cost nothing more.
    pub fn positions_in(&self, window: PosRange, out: &mut Vec<Pos>) {
        let range = self.range.intersect(&window);
        let mut base = range.start;
        while base < range.end {
            let mut w = self.get_word(base);
            let left = range.end - base;
            if left < 64 {
                w &= (1u64 << left) - 1;
            }
            while w != 0 {
                out.push(base + u64::from(w.trailing_zeros()));
                w &= w - 1;
            }
            base += 64;
        }
    }

    /// Visit the maximal runs of set bits in ascending order, a word at a
    /// time: each run costs two bit scans, not one test per position.
    pub fn for_each_run(&self, mut f: impl FnMut(PosRange)) {
        let mut open: Option<Pos> = None;
        for (i, &word) in self.words.iter().enumerate() {
            let base = self.range.start + 64 * i as u64;
            // `w` is `word` with its first `at` bits consumed (shifted out).
            let (mut w, mut at) = (word, 0u32);
            loop {
                match open {
                    None if w == 0 => break,
                    None => {
                        let skip = w.trailing_zeros();
                        at += skip;
                        w >>= skip;
                        open = Some(base + u64::from(at));
                    }
                    Some(start) => {
                        let ones = w.trailing_ones();
                        at += ones;
                        if at == 64 {
                            break; // the run continues into the next word
                        }
                        w >>= ones;
                        f(PosRange::new(start, base + u64::from(at)));
                        open = None;
                    }
                }
            }
        }
        if let Some(start) = open {
            f(PosRange::new(start, self.range.end));
        }
    }

    /// What the representation rule needs to know of the set, in one pass
    /// over the words: the number of set bits, the number of maximal runs,
    /// and the range from the first set bit to one past the last. `None`
    /// when no bit is set.
    pub(crate) fn shape(&self) -> Option<(u64, u64, PosRange)> {
        let (mut count, mut runs, mut carry) = (0u64, 0u64, 0u64);
        let (mut first, mut last) = (None, 0);
        for (i, &w) in self.words.iter().enumerate() {
            count += u64::from(w.count_ones());
            // A run starts at every set bit whose predecessor is clear.
            runs += u64::from((w & !((w << 1) | carry)).count_ones());
            carry = w >> 63;
            if w != 0 {
                let base = self.range.start + 64 * i as u64;
                first.get_or_insert(base + u64::from(w.trailing_zeros()));
                last = base + 63 - u64::from(w.leading_zeros());
            }
        }
        first.map(|f| (count, runs, PosRange::new(f, last + 1)))
    }

    /// In-place OR of another bitmap whose covering range must be contained
    /// in (or equal to) this bitmap's range. Used when ORing per-value
    /// bit-strings of a bit-vector encoded block, which are always aligned.
    pub fn or_assign_aligned(&mut self, other: &Bitmap) {
        assert_eq!(
            self.range.start, other.range.start,
            "or_assign_aligned requires identical start positions"
        );
        assert!(other.range.end <= self.range.end);
        for (dst, src) in self.words.iter_mut().zip(other.words.iter()) {
            *dst |= *src;
        }
    }

    /// Iterate over set positions in ascending order.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter {
            bm: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Zero any bits beyond the covering range in the final word.
    fn mask_tail(&mut self) {
        let len = self.range.len();
        let tail_bits = (len % 64) as u32;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
        // An empty range has zero words; nothing to mask.
    }
}

/// Iterator over the set positions of a [`Bitmap`].
#[derive(Debug)]
pub struct BitmapIter<'a> {
    bm: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = Pos;

    #[inline]
    fn next(&mut self) -> Option<Pos> {
        loop {
            if self.current != 0 {
                let t = self.current.trailing_zeros() as u64;
                self.current &= self.current - 1;
                return Some(self.bm.range.start + (self.word_idx as u64) * 64 + t);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bm.words.len() {
                return None;
            }
            self.current = self.bm.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, e: u64) -> PosRange {
        PosRange::new(s, e)
    }

    #[test]
    fn positions_in_matches_the_iterator_at_any_alignment() {
        let bm = Bitmap::from_positions(r(13, 400), (13..400).filter(|p| p % 3 == 0 || p % 7 == 1));
        for (s, e) in [
            (0, 500),
            (13, 400),
            (20, 21),
            (77, 141),
            (64, 128),
            (399, 400),
            (5, 13),
        ] {
            let mut got = vec![1];
            bm.positions_in(r(s, e), &mut got);
            let want: Vec<Pos> = std::iter::once(1)
                .chain(bm.iter().filter(|&p| (s..e).contains(&p)))
                .collect();
            assert_eq!(got, want, "window {s}..{e}");
        }
        let full = crate::PosList::Bitmap(bm.clone());
        assert_eq!(full.into_vec(), bm.iter().collect::<Vec<_>>());
    }

    #[test]
    fn zeros_and_ones() {
        let z = Bitmap::zeros(r(10, 100));
        assert_eq!(z.count(), 0);
        assert!(z.is_empty());
        let o = Bitmap::ones(r(10, 100));
        assert_eq!(o.count(), 90);
        assert!(o.get(10));
        assert!(o.get(99));
        assert!(!o.get(100));
        assert!(!o.get(9));
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::zeros(r(0, 130));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn set_out_of_range_panics() {
        let mut b = Bitmap::zeros(r(10, 20));
        b.set(20);
    }

    #[test]
    fn from_positions_ignores_out_of_range() {
        let b = Bitmap::from_positions(r(10, 20), [5, 10, 15, 25]);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![10, 15]);
    }

    #[test]
    fn and_aligned() {
        let a = Bitmap::from_positions(r(0, 200), [1, 5, 64, 130, 199]);
        let b = Bitmap::from_positions(r(0, 200), [5, 64, 131, 199]);
        let c = a.and(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![5, 64, 199]);
    }

    #[test]
    fn and_misaligned_ranges() {
        let a = Bitmap::from_positions(r(0, 100), [10, 50, 70, 99]);
        let b = Bitmap::from_positions(r(50, 150), [50, 70, 100, 149]);
        let c = a.and(&b);
        assert_eq!(c.covering(), r(50, 100));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![50, 70]);
    }

    #[test]
    fn and_disjoint_is_empty() {
        let a = Bitmap::ones(r(0, 64));
        let b = Bitmap::ones(r(64, 128));
        let c = a.and(&b);
        assert!(c.is_empty());
        assert!(c.covering().is_empty());
    }

    #[test]
    fn or_hull_misaligned() {
        let a = Bitmap::from_positions(r(0, 70), [0, 69]);
        let b = Bitmap::from_positions(r(100, 160), [100, 159]);
        let c = a.or(&b);
        assert_eq!(c.covering(), r(0, 160));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![0, 69, 100, 159]);
    }

    #[test]
    fn union_merges_misaligned_contained_bitmaps() {
        let mut acc = Bitmap::zeros(r(0, 300));
        acc.union(&Bitmap::from_positions(r(3, 70), [3, 42, 69]));
        acc.union(&Bitmap::from_positions(r(70, 200), [70, 127, 128, 199]));
        acc.union(&Bitmap::zeros(PosRange::empty()));
        assert_eq!(
            acc.iter().collect::<Vec<_>>(),
            vec![3, 42, 69, 70, 127, 128, 199]
        );
    }

    #[test]
    #[should_panic(expected = "contain")]
    fn union_rejects_uncontained_operand() {
        let mut acc = Bitmap::zeros(r(10, 50));
        acc.union(&Bitmap::zeros(r(40, 60)));
    }

    #[test]
    fn set_run_within_one_word_and_across_words() {
        let mut b = Bitmap::zeros(r(5, 400));
        b.set_run(r(7, 10)); // single word, interior
        b.set_run(r(64, 64)); // empty: no-op
        b.set_run(r(60, 200)); // spans full words
        b.set_run(r(399, 400)); // final position
        let got: Vec<Pos> = b.iter().collect();
        let mut expected: Vec<Pos> = (7..10).collect();
        expected.extend(60..200);
        expected.push(399);
        assert_eq!(got, expected);
        assert_eq!(b.count(), 3 + 140 + 1);
    }

    #[test]
    fn set_run_word_aligned_boundaries() {
        let mut b = Bitmap::zeros(r(0, 256));
        b.set_run(r(64, 128)); // exactly one full word
        b.set_run(r(0, 64)); // from bit zero
        assert_eq!(b.count(), 128);
        assert_eq!(b.iter().collect::<Vec<_>>(), (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_run_and_shape_cross_word_boundaries() {
        let runs = [r(5, 6), r(60, 64), r(66, 200), r(255, 256), r(300, 320)];
        for cov in [r(5, 320), r(0, 320), r(3, 384)] {
            let mut b = Bitmap::zeros(cov);
            runs.iter().for_each(|&run| b.set_run(run));
            let mut got = Vec::new();
            b.for_each_run(|run| got.push(run));
            assert_eq!(got, runs, "{cov}");
            assert_eq!(b.shape(), Some((b.count(), 5, r(5, 320))), "{cov}");
        }
        assert_eq!(Bitmap::zeros(r(0, 128)).shape(), None);
        let full = Bitmap::ones(r(64, 192));
        let mut got = Vec::new();
        full.for_each_run(|run| got.push(run));
        assert_eq!(got, vec![r(64, 192)]);
    }

    #[test]
    fn clip_is_word_wise_and_unaligned() {
        let b = Bitmap::from_positions(r(3, 300), [3, 64, 70, 130, 131, 299]);
        let c = b.clip(r(65, 140));
        assert_eq!(c.covering(), r(65, 140));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![70, 130, 131]);
        assert_eq!(b.clip(r(0, 1000)), b);
        assert!(b.clip(r(400, 500)).covering().is_empty());
    }

    #[test]
    fn or_assign_aligned_accumulates() {
        let mut acc = Bitmap::zeros(r(64, 256));
        acc.or_assign_aligned(&Bitmap::from_positions(r(64, 256), [64, 100]));
        acc.or_assign_aligned(&Bitmap::from_positions(r(64, 200), [65, 199]));
        assert_eq!(acc.iter().collect::<Vec<_>>(), vec![64, 65, 100, 199]);
    }

    #[test]
    fn not_respects_range() {
        let b = Bitmap::from_positions(r(10, 15), [11, 13]);
        let n = b.not();
        assert_eq!(n.iter().collect::<Vec<_>>(), vec![10, 12, 14]);
        assert_eq!(n.not().iter().collect::<Vec<_>>(), vec![11, 13]);
    }

    #[test]
    fn iter_over_sparse_words() {
        let positions = vec![0u64, 63, 64, 127, 128, 500, 511];
        let b = Bitmap::from_positions(r(0, 512), positions.clone());
        assert_eq!(b.iter().collect::<Vec<_>>(), positions);
    }

    #[test]
    fn get_word_reads_across_boundaries() {
        // positions 0..=127 set in a map covering [3, 131)
        let b = Bitmap::ones(r(3, 131));
        // read 64 bits at abs 0: bits 0,1,2 are below range => zero
        let w = b.get_word(0);
        assert_eq!(w & 0b111, 0);
        assert_eq!(w >> 3, u64::MAX >> 3);
        // read near the end: positions 128,129,130 set, rest zero
        let w = b.get_word(128);
        assert_eq!(w, 0b111);
    }

    #[test]
    fn empty_range_bitmap() {
        let b = Bitmap::zeros(PosRange::empty());
        assert_eq!(b.count(), 0);
        assert!(b.iter().next().is_none());
        let o = Bitmap::ones(PosRange::empty());
        assert_eq!(o.count(), 0);
    }
}
