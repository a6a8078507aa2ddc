//! The unified position-list type and its AND/OR algebra.

use matstrat_common::{Pos, PosRange};

use crate::bitmap::{Bitmap, BitmapIter};
use crate::builder::choose_repr;
use crate::explicit::PosVec;
use crate::ranges::RangeList;

/// Which concrete representation a [`PosList`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Repr {
    /// Sorted disjoint ranges (`RangeList`).
    Ranges,
    /// One bit per position over a covering range (`Bitmap`).
    Bitmap,
    /// Sorted explicit positions (`PosVec`).
    Explicit,
}

/// A set of positions in one of the paper's three representations.
///
/// The AND of position lists follows the representation rule of §3.3:
/// *"If the positional input to AND are all ranges, then it will output
/// position ranges. Otherwise it will output positions in bit-string
/// format."* Explicit lists participate as the sparse escape hatch used
/// by collapsed multi-columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PosList {
    /// Range representation.
    Ranges(RangeList),
    /// Bitmap representation.
    Bitmap(Bitmap),
    /// Explicit sorted list representation.
    Explicit(PosVec),
}

impl PosList {
    /// The empty position list (range representation).
    pub fn empty() -> PosList {
        PosList::Ranges(RangeList::empty())
    }

    /// All positions of `range` (range representation: one run).
    pub fn full(range: PosRange) -> PosList {
        PosList::Ranges(RangeList::single(range))
    }

    /// Build from a sorted/unsorted vector of positions (explicit repr).
    pub fn from_positions(positions: Vec<Pos>) -> PosList {
        PosList::Explicit(PosVec::from_vec(positions))
    }

    /// The set bits of `bm` — a scan's match words — in the
    /// representation [`PosListBuilder::finish`] would pick had every set
    /// position been pushed: the same rule decides, read off the words. A
    /// bitmap result covers exactly the first to the last set bit, as the
    /// builder's does.
    ///
    /// [`PosListBuilder::finish`]: crate::PosListBuilder::finish
    pub fn from_bitmap(bm: Bitmap) -> PosList {
        let Some((count, runs, set)) = bm.shape() else {
            return PosList::empty();
        };
        match choose_repr(count, runs, set.len()) {
            Repr::Ranges => {
                let mut out = Vec::with_capacity(runs as usize);
                bm.for_each_run(|r| out.push(r));
                PosList::Ranges(RangeList::from_normalized(out))
            }
            Repr::Bitmap if set == bm.covering() => PosList::Bitmap(bm),
            Repr::Bitmap => PosList::Bitmap(bm.clip(set)),
            Repr::Explicit => PosList::Explicit(PosVec::from_sorted(bm.iter().collect())),
        }
    }

    /// Which representation this list currently uses.
    pub fn repr(&self) -> Repr {
        match self {
            PosList::Ranges(_) => Repr::Ranges,
            PosList::Bitmap(_) => Repr::Bitmap,
            PosList::Explicit(_) => Repr::Explicit,
        }
    }

    /// Number of positions in the set.
    pub fn count(&self) -> u64 {
        match self {
            PosList::Ranges(r) => r.count(),
            PosList::Bitmap(b) => b.count(),
            PosList::Explicit(v) => v.count(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            PosList::Ranges(r) => r.is_empty(),
            PosList::Bitmap(b) => b.is_empty(),
            PosList::Explicit(v) => v.is_empty(),
        }
    }

    /// Number of runs the cost model sees (`||poslist|| / RL_p`): ranges
    /// count runs, bitmaps and explicit lists count individual positions.
    pub fn num_runs(&self) -> u64 {
        match self {
            PosList::Ranges(r) => r.num_runs() as u64,
            PosList::Bitmap(b) => b.count(),
            PosList::Explicit(v) => v.count(),
        }
    }

    /// Smallest contiguous range covering the set.
    pub fn covering(&self) -> PosRange {
        match self {
            PosList::Ranges(r) => r.covering(),
            PosList::Bitmap(b) => b.covering(),
            PosList::Explicit(v) => v.covering(),
        }
    }

    /// Whether `pos` is in the set.
    pub fn contains(&self, pos: Pos) -> bool {
        match self {
            PosList::Ranges(r) => r.contains(pos),
            PosList::Bitmap(b) => b.get(pos),
            PosList::Explicit(v) => v.contains(pos),
        }
    }

    /// Convert to the range representation.
    pub fn to_ranges(&self) -> RangeList {
        match self {
            PosList::Ranges(r) => r.clone(),
            PosList::Bitmap(b) => {
                let mut out: Vec<PosRange> = Vec::new();
                b.for_each_run(|r| out.push(r));
                RangeList::from_normalized(out)
            }
            PosList::Explicit(v) => {
                let mut out: Vec<PosRange> = Vec::new();
                for p in v.iter() {
                    match out.last_mut() {
                        Some(last) if last.end == p => last.end = p + 1,
                        _ => out.push(PosRange::new(p, p + 1)),
                    }
                }
                RangeList::from_normalized(out)
            }
        }
    }

    /// Convert to a bitmap covering at least `covering` (hulled with the
    /// set's own covering range so no position is lost).
    pub fn to_bitmap(&self, covering: PosRange) -> Bitmap {
        let range = covering.hull(&self.covering());
        match self {
            PosList::Bitmap(b) if b.covering() == range => b.clone(),
            _ => Bitmap::from_positions(range, self.iter()),
        }
    }

    /// Convert to the explicit representation.
    pub fn to_explicit(&self) -> PosVec {
        match self {
            PosList::Explicit(v) => v.clone(),
            _ => PosVec::from_sorted(self.iter().collect()),
        }
    }

    /// Collect all positions in ascending order.
    pub fn to_vec(&self) -> Vec<Pos> {
        self.iter().collect()
    }

    /// [`to_vec`](Self::to_vec), consuming the list: an explicit list
    /// gives up its vector, a bitmap is read a word at a time and runs
    /// are expanded, none through the per-position iterator.
    pub fn into_vec(self) -> Vec<Pos> {
        match self {
            PosList::Explicit(v) => v.into_vec(),
            PosList::Bitmap(b) => {
                let mut out = Vec::with_capacity(b.count() as usize);
                b.positions_in(b.covering(), &mut out);
                out
            }
            PosList::Ranges(r) => {
                let mut out = Vec::with_capacity(r.count() as usize);
                for range in r.ranges() {
                    out.extend(range.start..range.end);
                }
                out
            }
        }
    }

    /// Iterate over positions in ascending order, whatever the repr.
    pub fn iter(&self) -> PosListIter<'_> {
        match self {
            PosList::Ranges(r) => PosListIter::Ranges {
                ranges: r.ranges(),
                idx: 0,
                cur: 0,
            },
            PosList::Bitmap(b) => PosListIter::Bitmap(b.iter()),
            PosList::Explicit(v) => PosListIter::Explicit {
                slice: v.as_slice(),
                idx: 0,
            },
        }
    }

    /// Set intersection, following the paper's representation rule:
    /// ranges ∧ ranges → ranges; any other combination → bitmap
    /// (explicit ∧ explicit stays explicit, the sparse case).
    pub fn and(&self, other: &PosList) -> PosList {
        match (self, other) {
            // Case 1 (§3.3): range inputs, range output.
            (PosList::Ranges(a), PosList::Ranges(b)) => PosList::Ranges(a.intersect(b)),
            // Case 2: bit inputs, bit output — word-wise AND.
            (PosList::Bitmap(a), PosList::Bitmap(b)) => PosList::Bitmap(a.and(b)),
            // Sparse ∧ sparse: merge join of sorted lists.
            (PosList::Explicit(a), PosList::Explicit(b)) => PosList::Explicit(a.intersect(b)),
            // Case 3: range ∧ bitmap — the ranges become a run mask over
            // the common window, set word-wise, and the mask is ANDed with
            // the bitmap 64 positions at a time; output stays a bitmap.
            (PosList::Ranges(r), PosList::Bitmap(b)) | (PosList::Bitmap(b), PosList::Ranges(r)) => {
                let window = b.covering().intersect(&r.covering());
                let mut mask = Bitmap::zeros(window);
                for range in r.ranges() {
                    mask.set_run(range.intersect(&window));
                }
                PosList::Bitmap(mask.and(b))
            }
            // Explicit against anything: probe each listed position.
            (PosList::Explicit(v), other) | (other, PosList::Explicit(v)) => {
                let filtered: Vec<Pos> = v.iter().filter(|&p| other.contains(p)).collect();
                PosList::Explicit(PosVec::from_sorted(filtered))
            }
        }
    }

    /// Set union. Ranges ∨ ranges stays ranges; explicit ∨ explicit stays
    /// explicit; any other mix produces a bitmap over the hull.
    pub fn or(&self, other: &PosList) -> PosList {
        match (self, other) {
            (PosList::Ranges(a), PosList::Ranges(b)) => PosList::Ranges(a.union(b)),
            (PosList::Bitmap(a), PosList::Bitmap(b)) => PosList::Bitmap(a.or(b)),
            (PosList::Explicit(a), PosList::Explicit(b)) => PosList::Explicit(a.union(b)),
            (a, b) => {
                let hull = a.covering().hull(&b.covering());
                let mut out = a.to_bitmap(hull);
                for p in b.iter() {
                    out.set(p);
                }
                PosList::Bitmap(out)
            }
        }
    }

    /// N-ary AND of position lists, as performed by the AND operator.
    /// Returns the full-range identity over `covering` for an empty input.
    pub fn and_many(lists: &[PosList], covering: PosRange) -> PosList {
        match lists {
            [] => PosList::full(covering),
            [one] => one.clone(),
            [first, rest @ ..] => {
                let mut acc = first.clone();
                for l in rest {
                    if acc.is_empty() {
                        break;
                    }
                    acc = acc.and(l);
                }
                acc
            }
        }
    }

    /// Restrict to positions within `window`.
    pub fn clip(&self, window: PosRange) -> PosList {
        match self {
            PosList::Ranges(r) => PosList::Ranges(r.clip(window)),
            PosList::Bitmap(b) => PosList::Bitmap(b.clip(window)),
            PosList::Explicit(v) => PosList::Explicit(v.clip(window)),
        }
    }
}

/// Unified iterator over the positions of any [`PosList`] representation.
#[derive(Debug)]
pub enum PosListIter<'a> {
    /// Iterating a range list.
    Ranges {
        /// Normalized ranges being walked.
        ranges: &'a [PosRange],
        /// Index of the current range.
        idx: usize,
        /// Next position within the current range (0 = use range start).
        cur: Pos,
    },
    /// Iterating a bitmap.
    Bitmap(BitmapIter<'a>),
    /// Iterating an explicit list.
    Explicit {
        /// The sorted positions.
        slice: &'a [Pos],
        /// Next index to yield.
        idx: usize,
    },
}

impl Iterator for PosListIter<'_> {
    type Item = Pos;

    #[inline]
    fn next(&mut self) -> Option<Pos> {
        match self {
            PosListIter::Ranges { ranges, idx, cur } => loop {
                let r = ranges.get(*idx)?;
                let p = if *cur < r.start { r.start } else { *cur };
                if p < r.end {
                    *cur = p + 1;
                    return Some(p);
                }
                *idx += 1;
                *cur = 0;
            },
            PosListIter::Bitmap(it) => it.next(),
            PosListIter::Explicit { slice, idx } => {
                let p = slice.get(*idx).copied()?;
                *idx += 1;
                Some(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, e: u64) -> PosRange {
        PosRange::new(s, e)
    }

    fn ranges(v: Vec<(u64, u64)>) -> PosList {
        PosList::Ranges(RangeList::from_ranges(
            v.into_iter().map(|(s, e)| r(s, e)).collect(),
        ))
    }

    fn bitmap(cov: (u64, u64), pos: Vec<u64>) -> PosList {
        PosList::Bitmap(Bitmap::from_positions(r(cov.0, cov.1), pos))
    }

    fn explicit(pos: Vec<u64>) -> PosList {
        PosList::Explicit(PosVec::from_vec(pos))
    }

    #[test]
    fn and_repr_rule() {
        // ranges ∧ ranges → ranges
        let a = ranges(vec![(0, 10)]);
        let b = ranges(vec![(5, 15)]);
        assert_eq!(a.and(&b).repr(), Repr::Ranges);
        // ranges ∧ bitmap → bitmap
        let c = bitmap((0, 20), vec![5, 6, 12]);
        assert_eq!(a.and(&c).repr(), Repr::Bitmap);
        // bitmap ∧ bitmap → bitmap
        assert_eq!(c.and(&c).repr(), Repr::Bitmap);
        // explicit ∧ explicit → explicit
        let d = explicit(vec![1, 5]);
        assert_eq!(d.and(&d).repr(), Repr::Explicit);
    }

    #[test]
    fn and_semantics_across_reprs() {
        let positions_a = vec![1u64, 5, 6, 12, 30, 64, 65];
        let positions_b = vec![5u64, 6, 13, 30, 65, 99];
        let expected = vec![5u64, 6, 30, 65];

        let reprs_a = [
            explicit(positions_a.clone()),
            bitmap((0, 128), positions_a.clone()),
            PosList::Explicit(PosVec::from_vec(positions_a.clone())).to_ranges_list(),
        ];
        let reprs_b = [
            explicit(positions_b.clone()),
            bitmap((0, 128), positions_b.clone()),
            PosList::Explicit(PosVec::from_vec(positions_b.clone())).to_ranges_list(),
        ];
        for a in &reprs_a {
            for b in &reprs_b {
                assert_eq!(
                    a.and(b).to_vec(),
                    expected,
                    "{:?} ∧ {:?}",
                    a.repr(),
                    b.repr()
                );
            }
        }
    }

    #[test]
    fn or_semantics_across_reprs() {
        let pa = vec![1u64, 5, 64];
        let pb = vec![5u64, 70];
        let expected = vec![1u64, 5, 64, 70];
        let reprs_a = [
            explicit(pa.clone()),
            bitmap((0, 80), pa.clone()),
            PosList::Explicit(PosVec::from_vec(pa.clone())).to_ranges_list(),
        ];
        let reprs_b = [
            explicit(pb.clone()),
            bitmap((0, 80), pb.clone()),
            PosList::Explicit(PosVec::from_vec(pb.clone())).to_ranges_list(),
        ];
        for a in &reprs_a {
            for b in &reprs_b {
                assert_eq!(
                    a.or(b).to_vec(),
                    expected,
                    "{:?} ∨ {:?}",
                    a.repr(),
                    b.repr()
                );
            }
        }
    }

    #[test]
    fn and_many_identity_and_shortcircuit() {
        let cov = r(0, 100);
        assert_eq!(PosList::and_many(&[], cov).count(), 100);
        let a = ranges(vec![(0, 50)]);
        let b = ranges(vec![(60, 70)]);
        let c = ranges(vec![(0, 100)]);
        // a ∧ b is empty; c must not resurrect anything.
        assert!(PosList::and_many(&[a, b, c], cov).is_empty());
    }

    #[test]
    fn conversions_roundtrip() {
        let p = vec![0u64, 1, 2, 10, 63, 64, 65, 200];
        let e = explicit(p.clone());
        assert_eq!(e.to_ranges().iter().collect::<Vec<_>>(), p);
        assert_eq!(e.to_bitmap(r(0, 201)).iter().collect::<Vec<_>>(), p);
        assert_eq!(e.to_explicit().as_slice(), &p[..]);
        let b = bitmap((0, 256), p.clone());
        assert_eq!(b.to_ranges().iter().collect::<Vec<_>>(), p);
        assert_eq!(b.to_explicit().as_slice(), &p[..]);
    }

    #[test]
    fn paper_bitmap_example() {
        // §2.1.1: position range 11-20 (inclusive), bit-vector 0111010001
        // indicates 12, 13, 14, 16, 20 passed.
        let cov = r(11, 21);
        let bits = [
            false, true, true, true, false, true, false, false, false, true,
        ];
        let mut bm = Bitmap::zeros(cov);
        for (i, &on) in bits.iter().enumerate() {
            if on {
                bm.set(11 + i as u64);
            }
        }
        let pl = PosList::Bitmap(bm);
        assert_eq!(pl.to_vec(), vec![12, 13, 14, 16, 20]);
    }

    #[test]
    fn clip_all_reprs() {
        let p = vec![1u64, 5, 10, 15, 20];
        for list in [
            explicit(p.clone()),
            bitmap((0, 32), p.clone()),
            PosList::Explicit(PosVec::from_vec(p.clone())).to_ranges_list(),
        ] {
            assert_eq!(
                list.clip(r(5, 16)).to_vec(),
                vec![5, 10, 15],
                "{:?}",
                list.repr()
            );
        }
    }

    #[test]
    fn num_runs_counts_by_repr() {
        let rl = ranges(vec![(0, 100), (200, 300)]);
        assert_eq!(rl.num_runs(), 2);
        let bm = bitmap((0, 10), vec![1, 2, 3]);
        assert_eq!(bm.num_runs(), 3);
    }

    #[test]
    fn full_and_empty() {
        let f = PosList::full(r(5, 10));
        assert_eq!(f.count(), 5);
        assert!(PosList::empty().is_empty());
        assert!(!f.contains(4));
        assert!(f.contains(5));
    }

    impl PosList {
        /// Test helper: convert to the ranges representation as a PosList.
        fn to_ranges_list(&self) -> PosList {
            PosList::Ranges(self.to_ranges())
        }
    }
}
