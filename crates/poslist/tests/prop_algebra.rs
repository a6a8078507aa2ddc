//! Property tests: the three position-list representations implement the
//! same set algebra.
//!
//! The model is a `BTreeSet<Pos>`; every representation and every pairing
//! of representations must agree with set intersection/union, and
//! conversions must be lossless.

use std::collections::BTreeSet;

use matstrat_common::PosRange;
use matstrat_poslist::{Bitmap, PosList, PosListBuilder, PosVec, RangeList};
use proptest::prelude::*;

const UNIVERSE: u64 = 512;

fn arb_posset() -> impl Strategy<Value = BTreeSet<u64>> {
    prop::collection::btree_set(0u64..UNIVERSE, 0..128)
}

fn as_explicit(s: &BTreeSet<u64>) -> PosList {
    PosList::Explicit(PosVec::from_sorted(s.iter().copied().collect()))
}

fn as_bitmap(s: &BTreeSet<u64>) -> PosList {
    PosList::Bitmap(Bitmap::from_positions(
        PosRange::new(0, UNIVERSE),
        s.iter().copied(),
    ))
}

fn as_ranges(s: &BTreeSet<u64>) -> PosList {
    let mut ranges = Vec::new();
    for &p in s {
        ranges.push(PosRange::new(p, p + 1));
    }
    PosList::Ranges(RangeList::from_ranges(ranges))
}

fn all_reprs(s: &BTreeSet<u64>) -> Vec<PosList> {
    vec![as_explicit(s), as_bitmap(s), as_ranges(s)]
}

/// Runs of up to 40 positions: sets whose range form has long runs.
fn arb_runs() -> impl Strategy<Value = RangeList> {
    prop::collection::vec((0u64..UNIVERSE, 1u64..40), 0..12).prop_map(|runs| {
        RangeList::from_ranges(
            runs.into_iter()
                .map(|(s, n)| PosRange::new(s, (s + n).min(UNIVERSE)))
                .collect(),
        )
    })
}

/// A bitmap over an arbitrary, usually word-unaligned, covering range.
fn unaligned_bitmap(lo: u64, len: u64, set: &BTreeSet<u64>) -> Bitmap {
    Bitmap::from_positions(
        PosRange::new(lo, (lo + len).min(UNIVERSE)),
        set.iter().copied(),
    )
}

proptest! {
    #[test]
    fn and_matches_set_intersection(a in arb_posset(), b in arb_posset()) {
        let expected: Vec<u64> = a.intersection(&b).copied().collect();
        for ra in all_reprs(&a) {
            for rb in all_reprs(&b) {
                prop_assert_eq!(ra.and(&rb).to_vec(), expected.clone());
            }
        }
    }

    #[test]
    fn or_matches_set_union(a in arb_posset(), b in arb_posset()) {
        let expected: Vec<u64> = a.union(&b).copied().collect();
        for ra in all_reprs(&a) {
            for rb in all_reprs(&b) {
                prop_assert_eq!(ra.or(&rb).to_vec(), expected.clone());
            }
        }
    }

    #[test]
    fn conversions_are_lossless(a in arb_posset()) {
        let expected: Vec<u64> = a.iter().copied().collect();
        for r in all_reprs(&a) {
            prop_assert_eq!(r.to_vec(), expected.clone());
            prop_assert_eq!(r.to_ranges().iter().collect::<Vec<_>>(), expected.clone());
            prop_assert_eq!(r.to_explicit().into_vec(), expected.clone());
            prop_assert_eq!(
                r.to_bitmap(PosRange::new(0, UNIVERSE)).iter().collect::<Vec<_>>(),
                expected.clone()
            );
            prop_assert_eq!(r.count(), expected.len() as u64);
        }
    }

    #[test]
    fn contains_agrees_with_set(a in arb_posset(), probe in 0u64..UNIVERSE) {
        for r in all_reprs(&a) {
            prop_assert_eq!(r.contains(probe), a.contains(&probe));
        }
    }

    #[test]
    fn clip_matches_set_filter(a in arb_posset(), lo in 0u64..UNIVERSE, len in 0u64..UNIVERSE) {
        let window = PosRange::new(lo, (lo + len).min(UNIVERSE));
        let expected: Vec<u64> = a.iter().copied().filter(|&p| window.contains(p)).collect();
        for r in all_reprs(&a) {
            prop_assert_eq!(r.clip(window).to_vec(), expected.clone());
        }
    }

    #[test]
    fn and_many_matches_fold(sets in prop::collection::vec(arb_posset(), 0..5)) {
        let covering = PosRange::new(0, UNIVERSE);
        let lists: Vec<PosList> = sets.iter().map(as_bitmap).collect();
        let expected: BTreeSet<u64> = match sets.split_first() {
            None => (0..UNIVERSE).collect(),
            Some((first, rest)) => rest.iter().fold(first.clone(), |acc, s| {
                acc.intersection(s).copied().collect()
            }),
        };
        let got = PosList::and_many(&lists, covering);
        prop_assert_eq!(got.to_vec(), expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn builder_reproduces_input(a in arb_posset()) {
        let mut b = PosListBuilder::new();
        for &p in &a {
            b.push(p);
        }
        let expected: Vec<u64> = a.iter().copied().collect();
        prop_assert_eq!(b.clone().finish().to_vec(), expected.clone());
        prop_assert_eq!(b.clone().finish_as_ranges().to_vec(), expected.clone());
        prop_assert_eq!(b.clone().finish_as_explicit().to_vec(), expected.clone());
        prop_assert_eq!(
            b.finish_as_bitmap(PosRange::new(0, UNIVERSE)).to_vec(),
            expected
        );
    }

    #[test]
    fn bitmap_not_is_complement(a in arb_posset()) {
        let bm = Bitmap::from_positions(PosRange::new(0, UNIVERSE), a.iter().copied());
        let complement: Vec<u64> = (0..UNIVERSE).filter(|p| !a.contains(p)).collect();
        prop_assert_eq!(bm.not().iter().collect::<Vec<_>>(), complement);
    }

    #[test]
    fn range_and_bitmap_matches_the_per_position_oracle(
        runs in arb_runs(),
        set in arb_posset(),
        lo in 0u64..UNIVERSE,
        len in 0u64..UNIVERSE,
    ) {
        let bm = unaligned_bitmap(lo, len, &set);
        // The oracle: test and set one position at a time over the common
        // window, the bitmap result's covering range.
        let window = bm.covering().intersect(&runs.covering());
        let mut oracle = Bitmap::zeros(window);
        for run in runs.ranges() {
            for p in run.intersect(&window).iter() {
                if bm.get(p) {
                    oracle.set(p);
                }
            }
        }
        let (r, b) = (PosList::Ranges(runs), PosList::Bitmap(bm));
        prop_assert_eq!(r.and(&b), PosList::Bitmap(oracle.clone()));
        prop_assert_eq!(b.and(&r), PosList::Bitmap(oracle));
    }

    #[test]
    fn bitmap_clip_matches_the_per_position_oracle(
        set in arb_posset(),
        lo in 0u64..UNIVERSE,
        len in 0u64..UNIVERSE,
        wlo in 0u64..UNIVERSE,
        wlen in 0u64..UNIVERSE,
    ) {
        let bm = unaligned_bitmap(lo, len, &set);
        let window = PosRange::new(wlo, wlo + wlen);
        let range = bm.covering().intersect(&window);
        let mut oracle = Bitmap::zeros(range);
        for p in range.iter() {
            if bm.get(p) {
                oracle.set(p);
            }
        }
        prop_assert_eq!(PosList::Bitmap(bm).clip(window), PosList::Bitmap(oracle));
    }

    #[test]
    fn from_bitmap_picks_what_the_builder_picks(
        runs in arb_runs(),
        set in arb_posset(),
        lo in 0u64..UNIVERSE,
        len in 0u64..UNIVERSE,
    ) {
        // Long runs, scattered singletons, or both: every representation
        // the rule can pick turns up.
        let mut positions: BTreeSet<u64> = runs.ranges().iter().flat_map(|r| r.iter()).collect();
        positions.extend(&set);
        let bm = unaligned_bitmap(lo, len, &positions);
        let mut b = PosListBuilder::new();
        for p in bm.iter() {
            b.push(p);
        }
        prop_assert_eq!(PosList::from_bitmap(bm), b.finish());
    }
}
