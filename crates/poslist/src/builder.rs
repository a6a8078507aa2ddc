//! Incremental construction of position lists with automatic
//! representation choice.
//!
//! Data-source scans emit matching positions in ascending order. A scan
//! over a column sorted on the predicate attribute emits long runs (→
//! ranges are ideal); a scan over an unsorted column emits scattered
//! singletons (→ bitmap when dense, explicit list when sparse). The
//! builder buffers runs and picks the cheapest representation when
//! finished, so operators never need to guess up front.

use matstrat_common::{Pos, PosRange};

use crate::bitmap::Bitmap;
use crate::explicit::PosVec;
use crate::poslist::{PosList, Repr};
use crate::ranges::RangeList;

/// Accumulates ascending positions/runs and finishes into a [`PosList`].
///
/// [`finish`](PosListBuilder::finish) picks the representation from the
/// coalesced runs with the crate's one representation rule (average run
/// length ≥ 4 → `Ranges`, else density ≥ 1/32 → `Bitmap`, else
/// `Explicit`); [`PosList::from_bitmap`] applies the same rule to match
/// words, so the two cannot drift.
#[derive(Debug, Clone)]
pub struct PosListBuilder {
    runs: Vec<PosRange>,
    count: u64,
}

impl PosListBuilder {
    /// New empty builder.
    pub fn new() -> PosListBuilder {
        PosListBuilder {
            runs: Vec::new(),
            count: 0,
        }
    }

    /// Append a single position. Must be ≥ every previously appended
    /// position (strictly greater than the last).
    #[inline]
    pub fn push(&mut self, pos: Pos) {
        self.push_run(PosRange::new(pos, pos + 1));
    }

    /// Append a run of consecutive positions. Runs must arrive in
    /// ascending order and must not overlap previously appended ones;
    /// adjacent runs are coalesced.
    #[inline]
    pub fn push_run(&mut self, run: PosRange) {
        if run.is_empty() {
            return;
        }
        self.count += run.len();
        match self.runs.last_mut() {
            Some(last) if run.start <= last.end => {
                debug_assert!(run.start == last.end, "runs must be ascending and disjoint");
                last.end = last.end.max(run.end);
            }
            _ => self.runs.push(run),
        }
    }

    /// Number of positions appended so far.
    #[inline]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append every position of `list`, a run at a time: ranges push
    /// their runs, bitmaps their runs of set bits (found word-wise), and
    /// explicit lists their positions. `list` must lie after everything
    /// appended so far.
    pub fn push_list(&mut self, list: &PosList) {
        match list {
            PosList::Ranges(r) => r.ranges().iter().for_each(|&run| self.push_run(run)),
            PosList::Bitmap(b) => b.for_each_run(|run| self.push_run(run)),
            PosList::Explicit(v) => v.iter().for_each(|p| self.push(p)),
        }
    }

    /// Finish into the representation the crate's rule picks (see the
    /// type's documentation).
    pub fn finish(self) -> PosList {
        let Some(last) = self.runs.last() else {
            return PosList::empty();
        };
        let covering = PosRange::new(self.runs[0].start, last.end);
        match choose_repr(self.count, self.runs.len() as u64, covering.len()) {
            Repr::Ranges => self.finish_as_ranges(),
            Repr::Bitmap => self.finish_as_bitmap(covering),
            Repr::Explicit => self.finish_as_explicit(),
        }
    }

    /// Finish, forcing the range representation regardless of shape.
    pub fn finish_as_ranges(self) -> PosList {
        PosList::Ranges(RangeList::from_normalized(self.runs))
    }

    /// Finish, forcing a bitmap covering at least `covering`. Each run is
    /// set word-wise.
    pub fn finish_as_bitmap(self, covering: PosRange) -> PosList {
        let covering = match self.runs.last() {
            Some(last) => covering.hull(&PosRange::new(self.runs[0].start, last.end)),
            None => covering,
        };
        let mut bm = Bitmap::zeros(covering);
        for &r in &self.runs {
            bm.set_run(r);
        }
        PosList::Bitmap(bm)
    }

    /// Finish, forcing the explicit representation.
    pub fn finish_as_explicit(self) -> PosList {
        let mut v = Vec::with_capacity(self.count as usize);
        for r in &self.runs {
            v.extend(r.iter());
        }
        PosList::Explicit(PosVec::from_sorted(v))
    }
}

/// The representation rule for a nonempty set of `count` positions in
/// `runs` maximal runs over a covering range of `covering_len`
/// positions:
/// * average run length ≥ 4 → `Ranges`;
/// * otherwise, density ≥ 1/32 over the covering range → `Bitmap`;
/// * otherwise → `Explicit`.
///
/// [`PosListBuilder::finish`] and [`PosList::from_bitmap`] both decide
/// through here, so a scan that emits match words and one that pushes
/// positions produce the same representation.
pub(crate) fn choose_repr(count: u64, runs: u64, covering_len: u64) -> Repr {
    if count >= 4 * runs {
        Repr::Ranges
    } else if 32 * count >= covering_len {
        Repr::Bitmap
    } else {
        Repr::Explicit
    }
}

impl Default for PosListBuilder {
    fn default() -> PosListBuilder {
        PosListBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_runs_become_ranges() {
        let mut b = PosListBuilder::new();
        b.push_run(PosRange::new(0, 1000));
        b.push_run(PosRange::new(2000, 3000));
        let pl = b.finish();
        assert_eq!(pl.repr(), Repr::Ranges);
        assert_eq!(pl.count(), 2000);
    }

    #[test]
    fn adjacent_runs_coalesce() {
        let mut b = PosListBuilder::new();
        b.push_run(PosRange::new(0, 10));
        b.push_run(PosRange::new(10, 20));
        let pl = b.finish();
        assert_eq!(pl.to_ranges().num_runs(), 1);
    }

    #[test]
    fn dense_singletons_become_bitmap() {
        let mut b = PosListBuilder::new();
        // every other position: avg run 1, density 0.5
        for p in (0..1000).step_by(2) {
            b.push(p);
        }
        let pl = b.finish();
        assert_eq!(pl.repr(), Repr::Bitmap);
        assert_eq!(pl.count(), 500);
    }

    #[test]
    fn sparse_singletons_become_explicit() {
        let mut b = PosListBuilder::new();
        for p in (0..100_000).step_by(1000) {
            b.push(p);
        }
        let pl = b.finish();
        assert_eq!(pl.repr(), Repr::Explicit);
        assert_eq!(pl.count(), 100);
    }

    #[test]
    fn empty_builder_finishes_empty() {
        assert!(PosListBuilder::new().finish().is_empty());
        assert!(PosListBuilder::new().finish_as_ranges().is_empty());
        assert!(PosListBuilder::new().finish_as_explicit().is_empty());
        assert!(PosListBuilder::new()
            .finish_as_bitmap(PosRange::new(0, 64))
            .is_empty());
    }

    #[test]
    fn forced_representations_preserve_contents() {
        let mk = || {
            let mut b = PosListBuilder::new();
            b.push(3);
            b.push_run(PosRange::new(10, 13));
            b.push(64);
            b
        };
        let expected = vec![3u64, 10, 11, 12, 64];
        assert_eq!(mk().finish_as_ranges().to_vec(), expected);
        assert_eq!(mk().finish_as_explicit().to_vec(), expected);
        assert_eq!(
            mk().finish_as_bitmap(PosRange::new(0, 65)).to_vec(),
            expected
        );
        assert_eq!(mk().finish().to_vec(), expected);
    }

    #[test]
    fn len_tracks_positions() {
        let mut b = PosListBuilder::new();
        assert!(b.is_empty());
        b.push(5);
        b.push_run(PosRange::new(7, 17));
        assert_eq!(b.len(), 11);
    }
}
