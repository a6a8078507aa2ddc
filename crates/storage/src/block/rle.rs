//! Run-length encoded blocks.
//!
//! The paper (§1.1): *"In a run-length encoded file, each block contains
//! a series of RLE triples (V, S, L), where V is the value, S is the
//! start position of the run, and L is the length of the run."* We store
//! (V, L) on disk — S is the running sum — and materialize S when the
//! block is parsed, so the in-memory form matches the paper's triples.

use matstrat_common::{Error, Pos, PosRange, Predicate, Result, Value};
use matstrat_poslist::{PosList, PosListBuilder};

use crate::wire::{put_i64, put_u32, Reader};
use crate::BLOCK_SIZE;

use super::{Slots, BLOCK_HEADER_SIZE};

/// One RLE triple: `value` repeats for `len` rows starting at absolute
/// position `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RleRun {
    /// The repeated value (V).
    pub value: Value,
    /// Absolute start position of the run (S).
    pub start: Pos,
    /// Number of repetitions (L).
    pub len: u32,
}

impl RleRun {
    /// The positions this run covers.
    #[inline]
    pub fn range(&self) -> PosRange {
        PosRange::new(self.start, self.start + self.len as u64)
    }
}

/// A run-length encoded block.
#[derive(Debug, Clone, PartialEq)]
pub struct RleBlock {
    start_pos: Pos,
    count: u32,
    runs: Vec<RleRun>,
}

/// Bytes per run on disk: value (8) + length (4).
const RUN_DISK_SIZE: usize = 12;

impl RleBlock {
    /// Maximum number of runs a block can hold.
    pub fn capacity_runs() -> usize {
        (BLOCK_SIZE - BLOCK_HEADER_SIZE - 4) / RUN_DISK_SIZE
    }

    /// Encode `values` into runs.
    ///
    /// # Panics
    /// Panics if the values produce more runs than fit in one block; the
    /// column writer is responsible for splitting.
    pub fn from_values(start_pos: Pos, values: &[Value]) -> RleBlock {
        let mut runs: Vec<RleRun> = Vec::new();
        for (at, &v) in (start_pos..).zip(values.iter()) {
            match runs.last_mut() {
                Some(r) if r.value == v && r.len < u32::MAX => r.len += 1,
                _ => runs.push(RleRun {
                    value: v,
                    start: at,
                    len: 1,
                }),
            }
        }
        assert!(
            runs.len() <= Self::capacity_runs(),
            "RLE block overflow: {} runs",
            runs.len()
        );
        RleBlock {
            start_pos,
            count: values.len() as u32,
            runs,
        }
    }

    /// Build directly from runs (used by the column writer). Runs must be
    /// contiguous starting at `start_pos`.
    pub fn from_runs(start_pos: Pos, runs: Vec<RleRun>) -> RleBlock {
        let mut expected = start_pos;
        let mut count = 0u64;
        for r in &runs {
            assert_eq!(r.start, expected, "runs must be contiguous");
            assert!(r.len > 0, "empty run");
            expected += r.len as u64;
            count += r.len as u64;
        }
        assert!(runs.len() <= Self::capacity_runs());
        RleBlock {
            start_pos,
            count: count as u32,
            runs,
        }
    }

    /// Absolute position of the first row.
    #[inline]
    pub fn start_pos(&self) -> Pos {
        self.start_pos
    }

    /// Number of rows (sum of run lengths).
    #[inline]
    pub fn num_rows(&self) -> u32 {
        self.count
    }

    /// The stored runs.
    #[inline]
    pub fn runs(&self) -> &[RleRun] {
        &self.runs
    }

    /// Runs overlapping `window`, as a subslice (binary search on starts).
    pub(super) fn runs_overlapping(&self, window: PosRange) -> &[RleRun] {
        let first = self
            .runs
            .partition_point(|r| r.start + r.len as u64 <= window.start);
        let last = self.runs.partition_point(|r| r.start < window.end);
        &self.runs[first..last]
    }

    /// DS1 over `window`, a window inside the block: one whole run matches
    /// or fails per comparison, O(overlapping runs). Emits the range
    /// representation, the natural output for RLE.
    pub fn scan_positions_in(&self, pred: &Predicate, window: PosRange) -> PosList {
        let mut b = PosListBuilder::new();
        for r in self.runs_overlapping(window) {
            if pred.matches(r.value) {
                b.push_run(r.range().intersect(&window));
            }
        }
        b.finish_as_ranges()
    }

    /// The stored runs overlapping `window`, a window inside the block,
    /// clipped to it: O(overlapping runs), no decompression — the whole
    /// point of RLE.
    pub fn runs_in(&self, window: PosRange, mut f: impl FnMut(Value, PosRange)) {
        for r in self.runs_overlapping(window) {
            f(r.value, r.range().intersect(&window));
        }
    }

    /// Append the values of `range`, inside the block, to `out`: each
    /// overlapping run extends it by its overlap.
    pub(super) fn decode_range(&self, range: PosRange, out: &mut Vec<Value>) {
        out.reserve(range.len() as usize);
        for r in self.runs_overlapping(range) {
            let o = r.range().intersect(&range);
            out.extend(std::iter::repeat_n(r.value, o.len() as usize));
        }
    }

    /// DS3 point fetch at ascending positions inside the block, written
    /// to the next cells of `out`: the first position's run is found by
    /// binary search, and the rest walk the runs forward from it.
    #[inline]
    pub fn gather_into(&self, positions: &[Pos], out: &mut Slots<'_>) {
        let Some(&first) = positions.first() else {
            return;
        };
        let mut run_idx = self
            .runs
            .partition_point(|r| r.start + r.len as u64 <= first);
        out.put(positions.iter().map(|&p| {
            while self.runs[run_idx].start + self.runs[run_idx].len as u64 <= p {
                run_idx += 1;
            }
            self.runs[run_idx].value
        }));
    }

    /// DS3 point fetch at positions in any order inside the block, written
    /// to the next cells of `out`: each position's run is found by binary
    /// search.
    pub fn gather_unsorted_into(&self, positions: &[Pos], out: &mut Slots<'_>) {
        out.put(
            positions
                .iter()
                .map(|&p| self.runs[self.runs.partition_point(|r| r.range().end <= p)].value),
        );
    }

    /// DS3 over ascending, disjoint `ranges`, each clipped to the block,
    /// written to the next cells of `out`: one run cursor walks the runs
    /// and the ranges together, so a range costs the runs it overlaps —
    /// no binary search — and each overlap is one fill of the run's value.
    pub fn gather_ranges_into(&self, ranges: &[PosRange], out: &mut Slots<'_>) {
        let covering = PosRange::new(self.start_pos, self.start_pos + self.count as u64);
        let mut run_idx = 0usize;
        for range in ranges {
            let r = range.intersect(&covering);
            if r.is_empty() {
                continue;
            }
            if run_idx == 0 || self.runs[run_idx].start > r.start {
                // The first range (a granule's ranges start deep inside a
                // wide block), or one behind the cursor (never from a
                // range list): find its run by binary search.
                run_idx = self.runs.partition_point(|run| run.range().end <= r.start);
            }
            let mut at = r.start;
            while at < r.end {
                let run = self.runs[run_idx];
                let end = run.range().end.min(r.end);
                if end > at {
                    out.fill((end - at) as usize, run.value);
                    at = end;
                }
                if at < r.end {
                    run_idx += 1;
                }
            }
        }
    }

    /// Append the codec payload to `buf`.
    pub fn serialize_payload(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.runs.len() as u32);
        for r in &self.runs {
            put_i64(buf, r.value);
            put_u32(buf, r.len);
        }
    }

    /// Parse the codec payload, rebuilding absolute run starts.
    pub fn parse_payload(start_pos: Pos, count: u32, r: &mut Reader<'_>) -> Result<RleBlock> {
        let nruns = r.count(12, "RLE runs")?;
        let mut runs = Vec::with_capacity(nruns);
        let mut at = start_pos;
        let mut total = 0u64;
        for _ in 0..nruns {
            let value = r.i64()?;
            let len = r.u32()?;
            if len == 0 {
                return Err(Error::corrupt("zero-length RLE run"));
            }
            runs.push(RleRun {
                value,
                start: at,
                len,
            });
            at += len as u64;
            total += len as u64;
        }
        if total != count as u64 {
            return Err(Error::corrupt(format!(
                "RLE row count mismatch: header {count}, runs sum {total}"
            )));
        }
        Ok(RleBlock {
            start_pos,
            count,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::EncodedBlock;

    #[test]
    fn from_values_builds_triples() {
        let b = RleBlock::from_values(100, &[7, 7, 7, 3, 3, 9]);
        assert_eq!(
            b.runs(),
            &[
                RleRun {
                    value: 7,
                    start: 100,
                    len: 3
                },
                RleRun {
                    value: 3,
                    start: 103,
                    len: 2
                },
                RleRun {
                    value: 9,
                    start: 105,
                    len: 1
                },
            ]
        );
        assert_eq!(b.num_rows(), 6);
    }

    #[test]
    fn paper_example_five_tuples() {
        // §2.1.2: (2,5) indicates the value 2 repeats 5 times.
        let b = RleBlock::from_values(0, &[2, 2, 2, 2, 2]);
        assert_eq!(b.runs().len(), 1);
        assert_eq!(b.runs()[0].value, 2);
        assert_eq!(b.runs()[0].len, 5);
        let mut out = Vec::new();
        EncodedBlock::Rle(b).decode_all(&mut out);
        assert_eq!(out, vec![2; 5]);
    }

    #[test]
    fn scan_positions_yields_ranges() {
        let b = EncodedBlock::Rle(RleBlock::from_values(0, &[1, 1, 2, 2, 2, 1]));
        let pl = b.scan_positions(&Predicate::eq(1));
        assert_eq!(pl.to_vec(), vec![0, 1, 5]);
        assert_eq!(pl.to_ranges().num_runs(), 2);
    }

    /// Positions in the last runs of a block of many runs: the point
    /// kernel finds the first one's run by binary search, then walks on.
    #[test]
    fn point_gather_in_the_last_runs_of_many() {
        let values: Vec<Value> = (0..3000).map(|i| i / 2).collect();
        let b = EncodedBlock::Rle(RleBlock::from_values(500, &values));
        let positions = [3496, 3497, 3497, 3498, 3499];
        let mut out = vec![-1];
        b.gather(&positions, &mut out).unwrap();
        assert_eq!(out, vec![-1, 1498, 1498, 1498, 1499, 1499]);
        assert_eq!(b.value_at(3499).unwrap(), 1499);
    }

    #[test]
    fn gather_range_spanning_runs() {
        let b = EncodedBlock::Rle(RleBlock::from_values(10, &[1, 1, 2, 2, 3, 3]));
        let mut out = Vec::new();
        b.gather_range(PosRange::new(11, 15), &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 2, 3]);
    }

    #[test]
    fn range_gather_cursor_walks_runs_across_ranges() {
        // Ranges starting, ending and straddling run edges, one behind the
        // cursor, written at stride 2.
        let b = RleBlock::from_values(10, &[1, 1, 2, 2, 2, 3, 4, 4]);
        let ranges = [
            PosRange::new(11, 13),
            PosRange::new(14, 17),
            PosRange::new(17, 18),
            PosRange::new(10, 11),
        ];
        let mut out = vec![0; 16];
        b.gather_ranges_into(&ranges, &mut crate::block::Slots::column(&mut out, 1, 2));
        let odd: Vec<Value> = out.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(odd, vec![1, 2, 2, 3, 4, 4, 1, 0]);
        assert!(
            out.iter().step_by(2).all(|&v| v == 0),
            "other column untouched"
        );
    }

    #[test]
    fn value_at_binary_search() {
        let b = EncodedBlock::Rle(RleBlock::from_values(0, &[5, 5, 6, 7, 7, 7]));
        assert_eq!(b.value_at(0).unwrap(), 5);
        assert_eq!(b.value_at(2).unwrap(), 6);
        assert_eq!(b.value_at(5).unwrap(), 7);
        assert!(b.value_at(6).is_err());
    }

    #[test]
    fn from_runs_validates_contiguity() {
        let runs = vec![
            RleRun {
                value: 1,
                start: 0,
                len: 3,
            },
            RleRun {
                value: 2,
                start: 3,
                len: 2,
            },
        ];
        let b = RleBlock::from_runs(0, runs);
        assert_eq!(b.num_rows(), 5);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn from_runs_rejects_gaps() {
        RleBlock::from_runs(
            0,
            vec![
                RleRun {
                    value: 1,
                    start: 0,
                    len: 3,
                },
                RleRun {
                    value: 2,
                    start: 5,
                    len: 2,
                },
            ],
        );
    }

    #[test]
    fn parse_rejects_bad_counts() {
        let b = RleBlock::from_values(0, &[1, 1, 2]);
        let mut buf = Vec::new();
        b.serialize_payload(&mut buf);
        // Corrupt: claim 99 rows in the header.
        let mut r = Reader::new(&buf);
        assert!(RleBlock::parse_payload(0, 99, &mut r).is_err());
    }
}
