//! Mini-columns (§3.6, Figure 9).
//!
//! A **mini-column** is "the set of corresponding values for a specified
//! position range of a particular attribute", kept compressed: here, a
//! window over one column plus `Arc`s to the buffer-pool blocks that
//! cover it. A **multi-column** bundles mini-columns of several
//! attributes over one covering range with a *position descriptor*
//! saying which positions are still valid; the executor's are
//! `exec::Filtered` (the LM filter step's AND of them) and `Part::Late`
//! (a granule's output columns, for MERGE or the aggregate).
//!
//! Mini-columns are the unit of sharing in the parallel executor: the
//! backing blocks are immutable `Arc`s into the buffer pool, so cloning a
//! mini-column across granules (the §3.6 re-access optimization) is
//! pointer-copying with no synchronization. Each worker keeps its own
//! mini-column cache for its own granules — reuse is strictly
//! worker-local, so no mutable state ever crosses threads.

use std::sync::Arc;

use matstrat_common::{Error, Pos, PosRange, Predicate, Result, Value};
use matstrat_poslist::{Bitmap, PosList, PosListBuilder, RangeList};
use matstrat_storage::{
    BlockIndexEntry, ColumnReader, DictBlock, EncodedBlock, EncodingKind, Slots,
};

/// How a value fetch was satisfied — used by execution stats to report
/// when the bit-vector decompression penalty was paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Values were gathered by position (DS3 proper).
    Gathered,
    /// The fetch touched bit-vector data, which decompresses inside the
    /// codec: a position's value is found only by reading every
    /// bit-string over it (§4.1).
    Decompressed,
}

/// A compressed window of one column: `Arc`s into the buffer pool.
#[derive(Debug, Clone)]
pub struct MiniColumn {
    window: PosRange,
    blocks: Vec<Arc<EncodedBlock>>,
}

// The parallel executor hands mini-columns to scoped worker threads;
// losing these bounds (e.g. by caching a `Cell` or `Rc` inside a block)
// would silently break it, so assert them at compile time.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<MiniColumn>();
};

impl MiniColumn {
    /// Fetch every block overlapping `window` (clamped to the column's
    /// rows) through the buffer pool.
    pub fn fetch(reader: &ColumnReader, window: PosRange) -> Result<MiniColumn> {
        Ok(Self::walk(reader, window, |_| true)?.0)
    }

    /// Fetch every block overlapping `window` whose index **zone map**
    /// admits `pred` — blocks whose [min, max] range provably excludes
    /// every matching value are never read. Positions inside a pruned
    /// block cannot survive the scan, so leaving its block out of the
    /// mini-column changes nothing but the I/O: [`scan_positions`]
    /// simply never emits them. Returns the mini-column and the number
    /// of blocks pruned. Files written before zone maps carry
    /// `(Value::MIN, Value::MAX)` zones and are never pruned.
    ///
    /// [`scan_positions`]: MiniColumn::scan_positions
    pub fn fetch_pruned(
        reader: &ColumnReader,
        window: PosRange,
        pred: &Predicate,
    ) -> Result<(MiniColumn, u64)> {
        Self::walk(reader, window, |meta| meta.zone_overlaps(pred))
    }

    /// The one block walk behind every fetch: the blocks overlapping
    /// `window` in order, each read only if `keep` admits its index entry
    /// and counted otherwise.
    fn walk(
        reader: &ColumnReader,
        window: PosRange,
        mut keep: impl FnMut(&BlockIndexEntry) -> bool,
    ) -> Result<(MiniColumn, u64)> {
        let window = window.intersect(&PosRange::new(0, reader.num_rows()));
        let mut blocks = Vec::new();
        let mut skipped = 0u64;
        if !window.is_empty() {
            let mut idx = reader.block_for_pos(window.start)?;
            while idx < reader.num_blocks() {
                let meta = reader.block_meta(idx)?;
                if meta.start_pos >= window.end {
                    break;
                }
                if keep(&meta) {
                    blocks.push(reader.block(idx)?);
                } else {
                    skipped += 1;
                }
                idx += 1;
            }
        }
        Ok((MiniColumn { window, blocks }, skipped))
    }

    /// Fetch only the blocks containing positions of `positions`
    /// (clamped to `window`) — the pipelined block-skipping path: blocks
    /// of this column with no surviving positions are never read.
    pub fn fetch_selective(
        reader: &ColumnReader,
        window: PosRange,
        positions: &PosList,
    ) -> Result<MiniColumn> {
        let ranges = positions.to_ranges();
        let (ranges, mut i) = (ranges.ranges(), 0);
        let walked = Self::walk(reader, window, |meta| {
            // The block's rows inside the window: a range outside the
            // window reads nothing.
            let rows = PosRange::new(meta.start_pos, meta.start_pos + meta.count as u64)
                .intersect(&window);
            while ranges.get(i).is_some_and(|r| r.end <= rows.start) {
                i += 1;
            }
            ranges.get(i).is_some_and(|r| r.start < rows.end)
        });
        Ok(walked?.0)
    }

    /// An empty mini-column over `window` (no blocks).
    pub fn empty(window: PosRange) -> MiniColumn {
        MiniColumn {
            window,
            blocks: Vec::new(),
        }
    }

    /// The covering window.
    pub fn window(&self) -> PosRange {
        self.window
    }

    /// The buffer-pool blocks backing the window.
    pub fn blocks(&self) -> &[Arc<EncodedBlock>] {
        &self.blocks
    }

    /// How a value fetch from this window is satisfied:
    /// [`FetchKind::Decompressed`] when any backing block is bit-vector.
    pub fn fetch_kind(&self) -> FetchKind {
        if self
            .blocks
            .iter()
            .any(|b| b.encoding() == EncodingKind::BitVec)
        {
            FetchKind::Decompressed
        } else {
            FetchKind::Gathered
        }
    }

    /// DS1 over the window: positions whose values pass `pred`.
    pub fn scan_positions(&self, pred: &Predicate) -> PosList {
        let lists: Vec<PosList> = self
            .blocks
            .iter()
            .map(|b| b.scan_positions_in(pred, self.window))
            .collect();
        if lists.iter().any(|pl| matches!(pl, PosList::Bitmap(_))) {
            // Any dense block makes the result a bit-map over the window.
            // Merge wholesale — bitmap parts OR in 64 positions per
            // instruction, runs set word-wise — instead of re-pushing
            // every position through the builder one at a time.
            let mut bm = Bitmap::zeros(self.window);
            for pl in &lists {
                match pl {
                    PosList::Bitmap(b) => bm.union(b),
                    PosList::Ranges(r) => {
                        for range in r.ranges() {
                            bm.set_run(*range);
                        }
                    }
                    PosList::Explicit(_) => {
                        for p in pl.iter() {
                            bm.set(p);
                        }
                    }
                }
            }
            return PosList::Bitmap(bm);
        }
        let mut builder = PosListBuilder::new();
        for pl in &lists {
            builder.push_list(pl);
        }
        builder.finish()
    }

    /// DS1 restricted to the positions of `ranges`: each range is scanned
    /// by its blocks' own [`EncodedBlock::scan_positions_in`] — per run on
    /// RLE, per code on Dict, a word at a time on Plain — walking the
    /// ranges and the blocks together, so no value is decoded to be
    /// tested. This is LM-pipelined's later filter over a range
    /// descriptor. The result is in the representation
    /// [`PosListBuilder::finish`] picks, exactly as if every match had been
    /// pushed one at a time.
    pub fn scan_positions_within(&self, pred: &Predicate, ranges: &RangeList) -> PosList {
        let mut builder = PosListBuilder::new();
        let mut cursor = 0;
        for range in ranges.ranges() {
            let r = range.intersect(&self.window);
            if r.is_empty() {
                continue;
            }
            self.advance(&mut cursor, r.start);
            for b in self.blocks[cursor..]
                .iter()
                .take_while(|b| b.covering().start < r.end)
            {
                builder.push_list(&b.scan_positions_in(pred, r));
            }
        }
        builder.finish()
    }

    /// DS2 over the window: matching (position, value) pairs.
    pub fn scan_pairs(&self, pred: &Predicate, out_pos: &mut Vec<Pos>, out_val: &mut Vec<Value>) {
        for b in &self.blocks {
            b.scan_pairs_in(pred, self.window, out_pos, out_val);
        }
    }

    /// The block containing `pos`, by binary search over block starts.
    fn block_for(&self, pos: Pos) -> Result<&Arc<EncodedBlock>> {
        self.covering_block(
            self.blocks.partition_point(|b| b.covering().end <= pos),
            pos,
        )
    }

    /// Move `cursor` forward past every block that ends at or before
    /// `pos`: ascending lookups walk the blocks once instead of
    /// binary-searching each time.
    fn advance(&self, cursor: &mut usize, pos: Pos) {
        while self
            .blocks
            .get(*cursor)
            .is_some_and(|b| b.covering().end <= pos)
        {
            *cursor += 1;
        }
    }

    /// The block containing `pos`, searching forward from `cursor` (which
    /// is left on it).
    fn block_from(&self, cursor: &mut usize, pos: Pos) -> Result<&Arc<EncodedBlock>> {
        self.advance(cursor, pos);
        self.covering_block(*cursor, pos)
    }

    /// Block `idx`, which must be the first block not ending at or before
    /// `pos` and must contain it.
    fn covering_block(&self, idx: usize, pos: Pos) -> Result<&Arc<EncodedBlock>> {
        let b = self
            .blocks
            .get(idx)
            .ok_or_else(|| Error::invalid(format!("position {pos} not covered by mini-column")))?;
        if !b.covering().contains(pos) {
            return Err(Error::invalid(format!(
                "position {pos} falls in a gap of the mini-column"
            )));
        }
        Ok(b)
    }

    /// DS4 probe: value at one position.
    pub fn value_at(&self, pos: Pos) -> Result<Value> {
        self.block_for(pos)?.value_at(pos)
    }

    /// DS3: values at the descriptor's positions, appended to `out`.
    /// Returns how the fetch was satisfied.
    pub fn fetch_values(&self, positions: &PosList, out: &mut Vec<Value>) -> Result<FetchKind> {
        append_with(out, positions.count() as usize, |cells| {
            self.fetch_values_into(positions, cells)
        })
    }

    /// [`fetch_values`](Self::fetch_values) at a sorted slice of
    /// positions, with no descriptor around it: ascending, and a position
    /// may repeat, each repeat getting its value again. This is how a
    /// join fetches at the positions its probes fanned out to.
    pub fn fetch_sorted(&self, positions: &[Pos], out: &mut Vec<Value>) -> Result<FetchKind> {
        append_with(out, positions.len(), |cells| {
            let room = cells.len();
            self.gather_sorted_into(positions, cells)?;
            wrote_all(room - cells.len(), positions.len() as u64)?;
            Ok(self.fetch_kind())
        })
    }

    /// [`fetch_values`](Self::fetch_values) written strided, to the next
    /// cells of `out` — how MERGE reads each value straight out of the
    /// compressed blocks into its tuple slot. A range descriptor walks its
    /// ranges and the blocks together, each block taking the ranges that
    /// overlap it in one fused gather. An explicit descriptor's sorted
    /// positions go to the point walker
    /// ([`gather_sorted_into`](Self::gather_sorted_into)), which hands
    /// each block its sub-slice; a bitmap's are read off its words a
    /// block at a time into one reused buffer. Every codec gathers;
    /// bit-vector blocks decompress the rows they span inside the codec.
    ///
    /// Positions must lie in this mini-column's window and blocks.
    /// Errors unless exactly `positions.count()` cells were written: a
    /// column that yields a different count than its descriptor never
    /// leaves a default value behind.
    pub fn fetch_values_into(&self, positions: &PosList, out: &mut Slots<'_>) -> Result<FetchKind> {
        let room = out.len();
        match positions {
            PosList::Ranges(rl) => self.gather_ranges_into(rl.ranges(), out),
            PosList::Explicit(pv) => self.gather_sorted_into(pv.as_slice(), out)?,
            PosList::Bitmap(bm) => self.gather_bitmap_into(bm, out)?,
        }
        wrote_all(room - out.len(), positions.count())?;
        Ok(self.fetch_kind())
    }

    /// The fused range gather: each block takes the slice of `ranges`
    /// overlapping it (a range crossing into the next block is handed to
    /// both, and each clips it to itself).
    fn gather_ranges_into(&self, ranges: &[PosRange], out: &mut Slots<'_>) {
        let mut i = 0;
        for b in &self.blocks {
            let cov = b.covering();
            while ranges.get(i).is_some_and(|r| r.end <= cov.start) {
                i += 1;
            }
            let mut j = i;
            while ranges.get(j).is_some_and(|r| r.start < cov.end) {
                j += 1;
            }
            if j > i {
                b.gather_ranges_into(&ranges[i..j], out);
                i = if ranges[j - 1].end > cov.end {
                    j - 1
                } else {
                    j
                };
            }
        }
    }

    /// The point walker: ascending `positions` (repeats allowed) are cut
    /// at each block's end by binary search, and each block gets its
    /// sub-slice in one call — no per-position dispatch and no copy of
    /// the positions. Errors on a position outside the window or in a gap
    /// between blocks, so a caller never gets fewer values than positions.
    pub fn gather_sorted_into(&self, positions: &[Pos], out: &mut Slots<'_>) -> Result<()> {
        self.walk_sorted(positions, |b, ps| b.gather_into(ps, out))
    }

    /// [`gather_sorted_into`](Self::gather_sorted_into)'s walk, handing
    /// each block and its sub-slice of `positions` to `each`.
    fn walk_sorted(
        &self,
        positions: &[Pos],
        mut each: impl FnMut(&EncodedBlock, &[Pos]) -> Result<()>,
    ) -> Result<()> {
        let (Some(&first), Some(&last)) = (positions.first(), positions.last()) else {
            return Ok(());
        };
        debug_assert!(positions.is_sorted(), "positions must ascend");
        if let Some(p) = [first, last]
            .into_iter()
            .find(|&p| !self.window.contains(p))
        {
            return Err(outside_window(p, self.window));
        }
        let (mut rest, mut cursor) = (positions, 0);
        while let Some(&p) = rest.first() {
            let b = self.block_from(&mut cursor, p)?;
            let end = b.covering().end;
            let n = rest.partition_point(|&q| q < end);
            each(b, &rest[..n])?;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// A bitmap descriptor's gather: each block's positions inside the
    /// window are read off the bitmap's words into one reused buffer and
    /// gathered in one call. Set bits outside every block are never
    /// written, which the caller's count check reports.
    fn gather_bitmap_into(&self, bm: &Bitmap, out: &mut Slots<'_>) -> Result<()> {
        let mut batch = Vec::new();
        for b in &self.blocks {
            batch.clear();
            bm.positions_in(b.covering().intersect(&self.window), &mut batch);
            b.gather_into(&batch, out)?;
        }
        Ok(())
    }

    /// Decompress the entire window in position order.
    pub fn decode(&self, out: &mut Vec<Value>) -> Result<()> {
        for b in &self.blocks {
            b.gather_range(b.covering().intersect(&self.window), out)?;
        }
        Ok(())
    }

    /// Visit maximal equal-value runs across the window in position order.
    pub fn for_each_run(&self, mut f: impl FnMut(Value, PosRange)) {
        for b in &self.blocks {
            b.for_each_run_in(self.window, &mut f);
        }
    }

    /// Whether [`for_each_run`](Self::for_each_run) visits stored runs
    /// without per-row decoding — true only when every backing block is
    /// RLE. Gates the compressed aggregation path: on other codecs
    /// `for_each_run` decodes internally, which would defeat it.
    pub fn runs_without_decode(&self) -> bool {
        !self.blocks.is_empty()
            && self
                .blocks
                .iter()
                .all(|b| matches!(b.as_ref(), EncodedBlock::Rle(_)))
    }

    /// If every backing block is dict-encoded against the *same*
    /// dictionary, the shared fingerprint — the precondition for
    /// code-granular operations across the window (code-keyed joins).
    /// `None` when the window is empty, any block is not dict, or the
    /// blocks disagree.
    pub fn shared_dict_fingerprint(&self) -> Option<u64> {
        let mut fp = None;
        for b in &self.blocks {
            match b.as_ref() {
                EncodedBlock::Dict(d) => match fp {
                    None => fp = Some(d.fingerprint()),
                    Some(f) if f == d.fingerprint() => {}
                    Some(_) => return None,
                },
                _ => return None,
            }
        }
        fp
    }

    /// The dictionary shared by every backing block (first block's copy);
    /// call only after [`Self::shared_dict_fingerprint`] returned `Some`.
    pub fn shared_dict(&self) -> Option<&[Value]> {
        match self.blocks.first().map(|b| b.as_ref()) {
            Some(EncodedBlock::Dict(d)) => Some(d.dictionary()),
            _ => None,
        }
    }

    /// Every dictionary code of the window in position order — the code
    /// domain's [`decode`](Self::decode). Errors on non-dict blocks;
    /// meaningful across blocks only under a shared dictionary
    /// ([`Self::shared_dict_fingerprint`]).
    pub fn decode_codes(&self, out: &mut Vec<u32>) -> Result<()> {
        for b in &self.blocks {
            let d = dict_block(b)?;
            let w = b.covering().intersect(&self.window);
            let lo = (w.start - d.start_pos()) as usize;
            out.extend_from_slice(&d.codes()[lo..lo + w.len() as usize]);
        }
        Ok(())
    }

    /// Dictionary codes at ascending positions (repeats allowed), in
    /// order — the probe-side fetch of a code-keyed join, where no value
    /// is ever decoded; the code domain's
    /// [`gather_sorted_into`](Self::gather_sorted_into), on the same
    /// walker. Errors on non-dict blocks and, as the value gather does,
    /// on a position outside the window or in a gap, leaving `out` as it
    /// was. Meaningful across blocks only under a shared dictionary
    /// ([`Self::shared_dict_fingerprint`]).
    pub fn gather_codes(&self, positions: &[Pos], out: &mut Vec<u32>) -> Result<()> {
        let at = out.len();
        let walked = self.walk_sorted(positions, |b, ps| dict_block(b)?.gather_codes(ps, out));
        if walked.is_err() {
            out.truncate(at);
        }
        walked
    }
}

/// The dictionary block `b` is, or an error naming its codec.
fn dict_block(b: &EncodedBlock) -> Result<&DictBlock> {
    match b {
        EncodedBlock::Dict(d) => Ok(d),
        other => Err(Error::unsupported(format!(
            "code gather on a {} block",
            other.encoding().name()
        ))),
    }
}

/// Append `n` values to `out` through `fill`, which writes them into the
/// new cells; on error `out` is left as it was.
fn append_with(
    out: &mut Vec<Value>,
    n: usize,
    fill: impl FnOnce(&mut Slots<'_>) -> Result<FetchKind>,
) -> Result<FetchKind> {
    let at = out.len();
    out.resize(at + n, 0);
    let fetched = fill(&mut Slots::column(&mut out[at..], 0, 1));
    if fetched.is_err() {
        out.truncate(at);
    }
    fetched
}

/// The error for a fetch at `pos`, outside the mini-column's `window`.
pub(crate) fn outside_window(pos: Pos, window: PosRange) -> Error {
    Error::invalid(format!(
        "position {pos} outside the mini-column's window {window}"
    ))
}

/// Errors unless a fetch wrote exactly the `want` values its positions
/// ask for.
fn wrote_all(written: usize, want: u64) -> Result<()> {
    if written as u64 != want {
        return Err(Error::invalid(format!(
            "column yielded {written} values for a {want}-position descriptor"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use matstrat_storage::{EncodingKind as Ek, ProjectionSpec, SortOrder, Store};

    /// 3000-row projection: a = i/300 (sorted), b = i%7, c = i%5 (bitvec).
    fn setup() -> (
        Store,
        matstrat_common::TableId,
        Vec<Value>,
        Vec<Value>,
        Vec<Value>,
    ) {
        let store = Store::in_memory();
        let a: Vec<Value> = (0..3000).map(|i| i / 300).collect();
        let b: Vec<Value> = (0..3000).map(|i| i % 7).collect();
        let c: Vec<Value> = (0..3000).map(|i| i % 5).collect();
        let spec = ProjectionSpec::new("t")
            .column("a", Ek::Rle, SortOrder::Primary)
            .column("b", Ek::Plain, SortOrder::None)
            .column("c", Ek::BitVec, SortOrder::None);
        let id = store.load_projection(&spec, &[&a, &b, &c]).unwrap();
        (store, id, a, b, c)
    }

    #[test]
    fn fetch_clamps_window() {
        let (store, id, ..) = setup();
        let r = store.reader(id, 0).unwrap();
        let mc = MiniColumn::fetch(&r, PosRange::new(2900, 99_999)).unwrap();
        assert_eq!(mc.window(), PosRange::new(2900, 3000));
        assert!(!mc.blocks().is_empty());
    }

    #[test]
    fn scan_positions_matches_reference() {
        let (store, id, _, b, _) = setup();
        let r = store.reader(id, 1).unwrap();
        let mc = MiniColumn::fetch(&r, PosRange::new(100, 900)).unwrap();
        let pl = mc.scan_positions(&Predicate::lt(3));
        let expected: Vec<Pos> = (100..900).filter(|&i| b[i as usize] < 3).collect();
        assert_eq!(pl.to_vec(), expected);
    }

    #[test]
    fn gather_ranges_and_points() {
        let (store, id, _, b, _) = setup();
        let r = store.reader(id, 1).unwrap();
        let mc = MiniColumn::fetch(&r, PosRange::new(0, 3000)).unwrap();
        // Range gather.
        let pl = PosList::full(PosRange::new(10, 20));
        let mut out = Vec::new();
        assert_eq!(mc.fetch_values(&pl, &mut out).unwrap(), FetchKind::Gathered);
        assert_eq!(out, &b[10..20]);
        // Point gather.
        let pl = PosList::from_positions(vec![1, 500, 2999]);
        out.clear();
        assert_eq!(mc.fetch_values(&pl, &mut out).unwrap(), FetchKind::Gathered);
        assert_eq!(out, vec![b[1], b[500], b[2999]]);
    }

    #[test]
    fn fetch_values_decompresses_bitvec() {
        let (store, id, _, _, c) = setup();
        let r = store.reader(id, 2).unwrap();
        let mc = MiniColumn::fetch(&r, PosRange::new(0, 3000)).unwrap();
        assert_eq!(mc.fetch_kind(), FetchKind::Decompressed);
        let pl = PosList::from_positions(vec![3, 77, 1234]);
        let mut out = Vec::new();
        let kind = mc.fetch_values(&pl, &mut out).unwrap();
        assert_eq!(kind, FetchKind::Decompressed);
        assert_eq!(out, vec![c[3], c[77], c[1234]]);
    }

    #[test]
    fn fetch_values_decompresses_bitvec_across_blocks_for_every_descriptor() {
        // Fifty distinct values: a bit-vector block holds ~10 k rows, so
        // 30 k rows span three blocks.
        let store = Store::in_memory();
        let c: Vec<Value> = (0..30_000).map(|i| (i * 7) % 50).collect();
        let spec = ProjectionSpec::new("t").column("c", Ek::BitVec, SortOrder::None);
        let id = store.load_projection(&spec, &[&c]).unwrap();
        let mc =
            MiniColumn::fetch(&store.reader(id, 0).unwrap(), PosRange::new(0, 30_000)).unwrap();
        assert!(mc.blocks().len() >= 3, "want a multi-block window");
        let edge = mc.blocks()[1].covering();
        let descs = [
            // Ranges that cross both block edges, and one-row ranges.
            PosList::Ranges(RangeList::from_ranges(vec![
                PosRange::new(edge.start - 70, edge.start + 5),
                PosRange::new(edge.start + 9, edge.start + 10),
                PosRange::new(edge.end - 1, edge.end + 130),
            ])),
            PosList::Bitmap(Bitmap::from_positions(
                PosRange::new(edge.start - 100, edge.end + 100),
                (edge.start - 100..edge.end + 100).filter(|p| p % 3 != 0),
            )),
            PosList::from_positions(vec![0, edge.start - 1, edge.start, edge.end, 29_999]),
        ];
        for desc in &descs {
            let mut out = vec![-1];
            assert_eq!(
                mc.fetch_values(desc, &mut out).unwrap(),
                FetchKind::Decompressed
            );
            let want: Vec<Value> = std::iter::once(-1)
                .chain(desc.iter().map(|p| c[p as usize]))
                .collect();
            assert_eq!(out, want, "{:?}", desc.repr());
        }
    }

    #[test]
    fn fetch_values_gathers_when_supported() {
        let (store, id, _, b, _) = setup();
        let r = store.reader(id, 1).unwrap();
        let mc = MiniColumn::fetch(&r, PosRange::new(0, 3000)).unwrap();
        let pl = PosList::from_positions(vec![5, 6, 7]);
        let mut out = Vec::new();
        assert_eq!(mc.fetch_values(&pl, &mut out).unwrap(), FetchKind::Gathered);
        assert_eq!(out, vec![b[5], b[6], b[7]]);
    }

    #[test]
    fn fetch_selective_skips_unneeded_blocks() {
        let (store, id, ..) = setup();
        let r = store.reader(id, 1).unwrap();
        store.cold_reset();
        // Positions only in the very first rows: later plain blocks (if
        // any) must not be fetched. With 3000 W1 rows there is 1 block, so
        // instead check the I/O meter only counts 1 block.
        let pl = PosList::from_positions(vec![0, 1]);
        let mc = MiniColumn::fetch_selective(&r, PosRange::new(0, 3000), &pl).unwrap();
        assert_eq!(store.meter().snapshot().block_reads, 1);
        assert_eq!(mc.value_at(0).unwrap(), 0);
        // Empty positions: nothing fetched.
        store.cold_reset();
        let mc =
            MiniColumn::fetch_selective(&r, PosRange::new(0, 3000), &PosList::empty()).unwrap();
        assert_eq!(store.meter().snapshot().block_reads, 0);
        assert!(mc.blocks().is_empty());
    }

    #[test]
    fn value_at_errors_outside_window() {
        let (store, id, ..) = setup();
        let r = store.reader(id, 1).unwrap();
        let mc = MiniColumn::fetch(&r, PosRange::new(100, 200)).unwrap();
        assert!(mc.value_at(150).is_ok());
        // 3000 is beyond the column entirely.
        assert!(mc.value_at(3000).is_err());
    }

    #[test]
    fn for_each_run_spans_blocks() {
        let (store, id, a, ..) = setup();
        let r = store.reader(id, 0).unwrap();
        let mc = MiniColumn::fetch(&r, PosRange::new(250, 950)).unwrap();
        let mut seen = Vec::new();
        mc.for_each_run(|v, range| seen.push((v, range.start, range.end)));
        assert_eq!(
            seen,
            vec![(0, 250, 300), (1, 300, 600), (2, 600, 900), (3, 900, 950)]
        );
        let _ = a;
    }

    #[test]
    fn minicolumn_clones_share_blocks_across_threads() {
        // Worker-local reuse: each worker clones the mini-column (an
        // Arc-copy, no I/O) and scans it independently; results agree and
        // no re-fetch hits the meter.
        let (store, id, _, b, _) = setup();
        let r = store.reader(id, 1).unwrap();
        let mc = MiniColumn::fetch(&r, PosRange::new(0, 3000)).unwrap();
        let io_before = store.meter().snapshot();
        let counts: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let local = mc.clone();
                    s.spawn(move || local.scan_positions(&Predicate::lt(3)).count())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expected = b.iter().filter(|&&v| v < 3).count() as u64;
        assert!(counts.iter().all(|&c| c == expected));
        assert_eq!(
            store.meter().snapshot(),
            io_before,
            "clones re-read nothing"
        );
    }

    #[test]
    fn shared_dict_fingerprint_and_code_gather() {
        let store = Store::in_memory();
        let k: Vec<Value> = (0..150_000).map(|i| ((i * 31) % 10) * 5).collect();
        let spec = ProjectionSpec::new("t").column_shared_dict("k", SortOrder::None);
        let id = store.load_projection(&spec, &[&k]).unwrap();
        let r = store.reader(id, 0).unwrap();
        let mc = MiniColumn::fetch(&r, PosRange::new(0, 150_000)).unwrap();
        assert!(mc.blocks().len() > 1, "want a multi-block window");
        let fp = mc.shared_dict_fingerprint().expect("shared dict");
        assert_ne!(fp, 0);
        let dict = mc.shared_dict().unwrap();
        // Codes decode to the same values the value gather returns, even
        // across a block boundary.
        let ps = [0, 3, 70_000, 149_999];
        let (mut codes, mut vals) = (Vec::new(), Vec::new());
        mc.gather_codes(&ps, &mut codes).unwrap();
        mc.fetch_values(&PosList::from_positions(ps.to_vec()), &mut vals)
            .unwrap();
        let via_dict: Vec<Value> = codes.iter().map(|&c| dict[c as usize]).collect();
        assert_eq!(via_dict, vals);
        // Non-dict windows refuse both.
        let (store2, id2, ..) = setup();
        let mc2 =
            MiniColumn::fetch(&store2.reader(id2, 0).unwrap(), PosRange::new(0, 3000)).unwrap();
        assert!(mc2.shared_dict_fingerprint().is_none());
        assert!(mc2.gather_codes(&ps[..2], &mut codes).is_err());
    }

    #[test]
    fn gather_codes_refuses_a_position_outside_the_window() {
        let store = Store::in_memory();
        let k: Vec<Value> = (0..3000).map(|i| (i % 10) * 5).collect();
        let spec = ProjectionSpec::new("t").column_shared_dict("k", SortOrder::None);
        let id = store.load_projection(&spec, &[&k]).unwrap();
        // One block covers every row; the window is a slice of it.
        let mc = MiniColumn::fetch(&store.reader(id, 0).unwrap(), PosRange::new(100, 200)).unwrap();
        assert_eq!(mc.blocks().len(), 1);
        let mut codes = vec![7];
        mc.gather_codes(&[100, 150, 199], &mut codes).unwrap();
        assert_eq!(codes.len(), 4);
        for outside in [[99, 150], [150, 200], [150, 2999]] {
            let mut codes = vec![7];
            assert!(
                mc.gather_codes(&outside, &mut codes).is_err(),
                "{outside:?}"
            );
            assert_eq!(codes, [7], "{outside:?}: nothing appended");
        }
    }

    #[test]
    fn runs_without_decode_only_for_rle() {
        let (store, id, ..) = setup();
        let w = PosRange::new(0, 3000);
        let rle = MiniColumn::fetch(&store.reader(id, 0).unwrap(), w).unwrap();
        let plain = MiniColumn::fetch(&store.reader(id, 1).unwrap(), w).unwrap();
        assert!(rle.runs_without_decode());
        assert!(!plain.runs_without_decode());
        assert!(!MiniColumn::empty(w).runs_without_decode());
    }

    #[test]
    fn empty_minicolumn() {
        let mc = MiniColumn::empty(PosRange::new(0, 10));
        assert!(mc.blocks().is_empty());
        assert!(mc.scan_positions(&Predicate::always_true()).is_empty());
    }
}
