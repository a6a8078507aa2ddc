//! The mutable half of every table: a columnar, position-stamped delta
//! that scans read as more blocks after the immutable column blocks.
//!
//! A projection's immutable blocks cover positions `[0, base_rows)`.
//! Inserted rows are **position-stamped** past that: the i-th delta row
//! is the logical row at position `base_rows + i`, so the table's
//! logical row order is always *immutable rows in position order, then
//! delta rows in insertion order* — a total order that does not depend
//! on who scans it or with how many threads. Deletes are a sorted
//! position set over the combined space; a deleted row stays physically
//! present (in blocks or in the delta) and is filtered at scan time.
//! Compaction folds the whole delta back into fresh immutable blocks in
//! exactly this logical order, which is why a query is byte-identical
//! before, during, and after a compaction.
//!
//! # Representation
//!
//! A delta is just more columns: inserted rows live in a sequence of
//! append-only **chunks**, each holding one `Vec<Value>` per table
//! column, behind an `Arc`. A scan grabs an `Arc<TableDelta>` in O(1)
//! and is immune to later writes; a writer mutates through
//! [`Arc::make_mut`], and while a snapshot is outstanding that clones
//! only the list of chunk pointers — never a value. An append then
//! extends the last chunk in place when nobody else holds it and opens a
//! new chunk when a snapshot does, so a write costs O(rows written)
//! whatever the delta already holds and whoever is reading it: every
//! chunk written before a snapshot stays shared, pointer-equal, between
//! that snapshot and the live delta. The sorted delete set sits behind
//! its own `Arc`, so appends never copy it and a delete under a snapshot
//! copies it once, flat. Nothing here allocates per row — not a
//! snapshot, not a write under one, not a drop.
//!
//! # How readers see it
//!
//! Queries do not read the delta row by row. A
//! [`ColumnReader`](crate::ColumnReader) opened on a snapshot's delta
//! covers every logical position, `[0, base_rows + inserts)`: the
//! column file's blocks, then **tail blocks** — uncompressed Plain
//! blocks of at most `PlainBlock::capacity(W8)` inserted values each,
//! packed straight from the chunks ([`TableDelta::column_range`]),
//! deleted rows included so positions stay positional. The executors
//! run the same block operators over the tail as over the file and drop
//! deleted positions, base and tail alike, through one [`Tombstones`]
//! cursor over the sorted [`TableDelta::deletes`]. Compaction walks the inserted rows and the sorted
//! deletes together, once, through [`TableDelta::extend_live_column`].

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use matstrat_common::{Error, Result, TableId, Value};
use parking_lot::RwLock;

/// One append-only run of inserted rows, column-major.
#[derive(Debug)]
struct Chunk {
    /// Rows held — the length of every column (kept apart so a
    /// zero-column table still counts its rows).
    rows: usize,
    cols: Vec<Vec<Value>>,
}

impl Chunk {
    /// Transpose row-major `rows` onto the end of the chunk.
    fn append(&mut self, rows: &[Vec<Value>]) {
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.extend(rows.iter().map(|row| row[c]));
        }
        self.rows += rows.len();
    }
}

/// The in-memory delta of one table: inserted rows (columnar chunks)
/// and deleted positions, both against a fixed immutable base.
#[derive(Debug, Clone, Default)]
pub struct TableDelta {
    /// Immutable row count the stamps are relative to — always equal to
    /// the catalog's `num_rows` for the same table (both change only
    /// together, under the store's write lock).
    base_rows: u64,
    /// Inserted rows in stamp order; row `i` over the concatenated
    /// chunks is logical position `base_rows + i`. Every chunk has the
    /// table's column count and at least one row.
    chunks: Vec<Arc<Chunk>>,
    /// Rows over all chunks.
    inserted: usize,
    /// Deleted positions over `[0, base_rows + inserted)`, sorted and
    /// deduplicated.
    deletes: Arc<Vec<u64>>,
}

/// Two deltas are equal when they describe the same logical rows;
/// where the chunk boundaries fell is not part of the value.
impl PartialEq for TableDelta {
    fn eq(&self, other: &TableDelta) -> bool {
        self.base_rows == other.base_rows
            && self.inserted == other.inserted
            && self.deletes == other.deletes
            && self.num_columns() == other.num_columns()
            && (0..self.num_columns()).all(|c| {
                let mine = self.column_chunks(c).flatten();
                mine.eq(other.column_chunks(c).flatten())
            })
    }
}

impl Eq for TableDelta {}

impl TableDelta {
    /// An empty delta over `base_rows` immutable rows.
    pub fn new(base_rows: u64) -> TableDelta {
        TableDelta {
            base_rows,
            ..TableDelta::default()
        }
    }

    /// Immutable rows below the first stamp.
    pub fn base_rows(&self) -> u64 {
        self.base_rows
    }

    /// Inserted rows held (deleted ones included).
    pub fn num_inserts(&self) -> usize {
        self.inserted
    }

    /// Total logical positions (immutable + inserted, deleted included).
    pub fn total_rows(&self) -> u64 {
        self.base_rows + self.inserted as u64
    }

    /// Rows a merge-time scan yields: total minus deleted.
    pub fn live_rows(&self) -> u64 {
        self.total_rows() - self.deletes.len() as u64
    }

    /// `true` when there is nothing to merge or compact.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0 && self.deletes.is_empty()
    }

    /// Every deleted position, sorted.
    pub fn deletes(&self) -> &[u64] {
        &self.deletes
    }

    /// Whether position `pos` is deleted. One binary search: right for a
    /// point lookup, wrong inside a loop over rows — walk
    /// [`Self::extend_live_column`] or a [`Tombstones`] cursor instead.
    pub fn is_deleted(&self, pos: u64) -> bool {
        self.deletes.binary_search(&pos).is_ok()
    }

    /// Deleted positions below `base_rows` (the immutable side), as a
    /// sorted slice.
    pub fn base_deletes(&self) -> &[u64] {
        &self.deletes[..self.delete_split()]
    }

    /// Deleted positions at or above `base_rows` (inserted rows), as a
    /// sorted slice.
    pub fn insert_deletes(&self) -> &[u64] {
        &self.deletes[self.delete_split()..]
    }

    fn delete_split(&self) -> usize {
        self.deletes.partition_point(|&p| p < self.base_rows)
    }

    fn num_columns(&self) -> usize {
        self.chunks.first().map_or(0, |c| c.cols.len())
    }

    /// Column `col` of the inserted rows as slices in stamp order,
    /// deleted rows included (so the concatenation is indexable by
    /// `position - base_rows`).
    pub fn column_chunks(&self, col: usize) -> impl Iterator<Item = &[Value]> + Clone + '_ {
        self.chunks.iter().map(move |c| c.cols[col].as_slice())
    }

    /// Column `col` of inserted rows `rows` (indices in stamp order,
    /// deleted rows included) as chunk slices — the values of one of a
    /// reader's tail blocks, read in place.
    pub fn column_range(
        &self,
        col: usize,
        rows: Range<usize>,
    ) -> impl Iterator<Item = &[Value]> + Clone + '_ {
        self.column_chunks(col)
            .scan(0usize, |at, slice| {
                let from = *at;
                *at += slice.len();
                Some((from, slice))
            })
            .filter_map(move |(from, slice)| {
                let (lo, hi) = (rows.start.max(from), rows.end.min(from + slice.len()));
                (lo < hi).then(|| &slice[lo - from..hi - from])
            })
    }

    /// Append column `col` of every **live** inserted row to `out`, in
    /// stamp order: the gaps between deleted stamps are copied as
    /// slices, in one walk over chunks and deletes together.
    pub fn extend_live_column(&self, col: usize, out: &mut Vec<Value>) {
        let mut dead = self.insert_deletes();
        let mut start = self.base_rows;
        for slice in self.column_chunks(col) {
            let end = start + slice.len() as u64;
            let here = dead.partition_point(|&p| p < end);
            let mut from = 0usize;
            for &p in &dead[..here] {
                let at = (p - start) as usize;
                out.extend_from_slice(&slice[from..at]);
                from = at + 1;
            }
            out.extend_from_slice(&slice[from..]);
            dead = &dead[here..];
            start = end;
        }
    }

    /// The positions among `positions` a delete would newly mark:
    /// sorted, deduplicated, not deleted yet. Errors when any is out of
    /// range.
    pub fn fresh_deletes(&self, positions: &[u64]) -> Result<Vec<u64>> {
        let mut fresh = positions.to_vec();
        fresh.sort_unstable();
        fresh.dedup();
        if let Some(&worst) = fresh.last() {
            if worst >= self.total_rows() {
                return Err(Error::invalid(format!(
                    "delete position {worst} out of range (table has {} rows)",
                    self.total_rows()
                )));
            }
        }
        retain_live(&mut fresh, &self.deletes);
        Ok(fresh)
    }

    /// Append `rows` (each of the table's width), returning the first
    /// stamp. Extends the last chunk in place when no snapshot shares
    /// it; otherwise the rows become a new chunk and everything written
    /// before stays where the snapshot sees it.
    fn append(&mut self, rows: &[Vec<Value>]) -> u64 {
        let first = self.total_rows();
        let Some(width) = rows.first().map(Vec::len) else {
            return first;
        };
        assert!(
            rows.iter().all(|r| r.len() == width)
                && (self.chunks.is_empty() || self.num_columns() == width),
            "delta rows must all have the table's width"
        );
        match self.chunks.last_mut().and_then(Arc::get_mut) {
            Some(tail) => tail.append(rows),
            None => {
                let mut chunk = Chunk {
                    rows: 0,
                    cols: (0..width).map(|_| Vec::with_capacity(rows.len())).collect(),
                };
                chunk.append(rows);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.inserted += rows.len();
        first
    }

    /// Merge `fresh` (sorted, unique, in range, none deleted yet — the
    /// output of [`Self::fresh_deletes`]) into the delete set: one
    /// backward merge that stops at the smallest new position.
    fn mark_deleted(&mut self, fresh: &[u64]) {
        if fresh.is_empty() {
            return;
        }
        let deletes = Arc::make_mut(&mut self.deletes);
        let mut old = deletes.len();
        let mut new = fresh.len();
        deletes.resize(old + new, 0);
        while new > 0 {
            if old > 0 && deletes[old - 1] > fresh[new - 1] {
                deletes[old + new - 1] = deletes[old - 1];
                old -= 1;
            } else {
                deletes[old + new - 1] = fresh[new - 1];
                new -= 1;
            }
        }
    }
}

/// All tables' deltas, keyed by projection. Writers and the compactor
/// synchronize through the store's write lock; this lock only protects
/// the map itself and the copy-on-write snapshot swap.
#[derive(Debug, Default)]
pub struct DeltaStore {
    tables: RwLock<HashMap<TableId, Arc<TableDelta>>>,
}

impl DeltaStore {
    /// An empty delta store.
    pub fn new() -> DeltaStore {
        DeltaStore::default()
    }

    /// O(1) snapshot of one table's delta. `None` when the table has no
    /// pending writes (the common read-only case pays one map lookup).
    pub fn snapshot(&self, table: TableId) -> Option<Arc<TableDelta>> {
        self.tables.read().get(&table).cloned()
    }

    /// Tables that currently have a non-empty delta.
    pub fn dirty_tables(&self) -> Vec<TableId> {
        let tables = self.tables.read();
        let mut v: Vec<TableId> = tables
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(&t, _)| t)
            .collect();
        v.sort_unstable_by_key(|t| t.0);
        v
    }

    /// Run `f` on `table`'s live delta (created over `base_rows` when
    /// the table has none yet). Copy-on-write against outstanding
    /// snapshots; the caller must hold the store's write lock and no
    /// snapshot of the same table.
    fn mutate<R>(&self, table: TableId, base_rows: u64, f: impl FnOnce(&mut TableDelta) -> R) -> R {
        let mut tables = self.tables.write();
        let delta = tables
            .entry(table)
            .or_insert_with(|| Arc::new(TableDelta::new(base_rows)));
        debug_assert_eq!(delta.base_rows, base_rows, "stale base for delta write");
        f(Arc::make_mut(delta))
    }

    /// Append `rows` to `table`'s delta (base `base_rows` when the delta
    /// does not exist yet), returning the position stamp of the first
    /// appended row. Every row must have the table's width. Caller must
    /// hold the store's write lock.
    pub fn append_rows(&self, table: TableId, base_rows: u64, rows: &[Vec<Value>]) -> u64 {
        self.mutate(table, base_rows, |delta| delta.append(rows))
    }

    /// Mark `positions` of `table` deleted, returning how many were
    /// newly deleted (already-deleted positions are skipped). Caller
    /// must hold the store's write lock.
    pub fn delete_positions(
        &self,
        table: TableId,
        base_rows: u64,
        positions: &[u64],
    ) -> Result<u64> {
        self.mutate(table, base_rows, |delta| {
            let fresh = delta.fresh_deletes(positions)?;
            delta.mark_deleted(&fresh);
            Ok(fresh.len() as u64)
        })
    }

    /// Replace `table`'s delta wholesale (compaction swap / recovery).
    /// An empty `delta` removes the entry.
    pub fn replace(&self, table: TableId, delta: TableDelta) {
        let mut tables = self.tables.write();
        if delta.is_empty() {
            tables.remove(&table);
        } else {
            tables.insert(table, Arc::new(delta));
        }
    }
}

/// A forward cursor over a sorted delete set: asked about ascending
/// positions, it walks the deletes once, so a pass over n rows costs
/// O(n + deletes) however the caller iterates them.
#[derive(Debug, Clone)]
pub struct Tombstones<'a> {
    deletes: &'a [u64],
    di: usize,
}

impl<'a> Tombstones<'a> {
    /// A cursor over `deletes` (sorted ascending) for positions from
    /// `from` on.
    pub fn new(deletes: &'a [u64], from: u64) -> Tombstones<'a> {
        let di = deletes.partition_point(|&d| d < from);
        Tombstones { deletes, di }
    }

    /// Whether `pos` is deleted. Ask in ascending position order.
    pub fn is_deleted(&mut self, pos: u64) -> bool {
        while self.di < self.deletes.len() && self.deletes[self.di] < pos {
            self.di += 1;
        }
        self.deletes.get(self.di) == Some(&pos)
    }
}

/// Filter `positions` (ascending) down to those not present in the
/// sorted `deletes` set.
pub fn retain_live(positions: &mut Vec<u64>, deletes: &[u64]) {
    let Some(&first) = positions.first() else {
        return;
    };
    let mut dead = Tombstones::new(deletes, first);
    positions.retain(|&p| !dead.is_deleted(p));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Column `col` of the inserted rows, flattened.
    fn column(d: &TableDelta, col: usize) -> Vec<Value> {
        d.column_chunks(col).flatten().copied().collect()
    }

    /// The live inserted rows, row-major.
    fn live(d: &TableDelta, width: usize) -> Vec<Vec<Value>> {
        let cols: Vec<Vec<Value>> = (0..width)
            .map(|c| {
                let mut v = Vec::new();
                d.extend_live_column(c, &mut v);
                v
            })
            .collect();
        let rows = cols.first().map_or(0, Vec::len);
        (0..rows)
            .map(|r| cols.iter().map(|col| col[r]).collect())
            .collect()
    }

    #[test]
    fn stamps_ascend_and_snapshots_are_immutable() {
        let ds = DeltaStore::new();
        let t = TableId(0);
        assert!(ds.snapshot(t).is_none());
        let first = ds.append_rows(t, 100, &[vec![1, 2], vec![3, 4]]);
        assert_eq!(first, 100);
        let snap = ds.snapshot(t).unwrap();
        assert_eq!(snap.total_rows(), 102);
        // A later write does not disturb the held snapshot.
        let next = ds.append_rows(t, 100, &[vec![5, 6]]);
        assert_eq!(next, 102);
        assert_eq!(snap.num_inserts(), 2, "snapshot is copy-on-write");
        assert_eq!(ds.snapshot(t).unwrap().num_inserts(), 3);
        assert_eq!(column(&ds.snapshot(t).unwrap(), 1), vec![2, 4, 6]);
    }

    #[test]
    fn writes_under_a_snapshot_share_every_earlier_chunk() {
        let ds = DeltaStore::new();
        let t = TableId(0);
        ds.append_rows(t, 10, &[vec![1, 10], vec![2, 20]]);
        // Nobody is looking: the second write lands in the same chunk.
        ds.append_rows(t, 10, &[vec![3, 30]]);
        ds.delete_positions(t, 10, &[4, 11]).unwrap();
        let snap = ds.snapshot(t).unwrap();
        assert_eq!(snap.chunks.len(), 1, "unshared tail is extended in place");
        let before = (*snap).clone();

        // An append and a delete under the outstanding snapshot.
        ds.append_rows(t, 10, &[vec![4, 40], vec![5, 50]]);
        ds.delete_positions(t, 10, &[0, 12, 13]).unwrap();

        assert_eq!(*snap, before, "the snapshot still reads what it read");
        assert_eq!(column(&snap, 0), vec![1, 2, 3]);
        assert_eq!(snap.deletes(), &[4, 11]);
        let now = ds.snapshot(t).unwrap();
        assert_eq!(now.chunks.len(), 2, "the new rows are a chunk of their own");
        for (mine, theirs) in snap.chunks.iter().zip(&now.chunks) {
            assert!(
                Arc::ptr_eq(mine, theirs),
                "written before: shared, not copied"
            );
        }
        assert_eq!(column(&now, 1), vec![10, 20, 30, 40, 50]);
        assert_eq!(now.deletes(), &[0, 4, 11, 12, 13]);
        assert_eq!(live(&now, 2), vec![vec![1, 10], vec![5, 50]]);

        // The append alone never touched the delete set either.
        let held = ds.snapshot(t).unwrap();
        ds.append_rows(t, 10, &[vec![6, 60]]);
        assert!(Arc::ptr_eq(&held.deletes, &ds.snapshot(t).unwrap().deletes));
    }

    #[test]
    fn equality_ignores_chunk_boundaries() {
        let (one, many) = (DeltaStore::new(), DeltaStore::new());
        let t = TableId(0);
        let rows: Vec<Vec<Value>> = (0..6).map(|i| vec![i, i * i]).collect();
        one.append_rows(t, 3, &rows);
        for row in &rows {
            let _held = many.snapshot(t);
            many.append_rows(t, 3, std::slice::from_ref(row));
        }
        let (one, many) = (one.snapshot(t).unwrap(), many.snapshot(t).unwrap());
        assert_eq!((one.chunks.len(), many.chunks.len()), (1, 6));
        assert_eq!(one, many);
        let mut other = (*many).clone();
        other.mark_deleted(&[5]);
        assert_ne!(*one, other);
    }

    #[test]
    fn deletes_sort_dedup_and_split_by_base() {
        let ds = DeltaStore::new();
        let t = TableId(1);
        ds.append_rows(t, 10, &[vec![7], vec![8]]);
        assert_eq!(ds.delete_positions(t, 10, &[11, 3, 3, 0]).unwrap(), 3);
        let snap = ds.snapshot(t).unwrap();
        assert_eq!(snap.deletes(), &[0, 3, 11]);
        assert_eq!(snap.base_deletes(), &[0, 3]);
        assert_eq!(snap.insert_deletes(), &[11]);
        assert!(snap.is_deleted(11));
        assert!(!snap.is_deleted(10));
        assert_eq!(snap.live_rows(), 9);
        // Out-of-range delete errors without changing anything.
        assert!(ds.delete_positions(t, 10, &[12]).is_err());
        assert_eq!(ds.snapshot(t).unwrap().deletes().len(), 3);
        // Interleaving merge: new positions below, between and above.
        assert_eq!(ds.delete_positions(t, 10, &[10, 1, 3, 9]).unwrap(), 3);
        assert_eq!(ds.snapshot(t).unwrap().deletes(), &[0, 1, 3, 9, 10, 11]);
    }

    #[test]
    fn live_walks_skip_deleted_rows_across_chunks() {
        let ds = DeltaStore::new();
        let t = TableId(3);
        for batch in [0..3, 3..4, 4..9] {
            let rows: Vec<Vec<Value>> = batch.map(|i| vec![i, 100 + i]).collect();
            let _held = ds.snapshot(t);
            ds.append_rows(t, 5, &rows);
        }
        // First row, a whole chunk, a chunk's edges, the last row.
        ds.delete_positions(t, 5, &[2, 5, 8, 9, 11, 13]).unwrap();
        let d = ds.snapshot(t).unwrap();
        assert_eq!(d.chunks.len(), 3);
        // Column 0 holds each row's stamp offset, so the survivors are
        // stamps 5 + {1, 2, 5, 7}.
        let want: Vec<Vec<Value>> = [1, 2, 5, 7].iter().map(|&v| vec![v, 100 + v]).collect();
        assert_eq!(live(&d, 2), want);
        let mut col = vec![-1];
        d.extend_live_column(1, &mut col);
        assert_eq!(col, vec![-1, 101, 102, 105, 107]);
        assert_eq!(column(&d, 0), (0..9).collect::<Vec<Value>>());
        // A range cut across chunk boundaries, deleted rows included.
        let cut: Vec<&[Value]> = d.column_range(0, 2..7).collect();
        assert_eq!(cut, [&[2][..], &[3], &[4, 5, 6]]);
    }

    #[test]
    fn replace_with_empty_removes_the_entry() {
        let ds = DeltaStore::new();
        let t = TableId(2);
        ds.append_rows(t, 0, &[vec![1]]);
        assert_eq!(ds.dirty_tables(), vec![t]);
        ds.replace(t, TableDelta::new(1));
        assert!(ds.snapshot(t).is_none());
        assert!(ds.dirty_tables().is_empty());
    }

    #[test]
    fn retain_live_filters_sorted_deletes() {
        let mut pos = vec![0, 1, 2, 5, 6, 9];
        retain_live(&mut pos, &[1, 5, 7]);
        assert_eq!(pos, vec![0, 2, 6, 9]);
        let mut pos = vec![3, 4];
        retain_live(&mut pos, &[]);
        assert_eq!(pos, vec![3, 4]);
        let mut pos = vec![8, 9];
        retain_live(&mut pos, &[1, 2, 9]);
        assert_eq!(pos, vec![8]);
    }

    proptest::proptest! {
        /// The cursor, walked over a window's surviving positions in any
        /// position-list representation, drops exactly the positions a
        /// binary search finds deleted — with no deletes, every position
        /// deleted, and deletes on both sides of the window.
        #[test]
        fn tombstones_agree_with_binary_search(
            start in 0u64..300,
            len in 0u64..300,
            keep in proptest::collection::vec(0u8..10, 300..301),
            deletes in proptest::collection::vec(0u64..700, 0..80),
            all_deleted in 0u8..8,
        ) {
            use matstrat_common::PosRange;
            use matstrat_poslist::PosList;
            let window = PosRange::new(start, start + len);
            let survivors: Vec<u64> = (window.start..window.end)
                .filter(|&p| keep[(p - start) as usize] < 7)
                .collect();
            let mut deletes = deletes;
            if all_deleted == 0 {
                deletes.extend(window.start..window.end);
            }
            deletes.sort_unstable();
            deletes.dedup();
            let want: Vec<u64> = survivors
                .iter()
                .copied()
                .filter(|p| deletes.binary_search(p).is_err())
                .collect();
            let pl = PosList::from_positions(survivors);
            for repr in [
                PosList::Explicit(pl.to_explicit()),
                PosList::Ranges(pl.to_ranges()),
                PosList::Bitmap(pl.to_bitmap(window)),
            ] {
                let mut dead = Tombstones::new(&deletes, window.start);
                let got: Vec<u64> = repr.iter().filter(|&p| !dead.is_deleted(p)).collect();
                proptest::prop_assert_eq!(&got, &want);
            }
            let mut retained = pl.iter().collect();
            retain_live(&mut retained, &deletes);
            proptest::prop_assert_eq!(retained, want);
        }
    }
}
