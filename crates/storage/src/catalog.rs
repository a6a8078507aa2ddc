//! Catalog: projections, columns, and their statistics.
//!
//! A C-Store *projection* is a set of columns from one logical table,
//! all stored in the same sort order (e.g. the paper's lineitem
//! projection sorted by RETURNFLAG, then SHIPDATE, then LINENUM).
//! Because every column of a projection shares the position space,
//! any subset of its columns can be stitched into tuples by position.

use std::collections::HashMap;
use std::sync::Arc;

use matstrat_common::{ColumnId, Error, Result, TableId, Value, Width};

use crate::encoding::EncodingKind;
use crate::file::ColumnStats;
use crate::generation::Generation;
use crate::wire::{put_u32, put_u64, put_u8, Reader};

/// A column's role in the projection's sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// First sort key.
    Primary,
    /// Second sort key.
    Secondary,
    /// Third sort key.
    Tertiary,
    /// Not part of the sort key.
    None,
}

impl SortOrder {
    /// Rank for ordering sort-key columns (None sorts last).
    pub fn rank(self) -> u8 {
        match self {
            SortOrder::Primary => 0,
            SortOrder::Secondary => 1,
            SortOrder::Tertiary => 2,
            SortOrder::None => 3,
        }
    }

    fn tag(self) -> u8 {
        self.rank()
    }

    fn from_tag(t: u8) -> Result<SortOrder> {
        match t {
            0 => Ok(SortOrder::Primary),
            1 => Ok(SortOrder::Secondary),
            2 => Ok(SortOrder::Tertiary),
            3 => Ok(SortOrder::None),
            other => Err(Error::corrupt(format!("bad sort order tag {other}"))),
        }
    }
}

/// Declared layout of one column in a projection to be loaded.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Column name, unique within the projection.
    pub name: String,
    /// Physical encoding.
    pub encoding: EncodingKind,
    /// Role in the sort key.
    pub sort: SortOrder,
    /// Dict only: encode every block against one column-wide dictionary
    /// of sorted distinct values instead of a per-block first-appearance
    /// dictionary. Sortedness makes range predicates translate to code
    /// ranges, and two columns over the same value domain get identical
    /// dictionaries (equal fingerprints), enabling code-keyed joins.
    pub shared_dict: bool,
}

/// Declared layout of a projection to be loaded.
#[derive(Debug, Clone)]
pub struct ProjectionSpec {
    /// Projection name, unique within the catalog.
    pub name: String,
    /// Column layouts, in schema order.
    pub columns: Vec<ColumnSpec>,
}

impl ProjectionSpec {
    /// Start a spec with no columns.
    pub fn new(name: impl Into<String>) -> ProjectionSpec {
        ProjectionSpec {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Builder-style: append a column.
    pub fn column(
        mut self,
        name: impl Into<String>,
        encoding: EncodingKind,
        sort: SortOrder,
    ) -> ProjectionSpec {
        self.columns.push(ColumnSpec {
            name: name.into(),
            encoding,
            sort,
            shared_dict: false,
        });
        self
    }

    /// Builder-style: append a dict column encoded against a shared
    /// column-wide sorted dictionary (see [`ColumnSpec::shared_dict`]).
    pub fn column_shared_dict(
        mut self,
        name: impl Into<String>,
        sort: SortOrder,
    ) -> ProjectionSpec {
        self.columns.push(ColumnSpec {
            name: name.into(),
            encoding: EncodingKind::Dict,
            sort,
            shared_dict: true,
        });
        self
    }

    /// Indices of the sort-key columns in key order
    /// (primary, secondary, tertiary).
    pub fn sort_key(&self) -> Vec<usize> {
        let mut keyed: Vec<(u8, usize)> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.sort != SortOrder::None)
            .map(|(i, c)| (c.sort.rank(), i))
            .collect();
        keyed.sort();
        keyed.into_iter().map(|(_, i)| i).collect()
    }
}

/// Catalog entry for a loaded column.
#[derive(Debug, Clone)]
pub struct ColumnInfo {
    /// Stable id within the catalog.
    pub id: ColumnId,
    /// Column name.
    pub name: String,
    /// Physical encoding.
    pub encoding: EncodingKind,
    /// Packed width (for `Plain`).
    pub width: Width,
    /// Role in the projection sort key.
    pub sort: SortOrder,
    /// Write-time statistics (`|C|`, `||C||`, min/max/distinct, runs).
    pub stats: ColumnStats,
    /// Backing file name on the disk.
    pub file: String,
    /// Whether every block shares one sorted column-wide dictionary
    /// (see [`ColumnSpec::shared_dict`]). Survives compaction.
    pub shared_dict: bool,
}

impl ColumnInfo {
    /// Whether the column's own values are non-decreasing — true for
    /// the primary sort column, and detectable from `num_runs` vs
    /// `distinct` for others (a sorted column has exactly one run per
    /// distinct value).
    pub fn self_sorted(&self) -> bool {
        self.sort == SortOrder::Primary || self.stats.num_runs == self.stats.distinct
    }
}

/// Catalog entry for a loaded projection.
#[derive(Debug, Clone)]
pub struct ProjectionInfo {
    /// Stable id within the catalog.
    pub id: TableId,
    /// Projection name.
    pub name: String,
    /// Row count (identical across columns).
    pub num_rows: u64,
    /// Columns in schema order.
    pub columns: Vec<ColumnInfo>,
    /// Compaction epoch: bumped each time the projection's immutable
    /// blocks are rewritten. WAL records stamped with an older epoch
    /// are already folded into the blocks and ignored on replay.
    pub wal_epoch: u32,
    /// Pin on this generation of column files: while any clone of the
    /// entry (or a `ColumnReader` opened from one) is alive, the files
    /// stay on disk and readable, whatever compaction does meanwhile.
    /// `None` only in a catalog no store has adopted yet — fresh from
    /// [`Catalog::parse`], or built by hand.
    pub(crate) generation: Option<Arc<Generation>>,
}

impl ProjectionInfo {
    /// Find a column by name.
    pub fn column_by_name(&self, name: &str) -> Option<(usize, &ColumnInfo)> {
        self.columns
            .iter()
            .enumerate()
            .find(|(_, c)| c.name == name)
    }

    /// The column at schema index `idx`.
    pub fn column(&self, idx: usize) -> Result<&ColumnInfo> {
        self.columns
            .get(idx)
            .ok_or_else(|| Error::invalid(format!("column index {idx} out of range")))
    }
}

/// The set of loaded projections.
#[derive(Debug, Default)]
pub struct Catalog {
    projections: Vec<ProjectionInfo>,
    by_name: HashMap<String, TableId>,
    next_column_id: u32,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a projection; assigns table and column ids.
    pub fn add_projection(
        &mut self,
        name: &str,
        num_rows: u64,
        mut columns: Vec<ColumnInfo>,
    ) -> Result<TableId> {
        if self.by_name.contains_key(name) {
            return Err(Error::invalid(format!("projection {name} already exists")));
        }
        let id = TableId(self.projections.len() as u32);
        for c in &mut columns {
            c.id = ColumnId(self.next_column_id);
            self.next_column_id += 1;
        }
        self.projections.push(ProjectionInfo {
            id,
            name: name.to_string(),
            num_rows,
            columns,
            wal_epoch: 0,
            generation: None,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Attach the pin on projection `id`'s current column files. The
    /// store calls this under the same catalog write lock that added,
    /// replaced or reloaded the entry, so no reader ever sees it unset.
    pub(crate) fn pin(&mut self, id: TableId, generation: Arc<Generation>) -> Result<()> {
        let slot = self
            .projections
            .get_mut(id.0 as usize)
            .ok_or_else(|| Error::not_found(format!("{id}")))?;
        slot.generation = Some(generation);
        Ok(())
    }

    /// Swap a projection's immutable layout in place (compaction): new
    /// row count and column entries under the same id and name, fresh
    /// column ids, and a bumped WAL epoch. The catalog lets go of its
    /// pin on the old generation; the caller pins the new
    /// one, and the old files live on for exactly as long as somebody
    /// else still holds theirs.
    pub fn replace_projection(
        &mut self,
        id: TableId,
        num_rows: u64,
        mut columns: Vec<ColumnInfo>,
    ) -> Result<()> {
        let slot = self
            .projections
            .get_mut(id.0 as usize)
            .ok_or_else(|| Error::not_found(format!("{id}")))?;
        if columns.len() != slot.columns.len() {
            return Err(Error::invalid(format!(
                "replace_projection: {} columns for a {}-column projection",
                columns.len(),
                slot.columns.len()
            )));
        }
        for c in &mut columns {
            c.id = ColumnId(self.next_column_id);
            self.next_column_id += 1;
        }
        slot.num_rows = num_rows;
        slot.columns = columns;
        slot.wal_epoch += 1;
        slot.generation = None;
        Ok(())
    }

    /// Look up by id.
    pub fn projection(&self, id: TableId) -> Result<&ProjectionInfo> {
        self.projections
            .get(id.0 as usize)
            .ok_or_else(|| Error::not_found(format!("{id}")))
    }

    /// Look up by name.
    pub fn projection_by_name(&self, name: &str) -> Result<&ProjectionInfo> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| Error::not_found(format!("projection {name}")))?;
        self.projection(*id)
    }

    /// All projections.
    pub fn projections(&self) -> &[ProjectionInfo] {
        &self.projections
    }

    /// Serialize the catalog for persistence.
    pub fn serialize(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MSCT");
        // Version history: 2 added per-projection wal_epoch, 3 added a
        // per-column flags byte (bit 0 = shared dictionary).
        put_u32(&mut buf, 3);
        put_u32(&mut buf, self.projections.len() as u32);
        put_u32(&mut buf, self.next_column_id);
        for p in &self.projections {
            put_str(&mut buf, &p.name);
            put_u64(&mut buf, p.num_rows);
            put_u32(&mut buf, p.wal_epoch);
            put_u32(&mut buf, p.columns.len() as u32);
            for c in &p.columns {
                put_str(&mut buf, &c.name);
                put_u32(&mut buf, c.id.0);
                put_u8(&mut buf, c.encoding.tag());
                put_u8(&mut buf, c.width.bytes() as u8);
                put_u8(&mut buf, c.sort.tag());
                put_u8(&mut buf, u8::from(c.shared_dict));
                put_str(&mut buf, &c.file);
                put_u64(&mut buf, c.stats.num_rows);
                put_u64(&mut buf, c.stats.num_blocks);
                buf.extend_from_slice(&c.stats.min.to_le_bytes());
                buf.extend_from_slice(&c.stats.max.to_le_bytes());
                put_u64(&mut buf, c.stats.distinct);
                put_u64(&mut buf, c.stats.num_runs);
            }
        }
        buf
    }

    /// Parse a serialized catalog.
    pub fn parse(bytes: &[u8]) -> Result<Catalog> {
        let mut r = Reader::new(bytes);
        if r.bytes(4)? != b"MSCT" {
            return Err(Error::corrupt("catalog: bad magic"));
        }
        let version = r.u32()?;
        if !(1..=3).contains(&version) {
            return Err(Error::corrupt(format!(
                "catalog: unknown version {version}"
            )));
        }
        let nproj = r.u32()?;
        let next_column_id = r.u32()?;
        let mut cat = Catalog {
            next_column_id,
            ..Catalog::default()
        };
        for pi in 0..nproj {
            let name = get_str(&mut r)?;
            let num_rows = r.u64()?;
            // Version 1 predates the write path: no epoch, nothing in a WAL.
            let wal_epoch = if version >= 2 { r.u32()? } else { 0 };
            let ncols = r.count(MIN_COLUMN_BYTES, "catalog columns")?;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let cname = get_str(&mut r)?;
                let id = ColumnId(r.u32()?);
                let encoding = EncodingKind::from_tag(r.u8()?)?;
                let width = match r.u8()? {
                    1 => Width::W1,
                    2 => Width::W2,
                    4 => Width::W4,
                    8 => Width::W8,
                    w => return Err(Error::corrupt(format!("catalog: bad width {w}"))),
                };
                let sort = SortOrder::from_tag(r.u8()?)?;
                // Versions 1–2 predate per-column flags.
                let flags = if version >= 3 { r.u8()? } else { 0 };
                let file = get_str(&mut r)?;
                let stats = ColumnStats {
                    num_rows: r.u64()?,
                    num_blocks: r.u64()?,
                    min: r.i64()?,
                    max: r.i64()?,
                    distinct: r.u64()?,
                    num_runs: r.u64()?,
                };
                columns.push(ColumnInfo {
                    id,
                    name: cname,
                    encoding,
                    width,
                    sort,
                    stats,
                    file,
                    shared_dict: flags & 1 != 0,
                });
            }
            cat.projections.push(ProjectionInfo {
                id: TableId(pi),
                name: name.clone(),
                num_rows,
                columns,
                wal_epoch,
                generation: None,
            });
            cat.by_name.insert(name, TableId(pi));
        }
        Ok(cat)
    }
}

/// Check that `columns` (sort-key columns in key order) are sorted
/// lexicographically, as a projection requires.
pub fn verify_sort_order(sort_cols: &[&[Value]]) -> Result<()> {
    if sort_cols.is_empty() {
        return Ok(());
    }
    let n = sort_cols[0].len();
    for row in 1..n {
        let mut ordered = false;
        for col in sort_cols {
            match col[row - 1].cmp(&col[row]) {
                std::cmp::Ordering::Less => {
                    ordered = true;
                    break;
                }
                std::cmp::Ordering::Greater => {
                    return Err(Error::invalid(format!(
                        "projection data not sorted at row {row}"
                    )));
                }
                std::cmp::Ordering::Equal => continue,
            }
        }
        let _ = ordered;
    }
    Ok(())
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// The fewest bytes one serialized column entry occupies: empty name,
/// id, encoding/width/sort tags, empty file name, six stats words (no
/// flags byte before version 3).
const MIN_COLUMN_BYTES: usize = 4 + 4 + 1 + 1 + 1 + 4 + 6 * 8;

fn get_str(r: &mut Reader<'_>) -> Result<String> {
    let len = r.u32()? as usize;
    let bytes = r.bytes(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::corrupt("invalid utf8 in catalog"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ColumnStats {
        ColumnStats {
            num_rows: 10,
            num_blocks: 1,
            min: 0,
            max: 9,
            distinct: 10,
            num_runs: 10,
        }
    }

    fn col(name: &str, sort: SortOrder) -> ColumnInfo {
        ColumnInfo {
            id: ColumnId(0),
            name: name.into(),
            encoding: EncodingKind::Rle,
            width: Width::W4,
            sort,
            stats: stats(),
            file: format!("{name}.col"),
            shared_dict: false,
        }
    }

    #[test]
    fn spec_builder_and_sort_key() {
        let spec = ProjectionSpec::new("lineitem")
            .column("retflag", EncodingKind::Rle, SortOrder::Primary)
            .column("shipdate", EncodingKind::Rle, SortOrder::Secondary)
            .column("linenum", EncodingKind::Plain, SortOrder::Tertiary)
            .column("quantity", EncodingKind::Plain, SortOrder::None);
        assert_eq!(spec.sort_key(), vec![0, 1, 2]);
    }

    #[test]
    fn add_and_lookup() {
        let mut cat = Catalog::new();
        let id = cat
            .add_projection("t", 10, vec![col("a", SortOrder::Primary)])
            .unwrap();
        assert_eq!(cat.projection(id).unwrap().name, "t");
        assert_eq!(cat.projection_by_name("t").unwrap().id, id);
        assert!(cat.projection_by_name("missing").is_err());
        assert!(cat.add_projection("t", 5, vec![]).is_err());
    }

    #[test]
    fn column_ids_are_unique_across_projections() {
        let mut cat = Catalog::new();
        cat.add_projection(
            "a",
            1,
            vec![col("x", SortOrder::None), col("y", SortOrder::None)],
        )
        .unwrap();
        cat.add_projection("b", 1, vec![col("z", SortOrder::None)])
            .unwrap();
        let a = cat.projection_by_name("a").unwrap();
        let b = cat.projection_by_name("b").unwrap();
        assert_eq!(a.columns[0].id, ColumnId(0));
        assert_eq!(a.columns[1].id, ColumnId(1));
        assert_eq!(b.columns[0].id, ColumnId(2));
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let mut cat = Catalog::new();
        cat.add_projection(
            "lineitem",
            10,
            vec![
                col("retflag", SortOrder::Primary),
                col("shipdate", SortOrder::Secondary),
            ],
        )
        .unwrap();
        let bytes = cat.serialize();
        let back = Catalog::parse(&bytes).unwrap();
        let p = back.projection_by_name("lineitem").unwrap();
        assert_eq!(p.num_rows, 10);
        assert_eq!(p.columns.len(), 2);
        assert_eq!(p.columns[1].name, "shipdate");
        assert_eq!(p.columns[1].sort, SortOrder::Secondary);
        assert_eq!(p.columns[0].stats, stats());
    }

    #[test]
    fn replace_projection_bumps_epoch_and_keeps_identity() {
        let mut cat = Catalog::new();
        let id = cat
            .add_projection("t", 10, vec![col("a", SortOrder::Primary)])
            .unwrap();
        assert_eq!(cat.projection(id).unwrap().wal_epoch, 0);
        cat.replace_projection(id, 13, vec![col("a", SortOrder::None)])
            .unwrap();
        let p = cat.projection(id).unwrap();
        assert_eq!((p.id, p.name.as_str()), (id, "t"));
        assert_eq!(p.num_rows, 13);
        assert_eq!(p.wal_epoch, 1);
        // Fresh column ids, so stale reader caches can never alias.
        assert_eq!(p.columns[0].id, ColumnId(1));
        // Epoch survives a persistence roundtrip.
        let back = Catalog::parse(&cat.serialize()).unwrap();
        assert_eq!(back.projection(id).unwrap().wal_epoch, 1);
        // Wrong arity is rejected.
        assert!(cat.replace_projection(id, 1, vec![]).is_err());
    }

    #[test]
    fn parse_accepts_version_1_with_epoch_zero() {
        let mut cat = Catalog::new();
        cat.add_projection("t", 10, vec![col("a", SortOrder::Primary)])
            .unwrap();
        let mut bytes = cat.serialize();
        // Rewrite the header version to 1 and splice out the fields v1
        // lacks: the per-column flags byte (after name/id/enc/width/sort
        // of column "a") first, then the 4-byte epoch (right after the
        // projection name + row count) so the earlier offset stays valid.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let epoch_at = 4 + 4 + 4 + 4 + (4 + 1) + 8;
        let flags_at = epoch_at + 4 + 4 + (4 + 1) + 4 + 1 + 1 + 1;
        bytes.drain(flags_at..flags_at + 1);
        bytes.drain(epoch_at..epoch_at + 4);
        let back = Catalog::parse(&bytes).unwrap();
        let p = back.projection_by_name("t").unwrap();
        assert_eq!(p.wal_epoch, 0);
        assert!(!p.columns[0].shared_dict);
    }

    #[test]
    fn hostile_column_count_is_corrupt_not_an_allocation() {
        // A 33-byte version-1 catalog: one projection "t", zero rows,
        // and a column count of u32::MAX with nothing behind it.
        let mut bytes = b"MSCT".to_vec();
        for word in [1u32, 1, 0, 1] {
            bytes.extend_from_slice(&word.to_le_bytes()); // version, nproj, next id, name len
        }
        bytes.push(b't');
        bytes.extend_from_slice(&0u64.to_le_bytes()); // num_rows
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // ncols
        assert_eq!(bytes.len(), 33);
        let err = Catalog::parse(&bytes).unwrap_err();
        assert!(err.to_string().contains("columns cannot fit"), "{err}");
    }

    #[test]
    fn shared_dict_flag_survives_roundtrip() {
        let mut cat = Catalog::new();
        let mut shared = col("k", SortOrder::None);
        shared.encoding = EncodingKind::Dict;
        shared.shared_dict = true;
        cat.add_projection("t", 10, vec![shared, col("v", SortOrder::None)])
            .unwrap();
        let back = Catalog::parse(&cat.serialize()).unwrap();
        let p = back.projection_by_name("t").unwrap();
        assert!(p.columns[0].shared_dict);
        assert!(!p.columns[1].shared_dict);
    }

    #[test]
    fn spec_builder_shared_dict_column() {
        let spec = ProjectionSpec::new("t")
            .column("a", EncodingKind::Rle, SortOrder::Primary)
            .column_shared_dict("k", SortOrder::None);
        assert!(!spec.columns[0].shared_dict);
        assert!(spec.columns[1].shared_dict);
        assert_eq!(spec.columns[1].encoding, EncodingKind::Dict);
    }

    #[test]
    fn verify_sort_order_accepts_lexicographic() {
        let a = vec![1, 1, 1, 2, 2];
        let b = vec![1, 2, 2, 1, 3];
        verify_sort_order(&[&a, &b]).unwrap();
    }

    #[test]
    fn verify_sort_order_rejects_violation() {
        let a = vec![1, 1, 2, 1];
        assert!(verify_sort_order(&[&a]).is_err());
        let p = vec![1, 1, 1];
        let s = vec![2, 1, 3];
        assert!(verify_sort_order(&[&p, &s]).is_err());
    }

    #[test]
    fn self_sorted_detection() {
        let mut c = col("x", SortOrder::None);
        // 10 runs, 10 distinct → sorted
        assert!(c.self_sorted());
        c.stats.num_runs = 20;
        assert!(!c.self_sorted());
        c.sort = SortOrder::Primary;
        assert!(c.self_sorted());
    }

    #[test]
    fn column_by_name_and_index() {
        let mut cat = Catalog::new();
        let id = cat
            .add_projection(
                "t",
                1,
                vec![col("a", SortOrder::None), col("b", SortOrder::None)],
            )
            .unwrap();
        let p = cat.projection(id).unwrap();
        assert_eq!(p.column_by_name("b").unwrap().0, 1);
        assert!(p.column_by_name("c").is_none());
        assert!(p.column(1).is_ok());
        assert!(p.column(2).is_err());
    }
}
